"""Desk-scale task instantiations: sparse coding, deconvolution, separation.

Each task ships a deterministic generator (counter-based PRNG), a builder
that assembles the fixed-point operator together with its hyper-parameter
vector, box bounds, and upper loss, plus restoration-quality metrics and
a self-describing binary container for instances.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError, FormatError, NumericsError
from .hypergrad import LossDescriptor
from .metric import MetricMatrix, spectral_norm_estimate  # noqa: F401 (the bench traces it)
from .operators import (AlmOperator, CompositeOperator, DladmmOperator,
                        NetOperator, OmegaBox, PgOperator, make_hyperparams,
                        renormalize_for)

PRNG_NAME = "philox4x64"
MAGIC = b"GKMBMO-INSTANCE1"
_PINNED_CAP = 10000  # steps of the separation build's power iteration


def task_rng(seed, stream=0):
    """Counter-based generator; ``stream`` splits substreams deterministically.

    The seed is the generator's 64-bit key, so one outside [0, 2**64) is refused.
    """
    if not 0 <= seed < 2 ** 64:
        raise ContractError(f"seed must lie in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stream)]))


def _require_sizes(*checks):
    """Refuse a size below its least buildable value; each check is (config field, size, least)."""
    for name, size, least in checks:
        if not size >= least:
            raise ContractError(f"{name} must be at least {least}, got {size!r}")


def _require_nonnegative(*checks):
    """Refuse a value that is not finite and nonnegative; each check is (config field, value)."""
    for name, value in checks:
        if not 0 <= value < math.inf:
            raise ContractError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass
class TaskBundle:
    """Operator plus everything the trainer needs to run it.

    ``h_lb`` is a metric lower bound valid over the whole omega box, the
    operator's own H at the box corner where H is lowest; the step-size
    rule and recorded residuals use it so they stay meaningful while
    training moves omega.
    """

    op: object
    omega0: object
    bounds: OmegaBox
    loss: LossDescriptor
    u0: Optional[np.ndarray] = None
    h_lb: Optional[MetricMatrix] = None


# beta and gamma lower H(omega) as they grow, every rho and metric diagonal
# as it shrinks; the thresholds do not enter H
_H_LOWERING_UPPER_END = frozenset({"beta", "gamma"})


def _h_lowest(op, omega0, bounds):
    """H at the corner of the omega box where it is lowest, a lower bound over the box.

    Coordinates of an unbounded box side (network layers, which do not
    enter H) stay at omega0.
    """
    upper = np.concatenate([np.full(s.size, s.name in _H_LOWERING_UPPER_END)
                            for s in omega0.layout])
    corner = np.where(upper, bounds.upper, bounds.lower)
    return op.metric(omega0.with_values(np.where(np.isfinite(corner), corner, omega0.values)))


# ---------------------------------------------------------------------------
# sparse coding (three-block linearized ADMM)
# ---------------------------------------------------------------------------

@dataclass
class SparseCodingInstance:
    Q: np.ndarray
    b: np.ndarray
    codes: np.ndarray
    noise_mask: np.ndarray
    b_test: np.ndarray
    codes_test: np.ndarray
    noise_mask_test: np.ndarray
    kappa1: float
    kappa2: float
    seed: int
    params: dict = field(default_factory=dict)

    task = "sparse_coding"


def _sparse_batch(rng, Q, n, batch, sparsity, noise_frac):
    nnz = math.ceil(sparsity * n)
    codes = np.zeros((n, batch))
    for j in range(batch):
        support = rng.choice(n, size=nnz, replace=False)
        codes[support, j] = rng.standard_normal(nnz)
    b = Q @ codes
    mask = np.zeros_like(b, dtype=bool)
    if noise_frac > 0:
        m = b.shape[0]
        count = int(round(noise_frac * m))
        peak = float(np.max(np.abs(b))) if np.any(b) else 1.0
        for j in range(batch):
            idx = rng.choice(m, size=count, replace=False)
            signs = rng.choice([-1.0, 1.0], size=count)
            b[idx, j] = signs * peak
            mask[idx, j] = True
    return codes, b, mask


def gen_sparse_coding(m=64, n=128, batch=256, sparsity=0.1, noise_frac=0.1,
                      seed=0, kappa1=1.0, kappa2=1.0, test_batch=None):
    """Random dictionary with unit columns; sparse codes; salt-and-pepper noise."""
    _require_sizes(("gen.m", m, 1), ("gen.batch", batch, 1))
    _require_nonnegative(("gen.kappa1", kappa1), ("gen.kappa2", kappa2))
    if m >= n:
        raise ContractError("sparse coding requires an overcomplete dictionary (m < n)")
    if not (0.0 < sparsity < 1.0):
        raise ContractError("sparsity must lie in (0, 1)")
    if not (0.0 <= noise_frac < 1.0):
        raise ContractError("noise fraction must lie in [0, 1)")
    rng = task_rng(seed)
    Q = rng.standard_normal((m, n))
    Q /= np.linalg.norm(Q, axis=0)
    codes, b, mask = _sparse_batch(rng, Q, n, batch, sparsity, noise_frac)
    tb = test_batch if test_batch is not None else max(batch // 4, 1)
    rng_test = task_rng(seed, stream=1)
    codes_t, b_t, mask_t = _sparse_batch(rng_test, Q, n, tb, sparsity, noise_frac)
    return SparseCodingInstance(Q, b, codes, mask, b_t, codes_t, mask_t,
                                kappa1, kappa2, seed,
                                {"m": m, "n": n, "batch": batch,
                                 "sparsity": sparsity, "noise_frac": noise_frac})


RHO1_MARGIN = 1.05


def build_sparse_coding_operator(inst, learnable="all", beta=0.1, gamma=1.0,
                                 test=False, beta_bounds=None):
    """DLADMM descriptor over (u1, u2, lam) with the task's omega layout.

    ``learnable="all"`` exposes (beta, gamma, rho1, rho2, kappa1, kappa2);
    ``learnable="ladmm"`` exposes only (beta, gamma), the step-size-style
    baseline.  rho defaults sit at the certified lower bounds for the
    whole beta box so clamped updates stay non-expansive; widen
    ``beta_bounds`` to give the penalty more travel.
    """
    b = inst.b_test if test else inst.b
    beta_lb, beta_ub = beta_bounds if beta_bounds is not None else (0.5 * beta, 1.25 * beta)
    if not (0 < beta_lb <= beta <= beta_ub):
        raise ContractError("beta default must lie inside its box")
    if learnable not in ("all", "ladmm"):
        raise ContractError(f"unknown learnable set {learnable!r}")
    # the operator measures L_Q once; the ladmm baseline pins rho at the floors it sets
    op = DladmmOperator(Q=inst.Q, bvec=b, beta="beta", gamma="gamma",
                        rho1="rho1", rho2="rho2", kappa1="kappa1", kappa2="kappa2")
    rho1_floor = RHO1_MARGIN * beta_ub * op.lipschitz_Q ** 2
    rho2_floor = beta_ub
    if learnable == "all":
        omega0 = make_hyperparams([
            ("beta", beta, "penalty"), ("gamma", gamma, "step-size"),
            ("rho1", rho1_floor, "penalty"), ("rho2", rho2_floor, "penalty"),
            ("kappa1", inst.kappa1, "threshold"), ("kappa2", inst.kappa2, "threshold")])
        bounds = OmegaBox(
            np.array([beta_lb, 0.25, rho1_floor, rho2_floor, 1e-3, 1e-3]),
            np.array([beta_ub, 1.0, 4.0 * rho1_floor, 4.0 * rho2_floor, 10.0, 10.0]))
    else:
        op.rho1, op.rho2, op.kappa1, op.kappa2 = rho1_floor, rho2_floor, inst.kappa1, inst.kappa2
        omega0 = make_hyperparams([("beta", beta, "penalty"),
                                   ("gamma", gamma, "step-size")])
        bounds = OmegaBox(np.array([beta_lb, 0.25]), np.array([beta_ub, 1.0]))
    loss = LossDescriptor("feasibility", op.dim, Q=inst.Q, bmat=b)
    return TaskBundle(op, omega0, bounds, loss, u0=np.zeros((op.dim, b.shape[1])),
                      h_lb=_h_lowest(op, omega0, bounds))


# ---------------------------------------------------------------------------
# 1-D deconvolution (proximal gradient in wavelet coefficients + network)
# ---------------------------------------------------------------------------

@dataclass
class DeconvInstance:
    kernel: np.ndarray
    W: np.ndarray
    u_star: np.ndarray
    b: np.ndarray
    sigma: float
    seed: int
    params: dict = field(default_factory=dict)

    task = "deconv"


def haar_matrix(n):
    """Orthonormal Haar transform matrix for n a power of two."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ContractError("Haar transform needs a power-of-two length")
    W = np.array([[1.0]])
    while W.shape[1] < n:
        size = W.shape[1]
        top = np.kron(W, np.array([1.0, 1.0]))
        bottom = np.kron(np.eye(size), np.array([1.0, -1.0]))
        W = np.vstack([top, bottom]) / math.sqrt(2.0)
    return W


def _kernel_column(kernel, n):
    """First column of the circulant convolution: the kernel centred on index 0."""
    q = np.zeros(n)
    k = np.asarray(kernel, dtype=float)
    half = len(k) // 2
    for i, v in enumerate(k):
        q[(i - half) % n] = v
    return q


def circulant(kernel, n):
    """Dense circulant convolution matrix for a (short) kernel."""
    q = _kernel_column(kernel, n)
    C = np.empty((n, n))
    for i in range(n):
        C[:, i] = np.roll(q, i)
    return C


def circulant_sigma_max(kernel, n):
    return float(np.max(np.abs(np.fft.fft(_kernel_column(kernel, n)))))


def gen_deconv(n=64, kernel_sigma=1.0, kernel_width=7, noise_sigma=0.01, seed=0):
    """Piecewise-smooth 1-D signal, Gaussian blur kernel, circular observation."""
    _require_sizes(("gen.n", n, 4), ("gen.kernel_width", kernel_width, 1))
    if n & (n - 1):
        raise ContractError(f"gen.n must be a power of two, the Haar transform's length, got {n}")
    if not 0 < kernel_sigma < math.inf:
        raise ContractError(f"gen.kernel_sigma must be positive and finite, got {kernel_sigma!r}")
    _require_nonnegative(("gen.noise_sigma", noise_sigma))
    rng = task_rng(seed)
    t = np.arange(n) / n
    u = 0.6 * np.sin(2 * np.pi * t) + 0.3 * np.sin(6 * np.pi * t + 1.0)
    steps = rng.choice(n, size=3, replace=False)
    for s in steps:
        u[s:] += rng.uniform(-0.5, 0.5)
    x = np.arange(kernel_width) - kernel_width // 2
    kernel = np.exp(-0.5 * (x / kernel_sigma) ** 2)
    kernel /= kernel.sum()
    Qc = circulant(kernel, n)
    b = Qc @ u + noise_sigma * rng.standard_normal(n)
    return DeconvInstance(kernel, haar_matrix(n), u, b, noise_sigma, seed,
                          {"n": n, "kernel_sigma": kernel_sigma,
                           "kernel_width": kernel_width, "noise_sigma": noise_sigma})


def build_deconv_operator(inst, net_widths=(), net_rho_bar=1.0, seed=0, identity_net=False):
    """Composite of a wavelet-domain prox-gradient step and a normalized net.

    The smooth term is 1/2 |Qc W^T z - b|^2 in Haar coefficients z, the
    regularizer a learnable-threshold l1 norm, and the prox metric a
    learnable diagonal G bounded below by L_f/2 so the unit step stays
    inside its admissible range.  The net is conjugated by G so both
    members certify in the same metric.
    """
    _require_sizes(*(("op.net_widths", w, 1) for w in net_widths))
    n = inst.u_star.shape[0]
    Qc = circulant(inst.kernel, n)
    W = inst.W
    P = W @ (Qc.T @ Qc) @ W.T
    P = 0.5 * (P + P.T)
    q = -(W @ (Qc.T @ inst.b))
    Lf = circulant_sigma_max(inst.kernel, n) ** 2
    g_lo = 0.55 * max(Lf, 1e-6)
    g0 = max(Lf, 1e-6) * np.ones(n)
    parts = [("gdiag", g0, "metric-diagonal"), ("kappa", 0.05, "threshold")]
    rng = task_rng(seed, stream=2)
    widths = (n,) + tuple(net_widths) + (n,)
    wnames, bnames = [], []
    for i, (win, wout) in enumerate(zip(widths[:-1], widths[1:])):
        if identity_net:
            Wl = np.eye(wout, win)
            bl = np.zeros(wout)
        else:
            Wl = rng.standard_normal((wout, win)) / math.sqrt(win)
            bl = rng.standard_normal(wout) * 0.01
        parts.append((f"W{i}", Wl, "layer-matrix"))
        parts.append((f"b{i}", bl, "layer-bias"))
        wnames.append(f"W{i}")
        bnames.append(f"b{i}")
    pg = PgOperator(dim=n, quad=P, lin=q, l1_weights=np.ones(n), gamma=1.0,
                    gdiag="gdiag", thresh="kappa")
    net = NetOperator(dim=n, weight_names=tuple(wnames), bias_names=tuple(bnames),
                      widths=widths, nonlinearity="identity" if identity_net else "tanh",
                      rho_bar=net_rho_bar, conjugate="gdiag")
    op = CompositeOperator(members=(pg, net))
    omega0 = renormalize_for(op, make_hyperparams(parts))
    lo = np.concatenate([np.full(n, g_lo), [1e-4],
                         np.full(omega0.dim - n - 1, -np.inf)])
    hi = np.concatenate([np.full(n, 10.0 * max(Lf, 1e-6)), [5.0],
                         np.full(omega0.dim - n - 1, np.inf)])
    bounds = OmegaBox(lo, hi)
    loss = LossDescriptor("squared_error", n, target=W @ inst.u_star)
    return TaskBundle(op, omega0, bounds, loss, u0=W @ inst.b,
                      h_lb=_h_lowest(op, omega0, bounds))


# ---------------------------------------------------------------------------
# 1-D two-signal separation (proximal ALM with structured prox metric)
# ---------------------------------------------------------------------------

@dataclass
class SeparationInstance:
    u_b: np.ndarray
    u_r: np.ndarray
    b: np.ndarray
    kappa_b: float
    kappa_r: float
    seed: int
    params: dict = field(default_factory=dict)

    task = "separation"


def forward_diff(n):
    """Square forward-difference operator (zero last row); grad^T grad tridiagonal."""
    D = np.zeros((n, n))
    for i in range(n - 1):
        D[i, i] = -1.0
        D[i, i + 1] = 1.0
    return D


def _pinned_power_norm(D):
    """sigma_max(D) of ``forward_diff`` by the power iteration the separation build pins.

    It stops below the exact 2 cos(pi / 2n), by 2.8e-5 relative at n = 64, and
    ``bench/reference.json`` was made with the rho0 it sets; the benchmark
    change that regenerates that reference deletes this helper.  Raises
    NumericsError if successive values do not settle in ``_PINNED_CAP`` steps.
    """
    if not np.any(D):
        return 0.0
    rng = np.random.default_rng(20240915)
    v = rng.standard_normal(D.shape[1])
    v /= np.linalg.norm(v)
    sigma_prev = None
    for _ in range(_PINNED_CAP):
        # v is random, then in range(D^T), so neither D v nor D^T D v is 0
        w = D @ v
        z = D.T @ (w / np.linalg.norm(w))
        sigma = np.linalg.norm(z)
        v = z / sigma
        # successive change understates the error near clustered values: stop at 0.1 tol
        if sigma_prev is not None and abs(sigma - sigma_prev) <= 0.1 * 1e-6 * sigma:
            return float(sigma)
        sigma_prev = sigma
    raise NumericsError(f"power iteration did not converge in {_PINNED_CAP} iterations")


def gen_separation(n=64, njumps=3, nspikes=4, seed=0, kappa_b=0.05, kappa_r=0.05):
    """Piecewise-smooth background plus a sparse-gradient streak layer; b is exact."""
    _require_sizes(("gen.njumps", njumps, 0), ("gen.nspikes", nspikes, 0),
                   ("gen.n", n, max(njumps + 2, nspikes)))
    _require_nonnegative(("gen.kappa_b", kappa_b), ("gen.kappa_r", kappa_r))
    rng = task_rng(seed)
    t = np.arange(n) / n
    u_b = 0.8 * np.sin(2 * np.pi * t + rng.uniform(0, 2 * np.pi))
    u_r = np.zeros(n)
    jumps = rng.choice(n - 2, size=njumps, replace=False) + 1
    for j in jumps:
        u_r[j:] += rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
    for s in rng.choice(n, size=nspikes, replace=False):
        u_r[s] += rng.uniform(-0.5, 0.5)
    b = u_b + u_r
    return SeparationInstance(u_b, u_r, b, kappa_b, kappa_r, seed,
                              {"n": n, "njumps": njumps, "nspikes": nspikes})


def _separation_rho_floor(beta, s2, margin=1.25):
    """Smallest rho with (rho - beta s^2)(rho - beta) >= margin * beta^2 s^2."""
    c = beta * (1.0 + s2)
    disc = beta ** 2 * (1.0 + s2) ** 2 - 4.0 * (beta ** 2 * s2 - margin * beta ** 2 * s2)
    return 0.5 * (c + math.sqrt(max(disc, 0.0)))


def build_separation_operator(inst, beta=0.2):
    """Augmented-Lagrangian descriptor over (u_b, u_r, v_b, v_r, lam_b, lam_r).

    Constraints u_b = v_b and grad u_r = v_r; the prox metric is
    diag(rho) - beta A^T A, which linearizes the penalty so every block
    has a closed-form update, and the operator metric carries the
    per-block rho - beta terms with the dual block scaled by 1/beta.
    """
    n = inst.b.shape[0]
    D = forward_diff(n)
    A = np.zeros((2 * n, 4 * n))
    A[:n, :n] = np.eye(n)
    A[:n, 2 * n:3 * n] = -np.eye(n)
    A[n:, n:2 * n] = D
    A[n:, 3 * n:] = -np.eye(n)
    quad = np.zeros((4 * n, 4 * n))
    quad[:n, :n] = np.eye(n)
    quad[:n, n:2 * n] = np.eye(n)
    quad[n:2 * n, :n] = np.eye(n)
    quad[n:2 * n, n:2 * n] = np.eye(n)
    lin = np.concatenate([-inst.b, -inst.b, np.zeros(2 * n)])
    w = np.concatenate([np.zeros(2 * n), np.ones(2 * n)])
    blocks = {}
    for i, name in enumerate(("rho_ub", "rho_ur", "rho_vb", "rho_vr")):
        mask = np.zeros(4 * n, dtype=bool)
        mask[i * n:(i + 1) * n] = True
        blocks[name] = mask
    mask_vb = blocks["rho_vb"]
    mask_vr = blocks["rho_vr"]
    s2 = _pinned_power_norm(D) ** 2
    beta_lb, beta_ub = 0.5 * beta, 1.25 * beta
    rho_floor = _separation_rho_floor(beta_ub, s2)
    rho0 = 1.1 * rho_floor
    op = AlmOperator(nprimal=4 * n, ndual=2 * n, A=A, bvec=np.zeros(2 * n),
                     quad=quad, lin=lin, l1_weights=w, beta="beta",
                     gmode="rho-lin",
                     rho_groups=tuple((k, v) for k, v in blocks.items()),
                     thresh_groups=(("kappa_b", mask_vb), ("kappa_r", mask_vr)))
    omega0 = make_hyperparams([
        ("beta", beta, "penalty"),
        ("rho_ub", rho0, "penalty"), ("rho_ur", rho0, "penalty"),
        ("rho_vb", rho0, "penalty"), ("rho_vr", rho0, "penalty"),
        ("kappa_b", inst.kappa_b, "threshold"), ("kappa_r", inst.kappa_r, "threshold")])
    bounds = OmegaBox(
        np.array([beta_lb, rho_floor, rho_floor, rho_floor, rho_floor, 1e-4, 1e-4]),
        np.array([beta_ub, 6.0 * rho0, 6.0 * rho0, 6.0 * rho0, 6.0 * rho0, 5.0, 5.0]))
    op.validate_omega(omega0)
    weight = np.concatenate([np.ones(2 * n), np.zeros(2 * n), np.zeros(2 * n)])
    target = np.concatenate([inst.u_b, inst.u_r, np.zeros(4 * n)])
    loss = LossDescriptor("squared_error", op.dim, target=target, weight=weight)
    u0 = np.concatenate([inst.b, np.zeros(5 * n)])
    return TaskBundle(op, omega0, bounds, loss, u0=u0, h_lb=_h_lowest(op, omega0, bounds))


# ---------------------------------------------------------------------------
# quality metrics
# ---------------------------------------------------------------------------

def psnr(x, y, peak=1.0):
    """10 log10(peak^2 / MSE); returns +inf when the signals coincide."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ContractError("psnr requires equal shapes")
    if peak <= 0:
        raise ContractError("psnr peak must be positive")
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak ** 2 / mse)


def _gaussian_window(width=11, sigma=1.5):
    x = np.arange(width) - (width - 1) / 2.0
    w = np.exp(-0.5 * (x / sigma) ** 2)
    return w / w.sum()


def _window_filter(x, w):
    if x.ndim == 1:
        if x.shape[0] < w.shape[0]:
            raise ContractError("signal shorter than the ssim window")
        return np.convolve(x, w, mode="valid")
    if x.ndim == 2:
        if min(x.shape) < w.shape[0]:
            raise ContractError("image smaller than the ssim window")
        rows = np.apply_along_axis(lambda r: np.convolve(r, w, mode="valid"), 1, x)
        return np.apply_along_axis(lambda c: np.convolve(c, w, mode="valid"), 0, rows)
    raise ContractError("ssim supports 1-D signals and 2-D images")


def ssim(x, y, peak=1.0):
    """Mean structural similarity with an 11-tap Gaussian window (sigma 1.5)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ContractError("ssim requires equal shapes")
    w = _gaussian_window()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mx = _window_filter(x, w)
    my = _window_filter(y, w)
    mxx = _window_filter(x * x, w)
    myy = _window_filter(y * y, w)
    mxy = _window_filter(x * y, w)
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx ** 2 + my ** 2 + c1) * (vx + vy + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# instance container
# ---------------------------------------------------------------------------

# each task's arrays in container order, with the task's one shape rule: an
# array's dimensions as letters, each letter one positive size throughout
_INSTANCE_FIELDS = {
    "sparse_coding": {"Q": "mn", "b": "mB", "codes": "nB", "noise_mask": "mB",
                      "b_test": "mT", "codes_test": "nT", "noise_mask_test": "mT"},
    "deconv": {"kernel": "w", "W": "nn", "u_star": "n", "b": "n"},
    "separation": {"u_b": "n", "u_r": "n", "b": "n"},
}

_INSTANCE_SCALARS = {
    "sparse_coding": ("kappa1", "kappa2"),
    "deconv": ("sigma",),
    "separation": ("kappa_b", "kappa_r"),
}

_INSTANCE_TYPES = {
    "sparse_coding": SparseCodingInstance,
    "deconv": DeconvInstance,
    "separation": SeparationInstance,
}


def save_instance(inst, path):
    """Write the 16-byte magic, a JSON manifest, then raw little-endian arrays."""
    arrays = []
    manifest = {
        "task": inst.task,
        "prng": PRNG_NAME,
        "seed": inst.seed,
        "params": inst.params,
        "scalars": {k: float(getattr(inst, k)) for k in _INSTANCE_SCALARS[inst.task]},
        "arrays": [],
    }
    for name in _INSTANCE_FIELDS[inst.task]:
        arr = np.asarray(getattr(inst, name), dtype="<f8")
        manifest["arrays"].append({"name": name, "dtype": "<f8",
                                   "shape": list(arr.shape)})
        arrays.append(arr)
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr).tobytes())


def load_instance(path):
    """Read an instance container; any malformed, truncated or non-finite part is a FormatError."""
    with open(path, "rb") as fh:
        magic = fh.read(16)
        if magic != MAGIC:
            raise FormatError(f"bad instance magic {magic!r}")
        head = fh.read(4)
        if len(head) != 4:
            raise FormatError("instance header cut off before the manifest length")
        (blob_len,) = struct.unpack("<I", head)
        try:
            manifest = json.loads(fh.read(blob_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise FormatError(f"corrupt instance manifest: {err}") from err
        task = manifest.get("task") if isinstance(manifest, dict) else None
        if task not in _INSTANCE_TYPES:
            raise FormatError(f"unknown task {task!r} in instance manifest")
        specs = manifest.get("arrays")
        try:
            shapes = {spec["name"]: tuple(int(d) for d in spec["shape"]) for spec in specs}
            scalars = {k: float(manifest["scalars"][k]) for k in _INSTANCE_SCALARS[task]}
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"malformed instance manifest: {err!r}") from err
        for name, value in scalars.items():
            # the scalars are thresholds and a noise level
            if not 0 <= value < math.inf:
                raise FormatError(f"instance scalar {name!r} must be finite and "
                                  f"nonnegative, got {value!r}")
        rule = _INSTANCE_FIELDS[task]
        if sorted(shapes) != sorted(rule) or len(shapes) != len(specs):
            raise FormatError(f"instance manifest must list each of {tuple(rule)} once")
        sizes = {}
        for name, letters in rule.items():
            shape = shapes[name]
            if len(shape) != len(letters) or any(
                    d < 1 or sizes.setdefault(c, d) != d for c, d in zip(letters, shape)):
                raise FormatError(f"instance array {name!r} of shape {list(shape)} breaks "
                                  f"the {task} shape rule {rule}")
        # sized before it is read, so no manifest can ask for more than the file holds
        counts = {name: math.prod(shape) for name, shape in shapes.items()}
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * sum(counts.values()):
            raise FormatError(f"instance payload holds {payload} bytes, not the "
                              f"{8 * sum(counts.values())} its manifest's arrays need")
        fields = {}
        for name, shape in shapes.items():
            fields[name] = np.frombuffer(fh.read(8 * counts[name]), dtype="<f8").reshape(shape).copy()
            if not np.isfinite(fields[name]).all():
                raise FormatError(f"instance array {name!r} has a non-finite entry")
    if task == "sparse_coding":
        fields["noise_mask"] = fields["noise_mask"].astype(bool)
        fields["noise_mask_test"] = fields["noise_mask_test"].astype(bool)
    return _INSTANCE_TYPES[task](**fields, **scalars, seed=manifest.get("seed", 0),
                                 params=manifest.get("params", {}))
