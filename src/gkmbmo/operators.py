"""Parameterized fixed-point operators and the averaging wrapper T.

Each operator is a self-map ``D(state, omega)``, non-expansive in its own
metric H(omega): ``PgOperator`` (a prox-gradient step), ``AlmOperator``
(a proximal augmented-Lagrangian step), ``DladmmOperator`` (a three-block
linearized ADMM update), ``NetOperator`` (a spectrally normalized net)
and ``CompositeOperator`` (a composition sharing one metric).  States are
arrays of shape ``(dim,)`` or ``(dim, B)``, and every map is vectorized
over the batch columns.

An operator reads omega through one context, which ``prepare(omega)``
binds once per omega object: each spec's value and gradient slot, both
from ``_spec``, a net's layer matrices, their spectral norms and
sqrt(g), the threshold vectors derived from them, and the metric
H(omega).  So no per-step path resolves a slice by name.
The binding admits omega: it runs every check the operator's certificate
holds and proves H(omega) positive definite, so ``forward``, ``metric``
(the context's H) and ``validate_omega`` (the binding alone) refuse the
same omegas with the same ContractError.  A margin is admitted at zero
(gamma at 2 lambda_min(G)/L_f, a layer at its budget, rho2 = beta)
unless it is an eigenvalue of H (DLADMM's rho1 lead, ALM's G), which
the metric's floor refuses.  Each operator writes its map once, as a
forward/reverse pair in the manner of a custom VJP:

* ``forward(state, omega) -> (out, res)``: D(state), and in ``res`` the
  context and the intermediates the reverse rule reads, but no view of
  the state (a soft threshold keeps only the int8 sign of its output);
* ``apply_vjp(res, cot, grad)`` returns cot^T dD/dstate and adds
  cot^T dD/domega into ``grad``, reading omega only through ``res``'s
  context and running no forward pass;
* ``metric_quad_vjp(omega, x, y, grad, scale)`` adds
  scale * d<x, H(omega) y>/domega into ``grad``.

``grad`` is always an ``OmegaGrad``, which the caller reduces.  ``apply``
is ``forward(...)[0]``, and a composite chains its members' pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import CapabilityError, ContractError
from .metric import MetricMatrix, spectral_norm_estimate

PARAM_ROLES = frozenset(
    {"step-size", "penalty", "threshold", "metric-diagonal", "layer-matrix", "layer-bias"}
)

_POSITIVE_ROLES = frozenset({"step-size", "penalty", "metric-diagonal"})


# ---------------------------------------------------------------------------
# hyper-training variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSlice:
    name: str
    offset: int
    shape: tuple
    role: str

    @property
    def size(self):
        return int(math.prod(self.shape))


@dataclass(frozen=True)
class HyperParams:
    """Flat hyper-training vector with a structural layout.

    The layout tiles ``values`` exactly: slices are contiguous, ordered,
    and leave no gaps.  Every value must be finite, and slices carrying
    step sizes, penalties or metric diagonals must be strictly positive
    (the box constraints on the feasible set keep them that way during
    training).
    """

    values: np.ndarray
    layout: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        layout = tuple(self.layout)
        off = 0
        for s in layout:
            if s.role not in PARAM_ROLES:
                raise ContractError(f"unknown slice role {s.role!r}")
            if s.offset != off:
                raise ContractError(f"slice {s.name!r} leaves a gap or overlaps at offset {off}")
            off += s.size
        if off != vals.shape[0]:
            raise ContractError(f"layout covers {off} entries but values has {vals.shape[0]}")
        names = [s.name for s in layout]
        if len(set(names)) != len(names):
            raise ContractError("duplicate slice names in layout")
        if not np.isfinite(vals).all():
            s = next(s for s in layout if not np.isfinite(vals[s.offset:s.offset + s.size]).all())
            raise ContractError(f"slice {s.name!r} holds a non-finite value")
        for s in layout:
            if s.role in _POSITIVE_ROLES and np.any(vals[s.offset:s.offset + s.size] <= 0):
                raise ContractError(f"slice {s.name!r} ({s.role}) must be strictly positive")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self):
        return self.values.shape[0]

    def slice_for(self, name):
        for s in self.layout:
            if s.name == name:
                return s
        raise ContractError(f"no slice named {name!r} in layout")

    def view(self, name):
        s = self.slice_for(name)
        return self.values[s.offset:s.offset + s.size].reshape(s.shape)

    def with_values(self, values):
        return HyperParams(np.asarray(values, dtype=float), self.layout)

    def replace_slice(self, name, new):
        s = self.slice_for(name)
        vals = self.values.copy()
        vals[s.offset:s.offset + s.size] = np.asarray(new, dtype=float).reshape(-1)
        return self.with_values(vals)


def make_hyperparams(parts):
    """Build HyperParams from ``[(name, array_or_scalar, role), ...]``."""
    vals, layout, off = [], [], 0
    for name, value, role in parts:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        layout.append(ParamSlice(name, off, arr.shape, role))
        vals.append(arr.reshape(-1))
        off += arr.size
    return HyperParams(np.concatenate(vals) if vals else np.zeros(0), tuple(layout))


@dataclass(frozen=True)
class OmegaBox:
    """Per-coordinate box: the compact set of omega, or the feasible set U of u.

    The bounds have shape (dim,), and +-inf leaves a coordinate free.
    Each method takes a (dim,) point or a (dim, B) batch of points as
    columns.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or np.any(np.isnan(lo) | np.isnan(hi) | (lo > hi)):
            raise ContractError("a box requires non-NaN lower <= upper of equal shape (dim,)")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def clamp(self, values):
        values = np.asarray(values, dtype=float)
        return np.clip(values, _col(self.lower, values), _col(self.upper, values))

    def contains(self, values):
        values = np.asarray(values, dtype=float)
        return bool(np.all(values >= _col(self.lower, values) - 1e-12)
                    and np.all(values <= _col(self.upper, values) + 1e-12))

    def interior(self, values):
        """True where a coordinate lies strictly inside its bounds."""
        return (values > _col(self.lower, values)) & (values < _col(self.upper, values))


# ---------------------------------------------------------------------------
# shared primitives
# ---------------------------------------------------------------------------

def soft_threshold(x, t):
    """sign(x) max(|x| - t, 0) as x less its clip to [-t, t]: +0.0, never -0.0, where |x| <= t."""
    return x - np.minimum(np.maximum(x, -t), t)


def _col(v, ref):
    """Broadcast a (d,) vector against a (d,) or (d, B) reference."""
    return v[:, None] if ref.ndim > 1 else v


def _match_b(b, ref):
    """Align a data vector/batch against the state's batch shape."""
    if b.ndim == 1:
        return b[:, None] if ref.ndim > 1 else b
    if ref.ndim == 1:
        if b.shape[1] == 1:
            return b[:, 0]
        raise ContractError("batched operator requires states with matching batch columns")
    if b.shape[1] not in (1, ref.shape[1]):
        raise ContractError("batch size mismatch between data and state")
    return b


def _diag_spec(spec, dim):
    """Check a diagonal-metric spec: a slice name, a fixed (dim,) array, or None for ones."""
    if isinstance(spec, str):
        return spec
    d = np.ones(dim) if spec is None else np.asarray(spec, dtype=float)
    if d.shape != (dim,):
        raise ContractError(f"a fixed metric diagonal must have shape ({dim},), got {d.shape}")
    return d


def _spec(omega, spec, dim=None):
    """A spec's value and the ``OmegaGrad.add`` slot of its gradient.

    A name reads its omega slice: a scalar, or with ``dim`` a (dim,)
    diagonal that a one-entry slice fills; a slice of another size is
    refused by name.  Its slot is the index of a one-entry slice, else its
    range.  A fixed value (None included) has slot None.
    """
    if not isinstance(spec, str):
        return (float(spec) if dim is None and spec is not None else spec), None
    v, s = omega.view(spec).reshape(-1), omega.slice_for(spec)
    if s.size == 1:
        return (float(v[0]) if dim is None else np.full(dim, float(v[0]))), s.offset
    if s.size != dim:
        raise ContractError(f"slice {spec!r} has {s.size} entries, not 1"
                            + ("" if dim is None else f" or {dim}"))
    return v.astype(float), slice(s.offset, s.offset + s.size)


def _colsum(x):
    """Sum a batched (d, B) array over its batch columns; (d,) passes through."""
    return x.sum(axis=-1) if x.ndim > 1 else x


class OmegaGrad:
    """The (dim,) omega gradient ``values`` that one reverse sweep adds into.

    A layer matrix's term da z^T is deferred: ``reduce`` adds each layer's
    sum over the sweep as one product of stacked columns,
    [da_K ... da_1] [z_K ... z_1]^T, where a batched da or z brings its
    B columns.  Every reverse rule adds into one; its caller reduces it.
    """

    def __init__(self, values):
        self.values, self._outer = values, {}    # a layer's (start, stop) -> [(da, z)]

    def add(self, slot, value, scale=1.0):
        """Add ``scale * value`` at a ``_spec`` slot: an index takes the sum of all
        entries, a range the sum over batch columns, None nothing."""
        if isinstance(slot, slice):
            value = _colsum(value)
            self.values[slot] += value if scale == 1.0 else scale * value   # 1.0 * v is v
        elif slot is not None:
            self.values[slot] += scale * float(np.sum(value))

    def add_outer(self, slot, da, z):
        """Defer da z^T, the term of the layer matrix at range ``slot``, to ``reduce``."""
        self._outer.setdefault((slot.start, slot.stop), []).append((da, z))

    def reduce(self):
        """Add every deferred layer term; returns ``values``."""
        for (start, stop), pairs in self._outer.items():
            das, zs = zip(*pairs)
            self.values[start:stop] += (np.column_stack(das) @ np.column_stack(zs).T).reshape(-1)
        self._outer = {}
        return self.values


def _survivor_sign(v):
    """The int8 sign of a soft-threshold output v = soft_threshold(x, t).

    It is sign(x) where |x| > t and 0 elsewhere, all that the reverse
    rule reads of x and t, in one byte per entry.
    """
    return np.sign(v).astype(np.int8)


def _soft_threshold_vjp(sgn, cot, summed=False):
    """Cotangents of soft_threshold(x, t) w.r.t. x and t, from its survivor sign;
    with ``summed``, t's is summed over every entry, as a scalar t's is."""
    return (sgn != 0) * cot, (-np.vdot(sgn, cot) if summed else -sgn * cot)


# ---------------------------------------------------------------------------
# GKM averaging
# ---------------------------------------------------------------------------

def average(state, d, cfg):
    """T(u) = u + alpha (D(u) - u), the averaged fixed-point update, given
    d = D(u); cfg supplies alpha."""
    return state + cfg.alpha * (d - state)


def apply_T(op, state, omega, cfg):
    """T(u), with D(u) from ``op.apply``."""
    return average(state, op.apply(state, omega), cfg)


class _Operator:
    """``prepare``, ``apply``, ``metric``, ``validate_omega`` and
    ``metric_quad_vjp``, over a subclass's ``_bind`` (which refuses an omega
    its certificate does not hold at and builds its H), ``forward`` and
    ``_quad_vjp(ctx, x, y, grad, scale)``; each subclass writes its own
    ``apply_vjp(res, cot, grad)``."""

    _bound = (None, None)    # (omega, its context)

    def prepare(self, omega, *measured):
        """The context ``_bind(omega, *measured)`` builds, once per omega object
        (it is frozen, and the kept reference stops its id from being reused);
        ``measured`` is what the caller has already measured of omega."""
        if omega is not self._bound[0]:
            self._bound = (omega, self._bind(omega, *measured))
        return self._bound[1]

    def apply(self, state, omega):
        return self.forward(state, omega)[0]

    def metric(self, omega):
        return self.prepare(omega)["H"]

    def validate_omega(self, omega):
        self.prepare(omega)

    def metric_quad_vjp(self, omega, x, y, grad, scale):
        self._quad_vjp(self.prepare(omega), x, y, grad, scale)


# ---------------------------------------------------------------------------
# proximal gradient operator
# ---------------------------------------------------------------------------

@dataclass
class PgOperator(_Operator):
    """One linearized proximal step for f quadratic, g a weighted l1 norm.

    f(u) = 1/2 u^T P u + q^T u (either part optional), g(u) = sum_i w_i |u_i|.
    The step minimizes the f-linearization plus g plus (1/2 gamma)|u - u^k|²_G,
    i.e. a gradient step in the G-metric followed by shrinkage.
    """

    dim: int
    quad: Optional[np.ndarray] = None
    lin: Optional[np.ndarray] = None
    l1_weights: Optional[np.ndarray] = None
    gamma: Union[float, str] = 1.0
    gdiag: Union[np.ndarray, str, None] = None
    thresh: Union[float, str, None] = None

    def __post_init__(self):
        if self.quad is not None:
            self.quad = np.asarray(self.quad, dtype=float)
            if self.quad.shape != (self.dim, self.dim):
                raise ContractError("quadratic term must be (dim, dim)")
        if self.lin is not None:
            self.lin = np.asarray(self.lin, dtype=float).reshape(self.dim)
        if self.l1_weights is not None:
            self.l1_weights = np.asarray(self.l1_weights, dtype=float).reshape(self.dim)
            if np.any(self.l1_weights < 0):
                raise ContractError("l1 weights must be nonnegative")
        self.gdiag = _diag_spec(self.gdiag, self.dim)
        self.lipschitz_f = 0.0 if self.quad is None else spectral_norm_estimate(self.quad)

    def _bind(self, omega):
        gam, s_gam = _spec(omega, self.gamma)
        g, s_g = _spec(omega, self.gdiag, self.dim)
        H = MetricMatrix.diagonal(g)    # refuses a G with an entry <= 0 before min(g) is read
        lf = self.lipschitz_f
        if gam <= 0:
            raise ContractError("step gamma must be positive")
        if lf > 0 and gam > 2.0 * float(np.min(g)) / lf:
            raise ContractError(
                f"gamma={gam:g} outside (0, 2 lambda_min(G)/L_f] with "
                f"lambda_min={np.min(g):g}, L_f={lf:g}")
        c, s_thr = _spec(omega, self.thresh)
        c = 1.0 if c is None else c
        w = None if self.l1_weights is None else self.l1_weights * c
        if w is not None and np.any(w < 0):
            raise ContractError("threshold weights must be nonnegative")
        return {"gam": gam, "g": g, "c": c, "w": w, "H": H,
                "thr": None if w is None else gam * w / g, "slots": (s_gam, s_g, s_thr)}

    # evaluation ------------------------------------------------------
    def forward(self, state, omega):
        ctx = self.prepare(omega)
        gf = self.quad @ state if self.quad is not None else np.zeros_like(state)
        if self.lin is not None:
            gf = gf + _col(self.lin, state)
        x = state - ctx["gam"] * gf / _col(ctx["g"], state)
        if ctx["thr"] is None:
            return x, (ctx, gf, None)
        v = soft_threshold(x, _col(ctx["thr"], x))
        return v, (ctx, gf, _survivor_sign(v))

    def apply_vjp(self, res, cot, grad):
        ctx, gf, sgn = res
        gam, g = ctx["gam"], ctx["g"]
        s_gam, s_g, s_thr = ctx["slots"]
        gcol = _col(g, gf)
        if sgn is None:
            dx = np.asarray(cot, dtype=float)
        else:
            dx, dthr = _soft_threshold_vjp(sgn, cot)
            dthr = _colsum(dthr)
            # thr_i = gam * w0_i * c / g_i; a fixed gamma's terms are not computed
            c = ctx["c"]
            grad.add(s_thr, dthr * gam * self.l1_weights / g)
            if s_gam is not None:
                grad.add(s_gam, dthr * self.l1_weights * c / g)
            grad.add(s_g, -dthr * gam * self.l1_weights * c / g ** 2)
        # x = u - gam * grad f(u) / g
        cs = dx - gam * (self.quad @ (dx / gcol)) if self.quad is not None else dx
        if s_gam is not None:
            grad.add(s_gam, -np.sum(dx * gf / gcol))
        grad.add(s_g, gam * _colsum(dx * gf) / g ** 2)
        return cs

    def _quad_vjp(self, ctx, x, y, grad, scale):
        grad.add(ctx["slots"][1], x * y, scale)


# ---------------------------------------------------------------------------
# proximal ALM operator
# ---------------------------------------------------------------------------

@dataclass
class AlmOperator(_Operator):
    """Proximal augmented-Lagrangian step on the joint state (u, lambda).

    Solves one primal argmin of

        f(u) + <lam, A u - b> + beta/2 |A u - b|^2 + 1/2 |u - u^k|^2_G

    in closed form for the supported family (f quadratic plus a weighted
    l1 norm whose coordinates decouple in the total quadratic), then the
    dual ascent  lam <- lam + beta (A u+ - b).

    The prox metric is G(omega) = diag(gd(omega)) - ell beta A^T A, and
    the primal step solves with K = quad + diag(gd) + (1 - ell) beta A^T A.
    ``gmode`` sets ell and where gd comes from:
      * "fixed" and "slice" (ell = 0) are one path: ``gdiag`` decides, as
        a fixed array, the name of an omega slice, or None for ones;
      * "rho-lin" (ell = 1): gd = sum_j rho_j mask_j, and G subtracts
        beta A^T A, which turns the augmented quadratic into a plain
        per-block prox (the linearized splitting form) while keeping the
        exact-resolvent certificate.
    Threshold groups scale the l1 weights of disjoint coordinate sets.
    """

    nprimal: int
    ndual: int
    A: np.ndarray
    bvec: np.ndarray
    quad: Optional[np.ndarray] = None
    lin: Optional[np.ndarray] = None
    l1_weights: Optional[np.ndarray] = None
    beta: Union[float, str] = 1.0
    gmode: str = "fixed"
    gdiag: Union[np.ndarray, str, None] = None
    rho_groups: tuple = ()
    thresh_groups: tuple = ()

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        if self.A.shape != (self.ndual, self.nprimal):
            raise ContractError("constraint matrix must be (ndual, nprimal)")
        self.bvec = np.asarray(self.bvec, dtype=float)
        if self.quad is not None:
            self.quad = np.asarray(self.quad, dtype=float)
        if self.lin is not None:
            self.lin = np.asarray(self.lin, dtype=float).reshape(self.nprimal)
        if self.l1_weights is not None:
            self.l1_weights = np.asarray(self.l1_weights, dtype=float).reshape(self.nprimal)
        if self.gmode not in ("fixed", "slice", "rho-lin"):
            raise ContractError(f"unknown prox-metric mode {self.gmode!r}")
        self._ell = self.gmode == "rho-lin"  # ell of G = diag(gd) - ell beta A^T A
        # each mode reads gd from one source, so an argument of the other is refused
        if self._ell and self.gdiag is not None:
            raise ContractError("gdiag is not read in prox-metric mode 'rho-lin'; use rho_groups")
        if not self._ell and self.rho_groups:
            raise ContractError(f"rho_groups are read only in prox-metric mode 'rho-lin', "
                                f"not {self.gmode!r}")
        self.gdiag = None if self._ell else _diag_spec(self.gdiag, self.nprimal)
        self.rho_groups = tuple((name, self._as_mask(mask)) for name, mask in self.rho_groups)
        self.thresh_groups = tuple((name, self._as_mask(mask)) for name, mask in self.thresh_groups)
        # the VJP credits each group alone with the factor on its coordinates
        if np.any(sum(mask.astype(int) for _, mask in self.thresh_groups) > 1):
            raise ContractError("threshold groups overlap; each l1 coordinate takes one factor")
        self._AtA = self.A.T @ self.A
        w = self.l1_weights
        self._l1 = np.zeros(0, dtype=int) if w is None else np.flatnonzero(w > 0)
        self._smooth = np.arange(self.nprimal) if w is None else np.flatnonzero(w == 0)

    def _as_mask(self, mask):
        m = np.asarray(mask)
        if m.dtype != bool or m.shape != (self.nprimal,):
            raise ContractError("group masks must be boolean and cover the primal block")
        return m

    @property
    def dim(self):
        return self.nprimal + self.ndual

    # internals -------------------------------------------------------
    def _bind(self, omega):
        beta, s_beta = _spec(omega, self.beta)
        if beta <= 0:
            raise ContractError("penalty beta must be positive")
        if self._ell:
            gd, s_gd = np.zeros(self.nprimal), []
            for name, mask in self.rho_groups:
                rho, slot = _spec(omega, name)
                gd[mask] += rho
                s_gd.append((slot, mask))
        else:
            gd, slot = _spec(omega, self.gdiag, self.nprimal)
            s_gd = [(slot, slice(None))]
        K = np.diag(gd)
        if not self._ell:
            K = K + beta * self._AtA
        if self.quad is not None:
            K = K + self.quad
        S, L = self._smooth, self._l1
        if L.size:
            off = K[np.ix_(L, L)].copy()
            np.fill_diagonal(off, 0.0)
            if np.max(np.abs(off)) > 1e-12 or np.max(np.abs(K[np.ix_(S, L)]), initial=0.0) > 1e-12:
                raise CapabilityError(
                    "l1 coordinates do not decouple in the total quadratic; "
                    "no closed-form primal step for this configuration")
        w, groups = None, []
        if self.l1_weights is not None:
            w = self.l1_weights.copy()
            for name, mask in self.thresh_groups:
                kap, slot = _spec(omega, name)
                w[mask] = w[mask] * kap
                groups.append((slot, mask[L]))
            if np.any(w < 0):
                raise ContractError("l1 weights must be nonnegative")
        # H = blockdiag(G, I / beta), G = diag(gd) - ell beta A^T A, is proven positive
        # definite before Kss, which contains G, is inverted, and before the l1
        # thresholds divide by d_L = diag(K)_L, which G bounds below
        dual = np.full(self.ndual, 1.0 / beta)
        try:
            H = (MetricMatrix(np.diag(gd) - beta * self._AtA, dual) if self._ell
                 else MetricMatrix.diagonal(np.concatenate([gd, dual])))
        except ContractError as err:
            raise ContractError(f"prox metric G(omega): {err}") from None
        dL = np.diag(K)[L]
        return {
            "beta": beta,
            "w": w,
            "H": H,
            "Kss_inv": np.linalg.inv(K[np.ix_(S, S)]),
            "dL": dL,
            "tL": None if w is None else w[L] / dL,
            "gd": gd,
            # beta's, gd's by rho group (or gdiag's, unmasked) and each
            # threshold group's, with its mask over the l1 coordinates
            "slots": (s_beta, s_gd, groups),
        }

    # evaluation ------------------------------------------------------
    def split_state(self, state):
        return state[:self.nprimal], state[self.nprimal:]

    def forward(self, state, omega):
        ctx = self.prepare(omega)
        beta, w = ctx["beta"], ctx["w"]
        u, lam = self.split_state(state)
        b = _match_b(self.bvec, lam)
        r = lam - beta * b
        if self._ell:
            r = r + beta * (self.A @ u)
        # c = A^T lam - beta A^T b - G u, with G u = gd u (- beta A^T A u): the
        # A^T product is shared, which a dense G @ u would not do
        c = self.A.T @ r - _col(ctx["gd"], u) * u
        if self.lin is not None:
            c = c + _col(self.lin, u)
        S, L = self._smooth, self._l1
        up = np.empty_like(u)
        up[S] = upS = ctx["Kss_inv"] @ -c[S]
        cL, sgn = c[L], None
        if L.size:
            xL = -cL / _col(ctx["dL"], u[L])
            up[L] = vL = soft_threshold(xL, _col(ctx["tL"], xL))
            sgn = _survivor_sign(vL)
        feas = self.A @ up - b
        # u is a view of the state: the copy keeps the rest of it off the residual,
        # which keeps only the rows of c and u+ that the VJP reads, c_L and u+_S
        return (np.concatenate([up, lam + beta * feas], axis=0),
                (ctx, u.copy(), b, cL, sgn, upS, feas))

    def apply_vjp(self, res, cot, grad):
        ctx, u, b, cL, sgn, upS, feas = res
        beta, w = ctx["beta"], ctx["w"]
        s_beta, s_gd, s_groups = ctx["slots"]
        S, L = self._smooth, self._l1
        cu_out, clam_out = cot[:self.nprimal], cot[self.nprimal:]
        # lam+ = lam + beta (A u+ - b)
        cup = cu_out + beta * (self.A.T @ clam_out)
        dbeta = np.sum(clam_out * feas)
        # cotangents of c and of diag(K); K = quad + diag(gd) + (1 - ell) beta A^T A
        dc = np.zeros_like(u)
        dgd = np.zeros(self.nprimal)
        if S.size:
            ws = ctx["Kss_inv"] @ cup[S]
            dc[S] = -ws
            dgd[S] = -_colsum(ws * upS)
        if L.size:
            d = ctx["dL"]
            dxL, dthr = _soft_threshold_vjp(sgn, cup[L])
            dthr = _colsum(dthr)
            dc[L] = -dxL / _col(d, dxL)
            # x_i = -c_i / d_i, t_i = w_i / d_i, d_i = K_ii; w_i = base_i * kappa_group
            dgd[L] = _colsum(dxL * cL) / d ** 2 - dthr * w[L] / d ** 2
            for slot, sel in s_groups:
                grad.add(slot, (dthr[sel] / d[sel]) * self.l1_weights[L][sel])
        if not self._ell:
            # beta inside K: K_ss takes the cotangent -ws up_s^T, K_LL its diagonal dgd_L
            dbeta += np.sum(dgd[L] * np.diag(self._AtA)[L])
            if S.size:
                AS = self.A[:, S]
                dbeta -= np.sum((AS @ ws) * (AS @ upS))
        # c = A^T (lam - beta b + ell beta A u) - gd u (+ lin)
        Adc = self.A @ dc
        dbeta -= np.sum(Adc * b)
        cu = -_col(ctx["gd"], dc) * dc
        dgd -= _colsum(dc * u)
        if self._ell:
            cu += beta * (self.A.T @ Adc)
            dbeta += np.sum(Adc * (self.A @ u))
        for slot, mask in s_gd:
            grad.add(slot, dgd[mask])
        grad.add(s_beta, dbeta)
        return np.concatenate([cu, clam_out + Adc], axis=0)

    # metric ----------------------------------------------------------
    def _quad_vjp(self, ctx, x, y, grad, scale):
        beta = ctx["beta"]
        s_beta, s_gd, _ = ctx["slots"]
        xu, xl = self.split_state(x)
        yu, yl = self.split_state(y)
        dbeta = -float(np.sum(xl * yl)) / beta ** 2
        if self._ell:
            dbeta -= float(np.sum((self.A @ xu) * (self.A @ yu)))
        dgd = _colsum(xu * yu)
        for slot, mask in s_gd:
            grad.add(slot, dgd[mask], scale)
        grad.add(s_beta, dbeta, scale)


# ---------------------------------------------------------------------------
# differentiable linearized ADMM operator
# ---------------------------------------------------------------------------

@dataclass
class DladmmOperator(_Operator):
    """Three-block linearized ADMM update for kappa-weighted l1 recovery.

    State columns are (u1, u2, lam) with u1 in R^n, u2 and lam in R^m:

        u1+  = S(u1 - (beta/rho1) Q^T r,   kappa1/rho1),  r = Q u1 + u2 - b + lam/beta
        u2+  = S(u2 - (beta/rho2) r2,       kappa2/rho2),  r2 = Q u1+ + u2 - b + lam/beta
        lam+ = lam + gamma beta (Q u1+ + u2+ - b)
    """

    Q: np.ndarray
    bvec: np.ndarray
    beta: Union[float, str] = 0.1
    gamma: Union[float, str] = 1.0
    rho1: Union[float, str] = None
    rho2: Union[float, str] = None
    kappa1: Union[float, str] = 1.0
    kappa2: Union[float, str] = 1.0

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.bvec = np.asarray(self.bvec, dtype=float)
        self.m, self.n = self.Q.shape
        self.lipschitz_Q = spectral_norm_estimate(self.Q)
        self._QtQ = self.Q.T @ self.Q

    @property
    def dim(self):
        return self.n + 2 * self.m

    def _bind(self, omega):
        specs = (self.beta, self.gamma, self.rho1, self.rho2, self.kappa1, self.kappa2)
        params, slots = zip(*(_spec(omega, spec) for spec in specs))
        beta, gamma, rho1, rho2, k1, k2 = params
        if beta <= 0:
            raise ContractError("beta must be positive")
        if not (0.0 < gamma <= 1.0):
            raise ContractError("dual step gamma must lie in (0, 1]")
        if rho1 is None or rho2 is None:
            raise ContractError("rho1 and rho2 are required")
        if rho2 < beta:
            raise ContractError(f"rho2={rho2:g} below the certified bound beta = {beta:g}")
        if k1 < 0 or k2 < 0:
            raise ContractError("kappa weights must be nonnegative")
        # rho1 > beta L_Q^2 is certified by proving the lead rho1 I - beta Q^T Q of
        # H = blockdiag(lead, rho2 I, I / (gamma beta)) positive definite
        try:
            H = MetricMatrix(rho1 * np.eye(self.n) - beta * self._QtQ,
                             np.repeat([rho2, 1.0 / (gamma * beta)], self.m))
        except ContractError as err:
            raise ContractError(f"rho1={rho1:g} not above the certified bound beta L_Q^2 = "
                                f"{beta * self.lipschitz_Q ** 2:g}: {err}") from None
        return {"params": params, "H": H, "slots": slots}

    def split_state(self, state):
        n, m = self.n, self.m
        return state[:n], state[n:n + m], state[n + m:]

    def forward(self, state, omega):
        ctx = self.prepare(omega)
        beta, gamma, rho1, rho2, k1, k2 = ctx["params"]
        u1, u2, lam = self.split_state(state)
        b = _match_b(self.bvec, lam)
        e = lam / beta
        ue = u2 - b + e                        # r = Q u1 + ue and r2 = Q v1 + ue
        Qtr = self.Q.T @ (self.Q @ u1 + ue)
        v1 = soft_threshold(u1 - (beta / rho1) * Qtr, k1 / rho1)
        Qv1 = self.Q @ v1
        r2 = Qv1 + ue
        v2 = soft_threshold(u2 - (beta / rho2) * r2, k2 / rho2)
        feas = Qv1 + v2 - b
        # e = lam / beta is a new array, so the residual holds no view of the state
        return (np.concatenate((v1, v2, lam + gamma * beta * feas), axis=0),
                (ctx, e, Qtr, _survivor_sign(v1), r2, _survivor_sign(v2), feas))

    def apply_vjp(self, res, cot, grad):
        """v1's cotangent c1 + Q^T (gamma beta cl + dr2) takes one Q^T product for
        its paths through lam+ and r2; each scalar slot receives one sum."""
        ctx, e, Qtr, sgn1, r2, sgn2, feas = res
        beta, gamma, rho1, rho2, k1, k2 = ctx["params"]
        s_beta, s_gamma, s_rho1, s_rho2, s_k1, s_k2 = ctx["slots"]
        c1, c2, cl = self.split_state(cot)
        out = np.empty_like(cot)
        o1, o2, ol = self.split_state(out)
        w = (gamma * beta) * cl                 # the cotangent of feas
        dx2, s2 = _soft_threshold_vjp(sgn2, c2 + w, summed=True)
        dr2 = dx2 * -(beta / rho2)
        w += dr2
        dx1, s1 = _soft_threshold_vjp(sgn1, c1 + self.Q.T @ w, summed=True)
        dr = self.Q @ dx1
        dr *= -(beta / rho1)
        np.matmul(self.Q.T, dr, out=o1)
        o1 += dx1
        de = np.add(dr, dr2, out=dr)
        np.add(dx2, de, out=o2)
        np.divide(de, beta, out=ol)
        ol += cl
        ip_feas, ip_r2, ip_qtr = np.vdot(cl, feas), np.vdot(dx2, r2), np.vdot(dx1, Qtr)
        grad.add(s_gamma, beta * ip_feas)
        grad.add(s_beta, gamma * ip_feas - ip_r2 / rho2 - ip_qtr / rho1 - np.vdot(de, e) / beta)
        grad.add(s_k2, s2 / rho2)
        grad.add(s_rho2, (ip_r2 * beta - s2 * k2) / rho2 ** 2)
        grad.add(s_k1, s1 / rho1)
        grad.add(s_rho1, (ip_qtr * beta - s1 * k1) / rho1 ** 2)
        return out

    # metric ----------------------------------------------------------
    def _quad_vjp(self, ctx, x, y, grad, scale):
        beta, gamma, _, _, _, _ = ctx["params"]
        s_beta, s_gamma, s_rho1, s_rho2, _, _ = ctx["slots"]
        x1, x2, xl = self.split_state(x)
        y1, y2, yl = self.split_state(y)
        ipll = np.vdot(xl, yl)
        grad.add(s_rho1, np.vdot(x1, y1), scale)
        grad.add(s_rho2, np.vdot(x2, y2), scale)
        grad.add(s_beta, -np.vdot(self.Q @ x1, self.Q @ y1) - ipll / (gamma * beta ** 2), scale)
        grad.add(s_gamma, -ipll / (gamma ** 2 * beta), scale)


# ---------------------------------------------------------------------------
# spectrally-normalized network operator
# ---------------------------------------------------------------------------

# each nonlinearity phi with its derivative written in its output a = phi(z)
_NONLINEARITIES = {
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
    "tanh": (np.tanh, lambda a: 1.0 - a ** 2),
}


@dataclass
class NetOperator(_Operator):
    """Stack of affine layers with a 1-Lipschitz componentwise nonlinearity.

    Layer matrices live in omega slices (role layer-matrix) and are
    expected spectrally normalized so each sigma_max(W_l) <= rho_bar^(1/L).
    The binding measures each layer and refuses one above that budget
    unless ``enforce_certificate`` is switched off (the
    normalization-ablation mode).  ``conjugate`` is a diagonal-metric
    spec, as ``gdiag`` is elsewhere: a fixed (dim,) diagonal, the name of
    a metric-diagonal omega slice, or None for ones (which change
    nothing).
    The whole map is conjugated as H^{-1/2} D H^{1/2} so it is
    non-expansive in the H-metric.
    """

    dim: int
    weight_names: tuple
    bias_names: tuple
    widths: tuple
    nonlinearity: str = "identity"
    rho_bar: float = 1.0
    conjugate: Union[np.ndarray, str, None] = None
    enforce_certificate: bool = True

    def __post_init__(self):
        if not (0.0 < self.rho_bar <= 1.0):
            raise ContractError("target Lipschitz rho_bar must lie in (0, 1]")
        if self.nonlinearity not in _NONLINEARITIES:
            raise ContractError(f"unsupported nonlinearity {self.nonlinearity!r}")
        if len(self.weight_names) != len(self.bias_names):
            raise ContractError("need one bias per layer")
        if len(self.widths) != len(self.weight_names) + 1:
            raise ContractError("widths must list input and every layer output")
        if self.widths[0] != self.dim or self.widths[-1] != self.dim:
            raise ContractError("network must be a self-map on the state space")
        self.conjugate = _diag_spec(self.conjugate, self.dim)
        self._phi, self._dphi = _NONLINEARITIES[self.nonlinearity]

    @property
    def nlayers(self):
        return len(self.weight_names)

    @property
    def budget(self):
        """The per-layer spectral-norm budget rho_bar^(1/L) of this net's L layers."""
        return self.rho_bar ** (1.0 / self.nlayers)

    def _bind(self, omega, norms=None):
        """``norms`` are the layers' spectral norms, or upper bounds on them, where
        ``renormalize_for`` has measured them already; else each layer is measured."""
        g, s_conj = _spec(omega, self.conjugate, self.dim)
        layers = []           # (W, b, b's slot, W's range) of each layer
        for wn, bn, win, wout in zip(self.weight_names, self.bias_names,
                                     self.widths[:-1], self.widths[1:]):
            s, sb = omega.slice_for(wn), omega.slice_for(bn)
            if s.shape != (wout, win):    # so the norm renormalize_for measures is this W's
                raise ContractError(f"layer slice {wn!r} has shape {s.shape}, not {(wout, win)}")
            if sb.size != wout:           # a bias is never broadcast
                raise ContractError(f"bias slice {bn!r} has {sb.size} entries, not {wout}")
            layers.append((omega.view(wn), *_spec(omega, bn, wout),
                           slice(s.offset, s.offset + s.size)))
        if norms is None:
            norms = [spectral_norm_estimate(W) for W, *_ in layers]
        for sig in norms:
            if self.enforce_certificate and sig > self.budget:
                raise ContractError(
                    f"layer sigma_max={sig:g} exceeds the per-layer budget {self.budget:g}; "
                    "call renormalize_for(op, omega) first")
        return {"g": g, "r": np.sqrt(g), "H": MetricMatrix.diagonal(g), "layers": layers,
                "norms": norms, "s_conj": s_conj}

    def forward(self, state, omega):
        ctx = self.prepare(omega)
        r = ctx["r"]
        z = _col(r, state) * state
        acts = [z]            # each layer's input, then the last one's output
        for W, bb, _, _ in ctx["layers"]:
            z = self._phi(W @ z + _col(bb, z))
            acts.append(z)
        return z / _col(r, z), (state, ctx, acts)

    def apply_vjp(self, res, cot, grad):
        state, ctx, acts = res
        g, r = ctx["g"], ctx["r"]
        # out = y / r: cotangent into y, plus d(1/r)/dg on the slice
        cz = cot / _col(r, cot)
        grad.add(ctx["s_conj"], -0.5 * _colsum(cot * acts[-1]) / (g * r))
        for idx in range(self.nlayers - 1, -1, -1):
            W, _, s_b, s_w = ctx["layers"][idx]
            da = self._dphi(acts[idx + 1]) * cz
            grad.add(s_b, da)
            grad.add_outer(s_w, da, acts[idx])
            cz = W.T @ da
        # x = r * u: cotangent into u, plus d(r)/dg on the slice
        grad.add(ctx["s_conj"], 0.5 * _colsum(cz * state) / r)
        return _col(r, cz) * cz

    def _quad_vjp(self, ctx, x, y, grad, scale):
        grad.add(ctx["s_conj"], x * y, scale)


def _rescale_layers(omega, names, budget):
    """Scale each named layer-matrix slice down to at most spectral norm ``budget`` if above
    it; returns the new omega and each layer's norm (``budget`` for one it scaled)."""
    norms = []
    for name in names:
        W = omega.view(name)
        if W.ndim > 1:
            W = W.reshape(W.shape[0], -1)
        sig = spectral_norm_estimate(W)
        if sig > budget:
            # W * (budget / sig) may measure ~8 ulps above budget; 64 ulps less cannot
            omega = omega.replace_slice(name, W * (budget / sig * (1.0 - 64 * np.finfo(float).eps)))
            sig = budget
        norms.append(sig)
    return omega, norms


def normalize_net(omega, rho_bar):
    """Rescale every layer-matrix slice so the composition is rho_bar-Lipschitz.

    Each W above rho_bar^(1/L), where L counts the layer-matrix slices,
    is scaled to a spectral norm of at most that budget; layers within it
    are left untouched.
    Non-layer slices are copied through unchanged.  Every layer slice in
    omega counts as one stack: with the layers of several nets, L is their
    total and a layer may exceed its own net's budget rho_bar^(1/L_net),
    which that net then refuses.  ``renormalize_for(op, omega)`` holds
    each net to its own budget.
    """
    if not (0.0 < rho_bar <= 1.0):
        raise ContractError("target Lipschitz rho_bar must lie in (0, 1]")
    names = [s.name for s in omega.layout if s.role == "layer-matrix"]
    if not names:
        return omega
    return _rescale_layers(omega, names, rho_bar ** (1.0 / len(names)))[0]


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

@dataclass
class CompositeOperator(_Operator):
    """Right-to-left composition: members[0] is the outermost map.

    The composite metric H is the outermost member's metric.  A
    composition of maps that are each non-expansive in H is non-expansive
    in H, so every member must have exactly that metric, lead and tail;
    otherwise the certificate does not compose.  The binding admits omega
    once every member's binding does and their metrics agree.
    """

    members: tuple

    def __post_init__(self):
        self.members = tuple(self.members)
        if not self.members:
            raise ContractError("composite needs at least one member")
        dims = {m.dim for m in self.members}
        if len(dims) != 1:
            raise ContractError("composite members disagree on state dimension")

    @property
    def dim(self):
        return self.members[0].dim

    def _bind(self, omega):
        outer = self.members[0].prepare(omega)
        H = outer["H"]
        for i, m in enumerate(self.members[1:], start=1):
            Hm = m.metric(omega)
            if not (np.array_equal(Hm.lead, H.lead) and np.array_equal(Hm.tail, H.tail)):
                raise ContractError(
                    f"member {i} ({type(m).__name__}) must be conjugated to the composite "
                    "metric, its outermost member's")
        return {"H": H, "outer": outer}

    def forward(self, state, omega):
        """The innermost member runs first; ``res`` holds each member's, in that order."""
        self.prepare(omega)
        z, res = state, []
        for m in reversed(self.members):
            z, r = m.forward(z, omega)
            res.append(r)
        return z, res

    def apply_vjp(self, res, cot, grad):
        cz = cot
        for m, r in zip(self.members, reversed(res)):
            cz = m.apply_vjp(r, cz, grad)
        return cz

    def _quad_vjp(self, ctx, x, y, grad, scale):
        self.members[0]._quad_vjp(ctx["outer"], x, y, grad, scale)


def _nets(op):
    """The network members of ``op``: a composite's members are walked, and
    any other operator is its own single member."""
    members = op.members if isinstance(op, CompositeOperator) else (op,)
    return [m for m in members if isinstance(m, NetOperator)]


def contraction_factor(op, omega):
    """The certified Lipschitz factor of ``op`` at omega in its metric.

    PG, ALM and DLADMM are certified non-expansive (factor 1), so the
    factor is the product of the layer norms that the network members'
    bindings hold; no layer is measured again.
    """
    return math.prod(sig for net in _nets(op) for sig in net.prepare(omega)["norms"])


def renormalize_for(op, omega):
    """Re-run spectral normalization for every network member of ``op``.

    Called after each hyper-parameter update so the per-layer Lipschitz
    certificates stay valid during training.  Each net's layers are
    measured once and held to that net's own budget, and every net binds
    the returned omega with those norms, so it measures nothing again.
    A scaled layer's norm is taken as its budget, which the 64-ulp shave
    keeps it under.  Operators without network members return omega
    unchanged.
    """
    nets, norms = _nets(op), []
    for net in nets:
        omega, measured = _rescale_layers(omega, net.weight_names, net.budget)
        norms.append(measured)
    for net, measured in zip(nets, norms):
        net.prepare(omega, measured)
    return omega
