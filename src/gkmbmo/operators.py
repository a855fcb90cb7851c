"""Parameterized fixed-point operators and the averaging wrapper T.

Each operator is a non-expansive self-map ``D(state, omega)`` in its own
metric H(omega):

* ``PgOperator``      -- linearized gradient step + weighted shrinkage,
                         non-expansive w.r.t. the diagonal metric G(omega).
* ``AlmOperator``     -- proximal augmented-Lagrangian step on the joint
                         primal/dual state, firmly non-expansive w.r.t.
                         blockdiag(G, (1/beta) I).
* ``DladmmOperator``  -- the three-line linearized ADMM update for
                         ``min k1|u1|_1 + k2|u2|_1 s.t. Q u1 + u2 = b``,
                         non-expansive w.r.t.
                         blockdiag(rho1 I - beta Q^T Q, rho2 I, 1/(gamma beta) I)
                         whenever rho1 > beta |Q|^2, rho2 >= beta, gamma <= 1.
* ``NetOperator``     -- dense layers with 1-Lipschitz nonlinearities,
                         spectrally normalized to a target budget.
* ``CompositeOperator`` -- right-to-left composition sharing one metric.

States are numpy arrays of shape ``(dim,)`` or ``(dim, B)``; every apply
is vectorized over trailing batch columns.  Each operator writes its map
once, as a forward/reverse pair in the manner of a custom VJP:

* ``forward(state, omega) -> (out, res)`` computes the output D(state)
  and ``res``, the intermediates the reverse rule reads;
* ``apply_vjp(res, omega, cot, grad)`` adds cot^T dD/domega into ``grad``
  and returns the state cotangent cot^T dD/dstate.

``apply`` is ``forward(...)[0]``, written once on ``_Operator``.  A VJP
reads the ``res`` its forward kept and runs no forward pass, and a
composite chains its members' pairs.  A residual holds no view of the
state, which would keep the whole state alive, and a soft threshold keeps
only the int8 sign of its output.  The second reverse rule,
``metric_quad_vjp(omega, x, y, grad, scale)``, adds
scale * d<x, H(omega) y>/domega into ``grad`` and returns nothing.  Both
add into one omega gradient that the caller owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # read on every view, scalar and gradient accumulation: computed once
        object.__setattr__(self, "size", int(math.prod(self.shape)))


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

    def scalar(self, name):
        v = self.view(name)
        if v.size != 1:
            raise ContractError(f"slice {name!r} is not a scalar")
        return float(v.reshape(()))

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

    def contains(self, values, tol=1e-12):
        values = np.asarray(values, dtype=float)
        return bool(np.all(values >= _col(self.lower, values) - tol)
                    and np.all(values <= _col(self.upper, values) + tol))

    def interior(self, values):
        """True where a coordinate lies strictly inside its bounds."""
        return (values > _col(self.lower, values)) & (values < _col(self.upper, values))


# ---------------------------------------------------------------------------
# shared primitives
# ---------------------------------------------------------------------------

def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


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


def _resolve(omega, spec, default=None):
    if isinstance(spec, str):
        return omega.scalar(spec)
    if spec is None:
        return default
    return float(spec)


def _diag_spec(spec, dim):
    """Check a diagonal-metric spec: a slice name, a fixed (dim,) array, or None for ones."""
    if isinstance(spec, str):
        return spec
    d = np.ones(dim) if spec is None else np.asarray(spec, dtype=float)
    if d.shape != (dim,):
        raise ContractError(f"a fixed metric diagonal must have shape ({dim},), got {d.shape}")
    return d


def _diag(omega, spec, dim):
    """A metric diagonal of length ``dim`` given by a ``_diag_spec``-checked spec.

    A string names an omega slice, a scalar slice being broadcast; an
    array is a fixed diagonal.
    """
    if isinstance(spec, str):
        g = omega.view(spec).reshape(-1)
        return np.full(dim, float(g[0])) if g.size == 1 else g.astype(float)
    return spec


def _colsum(x):
    """Sum a batched (d, B) array over its batch columns; (d,) passes through."""
    return x.sum(axis=-1) if x.ndim > 1 else x


def _acc(grad, omega, spec, value, scale=1.0):
    """Add ``scale * value`` into the gradient slice named by ``spec``.

    A non-string spec is a fixed value, not a hyper-parameter, and takes
    nothing.  A value with more entries than the slice carries batch
    columns, which are summed first; a scalar slice takes the sum.
    ``scale`` multiplies after those sums.
    """
    if not isinstance(spec, str):
        return
    s = omega.slice_for(spec)
    value = np.asarray(value, dtype=float)
    if value.ndim > 1 and value.size != s.size:
        value = _colsum(value)
    if s.size == 1:
        grad[s.offset] += scale * float(np.sum(value))
    else:
        grad[s.offset:s.offset + s.size] += scale * value.reshape(-1)


def _survivor_sign(v):
    """The int8 sign of a soft-threshold output v = soft_threshold(x, t).

    It is sign(x) where |x| > t and 0 elsewhere, all that the reverse
    rule reads of x and t, in one byte per entry.
    """
    return np.sign(v).astype(np.int8)


def _soft_threshold_vjp(sgn, cot):
    """Cotangents of soft_threshold(x, t) w.r.t. x and t, from its survivor sign."""
    return (sgn != 0) * cot, -sgn * cot


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
    """``apply`` over a subclass's ``forward``."""

    def apply(self, state, omega):
        return self.forward(state, omega)[0]


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

    # internals -------------------------------------------------------
    def _weights(self, omega):
        if self.l1_weights is None:
            return None
        c = _resolve(omega, self.thresh, 1.0)
        return self.l1_weights * c

    def _grad_f(self, u):
        g = self.quad @ u if self.quad is not None else np.zeros_like(u)
        if self.lin is not None:
            g = g + _col(self.lin, u)
        return g

    @cached_property
    def lipschitz_f(self):
        """L_f = sigma_max(quad), measured at the first validation."""
        return 0.0 if self.quad is None else spectral_norm_estimate(self.quad)

    # contract --------------------------------------------------------
    def validate_omega(self, omega):
        gam = _resolve(omega, self.gamma)
        g = _diag(omega, self.gdiag, self.dim)
        if np.any(g <= 0):
            raise ContractError("metric diagonal G(omega) must be positive definite")
        lf = self.lipschitz_f
        if gam <= 0:
            raise ContractError("step gamma must be positive")
        if lf > 0 and gam >= 2.0 * float(np.min(g)) / lf:
            raise ContractError(
                f"gamma={gam:g} outside (0, 2 lambda_min(G)/L_f) with "
                f"lambda_min={np.min(g):g}, L_f={lf:g}")
        w = self._weights(omega)
        if w is not None and np.any(w < 0):
            raise ContractError("threshold weights must be nonnegative")

    # evaluation ------------------------------------------------------
    def forward(self, state, omega):
        gam = _resolve(omega, self.gamma)
        g = _diag(omega, self.gdiag, self.dim)
        gf = self._grad_f(state)
        x = state - gam * gf / _col(g, state)
        w = self._weights(omega)
        if w is None:
            return x, (gam, g, gf, None)
        v = soft_threshold(x, _col(gam * w / g, x))
        return v, (gam, g, gf, _survivor_sign(v))

    def apply_vjp(self, res, omega, cot, grad):
        gam, g, gf, sgn = res
        gcol = _col(g, gf)
        if sgn is None:
            dx = np.asarray(cot, dtype=float)
        else:
            dx, dthr = _soft_threshold_vjp(sgn, cot)
            dthr = _colsum(dthr)
            # thr_i = gam * w0_i * c / g_i
            c = _resolve(omega, self.thresh, 1.0)
            _acc(grad, omega, self.thresh, dthr * gam * self.l1_weights / g)
            _acc(grad, omega, self.gamma, dthr * self.l1_weights * c / g)
            _acc(grad, omega, self.gdiag, -dthr * gam * self.l1_weights * c / g ** 2)
        # x = u - gam * grad f(u) / g
        cs = dx - gam * (self.quad @ (dx / gcol)) if self.quad is not None else dx
        _acc(grad, omega, self.gamma, -np.sum(dx * gf / gcol))
        _acc(grad, omega, self.gdiag, gam * _colsum(dx * gf) / g ** 2)
        return cs

    # metric ----------------------------------------------------------
    def metric(self, omega):
        return MetricMatrix.diagonal(_diag(omega, self.gdiag, self.dim))

    def metric_quad_vjp(self, omega, x, y, grad, scale):
        _acc(grad, omega, self.gdiag, x * y, scale)


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
        self._prepared = (None, None)  # (omega, its context); HyperParams is frozen

    def _as_mask(self, mask):
        m = np.asarray(mask)
        if m.dtype != bool or m.shape != (self.nprimal,):
            raise ContractError("group masks must be boolean and cover the primal block")
        return m

    @property
    def dim(self):
        return self.nprimal + self.ndual

    # internals -------------------------------------------------------
    def _weights(self, omega):
        if self.l1_weights is None:
            return None
        w = self.l1_weights.copy()
        for name, mask in self.thresh_groups:
            w[mask] = w[mask] * omega.scalar(name)
        return w

    def _gd(self, omega):
        """The diagonal part gd of G(omega)."""
        if not self._ell:
            return _diag(omega, self.gdiag, self.nprimal)
        d = np.zeros(self.nprimal)
        for name, mask in self.rho_groups:
            d[mask] += omega.scalar(name)
        return d

    def _acc_gd(self, grad, omega, dgd, scale=1.0):
        """Send the cotangent of gd into omega: by rho group, or through ``gdiag``."""
        if not self._ell:
            _acc(grad, omega, self.gdiag, dgd, scale)
            return
        for name, mask in self.rho_groups:
            _acc(grad, omega, name, np.sum(dgd[mask]), scale)

    def prepare(self, omega):
        if omega is self._prepared[0]:
            return self._prepared[1]
        beta = _resolve(omega, self.beta)
        gd = self._gd(omega)
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
        ctx = {
            "beta": beta,
            "w": self._weights(omega),
            # G is proven positive definite before Kss, which contains it, is inverted
            "H": self._metric(beta, gd),
            "Kss_inv": np.linalg.inv(K[np.ix_(S, S)]),
            "dL": np.diag(K)[L],
            "gd": gd,
        }
        self._prepared = (omega, ctx)
        return ctx

    def validate_omega(self, omega):
        beta = _resolve(omega, self.beta)
        if beta <= 0:
            raise ContractError("penalty beta must be positive")
        w = self.prepare(omega)["w"]
        if w is not None and np.any(w < 0):
            raise ContractError("l1 weights must be nonnegative")

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
        if S.size:
            up[S] = ctx["Kss_inv"] @ -c[S]
        sgn = None
        if L.size:
            d = ctx["dL"]
            xL = -c[L] / _col(d, u[L])
            up[L] = soft_threshold(xL, _col(w[L] / d, xL))
            sgn = _survivor_sign(up[L])
        feas = self.A @ up - b
        # u is a view of the state: the copy keeps the rest of it off the residual
        return (np.concatenate([up, lam + beta * feas], axis=0),
                (ctx, u.copy(), b, c, sgn, up, feas))

    def apply_vjp(self, res, omega, cot, grad):
        ctx, u, b, c, sgn, up, feas = res
        beta, w = ctx["beta"], ctx["w"]
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
            dgd[S] = -_colsum(ws * up[S])
        if L.size:
            d = ctx["dL"]
            dxL, dthr = _soft_threshold_vjp(sgn, cup[L])
            dthr = _colsum(dthr)
            dc[L] = -dxL / _col(d, dxL)
            # x_i = -c_i / d_i, t_i = w_i / d_i, d_i = K_ii; w_i = base_i * kappa_group
            dgd[L] = _colsum(dxL * c[L]) / d ** 2 - dthr * w[L] / d ** 2
            for name, gmask in self.thresh_groups:
                sel = gmask[L]
                _acc(grad, omega, name, (dthr[sel] / d[sel]) * self.l1_weights[L][sel])
        if not self._ell:
            # beta inside K: K_ss takes the cotangent -ws up_s^T, K_LL its diagonal dgd_L
            dbeta += np.sum(dgd[L] * np.diag(self._AtA)[L])
            if S.size:
                AS = self.A[:, S]
                dbeta -= np.sum((AS @ ws) * (AS @ up[S]))
        # c = A^T (lam - beta b + ell beta A u) - gd u (+ lin)
        Adc = self.A @ dc
        dbeta -= np.sum(Adc * b)
        cu = -_col(ctx["gd"], dc) * dc
        dgd -= _colsum(dc * u)
        if self._ell:
            cu += beta * (self.A.T @ Adc)
            dbeta += np.sum(Adc * (self.A @ u))
        self._acc_gd(grad, omega, dgd)
        _acc(grad, omega, self.beta, dbeta)
        return np.concatenate([cu, clam_out + Adc], axis=0)

    # metric ----------------------------------------------------------
    def _metric(self, beta, gd):
        """blockdiag(G, I / beta), G = diag(gd) - ell beta A^T A proven positive definite."""
        dual = np.full(self.ndual, 1.0 / beta)
        try:
            if self._ell:
                return MetricMatrix(np.diag(gd) - beta * self._AtA, dual)
            return MetricMatrix.diagonal(np.concatenate([gd, dual]))
        except ContractError as err:
            raise ContractError(f"prox metric G(omega): {err}") from None

    def metric(self, omega):
        """blockdiag(G(omega), I / beta): a prepared omega's is read from its
        context; any other omega's is built alone, without the primal step."""
        if omega is self._prepared[0]:
            return self._prepared[1]["H"]
        return self._metric(_resolve(omega, self.beta), self._gd(omega))

    def metric_quad_vjp(self, omega, x, y, grad, scale):
        beta = _resolve(omega, self.beta)
        xu, xl = self.split_state(x)
        yu, yl = self.split_state(y)
        dbeta = -float(np.sum(xl * yl)) / beta ** 2
        if self._ell:
            dbeta -= float(np.sum((self.A @ xu) * (self.A @ yu)))
        self._acc_gd(grad, omega, _colsum(xu * yu), scale)
        _acc(grad, omega, self.beta, dbeta, scale)


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

    def _params(self, omega):
        return (_resolve(omega, self.beta), _resolve(omega, self.gamma),
                _resolve(omega, self.rho1), _resolve(omega, self.rho2),
                _resolve(omega, self.kappa1), _resolve(omega, self.kappa2))

    def validate_omega(self, omega):
        beta, gamma, rho1, rho2, k1, k2 = self._params(omega)
        if beta <= 0:
            raise ContractError("beta must be positive")
        if not (0.0 < gamma <= 1.0):
            raise ContractError("dual step gamma must lie in (0, 1]")
        if rho1 is None or rho2 is None:
            raise ContractError("rho1 and rho2 are required")
        bound = beta * self.lipschitz_Q ** 2
        if rho1 < bound * (1.0 - 1e-12):
            raise ContractError(f"rho1={rho1:g} below the certified bound beta L_Q^2 = {bound:g}")
        if rho2 < beta * (1.0 - 1e-12):
            raise ContractError(f"rho2={rho2:g} below the certified bound beta = {beta:g}")
        if k1 < 0 or k2 < 0:
            raise ContractError("kappa weights must be nonnegative")

    def split_state(self, state):
        n, m = self.n, self.m
        return state[:n], state[n:n + m], state[n + m:]

    def forward(self, state, omega):
        beta, gamma, rho1, rho2, k1, k2 = params = self._params(omega)
        u1, u2, lam = self.split_state(state)
        b = _match_b(self.bvec, lam)
        e = lam / beta
        Qtr = self.Q.T @ (self.Q @ u1 + u2 - b + e)
        v1 = soft_threshold(u1 - (beta / rho1) * Qtr, k1 / rho1)
        Qv1 = self.Q @ v1
        r2 = Qv1 + u2 - b + e
        v2 = soft_threshold(u2 - (beta / rho2) * r2, k2 / rho2)
        feas = Qv1 + v2 - b
        # lam is a view of the state: the copy keeps the rest of it off the residual
        return (np.concatenate((v1, v2, lam + gamma * beta * feas), axis=0),
                (params, lam.copy(), Qtr, _survivor_sign(v1), r2, _survivor_sign(v2), feas))

    def apply_vjp(self, res, omega, cot, grad):
        (beta, gamma, rho1, rho2, k1, k2), lam, Qtr, sgn1, r2, sgn2, feas = res
        c1, c2, cl = self.split_state(cot)

        dv2 = c2 + gamma * beta * cl
        ip_feas = float(np.sum(cl * feas))
        _acc(grad, omega, self.gamma, beta * ip_feas)
        _acc(grad, omega, self.beta, gamma * ip_feas)

        dx2, dt2 = _soft_threshold_vjp(sgn2, dv2)
        s2 = float(np.sum(dt2))
        _acc(grad, omega, self.kappa2, s2 / rho2)
        _acc(grad, omega, self.rho2, -s2 * k2 / rho2 ** 2)
        dr2 = -(beta / rho2) * dx2
        ip_r2 = np.sum(dx2 * r2)
        _acc(grad, omega, self.beta, -ip_r2 / rho2)
        _acc(grad, omega, self.rho2, ip_r2 * beta / rho2 ** 2)
        dv1 = c1 + gamma * beta * (self.Q.T @ cl) + self.Q.T @ dr2

        dx1, dt1 = _soft_threshold_vjp(sgn1, dv1)
        s1 = float(np.sum(dt1))
        _acc(grad, omega, self.kappa1, s1 / rho1)
        _acc(grad, omega, self.rho1, -s1 * k1 / rho1 ** 2)
        dr = -(beta / rho1) * (self.Q @ dx1)
        ip_qtr = np.sum(dx1 * Qtr)
        _acc(grad, omega, self.beta, -ip_qtr / rho1)
        _acc(grad, omega, self.rho1, ip_qtr * beta / rho1 ** 2)

        de = dr2 + dr
        _acc(grad, omega, self.beta, -np.sum(de * lam) / beta ** 2)
        return np.concatenate([dx1 + self.Q.T @ dr, dx2 + dr2 + dr, cl + de / beta], axis=0)

    # metric ----------------------------------------------------------
    def metric(self, omega):
        """blockdiag(rho1 I - beta Q^T Q, rho2 I, I / (gamma beta))."""
        beta, gamma, rho1, rho2, _, _ = self._params(omega)
        return MetricMatrix(rho1 * np.eye(self.n) - beta * self._QtQ,
                            np.repeat([rho2, 1.0 / (gamma * beta)], self.m))

    def metric_quad_vjp(self, omega, x, y, grad, scale):
        beta, gamma, rho1, rho2, _, _ = self._params(omega)
        x1, x2, xl = self.split_state(x)
        y1, y2, yl = self.split_state(y)
        ip11 = float(np.sum(x1 * y1))
        ipQQ = float(np.sum((self.Q @ x1) * (self.Q @ y1)))
        ip22 = float(np.sum(x2 * y2))
        ipll = float(np.sum(xl * yl))
        _acc(grad, omega, self.rho1, ip11, scale)
        _acc(grad, omega, self.rho2, ip22, scale)
        _acc(grad, omega, self.beta, -ipQQ - ipll / (gamma * beta ** 2), scale)
        _acc(grad, omega, self.gamma, -ipll / (gamma ** 2 * beta), scale)


# ---------------------------------------------------------------------------
# spectrally-normalized network operator
# ---------------------------------------------------------------------------

_NONLINEARITIES = {
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}


@dataclass
class NetOperator(_Operator):
    """Stack of affine layers with a 1-Lipschitz componentwise nonlinearity.

    Layer matrices live in omega slices (role layer-matrix) and are
    expected spectrally normalized so each sigma_max(W_l) <= rho_bar^(1/L);
    ``forward`` checks the certificate once per omega object, so no
    residual exists for an uncertified omega, and rejects unnormalized
    layers unless ``enforce_certificate`` is switched off (the
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
        # the last omega certified (by validate_omega or renormalize_for);
        # HyperParams is frozen and its values read-only, so the same object
        # needs no second check
        self._certified = None

    @property
    def nlayers(self):
        return len(self.weight_names)

    @property
    def budget(self):
        """The per-layer spectral-norm budget rho_bar^(1/L) of this net's L layers."""
        return self.rho_bar ** (1.0 / self.nlayers)

    def _layers(self, omega):
        out = []
        for wn, bn, win, wout in zip(self.weight_names, self.bias_names,
                                     self.widths[:-1], self.widths[1:]):
            W = omega.view(wn).reshape(wout, win)
            bb = omega.view(bn).reshape(wout)
            out.append((W, bb))
        return out

    def validate_omega(self, omega):
        if not self.enforce_certificate or omega is self._certified:
            return
        for W, _ in self._layers(omega):
            sig = spectral_norm_estimate(W)
            if sig > self.budget:
                raise ContractError(
                    f"layer sigma_max={sig:g} exceeds the per-layer budget {self.budget:g}; "
                    "call renormalize_for(op, omega) first")
        self._certified = omega

    def forward(self, state, omega):
        if self.enforce_certificate and omega is not self._certified:
            self.validate_omega(omega)
        phi, _ = _NONLINEARITIES[self.nonlinearity]
        g = _diag(omega, self.conjugate, self.dim)
        r = np.sqrt(g)
        z = _col(r, state) * state
        layers, pre, acts = self._layers(omega), [], [z]
        for W, bb in layers:
            pre.append(W @ z + _col(bb, z))
            z = phi(pre[-1])
            acts.append(z)
        return z / _col(r, z), (state, g, r, layers, pre, acts)

    def apply_vjp(self, res, omega, cot, grad):
        _, dphi = _NONLINEARITIES[self.nonlinearity]
        state, g, r, layers, pre, acts = res
        # out = y / r: cotangent into y, plus d(1/r)/dg on the slice
        cz = cot / _col(r, cot)
        _acc(grad, omega, self.conjugate, -0.5 * _colsum(cot * acts[-1]) / (g * r))
        for idx in range(self.nlayers - 1, -1, -1):
            da = dphi(pre[idx]) * cz
            _acc(grad, omega, self.bias_names[idx], da)
            zin = acts[idx]
            _acc(grad, omega, self.weight_names[idx],
                 da @ zin.T if da.ndim > 1 else np.outer(da, zin))
            cz = layers[idx][0].T @ da
        # x = r * u: cotangent into u, plus d(r)/dg on the slice
        _acc(grad, omega, self.conjugate, 0.5 * _colsum(cz * state) / r)
        return _col(r, cz) * cz

    def metric(self, omega):
        return MetricMatrix.diagonal(_diag(omega, self.conjugate, self.dim))

    def metric_quad_vjp(self, omega, x, y, grad, scale):
        _acc(grad, omega, self.conjugate, x * y, scale)


def _rescale_layers(omega, names, budget):
    """Scale each named layer-matrix slice down to at most spectral norm ``budget`` if above it."""
    for name in names:
        W = omega.view(name)
        if W.ndim > 1:
            W = W.reshape(W.shape[0], -1)
        sig = spectral_norm_estimate(W)
        if sig > budget:
            # W * (budget / sig) may measure ~8 ulps above budget; 64 ulps less cannot
            omega = omega.replace_slice(name, W * (budget / sig * (1.0 - 64 * np.finfo(float).eps)))
    return omega


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
    return _rescale_layers(omega, names, rho_bar ** (1.0 / len(names)))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

@dataclass
class CompositeOperator(_Operator):
    """Right-to-left composition: members[0] is the outermost map.

    The composite metric H is the outermost member's metric.  A
    composition of maps that are each non-expansive in H is non-expansive
    in H, so every member must have exactly that metric, lead and tail;
    otherwise the certificate does not compose.
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

    def metric(self, omega):
        return self.members[0].metric(omega)

    def validate_omega(self, omega):
        # validated first, a prepared member reads its metric from its context
        for m in self.members:
            m.validate_omega(omega)
        H = self.metric(omega)
        for i, m in enumerate(self.members[1:], start=1):
            Hm = m.metric(omega)
            if not (np.array_equal(Hm.lead, H.lead) and np.array_equal(Hm.tail, H.tail)):
                raise ContractError(
                    f"member {i} ({type(m).__name__}) must be conjugated to the composite "
                    "metric, its outermost member's")

    def forward(self, state, omega):
        """The innermost member runs first; ``res`` holds each member's, in that order."""
        z, res = state, []
        for m in reversed(self.members):
            z, r = m.forward(z, omega)
            res.append(r)
        return z, res

    def apply_vjp(self, res, omega, cot, grad):
        cz = cot
        for m, r in zip(self.members, reversed(res)):
            cz = m.apply_vjp(r, omega, cz, grad)
        return cz

    def metric_quad_vjp(self, omega, x, y, grad, scale):
        self.members[0].metric_quad_vjp(omega, x, y, grad, scale)


def _nets(op):
    """The network members of ``op``: a composite's members are walked, and
    any other operator is its own single member."""
    members = op.members if isinstance(op, CompositeOperator) else (op,)
    return [m for m in members if isinstance(m, NetOperator)]


def contraction_factor(op, omega):
    """The certified Lipschitz factor of ``op`` at omega in its metric.

    PG, ALM and DLADMM are certified non-expansive (factor 1), so the
    factor is the product of the layer norms of the network members.
    """
    return math.prod(spectral_norm_estimate(W) for net in _nets(op) for W, _ in net._layers(omega))


def renormalize_for(op, omega):
    """Re-run spectral normalization for every network member of ``op``.

    Called after each hyper-parameter update so the per-layer Lipschitz
    certificates stay valid during training.  Each net's layers are held
    to that net's own budget, so the returned omega certifies every net,
    which takes it as certified.  Operators without network members
    return omega unchanged.
    """
    nets = _nets(op)
    for net in nets:
        omega = _rescale_layers(omega, net.weight_names, net.budget)
    for net in nets:
        net._certified = omega
    return omega
