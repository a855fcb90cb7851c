"""Inner iteration, differentiation tape, and hypergradients.

The inner loop interleaves the averaged fixed-point update with a
metric-scaled descent step on the upper loss,

    v_l = T(u, omega)
    v_u = u - s_k H(omega)^{-1} dl/du(u, omega),   s_k = s / (k + 1)
    u'  = Proj_U( mu v_u + (1 - mu) v_l ),

records every step on a tape, and the reverse sweep accumulates the
total derivative of l(u^K(omega), omega) with respect to omega.  A
central-difference oracle over the same forward path validates the
reverse rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DivergenceError
from .metric import (DomainDescriptor, MetricMatrix, h_norm, h_project,
                     min_eigen_estimate, projection_jacobian_diag,
                     spectral_norm_estimate)
from .operators import HyperParams, apply_T

DIVERGENCE_LIMIT = 1e12
RECORD_CHUNK = 64     # 1-D iterates whose records are reduced together


# ---------------------------------------------------------------------------
# upper-level losses (quadratic family, exact derivatives)
# ---------------------------------------------------------------------------

@dataclass
class LossDescriptor:
    """Convex quadratic-family upper loss with analytic derivatives.

    kind "squared_error": l(u) = scale/2 * sum w (u - target)^2
    kind "feasibility":   l(u) = 1/(2B) |Q u1 + u2 - b|_F^2 on a stacked
                          (u1, u2, lam) state; the dual block carries no loss
    kind "quadratic":     l(u) = 1/2 u^T P u + q^T u + const
    """

    kind: str
    dim: int
    target: Optional[np.ndarray] = None
    scale: float = 1.0
    weight: Optional[np.ndarray] = None
    Q: Optional[np.ndarray] = None
    bmat: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None
    q: Optional[np.ndarray] = None
    const: float = 0.0

    def __post_init__(self):
        if self.kind not in ("squared_error", "feasibility", "quadratic"):
            raise ContractError(f"unsupported loss kind {self.kind!r}")
        if self.kind == "squared_error":
            if self.target is None:
                self.target = np.zeros(self.dim)
            self.target = np.asarray(self.target, dtype=float)
            if self.scale <= 0:
                raise ContractError("squared error scale must be positive")
            if self.weight is not None:
                self.weight = np.asarray(self.weight, dtype=float).reshape(-1)
                if np.any(self.weight < 0):
                    raise ContractError("loss weights must be nonnegative")
        elif self.kind == "feasibility":
            self.Q = np.asarray(self.Q, dtype=float)
            self.bmat = np.asarray(self.bmat, dtype=float)
        else:
            self.P = np.asarray(self.P, dtype=float)
            if self.q is not None:
                self.q = np.asarray(self.q, dtype=float).reshape(-1)

    # helpers -----------------------------------------------------------
    def _se_terms(self, u):
        t = self.target
        if t.ndim == 1 and u.ndim > 1:
            t = t[:, None]
        d = u - t
        if self.weight is not None:
            w = self.weight[:, None] if u.ndim > 1 else self.weight
            return d, w
        return d, 1.0

    def _feas_parts(self, u, columns=False):
        n = self.Q.shape[1]
        m = self.Q.shape[0]
        u1, u2 = u[:n], u[n:n + m]
        b = self.bmat
        if b.ndim > 1 and (u.ndim == 1 or columns):
            b = b[:, 0]
        if b.ndim == 1 and u.ndim > 1:
            b = b[:, None]
        # columns of 1-D states are separate states, not one batch
        B = u.shape[1] if u.ndim > 1 and not columns else 1
        r = (self.Q @ u1 + u2 - b) / B
        return u1, u2, r, B

    # interface ----------------------------------------------------------
    def value(self, u, omega=None, columns=False):
        """l(u); with ``columns``, the (n,) losses of n 1-D states stacked as columns."""
        u = np.asarray(u, dtype=float)
        if columns:
            return self._column_values(u)
        if self.kind == "squared_error":
            d, w = self._se_terms(u)
            return float(0.5 * self.scale * np.sum(w * d * d))
        if self.kind == "feasibility":
            _, _, r, B = self._feas_parts(u)
            return float(0.5 * B * np.sum(r * r))
        quad = 0.5 * float(np.sum(u * (self.P @ u)))
        linear = float(np.sum(self.q[:, None] * u)) if (self.q is not None and u.ndim > 1) \
            else (float(self.q @ u) if self.q is not None else 0.0)
        return quad + linear + self.const

    def _column_values(self, u):
        if self.kind == "squared_error":
            d, w = self._se_terms(u)
            return 0.5 * self.scale * np.sum(w * d * d, axis=0)
        if self.kind == "feasibility":
            r = self._feas_parts(u, columns=True)[2]
            return 0.5 * np.sum(r * r, axis=0)
        vals = 0.5 * np.sum(u * (self.P @ u), axis=0)
        if self.q is not None:
            vals += self.q @ u
        return vals + self.const

    def grad_u(self, u, omega=None):
        u = np.asarray(u, dtype=float)
        if self.kind == "squared_error":
            d, w = self._se_terms(u)
            return self.scale * w * d
        if self.kind == "feasibility":
            _, _, r, _ = self._feas_parts(u)
            g = np.zeros_like(u)
            n, m = self.Q.shape[1], self.Q.shape[0]
            g[:n] = self.Q.T @ r
            g[n:n + m] = r
            return g
        g = self.P @ u
        if self.q is not None:
            g = g + (self.q[:, None] if u.ndim > 1 else self.q)
        return g

    def hess_vec(self, u, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "squared_error":
            if self.weight is not None:
                w = self.weight[:, None] if v.ndim > 1 else self.weight
                return self.scale * w * v
            return self.scale * v
        if self.kind == "feasibility":
            n, m = self.Q.shape[1], self.Q.shape[0]
            B = v.shape[1] if v.ndim > 1 else 1
            rv = (self.Q @ v[:n] + v[n:n + m]) / B
            out = np.zeros_like(v)
            out[:n] = self.Q.T @ rv
            out[n:n + m] = rv
            return out
        return self.P @ v

    def smoothness(self):
        """L_ell, the largest eigenvalue of the u-Hessian."""
        if self.kind == "squared_error":
            if self.weight is not None:
                return self.scale * float(np.max(self.weight))
            return self.scale
        if self.kind == "feasibility":
            m, n = self.Q.shape
            stacked = np.hstack([self.Q, np.eye(m)])
            B = self.bmat.shape[1] if self.bmat.ndim > 1 else 1
            return spectral_norm_estimate(stacked) ** 2 / B
        return spectral_norm_estimate(self.P)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class TapeStep:
    """What the reverse sweep reads of inner step k.

    u_prev is u^{k-1} and hinv_grad is H(omega)^{-1} grad l(u^{k-1}); u^k is
    the next step's u_prev (the tape's uK after the last step).  pre_proj,
    the point handed to the projection, is kept only when the domain is
    not the full space.
    """

    k: int
    s_k: float
    u_prev: np.ndarray
    hinv_grad: np.ndarray
    pre_proj: Optional[np.ndarray] = None


@dataclass
class InnerRecord:
    k: int
    residual_hlb_sq: float
    rel_step: float
    loss: float


@dataclass
class Tape:
    """Unrolled record of one inner loop; forward replay is bit-exact."""

    op: object
    loss: LossDescriptor
    omega: HyperParams
    alpha: float
    mu: float
    domain: DomainDescriptor
    metric: MetricMatrix
    grad_through_metric: bool
    u0: np.ndarray
    steps: list
    uK: np.ndarray
    loss_value: float

    def replay(self):
        # the tape carries alpha and mu, so it stands in for the step's cfg
        u = self.u0
        for st in self.steps:
            u = _gkm_step(self.op, self.loss, self.omega, self, self.metric, self.domain,
                          st.s_k, u)[3]
        return u


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------

def _step_bound(h_lb, loss):
    L = loss.smoothness()
    if L <= 0:
        return math.inf
    return min_eigen_estimate(h_lb) / L


def _gkm_step(op, loss, omega, cfg, H, domain, s_k, u):
    """One aggregated inner step from u.

    Returns (T(u), H^{-1} grad l(u), the pre-projection point, u'); cfg
    supplies alpha and mu.
    """
    v_l = apply_T(op, u, omega, cfg)
    hg = H.solve(loss.grad_u(u, omega))
    pre = cfg.mu * (u - s_k * hg) + (1.0 - cfg.mu) * v_l
    return v_l, hg, pre, h_project(H, domain, pre)


def _record(ks, hlb, res, u, u_prev, loss, omega, columns=False):
    """InnerRecords of iterates u given their residuals u - T(u) and predecessors u_prev.

    With ``columns`` the arrays stack 1-D iterates as columns, the iterate
    of step ks[j] in column j; otherwise they hold the one, possibly
    batched, iterate of step ks[0].  loss may be None.
    """
    axis = 0 if columns else None
    res_sq = np.atleast_1d(h_norm(hlb, res, columns) ** 2)
    denom = np.atleast_1d(np.linalg.norm(u_prev, axis=axis))
    denom[denom == 0.0] = 1.0
    step = np.linalg.norm(u - u_prev, axis=axis) / denom
    vals = (np.atleast_1d(loss.value(u, omega, columns)) if loss is not None
            else np.full(len(ks), math.nan))
    return [InnerRecord(k, float(r), float(s), float(v))
            for k, r, s, v in zip(ks, res_sq, step, vals)]


class _Recorder:
    """Collects the InnerRecords of one run, RECORD_CHUNK 1-D iterates at a time.

    A 1-D iterate's residual, the iterate and its predecessor are copied
    into rows of buffers reused across chunks, and ``_record`` reduces a
    full chunk (and the rest, at ``finish``) with one product per array.
    A batched iterate already fills a chunk, so it is recorded at once.
    """

    def __init__(self, hlb, loss, omega, K):
        self.hlb, self.loss, self.omega = hlb, loss, omega
        self.records = []
        self.ks = []
        self.rows = min(K, RECORD_CHUNK)
        self.bufs = None          # rows of u - T(u), u and u_prev

    def add(self, k, u, t_u, u_prev):
        if u.ndim > 1:
            self.records += _record([k], self.hlb, u - t_u, u, u_prev, self.loss, self.omega)
            return
        if self.bufs is None:
            self.bufs = tuple(np.empty((3, self.rows, u.shape[0])))
        j = len(self.ks)
        res, cur, prev = self.bufs
        np.subtract(u, t_u, out=res[j])
        cur[j] = u
        prev[j] = u_prev
        self.ks.append(k)
        if j + 1 == self.rows:
            self.finish()

    def finish(self):
        """Record what is buffered; returns every record so far."""
        if self.ks:
            res, cur, prev = (b[:len(self.ks)].T for b in self.bufs)
            self.records += _record(self.ks, self.hlb, res, cur, prev,
                                    self.loss, self.omega, columns=True)
            self.ks = []
        return self.records


def _check_finite(u, what, k):
    # NaN fails the comparison and +-inf exceeds the limit
    if not np.max(np.abs(u)) <= DIVERGENCE_LIMIT:
        raise DivergenceError(f"{what} diverged at k={k}", inner_step=k)


def inner_loop(op, loss, omega, cfg, u0=None, h_lb=None, build_tape=True, record=True):
    """Run K inner steps; return (uK, tape, records).

    cfg is a ``BmoConfig``; it supplies alpha, mu, s, K, and the domain U.
    ``u0`` is the initial iterate (defaults to ``cfg.u0``, then to zeros),
    and ``h_lb`` the metric lower bound used for recorded residuals
    (defaults to ``cfg.h_lb``, then to the current H(omega)).  Raises
    ContractError when cfg fails ``cfg.validate()`` or s exceeds its step
    bound, DivergenceError on non-finite iterates, and CapabilityError,
    before the first step, when a tape is asked for on a domain whose
    projection the reverse sweep cannot differentiate.
    """
    cfg.validate()
    domain = cfg.domain if cfg.domain is not None else DomainDescriptor.full_space(op.dim)
    if build_tape:
        projection_jacobian_diag(domain, np.zeros(op.dim))  # refuses what the sweep cannot differentiate
    op.validate_omega(omega)
    H = op.metric(omega)
    hlb = h_lb if h_lb is not None else (cfg.h_lb if cfg.h_lb is not None else H)
    bound = _step_bound(hlb, loss)
    if not (0.0 < cfg.s < bound):
        raise ContractError(
            f"inner step s={cfg.s:g} outside (0, lambda_min(H_lb)/L_ell) = (0, {bound:g})")
    keep_pre = domain.kind != "full"

    u0 = cfg.u0 if u0 is None else u0
    u0 = u = np.zeros(op.dim) if u0 is None else np.array(u0, dtype=float)
    steps = []
    recorder = _Recorder(hlb, loss, omega, cfg.K)
    u_prev = None
    for k in range(1, cfg.K + 1):
        s_k = cfg.s / (k + 1)
        v_l, hg, pre, u_next = _gkm_step(op, loss, omega, cfg, H, domain, s_k, u)
        if record and k >= 2:
            # v_l = T(u^{k-1}): residual for the previous iterate
            recorder.add(k - 1, u, v_l, u_prev)
        _check_finite(u_next, "inner iterate", k)
        if build_tape:
            steps.append(TapeStep(k, s_k, u, hg, pre if keep_pre else None))
        u_prev, u = u, u_next
    if record and cfg.K >= 1:
        recorder.add(cfg.K, u, apply_T(op, u, omega, cfg), u_prev)
    records = recorder.finish()
    tape = None
    if build_tape:
        tape = Tape(op, loss, omega, cfg.alpha, cfg.mu, domain, H,
                    cfg.grad_through_metric,
                    u0, steps, u, loss.value(u, omega))
    return u, tape, records


def km_iterate(op, omega, cfg, u0, K, h_lb=None, loss=None):
    """Plain averaged fixed-point iteration u <- T(u); diagnostics only.

    This is the mu = 0 path: no loss-descent direction is mixed in, so
    the limit depends on the initial point when the fixed-point set is
    not a singleton.  cfg is a ``BmoConfig`` and supplies alpha; K is
    passed apart from it.
    """
    cfg.validate()
    op.validate_omega(omega)
    hlb = h_lb if h_lb is not None else op.metric(omega)
    u = np.array(u0, dtype=float)
    recorder = _Recorder(hlb, loss, omega, K)
    prev = None
    for k in range(1, K + 1):
        v_l = apply_T(op, u, omega, cfg)
        if k >= 2:
            recorder.add(k - 1, u, v_l, prev)
        _check_finite(v_l, "KM iterate", k)
        prev, u = u, v_l
    if K >= 1:
        recorder.add(K, u, apply_T(op, u, omega, cfg), prev)
    return u, recorder.finish()


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------

def hypergradient(tape, corrupt_rule=False):
    """Total derivative d l(u^K(omega), omega) / d omega by a reverse sweep.

    ``corrupt_rule`` deliberately mis-scales one reverse rule (the
    loss-Hessian term of the descent direction); it exists so the
    finite-difference harness can prove it would catch a broken rule.
    """
    loss, omega, H = tape.loss, tape.omega, tape.metric
    cu = loss.grad_u(tape.uK, omega)
    go = np.zeros(omega.dim)  # the one omega gradient: every reverse rule adds into it
    hess_scale = 0.5 if corrupt_rule else 1.0
    for st in reversed(tape.steps):
        if tape.domain.kind != "full":
            cu = projection_jacobian_diag(tape.domain, st.pre_proj) * cu
        cvu = tape.mu * cu
        cvl = (1.0 - tape.mu) * cu
        cs = tape.op.apply_vjp(st.u_prev, omega, tape.alpha * cvl, go)
        cu = (1.0 - tape.alpha) * cvl + cs
        hv = H.solve(cvu)
        cu = cu + cvu - hess_scale * st.s_k * loss.hess_vec(st.u_prev, hv)
        if tape.grad_through_metric:
            tape.op.metric_quad_vjp(omega, hv, st.hinv_grad, go, st.s_k)
    return go


def fd_hypergradient(op, loss, omega, cfg, u0=None, h=None):
    """Central-difference oracle for d phi_K / d omega, coordinate by coordinate."""
    base = omega.values
    if h is None:
        h = 1e-6 * (np.abs(base) + 1.0)
    else:
        h = np.broadcast_to(np.asarray(h, dtype=float), base.shape).copy()
    out = np.zeros_like(base)
    for i in range(base.shape[0]):
        for sgn in (+1.0, -1.0):
            vals = base.copy()
            vals[i] += sgn * h[i]
            u, _, _ = inner_loop(op, loss, omega.with_values(vals), cfg, u0=u0,
                                 build_tape=False, record=False)
            out[i] += sgn * loss.value(u, omega.with_values(vals))
        out[i] /= 2.0 * h[i]
    return out
