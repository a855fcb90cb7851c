"""Inner iteration, differentiation tape, and hypergradients.

The inner loop interleaves the averaged fixed-point update with a
metric-scaled descent step on the upper loss,

    v_l = T(u, omega)
    v_u = u - s_k H(omega)^{-1} grad l(u),   s_k = s / (k + 1)
    u'  = Proj_U( mu v_u + (1 - mu) v_l ),

records every step on a tape, and the reverse sweep accumulates the
total derivative of phi_K(omega) = l(u^K(omega)) with respect to omega.
The upper loss l is one weighted least-squares rule that reads u alone.
A central-difference oracle over the same forward path validates the
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
from .operators import HyperParams, _match_b, apply_T

DIVERGENCE_LIMIT = 1e12
RECORD_CHUNK = 64     # 1-D iterates whose records are reduced together


# ---------------------------------------------------------------------------
# upper-level losses (weighted least squares, exact derivatives)
# ---------------------------------------------------------------------------

@dataclass
class LossDescriptor:
    """Upper loss l(u) = c/2 * sum w (M u - t)^2, summed over batch columns.

    kind "squared_error": M u = u, t = target (default 0), c = scale
    kind "feasibility":   M u = Q u1 + u2 on a stacked (u1, u2, lam) state,
                          t = bmat, c = scale / B for a state of B columns;
                          the dual block carries no loss
    w is ``weight`` (default 1) and scale defaults to 1.  The loss reads u
    alone, so the reverse sweep has no dl/domega term to add.  Its data is
    aligned against the state by the rule the operators use.
    """

    kind: str
    dim: int
    target: Optional[np.ndarray] = None
    scale: float = 1.0
    weight: Optional[np.ndarray] = None
    Q: Optional[np.ndarray] = None
    bmat: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "squared_error":
            t = np.zeros(self.dim) if self.target is None else self.target
            self._t = self.target = np.asarray(t, dtype=float)
        elif self.kind == "feasibility":
            self.Q = np.asarray(self.Q, dtype=float)
            self._t = self.bmat = np.asarray(self.bmat, dtype=float)
        else:
            raise ContractError(f"unsupported loss kind {self.kind!r}")
        if self.scale <= 0:
            raise ContractError("loss scale must be positive")
        if self.weight is not None:
            self.weight = np.asarray(self.weight, dtype=float).reshape(-1)
            if np.any(self.weight < 0):
                raise ContractError("loss weights must be nonnegative")

    # helpers -----------------------------------------------------------
    def _M(self, v):
        """M v: v itself, or Q v1 + v2 on a stacked (v1, v2, lam) state."""
        if self.kind == "squared_error":
            return v
        m, n = self.Q.shape
        return self.Q @ v[:n] + v[n:n + m]

    def _weigh(self, r, ref):
        """c w r for a residual r of the state ``ref``.

        The division by B comes last, so a batched gradient is the same
        for every B.
        """
        w = 1.0 if self.weight is None else _match_b(self.weight, ref)
        z = self.scale * w * r
        B = ref.shape[1] if self.kind == "feasibility" and ref.ndim > 1 else 1
        return z if B == 1 else z / B

    def _Mt(self, z, ref):
        """M^T z, shaped as the state ``ref``."""
        if self.kind == "squared_error":
            return z
        m, n = self.Q.shape
        out = np.zeros_like(ref)
        out[:n] = self.Q.T @ z
        out[n:n + m] = z
        return out

    # interface ----------------------------------------------------------
    def value(self, u, columns=False):
        """l(u); with ``columns``, the (n,) losses of n 1-D states stacked as columns."""
        u = np.asarray(u, dtype=float)
        ref = u[:, :1] if columns else u     # a column is one 1-D state
        r = self._M(u) - _match_b(self._t, ref)
        out = 0.5 * np.sum(r * self._weigh(r, ref), axis=0 if columns else None)
        return out if columns else float(out)

    def grad_u(self, u):
        u = np.asarray(u, dtype=float)
        return self._Mt(self._weigh(self._M(u) - _match_b(self._t, u), u), u)

    def hess_vec(self, v):
        """The u-Hessian c M^T diag(w) M applied to v; it does not depend on u."""
        v = np.asarray(v, dtype=float)
        return self._Mt(self._weigh(self._M(v), v), v)

    def smoothness(self):
        """L_ell = c max(w) sigma_max(M)^2, with B the column count of bmat.

        This is the largest eigenvalue of the u-Hessian (an upper bound on
        it for a feasibility loss with uneven weights).
        """
        L = self.scale * (1.0 if self.weight is None else float(np.max(self.weight)))
        if self.kind == "squared_error":
            return L
        m = self.Q.shape[0]
        B = self.bmat.shape[1] if self.bmat.ndim > 1 else 1
        return L * spectral_norm_estimate(np.hstack([self.Q, np.eye(m)])) ** 2 / B


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
    hg = H.solve(loss.grad_u(u))
    pre = cfg.mu * (u - s_k * hg) + (1.0 - cfg.mu) * v_l
    return v_l, hg, pre, h_project(H, domain, pre)


def _record(ks, hlb, res, u, u_prev, loss, columns=False):
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
    vals = (np.atleast_1d(loss.value(u, columns)) if loss is not None
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

    def __init__(self, hlb, loss, K):
        self.hlb, self.loss = hlb, loss
        self.records = []
        self.ks = []
        self.rows = min(K, RECORD_CHUNK)
        self.bufs = None          # rows of u - T(u), u and u_prev

    def add(self, k, u, t_u, u_prev):
        if u.ndim > 1:
            self.records += _record([k], self.hlb, u - t_u, u, u_prev, self.loss)
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
                                    self.loss, columns=True)
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
    recorder = _Recorder(hlb, loss, cfg.K)
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
                    u0, steps, u, loss.value(u))
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
    recorder = _Recorder(hlb, loss, K)
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
    """Total derivative d l(u^K(omega)) / d omega by a reverse sweep.

    ``corrupt_rule`` deliberately mis-scales one reverse rule (the
    loss-Hessian term of the descent direction); it exists so the
    finite-difference harness can prove it would catch a broken rule.
    """
    loss, omega, H = tape.loss, tape.omega, tape.metric
    cu = loss.grad_u(tape.uK)
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
        cu = cu + cvu - hess_scale * st.s_k * loss.hess_vec(hv)
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
            out[i] += sgn * loss.value(u)
        out[i] /= 2.0 * h[i]
    return out
