"""Inner iteration, differentiation tape, and hypergradients.

The inner loop interleaves the averaged fixed-point update with a
metric-scaled descent step on the upper loss,

    v_l = T(u, omega)
    v_u = u - s_k H(omega)^{-1} grad l(u),   s_k = s / (k + 1)
    u'  = Proj_U( mu v_u + (1 - mu) v_l ),

records every step on a tape, and the reverse sweep accumulates the
total derivative of phi_K(omega) = l(u^K(omega)) with respect to omega.
Without a loss the same loop runs the plain KM iteration u' = Proj_U(T(u)),
the mu = 0 step.
The upper loss l is one weighted least-squares rule that reads u alone.
Each step forms grad l(u) once, from one residual M u - t, and a batched
record of u takes its loss from that same residual.  The reverse sweep
updates one cotangent array in place.  A central-difference oracle over
the same forward path validates the reverse rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ContractError, DivergenceError
from .metric import (MetricMatrix, h_norm, h_project, min_eigen_estimate,
                     spectral_norm_estimate)
from .operators import HyperParams, OmegaGrad, _match_b, apply_T, average

DIVERGENCE_LIMIT = 1e12
RECORD_CHUNK = 64     # 1-D iterates whose records are reduced together


# ---------------------------------------------------------------------------
# upper-level losses (weighted least squares, exact derivatives)
# ---------------------------------------------------------------------------

def _finite_field(name, x):
    """``x`` as a float array; a non-finite entry is refused by ``name``."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ContractError(f"loss {name} has a non-finite entry")
    return a


@dataclass
class LossDescriptor:
    """Upper loss l(u) = c/2 * sum w (M u - t)^2, summed over batch columns.

    kind "squared_error": M u = u, t = target (default 0), c = scale
    kind "feasibility":   M u = Q u1 + u2 on a stacked (u1, u2, lam) state,
                          t = bmat, c = scale / B for a bmat of B columns;
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
            self._t = self.target = _finite_field("target", t)
            self._B = 1
        elif self.kind == "feasibility":
            self.Q = _finite_field("Q", self.Q)
            self._t = self.bmat = _finite_field("bmat", self.bmat)
            self._B = self.bmat.shape[1] if self.bmat.ndim > 1 else 1
        else:
            raise ContractError(f"unsupported loss kind {self.kind!r}")
        if not 0 < self.scale < math.inf:
            raise ContractError(f"loss scale must be positive and finite, got {self.scale!r}")
        if self.weight is not None:
            self.weight = _finite_field("weight", self.weight).reshape(-1)
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

        The division by B, the column count of bmat, comes last, so a
        batched gradient is the same for every B.
        """
        w = 1.0 if self.weight is None else _match_b(self.weight, ref)
        z = self.scale * w * r
        return z if self._B == 1 else z / self._B

    def _Mt(self, z, ref):
        """M^T z, shaped as the state ``ref``."""
        if self.kind == "squared_error":
            return z
        m, n = self.Q.shape
        out = np.empty_like(ref)
        np.matmul(self.Q.T, z, out=out[:n])
        out[n:n + m] = z
        out[n + m:] = 0.0
        return out

    def _grad_value(self, u, value=False):
        """grad l(u) = M^T z, and with ``value`` l(u) = 0.5 sum(r z) (else None),
        from one residual r = M u - t and z = c w r; the l(u) is ``value(u)``'s."""
        u = np.asarray(u, dtype=float)
        r = self._M(u) - _match_b(self._t, u)
        z = self._weigh(r, u)
        return self._Mt(z, u), (float(0.5 * np.sum(r * z)) if value else None)

    # interface ----------------------------------------------------------
    def value(self, u, columns=False):
        """l(u); with ``columns``, the (n,) losses of n 1-D states stacked as columns."""
        u = np.asarray(u, dtype=float)
        ref = u[:, :1] if columns else u     # a column is one 1-D state
        r = self._M(u) - _match_b(self._t, ref)
        out = 0.5 * np.sum(r * self._weigh(r, ref), axis=0 if columns else None)
        return out if columns else float(out)

    def grad_u(self, u):
        return self._grad_value(u)[0]

    def hess_vec(self, v):
        """The u-Hessian c M^T diag(w) M applied to v; it does not depend on u."""
        v = np.asarray(v, dtype=float)
        return self._Mt(self._weigh(self._M(v), v), v)

    def smoothness(self):
        """L_ell = c max(w) sigma_max(M)^2, with B the column count of bmat.

        This is the largest eigenvalue of the u-Hessian (an upper bound on
        it for a feasibility loss with uneven weights).  A feasibility M is
        [Q, I], and sigma_max([Q, I])^2 = sigma_max(Q)^2 + 1.
        """
        L = self.scale * (1.0 if self.weight is None else float(np.max(self.weight)))
        if self.kind == "squared_error":
            return L
        return L * (spectral_norm_estimate(self.Q) ** 2 + 1.0) / self._B


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class TapeStep:
    """What the reverse sweep reads of inner step k; its step size
    s_k = s / (k + 1) is computed again from cfg.

    res is what the operator's forward pass D(u^{k-1}) kept for its VJP,
    and hinv_grad is H(omega)^{-1} grad l(u^{k-1}); the iterate u^{k-1}
    itself is not kept.  With a box domain, interior is the bool mask of
    the coordinates of u^k strictly inside the box, where the clamp's
    derivative is one; without one it is None.
    """

    res: object
    hinv_grad: np.ndarray
    interior: Optional[np.ndarray]


@dataclass
class InnerRecord:
    k: int
    residual_hlb_sq: float
    rel_step: float
    loss: float


@dataclass
class Tape:
    """Unrolled record of one inner loop and its ``BmoConfig``."""

    op: object
    loss: LossDescriptor
    omega: HyperParams
    cfg: object
    metric: MetricMatrix
    steps: list
    uK: np.ndarray
    loss_value: float


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------

def _gkm_step(op, loss, omega, cfg, H, s_k, u, want_loss=False):
    """One aggregated inner step from u.

    Returns (T(u), H^{-1} grad l(u), u', res, l(u)), with res what the
    forward pass D(u) kept for its VJP; l(u) is read off grad l's residual
    with ``want_loss``, else None.  cfg supplies alpha, mu and U.  Without
    a loss the step is mu = 0, u' = Proj_U(T(u)).
    """
    d, res = op.forward(u, omega)
    v_l = average(u, d, cfg)
    if loss is None:
        return v_l, None, h_project(H, cfg.domain, v_l), res, None
    g, loss_u = loss._grad_value(u, want_loss)
    hg = H.solve(g)
    v = np.multiply(hg, s_k, out=g)  # g's buffer, spent, takes s_k hg
    np.subtract(u, v, out=v)
    v *= cfg.mu
    v += (1.0 - cfg.mu) * v_l        # mu (u - s_k hg) + (1 - mu) v_l
    return v_l, hg, h_project(H, cfg.domain, v), res, loss_u


def _record(ks, hlb, res, u, u_prev, losses, columns=False):
    """InnerRecords of iterates u given their residuals u - T(u), predecessors
    u_prev and losses.

    With ``columns`` the arrays stack 1-D iterates as columns, the iterate
    of step ks[j] in column j; otherwise they hold the one, possibly
    batched, iterate of step ks[0].
    """
    axis = 0 if columns else None
    res_sq = np.atleast_1d(h_norm(hlb, res, columns) ** 2)
    denom = np.atleast_1d(np.linalg.norm(u_prev, axis=axis))
    denom[denom == 0.0] = 1.0
    step = np.linalg.norm(u - u_prev, axis=axis) / denom
    return [InnerRecord(k, float(r), float(s), float(v))
            for k, r, s, v in zip(ks, res_sq, step, losses)]


class _Recorder:
    """Collects the InnerRecords of one run, RECORD_CHUNK 1-D iterates at a time.

    A 1-D iterate's residual, the iterate and its predecessor are copied
    into rows of buffers reused across chunks, and ``_record`` reduces a
    full chunk (and the rest, at ``finish``) with one product per array.
    A batched iterate is recorded at once, with the loss its caller hands in.
    """

    def __init__(self, hlb, loss, K):
        self.hlb, self.loss = hlb, loss
        self.records = []
        self.ks = []
        self.rows = min(K, RECORD_CHUNK)
        self.bufs = None          # rows of u - T(u), u and u_prev

    def add(self, k, u, t_u, u_prev, loss_u=None):
        if u.ndim > 1:
            self.records += _record([k], self.hlb, u - t_u, u, u_prev,
                                    [math.nan if loss_u is None else loss_u])
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
            losses = (self.loss.value(cur, columns=True) if self.loss is not None
                      else np.full(len(self.ks), math.nan))
            self.records += _record(self.ks, self.hlb, res, cur, prev, losses, columns=True)
            self.ks = []
        return self.records


def inner_loop(op, loss, omega, cfg, u0=None, h_lb=None, build_tape=True, record=True):
    """Run K inner steps; return (uK, tape, records).

    cfg is a ``BmoConfig``; it supplies alpha, mu, s, K, and the domain U
    (an ``OmegaBox``, or None for the full space).
    ``u0`` is the initial iterate (defaults to ``cfg.u0``, then to zeros),
    and ``h_lb`` the metric lower bound used for recorded residuals
    (defaults to ``cfg.h_lb``, then to the current H(omega)).  Without a
    ``loss`` it runs the plain KM iteration (``km_iterate``), reads no s
    or mu and records a NaN loss.  Raises ContractError when cfg fails
    ``cfg.validate()`` or s exceeds its step bound, DivergenceError on
    non-finite iterates, CapabilityError for a box domain under a
    non-diagonal metric, and, before the first step, ContractError for a
    tape without a loss.
    """
    cfg.validate()
    if build_tape and loss is None:
        raise ContractError("an inner loop without a loss has nothing to differentiate")
    op.validate_omega(omega)
    H = op.metric(omega)
    hlb = h_lb if h_lb is not None else (cfg.h_lb if cfg.h_lb is not None else H)
    if loss is not None:
        L = loss.smoothness()
        bound = min_eigen_estimate(hlb) / L if L > 0 else math.inf
        if not (0.0 < cfg.s < bound):
            raise ContractError(
                f"inner step s={cfg.s:g} outside (0, lambda_min(H_lb)/L_ell) = (0, {bound:g})")

    u0 = cfg.u0 if u0 is None else u0
    u = np.zeros(op.dim) if u0 is None else np.array(u0, dtype=float)
    steps = []
    recorder = _Recorder(hlb, loss, cfg.K)
    u_prev = None
    for k in range(1, cfg.K + 1):
        s_k = cfg.s / (k + 1)
        # a batched record of u^{k-1} takes its loss from this step's residual
        v_l, hg, u_next, res, loss_u = _gkm_step(op, loss, omega, cfg, H, s_k, u,
                                                 want_loss=record and k >= 2 and u.ndim > 1)
        if record and k >= 2:
            # v_l = T(u^{k-1}): residual for the previous iterate
            recorder.add(k - 1, u, v_l, u_prev, loss_u)
        # NaN fails both tests, +-inf one of them
        if not (u_next.max() <= DIVERGENCE_LIMIT and u_next.min() >= -DIVERGENCE_LIMIT):
            raise DivergenceError(f"inner iterate diverged at k={k}", inner_step=k)
        if build_tape:
            interior = None if cfg.domain is None else cfg.domain.interior(u_next)
            steps.append(TapeStep(res, hg, interior))
        u_prev, u = u, u_next
    phi = loss.value(u) if loss is not None and (build_tape or record and cfg.K >= 1) else None
    if record and cfg.K >= 1:
        recorder.add(cfg.K, u, apply_T(op, u, omega, cfg), u_prev, phi)
    records = recorder.finish()
    if records and phi is not None:
        records[-1].loss = phi  # phi_K, not the chunk's column-wise reduction of it
    tape = Tape(op, loss, omega, cfg, H, steps, u, phi) if build_tape else None
    return u, tape, records


def km_iterate(op, omega, cfg, u0, K, h_lb=None):
    """Plain averaged fixed-point iteration u <- Proj_U(T(u)); diagnostics only.

    This is ``inner_loop`` without a loss, the mu = 0 path: no
    loss-descent direction is mixed in, so the limit depends on the
    initial point when the fixed-point set is not a singleton.  cfg is a
    ``BmoConfig`` and supplies alpha and the domain U; K is passed apart
    from it.  Returns (uK, records).
    """
    u, _, records = inner_loop(op, None, omega, replace(cfg, K=K), u0=u0, h_lb=h_lb,
                               build_tape=False)
    return u, records


def evaluate_phiK(op, loss, omega, cfg, u0=None):
    """phi_K(omega) = loss at the K-th inner iterate; deterministic given omega."""
    u, _, _ = inner_loop(op, loss, omega, cfg, u0=u0, build_tape=False, record=False)
    return loss.value(u)


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------

def hypergradient(tape, corrupt_rule=False):
    """Total derivative d l(u^K(omega)) / d omega by a reverse sweep.

    Every reverse rule adds into one ``OmegaGrad``.  Each step's VJP reads
    the context its forward pass bound to the tape's omega, so the sweep
    resolves no slice by name, and each layer matrix's gradient is
    reduced once, after the sweep, as one product over the K steps'
    stacked columns.  ``corrupt_rule`` deliberately mis-scales one reverse
    rule (the loss-Hessian term of the descent direction); it exists so
    the finite-difference harness can prove it would catch a broken rule.
    """
    loss, omega, H, cfg = tape.loss, tape.omega, tape.metric, tape.cfg
    cu = loss.grad_u(tape.uK)      # a new array, which the sweep then updates in place
    go = OmegaGrad(np.zeros(omega.dim))
    hess_scale = 0.5 if corrupt_rule else 1.0
    for k in range(len(tape.steps), 0, -1):
        st, s_k = tape.steps[k - 1], cfg.s / (k + 1)
        if st.interior is not None:
            cu *= st.interior  # the box clamp's almost-everywhere derivative
        cvu = cfg.mu * cu
        cu *= 1.0 - cfg.mu  # cvl
        cs = tape.op.apply_vjp(st.res, cfg.alpha * cu, go)
        cu *= 1.0 - cfg.alpha
        cu += cs
        cu += cvu
        hv = H.solve(cvu)
        # in place, in the order of ((1 - alpha) cvl + cs + cvu) - s_k hess
        cu -= (hess_scale * s_k) * loss.hess_vec(hv)
        tape.op.metric_quad_vjp(omega, hv, st.hinv_grad, go, s_k)
    return go.reduce()


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
            out[i] += sgn * evaluate_phiK(op, loss, omega.with_values(vals), cfg, u0)
        out[i] /= 2.0 * h[i]
    return out
