"""Joint training / hyper-training loop and convergence diagnostics.

``train`` alternates K inner fixed-point/descent steps on the training
variable with one clamped gradient step on the hyper-training variable,
recording per-k residuals and per-t value/gradient curves.  The
diagnostics implement the runtime checks used by the acceptance suite:
the k^{-1/4}-type residual envelope and the stationarity probe for the
unrolled value function.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ContractError, DivergenceError
# evaluate_phiK lives beside inner_loop and is re-exported here
from .hypergrad import DIVERGENCE_LIMIT, evaluate_phiK, hypergradient, inner_loop
from .metric import MetricMatrix
from .operators import HyperParams, OmegaBox, contraction_factor, renormalize_for

TRAJECTORY_HEADER = "phase,t,k,residual_hlb_sq,rel_step,loss,grad_norm"


@dataclass
class BmoConfig:
    """Scalars of the solution strategy plus run policy.

    alpha: averaging weight of T; mu: aggregation weight of the two inner
    directions; s: base inner step (s_k = s/(k+1)); gamma: outer learning
    rate; K/T: inner/outer iteration counts.  ``lr_schedule`` is either
    ("constant",) or ("expdecay", rate, period) giving
    gamma * rate**(t/period).  ``omega_bounds`` boxes omega and ``domain``
    boxes u; None is the full space.  Nothing in the library reads ``seed``.
    """

    alpha: float = 0.5
    mu: float = 0.5
    s: float = 0.1
    gamma: float = 1e-3
    K: int = 15
    T: int = 100
    omega_bounds: Optional[OmegaBox] = None
    seed: int = 0
    lr_schedule: tuple = ("constant",)
    domain: Optional[OmegaBox] = None
    h_lb: Optional[MetricMatrix] = None
    u0: Optional[np.ndarray] = None
    record_inner: bool = True

    def validate(self):
        for name in ("alpha", "mu", "s", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ContractError("alpha must lie in (0, 1)")
        if not (0.0 < self.mu < 1.0):
            raise ContractError("mu must lie in (0, 1)")
        if self.s <= 0:
            raise ContractError("inner step s must be positive")
        if self.gamma < 0:
            raise ContractError("outer learning rate must be nonnegative")
        for name in ("K", "T"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 0:
                raise ContractError(f"{name} must be a nonnegative integer, got {n!r}")
        sched = tuple(self.lr_schedule)
        if sched != ("constant",) and not (len(sched) == 3 and sched[0] == "expdecay" and all(
                math.isfinite(x) and x > 0 for x in sched[1:])):
            raise ContractError("lr schedule must be ('constant',) or ('expdecay', rate, "
                                f"period) with a positive rate and period, got {sched!r}")

    def lr_at(self, t):
        if self.lr_schedule[0] == "expdecay":
            _, rate, period = self.lr_schedule
            return self.gamma * rate ** (t / period)
        return self.gamma


def omega_hash(omega):
    return hashlib.sha1(omega.values.tobytes()).hexdigest()[:12]


@dataclass
class Trajectory:
    """Per-iteration record; doubles as the CSV export surface.

    inner rows: (t, k, |u^k - T(u^k)|^2_{H_lb}, |u^k - u^{k-1}|/|u^{k-1}|, loss)
    outer rows: (t, phi_K, |grad phi_K|, omega snapshot hash)
    """

    inner: list = field(default_factory=list)
    outer: list = field(default_factory=list)

    def add_inner(self, t, records):
        for r in records:
            for v in (r.residual_hlb_sq, r.rel_step, r.loss):
                if not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
                    raise DivergenceError(
                        f"trajectory record out of range at t={t}, k={r.k}",
                        outer_step=t, inner_step=r.k)
            self.inner.append((t, r.k, r.residual_hlb_sq, r.rel_step, r.loss))

    def add_outer(self, t, phi, grad_norm, omega):
        for v in (phi, grad_norm):
            if not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
                raise DivergenceError(f"outer record out of range at t={t}", outer_step=t)
        self.outer.append((t, phi, grad_norm, omega_hash(omega)))

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(TRAJECTORY_HEADER + "\n")
            for (t, k, res, rel, loss) in self.inner:
                fh.write(f"inner,{t},{k},{res!r},{rel!r},{loss!r},\n")
            for (t, phi, gnorm, _) in self.outer:
                fh.write(f"outer,{t},,,,{phi!r},{gnorm!r}\n")


@dataclass
class TrainReport:
    omega_final: HyperParams
    trajectory: Trajectory
    envelope_C: Optional[float]

    def to_text(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("outer_steps = %d\n" % len(self.trajectory.outer))
            if self.trajectory.outer:
                t, phi, gnorm, whash = self.trajectory.outer[-1]
                fh.write("final_phi = %r\n" % phi)
                fh.write("final_grad_norm = %r\n" % gnorm)
                fh.write("final_omega_hash = %s\n" % whash)
            fh.write("envelope_C = %s\n" %
                     ("" if self.envelope_C is None else repr(self.envelope_C)))
            fh.write("omega = %s\n" % ",".join(repr(float(v)) for v in self.omega_final.values))


def train(op, loss, omega0, cfg):
    """Run the full two-level loop and return a TrainReport.

    Every outer step t: re-initialize u^0, run K inner steps at the
    current omega, backpropagate the hypergradient through the tape,
    take a (scheduled) gradient step on omega, clamp it into its box,
    and re-normalize any network layers so the non-expansiveness
    certificate survives the update.
    """
    cfg.validate()
    omega = omega0
    if cfg.omega_bounds is not None and not cfg.omega_bounds.contains(omega.values):
        raise ContractError("omega0 violates the configured box bounds")
    op.validate_omega(omega)
    traj = Trajectory()
    last_records = []
    for t in range(cfg.T):
        try:
            _, tape, records = inner_loop(op, loss, omega, cfg, record=cfg.record_inner)
        except DivergenceError as err:
            err.outer_step = t
            raise
        phi = tape.loss_value
        if not math.isfinite(phi) or abs(phi) > DIVERGENCE_LIMIT:
            raise DivergenceError(f"phi_K diverged at outer step {t}", outer_step=t)
        grad = hypergradient(tape)
        del tape  # so step t + 1 builds its tape while no other is held
        gnorm = float(np.linalg.norm(grad))
        if not math.isfinite(gnorm):
            raise DivergenceError(f"hypergradient diverged at outer step {t}", outer_step=t)
        if cfg.record_inner:
            traj.add_inner(t, records)
            last_records = records
        traj.add_outer(t, phi, gnorm, omega)
        values = omega.values - cfg.lr_at(t) * grad
        if cfg.omega_bounds is not None:
            values = cfg.omega_bounds.clamp(values)
        omega = renormalize_for(op, omega.with_values(values))
        op.validate_omega(omega)
    env_C = None
    if len(last_records) >= 16:
        env_C, _ = residual_envelope_check(
            [(r.k, r.residual_hlb_sq) for r in last_records])
    return TrainReport(omega, traj, env_C)


def envelope_shape(k):
    """sqrt((1 + ln(1+k)) / k^{1/4}), the certified residual decay shape."""
    return math.sqrt((1.0 + math.log1p(k)) / k ** 0.25)


def residual_envelope_check(residuals, split=None):
    """Fit the envelope constant and count second-half violations.

    ``residuals`` is a list of (k, |u^k - T(u^k)|^2_{H_lb}).  The global
    constant is max over k >= 2 of residual / shape(k); the violation
    count re-fits the constant on records up to ``split`` (default: the
    midpoint) and counts later records exceeding it.
    """
    pts = [(k, r) for (k, r) in residuals if k >= 2]
    if len(residuals) < 16:
        raise ContractError("envelope check needs at least 16 inner records")
    if not pts:
        raise ContractError("envelope check needs records with k >= 2")
    c_global = max(r / envelope_shape(k) for (k, r) in pts)
    ks = sorted(k for (k, _) in pts)
    split_k = split if split is not None else ks[len(ks) // 2]
    first = [(k, r) for (k, r) in pts if k <= split_k]
    second = [(k, r) for (k, r) in pts if k > split_k]
    if not first:
        raise ContractError("split leaves an empty fitting half")
    c_first = max(r / envelope_shape(k) for (k, r) in first)
    violations = sum(1 for (k, r) in second if r > c_first * envelope_shape(k) * (1 + 1e-12))
    return c_global, violations


def stationarity_probe(op, loss, omega, cfg, K_list):
    """|grad phi_K(omega)| for each K, plus a long-run proxy at 10 max(K).

    Requires the contractive operator mode (certified Lipschitz factor
    strictly below one) so the limiting value function is defined through
    the unique fixed point.
    """
    factor = contraction_factor(op, omega)
    if factor >= 1.0 - 1e-12:
        raise ContractError(
            f"stationarity probe requires a contractive operator (certified factor {factor:g})")
    if cfg.domain is not None:
        raise ContractError("stationarity probe assumes an unconstrained training variable")

    def grad_norm(K):
        _, tape, _ = inner_loop(op, loss, omega, replace(cfg, K=K), record=False)
        return float(np.linalg.norm(hypergradient(tape)))

    K_ref = 10 * max(int(k) for k in K_list)
    return [(int(K), grad_norm(int(K))) for K in K_list], (K_ref, grad_norm(K_ref))
