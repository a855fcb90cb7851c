import numpy as np
import pytest

from gkmbmo.operators import OmegaGrad


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def checked_apply(op, state, omega):
    """D(state, omega) after the operator's own admissibility check."""
    op.validate_omega(omega)
    return op.apply(state, omega)


def fd_vjp_check(op, state, omega, rng, h=1e-6, rtol=1e-5, ndirs=4):
    """Compare an operator's analytic VJP against central differences.

    Checks <cot, J_u d> via directional differences for a few random
    state directions, and the full omega gradient coordinate by
    coordinate.  Returns the worst relative error seen.
    """
    cot = rng.standard_normal(op.apply(state, omega).shape)
    grad = OmegaGrad(np.zeros(omega.dim))
    an_state = op.apply_vjp(op.forward(state, omega)[1], cot, grad)
    an_omega = grad.reduce()
    worst = 0.0
    for _ in range(ndirs):
        d = rng.standard_normal(state.shape)
        num = (np.sum(cot * op.apply(state + h * d, omega))
               - np.sum(cot * op.apply(state - h * d, omega))) / (2 * h)
        ana = float(np.sum(an_state * d))
        scale = max(abs(num), abs(ana), 1e-8)
        worst = max(worst, abs(num - ana) / scale)
    base = omega.values
    for i in range(base.shape[0]):
        hh = h * (abs(base[i]) + 1.0)
        vp, vm = base.copy(), base.copy()
        vp[i] += hh
        vm[i] -= hh
        num = (np.sum(cot * op.apply(state, omega.with_values(vp)))
               - np.sum(cot * op.apply(state, omega.with_values(vm)))) / (2 * hh)
        ana = float(an_omega[i])
        scale = max(abs(num), abs(ana), 1e-6)
        worst = max(worst, abs(num - ana) / scale)
    assert worst < rtol, f"vjp mismatch: worst relative error {worst:.3e}"
    return worst


def lipschitz_ratio(op, omega, H, pairs, rng, scale=3.0):
    """Max ||D u1 - D u2||_H / ||u1 - u2||_H over random pairs."""
    from gkmbmo.metric import h_norm

    worst = 0.0
    for _ in range(pairs):
        u1 = rng.standard_normal(op.dim) * scale
        u2 = u1 + rng.standard_normal(op.dim) * rng.choice([1e-3, 0.3, 1.0, scale])
        num = h_norm(H, op.apply(u1, omega) - op.apply(u2, omega))
        den = h_norm(H, u1 - u2)
        if den > 0:
            worst = max(worst, num / den)
    return worst
