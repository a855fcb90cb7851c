import math
from dataclasses import replace

import numpy as np
import pytest

from gkmbmo import hypergrad
from gkmbmo.bmo import BmoConfig, evaluate_phiK
from gkmbmo.cli import ExperimentConfig, bmo_config
from gkmbmo.errors import ContractError, DivergenceError
from gkmbmo.hypergrad import (LossDescriptor, fd_hypergradient,
                              hypergradient, inner_loop, km_iterate)
from gkmbmo.metric import MetricMatrix, h_norm, min_eigen_estimate, spectral_norm_estimate
from gkmbmo.operators import (DladmmOperator, NetOperator, OmegaBox, OmegaGrad, PgOperator,
                              apply_T, make_hyperparams)
from gkmbmo.tasks import (build_deconv_operator, build_separation_operator,
                          build_sparse_coding_operator, gen_deconv, gen_separation,
                          gen_sparse_coding)


def identity_net(dim):
    op = NetOperator(dim=dim, weight_names=("W0",), bias_names=("b0",),
                     widths=(dim, dim))
    om = make_hyperparams([("W0", np.eye(dim), "layer-matrix"),
                           ("b0", np.zeros(dim), "layer-bias")])
    return op, om


def replayed_iterates(tape):
    """u^0, ..., u^K of a tape whose inner loop started from ``cfg.u0``, rebuilt
    by replaying its steps."""
    cfg = tape.cfg
    us = [np.array(cfg.u0, dtype=float)]
    for k in range(1, len(tape.steps) + 1):
        us.append(hypergrad._gkm_step(tape.op, tape.loss, tape.omega, cfg,
                                      tape.metric, cfg.s / (k + 1), us[-1])[2])
    np.testing.assert_array_equal(us[-1], tape.uK)
    return us


def scaling_net(dim, factor, rho_bar=1.0):
    op = NetOperator(dim=dim, weight_names=("W0",), bias_names=("b0",),
                     widths=(dim, dim), rho_bar=rho_bar)
    om = make_hyperparams([("W0", factor * np.eye(dim), "layer-matrix"),
                           ("b0", np.zeros(dim), "layer-bias")])
    return op, om


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestLoss:
    def test_squared_error_value_and_grad(self):
        loss = LossDescriptor("squared_error", 2)
        u = np.array([3.0, 4.0])
        assert loss.value(u) == pytest.approx(12.5)
        np.testing.assert_allclose(loss.grad_u(u), [3.0, 4.0])

    def test_zero_at_target(self, rng):
        t = rng.standard_normal(4)
        loss = LossDescriptor("squared_error", 4, target=t)
        assert loss.value(t) == 0.0
        np.testing.assert_allclose(loss.grad_u(t), 0.0)

    def test_feasible_point_zero(self, rng):
        Q = rng.standard_normal((3, 5))
        u1 = rng.standard_normal(5)
        u2 = rng.standard_normal(3)
        b = Q @ u1 + u2
        loss = LossDescriptor("feasibility", 5 + 6, Q=Q, bmat=b)
        state = np.concatenate([u1, u2, np.zeros(3)])
        assert loss.value(state) == pytest.approx(0.0, abs=1e-28)

    def test_dual_block_carries_no_loss(self, rng):
        Q = rng.standard_normal((3, 5))
        loss = LossDescriptor("feasibility", 11, Q=Q, bmat=rng.standard_normal(3))
        state = rng.standard_normal(11)
        g = loss.grad_u(state)
        np.testing.assert_array_equal(g[8:], 0.0)

    @pytest.mark.parametrize("case", ["squared_error", "weighted", "feasibility",
                                      "feasibility_2d_b"])
    def test_column_values_match_per_column_loop(self, case, rng):
        # a feasibility column is one 1-D state: no division by the column count
        Q = rng.standard_normal((3, 5))
        loss = {
            "squared_error": lambda: LossDescriptor("squared_error", 6,
                                                    target=rng.standard_normal(6), scale=1.5),
            "weighted": lambda: LossDescriptor("squared_error", 6, target=rng.standard_normal(6),
                                               weight=rng.uniform(0.0, 2.0, 6)),
            "feasibility": lambda: LossDescriptor("feasibility", 11, Q=Q,
                                                  bmat=rng.standard_normal(3)),
            "feasibility_2d_b": lambda: LossDescriptor("feasibility", 11, Q=Q,
                                                       bmat=rng.standard_normal((3, 1))),
        }[case]()
        U = rng.standard_normal((7, loss.dim)).T
        got = loss.value(U, columns=True)
        assert got.shape == (7,)
        np.testing.assert_allclose(got, [loss.value(U[:, j]) for j in range(7)],
                                   rtol=1e-12, atol=0)
        # read as one batched state, the loss sums its columns: B counts the
        # columns of bmat, here one, not those of the state
        assert loss.value(U) == pytest.approx(np.sum(got), rel=1e-12)

    @staticmethod
    def loss_case(case, rng):
        """A loss and a state of its shape for each derivative case."""
        Q = rng.standard_normal((3, 5))
        if case == "squared_error":
            return LossDescriptor("squared_error", 6, target=rng.standard_normal(6)), (6,)
        if case == "weighted":
            return LossDescriptor("squared_error", 6, target=rng.standard_normal(6),
                                  weight=rng.uniform(0.0, 2.0, 6), scale=2.5), (6,)
        if case == "feasibility":
            return LossDescriptor("feasibility", 11, Q=Q, bmat=rng.standard_normal(3)), (11,)
        return LossDescriptor("feasibility", 11, Q=Q, bmat=rng.standard_normal((3, 3))), (11, 3)

    @pytest.mark.parametrize("case", ["squared_error", "weighted", "feasibility",
                                      "feasibility_batched"])
    def test_derivatives_match_central_differences(self, case, rng):
        loss, shape = self.loss_case(case, rng)
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        h = 1e-5
        # l is quadratic in u, so both differences are exact up to rounding
        dval = (loss.value(u + h * v) - loss.value(u - h * v)) / (2 * h)
        assert np.sum(loss.grad_u(u) * v) == pytest.approx(dval, rel=1e-7, abs=1e-9)
        dgrad = (loss.grad_u(u + h * v) - loss.grad_u(u - h * v)) / (2 * h)
        np.testing.assert_allclose(loss.hess_vec(v), dgrad, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("case", ["squared_error", "weighted", "feasibility"])
    def test_smoothness_is_top_hessian_eigenvalue(self, case, rng):
        # a 1-D state has B = 1
        loss, (dim,) = self.loss_case(case, rng)
        hess = np.column_stack([loss.hess_vec(e) for e in np.eye(dim)])
        np.testing.assert_allclose(hess, hess.T, atol=1e-12)
        assert loss.smoothness() == pytest.approx(np.linalg.eigvalsh(hess)[-1], rel=1e-6)

    def test_smoothness_reads_b_from_bmat(self, rng):
        # a 1-D bmat on a 4-column state: B = 1, whatever the state's width
        Q = rng.standard_normal((3, 5))
        loss = LossDescriptor("feasibility", 11, Q=Q, bmat=rng.standard_normal(3))
        shape = (11, 4)
        hess = np.column_stack([loss.hess_vec(e.reshape(shape)).reshape(-1)
                                for e in np.eye(11 * 4)])
        assert loss.smoothness() == pytest.approx(np.linalg.eigvalsh(hess)[-1], rel=1e-6)

    def test_misaligned_batch_refused(self, rng):
        Q = rng.standard_normal((3, 5))
        loss = LossDescriptor("feasibility", 11, Q=Q, bmat=rng.standard_normal((3, 3)))
        with pytest.raises(ContractError):
            loss.value(rng.standard_normal(11))      # a 1-D state against 3 columns
        with pytest.raises(ContractError):
            loss.grad_u(rng.standard_normal((11, 4)))

    @pytest.mark.parametrize("field, kwargs", [
        ("scale", {"scale": math.nan}),
        ("scale", {"scale": math.inf}),
        ("weight", {"weight": np.array([1.0, math.nan])}),
        ("target", {"target": np.array([0.0, math.inf])}),
        ("Q", {"kind": "feasibility", "Q": np.array([[1.0, math.nan]]), "bmat": np.zeros(1)}),
        ("bmat", {"kind": "feasibility", "Q": np.ones((1, 1)), "bmat": np.array([-math.inf])}),
    ], ids=["scale-nan", "scale-inf", "weight-nan", "target-inf", "Q-nan", "bmat-inf"])
    def test_non_finite_refused_by_name(self, field, kwargs):
        kwargs = {"kind": "squared_error", **kwargs}
        with pytest.raises(ContractError, match=field):
            LossDescriptor(dim=2, **kwargs)

    def test_L_ell_identity_quadratic(self):
        assert LossDescriptor("squared_error", 3).smoothness() == 1.0

    def test_L_ell_from_matrix(self):
        # sigma_max([Q, I])^2 / B = (9 + 1) / 2
        loss = LossDescriptor("feasibility", 6, Q=np.diag([1.0, 3.0]), bmat=np.zeros((2, 2)))
        assert loss.smoothness() == pytest.approx(5.0, rel=1e-6)

    @pytest.mark.parametrize("B", [1, 4])
    def test_feasibility_smoothness_from_sigma_q(self, B, rng):
        # sigma_max([Q, I])^2 = sigma_max(Q)^2 + 1, with no [Q, I] formed
        Q = rng.standard_normal((6, 9))
        w = rng.uniform(0.0, 3.0, 6)
        bmat = rng.standard_normal(6) if B == 1 else rng.standard_normal((6, B))
        loss = LossDescriptor("feasibility", 21, Q=Q, bmat=bmat, weight=w, scale=1.7)
        sig = np.linalg.norm(Q, 2)
        assert loss.smoothness() == pytest.approx(1.7 * np.max(w) * (sig ** 2 + 1.0) / B,
                                                  rel=1e-14)

    def test_L_ell_scale(self):
        assert LossDescriptor("squared_error", 3, scale=2.5).smoothness() == 2.5


# ---------------------------------------------------------------------------
# inner loop
# ---------------------------------------------------------------------------

class TestInnerLoop:
    def test_scalar_recursion(self):
        op, om = identity_net(1)
        loss = LossDescriptor("squared_error", 1)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=1)
        u, tape, recs = inner_loop(op, loss, om, cfg, u0=np.array([1.0]))
        # s_1 = s/2 = 0.25; v_l = u0; v_u = (1 - 0.25) u0; u1 = 0.875
        np.testing.assert_allclose(u, [0.875])
        assert recs[-1].loss == pytest.approx(0.5 * 0.875 ** 2)

    def test_k_zero_returns_u0(self, rng):
        op, om = identity_net(3)
        loss = LossDescriptor("squared_error", 3)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=0)
        u0 = rng.standard_normal(3)
        u, tape, recs = inner_loop(op, loss, om, cfg, u0=u0)
        np.testing.assert_array_equal(u, u0)
        assert tape.steps == []
        assert recs == []

    def test_starts_from_cfg_u0(self, rng):
        # without a u0 argument the loop starts where train and evaluate_phiK do,
        # so the FD oracle differentiates the phi_K whose tape train sweeps
        W = rng.standard_normal((2, 2))
        om = make_hyperparams([("W0", W * (0.8 / np.linalg.norm(W, 2)), "layer-matrix"),
                               ("b0", 0.3 * rng.standard_normal(2), "layer-bias")])
        op = NetOperator(dim=2, weight_names=("W0",), bias_names=("b0",), widths=(2, 2),
                         nonlinearity="tanh")
        loss = LossDescriptor("squared_error", 2, target=np.array([1.0, 0.5]))
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.2, K=5, u0=np.array([3.0, -4.0]))
        _, tape, _ = inner_loop(op, loss, om, cfg)
        _, explicit, _ = inner_loop(op, loss, om, replace(cfg, u0=None), u0=cfg.u0)
        np.testing.assert_array_equal(tape.uK, explicit.uK)
        np.testing.assert_array_equal(hypergradient(tape), hypergradient(explicit))
        assert tape.loss_value == evaluate_phiK(op, loss, om, cfg)
        np.testing.assert_allclose(fd_hypergradient(op, loss, om, cfg), hypergradient(tape),
                                   rtol=1e-6, atol=1e-9)

    def test_mu_boundary_rejected(self):
        op, om = identity_net(1)
        loss = LossDescriptor("squared_error", 1)
        for mu in (0.0, 1.0):
            with pytest.raises(ContractError):
                inner_loop(op, loss, om, BmoConfig(alpha=0.5, mu=mu, s=0.5, K=1))

    def test_step_bound_enforced(self):
        op, om = identity_net(2)
        loss = LossDescriptor("squared_error", 2, scale=2.0)
        # bound = lambda_min(I)/L = 0.5
        with pytest.raises(ContractError):
            inner_loop(op, loss, om, BmoConfig(alpha=0.5, mu=0.5, s=0.6, K=1))

    def test_divergence_reports_step(self):
        # an expansive "net" cannot be built (validation), so force blowup
        # through a huge initial point against the divergence limit
        op, om = identity_net(1)
        loss = LossDescriptor("squared_error", 1)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=3)
        with pytest.raises(DivergenceError) as exc:
            inner_loop(op, loss, om, cfg, u0=np.array([1e13]))
        assert exc.value.inner_step == 1

    def test_tape_replay_bit_exact(self, rng):
        Q = rng.standard_normal((3, 5))
        Q /= np.linalg.norm(Q, axis=0)
        op = DladmmOperator(Q=Q, bvec=rng.standard_normal(3), beta="beta",
                            gamma="gamma", rho1="rho1", rho2="rho2",
                            kappa1="kappa1", kappa2="kappa2")
        om = make_hyperparams([("beta", 0.2, "penalty"), ("gamma", 1.0, "step-size"),
                               ("rho1", 1.3 * 0.2 * op.lipschitz_Q ** 2, "penalty"),
                               ("rho2", 0.25, "penalty"),
                               ("kappa1", 0.5, "threshold"), ("kappa2", 0.5, "threshold")])
        loss = LossDescriptor("feasibility", op.dim, Q=Q, bmat=op.bvec)
        bound = min_eigen_estimate(op.metric(om)) / loss.smoothness()
        cfg = BmoConfig(alpha=0.6, mu=0.4, s=0.5 * bound, K=12, u0=rng.standard_normal(op.dim))
        u, tape, _ = inner_loop(op, loss, om, cfg)
        replayed = replayed_iterates(tape)[-1]
        assert np.array_equal(u, replayed)

    def test_records_match_trajectory_contract(self, rng):
        op, om = scaling_net(2, 0.5)
        loss = LossDescriptor("squared_error", 2)
        cfg = BmoConfig(alpha=0.5, mu=0.3, s=0.4, K=8)
        u, _, recs = inner_loop(op, loss, om, cfg, u0=np.ones(2))
        assert [r.k for r in recs] == list(range(1, 9))
        assert all(np.isfinite([r.residual_hlb_sq, r.rel_step, r.loss]).all()
                   for r in recs)

    def test_step_size_safety(self, rng):
        # I - s_k H^{-1} grad l is non-expansive in |.|_H for s_k in range
        g = rng.uniform(0.5, 2.0, 4)
        H = MetricMatrix.diagonal(g)
        loss = LossDescriptor("squared_error", 4, scale=1.5)
        s_max = min_eigen_estimate(H) / loss.smoothness()
        for s_k in (0.25 * s_max, 0.9 * s_max):
            for _ in range(1000):
                u1 = rng.standard_normal(4) * 3
                u2 = rng.standard_normal(4) * 3
                f1 = u1 - s_k * H.solve(loss.grad_u(u1))
                f2 = u2 - s_k * H.solve(loss.grad_u(u2))
                assert h_norm(H, f1 - f2) <= h_norm(H, u1 - u2) + 1e-12

    def test_inner_step_bound_inequality(self, rng):
        # |u^{k+1}-u^k|^2 <= |u^k-u^{k-1}|^2 + mu/(k+1)^2 |u^{k-1}-v_u^k|^2
        #                    + 2 mu s D M / (lambda_min k (k+1))  on a box
        dim = 3
        op, om = scaling_net(dim, 0.6)
        target = np.array([0.4, -0.2, 0.1])
        loss = LossDescriptor("squared_error", dim, target=target)
        lo, hi = -np.ones(dim), np.ones(dim)
        domain = OmegaBox(lo, hi)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.9, K=40, domain=domain,
                        u0=np.array([0.9, -0.9, 0.5]))
        u, tape, _ = inner_loop(op, loss, om, cfg)
        H = tape.metric
        lam = min_eigen_estimate(H)
        D = 2.0 * np.sqrt(dim)  # box diameter in the identity metric
        M = np.linalg.norm(np.maximum(np.abs(lo - target), np.abs(hi - target)))
        # the tape keeps H^{-1} grad l(u^{k-1}) of each step k, and replaying
        # it gives u^k; v_u^k = u^{k-1} - s_k H^{-1} grad l
        steps = tape.steps
        us = replayed_iterates(tape)
        u_next = us[1:]
        v_u = [u - cfg.s / (k + 1) * st.hinv_grad
               for k, (u, st) in enumerate(zip(us, steps), start=1)]
        for k in range(2, cfg.K - 1):
            lhs = h_norm(H, u_next[k] - u_next[k - 1]) ** 2
            rhs = (h_norm(H, u_next[k - 1] - us[k - 1]) ** 2
                   + cfg.mu / (k + 1) ** 2 * h_norm(H, us[k - 1] - v_u[k - 1]) ** 2
                   + 2 * cfg.mu * cfg.s * D * M / (lam * k * (k + 1)))
            assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# hypergradient
# ---------------------------------------------------------------------------

def one_step_toy(omega_val):
    op = NetOperator(dim=1, weight_names=("W0",), bias_names=("b0",),
                     widths=(1, 1), rho_bar=0.9)
    om = make_hyperparams([("W0", np.array([[omega_val]]), "layer-matrix"),
                           ("b0", np.zeros(1), "layer-bias")])
    loss = LossDescriptor("squared_error", 1, target=np.ones(1), scale=2.0)
    cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.25, K=1)
    return op, om, loss, cfg


class TestHypergradient:
    def test_k_zero_direct_term_only(self, rng):
        op, om = identity_net(2)
        loss = LossDescriptor("squared_error", 2)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=0)
        _, tape, _ = inner_loop(op, loss, om, cfg, u0=rng.standard_normal(2))
        np.testing.assert_array_equal(hypergradient(tape), np.zeros(om.dim))

    def test_one_step_hand_derivation(self):
        # u1 = 1 + 0.25 (w + b - 1), phi = (u1-1)^2:
        # dphi/dw = dphi/db = 0.125 (w + b - 1) at b = 0
        w = 0.4
        op, om, loss, cfg = one_step_toy(w)
        _, tape, _ = inner_loop(op, loss, om, cfg, u0=np.ones(1))
        g = hypergradient(tape)
        assert g[0] == pytest.approx(0.125 * (w - 1.0), rel=1e-12)
        assert g[1] == pytest.approx(0.125 * (w - 1.0), rel=1e-12)

    def test_matches_fd_on_dladmm(self, rng):
        Q = rng.standard_normal((3, 4))
        Q /= np.linalg.norm(Q, axis=0)
        op = DladmmOperator(Q=Q, bvec=rng.standard_normal(3), beta="beta",
                            gamma="gamma", rho1="rho1", rho2="rho2",
                            kappa1="kappa1", kappa2="kappa2")
        om = make_hyperparams([("beta", 0.3, "penalty"), ("gamma", 0.9, "step-size"),
                               ("rho1", 1.4 * 0.3 * op.lipschitz_Q ** 2, "penalty"),
                               ("rho2", 0.4, "penalty"),
                               ("kappa1", 0.2, "threshold"), ("kappa2", 0.3, "threshold")])
        loss = LossDescriptor("feasibility", op.dim, Q=Q, bmat=op.bvec)
        bound = min_eigen_estimate(op.metric(om)) / loss.smoothness()
        cfg = BmoConfig(alpha=0.6, mu=0.4, s=0.5 * bound, K=6)
        u0 = rng.standard_normal(op.dim)
        _, tape, _ = inner_loop(op, loss, om, cfg, u0=u0)
        g = hypergradient(tape)
        g_fd = fd_hypergradient(op, loss, om, cfg, u0=u0)
        np.testing.assert_allclose(g, g_fd, rtol=2e-5, atol=1e-9)

    def test_twenty_random_smooth_instances(self, rng):
        # n <= 10, dim omega <= 10, K <= 20: max rel err <= 1e-4
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(2, 6))
            W = rng.standard_normal((n, n))
            W *= rng.uniform(0.3, 0.9) / np.linalg.svd(W, compute_uv=False)[0]
            om = make_hyperparams([("W0", W, "layer-matrix"),
                                   ("b0", rng.standard_normal(n) * 0.3, "layer-bias")])
            op = NetOperator(dim=n, weight_names=("W0",), bias_names=("b0",),
                             widths=(n, n), nonlinearity="tanh")
            loss = LossDescriptor("squared_error", n, target=rng.standard_normal(n))
            cfg = BmoConfig(alpha=float(rng.uniform(0.2, 0.8)),
                            mu=float(rng.uniform(0.2, 0.8)),
                            s=float(rng.uniform(0.2, 0.9)),
                            K=int(rng.integers(1, 21)))
            u0 = rng.standard_normal(n)
            _, tape, _ = inner_loop(op, loss, om, cfg, u0=u0)
            g = hypergradient(tape)
            g_fd = fd_hypergradient(op, loss, om, cfg, u0=u0)
            denom = max(float(np.max(np.abs(g_fd))), 1e-6)
            worst = max(worst, float(np.max(np.abs(g - g_fd))) / denom)
        assert worst <= 1e-4

    def test_mutation_detected(self, rng):
        op, om, loss, cfg = one_step_toy(0.4)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.25, K=10)
        u0 = np.array([0.3])
        _, tape, _ = inner_loop(op, loss, om, cfg, u0=u0)
        good = hypergradient(tape)
        bad = hypergradient(tape, corrupt_rule=True)
        g_fd = fd_hypergradient(op, loss, om, cfg, u0=u0)
        rel_good = np.max(np.abs(good - g_fd)) / max(np.max(np.abs(g_fd)), 1e-12)
        rel_bad = np.max(np.abs(bad - g_fd)) / max(np.max(np.abs(g_fd)), 1e-12)
        assert rel_good <= 1e-5
        assert rel_bad > 1e-2

    def test_metric_flow_matches_fd(self, rng):
        # PG with a learnable metric diagonal: the descent direction
        # H(omega)^{-1} grad couples omega, and the sweep follows it
        g = rng.uniform(1.0, 2.0, 3)
        om = make_hyperparams([("g", g, "metric-diagonal")])
        op = PgOperator(dim=3, quad=0.5 * np.eye(3), gamma=0.4, gdiag="g")
        loss = LossDescriptor("squared_error", 3, target=np.array([1.0, -1.0, 0.5]))
        bound = min_eigen_estimate(op.metric(om)) / loss.smoothness()
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5 * bound, K=5)
        u0 = rng.standard_normal(3)
        _, tape, _ = inner_loop(op, loss, om, cfg, u0=u0)
        g_on = hypergradient(tape)
        g_fd = fd_hypergradient(op, loss, om, cfg, u0=u0)
        np.testing.assert_allclose(g_on, g_fd, rtol=1e-5, atol=1e-10)

    def test_fd_exact_on_quadratic_phi(self):
        # at K = 1 phi is quadratic in omega -> central differences are exact
        op = NetOperator(dim=1, weight_names=("W0",), bias_names=("b0",),
                         widths=(1, 1))
        om = make_hyperparams([("W0", np.array([[0.5]]), "layer-matrix"),
                               ("b0", np.array([0.2]), "layer-bias")])
        loss = LossDescriptor("squared_error", 1, target=np.ones(1))
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=1)
        u0 = np.array([1.0])
        g_fd = fd_hypergradient(op, loss, om, cfg, u0=u0)
        _, tape, _ = inner_loop(op, loss, om, cfg, u0=u0)
        g = hypergradient(tape)
        np.testing.assert_allclose(g_fd, g, rtol=1e-9, atol=1e-9)

    def test_box_projection_derivative(self, rng):
        op, om = scaling_net(2, 0.5)
        loss = LossDescriptor("squared_error", 2, target=np.array([2.0, 2.0]))
        domain = OmegaBox(-np.ones(2), np.ones(2))
        bound = 1.0 / loss.smoothness()
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.9 * bound, K=6, domain=domain)
        u0 = np.array([0.2, 1.6])
        _, tape, _ = inner_loop(op, loss, om, cfg, u0=u0)
        g = hypergradient(tape)
        g_fd = fd_hypergradient(op, loss, om, cfg, u0=u0)
        np.testing.assert_allclose(g, g_fd, rtol=1e-4, atol=1e-8)

    def test_batched_box_acts_per_coordinate(self, rng):
        # with B == dim a (dim,) bound would also broadcast along the batch axis
        dim = 3
        op, om = scaling_net(dim, 0.5)
        loss = LossDescriptor("squared_error", dim, target=np.array([2.0, -2.0, 0.3]))
        lo, hi = np.array([-1.0, -0.2, -3.0]), np.array([0.4, 1.0, 3.0])
        domain = OmegaBox(lo, hi)
        X = rng.uniform(-2.0, 2.0, (dim, dim))
        want = np.clip(X, lo[:, None], hi[:, None])
        assert not np.array_equal(want, np.clip(X, lo, hi))
        np.testing.assert_array_equal(domain.clamp(X), want)
        np.testing.assert_array_equal(domain.interior(X),
                                      ((X > lo[:, None]) & (X < hi[:, None])).astype(float))
        assert domain.contains(domain.clamp(X)) and not domain.contains(X)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.9 / loss.smoothness(), K=6, domain=domain)
        u0 = rng.uniform(-0.5, 0.5, (dim, dim))
        uK, tape, _ = inner_loop(op, loss, om, cfg, u0=u0)
        assert domain.contains(uK) and not np.all(domain.interior(uK))
        g_fd = fd_hypergradient(op, loss, om, cfg, u0=u0)
        np.testing.assert_allclose(hypergradient(tape), g_fd, rtol=1e-4, atol=1e-8)

    def test_loss_free_tape_refused_before_first_apply(self, monkeypatch):
        op, om = scaling_net(2, 0.5)
        calls = []
        forward = op.forward
        monkeypatch.setattr(op, "forward", lambda *a: calls.append(1) or forward(*a))
        with pytest.raises(ContractError, match="without a loss"):
            inner_loop(op, None, om, BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=3),
                       u0=np.ones(2), build_tape=True)
        assert calls == []


class TestKmIterate:
    def test_plain_km_init_dependent(self, rng):
        # projection onto span{(1,1)}: KM limit depends on the start
        W = 0.5 * np.ones((2, 2))
        om = make_hyperparams([("W0", W, "layer-matrix"), ("b0", np.zeros(2), "layer-bias")])
        op = NetOperator(dim=2, weight_names=("W0",), bias_names=("b0",), widths=(2, 2))
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.1, K=1)
        u1, _ = km_iterate(op, om, cfg, np.array([0.0, -1.0]), 200)
        u2, _ = km_iterate(op, om, cfg, np.array([4.0, 0.0]), 200)
        np.testing.assert_allclose(u1, [-0.5, -0.5], atol=1e-10)
        np.testing.assert_allclose(u2, [2.0, 2.0], atol=1e-10)

    def test_projects_onto_the_domain(self):
        # km_iterate is inner_loop without a loss, so it keeps to cfg.domain
        op, om = scaling_net(2, 0.5)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.1, K=1,
                        domain=OmegaBox(-np.ones(2), np.ones(2)))
        u0 = np.array([4.0, -3.0])
        want = u0
        for _ in range(3):
            want = np.clip(apply_T(op, want, om, cfg), -1.0, 1.0)
        np.testing.assert_array_equal(km_iterate(op, om, cfg, u0, 3)[0], want)


# ---------------------------------------------------------------------------
# tape residuals
# ---------------------------------------------------------------------------

TASKS = ["sparse_coding", "deconv", "separation"]   # DLADMM, PG + net, ALM


def task_tape(task):
    """The tape of 3 inner steps on a small bundle of ``task``."""
    if task == "sparse_coding":
        bundle = build_sparse_coding_operator(gen_sparse_coding(m=8, n=16, batch=3, seed=4))
    elif task == "deconv":
        bundle = build_deconv_operator(gen_deconv(n=16, seed=4), net_widths=(8,))
    else:
        bundle = build_separation_operator(gen_separation(n=12, seed=4))
    bound = min_eigen_estimate(bundle.op.metric(bundle.omega0)) / bundle.loss.smoothness()
    cfg = BmoConfig(alpha=0.6, mu=0.4, s=0.5 * bound, K=3, u0=bundle.u0)
    return inner_loop(bundle.op, bundle.loss, bundle.omega0, cfg)[1]


def box_tape(case, rng):
    """The box-domain tapes of TestHypergradient, whose clamps are active."""
    if case == "clamped":
        op, om = scaling_net(2, 0.5)
        loss = LossDescriptor("squared_error", 2, target=np.array([2.0, 2.0]))
        domain = OmegaBox(-np.ones(2), np.ones(2))
        u0 = np.array([0.2, 1.6])
    else:
        op, om = scaling_net(3, 0.5)
        loss = LossDescriptor("squared_error", 3, target=np.array([2.0, -2.0, 0.3]))
        domain = OmegaBox(np.array([-1.0, -0.2, -3.0]), np.array([0.4, 1.0, 3.0]))
        u0 = rng.uniform(-0.5, 0.5, (3, 3))
    cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.9 / loss.smoothness(), K=6, domain=domain, u0=u0)
    return inner_loop(op, loss, om, cfg)[1]


def recomputed_sweep(tape, per_step=False):
    """The reverse sweep as it ran on u^{k-1} in place of residuals.

    Each step's iterate is replayed from u0 and its forward pass runs
    again, and the box mask is the float interior of u^k.  The rules add
    into one OmegaGrad, reduced once, as the sweep's do; with
    ``per_step`` each VJP adds into an OmegaGrad of its own, reduced at
    once, so a layer's gradient is the sum of each step's da z^T.
    """
    op, loss, om, cfg, H = tape.op, tape.loss, tape.omega, tape.cfg, tape.metric
    us = replayed_iterates(tape)
    cu = loss.grad_u(tape.uK)
    go = OmegaGrad(np.zeros(om.dim))
    for k in range(len(tape.steps), 0, -1):
        st, s_k = tape.steps[k - 1], cfg.s / (k + 1)
        if cfg.domain is not None:
            cu = cfg.domain.interior(us[k]).astype(float) * cu
        cvu = cfg.mu * cu
        cvl = (1.0 - cfg.mu) * cu
        step = OmegaGrad(np.zeros(om.dim)) if per_step else go
        cs = op.apply_vjp(op.forward(us[k - 1], om)[1], cfg.alpha * cvl, step)
        if per_step:
            go.values += step.reduce()
        cu = (1.0 - cfg.alpha) * cvl + cs
        hv = H.solve(cvu)
        cu = cu + cvu - s_k * loss.hess_vec(hv)
        op.metric_quad_vjp(om, hv, st.hinv_grad, go, s_k)
    return go.reduce()


def arrays_in(res):
    """Every ndarray a residual holds, through its tuples, lists and dicts."""
    if isinstance(res, np.ndarray):
        return [res]
    if isinstance(res, dict):
        res = list(res.values())
    if isinstance(res, (tuple, list)):
        return [a for r in res for a in arrays_in(r)]
    return []


class TestTapeResiduals:
    @pytest.mark.parametrize("task", TASKS)
    def test_sweep_runs_no_forward(self, task, monkeypatch):
        tape = task_tape(task)
        want = hypergradient(tape)
        for m in getattr(tape.op, "members", ()) + (tape.op,):
            for name in ("forward", "apply"):
                monkeypatch.setattr(m, name, lambda *a, _n=name:
                                    pytest.fail(f"the reverse sweep ran {_n}"))
        np.testing.assert_array_equal(hypergradient(tape), want)

    @pytest.mark.parametrize("task", TASKS)
    def test_sweep_bit_identical_to_recomputed_forward(self, task):
        tape = task_tape(task)
        np.testing.assert_array_equal(hypergradient(tape), recomputed_sweep(tape))

    @pytest.mark.parametrize("case", ["clamped", "batched"])
    def test_box_sweep_bit_identical_to_recomputed_forward(self, case, rng):
        tape = box_tape(case, rng)
        assert all(st.interior.dtype == bool for st in tape.steps)
        assert not all(st.interior.all() for st in tape.steps)   # the clamp is active
        np.testing.assert_array_equal(hypergradient(tape), recomputed_sweep(tape))

    @pytest.mark.parametrize("task", ["sparse_coding", "separation"])
    def test_residuals_hold_no_view_of_the_state(self, task):
        # a view of one block would keep the whole iterate alive on the tape
        tape = task_tape(task)
        for u, st in zip(replayed_iterates(tape), tape.steps):
            assert not any(np.shares_memory(a, u) for a in arrays_in(st.res))


class _CountingQ(np.ndarray):
    """A Q that counts the np.matmul calls it takes part in; results are plain arrays."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingQ.calls += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _CountingQ) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def sparse_coding_case(rng, counted=False):
    """A small batched sparse-coding bundle, a config of 3 steps from a random u0,
    and, with ``counted``, the Q of its operator and loss counting their products."""
    bundle = build_sparse_coding_operator(gen_sparse_coding(m=8, n=16, batch=3, seed=4))
    if counted:
        # the constructors' np.asarray would strip the subclass, so it is set after them
        bundle.op.Q = bundle.op.Q.view(_CountingQ)
        bundle.loss.Q = bundle.loss.Q.view(_CountingQ)
    bound = min_eigen_estimate(bundle.op.metric(bundle.omega0)) / bundle.loss.smoothness()
    cfg = BmoConfig(alpha=0.6, mu=0.4, s=0.5 * bound, K=3, u0=rng.standard_normal((bundle.op.dim, 3)))
    return bundle, cfg


class TestQProducts:
    """Each product with Q is formed once per step.

    A recorded inner step makes 5: the DLADMM forward's Q u1, Q^T r and
    Q v1, and the loss gradient's Q u1 and Q^T z (the record's loss comes
    from that gradient's residual).  A sweep step makes 7: the VJP's one
    Q^T product for both paths from v1, Q dx1 and Q^T dr, the loss
    Hessian's two, and the metric term's Q x1 and Q y1.
    """

    def counts(self, bundle, cfg, K):
        _CountingQ.calls = 0
        tape = inner_loop(bundle.op, bundle.loss, bundle.omega0, replace(cfg, K=K))[1]
        inner, _CountingQ.calls = _CountingQ.calls, 0
        hypergradient(tape)
        return inner, _CountingQ.calls

    def test_products_per_recorded_inner_step_and_per_sweep_step(self, rng):
        bundle, cfg = sparse_coding_case(rng, counted=True)
        (inner3, sweep3), (inner4, sweep4) = (self.counts(bundle, cfg, K) for K in (3, 4))
        assert (inner4 - inner3, sweep4 - sweep3) == (5, 7)


class TestTaskSizeLayerGradient:
    """The deconv bundle at task size: n = 64, one 64-wide tanh net, K = 15.

    The layers sit at 0.9 of their budget, so a small step along a layer
    direction keeps the certificate.
    """

    @pytest.fixture(scope="class")
    def case(self):
        bundle = build_deconv_operator(gen_deconv(n=64, seed=5), net_widths=(64,), seed=6)
        net = bundle.op.members[1]
        assert net.nonlinearity == "tanh" and net.widths == (64, 64, 64)
        om = bundle.omega0
        for name in net.weight_names:
            W = om.view(name)
            om = om.replace_slice(name, W * (0.9 * net.budget / spectral_norm_estimate(W)))
        cfg = bmo_config(ExperimentConfig({"task": "deconv"}), bundle, K=15)
        tape = inner_loop(bundle.op, bundle.loss, om, cfg, record=False)[1]
        return bundle, net, om, cfg, tape

    def test_sweep_layer_gradient_is_the_sum_of_step_outer_products(self, case):
        _, net, om, _, tape = case
        got, want = hypergradient(tape), recomputed_sweep(tape, per_step=True)
        for name in net.weight_names:
            s = om.slice_for(name)
            dW, ref = got[s.offset:s.offset + s.size], want[s.offset:s.offset + s.size]
            assert np.any(ref != 0)
            np.testing.assert_allclose(dW, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_layer_directions_match_central_differences(self, case):
        bundle, net, om, cfg, tape = case
        grad = hypergradient(tape)
        rng = np.random.default_rng(2024)
        names = net.weight_names + net.bias_names
        h = 1e-6
        for _ in range(3):
            d = np.zeros(om.dim)
            for name in names:
                s = om.slice_for(name)
                d[s.offset:s.offset + s.size] = rng.standard_normal(s.size)
            d /= np.linalg.norm(d)
            phi = [evaluate_phiK(bundle.op, bundle.loss, om.with_values(om.values + sgn * h * d),
                                 cfg) for sgn in (1.0, -1.0)]
            fd = (phi[0] - phi[1]) / (2 * h)
            analytic = float(grad @ d)
            assert abs(fd - analytic) <= 1e-6 * max(abs(fd), abs(analytic)), (fd, analytic)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def dladmm_case(rng, batch=None):
    Q = rng.standard_normal((3, 5))
    Q /= np.linalg.norm(Q, axis=0)
    b = rng.standard_normal(3 if batch is None else (3, batch))
    op = DladmmOperator(Q=Q, bvec=b, beta="beta", gamma="gamma", rho1="rho1", rho2="rho2",
                        kappa1="kappa1", kappa2="kappa2")
    om = make_hyperparams([("beta", 0.2, "penalty"), ("gamma", 1.0, "step-size"),
                           ("rho1", 1.3 * 0.2 * op.lipschitz_Q ** 2, "penalty"),
                           ("rho2", 0.25, "penalty"),
                           ("kappa1", 0.5, "threshold"), ("kappa2", 0.5, "threshold")])
    loss = LossDescriptor("feasibility", op.dim, Q=Q, bmat=b)
    bound = min_eigen_estimate(op.metric(om)) / loss.smoothness()
    u0 = rng.standard_normal(op.dim if batch is None else (op.dim, batch))
    return op, om, loss, bound, u0


def per_step_records(op, omega, cfg, hlb, loss, iterates):
    """(k, residual, rel_step, loss) of iterates u^1..u^K, each computed on its own."""
    out = []
    for k in range(1, len(iterates)):
        u, prev = iterates[k], iterates[k - 1]
        denom = float(np.linalg.norm(prev)) or 1.0
        out.append((k, h_norm(hlb, u - apply_T(op, u, omega, cfg)) ** 2,
                    float(np.linalg.norm(u - prev)) / denom,
                    loss.value(u) if loss is not None else math.nan))
    return out


def as_rows(records):
    return [(r.k, r.residual_hlb_sq, r.rel_step, r.loss) for r in records]


def assert_records_close(got, want):
    assert [r[0] for r in got] == [r[0] for r in want]
    np.testing.assert_allclose(np.array(got)[:, 1:], np.array(want)[:, 1:], rtol=1e-12, atol=0)


class _Injecting:
    """An operator whose n-th forward puts ``value`` into the first coordinate."""

    def __init__(self, op, n, value):
        self.op, self.n, self.value, self.calls = op, n, value, 0

    def __getattr__(self, name):
        return getattr(self.op, name)

    def forward(self, state, omega):
        out, res = self.op.forward(state, omega)
        self.calls += 1
        if self.calls == self.n:
            out = out.copy()
            out[0] = self.value
        return out, res


class TestChunkedRecords:
    """Records of 1-D iterates are reduced RECORD_CHUNK at a time."""

    @pytest.mark.parametrize("K", [1, 2, 63, 64, 65, 130])
    def test_inner_loop_matches_per_step(self, K, rng):
        op, om, loss, bound, u0 = dladmm_case(rng)
        cfg = BmoConfig(alpha=0.6, mu=0.4, s=0.5 * bound, K=K, u0=u0)
        u, tape, recs = inner_loop(op, loss, om, cfg)
        iterates = replayed_iterates(tape)
        want = per_step_records(op, om, cfg, op.metric(om), loss, iterates)
        assert len(recs) == K
        assert_records_close(as_rows(recs), want)

    @pytest.mark.parametrize("K", [1, 2, 63, 64, 65, 130])
    def test_km_iterate_matches_per_step(self, K, rng):
        op, om, _, _, u0 = dladmm_case(rng)
        cfg = BmoConfig(alpha=0.6, mu=0.4, s=0.1, K=1)
        hlb = MetricMatrix.diagonal(rng.uniform(0.5, 2.0, op.dim))
        u, recs = km_iterate(op, om, cfg, u0, K, h_lb=hlb)
        iterates = [u0]
        for _ in range(K):
            iterates.append(apply_T(op, iterates[-1], om, cfg))
        np.testing.assert_array_equal(u, iterates[-1])
        assert len(recs) == K and all(math.isnan(r.loss) for r in recs)
        assert_records_close(as_rows(recs), per_step_records(op, om, cfg, hlb, None, iterates))

    def test_batched_records_bit_identical_to_per_step(self, rng):
        op, om, loss, bound, u0 = dladmm_case(rng, batch=4)
        cfg = BmoConfig(alpha=0.6, mu=0.4, s=0.5 * bound, K=70, u0=u0)
        u, tape, recs = inner_loop(op, loss, om, cfg)
        iterates = replayed_iterates(tape)
        assert as_rows(recs) == per_step_records(op, om, cfg, op.metric(om), loss, iterates)

    def test_batched_sparse_coding_record_losses_are_loss_values(self, rng):
        # a batched record takes its loss from the next step's gradient residual
        bundle, cfg = sparse_coding_case(rng)
        _, tape, recs = inner_loop(bundle.op, bundle.loss, bundle.omega0, replace(cfg, K=6))
        iterates = replayed_iterates(tape)
        assert [r.loss for r in recs] == [bundle.loss.value(u) for u in iterates[1:]]
        assert recs[-1].loss == tape.loss_value

    @pytest.mark.parametrize("batch, K, calls", [(None, 130, 3), (None, 64, 1), (4, 5, 5)])
    def test_one_metric_product_per_chunk(self, batch, K, calls, rng, monkeypatch):
        op, om, loss, bound, u0 = dladmm_case(rng, batch)
        seen = []

        def counting_h_norm(H, u, columns=False):
            seen.append(u.shape)
            return h_norm(H, u, columns)

        monkeypatch.setattr(hypergrad, "h_norm", counting_h_norm)
        inner_loop(op, loss, om, BmoConfig(alpha=0.6, mu=0.4, s=0.5 * bound, K=K), u0=u0)
        assert len(seen) == calls
        assert max(shape[-1] for shape in seen) <= hypergrad.RECORD_CHUNK

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e13])
    @pytest.mark.parametrize("run", ["inner_loop", "km_iterate"])
    def test_divergence_mid_chunk_reports_its_step(self, run, value):
        net, om = scaling_net(3, 0.5)
        op = _Injecting(net, 40, value)
        cfg = BmoConfig(alpha=0.5, mu=0.3, s=0.4, K=100)
        with pytest.raises(DivergenceError, match="diverged at k=40") as exc:
            if run == "inner_loop":
                inner_loop(op, LossDescriptor("squared_error", 3), om, cfg, u0=np.ones(3))
            else:
                km_iterate(op, om, cfg, np.ones(3), 100)
        assert exc.value.inner_step == 40

    def test_large_finite_iterate_below_limit_kept(self):
        net, om = scaling_net(3, 0.5)
        cfg = BmoConfig(alpha=0.5, mu=0.3, s=0.4, K=100)
        _, recs = km_iterate(_Injecting(net, 40, 1e11), om, cfg, np.ones(3), 100)
        assert len(recs) == 100
