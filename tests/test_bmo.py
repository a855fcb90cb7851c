import weakref

import numpy as np
import pytest

import gkmbmo
from gkmbmo import bmo
from gkmbmo.bmo import (BmoConfig, Trajectory, envelope_shape, evaluate_phiK,
                        residual_envelope_check, stationarity_probe, train)
from gkmbmo.errors import ContractError, DivergenceError
from gkmbmo.hypergrad import LossDescriptor, inner_loop, km_iterate
from gkmbmo.operators import (DladmmOperator, NetOperator, OmegaBox,
                              make_hyperparams)


def shift_net_toy(bias=0.0, w=0.5):
    """D(u) = w u + b with w pinned: fixed point u* = b / (1 - w)."""
    op = NetOperator(dim=1, weight_names=("W0",), bias_names=("b0",),
                     widths=(1, 1), rho_bar=0.9)
    om = make_hyperparams([("W0", np.array([[w]]), "layer-matrix"),
                           ("b0", np.array([bias]), "layer-bias")])
    bounds = OmegaBox(np.array([w, -10.0]), np.array([w, 10.0]))
    return op, om, bounds


def subspace_projection_op():
    """D = orthogonal projection onto span{(1,1)} in R^2."""
    op = NetOperator(dim=2, weight_names=("W0",), bias_names=("b0",),
                     widths=(2, 2))
    om = make_hyperparams([("W0", 0.5 * np.ones((2, 2)), "layer-matrix"),
                           ("b0", np.zeros(2), "layer-bias")])
    return op, om


def small_dladmm(rng, m=3, n=5, batch=None):
    Q = rng.standard_normal((m, n))
    Q /= np.linalg.norm(Q, axis=0)
    b = rng.standard_normal(m) if batch is None else rng.standard_normal((m, batch))
    op = DladmmOperator(Q=Q, bvec=b, beta="beta", gamma="gamma", rho1="rho1",
                        rho2="rho2", kappa1="kappa1", kappa2="kappa2")
    L2 = op.lipschitz_Q ** 2
    beta_ub = 0.25
    om = make_hyperparams([("beta", 0.2, "penalty"), ("gamma", 1.0, "step-size"),
                           ("rho1", 1.05 * beta_ub * L2, "penalty"),
                           ("rho2", 0.3, "penalty"),
                           ("kappa1", 0.4, "threshold"), ("kappa2", 0.4, "threshold")])
    loss = LossDescriptor("feasibility", op.dim, Q=Q, bmat=b)
    # box keeps every clamped omega inside the certified domain
    bounds = OmegaBox(
        np.array([0.1, 0.5, 1.05 * beta_ub * L2, beta_ub, 0.05, 0.05]),
        np.array([beta_ub, 1.0, 4.0 * beta_ub * L2, 1.0, 2.0, 2.0]))
    return op, om, loss, bounds


class TestTrain:
    def test_t_zero_returns_omega0(self, rng):
        op, om, loss, bounds = small_dladmm(rng)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.01, K=4, T=0,
                        omega_bounds=bounds)
        report = train(op, loss, om, cfg)
        np.testing.assert_array_equal(report.omega_final.values, om.values)

    def test_zero_lr_constant_phi(self, rng):
        op, om, loss, bounds = small_dladmm(rng)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.0, K=4, T=5,
                        omega_bounds=bounds)
        report = train(op, loss, om, cfg)
        phis = [row[1] for row in report.trajectory.outer]
        assert len(set(phis)) == 1
        np.testing.assert_array_equal(report.omega_final.values, om.values)

    def test_quadratic_toy_convergence(self):
        # stationarity of phi(b) = (2b - 1)^2 at b* = 0.5 via plain descent
        op, om, bounds = shift_net_toy(bias=0.0)
        loss = LossDescriptor("squared_error", 1, target=np.ones(1), scale=2.0)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.2, gamma=0.05, K=60, T=200,
                        omega_bounds=bounds, record_inner=False)
        report = train(op, loss, om, cfg)
        assert report.omega_final.values[1] == pytest.approx(0.5, abs=1e-3)

    def test_omega_containment(self, rng):
        op, om, loss, bounds = small_dladmm(rng)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.5, K=4, T=10,
                        omega_bounds=bounds)
        omega = om
        report = train(op, loss, omega, cfg)
        assert bounds.contains(report.omega_final.values)

    def test_out_of_bounds_omega0_rejected(self, rng):
        op, om, loss, bounds = small_dladmm(rng)
        bad = om.with_values(om.values * 10.0)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.1, K=2, T=1,
                        omega_bounds=bounds)
        with pytest.raises(ContractError):
            train(op, loss, bad, cfg)

    def test_determinism_bit_identical_csv(self, rng, tmp_path):
        for run in (0, 1):
            op, om, loss, bounds = small_dladmm(np.random.default_rng(7))
            cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.05, K=6, T=6,
                            omega_bounds=bounds, seed=7)
            report = train(op, loss, om, cfg)
            report.trajectory.to_csv(tmp_path / f"traj{run}.csv")
        b0 = (tmp_path / "traj0.csv").read_bytes()
        b1 = (tmp_path / "traj1.csv").read_bytes()
        assert b0 == b1

    def test_each_tape_dies_before_the_next_inner_loop(self, rng, monkeypatch):
        op, om, loss, bounds = small_dladmm(rng)
        inner, tapes = bmo.inner_loop, []

        def tracking(*args, **kwargs):
            assert all(ref() is None for ref in tapes), "an earlier step's tape is alive"
            out = inner(*args, **kwargs)
            tapes.append(weakref.ref(out[1]))
            return out

        monkeypatch.setattr(bmo, "inner_loop", tracking)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.05, K=4, T=3,
                        omega_bounds=bounds)
        train(op, loss, om, cfg)
        assert len(tapes) == 3

    @pytest.mark.parametrize("field", ["alpha", "mu", "s", "gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scalar_rejected_by_name(self, field, value):
        with pytest.raises(ContractError, match=f"^{field} must be finite"):
            BmoConfig(**{field: value}).validate()

    def test_non_finite_hypergradient_diverges(self, monkeypatch):
        # a blown-up hypergradient is a divergence, not an omega refused on entry
        monkeypatch.setattr(bmo, "hypergradient", lambda tape: np.full(2, np.nan))
        op, om, bounds = shift_net_toy()
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.2, K=3, T=2, omega_bounds=bounds)
        with pytest.raises(DivergenceError, match="hypergradient diverged at outer step 0"):
            train(op, LossDescriptor("squared_error", 1), om, cfg)


class TestEvaluatePhiK:
    def test_k_zero_zero_loss(self):
        op, om, _ = shift_net_toy()
        loss = LossDescriptor("squared_error", 1)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.4, K=0)
        assert evaluate_phiK(op, loss, om, cfg) == 0.0

    def test_identity_toy_one_step(self):
        op = NetOperator(dim=1, weight_names=("W0",), bias_names=("b0",), widths=(1, 1))
        om = make_hyperparams([("W0", np.eye(1), "layer-matrix"),
                               ("b0", np.zeros(1), "layer-bias")])
        loss = LossDescriptor("squared_error", 1)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=1, u0=np.ones(1))
        assert evaluate_phiK(op, loss, om, cfg) == pytest.approx(0.5 * 0.875 ** 2)

    def test_equals_last_trajectory_loss(self):
        # a chunk of 1-D records is reduced column-wise, which can differ in
        # the last bit from loss.value; the K-th record must be phi_K itself
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, K=7)
        for seed in range(200):
            op, om, loss, _ = small_dladmm(np.random.default_rng(seed))
            _, tape, recs = inner_loop(op, loss, om, cfg)
            phi = evaluate_phiK(op, loss, om, cfg)
            assert recs[-1].loss == phi == tape.loss_value, seed


class TestEnvelope:
    def test_zero_residuals(self):
        res = [(k, 0.0) for k in range(1, 40)]
        c, viol = residual_envelope_check(res)
        assert c == 0.0 and viol == 0

    def test_geometric_decay_within_envelope(self):
        res = [(k, 0.8 ** k) for k in range(1, 200)]
        c, viol = residual_envelope_check(res)
        assert viol == 0

    def test_linear_growth_violates(self):
        res = [(k, float(k)) for k in range(1, 200)]
        c, viol = residual_envelope_check(res)
        assert viol > 0

    def test_too_few_records_rejected(self):
        with pytest.raises(ContractError):
            residual_envelope_check([(k, 0.1) for k in range(1, 10)])

    def test_contractive_toy_trajectory(self, rng):
        op, om, _ = shift_net_toy(bias=0.3)
        loss = LossDescriptor("squared_error", 1, target=np.ones(1))
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.5, K=300)
        _, _, recs = inner_loop(op, loss, om, cfg, u0=np.array([3.0]))
        c, viol = residual_envelope_check([(r.k, r.residual_hlb_sq) for r in recs])
        assert c > 0 and viol == 0


class TestStationarityProbe:
    def test_analytic_stationary_point(self):
        op, _, _ = shift_net_toy()
        omega_star = make_hyperparams([("W0", np.array([[0.5]]), "layer-matrix"),
                                       ("b0", np.array([0.5]), "layer-bias")])
        loss = LossDescriptor("squared_error", 1, target=np.ones(1))
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.2)
        out, proxy = stationarity_probe(op, loss, omega_star, cfg, [50, 100, 200])
        assert out[-1][1] <= 1e-6
        assert proxy[1] <= 1e-8

    def test_monotone_approach_to_longrun(self):
        op, om, _ = shift_net_toy(bias=0.2)
        loss = LossDescriptor("squared_error", 1, target=np.ones(1))
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.2)
        out, proxy = stationarity_probe(op, loss, om, cfg, [5, 10, 20, 40])
        gaps = [abs(g - proxy[1]) for (_, g) in out]
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))

    def test_noncontractive_rejected(self):
        op = NetOperator(dim=1, weight_names=("W0",), bias_names=("b0",), widths=(1, 1))
        om = make_hyperparams([("W0", np.eye(1), "layer-matrix"),
                               ("b0", np.zeros(1), "layer-bias")])
        loss = LossDescriptor("squared_error", 1)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.4)
        with pytest.raises(ContractError):
            stationarity_probe(op, loss, om, cfg, [5])

    def test_box_domain_rejected(self):
        # the probe's limit is the unconstrained fixed point, so any box is refused
        op, om, _ = shift_net_toy(bias=0.2)
        loss = LossDescriptor("squared_error", 1, target=np.ones(1))
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.2, domain=OmegaBox([-1.0], [1.0]))
        with pytest.raises(ContractError, match="unconstrained"):
            stationarity_probe(op, loss, om, cfg, [5])


class TestValueConvergence:
    def test_loss_approaches_phi(self):
        # contractive toy with analytic phi(omega) = l(u*(omega))
        bias, w = 0.3, 0.3
        op, om, _ = shift_net_toy(bias=bias, w=w)
        loss = LossDescriptor("squared_error", 1, target=np.ones(1))
        ustar = bias / (1 - w)
        phi = 0.5 * (ustar - 1.0) ** 2
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.1, K=2000)
        val = evaluate_phiK(op, loss, om, cfg)
        assert abs(val - phi) <= 1e-4

    def test_solution_selection_vs_plain_km(self):
        # inner loop (started at the loss target) lands on the constrained
        # argmin of the loss over Fix(T); plain KM lands on the projection
        # of its own initial point instead
        op, om = subspace_projection_op()
        loss = LossDescriptor("squared_error", 2, target=np.array([2.0, 0.0]),
                              scale=2.0)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.25, K=2000)
        u_sel, _, _ = inner_loop(op, loss, om, cfg, u0=np.array([2.0, 0.0]))
        np.testing.assert_allclose(u_sel, [1.0, 1.0], atol=1e-3)
        u_km, _ = km_iterate(op, om, cfg, np.array([0.0, -1.0]), 2000)
        assert np.linalg.norm(u_km - u_sel) >= 0.5

    def test_selection_drifts_toward_loss_optimum(self):
        # from a shared init the mu-path moves the iterate toward the
        # loss-optimal fixed point while plain KM stays at its projection
        op, om = subspace_projection_op()
        loss = LossDescriptor("squared_error", 2, target=np.array([2.0, 0.0]),
                              scale=2.0)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.25, K=2000)
        u0 = np.array([0.0, -1.0])
        u_sel, _, _ = inner_loop(op, loss, om, cfg, u0=u0)
        u_km, _ = km_iterate(op, om, cfg, u0, 2000)
        star = np.ones(2)
        assert np.linalg.norm(u_km - star) == pytest.approx(1.5 * np.sqrt(2), rel=1e-8)
        assert np.linalg.norm(u_sel - star) < 0.5 * np.linalg.norm(u_km - star)

    def test_gradient_uniformity(self, rng):
        # sup over sampled omega of |grad phi_K - grad phi_ref| shrinks as K doubles
        from gkmbmo.hypergrad import hypergradient

        op, _, _ = shift_net_toy()
        loss = LossDescriptor("squared_error", 1, target=np.ones(1))
        omegas = [make_hyperparams([("W0", np.array([[0.5]]), "layer-matrix"),
                                    ("b0", np.array([float(b)]), "layer-bias")])
                  for b in rng.uniform(-1, 1, 10)]
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=0.2)
        sups = []
        for K in (8, 16, 32, 64):
            worst = 0.0
            for om in omegas:
                from dataclasses import replace
                _, tape, _ = inner_loop(op, loss, om, replace(cfg, K=K))
                gK = hypergradient(tape)
                _, tape_ref, _ = inner_loop(op, loss, om, replace(cfg, K=640))
                gref = hypergradient(tape_ref)
                worst = max(worst, float(np.linalg.norm(gK - gref)))
            sups.append(worst)
        assert all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))


class TestTrajectoryExport:
    def test_csv_header_contract(self, tmp_path, rng):
        op, om, loss, bounds = small_dladmm(rng)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.01, K=4, T=2,
                        omega_bounds=bounds)
        report = train(op, loss, om, cfg)
        path = tmp_path / "trajectory.csv"
        report.trajectory.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "phase,t,k,residual_hlb_sq,rel_step,loss,grad_norm"
        assert all(line.split(",")[0] in ("inner", "outer") for line in lines[1:])

    def test_report_text(self, tmp_path, rng):
        op, om, loss, bounds = small_dladmm(rng)
        cfg = BmoConfig(alpha=0.5, mu=0.5, s=1e-3, gamma=0.01, K=4, T=2,
                        omega_bounds=bounds)
        report = train(op, loss, om, cfg)
        path = tmp_path / "report.txt"
        report.to_text(path)
        text = path.read_text()
        assert "final_phi" in text and "omega =" in text


def test_every_export_resolves():
    missing = [name for name in gkmbmo.__all__ if not hasattr(gkmbmo, name)]
    assert not missing
    assert len(set(gkmbmo.__all__)) == len(gkmbmo.__all__)
