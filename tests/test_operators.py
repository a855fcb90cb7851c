import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import checked_apply, fd_vjp_check, lipschitz_ratio
from gkmbmo import bmo, operators
from gkmbmo.bmo import BmoConfig
from gkmbmo.cli import ExperimentConfig, bmo_config
from gkmbmo.errors import CapabilityError, ContractError
from gkmbmo.hypergrad import km_iterate
from gkmbmo.metric import h_norm, spectral_norm_estimate
from gkmbmo.operators import (AlmOperator, CompositeOperator, DladmmOperator,
                              HyperParams, NetOperator, OmegaGrad, ParamSlice, PgOperator,
                              apply_T, contraction_factor, make_hyperparams, normalize_net,
                              renormalize_for, soft_threshold)
from gkmbmo.tasks import build_deconv_operator, gen_deconv


def empty_omega():
    return make_hyperparams([])


# ---------------------------------------------------------------------------
# hyper-parameter layout
# ---------------------------------------------------------------------------

class TestHyperParams:
    def test_layout_tiles_exactly(self):
        om = make_hyperparams([("a", 1.0, "step-size"), ("b", np.ones(3), "threshold")])
        assert om.dim == 4
        assert om.view("a").item() == 1.0
        np.testing.assert_array_equal(om.view("b"), np.ones(3))

    def test_gap_rejected(self):
        with pytest.raises(ContractError):
            HyperParams(np.zeros(3), (ParamSlice("a", 0, (1,), "threshold"),
                                      ParamSlice("b", 2, (1,), "threshold")))

    def test_overlap_rejected(self):
        with pytest.raises(ContractError):
            HyperParams(np.zeros(2), (ParamSlice("a", 0, (2,), "threshold"),
                                      ParamSlice("b", 1, (1,), "threshold")))

    def test_positive_roles_enforced(self):
        with pytest.raises(ContractError):
            make_hyperparams([("beta", 0.0, "penalty")])
        with pytest.raises(ContractError):
            make_hyperparams([("s", -1.0, "step-size")])
        with pytest.raises(ContractError, match="'g' \\(metric-diagonal\\) must be strictly"):
            make_hyperparams([("g", [1.0, -1.0], "metric-diagonal")])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_slice(self, bad):
        with pytest.raises(ContractError, match="slice 'b' holds a non-finite value"):
            make_hyperparams([("a", 1.0, "threshold"), ("b", [0.5, bad], "threshold")])
        om = make_hyperparams([("a", 1.0, "threshold"), ("b", [0.5, 0.5], "threshold")])
        with pytest.raises(ContractError, match="slice 'b' holds a non-finite value"):
            om.with_values([1.0, bad, 0.5])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContractError):
            HyperParams(np.ones(2), (ParamSlice("a", 0, (1,), "threshold"),
                                     ParamSlice("a", 1, (1,), "threshold")))

    def test_values_frozen(self):
        om = make_hyperparams([("a", 1.0, "threshold")])
        with pytest.raises(ValueError):
            om.values[0] = 2.0

    @pytest.mark.parametrize("shape, size", [((), 1), ((0,), 0), ((3, 4), 12)])
    def test_slice_size(self, shape, size):
        s = ParamSlice("a", 0, shape, "threshold")
        assert s.size == size
        assert isinstance(s.size, int)

    def test_slice_size_outside_equality(self):
        a, b = ParamSlice("a", 0, (3, 4), "threshold"), ParamSlice("a", 0, (3, 4), "threshold")
        assert a == b and hash(a) == hash(b)
        assert "size" not in repr(a)


# ---------------------------------------------------------------------------
# soft threshold
# ---------------------------------------------------------------------------

def float_rule(x, t, cot):
    """The soft-threshold VJP read off x and t: a float mask and sign(x)."""
    mask = (np.abs(x) > t).astype(float)
    return mask * cot, -np.sign(x) * mask * cot


class TestSoftThreshold:
    @pytest.mark.parametrize("thresholds", ["scalar", "zero", "per_row"])
    def test_survivor_sign_vjp_equals_the_float_rule(self, thresholds, rng):
        t = {"scalar": 0.5, "zero": 0.0, "per_row": rng.uniform(0.1, 1.0, (6, 1))}[thresholds]
        edge = np.broadcast_to(t, (6, 1))
        x = np.hstack([edge, -edge, np.zeros((6, 1)), np.nextafter(edge, np.inf),
                       rng.standard_normal((6, 40))])
        cot = rng.standard_normal(x.shape)
        sgn = operators._survivor_sign(soft_threshold(x, t))
        assert sgn.dtype == np.int8
        for got, want in zip(operators._soft_threshold_vjp(sgn, cot), float_rule(x, t, cot)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", ["scalar", "vector", "per_row", "batched_scalar"])
    def test_agrees_with_the_sign_form(self, case, rng):
        # x less its clip to [-t, t]: == the sign form, +0.0 where that gives -0.0
        x = {"scalar": rng.standard_normal(9), "vector": rng.standard_normal(9),
             "per_row": rng.standard_normal((9, 7)),
             "batched_scalar": rng.standard_normal((9, 7))}[case]
        t = {"scalar": 0.5, "vector": rng.uniform(0.0, 1.0, 9),
             "per_row": rng.uniform(0.0, 1.0, (9, 1)), "batched_scalar": 0.5}[case]
        edge = -np.broadcast_to(np.reshape(t, -1), (9,))[2]      # x = -t exactly
        x[:3] = np.reshape([0.0, -0.0, edge], (3,) + (1,) * (x.ndim - 1))
        got = soft_threshold(x, t)
        want = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
        assert got.shape == want.shape and np.all(got == want)
        assert not np.any(np.signbit(got[got == 0.0]))
        np.testing.assert_array_equal(operators._survivor_sign(got),
                                      np.sign(want).astype(np.int8))

    def test_python_scalars(self):
        assert soft_threshold(2.0, 0.5) == 1.5 and soft_threshold(-0.25, 0.5) == 0.0


# ---------------------------------------------------------------------------
# proximal gradient operator
# ---------------------------------------------------------------------------

class TestPg:
    def test_identity_prox(self, rng):
        op = PgOperator(dim=3)
        u = rng.standard_normal(3)
        np.testing.assert_allclose(checked_apply(op, u, empty_omega()), u)

    def test_gradient_step_closed_form(self):
        op = PgOperator(dim=2, quad=np.eye(2), gamma=0.5)
        out = checked_apply(op, np.array([1.0, 1.0]), empty_omega())
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_soft_threshold_closed_form(self):
        op = PgOperator(dim=2, l1_weights=np.ones(2), gamma=1.0)
        out = checked_apply(op, np.array([2.0, -0.5]), empty_omega())
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_metric_is_diagonal_g(self):
        om = make_hyperparams([("g", np.array([1.0, 2.0]), "metric-diagonal")])
        op = PgOperator(dim=2, gdiag="g")
        H = op.metric(om)
        assert H.is_diagonal
        np.testing.assert_allclose(H.tail, [1.0, 2.0])

    def test_step_bound_contract(self):
        op = PgOperator(dim=2, quad=np.eye(2), gamma=2.5)
        with pytest.raises(ContractError):
            checked_apply(op, np.zeros(2), empty_omega())

    def test_nonexpansive_in_own_metric(self, rng):
        g = rng.uniform(1.0, 2.0, 4)
        A = rng.standard_normal((4, 4))
        quad = A @ A.T / 4.0
        gam = 0.9 * 2.0 * float(np.min(g)) / spectral_norm_estimate(quad)
        om = make_hyperparams([("g", g, "metric-diagonal"),
                               ("gam", gam, "step-size"),
                               ("kap", 0.5, "threshold")])
        op = PgOperator(dim=4, quad=quad, lin=rng.standard_normal(4),
                        l1_weights=np.ones(4), gamma="gam", gdiag="g", thresh="kap")
        op.validate_omega(om)
        ratio = lipschitz_ratio(op, om, op.metric(om), 400, rng)
        assert ratio <= 1.0 + 1e-9

    def test_vjp_matches_fd(self, rng):
        om = make_hyperparams([("g", rng.uniform(1.0, 2.0, 4), "metric-diagonal"),
                               ("gam", 0.3, "step-size"),
                               ("kap", 0.3, "threshold")])
        A = rng.standard_normal((4, 4))
        op = PgOperator(dim=4, quad=A @ A.T / 4.0, lin=rng.standard_normal(4),
                        l1_weights=np.ones(4), gamma="gam", gdiag="g", thresh="kap")
        fd_vjp_check(op, rng.standard_normal(4) * 2.0, om, rng)

    def test_vjp_batched_consistent(self, rng):
        om = make_hyperparams([("gam", 0.7, "step-size")])
        op = PgOperator(dim=3, quad=np.eye(3) * 0.5, l1_weights=np.ones(3),
                        gamma="gam")
        U = rng.standard_normal((3, 5)) * 2.0
        cot = rng.standard_normal((3, 5))
        go = OmegaGrad(np.zeros(om.dim))
        cs = op.apply_vjp(op.forward(U, om)[1], cot, go)
        cs_cols = np.empty_like(U)
        go_sum = OmegaGrad(np.zeros(om.dim))
        for j in range(5):
            cs_cols[:, j] = op.apply_vjp(op.forward(U[:, j], om)[1], cot[:, j], go_sum)
        np.testing.assert_allclose(cs, cs_cols, atol=1e-12)
        np.testing.assert_allclose(go.reduce(), go_sum.reduce(), atol=1e-12)


# ---------------------------------------------------------------------------
# proximal ALM operator
# ---------------------------------------------------------------------------

def one_dim_alm():
    # f = u^2/2, constraint u = 0, identity prox metric, beta = 1
    return AlmOperator(nprimal=1, ndual=1, A=np.eye(1), bvec=np.zeros(1),
                       quad=np.eye(1), beta=1.0)


class TestAlm:
    def test_zero_problem_fixed(self, rng):
        op = AlmOperator(nprimal=2, ndual=2, A=np.zeros((2, 2)), bvec=np.zeros(2),
                         beta=1.0)
        # A = 0, b = 0, f = 0: the G-prox returns u, the dual update adds zero
        state = rng.standard_normal(4)
        np.testing.assert_allclose(checked_apply(op, state, empty_omega()), state, atol=1e-12)

    def test_one_variable_calculus(self):
        # argmin u^2/2 + lam u + (u-b...)^2 terms: with u_k=1, lam=0:
        # argmin u^2/2 + u^2/2 + (u-1)^2/2 -> u+ = 1/3, lam+ = 1/3
        op = one_dim_alm()
        out = checked_apply(op, np.array([1.0, 0.0]), empty_omega())
        np.testing.assert_allclose(out, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_kkt_fixed_point(self, rng):
        # 0 in df(u*) + A^T lam*, A u* = b  ->  state maps to itself
        n = 3
        A = rng.standard_normal((2, n))
        P = np.eye(n)
        ustar = rng.standard_normal(n)
        b = A @ ustar
        lam = np.linalg.lstsq(A.T, -(P @ ustar), rcond=None)[0]
        # enforce exact stationarity by absorbing the residual into lin
        lin = -(P @ ustar + A.T @ lam)
        op = AlmOperator(nprimal=n, ndual=2, A=A, bvec=b, quad=P, lin=lin, beta=0.7)
        state = np.concatenate([ustar, lam])
        out = checked_apply(op, state, empty_omega())
        assert np.linalg.norm(out - state) < 1e-10

    def test_metric_blocks(self):
        om = make_hyperparams([("beta", 2.0, "penalty")])
        op = AlmOperator(nprimal=2, ndual=2, A=np.eye(2), bvec=np.zeros(2), beta="beta")
        H = op.metric(om)
        # G = ones, then the dual block 1/beta: one diagonal
        assert H.is_diagonal
        np.testing.assert_array_equal(H.tail, [1.0, 1.0, 0.5, 0.5])

    def test_firmly_nonexpansive(self, rng):
        n = 4
        A = rng.standard_normal((2, n))
        P = rng.standard_normal((n, n))
        P = P @ P.T / n
        om = make_hyperparams([("beta", 0.8, "penalty")])
        op = AlmOperator(nprimal=n, ndual=2, A=A, bvec=rng.standard_normal(2),
                         quad=P, beta="beta")
        ratio = lipschitz_ratio(op, om, op.metric(om), 500, rng)
        assert ratio <= 1.0 + 1e-9

    def test_rho_lin_mode_nonexpansive(self, rng):
        # structured prox metric G = rho I - beta A^T A with l1 block
        n = 4
        A = np.hstack([np.eye(2), -np.eye(2)])
        quad = np.zeros((n, n))
        quad[:2, :2] = np.eye(2)
        w = np.array([0.0, 0.0, 1.0, 1.0])
        mask_s = np.array([True, True, False, False])
        mask_l = ~mask_s
        om = make_hyperparams([("beta", 0.5, "penalty"),
                               ("rho_s", 2.0, "penalty"),
                               ("rho_l", 2.0, "penalty"),
                               ("kap", 0.4, "threshold")])
        op = AlmOperator(nprimal=n, ndual=2, A=A, bvec=np.zeros(2), quad=quad,
                         lin=rng.standard_normal(n), l1_weights=w, beta="beta",
                         gmode="rho-lin", rho_groups=(("rho_s", mask_s), ("rho_l", mask_l)),
                         thresh_groups=(("kap", mask_l),))
        op.validate_omega(om)
        ratio = lipschitz_ratio(op, om, op.metric(om), 500, rng)
        assert ratio <= 1.0 + 1e-9

    def test_invalid_metric_rejected(self):
        om = make_hyperparams([("beta", 1.0, "penalty"),
                               ("rho_s", 0.5, "penalty")])
        op = AlmOperator(nprimal=1, ndual=1, A=np.eye(1), bvec=np.zeros(1),
                         beta="beta", gmode="rho-lin",
                         rho_groups=(("rho_s", np.array([True])),))
        # G = rho - beta = -0.5 < 0
        with pytest.raises(ContractError):
            op.validate_omega(om)

    @pytest.mark.parametrize("kwargs", [
        # coordinate 1 is smooth and in no rho group: G = diag(rho) - beta A^T A misses it
        dict(beta="beta", gmode="rho-lin", rho_groups=(("rho_s", np.array([True, False])),)),
        # a fixed prox metric with a zero entry that neither quad nor A^T A covers
        dict(gdiag=np.array([1.0, 0.0])),
    ])
    def test_uncovered_coordinate_refused_before_inverse(self, kwargs):
        # K_ss is exactly singular here, so G(omega) must be refused before it is inverted
        om = make_hyperparams([("beta", 1.0, "penalty"), ("rho_s", 2.0, "penalty")])
        op = AlmOperator(nprimal=2, ndual=1, A=np.array([[1.0, 0.0]]), bvec=np.zeros(1),
                         **kwargs)
        with pytest.raises(ContractError, match="prox metric G"):
            op.validate_omega(om)

    def test_vjp_matches_fd_smooth(self, rng):
        n = 3
        A = rng.standard_normal((2, n))
        P = np.eye(n) * 0.5
        om = make_hyperparams([("beta", 0.9, "penalty")])
        op = AlmOperator(nprimal=n, ndual=2, A=A, bvec=rng.standard_normal(2),
                         quad=P, lin=rng.standard_normal(n), beta="beta")
        fd_vjp_check(op, rng.standard_normal(n + 2), om, rng)

    def test_vjp_matches_fd_rho_lin(self, rng):
        n = 4
        A = np.hstack([np.eye(2), -np.eye(2)])
        quad = np.zeros((n, n))
        quad[:2, :2] = np.array([[1.0, 0.3], [0.3, 1.0]])
        w = np.array([0.0, 0.0, 1.0, 1.0])
        mask_s = np.array([True, True, False, False])
        om = make_hyperparams([("beta", 0.5, "penalty"),
                               ("rho_s", 2.2, "penalty"),
                               ("rho_l", 1.9, "penalty"),
                               ("kap", 0.3, "threshold")])
        op = AlmOperator(nprimal=n, ndual=2, A=A, bvec=np.zeros(2), quad=quad,
                         lin=rng.standard_normal(n), l1_weights=w, beta="beta",
                         gmode="rho-lin", rho_groups=(("rho_s", mask_s), ("rho_l", ~mask_s)),
                         thresh_groups=(("kap", ~mask_s),))
        fd_vjp_check(op, rng.standard_normal(n + 2) * 1.5, om, rng)

    # coordinates 0-2 are smooth, 3-4 carry the l1 term; the second row of A,
    # when present, touches only l1 coordinate 4, so the l1 block still
    # decouples in K while its diagonal picks up beta (A^T A)_44
    @pytest.mark.parametrize("gdiag, a_touches_l1", [
        ("g", False),
        ("g", True),
        (np.array([1.3, 0.8, 1.1, 0.9, 1.6]), True),
    ], ids=["slice", "slice-A-on-l1", "fixed-A-on-l1"])
    def test_vjp_matches_fd_l1(self, rng, gdiag, a_touches_l1):
        n = 5
        A = np.zeros((2, n))
        A[0, :3] = rng.standard_normal(3)
        A[1, 4] = 1.7 if a_touches_l1 else 0.0
        quad = np.zeros((n, n))
        quad[:3, :3] = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.2]])
        w = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        om = make_hyperparams([("beta", 0.7, "penalty"),
                               ("g", rng.uniform(0.6, 1.8, n), "metric-diagonal"),
                               ("kap", 0.2, "threshold")])
        op = AlmOperator(nprimal=n, ndual=2, A=A, bvec=rng.standard_normal(2), quad=quad,
                         lin=rng.standard_normal(n), l1_weights=w, beta="beta",
                         gmode="fixed" if isinstance(gdiag, np.ndarray) else "slice",
                         gdiag=gdiag, thresh_groups=(("kap", w > 0),))
        op.validate_omega(om)
        fd_vjp_check(op, rng.standard_normal(n + 2) * 2.0, om, rng)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(gmode="rho-lin", gdiag="g"), "gdiag"),
        (dict(gmode="rho-lin", gdiag=np.ones(2)), "gdiag"),
        (dict(gmode="slice", gdiag="g", rho_groups=(("rho", np.array([True, True])),)),
         "rho_groups"),
        (dict(rho_groups=(("rho", np.array([True, True])),)), "rho_groups"),
    ], ids=["rho-lin-slice-gdiag", "rho-lin-fixed-gdiag", "slice-rho-groups",
            "fixed-rho-groups"])
    def test_argument_its_mode_never_reads_refused(self, kwargs, name):
        with pytest.raises(ContractError, match=name):
            AlmOperator(nprimal=2, ndual=1, A=np.ones((1, 2)), bvec=np.zeros(1), **kwargs)

    def test_prepare_builds_once_per_omega_object(self, rng):
        om = make_hyperparams([("beta", 0.8, "penalty"),
                               ("g", rng.uniform(1.0, 2.0, 3), "metric-diagonal")])
        op = AlmOperator(nprimal=3, ndual=2, A=rng.standard_normal((2, 3)),
                         bvec=rng.standard_normal(2), quad=np.eye(3), beta="beta",
                         gmode="slice", gdiag="g")
        ctx = op.prepare(om)
        state = rng.standard_normal(5)
        op.validate_omega(om)
        op.apply(state, om)
        op.apply_vjp(op.forward(state, om)[1], rng.standard_normal(5),
                     OmegaGrad(np.zeros(om.dim)))
        assert op.metric(om) is ctx["H"]
        assert op.prepare(om) is ctx
        # an equal omega that is another object is prepared anew, once
        other = om.with_values(om.values)
        fresh = op.prepare(other)
        assert fresh is not ctx and op.prepare(other) is fresh
        np.testing.assert_array_equal(fresh["Kss_inv"], ctx["Kss_inv"])

    @pytest.mark.parametrize("case", ["alm-slice", "alm-rho-lin"])
    def test_batched_residual_keeps_the_rows_the_vjp_reads(self, case, rng):
        # of c and u+ the VJP reads c_L and u+_S alone, so the residual keeps only those
        op, om = reverse_case(case, rng)
        op.validate_omega(om)
        B = 5
        state = rng.standard_normal((op.dim, B)) * 2.0
        out, res = op.forward(state, om)
        _, _, _, cL, sgn, upS, _ = res
        S, L = op._smooth, op._l1
        assert S.size and L.size
        assert cL.shape == (L.size, B) and upS.shape == (S.size, B)
        np.testing.assert_array_equal(upS, out[S])
        assert not any(np.shares_memory(a, state) for a in (cL, upS))
        # the batched VJP is the sum of its columns' and matches central differences
        cot = rng.standard_normal(out.shape)
        grad = OmegaGrad(np.zeros(om.dim))
        cs = op.apply_vjp(res, cot, grad)
        col_grad = OmegaGrad(np.zeros(om.dim))
        for j in range(B):
            col_cs = op.apply_vjp(op.forward(state[:, j], om)[1], cot[:, j], col_grad)
            np.testing.assert_allclose(cs[:, j], col_cs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad.reduce(), col_grad.reduce(), rtol=1e-12, atol=1e-12)
        fd_vjp_check(op, state, om, rng)

    def test_integer_group_mask_refused(self):
        with pytest.raises(ContractError, match="boolean"):
            AlmOperator(nprimal=3, ndual=1, A=np.zeros((1, 3)), bvec=np.zeros(1),
                        l1_weights=np.ones(3), thresh_groups=(("k", np.array([0, 2])),))

    def test_overlapping_thresh_groups_refused(self):
        w = np.ones(3)
        with pytest.raises(ContractError, match="overlap"):
            AlmOperator(nprimal=3, ndual=1, A=np.zeros((1, 3)), bvec=np.zeros(1),
                        l1_weights=w, thresh_groups=(("k1", np.array([True, True, False])),
                                                     ("k2", np.array([False, True, True]))))


# ---------------------------------------------------------------------------
# DLADMM operator
# ---------------------------------------------------------------------------

def dladmm_omega(beta=0.1, gamma=1.0, rho_mult1=1.05, rho_mult2=1.0, k1=1.0, k2=1.0, LQ=1.0):
    return make_hyperparams([
        ("beta", beta, "penalty"), ("gamma", gamma, "step-size"),
        ("rho1", rho_mult1 * beta * LQ ** 2, "penalty"),
        ("rho2", rho_mult2 * beta, "penalty"),
        ("kappa1", k1, "threshold"), ("kappa2", k2, "threshold")])


def dladmm_op(Q, b):
    return DladmmOperator(Q=Q, bvec=b, beta="beta", gamma="gamma", rho1="rho1",
                          rho2="rho2", kappa1="kappa1", kappa2="kappa2")


class TestDladmm:
    @pytest.mark.parametrize("shape", [(64, 128), (8, 16), (16, 8), (1, 5)])
    def test_lipschitz_q_is_exact(self, shape, rng):
        Q = rng.standard_normal(shape)
        op = dladmm_op(Q, np.zeros(shape[0]))
        ref = np.sqrt(np.linalg.eigvalsh(Q @ Q.T)[-1])
        assert op.lipschitz_Q == pytest.approx(ref, rel=1e-14)

    def test_thresholds_dominate(self, rng):
        Q = np.zeros((2, 3))
        op = dladmm_op(Q, np.zeros(2))
        om = dladmm_omega(k1=100.0, k2=100.0, LQ=1.0)
        state = np.concatenate([np.ones(3) * 0.5, np.ones(2) * 0.5, np.zeros(2)])
        out = op.apply(state, om)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_scalar_hand_example(self):
        op = dladmm_op(np.array([[1.0]]), np.zeros(1))
        # rho1 = 0.4 lies above beta L_Q^2 = 0.1, where the metric's lead 0.1 is singular.
        # r = 1 + 1 = 2, u1+ = 1 - (0.1 / 0.4) 2 = 0.5; r2 = 0.5 + 1 = 1.5,
        # u2+ = 1 - (0.1 / 0.1) 1.5 = -0.5; lam+ = 0 + 0.1 (0.5 - 0.5) = 0
        om = dladmm_omega(beta=0.1, gamma=1.0, rho_mult1=4.0, rho_mult2=1.0,
                          k1=0.0, k2=0.0)
        out = checked_apply(op, np.array([1.0, 1.0, 0.0]), om)
        np.testing.assert_allclose(out, [0.5, -0.5, 0.0], atol=1e-14)

    def test_fixed_point_invariance(self, rng):
        # u1* = 0, u2* arbitrary, lam* = -kappa2 sign(u2*), b = u2*
        m, n = 4, 6
        Q = rng.standard_normal((m, n))
        Q /= np.linalg.norm(Q, axis=0)
        u2 = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 2.0, m)
        k2 = 0.7
        lam = -k2 * np.sign(u2)
        k1 = float(np.max(np.abs(Q.T @ lam))) * 1.5
        op = dladmm_op(Q, u2.copy())
        om = dladmm_omega(beta=0.1, gamma=1.0, rho_mult1=1.3, rho_mult2=1.2,
                          k1=k1, k2=k2, LQ=spectral_norm_estimate(Q))
        state = np.concatenate([np.zeros(n), u2, lam])
        out = op.apply(state, om)
        assert np.linalg.norm(out - state) < 1e-10

    def test_rho_bound_contract(self):
        op = dladmm_op(np.array([[1.0]]), np.zeros(1))
        om = dladmm_omega(rho_mult1=0.9)
        with pytest.raises(ContractError):
            checked_apply(op, np.zeros(3), om)

    def test_gamma_above_one_rejected(self):
        op = dladmm_op(np.array([[1.0]]), np.zeros(1))
        om = dladmm_omega(gamma=1.2)
        with pytest.raises(ContractError):
            checked_apply(op, np.zeros(3), om)

    def test_nonexpansive_in_own_metric(self, rng):
        m, n = 5, 9
        Q = rng.standard_normal((m, n))
        Q /= np.linalg.norm(Q, axis=0)
        op = dladmm_op(Q, rng.standard_normal(m))
        for mult1, mult2, gamma in [(1.01, 1.0, 1.0), (1.5, 1.4, 0.7), (2.0, 2.0, 0.5)]:
            om = dladmm_omega(beta=0.1, gamma=gamma, rho_mult1=mult1, rho_mult2=mult2,
                              k1=0.4, k2=0.8, LQ=op.lipschitz_Q)
            ratio = lipschitz_ratio(op, om, op.metric(om), 400, rng)
            assert ratio <= 1.0 + 1e-9, (mult1, mult2, gamma, ratio)

    def test_kkt_vs_subgradient_oracle(self, rng):
        # fixed points solve min k1|u1|_1 + k2|u2|_1 s.t. Q u1 + u2 = b
        m, n = 3, 5
        Q = rng.standard_normal((m, n))
        Q /= np.linalg.norm(Q, axis=0)
        b = rng.standard_normal(m)
        k1, k2 = 1.0, 1.0
        op = dladmm_op(Q, b)
        om = dladmm_omega(beta=0.5, rho_mult1=1.2, rho_mult2=1.1, k1=k1, k2=k2,
                          LQ=op.lipschitz_Q)
        state = np.zeros(n + 2 * m)
        for _ in range(20000):
            state = op.apply(state, om)
        u1, u2, lam = op.split_state(state)
        # KKT residuals
        assert np.linalg.norm(Q @ u1 + u2 - b) < 1e-6
        g1 = Q.T @ lam
        on1 = np.abs(u1) > 1e-8
        assert np.all(np.abs(g1[on1] + k1 * np.sign(u1[on1])) < 1e-5)
        assert np.all(np.abs(g1[~on1]) <= k1 + 1e-5)
        on2 = np.abs(u2) > 1e-8
        assert np.all(np.abs(lam[on2] + k2 * np.sign(u2[on2])) < 1e-5)
        assert np.all(np.abs(lam[~on2]) <= k2 + 1e-5)
        # objective vs projected subgradient oracle on the affine set
        obj = k1 * np.abs(u1).sum() + k2 * np.abs(u2).sum()
        stacked = np.hstack([Q, np.eye(m)])
        pinv = stacked.T @ np.linalg.inv(stacked @ stacked.T)
        x = pinv @ b  # feasible start
        weights = np.concatenate([np.full(n, k1), np.full(m, k2)])
        best = np.sum(weights * np.abs(x))
        for it in range(1, 60000):
            g = weights * np.sign(x)
            x = x - (0.05 / np.sqrt(it)) * g
            x = x - pinv @ (stacked @ x - b)
            best = min(best, float(np.sum(weights * np.abs(x))))
        assert obj <= best + 1e-4

    def test_vjp_matches_fd(self, rng):
        m, n = 3, 4
        Q = rng.standard_normal((m, n))
        Q /= np.linalg.norm(Q, axis=0)
        op = dladmm_op(Q, rng.standard_normal(m))
        om = dladmm_omega(beta=0.3, gamma=0.8, rho_mult1=1.4, rho_mult2=1.3,
                          k1=0.2, k2=0.3, LQ=op.lipschitz_Q)
        fd_vjp_check(op, rng.standard_normal(n + 2 * m) * 2.0, om, rng)

    def test_batched_apply_matches_columns(self, rng):
        m, n, B = 3, 4, 6
        Q = rng.standard_normal((m, n))
        b = rng.standard_normal((m, B))
        op = dladmm_op(Q, b)
        om = dladmm_omega(beta=0.2, rho_mult1=1.2, rho_mult2=1.1,
                          LQ=spectral_norm_estimate(Q))
        S = rng.standard_normal((n + 2 * m, B))
        out = op.apply(S, om)
        for j in range(B):
            opj = dladmm_op(Q, b[:, j])
            np.testing.assert_allclose(out[:, j], opj.apply(S[:, j], om), atol=1e-12)


# ---------------------------------------------------------------------------
# network operator and normalization
# ---------------------------------------------------------------------------

def net_omega(Ws, bs):
    parts = []
    for i, (W, b) in enumerate(zip(Ws, bs)):
        parts.append((f"W{i}", W, "layer-matrix"))
        parts.append((f"b{i}", b, "layer-bias"))
    return make_hyperparams(parts)


def net_op(dim, widths, nonlinearity="identity", rho_bar=1.0, conjugate=None, L=None):
    L = L if L is not None else len(widths) - 1
    return NetOperator(dim=dim, weight_names=tuple(f"W{i}" for i in range(L)),
                       bias_names=tuple(f"b{i}" for i in range(L)),
                       widths=tuple(widths), nonlinearity=nonlinearity,
                       rho_bar=rho_bar, conjugate=conjugate)


class TestNet:
    def test_identity_layer(self, rng):
        om = net_omega([np.eye(3)], [np.zeros(3)])
        op = net_op(3, [3, 3])
        u = rng.standard_normal(3)
        np.testing.assert_allclose(checked_apply(op, u, om), u)

    def test_half_identity(self, rng):
        om = net_omega([0.5 * np.eye(3)], [np.zeros(3)])
        op = net_op(3, [3, 3])
        u = rng.standard_normal(3)
        np.testing.assert_allclose(checked_apply(op, u, om), 0.5 * u)

    def test_lipschitz_after_normalization(self, rng):
        W = rng.standard_normal((4, 4)) * 2.0
        om = normalize_net(net_omega([W], [rng.standard_normal(4)]), 1.0)
        op = net_op(4, [4, 4], nonlinearity="tanh")
        for _ in range(200):
            u1, u2 = rng.standard_normal(4), rng.standard_normal(4)
            lhs = np.linalg.norm(op.apply(u1, om) - op.apply(u2, om))
            assert lhs <= np.linalg.norm(u1 - u2) + 1e-9

    def test_unnormalized_rejected(self, rng):
        om = net_omega([2.0 * np.eye(3)], [np.zeros(3)])
        op = net_op(3, [3, 3])
        with pytest.raises(ContractError):
            op.apply(rng.standard_normal(3), om)

    def test_forward_refuses_an_uncertified_omega(self, rng):
        # a residual, and so a VJP, exists only after the certificate check
        om = net_omega([2.0 * np.eye(3)], [np.zeros(3)])
        with pytest.raises(ContractError, match="exceeds the per-layer budget"):
            net_op(3, [3, 3]).forward(rng.standard_normal(3), om)

    def test_layer_a_hair_over_budget_refused(self, rng):
        # the norm is exact, so the check has no slack: 1e-12 over is refused
        op = net_op(4, [4, 4], rho_bar=0.5)
        W = rng.standard_normal((4, 4))
        W *= op.budget * (1.0 + 1e-12) / np.linalg.norm(W, 2)
        with pytest.raises(ContractError, match="exceeds the per-layer budget"):
            op.validate_omega(net_omega([W], [np.zeros(4)]))
        op.validate_omega(net_omega([op.budget * np.eye(4)], [np.zeros(4)]))

    def test_layer_slice_of_another_shape_refused(self):
        # renormalize_for measures a layer as its slice holds it, which must be how the net
        # reads it: a (3, 5) layer kept in a (5, 3) slice is a different matrix
        om = net_omega([0.1 * np.ones((5, 3)), 0.1 * np.ones((5, 3))], [np.zeros(3), np.zeros(5)])
        with pytest.raises(ContractError, match=r"slice 'W0' has shape \(5, 3\), not \(3, 5\)"):
            renormalize_for(net_op(5, [5, 3, 5]), om)

    def test_metric_is_identity(self):
        op = net_op(2, [2, 2])
        H = op.metric(net_omega([np.eye(2)], [np.zeros(2)]))
        assert H.is_diagonal
        np.testing.assert_array_equal(H.tail, np.ones(2))

    def test_vjp_matches_fd(self, rng):
        Ws = []
        for shape in ((5, 3), (3, 5)):
            W = rng.standard_normal(shape)
            Ws.append(W * (0.8 / spectral_norm_estimate(W)))
        bs = [rng.standard_normal(5), rng.standard_normal(3)]
        om = net_omega(Ws, bs)
        op = net_op(3, [3, 5, 3], nonlinearity="tanh")
        fd_vjp_check(op, rng.standard_normal(3), om, rng)

    @pytest.mark.parametrize("nonlinearity", ["tanh", "identity"])
    @pytest.mark.parametrize("batch", [None, 4], ids=["unbatched", "batched"])
    def test_vjp_reads_the_kept_activation(self, nonlinearity, batch, rng):
        # phi'(z) is read from a = phi(z): 1 - a^2 for tanh, ones for the identity,
        # bit for bit what phi'(z) from a kept pre-activation z gives
        g = rng.uniform(1.0, 3.0, 3)
        Ws = [rng.standard_normal(shape) for shape in ((5, 3), (3, 5))]
        Ws = [W * (0.8 / spectral_norm_estimate(W)) for W in Ws]
        om = make_hyperparams([("g", g, "metric-diagonal"),
                               ("W0", Ws[0], "layer-matrix"),
                               ("b0", rng.standard_normal(5), "layer-bias"),
                               ("W1", Ws[1], "layer-matrix"),
                               ("b1", rng.standard_normal(3), "layer-bias")])
        op = net_op(3, [3, 5, 3], nonlinearity=nonlinearity, conjugate="g")
        u = rng.standard_normal(3 if batch is None else (3, batch))
        cot = rng.standard_normal(u.shape)
        out, res = op.forward(u, om)
        kept_state, _, acts = res
        assert kept_state is u and len(acts) == op.nlayers + 1   # z_0..z_L, no pre-activation
        grad = OmegaGrad(np.zeros(om.dim))
        cs = op.apply_vjp(res, cot, grad)

        # the rule from the pre-activations, with one outer product per layer
        phi, dphi = ((np.tanh, lambda z: 1.0 - np.tanh(z) ** 2) if nonlinearity == "tanh"
                     else (lambda z: z, np.ones_like))
        col = (lambda v: v[:, None]) if u.ndim > 1 else (lambda v: v)
        colsum = (lambda v: v.sum(axis=-1)) if u.ndim > 1 else (lambda v: v)
        r = np.sqrt(g)
        zs, pres = [col(r) * u], []
        for W, b in ((om.view("W0"), om.view("b0")), (om.view("W1"), om.view("b1"))):
            pres.append(W @ zs[-1] + col(b))
            zs.append(phi(pres[-1]))
        np.testing.assert_array_equal(out, zs[-1] / col(r))
        want = np.zeros(om.dim)
        want[:3] += -0.5 * colsum(cot * zs[-1]) / (g * r)
        cz = cot / col(r)
        for idx, name in ((1, "1"), (0, "0")):
            da = dphi(pres[idx]) * cz
            sb, sw = om.slice_for("b" + name), om.slice_for("W" + name)
            want[sb.offset:sb.offset + sb.size] += colsum(da)
            want[sw.offset:sw.offset + sw.size] += (
                da @ zs[idx].T if da.ndim > 1 else np.outer(da, zs[idx])).reshape(-1)
            cz = om.view("W" + name).T @ da
        want[:3] += 0.5 * colsum(cz * u) / r
        np.testing.assert_array_equal(grad.reduce(), want)
        np.testing.assert_array_equal(cs, col(r) * cz)

    def test_slice_conjugated_vjp(self, rng):
        # conjugation by a learnable diagonal metric: gradient flows into g
        g = rng.uniform(1.0, 3.0, 3)
        W = rng.standard_normal((3, 3))
        W *= 0.8 / spectral_norm_estimate(W)
        om = make_hyperparams([("g", g, "metric-diagonal"),
                               ("W0", W, "layer-matrix"),
                               ("b0", rng.standard_normal(3), "layer-bias")])
        op = net_op(3, [3, 3], nonlinearity="tanh", conjugate="g")
        assert op.metric(om).is_diagonal
        fd_vjp_check(op, rng.standard_normal(3), om, rng)
        ratio = lipschitz_ratio(op, om, op.metric(om), 300, rng)
        assert ratio <= 1.0 + 1e-9

    def test_certificate_ablation_flag(self, rng):
        om = net_omega([2.0 * np.eye(2)], [np.zeros(2)])
        op = NetOperator(dim=2, weight_names=("W0",), bias_names=("b0",),
                         widths=(2, 2), enforce_certificate=False)
        out = op.apply(np.ones(2), om)
        np.testing.assert_allclose(out, 2.0 * np.ones(2))

    def test_ablation_flag_skips_check_after_certified_omega(self):
        op = NetOperator(dim=2, weight_names=("W0",), bias_names=("b0",),
                         widths=(2, 2), enforce_certificate=False)
        good = net_omega([0.5 * np.eye(2)], [np.zeros(2)])
        op.apply(np.ones(2), good)
        bad = good.replace_slice("W0", 2.0 * np.eye(2))
        for _ in range(2):
            np.testing.assert_allclose(op.apply(np.ones(2), bad), 2.0 * np.ones(2))

    @pytest.mark.parametrize("derive", ["with_values", "replace_slice"])
    def test_over_budget_refused_after_certified_omega(self, rng, derive):
        W = rng.standard_normal((4, 4))
        om = normalize_net(net_omega([W], [np.zeros(4)]), 1.0)
        op = net_op(4, [4, 4], nonlinearity="tanh")
        u = rng.standard_normal(4)
        op.apply(u, om)
        op.apply(u, om)
        if derive == "with_values":
            vals = om.values.copy()
            s = om.slice_for("W0")
            vals[s.offset:s.offset + s.size] *= 1.5
            bad = om.with_values(vals)
        else:
            bad = om.replace_slice("W0", 1.5 * om.view("W0"))
        with pytest.raises(ContractError, match="exceeds the per-layer budget"):
            op.validate_omega(bad)
        with pytest.raises(ContractError, match="exceeds the per-layer budget"):
            op.apply(u, bad)
        # the refused omega is not remembered as certified either
        with pytest.raises(ContractError, match="exceeds the per-layer budget"):
            op.apply(u, bad)
        op.apply(u, om)

    def test_certificate_checked_once_per_omega_object(self, rng, monkeypatch):
        om = normalize_net(net_omega([rng.standard_normal((3, 3))], [np.zeros(3)]), 1.0)
        op = net_op(3, [3, 3])
        calls = []
        measure = operators.spectral_norm_estimate
        monkeypatch.setattr(operators, "spectral_norm_estimate",
                            lambda A: calls.append(1) or measure(A))
        for _ in range(3):
            op.apply(rng.standard_normal(3), om)
        assert len(calls) == 1
        op.apply(rng.standard_normal(3), om.with_values(om.values))
        assert len(calls) == 2

    def test_conjugated_vjp_and_metric(self, rng):
        g = np.array([1.0, 2.0, 4.0])
        W = rng.standard_normal((3, 3))
        Ws = [W * (0.8 / spectral_norm_estimate(W))]
        om = net_omega(Ws, [rng.standard_normal(3)])
        op = net_op(3, [3, 3], nonlinearity="tanh", conjugate=g)
        H = op.metric(om)
        assert H.is_diagonal
        np.testing.assert_array_equal(H.tail, g)
        fd_vjp_check(op, rng.standard_normal(3), om, rng)
        ratio = lipschitz_ratio(op, om, H, 300, rng)
        assert ratio <= 1.0 + 1e-9


    @pytest.mark.parametrize("spec", [None, np.array([1.0, 2.0, 4.0]), "g"],
                             ids=["identity", "fixed", "slice"])
    def test_conjugate_takes_the_gdiag_spec(self, spec):
        om = make_hyperparams([("g", np.array([1.5, 2.0, 3.0]), "metric-diagonal"),
                               ("W0", np.eye(3), "layer-matrix"),
                               ("b0", np.zeros(3), "layer-bias")])
        Hn = net_op(3, [3, 3], conjugate=spec).metric(om)
        Hp = PgOperator(dim=3, gdiag=spec).metric(om)
        assert Hn.is_diagonal and Hp.is_diagonal
        np.testing.assert_array_equal(Hn.apply(np.ones(3)), Hp.apply(np.ones(3)))

    def test_conjugate_of_wrong_shape_refused(self):
        with pytest.raises(ContractError, match="shape"):
            net_op(3, [3, 3], conjugate=np.ones(2))


class TestNormalizeNet:
    def test_rescales_to_unit(self, rng):
        W = rng.standard_normal((6, 6))
        W *= 2.0 / spectral_norm_estimate(W)
        om = normalize_net(net_omega([W], [np.zeros(6)]), 1.0)
        assert spectral_norm_estimate(om.view("W0")) == pytest.approx(1.0, abs=1e-6)

    def test_contractive_untouched(self):
        W = 0.5 * np.eye(3)
        om = net_omega([W], [np.zeros(3)])
        out = normalize_net(om, 1.0)
        np.testing.assert_array_equal(out.view("W0"), W)

    def test_two_layer_budget_split(self, rng):
        Ws = []
        for _ in range(2):
            W = rng.standard_normal((4, 4))
            W *= 2.0 / spectral_norm_estimate(W)
            Ws.append(W)
        om = normalize_net(net_omega(Ws, [np.zeros(4), np.zeros(4)]), 0.81)
        for name in ("W0", "W1"):
            assert spectral_norm_estimate(om.view(name)) == pytest.approx(0.9, abs=1e-6)

    def test_non_layer_slices_untouched(self, rng):
        om = make_hyperparams([("W0", 3.0 * np.eye(2), "layer-matrix"),
                               ("beta", 0.7, "penalty")])
        out = normalize_net(om, 1.0)
        assert out.view("beta").item() == 0.7

    def test_renormalize_for_composite(self, rng):
        W = 4.0 * np.eye(2)
        om = make_hyperparams([("W0", W, "layer-matrix"), ("b0", np.zeros(2), "layer-bias")])
        net = net_op(2, [2, 2], rho_bar=0.5)
        comp = CompositeOperator(members=(net,))
        out = renormalize_for(comp, om)
        assert spectral_norm_estimate(out.view("W0")) == pytest.approx(0.5, abs=1e-6)

    def test_spectral_norm_scale_equivariant(self):
        # sigma(c W) = c sigma(W) to rounding: the SVD has no start vector or stopping rule
        rng = np.random.default_rng(2024)
        for shape in ((4, 4), (6, 3), (3, 7), (64, 64)):
            for _ in range(5):
                W = rng.standard_normal(shape)
                c = rng.uniform(0.01, 1.0)
                assert spectral_norm_estimate(c * W) == pytest.approx(
                    c * spectral_norm_estimate(W), rel=1e-12)

    @staticmethod
    def assert_layers_within(om, names, budget):
        # no tolerance: the rescaled layer's own SVD must not read above budget
        for name in names:
            assert np.linalg.norm(om.view(name), 2) <= budget, name

    @pytest.mark.parametrize("seed", range(4))
    def test_deconv_layers_at_most_budget(self, seed):
        bundle = build_deconv_operator(gen_deconv(n=64, seed=seed), net_widths=(64,), seed=seed)
        net = bundle.op.members[1]
        self.assert_layers_within(bundle.omega0, net.weight_names, net.budget)
        grown = bundle.omega0
        for name in net.weight_names:
            grown = grown.replace_slice(name, 1.7 * grown.view(name))
        self.assert_layers_within(renormalize_for(bundle.op, grown), net.weight_names, net.budget)
        self.assert_layers_within(normalize_net(grown, net.rho_bar), net.weight_names, net.budget)

    def test_random_net_layers_at_most_budget(self):
        rng = np.random.default_rng(7)
        for widths in ((4, 4), (8, 3, 8), (64, 64, 64), (16, 40, 24, 16)):
            for _ in range(25):
                L = len(widths) - 1
                Ws = [rng.standard_normal((wout, win)) * rng.uniform(0.5, 20.0)
                      for win, wout in zip(widths[:-1], widths[1:])]
                om = net_omega(Ws, [np.zeros(w) for w in widths[1:]])
                net = net_op(widths[0], widths, rho_bar=rng.uniform(0.1, 1.0))
                names = [f"W{i}" for i in range(L)]
                self.assert_layers_within(renormalize_for(net, om), names, net.budget)
                self.assert_layers_within(normalize_net(om, net.rho_bar), names, net.budget)

    def test_renormalized_omega_is_certified_for_every_net(self, rng, monkeypatch):
        # W0 is over its budget and gets rescaled, W1 is under and is only measured
        om = make_hyperparams([("W0", 3.0 * rng.standard_normal((4, 4)), "layer-matrix"),
                               ("b0", np.zeros(4), "layer-bias"),
                               ("W1", 0.2 * np.eye(4), "layer-matrix"),
                               ("b1", np.zeros(4), "layer-bias")])
        outer = NetOperator(dim=4, weight_names=("W0",), bias_names=("b0",),
                            widths=(4, 4), rho_bar=0.9)
        inner = NetOperator(dim=4, weight_names=("W1",), bias_names=("b1",),
                            widths=(4, 4), nonlinearity="tanh")
        comp = CompositeOperator(members=(outer, inner))
        out = renormalize_for(comp, om)
        assert spectral_norm_estimate(out.view("W0")) <= 0.9 + 1e-8
        calls = []
        measure = operators.spectral_norm_estimate
        monkeypatch.setattr(operators, "spectral_norm_estimate",
                            lambda A: calls.append(1) or measure(A))
        comp.validate_omega(out)
        comp.apply(rng.standard_normal(4), out)
        assert calls == []
        # an equal omega that is another object is measured again, layer by layer
        comp.validate_omega(out.with_values(out.values))
        assert len(calls) == 2

    def test_several_nets_need_renormalize_for(self, rng):
        # normalize_net counts both one-layer nets as one stack of two layers, so it
        # scales each layer to 0.9 ** (1/2) = 0.949, above each net's own budget of 0.9
        om = net_omega([3.0 * rng.standard_normal((4, 4)) for _ in range(2)],
                       [np.zeros(4), np.zeros(4)])
        comp = CompositeOperator(members=tuple(
            NetOperator(dim=4, weight_names=(f"W{i}",), bias_names=(f"b{i}",),
                        widths=(4, 4), rho_bar=0.9) for i in range(2)))
        with pytest.raises(ContractError, match=r"call renormalize_for\(op, omega\) first"):
            comp.validate_omega(normalize_net(om, 0.9))
        out = renormalize_for(comp, om)
        # a fresh object, so every layer is measured against its net's budget again
        comp.validate_omega(out.with_values(out.values))


# ---------------------------------------------------------------------------
# composite and averaging
# ---------------------------------------------------------------------------

class TestComposite:
    def test_identity_composition(self, rng):
        om = make_hyperparams([("W0", np.eye(2), "layer-matrix"),
                               ("b0", np.zeros(2), "layer-bias")])
        pg = PgOperator(dim=2)
        net = net_op(2, [2, 2])
        comp = CompositeOperator(members=(pg, net))
        u = rng.standard_normal(2)
        np.testing.assert_allclose(checked_apply(comp, u, om), u)

    def test_scaling_composition(self, rng):
        om = make_hyperparams([("W0", 0.5 * np.eye(2), "layer-matrix"),
                               ("b0", np.zeros(2), "layer-bias"),
                               ("W1", 0.5 * np.eye(2), "layer-matrix"),
                               ("b1", np.zeros(2), "layer-bias")])
        n1 = NetOperator(dim=2, weight_names=("W0",), bias_names=("b0",),
                         widths=(2, 2))
        n2 = NetOperator(dim=2, weight_names=("W1",), bias_names=("b1",),
                         widths=(2, 2))
        comp = CompositeOperator(members=(n1, n2))
        u = rng.standard_normal(2)
        np.testing.assert_allclose(comp.apply(u, om), 0.25 * u)

    def test_metric_from_numerical_member(self, rng):
        om = make_hyperparams([("g", np.array([2.0, 3.0]), "metric-diagonal"),
                               ("W0", 0.5 * np.eye(2), "layer-matrix"),
                               ("b0", np.zeros(2), "layer-bias")])
        pg = PgOperator(dim=2, gdiag="g")
        net = net_op(2, [2, 2], conjugate=np.array([2.0, 3.0]))
        comp = CompositeOperator(members=(pg, net))
        H = comp.metric(om)
        assert H.is_diagonal
        np.testing.assert_allclose(H.tail, [2.0, 3.0])

    def test_unconjugated_net_rejected(self, rng):
        om = make_hyperparams([("g", np.array([2.0, 3.0]), "metric-diagonal"),
                               ("W0", 0.5 * np.eye(2), "layer-matrix"),
                               ("b0", np.zeros(2), "layer-bias")])
        pg = PgOperator(dim=2, gdiag="g")
        net = net_op(2, [2, 2])
        comp = CompositeOperator(members=(pg, net))
        with pytest.raises(ContractError):
            checked_apply(comp, rng.standard_normal(2), om)

    def test_net_with_another_metric_rejected(self, rng):
        # the net is non-expansive in diag(1, 100, 0.01), not in the composite's diag(g)
        W = rng.standard_normal((3, 3))
        om = make_hyperparams([("g", np.ones(3), "metric-diagonal"),
                               ("W0", W / spectral_norm_estimate(W), "layer-matrix"),
                               ("b0", np.zeros(3), "layer-bias")])
        net = net_op(3, [3, 3], nonlinearity="tanh", conjugate=np.array([1.0, 100.0, 0.01]))
        for pg in (PgOperator(dim=3, gdiag="g"), PgOperator(dim=3)):
            with pytest.raises(ContractError, match="conjugated to the composite metric"):
                CompositeOperator(members=(pg, net)).validate_omega(om)
        # two numerical members with different metrics do not compose either
        with pytest.raises(ContractError, match="conjugated to the composite metric"):
            CompositeOperator(members=(PgOperator(dim=3, gdiag="g"),
                                       PgOperator(dim=3, gdiag=np.array([1.0, 1.0, 50.0])))
                              ).validate_omega(om)
        CompositeOperator(members=(PgOperator(dim=3, gdiag="g"),
                                   net_op(3, [3, 3], conjugate="g"))).validate_omega(om)

    def test_lone_member_composite_keeps_its_metric(self, rng):
        # a net conjugated by its own diagonal is certified in that metric, alone or composed
        W = rng.standard_normal((3, 3))
        d = np.array([1.0, 100.0, 0.01])
        om = make_hyperparams([("g", d, "metric-diagonal"),
                               ("W0", W / spectral_norm_estimate(W), "layer-matrix"),
                               ("b0", np.zeros(3), "layer-bias")])
        comp = CompositeOperator(members=(net_op(3, [3, 3], nonlinearity="tanh", conjugate="g"),))
        comp.validate_omega(om)
        np.testing.assert_array_equal(comp.metric(om).tail, d)
        assert lipschitz_ratio(comp, om, comp.metric(om), 200, rng) <= 1.0 + 1e-9
        # and the metric's derivative is the net's, into the slice g
        x, y, grad = rng.standard_normal(3), rng.standard_normal(3), OmegaGrad(np.zeros(om.dim))
        comp.metric_quad_vjp(om, x, y, grad, 0.5)
        grad = grad.reduce()
        np.testing.assert_array_equal(grad[:3], 0.5 * x * y)
        assert not np.any(grad[3:])

    def test_mismatched_pg_members_refused(self, rng):
        # each PG is non-expansive in its own diag(gdiag); the composite stretches pairs
        # in the outer one's metric, so it is refused before it is applied
        om = empty_omega()
        quad = np.array([[1.0, 0.9], [0.9, 1.0]])
        pgs = tuple(PgOperator(dim=2, quad=quad, gamma=1.0, gdiag=np.array(g))
                    for g in ((1.0, 1.0), (1.0, 50.0)))
        comp = CompositeOperator(members=pgs)
        for m in pgs:
            m.validate_omega(om)
        for refuse in (comp.validate_omega, comp.metric,
                       lambda omega: comp.apply(np.zeros(2), omega),
                       lambda omega: comp.forward(np.zeros(2), omega)):
            with pytest.raises(ContractError, match=r"member 1 \(PgOperator\)"):
                refuse(om)
        chain = SimpleNamespace(dim=2, apply=lambda u, omega: pgs[0].apply(pgs[1].apply(u, omega),
                                                                           omega))
        assert lipschitz_ratio(chain, om, pgs[0].metric(om), 400, rng) > 1.0

    def test_composition_nonexpansive(self, rng):
        g = rng.uniform(1.0, 2.0, 3)
        W = rng.standard_normal((3, 3))
        W *= 0.9 / spectral_norm_estimate(W)
        om = make_hyperparams([("g", g, "metric-diagonal"),
                               ("W0", W, "layer-matrix"),
                               ("b0", rng.standard_normal(3), "layer-bias")])
        A = rng.standard_normal((3, 3))
        quad = A @ A.T / 5.0
        gam = 0.9 * 2.0 * float(np.min(g)) / spectral_norm_estimate(quad)
        pg = PgOperator(dim=3, quad=quad, l1_weights=np.ones(3),
                        gamma=gam, gdiag="g")
        net = net_op(3, [3, 3], nonlinearity="tanh", conjugate=g)
        comp = CompositeOperator(members=(pg, net))
        comp.validate_omega(om)
        ratio = lipschitz_ratio(comp, om, comp.metric(om), 400, rng)
        assert ratio <= 1.0 + 1e-9

    def test_vjp_matches_fd(self, rng):
        g = rng.uniform(1.0, 2.0, 3)
        W = rng.standard_normal((3, 3))
        W *= 0.8 / spectral_norm_estimate(W)
        om = make_hyperparams([("g", g, "metric-diagonal"),
                               ("W0", W, "layer-matrix"),
                               ("b0", rng.standard_normal(3), "layer-bias")])
        pg = PgOperator(dim=3, quad=np.eye(3) * 0.4, l1_weights=np.ones(3),
                        gamma=0.5, gdiag="g")
        net = net_op(3, [3, 3], nonlinearity="tanh", conjugate="g")
        comp = CompositeOperator(members=(pg, net))
        fd_vjp_check(comp, rng.standard_normal(3), om, rng)

    def test_vjp_runs_no_member_forward(self, rng, monkeypatch):
        om = make_hyperparams([("W0", 0.5 * np.eye(2), "layer-matrix"),
                               ("b0", np.zeros(2), "layer-bias"),
                               ("W1", 0.5 * np.eye(2), "layer-matrix"),
                               ("b1", np.zeros(2), "layer-bias")])
        outer = NetOperator(dim=2, weight_names=("W0",), bias_names=("b0",), widths=(2, 2))
        inner = NetOperator(dim=2, weight_names=("W1",), bias_names=("b1",), widths=(2, 2))
        comp = CompositeOperator(members=(outer, inner))
        res = comp.forward(rng.standard_normal(2), om)[1]
        for m in (outer, inner):
            for name in ("forward", "apply"):
                monkeypatch.setattr(m, name, lambda *args, _n=name:
                                    pytest.fail(f"the composite VJP called a member's {_n}"))
        grad = OmegaGrad(np.zeros(om.dim))
        cs = comp.apply_vjp(res, np.ones(2), grad)
        grad.reduce()
        np.testing.assert_allclose(cs, 0.25 * np.ones(2))


def reverse_case(name, rng):
    """An operator and an admissible omega for each reverse-rule case."""
    g = ("g", rng.uniform(1.0, 2.0, 3), "metric-diagonal")
    W = rng.standard_normal((3, 3))
    net_parts = [("W0", W * (0.8 / spectral_norm_estimate(W)), "layer-matrix"),
                 ("b0", rng.standard_normal(3), "layer-bias")]
    pg = PgOperator(dim=3, quad=np.eye(3) * 0.4, lin=rng.standard_normal(3),
                    l1_weights=np.ones(3), gamma="gam", gdiag="g", thresh="kap")
    pg_parts = [g, ("gam", 0.5, "step-size"), ("kap", 0.3, "threshold")]
    if name == "pg":
        return pg, make_hyperparams(pg_parts)
    if name == "net":
        return net_op(3, [3, 3], nonlinearity="tanh", conjugate="g"), make_hyperparams(
            [g] + net_parts)
    if name == "composite":
        # both members write the gradient of the shared slice g
        net = net_op(3, [3, 3], nonlinearity="tanh", conjugate="g")
        return CompositeOperator(members=(pg, net)), make_hyperparams(pg_parts + net_parts)
    if name == "dladmm":
        Q = rng.standard_normal((3, 4))
        op = dladmm_op(Q / np.linalg.norm(Q, axis=0), rng.standard_normal(3))
        return op, dladmm_omega(beta=0.3, gamma=0.8, rho_mult1=1.4, rho_mult2=1.3,
                                k1=0.2, k2=0.3, LQ=op.lipschitz_Q)
    n, w = 4, np.array([0.0, 0.0, 1.0, 1.0])
    smooth = w == 0
    quad = np.diag([1.0, 0.8, 0.0, 0.0])
    # the second row of A touches one l1 coordinate only, so the l1 block decouples in K
    A = np.array([[1.0, 0.3, 0.0, 0.0], [0.0, 0.0, 0.0, 1.7]])
    kwargs = dict(nprimal=n, ndual=2, A=A, bvec=rng.standard_normal(2), quad=quad,
                  lin=rng.standard_normal(n), l1_weights=w, beta="beta",
                  thresh_groups=(("kap", ~smooth),))
    parts = [("beta", 0.5, "penalty"), ("kap", 0.3, "threshold")]
    if name == "alm-slice":
        return AlmOperator(gmode="slice", gdiag="g", **kwargs), make_hyperparams(
            parts + [("g", rng.uniform(1.0, 2.0, n), "metric-diagonal")])
    return AlmOperator(gmode="rho-lin", rho_groups=(("rho_s", smooth), ("rho_l", ~smooth)),
                       **kwargs), make_hyperparams(
        parts + [("rho_s", 2.2, "penalty"), ("rho_l", 1.9, "penalty")])


REVERSE_CASES = ["pg", "alm-slice", "alm-rho-lin", "dladmm", "net", "composite"]


class TestReverseContract:
    """Both reverse rules add into a gradient the caller owns."""

    @pytest.mark.parametrize("batch", [None, 3], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("case", REVERSE_CASES)
    def test_metric_quad_vjp_matches_fd(self, case, batch, rng):
        op, om = reverse_case(case, rng)
        op.validate_omega(om)
        shape = (op.dim,) if batch is None else (op.dim, batch)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        grad = OmegaGrad(np.zeros(om.dim))
        op.metric_quad_vjp(om, x, y, grad, 0.37)
        grad = grad.reduce()

        def quad(values):
            return float(np.sum(x * op.metric(om.with_values(values)).apply(y)))

        fd = np.zeros(om.dim)
        for i in range(om.dim):
            h = 1e-6 * (abs(om.values[i]) + 1.0)
            vp, vm = om.values.copy(), om.values.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (quad(vp) - quad(vm)) / (2 * h)
        assert np.any(fd != 0)
        np.testing.assert_allclose(grad, 0.37 * fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("case", REVERSE_CASES)
    def test_rules_add_to_what_grad_holds(self, case, rng):
        op, om = reverse_case(case, rng)
        op.validate_omega(om)
        state, cot = rng.standard_normal(op.dim), rng.standard_normal(op.dim)
        x, y = rng.standard_normal(op.dim), rng.standard_normal(op.dim)
        g0 = rng.standard_normal(om.dim)
        res = op.forward(state, om)[1]
        for rule in (lambda grad: op.apply_vjp(res, cot, grad),
                     lambda grad: op.metric_quad_vjp(om, x, y, grad, 0.37)):
            fresh, grad = OmegaGrad(np.zeros(om.dim)), OmegaGrad(g0.copy())
            out = rule(fresh)
            assert np.any(fresh.reduce() != 0)
            if out is None:
                assert rule(grad) is None
            else:
                np.testing.assert_array_equal(rule(grad), out)
            np.testing.assert_allclose(grad.reduce(), g0 + fresh.values, rtol=1e-12, atol=1e-12)


def refused_omega(case, om):
    """An omega derived from ``reverse_case``'s that the operator's certificate refuses."""
    if case in ("pg", "composite"):
        return om.replace_slice("gam", 11.0)            # above 2 lambda_min(G) / L_f <= 10
    if case.startswith("alm"):
        return om.replace_slice("kap", -0.3)            # negative l1 weights
    if case == "dladmm":
        return om.replace_slice("rho1", 0.5 * om.view("rho1").item())   # below beta L_Q^2
    return om.replace_slice("W0", 2.0 * om.view("W0"))   # a layer at 1.6, over its budget 1


class TestOneAdmissionRule:
    """``forward``, ``metric`` and ``validate_omega`` admit an omega by one rule."""

    @staticmethod
    def verdicts(build):
        """The ContractError message of each method (None where it admits), each
        asked of a fresh operator so no method sees another's binding."""
        out = []
        for call in (lambda op, om: op.validate_omega(om), lambda op, om: op.metric(om),
                     lambda op, om: op.forward(np.zeros(op.dim), om)):
            op, om = build()
            try:
                call(op, om)
                out.append(None)
            except ContractError as err:
                out.append(str(err))
        return out

    @pytest.mark.parametrize("case", REVERSE_CASES)
    def test_forward_and_metric_refuse_what_validation_refuses(self, case):
        def build(refuse):
            op, om = reverse_case(case, np.random.default_rng(7))
            return op, refused_omega(case, om) if refuse else om

        assert self.verdicts(lambda: build(False)) == [None] * 3
        refused = self.verdicts(lambda: build(True))
        assert refused[0] is not None and refused == [refused[0]] * 3

    @pytest.mark.parametrize("d", [-1e-9, -5e-13, 0.0, 1e-9])
    def test_dladmm_boundary_has_one_verdict(self, d):
        # rho1 = beta L_Q^2 (1 + d): the rho1 certificate is the proof that the lead
        # rho1 I - beta Q^T Q of H is positive definite, with no slack either way
        def build():
            rng = np.random.default_rng(3)
            op = dladmm_op(rng.standard_normal((8, 16)), rng.standard_normal(8))
            beta = 0.1
            rho1 = beta * op.lipschitz_Q ** 2 * (1.0 + d)
            return op, dladmm_omega(beta=beta).replace_slice("rho1", rho1)

        verdicts = self.verdicts(build)
        if d > 0:
            assert verdicts == [None] * 3
        else:
            assert verdicts[0] is not None and verdicts == [verdicts[0]] * 3
            assert "rho1=" in verdicts[0] and "beta L_Q^2" in verdicts[0]

    @pytest.mark.parametrize("d", [-1e-12, 0.0, 1e-12])
    @pytest.mark.parametrize("margin", ["pg-gamma", "net-layer", "dladmm-rho2"])
    def test_zero_margin_admitted(self, margin, d):
        # a margin that is not an eigenvalue of H is admitted at zero and refused past it;
        # each bound is the expression its binding computes, moved past by a factor 1 + d
        def build():
            rng = np.random.default_rng(5)
            if margin == "pg-gamma":
                g, A = rng.uniform(1.0, 2.0, 3), rng.standard_normal((3, 3))
                op = PgOperator(dim=3, quad=A @ A.T, gamma="gam", gdiag="g")
                bound = 2.0 * float(np.min(g)) / op.lipschitz_f
                return op, make_hyperparams([("g", g, "metric-diagonal"),
                                             ("gam", bound * (1.0 + d), "step-size")])
            if margin == "net-layer":
                op = net_op(3, [3, 3], rho_bar=0.5)
                return op, net_omega([op.budget * (1.0 + d) * np.eye(3)], [np.zeros(3)])
            op = dladmm_op(rng.standard_normal((4, 6)), rng.standard_normal(4))
            om = dladmm_omega(beta=0.1, rho_mult1=1.5, LQ=op.lipschitz_Q)
            return op, om.replace_slice("rho2", om.view("beta").item() / (1.0 + d))

        verdicts = self.verdicts(build)
        if d > 0:
            assert verdicts[0] is not None and verdicts == [verdicts[0]] * 3
        else:
            assert verdicts == [None] * 3

    @pytest.mark.parametrize("case, entries, admitted", [
        ("pg-gdiag", 3, False), ("pg-gdiag", 1, True),
        ("alm-gdiag", 2, False), ("alm-gdiag", 1, True),
        ("net-conjugate", 2, False), ("net-conjugate", 1, True),
        ("net-bias", 2, False), ("net-bias", 1, False)])
    def test_slice_of_another_size_refused_by_name(self, case, entries, admitted):
        # a one-entry slice fills a diagonal; any other size than 1 or dim is refused
        # where the binding reads it, and a bias is never broadcast to its layer width
        def build():
            part = np.full(entries, 1.5)
            if case == "pg-gdiag":
                return PgOperator(dim=5, gdiag="g"), make_hyperparams(
                    [("g", part, "metric-diagonal")])
            if case == "alm-gdiag":
                return AlmOperator(nprimal=3, ndual=2, A=np.ones((2, 3)), bvec=np.zeros(2),
                                   quad=np.eye(3), gmode="slice", gdiag="g"), make_hyperparams(
                    [("g", part, "metric-diagonal")])
            if case == "net-conjugate":
                return net_op(3, [3, 3], conjugate="g"), make_hyperparams(
                    [("g", part, "metric-diagonal"), ("W0", 0.5 * np.eye(3), "layer-matrix"),
                     ("b0", np.zeros(3), "layer-bias")])
            return net_op(3, [3, 3]), net_omega([0.5 * np.eye(3)], [part])

        verdicts = self.verdicts(build)
        if admitted:
            assert verdicts == [None] * 3
        else:
            name = "b0" if case == "net-bias" else "g"
            assert verdicts[0] is not None and verdicts == [verdicts[0]] * 3
            assert f"slice {name!r} has {entries} entries" in verdicts[0]

    def test_no_operator_overrides_the_admission_rule(self):
        # metric and validate_omega are written once, on _Operator, over each _bind
        subclasses = operators._Operator.__subclasses__()
        assert len(subclasses) == 5
        for cls in subclasses:
            assert not {"metric", "validate_omega"} & set(vars(cls)), cls.__name__

    def test_each_operator_writes_its_reverse_rules_one_way(self):
        # each operator writes apply_vjp itself, reading no omega, and adds its metric's
        # derivative through _quad_vjp under the one metric_quad_vjp on _Operator
        for cls in operators._Operator.__subclasses__():
            assert not {"_vjp", "metric_quad_vjp"} & set(vars(cls)), cls.__name__
            params = list(inspect.signature(vars(cls)["apply_vjp"]).parameters)
            assert params == ["self", "res", "cot", "grad"], cls.__name__

    def test_composite_checks_member_metrics_once_per_omega_object(self, rng, monkeypatch):
        comp, om = reverse_case("composite", rng)
        calls = []
        member_metric = comp.members[1].metric
        monkeypatch.setattr(comp.members[1], "metric",
                            lambda omega: calls.append(1) or member_metric(omega))
        comp.validate_omega(om)
        comp.validate_omega(om)
        comp.metric(om)
        assert len(calls) == 1
        comp.validate_omega(om.with_values(om.values))
        assert len(calls) == 2


class TestWorkPerOuterStep:
    def test_one_power_iteration_per_layer_per_step(self, monkeypatch):
        inst = gen_deconv(n=16, seed=4)
        bundle = build_deconv_operator(inst, net_widths=(16,), seed=7)
        # a learning rate large enough that some updates push a layer over budget
        cfg = bmo_config(ExperimentConfig({"task": "deconv", "bmo.gamma_lr": 0.1}),
                         bundle, K=4, T=6)
        per_step = [0]  # calls before the first outer step are not counted against it
        measure = operators.spectral_norm_estimate

        def counted(A, *args, **kwargs):
            per_step[-1] += 1
            return measure(A, *args, **kwargs)

        run_inner = bmo.inner_loop

        def inner(*args, **kwargs):
            per_step.append(0)
            return run_inner(*args, **kwargs)

        rescaled = [0]
        rescale = operators._rescale_layers

        def counted_rescale(omega, names, budget):
            out, norms = rescale(omega, names, budget)
            rescaled[0] += sum(not np.array_equal(out.view(n), omega.view(n)) for n in names)
            return out, norms

        monkeypatch.setattr(operators, "spectral_norm_estimate", counted)
        monkeypatch.setattr(operators, "_rescale_layers", counted_rescale)
        monkeypatch.setattr(bmo, "inner_loop", inner)
        bmo.train(bundle.op, bundle.loss, bundle.omega0, cfg)
        nlayers = 2
        assert len(per_step) == cfg.T + 1
        # the bundle's renormalize_for bound omega0, so train measures nothing before step 0
        assert per_step[0] == 0, per_step
        assert all(n <= nlayers for n in per_step[1:]), per_step
        assert rescaled[0] > 0


class TestApplyT:
    def test_identity_operator(self, rng):
        om = net_omega([np.eye(2)], [np.zeros(2)])
        op = net_op(2, [2, 2])
        u = rng.standard_normal(2)
        for alpha in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(apply_T(op, u, om, BmoConfig(alpha=alpha)), u)

    def test_zero_map(self):
        om = net_omega([np.zeros((1, 1))], [np.zeros(1)])
        op = net_op(1, [1, 1])
        out = apply_T(op, np.array([2.0]), om, BmoConfig(alpha=0.5))
        np.testing.assert_allclose(out, [1.0])

    def test_half_map(self):
        om = net_omega([0.5 * np.eye(1)], [np.zeros(1)])
        op = net_op(1, [1, 1])
        out = apply_T(op, np.array([1.0]), om, BmoConfig(alpha=0.9))
        np.testing.assert_allclose(out, [0.55])

    def test_alpha_range(self):
        om = net_omega([0.5 * np.eye(1)], [np.zeros(1)])
        op = net_op(1, [1, 1])
        for alpha in (0.0, 1.0):
            with pytest.raises(ContractError, match="alpha"):
                km_iterate(op, om, BmoConfig(alpha=alpha), np.ones(1), 3)

    def test_averaged_operator_inequality(self, rng):
        # |u1-u2|^2_H - |Tu1-Tu2|^2_H >= (1-a)/a |(u1-Tu1)-(u2-Tu2)|^2_H
        m, n = 4, 6
        Q = rng.standard_normal((m, n))
        Q /= np.linalg.norm(Q, axis=0)
        op = dladmm_op(Q, rng.standard_normal(m))
        om = dladmm_omega(beta=0.2, rho_mult1=1.2, rho_mult2=1.1, k1=0.5, k2=0.5,
                          LQ=op.lipschitz_Q)
        H = op.metric(om)
        alpha = 0.7
        cfg = BmoConfig(alpha=alpha)
        for _ in range(500):
            u1 = rng.standard_normal(op.dim) * 2.0
            u2 = u1 + rng.standard_normal(op.dim)
            t1, t2 = apply_T(op, u1, om, cfg), apply_T(op, u2, om, cfg)
            lhs = h_norm(H, u1 - u2) ** 2 - h_norm(H, t1 - t2) ** 2
            rhs = (1 - alpha) / alpha * h_norm(H, (u1 - t1) - (u2 - t2)) ** 2
            assert lhs >= rhs - 1e-8

    def test_contraction_mode_unique_limit(self, rng):
        W = rng.standard_normal((3, 3))
        om = normalize_net(net_omega([W], [rng.standard_normal(3) * 0.3]), 0.8)
        op = net_op(3, [3, 3], nonlinearity="tanh", rho_bar=0.8)
        assert contraction_factor(op, om) <= 0.8 + 1e-9
        cfg = BmoConfig(alpha=0.6)
        xs = []
        for start in (rng.standard_normal(3) * 5, rng.standard_normal(3) * 5):
            u = start
            for _ in range(400):
                u = apply_T(op, u, om, cfg)
            xs.append(u)
        assert np.linalg.norm(xs[0] - xs[1]) < 1e-8
