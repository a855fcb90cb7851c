import dataclasses
import math

import numpy as np
import pytest

from conftest import checked_apply, lipschitz_ratio
from gkmbmo import operators, tasks
from gkmbmo.errors import ContractError, FormatError
from gkmbmo.hypergrad import LossDescriptor, inner_loop
from gkmbmo.bmo import BmoConfig
from gkmbmo.metric import h_norm, min_eigen_estimate, spectral_norm_estimate
from gkmbmo.tasks import (build_deconv_operator, build_separation_operator,
                          build_sparse_coding_operator, circulant,
                          circulant_sigma_max, forward_diff, gen_deconv,
                          gen_separation, gen_sparse_coding, haar_matrix,
                          load_instance, psnr, save_instance, ssim)


class TestGenSparseCoding:
    def test_zero_sparsity_limit(self):
        inst = gen_sparse_coding(m=8, n=16, batch=4, sparsity=1e-9, noise_frac=0.0,
                                 seed=1)
        np.testing.assert_allclose(inst.b, inst.Q @ inst.codes)
        assert np.count_nonzero(inst.codes) == 4  # ceil(eps * n) = 1 per column

    def test_default_shape_and_nnz(self):
        inst = gen_sparse_coding(m=64, n=128, batch=16, sparsity=0.1, noise_frac=0.1,
                                 seed=3)
        assert inst.Q.shape == (64, 128)
        nnz = np.count_nonzero(inst.codes, axis=0)
        assert np.all(nnz == 13)  # ceil(0.1 * 128)
        assert np.all(np.count_nonzero(inst.noise_mask, axis=0) == round(0.1 * 64))

    def test_unit_columns(self):
        inst = gen_sparse_coding(m=16, n=32, batch=2, seed=5)
        np.testing.assert_allclose(np.linalg.norm(inst.Q, axis=0), 1.0, rtol=1e-12)

    def test_determinism(self):
        a = gen_sparse_coding(m=16, n=32, batch=8, seed=9)
        b = gen_sparse_coding(m=16, n=32, batch=8, seed=9)
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.b, b.b)
        assert np.array_equal(a.b_test, b.b_test)

    def test_invalid_ranges(self):
        with pytest.raises(ContractError):
            gen_sparse_coding(m=32, n=32)
        with pytest.raises(ContractError):
            gen_sparse_coding(m=8, n=16, noise_frac=1.0)


class TestSparseCodingOperator:
    def test_certificate_at_defaults(self):
        inst = gen_sparse_coding(m=16, n=32, batch=4, seed=2)
        bundle = build_sparse_coding_operator(inst)
        om = bundle.omega0
        beta = om.view("beta").item()
        assert om.view("rho1").item() >= beta * bundle.op.lipschitz_Q ** 2
        assert om.view("rho2").item() >= beta
        bundle.op.validate_omega(om)

    def test_table_defaults_read_back(self):
        inst = gen_sparse_coding(m=16, n=32, batch=4, seed=2)
        bundle = build_sparse_coding_operator(inst)
        assert bundle.omega0.view("beta").item() == pytest.approx(0.1)
        assert bundle.omega0.view("gamma").item() == pytest.approx(1.0)

    def test_single_column_batch_accepts_flat_state(self):
        inst = gen_sparse_coding(m=2, n=4, batch=1, seed=0)
        bundle = build_sparse_coding_operator(inst)
        flat = bundle.op.apply(np.zeros(bundle.op.dim), bundle.omega0)
        assert flat.shape == (bundle.op.dim,)
        batched = bundle.op.apply(np.zeros((bundle.op.dim, 1)), bundle.omega0)
        np.testing.assert_allclose(flat, batched[:, 0])

    def test_ladmm_variant_exposes_two_slices(self):
        inst = gen_sparse_coding(m=16, n=32, batch=4, seed=2)
        bundle = build_sparse_coding_operator(inst, learnable="ladmm")
        assert [s.name for s in bundle.omega0.layout] == ["beta", "gamma"]
        bundle.op.validate_omega(bundle.omega0)

    def test_nonexpansive_at_defaults(self, rng):
        inst = gen_sparse_coding(m=8, n=16, batch=1, seed=4)
        bundle = build_sparse_coding_operator(inst)
        H = bundle.op.metric(bundle.omega0)
        ratio = lipschitz_ratio(bundle.op, bundle.omega0, H, 300, rng)
        assert ratio <= 1.0 + 1e-9


class TestDeconv:
    def test_haar_orthonormal(self):
        for n in (2, 8, 64):
            W = haar_matrix(n)
            assert np.linalg.norm(W.T @ W - np.eye(n)) <= 1e-10

    def test_wavelet_round_trip(self, rng):
        W = haar_matrix(32)
        x = rng.standard_normal(32)
        assert np.linalg.norm(W.T @ (W @ x) - x) <= 1e-10

    def test_circulant_sigma_analytic(self):
        kernel = np.array([0.25, 0.5, 0.25])
        n = 16
        C = circulant(kernel, n)
        assert circulant_sigma_max(kernel, n) == pytest.approx(
            np.linalg.svd(C, compute_uv=False)[0], rel=1e-10)

    def test_lf_equals_sigma_q_squared(self):
        inst = gen_deconv(n=32, seed=1)
        bundle = build_deconv_operator(inst, identity_net=True)
        pg = bundle.op.members[0]
        Lf = circulant_sigma_max(inst.kernel, 32) ** 2
        assert np.linalg.svd(pg.quad, compute_uv=False)[0] == pytest.approx(Lf, rel=1e-8)

    def test_identity_net_reduces_to_ista(self, rng):
        # net = identity, G = Lf * I: one composite step equals the plain
        # prox-gradient step on |Qc W^T z - b|^2/2 + kappa |z|_1
        inst = gen_deconv(n=16, seed=2)
        bundle = build_deconv_operator(inst, identity_net=True)
        pg = bundle.op.members[0]
        z = rng.standard_normal(16)
        out = bundle.op.apply(z, bundle.omega0)
        ref = checked_apply(pg, z, bundle.omega0)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_kernel_pure_shrinkage(self, rng):
        inst = gen_deconv(n=16, seed=3)
        inst.kernel[:] = 0.0
        inst.b[:] = 0.0
        bundle = build_deconv_operator(inst, identity_net=True)
        pg = bundle.op.members[0]
        om = bundle.omega0
        z = rng.standard_normal(16)
        g = om.view("gdiag")
        kap = om.view("kappa").item()
        expected = np.sign(z) * np.maximum(np.abs(z) - kap / g, 0.0)
        np.testing.assert_allclose(checked_apply(pg, z, om), expected, atol=1e-12)

    def test_composite_nonexpansive_at_defaults(self, rng):
        inst = gen_deconv(n=16, seed=4)
        bundle = build_deconv_operator(inst, net_widths=(16,), seed=7)
        H = bundle.op.metric(bundle.omega0)
        bundle.op.validate_omega(bundle.omega0)
        ratio = lipschitz_ratio(bundle.op, bundle.omega0, H, 300, rng)
        assert ratio <= 1.0 + 1e-9


class TestSeparation:
    def test_layers_sum_exactly(self):
        inst = gen_separation(n=32, seed=1)
        np.testing.assert_array_equal(inst.b, inst.u_b + inst.u_r)

    def test_gradient_operator_tridiagonal(self):
        D = forward_diff(8)
        DtD = D.T @ D
        for i in range(8):
            for j in range(8):
                if abs(i - j) > 1:
                    assert DtD[i, j] == 0.0

    def test_zero_data_large_thresholds_zero_fixed_point(self):
        inst = gen_separation(n=16, seed=2, kappa_b=50.0, kappa_r=50.0)
        inst.u_b[:] = 0.0
        inst.u_r[:] = 0.0
        inst.b[:] = 0.0
        bundle = build_separation_operator(inst)
        z = np.zeros(bundle.op.dim)
        out = bundle.op.apply(z, bundle.omega0)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_kkt_point_is_fixed(self, rng):
        # construct (u*, lam*) solving the KKT system and check invariance
        n = 16
        inst = gen_separation(n=n, seed=3)
        D = forward_diff(n)
        u_r = np.zeros(n)
        u_r[n // 2:] = 1.0  # one jump: sparse gradient
        v_r = D @ u_r
        kappa_r = 0.3
        lam_r = np.zeros(n)
        lam_r[np.abs(v_r) > 1e-12] = kappa_r * np.sign(v_r[np.abs(v_r) > 1e-12])
        r = -(D.T @ lam_r)          # stationarity of u_r
        lam_b = -r                  # stationarity of u_b at u_b* = 0
        kappa_b = float(np.max(np.abs(lam_b))) * 1.5 + 0.1
        inst.u_b[:] = 0.0
        inst.u_r[:] = u_r
        inst.b[:] = u_r - r         # makes the data residual equal r
        inst.kappa_b = kappa_b
        inst.kappa_r = kappa_r
        bundle = build_separation_operator(inst)
        state = np.concatenate([np.zeros(n), u_r, np.zeros(n), v_r, lam_b, lam_r])
        out = bundle.op.apply(state, bundle.omega0)
        assert np.linalg.norm(out - state) < 1e-8

    def test_metric_blocks_match_construction(self):
        inst = gen_separation(n=8, seed=4)
        bundle = build_separation_operator(inst)
        om = bundle.omega0
        H = bundle.op.metric(om)
        G = H.lead
        n = 8
        beta = om.view("beta").item()
        np.testing.assert_allclose(np.diag(G)[:n], om.view("rho_ub").item() - beta)
        D = forward_diff(n)
        np.testing.assert_allclose(G[n:2 * n, n:2 * n],
                                   om.view("rho_ur").item() * np.eye(n) - beta * D.T @ D)
        np.testing.assert_allclose(np.diag(G)[2 * n:3 * n], om.view("rho_vb").item() - beta)
        np.testing.assert_allclose(np.diag(G)[3 * n:], om.view("rho_vr").item() - beta)
        np.testing.assert_allclose(H.tail, np.full(2 * n, 1.0 / beta))

    def test_beta_above_bound_rejected(self):
        inst = gen_separation(n=8, seed=5)
        bundle = build_separation_operator(inst)
        om = bundle.omega0
        bad = om.replace_slice("beta", np.array([om.view("rho_ub").item() / 2.0]))
        with pytest.raises(ContractError):
            bundle.op.validate_omega(bad)

    def test_nonexpansive_at_defaults(self, rng):
        inst = gen_separation(n=12, seed=6)
        bundle = build_separation_operator(inst)
        H = bundle.op.metric(bundle.omega0)
        ratio = lipschitz_ratio(bundle.op, bundle.omega0, H, 300, rng)
        assert ratio <= 1.0 + 1e-9

    def test_inner_loop_runs(self):
        inst = gen_separation(n=16, seed=7)
        bundle = build_separation_operator(inst)
        bound = min_eigen_estimate(bundle.op.metric(bundle.omega0)) / bundle.loss.smoothness()
        cfg = BmoConfig(alpha=0.9, mu=0.1, s=0.5 * bound, K=10)
        u, tape, recs = inner_loop(bundle.op, bundle.loss, bundle.omega0, cfg,
                                   u0=bundle.u0)
        assert len(recs) == 10
        assert np.all(np.isfinite(u))


def _dense(H):
    return H.apply(np.eye(H.dim))


# beta and gamma lower H(omega) as they grow, every rho and metric diagonal
# as it shrinks; the thresholds do not enter H
_H_LOWERING_UPPER_END = frozenset({"beta", "gamma"})


@pytest.fixture(params=["sparse_coding", "sparse_coding_ladmm", "deconv", "separation"])
def bundle(request):
    if request.param.startswith("sparse_coding"):
        learnable = "ladmm" if request.param.endswith("ladmm") else "all"
        return build_sparse_coding_operator(gen_sparse_coding(m=16, n=32, batch=4, seed=8),
                                            learnable=learnable)
    if request.param == "deconv":
        return build_deconv_operator(gen_deconv(n=16, seed=8), net_widths=(8,))
    return build_separation_operator(gen_separation(n=16, seed=8))


class TestLowerBoundMetric:
    """h_lb is H at the box's H-lowest corner, and h_lb <= H(omega) over the box.

    Only the finite box coordinates move: deconv's layer slices, boxed by
    +-inf, do not enter H and stay at omega0.
    """

    @staticmethod
    def at(bundle, values):
        lo, hi = bundle.bounds.lower, bundle.bounds.upper
        finite = np.isfinite(lo) & np.isfinite(hi)
        om = bundle.omega0.with_values(np.where(finite, values, bundle.omega0.values))
        return _dense(bundle.op.metric(om))

    def test_h_lowest_corner(self, bundle):
        upper = np.concatenate([np.full(s.size, s.name in _H_LOWERING_UPPER_END)
                                for s in bundle.omega0.layout])
        corner = np.where(upper, bundle.bounds.upper, bundle.bounds.lower)
        np.testing.assert_array_equal(self.at(bundle, corner), _dense(bundle.h_lb))

    def test_random_points(self, bundle):
        rng = np.random.default_rng(20)
        lo, hi = bundle.bounds.lower, bundle.bounds.upper
        finite = np.isfinite(lo) & np.isfinite(hi)
        for _ in range(20):
            H = self.at(bundle, rng.uniform(np.where(finite, lo, 0.0), np.where(finite, hi, 0.0)))
            lam = np.linalg.eigvalsh(H - _dense(bundle.h_lb))[0]
            assert lam / np.linalg.norm(H, 2) >= -1e-10

    def test_h_monotone_toward_the_corner(self, bundle):
        # the corner is H-lowest because d<x, H x>/domega has one sign per slice
        # over the box: <= 0 for beta and gamma, >= 0 for every rho and metric
        # diagonal, and 0 for slices that do not enter H
        rng = np.random.default_rng(21)
        lo, hi = bundle.bounds.lower, bundle.bounds.upper
        finite = np.isfinite(lo) & np.isfinite(hi)
        for _ in range(20):
            values = rng.uniform(np.where(finite, lo, 0.0), np.where(finite, hi, 0.0))
            om = bundle.omega0.with_values(np.where(finite, values, bundle.omega0.values))
            x = rng.standard_normal(bundle.op.dim)
            grad = operators.OmegaGrad(np.zeros(om.dim))
            bundle.op.metric_quad_vjp(om, x, x, grad, 1.0)
            grad = grad.reduce()
            for s in om.layout:
                g = grad[s.offset:s.offset + s.size]
                if s.name in tasks._H_LOWERING_UPPER_END:
                    assert np.all(g <= 0), s.name
                elif s.role in ("penalty", "metric-diagonal"):
                    assert np.all(g >= 0), s.name
                else:
                    assert np.all(g == 0), s.name


class TestMetrics:
    def test_psnr_identical_inf(self, rng):
        x = rng.standard_normal(32)
        assert psnr(x, x) == math.inf

    def test_psnr_formula(self):
        x = np.zeros(100)
        y = np.full(100, 0.1)
        assert psnr(x, y, peak=1.0) == pytest.approx(20.0)

    def test_ssim_identical_one(self, rng):
        x = rng.standard_normal(64)
        assert ssim(x, x) == pytest.approx(1.0)

    def test_ssim_symmetric(self, rng):
        for _ in range(5):
            x = rng.standard_normal(64)
            y = rng.standard_normal(64)
            assert ssim(x, y) == pytest.approx(ssim(y, x), rel=1e-12)

    def test_ssim_2d(self, rng):
        x = rng.standard_normal((16, 16))
        assert ssim(x, x) == pytest.approx(1.0)
        assert ssim(x, x + 0.5) < 1.0


class TestSparseCodingBuild:
    @pytest.mark.parametrize("learnable", ["all", "ladmm"])
    def test_measures_q_once(self, learnable, monkeypatch):
        inst = gen_sparse_coding(m=8, n=16, batch=4, seed=2)
        calls = []

        def counting(A, *args, **kwargs):
            calls.append(A.shape)
            return spectral_norm_estimate(A, *args, **kwargs)

        monkeypatch.setattr(tasks, "spectral_norm_estimate", counting)
        monkeypatch.setattr(operators, "spectral_norm_estimate", counting)
        bundle = build_sparse_coding_operator(inst, learnable=learnable)
        assert calls == [(8, 16)]
        floor = tasks.RHO1_MARGIN * 0.125 * spectral_norm_estimate(inst.Q) ** 2
        rho1 = bundle.omega0.view("rho1").item() if learnable == "all" else bundle.op.rho1
        assert rho1 == floor


class TestDeconvBuild:
    def test_measures_each_matrix_once(self, monkeypatch):
        inst = gen_deconv(n=16, seed=4)
        calls = []

        def counting(A, *args, **kwargs):
            calls.append(A.shape)
            return spectral_norm_estimate(A, *args, **kwargs)

        monkeypatch.setattr(tasks, "spectral_norm_estimate", counting)
        monkeypatch.setattr(operators, "spectral_norm_estimate", counting)
        bundle = build_deconv_operator(inst, net_widths=(16,), seed=7)
        # PG's L_f, then each layer once by renormalize_for; binding the H-lowest
        # corner for h_lb measures no layer
        assert calls == [(16, 16)] * (1 + bundle.op.members[1].nlayers)


class TestContainer:
    def test_round_trip_sparse(self, tmp_path):
        inst = gen_sparse_coding(m=8, n=16, batch=4, seed=11)
        path = tmp_path / "instance.bin"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.Q, inst.Q)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.noise_mask, inst.noise_mask)
        assert back.kappa1 == inst.kappa1
        assert back.seed == inst.seed

    def test_round_trip_deconv_and_separation(self, tmp_path):
        for inst in (gen_deconv(n=16, seed=1), gen_separation(n=16, seed=1)):
            path = tmp_path / "x.bin"
            save_instance(inst, path)
            back = load_instance(path)
            assert np.array_equal(back.b, inst.b)

    def test_byte_identical_for_same_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_instance(gen_sparse_coding(m=8, n=16, batch=4, seed=3), p1)
        save_instance(gen_sparse_coding(m=8, n=16, batch=4, seed=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTANINSTANCE...." + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_instance(path)

    @pytest.mark.parametrize("inst, scalar", [
        (gen_sparse_coding(m=4, n=8, batch=2, seed=1), "kappa1"),
        (gen_deconv(n=16, seed=1), "sigma"),
        (gen_separation(n=16, seed=1), "kappa_b"),
    ], ids=["sparse_coding", "deconv", "separation"])
    def test_non_finite_refused_by_name(self, inst, scalar, tmp_path):
        path = tmp_path / "i.bin"
        b = inst.b.copy()
        b.flat[0] = math.nan
        save_instance(dataclasses.replace(inst, b=b), path)
        with pytest.raises(FormatError, match="array 'b'"):
            load_instance(path)
        save_instance(dataclasses.replace(inst, **{scalar: math.inf}), path)
        with pytest.raises(FormatError, match=f"scalar '{scalar}'"):
            load_instance(path)

    def test_manifest_records_prng(self, tmp_path):
        import json, struct
        inst = gen_deconv(n=16, seed=2)
        path = tmp_path / "i.bin"
        save_instance(inst, path)
        raw = path.read_bytes()
        (blen,) = struct.unpack("<I", raw[16:20])
        manifest = json.loads(raw[20:20 + blen])
        assert manifest["prng"] == "philox4x64"
