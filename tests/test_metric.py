import math

import numpy as np
import pytest

from gkmbmo.bmo import BmoConfig
from gkmbmo.errors import CapabilityError, ContractError
from gkmbmo.metric import (MetricMatrix, h_inner, h_norm, h_project, min_eigen_estimate,
                           spectral_norm_estimate)
from gkmbmo.operators import OmegaBox


def dense(M):
    """A metric that is all lead block, with an empty tail."""
    return MetricMatrix(M, np.zeros(0))


class TestHInner:
    def test_identity(self):
        H = MetricMatrix.identity(2)
        assert h_inner(H, np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_scaled_identity_diag(self):
        H = MetricMatrix.diagonal([2.0, 2.0])
        assert h_inner(H, np.ones(2), np.ones(2)) == pytest.approx(4.0)

    def test_diag_direct_evaluation(self):
        H = MetricMatrix.diagonal([1.0, 4.0])
        assert h_inner(H, np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        H = MetricMatrix.diagonal(rng.uniform(0.5, 2.0, 7))
        u, v = rng.standard_normal(7), rng.standard_normal(7)
        assert h_inner(H, u, v) == pytest.approx(h_inner(H, v, u), rel=1e-12)

    def test_dim_mismatch(self):
        H = MetricMatrix.identity(2)
        with pytest.raises(ContractError):
            h_inner(H, np.ones(3), np.ones(3))


class TestHNorm:
    def test_identity(self):
        assert h_norm(MetricMatrix.identity(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero_vector(self):
        assert h_norm(MetricMatrix.diagonal([1.0, 4.0]), np.zeros(2)) == 0.0

    def test_diag(self):
        assert h_norm(MetricMatrix.diagonal([1.0, 4.0]), np.ones(2)) == pytest.approx(math.sqrt(5.0))

    def test_norm_squared_equals_inner(self, rng):
        for _ in range(50):
            d = rng.integers(1, 12)
            H = MetricMatrix.diagonal(rng.uniform(0.1, 3.0, d))
            u = rng.standard_normal(d)
            assert h_norm(H, u) ** 2 == pytest.approx(h_inner(H, u, u), rel=1e-12, abs=1e-300)


def _metrics(rng):
    A = rng.standard_normal((9, 9))
    spd = A @ A.T + np.eye(9)
    return {
        "identity": MetricMatrix.identity(9, scale=1.7),
        "diagonal": MetricMatrix.diagonal(rng.uniform(0.1, 3.0, 9)),
        "dense": dense(spd),
        "block": MetricMatrix(spd, np.full(4, 0.3)),
    }


class TestColumns:
    """columns=True reduces each column of a stack on its own."""

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "dense", "block"])
    def test_matches_per_column_loop(self, kind, rng):
        H = _metrics(rng)[kind]
        # a transposed C-ordered buffer, the layout the inner loop's records pass
        U = rng.standard_normal((11, H.dim)).T
        V = rng.standard_normal((11, H.dim)).T
        inner = h_inner(H, U, V, columns=True)
        norm = h_norm(H, U, columns=True)
        assert inner.shape == norm.shape == (11,)
        np.testing.assert_allclose(inner, [h_inner(H, U[:, j], V[:, j]) for j in range(11)],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(norm, [h_norm(H, U[:, j]) for j in range(11)],
                                   rtol=1e-12, atol=0)

    def test_batched_default_reduces_over_all_entries(self, rng):
        H = _metrics(rng)["block"]
        U = rng.standard_normal((H.dim, 6))
        assert h_norm(H, U) ** 2 == pytest.approx(np.sum(h_norm(H, U, columns=True) ** 2),
                                                  rel=1e-12)


class TestHProject:
    def test_none_is_identity(self, rng):
        u = rng.standard_normal(5)
        out = h_project(dense(np.eye(5) + 0.1 * np.ones((5, 5))), None, u)
        np.testing.assert_array_equal(out, u)

    def test_box_clamp(self):
        H = MetricMatrix.diagonal([1.0, 2.0])
        U = OmegaBox([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(h_project(H, U, np.array([2.0, -1.0])), [1.0, 0.0])

    def test_dense_box_rejected(self):
        H = dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        U = OmegaBox([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(CapabilityError):
            h_project(H, U, np.array([2.0, 2.0]))

    @pytest.mark.parametrize("pairing", ["full", "box"])
    def test_firm_nonexpansiveness(self, pairing, rng):
        # ||ub - u||^2 >= ||ub - Pu||^2 + ||Pu - u||^2 for ub in U
        d = 6
        H = MetricMatrix.diagonal(rng.uniform(0.5, 2.0, d))
        U = OmegaBox(-np.ones(d), np.ones(d)) if pairing == "box" else None
        for _ in range(1000):
            u = rng.standard_normal(d) * 3.0
            ub = h_project(H, U, rng.standard_normal(d) * 3.0)
            pu = h_project(H, U, u)
            lhs = h_norm(H, ub - u) ** 2
            rhs = h_norm(H, ub - pu) ** 2 + h_norm(H, pu - u) ** 2
            assert lhs >= rhs - 1e-10


class TestMinEigen:
    def test_diag(self):
        assert min_eigen_estimate(MetricMatrix.diagonal([1.0, 4.0])) == 1.0

    def test_identity(self):
        assert min_eigen_estimate(MetricMatrix.identity(5)) == 1.0

    def test_dense_by_hand(self):
        H = dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert min_eigen_estimate(H) == pytest.approx(1.0, rel=1e-7)

    def test_block_of_diagonals(self):
        H = MetricMatrix(np.diag([3.0, 2.0]), np.full(2, 0.5))
        assert min_eigen_estimate(H) == 0.5

    def test_random_dense_vs_eigh(self, rng):
        for _ in range(10):
            n = rng.integers(2, 12)
            A = rng.standard_normal((n, n))
            M = A @ A.T + 0.3 * np.eye(n)
            est = min_eigen_estimate(dense(M))
            assert est == pytest.approx(np.linalg.eigvalsh(M)[0], rel=1e-6)

    def test_eigen_sandwich(self, rng):
        n = 8
        A = rng.standard_normal((n, n))
        M = A @ A.T + 0.5 * np.eye(n)
        H = dense(M)
        lo = min_eigen_estimate(H)
        hi = np.linalg.eigvalsh(M)[-1]
        for _ in range(1000):
            u = rng.standard_normal(n)
            sq = h_norm(H, u) ** 2
            n2 = float(u @ u)
            assert lo * n2 - 1e-9 <= sq <= hi * n2 + 1e-9


class TestDenseFactor:
    """A dense block computes its spectrum once at build and its inverse once at first solve."""

    @staticmethod
    def spd(rng, n):
        A = rng.standard_normal((n, n))
        return A @ A.T + 0.3 * np.eye(n)

    def test_solve_matches_linalg_solve(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 40))
            M = self.spd(rng, n)
            H = dense(M)
            for shape in ((n,), (n, 5)):
                b = rng.standard_normal(shape)
                ref = np.linalg.solve(M, b)
                err = np.linalg.norm(H.solve(b) - ref) / np.linalg.norm(ref)
                assert err <= 1e-10

    def test_min_eigen_exact(self, rng):
        for _ in range(10):
            M = self.spd(rng, int(rng.integers(1, 40)))
            est = min_eigen_estimate(dense(M))
            assert est == pytest.approx(np.linalg.eigvalsh(M)[0], rel=1e-12)

    def test_indefinite_rejected(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 20))
            M = self.spd(rng, n)
            M -= (np.linalg.eigvalsh(M)[0] + 0.1) * np.eye(n)
            with pytest.raises(ContractError, match="not positive definite"):
                dense(M)

    @pytest.mark.parametrize("n, rank", [(2, 1), (6, 3), (30, 29)])
    def test_singular_rejected(self, rng, n, rank):
        A = rng.standard_normal((n, rank))
        with pytest.raises(ContractError, match="not positive definite"):
            dense(A @ A.T)

    def test_zero_rejected(self):
        with pytest.raises(ContractError, match="not positive definite"):
            dense(np.zeros((3, 3)))


class TestLeadTail:
    """H = blockdiag(lead, diag(tail)): one storage for every metric."""

    def test_apply_and_solve_match_the_full_matrix(self, rng):
        A = rng.standard_normal((5, 5))
        lead, tail = A @ A.T + 0.5 * np.eye(5), rng.uniform(0.5, 2.0, 3)
        H = MetricMatrix(lead, tail)
        M = np.zeros((8, 8))
        M[:5, :5] = lead
        M[5:, 5:] = np.diag(tail)
        assert H.dim == 8 and not H.is_diagonal
        for shape in ((8,), (8, 4)):
            u = rng.standard_normal(shape)
            np.testing.assert_allclose(H.apply(u), M @ u, rtol=1e-12)
            np.testing.assert_allclose(H.solve(u), np.linalg.solve(M, u), rtol=1e-10)

    @pytest.mark.parametrize("tail, expected", [([0.1, 5.0], 0.1), ([5.0, 6.0], 1.0)],
                             ids=["tail-lowest", "lead-lowest"])
    def test_min_eigen_reads_both_parts(self, tail, expected):
        H = MetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array(tail))
        assert min_eigen_estimate(H) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lead, tail", [
        (np.ones((2, 3)), np.ones(1)),
        (np.eye(2), np.ones((2, 1))),
        (np.zeros((0, 0)), np.zeros(0)),
    ], ids=["non-square-lead", "2-d-tail", "empty"])
    def test_malformed_rejected(self, lead, tail):
        with pytest.raises(ContractError):
            MetricMatrix(lead, tail)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm_estimate(np.eye(4)) == pytest.approx(1.0, rel=1e-14)

    def test_diag(self):
        assert spectral_norm_estimate(np.diag([2.0, 0.5])) == pytest.approx(2.0, rel=1e-14)

    def test_nilpotent(self):
        assert spectral_norm_estimate(np.array([[0.0, 3.0], [0.0, 0.0]])) == pytest.approx(3.0, rel=1e-14)

    def test_vs_svd_oracle(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            A = rng.standard_normal((m, n))
            ref = np.linalg.svd(A, compute_uv=False)[0]
            assert spectral_norm_estimate(A) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("shape", [(64, 8), (8, 64), (64,), (1, 64), (64, 1), (5, 5)],
                             ids=["tall", "wide", "1-D", "row", "column", "square"])
    def test_exact_against_matrix_two_norm(self, shape, rng):
        for _ in range(10):
            A = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6)
            assert spectral_norm_estimate(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-14)

    @pytest.mark.parametrize("A", [np.zeros((3, 4)), np.zeros(5), np.zeros((0, 3)), np.zeros(0)],
                             ids=["zero", "zero-1-D", "empty", "empty-1-D"])
    def test_zero_and_empty(self, A):
        assert spectral_norm_estimate(A) == 0.0

    def test_clustered_top_singular_values_exact(self):
        # D^T D of a forward difference has clustered top eigenvalues, where a
        # power iteration stalls below sigma_max = 2 cos(pi / 2n)
        n = 128
        D = np.diag(-np.ones(n)) + np.diag(np.ones(n - 1), 1)
        D[-1, -1] = 0.0
        assert spectral_norm_estimate(D) == pytest.approx(2 * math.cos(math.pi / (2 * n)), rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ContractError, match="finite"):
            spectral_norm_estimate(np.array([[1.0, bad]]))


class TestValidation:
    def test_nonsymmetric_dense_rejected(self):
        with pytest.raises(ContractError):
            dense(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_dense_rejected(self):
        with pytest.raises(ContractError):
            dense(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nonpositive_diag_rejected(self):
        with pytest.raises(ContractError):
            MetricMatrix.diagonal([1.0, 0.0])

    def test_box_order_enforced(self):
        with pytest.raises(ContractError):
            OmegaBox([1.0], [0.0])

    @pytest.mark.parametrize("build", [
        lambda: MetricMatrix.identity(2, scale=math.nan),
        lambda: MetricMatrix.identity(2, scale=math.inf),
        lambda: MetricMatrix.diagonal([math.nan, 1.0]),
        lambda: MetricMatrix.diagonal([math.inf, 1.0]),
        lambda: OmegaBox([math.nan, 0.0], [1.0, 1.0]),
        lambda: OmegaBox([0.0, 0.0], [1.0, math.nan]),
        lambda: BmoConfig(domain=OmegaBox([math.nan, 0.0], [1.0, 1.0])),
        lambda: BmoConfig(domain=OmegaBox([0.0, 0.0], [1.0, math.nan])),
    ], ids=["identity-nan", "identity-inf", "diagonal-nan", "diagonal-inf",
            "omega-box-lower-nan", "omega-box-upper-nan",
            "domain-box-lower-nan", "domain-box-upper-nan"])
    def test_non_finite_refused_where_it_enters(self, build):
        with pytest.raises(ContractError):
            build()

    def test_infinite_box_bounds_allowed(self):
        # deconv's layer slices are boxed by +-inf
        box = OmegaBox([-math.inf, 0.0], [math.inf, 1.0])
        assert box.contains(np.array([1e300, 0.5]))
        assert box.contains([-1e300, 1.0])
