"""Weighted linear algebra under a positive-definite metric H.

Every operator in this package certifies its Lipschitz properties with
respect to an inner product ``<u, H v>`` induced by a positive-definite
matrix H.  This module holds the matrix representation, the induced
inner product / norm, projections onto simple sets, and the spectral
quantities used by step-size bounds.  A dense block computes its
spectrum once, when it is built, which proves it positive definite and
gives its exact smallest eigenvalue; it computes its inverse once, at its
first solve, so a block that is only applied (a lower bound h_lb) never
holds one.

Vectors may be passed as shape ``(dim,)`` or batched as ``(dim, B)``;
batched norms reduce over all entries (the metric of the stacked state
is block diagonal with identical blocks), while ``columns=True`` reduces
each column of a ``(dim, n)`` stack of separate vectors on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CapabilityError, ContractError, NumericsError

SYMMETRY_TOL = 1e-12
_POWER_SEED = 20240915
_POWER_CAP = 10000


def _check_dim(dim, u):
    if u.shape[0] != dim:
        raise ContractError(f"dimension mismatch: metric dim {dim}, vector dim {u.shape[0]}")


@dataclass(frozen=True)
class MetricMatrix:
    """Positive-definite H stored by kind.

    kind:
        "diagonal"  -- entries is the (dim,) diagonal; c I is the diagonal
                       of c's that ``identity(dim, c)`` builds
        "block"     -- entries is a tuple of MetricMatrix blocks
        "dense"     -- entries is a symmetric (dim, dim) array; its smallest
                       eigenvalue is cached at construction, its inverse
                       at the first solve
    """

    kind: str
    dim: int
    entries: object = None
    _lam_min: float = field(default=math.nan, init=False, repr=False, compare=False)
    _inv: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise ContractError("metric dimension must be positive")
        if self.kind == "diagonal":
            d = np.asarray(self.entries, dtype=float)
            if d.shape != (self.dim,):
                raise ContractError("diagonal entries must have shape (dim,)")
            if not np.all((d > 0) & (d < math.inf)):
                raise ContractError("diagonal metric requires strictly positive, finite entries")
            object.__setattr__(self, "entries", d)
        elif self.kind == "block":
            blocks = tuple(self.entries)
            if sum(b.dim for b in blocks) != self.dim:
                raise ContractError("block dims do not tile the metric dimension")
            object.__setattr__(self, "entries", blocks)
        elif self.kind == "dense":
            a = np.asarray(self.entries, dtype=float)
            if a.shape != (self.dim, self.dim):
                raise ContractError("dense entries must be (dim, dim)")
            if not np.all(np.isfinite(a)):
                raise ContractError("dense metric has non-finite entries")
            sym_err = np.max(np.abs(a - a.T)) / max(1.0, np.max(np.abs(a)))
            if sym_err > SYMMETRY_TOL * 100:
                raise ContractError(f"dense metric not symmetric (relative error {sym_err:.2e})")
            a = 0.5 * (a + a.T)
            w = np.linalg.eigvalsh(a)
            object.__setattr__(self, "entries", a)
            object.__setattr__(self, "_lam_min", float(w[0]))
            lam = min_eigen_estimate(self)
            # below this floor the block is numerically singular
            if lam <= self.dim * np.finfo(float).eps * np.max(np.abs(w)):
                raise ContractError(f"dense metric is not positive definite (lambda_min={lam:.3e})")
        else:
            raise ContractError(f"unknown metric kind {self.kind!r}")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def identity(dim, scale=1.0):
        return MetricMatrix.diagonal(np.full(dim, scale, dtype=float))

    @staticmethod
    def diagonal(diag):
        diag = np.asarray(diag, dtype=float)
        return MetricMatrix("diagonal", diag.shape[0], diag)

    @staticmethod
    def block_diagonal(blocks):
        blocks = tuple(blocks)
        return MetricMatrix("block", sum(b.dim for b in blocks), blocks)

    @staticmethod
    def dense(mat):
        mat = np.asarray(mat, dtype=float)
        return MetricMatrix("dense", mat.shape[0], mat)

    # -- application ----------------------------------------------------
    def apply(self, u):
        """H @ u, columnwise for batched input."""
        u = np.asarray(u, dtype=float)
        _check_dim(self.dim, u)
        if self.kind == "diagonal":
            return (self.entries.T * u.T).T if u.ndim > 1 else self.entries * u
        if self.kind == "dense":
            return self.entries @ u
        out = np.empty_like(u, dtype=float)
        off = 0
        for b in self.entries:
            out[off:off + b.dim] = b.apply(u[off:off + b.dim])
            off += b.dim
        return out

    def solve(self, u):
        """H^{-1} @ u."""
        u = np.asarray(u, dtype=float)
        _check_dim(self.dim, u)
        if self.kind == "diagonal":
            return (u.T / self.entries).T if u.ndim > 1 else u / self.entries
        if self.kind == "dense":
            if self._inv is None:
                object.__setattr__(self, "_inv", np.linalg.inv(self.entries))
            return self._inv @ u
        out = np.empty_like(u, dtype=float)
        off = 0
        for b in self.entries:
            out[off:off + b.dim] = b.solve(u[off:off + b.dim])
            off += b.dim
        return out


@dataclass(frozen=True)
class DomainDescriptor:
    """Feasible set for the training variable: full space, box, or ball."""

    kind: str
    dim: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "full":
            return
        if self.kind == "box":
            lo = np.asarray(self.lower, dtype=float)
            hi = np.asarray(self.upper, dtype=float)
            if lo.shape != (self.dim,) or hi.shape != (self.dim,):
                raise ContractError("box bounds must have shape (dim,)")
            # +-inf bounds leave a coordinate free; NaN bounds would pass lo > hi unseen
            if np.any(np.isnan(lo) | np.isnan(hi) | (lo > hi)):
                raise ContractError("box requires non-NaN bounds with lower <= upper componentwise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        elif self.kind == "ball":
            c = np.asarray(self.center, dtype=float)
            if c.shape != (self.dim,) or not np.all(np.isfinite(c)):
                raise ContractError("ball center must be finite with shape (dim,)")
            if not 0 < self.radius < math.inf:
                raise ContractError(f"ball radius must be positive and finite, got {self.radius!r}")
            object.__setattr__(self, "center", c)
        else:
            raise ContractError(f"unknown domain kind {self.kind!r}")

    @staticmethod
    def full_space(dim):
        return DomainDescriptor("full", dim)

    @staticmethod
    def box(lower, upper):
        lower = np.asarray(lower, dtype=float)
        return DomainDescriptor("box", lower.shape[0], lower=lower, upper=np.asarray(upper, dtype=float))

    @staticmethod
    def ball(center, radius):
        center = np.asarray(center, dtype=float)
        return DomainDescriptor("ball", center.shape[0], center=center, radius=float(radius))

    def contains(self, u, tol=1e-12):
        u = np.asarray(u, dtype=float)
        if self.kind == "full":
            return True
        if self.kind == "box":
            lo, hi = self.lower, self.upper
            if u.ndim > 1:
                lo, hi = lo[:, None], hi[:, None]
            return bool(np.all(u >= lo - tol) and np.all(u <= hi + tol))
        d = np.linalg.norm(u - (self.center[:, None] if u.ndim > 1 else self.center), axis=0)
        return bool(np.all(d <= self.radius + tol))


def h_inner(H, u, v, columns=False):
    """<u, H v>; symmetric in u and v.  Batched inputs reduce over all entries.

    With ``columns`` the (dim, n) inputs stack n separate vectors, and the
    (n,) array of their inner products is returned.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ContractError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if columns:
        return np.sum(u * H.apply(v), axis=0)
    return float(np.sum(u * H.apply(v)))


def h_norm(H, u, columns=False):
    """Induced norm sqrt(<u, H u>); per column, as an (n,) array, with ``columns``."""
    val = h_inner(H, u, u, columns)
    if columns:
        return np.sqrt(np.maximum(val, 0.0))
    return math.sqrt(max(val, 0.0))


def h_project(H, U, u):
    """Projection onto U in the H-metric, for the supported (H, U) pairings.

    full space -> identity; box with diagonal H -> componentwise clamp;
    ball with a diagonal H of equal entries (c I) -> radial scaling.
    Anything else (a general quadratic program) is rejected rather than
    silently approximated.
    """
    u = np.asarray(u, dtype=float)
    _check_dim(U.dim, u)
    if U.kind == "full":
        return u.copy()
    if U.kind == "box":
        if H.kind != "diagonal":
            raise CapabilityError("box projection requires a diagonal metric")
        lo, hi = U.lower, U.upper
        if u.ndim > 1:
            lo, hi = lo[:, None], hi[:, None]
        return np.clip(u, lo, hi)
    if U.kind == "ball":
        if H.kind != "diagonal" or np.ptp(H.entries) != 0:
            raise CapabilityError("ball projection requires a multiple of the identity metric")
        c = U.center[:, None] if u.ndim > 1 else U.center
        d = u - c
        nrm = np.linalg.norm(d, axis=0)
        factor = np.minimum(1.0, U.radius / np.maximum(nrm, 1e-300))
        return c + d * factor
    raise CapabilityError(f"unsupported projection pairing ({H.kind}, {U.kind})")


def projection_jacobian_diag(U, u):
    """Almost-everywhere derivative of the supported projections, as a mask.

    Full space -> ones; box -> indicator of inactive coordinates.  Ball is
    rejected (its derivative is not diagonal off-center).
    """
    u = np.asarray(u, dtype=float)
    if U.kind == "full":
        return np.ones_like(u)
    if U.kind == "box":
        lo, hi = U.lower, U.upper
        if u.ndim > 1:
            lo, hi = lo[:, None], hi[:, None]
        return ((u > lo) & (u < hi)).astype(float)
    raise CapabilityError("projection derivative supported for full space and box only")


def min_eigen_estimate(H):
    """Smallest eigenvalue of H, exact.

    Diagonal and block metrics are read off their entries; a dense
    block reads the spectrum it computed when it was built.
    """
    if H.kind == "diagonal":
        return float(np.min(H.entries))
    if H.kind == "block":
        return min(min_eigen_estimate(b) for b in H.entries)
    return H._lam_min


def spectral_norm_estimate(A, tol=1e-6, max_iter=_POWER_CAP, seed=_POWER_SEED):
    """Largest singular value of A by power iteration on A^T A."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A[None, :]
    if not np.all(np.isfinite(A)):
        raise ContractError("spectral_norm_estimate requires finite entries")
    if A.size == 0 or not np.any(A):
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    sigma_prev = None
    for _ in range(max_iter):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            v = rng.standard_normal(A.shape[1])
            v /= np.linalg.norm(v)
            continue
        z = A.T @ (w / nw)
        sigma = np.linalg.norm(z)
        if sigma == 0.0:
            return 0.0
        v = z / sigma
        # successive-change stopping understates the true error near
        # clustered singular values; stop an order tighter than tol
        if sigma_prev is not None and abs(sigma - sigma_prev) <= 0.1 * tol * sigma:
            return float(sigma)
        sigma_prev = sigma
    raise NumericsError(f"power iteration did not converge in {max_iter} iterations")
