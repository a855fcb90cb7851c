"""Weighted linear algebra under a positive-definite metric H.

Every operator in this package certifies its Lipschitz properties with
respect to an inner product ``<u, H v>`` induced by a positive-definite
matrix H.  This module holds the matrix representation, the induced
inner product / norm, the projection onto a box (an ``OmegaBox``, or
None for the full space), and the spectral quantities used by step-size
bounds.  Every H is a dense lead block over the leading coordinates
followed by a positive diagonal tail.  The lead computes its spectrum
once, when it is built, which proves it positive definite and gives its
exact smallest eigenvalue; it computes its inverse once, at its first
solve, so a metric that is only applied (a lower bound h_lb) never holds
one.

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

from .errors import CapabilityError, ContractError

SYMMETRY_TOL = 1e-12


def _check_dim(dim, u):
    if u.shape[0] != dim:
        raise ContractError(f"dimension mismatch: metric dim {dim}, vector dim {u.shape[0]}")


_NO_LEAD = np.zeros((0, 0))


@dataclass(frozen=True)
class MetricMatrix:
    """Positive-definite H = blockdiag(lead, diag(tail)).

    ``lead`` is a symmetric (p, p) block over the first p coordinates
    (p may be 0); its smallest eigenvalue is cached at construction, its
    inverse at the first solve.  ``tail`` is the strictly positive
    diagonal over the other dim - p coordinates; c I is the tail of c's
    that ``identity(dim, c)`` builds.
    """

    lead: np.ndarray
    tail: np.ndarray
    dim: int = field(init=False)
    _lead_min: float = field(default=math.inf, init=False, repr=False, compare=False)
    _inv: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.lead, dtype=float)
        d = np.asarray(self.tail, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or d.ndim != 1:
            raise ContractError("a metric is a square lead block and a 1-D diagonal tail")
        p = a.shape[0]
        if p + d.shape[0] <= 0:
            raise ContractError("metric dimension must be positive")
        if not np.all((d > 0) & (d < math.inf)):
            raise ContractError("diagonal metric requires strictly positive, finite entries")
        if p:
            if not np.all(np.isfinite(a)):
                raise ContractError("dense metric has non-finite entries")
            sym_err = np.max(np.abs(a - a.T)) / max(1.0, np.max(np.abs(a)))
            if sym_err > SYMMETRY_TOL * 100:
                raise ContractError(f"dense metric not symmetric (relative error {sym_err:.2e})")
            a = 0.5 * (a + a.T)
            w = np.linalg.eigvalsh(a)
            # below this floor the block is numerically singular
            if w[0] <= p * np.finfo(float).eps * np.max(np.abs(w)):
                raise ContractError(f"dense metric is not positive definite (lambda_min={w[0]:.3e})")
            object.__setattr__(self, "_lead_min", float(w[0]))
        object.__setattr__(self, "lead", a)
        object.__setattr__(self, "tail", d)
        object.__setattr__(self, "dim", p + d.shape[0])

    # -- constructors ---------------------------------------------------
    @staticmethod
    def identity(dim, scale=1.0):
        return MetricMatrix.diagonal(np.full(dim, scale, dtype=float))

    @staticmethod
    def diagonal(diag):
        return MetricMatrix(_NO_LEAD, diag)

    @property
    def is_diagonal(self):
        return self.lead.shape[0] == 0

    # -- application ----------------------------------------------------
    def apply(self, u):
        """H @ u, columnwise for batched input."""
        u = np.asarray(u, dtype=float)
        _check_dim(self.dim, u)
        p = self.lead.shape[0]
        d = self.tail[:, None] if u.ndim > 1 else self.tail
        if not p:
            return d * u
        out = np.empty_like(u)
        out[:p] = self.lead @ u[:p]
        out[p:] = d * u[p:]
        return out

    def solve(self, u):
        """H^{-1} @ u."""
        u = np.asarray(u, dtype=float)
        _check_dim(self.dim, u)
        p = self.lead.shape[0]
        d = self.tail[:, None] if u.ndim > 1 else self.tail
        if not p:
            return u / d
        if self._inv is None:
            object.__setattr__(self, "_inv", np.linalg.inv(self.lead))
        out = np.empty_like(u)
        out[:p] = self._inv @ u[:p]
        out[p:] = u[p:] / d
        return out


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
    """Projection onto U in the H-metric; U is an ``OmegaBox``, or None for the full space.

    A box projects by a componentwise clamp, which is the H-projection
    only for a diagonal H; a box under any other H (a general quadratic
    program) is rejected rather than silently approximated.
    """
    u = np.asarray(u, dtype=float)
    if U is None:
        return u.copy()
    _check_dim(U.lower.shape[0], u)
    if not H.is_diagonal:
        raise CapabilityError("box projection requires a diagonal metric")
    return U.clamp(u)


def min_eigen_estimate(H):
    """Smallest eigenvalue of H, exact.

    The lead's is the one it computed when it was built (inf for an
    empty lead); the tail's is its least entry.
    """
    return min(H._lead_min, float(np.min(H.tail, initial=math.inf)))


def spectral_norm_estimate(A):
    """sigma_max(A) from one SVD, exact to rounding; a 1-D A is one row, an empty A has 0.0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ContractError("spectral_norm_estimate requires finite entries")
    return float(np.linalg.svd(A, compute_uv=False)[0]) if A.size else 0.0
