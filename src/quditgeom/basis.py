"""Generalized Gell-Mann generators of su(n) and the simplex frame.

The n^2 - 1 traceless Hermitian generators are built from the elementary
matrices ``|j><k|`` as symmetric and antisymmetric pair combinations plus
n - 1 real diagonal matrices ``F_l`` with entries

    (F_l)_rr = sqrt(2 / (l (l+1))) * { 1   for r <= l,
                                      -l   for r = l+1,
                                       0   for r >  l+1 }.

All generators satisfy Tr(G_j G_k) = 2 delta_jk.

Ordering convention: the symmetric block comes first (pairs (j, k) with
j < k in row-major order), then the antisymmetric block, then the diagonal
block.  The diagonal matrices therefore occupy the 1-based indices
k_l = n^2 - n + l; for n = 3 these are indices 7 and 8, for n = 4 they are
13, 14 and 15.

The rows of the diagonal matrices, divided by sqrt(2), form an orthonormal
frame for the hyperplane ``sum_k p_k = 1`` of the probability simplex; the
frame is exposed through :func:`simplex_frame`.

All returned arrays are marked read-only, so the cached results can be
shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "GeneratorSet",
    "SimplexFrame",
    "build_generators",
    "simplex_frame",
    "bloch_bound",
]


def _check_dimension(n, minimum: int = 2) -> int:
    """``n`` as an int, or a :class:`DimensionError` unless it is an integer >= ``minimum``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionError(f"dimension must be an integer >= {minimum}, got {n!r}")
    if n < minimum:
        raise DimensionError(f"dimension must be >= {minimum}, got {n}")
    return int(n)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """The n^2 - 1 su(n) generators, split into their three blocks."""

    n: int
    symmetric: tuple
    antisymmetric: tuple
    diagonal: tuple

    @property
    def all(self) -> tuple:
        """All generators in index order (symmetric, antisymmetric, diagonal)."""
        return self.symmetric + self.antisymmetric + self.diagonal

    def matrix(self, k: int) -> np.ndarray:
        """Generator by 1-based index in the block ordering."""
        full = self.all
        if not 1 <= k <= len(full):
            raise IndexError(f"generator index must be in 1..{len(full)}, got {k}")
        return full[k - 1]


@dataclass(frozen=True, eq=False)
class SimplexFrame:
    """Orthonormal axes of the probability simplex around its centroid.

    ``axes[l-1]`` equals ``Diag(F_l) / sqrt(2)``; every axis sums to zero,
    so ``center + span(axes)`` stays inside the unit-sum hyperplane.
    """

    n: int
    center: np.ndarray
    axes: np.ndarray


def _diagonal_entries(n: int, ell: int) -> np.ndarray:
    d = np.zeros(n)
    d[:ell] = 1.0
    d[ell] = -float(ell)
    return math.sqrt(2.0 / (ell * (ell + 1))) * d


@functools.lru_cache(maxsize=None)
def build_generators(n: int) -> GeneratorSet:
    """Construct the su(n) generator set for dimension ``n >= 2``."""
    n = _check_dimension(n)
    symmetric = []
    antisymmetric = []
    for j in range(n - 1):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = -1.0j
            a[k, j] = 1.0j
            symmetric.append(_readonly(s))
            antisymmetric.append(_readonly(a))
    diagonal = tuple(
        _readonly(np.diag(_diagonal_entries(n, ell)).astype(complex))
        for ell in range(1, n)
    )
    return GeneratorSet(
        n=n,
        symmetric=tuple(symmetric),
        antisymmetric=tuple(antisymmetric),
        diagonal=diagonal,
    )


@functools.lru_cache(maxsize=None)
def simplex_frame(n: int) -> SimplexFrame:
    """Centroid and orthonormal in-plane axes of the (n-1)-simplex."""
    n = _check_dimension(n)
    axes = np.vstack([_diagonal_entries(n, ell) for ell in range(1, n)]) / math.sqrt(2.0)
    center = np.full(n, 1.0 / n)
    return SimplexFrame(n=n, center=_readonly(center), axes=_readonly(axes))


def bloch_bound(n: int) -> float:
    """Largest Euclidean norm of a physical Bloch vector, sqrt(2(n-1)/n).

    The bound is attained exactly by pure states; it equals
    sqrt(2 (t2 - 1/n)) evaluated at purity t2 = 1.
    """
    n = _check_dimension(n)
    return math.sqrt(2.0 * (n - 1) / n)
