"""The three diagonal-state representations and the maps between them.

A diagonal density matrix of dimension n can be described in three
equivalent coordinate systems:

* p-space: the eigenvalue (probability) vector itself, a point of the
  (n-1)-simplex ``sum_j p_j = 1``, ``0 <= p_j <= 1``;
* lambda-space: the n - 1 coefficients of the diagonal generators in the
  Bloch expansion ``rho = I/n + (1/2) sum_l lambda_{k_l} F_l`` (index
  convention ``k_l = n^2 - n + l``, see :mod:`quditgeom.basis`);
* t-space: the trace-power invariants ``t_l = Tr(rho^l)`` for l = 2..n,
  which are unitarily invariant and blind to coordinate permutations.

p and lambda are related by an invertible affine map (exposed through
:func:`transformation_matrices` in the augmented-vector form
``p = M (lambda_1, ..., lambda_{n-1}, 1)``); the map to t-space is
polynomial and not invertible.

All map functions broadcast over leading axes: an input of shape
``(..., n)`` produces an output of shape ``(..., n-1)`` and vice versa.
Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import _check_dimension, simplex_frame
from .errors import DimensionError, PositivityError

__all__ = [
    "DegeneracyPattern",
    "SimplexPoint",
    "PositivityResult",
    "diagonal_coefficients",
    "transformation_matrices",
    "check_probability_vector",
    "p_to_lambda",
    "lambda_to_p",
    "invariants",
    "t_vertices",
    "polar_to_p",
    "positivity_check",
    "orbit_classification",
]

#: slack on simplex membership: p_j in [-slack, 1 + slack], |sum p - 1| <= slack
_SIMPLEX_SLACK = 1e-12
#: accepted Hermiticity defect max|H - H^dagger|
_HERMITIAN_SLACK = 1e-10
#: slack on the smallest eigenvalue in the positivity test, relative to the
#: largest eigenvalue magnitude
_POSITIVITY_SLACK = 1e-12
#: eigenvalue clustering threshold, relative to the largest eigenvalue
_DEGENERACY_SLACK = 1e-9


class SimplexPoint(NamedTuple):
    """A p-space point together with a flag telling whether it is physical."""

    p: np.ndarray
    physical: bool


class PositivityResult(NamedTuple):
    """Verdict of the positivity test and the characteristic-polynomial coefficients."""

    positive: bool
    coefficients: np.ndarray


@dataclass(frozen=True)
class DegeneracyPattern:
    """Eigenvalue multiplicities and the dimension of the unitary orbit.

    For multiplicities (m_1, ..., m_l) the stabilizer of the diagonal
    matrix is U(m_1) x ... x U(m_l) and the orbit is the flag manifold
    U(n) / (U(m_1) x ... x U(m_l)) of dimension n^2 - sum m_i^2.
    """

    multiplicities: tuple
    orbit_dimension: int


def diagonal_coefficients(n: int) -> np.ndarray:
    """Matrix A with ``A[l-1, s] = (F_l)_ss`` (rows are generator diagonals)."""
    return math.sqrt(2.0) * simplex_frame(n).axes


def transformation_matrices(n: int):
    """The affine map between p-space and lambda-space.

    Returns ``(M, M_inv)`` with ``p = M @ (lambda_1, ..., lambda_{n-1}, 1)``
    and ``(lambda_1, ..., lambda_{n-1}, 1) = M_inv @ p``.
    """
    a = diagonal_coefficients(n)
    m = np.empty((n, n))
    m[:, :-1] = a.T / 2.0
    m[:, -1] = 1.0 / n
    m_inv = np.vstack([a, np.ones(n)])
    return m, m_inv


def _simplex_violations(p: np.ndarray, tol: float) -> tuple:
    """Where the vectors ``p`` (along the last axis) leave the simplex by more than ``tol``.

    Returns ``(outside, defect)``: a mask of the components outside
    ``[-tol, 1 + tol]``, and each vector's normalization defect
    ``|sum p - 1|``, set to 0 where it is at most ``tol``.
    """
    # a finite p whose sum overflows (to inf, or to NaN from inf - inf) has a
    # component outside [-tol, 1 + tol], so ``outside`` refuses it anyway
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(p.sum(axis=-1) - 1.0)
    return (p < -tol) | (p > 1.0 + tol), np.where(defect > tol, defect, 0.0)


def check_probability_vector(p, tol: float = _SIMPLEX_SLACK, *, name: str = "p") -> np.ndarray:
    """Validate simplex membership of ``p`` (broadcasts over leading axes),
    with slack ``tol`` on each component and on the normalization.

    Raises :class:`PositivityError` naming the first offending component,
    or :class:`ValueError` when the normalization is off.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] < 2:
        raise DimensionError(f"{name} must have at least 2 components")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name} contains non-finite entries")
    outside, defect = _simplex_violations(p, tol)
    if outside.any():
        idx = tuple(np.argwhere(outside)[0])
        raise PositivityError(
            f"{name}[{idx[-1] + 1}] = {float(p[idx])!r} lies outside [0, 1]",
            component=int(idx[-1]) + 1,
            value=float(p[idx]),
        )
    if defect.any():
        worst = np.unravel_index(np.argmax(defect), np.shape(defect) or (1,))
        raise ValueError(f"{name} does not sum to 1 (defect {defect.max():.3e} at {worst})")
    return p


def p_to_lambda(p, *, validate: bool = True) -> np.ndarray:
    """Map probability vectors to diagonal Bloch coefficients.

    ``lambda_{k_l} = sum_s (F_l)_ss p_s``, the expectation values of the
    diagonal generators.  Inverse of :func:`lambda_to_p`.
    """
    p = np.asarray(p, dtype=float)
    if validate:
        check_probability_vector(p)
    return p @ diagonal_coefficients(p.shape[-1]).T


def lambda_to_p(lam, *, validate: bool = True) -> np.ndarray:
    """Map diagonal Bloch coefficients to probability vectors.

    ``p_s = 1/n + (1/2) sum_l (F_l)_ss lambda_{k_l}``.  With ``validate``
    on, coefficients whose image leaves the simplex raise a
    :class:`PositivityError` naming the offending component.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1] + 1
    p = 1.0 / n + 0.5 * (lam @ diagonal_coefficients(n))
    if validate:
        check_probability_vector(p, name="mapped p")
    return p


def invariants(p, *, validate: bool = True) -> np.ndarray:
    """Trace-power invariants ``t_l = sum_j p_j^l`` for l = 2..n."""
    p = np.asarray(p, dtype=float)
    if validate:
        check_probability_vector(p)
    n = p.shape[-1]
    return np.stack([(p**ell).sum(axis=-1) for ell in range(2, n + 1)], axis=-1)


def t_vertices(n: int) -> np.ndarray:
    """The n vertices of the physical region in t-space.

    Row k-1 (k = 1..n) is ``(1/k, 1/k^2, ..., 1/k^(n-1))``, the invariant
    vector of the state mixing k pure states with equal weight.  k = 1 is
    the pure state, k = n the most mixed state.
    """
    n = _check_dimension(n)
    k = np.arange(1, n + 1, dtype=float)[:, None]
    ell = np.arange(1, n, dtype=float)[None, :]
    return 1.0 / k**ell


def _direction_cosines(n: int, angles, convention: str) -> list:
    """The n - 1 unit direction cosines ``c_l`` of the n - 2 polar angles.

    ``angles`` holds n - 2 numbers or arrays that broadcast together, and
    every cosine has their broadcast shape.  ``"main"`` at n = 4 takes
    ``(phi, theta)`` with ``cos(theta)`` on the last axis; every other case
    is hyperspherical, with ``cos(theta_1)`` on the first axis.
    """
    if convention not in ("main", "appendix"):
        raise ValueError(f"unknown angle convention {convention!r}")
    if len(angles) != n - 2:
        raise ValueError(f"expected {n - 2} angles for n = {n}, got {len(angles)}")
    if convention == "main" and n == 4:
        phi, theta = angles
        return [np.cos(phi) * np.sin(theta), np.sin(phi) * np.sin(theta), np.cos(theta)]
    cosines = []
    running = 1.0
    for angle in angles:
        cosines.append(running * np.cos(angle))
        running = running * np.sin(angle)
    return cosines + [running]


def _polar_points(n: int, scale, cosines) -> tuple:
    """``p = p_e + scale * sum_l c_l e_l`` on the simplex frame, and its flag.

    ``scale`` is an array and the cosines broadcast to its shape; ``p`` has
    that shape plus a last axis of n.  A point is physical when its scale
    is finite and no component falls below ``-_SIMPLEX_SLACK`` (a NaN
    component fails that test too).
    """
    frame = simplex_frame(n)
    direction = sum(map(np.multiply.outer, cosines, frame.axes))
    p = frame.center + scale[..., None] * direction
    finite = np.isfinite(scale)
    physical = finite & (np.where(finite[..., None], p, 0.0).min(axis=-1) >= -_SIMPLEX_SLACK)
    return p, physical


def polar_to_p(n: int, r: float, angles=(), *, convention: str = "main") -> SimplexPoint:
    """Polar parametrization of the simplex around its centroid.

    ``p = p_e + (r / sqrt(2)) * sum_l c_l(angles) e_l`` with unit direction
    cosines ``c_l``.  The radius ``r`` uses the Bloch-vector scale, so
    physical states satisfy ``0 <= r <= bloch_bound(n)``.

    ``convention`` selects the angle ordering for n = 4: ``"main"`` takes
    ``(phi, theta)`` with ``cos(theta)`` on the last axis, ``"appendix"``
    the hyperspherical ordering with ``cos(theta_1)`` on the first axis.
    For other n the two conventions coincide (hyperspherical).

    Out-of-simplex results (a component below -1e-12) are returned with
    ``physical=False`` rather than raising, so curves may be continued
    beyond the physical region.
    """
    n = simplex_frame(n).n  # rejects a bad dimension before anything else
    if not np.isfinite(r) or r < 0:
        raise ValueError(f"radius must be finite and >= 0, got {r!r}")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.ndim != 1 or not np.all(np.isfinite(angles)):
        raise ValueError(f"angles must be a flat sequence of finite numbers, got {angles!r}")
    cosines = _direction_cosines(n, angles, convention)
    p, physical = _polar_points(n, np.asarray(r / math.sqrt(2.0)), cosines)
    return SimplexPoint(p=p, physical=bool(physical))


def positivity_check(matrix) -> PositivityResult:
    """Positivity of a Hermitian matrix from its spectrum.

    A matrix with max|H - H^dagger| above 1e-10 raises
    ``ValueError``.  One ``np.linalg.eigvalsh`` call gives the eigenvalues;
    the matrix counts as positive semidefinite when none falls below
    ``-1e-12 * max|lambda|``.  Every Hermitian matrix with
    n <= 16 whose smallest eigenvalue is at most -1e-6 * max|lambda| is
    judged non-positive, and every positive semidefinite one, exact zero
    eigenvalues included, positive.

    Returns the verdict together with the coefficients (a_1, ..., a_n) of
    ``det(x I - H) = x^n - a_1 x^{n-1} + a_2 x^{n-2} - ...``, the
    elementary symmetric polynomials of the eigenvalues, which are all
    nonnegative exactly when the matrix is; for unit-trace input a_1 = 1.
    """
    h = np.asarray(matrix)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix contains non-finite entries")
    defect = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if defect > _HERMITIAN_SLACK:
        raise ValueError(
            f"matrix is not Hermitian within {_HERMITIAN_SLACK:g} (max asymmetry {defect:.3e})"
        )
    eigs = np.linalg.eigvalsh(h)
    positive = bool(np.all(eigs >= -_POSITIVITY_SLACK * np.abs(eigs).max(initial=0.0)))
    signs = (-1.0) ** np.arange(1, eigs.size + 1)
    return PositivityResult(positive=positive, coefficients=signs * np.atleast_1d(np.poly(eigs))[1:])


def orbit_classification(p) -> DegeneracyPattern:
    """Group the eigenvalues of a diagonal state into degeneracy clusters.

    Neighbouring eigenvalues within 1e-9 times the
    largest eigenvalue belong to one cluster.  Multiplicities are reported
    in descending-eigenvalue order.
    """
    p = check_probability_vector(p)
    if p.ndim != 1:
        raise ValueError("orbit classification takes a single probability vector")
    n = p.shape[0]
    values = np.sort(p)[::-1]
    threshold = _DEGENERACY_SLACK * values[0]
    multiplicities = [1]
    for gap in np.diff(values):
        if -gap > threshold:
            multiplicities.append(1)
        else:
            multiplicities[-1] += 1
    dim = int(n * n - sum(m * m for m in multiplicities))
    return DegeneracyPattern(multiplicities=tuple(multiplicities), orbit_dimension=dim)

