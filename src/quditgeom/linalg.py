"""Batched real roots of polynomials up to degree four: companion-matrix
eigenvalues (Edelman & Murakami, Math. Comp. 64, 1995), one ``np.linalg.eigvals``
call per effective degree, then a guarded Newton polish and a residual check."""

import numpy as np

__all__ = ["real_roots", "real_roots_batch"]

_DEGREE_RTOL = 1e-14     # top coefficients below this share of the largest are dropped
_IMAG_RTOL = 1e-5        # wide enough for a double root split into a complex pair
_RESIDUAL_RTOL = 1e-12


def _values(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` (N, k) in powers 0..d times ``weights`` (N, d+1, m): (N, k, m)."""
    return x[..., None] ** np.arange(weights.shape[1]) @ weights


def _polish(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton steps kept only where they lower |p|, since at a double root a
    full step can land far away; NaN where |p(x)| stays large."""
    weights = np.zeros(coeffs.shape + (2,))
    weights[..., 0] = coeffs
    weights[:, :-1, 1] = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    with np.errstate(all="ignore"):
        values = _values(weights, x)
        for _ in range(2):
            trial = x - values[..., 0] / values[..., 1]
            trial_values = _values(weights, trial)
            better = np.abs(trial_values[..., 0]) < np.abs(values[..., 0])
            x = np.where(better, trial, x)
            values = np.where(better[..., None], trial_values, values)
        bound = _values(np.abs(weights[..., :1]), np.abs(x))[..., 0]
    return np.where(np.abs(values[..., 0]) <= _RESIDUAL_RTOL * bound, x, np.nan)


def real_roots_batch(coeffs) -> np.ndarray:
    """Real roots of each row of finite ascending ``coeffs`` (N, d+1), d <= 4,
    as (N, d) rows sorted ascending and padded with NaN.  Top coefficients at
    most 1e-14 of a row's largest in magnitude are dropped."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or not 1 <= coeffs.shape[1] <= 5:
        raise ValueError(f"expected coefficient rows of shape (N, d+1) with d <= 4, got {coeffs.shape}")
    magnitude = np.abs(coeffs)
    scale = magnitude.max(axis=1, keepdims=True)
    if not np.isfinite(scale).all():  # a row's max is NaN or inf with any such entry
        raise ValueError("polynomial coefficients must be finite")
    if not scale.all():
        raise ValueError("zero polynomial has no isolated roots")
    width = coeffs.shape[1]
    degree = width - 1 - (magnitude[:, ::-1] > _DEGREE_RTOL * scale).argmax(axis=1)
    roots = np.full((coeffs.shape[0], width - 1), np.nan)
    for d in set(degree.tolist()) - {0}:
        rows = degree == d
        c = coeffs[rows, : d + 1]
        companion = np.eye(d, k=-1) - (c[:, :d, None] / c[:, d:, None]) * np.eye(d)[-1]
        z = np.linalg.eigvals(companion)
        candidates = np.where(np.abs(z.imag) <= _IMAG_RTOL * np.abs(z), z.real, np.nan)
        roots[rows, :d] = _polish(c, candidates)
    roots.sort(axis=1)
    return roots


def real_roots(coeffs) -> np.ndarray:
    """All real roots of a polynomial of degree <= 4, sorted ascending.

    ``coeffs`` are finite and ascending (constant term first); this is a
    one-row call of :func:`real_roots_batch`.  The contract:

    * every returned x has ``|p(x)| <= 1e-12 * sum_i |c_i| |x|^i``;
    * a real root r with ``|r - s| >= 1e-2 * max(|r|, |s|)`` for every other
      distinct root s, complex ones included, is returned: to ``1e-9 * |r|``
      if simple, and possibly twice, to 1e-6 of the largest root modulus, if
      an exact double root;
    * roots closer than ``1e-2`` relative to each other have no accuracy
      promise: with a double root r and a third root at r(1 + d),
      1e-3 <= |d| <= 1e-2, 10 of 6,694 seeded cases lost the double root
      (off by up to 2.7e-3 of the largest root modulus).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or not 1 <= coeffs.size <= 5:
        raise ValueError("coefficients must be a 1-D sequence of 1 to 5 values (degree <= 4)")
    roots = real_roots_batch(coeffs[None])[0]
    return roots[~np.isnan(roots)]
