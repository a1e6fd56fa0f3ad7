"""Gibbs states, thermodynamic quantities and thermal trajectories.

A spectrum ``h_1 <= h_2 <= ... <= h_n`` and an inverse temperature
``beta >= 0`` define the canonical state ``p_j = exp(-beta h_j) / Z``,
the maximum-entropy state at fixed mean energy.  Energies are shifted by
the ground energy before exponentiation so that arbitrarily large beta
never overflows; the shift is recorded on the state, making the
unshifted partition function recoverable (in log form even where it
would overflow as a float).

Units: hbar = k_B = 1, so beta = 1/T and entropy is dimensionless.

Everything in this module is a pure function of immutable inputs;
trajectory sampling is vectorized over the beta grid and may also be
evaluated concurrently point by point without coordination, the output
ordering being fixed by the grid.  A trajectory holds its occupation
vectors; their lambda and t images are derived from them on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .representations import _DerivedCoordinates, check_probability_vector

__all__ = [
    "Spectrum",
    "ThermalState",
    "ThermalTrajectory",
    "gibbs_state",
    "endpoint_state",
    "trajectory",
    "default_beta_grid",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Energy levels sorted ascending, with optional level labels.

    The levels and their spread h_n - h_1 must be finite floats.
    """

    energies: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        if energies.ndim != 1 or energies.size < 2:
            raise ValueError("a spectrum needs at least 2 one-dimensional energies")
        if not np.all(np.isfinite(energies)):
            raise ValueError("energies must be finite")
        if np.any(energies[1:] < energies[:-1]):
            raise ValueError("energies must be sorted ascending")
        # Python floats: a spread past the float range is inf, with no warning
        if math.isinf(float(energies[-1]) - float(energies[0])):
            raise ValueError("the energy spread h_n - h_1 overflows a float")
        energies = energies.copy()
        energies.setflags(write=False)
        object.__setattr__(self, "energies", energies)
        if self.labels is not None:
            labels = tuple(str(lab) for lab in self.labels)
            if len(labels) != energies.size:
                raise ValueError("labels must match the number of levels")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True, eq=False)
class ThermalState:
    """Canonical state at one inverse temperature.

    ``Z`` is the partition function in the ground-shifted gauge
    (energies measured from ``energy_shift``); the occupation vector is
    gauge independent.  ``F`` is -inf at beta = 0.
    """

    beta: float
    p: np.ndarray
    Z: float
    energy_shift: float
    U: float
    S: float
    F: float

    @property
    def log_z_unshifted(self) -> float:
        """log of the partition function over the raw energies."""
        return math.log(self.Z) - self.beta * self.energy_shift

    @property
    def z_unshifted(self) -> float:
        """Partition function over the raw energies (may overflow to inf)."""
        try:
            return math.exp(self.log_z_unshifted)
        except OverflowError:
            return math.inf


@dataclass(frozen=True, eq=False)
class ThermalTrajectory(_DerivedCoordinates):
    """A thermal curve sampled on a beta grid, in all three coordinates.

    ``p`` holds one occupation vector per beta; ``lam`` and ``t``, its
    lambda and t images, are derived from ``p`` on first access.
    """

    spectrum: Spectrum
    beta: np.ndarray
    p: np.ndarray

    def __len__(self) -> int:
        return int(self.beta.size)


def _occupations(energies: np.ndarray, beta) -> np.ndarray:
    """Normalized ground-shifted Boltzmann weights.

    ``energies`` holds ascending levels along its last axis.  Either a
    beta grid over one spectrum (one row per beta) or one beta over a
    stack of spectra (one row per spectrum).
    """
    shifted = energies - energies[..., :1]
    x = -np.multiply.outer(np.asarray(beta, dtype=float), shifted)
    w = np.exp(x)
    return w / w.sum(axis=-1, keepdims=True)


def _check_beta(beta) -> float:
    beta = float(beta)
    if math.isnan(beta) or math.isinf(beta):
        raise ValueError("beta must be finite; use endpoint_state for the limits")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return beta


def gibbs_state(spectrum: Spectrum, beta: float) -> ThermalState:
    """Canonical (maximum-entropy) state of ``spectrum`` at ``beta >= 0``.

    Raises ``ValueError`` for negative beta and, as :func:`trajectory`
    does, for non-finite occupations; the infinite-temperature and
    zero-temperature limits are served exactly by :func:`endpoint_state`.
    """
    beta = _check_beta(beta)
    h = spectrum.energies
    shifted = h - h[0]
    weights = np.exp(-beta * shifted)
    z = float(weights.sum())
    p = check_probability_vector(weights / z)
    u = float(p @ h)
    s = -sum(x * math.log(x) for x in p.tolist() if x > 0.0)
    f = u - s / beta if beta > 0 else -math.inf
    return ThermalState(beta=beta, p=p, Z=z, energy_shift=float(h[0]), U=u, S=s, F=f)


def endpoint_state(spectrum: Spectrum, which: str) -> np.ndarray:
    """Exact limiting occupation vector.

    ``which="infinite"`` (beta -> 0) gives the uniform vector; ``"zero"``
    (beta -> inf) puts weight 1/k on each of the k levels within
    ``DEFAULT.degeneracy * max(1, max|h|)`` of the ground energy.  Any
    other ``which`` raises ``ValueError``.
    """
    h = spectrum.energies
    n = spectrum.n
    if which == "infinite":
        return np.full(n, 1.0 / n)
    if which == "zero":
        scale = max(1.0, float(np.abs(h).max()))
        ground = (h - h[0]) <= DEFAULT.degeneracy * scale
        return ground / ground.sum()
    raise ValueError(f"which must be 'zero' or 'infinite', got {which!r}")


def default_beta_grid() -> np.ndarray:
    """Exact beta = 0 plus 200 log-spaced points from 1e-3 to 1e3."""
    return np.concatenate(([0.0], np.logspace(-3.0, 3.0, 200)))


def trajectory(spectrum: Spectrum, beta_grid=None) -> ThermalTrajectory:
    """Sample the thermal curve of ``spectrum`` on an ascending beta grid.

    Each sample carries the occupation vector, validated once here; its
    Bloch-diagonal and invariant images are derived from it on first
    access.  With the default grid the first sample is the most mixed state
    and the last is numerically indistinguishable from the ground-multiplet
    projector.
    """
    if beta_grid is None:
        beta_grid = default_beta_grid()
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.ndim != 1 or beta_grid.size == 0:
        raise ValueError("beta grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(beta_grid)) or beta_grid[0] < 0:
        raise ValueError("beta grid entries must be finite and >= 0")
    if np.any(np.diff(beta_grid) < 0):
        raise ValueError("beta grid must be sorted ascending")
    p = check_probability_vector(_occupations(spectrum.energies, beta_grid))
    return ThermalTrajectory(spectrum=spectrum, beta=beta_grid, p=p)
