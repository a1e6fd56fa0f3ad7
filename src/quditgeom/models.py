"""Angular-momentum matrices, linear and Lipkin-Meshkov-Glick spectra,
separatrices and phase-region classification.

Two Hamiltonian families are covered for a collective spin J:

* the linear form ``H = omega * n.J`` whose spectrum ``omega*M`` is
  equidistant and independent of the field direction n;
* the LMG form ``H = 2*omega*(Jz + g_x Jx^2 + g_y Jy^2)`` with
  dimensionless couplings, commonly summarized by ``g_pm = g_x +- g_y``.

For J = 1 and J = 3/2 the LMG eigenvalues have closed forms (implemented
here and cross-checked against ``np.linalg.eigvalsh``); level crossings
as the couplings vary split the ``(g_minus, g_plus)`` plane into three
regions with fixed energy ordering, separated by the curves where the
ground pair (or the top pair) becomes degenerate.

The thermal phase diagram is one batched kernel, :func:`phase_grid`: the
closed forms, the stable level ordering, the degeneracy test and the
Gibbs occupations all broadcast over the whole coupling grid, whose nodes
come out in row-major order (first grid outer).
:func:`classify_region` and :func:`label_ordered_occupations` read row 0
of a one-node :func:`phase_grid` call.

Every function that takes J refuses it, before any array exists, unless
2J is a positive integer and the spin has at most 1,024 levels 2J + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .representations import check_probability_vector
from .thermal import Spectrum, _check_beta, _degeneracy_slack, _occupations

__all__ = [
    "AngularMomentum",
    "LMGParams",
    "PhaseRegion",
    "PhaseGrid",
    "angular_momentum",
    "linear_spectrum",
    "direction_hamiltonian",
    "lmg_hamiltonian",
    "lmg_spectrum",
    "separatrix",
    "classify_region",
    "label_ordered_occupations",
    "phase_grid",
]


#: most levels 2J + 1 a spin may have: a dense complex matrix of 1,024
#: levels takes 16 MB, and each run builds a few of them
_MAX_LEVELS = 1024


def _check_spin(j) -> float:
    j = float(j)
    twoj = 2.0 * j
    if not math.isfinite(j) or round(twoj) < 1 or abs(twoj - round(twoj)) > 1e-12:
        raise DimensionError(f"2J must be a positive integer, got J = {j!r}")
    if round(twoj) + 1 > _MAX_LEVELS:
        raise DimensionError(f"J = {j:g} is too large: 2J + 1 may be at most {_MAX_LEVELS} "
                             f"(J <= {(_MAX_LEVELS - 1) / 2:g})")
    return j


def _check_omega(omega) -> float:
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")
    return omega


@dataclass(frozen=True, eq=False)
class AngularMomentum:
    """Spin-J matrices in the basis |J, M> ordered M = J down to -J (hbar = 1)."""

    j: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


@dataclass(frozen=True)
class LMGParams:
    """Energy scale and dimensionless quadratic couplings of the LMG model."""

    omega: float = 1.0
    g_x: float = 0.0
    g_y: float = 0.0

    def __post_init__(self):
        _check_omega(self.omega)
        if not (math.isfinite(self.g_x) and math.isfinite(self.g_y)):
            raise ValueError("couplings must be finite")

    @property
    def g_plus(self) -> float:
        return self.g_x + self.g_y

    @property
    def g_minus(self) -> float:
        return self.g_x - self.g_y

    @classmethod
    def from_plus_minus(cls, g_minus: float, g_plus: float, omega: float = 1.0) -> "LMGParams":
        return cls(omega=omega, g_x=(g_plus + g_minus) / 2.0, g_y=(g_plus - g_minus) / 2.0)


@dataclass(frozen=True)
class PhaseRegion:
    """Energy/probability ordering of the LMG levels at one coupling point.

    ``energy_order`` lists the closed-form level labels (1-based) sorted by
    ascending energy; since thermal occupations reverse the energy ranking,
    the same sequence read most-occupied-first is the probability order.
    On a separatrix (or at an isolated crossing) ``region_id`` is
    ``"boundary"`` and the degenerate label pairs are reported.
    """

    region_id: str
    energy_order: tuple
    degenerate_pairs: tuple = ()


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Columns of a thermal phase sweep, one row per coupling-grid node.

    Rows run over the grid in row-major order (first grid outer).
    ``order[i]`` lists the level labels (1-based) by ascending energy and
    ``degenerate[i, k]`` flags the label pair ``pairs[k]``; a row with any
    flag set has ``region[i] == "boundary"``.  ``p`` holds the occupations
    in fixed label order.
    """

    g_x: np.ndarray
    g_y: np.ndarray
    g_minus: np.ndarray
    g_plus: np.ndarray
    region: np.ndarray
    order: np.ndarray
    degenerate: np.ndarray
    pairs: tuple
    p: np.ndarray

    def __len__(self) -> int:
        return int(self.region.size)


def angular_momentum(j) -> AngularMomentum:
    """Spin matrices from the standard ladder-operator matrix elements."""
    j = _check_spin(j)
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jplus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jx = (jplus + jplus.conj().T) / 2.0
    jy = (jplus - jplus.conj().T) / 2.0j
    for arr in (jx, jy, jz):
        arr.setflags(write=False)
    return AngularMomentum(j=j, jx=jx, jy=jy, jz=jz)


def linear_spectrum(j, omega: float = 1.0) -> Spectrum:
    """Spectrum ``omega*M, M = -J..J`` of ``H = omega * n.J`` (any direction).

    Raises ``ValueError("energies must be finite")`` when a level overflows.
    """
    j = _check_spin(j)
    _check_omega(omega)
    m = np.arange(int(round(2 * j)) + 1) - j
    with np.errstate(over="ignore"):  # Spectrum refuses an overflowed level
        energies = omega * m
    return Spectrum(energies=energies, labels=tuple(f"M={mm:g}" for mm in m))


def _finite_matrix(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, refused with a ``ValueError`` if an entry is not finite:
    its entries are energies, as the closed forms' levels are."""
    if not np.isfinite(matrix).all():
        raise ValueError("energies must be finite")
    return matrix


def direction_hamiltonian(j, omega: float, theta: float, phi: float) -> np.ndarray:
    """``omega * n.J`` for the unit direction given by polar angles.

    Raises ``ValueError("energies must be finite")`` when an entry overflows.
    """
    am = angular_momentum(j)
    nx = math.sin(theta) * math.cos(phi)
    ny = math.sin(theta) * math.sin(phi)
    nz = math.cos(theta)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused
        return _finite_matrix(omega * (nx * am.jx + ny * am.jy + nz * am.jz))


def lmg_hamiltonian(j, params: LMGParams) -> np.ndarray:
    """``2*omega*(Jz + g_x Jx^2 + g_y Jy^2)`` as a dense Hermitian matrix.

    Raises ``ValueError("energies must be finite")`` when an entry overflows.
    """
    am = angular_momentum(j)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused
        return _finite_matrix(2.0 * params.omega * (
            am.jz + params.g_x * (am.jx @ am.jx) + params.g_y * (am.jy @ am.jy)
        ))


def _lmg_labeled_energies(j: float, omega, g_plus, g_minus) -> np.ndarray:
    """Closed-form LMG energies in label order (J = 1 or J = 3/2 only).

    ``omega``, ``g_plus`` and ``g_minus`` broadcast together; the levels run
    along a new last axis.  Raises ``ValueError`` when a level overflows.
    """
    w = omega
    gp = np.asarray(g_plus, dtype=float)
    gm = np.asarray(g_minus, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if j == 1.0:
            s = np.sqrt(4.0 + gm * gm)
            levels = (2.0 * w * gp, w * (gp - s), w * (gp + s))
        elif j == 1.5:
            a = np.sqrt(3.0 * gm * gm + (gp - 2.0) ** 2)
            b = np.sqrt(3.0 * gm * gm + (gp + 2.0) ** 2)
            levels = (
                w / 2.0 * (5.0 * gp + 2.0 - 2.0 * a),
                w / 2.0 * (5.0 * gp - 2.0 - 2.0 * b),
                w / 2.0 * (5.0 * gp - 2.0 + 2.0 * b),
                w / 2.0 * (5.0 * gp + 2.0 + 2.0 * a),
            )
        else:
            raise DimensionError(f"closed forms exist only for J in {{1, 3/2}}, got J = {j:g}")
    energies = np.stack(np.broadcast_arrays(*levels), axis=-1)
    if not np.isfinite(energies).all():
        raise ValueError("energies must be finite")
    return energies


def lmg_spectrum(j, params: LMGParams) -> Spectrum:
    """LMG spectrum, from the closed forms for J in {1, 3/2} and numeric otherwise.

    For J = 1 and J = 3/2 the closed-form levels are sorted ascending,
    ties broken by label order, and the labels are recorded; every other J
    diagonalizes the Hamiltonian with ``np.linalg.eigvalsh``.  Either path
    raises ``ValueError("energies must be finite")`` when a level or a
    Hamiltonian entry overflows.
    """
    j = _check_spin(j)
    if j not in (1.0, 1.5):
        return Spectrum(energies=np.linalg.eigvalsh(lmg_hamiltonian(j, params)))
    energies = _lmg_labeled_energies(j, params.omega, params.g_plus, params.g_minus)
    order = np.argsort(energies, kind="stable")
    return Spectrum(energies=energies[order], labels=tuple(f"E{i + 1}" for i in order))


def separatrix(j, branch: str, g_minus):
    """g_plus of the level-crossing curve at the given g_minus values.

    J = 1: ``g_plus = -+ sqrt(4 + g_minus^2)`` for the ground/excited
    crossing; J = 3/2: ``g_plus = -+ sqrt(1 + g_minus^2)``.  Broadcasts
    over ``g_minus``.
    """
    j = _check_spin(j)
    g_minus = np.asarray(g_minus, dtype=float)
    if j == 1.0:
        magnitude = np.hypot(2.0, g_minus)
    elif j == 1.5:
        magnitude = np.hypot(1.0, g_minus)
    else:
        raise DimensionError(f"separatrices are defined for J in {{1, 3/2}}, got J = {j:g}")
    if branch == "ground":
        return -magnitude
    if branch == "excited":
        return magnitude
    raise ValueError(f"branch must be 'ground' or 'excited', got {branch!r}")


_REGION_BY_ORDER = {
    1.0: {(1, 2, 3): "I", (2, 1, 3): "II", (2, 3, 1): "III"},
    1.5: {(1, 2, 3, 4): "I", (2, 1, 3, 4): "II", (2, 1, 4, 3): "III"},
}


def _classify(j: float, energies: np.ndarray, order: np.ndarray) -> tuple:
    """Degenerate label pairs and region ids of ``(N, n)`` label-ordered levels.

    ``order`` is the stable ascending argsort of ``energies`` along the
    level axis.  Two levels are degenerate when they differ by at most
    ``1e-9 * max(1, max|E|)`` of their row (``_degeneracy_slack``).
    """
    first, second = np.triu_indices(energies.shape[-1], 1)
    degenerate = np.abs(energies[:, first] - energies[:, second]) <= _degeneracy_slack(energies)
    ordered = ~degenerate.any(axis=-1)
    region = np.full(len(energies), "boundary")
    for labels, name in _REGION_BY_ORDER[j].items():
        region[ordered & (order == np.subtract(labels, 1)).all(axis=-1)] = name
    unexpected = ordered & (region == "boundary")
    if unexpected.any():
        found = tuple((order[unexpected.argmax()] + 1).tolist())
        raise RuntimeError(f"unexpected level ordering {found}")
    return degenerate, region


def classify_region(j, params: LMGParams) -> PhaseRegion:
    """Phase region of an LMG coupling point from its energy ordering.

    Region I has the label order E1 < E2 < ... ascending; II swaps the
    ground pair; III additionally swaps the top pair (J = 3/2) or moves E1
    above E3 (J = 1).  Points where any two levels coincide within 1e-9
    times the energy scale ``max(1, max|E|)`` are reported as boundaries
    carrying the degenerate label pairs instead of an arbitrary ordering.
    """
    grid = phase_grid(j, params.g_x, params.g_y, 0.0, params.omega, coords="gxy")
    return PhaseRegion(
        region_id=str(grid.region[0]),
        energy_order=tuple(grid.order[0].tolist()),
        degenerate_pairs=tuple(pair for pair, hit in zip(grid.pairs, grid.degenerate[0]) if hit),
    )


def label_ordered_occupations(j, params: LMGParams, beta: float) -> np.ndarray:
    """Thermal occupations indexed by the fixed closed-form level labels.

    ``p[i-1]`` is the occupation of level Ei.  Keeping the labels fixed is
    what maps each coupling region onto its own simplex sector: crossing a
    separatrix permutes the occupations and reflects the image across a
    bisectrix, while the energy-sorted vector always stays in the
    descending sector.
    """
    return phase_grid(j, params.g_x, params.g_y, beta, params.omega, coords="gxy").p[0]


def phase_grid(j, g_minus_grid, g_plus_grid, beta: float, omega: float = 1.0,
               *, coords: str = "gpm") -> PhaseGrid:
    """Thermal states and regions over a rectangular coupling grid, as columns.

    ``coords="gpm"`` reads the two grids as (g_minus, g_plus) values,
    ``coords="gxy"`` as (g_x, g_y); the rows run over the grid in row-major
    order (first grid outer).  Occupations are reported in fixed label
    order (see :func:`label_ordered_occupations`), so at large beta region
    I approaches the first vertex and regions II/III the second.

    The closed forms are evaluated once per node, the levels are sorted
    with one stable argsort, and the occupations of the whole grid are
    validated once.  Their lambda and t images are
    ``p_to_lambda(grid.p)`` and ``invariants(grid.p)``.
    """
    j = _check_spin(j)
    if coords not in ("gpm", "gxy"):
        raise ValueError(f"coords must be 'gpm' or 'gxy', got {coords!r}")
    first = np.atleast_1d(np.asarray(g_minus_grid, dtype=float))
    second = np.atleast_1d(np.asarray(g_plus_grid, dtype=float))
    if first.ndim != 1 or second.ndim != 1:
        raise ValueError("coupling grids must be one-dimensional")
    if first.size == 0 or second.size == 0:
        raise ValueError("coupling grids must be non-empty")
    omega = _check_omega(omega)
    beta = _check_beta(beta)
    a, b = (axis.ravel() for axis in np.meshgrid(first, second, indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite couplings fail below
        g_x, g_y = ((b + a) / 2.0, (b - a) / 2.0) if coords == "gpm" else (a, b)
        g_plus, g_minus = g_x + g_y, g_x - g_y
    if not (np.isfinite(g_x).all() and np.isfinite(g_y).all()):
        raise ValueError("couplings must be finite")
    energies = _lmg_labeled_energies(j, omega, g_plus, g_minus)
    order = np.argsort(energies, axis=-1, kind="stable")
    degenerate, region = _classify(j, energies, order)
    p_sorted, _ = _occupations(np.take_along_axis(energies, order, axis=-1), beta)
    p = np.empty_like(p_sorted)
    np.put_along_axis(p, order, p_sorted, axis=-1)
    return PhaseGrid(
        g_x=g_x,
        g_y=g_y,
        g_minus=g_minus,
        g_plus=g_plus,
        region=region,
        order=order + 1,
        degenerate=degenerate,
        pairs=tuple((int(lo) + 1, int(hi) + 1)
                    for lo, hi in zip(*np.triu_indices(energies.shape[-1], 1))),
        p=check_probability_vector(p),
    )

