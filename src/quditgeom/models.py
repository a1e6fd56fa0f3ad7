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

Sweeps iterate the coupling grid in row-major order with no shared
mutable state, so grid points may be evaluated concurrently while the
output ordering stays fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .errors import DimensionError
from .representations import invariants, p_to_lambda
from .thermal import Spectrum, gibbs_state

__all__ = [
    "AngularMomentum",
    "LMGParams",
    "PhaseRegion",
    "PhasePoint",
    "angular_momentum",
    "linear_spectrum",
    "direction_hamiltonian",
    "lmg_hamiltonian",
    "lmg_spectrum",
    "separatrix",
    "classify_region",
    "phase_sweep",
]


def _check_spin(j) -> float:
    j = float(j)
    twoj = 2.0 * j
    if not math.isfinite(j) or j <= 0 or abs(twoj - round(twoj)) > 1e-12:
        raise DimensionError(f"2J must be a positive integer, got J = {j!r}")
    return j


@dataclass(frozen=True)
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
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega!r}")
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
    the same sequence read as "most occupied first" is the probability
    ordering, stored explicitly as ``probability_order``.  On a separatrix
    (or at an isolated crossing) ``region_id`` is ``"boundary"`` and the
    degenerate label pairs are reported.
    """

    region_id: str
    energy_order: tuple
    probability_order: tuple
    degenerate_pairs: tuple = ()


@dataclass(frozen=True)
class PhasePoint:
    """One coupling-grid node of a thermal phase sweep."""

    params: LMGParams
    p: np.ndarray
    lam: np.ndarray
    t: np.ndarray
    region: PhaseRegion


def angular_momentum(j) -> AngularMomentum:
    """Spin matrices from the standard ladder-operator matrix elements."""
    j = _check_spin(j)
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        mm = m[i + 1]
        jplus[i, i + 1] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    jx = (jplus + jplus.conj().T) / 2.0
    jy = (jplus - jplus.conj().T) / 2.0j
    for arr in (jx, jy, jz):
        arr.setflags(write=False)
    return AngularMomentum(j=j, jx=jx, jy=jy, jz=jz)


def linear_spectrum(j, omega: float = 1.0) -> Spectrum:
    """Spectrum ``omega*M, M = -J..J`` of ``H = omega * n.J`` (any direction)."""
    j = _check_spin(j)
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and > 0, got {omega!r}")
    m = np.arange(int(round(2 * j)) + 1) - j
    return Spectrum(energies=omega * m, labels=tuple(f"M={mm:g}" for mm in m))


def direction_hamiltonian(j, omega: float, theta: float, phi: float) -> np.ndarray:
    """``omega * n.J`` for the unit direction given by polar angles."""
    am = angular_momentum(j)
    nx = math.sin(theta) * math.cos(phi)
    ny = math.sin(theta) * math.sin(phi)
    nz = math.cos(theta)
    return omega * (nx * am.jx + ny * am.jy + nz * am.jz)


def lmg_hamiltonian(j, params: LMGParams) -> np.ndarray:
    """``2*omega*(Jz + g_x Jx^2 + g_y Jy^2)`` as a dense Hermitian matrix."""
    am = angular_momentum(j)
    return 2.0 * params.omega * (
        am.jz + params.g_x * (am.jx @ am.jx) + params.g_y * (am.jy @ am.jy)
    )


def _lmg_labeled_energies(j: float, params: LMGParams) -> np.ndarray:
    """Closed-form LMG energies in label order (J = 1 or J = 3/2 only)."""
    w = params.omega
    gp = params.g_plus
    gm = params.g_minus
    if j == 1.0:
        s = math.sqrt(4.0 + gm * gm)
        return np.array([2.0 * w * gp, w * (gp - s), w * (gp + s)])
    if j == 1.5:
        a = math.sqrt(3.0 * gm * gm + (gp - 2.0) ** 2)
        b = math.sqrt(3.0 * gm * gm + (gp + 2.0) ** 2)
        return np.array(
            [
                w / 2.0 * (5.0 * gp + 2.0 - 2.0 * a),
                w / 2.0 * (5.0 * gp - 2.0 - 2.0 * b),
                w / 2.0 * (5.0 * gp - 2.0 + 2.0 * b),
                w / 2.0 * (5.0 * gp + 2.0 + 2.0 * a),
            ]
        )
    raise DimensionError(f"closed forms exist only for J in {{1, 3/2}}, got J = {j:g}")


def lmg_spectrum(j, params: LMGParams, *, method: str = "auto") -> Spectrum:
    """LMG spectrum, analytic for J in {1, 3/2} and numeric otherwise.

    The analytic branch sorts the closed-form levels ascending, breaking
    ties by label order, and records the labels; the numeric branch
    diagonalizes the Hamiltonian with ``np.linalg.eigvalsh``.
    """
    j = _check_spin(j)
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "analytic" if j in (1.0, 1.5) else "numeric"
    if method == "analytic":
        energies = _lmg_labeled_energies(j, params)
        order = np.argsort(energies, kind="stable")
        return Spectrum(
            energies=energies[order],
            labels=tuple(f"E{i + 1}" for i in order),
        )
    return Spectrum(energies=np.linalg.eigvalsh(lmg_hamiltonian(j, params)))


def separatrix(j, branch: str, g_minus):
    """g_plus of the level-crossing curve at the given g_minus values.

    J = 1: ``g_plus = -+ sqrt(4 + g_minus^2)`` for the ground/excited
    crossing; J = 3/2: ``g_plus = -+ sqrt(1 + g_minus^2)``.  Broadcasts
    over ``g_minus``.
    """
    j = _check_spin(j)
    g_minus = np.asarray(g_minus, dtype=float)
    if j == 1.0:
        magnitude = np.sqrt(4.0 + g_minus**2)
    elif j == 1.5:
        magnitude = np.sqrt(1.0 + g_minus**2)
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


def classify_region(j, params: LMGParams, tol: float | None = None) -> PhaseRegion:
    """Phase region of an LMG coupling point from its energy ordering.

    Region I has the label order E1 < E2 < ... ascending; II swaps the
    ground pair; III additionally swaps the top pair (J = 3/2) or moves E1
    above E3 (J = 1).  Points where any two levels coincide within ``tol``
    times the energy scale are reported as boundaries carrying the
    degenerate label pairs instead of an arbitrary ordering.
    """
    j = _check_spin(j)
    tol = DEFAULT.degeneracy if tol is None else tol
    energies = _lmg_labeled_energies(j, params)
    order = np.argsort(energies, kind="stable")
    scale = max(1.0, float(np.abs(energies).max()))
    pairs = []
    for a in range(len(energies) - 1):
        for b in range(a + 1, len(energies)):
            if abs(energies[a] - energies[b]) <= tol * scale:
                pairs.append((a + 1, b + 1))
    label_order = tuple(int(i) + 1 for i in order)
    if pairs:
        return PhaseRegion(
            region_id="boundary",
            energy_order=label_order,
            probability_order=label_order,
            degenerate_pairs=tuple(pairs),
        )
    region = _REGION_BY_ORDER[j].get(label_order)
    if region is None:
        raise RuntimeError(f"unexpected level ordering {label_order} at {params}")
    return PhaseRegion(
        region_id=region,
        energy_order=label_order,
        probability_order=label_order,
    )


def label_ordered_occupations(j, params: LMGParams, beta: float) -> np.ndarray:
    """Thermal occupations indexed by the fixed closed-form level labels.

    ``p[i-1]`` is the occupation of level Ei.  Keeping the labels fixed is
    what maps each coupling region onto its own simplex sector: crossing a
    separatrix permutes the occupations and reflects the image across a
    bisectrix, while the energy-sorted vector always stays in the
    descending sector.
    """
    spectrum = lmg_spectrum(j, params)
    state = gibbs_state(spectrum, beta)
    p = np.empty_like(state.p)
    for position, label in enumerate(spectrum.labels):
        p[int(label[1:]) - 1] = state.p[position]
    return p


def phase_sweep(j, g_minus_grid, g_plus_grid, beta: float, omega: float = 1.0,
                *, coords: str = "gpm") -> list:
    """Thermal states over a rectangular coupling grid, tagged by region.

    Occupations are reported in fixed label order (see
    :func:`label_ordered_occupations`), so at large beta region I
    approaches the first vertex and regions II/III the second.
    ``coords="gpm"`` reads the two grids as (g_minus, g_plus) values,
    ``coords="gxy"`` as (g_x, g_y).  The grid is traversed row-major
    (first grid outer), giving a deterministic output order.
    """
    j = _check_spin(j)
    if coords not in ("gpm", "gxy"):
        raise ValueError(f"coords must be 'gpm' or 'gxy', got {coords!r}")
    first = np.atleast_1d(np.asarray(g_minus_grid, dtype=float))
    second = np.atleast_1d(np.asarray(g_plus_grid, dtype=float))
    if first.size == 0 or second.size == 0:
        raise ValueError("coupling grids must be non-empty")
    points = []
    for a in first:
        for b in second:
            if coords == "gpm":
                params = LMGParams.from_plus_minus(g_minus=a, g_plus=b, omega=omega)
            else:
                params = LMGParams(omega=omega, g_x=a, g_y=b)
            p = label_ordered_occupations(j, params, beta)
            points.append(
                PhasePoint(
                    params=params,
                    p=p,
                    lam=p_to_lambda(p),
                    t=invariants(p),
                    region=classify_region(j, params),
                )
            )
    return points
