"""Geometric loci of diagonal states: simplex edges and medians,
constant-invariant curves and surfaces, the t-space boundary, images of
straight segments under the invariant map, and permutation copies.

The straight families (simplex edges, qutrit medians and the p-space
segments behind the t-space segment images) all come from one segment
map, ``p(x) = start + (end - start) x``, and are physical throughout.

Every polar locus is placed by the one map of
:func:`quditgeom.representations.polar_to_p`,
``p = p_e + s * sum_l c_l(angles) e_l``; only the scale s differs, and
it follows the respective closed forms:

* qutrit circle and cubic locus: s = r, the Euclidean distance from the
  centroid, so physical states satisfy ``0 <= r <= sqrt(2/3)``;
* ququart sphere and surfaces: s = r/sqrt(2), the Bloch scale of
  ``polar_to_p``, bounded by ``sqrt(3/2)``.

Every locus target t_k is checked against its range [1/n^(k-1), 1] in one
place; a target outside it by at most 1e-12 is clamped onto the bound.
Out-of-simplex continuations are generated and flagged unphysical rather
than dropped, so the dotted unphysical branches of the loci can be
exported alongside the physical ones.  Nodes where the radius
equation has no admissible root get NaN coordinates and a False flag.

All functions are pure.  The ququart surfaces solve the radius
polynomials of every mesh node in one batched root-finder call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import _check_dimension
from .errors import DimensionError
from .linalg import real_roots, real_roots_batch
from .representations import _SIMPLEX_SLACK, _direction_cosines, _polar_points, invariants

__all__ = [
    "ParamCurve",
    "SurfaceMesh",
    "simplex_edges",
    "simplex_medians",
    "constant_t2_locus",
    "qutrit_t3_radius",
    "constant_t3_locus_qutrit",
    "constant_invariant_surface_ququart",
    "t_space_boundary_qutrit",
    "lambda_segment_images",
    "permutation_images",
]

#: Euclidean distance from the centroid to a qutrit simplex vertex.
QUTRIT_RADIUS_MAX = math.sqrt(2.0 / 3.0)
#: Bloch-scale radius bound for the ququart.
QUQUART_RADIUS_MAX = math.sqrt(3.0 / 2.0)


@dataclass(frozen=True, eq=False)
class ParamCurve:
    """A sampled parametric curve in one of the three representations."""

    space: str
    points: np.ndarray
    parameter: np.ndarray
    physical: np.ndarray
    label: str = ""
    radius: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.points.shape[0] != self.parameter.shape[0]:
            raise ValueError("points and parameter must have equal length")
        if self.physical.shape[0] != self.parameter.shape[0]:
            raise ValueError("physical mask must match the parameter length")


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """A sampled parametric surface on a rectangular parameter grid."""

    space: str
    u: np.ndarray
    v: np.ndarray
    points: np.ndarray
    physical: np.ndarray
    label: str = ""
    radius: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _segment(start, end, x, label: str) -> ParamCurve:
    """The p-space segment ``p(x) = start + (end - start) x``, all physical."""
    return ParamCurve(space="p", points=start + np.outer(x, end - start), parameter=x,
                      physical=np.ones(x.size, dtype=bool), label=label)


def _target(k: int, n: int, value: float) -> float:
    """A locus target t_k, checked against its range and clamped into it.

    ``t_k = Tr(rho^k)`` of an n-level state lies in [1/n^(k-1), 1]; a value
    outside by at most ``_SIMPLEX_SLACK`` is moved onto the bound.
    """
    lo = 1.0 / n ** (k - 1)
    if not (lo - _SIMPLEX_SLACK <= value <= 1.0 + _SIMPLEX_SLACK):
        raise ValueError(f"t{k} must lie in [1/{n ** (k - 1)}, 1], got {value!r}")
    return min(max(value, lo), 1.0)


def simplex_edges(n: int, samples: int = 512) -> list:
    """One segment per vertex pair: all states with one zero eigenvalue.

    ``p(x) = p_j + (p_k - p_j) x`` for x in [0, 1] and every j < k.
    """
    n = _check_dimension(n, minimum=3)
    if samples < 2:
        raise ValueError("need at least 2 samples per edge")
    x = np.linspace(0.0, 1.0, samples)
    verts = np.eye(n)
    return [_segment(verts[j], verts[k], x, f"edge-{j + 1}{k + 1}")
            for j, k in itertools.combinations(range(n), 2)]


def simplex_medians(n: int, samples: int = 512) -> list:
    """States with two equal eigenvalues: medians (n = 3) or cut planes (n = 4).

    For n = 3 each median runs from a vertex to the opposite edge midpoint,
    ``p(x) = p_j + ((p_k + p_l)/2 - p_j) x``.  For n = 4 the condition
    ``p_m = p_l`` cuts the tetrahedron in a plane, returned as a mesh
    parametrized by the two remaining probabilities.
    """
    n = _check_dimension(n, minimum=3)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if n == 3:
        x = np.linspace(0.0, 1.0, samples)
        return [_segment(vertex, (1.0 - vertex) / 2.0, x, f"median-{j + 1}")
                for j, vertex in enumerate(np.eye(3))]
    if n == 4:
        u = np.linspace(0.0, 1.0, samples)
        v = np.linspace(0.0, 1.0, samples)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        inside = uu + vv <= 1.0 + _SIMPLEX_SLACK
        meshes = []
        for m, ell in itertools.combinations(range(4), 2):
            rest = [i for i in range(4) if i not in (m, ell)]
            pts = np.empty(uu.shape + (4,))
            pts[..., rest[0]] = uu
            pts[..., rest[1]] = vv
            shared = (1.0 - uu - vv) / 2.0
            pts[..., m] = shared
            pts[..., ell] = shared
            meshes.append(
                SurfaceMesh(
                    space="p",
                    u=uu,
                    v=vv,
                    points=pts,
                    physical=inside,
                    label=f"plane-p{m + 1}=p{ell + 1}",
                )
            )
        return meshes
    raise DimensionError(f"medians/cut planes are defined for n in {{3, 4}}, got {n}")


def constant_t2_locus(n: int, t2: float, samples: int = 512, *,
                      theta_samples: int = 128, phi_samples: int = 256):
    """States of fixed purity: a centred circle (n = 3) or sphere (n = 4).

    For n = 3 the Euclidean radius is ``sqrt((3 t2 - 1)/3)`` and the curve
    is sampled over the frame angle alpha in [0, 2 pi).  For n = 4 the
    Bloch-scale radius is ``sqrt((4 t2 - 1)/2)`` and a (theta, phi) mesh is
    returned.  Points escaping the simplex are flagged unphysical.
    """
    n = _check_dimension(n, minimum=3)
    if n not in (3, 4):
        raise DimensionError(f"constant-purity loci are implemented for n in {{3, 4}}, got {n}")
    t2 = _target(2, n, t2)
    if n == 3:
        alpha = _qutrit_angles(samples)
        radius = np.full(samples, math.sqrt((3.0 * t2 - 1.0) / 3.0))
        return _qutrit_curve(alpha, radius, f"t2={t2:g}")
    tt, pp = _ququart_mesh(theta_samples, phi_samples)
    radius = np.full(tt.shape, math.sqrt((4.0 * t2 - 1.0) / 2.0))
    return _ququart_surface(tt, pp, radius, f"t2={t2:g}")


def _qutrit_angles(samples: int) -> np.ndarray:
    """The angles alpha of the qutrit loci, ``samples`` of them over [0, 2 pi)."""
    if samples < 3:
        raise ValueError("need at least 3 angle samples")
    return np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)


def _qutrit_curve(alpha, radius, label: str, offset: float = 0.0) -> ParamCurve:
    """The qutrit curve of Euclidean ``radius`` at frame angle ``alpha + offset``."""
    cosines = _direction_cosines(3, (alpha + offset,), "main")
    pts, physical = _polar_points(3, radius, cosines)
    return ParamCurve(space="p", points=pts, parameter=alpha, physical=physical, label=label,
                      radius=radius, meta={"frame_angle_offset": offset})


def _ququart_mesh(theta_samples: int, phi_samples: int) -> tuple:
    """The (theta, phi) mesh of the ququart loci, theta along the first axis."""
    if theta_samples < 2 or phi_samples < 3:
        raise ValueError("need at least 2 theta samples and 3 phi samples")
    theta = np.linspace(0.0, math.pi, theta_samples)
    phi = np.linspace(0.0, 2.0 * math.pi, phi_samples, endpoint=False)
    return np.meshgrid(theta, phi, indexing="ij")


def _ququart_surface(tt, pp, radius, label: str) -> SurfaceMesh:
    """The ququart surface of Bloch-scale ``radius`` over the (theta, phi) mesh."""
    cosines = _direction_cosines(4, (pp, tt), "main")
    pts, physical = _polar_points(4, radius / math.sqrt(2.0), cosines)
    return SurfaceMesh(space="p", u=tt, v=pp, points=pts, physical=physical,
                       label=label, radius=radius)


def _smallest_admissible_root(roots: np.ndarray, upper: float) -> np.ndarray:
    """Per row of NaN-padded ``roots``, the smallest in [0, upper], or NaN."""
    slack = 1e-10
    admissible = np.where((roots >= -slack) & (roots <= upper + slack), roots, np.nan)
    smallest = np.fmin.reduce(admissible, axis=-1, initial=np.nan)
    return np.minimum(np.maximum(smallest, 0.0), upper)


def qutrit_t3_radius(t3: float, alpha: float) -> float:
    """Radius of the fixed-``t3`` qutrit locus at cubic angle ``alpha``.

    Solves ``1/9 + r^2 + cos(3 alpha) r^3 / sqrt(6) = t3`` for the smallest
    admissible root ``0 <= r <= sqrt(2/3)``; the angle here is measured
    from a vertex direction (see :func:`constant_t3_locus_qutrit`).
    Returns NaN when no admissible root exists.
    """
    t3 = _target(3, 3, t3)
    coeffs = (1.0 / 9.0 - t3, 0.0, 1.0, math.cos(3.0 * alpha) / math.sqrt(6.0))
    return float(_smallest_admissible_root(real_roots(coeffs), QUTRIT_RADIUS_MAX))


def constant_t3_locus_qutrit(t3: float, alpha_samples: int = 512) -> ParamCurve:
    """Qutrit states with fixed ``t3``: a rounded triangle around the centroid.

    The radius equation ``1/9 + r^2 + cos(3 alpha) r^3/sqrt(6) = t3``
    measures its angle from a vertex direction, while the frame of
    :func:`quditgeom.basis.simplex_frame` puts the first vertex at frame
    angle pi/6 (the cube sum of the direction cosines is
    ``sin(3 * frame angle)/sqrt(6)``).  Nodes are therefore laid down at
    frame angle ``alpha + pi/6``, which makes every generated point
    reproduce ``t3`` exactly under the invariant map.  The curve has exact
    2 pi/3 rotational symmetry in alpha.
    """
    alpha = _qutrit_angles(alpha_samples)
    radius = np.array([qutrit_t3_radius(t3, a) for a in alpha])
    return _qutrit_curve(alpha, radius, f"t3={t3:g}", offset=math.pi / 6.0)


def _ququart_angular_coefficients(theta, phi):
    """The cubic and quartic angular weights of the ququart invariants."""
    a3 = -math.sqrt(6.0) * (3.0 * np.cos(theta) + 5.0 * np.cos(3.0 * theta)) \
        + 8.0 * math.sqrt(3.0) * np.sin(theta) ** 3 * np.sin(3.0 * phi)
    b4 = 45.0 + 4.0 * np.cos(2.0 * theta) + 7.0 * np.cos(4.0 * theta) \
        + 32.0 * math.sqrt(2.0) * np.cos(theta) * np.sin(theta) ** 3 * np.sin(3.0 * phi)
    return a3, b4


def constant_invariant_surface_ququart(which: str, value: float, *,
                                       theta_samples: int = 128,
                                       phi_samples: int = 256) -> SurfaceMesh:
    """Ququart surface of constant ``t3`` or ``t4`` in polar form.

    Per (theta, phi) node the radius solves

        t3 = 1/16 + (3/8) r^2 + (a3/96) r^3
        t4 = 1/64 + (3/16) r^2 + (a3/96) r^3 + (b4/384) r^4

    with the angular weights ``a3(theta, phi)`` and ``b4(theta, phi)``;
    the smallest admissible root in [0, sqrt(3/2)] is selected.  Both
    surfaces repeat under phi -> phi + 2 pi/3.
    """
    if which not in ("t3", "t4"):
        raise ValueError(f"which must be 't3' or 't4', got {which!r}")
    value = _target(int(which[1]), 4, value)
    tt, pp = _ququart_mesh(theta_samples, phi_samples)
    a3, b4 = _ququart_angular_coefficients(tt.ravel(), pp.ravel())
    if which == "t3":
        columns = (1.0 / 16.0 - value, 0.0, 3.0 / 8.0, a3 / 96.0)
    else:
        columns = (1.0 / 64.0 - value, 0.0, 3.0 / 16.0, a3 / 96.0, b4 / 384.0)
    coeffs = np.column_stack(np.broadcast_arrays(*columns))
    radius = _smallest_admissible_root(real_roots_batch(coeffs), QUQUART_RADIUS_MAX).reshape(tt.shape)
    return _ququart_surface(tt, pp, radius, f"{which}={value:g}")


def _two_equal(t2, sign):
    return t2 - 2.0 / 9.0 + sign * (3.0 * t2 - 1.0) ** 1.5 / (9.0 * math.sqrt(2.0))


def t_space_boundary_qutrit(t2_samples: int = 512) -> tuple:
    """The three boundary arcs of the physical qutrit region in t-space.

    Two arcs come from states with two equal eigenvalues,
    ``t3 = t2 - 2/9 +- (3 t2 - 1)^(3/2) / (9 sqrt(2))`` (upper on
    t2 in [1/3, 1], lower on [1/3, 1/2]); the third from one-zero-
    eigenvalue states, ``t3 = (3 t2 - 1)/2`` on t2 in [1/2, 1].  Its left
    endpoint t2 = 1/2 is the state (1/2, 1/2, 0), where it meets the lower
    arc at t3 = 1/4.  The arcs close up at the three t-space vertices.
    """
    if t2_samples < 2:
        raise ValueError("need at least 2 samples per arc")
    upper_t2 = np.linspace(1.0 / 3.0, 1.0, t2_samples)
    lower_t2 = np.linspace(1.0 / 3.0, 0.5, t2_samples)
    left = 0.5
    zero_t2 = np.linspace(left, 1.0, t2_samples)
    pieces = []
    for name, grid, t3 in (
        ("two-equal-upper", upper_t2, _two_equal(upper_t2, 1.0)),
        ("two-equal-lower", lower_t2, _two_equal(lower_t2, -1.0)),
        ("zero-eigenvalue", zero_t2, (3.0 * zero_t2 - 1.0) / 2.0),
    ):
        pieces.append(
            ParamCurve(
                space="t",
                points=np.column_stack([grid, t3]),
                parameter=grid,
                physical=np.ones(grid.size, dtype=bool),
                label=name,
                meta={"zero_eigenvalue_left_endpoint": left},
            )
        )
    return tuple(pieces)


_SEGMENT_FORMS = {
    "center-to-vertex": (
        lambda x: (3.0 + 6.0 * x**2) / 9.0,
        lambda x: (1.0 + 6.0 * x**2 + 2.0 * x**3) / 9.0,
        "((3+6x^2)/9, (1+6x^2+2x^3)/9)",
    ),
    "center-to-midpoint": (
        lambda x: (1.0 + x**2 / 2.0) / 3.0,
        lambda x: (1.0 / 3.0 + x**2 / 2.0 - x**3 / 12.0) / 3.0,
        "((1+x^2/2)/3, (1/3+x^2/2-x^3/12)/3)",
    ),
    "midpoint-to-vertex": (
        lambda x: 1.0 - 2.0 * x + 2.0 * x**2,
        lambda x: 1.0 - 3.0 * x + x**2,
        "(1-2x+2x^2, 1-3x+x^2)",
    ),
}


def lambda_segment_images(samples: int = 512) -> list:
    """t-space images of the three qutrit segment families.

    The segments run from the centroid to a vertex, from the centroid to
    an edge midpoint, and from an edge midpoint to a vertex.  Points are
    computed by applying the invariant map to the underlying p-space
    segments (the authoritative route); each curve's metadata records the
    closed parametric form in circulation for it and whether that form
    matches.  The midpoint-to-vertex form in circulation does not (its
    second component misses the x^2 coefficient: the invariant map on
    (x, 1-x, 0) gives ``t3 = 1 - 3x + 3x^2``), so only the verified curve
    is emitted.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per segment")
    center = np.full(3, 1.0 / 3.0)
    vertex = np.array([1.0, 0.0, 0.0])
    midpoint = np.array([0.5, 0.5, 0.0])
    curves = []
    for label, (xlo, xhi), start, end in (
        ("center-to-vertex", (0.0, 1.0), center, vertex),
        ("center-to-midpoint", (0.0, 1.0), center, midpoint),
        ("midpoint-to-vertex", (0.5, 1.0), np.array([0.0, 1.0, 0.0]), vertex),
    ):
        segment = _segment(start, end, np.linspace(xlo, xhi, samples), label)
        x, t = segment.parameter, invariants(segment.points)
        f2, f3, printed = _SEGMENT_FORMS[label]
        printed_points = np.column_stack([f2(x), f3(x)])
        matches = bool(np.max(np.abs(printed_points - t)) <= 1e-12)
        meta = {"closed_form": printed, "matches_closed_form": matches}
        curves.append(replace(segment, space="t", points=t, meta=meta))
    return curves


def permutation_images(curve: ParamCurve) -> list:
    """All coordinate-permuted copies of a p-space curve (the flower).

    Returns n! curves in lexicographic permutation order, the identity
    first; every copy has the same invariant image pointwise, and a
    transposition mirrors the curve about the corresponding bisectrix.
    """
    if curve.space != "p":
        raise ValueError(f"permutation images need a p-space curve, got {curve.space!r}")
    n = curve.points.shape[1]
    copies = []
    for perm in itertools.permutations(range(n)):
        pts = curve.points[:, list(perm)]
        label = "".join(str(i + 1) for i in perm)
        copies.append(
            ParamCurve(
                space="p",
                points=pts,
                parameter=curve.parameter,
                physical=curve.physical.copy(),
                label=f"{curve.label}-perm{label}" if curve.label else f"perm{label}",
                radius=curve.radius,
                meta={"permutation": perm},
            )
        )
    return copies
