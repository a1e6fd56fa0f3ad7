import itertools
import math

import numpy as np
import pytest

from quditgeom import (
    DimensionError,
    constant_invariant_surface_ququart,
    constant_t2_locus,
    constant_t3_locus_qutrit,
    invariants,
    lambda_segment_images,
    linear_spectrum,
    p_to_lambda,
    permutation_images,
    polar_to_p,
    qutrit_t3_radius,
    simplex_edges,
    simplex_medians,
    t_space_boundary_qutrit,
    t_vertices,
    trajectory,
)
from quditgeom.curves import ParamCurve


class TestEdgesAndMedians:
    def test_edge_endpoints_and_midpoint(self):
        edges = simplex_edges(3, samples=3)
        assert len(edges) == 3
        first = edges[0]
        assert first.label == "edge-12"
        np.testing.assert_allclose(first.points[0], [1, 0, 0], atol=0)
        np.testing.assert_allclose(first.points[1], [0.5, 0.5, 0.0], atol=0)
        np.testing.assert_allclose(invariants(first.points[1]), [0.5, 0.25], atol=1e-15)

    def test_edge_count_ququart(self):
        assert len(simplex_edges(4, samples=2)) == 6

    def test_median_values(self):
        medians = simplex_medians(3, samples=4)
        assert len(medians) == 3
        m1 = medians[0]
        np.testing.assert_allclose(m1.points[-1], [0.0, 0.5, 0.5], atol=1e-15)
        # the centroid sits at x = 2/3 on every median
        x = 2.0 / 3.0
        for median in medians:
            start = median.points[0]
            end = median.points[-1]
            np.testing.assert_allclose(
                start + x * (end - start), np.full(3, 1 / 3), atol=1e-15
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_edges_are_the_segment_map(self, n):
        x = np.linspace(0.0, 1.0, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = simplex_edges(n, samples=7)
        assert [c.label for c in edges] == [f"edge-{j + 1}{k + 1}" for j, k in pairs]
        for curve, (j, k) in zip(edges, pairs):
            start, end = np.eye(n)[j], np.eye(n)[k]
            assert np.array_equal(curve.points, start + np.outer(x, end - start))
            assert np.array_equal(curve.parameter, x)
            assert curve.physical.all() and curve.space == "p"

    def test_medians_are_the_segment_map(self):
        x = np.linspace(0.0, 1.0, 5)
        medians = simplex_medians(3, samples=5)
        assert [c.label for c in medians] == ["median-1", "median-2", "median-3"]
        for j, curve in enumerate(medians):
            start = np.eye(3)[j]
            end = np.full(3, 0.5)  # the midpoint of the opposite edge
            end[j] = 0.0
            assert np.array_equal(curve.points, start + np.outer(x, end - start))
            assert np.array_equal(curve.parameter, x)
            assert curve.physical.all() and curve.space == "p"

    def test_ququart_equal_pair_planes(self):
        meshes = simplex_medians(4, samples=9)
        assert len(meshes) == 6
        mesh = meshes[0]
        assert mesh.label == "plane-p1=p2"
        inside = mesh.physical
        pts = mesh.points[inside]
        np.testing.assert_allclose(pts[:, 0], pts[:, 1], atol=1e-15)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            simplex_edges(2)
        with pytest.raises(DimensionError):
            simplex_medians(5)
        with pytest.raises(ValueError, match="need at least 2 samples per edge"):
            simplex_edges(3, samples=1)
        with pytest.raises(ValueError, match="need at least 2 samples"):
            simplex_medians(3, samples=1)


class TestConstantT2:
    def test_degenerate_circle_is_center(self):
        for t2 in (1 / 3, 1 / 3 - 5e-13):
            curve = constant_t2_locus(3, t2, samples=8)
            np.testing.assert_allclose(curve.points, np.full((8, 3), 1 / 3), atol=1e-15)

    def test_vertex_on_pure_circle(self):
        curve = constant_t2_locus(3, 1.0, samples=12)
        # alpha = pi/6 is the first-vertex direction: sample index 1 of 12
        np.testing.assert_allclose(curve.points[1], [1, 0, 0], atol=1e-14)

    def test_self_consistency_qutrit(self):
        curve = constant_t2_locus(3, 0.5, samples=64)
        t2 = (curve.points**2).sum(axis=1)
        assert np.abs(t2 - 0.5).max() < 1e-12
        assert curve.physical.all()

    def test_unphysical_arcs_flagged(self):
        curve = constant_t2_locus(3, 0.9, samples=360)
        assert curve.physical.any()
        assert not curve.physical.all()
        outside = curve.points[~curve.physical]
        assert (outside.min(axis=1) < -1e-12).all()

    def test_ququart_sphere(self):
        mesh = constant_t2_locus(4, 0.5, theta_samples=9, phi_samples=12)
        t2 = (mesh.points**2).sum(axis=-1)
        assert np.abs(t2 - 0.5).max() < 1e-12

    @pytest.mark.parametrize("n", [5, 6])
    def test_dimensions_past_four_are_refused(self, n):
        with pytest.raises(DimensionError, match=rf"implemented for n in {{3, 4}}, got {n}$"):
            constant_t2_locus(n, 0.5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            constant_t2_locus(3, 0.2)
        with pytest.raises(ValueError):
            constant_t2_locus(4, 1.2)


class TestConstantT3Qutrit:
    def test_radius_at_centroid_value(self):
        # a target within the simplex slack below 1/9 is clamped onto it
        for t3 in (1 / 9, 1 / 9 - 5e-13):
            for alpha in (0.0, 1.0, 2.5):
                assert qutrit_t3_radius(t3, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_radius_at_pure_value_on_vertex_axis(self):
        r = qutrit_t3_radius(1.0, 0.0)
        assert r == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        # direct check of the radius equation
        assert 1 / 9 + r**2 + r**3 / math.sqrt(6) == pytest.approx(1.0, abs=1e-12)

    def test_no_admissible_root_far_from_vertices(self):
        assert math.isnan(qutrit_t3_radius(1.0, math.pi / 3))

    def test_self_consistency(self):
        curve = constant_t3_locus_qutrit(0.25, alpha_samples=96)
        found = np.isfinite(curve.radius)
        assert found.all()
        t3 = (curve.points**3).sum(axis=1)
        assert np.abs(t3 - 0.25).max() < 1e-10
        assert curve.physical.all()

    def test_three_fold_symmetry(self):
        curve = constant_t3_locus_qutrit(0.25, alpha_samples=96)
        shifted = np.roll(curve.radius, -32)  # 2 pi / 3 of 96 samples
        assert np.abs(curve.radius - shifted).max() < 1e-12

    def test_partially_physical_curve(self):
        curve = constant_t3_locus_qutrit(11 / 18, alpha_samples=180)
        assert curve.physical.any()
        assert not curve.physical.all()

    def test_root_selection_stability(self):
        alphas = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        for alpha in alphas:
            r0 = qutrit_t3_radius(0.25, alpha)
            r1 = qutrit_t3_radius(0.25 + 1e-9, alpha)
            # derivative of the radius equation keeps the root well conditioned
            slope = 2 * r0 + 3 * math.cos(3 * alpha) / math.sqrt(6) * r0**2
            if abs(slope) > 1e-2:
                assert abs(r1 - r0) < 1e-5

    def test_range_validation(self):
        with pytest.raises(ValueError):
            constant_t3_locus_qutrit(0.05)
        with pytest.raises(ValueError):
            constant_t3_locus_qutrit(1.1)


class TestQuquartSurfaces:
    def test_t3_at_lower_bound_degenerates_to_center(self):
        for t3 in (1 / 16, 1 / 16 - 5e-13):
            mesh = constant_invariant_surface_ququart("t3", t3, theta_samples=5, phi_samples=6)
            assert np.abs(mesh.radius).max() < 1e-10
            np.testing.assert_allclose(mesh.points, np.full((5, 6, 4), 0.25), atol=1e-10)

    def test_t4_at_lower_bound_degenerates_to_center(self):
        for t4 in (1 / 64, 1 / 64 - 5e-13):
            mesh = constant_invariant_surface_ququart("t4", t4, theta_samples=4, phi_samples=6)
            assert np.abs(mesh.radius).max() < 1e-10

    @pytest.mark.parametrize("which,value", [("t3", 7 / 40), ("t3", 0.1), ("t4", 5 / 64), ("t4", 1 / 32)])
    def test_self_consistency(self, which, value):
        mesh = constant_invariant_surface_ququart(which, value, theta_samples=15, phi_samples=18)
        found = np.isfinite(mesh.radius)
        assert found.all()
        ell = int(which[1])
        recomputed = invariants(mesh.points.reshape(-1, 4), validate=False)[:, ell - 2]
        assert np.abs(recomputed - value).max() < 1e-9

    def test_t4_default_mesh_meets_target_where_roots_cluster(self):
        # at t4 = 0.039321 a few nodes have two radius roots close together
        mesh = constant_invariant_surface_ququart("t4", 0.039321)
        t4 = (mesh.points[mesh.physical] ** 4).sum(axis=-1)
        assert np.abs(t4 - 0.039321).max() <= 1e-12

    @pytest.mark.parametrize("which,value", [("t3", 7 / 40), ("t4", 5 / 64)])
    def test_phi_symmetry(self, which, value):
        mesh = constant_invariant_surface_ququart(which, value, theta_samples=9, phi_samples=18)
        shifted = np.roll(mesh.radius, -6, axis=1)  # 2 pi/3 of 18 phi samples
        assert np.nanmax(np.abs(mesh.radius - shifted)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_invariant_surface_ququart("t5", 0.5)
        with pytest.raises(ValueError):
            constant_invariant_surface_ququart("t3", 0.01)
        with pytest.raises(ValueError, match=r"^t4 must lie in \[1/64, 1\], got 0\.01$"):
            constant_invariant_surface_ququart("t4", 0.01)


class TestBoundary:
    def test_upper_arc_endpoints(self):
        upper, lower, zero = t_space_boundary_qutrit(64)
        np.testing.assert_allclose(upper.points[0], [1 / 3, 1 / 9], atol=1e-14)
        np.testing.assert_allclose(upper.points[-1], [1.0, 1.0], atol=1e-14)

    def test_lower_arc_meets_second_vertex(self):
        _, lower, _ = t_space_boundary_qutrit(64)
        np.testing.assert_allclose(lower.points[-1], [0.5, 0.25], atol=1e-12)

    def test_zero_eigenvalue_line_values(self):
        *_, zero = t_space_boundary_qutrit(64)
        assert zero.meta["zero_eigenvalue_left_endpoint"] == 0.5
        np.testing.assert_allclose(zero.points[0], [0.5, 0.25], atol=1e-10)
        np.testing.assert_allclose(zero.points[-1], [1.0, 1.0], atol=1e-14)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError, match="need at least 2 samples per arc"):
            t_space_boundary_qutrit(1)
        with pytest.raises(ValueError, match="need at least 2 samples per segment"):
            lambda_segment_images(1)

    def test_pieces_close_at_t_vertices(self):
        upper, lower, zero = t_space_boundary_qutrit(512)
        verts = t_vertices(3)
        assert np.abs(upper.points[-1] - verts[0]).max() < 1e-10  # pure
        assert np.abs(zero.points[-1] - verts[0]).max() < 1e-10
        assert np.abs(lower.points[-1] - verts[1]).max() < 1e-10  # two equal halves
        assert np.abs(zero.points[0] - verts[1]).max() < 1e-10
        assert np.abs(upper.points[0] - verts[2]).max() < 1e-10  # most mixed
        assert np.abs(lower.points[0] - verts[2]).max() < 1e-10

    def test_arcs_match_two_equal_eigenvalue_states(self):
        # states (q, q, 1-2q) generate both two-equal arcs
        upper, lower, _ = t_space_boundary_qutrit(8)
        for q in np.linspace(0.0, 0.5, 40):
            p = np.array([q, q, 1 - 2 * q])
            t2, t3 = invariants(p)
            on_upper = abs(t3 - (t2 - 2 / 9 + (3 * t2 - 1) ** 1.5 / (9 * math.sqrt(2)))) < 1e-12
            on_lower = abs(t3 - (t2 - 2 / 9 - (3 * t2 - 1) ** 1.5 / (9 * math.sqrt(2)))) < 1e-12
            assert on_upper or on_lower


class TestSegmentImages:
    def test_center_to_vertex_matches_closed_form(self):
        curves = {c.label: c for c in lambda_segment_images(33)}
        cv = curves["center-to-vertex"]
        assert cv.meta["matches_closed_form"]
        np.testing.assert_allclose(cv.points[0], [1 / 3, 1 / 9], atol=1e-15)
        np.testing.assert_allclose(cv.points[-1], [1.0, 1.0], atol=1e-15)

    def test_center_to_midpoint_matches_closed_form(self):
        curves = {c.label: c for c in lambda_segment_images(33)}
        assert curves["center-to-midpoint"].meta["matches_closed_form"]

    def test_midpoint_to_vertex_uses_invariant_map(self):
        curves = {c.label: c for c in lambda_segment_images(33)}
        mp = curves["midpoint-to-vertex"]
        assert not mp.meta["matches_closed_form"]
        np.testing.assert_allclose(mp.points[0], [0.5, 0.25], atol=1e-15)
        x = mp.parameter
        np.testing.assert_allclose(mp.points[:, 0], 1 - 2 * x + 2 * x**2, atol=1e-15)
        np.testing.assert_allclose(mp.points[:, 1], 1 - 3 * x + 3 * x**2, atol=1e-15)

    def test_images_agree_with_invariants_of_segments(self):
        for curve in lambda_segment_images(17):
            assert curve.space == "t"
            assert curve.physical.all()


class TestPermutationImages:
    def _thermal_curve(self, j=1):
        traj = trajectory(linear_spectrum(j, 1.0), np.logspace(-2, 1.5, 40))
        return ParamCurve(
            space="p",
            points=traj.p,
            parameter=traj.beta,
            physical=np.ones(traj.beta.size, dtype=bool),
            label="thermal",
        )

    def test_identity_copy_first_and_counts(self):
        base = self._thermal_curve()
        copies = permutation_images(base)
        assert len(copies) == 6
        np.testing.assert_array_equal(copies[0].points, base.points)
        assert copies[0].meta["permutation"] == (0, 1, 2)

    def test_ququart_count(self):
        base = self._thermal_curve(j=1.5)
        assert len(permutation_images(base)) == 24

    def test_invariant_images_coincide(self):
        copies = permutation_images(self._thermal_curve())
        base_t = invariants(copies[0].points)
        for copy in copies[1:]:
            assert np.abs(invariants(copy.points) - base_t).max() < 1e-14

    def test_swap_is_reflection_about_first_vertex_bisectrix(self):
        # swapping p2 and p3 reflects lambda about the axis at 30 degrees
        copies = permutation_images(self._thermal_curve())
        swapped = next(c for c in copies if c.meta["permutation"] == (0, 2, 1))
        reflection = np.array([[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
        lam_base = p_to_lambda(copies[0].points)
        lam_swap = p_to_lambda(swapped.points)
        assert np.abs(lam_swap - lam_base @ reflection.T).max() < 1e-12

    def test_rejects_non_p_curves(self):
        curve = lambda_segment_images(4)[0]
        with pytest.raises(ValueError):
            permutation_images(curve)


def test_param_curve_lengths_checked():
    with pytest.raises(ValueError, match="points and parameter must have equal length"):
        ParamCurve(space="p", points=np.zeros((3, 3)), parameter=np.zeros(2),
                   physical=np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="physical mask must match the parameter length"):
        ParamCurve(space="p", points=np.zeros((3, 3)), parameter=np.zeros(3),
                   physical=np.ones(2, dtype=bool))


def test_physical_points_always_satisfy_simplex_invariants():
    # masked-physical nodes of any generated locus are genuine simplex points
    loci = [
        constant_t2_locus(3, 0.9, samples=180),
        constant_t3_locus_qutrit(11 / 18, alpha_samples=180),
        constant_t3_locus_qutrit(0.25, alpha_samples=60),
    ]
    mesh = constant_invariant_surface_ququart("t3", 0.3, theta_samples=12, phi_samples=15)
    for locus in loci:
        pts = locus.points[locus.physical]
        assert np.abs(pts.sum(axis=1) - 1.0).max() < 1e-12
        assert pts.min() >= -1e-12
    pts = mesh.points[mesh.physical]
    assert np.abs(pts.sum(axis=-1) - 1.0).max() < 1e-12
    assert pts.min() >= -1e-12
    assert not mesh.physical.all()  # this surface leaves the simplex


def test_permuted_images_rotate_by_two_pi_thirds():
    # cyclic permutations rotate the lambda-space flower by 2 pi/3
    traj = trajectory(linear_spectrum(1, 1.0), np.logspace(-2, 1.0, 20))
    base = ParamCurve(
        space="p",
        points=traj.p,
        parameter=traj.beta,
        physical=np.ones(traj.beta.size, dtype=bool),
    )
    copies = {c.meta["permutation"]: c for c in permutation_images(base)}
    angle = 2 * math.pi / 3
    rotation = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    lam = p_to_lambda(base.points)
    # u = (p3, p1, p2) places each occupation one slot later
    rotated = p_to_lambda(copies[(2, 0, 1)].points)
    assert np.abs(rotated - lam @ rotation.T).max() < 1e-12


@pytest.mark.parametrize("locus, frame_offset", [
    (constant_t2_locus(3, 0.6, samples=24), 0.0),
    (constant_t3_locus_qutrit(0.3, alpha_samples=24), math.pi / 6),
    (constant_t3_locus_qutrit(0.8, alpha_samples=24), math.pi / 6),
])
def test_qutrit_locus_nodes_are_polar_points(locus, frame_offset):
    # the qutrit radius is Euclidean: r_Bloch = sqrt(2) * radius
    found = np.isfinite(locus.radius)
    assert found.any()
    for alpha, radius, p, physical in zip(locus.parameter[found], locus.radius[found],
                                          locus.points[found], locus.physical[found]):
        point = polar_to_p(3, math.sqrt(2.0) * radius, (alpha + frame_offset,))
        np.testing.assert_allclose(point.p, p, rtol=0, atol=1e-15)
        assert point.physical == physical


@pytest.mark.parametrize("locus", [
    constant_t2_locus(4, 0.5, theta_samples=9, phi_samples=12),
    constant_invariant_surface_ququart("t3", 0.2, theta_samples=9, phi_samples=12),
    constant_invariant_surface_ququart("t4", 0.1, theta_samples=9, phi_samples=12),
])
def test_ququart_locus_nodes_are_polar_points(locus):
    found = np.isfinite(locus.radius)
    assert found.any()
    for theta, phi, radius, p, physical in zip(locus.u[found], locus.v[found],
                                               locus.radius[found], locus.points[found],
                                               locus.physical[found]):
        point = polar_to_p(4, radius, (phi, theta))
        np.testing.assert_allclose(point.p, p, rtol=0, atol=1e-15)
        assert point.physical == physical
