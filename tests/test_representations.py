import itertools
import math

import numpy as np
import pytest

from quditgeom import (
    DimensionError,
    PositivityError,
    bloch_bound,
    build_generators,
    check_probability_vector,
    invariants,
    lambda_to_p,
    orbit_classification,
    p_to_lambda,
    polar_to_p,
    positivity_check,
    t_vertices,
    transformation_matrices,
)

SQ3 = math.sqrt(3.0)

# the qutrit and ququart transformation matrices in explicit form
M3 = 0.5 * np.array([
    [1.0, 1.0 / SQ3, 2.0 / 3.0],
    [-1.0, 1.0 / SQ3, 2.0 / 3.0],
    [0.0, -2.0 / SQ3, 2.0 / 3.0],
])
M3_INV = np.array([
    [1.0, -1.0, 0.0],
    [1.0 / SQ3, 1.0 / SQ3, -2.0 / SQ3],
    [1.0, 1.0, 1.0],
])
SQ6 = math.sqrt(6.0)
M4 = 0.5 * np.array([
    [1.0, 1.0 / SQ3, 1.0 / SQ6, 0.5],
    [-1.0, 1.0 / SQ3, 1.0 / SQ6, 0.5],
    [0.0, -2.0 / SQ3, 1.0 / SQ6, 0.5],
    [0.0, 0.0, -math.sqrt(1.5), 0.5],
])
M4_INV = np.array([
    [1.0, -1.0, 0.0, 0.0],
    [1.0 / SQ3, 1.0 / SQ3, -2.0 / SQ3, 0.0],
    [1.0 / SQ6, 1.0 / SQ6, 1.0 / SQ6, -math.sqrt(1.5)],
    [1.0, 1.0, 1.0, 1.0],
])


def test_transformation_matrices_match_explicit_forms():
    m3, m3i = transformation_matrices(3)
    np.testing.assert_allclose(m3, M3, atol=1e-15)
    np.testing.assert_allclose(m3i, M3_INV, atol=1e-15)
    m4, m4i = transformation_matrices(4)
    np.testing.assert_allclose(m4, M4, atol=1e-15)
    np.testing.assert_allclose(m4i, M4_INV, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4])
def test_m_times_m_inverse_is_identity(n):
    m, m_inv = transformation_matrices(n)
    assert np.abs(m @ m_inv - np.eye(n)).max() < 1e-14
    assert np.abs(m_inv @ m - np.eye(n)).max() < 1e-14


def test_p_to_lambda_known_points():
    np.testing.assert_allclose(p_to_lambda([1, 0, 0]), [1.0, 1.0 / SQ3], atol=1e-15)
    np.testing.assert_allclose(p_to_lambda([1 / 3, 1 / 3, 1 / 3]), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        p_to_lambda([0, 0, 0, 1]), [0.0, 0.0, -math.sqrt(1.5)], atol=1e-15
    )


def test_lambda_to_p_known_points():
    np.testing.assert_allclose(lambda_to_p([1.0, 1.0 / SQ3]), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(lambda_to_p([0.0, -2.0 / SQ3]), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(lambda_to_p([0.0, 0.0, 0.0]), np.full(4, 0.25), atol=1e-15)


def test_positivity_error_prints_the_component_as_a_plain_float():
    with pytest.raises(PositivityError, match=r"^p\[3\] = -0\.1 lies outside \[0, 1\]$"):
        check_probability_vector(np.array([0.5, 0.6, -0.1]))


# a sum of 1e308 + 1e308 overflows to inf; in numpy's pairwise sum of 16
# components, inf and -inf partial sums meet and make NaN
OVERFLOWING_SUMS = [[1e308, 1e308, -1e308], [1e308, -1e308, *[0.0] * 6, 1e308, -1e308, *[0.0] * 6]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", OVERFLOWING_SUMS, ids=["sum-inf", "sum-nan"])
@pytest.mark.parametrize("check", [check_probability_vector, p_to_lambda, invariants,
                                   orbit_classification], ids=lambda f: f.__name__)
def test_finite_p_whose_sum_overflows_is_refused_without_a_warning(check, p):
    with pytest.raises(PositivityError, match=r"^p\[1\] = 1e\+308 lies outside \[0, 1\]$"):
        check(p)


@pytest.mark.parametrize("p", [[1.0], [[1.0], [1.0]]], ids=["one-state", "stacked"])
def test_check_probability_vector_needs_two_components(p):
    # a single component of 1 is on the simplex; only the count refuses it
    with pytest.raises(DimensionError, match=r"^p must have at least 2 components$"):
        check_probability_vector(p)


def test_lambda_to_p_names_offending_component():
    # lambda_8 = -3 pushes p_1 = 1/3 + lambda_8/(2 sqrt(3)) below zero
    with pytest.raises(PositivityError) as excinfo:
        lambda_to_p([0.0, -3.0])
    assert excinfo.value.component == 1
    assert excinfo.value.value < 0
    with pytest.raises(PositivityError) as excinfo:
        lambda_to_p([3.0, 1.0 / SQ3])  # p_1 = 2 exceeds the upper bound
    assert excinfo.value.component == 1
    assert excinfo.value.value > 1


@pytest.mark.parametrize("n", [3, 4])
def test_round_trip_on_random_simplex_points(n):
    rng = np.random.default_rng(7)
    p = rng.dirichlet(np.ones(n), size=1000)
    back = lambda_to_p(p_to_lambda(p))
    assert np.abs(back - p).max() < 1e-12


def test_bloch_norm_bounded_on_random_states():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        lam = p_to_lambda(rng.dirichlet(np.ones(n), size=500))
        assert np.linalg.norm(lam, axis=1).max() <= bloch_bound(n) + 1e-12


def test_invariants_known_points():
    np.testing.assert_allclose(invariants([1, 0, 0]), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(invariants([0.5, 0.5, 0.0]), [0.5, 0.25], atol=1e-15)
    np.testing.assert_allclose(
        invariants(np.full(4, 0.25)), [0.25, 1 / 16, 1 / 64], atol=1e-15
    )


def test_invariants_permutation_blind():
    rng = np.random.default_rng(3)
    for n in (3, 4):
        p = rng.dirichlet(np.ones(n))
        base = invariants(p)
        for perm in itertools.permutations(range(n)):
            assert np.abs(invariants(p[list(perm)]) - base).max() < 1e-14


def test_qutrit_lambda_to_t_closed_form():
    # t2 = 1/3 + (l7^2+l8^2)/2, t3 = 1/9 + l7^2(2+sqrt(3) l8)/4 + l8^2(2 sqrt(3)-l8)/(4 sqrt(3))
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.dirichlet(np.ones(3))
        l7, l8 = p_to_lambda(p)
        t2, t3 = invariants(p)
        assert abs(t2 - (1 / 3 + (l7**2 + l8**2) / 2)) < 1e-12
        expected_t3 = 1 / 9 + l7**2 * (2 + SQ3 * l8) / 4 + l8**2 * (2 * SQ3 - l8) / (4 * SQ3)
        assert abs(t3 - expected_t3) < 1e-12


def test_t_vertices_values():
    v3 = t_vertices(3)
    np.testing.assert_allclose(v3[0], [1.0, 1.0], atol=0)
    np.testing.assert_allclose(v3[1], [0.5, 0.25], atol=0)
    np.testing.assert_allclose(v3[2], [1 / 3, 1 / 9], atol=1e-16)
    v4 = t_vertices(4)
    np.testing.assert_allclose(v4[3], [0.25, 1 / 16, 1 / 64], atol=0)
    for n in (2, 5, 7):
        np.testing.assert_allclose(t_vertices(n)[0], np.ones(n - 1), atol=0)
    with pytest.raises(DimensionError):
        t_vertices(1)


class TestPolar:
    def test_zero_radius_gives_center(self):
        for n, angles in ((2, ()), (3, (0.7,)), (4, (0.3, 1.1)), (5, (0.2, 0.4, 0.6))):
            point = polar_to_p(n, 0.0, angles)
            np.testing.assert_allclose(point.p, np.full(n, 1.0 / n), atol=1e-15)
            assert point.physical

    def test_qutrit_vertex_from_projection_oracle(self):
        # project the vertex displacement onto the frame to find (r, alpha)
        from quditgeom import simplex_frame

        frame = simplex_frame(3)
        delta = np.array([1.0, 0.0, 0.0]) - frame.center
        coeffs = frame.axes @ delta
        r = math.sqrt(2.0) * np.linalg.norm(coeffs)
        alpha = math.atan2(coeffs[1], coeffs[0])
        assert r == pytest.approx(2 / SQ3, abs=1e-14)
        assert alpha == pytest.approx(math.pi / 6, abs=1e-14)
        point = polar_to_p(3, r, (alpha,))
        np.testing.assert_allclose(point.p, [1, 0, 0], atol=1e-14)

    def test_ququart_vertex_via_least_squares_oracle(self):
        from quditgeom import simplex_frame

        frame = simplex_frame(4)
        delta = np.array([0.0, 0.0, 0.0, 1.0]) - frame.center
        coeffs, *_ = np.linalg.lstsq(frame.axes.T, delta, rcond=None)
        np.testing.assert_allclose(coeffs, [0.0, 0.0, -math.sqrt(0.75)], atol=1e-14)
        # direction is -e3, reached at theta = pi in the (phi, theta) ordering
        point = polar_to_p(4, math.sqrt(1.5), (0.0, math.pi))
        np.testing.assert_allclose(point.p, [0, 0, 0, 1], atol=1e-14)

    def test_ququart_purity_depends_only_on_radius(self):
        rng = np.random.default_rng(13)
        r = 0.42
        for _ in range(50):
            angles = (rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            point = polar_to_p(4, r, angles)
            t2 = (point.p**2).sum()
            assert abs(t2 - (1 + 2 * r**2) / 4) < 1e-12

    def test_out_of_simplex_is_flagged_not_raised(self):
        point = polar_to_p(3, 1.0, (math.pi / 2,))
        assert not point.physical
        assert abs(point.p.sum() - 1.0) < 1e-12

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            polar_to_p(3, -0.1, (0.0,))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unknown_convention_rejected(self, n):
        with pytest.raises(ValueError, match="unknown angle convention 'bogus'"):
            polar_to_p(n, 0.3, (0.1,) * (n - 2), convention="bogus")

    @pytest.mark.parametrize("n, count", [(2, 1), (3, 0), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4)])
    def test_wrong_angle_count_rejected(self, n, count):
        with pytest.raises(ValueError, match=f"expected {n - 2} angles for n = {n}, got {count}"):
            polar_to_p(n, 0.3, (0.1,) * count)

    @pytest.mark.parametrize("angles", [(math.nan, 0.2), (math.inf, 0.2), ((0.1, 0.2),)])
    def test_non_finite_or_nested_angles_rejected(self, angles):
        with pytest.raises(ValueError, match="flat sequence of finite numbers"):
            polar_to_p(4, 0.3, angles)

    def test_appendix_convention_differs_for_ququart(self):
        main = polar_to_p(4, 0.5, (0.4, 1.2), convention="main")
        alt = polar_to_p(4, 0.5, (0.4, 1.2), convention="appendix")
        assert not np.allclose(main.p, alt.p)
        # hyperspherical ordering puts cos(theta_1) on the first axis
        from quditgeom import simplex_frame

        frame = simplex_frame(4)
        c = np.array([
            math.cos(0.4),
            math.sin(0.4) * math.cos(1.2),
            math.sin(0.4) * math.sin(1.2),
        ])
        expected = frame.center + 0.5 / math.sqrt(2) * (c @ frame.axes)
        np.testing.assert_allclose(alt.p, expected, atol=1e-15)


class TestPositivity:
    def test_simple_diagonal_states(self):
        res = positivity_check(np.diag([0.5, 0.3, 0.2]))
        assert res.positive
        assert res.coefficients[0] == pytest.approx(1.0, abs=1e-14)

    def test_pure_state_rank_one(self):
        res = positivity_check(np.diag([1.0, 0.0, 0.0]))
        assert res.positive
        assert abs(res.coefficients[1]) < 1e-14
        assert abs(res.coefficients[2]) < 1e-14

    def test_over_long_bloch_vector_detected(self):
        lam7 = build_generators(3).matrix(7)
        rho = np.eye(3) / 3 + lam7  # lambda_7 = 2, eigenvalues 1/3 +- 1 and 1/3
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() < 0
        assert not positivity_check(rho).positive

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            positivity_check(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            positivity_check(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            positivity_check(np.diag([np.nan, 1.0]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_eigenvalue_signs(self, n):
        rng = np.random.default_rng(100 + n)
        disagreements = 0
        for _ in range(1000):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (a + a.conj().T) / 2
            h += (1.0 - np.trace(h).real) / n * np.eye(n)
            by_coeffs = positivity_check(h).positive
            by_eigs = bool(np.linalg.eigvalsh(h).min() >= -1e-10)
            disagreements += by_coeffs != by_eigs
        assert disagreements == 0

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 16])
    def test_small_negative_eigenvalue_detected(self, n):
        # an absolute coefficient slack of 1e-10 passed 153 of these at n = 8;
        # a slack relative to each Newton step still passed 20 at n = 12 and 138 at n = 16
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(n))
            p[-1] = -1.1e-3
            assert not positivity_check(np.diag(p)).positive

    @pytest.mark.parametrize("n", range(2, 17))
    def test_agrees_with_the_spectrum_on_unitary_conjugates(self, n):
        # Newton's identities in floats judged 960 of the 4,500 negative ones positive
        rng = np.random.default_rng(700 + n)
        for _ in range(300):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            negative = rng.dirichlet(np.ones(n))
            negative[-1] = -(10.0 ** rng.uniform(-6.0, -1.0)) * negative[:-1].max()
            psd = rng.dirichlet(np.ones(n))
            psd[: n // 2] = 0.0
            for eigs, positive in ((negative, False), (psd, True)):
                assert positivity_check((q * eigs) @ q.conj().T).positive is positive

    def test_empty_matrix_is_positive(self):
        res = positivity_check(np.zeros((0, 0)))
        assert res.positive
        assert res.coefficients.shape == (0,)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_random_psd_matrices_judged_positive(self, n):
        rng = np.random.default_rng(n)
        for rank in (n, n // 2):
            for _ in range(200):
                a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                h = a @ a.conj().T
                assert positivity_check(h / np.trace(h).real).positive


class TestOrbits:
    def test_generic_point(self):
        pat = orbit_classification([0.5, 0.3, 0.2])
        assert pat.multiplicities == (1, 1, 1)
        assert pat.orbit_dimension == 6

    def test_rejects_a_stack_of_states(self):
        with pytest.raises(ValueError, match="takes a single probability vector"):
            orbit_classification(np.full((2, 3), 1 / 3))

    def test_double_degeneracy(self):
        pat = orbit_classification([0.4, 0.4, 0.2])
        assert pat.multiplicities == (2, 1)
        assert pat.orbit_dimension == 4

    def test_most_mixed_ququart(self):
        pat = orbit_classification(np.full(4, 0.25))
        assert pat.multiplicities == (4,)
        assert pat.orbit_dimension == 0

    def test_orbit_dimension_value_sets(self):
        def partitions(n, cap=None):
            cap = cap or n
            if n == 0:
                yield ()
                return
            for first in range(min(n, cap), 0, -1):
                for rest in partitions(n - first, first):
                    yield (first,) + rest

        for n, expected in ((3, {0, 4, 6}), (4, {0, 6, 8, 10, 12})):
            dims = set()
            for mult in partitions(n):
                weights = np.concatenate(
                    [np.full(m, 1.0 + 0.1 * i) for i, m in enumerate(mult)]
                )
                p = weights / weights.sum()
                dims.add(orbit_classification(p).orbit_dimension)
            assert dims == expected
