import math
import re

import numpy as np
import pytest

from quditgeom import (
    DimensionError,
    LMGParams,
    Spectrum,
    angular_momentum,
    classify_region,
    direction_hamiltonian,
    gibbs_state,
    linear_spectrum,
    lmg_hamiltonian,
    invariants,
    label_ordered_occupations,
    lambda_to_p,
    lmg_spectrum,
    p_to_lambda,
    phase_grid,
    separatrix,
    trajectory,
)


class TestAngularMomentum:
    def test_jz_values(self):
        np.testing.assert_allclose(angular_momentum(1).jz, np.diag([1, 0, -1]), atol=0)
        np.testing.assert_allclose(
            angular_momentum(1.5).jz, np.diag([1.5, 0.5, -0.5, -1.5]), atol=0
        )

    def test_casimir_j1(self):
        am = angular_momentum(1)
        total = am.jx @ am.jx + am.jy @ am.jy + am.jz @ am.jz
        np.testing.assert_allclose(total, 2 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4])
    def test_commutators_and_hermiticity(self, j):
        am = angular_momentum(j)
        for mat in (am.jx, am.jy, am.jz):
            assert np.abs(mat - mat.conj().T).max() < 1e-12
        for a, b, c in ((am.jx, am.jy, am.jz), (am.jy, am.jz, am.jx), (am.jz, am.jx, am.jy)):
            assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12
        casimir = am.jx @ am.jx + am.jy @ am.jy + am.jz @ am.jz
        assert np.abs(casimir - j * (j + 1) * np.eye(casimir.shape[0])).max() < 1e-12

    @pytest.mark.parametrize("bad", [0, 1e-13, -1, 0.3, 1.2, math.inf])
    def test_bad_spin_rejected(self, bad):
        with pytest.raises(DimensionError):
            angular_momentum(bad)


# every public function that takes J, called with valid other arguments
SPIN_ENTRY_POINTS = {
    "angular_momentum": angular_momentum,
    "linear_spectrum": linear_spectrum,
    "lmg_hamiltonian": lambda j: lmg_hamiltonian(j, LMGParams()),
    "direction_hamiltonian": lambda j: direction_hamiltonian(j, 1.0, 0.3, 0.2),
    "lmg_spectrum": lambda j: lmg_spectrum(j, LMGParams()),
    "separatrix": lambda j: separatrix(j, "ground", 0.0),
    "classify_region": lambda j: classify_region(j, LMGParams()),
    "label_ordered_occupations": lambda j: label_ordered_occupations(j, LMGParams(), 1.0),
    "phase_grid": lambda j: phase_grid(j, [0.0], [0.0], 1.0),
}


class TestSpinBound:
    # 1,025 and 1,026 levels, and a spin whose levels no array could hold
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j, shown", [(512, "512"), (512.5, "512.5"), (1e300, "1e+300")],
                             ids=["512", "1025/2", "1e300"])
    @pytest.mark.parametrize("call", SPIN_ENTRY_POINTS.values(), ids=SPIN_ENTRY_POINTS.keys())
    def test_spin_past_the_level_bound_is_refused(self, call, j, shown):
        message = f"J = {shown} is too large: 2J + 1 may be at most 1024 (J <= 511.5)"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            call(j)

    def test_spin_of_1024_levels_is_accepted(self):
        assert linear_spectrum(511.5).energies.size == 1024


class TestLinearSpectrum:
    def test_values(self):
        np.testing.assert_allclose(linear_spectrum(1, 1.0).energies, [-1, 0, 1], atol=0)
        np.testing.assert_allclose(
            linear_spectrum(1.5, 1.0).energies, [-1.5, -0.5, 0.5, 1.5], atol=0
        )

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            linear_spectrum(1, 0.0)
        with pytest.raises(ValueError):
            linear_spectrum(1, -2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j", [2, 4])
    def test_overflowing_levels_raise_one_error_without_a_warning(self, j):
        with pytest.raises(ValueError, match="^energies must be finite$"):
            linear_spectrum(j, 1e308)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
    def test_direction_invariance(self, j):
        rng = np.random.default_rng(int(2 * j))
        expected = linear_spectrum(j, 1.3).energies
        for _ in range(50):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            h = direction_hamiltonian(j, 1.3, theta, phi)
            np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-10)


class TestLMGSpectrum:
    def test_zero_couplings_qutrit(self):
        spec = lmg_spectrum(1, LMGParams(omega=1.0))
        np.testing.assert_allclose(spec.energies, [-2, 0, 2], atol=1e-14)

    def test_zero_couplings_ququart(self):
        spec = lmg_spectrum(1.5, LMGParams(omega=1.0))
        np.testing.assert_allclose(spec.energies, [-3, -1, 1, 3], atol=1e-14)

    def test_printed_closed_form_example(self):
        params = LMGParams(omega=1.0, g_x=1.0, g_y=0.5)
        spec = lmg_spectrum(1, params)
        expected = 1.5 - math.sqrt(4.25)
        assert abs(spec.energies[0] - expected) < 1e-14
        numeric = np.linalg.eigvalsh(lmg_hamiltonian(1, params))
        np.testing.assert_allclose(spec.energies, numeric, atol=1e-10)

    @pytest.mark.parametrize("j", [1, 1.5])
    def test_analytic_vs_numeric_on_random_couplings(self, j):
        rng = np.random.default_rng(31)
        for _ in range(500):
            gx, gy = rng.uniform(-6, 6, 2)
            params = LMGParams(omega=1.0, g_x=gx, g_y=gy)
            analytic = lmg_spectrum(j, params).energies
            numeric = np.linalg.eigvalsh(lmg_hamiltonian(j, params))
            tol = 1e-10 * max(1.0, abs(gx), abs(gy))
            assert np.abs(analytic - numeric).max() < tol

    def test_numeric_path_for_other_spins(self):
        params = LMGParams(omega=1.0, g_x=0.4, g_y=-0.8)
        spec = lmg_spectrum(2, params)
        np.testing.assert_allclose(
            spec.energies, np.linalg.eigvalsh(lmg_hamiltonian(2, params)), atol=1e-10
        )

    def test_labels_follow_sorted_levels(self):
        spec = lmg_spectrum(1, LMGParams(omega=1.0, g_x=0.0, g_y=0.0))
        # E2 = -2, E1 = 0, E3 = 2 at zero couplings
        assert spec.labels == ("E2", "E1", "E3")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j", [1, 1.5, 2, 2.5])
    def test_overflowing_levels_raise_one_error_without_a_warning(self, j):
        # closed forms for J = 1 and 3/2, the numeric path for J = 2 and 5/2
        for params in (LMGParams(omega=1e308, g_x=1.0), LMGParams(omega=1.0, g_y=1e308)):
            with pytest.raises(ValueError, match="^energies must be finite$"):
                lmg_spectrum(j, params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j", [2, 2.5, 4])
    def test_overflowing_hamiltonians_are_refused_without_a_warning(self, j):
        with pytest.raises(ValueError, match="^energies must be finite$"):
            lmg_hamiltonian(j, LMGParams(omega=1e308, g_x=1.0))
        with pytest.raises(ValueError, match="^energies must be finite$"):
            direction_hamiltonian(j, 1e308, 0.3, 0.2)


class TestSeparatrix:
    def test_printed_values(self):
        assert separatrix(1, "ground", 0.0) == pytest.approx(-2.0, abs=1e-15)
        assert separatrix(1.5, "excited", 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_degeneracy_on_ground_separatrix_j1(self):
        g_minus = np.linspace(-6, 6, 100)
        for gm, gp in zip(g_minus, separatrix(1, "ground", g_minus)):
            spec = lmg_spectrum(1, LMGParams.from_plus_minus(gm, gp))
            assert spec.energies[1] - spec.energies[0] < 1e-9

    def test_degeneracy_pairs_by_label(self):
        # ground branch: E1 = E2; excited branch: E1 = E3 (J=1), E3 = E4 (J=3/2)
        g_minus = np.linspace(-6, 6, 100)
        for j, branch, pair in ((1, "ground", (0, 1)), (1, "excited", (0, 2)),
                                (1.5, "ground", (0, 1)), (1.5, "excited", (2, 3))):
            from quditgeom.models import _lmg_labeled_energies

            for gm, gp in zip(g_minus, separatrix(j, branch, g_minus)):
                params = LMGParams.from_plus_minus(gm, gp)
                energies = _lmg_labeled_energies(j, params.omega, params.g_plus, params.g_minus)
                assert abs(energies[pair[0]] - energies[pair[1]]) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("j", [1, 1.5])
    def test_huge_g_minus_does_not_overflow(self, j):
        g_minus = np.array([1e200, -1e200, 1.5e154])
        assert np.array_equal(separatrix(j, "ground", g_minus), -np.abs(g_minus))
        assert np.array_equal(separatrix(j, "excited", g_minus), np.abs(g_minus))

    def test_unsupported_spin(self):
        with pytest.raises(DimensionError):
            separatrix(2, "ground", 0.0)
        with pytest.raises(ValueError):
            separatrix(1, "middle", 0.0)


class TestClassifyRegion:
    def test_region_one_example(self):
        region = classify_region(1, LMGParams.from_plus_minus(0.0, -3.0))
        assert region.region_id == "I"
        assert region.energy_order == (1, 2, 3)

    def test_region_two_example(self):
        region = classify_region(1, LMGParams.from_plus_minus(0.0, 0.0))
        assert region.region_id == "II"
        assert region.energy_order == (2, 1, 3)

    def test_region_three_ordering(self):
        region = classify_region(1, LMGParams.from_plus_minus(0.0, 3.0))
        assert region.region_id == "III"
        assert region.energy_order == (2, 3, 1)

    def test_ququart_regions(self):
        assert classify_region(1.5, LMGParams.from_plus_minus(0.0, -3.0)).region_id == "I"
        assert classify_region(1.5, LMGParams.from_plus_minus(0.0, 0.0)).region_id == "II"
        region = classify_region(1.5, LMGParams.from_plus_minus(0.0, 3.0))
        assert region.region_id == "III"
        assert region.energy_order == (2, 1, 4, 3)

    def test_double_degeneracy_points(self):
        up = classify_region(1.5, LMGParams.from_plus_minus(0.0, 2.0))
        assert up.region_id == "boundary"
        assert (1, 4) in up.degenerate_pairs
        down = classify_region(1.5, LMGParams.from_plus_minus(0.0, -2.0))
        assert down.region_id == "boundary"
        assert (2, 3) in down.degenerate_pairs

    def test_on_separatrix_returns_boundary(self):
        gp = separatrix(1, "ground", 1.0)
        region = classify_region(1, LMGParams.from_plus_minus(1.0, float(gp)))
        assert region.region_id == "boundary"
        assert (1, 2) in region.degenerate_pairs

    @pytest.mark.parametrize("j", [1, 1.5])
    def test_probability_order_matches_gibbs(self, j):
        from quditgeom import label_ordered_occupations

        rng = np.random.default_rng(53)
        for _ in range(100):
            params = LMGParams(omega=1.0, g_x=rng.uniform(-6, 6), g_y=rng.uniform(-6, 6))
            region = classify_region(j, params)
            if region.region_id == "boundary":
                continue
            spec = lmg_spectrum(j, params)
            state = gibbs_state(spec, rng.uniform(0.1, 3.0))
            # occupation is descending over the sorted spectrum, so the
            # label sequence of the sorted levels is the probability order
            labels = tuple(int(lab[1:]) for lab in spec.labels)
            assert labels == region.energy_order
            assert np.all(np.diff(state.p) <= 1e-15)
            # and the label-ordered vector sorts in exactly that order
            p_label = label_ordered_occupations(j, params, 0.7)
            order = tuple(int(i) + 1 for i in np.argsort(-p_label, kind="stable"))
            assert order == region.energy_order


class TestPhaseSweep:
    def test_beta_zero_coalesces_to_center(self):
        grid = phase_grid(1, np.linspace(-2, 2, 3), np.linspace(-2, 2, 3), beta=0.0)
        assert len(grid) == 9
        np.testing.assert_allclose(grid.p, np.full((9, 3), 1 / 3), atol=1e-14)

    def test_large_beta_region_one_reaches_vertex(self):
        grid = phase_grid(1, [0.0], [-5.0], beta=200.0)
        np.testing.assert_allclose(grid.p[0], [1, 0, 0], atol=1e-12)
        assert grid.region[0] == "I"

    def test_large_beta_regions_two_and_three_reach_second_vertex(self):
        # labels stay fixed, so the second level is the ground state there
        grid = phase_grid(1, [0.0], [0.0, 5.0], beta=200.0)
        np.testing.assert_allclose(grid.p, [[0, 1, 0], [0, 1, 0]], atol=1e-12)

    def test_region_two_orders_occupations_by_label(self):
        grid = phase_grid(1, [0.0], [0.0], beta=0.5)
        p = grid.p[0]
        assert grid.region[0] == "II"
        assert p[1] > p[0] > p[2]
        order = tuple(int(i) + 1 for i in np.argsort(-p))
        assert order == tuple(grid.order[0])  # most occupied first is lowest energy first

    def test_large_beta_on_ground_separatrix_reaches_midpoint(self):
        gp = float(separatrix(1, "ground", 0.0))
        grid = phase_grid(1, [0.0], [gp], beta=200.0)
        np.testing.assert_allclose(grid.p[0], [0.5, 0.5, 0.0], atol=1e-12)
        assert grid.region[0] == "boundary"

    def test_gxy_coordinates_accepted(self):
        by_pm = phase_grid(1, [1.0], [3.0], beta=0.5, coords="gpm")
        by_xy = phase_grid(1, [2.0], [1.0], beta=0.5, coords="gxy")
        np.testing.assert_allclose(by_pm.p, by_xy.p, atol=1e-15)
        assert by_pm.g_x[0] == pytest.approx(2.0)
        assert by_pm.g_y[0] == pytest.approx(1.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            phase_grid(1, [], [0.0], beta=1.0)


class TestPhaseGrid:
    # nodes on the separatrices: J = 1 at (0, -2), J = 3/2 at (0, +-1), and
    # the J = 3/2 double crossings (0, +-2)
    GRID = np.linspace(-3, 3, 7)

    @pytest.mark.parametrize("coords", ["gpm", "gxy"])
    @pytest.mark.parametrize("j", [1, 1.5])
    def test_matches_per_point_classification(self, j, coords):
        grid = phase_grid(j, self.GRID, self.GRID, beta=0.8, coords=coords)
        assert len(grid) == 49
        assert (grid.region == "boundary").any()
        for i in range(len(grid)):
            region = classify_region(j, LMGParams(g_x=grid.g_x[i], g_y=grid.g_y[i]))
            assert grid.region[i] == region.region_id
            assert tuple(grid.order[i]) == region.energy_order
            pairs = tuple(pair for pair, hit in zip(grid.pairs, grid.degenerate[i]) if hit)
            assert pairs == region.degenerate_pairs

    @pytest.mark.parametrize("coords", ["gpm", "gxy"])
    @pytest.mark.parametrize("j", [1, 1.5])
    def test_occupations_match_numeric_spectrum(self, j, coords):
        beta = 0.8
        grid = phase_grid(j, self.GRID, self.GRID, beta=beta, omega=1.3, coords=coords)
        t = invariants(grid.p)
        for i in range(len(grid)):
            params = LMGParams(omega=1.3, g_x=grid.g_x[i], g_y=grid.g_y[i])
            state = gibbs_state(Spectrum(np.linalg.eigvalsh(lmg_hamiltonian(j, params))), beta)
            np.testing.assert_allclose(np.sort(grid.p[i])[::-1], state.p, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t[i], invariants(state.p), rtol=0, atol=1e-12)

    def test_grid_order_and_sweep_view(self):
        grid = phase_grid(1, [1.0, 2.0], [3.0, 4.0, 5.0], beta=0.5)
        np.testing.assert_array_equal(grid.g_minus, [1, 1, 1, 2, 2, 2])
        np.testing.assert_array_equal(grid.g_plus, [3, 4, 5, 3, 4, 5])
        np.testing.assert_array_equal(grid.g_x, (grid.g_plus + grid.g_minus) / 2)
        np.testing.assert_array_equal(grid.g_y, (grid.g_plus - grid.g_minus) / 2)
        np.testing.assert_allclose(lambda_to_p(p_to_lambda(grid.p)), grid.p, rtol=0, atol=1e-15)

    # J = 3/2 couplings where the closed forms on 0-d values (numpy's scalar
    # square) and on arrays differed in the last bit; J = 1 squares no sum
    @pytest.mark.parametrize("g_x, g_y", [
        (-2.6604762109285933, -0.26301766865584464),
        (2.9123510812253737, 2.761374496967368),
        (-1.0738056473212692, 0.5170148767895449),
    ])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("j", [1, 1.5])
    def test_spectrum_path_writes_the_grid_row_bit_for_bit(self, j, beta, g_x, g_y):
        grid = phase_grid(j, [g_x], [g_y], beta, coords="gxy")
        sorted_p = trajectory(lmg_spectrum(j, LMGParams(g_x=g_x, g_y=g_y)), [beta]).p[0]
        assert np.array_equal(sorted_p, grid.p[0][grid.order[0] - 1])

    @pytest.mark.parametrize("change", [
        {"g_minus_grid": [0.0, math.nan]},
        {"g_plus_grid": [math.inf]},
        {"g_minus_grid": [1e308], "g_plus_grid": [1e308]},
        {"omega": 0.0},
        {"omega": -1.0},
        {"omega": math.inf},
        {"beta": -0.5},
        {"beta": math.nan},
        {"beta": math.inf},
        {"coords": "bogus"},
        {"g_minus_grid": [[0.0, 1.0]]},
    ])
    @pytest.mark.parametrize("coords", ["gpm", "gxy"])
    def test_rejects_invalid_inputs(self, change, coords):
        kwargs = {"j": 1.5, "g_minus_grid": [0.0, 1.0], "g_plus_grid": [0.5], "beta": 1.0,
                  "coords": coords, **change}
        with pytest.raises(ValueError):
            phase_grid(**kwargs)


def test_lmg_params_validation():
    with pytest.raises(ValueError):
        LMGParams(omega=0.0)
    with pytest.raises(ValueError):
        LMGParams(omega=1.0, g_x=math.nan)
    params = LMGParams.from_plus_minus(g_minus=1.0, g_plus=3.0)
    assert params.g_x == pytest.approx(2.0)
    assert params.g_y == pytest.approx(1.0)
    assert params.g_plus == pytest.approx(3.0)
    assert params.g_minus == pytest.approx(1.0)
