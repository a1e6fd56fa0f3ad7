import math
import warnings

import numpy as np
import pytest

from quditgeom import (
    LMGParams,
    Spectrum,
    default_beta_grid,
    endpoint_state,
    gibbs_state,
    invariants,
    label_ordered_occupations,
    linear_spectrum,
    phase_grid,
    t_vertices,
    trajectory,
)


class TestSpectrum:
    def test_requires_sorted_energies(self):
        with pytest.raises(ValueError):
            Spectrum(energies=[1.0, 0.0])

    def test_requires_at_least_two_levels(self):
        with pytest.raises(ValueError):
            Spectrum(energies=[1.0])

    def test_requires_finite_energies(self):
        with pytest.raises(ValueError, match="energies must be finite"):
            Spectrum(energies=[0.0, math.inf])

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            Spectrum(energies=[0.0, 1.0], labels=("a",))

    def test_degenerate_levels_allowed(self):
        spec = Spectrum(energies=[0.0, 0.0, 1.0])
        assert spec.n == 3


class TestGibbs:
    def test_qutrit_linear_at_log2(self):
        spec = linear_spectrum(1, 1.0)
        state = gibbs_state(spec, math.log(2.0))
        np.testing.assert_allclose(state.p, [4 / 7, 2 / 7, 1 / 7], atol=1e-14)
        assert state.z_unshifted == pytest.approx(3.5, abs=1e-12)

    def test_beta_zero_is_uniform(self):
        for spec in (linear_spectrum(1.5), Spectrum(energies=[0.0, 0.3, 2.0])):
            state = gibbs_state(spec, 0.0)
            np.testing.assert_allclose(state.p, np.full(spec.n, 1 / spec.n), atol=1e-14)

    def test_two_level_entropy_at_zero_beta(self):
        state = gibbs_state(Spectrum(energies=[0.0, 1.0]), 0.0)
        assert state.S == pytest.approx(math.log(2.0), abs=1e-14)
        assert state.F == -math.inf

    def test_negative_or_non_finite_beta_rejected(self):
        spec = linear_spectrum(1)
        with pytest.raises(ValueError):
            gibbs_state(spec, -0.5)
        with pytest.raises(ValueError, match="endpoint_state"):
            gibbs_state(spec, math.inf)

    def test_occupations_descending_and_boltzmann(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            energies = np.sort(rng.normal(size=4))
            spec = Spectrum(energies=energies)
            beta = rng.uniform(0.01, 5.0)
            state = gibbs_state(spec, beta)
            assert np.all(np.diff(state.p) <= 1e-15)
            z_unshifted = state.z_unshifted
            np.testing.assert_allclose(
                state.p, np.exp(-beta * energies) / z_unshifted, atol=1e-12
            )

    def test_large_beta_does_not_overflow(self):
        state = gibbs_state(Spectrum(energies=[-5.0, 0.0, 5.0]), 1e4)
        np.testing.assert_allclose(state.p, [1.0, 0.0, 0.0], atol=1e-300)
        assert math.isfinite(state.Z)
        assert state.log_z_unshifted == pytest.approx(5e4, rel=1e-12)
        # the raw-energy partition function e^1000 overflows to inf
        assert gibbs_state(Spectrum(energies=[-1000.0, 0.0]), 1.0).z_unshifted == math.inf


class TestEndpoints:
    def test_degenerate_ground_pair(self):
        spec = Spectrum(energies=[-1.0, -1.0, 1.0])
        np.testing.assert_allclose(endpoint_state(spec, "zero"), [0.5, 0.5, 0.0], atol=0)

    def test_unique_ground_state(self):
        spec = Spectrum(energies=[0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(endpoint_state(spec, "zero"), [1, 0, 0, 0], atol=0)

    def test_infinite_matches_beta_zero(self):
        spec = Spectrum(energies=[0.3, 0.9, 2.4])
        np.testing.assert_allclose(
            endpoint_state(spec, "infinite"), gibbs_state(spec, 0.0).p, atol=1e-15
        )

    def test_unknown_endpoint_rejected(self):
        for which in ("warm", "zero-temperature", "infinite-temperature"):
            with pytest.raises(ValueError, match="which must be 'zero' or 'infinite'"):
                endpoint_state(linear_spectrum(1), which)


class TestTrajectory:
    def test_length_is_the_number_of_betas(self):
        for betas in ([0.0], [0.0, 0.5, 1.0, 2.0, 4.0]):
            traj = trajectory(linear_spectrum(1, 1.0), betas)  # 3 levels
            assert len(traj) == len(betas) == len(traj.p)

    def test_equidistant_product_identity_qutrit(self):
        traj = trajectory(linear_spectrum(1, 1.0))
        assert np.abs(traj.p[:, 1] ** 2 - traj.p[:, 0] * traj.p[:, 2]).max() < 1e-12

    def test_equidistant_product_identity_ququart(self):
        spec = linear_spectrum(1.5, 1.0)
        beta = np.logspace(-3, 3, 200)
        traj = trajectory(spec, beta)
        p = traj.p
        assert np.abs(p[:, 0] * p[:, 3] - p[:, 1] * p[:, 2]).max() < 1e-12
        # both products equal 1/Z^2 in the unshifted gauge
        for i in (0, 60, 199):
            state = gibbs_state(spec, beta[i])
            inv_z2 = math.exp(-2.0 * state.log_z_unshifted)
            assert abs(p[i, 0] * p[i, 3] - inv_z2) < 1e-12

    def test_qutrit_t3_of_t2_identity(self):
        traj = trajectory(linear_spectrum(1, 1.0), np.logspace(-3, 3, 200))
        t2, t3 = invariants(traj.p).T
        assert np.abs(t3 - (9 * t2**2 - 3 * t2**3 + 3 * t2 - 1) / 8).max() < 1e-12

    def test_t_invariant_closed_form_linear_qutrit(self):
        beta = np.logspace(-3, 1.5, 80)
        t = invariants(trajectory(linear_spectrum(1, 1.0), beta).p)
        z = 1 + 2 * np.cosh(beta)
        for ell in (2, 3):
            expected = (1 + 2 * np.cosh(ell * beta)) / z**ell
            assert np.abs(t[:, ell - 2] - expected).max() < 1e-12

    def test_near_zero_beta_linearization(self):
        # ground occupation grows as (1 + beta*omega)/3, top falls as (1 - beta*omega)/3
        spec = linear_spectrum(1, 1.0)
        for bw in (1e-3, 5e-3, 9e-3):
            p = gibbs_state(spec, bw).p
            assert abs(p[0] - (1 + bw) / 3) < bw**2
            assert abs(p[2] - (1 - bw) / 3) < bw**2
            assert abs(p[1] - 1 / 3) < bw**2

    def test_entropy_monotone_in_beta(self):
        rng = np.random.default_rng(8)
        beta = np.linspace(0.0, 8.0, 60)
        for _ in range(10):
            spec = Spectrum(energies=np.sort(rng.normal(size=4)))
            entropy = [gibbs_state(spec, b).S for b in beta]
            assert np.all(np.diff(entropy) <= 1e-12)

    def test_endpoints_reach_t_vertices(self):
        # ground degeneracy k sends the zero-temperature end to vertex k
        for energies, k in (([0.0, 1.0, 2.0], 1), ([0.0, 0.0, 1.0], 2)):
            spec = Spectrum(energies=energies)
            t = invariants(trajectory(spec).p)
            np.testing.assert_allclose(t[0], t_vertices(3)[2], atol=1e-12)
            np.testing.assert_allclose(t[-1], t_vertices(3)[k - 1], atol=1e-9)

    def test_default_grid_starts_at_zero(self):
        grid = default_beta_grid()
        assert grid[0] == 0.0
        assert grid.size == 201
        assert np.all(np.diff(grid) > 0)

    def test_grid_validation(self):
        spec = linear_spectrum(1)
        with pytest.raises(ValueError):
            trajectory(spec, [0.5, 0.1])
        with pytest.raises(ValueError):
            trajectory(spec, [-1.0, 0.5])
        with pytest.raises(ValueError):
            trajectory(spec, [])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_occupations_rejected(self):
        # a level spacing past the float range would give beta = 0 the weights
        # 0 * inf = NaN: the spectrum is refused when built, with no warning
        with pytest.raises(ValueError, match="energy spread h_n - h_1 overflows a float"):
            Spectrum([-1e308, 1e308])

    @pytest.mark.parametrize("call, ground", [
        (lambda: gibbs_state(Spectrum([0.0, 1e300]), 1e10).p, 0),
        (lambda: trajectory(Spectrum([0.0, 1e300]), [0.0, 1e10]).p[-1], 0),
        # label order: E = (6, 1, 5) at g_minus = 0, g_plus = 3
        (lambda: phase_grid(1, [0.0], [3.0], beta=1e308).p[0], 1),
        # label order: E2 is the lowest of the four levels at g_x = 0.5, g_y = 0
        (lambda: label_ordered_occupations(1.5, LMGParams(g_x=0.5), 1e308), 1),
    ], ids=["gibbs_state", "trajectory", "phase_grid", "label_ordered_occupations"])
    def test_weights_past_the_float_range_are_zero_without_a_warning(self, call, ground):
        # beta times a level spacing overflows to inf: exp(-inf) = 0 is its weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = call()
        assert np.array_equal(p, np.eye(len(p))[ground])


def test_thermodynamic_identity_random_spectra():
    rng = np.random.default_rng(17)
    betas = np.logspace(-2, 2, 20)
    for _ in range(100):
        n = rng.choice([2, 3, 4, 6])
        spec = Spectrum(energies=np.sort(rng.normal(scale=2.0, size=n)))
        for beta in betas:
            state = gibbs_state(spec, beta)
            temperature = 1.0 / beta
            defect = temperature * state.S - state.U + state.F
            scale = max(1.0, abs(state.U), abs(state.F))
            assert abs(defect) < 1e-10 * scale


def test_invariants_of_thermal_states_stay_in_bounds():
    rng = np.random.default_rng(23)
    for _ in range(50):
        spec = Spectrum(energies=np.sort(rng.normal(size=4)))
        t = invariants(trajectory(spec, np.logspace(-2, 2, 30)).p)
        for ell in range(2, 5):
            col = t[:, ell - 2]
            assert np.all(col >= 1.0 / 4 ** (ell - 1) - 1e-12)
            assert np.all(col <= 1.0 + 1e-12)
