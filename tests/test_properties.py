"""Property tests over drawn states, unitaries and spectra.

Derandomized with a small example budget: every run checks the same
examples, and the suite stays a few seconds long.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from quditgeom import (
    Spectrum,
    gibbs_state,
    invariants,
    lambda_to_p,
    p_to_lambda,
    trajectory,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def probability_vectors(draw, min_n=2, max_n=12):
    """A point of the simplex, with exact zeros and near-vertex points among them."""
    n = draw(st.integers(min_n, max_n))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, n - 1))] = 1.0
    return weights / weights.sum()


@st.composite
def spectra(draw):
    n = draw(st.integers(2, 8))
    energies = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    return Spectrum(sorted(energies))


@SETTINGS
@given(probability_vectors())
def test_p_to_lambda_to_p_round_trip(p):
    np.testing.assert_allclose(lambda_to_p(p_to_lambda(p), validate=False), p,
                               rtol=0, atol=1e-15)


@SETTINGS
@given(probability_vectors(), st.integers(0, 2**32 - 1))
def test_invariants_are_power_sums_of_the_rotated_state(p, seed):
    n = p.size
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.linalg.eigvalsh(q @ np.diag(p) @ q.conj().T)
    expected = [(eigs**ell).sum() for ell in range(2, n + 1)]
    np.testing.assert_allclose(invariants(p), expected, rtol=0, atol=1e-13)


@SETTINGS
@given(spectra(), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5))
def test_trajectory_lambda_and_t_are_the_maps_of_its_p(spectrum, betas):
    traj = trajectory(spectrum, sorted(betas))
    assert traj.lam is traj.lam and traj.t is traj.t
    assert np.array_equal(traj.lam, p_to_lambda(traj.p))
    assert np.array_equal(traj.t, invariants(traj.p))


@SETTINGS
@given(spectra(), st.floats(0.0, 100.0))
def test_gibbs_state_is_the_one_point_trajectory(spectrum, beta):
    assert np.array_equal(gibbs_state(spectrum, beta).p, trajectory(spectrum, [beta]).p[0])
