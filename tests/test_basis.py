import math

import numpy as np
import pytest

from quditgeom import DimensionError, bloch_bound, build_generators, simplex_frame
from quditgeom.representations import invariants


def test_n2_diagonal_block_is_pauli_z():
    gens = build_generators(2)
    assert len(gens.diagonal) == 1
    np.testing.assert_allclose(gens.diagonal[0], np.diag([1.0, -1.0]), atol=0)


def test_n3_diagonal_generators():
    gens = build_generators(3)
    np.testing.assert_allclose(gens.diagonal[0], np.diag([1.0, -1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(
        gens.diagonal[1], np.diag([1.0, 1.0, -2.0]) / math.sqrt(3), atol=1e-15
    )


def test_n4_last_diagonal_generator():
    gens = build_generators(4)
    np.testing.assert_allclose(
        gens.diagonal[2], np.diag([1.0, 1.0, 1.0, -3.0]) / math.sqrt(6), atol=1e-15
    )


def test_block_ordering_places_diagonals_at_paper_indices():
    for n in (2, 3, 4):
        gens = build_generators(n)
        assert len(gens.all) == n * n - 1
        for ell in range(1, n):
            k = n * n - n + ell
            np.testing.assert_array_equal(gens.matrix(k), gens.diagonal[ell - 1])


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_orthonormality(n):
    gens = build_generators(n).all
    for j, gj in enumerate(gens):
        assert abs(np.trace(gj)) < 1e-12
        for k, gk in enumerate(gens):
            expected = 2.0 if j == k else 0.0
            assert abs(np.trace(gj @ gk) - expected) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_frame_gram_is_identity(n):
    frame = simplex_frame(n)
    gram = frame.axes @ frame.axes.T
    assert np.abs(gram - np.eye(n - 1)).max() < 1e-12
    assert np.abs(frame.axes.sum(axis=1)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_frame_axes_match_generator_diagonals(n):
    frame = simplex_frame(n)
    gens = build_generators(n)
    for ell in range(n - 1):
        np.testing.assert_allclose(
            frame.axes[ell], np.diag(gens.diagonal[ell]).real / math.sqrt(2), atol=1e-15
        )
    np.testing.assert_allclose(frame.center, np.full(n, 1.0 / n), atol=0)


def test_bloch_bound_values():
    assert bloch_bound(2) == pytest.approx(1.0, abs=1e-15)
    assert bloch_bound(3) == pytest.approx(2.0 / math.sqrt(3), abs=1e-15)
    assert bloch_bound(4) == pytest.approx(math.sqrt(1.5), abs=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_bloch_bound_matches_pure_state_purity(n):
    pure = np.zeros(n)
    pure[0] = 1.0
    t2 = invariants(pure)[0]
    assert abs(bloch_bound(n) ** 2 - 2.0 * (t2 - 1.0 / n)) < 1e-12


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "3"])
def test_invalid_dimension_rejected(bad):
    with pytest.raises(DimensionError):
        build_generators(bad)
    with pytest.raises(DimensionError):
        simplex_frame(bad)
    with pytest.raises(DimensionError):
        bloch_bound(bad)


def test_generator_index_out_of_range():
    gens = build_generators(3)
    for index in (0, 9):
        with pytest.raises(IndexError, match=f"must be in 1..8, got {index}"):
            gens.matrix(index)


def test_outputs_are_readonly():
    gens = build_generators(3)
    with pytest.raises(ValueError):
        gens.diagonal[0][0, 0] = 5.0
    frame = simplex_frame(3)
    with pytest.raises(ValueError):
        frame.axes[0, 0] = 5.0
