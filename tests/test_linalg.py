import numpy as np
import pytest

from quditgeom import real_roots
from quditgeom.linalg import real_roots_batch


def _poly_from_roots(roots, leading=1.0):
    coeffs = np.array([leading])
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0][::-1])
    return coeffs[::-1]  # ascending


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_real_roots_recovers_well_separated_roots(degree):
    rng = np.random.default_rng(degree)
    for _ in range(100):
        truth = np.sort(rng.uniform(-3, 3, degree))
        while degree > 1 and np.min(np.diff(truth)) < 0.1:
            truth = np.sort(rng.uniform(-3, 3, degree))
        coeffs = _poly_from_roots(truth, leading=rng.uniform(0.5, 2.0))
        found = real_roots(coeffs)
        assert found.size == degree
        np.testing.assert_allclose(found, truth, atol=1e-8)


def test_real_roots_with_complex_pair():
    # (x - 1)(x^2 + 1): single real root
    coeffs = np.array([-1.0, 1.0, -1.0, 1.0])
    found = real_roots(coeffs)
    assert found.size == 1
    assert found[0] == pytest.approx(1.0, abs=1e-12)


def test_real_roots_quartic_with_two_complex_pairs():
    # (x^2 + 1)(x^2 + 4): no real roots
    coeffs = np.array([4.0, 0.0, 5.0, 0.0, 1.0])
    assert real_roots(coeffs).size == 0


def test_real_roots_degenerate_leading_coefficient():
    # a quartic whose leading term vanishes numerically reduces to a cubic
    cubic = _poly_from_roots([-2.0, 0.5, 1.5])
    coeffs = np.append(cubic, 1e-18)
    np.testing.assert_allclose(real_roots(coeffs), [-2.0, 0.5, 1.5], atol=1e-8)


def test_real_roots_drops_top_coefficients_below_the_degree_rule():
    # the monic quartic with roots 1613.39, 8343.14 and 303.2 +- 4628.5i has a
    # leading coefficient 3.5e-15 of its constant term: it is solved as the
    # cubic that remains, and the contract holds for that cubic
    roots = [1613.39, 8343.14, 303.2 + 4628.5j, 303.2 - 4628.5j]
    coeffs = np.polynomial.polynomial.polyfromroots(roots).real
    assert coeffs[-1] == 1.0 and coeffs[-1] <= 1e-14 * np.abs(coeffs).max()
    np.testing.assert_array_equal(real_roots(coeffs), real_roots(coeffs[:-1]))


def test_real_roots_biquadratic():
    # x^4 - 5x^2 + 4 = (x^2-1)(x^2-4)
    coeffs = np.array([4.0, 0.0, -5.0, 0.0, 1.0])
    np.testing.assert_allclose(real_roots(coeffs), [-2.0, -1.0, 1.0, 2.0], atol=1e-10)


def test_real_roots_rejects_bad_input():
    with pytest.raises(ValueError):
        real_roots([])
    with pytest.raises(ValueError):
        real_roots([0.0, 0.0])
    with pytest.raises(ValueError):
        real_roots([1.0] * 6)
    with pytest.raises(ValueError, match=r"shape \(N, d\+1\) with d <= 4, got \(2, 6\)"):
        real_roots_batch(np.ones((2, 6)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [[1.0, 2.0, np.inf], [1.0, np.nan], [-np.inf, 0.0, 1.0],
                                    [0.0, np.nan, 0.0]], ids=["inf", "nan", "-inf", "nan-only"])
def test_real_roots_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
        real_roots(coeffs)
    with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
        real_roots_batch([np.ones(len(coeffs)), coeffs])  # one bad row refuses the batch


def _case_from_roots(rng):
    """A polynomial of degree 1-4 with known roots, some double or complex."""
    degree = int(rng.integers(1, 5))
    scale = 10.0 ** rng.uniform(-3, 3)
    pairs = int(degree >= 2 and rng.random() < 0.3)
    real = scale * rng.uniform(-1, 1, degree - 2 * pairs)
    if real.size >= 2 and rng.random() < 0.3:
        real[1] = real[0]
    roots = real.astype(complex)
    if pairs:
        z = scale * complex(rng.uniform(-1, 1), rng.uniform(0.05, 1))
        roots = np.append(roots, [z, z.conjugate()])
    leading = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
    return (leading * np.poly(roots)).real[::-1], roots


def test_real_roots_contract_on_constructed_polynomials():
    """The documented contract of real_roots, checked through its batched kernel."""
    rng = np.random.default_rng(2024)
    cases = [_case_from_roots(rng) for _ in range(20_000)]
    coeffs = np.array([np.pad(c, (0, 5 - c.size)) for c, _ in cases])
    for (c, truth), found in zip(cases, real_roots_batch(coeffs)):
        found = found[~np.isnan(found)]
        weights = np.abs(c) * np.abs(found)[:, None] ** np.arange(c.size)
        residual = np.abs(np.polynomial.polynomial.polyval(found, c))
        assert np.all(residual <= 1e-12 * weights.sum(axis=1)), (c, found)
        largest = np.abs(truth).max()
        for i, r in enumerate(truth):
            others = np.delete(truth, i)
            distinct = others[others != r]
            if r.imag != 0 or np.any(np.abs(distinct - r) < 1e-2 * np.maximum(abs(r), np.abs(distinct))):
                continue
            miss = np.abs(found - r.real).min(initial=np.inf)
            if distinct.size < others.size:
                assert miss <= 1e-6 * largest, (c, r, found)
            else:
                assert miss <= 1e-9 * abs(r), (c, r, found)


def test_real_roots_batch_pads_rows_of_mixed_degree():
    coeffs = np.array([
        _poly_from_roots([-2.0, 0.5, 1.0, 3.0]),
        np.append(_poly_from_roots([-1.0, 2.0]), [0.0, 0.0]),
        [4.0, 0.0, 5.0, 0.0, 1.0],
        [3.0, 0.0, 0.0, 0.0, 0.0],
    ])
    roots = real_roots_batch(coeffs)
    assert roots.shape == (4, 4)
    np.testing.assert_allclose(roots[0], [-2.0, 0.5, 1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(roots[1, :2], [-1.0, 2.0], atol=1e-12)
    assert np.isnan(roots[1:, 2:]).all() and np.isnan(roots[2:]).all()
    for row, expected in zip(coeffs, roots):
        np.testing.assert_array_equal(real_roots(row), expected[~np.isnan(expected)])
