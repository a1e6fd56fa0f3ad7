"""Property tests over drawn states, unitaries, spectra, dimensions and
polynomials.

Derandomized with a small example budget: every run checks the same
examples, and the suite stays a few seconds long.
"""

import csv
import io
import itertools
import json
import math
from argparse import Namespace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from quditgeom import (
    LMGParams,
    Spectrum,
    check_probability_vector,
    classify_region,
    constant_invariant_surface_ququart,
    constant_t2_locus,
    constant_t3_locus_qutrit,
    endpoint_state,
    gibbs_state,
    invariants,
    label_ordered_occupations,
    lambda_to_p,
    orbit_classification,
    p_to_lambda,
    permutation_images,
    phase_grid,
    polar_to_p,
    real_roots,
    trajectory,
)
from quditgeom.basis import build_generators, simplex_frame
from quditgeom.cli import (
    _CHUNK_CELLS,
    _INVARIANT_RECHECK,
    Dataset,
    _csv_chunks,
    _json_chunks,
    _validate_dataset,
)
from quditgeom.curves import ParamCurve
from quditgeom.linalg import real_roots_batch
from quditgeom.representations import _SIMPLEX_SLACK

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


@st.composite
def states_with_repeats(draw):
    """A state whose n entries take only k <= n distinct drawn values."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n))
    levels = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    p = levels[picks]
    return p / p.sum()


@st.composite
def gapped_spectra(draw):
    """Levels whose neighbouring gaps are either exactly 0 or at least 1e-3."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.just(0.0) | st.floats(1e-3, 10.0),
                         min_size=n - 1, max_size=n - 1))
    return Spectrum(draw(st.floats(-50.0, 50.0)) + np.cumsum([0.0] + gaps))


@st.composite
def near_simplex_boundary(draw):
    """A simplex point with zeros, or a vertex, moved by a few 1e-9 per
    component: its components and its sum fall on either side of the 1e-9
    slack, and a component of 1 moves above 1 + 1e-9 with the sum kept."""
    n = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    if weights.sum() == 0.0 or draw(st.booleans()):
        weights = np.eye(n)[draw(st.integers(0, n - 1))]
    p = weights / weights.sum()
    step = st.sampled_from([0.0, 7.5e-10, -7.5e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9])
    shifts = np.array(draw(st.lists(step | st.floats(-3e-9, 3e-9), min_size=n, max_size=n)))
    if draw(st.booleans()):
        # the largest component takes up what the others move, give or take a step
        k = int(np.argmax(p))
        shifts[k] = draw(step) - (shifts.sum() - shifts[k])
    return p + shifts


@st.composite
def tables(draw, rows=st.integers(1, 40) | st.integers(_CHUNK_CELLS - 2, _CHUNK_CELLS + 2)
           | st.integers(2 * _CHUNK_CELLS, 3 * _CHUNK_CELLS)):
    """Float columns drawn from small pools, with the writer's special values
    among them, plus int and text columns, some shorter and some longer than
    ``_CHUNK_CELLS`` rows: one column repeats throughout, one is distinct
    throughout, one repeats only on every ``rows // _CHUNK_CELLS``-th row
    and one only off those rows: each other row repeats the distinct value
    of one of them, so the whole column repeats though those rows alone
    are distinct.  One int column draws from a few values; another counts
    up and repeats only past ``_CHUNK_CELLS`` rows.  The table holds one to
    all of these columns, in a drawn order, so each kind of column comes
    first, where its texts open a row, and last, where they end it."""
    rows = draw(rows)
    special = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16])
    pool = np.array(draw(st.lists(special | st.floats(), min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    repeated = pool[rng.integers(0, pool.size, rows)]
    stride = max(1, rows // _CHUNK_CELLS)
    sampled = rng.normal(size=rows)
    sampled[::stride] = repeated[::stride]
    off = np.ones(rows, dtype=bool)
    off[::stride] = False
    off_stride = rng.normal(size=rows)
    off_stride[off] = rng.choice(off_stride[::stride], off.sum())
    labels = np.array(["a", 'q"uote', "c,omma", "", "line\nbreak"])
    columns = {
        "repeated": repeated,
        "distinct": rng.normal(size=rows),
        "sampled": sampled,
        "off_stride": off_stride,
        "count": rng.integers(-3, 3, rows),
        "index": np.arange(rows) % (_CHUNK_CELLS + 1),
        "label": labels[rng.integers(0, labels.size, rows)],
    }
    names = draw(st.permutations(list(columns)))[:draw(st.integers(1, len(columns)))]
    return Dataset(columns={name: columns[name] for name in names})


@settings(SETTINGS, max_examples=20)
@given(tables())
def test_writers_match_csv_writer_and_json_dumps(dataset):
    names = list(dataset.columns)
    floats = [col.dtype.kind == "f" for col in dataset.columns.values()]
    rows = list(zip(*(col.tolist() for col in dataset.columns.values())))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([repr(x + 0.0) if is_float else x for x, is_float in zip(row, floats)]
                     for row in rows)
    assert "".join(_csv_chunks(dataset)) == expected.getvalue()

    payload = {"columns": names, "rows": [
        dict(zip(names, [(None if math.isnan(x) else x + 0.0) if is_float else x
                         for x, is_float in zip(row, floats)]))
        for row in rows
    ]}
    assert "".join(_json_chunks(dataset)) == json.dumps(payload, indent=1) + "\n"


@SETTINGS
@given(near_simplex_boundary())
def test_validate_flags_a_row_exactly_when_the_point_check_refuses_it(p):
    dataset = Dataset(columns={**{f"p{i}": np.array([x]) for i, x in enumerate(p, start=1)},
                               "physical": np.array([1])})
    flagged = _validate_dataset(dataset, Namespace(command="map"))
    try:
        check_probability_vector(p, tol=1e-9)
    except ValueError:
        assert flagged == ["row 2: p violates the simplex constraints"]
    else:
        assert flagged == []


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
    # the validating maps accept p; lambda maps back onto it, t lies in its range
    lam, t = p_to_lambda(traj.p), invariants(traj.p)
    np.testing.assert_allclose(lambda_to_p(lam), traj.p, rtol=0, atol=1e-15)
    lower = 1.0 / spectrum.n ** np.arange(1, spectrum.n)
    assert (t >= lower - 1e-15).all() and (t <= 1.0 + 1e-15).all()


@SETTINGS
@given(spectra(), st.floats(0.0, 100.0))
def test_gibbs_state_is_the_one_point_trajectory(spectrum, beta):
    assert np.array_equal(gibbs_state(spectrum, beta).p, trajectory(spectrum, [beta]).p[0])


@SETTINGS
@given(states_with_repeats())
def test_orbit_multiplicities_sum_to_n_and_fix_the_orbit_dimension(p):
    pattern = orbit_classification(p)
    n = p.size
    assert sum(pattern.multiplicities) == n
    assert pattern.orbit_dimension == n * n - sum(m * m for m in pattern.multiplicities)


@SETTINGS
@given(st.integers(2, 8), st.floats(0.0, 3.0), st.sampled_from(["main", "appendix"]),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=6, max_size=6))
def test_polar_to_p_flag_is_the_simplex_test(n, r, convention, angles):
    point = polar_to_p(n, r, angles[: n - 2], convention=convention)
    assert point.physical == (point.p.min() >= -_SIMPLEX_SLACK)


@SETTINGS
@given(gapped_spectra(), st.floats(0.0, 100.0))
def test_gibbs_state_is_normalized_and_starts_at_the_uniform_state(spectrum, beta):
    assert abs(gibbs_state(spectrum, beta).p.sum() - 1.0) <= 1e-14
    np.testing.assert_allclose(gibbs_state(spectrum, 0.0).p, endpoint_state(spectrum, "infinite"),
                               rtol=0, atol=1e-16)


@SETTINGS
@given(gapped_spectra(), st.floats(50.0, 1e4))
def test_gibbs_state_reaches_the_ground_multiplet(spectrum, beta_gap):
    shifted = spectrum.energies - spectrum.energies[0]
    gap = shifted[shifted > 0].min() if shifted.any() else 1.0
    np.testing.assert_allclose(gibbs_state(spectrum, beta_gap / gap).p,
                               endpoint_state(spectrum, "zero"), rtol=0, atol=1e-12)


@SETTINGS
@given(st.sampled_from([1, 1.5]), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
       st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4), st.floats(0.0, 20.0))
def test_phase_grid_rows_match_the_one_point_functions(j, g_minus, g_plus, beta):
    grid = phase_grid(j, g_minus, g_plus, beta)
    for i in range(len(grid)):
        params = LMGParams(g_x=grid.g_x[i], g_y=grid.g_y[i])
        region = classify_region(j, params)
        assert region.region_id == grid.region[i]
        assert region.energy_order == tuple(grid.order[i].tolist())
        assert region.degenerate_pairs == tuple(
            pair for pair, hit in zip(grid.pairs, grid.degenerate[i]) if hit
        )
        np.testing.assert_allclose(label_ordered_occupations(j, params, beta), grid.p[i],
                                   rtol=0, atol=1e-15)


@SETTINGS
@given(st.integers(2, 8))
def test_generators_are_traceless_hermitian_and_orthogonal(n):
    generators = np.array(build_generators(n).all)
    assert generators.shape == (n * n - 1, n, n)
    np.testing.assert_allclose(np.trace(generators, axis1=1, axis2=2), 0.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(generators, generators.conj().transpose(0, 2, 1))
    gram = np.einsum("aij,bji->ab", generators, generators)
    np.testing.assert_allclose(gram, 2.0 * np.eye(n * n - 1), rtol=0, atol=1e-14)


@SETTINGS
@given(st.integers(2, 8))
def test_simplex_frame_axes_are_orthonormal_zero_sum_diagonals(n):
    axes = simplex_frame(n).axes
    assert axes.shape == (n - 1, n)
    np.testing.assert_allclose(axes @ axes.T, np.eye(n - 1), rtol=0, atol=1e-15)
    np.testing.assert_allclose(axes.sum(axis=1), 0.0, rtol=0, atol=1e-15)
    for axis, f_l in zip(axes, build_generators(n).diagonal):
        np.testing.assert_array_equal(axis, np.diag(f_l).real / math.sqrt(2.0))


@st.composite
def coefficient_rows(draw):
    """Rows of 1-5 ascending coefficients, nonzero ones of either sign between
    1e-3 and 1e3 times a per-row power of ten from 1e-20 to 1e20, exact zeros
    among them (so some rows drop their top coefficients), none all zero."""
    width = draw(st.integers(1, 5))
    value = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
    row = st.lists(value, min_size=width, max_size=width).filter(any)
    rows = np.array(draw(st.lists(row, min_size=1, max_size=8)))
    exponents = draw(st.lists(st.integers(-20, 20), min_size=len(rows), max_size=len(rows)))
    return rows * 10.0 ** np.array(exponents, dtype=float)[:, None]


@SETTINGS
@given(coefficient_rows())
def test_real_roots_batch_rows_are_one_row_calls(coeffs):
    roots = real_roots_batch(coeffs)
    assert roots.shape == (len(coeffs), coeffs.shape[1] - 1)
    for row, found in zip(coeffs, roots):
        real = found[~np.isnan(found)]
        np.testing.assert_array_equal(real, real_roots(row))
        assert np.isnan(found[real.size:]).all()  # the padding follows the roots


@st.composite
def separated_root_polynomials(draw):
    """Ascending coefficients of degree 1-4 built from drawn real roots and an
    optional complex pair, any two roots r, s at least 1e-2 * max(|r|, |s|)
    apart, and the sorted real roots.  The leading coefficient is kept: one
    at most 1e-14 of the largest is dropped by the documented degree rule."""
    pair = draw(st.booleans())
    count = draw(st.integers(0 if pair else 1, 2 if pair else 4))
    scale = 10.0 ** draw(st.integers(-3, 3))
    sign, magnitude = st.sampled_from([-1.0, 1.0]), st.floats(0.1, 10.0)
    real = [draw(sign) * draw(magnitude) * scale for _ in range(count)]
    roots = list(real)
    if pair:
        z = complex(draw(st.floats(-10.0, 10.0)), draw(magnitude)) * scale
        roots += [z, z.conjugate()]
    assume(all(abs(r - s) >= 1e-2 * max(abs(r), abs(s))
               for r, s in itertools.combinations(roots, 2)))
    coeffs = draw(sign) * 10.0 ** draw(st.integers(-5, 5)) * \
        np.polynomial.polynomial.polyfromroots(roots).real
    assume(abs(coeffs[-1]) > 1e-14 * np.abs(coeffs).max())
    return coeffs, np.sort(real)


@SETTINGS
@given(st.lists(separated_root_polynomials(), min_size=1, max_size=6))
def test_real_roots_batch_returns_each_separated_real_root_once(cases):
    coeffs = np.zeros((len(cases), 5))  # zero top coefficients lower a row's degree
    for row, (c, _) in zip(coeffs, cases):
        row[:c.size] = c
    for found, (_, real) in zip(real_roots_batch(coeffs), cases):
        found = found[~np.isnan(found)]
        assert found.size == real.size  # every real root, and nothing else
        np.testing.assert_allclose(found, real, rtol=1e-9, atol=0)


@SETTINGS
@given(st.integers(2, 5), st.data())
def test_permutation_images_permute_the_columns_and_keep_the_invariants(n, data):
    m = data.draw(st.integers(1, 6))
    points = np.array([data.draw(probability_vectors(n, n)) for _ in range(m)])
    physical = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    base = ParamCurve(space="p", points=points, parameter=np.arange(m, dtype=float),
                      physical=physical)
    copies = permutation_images(base)
    perms = [copy.meta["permutation"] for copy in copies]
    assert perms == sorted(itertools.permutations(range(n)))  # n!, the identity first
    t = invariants(points)
    for copy, perm in zip(copies, perms):
        np.testing.assert_array_equal(copy.points, points[:, list(perm)])
        np.testing.assert_array_equal(copy.physical, physical)
        np.testing.assert_allclose(invariants(copy.points), t, rtol=1e-14, atol=0)


def _assert_physical_nodes_hit(points, physical, k, target):
    """Every physical node of a locus lies on the simplex and has t_k = target."""
    n = points.shape[-1]
    p = points.reshape(-1, n)[physical.ravel()]
    check_probability_vector(p)
    defect = np.abs(invariants(p, validate=False)[:, k - 2] - target)
    assert (defect <= _INVARIANT_RECHECK).all(), defect.max()


@SETTINGS
@given(st.sampled_from([3, 4]), st.floats(0.0, 1.0))
def test_constant_purity_loci_hit_their_target_on_the_simplex(n, share):
    t2 = 1.0 / n + (1.0 - 1.0 / n) * share
    locus = constant_t2_locus(n, t2, 64, theta_samples=12, phi_samples=24)
    _assert_physical_nodes_hit(locus.points, locus.physical, 2, t2)


@SETTINGS
@given(st.floats(1.0 / 9.0, 1.0))
def test_qutrit_t3_locus_hits_its_target_on_the_simplex(t3):
    locus = constant_t3_locus_qutrit(t3, 64)
    _assert_physical_nodes_hit(locus.points, locus.physical, 3, t3)


@SETTINGS
@given(st.sampled_from(["t3", "t4"]), st.floats(0.0, 1.0))
def test_ququart_invariant_surfaces_hit_their_target_on_the_simplex(which, share):
    k = int(which[1])
    value = 4.0 ** (1 - k) + (1.0 - 4.0 ** (1 - k)) * share
    mesh = constant_invariant_surface_ququart(which, value, theta_samples=9, phi_samples=13)
    _assert_physical_nodes_hit(mesh.points, mesh.physical, k, value)


@SETTINGS
@given(st.sampled_from(["qutrit t3", "ququart t3", "ququart t4"]), st.floats(0.0, 1.0))
def test_masked_nodes_have_no_root_up_to_the_radius_bound(locus, share):
    """Along the ray of each masked node, t_k - target keeps one nonzero sign
    at 4,096 radii from 0 to the radius bound.

    That is the node's radius polynomial, evaluated as the power sum
    ``t_k = sum_j p_j^k`` rather than from its coefficients: it has no sign
    change, so no bracketed root, on the radius range.  Bracketing cannot
    see a tangent double root: the polynomial may touch zero unseen between
    two radii.
    """
    n, k = (3, 3) if locus == "qutrit t3" else (4, int(locus[-1]))
    value = float(n) ** (1 - k) + (1.0 - float(n) ** (1 - k)) * share
    if n == 3:
        curve = constant_t3_locus_qutrit(value, 64)
        offset = curve.meta["frame_angle_offset"]
        angles = [(a + offset,) for a in curve.parameter[np.isnan(curve.radius)]]
        top = math.sqrt(2.0 / 3.0)  # the Euclidean radius bound
    else:
        mesh = constant_invariant_surface_ququart(locus[-2:], value, theta_samples=9,
                                                  phi_samples=13)
        masked = np.isnan(mesh.radius)
        angles = list(zip(mesh.v[masked], mesh.u[masked]))  # (phi, theta)
        top = math.sqrt(3.0 / 2.0) / math.sqrt(2.0)  # the Bloch bound, on the Bloch scale
    # polar_to_p at Bloch radius sqrt(2) places p_e + d, d the unit direction
    directions = np.array([polar_to_p(n, math.sqrt(2.0), a).p - 1.0 / n for a in angles])
    s = np.linspace(0.0, top, 4096)
    f = ((1.0 / n + s[:, None, None] * directions.reshape(-1, n)) ** k).sum(axis=-1) - value
    assert (f * f[0] > 0).all()
