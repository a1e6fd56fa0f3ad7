"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Timed criteria measure a warmed-up call with perf_counter.
"""

import math
import time

import numpy as np

from quditgeom import (
    LMGParams,
    Spectrum,
    constant_invariant_surface_ququart,
    constant_t2_locus,
    constant_t3_locus_qutrit,
    endpoint_state,
    gibbs_state,
    invariants,
    lambda_to_p,
    linear_spectrum,
    lmg_hamiltonian,
    lmg_spectrum,
    p_to_lambda,
    permutation_images,
    separatrix,
    t_vertices,
    trajectory,
    transformation_matrices,
)
from quditgeom.curves import ParamCurve
from quditgeom.models import _lmg_labeled_energies


def _report(number, label):
    print(f"[{number:2d}] PASS  {label}")


def _energies(j, g_minus, g_plus):
    params = LMGParams.from_plus_minus(g_minus, g_plus)
    return _lmg_labeled_energies(j, params.omega, params.g_plus, params.g_minus)


def test_c01_t_space_vertices():
    t_vertices(3)  # warm-up (also fills caches)
    start = time.perf_counter()
    v3 = t_vertices(3)
    v4 = t_vertices(4)
    elapsed = time.perf_counter() - start
    expected3 = np.array([[1.0, 1.0], [0.5, 0.25], [1 / 3, 1 / 9]])
    assert np.abs(v3 - expected3).max() <= 1e-14
    assert np.abs(v4[3] - np.array([0.25, 1 / 16, 1 / 64])).max() <= 1e-14
    assert elapsed < 1e-3
    _report(1, f"t-space vertices exact to 1e-14 ({elapsed * 1e6:.0f} us)")


def test_c02_qutrit_thermal_identity():
    spec = linear_spectrum(1, 1.0)
    grid = np.logspace(-3, 3, 200)
    trajectory(spec, grid)  # warm-up
    start = time.perf_counter()
    traj = trajectory(spec, grid)
    t2, t3 = invariants(traj.p).T
    defect = np.abs(t3 - (9 * t2**2 - 3 * t2**3 + 3 * t2 - 1) / 8).max()
    elapsed = time.perf_counter() - start
    assert defect < 1e-12
    assert elapsed < 1e-2
    _report(2, f"t3(t2) thermal identity, max defect {defect:.2e} ({elapsed * 1e3:.2f} ms)")


def test_c03_equidistant_products():
    grid = np.logspace(-3, 3, 200)
    traj3 = trajectory(linear_spectrum(1, 1.0), grid)
    d3 = np.abs(traj3.p[:, 1] ** 2 - traj3.p[:, 0] * traj3.p[:, 2]).max()
    assert d3 < 1e-12
    spec4 = linear_spectrum(1.5, 1.0)
    traj4 = trajectory(spec4, grid)
    d4 = np.abs(traj4.p[:, 0] * traj4.p[:, 3] - traj4.p[:, 1] * traj4.p[:, 2]).max()
    assert d4 < 1e-12
    dz = max(
        abs(traj4.p[i, 0] * traj4.p[i, 3]
            - math.exp(-2.0 * gibbs_state(spec4, b).log_z_unshifted))
        for i, b in enumerate(grid)
    )
    assert dz < 1e-12
    _report(3, f"p products: qutrit {d3:.2e}, ququart {d4:.2e}, vs 1/Z^2 {dz:.2e}")


def test_c04_map_inversion():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (3, 4):
        p = rng.dirichlet(np.ones(n), size=10_000)
        worst = max(worst, np.abs(lambda_to_p(p_to_lambda(p)) - p).max())
    assert worst < 1e-12
    for n in (3, 4):
        m, m_inv = transformation_matrices(n)
        assert np.abs(m @ m_inv - np.eye(n)).max() <= 1e-14
    _report(4, f"p->lambda->p round trip on 2x10^4 points, max error {worst:.2e}")


def test_c05_lmg_oracle_equivalence():
    rng = np.random.default_rng(99)
    couplings = rng.uniform(-6, 6, size=(500, 2))
    # warm-up one diagonalization per size
    for j in (1, 1.5):
        np.linalg.eigvalsh(lmg_hamiltonian(j, LMGParams(1.0, 1.0, -1.0)))
    start = time.perf_counter()
    worst = 0.0
    for j in (1, 1.5):
        for gx, gy in couplings:
            params = LMGParams(omega=1.0, g_x=gx, g_y=gy)
            analytic = lmg_spectrum(j, params).energies
            numeric = np.linalg.eigvalsh(lmg_hamiltonian(j, params))
            tol = 1e-10 * max(1.0, abs(gx), abs(gy))
            deviation = np.abs(analytic - numeric).max()
            worst = max(worst, deviation / tol)
            assert deviation < tol
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(5, f"closed forms vs eigvalsh, 1000 runs in {elapsed:.2f} s, worst {worst:.2f} of tol")


def test_c06_separatrix_degeneracy():
    grid = np.linspace(-6, 6, 100)
    for j, branch, pair in ((1, "ground", (0, 1)), (1, "excited", (0, 2)),
                            (1.5, "ground", (0, 1)), (1.5, "excited", (2, 3))):
        for gm, gp in zip(grid, separatrix(j, branch, grid)):
            energies = _energies(j, gm, gp)
            assert abs(energies[pair[0]] - energies[pair[1]]) < 1e-9
    up = _energies(1.5, 0.0, 2.0)
    down = _energies(1.5, 0.0, -2.0)
    assert abs(up[0] - up[3]) < 1e-9       # E1 = E4 at (0, +2)
    assert abs(down[1] - down[2]) < 1e-9   # E2 = E3 at (0, -2)
    _report(6, "separatrix degeneracies hold along 100 points per branch and at (0, +-2)")


def test_c07_thermal_endpoint_degeneracy():
    cases = {
        1: [0.0, 1.0, 2.0, 3.0],
        2: [0.0, 0.0, 1.0, 2.0],
        3: [0.0, 0.0, 0.0, 1.0],
    }
    verts = t_vertices(4)
    for k, energies in cases.items():
        p = endpoint_state(Spectrum(energies=energies), "zero")
        expected = np.zeros(4)
        expected[:k] = 1.0 / k
        assert np.abs(p - expected).max() < 1e-10
        assert np.abs(invariants(p) - verts[k - 1]).max() < 1e-9
    _report(7, "zero-temperature endpoints hit 1/k occupation and the t-vertices")


def test_c08_constant_invariant_self_consistency():
    circle = constant_t2_locus(3, 0.5, samples=512)
    d_circle = np.abs((circle.points**2).sum(axis=1) - 0.5).max()
    assert d_circle < 1e-12
    cubic = constant_t3_locus_qutrit(0.25, alpha_samples=512)
    d_cubic = np.abs((cubic.points**3).sum(axis=1) - 0.25).max()
    assert d_cubic < 1e-9
    worst_surface = 0.0
    for which, value in (("t3", 7 / 40), ("t4", 5 / 64)):
        mesh = constant_invariant_surface_ququart(
            which, value, theta_samples=24, phi_samples=36
        )
        found = np.isfinite(mesh.radius)
        ell = int(which[1])
        recomputed = (mesh.points[found] ** ell).sum(axis=-1)
        worst_surface = max(worst_surface, np.abs(recomputed - value).max())
        shifted = np.roll(mesh.radius, -12, axis=1)  # phi -> phi + 2 pi/3
        sym = np.abs(mesh.radius - shifted)
        assert np.nanmax(sym) < 1e-12
    assert worst_surface < 1e-9
    _report(
        8,
        f"loci recompute their invariants (circle {d_circle:.1e}, cubic {d_cubic:.1e}, "
        f"surfaces {worst_surface:.1e}); phi symmetry < 1e-12",
    )


def test_c09_thermodynamic_identity():
    rng = np.random.default_rng(404)
    betas = np.logspace(-2, 2, 20)
    worst = 0.0
    for _ in range(100):
        n = rng.choice([2, 3, 4, 6])
        spec = Spectrum(energies=np.sort(rng.normal(scale=2.0, size=n)))
        for beta in betas:
            state = gibbs_state(spec, beta)
            defect = abs(state.S / beta - state.U + state.F)
            scale = max(1.0, abs(state.U), abs(state.F))
            worst = max(worst, defect / scale)
            assert defect < 1e-10 * scale
    _report(9, f"T*S - U + F = 0 over 2000 states, worst relative defect {worst:.2e}")


def test_c10_flower_structure():
    traj = trajectory(linear_spectrum(1, 1.0), np.logspace(-2, 2, 60))
    base = ParamCurve(
        space="p",
        points=traj.p,
        parameter=traj.beta,
        physical=np.ones(traj.beta.size, dtype=bool),
        label="thermal",
    )
    copies = permutation_images(base)
    assert len(copies) == 6
    base_t = invariants(copies[0].points)
    worst_t = max(
        np.abs(invariants(copy.points) - base_t).max() for copy in copies[1:]
    )
    assert worst_t <= 1e-14
    swapped = next(c for c in copies if c.meta["permutation"] == (0, 2, 1))
    reflection = np.array([[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
    lam_base = p_to_lambda(base.points)
    lam_swap = p_to_lambda(swapped.points)
    d_mirror = np.abs(lam_swap - lam_base @ reflection.T).max()
    assert d_mirror < 1e-12
    _report(10, f"6-petal flower: t-images coincide ({worst_t:.1e}), mirror defect {d_mirror:.1e}")
