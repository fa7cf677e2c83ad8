"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are fixed here, not calibrated; exact-mode assertions are
literal zeros.
"""

import random
import time

import numpy as np

from dkp5 import (
    FieldGrid,
    WAVEFUNCTION,
    algebraic_constraint_residuals,
    build_representation,
    compute_currents,
    compute_currents_grid,
    constant_four_vector_grid,
    divergence_identities,
    dkp_residual,
    field_strength_bilinear,
    field_strength_from_potential,
    fierz_residual,
    gauge_term,
    h_elimination_residual,
    invert_potential_full,
    invert_potential_gauge_fixed,
    manufacture_plane_wave,
    on_shell_momentum,
    plane_wave_gradient,
    PlaneWaveSpec,
    random_fourier_field,
    reduced_state,
    reduced_system_residuals,
    singular_mask,
    verify_algebra_identities,
    word_reduction_sweep,
    zeta_identity_residuals,
)
from dkp5.bilinears import CurrentSet
from dkp5.cli import main as cli_main
from dkp5.scalars import random_exact_wavefunction

EXACT_REP = build_representation("exact")
FLOAT_REP = build_representation("float")


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {label} {detail}"


def _all_zero(arr):
    return all(not x for x in np.asarray(arr).reshape(-1))


def test_criterion_1_exact_algebra_suite():
    t0 = time.perf_counter()
    checks = verify_algebra_identities(EXACT_REP)
    elapsed = time.perf_counter() - t0
    names = {c.name for c in checks}
    required = {
        "defining_trilinear", "trace_quadratic", "trace_quartic",
        "cubic_reduction", "quartic_reduction", "companion_product",
        "mixed_product", "beta_square_product", "contraction",
        "eta_relations", "zeta_relations",
    }
    ok = required <= names and all(c.exact_zero and c.passed for c in checks)
    ok = ok and elapsed < 1.0
    _report(1, "exact algebra suite, residuals identically zero", ok,
            f"({len(checks)} families, {elapsed:.2f}s)")


def test_criterion_2_word_reducer_oracle_equivalence():
    t0 = time.perf_counter()
    words, mismatches, max_res = word_reduction_sweep(EXACT_REP, 5)
    elapsed = time.perf_counter() - t0
    ok = words == 1364 and mismatches == 0 and max_res == 0.0 and elapsed < 5.0
    _report(2, "word reducer equals matrix products for all 1364 words", ok,
            f"({elapsed:.2f}s)")


def test_criterion_3_fierz_suite():
    t0 = time.perf_counter()
    rng = random.Random(20240808)
    ok = True
    for _ in range(100):
        phi = random_exact_wavefunction(rng)
        cs = compute_currents(EXACT_REP, phi)
        r_h, r_c = fierz_residual(EXACT_REP, phi, cs=cs)
        ok = ok and _all_zero(r_h) and _all_zero(r_c)
        res = algebraic_constraint_residuals(cs)
        ok = ok and not res.scalar_fierz and not res.quadratic
        if not res.singular_z:
            ok = ok and _all_zero(res.k_elimination)
        zeta = zeta_identity_residuals(EXACT_REP, phi, cs=cs)
        ok = ok and _all_zero(zeta.sandwich) and not zeta.modulus

    rngf = np.random.default_rng(20240808)
    for _ in range(100):
        phi = rngf.standard_normal(5) + 1j * rngf.standard_normal(5)
        bound = 1e-12 * (1.0 + float(np.sum(np.abs(phi) ** 2)) ** 2)
        cs = compute_currents(FLOAT_REP, phi)
        r_h, r_c = fierz_residual(FLOAT_REP, phi, cs=cs)
        ok = ok and np.max(np.abs(r_h)) < bound and np.max(np.abs(r_c)) < bound
        res = algebraic_constraint_residuals(cs)
        ok = ok and abs(res.scalar_fierz) < bound and abs(res.quadratic) < bound
        if not res.singular_z:
            ok = ok and np.max(np.abs(res.k_elimination)) < bound
        zeta = zeta_identity_residuals(FLOAT_REP, phi, cs=cs)
        ok = ok and np.max(np.abs(zeta.sandwich)) < bound and abs(zeta.modulus) < bound
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(3, "rearrangement suite on 100 exact + 100 float wavefunctions", ok,
            f"({elapsed:.2f}s)")


# Five manufactured solutions with distinct constant potentials (incl. 0).
# Spatial wave numbers are confined to active axes of each grid.
SOLUTIONS = [
    ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (9, 1, 1, 1), (0.11, 1, 1, 1), 1.0, 1.0, 1.0),
    ((0.3, 0.0, 0.0, 0.0), (0.25, 0.0, 0.0), (7, 8, 1, 1), (0.15, 0.14, 1, 1), 1.0, 1.0, 0.8 + 0.3j),
    ((0.0, 0.2, 0.0, 0.0), (0.4, 0.0, 0.0), (6, 9, 1, 1), (0.16, 0.12, 1, 1), 1.0, 0.7, 1.2),
    ((0.5, -0.1, 0.2, 0.0), (0.3, -0.2, 0.0), (6, 6, 6, 1), (0.2, 0.18, 0.17, 1), 1.3, 1.0, -0.5 + 0.9j),
    ((-0.4, 0.25, 0.0, 0.15), (0.2, 0.0, 0.3), (5, 6, 1, 7), (0.2, 0.15, 1, 0.16), 0.9, -1.1, 1.0 - 1.0j),
]


def _build_solution(entry):
    A, spatial, extents, spacing, m, e, amp = entry
    p = on_shell_momentum(spatial, m, e, A)
    spec = PlaneWaveSpec(p=p, A=A, m=m, e=e, amplitude=amp)
    grid = manufacture_plane_wave(spec, extents, spacing)
    return spec, grid


def test_criterion_4_inversion_reproduction():
    t0 = time.perf_counter()
    tol = 1e-10
    ok = True
    details = []
    for entry in SOLUTIONS:
        spec, grid = _build_solution(entry)
        m, e = spec.m, spec.e
        a_ref = np.array(spec.A)
        dphi = plane_wave_gradient(spec, grid)
        cg = compute_currents_grid(FLOAT_REP, grid)

        a_full = invert_potential_full(FLOAT_REP, grid, m, e, dphi=dphi, cg=cg)
        err_a = np.max(np.abs(a_full.values - a_ref))
        ok = ok and err_a <= tol * (1.0 + np.max(np.abs(a_ref)))

        a_gf = invert_potential_gauge_fixed(cg, m, e)
        f_pot = field_strength_from_potential(a_gf)
        f_bil = field_strength_bilinear(cg, m, e)
        ok = ok and np.max(np.abs(f_pot.values)) <= tol
        ok = ok and np.max(np.abs(f_bil.values)) <= tol

        A_grid = constant_four_vector_grid(spec.A, grid.extents, grid.spacing)
        div = divergence_identities(FLOAT_REP, grid, A_grid, m, e, dphi=dphi, cg=cg)
        for arr in (div.dJ, div.dH, div.JA, div.HA):
            ok = ok and np.max(np.abs(arr)) <= tol

        ok = ok and np.max(np.abs(h_elimination_residual(cg, m).values)) <= tol

        state = reduced_state(cg, m, e)
        rres = reduced_system_residuals(state)
        ok = ok and np.max(np.abs(rres.conservation)) <= tol
        ok = ok and np.max(np.abs(rres.modulus)) <= tol
        details.append(f"{err_a:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(4, "inversion reproduces 5 manufactured potentials", ok,
            f"(|A-A*| = {', '.join(details)}; {elapsed:.2f}s)")


def test_criterion_5_discretization_convergence():
    t0 = time.perf_counter()
    m, e = 1.0, 1.0
    A = (0.3, 0.25, 0.0, 0.0)
    # time-only variation keeps collapsed axes true symmetry axes
    k1 = -e * A[1]
    p = (np.sqrt(m**2 + k1**2) + e * A[0], 0.0, 0.0, 0.0)
    spec_args = dict(p=p, A=A, m=m, e=e, amplitude=1.0)

    def errors(n, h):
        spec = PlaneWaveSpec(**spec_args)
        grid = manufacture_plane_wave(spec, (n, 1, 1, 1), (h, 1, 1, 1))
        A_grid = constant_four_vector_grid(A, grid.extents, grid.spacing)
        cg = compute_currents_grid(FLOAT_REP, grid)
        res = dkp_residual(FLOAT_REP, grid, A_grid, m, e)
        a_full = invert_potential_full(FLOAT_REP, grid, m, e, cg=cg)
        div = divergence_identities(FLOAT_REP, grid, A_grid, m, e, cg=cg)
        fd_sensitive = (
            np.max(np.abs(res.primary.values)),
            np.max(np.abs(a_full.values - np.array(A))),
            np.max(np.abs(div.JA)),
        )
        a_gf = invert_potential_gauge_fixed(cg, m, e)
        flat = (
            np.max(np.abs(field_strength_from_potential(a_gf).values)),
            np.max(np.abs(field_strength_bilinear(cg, m, e).values)),
            np.max(np.abs(div.dJ)),
            np.max(np.abs(div.HA)),
        )
        return fd_sensitive, flat

    h = 0.25
    coarse, flat_coarse = errors(8, h)
    fine, flat_fine = errors(15, h / 2)
    ratios = [c / f for c, f in zip(coarse, fine)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    # residuals of constant quantities stay at round-off at both spacings
    ok = ok and all(v <= 1e-10 for v in flat_coarse + flat_fine)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(5, "finite-difference residuals reduce by ~4 when halving h", ok,
            f"(ratios {', '.join(f'{r:.2f}' for r in ratios)}; {elapsed:.2f}s)")


def test_criterion_6_gauge_properties():
    t0 = time.perf_counter()
    m, e = 1.0, 0.8
    ok = True

    # decomposition identity on 20 random smooth non-solution fields
    worst = 0.0
    for seed in range(20):
        grid, dphi = random_fourier_field((6, 5, 4, 1), (0.3, 0.3, 0.35, 1.0),
                                          n_modes=3, seed=seed)
        cg = compute_currents_grid(FLOAT_REP, grid)
        mask = singular_mask(cg)
        if mask.all():
            continue
        a_full = invert_potential_full(FLOAT_REP, grid, m, e, dphi=dphi, cg=cg)
        a_gf = invert_potential_gauge_fixed(cg, m, e)
        g = gauge_term(FLOAT_REP, grid, e, dphi=dphi, cg=cg)
        resid = a_full.values - a_gf.values - g.values
        resid[mask] = 0.0
        scale = 1.0 + np.max(np.abs(a_full.values[~mask]))
        worst = max(worst, np.max(np.abs(resid)) / scale)
        ok = ok and np.max(np.abs(resid)) <= 1e-10 * scale

    # constant-phase invariance is bit-exact for exactly representable phases
    grid, _ = random_fourier_field((5, 4, 1, 1), (0.3, 0.3, 1, 1), seed=77)
    cg = compute_currents_grid(FLOAT_REP, grid)
    a_gf = invert_potential_gauge_fixed(cg, m, e)
    f_pot = field_strength_from_potential(a_gf)
    f_bil = field_strength_bilinear(cg, m, e)
    for phase in (1j, -1.0, -1j):
        rotated = FieldGrid(grid.extents, grid.spacing, WAVEFUNCTION, phase * grid.values)
        cg2 = compute_currents_grid(FLOAT_REP, rotated)
        ok = ok and np.array_equal(invert_potential_gauge_fixed(cg2, m, e).values, a_gf.values)
        ok = ok and np.array_equal(field_strength_from_potential(
            invert_potential_gauge_fixed(cg2, m, e)).values, f_pot.values)
        ok = ok and np.array_equal(field_strength_bilinear(cg2, m, e).values, f_bil.values)

    # local phase shift: FD mode, O(h^2) convergence of the shift defect.
    # With the (i d - eA) coupling, Phi -> exp(i theta) Phi pairs with
    # A -> A - (1/e) d theta.
    q = np.array([0.35, 0.0, 0.0, 0.0])
    from dkp5.planewave import _phase_exponent

    def shift_defect(n, h):
        spec = PlaneWaveSpec(p=(1.0 + 0.2 * e, 0, 0, 0), A=(0.2, 0, 0, 0), m=1.0, e=e, amplitude=1.0)
        grid = manufacture_plane_wave(spec, (n, 1, 1, 1), (h, 1, 1, 1))
        theta = _phase_exponent(q, grid.extents, grid.spacing)
        rotated = FieldGrid(grid.extents, grid.spacing, WAVEFUNCTION,
                            np.exp(1j * theta)[..., None] * grid.values)
        a1 = invert_potential_full(FLOAT_REP, grid, 1.0, e)
        a2 = invert_potential_full(FLOAT_REP, rotated, 1.0, e)
        return np.max(np.abs(a2.values - a1.values + q / e))

    d1, d2 = shift_defect(8, 0.25), shift_defect(15, 0.125)
    ok = ok and 3.5 <= d1 / d2 <= 4.5 and d1 < 0.1
    elapsed = time.perf_counter() - t0
    _report(6, "gauge decomposition, phase invariance, local-phase shift", ok,
            f"(worst decomposition {worst:.1e}, shift ratio {d1 / d2:.2f}; {elapsed:.2f}s)")


def test_criterion_7_negative_controls(tmp_path):
    from fractions import Fraction

    from dkp5.scalars import GaussianRational

    ok = True
    # non-realizable current set: quadratic residual exactly 4/9
    zero4 = np.array([GaussianRational(0)] * 4, dtype=object)
    zeroK = np.full((4, 4), GaussianRational(0), dtype=object)
    one, zero = GaussianRational(1), GaussianRational(0)
    cs = CurrentSet(mode="exact", S=one, Sflat=zero, J=zero4, H=zero4.copy(),
                    K=zeroK, Z=one, tilde_S=zero, tilde_Sflat=zero,
                    tilde_J=zero4.copy(), tilde_K=zeroK.copy(), tilde_Z=zero)
    res = algebraic_constraint_residuals(cs)
    ok = ok and res.quadratic == Fraction(4, 9)

    # zero-wavefunction grid: empty-domain exit code 2
    from dkp5 import store_grid

    path = tmp_path / "zero.dkp5"
    store_grid(FieldGrid.zeros((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION), path)
    code = cli_main(["invert", "--grid", str(path), "--m", "1", "--e", "1"])
    ok = ok and code == 2

    # off-shell manufacture: exit code 1
    code = cli_main(["manufacture", "--p", "1.5,0,0,0", "--A", "0,0,0,0",
                     "--m", "1", "--e", "1", "--extents", "4,1,1,1",
                     "--spacing", "0.1", "-o", str(tmp_path / "bad.dkp5")])
    ok = ok and code == 1
    _report(7, "negative controls (4/9 residual, exit 2, exit 1)", ok)
