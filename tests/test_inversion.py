import collections
import gc
import json
import weakref

import numpy as np
import pytest

from dkp5 import (
    FOUR_VECTOR,
    METRIC_DIAG,
    WAVEFUNCTION,
    FieldGrid,
    PlaneWaveSpec,
    compute_currents_grid,
    constant_four_vector_grid,
    divergence_identities,
    field_strength_bilinear,
    field_strength_from_potential,
    gauge_term,
    h_elimination_residual,
    invert_pipeline,
    invert_potential_full,
    invert_potential_gauge_fixed,
    manufacture_plane_wave,
    on_shell_momentum,
    plane_wave_gradient,
    random_fourier_field,
    reduced_state,
    reduced_system_residuals,
    representation_from_betas,
    singular_mask,
)
from dkp5.bilinears import lattice_currents
from dkp5.errors import EmptyDomainError, ModeError, ParameterError, SingularZError
from dkp5 import bilinears, inversion
from dkp5.inversion import _shared_derivative_bilinears, _solution_residuals, solution_report
from dkp5.grids import derivatives
from dkp5.reports import entry_from_values


def _solution(m=1.0, e=1.0, A=(0.0, 0.0, 0.0, 0.0), spatial=(0.0, 0.0, 0.0),
              extents=(8, 1, 1, 1), spacing=(0.12, 1, 1, 1), amplitude=1.0):
    p = on_shell_momentum(spatial, m, e, A)
    spec = PlaneWaveSpec(p=p, A=A, m=m, e=e, amplitude=amplitude)
    grid = manufacture_plane_wave(spec, extents, spacing)
    return spec, grid


def test_full_inversion_rest_frame_zero_potential(float_rep):
    m, e = 1.0, 1.0
    spec, grid = _solution(m, e)
    dphi = plane_wave_gradient(spec, grid)
    a_full = invert_potential_full(float_rep, grid, m, e, dphi=dphi)
    assert np.max(np.abs(a_full.values)) < 1e-12


def test_full_inversion_recovers_constant_potential(float_rep):
    m, e = 1.0, 0.75
    A = (0.5, -0.1, 0.2, 0.0)
    spec, grid = _solution(m, e, A, spatial=(0.3, 0, 0), extents=(6, 7, 1, 1),
                           spacing=(0.15, 0.2, 1, 1), amplitude=0.8 + 0.3j)
    dphi = plane_wave_gradient(spec, grid)
    a_full = invert_potential_full(float_rep, grid, m, e, dphi=dphi)
    assert np.max(np.abs(a_full.values - np.array(A))) < 1e-10 * (1 + np.max(np.abs(A)))


def test_gauge_fixed_route_values(float_rep):
    m, e = 1.0, 1.0
    spec, grid = _solution(m, e)
    cg = compute_currents_grid(float_rep, grid)
    a_gf = invert_potential_gauge_fixed(cg, m, e)
    # (3m/2e) * (2 k_mu/m) / (-3) = -k_mu / e with k = p here
    assert np.allclose(a_gf.values[..., 0], -1.0, atol=1e-13)
    assert np.allclose(a_gf.values[..., 1:], 0.0, atol=1e-13)
    g_term = gauge_term(float_rep, grid, e, dphi=plane_wave_gradient(spec, grid))
    assert np.allclose(g_term.values[..., 0], 1.0, atol=1e-12)


def test_gauge_fixed_zero_current_gives_zero(float_rep):
    vals = np.zeros((4, 1, 1, 1, 5), dtype=complex)
    vals[..., 4] = 1.0  # constant unit slot-4 field: J = 0, Z = -3
    grid = FieldGrid((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals)
    cg = compute_currents_grid(float_rep, grid)
    a_gf = invert_potential_gauge_fixed(cg, 1.0, 1.0)
    assert np.max(np.abs(a_gf.values)) == 0.0


def test_gauge_fixed_zeroes_masked_points_with_current(float_rep):
    """A masked point where J != 0: Phi_4 = 1e-6 gives Z = -3e-12, below the
    threshold, and J of order 1e-6.  Both the stage and the pipeline write
    0.0 there, not J / Z."""
    vals = np.tile(np.array([0.6, 0.3, -0.2, 0.4, 1.0], dtype=complex), (3, 1, 1, 1, 1))
    vals[1, ..., 4] = 1e-6
    grid = FieldGrid((3, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals)
    cg = lattice_currents(float_rep, grid)
    assert cg.mask.ravel().tolist() == [False, True, False]
    assert np.all(np.abs(cg.J[1]) > 1e-7)
    out, _ = invert_pipeline(float_rep, grid, 1.0, 1.0)
    for a_gf in (invert_potential_gauge_fixed(cg, 1.0, 1.0), out.a_gauge_fixed):
        assert np.all(a_gf.values[1] == 0.0)
        assert np.all(a_gf.values[[0, 2]] != 0.0)


def test_full_inversion_fd_second_order(float_rep):
    m, e = 1.0, 1.0
    A = (0.3, 0.25, 0.0, 0.0)
    k1 = -e * A[1]
    p = (np.sqrt(m**2 + k1**2) + e * A[0], 0.0, 0.0, 0.0)

    def err(n, h):
        spec = PlaneWaveSpec(p=p, A=A, m=m, e=e, amplitude=1.0)
        grid = manufacture_plane_wave(spec, (n, 1, 1, 1), (h, 1, 1, 1))
        a_full = invert_potential_full(float_rep, grid, m, e)
        return np.max(np.abs(a_full.values - np.array(A)))

    e1, e2 = err(8, 0.25), err(15, 0.125)
    assert 3.5 <= e1 / e2 <= 4.5


def test_field_strength_constant_and_linear_potential():
    ext, sp = (6, 5, 1, 1), (0.2, 0.3, 1, 1)
    const = constant_four_vector_grid((1.0, -2.0, 0.5, 0.0), ext, sp)
    F = field_strength_from_potential(const)
    assert np.max(np.abs(F.values)) == 0.0
    # A = (0, B t, 0, 0) gives F_01 = B exactly (stencils exact on linears)
    B = 1.7
    t = (np.arange(6) * 0.2).reshape(6, 1, 1, 1)
    vals = np.zeros(ext + (4,), dtype=complex)
    vals[..., 1] = B * np.broadcast_to(t, ext)
    lin = FieldGrid(ext, sp, FOUR_VECTOR, vals)
    F = field_strength_from_potential(lin)
    assert np.allclose(F.values[..., 0, 1], B, atol=1e-12)
    assert np.allclose(F.values[..., 1, 0], -B, atol=1e-12)
    F.values[..., 0, 1] = 0
    F.values[..., 1, 0] = 0
    assert np.max(np.abs(F.values)) < 1e-12


def test_field_strength_routes_vanish_on_plane_wave(float_rep):
    m, e = 1.0, 0.9
    A = (0.4, 0.0, 0.0, 0.0)
    spec, grid = _solution(m, e, A, spatial=(0.2, 0, 0), extents=(7, 6, 1, 1),
                           spacing=(0.15, 0.2, 1, 1))
    cg = compute_currents_grid(float_rep, grid)
    a_gf = invert_potential_gauge_fixed(cg, m, e)
    f_pot = field_strength_from_potential(a_gf)
    f_bil = field_strength_bilinear(cg, m, e)
    assert np.max(np.abs(f_pot.values)) < 1e-10
    assert np.max(np.abs(f_bil.values)) < 1e-10
    for f in (f_pot, f_bil):
        assert np.max(np.abs(f.values + np.swapaxes(f.values, -1, -2))) == 0.0


def test_bilinear_field_strength_zero_current(float_rep):
    vals = np.zeros((4, 1, 1, 1, 5), dtype=complex)
    vals[..., 4] = 1.0
    grid = FieldGrid((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals)
    cg = compute_currents_grid(float_rep, grid)
    f = field_strength_bilinear(cg, 1.0, 1.0)
    assert np.max(np.abs(f.values)) == 0.0


def test_gauge_term_constant_real_density(float_rep):
    vals = np.zeros((5, 1, 1, 1, 5), dtype=complex)
    vals[..., 4] = 1.0  # Zt = -3 everywhere, real and constant
    grid = FieldGrid((5, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals)
    g = gauge_term(float_rep, grid, 1.0)
    assert np.max(np.abs(g.values)) == 0.0


def test_gauge_term_is_a_pure_gradient(float_rep):
    # finite-difference curl of the gauge term decays at second order; the
    # same two smooth modes are resampled at both resolutions
    def max_curl(n, h):
        grid, dphi = _modes_field(float_rep, n, h)
        g = gauge_term(float_rep, grid, 1.0, dphi=dphi)
        dg = derivatives(g.values, g.spacing)
        worst = 0.0
        for mu in range(4):
            for nu in range(mu + 1, 4):
                worst = max(worst, np.max(np.abs(dg[mu][..., nu] - dg[nu][..., mu])))
        return worst

    c1 = max_curl(17, 0.1)
    c2 = max_curl(33, 0.05)
    assert c2 < c1 / 3.0


def _modes_field(float_rep, n, h, seed=21):
    # two fixed smooth modes resampled at any resolution; slot 4 offset so
    # Z stays away from the singular set
    from dkp5.planewave import _phase_exponent

    rng = np.random.default_rng(seed)
    qs = np.array([[0.9, -0.6, 0.0, 0.0], [-0.4, 1.1, 0.0, 0.0]])
    coeffs = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    extents, spacing = (n, n, 1, 1), (h, h, 1, 1)
    vals = np.zeros(extents + (5,), dtype=complex)
    dvals = [np.zeros(extents + (5,), dtype=complex) for _ in range(4)]
    for r in range(2):
        mode = coeffs[r] * np.exp(-1j * _phase_exponent(qs[r], extents, spacing))[..., None]
        vals += mode
        for mu in range(4):
            dvals[mu] += -1j * qs[r, mu] * mode
    vals[..., 4] += 4.0
    grid = FieldGrid(extents, spacing, WAVEFUNCTION, vals)
    dphi = [FieldGrid(extents, spacing, WAVEFUNCTION, d) for d in dvals]
    return grid, dphi


def test_route_difference_is_the_elimination_defect(float_rep):
    # On a non-solution field the two field-strength routes disagree, and
    # the disagreement must reduce to the gradient-elimination defect
    #   F_bil - F_pot = (9 m^2 i / 2e) (J_nu D_mu - J_mu D_nu) / Z^2
    # with D = H - (i/3m) dZ, to second order in the spacing.
    m, e = 1.0, 0.8

    def defect(n, h):
        grid, _ = _modes_field(float_rep, n, h)
        cg = compute_currents_grid(float_rep, grid)
        a_gf = invert_potential_gauge_fixed(cg, m, e)
        f_pot = field_strength_from_potential(a_gf).values
        f_bil = field_strength_bilinear(cg, m, e).values
        d19 = h_elimination_residual(cg, m).values
        z2 = (cg.Z**2)[..., None, None]
        pred = (9.0 * m**2 * 1j / (2.0 * e)) * (
            d19[..., :, None] * cg.J[..., None, :]
            - cg.J[..., :, None] * d19[..., None, :]
        ) / z2
        assert np.max(np.abs(pred)) > 1e-3  # genuinely non-solution
        return np.max(np.abs(f_bil - f_pot - pred))

    d1, d2 = defect(17, 0.1), defect(33, 0.05)
    assert d2 < d1 / 3.0


def test_divergence_identities_on_solution(float_rep):
    m, e = 1.0, 1.1
    A = (0.35, 0.0, 0.0, 0.0)
    spec, grid = _solution(m, e, A, spatial=(0.25, 0, 0), extents=(6, 8, 1, 1),
                           spacing=(0.2, 0.15, 1, 1), amplitude=1.2)
    A_grid = constant_four_vector_grid(A, grid.extents, grid.spacing)
    dphi = plane_wave_gradient(spec, grid)
    res = divergence_identities(float_rep, grid, A_grid, m, e, dphi=dphi)
    for arr in (res.dJ, res.dH, res.JA, res.HA):
        assert np.max(np.abs(arr)) < 1e-10


def test_h_elimination_on_solution_and_artificial_h(float_rep):
    spec, grid = _solution()
    cg = compute_currents_grid(float_rep, grid)
    res = h_elimination_residual(cg, 1.0)
    assert np.max(np.abs(res.values)) < 1e-12
    # constant Z but H imposed by hand: residual must equal H itself
    cg.H = cg.H + 0.25j
    res = h_elimination_residual(cg, 1.0)
    assert np.allclose(res.values, 0.25j, atol=1e-12)


def test_reduced_system_on_plane_wave(float_rep):
    m, e = 1.0, 0.8
    A = (0.45, 0.0, 0.0, 0.0)
    spec, grid = _solution(m, e, A, spatial=(0.3, 0, 0), extents=(7, 9, 1, 1),
                           spacing=(0.15, 0.12, 1, 1))
    cg = compute_currents_grid(float_rep, grid)
    state = reduced_state(cg, m, e)
    k = spec.wave_vector()
    assert np.allclose(state.Jcal[0, 0, 0, 0], -2.0 * k / (3.0 * m), atol=1e-12)
    res = reduced_system_residuals(state)
    assert np.max(np.abs(res.conservation)) < 1e-10
    assert np.max(np.abs(res.modulus)) < 1e-10
    assert np.max(np.abs(res.lhs_cross_check)) < 1e-10
    # the self-interaction source term is NOT satisfied by an externally
    # coupled plane wave; its magnitude is exactly (2 e^2/m) |Z| |Jcal|
    want = 2.0 * e**2 / m * np.abs(state.Z[..., None] * state.Jcal)
    assert np.allclose(np.abs(res.field_eq), want, atol=1e-8)
    assert np.max(np.abs(res.field_eq)) > 0.1


def test_reduced_modulus_negative_control(float_rep):
    vals = np.zeros((5, 1, 1, 1, 5), dtype=complex)
    vals[..., 4] = 1.0  # J = 0 so Jcal = 0, Z = -3 constant
    grid = FieldGrid((5, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals)
    cg = compute_currents_grid(float_rep, grid)
    res = reduced_system_residuals(reduced_state(cg, 1.0, 1.0))
    assert np.allclose(res.modulus, -4.0 / 9.0, atol=1e-12)


def test_decomposition_identity_random_fields(float_rep):
    m, e = 1.0, 0.7
    for seed in range(4):
        grid, dphi = random_fourier_field((6, 5, 4, 1), (0.3, 0.3, 0.35, 1), seed=seed)
        cg = compute_currents_grid(float_rep, grid)
        mask = singular_mask(cg)
        a_full = invert_potential_full(float_rep, grid, m, e, dphi=dphi, cg=cg)
        a_gf = invert_potential_gauge_fixed(cg, m, e)
        g = gauge_term(float_rep, grid, e, dphi=dphi, cg=cg)
        resid = a_full.values - a_gf.values - g.values
        resid[mask] = 0.0
        scale = 1.0 + np.max(np.abs(a_full.values[~mask]))
        assert np.max(np.abs(resid)) < 1e-10 * scale


def test_constant_phase_invariance_bit_exact(float_rep):
    grid, _ = random_fourier_field((5, 4, 1, 1), (0.3, 0.3, 1, 1), seed=11)
    cg = compute_currents_grid(float_rep, grid)
    a_gf = invert_potential_gauge_fixed(cg, 1.0, 1.0)
    f_pot = field_strength_from_potential(a_gf)
    f_bil = field_strength_bilinear(cg, 1.0, 1.0)
    for phase in (1j, -1.0, -1j):
        rotated = FieldGrid(grid.extents, grid.spacing, WAVEFUNCTION, phase * grid.values)
        cg2 = compute_currents_grid(float_rep, rotated)
        a2 = invert_potential_gauge_fixed(cg2, 1.0, 1.0)
        assert np.array_equal(a2.values, a_gf.values)
        assert np.array_equal(field_strength_from_potential(a2).values, f_pot.values)
        assert np.array_equal(field_strength_bilinear(cg2, 1.0, 1.0).values, f_bil.values)


def test_local_phase_shifts_full_potential(float_rep):
    m, e = 1.0, 0.9
    grid, dphi = random_fourier_field((7, 6, 1, 1), (0.2, 0.25, 1, 1), seed=3)
    q = np.array([0.4, -0.3, 0.0, 0.0])
    from dkp5.planewave import _phase_exponent

    theta = _phase_exponent(q, grid.extents, grid.spacing)
    phase = np.exp(1j * theta)[..., None]
    rotated = FieldGrid(grid.extents, grid.spacing, WAVEFUNCTION, phase * grid.values)
    drot = [
        FieldGrid(grid.extents, grid.spacing, WAVEFUNCTION,
                  phase * (dphi[mu].values + 1j * q[mu] * grid.values))
        for mu in range(4)
    ]
    cg = compute_currents_grid(float_rep, grid)
    mask = singular_mask(cg)
    a1 = invert_potential_full(float_rep, grid, m, e, dphi=dphi, cg=cg)
    a2 = invert_potential_full(float_rep, rotated, m, e, dphi=drot)
    shift = a2.values - a1.values
    shift[mask] = 0.0
    # exp(i theta) Phi pairs with A -> A - (1/e) d theta under the
    # (i d - eA) coupling convention
    want = np.where(mask[..., None], 0.0, -q / e)
    assert np.max(np.abs(shift - want)) < 1e-10 * (1 + np.max(np.abs(a1.values[~mask])))
    # both field-strength routes are insensitive to the local phase
    cg2 = compute_currents_grid(float_rep, rotated)
    f1 = field_strength_bilinear(cg, m, e)
    f2 = field_strength_bilinear(cg2, m, e)
    assert np.max(np.abs(f1.values - f2.values)) < 1e-10 * (1 + np.max(np.abs(f1.values)))


def test_empty_domain_errors(float_rep):
    zero = FieldGrid.zeros((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION)
    with pytest.raises(EmptyDomainError):
        invert_pipeline(float_rep, zero, 1.0, 1.0)
    # slot-4 component zero everywhere forces Z = 0 in this representation
    vals = np.zeros((4, 1, 1, 1, 5), dtype=complex)
    vals[..., 0] = 1.0
    grid = FieldGrid((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals)
    with pytest.raises(EmptyDomainError):
        invert_pipeline(float_rep, grid, 1.0, 1.0)


@pytest.mark.parametrize("stage", [
    lambda rep, grid, cg: invert_potential_full(rep, grid, 1.0, 1.0, cg=cg),
    lambda rep, grid, cg: invert_potential_gauge_fixed(cg, 1.0, 1.0),
    lambda rep, grid, cg: field_strength_bilinear(cg, 1.0, 1.0),
    lambda rep, grid, cg: gauge_term(rep, grid, 1.0, cg=cg),
    lambda rep, grid, cg: reduced_state(cg, 1.0, 1.0),
], ids=["invert_potential_full", "invert_potential_gauge_fixed", "field_strength_bilinear",
        "gauge_term", "reduced_state"])
def test_every_stage_has_one_empty_domain_error(float_rep, stage):
    """Every point masked is one condition, EmptyDomainError, whichever stage meets it."""
    zero = FieldGrid.zeros((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION)
    with pytest.raises(EmptyDomainError, match="every grid point is Z-singular"):
        stage(float_rep, zero, compute_currents_grid(float_rep, zero))


def test_parameter_errors(float_rep):
    spec, grid = _solution()
    with pytest.raises(ParameterError):
        invert_pipeline(float_rep, grid, 1.0, 0.0)
    cg = compute_currents_grid(float_rep, grid)
    with pytest.raises(ParameterError):
        invert_potential_gauge_fixed(cg, -1.0, 1.0)


def test_singular_z_errors(float_rep):
    zero = FieldGrid.zeros((4, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION)
    with pytest.raises(SingularZError):
        gauge_term(float_rep, zero, 1.0)
    cg = compute_currents_grid(float_rep, zero)
    with pytest.raises(SingularZError):
        reduced_state(cg, 1.0, 1.0)


def test_pipeline_reports_schema(float_rep):
    m, e = 1.0, 1.0
    A = (0.2, 0.0, 0.0, 0.0)
    spec, grid = _solution(m, e, A, spatial=(0.1, 0, 0), extents=(6, 6, 1, 1),
                           spacing=(0.2, 0.2, 1, 1))
    dphi = plane_wave_gradient(spec, grid)
    out, entries = invert_pipeline(float_rep, grid, m, e, dphi=dphi, A_ref=A)
    names = [en["identity"] for en in entries]
    assert names[0] == "decomposition_full_vs_gauge_fixed_plus_gauge_term"
    assert "gauge_faithfulness_a_full" in names
    assert "reduced_modulus" in names
    for en in entries:
        assert set(en) == {"identity", "max_abs", "rms", "masked_fraction", "pass", "tolerance"}
        assert en["pass"]
    assert out.f_bilinear.values.shape == grid.extents + (4, 4)
    assert out.singular_mask.shape == grid.extents


def test_non_finite_parameters_rejected(float_rep):
    spec, grid = _solution()
    for m, e in ((float("nan"), 1.0), (1.0, float("inf")), (float("inf"), 1.0)):
        with pytest.raises(ParameterError):
            invert_pipeline(float_rep, grid, m, e)
    with pytest.raises(ParameterError):
        invert_pipeline(float_rep, grid, 1.0, 1.0, A_ref=(0.0, float("nan"), 0.0, 0.0))


def _derivative_oracle(rep, phi, dv):
    """The per-mu einsum forms of Phi_bar M d_mu Phi - d_mu Phi_bar M Phi for
    M = zeta, b^mu, c^mu, and of 2 Phi_tilde zeta d_mu Phi; each (..., 4)."""
    pb = np.einsum("...a,ab->...b", phi.conj(), rep.eta)
    bsq_phi = np.einsum("ab,...b->...a", rep.beta_sq, phi)
    pt_zeta = np.einsum("...a,ab,bc->...c", phi, rep.eta, rep.zeta)
    zeta, upper_b, upper_c, tilde = [], [], [], []
    for mu in range(4):
        dpb = np.einsum("...a,ab->...b", dv[mu].conj(), rep.eta)
        t1 = np.einsum("...a,...a->...", pb, dv[mu]) - np.einsum("...a,...a->...", dpb, phi)
        t2 = np.einsum("...a,ab,...b->...", pb, rep.beta_sq, dv[mu]) - np.einsum(
            "...a,...a->...", dpb, bsq_phi
        )
        zeta.append(t1 - t2)
        for out, mat in ((upper_b, rep.beta_upper(mu)), (upper_c, METRIC_DIAG[mu] * rep.beta_dot[mu])):
            out.append(np.einsum("...a,ab,...b->...", pb, mat, dv[mu])
                       - np.einsum("...a,ab,...b->...", dpb, mat, phi))
        tilde.append(2.0 * np.einsum("...a,...a->...", pt_zeta, dv[mu]))
    return [np.stack(t, axis=-1) for t in (zeta, upper_b, upper_c, tilde)]


def _oracle_reps(float_rep):
    yield "reference", float_rep
    betas = list(float_rep.beta)
    yield "b2x2", representation_from_betas(betas[:2] + [2 * betas[2]] + betas[3:], "float")
    # eta b_1 and eta c_mu are then not Hermitian
    noise = np.random.default_rng(9).standard_normal((2, 5, 5))
    yield "b1+noise", representation_from_betas(
        [betas[0], betas[1] + 0.3 * (noise[0] + 1j * noise[1])] + betas[2:], "float")


def _close(got, want, rtol=1e-13):
    return np.max(np.abs(got - want)) <= rtol * max(1.0, np.max(np.abs(want)))


def test_derivative_bilinears_match_einsum_oracle(float_rep):
    """The blocked table products equal the einsum forms they replace, on the
    reference representation and on corrupted ones, and so do the potential,
    the contraction residuals and the closed-form gauge term built on them."""
    m, e = 1.1, 0.8
    # more points than one block of the table product
    grid, dphi = random_fourier_field((9, 8, 6, 5), (0.3, 0.25, 0.3, 0.35), seed=4)
    phi, dv = grid.values, [g.values for g in dphi]
    A = np.array([0.3, -0.2, 0.1, 0.25])
    a_grid = constant_four_vector_grid(A, grid.extents, grid.spacing)
    for label, rep in _oracle_reps(float_rep):
        zeta, upper_b, upper_c, tilde = _derivative_oracle(rep, phi, dv)
        d_zeta, d_bc, d_tilde = _shared_derivative_bilinears(rep, grid, dphi, bc=True, tilde=True)
        assert _close(d_zeta, zeta), label
        assert _close(d_bc[..., 0], upper_b.sum(-1)), label
        assert _close(d_bc[..., 1], upper_c.sum(-1)), label
        assert _close(2.0 * d_tilde, tilde), label

        cg = compute_currents_grid(rep, grid)
        mask = singular_mask(cg)
        assert not mask.all(), label
        z = np.where(mask, 1.0, cg.Z)[..., None]
        want = (1.5 * m / e) * cg.J / z + ((1j * zeta) / (2.0 * e * z)).real
        want[mask] = 0.0
        assert _close(invert_potential_full(rep, grid, m, e, dphi=dphi, cg=cg).values, want), label

        div = divergence_identities(rep, grid, a_grid, m, e, dphi=dphi, cg=cg)
        ja = e * cg.J @ (A * METRIC_DIAG) - (-m * cg.S + 0.5j * upper_b.sum(axis=-1))
        ha = e * cg.H @ (A * METRIC_DIAG) - 0.5j * upper_c.sum(axis=-1)
        assert _close(div.JA, ja) and _close(div.HA, ha), label

        zt = np.where(mask, 1.0, cg.tilde_Z)[..., None]
        want = ((1j / (4.0 * e)) * (tilde / zt - tilde.conj() / zt.conj())).real
        want[mask] = 0.0
        assert _close(gauge_term(rep, grid, e, dphi=dphi, cg=cg).values, want), label


def test_derivative_tables_round_each_column_once(float_rep, monkeypatch):
    """The derivative kernel sums only the nonzero coefficients of a column,
    in row order.  That keeps the bits of a product with the whole table
    only while each column is one term, or two with exact multipliers; and
    the Hermitian tables read only the pairs (mu, 4), (4, mu) and (4, 4).
    Checked on the table of each sector and direction that the pass hands
    the kernel when asked for all three outputs: zeta, b and c stacked in
    the Hermitian sector, and the tilde zeta column."""
    tables = {True: [], False: []}  # the Hermitian sector conjugates, the tilde one does not
    kernel = bilinears._add_pair_parts
    monkeypatch.setattr(bilinears, "_add_pair_parts",
                        lambda left, right, conj, coef, *args: tables[conj].append(coef)
                        or kernel(left, right, conj, coef, *args))
    grid, dphi = random_fourier_field((3, 3, 3, 3), (0.3,) * 4, seed=1)
    _shared_derivative_bilinears(float_rep, grid, dphi, bc=True, tilde=True)
    assert [[coef.shape for coef in tables[conj]] for conj in (True, False)] == [[(50, 6)] * 4, [(50, 2)] * 4]
    for hermitian, coefs in tables.items():
        for mu, coef in enumerate(coefs):
            for col, c in enumerate(coef.T):
                where = f"hermitian={hermitian}, mu={mu}, column {col}"
                terms = c[c != 0]
                assert len(terms) <= 2, f"{where} sums {len(terms)} terms: more than one rounding"
                assert len(terms) < 2 or set(np.abs(terms)) <= {1.0, 2.0}, (
                    f"{where}: products by {terms} are not exact, so the sum rounds twice")
            pairs = {divmod(r // 2, 5) for r in np.flatnonzero(coef.any(axis=1))}
            assert not hermitian or pairs <= {(mu, 4), (4, mu), (4, 4)}, (
                f"mu={mu}: the Hermitian table reads the pairs {sorted(pairs)}")


def test_derivative_bilinears_require_float(exact_rep):
    grid, _ = random_fourier_field((3, 3, 3, 3), (0.3,) * 4, seed=1)
    with pytest.raises(ModeError):
        _shared_derivative_bilinears(exact_rep, grid, None)


def test_pipeline_without_dphi_takes_stencil_gauge_term(float_rep):
    """Without closed-form derivatives the pipeline's gauge term is the
    stencil route, not the bilinear one."""
    e = 0.9
    grid, dphi = random_fourier_field((6, 5, 4, 1), (0.3, 0.3, 0.35, 1), seed=2)
    out, _ = invert_pipeline(float_rep, grid, 1.0, e)
    cg = compute_currents_grid(float_rep, grid)
    stencil = gauge_term(float_rep, grid, e, cg=cg).values
    assert np.array_equal(out.gauge_term.values, stencil)
    assert not np.array_equal(gauge_term(float_rep, grid, e, dphi=dphi, cg=cg).values, stencil)


def _small_wave():
    return _solution(extents=(6, 5, 1, 1), spacing=(0.12, 0.2, 1, 1), spatial=(0.3, 0, 0))


def test_h_elimination_rejects_bad_mass(float_rep):
    _, grid = _small_wave()
    cg = compute_currents_grid(float_rep, grid)
    for m in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ParameterError):
            h_elimination_residual(cg, m)


def test_gauge_term_rejects_bad_coupling(float_rep):
    _, grid = _small_wave()
    for e in (float("nan"), float("-inf"), 0.0):
        with pytest.raises(ParameterError):
            gauge_term(float_rep, grid, e)


def test_divergence_identities_reject_bad_parameters(float_rep):
    spec, grid = _small_wave()
    a_grid = constant_four_vector_grid(np.zeros(4), grid.extents, grid.spacing)
    for m, e in ((float("nan"), 1.0), (-1.0, 1.0), (0.0, 1.0), (1.0, float("nan"))):
        with pytest.raises(ParameterError):
            divergence_identities(float_rep, grid, a_grid, m, e)
    # the relations never divide by e
    div = divergence_identities(float_rep, grid, a_grid, 1.0, 0.0)
    assert np.isfinite(div.JA).all()


def _masked_field():
    """A random field on a non-cubic grid with a symmetry axis, zeroed at one
    point so that Z = 0 there, with its closed-form derivatives."""
    grid, dphi = random_fourier_field((7, 5, 6, 1), (0.3, 0.25, 0.35, 1), seed=11)
    grid.values[3, 2, 4] = 0.0
    return grid, dphi


def test_solution_stream_holds_no_residual_it_has_handed_on(float_rep):
    """Each residual of the solution-check stream is freed once its reader
    drops it: at every step of a 5^4 stream, no residual handed on so far
    is alive, the divergence and reduced groups included."""
    A = (0.3, -0.2, 0.1, 0.25)
    _, grid = _solution(A=A, spatial=(0.3, 0.2, -0.1), extents=(5,) * 4, spacing=(0.15,) * 4)
    cg = compute_currents_grid(float_rep, grid)
    refs = {}
    for name, values in _solution_residuals(float_rep, grid, cg, 1.0, 1.0, A):
        refs[name] = weakref.ref(values)
        del values
        gc.collect()
        assert [n for n, ref in refs.items() if ref() is not None] == [], name
    assert len(refs) == 9


@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize("A_ref", [None, (0.3, -0.2, 0.1, 0.25)])
def test_pipeline_equals_stages_called_alone(float_rep, analytic, A_ref):
    """The pipeline's shared derivatives, bilinears and mask change no bit of
    its grids or its entries.  The solution-check stream yields each
    residual of its stage called alone, bit for bit, in report order with
    the reduced field equation last, and the pipeline's last eight entries
    are those of the first eight."""
    m, e, tol = 1.1, 0.8, 1e-10
    grid, dphi = _masked_field()
    dphi = dphi if analytic else None
    out, entries = invert_pipeline(float_rep, grid, m, e, dphi=dphi, A_ref=A_ref, tolerance=tol)

    cg = compute_currents_grid(float_rep, grid)
    mask = singular_mask(cg)
    assert mask.any() and not mask.all()
    a_gf = invert_potential_gauge_fixed(cg, m, e)
    alone = {
        "a_full": invert_potential_full(float_rep, grid, m, e, dphi=dphi),
        "a_gauge_fixed": a_gf,
        "gauge_term": gauge_term(float_rep, grid, e, dphi=dphi),
        "f_from_potential": field_strength_from_potential(a_gf),
        "f_bilinear": field_strength_bilinear(cg, m, e),
    }
    for name, want in alone.items():
        assert np.array_equal(getattr(out, name).values, want.values), name
    assert np.array_equal(out.singular_mask, mask)

    assert len(entries) == (3 if A_ref is None else 15)
    if A_ref is not None:
        stream = dict(_solution_residuals(float_rep, grid, cg, m, e, A_ref, dphi))
        a_grid = constant_four_vector_grid(A_ref, grid.extents, grid.spacing)
        div = divergence_identities(float_rep, grid, a_grid, m, e, dphi=dphi)
        rres = reduced_system_residuals(reduced_state(cg, m, e))
        residuals_alone = {
            "current_conservation": div.dJ,
            "companion_divergence": div.dH,
            "current_potential_contraction": div.JA,
            "companion_potential_contraction": div.HA,
            "h_elimination": h_elimination_residual(cg, m).values,
            "reduced_conservation": rres.conservation,
            "reduced_modulus": rres.modulus,
            "reduced_field_eq_lhs_cross_check": rres.lhs_cross_check,
            "reduced_field_eq": rres.field_eq,
        }
        assert list(stream) == list(residuals_alone)
        for name, want in residuals_alone.items():
            assert np.array_equal(stream[name], want), name
        checks = list(stream.items())[:8]
        assert entries[-8:] == [entry_from_values(name, values, mask, tol) for name, values in checks]


@pytest.mark.parametrize("stage, route", [("field_strength_from_potential", "potential"),
                                          ("field_strength_bilinear", "bilinear")])
def test_f_antisymmetry_entries_build_f_plus_f_transpose_only_where_f_is_not_finite(
        float_rep, monkeypatch, stage, route):
    """On a finite F, each F-antisymmetry entry is the entry of F + F^T byte
    for byte, with masked points.  With F_mu_nu = -F_nu_mu = inf at an
    unmasked point, as where a - b and b - a overflow, F + F^T is taken and
    is inf - inf there: a FloatingPointError under the CLI's errstate, and
    a nan entry where invalid values are ignored."""
    from dkp5.reports import _entry_from_temporary

    m, e, A_ref = 1.1, 0.8, (0.3, -0.2, 0.1, 0.25)
    name = f"f_antisymmetry_{route}_route"
    grid, _ = _masked_field()
    out, entries = invert_pipeline(float_rep, grid, m, e, A_ref=A_ref)
    f = getattr(out, "f_from_potential" if route == "potential" else "f_bilinear").values
    want = _entry_from_temporary(name, f + np.swapaxes(f, -1, -2), out.singular_mask, 1e-10)
    assert out.singular_mask.any() and not out.singular_mask[0, 0, 0, 0]
    assert [json.dumps(entry) for entry in entries if entry["identity"] == name] == [json.dumps(want)]

    original = getattr(inversion, stage)

    def overflowing(*args, **kwargs):
        F = original(*args, **kwargs)
        F.values[0, 0, 0, 0, 1, 2], F.values[0, 0, 0, 0, 2, 1] = np.inf, -np.inf
        return F

    monkeypatch.setattr(inversion, stage, overflowing)
    with np.errstate(over="raise", divide="raise", invalid="raise"), pytest.raises(FloatingPointError):
        invert_pipeline(float_rep, grid, m, e, A_ref=A_ref)
    with np.errstate(all="ignore"):
        _, entries = invert_pipeline(float_rep, grid, m, e, A_ref=A_ref)
    [got] = [entry for entry in entries if entry["identity"] == name]
    assert np.isnan(got["max_abs"]) and np.isnan(got["rms"]) and not got["pass"]


#: (kernel calls, stencils) of each route on a 5^4 field with A_ref, with
#: finite differences and in closed form.  The currents make 2 kernel calls
#: (one per sector), and a derivative pass one per sector and direction: 4
#: with finite differences, where zeta and the b and c columns share the
#: Hermitian call, and 8 in closed form, which adds the tilde column.  The
#: 56 stencils of the FD pipeline are 4 for Phi, 4 for Zt, 4 for each F
#: route, 4 for d.J, 4 for d.H, 4 for Z in the H elimination and 28 in the
#: reduced system, which takes its own 4 of Z.
_CALLS = {
    "pipeline": ((6, 56), (10, 48)),
    "residuals": ((6, 44), (6, 40)),
    "invert_potential_full": ((6, 4), (6, 0)),
    "gauge_term": ((2, 4), (6, 0)),
    "divergence_identities": ((6, 12), (6, 8)),
}


@pytest.mark.parametrize("analytic", [False, True], ids=["fd", "closed-form"])
def test_kernel_and_stencil_calls_of_each_route(float_rep, monkeypatch, analytic):
    """The pipeline, the route of `dkp residuals` (``solution_report``) and
    each stage called alone run one derivative-bilinear pass, with the
    kernel and stencil calls of ``_CALLS``; the gauge term with finite
    differences takes the stencils of Zt and makes no pass."""
    import dkp5.grids

    m, e, A = 1.0, 1.0, (0.1, 0.0, 0.2, 0.0)
    grid, dphi = random_fourier_field((5,) * 4, (0.3,) * 4, seed=3)
    dphi = dphi if analytic else None
    a_grid = constant_four_vector_grid(A, grid.extents, grid.spacing)
    routes = {
        "pipeline": lambda: invert_pipeline(float_rep, grid, m, e, dphi=dphi, A_ref=A),
        "residuals": lambda: solution_report(float_rep, grid, m, e, A, dphi),
        "invert_potential_full": lambda: invert_potential_full(float_rep, grid, m, e, dphi=dphi),
        "gauge_term": lambda: gauge_term(float_rep, grid, e, dphi=dphi),
        "divergence_identities": lambda: divergence_identities(float_rep, grid, a_grid, m, e, dphi=dphi),
    }
    calls = collections.Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for module, name in ((bilinears, "_add_pair_parts"), (dkp5.grids, "stencil_derivative")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for route, run in routes.items():
        calls.clear()
        run()
        assert (calls["_add_pair_parts"], calls["stencil_derivative"]) == _CALLS[route][analytic], route


def _pipeline_peak_per_point(rep, analytic):
    """Traced peak bytes per point of an FD or closed-form pipeline with A_ref
    on an 8^4 plane wave (numpy reports its buffers to tracemalloc); the
    closed-form gradient is made inside the traced window, as the CLI does."""
    import tracemalloc

    m, e, A = 1.0, 1.0, (0.3, -0.2, 0.1, 0.25)
    spec, grid = _solution(m, e, A, spatial=(0.3, 0.2, -0.1), extents=(8,) * 4,
                           spacing=(0.15,) * 4, amplitude=0.8 + 0.3j)
    tracemalloc.start()
    try:
        dphi = plane_wave_gradient(spec, grid) if analytic else None
        invert_pipeline(rep, grid, m, e, dphi=dphi, A_ref=A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / grid.n_points


def test_pipeline_peak_memory_per_point(float_rep):
    """An FD pipeline with A_ref peaks at no more than 600 traced bytes per
    point.

    Each stage writes into the buffer that it keeps or returns: the currents
    are compact copies, the derivative bilinears are reduced a block at a
    time, both field strengths are antisymmetrised in their gradient's
    buffer, the reduced system frees its cross-check gradient a row at a
    time, and the end checks reduce their temporaries in place.  The pipeline
    peaks at about 520 B per point (`scripts/stage_memory.py`).  Freeing each
    grid after its last reader but making every stage's temporaries beside
    its inputs peaked at about 785 B per point, and keeping the residual
    grids and the whole cross-check F as well at about 1,385."""
    per_point = _pipeline_peak_per_point(float_rep, analytic=False)
    assert per_point <= 600, per_point


def test_analytic_pipeline_peak_memory_per_point(float_rep):
    """The closed-form pipeline has the same bound: its gradient -i p_mu Phi is
    made one direction at a time (about 515 B per point; 775 before the
    stages wrote in place).  A list of the four direction grids held through
    the pipeline peaked at about 1,695."""
    per_point = _pipeline_peak_per_point(float_rep, analytic=True)
    assert per_point <= 600, per_point


def _frozen_reduced_system_residuals(state):
    """reduced_system_residuals as it was before each intermediate was dropped
    after its last reader: the whole cross-check F built as G - G^T, kept as
    the oracle."""
    ext, sp = state.extents, state.spacing
    d = lambda arr, mu: derivatives(arr, sp, (mu,))[0]
    dJc = derivatives(state.Jcal, sp)
    div = sum(METRIC_DIAG[mu] * dJc[mu][..., mu] for mu in range(4))
    box_j = sum(METRIC_DIAG[nu] * d(dJc[nu], nu) for nu in range(4))
    del dJc
    grad_div = np.moveaxis(derivatives(div, sp), 0, -1)
    lhs = box_j - grad_div
    z = np.where(state.mask, 1.0, state.Z)
    field_eq = lhs - (2.0 * state.e**2 / state.m) * state.Z[..., None] * state.Jcal
    dZ = derivatives(state.Z, sp)
    conservation = state.Z * div + sum(
        METRIC_DIAG[mu] * state.Jcal[..., mu] * dZ[mu] for mu in range(4)
    )
    box_z = sum(METRIC_DIAG[nu] * d(dZ[nu], nu) for nu in range(4))
    dz_dz = sum(METRIC_DIAG[mu] * dZ[mu] * dZ[mu] for mu in range(4))
    jj = np.einsum("...m,...m->...", state.Jcal, state.Jcal * np.array(METRIC_DIAG, dtype=float))
    modulus = jj - (2.0 / (9.0 * state.m**2)) * (
        box_z / z - dz_dz / (2.0 * z**2)
    ) - 4.0 / 9.0
    a_gf = FieldGrid(ext, sp, FOUR_VECTOR, (1.5 * state.m / state.e) * state.Jcal)
    G = np.moveaxis(derivatives(a_gf.values, sp), 0, -2)
    F = G - np.swapaxes(G, -1, -2)
    div_f = sum(METRIC_DIAG[nu] * d(F[..., nu, :], nu) for nu in range(4))
    lhs_via_f = (2.0 * state.e / (3.0 * state.m)) * div_f
    cross = lhs - lhs_via_f
    for arr in (field_eq, conservation, modulus, cross):
        arr[state.mask] = 0.0
    return field_eq, conservation, modulus, cross


@pytest.mark.parametrize("seed", [11, 12])
def test_reduced_residuals_equal_the_frozen_oracle(float_rep, seed):
    """Reordering the reduced system and taking F a row at a time change no
    bit of its four residuals, masked points included."""
    grid, _ = random_fourier_field((7, 5, 6, 4), (0.3, 0.25, 0.35, 0.2), seed=seed)
    grid.values[3, 2, 4, 1] = 0.0
    grid.values[0, 0, 0, 0] = 0.0
    cg = compute_currents_grid(float_rep, grid)
    assert cg.mask.any() and not cg.mask.all()
    state = reduced_state(cg, 1.1, 0.8)
    got = reduced_system_residuals(state)
    got = (got.field_eq, got.conservation, got.modulus, got.lhs_cross_check)
    for a, b in zip(got, _frozen_reduced_system_residuals(state)):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_contraction_with_a_constant_grid_equals_a_full_one(float_rep):
    """The contraction relations give the same bits with the constant potential
    as a broadcast view (raised once) and as a writable grid of copies."""
    m, e, A = 1.1, 0.8, (0.3, -0.2, 0.1, 0.25)
    grid, _ = _masked_field()
    const = constant_four_vector_grid(A, grid.extents, grid.spacing)
    assert not const.values.flags.writeable
    full = FieldGrid(grid.extents, grid.spacing, FOUR_VECTOR, np.array(const.values))
    got = divergence_identities(float_rep, grid, const, m, e)
    want = divergence_identities(float_rep, grid, full, m, e)
    for name in ("dJ", "dH", "JA", "HA"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64)), name


def test_field_strength_of_a_complex_potential(float_rep):
    """A complex potential keeps complex stencils; a real one gives the same
    real part."""
    rng = np.random.default_rng(8)
    ext, sp = (5, 4, 1, 6), (0.2, 0.3, 1, 0.25)
    re, im = rng.standard_normal((2,) + ext + (4,))
    f_re = field_strength_from_potential(FieldGrid(ext, sp, FOUR_VECTOR, re)).values
    f_im = field_strength_from_potential(FieldGrid(ext, sp, FOUR_VECTOR, im)).values
    f = field_strength_from_potential(FieldGrid(ext, sp, FOUR_VECTOR, re + 1j * im)).values
    assert not f_re.imag.any() and np.abs(f_re).max() > 1.0
    assert np.allclose(f, f_re + 1j * f_im, rtol=0, atol=1e-13 * np.abs(f).max())


def _loop_field_strength_from_potential(A):
    """The six-pair loop of the potential route before F = G - G^T, kept as the oracle."""
    values = A.values if A.values.imag.any() else A.values.real
    dA = derivatives(values, A.spacing)
    F = np.zeros(A.extents + (4, 4), dtype=values.dtype)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            f = dA[mu][..., nu] - dA[nu][..., mu]
            F[..., mu, nu] = f
            F[..., nu, mu] = -f
    return F


def _loop_field_strength_bilinear(cg, m, e):
    """The complex six-pair loop of the bilinear route, kept as the oracle."""
    mask = singular_mask(cg)
    z = np.where(mask, 1.0, cg.Z)
    dJ = derivatives(cg.J, cg.spacing)
    F = np.zeros(cg.extents + (4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            d_mu_j_nu = dJ[mu][..., nu] + 3.0 * m * 1j * cg.H[..., mu] * cg.J[..., nu] / z
            d_nu_j_mu = dJ[nu][..., mu] + 3.0 * m * 1j * cg.H[..., nu] * cg.J[..., mu] / z
            f = (1.5 * m / e) * (d_mu_j_nu - d_nu_j_mu) / z
            F[..., mu, nu] = f
            F[..., nu, mu] = -f
    F[mask] = 0.0
    return F


@pytest.mark.parametrize("field", ["plane_wave", "random", "masked"])
def test_field_strengths_match_the_loop_oracles(float_rep, field):
    """Both one-pass F routes against the old loops: the potential route equal
    under ==, the real bilinear route within 1e-15 max|F| of the complex one."""
    m, e = 1.1, 0.8
    if field == "plane_wave":
        _, grid = _solution(m, e, A=(0.2, 0.1, -0.2, 0.15), spatial=(0.7, 0.5, 0.4),
                            extents=(6, 5, 4, 3), spacing=(0.05,) * 4, amplitude=0.9 - 0.4j)
    elif field == "random":
        grid, _ = random_fourier_field((9, 8, 7, 6), (0.05, 0.1, 0.12, 0.3), seed=5)
    else:
        grid, _ = _masked_field()
    cg = compute_currents_grid(float_rep, grid)
    assert singular_mask(cg).any() == (field == "masked")
    for A in (invert_potential_gauge_fixed(cg, m, e), invert_potential_full(float_rep, grid, m, e)):
        F = field_strength_from_potential(A).values
        assert F.dtype == np.float64 and np.array_equal(F, _loop_field_strength_from_potential(A))
    F = field_strength_bilinear(cg, m, e).values
    want = _loop_field_strength_bilinear(cg, m, e)
    assert F.dtype == np.float64 and np.abs(want).max() > 0
    assert np.all(np.abs(F - want) <= 1e-15 * np.abs(want).max())


def test_real_fields_stay_real(float_rep):
    """Every real pipeline grid is float64; a complex potential keeps a complex F."""
    grid, _ = _masked_field()
    out, _ = invert_pipeline(float_rep, grid, 1.0, 1.0)
    for name in ("a_full", "a_gauge_fixed", "gauge_term", "f_from_potential", "f_bilinear"):
        assert getattr(out, name).values.dtype == np.float64, name
    A = FieldGrid(grid.extents, grid.spacing, FOUR_VECTOR, out.a_full.values * (1 + 1j))
    assert field_strength_from_potential(A).values.dtype == complex


def _pair_loop_antisymmetrise(G):
    """_antisymmetrise as it was, one (mu, nu) pair at a time, kept as the oracle."""
    for mu in range(4):
        diagonal = G[mu][..., mu]
        np.subtract(diagonal, diagonal, out=diagonal)
        for nu in range(mu + 1, 4):
            upper, lower = G[mu][..., nu], G[nu][..., mu]
            f = upper - lower
            np.subtract(lower, upper, out=lower)
            upper[...] = f


def _gradient_with_ties(dtype):
    """A stacked gradient laid out as F, (3, 4, 5, 7) points, with zeros of
    either sign, pairs G_mu_nu == G_nu_mu bit for bit, and pairs +0.0 / -0.0."""
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 4, 5, 7, 4, 4)).astype(dtype)
    if dtype == complex:
        g += 1j * rng.standard_normal(g.shape)
    flat = g.reshape(-1, 4, 4)
    flat[5:40, 1, 2] = flat[5:40, 2, 1]  # equal pairs
    flat[50:90, 0, 3] = flat[50:90, 3, 0] = -0.0  # equal pairs of -0.0
    flat[100:130, 2, 3], flat[100:130, 3, 2] = -0.0, 0.0  # -0.0 - 0.0 is -0.0
    flat[140:170, 1, 1] = -0.0
    flat[200:260, 0, :] = -0.0
    return g


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("block", [None, 64, 1])
def test_antisymmetrise_equals_the_pair_loop(monkeypatch, dtype, block):
    """The blocked F = G - G^T of an array laid out as F, and the pair loop of
    a list of rows, give the bits of the pair loop; blocks that do not divide
    the 420 points included.  Equal pairs and the diagonal become +0.0."""
    if block is not None:
        monkeypatch.setattr(inversion, "_F_BLOCK", block)
    g = _gradient_with_ties(dtype)
    want = np.moveaxis(g.copy(), -2, 0)
    _pair_loop_antisymmetrise(want)
    as_f = np.moveaxis(g.copy(), -2, 0)  # rows of one C-contiguous (..., 4, 4) buffer
    rows = [np.ascontiguousarray(g[..., mu, :]) for mu in range(4)]
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)
    for G in (as_f, rows):
        inversion._antisymmetrise(G)
        for mu in range(4):
            assert np.array_equal(bits(G[mu]), bits(want[mu])), mu
    f = np.moveaxis(as_f, 0, -2).reshape(-1, 4, 4)
    for zeros in (f[:, range(4), range(4)], f[5:40, 1, 2], f[5:40, 2, 1], f[50:90, 0, 3], f[50:90, 3, 0]):
        assert not bits(zeros).any()  # +0.0
    assert np.signbit(f[100:130, 2, 3].real).all()
