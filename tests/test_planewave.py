import numpy as np
import pytest

from dkp5 import (
    PlaneWaveSpec,
    compute_currents_grid,
    constant_four_vector_grid,
    dkp_residual,
    manufacture_plane_wave,
    on_shell_momentum,
    plane_wave_gradient,
    random_fourier_field,
)
from dkp5.errors import MassShellError, ParameterError, ShapeError
from dkp5.grids import derivatives


def _rest_spec(m=1.0, e=1.0, amplitude=1.0):
    return PlaneWaveSpec(p=(m, 0, 0, 0), A=(0, 0, 0, 0), m=m, e=e, amplitude=amplitude)


def test_rest_frame_amplitude_and_currents(float_rep):
    grid = manufacture_plane_wave(_rest_spec(), (8, 1, 1, 1), (0.1, 1, 1, 1))
    # amplitude (1,0,0,0,1) modulated by the phase
    assert np.allclose(np.abs(grid.values[..., 0]), 1.0)
    assert np.allclose(grid.values[..., 1:4], 0.0)
    assert np.allclose(grid.values[0, 0, 0, 0], [1, 0, 0, 0, 1])
    cg = compute_currents_grid(float_rep, grid)
    assert np.allclose(cg.S, 2.0) and np.allclose(cg.Sflat, 5.0)
    assert np.allclose(cg.Z, -3.0)
    assert np.allclose(cg.J[..., 0], 2.0) and np.allclose(cg.J[..., 1:], 0.0)
    assert np.allclose(cg.H, 0.0)


def test_zero_amplitude_gives_zero_field():
    grid = manufacture_plane_wave(_rest_spec(amplitude=0.0), (4, 1, 1, 1), (0.1, 1, 1, 1))
    assert np.array_equal(grid.values, np.zeros_like(grid.values))


def test_off_shell_rejected():
    spec = PlaneWaveSpec(p=(1.5, 0, 0, 0), A=(0, 0, 0, 0), m=1.0, e=1.0, amplitude=1.0)
    with pytest.raises(MassShellError) as exc:
        manufacture_plane_wave(spec, (4, 1, 1, 1), (0.1, 1, 1, 1))
    assert exc.value.violation == pytest.approx(1.25)


def test_nonpositive_mass_rejected():
    spec = PlaneWaveSpec(p=(0, 0, 0, 0), A=(0, 0, 0, 0), m=-1.0, e=1.0, amplitude=1.0)
    with pytest.raises(ParameterError):
        manufacture_plane_wave(spec, (4, 1, 1, 1), (0.1, 1, 1, 1))


def test_on_shell_momentum_helper():
    m, e = 1.3, 0.8
    A = (0.5, -0.2, 0.1, 0.0)
    p = on_shell_momentum((0.4, -0.3, 0.2), m, e, A)
    spec = PlaneWaveSpec(p=p, A=A, m=m, e=e, amplitude=1.0)
    assert spec.mass_shell_violation() < 1e-12


def test_residual_zero_with_analytic_derivatives(float_rep):
    m, e = 1.0, 0.6
    A = (0.4, 0.0, 0.0, 0.0)
    p = on_shell_momentum((0.5, 0.0, 0.0), m, e, A)
    spec = PlaneWaveSpec(p=p, A=A, m=m, e=e, amplitude=0.7 - 0.2j)
    grid = manufacture_plane_wave(spec, (6, 8, 1, 1), (0.2, 0.15, 1, 1))
    A_grid = constant_four_vector_grid(A, grid.extents, grid.spacing)
    dphi = plane_wave_gradient(spec, grid)
    res = dkp_residual(float_rep, grid, A_grid, m, e, dphi=dphi)
    assert np.max(np.abs(res.primary.values)) < 1e-13
    assert np.max(np.abs(res.conjugate.values)) < 1e-13


def test_conjugate_equals_eta_transform(float_rep):
    # holds for any field and any derivative mode, solution or not
    grid, dphi = random_fourier_field((5, 4, 1, 1), (0.3, 0.3, 1, 1), seed=9)
    A_grid = constant_four_vector_grid((0.2, 0.1, 0, 0), grid.extents, grid.spacing)
    for dv in (None, dphi):
        res = dkp_residual(float_rep, grid, A_grid, 1.0, 1.0, dphi=dv)
        want = -np.einsum("...a,ab->...b", res.primary.values.conj(), float_rep.eta)
        assert np.max(np.abs(res.conjugate.values - want)) < 1e-12


def test_residual_fd_second_order(float_rep):
    m, e = 1.0, 1.0
    A = (0.3, 0.25, 0.0, 0.0)
    k1 = -e * A[1]
    k0 = np.sqrt(m**2 + k1**2)
    p = (k0 + e * A[0], 0.0, 0.0, 0.0)  # time-only variation

    def max_res(n, h):
        spec = PlaneWaveSpec(p=p, A=A, m=m, e=e, amplitude=1.0)
        grid = manufacture_plane_wave(spec, (n, 1, 1, 1), (h, 1, 1, 1))
        A_grid = constant_four_vector_grid(A, grid.extents, grid.spacing)
        res = dkp_residual(float_rep, grid, A_grid, m, e)
        return np.max(np.abs(res.primary.values))

    e1 = max_res(8, 0.25)
    e2 = max_res(15, 0.125)
    assert 3.5 <= e1 / e2 <= 4.5


def test_perturbed_potential_residual_linear(float_rep):
    m, e = 1.0, 1.0
    spec = _rest_spec(m, e)
    grid = manufacture_plane_wave(spec, (6, 1, 1, 1), (0.1, 1, 1, 1))
    dphi = plane_wave_gradient(spec, grid)
    delta = 0.1
    A_grid = constant_four_vector_grid((delta, 0, 0, 0), grid.extents, grid.spacing)
    res = dkp_residual(float_rep, grid, A_grid, m, e, dphi=dphi)
    b0_phi = np.einsum("ab,...b->...a", np.asarray(float_rep.beta_upper(0)), grid.values)
    want = e * delta * np.abs(b0_phi)
    assert np.allclose(np.abs(res.primary.values), want, atol=1e-13)
    assert np.max(np.abs(res.primary.values)) > 0.05


def test_shape_mismatch_rejected(float_rep):
    grid = manufacture_plane_wave(_rest_spec(), (4, 1, 1, 1), (0.1, 1, 1, 1))
    A_bad = constant_four_vector_grid((0, 0, 0, 0), (5, 1, 1, 1), (0.1, 1, 1, 1))
    with pytest.raises(ShapeError):
        dkp_residual(float_rep, grid, A_bad, 1.0, 1.0)


def test_random_fourier_field_gradient_consistent():
    # mode wave numbers stay below 0.6/h, so the central stencil agrees
    # with the analytic gradient to ~(qh)^2/6 ~ 6% of the scale
    grid, dphi = random_fourier_field((12, 1, 1, 1), (0.05, 1, 1, 1), seed=4)
    fd = derivatives(grid.values, grid.spacing)
    err = np.max(np.abs(fd[0][2:-2] - dphi[0].values[2:-2]))
    scale = np.max(np.abs(dphi[0].values)) + 1e-30
    assert err / scale < 0.1
    # symmetry axes carry no variation at all
    assert np.max(np.abs(dphi[2].values)) == 0.0


def test_plane_wave_gradient_is_made_per_direction_and_reiterable():
    """The closed-form gradient is a sequence of four grids -i p_mu Phi, made
    when indexed or iterated, with the same values on every pass."""
    m, e, A = 1.0, 0.6, (0.4, 0.1, 0.0, -0.2)
    p = on_shell_momentum((0.5, -0.3, 0.2), m, e, A)
    spec = PlaneWaveSpec(p=p, A=A, m=m, e=e, amplitude=0.7 - 0.2j)
    grid = manufacture_plane_wave(spec, (4, 3, 5, 2), (0.2, 0.15, 0.1, 0.3))
    dphi = plane_wave_gradient(spec, grid)
    assert len(dphi) == 4
    want = [-1j * spec.p[mu] * grid.values for mu in range(4)]
    for _ in range(2):
        got = [g.values for g in dphi]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(dphi[2].values, want[2])
    assert dphi[1] is not dphi[1]  # made on each access, never kept
