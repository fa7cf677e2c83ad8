"""Each domain check of the library raises its own error, with its own
message, on the input that it guards against.  One case per check, so a
check that is deleted fails here rather than letting the input through to
a later, vaguer error or to a wrong result."""

import dataclasses

import numpy as np
import pytest

from dkp5 import (
    FieldGrid,
    PlaneWaveSpec,
    compute_currents,
    constant_four_vector_grid,
    divergence_identities,
    dkp_residual,
    field_strength_from_potential,
    invert_pipeline,
    invert_potential_full,
    random_fourier_field,
    reduce_word,
    representation_from_betas,
    verify_algebra_identities,
)
from dkp5.algebra import basis_rank
from dkp5.errors import ModeError, RepresentationDefectError, ShapeError
from dkp5.grids import FOUR_VECTOR, SCALAR, partial_derivative
from dkp5.words import BasisCombination, combination_product

EXTENTS, SPACING = (4, 3, 1, 1), (0.1,) * 4


@pytest.fixture(scope="module")
def field():
    """A smooth random field on EXTENTS and its closed-form gradient."""
    return random_fourier_field(EXTENTS, SPACING, seed=1)


def test_grid_with_three_axes():
    with pytest.raises(ShapeError, match="grids have exactly four axes"):
        FieldGrid((4, 3, 1), (0.1,) * 3, SCALAR, np.zeros((4, 3, 1)))


def test_grid_of_unknown_kind():
    with pytest.raises(ShapeError, match="unknown payload kind 7"):
        FieldGrid((1, 1, 1, 1), SPACING, 7, np.zeros((1, 1, 1, 1)))


@pytest.mark.parametrize("axis", [-1, 4])
def test_partial_derivative_outside_the_four_axes(field, axis):
    with pytest.raises(ShapeError, match=f"axis {axis} outside 0..3"):
        partial_derivative(field[0], axis)


def test_field_strength_of_a_scalar_grid():
    with pytest.raises(ShapeError, match="field strength needs a four-vector potential grid"):
        field_strength_from_potential(FieldGrid.zeros(EXTENTS, SPACING, SCALAR))


def test_divergence_relations_with_a_potential_of_other_extents(float_rep, field):
    a_grid = constant_four_vector_grid((0.1, 0.0, 0.2, 0.0), (4, 1, 1, 1), SPACING)
    with pytest.raises(ShapeError, match="field and potential grids must share extents"):
        divergence_identities(float_rep, field[0], a_grid, 1.0, 1.0)


@pytest.mark.parametrize("a_ref", [(0.1, 0.2, 0.3), np.zeros((4, 1))])
def test_reference_potential_not_a_four_vector(float_rep, field, a_ref):
    with pytest.raises(ShapeError, match="A_ref must be a constant four-vector"):
        invert_pipeline(float_rep, field[0], 1.0, 1.0, A_ref=a_ref)


def test_plane_wave_with_a_three_vector():
    with pytest.raises(ShapeError, match="p and A are four-vectors"):
        PlaneWaveSpec(p=(1.0, 0.0, 0.0), A=(0.0,) * 4, m=1.0, e=1.0, amplitude=1.0)


def test_gradient_of_three_directions(float_rep, field):
    grid, dphi = field
    with pytest.raises(ShapeError, match="dphi must supply all four derivative grids"):
        invert_potential_full(float_rep, grid, 1.0, 1.0, dphi=dphi[:3])


def test_gradient_of_other_extents(float_rep, field):
    _, dphi = random_fourier_field((4, 1, 1, 1), SPACING, seed=1)
    with pytest.raises(ShapeError, match="derivative grid shape does not match the field"):
        invert_potential_full(float_rep, field[0], 1.0, 1.0, dphi=dphi)


@pytest.mark.parametrize("kinds", [(FOUR_VECTOR, FOUR_VECTOR), (None, SCALAR)])
def test_dkp_residual_of_wrong_kinds(float_rep, field, kinds):
    phi_kind, a_kind = kinds
    phi = field[0] if phi_kind is None else FieldGrid.zeros(EXTENTS, SPACING, phi_kind)
    with pytest.raises(ShapeError, match="need a wavefunction grid and a four-vector potential grid"):
        dkp_residual(float_rep, phi, FieldGrid.zeros(EXTENTS, SPACING, a_kind), 1.0, 1.0)


@pytest.mark.parametrize("phi", [np.zeros(4), np.zeros((2, 6)), 1.0])
def test_wavefunction_of_wrong_shape(float_rep, phi):
    with pytest.raises(ShapeError, match=r"want \(\.\.\., 5\)"):
        compute_currents(float_rep, phi)


@pytest.mark.parametrize("check", [verify_algebra_identities, basis_rank])
def test_representation_of_unknown_mode(exact_rep, check):
    with pytest.raises(ModeError, match="representation has unknown mode 'quad'"):
        check(dataclasses.replace(exact_rep, mode="quad"))


def test_identity_residuals_that_could_leave_int64(exact_rep):
    """Ten times the reference generators: their representation still fits
    int64, but the identity residuals' bound 5^5 t^6 does not.  (At 10^4
    times, the representation itself overflows first.)"""
    rep = representation_from_betas([10 * b for b in exact_rep.integers.beta], "exact")
    with pytest.raises(OverflowError, match=r"int64 identity residuals could reach 5\^5"):
        verify_algebra_identities(rep)


def test_beta_square_that_is_not_the_metric_trace(exact_rep):
    """The basis (I, b, c, b b) keeps rank 25, but b^2 no longer equals
    eta^{mu mu} b_mu b_mu."""
    rep = dataclasses.replace(exact_rep, beta_sq=2 * exact_rep.beta_sq)
    with pytest.raises(RepresentationDefectError, match="b\\^2 is not the metric trace of the products"):
        basis_rank(rep)


@pytest.mark.parametrize("n", [0, 24, 26])
def test_basis_combination_of_wrong_length(n):
    with pytest.raises(ValueError, match=f"expected 25 coefficients, got {n}"):
        BasisCombination([0] * n)


def test_combination_product_in_float_mode():
    floats = BasisCombination([0.0] * 25, "float")
    for left, right in ((reduce_word([0]), floats), (floats, reduce_word([0]))):
        with pytest.raises(ModeError, match="combination products are defined for exact mode"):
            combination_product(left, right)
