"""Reconstruction of the gauge potential and field strength from currents.

The minimally coupled first-order system can be solved algebraically for
the potential.  Two routes are implemented:

* the full expression

      A_mu = (3m/2e) J_mu / Z
           + (1/2e) [ i(Phi_bar d_mu Phi - d_mu Phi_bar Phi)
                     - i(Phi_bar b^2 d_mu Phi - d_mu Phi_bar b^2 Phi) ] / Z

  which is gauge-faithful: for a solution in a potential A* it returns
  A* itself;

* the pure-bilinear, gauge-fixed expression A_mu = (3m/2e) J_mu / Z,
  whose difference from the full route is the pure-gauge term
  (i/4e)(d_mu Zt / Zt - d_mu Zt* / Zt*) built from the complex scalar
  density Zt.  The decomposition full = gauge_fixed + gauge_term is an
  algebraic identity for any smooth field, not only solutions.

The field strength likewise has two routes: the curl of a potential, and
the bilinear form (3m/2e) (D_mu J_nu - D_nu J_mu) / Z with the deformed
derivative D_mu = d_mu + 3mi H_mu / Z.  On solutions both agree.

Everything divides by Z = S - Sflat, so points with |Z| below the
threshold are masked and excluded from every reported norm.

The derivative bilinears (M = zeta, b^mu, c^mu) are pair products of Phi
and d_mu Phi times columns of the current table, in blocks of points
(:func:`dkp5.bilinears.derivative_bilinears`).

Called alone, each stage computes what it needs.  The pipeline takes
each derivative once and hands it on: one Phi gradient and one
derivative-bilinear pass for the full potential and the contraction
relations, one gradient of J for the bilinear field strength and d.J,
one gradient of Z for the H elimination and the reduced system, and
one singular mask for every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import METRIC_DIAG, KemmerRep
from .bilinears import Z_EPS, CurrentGrid, compute_currents_grid, derivative_bilinears
from .errors import EmptyDomainError, ParameterError, ShapeError, SingularZError
from .grids import FOUR_VECTOR, TENSOR2, FieldGrid, derivatives
from .planewave import _wavefunction_gradient, constant_four_vector_grid
from .reports import entry_from_values

_SIG = np.array(METRIC_DIAG, dtype=float)

#: Weights on the 26 current matrices for derivative_bilinears: zeta = I - b^2
#: in every direction, and the raised b^mu and c^mu for direction mu.
_ZETA_W = np.zeros((4, 26, 1))
_ZETA_W[:, :2, 0] = (1.0, -1.0)
_UPPER_W = np.zeros((4, 26, 2))
_UPPER_W[range(4), range(2, 6), 0] = _UPPER_W[range(4), range(6, 10), 1] = _SIG
#: Both at once, columns (zeta, b^mu, c^mu), for the pipeline's single pass.
_SHARED_W = np.concatenate([_ZETA_W, _UPPER_W], axis=-1)


def singular_mask(cg: CurrentGrid) -> np.ndarray:
    """Boolean grid marking points where |Z| is below the threshold."""
    scale = np.maximum(1.0, np.hypot(cg.S, cg.Sflat))
    return np.abs(cg.Z) < Z_EPS * scale


def _mask(cg, mask):
    return singular_mask(cg) if mask is None else mask


def _check_params(m=None, e=None, divides_by_e=True):
    """The parameters a stage uses: finite, m > 0, and e != 0 if it divides by e."""
    if not all(math.isfinite(v) for v in (m, e) if v is not None):
        raise ParameterError(f"m and e must be finite, got m={m}, e={e}")
    if divides_by_e and e == 0:
        raise ParameterError("coupling e must be nonzero for the inversion")
    if m is not None and m <= 0:
        raise ParameterError(f"mass must be positive, got {m}")


def _masked_z(cg, mask):
    if mask.all():
        raise EmptyDomainError("every grid point is Z-singular")
    return np.where(mask, 1.0, cg.Z)


def _currents(rep, phi_grid, cg):
    return cg if cg is not None else compute_currents_grid(rep, phi_grid)


def _trace(dv):
    """eta^{mu mu} d_mu v_mu from a stacked gradient dv[mu][..., nu]."""
    return sum(METRIC_DIAG[mu] * dv[mu][..., mu] for mu in range(4))


def _divergence(v, spacing):
    """eta^{mu mu} d_mu v_mu from the stencils of the diagonal components only."""
    return sum(METRIC_DIAG[mu] * derivatives(v[..., mu], spacing, (mu,))[0] for mu in range(4))


def invert_potential_gauge_fixed(cg: CurrentGrid, m, e, mask=None) -> FieldGrid:
    """A_mu = (3m/2e) J_mu / Z, the pure-bilinear gauge-fixed route."""
    _check_params(m, e)
    mask = _mask(cg, mask)
    z = _masked_z(cg, mask)
    values = (1.5 * m / e) * cg.J / z[..., None]
    values[mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, FOUR_VECTOR, values)


def invert_potential_full(rep: KemmerRep, phi_grid: FieldGrid, m, e, dphi=None, cg=None,
                          mask=None, d_zeta=None) -> FieldGrid:
    """Gauge-faithful potential from the field and its derivatives.

    ``d_zeta`` (..., 4) is Phi_bar zeta d_mu Phi - d_mu Phi_bar zeta Phi;
    it is computed here when not given.
    """
    _check_params(m, e)
    cg = _currents(rep, phi_grid, cg)
    mask = _mask(cg, mask)
    z = _masked_z(cg, mask)[..., None]
    if d_zeta is None:
        dv = _wavefunction_gradient(phi_grid, dphi)
        d_zeta = derivative_bilinears(rep, phi_grid.values, dv, _ZETA_W)[..., 0]
    values = (1.5 * m / e) * cg.J / z + ((1j * d_zeta) / (2.0 * e * z)).real
    values[mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, FOUR_VECTOR, values)


def gauge_term(rep: KemmerRep, phi_grid: FieldGrid, e, dphi=None, cg=None, mask=None) -> FieldGrid:
    """(i/4e)(d_mu Zt / Zt - d_mu Zt* / Zt*), the pure-gauge part.

    With closed-form derivatives the gradient of the complex density is
    the bilinear 2 Phi_tilde zeta d_mu Phi; with stencils it is the
    numerical derivative of the Zt grid.  |Zt| = |Z|, so the singular
    mask coincides with the inversion mask.
    """
    _check_params(e=e)
    cg = _currents(rep, phi_grid, cg)
    mask = _mask(cg, mask)
    if mask.all():
        raise SingularZError("|Ztilde| is below threshold at every point")
    zt = np.where(mask, 1.0, cg.tilde_Z)[..., None]
    if dphi is not None:
        dv = _wavefunction_gradient(phi_grid, dphi)
        dzt = 2.0 * derivative_bilinears(rep, phi_grid.values, dv, _ZETA_W, tilde=True)[..., 0]
    else:
        dzt = np.moveaxis(derivatives(cg.tilde_Z, cg.spacing), 0, -1)
    values = ((1j / (4.0 * e)) * (dzt / zt - dzt.conj() / zt.conj())).real
    values[mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, FOUR_VECTOR, values)


def field_strength_from_potential(A: FieldGrid) -> FieldGrid:
    """F_mu_nu = d_mu A_nu - d_nu A_mu, antisymmetric by construction.

    A real (float64) potential, as every gauge-fixed one is, takes real
    stencils and gives a real F.
    """
    if A.kind != FOUR_VECTOR:
        raise ShapeError("field strength needs a four-vector potential grid")
    G = np.moveaxis(derivatives(A.values, A.spacing), 0, -2)  # G[..., mu, nu] = d_mu A_nu
    return FieldGrid(A.extents, A.spacing, TENSOR2, G - np.swapaxes(G, -1, -2))


def field_strength_bilinear(cg: CurrentGrid, m, e, mask=None, dJ=None) -> FieldGrid:
    """F_mu_nu = (3m/2e)(D_mu J_nu - D_nu J_mu)/Z with D_mu = d_mu + 3mi H_mu/Z.

    H is imaginary, so 3mi H_mu J_nu = -3m Im(H_mu) J_nu and F is built in
    real arithmetic; each division by Z is a product with 1/Z, as numpy's
    complex division by a real Z takes it.  ``dJ`` is the stacked gradient
    dJ[mu][..., nu] = d_mu J_nu, taken here when not given.
    """
    _check_params(m, e)
    mask = _mask(cg, mask)
    rz = (1.0 / _masked_z(cg, mask))[..., None, None]
    if dJ is None:
        dJ = derivatives(cg.J, cg.spacing)
    G = ((-3.0 * m) * cg.H.imag)[..., :, None] * cg.J[..., None, :]
    G *= rz
    G += np.moveaxis(dJ, 0, -2)  # G[..., mu, nu] = D_mu J_nu
    F = G - np.swapaxes(G, -1, -2)
    F *= 1.5 * m / e
    F *= rz
    F[mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, TENSOR2, F)


@dataclass
class DivergenceResiduals:
    """LHS - RHS of the current divergence and potential-contraction relations."""

    dJ: np.ndarray
    dH: np.ndarray
    JA: np.ndarray
    HA: np.ndarray


def divergence_identities(rep: KemmerRep, phi_grid: FieldGrid, A_grid: FieldGrid, m, e, dphi=None, cg=None,
                          d_bc=None, div_j=None) -> DivergenceResiduals:
    """Diagnostic residuals; they vanish when Phi solves the equation.

    dJ: d_mu J^mu.  dH: d_mu H^mu - (i m/3)(4 Sflat - 10 S).
    JA: e J^mu A_mu - [ (i/2)(Phi_bar b^mu d_mu Phi - d_mu Phi_bar b^mu Phi) - m S ].
    HA: e H^mu A_mu - (i/2)(Phi_bar c^mu d_mu Phi - d_mu Phi_bar c^mu Phi).

    ``d_bc`` (..., 2) holds the two derivative bilinears of JA and HA
    summed over mu, and ``div_j`` is d_mu J^mu; each is computed here when
    not given.
    """
    if phi_grid.extents != A_grid.extents:
        raise ShapeError("field and potential grids must share extents")
    _check_params(m, e, divides_by_e=False)
    cg = _currents(rep, phi_grid, cg)
    contract = lambda v: e * np.einsum("...m,...m->...", v, A_grid.values * _SIG)
    if d_bc is None:
        dv = _wavefunction_gradient(phi_grid, dphi)
        d_bc = derivative_bilinears(rep, phi_grid.values, dv, _UPPER_W).sum(-2)
    return DivergenceResiduals(
        dJ=_divergence(cg.J, cg.spacing) if div_j is None else div_j,
        dH=_divergence(cg.H, cg.spacing) - (1j * m / 3.0) * (4.0 * cg.Sflat - 10.0 * cg.S),
        JA=contract(cg.J) - (-m * cg.S + 0.5j * d_bc[..., 0]),
        HA=contract(cg.H) - 0.5j * d_bc[..., 1],
    )


def h_elimination_residual(cg: CurrentGrid, m, dZ=None) -> FieldGrid:
    """H_mu - (i/3m) d_mu Z; vanishes on solutions.  ``dZ`` is the stacked
    gradient of Z, taken here when not given."""
    _check_params(m=m)
    if dZ is None:
        dZ = derivatives(cg.Z, cg.spacing)
    values = cg.H - (1j / (3.0 * m)) * np.moveaxis(dZ, 0, -1)
    return FieldGrid(cg.extents, cg.spacing, FOUR_VECTOR, values)


@dataclass
class ReducedState:
    """The reduced unknowns: scalar density Z and scaled current Jcal = J/Z."""

    extents: tuple
    spacing: tuple
    Z: np.ndarray
    Jcal: np.ndarray
    m: float
    e: float
    mask: np.ndarray


def reduced_state(cg: CurrentGrid, m, e, mask=None) -> ReducedState:
    _check_params(m, e)
    mask = _mask(cg, mask)
    if mask.all():
        raise SingularZError("Z is singular at every point; no reduced state")
    z = np.where(mask, 1.0, cg.Z)
    jcal = cg.J / z[..., None]
    jcal[mask] = 0.0
    return ReducedState(
        extents=cg.extents, spacing=cg.spacing, Z=cg.Z, Jcal=jcal, m=m, e=e, mask=mask
    )


@dataclass
class ReducedResiduals:
    """Residuals of the reduced nonlinear system in Z and Jcal.

    ``field_eq`` is the wave-operator relation including the
    self-interaction source; it is genuinely nonzero for solutions in a
    fixed external potential (no back-reaction) and is reported as a
    diagnostic.  ``lhs_cross_check`` compares the direct stencil
    evaluation of its left side against the divergence of the field
    strength built from the gauge-fixed potential; the two must agree.
    """

    field_eq: np.ndarray
    conservation: np.ndarray
    modulus: np.ndarray
    lhs_cross_check: np.ndarray


def reduced_system_residuals(state: ReducedState, dZ=None) -> ReducedResiduals:
    """The reduced residuals; ``dZ`` is the stacked gradient of state.Z,
    taken here when not given."""
    ext, sp = state.extents, state.spacing
    d = lambda arr, mu: derivatives(arr, sp, (mu,))[0]
    dJc = derivatives(state.Jcal, sp)
    div = _trace(dJc)
    box_j = sum(METRIC_DIAG[nu] * d(dJc[nu], nu) for nu in range(4))
    del dJc
    grad_div = np.moveaxis(derivatives(div, sp), 0, -1)
    lhs = box_j - grad_div
    z = np.where(state.mask, 1.0, state.Z)
    field_eq = lhs - (2.0 * state.e**2 / state.m) * state.Z[..., None] * state.Jcal

    if dZ is None:
        dZ = derivatives(state.Z, sp)
    conservation = state.Z * div + sum(
        METRIC_DIAG[mu] * state.Jcal[..., mu] * dZ[mu] for mu in range(4)
    )

    box_z = sum(METRIC_DIAG[nu] * d(dZ[nu], nu) for nu in range(4))
    dz_dz = sum(METRIC_DIAG[mu] * dZ[mu] * dZ[mu] for mu in range(4))
    jj = np.einsum("...m,...m->...", state.Jcal, state.Jcal * _SIG)
    modulus = jj - (2.0 / (9.0 * state.m**2)) * (
        box_z / z - dz_dz / (2.0 * z**2)
    ) - 4.0 / 9.0

    # Independent evaluation of the same LHS: A_gf = (3m/2e) Jcal, so
    # eta^{nu nu} d_nu F_nu_mu(A_gf) = (3m/2e) (box - grad div) Jcal_mu.
    a_gf = FieldGrid(ext, sp, FOUR_VECTOR, (1.5 * state.m / state.e) * state.Jcal)
    F = field_strength_from_potential(a_gf).values
    div_f = sum(METRIC_DIAG[nu] * d(F[..., nu, :], nu) for nu in range(4))
    lhs_via_f = (2.0 * state.e / (3.0 * state.m)) * div_f
    cross = lhs - lhs_via_f

    for arr in (field_eq, conservation, modulus, cross):
        arr[state.mask] = 0.0
    return ReducedResiduals(
        field_eq=field_eq,
        conservation=conservation,
        modulus=modulus,
        lhs_cross_check=cross,
    )


def _reference_potential(A_ref):
    a_ref = np.asarray(A_ref, dtype=float)
    if a_ref.shape != (4,):
        raise ShapeError("A_ref must be a constant four-vector")
    if not np.isfinite(a_ref).all():
        raise ParameterError(f"A_ref must be finite, got {a_ref}")
    return a_ref


def solution_checks(rep: KemmerRep, phi_grid: FieldGrid, cg: CurrentGrid, m, e, A_ref, dphi=None,
                    tolerance=1e-10, mask=None, d_bc=None, div_j=None):
    """Checks that hold when Phi solves the equation in the constant potential A_ref.

    Returns (entries, divergence residuals, H-elimination residual,
    reduced residuals): the eight report entries and the residuals
    behind them.  ``mask``, ``d_bc`` and ``div_j`` are passed on to the
    stages; the gradient of Z is taken once for the H elimination and the
    reduced system.
    """
    mask = _mask(cg, mask)
    A_grid = constant_four_vector_grid(_reference_potential(A_ref), phi_grid.extents, phi_grid.spacing)
    div = divergence_identities(rep, phi_grid, A_grid, m, e, dphi=dphi, cg=cg, d_bc=d_bc, div_j=div_j)
    dZ = derivatives(cg.Z, cg.spacing)
    hres = h_elimination_residual(cg, m, dZ=dZ)
    rres = reduced_system_residuals(reduced_state(cg, m, e, mask=mask), dZ=dZ)
    entries = [
        entry_from_values(name, values, mask, tolerance)
        for name, values in (
            ("current_conservation", div.dJ),
            ("companion_divergence", div.dH),
            ("current_potential_contraction", div.JA),
            ("companion_potential_contraction", div.HA),
            ("h_elimination", hres.values),
            ("reduced_conservation", rres.conservation),
            ("reduced_modulus", rres.modulus),
            ("reduced_field_eq_lhs_cross_check", rres.lhs_cross_check),
        )
    ]
    return entries, div, hres, rres


@dataclass
class InversionOutput:
    """Both potential routes, the gauge term, both field-strength routes."""

    a_full: FieldGrid
    a_gauge_fixed: FieldGrid
    gauge_term: FieldGrid
    f_from_potential: FieldGrid
    f_bilinear: FieldGrid
    singular_mask: np.ndarray


def invert_pipeline(rep: KemmerRep, phi_grid: FieldGrid, m, e, dphi=None, A_ref=None, tolerance=1e-10):
    """Run currents -> potentials -> gauge term -> field strengths -> checks.

    Returns (InversionOutput, report entries).  The universal checks
    (decomposition identity, antisymmetry of both F routes) are always
    emitted; solution-conditional checks (gauge faithfulness, vanishing
    field strength, divergence relations, H-elimination, reduced-system
    constraints) are emitted only when a constant reference potential
    ``A_ref`` is supplied, marking the grid as a manufactured solution.
    """
    _check_params(m, e)
    cg = compute_currents_grid(rep, phi_grid)
    mask = singular_mask(cg)
    if mask.all():
        raise EmptyDomainError("every grid point is Z-singular")
    a_ref = None if A_ref is None else _reference_potential(A_ref)

    # One Phi gradient, freed on return, and one derivative-bilinear pass,
    # reduced at once to what the full potential and the contraction
    # relations (solution checks only) use.
    d = derivative_bilinears(rep, phi_grid.values, _wavefunction_gradient(phi_grid, dphi),
                             _ZETA_W if a_ref is None else _SHARED_W)
    d_zeta = d[..., 0].copy()
    d_bc = None if a_ref is None else d[..., 1:].sum(-2)
    del d
    a_full = invert_potential_full(rep, phi_grid, m, e, dphi=dphi, cg=cg, mask=mask, d_zeta=d_zeta)
    del d_zeta
    a_gf = invert_potential_gauge_fixed(cg, m, e, mask=mask)
    g_term = gauge_term(rep, phi_grid, e, dphi=dphi, cg=cg, mask=mask)
    f_pot = field_strength_from_potential(a_gf)
    dJ = derivatives(cg.J, cg.spacing)
    f_bil = field_strength_bilinear(cg, m, e, mask=mask, dJ=dJ)
    div_j = None if a_ref is None else _trace(dJ)
    del dJ
    out = InversionOutput(
        a_full=a_full,
        a_gauge_fixed=a_gf,
        gauge_term=g_term,
        f_from_potential=f_pot,
        f_bilinear=f_bil,
        singular_mask=mask,
    )

    entries = []

    def check(name, values, tol=tolerance):
        entries.append(entry_from_values(name, values, mask, tol))

    scale = 1.0 + float(np.max(np.abs(a_full.values[~mask]))) if (~mask).any() else 1.0
    check("decomposition_full_vs_gauge_fixed_plus_gauge_term",
          a_full.values - a_gf.values - g_term.values, tolerance * scale)
    check("f_antisymmetry_potential_route", f_pot.values + np.swapaxes(f_pot.values, -1, -2))
    check("f_antisymmetry_bilinear_route", f_bil.values + np.swapaxes(f_bil.values, -1, -2))
    if a_ref is not None:
        diff = a_full.values - a_ref
        diff[mask] = 0.0
        check("gauge_faithfulness_a_full", diff, tolerance * (1.0 + float(np.max(np.abs(a_ref)))))
        check("f_from_potential_vanishes", f_pot.values)
        check("f_bilinear_vanishes", f_bil.values)
        check("f_route_agreement", f_bil.values - f_pot.values)
        entries += solution_checks(rep, phi_grid, cg, m, e, a_ref, dphi, tolerance,
                                   mask=mask, d_bc=d_bc, div_j=div_j)[0]

    return out, entries
