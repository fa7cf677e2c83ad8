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
threshold are masked and excluded from every reported norm.  The mask is
computed with the currents (``CurrentGrid.mask``); every stage reads it.

The stages read only the currents of :func:`dkp5.bilinears.lattice_currents`:
S, Sflat, J, H (and so Z) and Z-tilde, 12 of the 52 table columns; the
tensor current K is eliminated, as in the paper.  The derivative
bilinears (M = zeta, b^mu, c^mu) are pair products of Phi and d_mu Phi,
taken one direction mu at a time, times a real table built from the
current table that ``verify-algebra`` checks (``rep.integers.table``, its
c_mu columns times 1/3).  Only the pair parts with a nonzero coefficient
are formed: 3 of the 25 pairs per direction on the reference
representation (:func:`dkp5.bilinears._derivative_blocks`), which read
2 of the 5 components of d_mu Phi; only those are stencilled.

Every derivative bilinear comes from one pass,
:func:`_shared_derivative_bilinears`, which takes each direction of the
Phi gradient in turn and makes one kernel call per sector (Hermitian,
tilde) and direction.  Called alone, each stage computes what it needs
and asks the pass for its one output.  The pipeline hands a stage only
the currents and its columns of one pass: d_zeta to the full potential,
d_bc to the contraction relations and, with closed-form derivatives,
d_tilde to the gauge term.  Each stage takes its own stencils of the
currents (the gradient of J, d.J, the gradient of Z), so no stencil is
held from one stage to the next.  The pass is the last reader of Phi
and its gradient, which the pipeline drops right after it, so a caller
that hands them over without keeping a reference (as ``dkp invert``
does) has the input grid freed before the later stages run.

The solution checks (divergence and contraction relations, H
elimination, reduced system) are one stream, :func:`_solution_residuals`,
made a residual at a time.  Its release rule: a stage that makes several
residuals at once hands each on by taking it out of the stage's result,
so the stream holds no residual after handing it on, and a reader that
drops each one before asking for the next holds one at a time.  The
stream has one reader, :func:`_solution_entries`, which reduces each
residual to its report entry before the next is made.  Both the pipeline and
:func:`solution_report`, the checks of ``dkp residuals``, read the stream
through it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .algebra import METRIC_DIAG, KemmerRep
from .bilinears import CurrentGrid, _derivative_blocks, lattice_currents
from .errors import EmptyDomainError, ParameterError, ShapeError
from .grids import FOUR_VECTOR, TENSOR2, FieldGrid, derivatives, max_abs, norms
from .planewave import _gradient_columns, constant_four_vector_grid
from .reports import _entry, _entry_from_temporary, entry_from_values

_SIG = np.array(METRIC_DIAG, dtype=float)

#: Points per block of the antisymmetrisation F = G - G^T, whose scratch
#: block of 16 entries a point stays in cache.
_F_BLOCK = 1024

#: Weights on the 26 current matrices for the derivative bilinears: zeta = I - b^2
#: in every direction, and the raised b^mu and c^mu for direction mu.
_ZETA_W = np.zeros((4, 26, 1))
_ZETA_W[:, :2, 0] = (1.0, -1.0)
_UPPER_W = np.zeros((4, 26, 2))
_UPPER_W[range(4), range(2, 6), 0] = _UPPER_W[range(4), range(6, 10), 1] = _SIG


def _check_params(m=None, e=None, divides_by_e=True):
    """The parameters a stage uses: finite, m > 0, and e != 0 if it divides by e."""
    if not all(math.isfinite(v) for v in (m, e) if v is not None):
        raise ParameterError(f"m and e must be finite, got m={m}, e={e}")
    if divides_by_e and e == 0:
        raise ParameterError("coupling e must be nonzero for the inversion")
    if m is not None and m <= 0:
        raise ParameterError(f"mass must be positive, got {m}")


def _domain_mask(cg):
    """cg.mask; EmptyDomainError when it covers every point."""
    if cg.mask.all():
        raise EmptyDomainError("every grid point is Z-singular")
    return cg.mask


def _masked_z(cg):
    return np.where(_domain_mask(cg), 1.0, cg.Z)


def _currents(rep, phi_grid, cg):
    return cg if cg is not None else lattice_currents(rep, phi_grid)


def _shared_derivative_bilinears(rep, phi_grid, dphi, zeta=True, bc=False, tilde=False):
    """The one derivative-bilinear pass of every stage, the last reader of Phi
    and its gradient: (d_zeta, d_bc, d_tilde), each None unless asked for.
    d_zeta (..., 4) is the zeta column of each direction; d_bc (..., 2)
    holds the b and c columns added over mu in mu order (the bits of
    .sum(-2)); d_tilde (..., 4) is the gauge term's Phi_tilde zeta d_mu Phi.
    Each column is written straight into its buffer, the Hermitian ones
    by one kernel call a direction, and each direction takes only the
    components of d_mu Phi that its tables read."""
    n, tables = phi_grid.n_points, []
    d_zeta, d_bc, d_tilde = (np.zeros((n, width), dtype=complex) if asked else None
                             for asked, width in ((zeta, 4), (bc, 2), (tilde, 4)))
    per_direction = lambda a: [list(a.view(float)[:, 2 * mu : 2 * mu + 2].T) for mu in range(4)]
    if zeta:
        tables.append((_ZETA_W, False, per_direction(d_zeta)))
    if bc:  # every direction adds to the same b and c columns
        tables.append((_UPPER_W, False, [list(d_bc.view(float).T)] * 4))
    if tilde:
        tables.append((_ZETA_W, True, per_direction(d_tilde)))
    _derivative_blocks(rep, phi_grid.values, _gradient_columns(phi_grid, dphi), tables)
    grid = lambda a: None if a is None else a.reshape(phi_grid.extents + a.shape[1:])
    return grid(d_zeta), grid(d_bc), grid(d_tilde)


def _gradient(v, spacing):
    """The stacked gradient dv[mu][..., nu] = d_mu v_nu of a four-vector grid,
    as ``derivatives(v, spacing)`` gives it, but laid out as F: dv[mu] is
    row mu of a C-contiguous (..., 4, 4) buffer, np.moveaxis(dv, 0, -2).
    Each direction's stencils are taken in turn."""
    rows = np.empty(v.shape + (4,), dtype=np.result_type(v, 1.0))
    for mu in range(4):
        rows[..., mu, :] = derivatives(v, spacing, (mu,))[0]
    return np.moveaxis(rows, -2, 0)


def _antisymmetrise(G):
    """Write F = G - G^T over a stacked gradient G[mu][..., nu] = d_mu v_nu,
    so that G[mu] becomes row mu of F; each entry takes the one subtraction
    G_mu_nu - G_nu_mu, and the diagonal becomes +0.0.

    An array laid out as F, as :func:`_gradient` gives it, takes one
    subtraction G - G^T per block of ``_F_BLOCK`` points into a scratch
    block, which is copied back.  A list of the four rows, each its own
    contiguous array, is taken one (mu, nu) pair at a time, which on such
    rows is faster than gathering them into blocks."""
    if isinstance(G, np.ndarray):
        F = np.moveaxis(G, 0, -2).reshape(-1, 4, 4)  # a view: the buffer is C-contiguous
        scratch = np.empty((min(len(F), _F_BLOCK), 4, 4), dtype=F.dtype)
        for s in range(0, len(F), _F_BLOCK):
            block = F[s : s + _F_BLOCK]
            f = scratch[: len(block)]
            np.subtract(block, block.swapaxes(-1, -2), out=f)
            block[...] = f
        return
    for mu in range(4):
        diagonal = G[mu][..., mu]
        np.subtract(diagonal, diagonal, out=diagonal)
        for nu in range(mu + 1, 4):
            upper, lower = G[mu][..., nu], G[nu][..., mu]
            f = upper - lower
            np.subtract(lower, upper, out=lower)
            upper[...] = f


def _eta_add(total, t, mu):
    """total + eta^{mu mu} t, as sum() adds it (total is 0 before the first
    term), written over t, which the caller gives up."""
    t *= METRIC_DIAG[mu]
    return np.add(total, t, out=t)


def _raised(a):
    """eta^{mu mu} a_mu over the last axis.  The grid axes along which ``a``
    is a broadcast (stride 0, as a constant potential is) stay a broadcast,
    so a constant is raised once, not per point."""
    core = a[tuple(slice(None) if s else slice(1) for s in a.strides[:-1])]
    return np.broadcast_to(core * _SIG, a.shape)


def _divergence(v, spacing):
    """eta^{mu mu} d_mu v_mu from the stencils of the diagonal components only."""
    return sum(METRIC_DIAG[mu] * derivatives(v[..., mu], spacing, (mu,))[0] for mu in range(4))


def invert_potential_gauge_fixed(cg: CurrentGrid, m, e) -> FieldGrid:
    """A_mu = (3m/2e) J_mu / Z, the pure-bilinear gauge-fixed route."""
    _check_params(m, e)
    values = (1.5 * m / e) * cg.J
    values /= _masked_z(cg)[..., None]
    values[cg.mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, FOUR_VECTOR, values)


def invert_potential_full(rep: KemmerRep, phi_grid: FieldGrid, m, e, dphi=None, cg=None,
                          d_zeta=None) -> FieldGrid:
    """Gauge-faithful potential from the field and its derivatives.

    ``d_zeta`` (..., 4) is Phi_bar zeta d_mu Phi - d_mu Phi_bar zeta Phi;
    it is computed here when not given.
    """
    _check_params(m, e)
    cg = _currents(rep, phi_grid, cg)
    z = _masked_z(cg)[..., None]
    if d_zeta is None:
        d_zeta = _shared_derivative_bilinears(rep, phi_grid, dphi)[0]
    values = (1.5 * m / e) * cg.J
    values /= z
    zeta_term = 1j * d_zeta
    zeta_term /= 2.0 * e * z
    values += zeta_term.real
    values[cg.mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, FOUR_VECTOR, values)


def gauge_term(rep: KemmerRep, phi_grid: FieldGrid, e, dphi=None, cg=None, d_tilde=None) -> FieldGrid:
    """(i/4e)(d_mu Zt / Zt - d_mu Zt* / Zt*), the pure-gauge part.

    With closed-form derivatives the gradient of the complex density is
    the bilinear 2 Phi_tilde zeta d_mu Phi; with stencils it is the
    numerical derivative of the Zt grid.  |Zt| = |Z|, so the singular
    mask coincides with the inversion mask.  Each direction mu is formed in
    its own d_mu Zt buffer and written to the real output.  ``d_tilde``
    (..., 4) is Phi_tilde zeta d_mu Phi; given, it takes the closed-form
    route without Phi, else with ``dphi`` it is computed here.
    """
    _check_params(e=e)
    cg = _currents(rep, phi_grid, cg)
    _domain_mask(cg)
    if d_tilde is None and dphi is not None:
        d_tilde = _shared_derivative_bilinears(rep, phi_grid, dphi, zeta=False, tilde=True)[2]
    zt = np.where(cg.mask, 1.0, cg.tilde_Z)
    zt_conj = zt.conj()
    values = np.empty(cg.extents + (4,))
    for mu in range(4):
        dz = derivatives(cg.tilde_Z, cg.spacing, (mu,))[0] if d_tilde is None else 2.0 * d_tilde[..., mu]
        q = dz / zt
        dz = np.conjugate(dz, out=dz)
        dz /= zt_conj
        q -= dz
        q *= 1j / (4.0 * e)
        values[..., mu] = q.real
    values[cg.mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, FOUR_VECTOR, values)


def field_strength_from_potential(A: FieldGrid) -> FieldGrid:
    """F_mu_nu = d_mu A_nu - d_nu A_mu, antisymmetric by construction.

    A real (float64) potential, as every gauge-fixed one is, takes real
    stencils and gives a real F.  The gradient G[..., mu, nu] = d_mu A_nu
    is taken one direction at a time into F's buffer and antisymmetrised
    there.
    """
    if A.kind != FOUR_VECTOR:
        raise ShapeError("field strength needs a four-vector potential grid")
    G = _gradient(A.values, A.spacing)
    _antisymmetrise(G)
    return FieldGrid(A.extents, A.spacing, TENSOR2, np.moveaxis(G, 0, -2))


def field_strength_bilinear(cg: CurrentGrid, m, e) -> FieldGrid:
    """F_mu_nu = (3m/2e)(D_mu J_nu - D_nu J_mu)/Z with D_mu = d_mu + 3mi H_mu/Z.

    H is imaginary, so 3mi H_mu J_nu = -3m Im(H_mu) J_nu and F is built in
    real arithmetic; each division by Z is a product with 1/Z, as numpy's
    complex division by a real Z takes it.  The gradient d_mu J_nu is taken
    into F's buffer (:func:`_gradient`), G[mu][..., nu] = D_mu J_nu is built
    there and antisymmetrised a block of points at a time.
    """
    _check_params(m, e)
    rz = (1.0 / _masked_z(cg))[..., None]
    G = _gradient(cg.J, cg.spacing)
    for mu in range(4):
        hj = ((-3.0 * m) * cg.H[..., mu].imag)[..., None] * cg.J
        hj *= rz
        G[mu] += hj  # G[mu][..., nu] = D_mu J_nu
    _antisymmetrise(G)
    F = np.moveaxis(G, 0, -2)
    F *= 1.5 * m / e
    F *= rz[..., None]
    F[cg.mask] = 0.0
    return FieldGrid(cg.extents, cg.spacing, TENSOR2, F)


@dataclass
class DivergenceResiduals:
    """LHS - RHS of the current divergence and potential-contraction relations."""

    dJ: np.ndarray
    dH: np.ndarray
    JA: np.ndarray
    HA: np.ndarray


def divergence_identities(rep: KemmerRep, phi_grid: FieldGrid, A_grid: FieldGrid, m, e, dphi=None, cg=None,
                          d_bc=None) -> DivergenceResiduals:
    """Diagnostic residuals; they vanish when Phi solves the equation.

    dJ: d_mu J^mu.  dH: d_mu H^mu - (i m/3)(4 Sflat - 10 S).
    JA: e J^mu A_mu - [ (i/2)(Phi_bar b^mu d_mu Phi - d_mu Phi_bar b^mu Phi) - m S ].
    HA: e H^mu A_mu - (i/2)(Phi_bar c^mu d_mu Phi - d_mu Phi_bar c^mu Phi).

    ``d_bc`` (..., 2) holds the two derivative bilinears of JA and HA
    summed over mu, computed here when not given.
    """
    if (phi_grid if cg is None else cg).extents != A_grid.extents:
        raise ShapeError("field and potential grids must share extents")
    _check_params(m, e, divides_by_e=False)
    cg = _currents(rep, phi_grid, cg)
    a_up = _raised(A_grid.values)
    # e v.A summed in mu order from 0, as the complex einsum of a complex A
    # summed it, so the bits stay; a float einsum sums in another order and
    # returns inf where it overflows, where * and + raise.
    contract = lambda v: e * sum(v[..., mu] * a_up[..., mu] for mu in range(4))
    if d_bc is None:
        d_bc = _shared_derivative_bilinears(rep, phi_grid, dphi, zeta=False, bc=True)[1]
    return DivergenceResiduals(
        dJ=_divergence(cg.J, cg.spacing),
        dH=_divergence(cg.H, cg.spacing) - (1j * m / 3.0) * (4.0 * cg.Sflat - 10.0 * cg.S),
        JA=contract(cg.J) - (-m * cg.S + 0.5j * d_bc[..., 0]),
        HA=contract(cg.H) - 0.5j * d_bc[..., 1],
    )


def h_elimination_residual(cg: CurrentGrid, m) -> FieldGrid:
    """H_mu - (i/3m) d_mu Z; vanishes on solutions."""
    _check_params(m=m)
    dZ = derivatives(cg.Z, cg.spacing)
    values = np.multiply(1j / (3.0 * m), np.moveaxis(dZ, 0, -1), out=np.empty_like(cg.H))
    np.subtract(cg.H, values, out=values)
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


def reduced_state(cg: CurrentGrid, m, e) -> ReducedState:
    _check_params(m, e)
    jcal = cg.J / _masked_z(cg)[..., None]
    jcal[cg.mask] = 0.0
    return ReducedState(
        extents=cg.extents, spacing=cg.spacing, Z=cg.Z, Jcal=jcal, m=m, e=e, mask=cg.mask
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


def reduced_system_residuals(state: ReducedState) -> ReducedResiduals:
    """The reduced residuals.  Each intermediate grid is written over the
    one it is made from, or dropped after its last reader; only the
    cross-check holds a whole 4x4 gradient, and it frees a row at a time."""
    sp = state.spacing
    d = lambda arr, mu: derivatives(arr, sp, (mu,))[0]

    # Independent evaluation of the field equation's LHS: A_gf = (3m/2e) Jcal,
    # so eta^{nu nu} d_nu F_nu_mu(A_gf) = (3m/2e) (box - grad div) Jcal_mu,
    # with F = G - G^T built over the rows G[nu][..., mu] = d_nu A_gf_mu of
    # the gradient of A_gf; each row F[..., nu, :] = G[nu] is freed after its
    # derivative is taken.
    a_gf = (1.5 * state.m / state.e) * state.Jcal
    G = [d(a_gf, mu) for mu in range(4)]
    del a_gf
    _antisymmetrise(G)
    lhs_via_f = 0
    for nu in range(4):
        lhs_via_f = _eta_add(lhs_via_f, d(G[nu], nu), nu)
        G[nu] = None
    lhs_via_f *= 2.0 * state.e / (3.0 * state.m)

    div = box_j = 0  # div Jcal and box Jcal, one direction of the gradient at a time
    for nu in range(4):
        dj = d(state.Jcal, nu)
        div = div + METRIC_DIAG[nu] * dj[..., nu]
        box_j = _eta_add(box_j, d(dj, nu), nu)
        del dj
    lhs = box_j
    lhs -= np.moveaxis(derivatives(div, sp), 0, -1)  # box Jcal - grad div Jcal
    cross = np.subtract(lhs, lhs_via_f, out=lhs_via_f)
    field_eq = lhs
    field_eq -= (2.0 * state.e**2 / state.m) * state.Z[..., None] * state.Jcal
    del lhs

    dZ = derivatives(state.Z, sp)
    conservation = state.Z * div + sum(
        METRIC_DIAG[mu] * state.Jcal[..., mu] * dZ[mu] for mu in range(4)
    )
    del div

    z = np.where(state.mask, 1.0, state.Z)
    box_z = sum(METRIC_DIAG[nu] * d(dZ[nu], nu) for nu in range(4))
    dz_dz = sum(METRIC_DIAG[mu] * dZ[mu] * dZ[mu] for mu in range(4))
    jj = np.einsum("...m,...m->...", state.Jcal, state.Jcal * _SIG)
    modulus = jj - (2.0 / (9.0 * state.m**2)) * (
        box_z / z - dz_dz / (2.0 * z**2)
    ) - 4.0 / 9.0

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


#: Name of the reduced field equation's residual, a diagnostic and not a check.
_FIELD_EQ = "reduced_field_eq"


def _solution_residuals(rep, phi_grid, cg, m, e, A_ref, dphi=None, d_bc=None):
    """(name, values) of each solution-check residual in report order, then
    (_FIELD_EQ, values): the reduced field equation, a diagnostic that
    :func:`solution_report` reports apart and the pipeline skips.

    Each residual is made when the caller asks for it and is not held here
    after it is handed on, so a caller that reduces each one before asking
    for the next holds one at a time.  ``phi_grid`` and ``dphi`` are not
    held after the divergence relations, nor ``cg`` after the reduced
    state is made; ``phi_grid`` may be None when ``d_bc`` is given.
    ``d_bc`` is passed on to the divergence relations; each stage takes its
    own stencils of the currents.
    """
    _domain_mask(cg)
    A_grid = constant_four_vector_grid(_reference_potential(A_ref), cg.extents, cg.spacing)
    div = vars(divergence_identities(rep, phi_grid, A_grid, m, e, dphi=dphi, cg=cg, d_bc=d_bc))
    del phi_grid, dphi, d_bc  # the divergence relations are their last reader
    for name, field in (("current_conservation", "dJ"), ("companion_divergence", "dH"),
                        ("current_potential_contraction", "JA"), ("companion_potential_contraction", "HA")):
        yield name, div.pop(field)
    yield "h_elimination", h_elimination_residual(cg, m).values
    state = reduced_state(cg, m, e)
    del cg  # the currents are freed here unless the caller holds them too
    rres = vars(reduced_system_residuals(state))
    del state
    for name, field in (("reduced_conservation", "conservation"), ("reduced_modulus", "modulus"),
                        ("reduced_field_eq_lhs_cross_check", "lhs_cross_check"), (_FIELD_EQ, "field_eq")):
        yield name, rres.pop(field)


def _solution_entries(residuals, mask, tolerance, keep=()):
    """The one reader of the solution-check stream ``residuals``
    (:func:`_solution_residuals`): (entries, kept), the report entry of each
    check in report order and {name: values} of the residuals named in
    ``keep``.  The reduced field equation is a diagnostic and has no entry.
    Each residual is reduced as it is made and, unless kept, is not held
    while the next one is made."""
    entries, kept = [], {}
    for name, values in residuals:
        if name != _FIELD_EQ:
            entries.append(entry_from_values(name, values, mask, tolerance))
        if name in keep:
            kept[name] = values
        del values
    return entries, kept


def solution_report(rep: KemmerRep, phi_grid: FieldGrid, m, e, A_ref, dphi=None, tolerance=1e-10, keep=()):
    """The solution checks of a field alone, as `dkp residuals` reports them:
    (entries, (max_abs, rms) of the reduced field equation, the singular
    mask, {name: values} of the residuals named in ``keep``).

    The currents, ``phi_grid`` and ``dphi`` are held only by the stream, so
    a caller that hands the grid over without keeping a reference has it
    freed after the divergence relations, and the currents once the
    reduced state is made.  The stream asks the derivative pass for d_bc
    alone; each stage stencils the currents it reads itself.
    """
    cg = lattice_currents(rep, phi_grid)
    mask = cg.mask
    residuals = _solution_residuals(rep, phi_grid, cg, m, e, A_ref, dphi)
    del phi_grid, dphi, cg
    entries, kept = _solution_entries(residuals, mask, tolerance, (*keep, _FIELD_EQ))
    field_eq = norms(kept[_FIELD_EQ], mask)
    if _FIELD_EQ not in keep:
        del kept[_FIELD_EQ]
    return entries, field_eq, mask, kept


@dataclass
class InversionOutput:
    """Both potential routes, the gauge term, both field-strength routes."""

    a_full: FieldGrid
    a_gauge_fixed: FieldGrid
    gauge_term: FieldGrid
    f_from_potential: FieldGrid
    f_bilinear: FieldGrid
    singular_mask: np.ndarray


def _pipeline_checks(out, a_ref, tolerance):
    """The universal entries of the pipeline's grids, then with ``a_ref`` the
    solution entries on them, in report order.  Each real temporary (the
    decomposition, the route difference) is made, reduced in its own buffer
    and dropped before the next.  Both routes build F_nu_mu as the exact
    negative of F_mu_nu, so F + F^T is made only where F is not finite,
    where it reads inf or nan."""
    mask = out.singular_mask
    a_full, a_gf, g_term = out.a_full.values, out.a_gauge_fixed.values, out.gauge_term.values
    f_pot, f_bil = out.f_from_potential.values, out.f_bilinear.values
    entries = []

    def check(name, values, tol=tolerance):
        entries.append(entry_from_values(name, values, mask, tol))

    def check_temporary(name, values, tol=tolerance):
        entries.append(_entry_from_temporary(name, values, mask, tol))

    scale = 1.0 + max_abs(a_full, mask)
    decomposition = a_full - a_gf
    decomposition -= g_term
    check_temporary("decomposition_full_vs_gauge_fixed_plus_gauge_term", decomposition, tolerance * scale)
    del decomposition
    for name, f in (("f_antisymmetry_potential_route", f_pot), ("f_antisymmetry_bilinear_route", f_bil)):
        if np.isfinite(f).all():  # F_nu_mu is the exact negative of F_mu_nu: F + F^T is 0.0
            entries.append(_entry(name, (0.0, 0.0), mask, tolerance))
        else:
            check_temporary(name, f + np.swapaxes(f, -1, -2))
    if a_ref is not None:
        diff = a_full - a_ref
        diff[mask] = 0.0
        check_temporary("gauge_faithfulness_a_full", diff, tolerance * (1.0 + float(np.max(np.abs(a_ref)))))
        del diff
        check("f_from_potential_vanishes", f_pot)
        check("f_bilinear_vanishes", f_bil)
        check_temporary("f_route_agreement", f_bil - f_pot)
    return entries


def invert_pipeline(rep: KemmerRep, phi_grid: FieldGrid, m, e, dphi=None, A_ref=None, tolerance=1e-10):
    """Run currents -> potentials -> gauge term -> bilinear F -> solution
    checks -> potential F, each grid dropped after its last reader and each
    stage written into the buffer it keeps or returns.

    Returns (InversionOutput, report entries).  The universal checks
    (decomposition identity, antisymmetry of both F routes) are always
    emitted; solution-conditional checks (gauge faithfulness, vanishing
    field strength, divergence relations, H-elimination, reduced-system
    constraints) are emitted only when a constant reference potential
    ``A_ref`` is supplied, marking the grid as a manufactured solution.
    """
    _check_params(m, e)
    cg = lattice_currents(rep, phi_grid)
    mask = _domain_mask(cg)
    a_ref = None if A_ref is None else _reference_potential(A_ref)

    # One derivative-bilinear pass, which takes the Phi gradient one
    # direction at a time, reduced as it is made to what the full potential,
    # the contraction relations (solution checks only) and the closed-form
    # gauge term use.  It is the last reader of Phi and its gradient: the
    # stages after it take extents and spacing from the currents.
    d_zeta, d_bc, d_tilde = _shared_derivative_bilinears(rep, phi_grid, dphi, bc=a_ref is not None,
                                                         tilde=dphi is not None)
    del phi_grid, dphi  # freed here unless the caller holds them too
    a_full = invert_potential_full(rep, None, m, e, cg=cg, d_zeta=d_zeta)
    del d_zeta
    a_gf = invert_potential_gauge_fixed(cg, m, e)
    g_term = gauge_term(rep, None, e, cg=cg, d_tilde=d_tilde)
    del d_tilde
    # The gauge term is the last reader of the tilde currents.
    cg = dataclasses.replace(cg, tilde_S=None, tilde_Sflat=None, tilde_Z=None)
    f_bil = field_strength_bilinear(cg, m, e)

    # The solution checks run before F_potential is built, so the two are
    # never held together, and each residual is reduced to its entry
    # before the next is made.  The currents are freed once the checks'
    # reduced state is made.
    residuals = () if a_ref is None else _solution_residuals(rep, None, cg, m, e, a_ref, None, d_bc)
    del cg, d_bc
    solution, _ = _solution_entries(residuals, mask, tolerance)
    f_pot = field_strength_from_potential(a_gf)
    out = InversionOutput(
        a_full=a_full,
        a_gauge_fixed=a_gf,
        gauge_term=g_term,
        f_from_potential=f_pot,
        f_bilinear=f_bil,
        singular_mask=mask,
    )
    return out, _pipeline_checks(out, a_ref, tolerance) + solution
