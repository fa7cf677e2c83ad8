"""A frozen copy of ``invert_pipeline`` and the stages it runs, as they were
before each stage wrote into the buffer that it keeps or returns.

The equivalence tests compare the program against it bit for bit.  It
takes its currents from ``compute_currents_grid`` (whose fields the lattice
currents equal bit for bit) and its stencils from ``dkp5.grids.derivatives``;
everything else is the old code, kept whole.
"""

import math
import sys

import numpy as np

from dkp5 import METRIC_DIAG, compute_currents_grid, constant_four_vector_grid
from dkp5.bilinears import as_wavefunction
from dkp5.grids import derivatives
from dkp5.planewave import _wavefunction_gradient
from dkp5.reports import report_entry

_SIG = np.array(METRIC_DIAG, dtype=float)
_BLOCK = 1024
_ZETA_W = np.zeros((4, 26, 1))
_ZETA_W[:, :2, 0] = (1.0, -1.0)
_UPPER_W = np.zeros((4, 26, 2))
_UPPER_W[range(4), range(2, 6), 0] = _UPPER_W[range(4), range(6, 10), 1] = _SIG
_SHARED_W = np.concatenate([_ZETA_W, _UPPER_W], axis=-1)


def _pair_products(left, right, table, conj, out):
    for s in range(0, len(right), _BLOCK):
        a = left[s : s + _BLOCK]
        pairs = np.einsum("na,nb->nab", np.conj(a) if conj else a, right[s : s + _BLOCK])
        if len(table) == 50:
            pairs = pairs.view(float)
        np.matmul(pairs.reshape(len(pairs), -1), table, out=out[s : s + _BLOCK])
    return out


def _current_table(rep):
    """(25, 26): column k is eta M_k flattened, for the 26 current matrices."""
    mats = (rep.identity, rep.beta_sq, *rep.basis[1:])
    return np.stack([(rep.eta @ m).reshape(25) for m in mats], axis=1)


def derivative_bilinears(rep, phi, dphi, weights, tilde=False):
    phi = as_wavefunction(phi, rep.mode)
    left, n = phi.reshape(-1, 5), weights.shape[-1]
    out = np.empty((len(left), 4, n), dtype=complex)
    current_table = _current_table(rep)
    for mu, d in enumerate(dphi):
        k = current_table @ weights[mu]
        if tilde:
            x, y = k, 1j * k
        else:
            kt = k.reshape(5, 5, n).swapaxes(0, 1).reshape(25, n)
            x, y = k - kt, 1j * (k + kt)
        xy = np.stack([x, y], axis=1)
        table = np.stack([xy.real, xy.imag], axis=-1).reshape(50, 2 * n)
        _pair_products(left, np.reshape(d, (-1, 5)), table, not tilde, out=out[:, mu].view(float))
    return out.reshape(phi.shape[:-1] + (4, n))


def norms(values, mask=None):
    a = np.abs(np.atleast_1d(values))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        a = (a[~mask] if mask.any() else a).ravel()
    if not a.size:
        return 0.0, 0.0
    top = float(a.max())
    scale = math.isfinite(top) and top * top * a.size > sys.float_info.max
    if scale:
        a /= top
    np.square(a, out=a)
    rms_value = float(np.sqrt(np.mean(a)))
    return top, top * rms_value if scale else rms_value


def entry_from_values(identity, values, mask, tolerance):
    frac = float(mask.sum()) / mask.size
    return report_entry(identity, *norms(values, mask), frac, tolerance)


def _masked_z(cg):
    return np.where(cg.mask, 1.0, cg.Z)


def _trace(dv):
    return sum(METRIC_DIAG[mu] * dv[mu][..., mu] for mu in range(4))


def _curl(G, rows=slice(None)):
    return G[..., rows, :] - np.swapaxes(G, -1, -2)[..., rows, :]


def _raised(a):
    core = a[tuple(slice(None) if s else slice(1) for s in a.strides[:-1])]
    return np.broadcast_to(core * _SIG, a.shape)


def _divergence(v, spacing):
    return sum(METRIC_DIAG[mu] * derivatives(v[..., mu], spacing, (mu,))[0] for mu in range(4))


def invert_potential_gauge_fixed(cg, m, e):
    values = (1.5 * m / e) * cg.J / _masked_z(cg)[..., None]
    values[cg.mask] = 0.0
    return values


def invert_potential_full(rep, phi_grid, m, e, dphi=None, cg=None, d_zeta=None):
    z = _masked_z(cg)[..., None]
    if d_zeta is None:
        dv = _wavefunction_gradient(phi_grid, dphi)
        d_zeta = derivative_bilinears(rep, phi_grid.values, dv, _ZETA_W)[..., 0]
    values = (1.5 * m / e) * cg.J / z + ((1j * d_zeta) / (2.0 * e * z)).real
    values[cg.mask] = 0.0
    return values


def gauge_term(rep, phi_grid, e, dphi=None, cg=None):
    zt = np.where(cg.mask, 1.0, cg.tilde_Z)[..., None]
    if dphi is not None:
        dv = _wavefunction_gradient(phi_grid, dphi)
        dzt = 2.0 * derivative_bilinears(rep, phi_grid.values, dv, _ZETA_W, tilde=True)[..., 0]
    else:
        dzt = np.moveaxis(derivatives(cg.tilde_Z, cg.spacing), 0, -1)
    values = ((1j / (4.0 * e)) * (dzt / zt - dzt.conj() / zt.conj())).real
    values[cg.mask] = 0.0
    return values


def field_strength_from_potential(values, spacing):
    G = np.moveaxis(derivatives(values, spacing), 0, -2)
    return _curl(G)


def field_strength_bilinear(cg, m, e, dJ=None):
    rz = (1.0 / _masked_z(cg))[..., None, None]
    if dJ is None:
        dJ = derivatives(cg.J, cg.spacing)
    G = ((-3.0 * m) * cg.H.imag)[..., :, None] * cg.J[..., None, :]
    G *= rz
    G += np.moveaxis(dJ, 0, -2)
    F = _curl(G)
    F *= 1.5 * m / e
    F *= rz
    F[cg.mask] = 0.0
    return F


def divergence_identities(rep, phi_grid, a_values, m, e, cg, dphi=None, d_bc=None, div_j=None):
    a_up = _raised(a_values)
    contract = lambda v: e * np.einsum("...m,...m->...", v, a_up)
    if d_bc is None:
        dv = _wavefunction_gradient(phi_grid, dphi)
        d_bc = derivative_bilinears(rep, phi_grid.values, dv, _UPPER_W).sum(-2)
    return (
        _divergence(cg.J, cg.spacing) if div_j is None else div_j,
        _divergence(cg.H, cg.spacing) - (1j * m / 3.0) * (4.0 * cg.Sflat - 10.0 * cg.S),
        contract(cg.J) - (-m * cg.S + 0.5j * d_bc[..., 0]),
        contract(cg.H) - 0.5j * d_bc[..., 1],
    )


def h_elimination_residual(cg, m, dZ=None):
    if dZ is None:
        dZ = derivatives(cg.Z, cg.spacing)
    return cg.H - (1j / (3.0 * m)) * np.moveaxis(dZ, 0, -1)


def reduced_system_residuals(cg, m, e, dZ=None):
    """(field_eq, conservation, modulus, lhs_cross_check) of the reduced state of cg."""
    Z, mask, sp = cg.Z, cg.mask, cg.spacing
    Jcal = cg.J / np.where(mask, 1.0, Z)[..., None]
    Jcal[mask] = 0.0
    d = lambda arr, mu: derivatives(arr, sp, (mu,))[0]
    G = np.moveaxis(derivatives((1.5 * m / e) * Jcal, sp), 0, -2)
    div_f = sum(METRIC_DIAG[nu] * d(_curl(G, nu), nu) for nu in range(4))
    lhs_via_f = (2.0 * e / (3.0 * m)) * div_f
    dJc = derivatives(Jcal, sp)
    div = _trace(dJc)
    box_j = sum(METRIC_DIAG[nu] * d(dJc[nu], nu) for nu in range(4))
    lhs = box_j - np.moveaxis(derivatives(div, sp), 0, -1)
    cross = lhs - lhs_via_f
    field_eq = lhs - (2.0 * e**2 / m) * Z[..., None] * Jcal
    if dZ is None:
        dZ = derivatives(Z, sp)
    conservation = Z * div + sum(METRIC_DIAG[mu] * Jcal[..., mu] * dZ[mu] for mu in range(4))
    z = np.where(mask, 1.0, Z)
    box_z = sum(METRIC_DIAG[nu] * d(dZ[nu], nu) for nu in range(4))
    dz_dz = sum(METRIC_DIAG[mu] * dZ[mu] * dZ[mu] for mu in range(4))
    jj = np.einsum("...m,...m->...", Jcal, Jcal * _SIG)
    modulus = jj - (2.0 / (9.0 * m**2)) * (box_z / z - dz_dz / (2.0 * z**2)) - 4.0 / 9.0
    for arr in (field_eq, conservation, modulus, cross):
        arr[mask] = 0.0
    return field_eq, conservation, modulus, cross


def invert_pipeline(rep, phi_grid, m, e, dphi=None, A_ref=None, tolerance=1e-10):
    """(a_full, a_gauge_fixed, gauge_term, f_from_potential, f_bilinear, mask), entries."""
    cg = compute_currents_grid(rep, phi_grid)
    mask = cg.mask
    a_ref = None if A_ref is None else np.asarray(A_ref, dtype=float)
    d = derivative_bilinears(rep, phi_grid.values, _wavefunction_gradient(phi_grid, dphi),
                             _ZETA_W if a_ref is None else _SHARED_W)
    d_zeta = d[..., 0].copy()
    d_bc = None if a_ref is None else d[..., 1:].sum(-2)
    a_full = invert_potential_full(rep, phi_grid, m, e, dphi=dphi, cg=cg, d_zeta=d_zeta)
    a_gf = invert_potential_gauge_fixed(cg, m, e)
    g_term = gauge_term(rep, phi_grid, e, dphi=dphi, cg=cg)
    dJ = derivatives(cg.J, cg.spacing)
    f_bil = field_strength_bilinear(cg, m, e, dJ=dJ)
    solution = []
    if a_ref is not None:
        # complex, as the grid of a real potential was when this copy was made
        a_grid = constant_four_vector_grid(a_ref.astype(complex), cg.extents, cg.spacing)
        div = divergence_identities(rep, phi_grid, a_grid.values, m, e, cg, dphi, d_bc, _trace(dJ))
        dZ = derivatives(cg.Z, cg.spacing)
        hres = h_elimination_residual(cg, m, dZ=dZ)
        _, conservation, modulus, cross = reduced_system_residuals(cg, m, e, dZ=dZ)
        names = ("current_conservation", "companion_divergence", "current_potential_contraction",
                 "companion_potential_contraction", "h_elimination", "reduced_conservation",
                 "reduced_modulus", "reduced_field_eq_lhs_cross_check")
        for name, values in zip(names, (*div, hres, conservation, modulus, cross)):
            solution.append(entry_from_values(name, values, mask, tolerance))
    f_pot = field_strength_from_potential(a_gf, cg.spacing)

    entries = []

    def check(name, values, tol=tolerance):
        entries.append(entry_from_values(name, values, mask, tol))

    scale = 1.0 + float(np.max(np.abs(a_full[~mask]))) if (~mask).any() else 1.0
    check("decomposition_full_vs_gauge_fixed_plus_gauge_term", a_full - a_gf - g_term, tolerance * scale)
    check("f_antisymmetry_potential_route", f_pot + np.swapaxes(f_pot, -1, -2))
    check("f_antisymmetry_bilinear_route", f_bil + np.swapaxes(f_bil, -1, -2))
    if a_ref is not None:
        diff = a_full - a_ref
        diff[mask] = 0.0
        check("gauge_faithfulness_a_full", diff, tolerance * (1.0 + float(np.max(np.abs(a_ref)))))
        check("f_from_potential_vanishes", f_pot)
        check("f_bilinear_vanishes", f_bil)
        check("f_route_agreement", f_bil - f_pot)
        entries += solution
    return (a_full, a_gf, g_term, f_pot, f_bil, mask), entries
