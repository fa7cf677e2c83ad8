"""A frozen copy of ``fierz_decompose``, ``algebraic_constraint_residuals``
and ``zeta_identity_residuals`` (with the ``frac`` helper they read), as
they were when each wrote its coefficients as a loop over Gaussian
rationals or floats, with the ``_one_wavefunction`` check that the last
one ran; and of ``fierz_residual`` (with the ``_ratio``, ``_times``,
``_conj`` and ``_pairs`` helpers it reads), as it was when its exact
branch ran every product on Python ints.

The equivalence tests compare the program against it: exact results
under ``==``, float ones within the rearrangement suite's bound (and
``fierz_residual``'s bit for bit).
"""

from fractions import Fraction

import numpy as np

from dkp5.algebra import METRIC_DIAG, KemmerRep, minkowski_dot
from dkp5.bilinears import (
    _C3,
    _FIERZ18,
    ConstraintResiduals,
    CurrentSet,
    FierzCoefficients,
    ZetaResiduals,
    _gaussian,
    _rows,
    as_wavefunction,
    compute_currents,
    z_is_singular,
)
from dkp5.errors import ShapeError
from dkp5.scalars import EXACT, FLOAT, checked_matmul


def _one_wavefunction(phi, mode):
    phi = as_wavefunction(phi, mode)
    if phi.shape != (5,):
        raise ShapeError(f"wavefunction has shape {phi.shape}, want (5,)")
    return phi


def frac(num, den, mode):
    """The rational num/den in the given mode's scalar type."""
    return Fraction(num, den) if mode == EXACT else num / den


def fierz_decompose(cs: CurrentSet) -> FierzCoefficients:
    """Closed-form expansion coefficients in terms of the currents."""
    q = lambda n, d: frac(n, d, cs.mode)
    a = q(5, 9) * cs.S - q(2, 9) * cs.Sflat
    j = np.array([q(1, 2) * cs.J[m] for m in range(4)], dtype=object)
    h = np.array([-q(1, 2) * cs.H[m] for m in range(4)], dtype=object)
    trace_part = q(2, 9) * cs.S + q(1, 9) * cs.Sflat
    k = np.empty((4, 4), dtype=object)
    for m in range(4):
        for n in range(4):
            e = METRIC_DIAG[m] if m == n else 0
            k[m, n] = 2 * (cs.K[n, m] - e * trace_part)
    if cs.mode == FLOAT:
        j = j.astype(float)
        h = h.astype(complex)
        k = k.astype(complex)
    return FierzCoefficients(a=a, j=j, h=h, k=k)


def algebraic_constraint_residuals(cs: CurrentSet) -> ConstraintResiduals:
    """Scalar rearrangement relation, tensor-current elimination, and the
    single surviving quadratic constraint."""
    q = lambda n, d: frac(n, d, cs.mode)
    g = METRIC_DIAG
    jj = minkowski_dot(cs.J, cs.J)
    hh = minkowski_dot(cs.H, cs.H)
    kk = sum(
        g[m] * g[r] * cs.K[m, r] * cs.K[r, m] for m in range(4) for r in range(4)
    )
    scalar_fierz = q(1, 9) * (2 * cs.S + cs.Sflat) ** 2 - q(1, 2) * (jj - hh) - kk
    quadratic = q(1, 4) * (jj - hh) + q(1, 9) * cs.Z * (4 * cs.S - cs.Sflat)
    singular = z_is_singular(cs)
    k_elim = None
    if not singular:
        k_elim = np.empty((4, 4), dtype=object)
        for m in range(4):
            for n in range(4):
                e = g[m] if m == n else 0
                pred = -q(1, 3) * cs.Z * e - q(3, 4) * (cs.J[m] + cs.H[m]) * (
                    cs.J[n] - cs.H[n]
                ) / cs.Z
                k_elim[m, n] = cs.K[m, n] - pred
        if cs.mode == FLOAT:
            k_elim = k_elim.astype(complex)
    return ConstraintResiduals(
        scalar_fierz=scalar_fierz,
        quadratic=quadratic,
        k_elimination=k_elim,
        singular_z=singular,
    )


def zeta_identity_residuals(rep: KemmerRep, phi, cs: CurrentSet | None = None) -> ZetaResiduals:
    """zeta Phi Phi_tilde zeta - Ztilde zeta, and Z^2 - |Ztilde|^2."""
    phi = _one_wavefunction(phi, rep.mode)
    if cs is None:
        cs = compute_currents(rep, phi)
    pt = phi @ rep.eta
    sandwich = rep.zeta @ np.outer(phi, pt) @ rep.zeta - cs.tilde_Z * rep.zeta
    modulus = cs.Z * cs.Z - cs.tilde_Z.conjugate() * cs.tilde_Z
    return ZetaResiduals(sandwich=sandwich, modulus=modulus)


def _ratio(num, den, divisor=None):
    """num / (den divisor), for numerators of :func:`_rows` and a divisor
    like them: exact ones as Gaussian rationals (the Gaussian-integer
    divisor cleared by its conjugate), float ones as complex."""
    if num.dtype != object:
        return num / den if divisor is None else num / (den * divisor)
    if divisor is not None:
        num, den = _times(num, _conj(divisor)), den * (divisor[0] ** 2 + divisor[1] ** 2)
    return _gaussian(num[0], num[1], den)


def _times(x, y):
    """x y for complex arrays, or for Gaussian integers as (2, ...) parts."""
    if x.dtype != object:
        return x * y
    return np.stack([x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]])


def _conj(z):
    """conj(z) for a complex array, or for Gaussian integers as (2, ...) parts."""
    return np.conj(z) if z.dtype != object else np.stack([z[0], -z[1]])


def _pairs(z, conj):
    """left[a] z[b] for each wavefunction, flattened to 25; left is conj(z) or z.

    Exact wavefunctions come as Gaussian integers (2, n, 5), real and
    imaginary part; float ones as complex (n, 5).
    """
    left = _conj(z) if conj else z
    return _times(left[..., :, None], z[..., None, :]).reshape(z.shape[:-1] + (25,))


def fierz_residual(rep: KemmerRep, phi, cs: CurrentSet | None = None):
    """Residuals of the rank-one rearrangement, Hermitian and complex."""
    phi = as_wavefunction(phi, rep.mode)
    lead = phi.shape[:-1]
    if rep.mode == EXACT:
        ints = rep.integers
        weighted = checked_matmul(_FIERZ18, ints.current.reshape(26, 25))
        table, weighted, eta = (m.astype(object) for m in (ints.table, weighted, ints.eta))
    else:
        mats = np.stack([rep.identity, rep.beta_sq, *rep.basis[1:]])
        m3, eta = mats * _C3[:, None, None], rep.eta
        table = (eta @ m3).reshape(26, 25).T  # the current table with c_mu as 3 c_mu
        weighted = _FIERZ18 @ m3.reshape(26, 25)
    currents = () if cs is None else (  # tilde_J stands in for the zeroed companion term
        cs.S, cs.Sflat, cs.J, cs.H, cs.K, cs.tilde_S, cs.tilde_Sflat, cs.tilde_J, cs.tilde_J, cs.tilde_K)
    row, d = _rows(rep.mode, lead, phi, *currents)
    z = row[..., :5]
    sectors = (None, None) if cs is None else (row[..., 5:31], row[..., 31:])
    out = []
    for conj, u in zip((True, False), sectors):
        pairs = _pairs(z, conj)
        u, e = (pairs @ table, 1) if u is None else (u * _C3, d)
        if not conj:
            u[..., 6:10] = 0  # the tilde expansion omits the companion term
        psi_bar = pairs.reshape(pairs.shape[:-1] + (5, 5)).swapaxes(-1, -2) @ eta
        r = _ratio(18 * psi_bar.reshape(pairs.shape) - e * (u @ weighted), 18 * d * d)
        out.append(r.reshape(lead + (5, 5)))
    return tuple(out)
