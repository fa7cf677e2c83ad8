"""A frozen copy of ``fierz_decompose``, ``algebraic_constraint_residuals``
and ``zeta_identity_residuals`` (with the ``frac`` helper they read), as
they were when each wrote its coefficients as a loop over Gaussian
rationals or floats, with the ``_one_wavefunction`` check that the last
one ran.

The equivalence tests compare the program against it: exact results
under ``==``, float ones within the rearrangement suite's bound.
"""

from fractions import Fraction

import numpy as np

from dkp5.algebra import METRIC_DIAG, KemmerRep, minkowski_dot
from dkp5.bilinears import (
    ConstraintResiduals,
    CurrentSet,
    FierzCoefficients,
    ZetaResiduals,
    as_wavefunction,
    compute_currents,
    z_is_singular,
)
from dkp5.errors import ShapeError
from dkp5.scalars import EXACT, FLOAT


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
