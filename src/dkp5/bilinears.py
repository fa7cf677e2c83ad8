"""Bilinear currents of a 5-component wavefunction and their algebra.

Given a wavefunction Phi (5 complex components) and the involution
matrix eta, two conjugate rows are formed:

    Phi_bar   = Phi^dagger eta      (Hermitian sector)
    Phi_tilde = Phi^T eta           (complex, carries twice the phase)

The Hermitian currents are S = Phi_bar Phi, Sflat = Phi_bar b^2 Phi,
J_mu = Phi_bar b_mu Phi, H_mu = Phi_bar c_mu Phi (purely imaginary) and
K_munu = Phi_bar b_mu b_nu Phi (K*_munu = K_numu), with the scalar
density Z = S - Sflat.  The tilde currents use Phi_tilde instead; the
companion tilde current vanishes identically and K-tilde is symmetric.

The rank-one rearrangement machinery lives here as residual evaluators:
the expansion of Phi Phi_bar on the algebra basis, its complex twin for
Phi Phi_tilde, the quadratic relations among the currents, the
elimination of the tensor current, and the zeta-sandwich identities that
tie Z to its complex counterpart.  All of them vanish identically and
are checked exactly in exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import METRIC_DIAG, KemmerRep, minkowski_dot
from .errors import CurrentOverflowError, ModeError, ShapeError
from .grids import WAVEFUNCTION, FieldGrid
from .scalars import EXACT, FLOAT, GaussianRational, checked_matmul, frac

#: Relative scale factor of the |Z| singularity threshold.
Z_EPS = 1e-10

#: Points per block of the current-table product; bounds the pair
#: products and the BLAS work space whatever the grid size.
_BLOCK = 1024


@dataclass
class CurrentSet:
    """All bilinear currents of one wavefunction, lower indices throughout."""

    mode: str
    S: object
    Sflat: object
    J: np.ndarray
    H: np.ndarray
    K: np.ndarray
    Z: object
    tilde_S: object
    tilde_Sflat: object
    tilde_J: np.ndarray
    tilde_K: np.ndarray
    tilde_Z: object


def _exact_entry(c):
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    raise ModeError(f"exact-mode wavefunction entry {c!r} is not rational")


_exact_entries = np.frompyfunc(_exact_entry, 1, 1)


def as_wavefunction(phi, mode):
    """Validate and normalize wavefunctions of shape (..., 5) for the mode."""
    arr = np.asarray(phi, dtype=object if mode == EXACT else complex)
    if arr.ndim == 0 or arr.shape[-1] != 5:
        raise ShapeError(f"wavefunction has shape {arr.shape}, want (..., 5)")
    return _exact_entries(arr) if mode == EXACT else arr


def _one_wavefunction(phi, mode):
    phi = as_wavefunction(phi, mode)
    if phi.shape != (5,):
        raise ShapeError(f"wavefunction has shape {phi.shape}, want (5,)")
    return phi


def _pair_products(left, right, table):
    """The pairs left[n, a] right[n, b] of each point n times ``table`` (25, k),
    in blocks of ``_BLOCK`` points."""
    out = np.empty((len(right), table.shape[1]), dtype=np.result_type(left, right, table))
    for s in range(0, len(right), _BLOCK):
        # einsum keeps the pair products free of fused multiply-adds, so a
        # constant phase of i or -1 leaves the Hermitian pairs bit-identical.
        pairs = np.einsum("na,nb->nab", left[s : s + _BLOCK], right[s : s + _BLOCK])
        np.matmul(pairs.reshape(-1, 25), table, out=out[s : s + _BLOCK])
    return out


def compute_currents(rep: KemmerRep, phi) -> CurrentSet:
    """All Hermitian and tilde currents of wavefunctions of shape (..., 5).

    Every current is conj(Phi) eta M_k Phi (Hermitian) or Phi eta M_k Phi
    (tilde) with M_k one of the 26 current matrices, so each sector is
    the 25 pair products left[a] Phi[b] times ``rep.current_table``.
    Exact mode multiplies the Python-int pairs of d Phi (d: each Phi's
    common denominator) by the integer view's table as 3 M_k, over 3 d^2.
    Fields carry the leading axes of ``phi``: scalars, four-vectors and
    4x4 matrices for one wavefunction.
    """
    phi = as_wavefunction(phi, rep.mode)
    return _current_set(rep.mode, phi.shape[:-1], *_current_tables(rep, phi))


def _current_tables(rep, phi):
    """Hermitian and tilde current tables, (n, 26) each, of checked wavefunctions."""
    right = phi.reshape(-1, 5)
    if rep.mode == EXACT:
        z, d = _integer_parts(right)
        table = rep.integers.table.astype(object) * (3 // _C3)
        return [_gaussian(*(_pairs(z, conj) @ table), 3 * d * d) for conj in (True, False)]
    table = rep.current_table  # the conjugate rows are freed before the tilde product
    return [_pair_products(np.conj(right), right, table), _pair_products(right, right, table)]


def _current_set(mode, lead, h, t):
    """The fields of the two tables; t's columns 6..9 (companion tilde current) vanish."""
    h, t = h.reshape(lead + (26,)), t.reshape(lead + (26,))
    S, Sflat, J = h[..., 0][()], h[..., 1][()], h[..., 2:6]
    tS, tSflat = t[..., 0][()], t[..., 1][()]
    if mode == FLOAT:
        # S, Sflat and J are real by construction; drop the round-off phase.
        S, Sflat, J = S.real, Sflat.real, J.real
    return CurrentSet(
        mode=mode,
        S=S,
        Sflat=Sflat,
        J=J,
        H=h[..., 6:10],
        K=h[..., 10:].reshape(lead + (4, 4)),
        Z=S - Sflat,
        tilde_S=tS,
        tilde_Sflat=tSflat,
        tilde_J=t[..., 2:6],
        tilde_K=t[..., 10:].reshape(lead + (4, 4)),
        tilde_Z=tS - tSflat,
    )


def derivative_bilinears(rep: KemmerRep, phi, dphi, weights, tilde=False):
    """Phi_bar N d_mu Phi - d_mu Phi_bar N Phi (``tilde``: Phi_tilde N d_mu Phi),
    complex (..., 4, n), for N = sum_k weights[mu, k, j] M_k, weights (4, 26, n).
    Each is the pairs left[a] d_mu Phi[b] times the weighted current table;
    the reversed term conjugates the same pairs times the daggered table, so
    eta N need not be Hermitian.  dphi and weights are not checked: the
    inversion passes them through its own shape checks."""
    phi = as_wavefunction(phi, rep.mode)
    left = (phi if tilde else np.conj(phi)).reshape(-1, 5)
    table = rep.current_table
    tables = [table] if tilde else [table, table.reshape(5, 5, 26).swapaxes(0, 1).conj().reshape(25, 26)]
    n = weights.shape[-1]
    out = np.empty((len(left), 4, n), dtype=complex)
    for mu in range(4):
        cols = np.hstack([t @ weights[mu] for t in tables])
        r = _pair_products(left, np.reshape(dphi[mu], (-1, 5)), cols)
        out[:, mu] = r if tilde else r[:, :n] - r[:, n:].conj()
    return out.reshape(phi.shape[:-1] + (4, n))


def z_is_singular(cs: CurrentSet) -> bool:
    """Whether |Z| is below the singularity threshold for this point.

    Exact mode asks for Z == 0 literally; float mode compares against
    Z_EPS * max(1, sqrt(S^2 + Sflat^2)).
    """
    if cs.mode == EXACT:
        return not cs.Z
    scale = max(1.0, math.hypot(float(cs.S), float(cs.Sflat)))
    return abs(cs.Z) < Z_EPS * scale


@dataclass
class FierzCoefficients:
    """Expansion coefficients of Phi Phi_bar on {I, b_mu, b_mu b_nu, c_mu}."""

    a: object
    j: np.ndarray
    h: np.ndarray
    k: np.ndarray


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


def _fierz18():
    """18 times the closed-form Fierz weights, with c_mu taken as 3 c_mu.

    Row vector (S, Sflat, J, 3H, K) times this matrix gives the weights on
    the 26 current matrices; the tensor weight is raised, K^{nu mu} on
    b_mu b_nu.  These are the coefficients of :func:`fierz_decompose`.
    """
    g = np.array(METRIC_DIAG)
    w = np.zeros((26, 26), dtype=np.int64)
    w[:2, :2] = [[10, -4], [-4, -2]]
    w[2:6, 2:6] = np.diag(9 * g)
    w[6:10, 6:10] = np.diag(-g)
    k = np.arange(16).reshape(4, 4)
    w[10 + k.T, 10 + k] = 18 * np.outer(g, g)
    return w


_FIERZ18 = _fierz18()

#: Column factors of the current matrices that take c_mu to 3 c_mu.
_C3 = np.array([1] * 6 + [3] * 4 + [1] * 16)

def _integer_parts(rows):
    """(n, k) exact scalars as Python-int numerators of their real and imaginary
    parts, (2, n, k), over one denominator per row, (n, 1)."""
    rows = _exact_entries(np.asarray(rows, dtype=object))
    dens = [math.lcm(*(f.denominator for c in row for f in (c.re, c.im))) for row in rows]
    nums = [[[getattr(c, part).numerator * (d // getattr(c, part).denominator) for c in row]
             for row, d in zip(rows, dens)] for part in ("re", "im")]
    return np.array(nums, dtype=object).reshape((2,) + rows.shape), np.array(dens, dtype=object)[:, None]


def _pairs(z, conj):
    """left[a] z[b] for each wavefunction, flattened to 25; left is conj(z) or z.

    Exact wavefunctions come as Gaussian integers (2, n, 5), real and
    imaginary part; float ones as complex (n, 5).
    """
    if z.dtype != object:
        return np.einsum("na,nb->nab", np.conj(z) if conj else z, z).reshape(-1, 25)
    s = -1 if conj else 1  # sign of the left factor's imaginary part
    left, right = z[..., :, None], z[..., None, :]
    return np.stack([left[0] * right[0] - s * left[1] * right[1],
                     left[0] * right[1] + s * left[1] * right[0]]).reshape(2, -1, 25)


def _current_rows(lead, S, Sflat, J, H, K):
    """The row (S, Sflat, J, 3H, K) of 26 currents per wavefunction."""
    cols = [np.reshape(c, lead + (-1,)) for c in (S, Sflat, J, 3 * H, K)]
    return np.concatenate(cols, axis=-1).reshape(-1, 26)


_lcm = np.frompyfunc(math.lcm, 2, 1)
_ZERO = GaussianRational(0)
_gaussian = np.frompyfunc(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)) if re or im else _ZERO,
    3, 1)


def fierz_residual(rep: KemmerRep, phi, cs: CurrentSet | None = None):
    """Residuals of the rank-one rearrangement, Hermitian and complex.

    Returns (R_H, R_C) for wavefunctions of shape (..., 5), each of shape
    (..., 5, 5): Phi Phi_bar minus its current expansion, and Phi Phi_tilde
    minus the tilde expansion (which omits the companion term).  Both
    vanish identically for every wavefunction.  The currents come from
    ``cs`` when given, else from Phi.

    Each sector is 18 D R = 18 (D/d^2) Psi Psi_bar - (D/e) U W M, with
    Psi = d Phi, U/e the current row (S, Sflat, J, 3H, K), W the 18-fold
    Fierz weights, M the current matrices with c_mu as 3 c_mu, and
    D = lcm(d^2, e).  Exact mode takes d and e as each wavefunction's and
    each current row's common denominator, and M and W M from the
    representation's integer view, so every product runs on Python ints
    (exact at any size, never wrapping round), all wavefunctions at once;
    it returns Gaussian rationals.  Float mode runs the same products
    with d = e = 1.
    """
    phi = as_wavefunction(phi, rep.mode)
    lead = phi.shape[:-1]
    exact = rep.mode == EXACT
    if exact:
        ints = rep.integers
        weighted = checked_matmul(_FIERZ18, ints.current.reshape(26, 25))
        table, weighted, eta = (m.astype(object) for m in (ints.table, weighted, ints.eta))
    else:
        m3, eta = rep.current_matrices * _C3[:, None, None], rep.eta
        table = (eta @ m3).reshape(26, 25).T  # rep.current_table with c_mu as 3 c_mu
        weighted = _FIERZ18 @ m3.reshape(26, 25)
    z, d = _integer_parts(phi.reshape(-1, 5)) if exact else (phi.reshape(-1, 5), 1)
    rows = (None, None) if cs is None else (
        _current_rows(lead, cs.S, cs.Sflat, cs.J, cs.H, cs.K),
        _current_rows(lead, cs.tilde_S, cs.tilde_Sflat, cs.tilde_J, 0 * cs.tilde_J, cs.tilde_K))
    out = []
    for conj, u in zip((True, False), rows):
        pairs = _pairs(z, conj)
        if u is None:
            u, e = pairs @ table, d * d
        else:
            u, e = _integer_parts(u) if exact else (u, 1)
        if not conj:
            u[..., 6:10] = 0  # the tilde expansion omits the companion term
        psi_bar = pairs.reshape(pairs.shape[:-1] + (5, 5)).swapaxes(-1, -2) @ eta
        big = _lcm(d * d, e)
        num = 18 * (big // (d * d)) * psi_bar.reshape(pairs.shape) - (big // e) * (u @ weighted)
        r = _gaussian(num[0], num[1], 18 * big) if exact else num / 18
        out.append(r.reshape(lead + (5, 5)))
    return tuple(out)


@dataclass
class ConstraintResiduals:
    """Residuals of the quadratic current relations at one point.

    ``k_elimination`` is None when the point is Z-singular; the other two
    residuals are always populated.
    """

    scalar_fierz: object
    quadratic: object
    k_elimination: np.ndarray | None
    singular_z: bool


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


@dataclass
class ZetaResiduals:
    sandwich: np.ndarray
    modulus: object


def zeta_identity_residuals(rep: KemmerRep, phi, cs: CurrentSet | None = None) -> ZetaResiduals:
    """zeta Phi Phi_tilde zeta - Ztilde zeta, and Z^2 - |Ztilde|^2."""
    phi = _one_wavefunction(phi, rep.mode)
    if cs is None:
        cs = compute_currents(rep, phi)
    pt = phi @ rep.eta
    sandwich = rep.zeta @ np.outer(phi, pt) @ rep.zeta - cs.tilde_Z * rep.zeta
    modulus = cs.Z * cs.Z - cs.tilde_Z.conjugate() * cs.tilde_Z
    return ZetaResiduals(sandwich=sandwich, modulus=modulus)


_PARTS = (("Re", "real"), ("Im", "imag"))

#: Reported current components in CSV and JSON order: (column, field, index, part).
CURRENT_COLUMNS = (
    [("S", "S", (), "real"), ("Sflat", "Sflat", (), "real")]
    + [(f"J{m}", "J", (m,), "real") for m in range(4)]
    + [(f"ImH{m}", "H", (m,), "imag") for m in range(4)]
    + [(f"{p}K{m}{n}", "K", (m, n), part)
       for m in range(4) for n in range(4) for p, part in _PARTS]
    + [("Z", "Z", (), "real")]
    + [(p + "St", "tilde_S", (), part) for p, part in _PARTS]
    + [(p + "Stflat", "tilde_Sflat", (), part) for p, part in _PARTS]
    + [(f"{p}Jt{m}", "tilde_J", (m,), part) for m in range(4) for p, part in _PARTS]
    + [(f"{p}Kt{m}{n}", "tilde_K", (m, n), part)
       for m in range(4) for n in range(4) for p, part in _PARTS]
    + [(p + "Zt", "tilde_Z", (), part) for p, part in _PARTS]
)


def current_columns(cs: CurrentSet) -> dict:
    """Every reported current component as a real array, in column order.

    The arrays carry the leading axes of the currents: 0-d for one point,
    the grid axes for a :class:`CurrentGrid`.
    """
    def field(name):
        v = np.asarray(getattr(cs, name))
        return v.astype(complex) if v.dtype == object else v

    return {
        column: getattr(field(name)[(..., *index)], part)
        for column, name, index, part in CURRENT_COLUMNS
    }


def current_set_to_dict(cs: CurrentSet) -> dict:
    """Flat JSON-ready dict of one point's currents with fixed key order."""
    return {column: float(v) for column, v in current_columns(cs).items()}


# ---------------------------------------------------------------------------
# Currents over grids (float mode only).

@dataclass
class CurrentGrid(CurrentSet):
    """Per-point currents over a 4D lattice; leading axes are the grid."""

    extents: tuple
    spacing: tuple


def compute_currents_grid(rep: KemmerRep, grid: FieldGrid) -> CurrentGrid:
    """Currents at every grid point; CurrentOverflowError unless all (Z, Z-tilde too) are finite."""
    if rep.mode != FLOAT:
        raise ModeError("grid currents require a float-mode representation")
    if grid.kind != WAVEFUNCTION:
        raise ShapeError("grid currents require a wavefunction grid")
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _current_tables(rep, grid.values)
        cs = _current_set(FLOAT, grid.extents, *tables)
    if not all(np.isfinite(v).all() for v in (*tables, cs.Z, cs.tilde_Z)):
        raise CurrentOverflowError("the currents of the grid overflow double precision")
    return CurrentGrid(**vars(cs), extents=grid.extents, spacing=grid.spacing)
