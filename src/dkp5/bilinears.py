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

In float mode one kernel, :func:`_add_pair_parts`, evaluates them all
on the current table that ``verify-algebra`` checks: the currents asked
of :func:`_float_fields`, each into its own array, and the derivative
tables of :func:`derivative_bilinears`.  It forms only the real and
imaginary pair parts that some coefficient reads and sums each column
from its nonzero coefficients in row order, from +0.0.  It makes no BLAS
call, so no current depends on the BLAS build or its thread count.

The rank-one rearrangement machinery lives here as residual evaluators:
the expansion of Phi Phi_bar on the algebra basis, its complex twin for
Phi Phi_tilde, the quadratic relations among the currents, the
elimination of the tensor current, and the zeta-sandwich identities that
tie Z to its complex counterpart.  All of them vanish identically and
are checked exactly in exact mode.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import _FIERZ18, METRIC_DIAG, KemmerRep
from .errors import CurrentOverflowError, ModeError, ShapeError
from .grids import WAVEFUNCTION, FieldGrid
from .scalars import EXACT, FLOAT, GaussianRational, bounded, top

#: Relative scale factor of the |Z| singularity threshold.
Z_EPS = 1e-10

#: Points per block of the pair-part kernel :func:`_add_pair_parts`.  It
#: makes some 45 to 250 numpy calls a block, each on a few pair parts of 8
#: bytes a point, so blocks are large: fewer calls, the parts in cache.
_BLOCK = 4096

#: The metric diagonal as an array, for raising indices.
_G = np.array(METRIC_DIAG)


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
    if isinstance(c, (numbers.Integral, Fraction)):
        return GaussianRational(c)  # which unboxes numpy integers to Python ints
    raise ModeError(f"exact-mode wavefunction entry {c!r} is not rational")


_exact_entries = np.frompyfunc(_exact_entry, 1, 1)


def as_wavefunction(phi, mode):
    """Validate and normalize wavefunctions of shape (..., 5) for the mode."""
    arr = np.asarray(phi, dtype=object if mode == EXACT else complex)
    if arr.ndim == 0 or arr.shape[-1] != 5:
        raise ShapeError(f"wavefunction has shape {arr.shape}, want (..., 5)")
    return _exact_entries(arr) if mode == EXACT else arr


#: The current fields: name -> (tilde sector, first column of the current
#: table, shape per point, real: S, Sflat and J are by construction).  The
#: companion tilde current (columns 6..9) vanishes.
_FIELDS = {
    "S": (False, 0, (), True),
    "Sflat": (False, 1, (), True),
    "J": (False, 2, (4,), True),
    "H": (False, 6, (4,), False),
    "K": (False, 10, (4, 4), False),
    "tilde_S": (True, 0, (), False),
    "tilde_Sflat": (True, 1, (), False),
    "tilde_J": (True, 2, (4,), False),
    "tilde_K": (True, 10, (4, 4), False),
}


def compute_currents(rep: KemmerRep, phi) -> CurrentSet:
    """All Hermitian and tilde currents of wavefunctions of shape (..., 5).

    Every current is conj(Phi) eta M_k Phi (Hermitian) or Phi eta M_k Phi
    (tilde) with M_k one of the 26 current matrices, so each sector is
    the 25 pair products left[a] Phi[b] times the scaled view's current
    table ``rep.integers.table`` (c_mu as 3 c_mu).  Float mode takes it
    with its c_mu columns times 1/3 to :func:`_float_fields`.  Exact mode
    (:func:`_exact_fields`) multiplies the integer pairs of d Phi (d: each
    Phi's common denominator) by it over d^2 or 3 d^2; on int64 when a
    bound from the largest numerator allows, else on Python ints.
    Fields carry the leading axes of ``phi``: scalars, four-vectors and
    4x4 matrices for one wavefunction.
    """
    phi = as_wavefunction(phi, rep.mode)
    fields = _float_fields(rep, phi, _FIELDS) if rep.mode == FLOAT else _exact_fields(rep, phi)
    return _current_set(rep.mode, fields)


def _exact_fields(rep, phi):
    """The exact currents by name of checked wavefunctions: the Hermitian and
    tilde current tables, (n, 26) each, sliced by ``_FIELDS``."""
    z, d = _integer_parts(phi.reshape(-1, 5))
    t, v = top(z), rep.integers  # c_mu as 3 c_mu: those columns over 3 d^2
    z, d, table = bounded(max(2 * t * t * v.tops[0], 3 * top(d) ** 2, t), z, d, v.table)
    tables = [_ratio(_pairs(z, conj) @ table, d * d * _C3) for conj in (True, False)]
    return {name: tables[tilde][:, first:first + math.prod(shape)].reshape(phi.shape[:-1] + shape)
            for name, (tilde, first, shape, _) in _FIELDS.items()}


def _float_fields(rep, phi, fields):
    """The float currents named ``fields`` of checked wavefunctions, each a
    zeroed, contiguous array with their leading axes, into which one
    :func:`_add_pair_parts` call per sector adds the columns that
    ``_FIELDS`` gives."""
    lead, phi = phi.shape[:-1], phi.reshape(-1, 5)
    coef, out = _pair_table(_float_table(rep), hermitian=False), {}
    for tilde in (False, True):
        columns, dest = [], []
        for name, (sector, first, shape, real) in _FIELDS.items():
            if sector == tilde and name in fields:
                size = math.prod(shape)
                out[name] = np.zeros(lead + shape, dtype=float if real else complex)
                columns += range(2 * first, 2 * (first + size), 2 if real else 1)  # real parts, or both
                dest += list(out[name].reshape(-1, size).view(float).T)
        _add_pair_parts(phi, phi, not tilde, coef[:, columns], dest)
    return out


def _float_table(rep):
    """The scaled view's current table with its c_mu columns times 1/3: the
    float table of Phi_bar M_k Phi.  A multiply, not a division by 3, which
    would flip the sign of some of its zeros."""
    return rep.integers.table * (1 / _C3)


def _current_set(mode, fields):
    """The CurrentSet of the fields by name (S, Sflat and their tilde twins
    among them) with Z and Z-tilde; a field not given is None."""
    f = {name: fields[name][()] if name in fields else None for name in _FIELDS}
    return CurrentSet(mode=mode, **f, Z=f["S"] - f["Sflat"], tilde_Z=f["tilde_S"] - f["tilde_Sflat"])


def derivative_bilinears(rep: KemmerRep, phi, dphi, weights, tilde=False):
    """Phi_bar N d_mu Phi - d_mu Phi_bar N Phi (``tilde``: Phi_tilde N d_mu Phi),
    complex (..., 4, n), for N = sum_k weights[mu, k, j] M_k, weights (4, 26, n).

    ``dphi`` yields d_mu Phi for mu = 0..3 in turn (an array, a list, or a
    generator that takes each stencil when asked), so only one direction
    is held at a time.  With the pairs Q_ab = left[a] d_mu Phi[b] and
    K = eta N (the float current table of :func:`compute_currents` times
    the weights), the Hermitian form is
    sum_ab Q_ab K_ab - conj(Q_ab) K_ba = Re Q.(K - K^T) + i Im Q.(K + K^T),
    and the tilde form is Q.K: a real (50, 2n) table on the pairs' real
    and imaginary parts, of which :func:`_derivative_blocks` forms only
    the parts that the table reads.  eta N need not be Hermitian.  dphi
    and weights are not checked: the inversion passes them through its
    own shape checks."""
    if rep.mode != FLOAT:
        raise ModeError("derivative bilinears require a float-mode representation")
    phi = as_wavefunction(phi, rep.mode)
    out = np.zeros((phi[..., 0].size, 4, weights.shape[-1]), dtype=complex)
    _derivative_blocks(rep, phi, dphi, weights, tilde, [list(out.view(float)[:, mu].T) for mu in range(4)])
    return out.reshape(phi.shape[:-1] + out.shape[1:])


def _derivative_blocks(rep, phi, dphi, weights, tilde, dest):
    """Add the bilinears of :func:`derivative_bilinears` for each direction
    mu in turn to the 2n real per-point columns dest[mu] (real, imaginary
    part of each of the n), which start at zero or hold the sum over the
    directions before, by :func:`_add_pair_parts`.  On the reference
    representation a column has one coefficient, or two in {+-1, +-2}, so
    it takes one rounding, as a product with all 50 rows of the table
    would, in any order.  ``phi`` is a checked wavefunction array."""
    left, table, dphi = phi.reshape(-1, 5), _float_table(rep), iter(dphi)
    for mu, columns in enumerate(dest):
        d = next(dphi)  # not enumerate(dphi), whose cached result holds d while the next is made
        # einsum, not a BLAS product: no current kernel makes a BLAS call
        coef = _pair_table(np.einsum("kc,cn->kn", table, weights[mu]), hermitian=not tilde)
        _add_pair_parts(left, np.reshape(d, (-1, 5)), not tilde, coef, columns)
        del d  # a stencil direction is freed before the next is taken


def _add_pair_parts(left, right, conj, coef, dest):
    """Add to the k real per-point columns ``dest``, a block of ``_BLOCK``
    points at a time, the bilinears of the real (50, k) table ``coef``
    (:func:`_pair_table`) on the pairs Q_ab = left[a] right[b], left
    conjugated if ``conj``.

    Each column is the sum (:func:`_column_sum`), in row order, of its
    nonzero coefficients times the real or imaginary pair parts that they
    read, each part formed once a block from the two component columns
    (two products and a sum, which the complex pair product rounds alike),
    and is added to its destination.  Into a zeroed one, that is the sum
    from +0.0 in row order of the whole column, zero coefficients
    included, and an all-zero column is +0.0."""
    re, im = (np.add, np.subtract) if conj else (np.subtract, np.add)
    columns = [(np.flatnonzero(c), c, target) for c, target in zip(coef.T, dest) if c.any()]
    # row r reads the real (r even) or imaginary part of the pair (i, j)
    reads = [(r, r // 10, r // 2 % 5) for r in np.flatnonzero(coef.any(axis=1))]
    for s in range(0, len(right), _BLOCK):
        rows = slice(s, min(s + _BLOCK, len(right)))
        a, b = left[rows], right[rows]
        parts = {r: im(a[:, i].real * b[:, j].imag, a[:, i].imag * b[:, j].real) if r % 2
                 else re(a[:, i].real * b[:, j].real, a[:, i].imag * b[:, j].imag) for r, i, j in reads}
        for used, c, target in columns:
            target[rows] += _column_sum(c, used, parts)


def _column_sum(c, used, parts):
    """sum_r c[r] parts[r] over the rows ``used``, in order.  A coefficient of
    1 or -1 adds or subtracts its part with no product, the same bits: most
    coefficients of the current tables are +-1, and a product is one more
    numpy call a block."""
    total = parts[used[0]] if c[used[0]] == 1 else c[used[0]] * parts[used[0]]
    for r in used[1:]:
        total = total + parts[r] if c[r] == 1 else total - parts[r] if c[r] == -1 else total + c[r] * parts[r]
    return total


def _pair_table(k, hermitian):
    """The real (50, 2n) table of the bilinears Q.k of the pairs Q_ab, for k
    complex (25, n), or with ``hermitian`` sum_ab Q_ab k_ab - conj(Q_ab) k_ba
    = Re Q.(k - k^T) + i Im Q.(k + k^T): row 2(5a + b) + p holds the
    coefficients of Re Q_ab (p = 0) or Im Q_ab, column 2j + q those of the
    real (q = 0) or imaginary part of bilinear j."""
    kt = k.reshape(5, 5, -1).swapaxes(0, 1).reshape(k.shape)  # k_ba in row (a, b)
    x, y = (k - kt, 1j * (k + kt)) if hermitian else (k, 1j * k)
    xy = np.stack([x, y], axis=1)  # rows: the coefficients of Re Q_ab, Im Q_ab
    return np.stack([xy.real, xy.imag], axis=-1).reshape(50, 2 * k.shape[-1])


def singular_mask(cs: CurrentSet) -> np.ndarray:
    """Where |Z| is below Z_EPS * max(1, sqrt(S^2 + Sflat^2)), over the leading
    axes of float currents.  Where sqrt(S^2 + Sflat^2) is past double
    precision, the point is decided from S, Sflat and Z halved (an exact
    scaling, so only those points take it)."""
    with np.errstate(over="ignore"):
        scale = np.maximum(1.0, np.hypot(cs.S, cs.Sflat))
    mask = np.asarray(np.abs(cs.Z) < Z_EPS * scale)
    over = np.isinf(scale)
    if over.any():
        s, sflat, z = (np.asarray(v)[over] / 2 for v in (cs.S, cs.Sflat, cs.Z))
        mask[over] = np.abs(z) < Z_EPS * np.hypot(s, sflat)
    return mask


def z_is_singular(cs: CurrentSet) -> bool:
    """Whether |Z| is below the singularity threshold for this point.

    Exact mode asks for Z == 0 literally; float mode applies
    :func:`singular_mask`.
    """
    if cs.mode == EXACT:
        return not cs.Z
    return bool(singular_mask(cs))


@dataclass
class FierzCoefficients:
    """Expansion coefficients of Phi Phi_bar on {I, b_mu, b_mu b_nu, c_mu}."""

    a: object
    j: np.ndarray
    h: np.ndarray
    k: np.ndarray


def fierz_decompose(cs: CurrentSet) -> FierzCoefficients:
    """Closed-form expansion coefficients in terms of the currents.

    The row u = (S, Sflat, J, 3H, K) times the weights of ``algebra._fierz18``
    gives 18 w, the weights on the 26 current matrices, which fold onto the
    basis as a = w_I, j = eta w_b, h = 3 eta w_c3 and
    k = 2 eta eta^T (w_K + diag(eta) w_b2).
    """
    u, d = _point(cs, cs.S, cs.Sflat, cs.J, cs.H, cs.K)
    w = (u * _C3) @ _FIERZ18
    k = 2 * np.outer(_G, _G).ravel() * (w[..., 10:] + np.diag(_G).ravel() * w[..., 1:2])
    folded = [w[..., :1], _G * w[..., 2:6], 3 * _G * w[..., 6:10], k]
    c = _ratio(np.concatenate(folded, axis=-1), 18 * d)[0]
    a, j = c[0], c[1:5]
    if cs.mode == FLOAT:
        a, j = a.real, j.real  # as S, Sflat and J are
    return FierzCoefficients(a=a, j=j, h=c[5:9], k=c[9:].reshape(4, 4))


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


def _rows(mode, lead, *fields):
    """Arrays with leading axes ``lead`` side by side, one row per point,
    (n, k): exact ones as :func:`_integer_parts`, float ones as complex
    over the denominator 1.  The rearrangement relations run on such rows,
    the same expressions in both modes, and box their results with
    :func:`_ratio`.
    """
    cols = [np.reshape(f, (-1, math.prod(np.shape(f)[len(lead):]))) for f in fields]
    rows = np.concatenate(cols, axis=1)
    return _integer_parts(rows) if mode == EXACT else (rows, 1)


def _point(cs, *fields):
    """The row of ``fields`` of one point's currents ``cs`` (:func:`_rows`);
    ShapeError if the currents have leading axes."""
    if np.shape(cs.S) != ():
        raise ShapeError(f"currents have leading axes {np.shape(cs.S)}, want one point")
    return _rows(cs.mode, (), *fields)


_ZERO = GaussianRational(0)
_gaussian = np.frompyfunc(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)) if re or im else _ZERO,
    3, 1)


def _ratio(num, den, divisor=None):
    """num / (den divisor), for numerators of :func:`_rows` and a divisor
    like them: exact (int64 or Python-int) ones as Gaussian rationals (the
    Gaussian-integer divisor cleared by its conjugate), float ones as
    complex."""
    if num.dtype.kind not in "iO":
        return num / den if divisor is None else num / (den * divisor)
    # Boxed from Python ints: a Fraction of numpy integers would wrap round later.
    num, den = num.astype(object), np.asarray(den, dtype=object)
    if divisor is not None:
        divisor = divisor.astype(object)
        num, den = _times(num, _conj(divisor)), den * (divisor[0] ** 2 + divisor[1] ** 2)
    return _gaussian(num[0], num[1], den)


def _times(x, y):
    """x y for complex arrays, or for Gaussian integers as (2, ...) parts."""
    if x.dtype.kind not in "iO":
        return x * y
    return np.stack([x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]])


def _conj(z):
    """conj(z) for a complex array, or for Gaussian integers as (2, ...) parts."""
    return np.conj(z) if z.dtype.kind not in "iO" else np.stack([z[0], -z[1]])


def _pairs(z, conj):
    """left[a] z[b] for each wavefunction, flattened to 25; left is conj(z) or z.

    Exact wavefunctions come as Gaussian integers (2, n, 5), real and
    imaginary part; float ones as complex (n, 5).
    """
    left = _conj(z) if conj else z
    return _times(left[..., :, None], z[..., None, :]).reshape(z.shape[:-1] + (25,))


def fierz_residual(rep: KemmerRep, phi, cs: CurrentSet | None = None):
    """Residuals of the rank-one rearrangement, Hermitian and complex.

    Returns (R_H, R_C) for wavefunctions of shape (..., 5), each of shape
    (..., 5, 5): Phi Phi_bar minus its current expansion, and Phi Phi_tilde
    minus the tilde expansion (which omits the companion term).  Both
    vanish identically for every wavefunction.  The currents come from
    ``cs`` when given, else from Phi.

    Each sector is 18 d^2 R = 18 Psi Psi_bar - e U W M, with Psi = d Phi,
    U e / d^2 the current row (S, Sflat, J, 3H, K), W the 18-fold Fierz
    weights and M the current matrices with c_mu as 3 c_mu.  Without ``cs``,
    U is the pair products of Psi times the current table and e = 1; with
    it, d is the common denominator of Phi and its currents, and e = d.
    Both modes take M, W M and the table from the representation's scaled
    view.  Exact mode runs every product, all wavefunctions at once, on
    int64 when a bound from the largest numerator, the view's column
    abs-sums of the tables and d keeps every value within half the int64
    range, else on Python ints (exact at any size, never wrapping round);
    it returns Gaussian rationals, boxed from Python ints.
    Float mode runs the same products with d = 1.
    """
    lead, num, den = _fierz_numerators(rep, phi, cs)
    r = _ratio(num, den).reshape(lead + (2, 5, 5))
    return r[..., 0, :, :], r[..., 1, :, :]


def _fierz_numerators(rep, phi, cs=None):
    """(lead, num, den): the residuals of :func:`fierz_residual` for
    wavefunctions with leading axes ``lead`` as num / den, one row per
    wavefunction, R_H's 25 entries then R_C's; exact numerators as Gaussian
    integers (2, n, 50) and den (n, 1), int64 or Python ints, float ones
    complex (n, 50) over 18."""
    phi = as_wavefunction(phi, rep.mode)
    lead = phi.shape[:-1]
    v = rep.integers
    table, weighted, eta = v.table, v.weighted, v.eta
    currents = () if cs is None else (  # tilde_J stands in for the zeroed companion term
        cs.S, cs.Sflat, cs.J, cs.H, cs.K, cs.tilde_S, cs.tilde_Sflat, cs.tilde_J, cs.tilde_J, cs.tilde_K)
    row, d = _rows(rep.mode, lead, phi, *currents)
    if rep.mode == EXACT:
        # |pairs| <= 2 t^2, |U| <= 2 t^2 |table| or 3 t; the residual's two terms
        # and the denominators 18 d^2 bound every value below.
        t, dmax = top(row), top(d)
        table_top, weighted_top, eta_top = v.tops
        u, e = (2 * t * t * table_top, 1) if cs is None else (3 * t, dmax)
        bound = max(36 * t * t * eta_top + e * u * weighted_top, 18 * dmax * dmax, t)
        row, d, table, weighted, eta = bounded(bound, row, d, table, weighted, eta)
    z = row[..., :5]
    sectors = (None, None) if cs is None else (row[..., 5:31], row[..., 31:])
    out = []
    for conj, u in zip((True, False), sectors):
        pairs = _pairs(z, conj)
        u, e = (pairs @ table, 1) if u is None else (u * _C3, d)
        if not conj:
            u[..., 6:10] = 0  # the tilde expansion omits the companion term
        psi_bar = pairs.reshape(pairs.shape[:-1] + (5, 5)).swapaxes(-1, -2) @ eta
        out.append(18 * psi_bar.reshape(pairs.shape) - e * (u @ weighted))
    return lead, np.concatenate(out, axis=-1), 18 * d * d


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


def _relations():
    """The quadratic current relations as (left, right, weights): in the row
    u = (S, Sflat, J, H, K, Z) of one point, sum_p u[left_p] u[right_p]
    weights[p, i] is 18 times the scalar rearrangement relation (i = 0),
    36 times the quadratic constraint (i = 1), and 12 Z (K_mn - K_pred_mn)
    (i = 2 + 4m + n), with K_pred_mn = -Z eta_mn / 3 - 3 (J_m + H_m)(J_n - H_n) / (4 Z).
    """
    e = np.eye(27, dtype=np.int64)
    S, Sflat, J, H, K, Z = e[0], e[1], e[2:6], e[6:10], e[10:26].reshape(4, 4, 27), e[26]
    sq = lambda v: np.einsum("m,ma,mb->ab", _G, v, v)  # eta^mn v_m v_n
    kk = np.einsum("m,r,mra,rmb->ab", _G, _G, K, K)
    scalar = 2 * np.outer(2 * S + Sflat, 2 * S + Sflat) - 9 * (sq(J) - sq(H)) - 18 * kk
    quadratic = 9 * (sq(J) - sq(H)) + 4 * np.outer(Z, 4 * S - Sflat)
    k_elim = (12 * np.einsum("a,mnb->mnab", Z, K) + 4 * np.einsum("mn,a,b->mnab", np.diag(_G), Z, Z)
              + 9 * np.einsum("ma,nb->mnab", J + H, J - H))
    table = np.concatenate([scalar[None], quadratic[None], k_elim.reshape(16, 27, 27)])
    left, right = np.nonzero(table.any(axis=0))  # the pairs that some relation reads
    return left, right, table[:, left, right].T


_LEFT, _RIGHT, _RELATIONS = _relations()


def algebraic_constraint_residuals(cs: CurrentSet) -> ConstraintResiduals:
    """Scalar rearrangement relation, tensor-current elimination, and the
    single surviving quadratic constraint: quadratic forms in the currents
    (:func:`_relations`), the elimination divided by 12 Z.
    """
    u, d = _point(cs, cs.S, cs.Sflat, cs.J, cs.H, cs.K, cs.Z)
    q = _times(u[..., _LEFT], u[..., _RIGHT]) @ _RELATIONS
    scalar_fierz, quadratic = _ratio(q[..., :2], np.array([18, 36]) * d * d)[0]
    singular = z_is_singular(cs)
    k_elim = None
    if not singular:
        k_elim = _ratio(q[..., 2:], 12 * d, u[..., 26:])[0].reshape(4, 4)
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
    """zeta Phi Phi_tilde zeta - Ztilde zeta, and Z^2 - |Ztilde|^2.

    Both run on Phi, Z and Ztilde as one row over one denominator: the
    sandwich is the outer product of zeta Phi and Phi_tilde zeta.
    """
    phi = as_wavefunction(phi, rep.mode)
    if phi.shape != (5,):
        raise ShapeError(f"wavefunction has shape {phi.shape}, want (5,)")
    if cs is None:
        cs = compute_currents(rep, phi)
    row, d = _point(cs, cs.Z, cs.tilde_Z, phi)
    Z, tilde_Z, z = row[..., :1], row[..., 1:2], row[..., 2:]
    m = rep.integers
    zeta_phi, phi_zeta = z @ m.zeta.T, z @ m.eta @ m.zeta  # zeta Phi and Phi_tilde zeta
    outer = _times(zeta_phi[..., :, None], phi_zeta[..., None, :])
    sandwich = _ratio(outer - d * tilde_Z[..., None] * m.zeta, d * d)
    modulus = _ratio(_times(Z, Z) - _times(_conj(tilde_Z), tilde_Z), d * d)
    return ZetaResiduals(sandwich=sandwich[0], modulus=modulus[0, 0])


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


#: The lower-triangle tensor columns (nu > mu) as (source column, sign), each
#: sign times its source: K*_munu = K_numu (Hermitian) and K-tilde_munu =
#: K-tilde_numu (symmetric).
MIRRORED_COLUMNS = {
    f"{p}{k}{n}{m}": (f"{p}{k}{m}{n}", -1 if (p, k) == ("Im", "K") else 1)
    for k in ("K", "Kt") for m in range(4) for n in range(m + 1, 4) for p, _ in _PARTS
}


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
    """Per-point currents over a 4D lattice; leading axes are the grid, and
    ``mask`` marks the Z-singular points (:func:`singular_mask`)."""

    extents: tuple
    spacing: tuple
    mask: np.ndarray


def compute_currents_grid(rep: KemmerRep, grid: FieldGrid) -> CurrentGrid:
    """Currents at every grid point; CurrentOverflowError unless all (Z, Z-tilde too) are finite."""
    return _grid_set(rep, grid, _FIELDS)


def lattice_currents(rep: KemmerRep, grid: FieldGrid) -> CurrentGrid:
    """The currents the lattice stack reads: S, Sflat, Z, J, H and Z-tilde (with
    S-tilde, S-tilde-flat); K, tilde_J and tilde_K are None.  Each field equals
    the one of :func:`compute_currents_grid` bit for bit, and only these are
    checked for overflow.  On the reference representation they read the
    parts of 13 of the 25 Hermitian pairs and of 5 tilde pairs."""
    return _grid_set(rep, grid, ("S", "Sflat", "J", "H", "tilde_S", "tilde_Sflat"))


def _grid_set(rep, grid, fields):
    """The currents ``fields`` of a wavefunction grid as a CurrentGrid;
    CurrentOverflowError unless all it holds (Z, Z-tilde too) are finite."""
    if rep.mode != FLOAT:
        raise ModeError("grid currents require a float-mode representation")
    if grid.kind != WAVEFUNCTION:
        raise ShapeError("grid currents require a wavefunction grid")
    with np.errstate(over="ignore", invalid="ignore"):
        cs = _current_set(FLOAT, _float_fields(rep, grid.values, fields))
    if not all(np.isfinite(v).all() for v in vars(cs).values() if isinstance(v, np.ndarray)):
        raise CurrentOverflowError("the currents of the grid overflow double precision")
    return CurrentGrid(**vars(cs), extents=grid.extents, spacing=grid.spacing, mask=singular_mask(cs))
