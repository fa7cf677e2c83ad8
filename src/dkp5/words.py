"""Reduction of generator words onto the 25-element basis by integer matrices.

A word (w1, ..., wn) denotes the matrix product b_{w1} ... b_{wn}.  The
basis {I; b_mu; c_mu; b_mu b_nu} (c_mu the companion generator) is closed
under right multiplication by b_nu through the cubic rewrite

    b_lam b_mu b_nu = (eta_{lam mu} (b_nu - c_nu) + eta_{nu mu} (b_lam + c_lam)) / 2

and the mixed product c_mu b_nu = b_mu b_nu - (2/3) eta_{mu nu} (b^2 - I).
Their denominators are 2 and 3, so ``RIGHT6[nu]``, six times the matrix
that takes a coefficient row vector to the combination times b_nu, is an
integer 25x25 matrix, and reducing a word is a chain of matrix products
(confluent by linearity).  ``STRUCTURE648[j]``, 648 times the right
multiplication by basis element j, follows from RIGHT6 by products alone,
with c_nu = (b_nu b^2 - b^2 b_nu) / 3.  The test suite checks both tables
against the explicit matrices.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import METRIC_DIAG, basis_matrices
from .errors import ModeError, WordIndexError
from .scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    check_mode,
    checked_matmul,
    to_complex,
)

N_BASIS = 25
IDX_I = 0

#: Words of the previous length extended and checked per block of the
#: sweep; bounds the block's arrays whatever the word length.
_BLOCK = 4096


def idx_beta(mu):
    return 1 + mu


def idx_companion(mu):
    return 5 + mu


def idx_pair(mu, nu):
    return 9 + 4 * mu + nu


BASIS_LABELS = tuple(
    ["I"]
    + [f"b{m}" for m in range(4)]
    + [f"c{m}" for m in range(4)]
    + [f"b{m}b{n}" for m in range(4) for n in range(4)]
)


def _right6():
    """RIGHT6[nu], row i: 6 (basis_i b_nu) on the basis."""
    g = METRIC_DIAG
    sq_minus_i = np.zeros(N_BASIS, dtype=np.int64)  # b^2 - I on the basis
    sq_minus_i[[IDX_I] + [idx_pair(rho, rho) for rho in range(4)]] = (-1, *g)
    r = np.zeros((4, N_BASIS, N_BASIS), dtype=np.int64)
    for nu in range(4):
        r[nu, IDX_I, idx_beta(nu)] = 6
        for mu in range(4):
            r[nu, idx_beta(mu), idx_pair(mu, nu)] = 6
            r[nu, idx_companion(mu), idx_pair(mu, nu)] = 6
        # c_mu b_nu = b_mu b_nu - (2/3) eta_{mu nu} (b^2 - I)
        r[nu, idx_companion(nu)] -= 4 * g[nu] * sq_minus_i
        for lam in range(4):
            # The cubic rewrite: its eta_{lam mu} term, then its eta_{nu mu} term.
            r[nu, idx_pair(lam, lam), [idx_beta(nu), idx_companion(nu)]] += (3 * g[lam], -3 * g[lam])
            r[nu, idx_pair(lam, nu), [idx_beta(lam), idx_companion(lam)]] += 3 * g[nu]
    return r


def _structure648(r6):
    """STRUCTURE648[j], row i: 648 (basis_i basis_j) on the basis."""
    sq36 = np.einsum("r,rij,rjk->ik", np.array(METRIC_DIAG), r6, r6)  # 36 R_{b^2}
    t = np.empty((N_BASIS, N_BASIS, N_BASIS), dtype=np.int64)
    t[IDX_I] = 648 * np.eye(N_BASIS, dtype=np.int64)
    t[idx_beta(0):idx_beta(4)] = 108 * r6
    t[idx_companion(0):idx_companion(4)] = r6 @ sq36 - sq36 @ r6
    t[idx_pair(0, 0):] = 18 * np.einsum("mij,njk->mnik", r6, r6).reshape(16, N_BASIS, N_BASIS)
    return t


RIGHT6 = _right6()
STRUCTURE648 = _structure648(RIGHT6)


class BasisCombination:
    """Linear combination over the canonical 25-element basis."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs, mode=EXACT):
        check_mode(mode)
        coeffs = list(coeffs)
        if len(coeffs) != N_BASIS:
            raise ValueError(f"expected {N_BASIS} coefficients, got {len(coeffs)}")
        if mode == EXACT:
            coeffs = [
                c if isinstance(c, GaussianRational) else GaussianRational(c)
                for c in coeffs
            ]
        else:
            coeffs = [complex(c) for c in coeffs]
        self.coeffs = coeffs
        self.mode = mode

    @classmethod
    def zero(cls, mode=EXACT):
        return cls([0] * N_BASIS, mode)

    @classmethod
    def unit(cls, idx, mode=EXACT):
        coeffs = [0] * N_BASIS
        coeffs[idx] = 1
        return cls(coeffs, mode)

    def nonzero(self):
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def to_float(self):
        return BasisCombination([to_complex(c) for c in self.coeffs], FLOAT)

    def __eq__(self, other):
        if not isinstance(other, BasisCombination):
            return NotImplemented
        return self.mode == other.mode and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        terms = [f"{c}*{BASIS_LABELS[i]}" for i, c in self.nonzero()]
        return f"BasisCombination({' + '.join(terms) or '0'})"

    def to_json_obj(self):
        """Exact: 25 entries [num_re, den_re, num_im, den_im]; float: [re, im]."""
        if self.mode == EXACT:
            return [
                [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
                for c in self.coeffs
            ]
        return [[c.real, c.imag] for c in self.coeffs]

    @classmethod
    def from_json_obj(cls, obj, mode=EXACT):
        if mode == EXACT:
            coeffs = [
                GaussianRational(Fraction(a, b), Fraction(c, d)) for a, b, c, d in obj
            ]
        else:
            coeffs = [complex(re, im) for re, im in obj]
        return cls(coeffs, mode)


def reduce_word(word) -> BasisCombination:
    """Canonical basis expansion of b_{w1} ... b_{wn}: e_I 6R_{w1} ... 6R_{wn} / 6^n.

    The empty word reduces to the identity element.
    """
    word = list(word)
    for idx in word:
        if not isinstance(idx, (int, np.integer)) or not 0 <= idx <= 3:
            raise WordIndexError(f"generator index {idx!r} outside 0..3")
    acc = np.eye(N_BASIS, dtype=object)[IDX_I]
    for nu in word:
        acc = acc @ RIGHT6[nu].astype(object)  # Python ints: exact at any length
    scale = 6 ** len(word)
    return BasisCombination([Fraction(c, scale) for c in acc], EXACT)


def combination_product(c1: BasisCombination, c2: BasisCombination) -> BasisCombination:
    """Product of two basis combinations: c1 (sum_j c2_j STRUCTURE648[j]) / 648."""
    if c1.mode != EXACT or c2.mode != EXACT:
        raise ModeError("combination products are defined for exact mode")
    a, b = (np.array(c.coeffs, dtype=object) for c in (c1, c2))
    i, j = a.nonzero()[0], b.nonzero()[0]  # zero coefficients contribute nothing
    right = np.tensordot(b[j], STRUCTURE648[np.ix_(j, i)].astype(object), axes=1)
    return BasisCombination(a[i] @ right * Fraction(1, 648), EXACT)


def eval_basis_combination(rep, combo: BasisCombination, basis=None):
    """Sum of coefficients times basis matrices for the given representation."""
    if combo.mode != rep.mode:
        raise ModeError(
            f"combination mode {combo.mode!r} does not match representation mode {rep.mode!r}"
        )
    if basis is None:
        basis = basis_matrices(rep)
    if rep.mode == EXACT:
        out = np.full((5, 5), Fraction(0), dtype=object)
        for i, c in combo.nonzero():
            # Real coefficients stay in plain Fraction arithmetic.
            out = out + (c.re * basis[i] if not c.im else c * basis[i])
    else:
        out = np.zeros((5, 5), dtype=complex)
        for i, c in combo.nonzero():
            out = out + c * basis[i]
    return out


def word_matrix_product(rep, word):
    """Direct matrix product along the word; the reduction oracle."""
    out = rep.identity
    for nu in word:
        out = out @ rep.beta[nu]
    return out


def word_reduction_sweep(rep, max_len, tol=1e-12):
    """Check eval(reduce(w)) == product(w) for every word with 1 <= |w| <= max_len.

    Takes one word length L at a time, its words in blocks of ``_BLOCK``
    words of length L-1, one product each: coefficient rows
    C_L = C_(L-1) RIGHT6[nu] and oracle products P_L = P_(L-1) (6 b_nu)
    from P_0 = 3 I, both 6^L times the true values, then compares
    C_L (3 B) with P_L, B the basis matrices flattened.  The last length
    is never held whole, so the next-to-last one sets the peak memory.
    Both modes run on the representation's scaled view, int64 or
    complex.  Exact mode bounds every product first, raising
    OverflowError rather than wrap round, and counts a mismatch where a
    residual is not zero; float mode counts one where it exceeds ``tol``.
    Returns (words_checked, mismatches, max_abs_residual).
    """
    exact = rep.mode == EXACT
    v = rep.integers
    six_beta = checked_matmul(v.beta, 6 * np.eye(5, dtype=np.int64))
    basis3 = checked_matmul(3 * np.eye(N_BASIS, dtype=np.int64), v.basis.reshape(N_BASIS, 25))
    basis3[5:9] = v.c3.reshape(4, 25)  # the view's basis has 3 c_mu already
    prods = 3 * v.identity[None]
    # Column block nu of the (25, 100) table is 6 R_nu, so row 4 k + nu of
    # the next level extends word k by nu.
    right6 = RIGHT6.transpose(1, 0, 2).reshape(N_BASIS, 4 * N_BASIS)
    coeffs = np.eye(N_BASIS, dtype=np.int64)[[IDX_I]]
    words = mismatches = 0
    max_res = 0.0
    for length in range(1, max_len + 1):
        scale = 3 * 6**length
        keep = length < max_len
        if keep:
            next_coeffs = np.empty((4 * len(coeffs), N_BASIS), dtype=np.int64)
            next_prods = np.empty((4 * len(prods), 5, 5), dtype=prods.dtype)
        for s in range(0, len(coeffs), _BLOCK):
            c = checked_matmul(coeffs[s : s + _BLOCK], right6).reshape(-1, N_BASIS)
            p = checked_matmul(prods[s : s + _BLOCK, None], six_beta).reshape(-1, 5, 5)
            if keep:
                next_coeffs[4 * s : 4 * s + len(c)] = c
                next_prods[4 * s : 4 * s + len(p)] = p
            # In place: the block's arrays stay the only temporaries.
            lhs = checked_matmul(c, basis3)
            lhs -= p.reshape(-1, 25)
            worst = np.abs(lhs, out=lhs).max(axis=1)
            if exact:
                mismatches += int(np.count_nonzero(worst))
                max_res = max(max_res, float(Fraction(int(worst.max()), scale)))
            else:
                worst = worst.real / scale
                mismatches += int((worst > tol).sum())
                max_res = max(max_res, float(worst.max()))
        words += 4 ** length
        if keep:
            coeffs, prods = next_coeffs, next_prods
    return words, mismatches, max_res
