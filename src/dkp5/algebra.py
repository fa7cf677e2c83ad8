"""Explicit 5-dimensional representation of the Kemmer matrix algebra.

The defining trilinear relation

    b_mu b_rho b_nu + b_nu b_rho b_mu = eta_{mu rho} b_nu + eta_{nu rho} b_mu

admits a 5-dimensional irreducible representation whose generators can be
chosen with integer entries: writing E[a,b] for the matrix unit, the
raised-index generators have their only nonzero entries at

    (b^mu)[mu, 4] = 1,     (b^mu)[4, mu] = eta^{mu mu},

and lower-index generators follow by contraction with the metric
diag(1, -1, -1, -1).  With this choice b^2 = diag(1, 1, 1, 1, 4), the
involution matrix eta = 2 b_0^2 - I is diagonal, and every identity the
package verifies holds over the integers, so the exact mode can assert
zero residuals literally.

Nothing here trusts the construction: :func:`verify_algebra_identities`
re-derives every identity family from the matrices themselves, and
:func:`enumerate_basis` re-checks that the 25 canonical elements
{I, b_mu, companion c_mu, b_mu b_nu} are linearly independent.

Both scalar modes build a representation by one code path: b, b^2,
c3 = b b^2 - b^2 b and eta in int64 from integer generators (exact mode;
ModeError otherwise, and OverflowError, never wrap round, where a
product could pass half the int64 range) or in complex128 (float mode).
Exact fields are then boxed into Fractions once.  Each representation
caches one scaled view of its fields, ``KemmerRep.integers`` (c_mu
entering as 3 c_mu), int64 or complex128, which every stage reads: the
identity families, each one array expression over its case axes scaled
to clear its denominators; the basis rank; the word sweep, the currents
and the Fierz residuals.  The modes part only where the meaning does: a
literal zero against a tolerance, the rank by fraction-free Bareiss
elimination against the SVD, and the boxing at the public edges.  Where
an exact stage's values have no fixed bound (the rank, the currents, the
Fierz residuals), a bound computed in Python ints picks int64 or Python
ints (``scalars.bounded``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import ModeError, RepresentationDefectError
from .scalars import (EXACT, FLOAT, INT64_HALF, bounded, check_mode, checked_matmul, column_top,
                      exact_int64, top)

#: Diagonal of the flat metric eta_{mu nu} = diag(1, -1, -1, -1).
METRIC_DIAG = (1, -1, -1, -1)

_SIG = np.array(METRIC_DIAG)


def minkowski_dot(u, v):
    """eta^{mu nu} u_mu v_nu for two lower-index four-vectors."""
    return sum(METRIC_DIAG[m] * u[m] * v[m] for m in range(4))


def raise_index(v):
    """Raise the last axis of a lower-index four-vector (array) with eta."""
    return np.asarray(v) * _SIG


def _boxed(ints, den=1):
    """int64 matrices as an object array of Fractions over ``den``; each
    distinct value is boxed once."""
    flat = ints.ravel().tolist()
    boxes = {v: Fraction(v, den) for v in set(flat)}
    return np.array([boxes[v] for v in flat], dtype=object).reshape(ints.shape)


def _fierz18():
    """18 times the closed-form Fierz weights, with c_mu taken as 3 c_mu.

    Row vector (S, Sflat, J, 3H, K) times this matrix gives the weights on
    the 26 current matrices; the tensor weight is raised, K^{nu mu} on
    b_mu b_nu.  These are the coefficients of ``bilinears.fierz_decompose``.
    """
    w = np.zeros((26, 26), dtype=np.int64)
    w[:2, :2] = [[10, -4], [-4, -2]]
    w[2:6, 2:6] = np.diag(9 * _SIG)
    w[6:10, 6:10] = np.diag(-_SIG)
    k = np.arange(16).reshape(4, 4)
    w[10 + k.T, 10 + k] = 18 * np.outer(_SIG, _SIG)
    return w


_FIERZ18 = _fierz18()


@dataclass(frozen=True, eq=False)
class KemmerRep:
    """Concrete representation bundle: generators plus derived elements.

    All matrices are 5x5; exact mode stores numpy object arrays with
    Fraction entries, float mode complex128 arrays, and both cache their
    scaled view in ``integers``.  Instances are immutable by contract and
    safe to share across threads.
    """

    mode: str
    beta: tuple          # lower-index generators b_0..b_3
    beta_dot: tuple      # companion generators c_mu = (b_mu b^2 - b^2 b_mu)/3
    beta_sq: np.ndarray  # b^2 = eta^{mu nu} b_mu b_nu
    eta: np.ndarray      # involution matrix implementing transpose equivalence
    zeta: np.ndarray     # I - b^2, the scaled projector (zeta^2 = -3 zeta)
    identity: np.ndarray
    metric: tuple = METRIC_DIAG

    def beta_upper(self, mu):
        """Raised-index generator b^mu = eta^{mu mu} b_mu."""
        return METRIC_DIAG[mu] * self.beta[mu]

    @cached_property
    def integers(self) -> SimpleNamespace:
        """The fields scaled so that c_mu enters as c3 = 3 c_mu, built once: int64
        in exact mode (ModeError for a non-integer entry, every product
        checked against overflow), complex128 in float mode.

        ``beta``, ``c3``, ``beta_sq``, ``eta``, ``zeta`` and ``identity``;
        ``basis`` (25, 5, 5) and ``current`` (26, 5, 5) with 3 c_mu;
        ``table`` (25, 26), column k holding eta M_k flattened; ``weighted``
        (26, 25), the current matrices under the 18-fold Fierz weights; and
        ``tops``, the largest column abs-sums of ``table``, ``weighted`` and
        ``eta`` (``scalars.column_top``), which bound exact Fierz residuals.
        """
        fields = [*self.beta, *(3 * np.stack(self.beta_dot)),
                  self.beta_sq, self.eta, self.zeta, self.identity]
        m = exact_int64(fields) if self.mode == EXACT else np.array(fields, dtype=complex)
        b, c3, (bsq, eta, zeta, ident) = m[:4], m[4:8], m[8:]
        pairs = checked_matmul(b[:, None], b).reshape(16, 5, 5)
        current = np.concatenate([ident[None], bsq[None], b, c3, pairs])
        table = checked_matmul(eta, current).reshape(26, 25).T
        weighted = checked_matmul(_FIERZ18, current.reshape(26, 25))
        return SimpleNamespace(beta=b, c3=c3, beta_sq=bsq, eta=eta, zeta=zeta, identity=ident,
                               basis=np.delete(current, 1, axis=0), current=current, table=table,
                               weighted=weighted, tops=tuple(map(column_top, (table, weighted, eta))))

    @cached_property
    def basis(self):
        """The 25 canonical basis matrices as a tuple, built once.

        Order: I; b_0..b_3; companions c_0..c_3; b_mu b_nu row-major.
        """
        pairs = self.integers.basis[9:]
        pairs = _boxed(pairs) if self.mode == EXACT else pairs
        return (self.identity, *self.beta, *self.beta_dot, *pairs)

    @cached_property
    def current_matrices(self):
        """The 26 current matrices as a (26, 5, 5) stack.

        Order: I; b^2; b_0..b_3; companions c_0..c_3; b_mu b_nu row-major.
        """
        return np.stack([self.identity, self.beta_sq, *self.basis[1:]])

    @cached_property
    def current_table(self):
        """(25, 26) table whose column k is eta M_k flattened.

        Row 5a + b pairs left[a] with phi[b], so Phi_bar M_k Phi is the
        product of the pairs conj(phi)[a] phi[b] with column k.
        """
        return np.stack([(self.eta @ m).reshape(25) for m in self.current_matrices], axis=1)


def representation_from_betas(beta, mode) -> KemmerRep:
    """Assemble the derived elements from four lower-index generators.

    Used both for the reference representation and for deliberately
    corrupted ones in defect tests; no identity is assumed to hold.
    The generators are copied: int64 in exact mode, which needs integer
    ones (ModeError otherwise) and raises OverflowError where a product
    could pass half the int64 range, complex128 in float mode.  Every
    product is then taken the same way in both; exact fields are boxed
    into Fractions, c_mu = c3 / 3 over the denominator 3.
    """
    exact = check_mode(mode) == EXACT
    b = exact_int64(tuple(beta)) if exact else np.array(beta, dtype=complex)
    ident = np.eye(5, dtype=b.dtype)
    # eta^{mu mu} b_mu b_mu as one product, (5, 20) by (20, 5); + 0 turns a
    # float -0 into 0, the bits of a sum that starts from 0
    bsq = checked_matmul(np.concatenate(_SIG[:, None, None] * b, axis=1), b.reshape(20, 5)) + 0
    c3 = checked_matmul(b, bsq) - checked_matmul(bsq, b)
    eta = 2 * checked_matmul(b[0], b[0]) - ident
    fields = np.concatenate([b, [bsq, eta, ident - bsq, ident]])
    fields, beta_dot = (_boxed(fields), _boxed(c3, 3)) if exact else (fields, c3 * (1 / 3))
    return KemmerRep(mode, tuple(fields[:4]), tuple(beta_dot), *fields[4:])


def build_representation(mode=EXACT) -> KemmerRep:
    """The reference representation in the requested scalar mode."""
    raised = np.zeros((4, 5, 5), dtype=np.int64)
    raised[range(4), range(4), 4] = 1
    raised[range(4), 4, range(4)] = METRIC_DIAG
    return representation_from_betas(_SIG[:, None, None] * raised, mode)


def _validate_rep(rep):
    if rep.mode not in (EXACT, FLOAT):
        raise ModeError(f"representation has unknown mode {rep.mode!r}")
    mats = list(rep.beta) + list(rep.beta_dot) + [rep.beta_sq, rep.eta, rep.zeta]
    for m in mats:
        if np.shape(m) != (5, 5):
            raise ModeError(f"representation matrix has shape {np.shape(m)}, want (5, 5)")


@dataclass(frozen=True)
class IdentityCheck:
    """Result record for one identity family.

    ``first_failure`` is None for a passing family; otherwise it is
    (case, entry): the index tuple of the first failing case along the
    family's case axes (prefixed by the part number for families of
    several parts), and the (row, col) of that case's largest entry, ()
    for a family of traces.
    """

    name: str
    cases: int
    max_abs: float
    rms: float
    exact_zero: bool
    passed: bool
    first_failure: tuple | None = None


#: eta_{mu nu} as a 4x4 matrix.
_G = np.diag(METRIC_DIAG)


def _identity_families(b, c3, bsq, eta, zeta, ident):
    """Every identity family as (name, scale, entry axes, parts).

    Each part holds scale times the family's residuals, over its case axes
    followed by ``entry axes`` residual axes (2 for matrices, 0 for
    traces); the scale clears every denominator, with c_mu taken as
    c3 = 3 c_mu, so integer matrices give integer residuals.
    """
    e = np.einsum
    # The products as batched matmuls: P[m, n] = b_m b_n, Pb[m, r, n] = b_m b_r b_n
    # and PP[k, l, m, n] = b_k b_l b_m b_n.
    P = b[:, None] @ b
    Pb = P[:, :, None] @ b
    PP = P[:, :, None, None] @ P
    c3b, bc3 = e("mij,njk->mnik", c3, b), e("mij,njk->mnik", b, c3)
    gg = e("kl,mn->klmn", _G, _G) - e("kn,ml->klmn", _G, _G)
    sq = bsq - ident
    return [
        ("defining_trilinear", 1, 2, [
            Pb + Pb.transpose(2, 1, 0, 3, 4)
            - e("mr,nij->mrnij", _G, b) - e("nr,mij->mrnij", _G, b)]),
        ("trace_quadratic", 9, 0, [np.stack([
            9 * e("mnii->mn", P) - 18 * _G,
            e("mij,nji->mn", c3, c3) + 18 * _G], axis=-1)]),
        # Tr(b_k b_l b_m b_n) = eta_kl eta_mn + eta_kn eta_lm; the pairing
        # follows from the quartic reduction and is re-verified by it below.
        ("trace_quartic", 1, 0, [
            e("klmnii->klmn", PP) - e("kl,mn->klmn", _G, _G) - e("kn,lm->klmn", _G, _G)]),
        ("cubic_reduction", 6, 2, [
            6 * Pb - e("lm,nij->lmnij", _G, 3 * b - c3) - e("nm,lij->lmnij", _G, 3 * b + c3)]),
        ("quartic_reduction", 3, 2, [
            3 * PP - 3 * e("lm,knij->klmnij", _G, P) - e("klmn,ij->klmnij", gg, sq)]),
        ("companion_product", 9, 2, [e("mij,njk->mnik", c3, c3) + 9 * P]),
        ("mixed_product", 3, 2, [np.stack([
            c3b - 3 * P + 2 * e("mn,ij->mnij", _G, sq), bc3 + c3b], axis=2)]),
        ("beta_square_product", 2, 2, [np.stack([
            2 * (b @ bsq) - 5 * b - c3, 2 * (bsq @ b) - 5 * b + c3], axis=1)]),
        # eta^mm b_m b_r b_m and eta^mm b_m b_r b_s b_m: the diagonals m = n of Pb and PP
        ("contraction", 1, 2, [
            np.diagonal(Pb, 0, 0, 2) @ _SIG - b,
            np.diagonal(PP, 0, 0, 3) @ _SIG - e("rs,ij->rsij", _G, ident)]),
        ("eta_relations", 3, 2, [
            3 * np.stack([eta @ eta - ident, eta - eta.T, eta - np.conj(eta)]),
            np.stack([3 * (eta @ b.transpose(0, 2, 1) @ eta - b),
                      eta @ c3.transpose(0, 2, 1) @ eta + c3], axis=1)]),
        ("zeta_relations", 1, 2, [
            np.stack([zeta @ zeta + 3 * zeta, zeta @ bsq @ zeta + 12 * zeta]),
            zeta @ b @ zeta,
            zeta @ P @ zeta + 3 * e("mn,ij->mnij", _G, zeta)]),
    ]


def _identity_check(name, scale, entry_axes, parts, exact, tol):
    """One family's record, in the original units, from its scaled residuals."""
    entry_shape = parts[0].shape[parts[0].ndim - entry_axes :]
    res = np.concatenate([p.reshape(-1, math.prod(entry_shape)) for p in parts])
    mag = np.abs(res)
    worst = mag.max(axis=1)
    if exact:
        max_abs = float(Fraction(int(worst.max()), scale))
        sum_sq = sum(int(x) ** 2 for x in res[res != 0])  # Python ints: no wrap
        rms = math.sqrt(sum_sq / (res.size * scale**2))
        failing = worst != 0
    else:
        max_abs = float(worst.max()) / scale
        rms = math.sqrt(float(np.sum(mag * mag)) / res.size) / scale
        failing = ~(worst / scale <= tol)
    exact_zero = not res.any()
    passed = exact_zero if exact else max_abs <= tol
    first = None
    if not passed:
        row = int(np.argmax(failing))
        cases = [(i,) * (len(parts) > 1) + case for i, p in enumerate(parts)
                 for case in np.ndindex(p.shape[: p.ndim - entry_axes])]
        entry = np.unravel_index(int(np.argmax(mag[row])), entry_shape)
        first = (cases[row], tuple(map(int, entry)))
    return IdentityCheck(name, len(res), max_abs, rms, exact_zero, passed, first)


def verify_algebra_identities(rep: KemmerRep, tol=1e-12):
    """Check every matrix identity family; returns one record per family.

    Failures are reported in the records, never raised; exceptions are
    reserved for malformed representations.  Both modes run on the
    scaled view.  Exact mode raises OverflowError when a product of six
    matrices could pass half the int64 range, and passes a family iff
    every residual entry is exactly zero; float mode passes it iff the
    maximum absolute residual is below ``tol``.
    """
    _validate_rep(rep)
    v = rep.integers
    mats = [v.beta, v.c3, v.beta_sq, v.eta, v.zeta, v.identity]
    exact = rep.mode == EXACT
    if exact and 5**5 * (t := max(map(top, mats))) ** 6 > INT64_HALF:
        raise OverflowError(f"int64 identity residuals could reach 5^5 * {t}^6")
    return [_identity_check(*family, exact, tol) for family in _identity_families(*mats)]


def basis_matrices(rep: KemmerRep):
    """The 25 canonical basis matrices in serialization order.

    Order: I; b_0..b_3; companions c_0..c_3; b_mu b_nu row-major in (mu, nu).
    """
    return list(rep.basis)


def _bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free elimination (E. H. Bareiss,
    Math. Comp. 22 (1968) 565-578), on int64 when the product of
    max(1, |row|^2) over the rows is within half the int64 range, else on
    Python ints.

    After each pivot every remaining entry is a minor of the input, so the
    division by the previous pivot is exact, and by Hadamard's inequality
    each product of two minors stays within that product: nothing rounds,
    and nothing wraps round.
    """
    a = np.array(rows, dtype=object)
    a = bounded(math.prod(max(1, sum(x * x for x in r)) for r in a.tolist()), a)[0]
    rank, prev = 0, 1
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        a[[rank, rank + nonzero[0]]] = a[[rank + nonzero[0], rank]]
        pivot, below = a[rank, col], a[rank + 1 :, col:]
        below[...] = (pivot * below - below[:, :1] * a[rank, col:]) // prev
        prev, rank = pivot, rank + 1
        if rank == len(a):
            break
    return rank


def enumerate_basis(rep: KemmerRep, tol=1e-9):
    """Return the 25 basis matrices and their rank as 25-vectors.

    Raises :class:`RepresentationDefectError` when the rank drops below
    25 (e.g. for the trivial representation with all generators zero).
    Also re-checks that b^2 is the metric contraction of the products.
    Both come from the scaled view (c_mu as 3 c_mu, which leaves the rank
    as it is): exact mode takes the rank by Bareiss elimination (on int64
    where its bound allows) and asks for a zero contraction residual;
    float mode takes the rank by SVD and holds the residual to ``tol``.
    """
    _validate_rep(rep)
    v = rep.integers
    exact = rep.mode == EXACT
    rows = v.basis.reshape(25, 25)
    rank = _bareiss_rank(rows) if exact else int(np.linalg.matrix_rank(rows, tol=tol))
    if rank < 25:
        raise RepresentationDefectError(
            f"canonical basis has rank {rank}, expected 25", rank=rank
        )
    diff = checked_matmul(_SIG, rows[9::5]) - v.beta_sq.reshape(25)  # rows b_m b_m
    if not (not diff.any() if exact else np.abs(diff).max() <= tol):
        raise RepresentationDefectError("b^2 is not the metric trace of the products")
    return basis_matrices(rep), rank
