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

Each identity family is one array expression over its case axes, scaled
to clear its denominators (c_mu enters as 3 c_mu).  Exact mode runs it
in int64 on integer generators, raising ModeError for any other entry and
OverflowError where a product could pass half the int64 range; float
mode runs the same expressions on the complex matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ModeError, RepresentationDefectError
from .scalars import (
    EXACT,
    FLOAT,
    INT64_HALF,
    GaussianRational,
    as_fraction,
    check_mode,
    exact_int64,
    frac,
    is_exact_zero,
    magnitude,
)

#: Diagonal of the flat metric eta_{mu nu} = diag(1, -1, -1, -1).
METRIC_DIAG = (1, -1, -1, -1)

_SIG = np.array(METRIC_DIAG)


def minkowski_dot(u, v):
    """eta^{mu nu} u_mu v_nu for two lower-index four-vectors."""
    return sum(METRIC_DIAG[m] * u[m] * v[m] for m in range(4))


def raise_index(v):
    """Raise the last axis of a lower-index four-vector (array) with eta."""
    return np.asarray(v) * _SIG


@dataclass(frozen=True, eq=False)
class KemmerRep:
    """Concrete representation bundle: generators plus derived elements.

    All matrices are 5x5; exact mode stores numpy object arrays with
    Fraction entries, float mode complex128 arrays.  Instances are
    immutable by contract and safe to share across threads.
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
    def basis(self):
        """The 25 canonical basis matrices as a tuple, built once.

        Order: I; b_0..b_3; companions c_0..c_3; b_mu b_nu row-major.
        """
        pairs = [self.beta[m] @ self.beta[n] for m in range(4) for n in range(4)]
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


def _exact_matrix(rows):
    out = np.empty((5, 5), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = as_fraction(x)
    return out


def _identity_matrix(mode):
    if mode == EXACT:
        return _exact_matrix(np.eye(5, dtype=int))
    return np.eye(5, dtype=complex)


def representation_from_betas(beta, mode) -> KemmerRep:
    """Assemble the derived elements from four lower-index generators.

    Used both for the reference representation and for deliberately
    corrupted ones in defect tests; no identity is assumed to hold.
    """
    check_mode(mode)
    beta = tuple(beta)
    ident = _identity_matrix(mode)
    beta_sq = sum(METRIC_DIAG[m] * (beta[m] @ beta[m]) for m in range(4))
    third = frac(1, 3, mode)
    beta_dot = tuple((beta[m] @ beta_sq - beta_sq @ beta[m]) * third for m in range(4))
    eta = 2 * (beta[0] @ beta[0]) - ident
    zeta = ident - beta_sq
    return KemmerRep(
        mode=mode,
        beta=beta,
        beta_dot=beta_dot,
        beta_sq=beta_sq,
        eta=eta,
        zeta=zeta,
        identity=ident,
    )


def build_representation(mode=EXACT) -> KemmerRep:
    """The reference representation in the requested scalar mode."""
    check_mode(mode)
    betas = []
    for mu in range(4):
        raised = [[0] * 5 for _ in range(5)]
        raised[mu][4] = 1
        raised[4][mu] = METRIC_DIAG[mu]
        lower = [[METRIC_DIAG[mu] * x for x in row] for row in raised]
        if mode == EXACT:
            betas.append(_exact_matrix(lower))
        else:
            betas.append(np.array(lower, dtype=complex))
    return representation_from_betas(betas, mode)


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
    P = e("mij,njk->mnik", b, b)
    Pb = e("mrij,njk->mrnik", P, b)
    PP = e("klij,mnjx->klmnix", P, P)
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
        ("contraction", 1, 2, [
            e("m,mij,rjk,mkl->ril", _SIG, b, b, b) - b,
            e("m,mij,rsjk,mkl->rsil", _SIG, b, P, b) - e("rs,ij->rsij", _G, ident)]),
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
    reserved for malformed representations.  Each family is one batched
    array expression over its case axes, scaled to clear its
    denominators.  Exact mode runs it in int64: it needs integer
    generators (ModeError otherwise) and raises OverflowError when a
    product of six matrices could pass half the int64 range; a family
    passes iff every residual entry is exactly zero.  Float mode runs the
    same expressions on the complex matrices; a family passes iff the
    maximum absolute residual is below ``tol``.
    """
    _validate_rep(rep)
    exact = rep.mode == EXACT
    mats = [np.stack(rep.beta), 3 * np.stack(rep.beta_dot),
            rep.beta_sq, rep.eta, rep.zeta, rep.identity]
    if exact:
        mats = [exact_int64(m) for m in mats]
        top = max(max(int(m.max()), -int(m.min())) for m in mats)
        if 5**5 * top**6 > INT64_HALF:
            raise OverflowError(f"int64 identity residuals could reach 5^5 * {top}^6")
    return [_identity_check(*family, exact, tol) for family in _identity_families(*mats)]


def basis_matrices(rep: KemmerRep):
    """The 25 canonical basis matrices in serialization order.

    Order: I; b_0..b_3; companions c_0..c_3; b_mu b_nu row-major in (mu, nu).
    """
    return list(rep.basis)


def _exact_rank(rows):
    """Rank of a matrix of exact scalars by fraction-free-enough elimination."""
    work = [[GaussianRational(x) if not isinstance(x, GaussianRational) else x for x in row] for row in rows]
    nrows, ncols = len(work), len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, nrows):
            f = work[r][col]
            if f:
                f = f * inv
                work[r] = [a - f * p for a, p in zip(work[r], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


def enumerate_basis(rep: KemmerRep, tol=1e-9):
    """Return the 25 basis matrices and their rank as 25-vectors.

    Raises :class:`RepresentationDefectError` when the rank drops below
    25 (e.g. for the trivial representation with all generators zero).
    Also re-checks that b^2 is the metric contraction of the products.
    """
    _validate_rep(rep)
    mats = basis_matrices(rep)
    if rep.mode == EXACT:
        rank = _exact_rank([list(m.reshape(-1)) for m in mats])
    else:
        stack = np.stack([m.reshape(-1) for m in mats])
        rank = int(np.linalg.matrix_rank(stack, tol=tol))
    if rank < 25:
        raise RepresentationDefectError(
            f"canonical basis has rank {rank}, expected 25", rank=rank
        )
    recon = sum(METRIC_DIAG[m] * mats[9 + 5 * m] for m in range(4))  # b_m b_m
    diff = recon - rep.beta_sq
    if rep.mode == EXACT:
        ok = all(is_exact_zero(x) for x in diff.reshape(-1))
    else:
        ok = max(magnitude(x) for x in diff.reshape(-1)) <= tol
    if not ok:
        raise RepresentationDefectError("b^2 is not the metric trace of the products")
    return mats, rank
