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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModeError, RepresentationDefectError
from .scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    as_fraction,
    check_mode,
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
    def current_matrices(self):
        """The 26 current matrices as a (26, 5, 5) stack.

        Order: I; b^2; b_0..b_3; companions c_0..c_3; b_mu b_nu row-major.
        """
        return np.stack([self.identity, self.beta_sq] + basis_matrices(self)[1:])

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
    """Result record for one identity family."""

    name: str
    cases: int
    max_abs: float
    rms: float
    exact_zero: bool
    passed: bool


def _matrix_entries(obj):
    a = np.asarray(obj)
    if a.ndim == 0:
        return [a.item()]
    return list(a.reshape(-1))


def verify_algebra_identities(rep: KemmerRep, tol=1e-12):
    """Check every matrix identity family; returns one record per family.

    Failures are reported in the records, never raised; exceptions are
    reserved for malformed representations.  In exact mode a family
    passes iff every residual entry is exactly zero; in float mode iff
    the maximum absolute residual is below ``tol``.
    """
    _validate_rep(rep)
    exact = rep.mode == EXACT
    g = METRIC_DIAG
    b, bd = rep.beta, rep.beta_dot
    bsq, eta, zeta, ident = rep.beta_sq, rep.eta, rep.zeta, rep.identity
    P = [[b[m] @ b[n] for n in range(4)] for m in range(4)]

    def q(num, den):
        return frac(num, den, rep.mode)

    checks = []

    def family(name, residuals):
        cases = 0
        entries_seen = 0
        sum_sq = 0.0
        max_abs = 0.0
        all_zero = True
        for r in residuals:
            cases += 1
            for entry in _matrix_entries(r):
                entries_seen += 1
                if not is_exact_zero(entry):
                    all_zero = False
                    a = magnitude(entry)
                    sum_sq += a * a
                    if a > max_abs:
                        max_abs = a
        rms = (sum_sq / entries_seen) ** 0.5 if entries_seen else 0.0
        passed = all_zero if exact else max_abs <= tol
        checks.append(IdentityCheck(name, cases, max_abs, rms, all_zero, passed))

    def trilinear():
        for mu in range(4):
            for rho in range(4):
                for nu in range(4):
                    r = P[mu][rho] @ b[nu] + P[nu][rho] @ b[mu]
                    if mu == rho:
                        r = r - g[mu] * b[nu]
                    if nu == rho:
                        r = r - g[nu] * b[mu]
                    yield r

    family("defining_trilinear", trilinear())

    def trace_quadratic():
        for mu in range(4):
            for nu in range(4):
                e = 2 * g[mu] if mu == nu else 0
                yield np.trace(P[mu][nu]) - e
                yield np.trace(bd[mu] @ bd[nu]) + e

    family("trace_quadratic", trace_quadratic())

    def trace_quartic():
        # Tr(b_k b_l b_m b_n) = eta_kl eta_mn + eta_kn eta_lm; the pairing
        # follows from the quartic reduction and is re-verified by it below.
        for k in range(4):
            for l in range(4):
                for mm in range(4):
                    for n in range(4):
                        e = 0
                        if k == l and mm == n:
                            e += g[k] * g[mm]
                        if k == n and l == mm:
                            e += g[k] * g[l]
                        yield np.trace(P[k][l] @ P[mm][n]) - e

    family("trace_quartic", trace_quartic())

    def cubic_reduction():
        half = q(1, 2)
        for lam in range(4):
            for mu in range(4):
                for nu in range(4):
                    r = P[lam][mu] @ b[nu]
                    if lam == mu:
                        r = r - half * g[lam] * (b[nu] - bd[nu])
                    if nu == mu:
                        r = r - half * g[nu] * (b[lam] + bd[lam])
                    yield r

    family("cubic_reduction", cubic_reduction())

    def quartic_reduction():
        third = q(1, 3)
        for k in range(4):
            for l in range(4):
                for mm in range(4):
                    for n in range(4):
                        r = P[k][l] @ P[mm][n]
                        if l == mm:
                            r = r - g[l] * P[k][n]
                        coeff = 0
                        if k == l and mm == n:
                            coeff += g[k] * g[mm]
                        if mm == l and k == n:
                            coeff -= g[mm] * g[k]
                        if coeff:
                            r = r - third * coeff * (bsq - ident)
                        yield r

    family("quartic_reduction", quartic_reduction())

    family(
        "companion_product",
        (bd[m] @ bd[n] + P[m][n] for m in range(4) for n in range(4)),
    )

    def mixed_product():
        tt = q(2, 3)
        for m in range(4):
            for n in range(4):
                r = bd[m] @ b[n] - P[m][n]
                if m == n:
                    r = r + tt * g[m] * (bsq - ident)
                yield r
                yield b[m] @ bd[n] + bd[m] @ b[n]

    family("mixed_product", mixed_product())

    def beta_square_product():
        fh, th = q(5, 2), q(3, 2)
        for m in range(4):
            yield b[m] @ bsq - fh * b[m] - th * bd[m]
            yield bsq @ b[m] - fh * b[m] + th * bd[m]

    family("beta_square_product", beta_square_product())

    def contraction():
        for rho in range(4):
            yield sum(g[m] * (b[m] @ b[rho] @ b[m]) for m in range(4)) - b[rho]
        for rho in range(4):
            for sig in range(4):
                r = sum(g[m] * (b[m] @ P[rho][sig] @ b[m]) for m in range(4))
                if rho == sig:
                    r = r - g[rho] * ident
                yield r

    family("contraction", contraction())

    def eta_relations():
        yield eta @ eta - ident
        yield eta - eta.T
        yield eta - np.conj(eta)
        for m in range(4):
            yield eta @ b[m].T @ eta - b[m]
            yield eta @ bd[m].T @ eta + bd[m]

    family("eta_relations", eta_relations())

    def zeta_relations():
        yield zeta @ zeta + 3 * zeta
        yield zeta @ bsq @ zeta + 12 * zeta
        for m in range(4):
            yield zeta @ b[m] @ zeta
        for m in range(4):
            for n in range(4):
                r = zeta @ P[m][n] @ zeta
                if m == n:
                    r = r + 3 * g[m] * zeta
                yield r

    family("zeta_relations", zeta_relations())

    return checks


def basis_matrices(rep: KemmerRep):
    """The 25 canonical basis matrices in serialization order.

    Order: I; b_0..b_3; companions c_0..c_3; b_mu b_nu row-major in (mu, nu).
    """
    mats = [rep.identity]
    mats.extend(rep.beta)
    mats.extend(rep.beta_dot)
    for m in range(4):
        for n in range(4):
            mats.append(rep.beta[m] @ rep.beta[n])
    return mats


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
    recon = sum(METRIC_DIAG[m] * (rep.beta[m] @ rep.beta[m]) for m in range(4))
    diff = recon - rep.beta_sq
    if rep.mode == EXACT:
        ok = all(is_exact_zero(x) for x in diff.reshape(-1))
    else:
        ok = max(magnitude(x) for x in diff.reshape(-1)) <= tol
    if not ok:
        raise RepresentationDefectError("b^2 is not the metric trace of the products")
    return mats, rank
