from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp5 import (
    IdentityCheck,
    build_representation,
    enumerate_basis,
    minkowski_dot,
    raise_index,
    representation_from_betas,
    verify_algebra_identities,
)
from dkp5.errors import RepresentationDefectError
from dkp5.scalars import is_exact_zero, magnitude


def _all_zero(mat):
    return all(is_exact_zero(x) for x in np.asarray(mat).reshape(-1))


def test_reference_rep_derived_elements(exact_rep):
    bsq = exact_rep.beta_sq
    assert [bsq[i, i] for i in range(5)] == [1, 1, 1, 1, 4]
    assert _all_zero(bsq - np.diag([Fraction(x) for x in (1, 1, 1, 1, 4)]))
    zeta = exact_rep.zeta
    assert [zeta[i, i] for i in range(5)] == [0, 0, 0, 0, -3]
    eta = exact_rep.eta
    assert [eta[i, i] for i in range(5)] == [1, -1, -1, -1, 1]
    assert _all_zero(eta - (2 * (exact_rep.beta[0] @ exact_rep.beta[0]) - exact_rep.identity))


def test_zeta_is_scaled_projection(exact_rep):
    zeta = exact_rep.zeta
    assert _all_zero(zeta @ zeta + 3 * zeta)
    proj = zeta * Fraction(-1, 3)
    assert _all_zero(proj @ proj - proj)


def test_all_identity_families_exact(exact_rep):
    checks = verify_algebra_identities(exact_rep)
    assert len(checks) == 11
    for c in checks:
        assert isinstance(c, IdentityCheck)
        assert c.exact_zero and c.passed and c.max_abs == 0.0
    by_name = {c.name: c for c in checks}
    assert by_name["defining_trilinear"].cases == 64
    assert by_name["quartic_reduction"].cases == 256


def test_all_identity_families_float(float_rep):
    checks = verify_algebra_identities(float_rep, tol=1e-12)
    assert all(c.passed for c in checks)
    assert max(c.max_abs for c in checks) < 1e-13


def test_trace_values(exact_rep):
    b = exact_rep.beta
    assert np.trace(b[0] @ b[0]) == 2
    assert np.trace(b[1] @ b[1]) == -2
    assert np.trace(b[0] @ b[1]) == 0
    bd = exact_rep.beta_dot
    assert np.trace(bd[0] @ bd[0]) == -2


def test_corrupt_rep_flags_failures(exact_rep):
    betas = list(exact_rep.beta)
    betas[1] = 0 * betas[1]
    rep = representation_from_betas(betas, "exact")
    checks = {c.name: c for c in verify_algebra_identities(rep)}
    assert not checks["defining_trilinear"].passed
    # the surviving eta_1_1 * b_0 term makes (mu, rho, nu) = (1, 1, 0) fail
    b, g = rep.beta, (1, -1, -1, -1)
    resid = b[1] @ b[1] @ b[0] + b[0] @ b[1] @ b[1] - g[1] * b[0]
    assert not _all_zero(resid)


def test_first_failure_locates_the_case(exact_rep):
    betas = list(exact_rep.beta)
    betas[1] = 0 * betas[1]
    checks = {c.name: c for c in verify_algebra_identities(representation_from_betas(betas, "exact"))}
    # (mu, rho, nu) = (0, 1, 1) leaves -eta_11 b_0 = b_0, whose largest entry is
    # (0, 4); every earlier case in (mu, rho, nu) order vanishes.
    b, g = betas, (1, -1, -1, -1)
    assert checks["defining_trilinear"].first_failure == ((0, 1, 1), (0, 4))
    assert not _all_zero(b[0] @ b[1] @ b[1] + b[1] @ b[1] @ b[0] - g[1] * b[0])
    assert checks["trace_quartic"].first_failure == ((0, 0, 1, 1), ())
    assert checks["zeta_relations"].first_failure == ((0, 0), (1, 1))  # part 0, case 0
    assert checks["eta_relations"].passed and checks["eta_relations"].first_failure is None


def test_exact_identities_integer_policy(exact_rep):
    from test_words import _scaled_generator_rep

    from dkp5.errors import ModeError
    from dkp5.scalars import GaussianRational

    with pytest.raises(ModeError):
        verify_algebra_identities(_scaled_generator_rep(exact_rep, Fraction(1, 2)))
    with pytest.raises(ModeError):
        verify_algebra_identities(_scaled_generator_rep(exact_rep, GaussianRational(0, 1)))
    with pytest.raises(OverflowError):
        verify_algebra_identities(_scaled_generator_rep(exact_rep, 10**6))
    # Scaled by 3 the families fail, but they are still computed exactly.
    checks = verify_algebra_identities(_scaled_generator_rep(exact_rep, 3))
    assert not any(c.passed for c in checks if c.name != "eta_relations")


def test_basis_is_built_once(exact_rep):
    from dkp5 import basis_matrices

    mats = basis_matrices(exact_rep)
    assert len(mats) == 25 and all(a is b for a, b in zip(mats, exact_rep.basis))
    assert all(a is b for a, b in zip(enumerate_basis(exact_rep)[0], exact_rep.basis))


def test_basis_rank_25(exact_rep, float_rep):
    mats, rank = enumerate_basis(exact_rep)
    assert rank == 25 and len(mats) == 25
    _, rank_f = enumerate_basis(float_rep)
    assert rank_f == 25


def test_degenerate_rep_rank_error(exact_rep):
    betas = [0 * b for b in exact_rep.beta]
    rep = representation_from_betas(betas, "exact")
    with pytest.raises(RepresentationDefectError) as exc:
        enumerate_basis(rep)
    assert exc.value.rank == 1


def test_minkowski_helpers():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    assert minkowski_dot(u, u) == 1 - 4 - 9 - 16
    assert np.allclose(raise_index(u), [1.0, -2.0, -3.0, -4.0])


def test_malformed_rep_raises(exact_rep):
    import dataclasses

    from dkp5.errors import ModeError

    bad = dataclasses.replace(exact_rep, beta_sq=np.zeros((4, 4)))
    with pytest.raises(ModeError):
        verify_algebra_identities(bad)
    with pytest.raises(ModeError):
        enumerate_basis(bad)


# ---------------------------------------------------------------------------
# Reference oracle: the identity families as per-case loops over exact
# Fraction (or complex) 5x5 matrices, one residual at a time.

_R4 = range(4)
_CASES = {
    "defining_trilinear": list(product(_R4, _R4, _R4)),
    "trace_quadratic": list(product(_R4, _R4, range(2))),
    "trace_quartic": list(product(_R4, _R4, _R4, _R4)),
    "cubic_reduction": list(product(_R4, _R4, _R4)),
    "quartic_reduction": list(product(_R4, _R4, _R4, _R4)),
    "companion_product": list(product(_R4, _R4)),
    "mixed_product": list(product(_R4, _R4, range(2))),
    "beta_square_product": list(product(_R4, range(2))),
    "contraction": [(0, r) for r in _R4] + [(1, r, s) for r, s in product(_R4, _R4)],
    "eta_relations": [(0, k) for k in range(3)] + [(1, m, k) for m, k in product(_R4, range(2))],
    "zeta_relations": ([(0, k) for k in range(2)] + [(1, m) for m in _R4]
                       + [(2, m, n) for m, n in product(_R4, _R4)]),
}


def _reference_identities(rep, tol=1e-12):
    exact = rep.mode == "exact"
    g = (1, -1, -1, -1)
    b, bd = rep.beta, rep.beta_dot
    bsq, eta, zeta, ident = rep.beta_sq, rep.eta, rep.zeta, rep.identity
    P = [[b[m] @ b[n] for n in range(4)] for m in range(4)]

    def q(num, den):
        return Fraction(num, den) if exact else num / den

    checks = []

    def family(name, residuals):
        cases = entries_seen = 0
        sum_sq = max_abs = 0.0
        all_zero = True
        first = None
        for r in residuals:
            entries = list(np.asarray(r).reshape(-1))
            mags = [magnitude(x) for x in entries]
            if first is None and any((a != 0) if exact else not a <= tol for a in mags):
                entry = np.unravel_index(int(np.argmax(mags)), np.shape(r))
                first = (_CASES[name][cases], tuple(map(int, entry)))
            cases += 1
            for entry, a in zip(entries, mags):
                entries_seen += 1
                if not is_exact_zero(entry):
                    all_zero = False
                    sum_sq += a * a
                    max_abs = max(max_abs, a)
        rms = (sum_sq / entries_seen) ** 0.5
        passed = all_zero if exact else max_abs <= tol
        checks.append(IdentityCheck(name, cases, max_abs, rms, all_zero, passed,
                                    None if passed else first))

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
        for k, l, mm, n in product(range(4), repeat=4):
            e = 0
            if k == l and mm == n:
                e += g[k] * g[mm]
            if k == n and l == mm:
                e += g[k] * g[l]
            yield np.trace(P[k][l] @ P[mm][n]) - e

    family("trace_quartic", trace_quartic())

    def cubic_reduction():
        half = q(1, 2)
        for lam, mu, nu in product(range(4), repeat=3):
            r = P[lam][mu] @ b[nu]
            if lam == mu:
                r = r - half * g[lam] * (b[nu] - bd[nu])
            if nu == mu:
                r = r - half * g[nu] * (b[lam] + bd[lam])
            yield r

    family("cubic_reduction", cubic_reduction())

    def quartic_reduction():
        third = q(1, 3)
        for k, l, mm, n in product(range(4), repeat=4):
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

    family("companion_product", (bd[m] @ bd[n] + P[m][n] for m in range(4) for n in range(4)))

    def mixed_product():
        tt = q(2, 3)
        for m, n in product(range(4), repeat=2):
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
        for rho, sig in product(range(4), repeat=2):
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
        for m, n in product(range(4), repeat=2):
            r = zeta @ P[m][n] @ zeta
            if m == n:
                r = r + 3 * g[m] * zeta
            yield r

    family("zeta_relations", zeta_relations())
    return checks


def _corrupted_reps(mode):
    rep = build_representation(mode)
    yield "reference", rep
    for k in range(4):
        for factor in (0, 2):
            betas = [factor * b if mu == k else b for mu, b in enumerate(rep.beta)]
            yield f"b{k}x{factor}", representation_from_betas(betas, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_batched_identities_match_reference_loops(mode):
    """The batched families agree with the per-case loops on the reference
    representation and on each generator zeroed or doubled."""
    for label, rep in _corrupted_reps(mode):
        got, want = verify_algebra_identities(rep), _reference_identities(rep)
        assert [c.name for c in got] == [c.name for c in want], label
        for a, b in zip(got, want):
            key = (label, a.name)
            assert (a.cases, a.exact_zero, a.passed) == (b.cases, b.exact_zero, b.passed), key
            assert a.rms == pytest.approx(b.rms, rel=2e-15, abs=0), key
            if mode == "exact":
                assert (a.max_abs, a.first_failure) == (b.max_abs, b.first_failure), key
            else:
                # The float loops round 1/2, 1/3 and c_mu along the way, which
                # moves max_abs by an ulp and breaks ties between equal entries.
                assert a.max_abs == pytest.approx(b.max_abs, rel=2e-15, abs=0), key
                assert (a.first_failure or (None,))[0] == (b.first_failure or (None,))[0], key


def test_float_identities_equal_exact_ones():
    """On integer-valued representations the float path gives the exact records."""
    for (label, exact), (_, flt) in zip(_corrupted_reps("exact"), _corrupted_reps("float")):
        for a, b in zip(verify_algebra_identities(exact), verify_algebra_identities(flt)):
            assert (a.name, a.max_abs, a.passed, a.first_failure) == (
                b.name, b.max_abs, b.passed, b.first_failure), label
            assert a.rms == pytest.approx(b.rms, rel=2e-15, abs=0), label


def test_zero_residuals_fail_a_negative_tolerance():
    """All-zero residuals pass with no bookkeeping only where zero meets the
    tolerance: below zero every float family fails at its first case, as
    in the reference loops."""
    rep = build_representation("float")
    got = verify_algebra_identities(rep, tol=-1.0)
    assert got == _reference_identities(rep, tol=-1.0)
    assert all(c.exact_zero and not c.passed and c.first_failure for c in got)


# ---------------------------------------------------------------------------
# The builder, the cached scaled view and the Bareiss rank, each against the
# Fraction (or per-generator complex) code it replaced, kept here as the oracle.

def _fraction_matrix(rows):
    out = np.empty((5, 5), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = Fraction(x)
    return out


def _fraction_representation(betas):
    """The exact builder as object-array Fraction products."""
    ident = _fraction_matrix(np.eye(5, dtype=int))
    beta = tuple(_fraction_matrix(b) for b in betas)
    beta_sq = sum((1, -1, -1, -1)[m] * (beta[m] @ beta[m]) for m in range(4))
    third = Fraction(1, 3)
    beta_dot = tuple((beta[m] @ beta_sq - beta_sq @ beta[m]) * third for m in range(4))
    eta = 2 * (beta[0] @ beta[0]) - ident
    return dict(beta=beta, beta_dot=beta_dot, beta_sq=beta_sq, eta=eta,
                zeta=ident - beta_sq, identity=ident)


def _complex_representation(betas):
    """The float builder as it was before both modes shared one: complex
    products one generator at a time, b^2 summed in Python, the caller's
    generator arrays kept as they were passed."""
    beta = tuple(betas)
    ident = np.eye(5, dtype=complex)
    beta_sq = sum((1, -1, -1, -1)[m] * (beta[m] @ beta[m]) for m in range(4))
    beta_dot = tuple((beta[m] @ beta_sq - beta_sq @ beta[m]) * (1 / 3) for m in range(4))
    eta = 2 * (beta[0] @ beta[0]) - ident
    return dict(beta=beta, beta_dot=beta_dot, beta_sq=beta_sq, eta=eta,
                zeta=ident - beta_sq, identity=ident)


def _elimination_rank(rows):
    """Rank by Gaussian elimination over exact scalars."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                f = Fraction(f) / prow[col]
                work[r] = [a - f * p for a, p in zip(work[r], prow)]
        rank += 1
    return rank


def _entries(mats):
    return [x for m in mats for x in np.asarray(m).reshape(-1)]


def _int_betas(rep):
    return [[[int(x) for x in row] for row in b] for b in rep.beta]


def test_exact_builder_matches_fraction_builder():
    for label, rep in _corrupted_reps("exact"):
        want = _fraction_representation(_int_betas(rep))
        for name, value in want.items():
            got = getattr(rep, name)
            got, value = (_entries(v) if isinstance(v, tuple) else _entries([v]) for v in (got, value))
            assert got == value, (label, name)
            assert all(type(x) is Fraction and type(x.numerator) is int for x in got), (label, name)


def test_non_integer_exact_generators_fail_when_built(exact_rep):
    from dkp5.errors import ModeError
    from dkp5.scalars import GaussianRational

    for factor in (Fraction(1, 2), GaussianRational(0, 1)):
        with pytest.raises(ModeError):
            representation_from_betas([factor * b for b in exact_rep.beta], "exact")
    with pytest.raises(OverflowError):
        representation_from_betas([10**6 * b for b in exact_rep.beta], "exact")


def test_integer_view_equals_fraction_fields(exact_rep):
    import dataclasses

    from dkp5.algebra import _FIERZ18

    reps = list(_corrupted_reps("exact"))
    reps.append(("eta=I", dataclasses.replace(exact_rep, eta=exact_rep.identity)))
    for label, rep in reps:
        ints = rep.integers
        *mats, tops = vars(ints).values()
        assert all(m.dtype == np.int64 for m in mats), label
        fields = {
            "beta": rep.beta, "c3": [3 * c for c in rep.beta_dot], "beta_sq": [rep.beta_sq],
            "eta": [rep.eta], "zeta": [rep.zeta], "identity": [rep.identity],
            "basis": [3 * m if 5 <= k < 9 else m for k, m in enumerate(rep.basis)],
        }
        fields["current"] = [rep.identity, rep.beta_sq, *fields["basis"][1:]]
        for name, want in fields.items():
            assert _entries(getattr(ints, name)) == _entries(want), (label, name)
        table = np.stack([(rep.eta @ m).reshape(25) for m in fields["current"]], axis=1)
        assert _entries([ints.table]) == _entries([table]), label
        weighted = _FIERZ18.astype(object) @ np.stack(fields["current"]).reshape(26, 25)
        assert _entries([ints.weighted]) == _entries([weighted]), label
        want = [max(sum(abs(x) for x in col) for col in m.T) for m in (table, weighted, rep.eta)]
        assert list(tops) == want and all(type(t) is int for t in tops), label
    assert not np.array_equal(reps[-1][1].integers.eta, exact_rep.integers.eta)


def test_seeded_view_equals_the_view_unboxed_from_the_fraction_fields(exact_rep):
    """An exact representation from the builder comes with its scaled view
    set, made from the int64 matrices it boxed: the reference one and each
    with one generator zeroed, as ``--corrupt-generator`` builds them.  Every
    field of that view equals, in dtype and value, the one that
    ``KemmerRep.integers`` unboxes from the Fraction fields.  A copy made by
    ``dataclasses.replace`` has no view set and unboxes its own fields."""
    import dataclasses

    from dkp5.algebra import KemmerRep

    unboxed = KemmerRep.integers.func
    reps = [("reference", build_representation("exact"))]
    for k in range(4):
        betas = [0 * b if mu == k else b for mu, b in enumerate(exact_rep.beta)]
        reps.append((f"b{k}=0", representation_from_betas(betas, "exact")))
    replaced = dataclasses.replace(exact_rep, eta=-exact_rep.eta)
    assert "integers" not in vars(replaced)
    reps.append(("eta=-eta", replaced))
    for label, rep in reps:
        assert ("integers" in vars(rep)) == (rep is not replaced), label
        got, want = vars(rep.integers), vars(unboxed(rep))
        assert list(got) == list(want), label
        for name, value in want.items():
            if name == "tops":
                assert got[name] == value and all(type(t) is int for t in got[name]), label
            else:
                assert got[name].dtype == value.dtype == np.int64, (label, name)
                assert np.array_equal(got[name], value), (label, name)
    assert np.array_equal(replaced.integers.eta, -exact_rep.integers.eta)


def test_lattice_table_keeps_the_bits_of_eta_times_each_current_matrix():
    """The float table that the lattice stack reads (the scaled view's, its
    c_mu columns times 1/3) holds the float64 bits of eta M_k for each of the
    26 current matrices, signed zeros included, on the reference
    representation and with each generator zeroed or doubled."""
    from dkp5.bilinears import _float_table

    bits = lambda a: np.ascontiguousarray(a).view(np.int64)
    for label, rep in _corrupted_reps("float"):
        mats = (rep.identity, rep.beta_sq, *rep.basis[1:])
        want = np.stack([(rep.eta @ m).reshape(25) for m in mats], axis=1)
        got = _float_table(rep)
        assert got.dtype == want.dtype and got.shape == want.shape == (25, 26), label
        assert np.array_equal(bits(got), bits(want)), label


def test_bareiss_rank_matches_elimination():
    from dkp5.algebra import _sparse_rank

    for label, rep in _corrupted_reps("exact"):
        want = _elimination_rank([list(m.reshape(-1)) for m in rep.basis])
        assert _sparse_rank(rep.integers.basis.reshape(25, 25)) == want, label
        if want < 25:
            with pytest.raises(RepresentationDefectError) as exc:
                enumerate_basis(rep)
            assert exc.value.rank == want, label
        else:
            assert enumerate_basis(rep)[1] == 25, label
    rng = np.random.default_rng(8)
    for rank in (0, 1, 7, 18, 24, 25):
        # rank k: a (25, k) and a (k, 25) factor, each with a k x k identity block
        left, right = rng.integers(-9, 10, (2, 25, 25))
        left[:rank, :rank] = right[:rank, :rank] = np.eye(rank, dtype=int)
        m = left[:, :rank] @ right[:rank]
        m = m[rng.permutation(25)][:, rng.permutation(25)]
        assert _elimination_rank(m.tolist()) == _sparse_rank(m) == rank


def test_bareiss_rank_does_not_wrap_round():
    """2**32 * 2**32 wraps round to 0 in int64, which would report rank 1."""
    from dkp5.algebra import _sparse_rank

    assert _sparse_rank([[2**32, 0], [0, 2**32]]) == 2
    assert _sparse_rank(np.array([[2**32, 2**31], [2**31, 2**30]])) == 1


@st.composite
def _integer_matrices(draw):
    """(rows, k): an n x c integer matrix of rank k, n and c up to 25 and k
    any of 0..min(n, c), as a product L R of an n x k and a k x c factor
    that each hold a k x k identity block, rows and columns then permuted;
    R's other entries reach past 2**63 in both signs, and some of L's other
    rows, so some rows of the product, are zero."""
    n, c = draw(st.sampled_from(range(1, 26))), draw(st.sampled_from(range(1, 26)))
    k = min(n, c) - draw(st.integers(0, min(n, c)))  # draws lean to full rank
    entry = st.integers(-2, 2) | st.integers(-(2**66), 2**66)
    unit = [[int(i == j) for j in range(k)] for i in range(k)]
    right = [u + draw(st.lists(entry, min_size=c - k, max_size=c - k)) for u in unit]
    row = st.lists(st.integers(-2, 2), min_size=k, max_size=k) | st.just([0] * k)
    left = unit + draw(st.lists(row, min_size=n - k, max_size=n - k))
    product = [[sum(a * r[j] for a, r in zip(coefs, right)) for j in range(c)] for coefs in left]
    cols = draw(st.permutations(range(c)))
    return [[p[j] for j in cols] for p in draw(st.permutations(product))], k


@settings(max_examples=60, deadline=None)
@given(_integer_matrices())
def test_sparse_rank_matches_elimination_on_random_integer_matrices(matrix):
    from dkp5.algebra import _sparse_rank

    rows, rank = matrix
    assert _sparse_rank(rows) == _elimination_rank(rows) == rank


def _noisy_float_reps():
    """The noisy float representation of the inversion oracle tests, and one
    with every generator perturbed."""
    from test_inversion import _oracle_reps

    yield from ((label, rep) for label, rep in _oracle_reps(build_representation("float"))
                if "noise" in label)
    noise = np.random.default_rng(4).standard_normal((2, 4, 5, 5))
    betas = np.stack(build_representation("float").beta) + 0.2 * (noise[0] + 1j * noise[1])
    yield "all+noise", representation_from_betas(betas, "float")


def test_float_builder_matches_the_per_generator_builder():
    """Bit for bit on the integer-valued corrupted representations; on noisy
    ones the products may round differently, within 1e-15 of the largest entry."""
    for label, rep in [*_corrupted_reps("float"), *_noisy_float_reps()]:
        for name, want in _complex_representation(list(rep.beta)).items():
            got, want = (np.stack(v) if isinstance(v, tuple) else v for v in (getattr(rep, name), want))
            assert got.dtype == complex, (label, name)
            if "noise" in label:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (label, name)
            else:
                assert got.tobytes() == want.tobytes(), (label, name)


def test_float_rep_copies_its_generators(float_rep):
    """A float representation does not share its generators with the caller:
    changing them afterwards leaves it whole."""
    betas = [b.copy() for b in float_rep.beta]
    rep = representation_from_betas(betas, "float")
    betas[1] *= 0
    assert np.array_equal(rep.beta[1], float_rep.beta[1])
    assert all(c.passed for c in verify_algebra_identities(rep))
    assert enumerate_basis(rep)[1] == 25


def test_float_view_equals_exact_view():
    """The float scaled view is the exact one cast to complex, entry for entry."""
    for (label, exact), (_, flt) in zip(_corrupted_reps("exact"), _corrupted_reps("float")):
        want, got = vars(exact.integers), vars(flt.integers)
        assert want.keys() == got.keys(), label
        for name, value in want.items():
            if name == "tops":
                assert list(got[name]) == [float(t) for t in value], label
            else:
                assert got[name].dtype == complex, (label, name)
                assert np.array_equal(got[name], value.astype(complex)), (label, name)
