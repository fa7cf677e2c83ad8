import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp5 import (
    FieldGrid,
    WAVEFUNCTION,
    algebraic_constraint_residuals,
    compute_currents,
    compute_currents_grid,
    current_set_to_dict,
    fierz_decompose,
    fierz_residual,
    random_fourier_field,
    representation_from_betas,
    singular_mask,
    z_is_singular,
    zeta_identity_residuals,
)
from dkp5 import bilinears
from dkp5.bilinears import CURRENT_COLUMNS, MIRRORED_COLUMNS, Z_EPS, CurrentSet, fierz_sweep, lattice_currents
from dkp5.errors import CurrentOverflowError, ModeError, ShapeError
from dkp5.scalars import (_GR_ZERO, INT64_HALF, GaussianRational, bounded, random_exact_rows,
                          random_exact_wavefunction)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
exact_wavefunctions = st.lists(
    st.builds(GaussianRational, rationals, rationals), min_size=5, max_size=5
)

# module-level representation for the hypothesis tests (fixtures and @given
# do not mix well)
from dkp5 import build_representation

_REP = build_representation("exact")


def _all_zero(mat):
    return all(not x for x in np.asarray(mat).reshape(-1))


def test_unit_slot4_currents(exact_rep):
    cs = compute_currents(exact_rep, [0, 0, 0, 0, 1])
    assert cs.S == 1 and cs.Sflat == 4 and cs.Z == -3
    assert all(x == 0 for x in cs.J) and all(x == 0 for x in cs.H)
    for m in range(4):
        for n in range(4):
            want = (1, -1, -1, -1)[m] if m == n else 0
            assert cs.K[m, n] == want
    assert cs.tilde_Z == -3


def test_zero_wavefunction(exact_rep):
    cs = compute_currents(exact_rep, [0] * 5)
    assert cs.S == 0 and cs.Sflat == 0 and cs.Z == 0
    assert z_is_singular(cs)
    r_h, r_c = fierz_residual(exact_rep, [0] * 5, cs=cs)
    assert _all_zero(r_h) and _all_zero(r_c)
    res = algebraic_constraint_residuals(cs)
    assert res.singular_z and res.k_elimination is None
    assert not res.scalar_fierz and not res.quadratic


def test_rational_plane_wave_amplitude(exact_rep):
    # k^mu = (5/4, 3/4, 0, 0) with m = 1 sits exactly on the mass shell.
    k_lower = [Fraction(5, 4), Fraction(-3, 4), 0, 0]
    phi = k_lower + [1]
    cs = compute_currents(exact_rep, phi)
    assert cs.S == 2 and cs.Sflat == 5 and cs.Z == -3
    assert list(cs.J) == [2 * k for k in k_lower]
    assert all(x == 0 for x in cs.H)


def test_fierz_decompose_values(exact_rep):
    cs = compute_currents(exact_rep, [0, 0, 0, 0, 1])
    fc = fierz_decompose(cs)
    assert fc.a == Fraction(-1, 3)
    assert all(x == 0 for x in fc.j) and all(x == 0 for x in fc.h)
    for m in range(4):
        for n in range(4):
            want = Fraction(2, 3) * (1, -1, -1, -1)[m] if m == n else 0
            assert fc.k[m, n] == want  # k/2 = eta/3


def test_fierz_decompose_pure_scalar_case(exact_rep):
    cs = compute_currents(exact_rep, [0, 0, 0, 0, 1])
    cs.S, cs.Sflat = GaussianRational(Fraction(9, 5)), GaussianRational(0)
    cs.J = cs.J * 0
    cs.H = cs.H * 0
    cs.K = cs.K * 0
    fc = fierz_decompose(cs)
    assert fc.a == 1
    assert all(x == 0 for x in fc.j) and all(x == 0 for x in fc.h)
    for m in range(4):
        assert fc.k[m, m] == Fraction(-4, 5) * (1, -1, -1, -1)[m]  # k/2 = -(2/5) eta
        for n in range(4):
            if m != n:
                assert fc.k[m, n] == 0


def test_fierz_residual_slot4(exact_rep):
    r_h, r_c = fierz_residual(exact_rep, [0, 0, 0, 0, 1])
    assert _all_zero(r_h) and _all_zero(r_c)


def test_exact_zero_residual_is_the_shared_zero(exact_rep):
    """A zero entry of an exact residual is the one Gaussian zero, so the
    ``is _GR_ZERO`` shortcuts of GaussianRational's arithmetic take it."""
    r_h, r_c = fierz_residual(exact_rep, [1, 2, 0, -1, 1])
    assert all(x is _GR_ZERO for x in np.concatenate([r_h.reshape(-1), r_c.reshape(-1)]))


def test_constraints_slot4(exact_rep):
    cs = compute_currents(exact_rep, [0, 0, 0, 0, 1])
    res = algebraic_constraint_residuals(cs)
    assert not res.singular_z
    assert not res.scalar_fierz
    assert not res.quadratic
    assert _all_zero(res.k_elimination)


def test_nonrealizable_currents_quadratic_residual():
    zero4 = np.array([GaussianRational(0)] * 4, dtype=object)
    zeroK = np.full((4, 4), GaussianRational(0), dtype=object)
    one, zero = GaussianRational(1), GaussianRational(0)
    cs = CurrentSet(
        mode="exact", S=one, Sflat=zero, J=zero4, H=zero4.copy(), K=zeroK,
        Z=one, tilde_S=zero, tilde_Sflat=zero, tilde_J=zero4.copy(),
        tilde_K=zeroK.copy(), tilde_Z=zero,
    )
    res = algebraic_constraint_residuals(cs)
    assert res.quadratic == Fraction(4, 9)


def test_zeta_identities_slot4(exact_rep):
    zr = zeta_identity_residuals(exact_rep, [0, 0, 0, 0, 1])
    assert _all_zero(zr.sandwich)
    assert not zr.modulus


@given(exact_wavefunctions)
@settings(max_examples=40, deadline=None)
def test_current_symmetries(phi):
    rep = _REP
    cs = compute_currents(rep, phi)
    for m in range(4):
        assert cs.H[m] + cs.H[m].conjugate() == 0
        for n in range(4):
            assert cs.K[m, n].conjugate() == cs.K[n, m]
            assert cs.tilde_K[m, n] == cs.tilde_K[n, m]
        # companion tilde current vanishes identically
        pt = np.asarray(phi, dtype=object) @ rep.eta
        assert pt @ (rep.beta_dot[m] @ np.asarray(phi, dtype=object)) == 0
    trace_k = sum((1, -1, -1, -1)[m] * cs.K[m, m] for m in range(4))
    assert trace_k == cs.Sflat
    assert cs.Z * cs.Z == cs.tilde_Z.conjugate() * cs.tilde_Z


@given(exact_wavefunctions)
@settings(max_examples=30, deadline=None)
def test_rearrangement_suite_exact(phi):
    rep = _REP
    cs = compute_currents(rep, phi)
    r_h, r_c = fierz_residual(rep, phi, cs=cs)
    assert _all_zero(r_h) and _all_zero(r_c)
    res = algebraic_constraint_residuals(cs)
    assert not res.scalar_fierz and not res.quadratic
    if not res.singular_z:
        assert _all_zero(res.k_elimination)
    zr = zeta_identity_residuals(rep, phi, cs=cs)
    assert _all_zero(zr.sandwich) and not zr.modulus


@given(exact_wavefunctions)
@settings(max_examples=30, deadline=None)
def test_gauge_covariance_rational_phase(phi):
    # (3 + 4i)/5 is a unit-modulus Gaussian rational: Hermitian currents
    # are exactly invariant, tilde currents pick up the squared phase.
    rep = _REP
    c = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    rotated = [c * x for x in phi]
    a = compute_currents(rep, phi)
    b = compute_currents(rep, rotated)
    assert a.S == b.S and a.Sflat == b.Sflat
    assert all(a.J[m] == b.J[m] for m in range(4))
    assert all(a.H[m] == b.H[m] for m in range(4))
    assert _all_zero(a.K - b.K)
    c2 = c * c
    assert b.tilde_S == c2 * a.tilde_S
    assert b.tilde_Z == c2 * a.tilde_Z
    assert all(b.tilde_J[m] == c2 * a.tilde_J[m] for m in range(4))


def test_float_mode_residual_scaling(float_rep):
    rng = np.random.default_rng(123)
    for _ in range(50):
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        bound = 1e-12 * (1.0 + np.sum(np.abs(phi) ** 2) ** 2)
        cs = compute_currents(float_rep, phi)
        r_h, r_c = fierz_residual(float_rep, phi, cs=cs)
        assert np.max(np.abs(r_h)) < bound and np.max(np.abs(r_c)) < bound
        res = algebraic_constraint_residuals(cs)
        assert abs(res.scalar_fierz) < bound and abs(res.quadratic) < bound
        if not res.singular_z:
            assert np.max(np.abs(res.k_elimination)) < bound
        zr = zeta_identity_residuals(float_rep, phi, cs=cs)
        assert np.max(np.abs(zr.sandwich)) < bound and abs(zr.modulus) < bound


def _definition_currents(rep, phi):
    """Every current from its definition, conj(phi) eta M phi and phi eta M phi."""
    b = rep.beta
    mats = [rep.identity, rep.beta_sq, *b, *rep.beta_dot]
    mats += [b[m] @ b[n] for m in range(4) for n in range(4)]
    herm = np.array([np.conj(phi) @ rep.eta @ M @ phi for M in mats], dtype=object)
    tilde = np.array([phi @ rep.eta @ M @ phi for M in mats], dtype=object)
    # the companion tilde current vanishes identically
    if rep.mode == "exact":
        assert _all_zero(tilde[6:10])
    else:
        assert np.allclose(tilde[6:10].astype(complex), 0, atol=1e-13)
    return {
        "S": herm[0], "Sflat": herm[1], "J": herm[2:6], "H": herm[6:10],
        "K": herm[10:].reshape(4, 4), "Z": herm[0] - herm[1],
        "tilde_S": tilde[0], "tilde_Sflat": tilde[1], "tilde_J": tilde[2:6],
        "tilde_K": tilde[10:].reshape(4, 4), "tilde_Z": tilde[0] - tilde[1],
    }


def _assert_definition(rep, cs, idx, phi):
    for name, want in _definition_currents(rep, phi).items():
        got = np.asarray(getattr(cs, name))[idx]
        if rep.mode == "exact":
            assert _all_zero(got - want), name
        else:
            assert np.allclose(got, np.asarray(want, dtype=complex), rtol=0, atol=1e-13), name


def _random_exact(rng, shape):
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = GaussianRational(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
                                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))))
    return out


def test_grid_currents_match_pointwise(exact_rep, float_rep):
    rng = np.random.default_rng(5)
    shape = (2, 3, 1, 1, 5)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = FieldGrid((2, 3, 1, 1), (0.1,) * 4, WAVEFUNCTION, vals)
    exact_vals = _random_exact(rng, shape)
    batches = [
        (float_rep, vals, compute_currents_grid(float_rep, grid)),
        (float_rep, vals, compute_currents(float_rep, vals)),
        (exact_rep, exact_vals, compute_currents(exact_rep, exact_vals)),
    ]
    for rep, values, cs in batches:
        for idx in np.ndindex(*shape[:4]):
            _assert_definition(rep, cs, idx, values[idx])
            _assert_definition(rep, compute_currents(rep, values[idx]), (), values[idx])


def test_exact_currents_match_definition(exact_rep):
    """The integer pair route gives the defined currents entry for entry: on
    the 100 points of acceptance criterion 3, a (2, 3, 5) batch, and
    wavefunctions with denominators near 10**30."""
    rng = random.Random(20240808)
    points = np.array([random_exact_wavefunction(rng) for _ in range(100)], dtype=object)
    big = 10**30

    def huge():
        return Fraction(rng.randint(-big, big), rng.randint(big - 10**6, big))

    large = np.array([[GaussianRational(huge(), huge()) for _ in range(5)] for _ in range(4)],
                     dtype=object)
    for phis in (points, _random_exact(np.random.default_rng(9), (2, 3, 5)), large):
        cs = compute_currents(exact_rep, phis)
        assert all(isinstance(x, GaussianRational) for x in cs.K.reshape(-1))
        for idx in np.ndindex(*phis.shape[:-1]):
            _assert_definition(exact_rep, cs, idx, phis[idx])
    for phi in (points[0], large[0]):
        _assert_definition(exact_rep, compute_currents(exact_rep, phi), (), phi)


def test_grid_current_fields_dtype_and_shape(float_rep):
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((3, 2, 1, 2, 5)) + 1j * rng.standard_normal((3, 2, 1, 2, 5))
    cg = compute_currents_grid(float_rep, FieldGrid((3, 2, 1, 2), (0.1,) * 4, WAVEFUNCTION, vals))
    assert cg.extents == (3, 2, 1, 2) and cg.spacing == (0.1,) * 4
    for name, dtype, tail in (
        ("S", float, ()), ("Sflat", float, ()), ("Z", float, ()), ("J", float, (4,)),
        ("H", complex, (4,)), ("K", complex, (4, 4)),
        ("tilde_S", complex, ()), ("tilde_Sflat", complex, ()), ("tilde_Z", complex, ()),
        ("tilde_J", complex, (4,)), ("tilde_K", complex, (4, 4)),
    ):
        field = getattr(cg, name)
        assert field.dtype == dtype and field.shape == cg.extents + tail, name


def test_grid_currents_require_float(exact_rep, float_rep):
    grid = FieldGrid.zeros((2, 1, 1, 1), (0.1,) * 4, WAVEFUNCTION)
    with pytest.raises(ModeError):
        compute_currents_grid(exact_rep, grid)


def test_current_dict_key_order(float_rep):
    cs = compute_currents(float_rep, np.array([1, 0, 0, 0, 1], dtype=complex))
    d = current_set_to_dict(cs)
    keys = list(d)
    assert keys[:6] == ["S", "Sflat", "J0", "J1", "J2", "J3"]
    assert keys[6:10] == ["ImH0", "ImH1", "ImH2", "ImH3"]
    assert keys[10] == "ReK00" and keys[11] == "ImK00"
    assert keys[42] == "Z"
    assert keys[-2:] == ["ReZt", "ImZt"]
    assert len(keys) == 89


def test_exact_wavefunction_rejects_floats(exact_rep):
    with pytest.raises(ModeError):
        compute_currents(exact_rep, [0.5, 0, 0, 0, 1])


def _same_currents(a, b):
    return all(np.shape(getattr(a, f.name)) == np.shape(getattr(b, f.name))
               and np.all(np.asarray(getattr(a, f.name)) == np.asarray(getattr(b, f.name)))
               for f in dataclasses.fields(a))


def test_exact_wavefunction_takes_numpy_integers(exact_rep):
    # Large entries would wrap round if fixed-width arithmetic leaked in.
    for kind, ints in ((np.int64, [0, 0, 0, 0, 1]), (np.int64, [2, -3, 10**18, 0, 1]),
                       (np.int32, [2, -3, 2**31 - 1, 0, 1])):
        got = compute_currents(exact_rep, [kind(x) for x in ints])
        assert _same_currents(got, compute_currents(exact_rep, ints))
    with pytest.raises(ModeError):
        compute_currents(exact_rep, [np.float64(1)] + [0] * 4)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_point_relations_reject_batched_currents(exact_rep, float_rep, mode):
    rep = exact_rep if mode == "exact" else float_rep
    phis = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1]]
    cs = compute_currents(rep, phis)
    for relation in (fierz_decompose, algebraic_constraint_residuals):
        with pytest.raises(ShapeError):
            relation(cs)
    for phi in (phis, phis[0]):
        with pytest.raises(ShapeError):
            zeta_identity_residuals(rep, phi, cs=cs)


def _reference_rank_one_residual(rep, phi, S, Sflat, J, H, K, hermitian):
    """Phi (Phi^dagger or Phi^T) eta minus the closed-form expansion, in Fractions."""
    g = np.array((1, -1, -1, -1))
    weights = np.concatenate([
        [Fraction(5, 9) * S - Fraction(2, 9) * Sflat, -(Fraction(2, 9) * S + Fraction(1, 9) * Sflat)],
        Fraction(1, 2) * g * J,
        -Fraction(1, 2) * g * H,
        (np.outer(g, g) * K.T).reshape(16),
    ])
    phi = np.array(phi, dtype=object)
    left = np.array([x.conjugate() for x in phi]) if hermitian else phi
    mats = np.stack([rep.identity, rep.beta_sq, *rep.basis[1:]])
    rhs = (weights @ mats.reshape(26, 25)).reshape(5, 5)
    return np.outer(phi, left @ rep.eta) - rhs


def test_fierz_batch_matches_per_point_and_definition(exact_rep):
    """All wavefunctions at once give the per-point residuals entry for entry,
    also for denominators near 10**30, far past int64."""
    rng = random.Random(7)
    big = 10**30

    def huge():
        return Fraction(rng.randint(-big, big), rng.randint(big - 10**6, big))

    phis = [random_exact_wavefunction(rng) for _ in range(50)]
    phis += [[GaussianRational(huge(), huge()) for _ in range(5)] for _ in range(4)]
    r_h, r_c = fierz_residual(exact_rep, phis)
    assert r_h.shape == r_c.shape == (54, 5, 5)
    assert _all_zero(r_h) and _all_zero(r_c)

    # Shifted currents leave nonzero residuals to compare.
    cs = compute_currents(exact_rep, phis)
    cs.S = cs.S + Fraction(1, 3)
    cs.H = 2 * cs.H
    cs.tilde_K = cs.tilde_K + GaussianRational(0, Fraction(1, 7))
    b_h, b_c = fierz_residual(exact_rep, phis, cs=cs)
    for i, phi in enumerate(phis):
        p = CurrentSet(**{k: v if k == "mode" else v[i] for k, v in vars(cs).items()})
        one_h, one_c = fierz_residual(exact_rep, phi, cs=p)
        want_h = _reference_rank_one_residual(exact_rep, phi, p.S, p.Sflat, p.J, p.H, p.K, True)
        want_c = _reference_rank_one_residual(
            exact_rep, phi, p.tilde_S, p.tilde_Sflat, p.tilde_J, 0 * p.tilde_J, p.tilde_K, False)
        for batch, one, want in ((b_h[i], one_h, want_h), (b_c[i], one_c, want_c)):
            assert list(batch.reshape(-1)) == list(one.reshape(-1)) == list(want.reshape(-1)), i
            assert not _all_zero(batch)
        assert _all_zero(fierz_residual(exact_rep, phi)[0])


def test_fierz_residual_on_broken_reps_matches_definition(exact_rep):
    """On broken representations the residuals no longer vanish but still
    follow the definition: generator 2 doubled, and eta replaced by I,
    which leaves a nonzero companion tilde current that the tilde
    expansion must omit (the Hermitian residual still vanishes there)."""
    doubled = representation_from_betas(
        [2 * b if mu == 2 else b for mu, b in enumerate(exact_rep.beta)], "exact")
    rng = random.Random(11)
    phis = [random_exact_wavefunction(rng) for _ in range(10)]
    for rep, broken in ((doubled, (0, 1)),
                        (dataclasses.replace(exact_rep, eta=exact_rep.identity), (1,))):
        r_h, r_c = fierz_residual(rep, phis)
        cs = compute_currents(rep, phis)
        for i, phi in enumerate(phis):
            p = CurrentSet(**{k: v if k == "mode" else v[i] for k, v in vars(cs).items()})
            want_h = _reference_rank_one_residual(rep, phi, p.S, p.Sflat, p.J, p.H, p.K, True)
            want_c = _reference_rank_one_residual(
                rep, phi, p.tilde_S, p.tilde_Sflat, p.tilde_J, 0 * p.tilde_J, p.tilde_K, False)
            assert list(r_h[i].reshape(-1)) == list(want_h.reshape(-1)), i
            assert list(r_c[i].reshape(-1)) == list(want_c.reshape(-1)), i
        assert all(not _all_zero((r_h, r_c)[k]) for k in broken)


def test_fierz_sweep_blocks_agree_with_one_block(exact_rep, monkeypatch):
    """On a broken representation (generator 2 doubled) the sweep drawn and
    checked in blocks of 4 samples, 22 samples in six blocks, counts the
    same failures and finds the same worst residual as in one block, from
    the same draws: the generator is left where one draw of all 22 leaves it."""
    doubled = representation_from_betas(
        [2 * b if mu == 2 else b for mu, b in enumerate(exact_rep.beta)], "exact")
    whole, rng = fierz_sweep(doubled, random.Random(3), 22), random.Random(3)
    monkeypatch.setattr(bilinears, "_FIERZ_BLOCK", 4)
    assert fierz_sweep(doubled, rng, 22) == whole and 0 < whole[0] <= 22 and whole[1] > 0
    after = random.Random(3)
    random_exact_rows(after, 22)
    assert rng.getstate() == after.getstate()


def test_fierz_sweep_memory_does_not_grow_with_samples(exact_rep, monkeypatch):
    """The traced peak of the sweep is one block's, at 64 samples as at 512."""
    monkeypatch.setattr(bilinears, "_FIERZ_BLOCK", 16)
    fierz_sweep(exact_rep, random.Random(1), 16)  # anything built once is built here
    peaks = []
    for samples in (64, 512):
        tracemalloc.start()
        assert fierz_sweep(exact_rep, random.Random(1), samples) == (0, 0.0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


@pytest.mark.parametrize("currents, density", [
    pytest.param(compute_currents_grid, ("S", "Sflat"), id="0"),
    pytest.param(compute_currents_grid, ("tilde_S", "tilde_Sflat"), id="1"),
    pytest.param(lattice_currents, ("S", "Sflat"), id="lattice-0"),
    pytest.param(lattice_currents, ("tilde_S", "tilde_Sflat"), id="lattice-1"),
])
def test_overflowing_density_alone_raises(float_rep, monkeypatch, currents, density):
    """Z = S - Sflat (0) or Z-tilde (1) can overflow where every current that
    it is taken from is finite; the grid check reads them too, for all
    currents and for the lattice stack's alike."""
    import dkp5.bilinears

    fields = dkp5.bilinears._float_fields

    def huge_density(rep, phi, names):
        out = fields(rep, phi, names)
        s, sflat = (out[name] for name in density)  # S and Sflat (or their tilde twins)
        s[...], sflat[...] = 1e308, -1e308
        return out

    monkeypatch.setattr(dkp5.bilinears, "_float_fields", huge_density)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((3, 2, 1, 1, 5)) + 1j * rng.standard_normal((3, 2, 1, 1, 5))
    with pytest.raises(CurrentOverflowError):
        currents(float_rep, FieldGrid((3, 2, 1, 1), (0.1,) * 4, WAVEFUNCTION, vals))


def test_grid_overflow_check_agrees_with_the_whole_tables(float_rep):
    """The grid check reads only the fields it returns, not Im S, Im Sflat,
    Im J or the vanishing companion tilde columns, and still raises
    CurrentOverflowError (``dkp currents`` exits 2) exactly where some
    column of either dense table, Z or Z-tilde is not finite: seeded
    two-point fields near the overflow edge, real and imaginary parts
    uniform in (-s, s) for one s of 10^152 to 10^155 a field, 30% zero."""
    rng = np.random.default_rng(22)
    raised = []
    for _ in range(600):
        parts = rng.uniform(-1, 1, (2, 2, 5)) * 10.0 ** rng.uniform(152, 155)
        parts[rng.random((2, 2, 5)) < 0.3] = 0.0
        phi = np.empty((2, 5), dtype=complex)
        phi.real, phi.imag = parts
        with np.errstate(over="ignore", invalid="ignore"):
            h, t = (_dense_currents(float_rep, phi, conj) for conj in (True, False))
            want = not all(np.isfinite(v).all() for v in (h, t, h[:, 0].real - h[:, 1].real, t[:, 0] - t[:, 1]))
        grid = FieldGrid((2, 1, 1, 1), (0.1,) * 4, WAVEFUNCTION, phi.reshape(2, 1, 1, 1, 5))
        try:
            compute_currents_grid(float_rep, grid)
            raised.append(False)
        except CurrentOverflowError:
            raised.append(True)
        assert raised[-1] == want, phi
    assert 100 < sum(raised) < 500  # both outcomes, often


def _dense_currents(rep, phi, conj):
    """The float current table, (n, 26), of wavefunctions (n, 5) as the
    product of all 25 pairs Q with the complex table k: the real and
    imaginary part of each column summed from +0.0 over the pairs in row
    order, zero coefficients included, Re Q Re k - Im Q Im k and
    Re Q Im k + Im Q Re k, with each pair part and each term rounded on
    its own."""
    import dkp5.bilinears

    a, table = (np.conj(phi) if conj else phi), dkp5.bilinears._float_table(rep)
    re = (a.real[:, :, None] * phi.real[:, None, :] - a.imag[:, :, None] * phi.imag[:, None, :]).reshape(-1, 25)
    im = (a.real[:, :, None] * phi.imag[:, None, :] + a.imag[:, :, None] * phi.real[:, None, :]).reshape(-1, 25)
    out = np.zeros((len(phi), 26), dtype=complex)
    for r, k in enumerate(table):
        out.real += re[:, r, None] * k.real
        out.real -= im[:, r, None] * k.imag
        out.imag += re[:, r, None] * k.imag
        out.imag += im[:, r, None] * k.real
    return out


def test_lattice_currents_equal_the_grid_currents(float_rep, monkeypatch):
    """compute_currents_grid gives every current of the dense product of the
    pairs with the whole table, and lattice_currents the ones it reads, bit
    for bit, zeros' signs included: across the seams of blocks of
    ``_SEAM_BLOCK`` points, at Z-singular points, and at components of
    either zero; the currents the lattice stack does not read are None.
    The grid mask is the decision of compute_currents on all points at
    once, and the single-point decision holds at each singular point."""
    import dkp5.bilinears
    from test_pipeline_equivalence import _SEAM_BLOCK, _multi_block_field

    monkeypatch.setattr(dkp5.bilinears, "_BLOCK", _SEAM_BLOCK)
    grid, _ = random_fourier_field((9, 8, 6, 5), (0.3, 0.25, 0.3, 0.35), seed=4)
    grid.values[3, 2, 4, 1] = 0.0
    seams, _ = _multi_block_field()
    bits = lambda a: np.ascontiguousarray(a).view(np.int64 if a.dtype.kind in "fc" else np.int8)
    # Z = 0 at the zeroed points, and on the seam field where Phi_4 = -0.0 too
    singular = ([np.ravel_multi_index((3, 2, 4, 1), grid.extents)],
                [0, 17, *range(100, 140), 1023, 1024, 1500, 2047, 2048, 2159])
    for grid, points in zip((grid, seams), singular):
        full, lean = compute_currents_grid(float_rep, grid), lattice_currents(float_rep, grid)
        phi = grid.values.reshape(-1, 5)
        h, t = (_dense_currents(float_rep, phi, conj) for conj in (True, False))
        S, Sflat = h[:, 0].real, h[:, 1].real  # real by construction: the round-off phase dropped
        dense = {"S": S, "Sflat": Sflat, "J": h[:, 2:6].real, "H": h[:, 6:10],
                 "K": h[:, 10:].reshape(-1, 4, 4), "Z": S - Sflat,
                 "tilde_S": t[:, 0], "tilde_Sflat": t[:, 1], "tilde_J": t[:, 2:6],  # t[:, 6:10] vanishes
                 "tilde_K": t[:, 10:].reshape(-1, 4, 4), "tilde_Z": t[:, 0] - t[:, 1]}
        assert set(dense) == set(vars(full)) - {"mode", "extents", "spacing", "mask"}
        for name, want in dense.items():
            want, got = want.reshape(grid.extents + want.shape[1:]), getattr(full, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(bits(got), bits(want)), name
        assert np.flatnonzero(singular_mask(lean)).tolist() == points
        batched = singular_mask(compute_currents(float_rep, phi))
        assert np.array_equal(batched.reshape(grid.extents), full.mask)
        assert all(z_is_singular(compute_currents(float_rep, phi[i])) for i in points)
        for name in ("S", "Sflat", "J", "H", "Z", "tilde_S", "tilde_Sflat", "tilde_Z", "mask"):
            want, got = getattr(full, name), getattr(lean, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(bits(got), bits(want)), name
        assert lean.K is lean.tilde_J is lean.tilde_K is None
        assert (lean.extents, lean.spacing) == (full.extents, full.spacing)


def test_mask_threshold_is_z_eps(float_rep):
    """With Phi = (0, 0, 0, 0, Phi_4), Z = -3 |Phi_4|^2, and for a small Phi_4
    the threshold's scale is 1: |Z| = 1.5 Z_EPS stays unmasked, 0.9 Z_EPS is
    masked."""
    vals = np.zeros((3, 1, 1, 1, 5), dtype=complex)
    vals[..., 4] = np.sqrt(np.array([1.5, 0.9, 3e10]) * Z_EPS / 3)[:, None, None, None]
    cs = lattice_currents(float_rep, FieldGrid((3, 1, 1, 1), (0.1, 1, 1, 1), WAVEFUNCTION, vals))
    assert np.allclose(-cs.Z.ravel() / Z_EPS, [1.5, 0.9, 3e10], rtol=1e-12)
    assert singular_mask(cs).ravel().tolist() == [False, True, False]


def test_threshold_past_double_precision_is_infinite(float_rep):
    """Finite currents whose hypot(S, Sflat) overflows, with Z = 0: the grid
    mask and the per-point decision both mark the point singular, with no
    overflow."""
    vals = np.zeros((2, 1, 1, 1, 5), dtype=complex)
    vals[0, ..., 0] = 1.2e154  # S = Sflat = 1.44e308, Z = 0
    vals[1, ..., 4] = 1.0
    cg = compute_currents_grid(float_rep, FieldGrid((2, 1, 1, 1), (0.1,) * 4, WAVEFUNCTION, vals))
    assert np.isfinite(cg.S).all() and cg.mask.ravel().tolist() == [True, False]
    assert [z_is_singular(compute_currents(float_rep, phi)) for phi in vals.reshape(-1, 5)] == [True, False]


def test_overflowing_threshold_is_decided_on_halved_currents(float_rep):
    """Phi = 1.2e154 e_0 + 1e150 e_4 has finite S and Sflat whose hypot
    overflows, and Z = -3e300, far above 1e-10 hypot(S, Sflat) ~ 2e298:
    neither the grid mask nor the per-point decision marks it singular."""
    phi = np.array([1.2e154, 0, 0, 0, 1e150], dtype=complex)
    grid = FieldGrid((1, 1, 1, 1), (0.1,) * 4, WAVEFUNCTION, phi.reshape(1, 1, 1, 1, 5))
    cg = compute_currents_grid(float_rep, grid)
    with np.errstate(over="ignore"):
        assert np.isinf(np.hypot(cg.S, cg.Sflat)).all() and cg.Z.item() == pytest.approx(-3e300)
    assert not cg.mask.any()
    assert not z_is_singular(compute_currents(float_rep, phi))


def test_mirrored_columns_follow_from_the_representation(float_rep):
    """Each declared mirror is sign times its source because of the current
    table: a K column's 5x5 block is the conjugate transpose of its source's
    (so Re K mirrors with +1 and Im K with -1), a K-tilde block is its
    source's transpose (+1 for both parts, as Phi eta M Phi is symmetric in
    the pair).  The mirrors are exactly the 24 lower-triangle columns."""
    fields = {column: (field, index, part) for column, field, index, part in CURRENT_COLUMNS}
    lower = {c for c, (f, index, _) in fields.items() if f in ("K", "tilde_K") and index[0] > index[1]}
    assert set(MIRRORED_COLUMNS) == lower and len(lower) == 24

    def block(index):
        m, n = index
        return float_rep.integers.table[:, 10 + 4 * m + n].reshape(5, 5)

    for column, (source, sign) in MIRRORED_COLUMNS.items():
        field, index, part = fields[column]
        source_field, source_index, source_part = fields[source]
        assert (source_field, source_part, source_index) == (field, part, index[::-1]), column
        if field == "K":
            assert np.array_equal(block(index), block(source_index).conj().T), column
            assert sign == (-1 if part == "imag" else 1), column
        else:
            assert np.array_equal(block(index), block(source_index).T), column
            assert sign == 1, column


@pytest.mark.parametrize("shape", [(0, 5), (2, 0, 5)])
def test_fierz_residual_of_no_wavefunctions(exact_rep, float_rep, shape):
    for rep in (exact_rep, float_rep):
        phis = np.zeros(shape, dtype=int)
        for cs in (None, compute_currents(rep, phis)):
            r_h, r_c = fierz_residual(rep, phis, cs=cs)
            assert r_h.shape == r_c.shape == shape[:-1] + (5, 5)


def test_numerators_near_2_31_stay_exact(exact_rep):
    """Pair products of numerators near 2**31 pass 2**62, where int64 would
    wrap round: the currents still equal their definition, and the Fierz
    residuals vanish, or equal the definition for shifted currents."""
    rng = random.Random(31)
    near = lambda: rng.choice((-1, 1)) * (2**31 - rng.randrange(1000))
    phis = [[GaussianRational(near(), near()) for _ in range(5)],
            [GaussianRational(Fraction(near(), 2**31 - 1), near()) for _ in range(5)]]
    cs = compute_currents(exact_rep, phis)
    for i, phi in enumerate(phis):
        _assert_definition(exact_rep, cs, i, phi)
        _assert_definition(exact_rep, compute_currents(exact_rep, phi), (), phi)
    for given in (None, cs):
        assert all(_all_zero(r) for r in fierz_residual(exact_rep, phis, cs=given))
    cs.S = cs.S + 1
    r_h, r_c = fierz_residual(exact_rep, phis, cs=cs)
    for i, phi in enumerate(phis):
        p = CurrentSet(**{k: v if k == "mode" else v[i] for k, v in vars(cs).items()})
        want = _reference_rank_one_residual(exact_rep, phi, p.S, p.Sflat, p.J, p.H, p.K, True)
        assert list(r_h[i].reshape(-1)) == list(want.reshape(-1)) and not _all_zero(r_h[i])
        assert _all_zero(r_c[i])


def test_exact_currents_take_int64_only_within_the_bound(exact_rep, monkeypatch):
    """At the edge of ``_exact_fields``'s int64 bound, parts up to t with
    t^2 tops <= INT64_HALF < 2 t^2 tops: parts of equal size, t(1 ± i),
    make a tilde pair sum 16 t^2 = 2 t^2 tops, past INT64_HALF, so the
    currents are taken on Python ints; with t^2 tops a quarter of
    INT64_HALF they are taken on int64.  Both equal their definition and
    the currents forced onto Python ints."""
    import dkp5.bilinears

    tops = exact_rep.integers.tops[0]
    edge = math.isqrt(INT64_HALF // tops)
    assert edge * edge * tops <= INT64_HALF < 2 * edge * edge * tops
    taken = []

    def spy(bound, *arrays):
        out = bounded(bound, *arrays)
        taken.append(out[0].dtype)
        return out

    for t, dtype in ((edge, object), (math.isqrt(INT64_HALF // (4 * tops)), np.int64)):
        phi = [GaussianRational(t, s * t) for s in (1, -1, -1, -1, 1)]
        z = np.array([[[t] * 5], [[t, -t, -t, -t, t]]], dtype=object)
        sums = dkp5.bilinears._pairs(z, False) @ exact_rep.integers.table.astype(object)
        assert (np.abs(sums).max() > INT64_HALF) == (dtype is object)
        monkeypatch.setattr(dkp5.bilinears, "bounded", spy)
        taken.clear()
        cs = compute_currents(exact_rep, phi)
        assert taken == [np.dtype(dtype)]
        _assert_definition(exact_rep, cs, (), phi)
        monkeypatch.setattr(dkp5.bilinears, "bounded",
                            lambda bound, *arrays: bounded(INT64_HALF + 1, *arrays))
        boxed = compute_currents(exact_rep, phi)
        for name, value in vars(cs).items():
            assert np.array_equal(np.asarray(value, dtype=object),
                                  np.asarray(getattr(boxed, name), dtype=object)), name
