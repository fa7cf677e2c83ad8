"""The per-point current relations against the frozen copy of their loop
versions, and ``fierz_residual`` against the frozen copy of its Python-int
version (tests/frozen_relations.py): exact results equal under ``==``,
float ones within the rearrangement suite's bound (``fierz_residual``'s
bit for bit)."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

import frozen_relations as frozen
from dkp5 import (
    algebraic_constraint_residuals,
    compute_currents,
    fierz_decompose,
    fierz_residual,
    zeta_identity_residuals,
)
import dkp5.bilinears
from dkp5.bilinears import CurrentSet
from dkp5.scalars import (
    GaussianRational,
    bounded,
    random_exact_wavefunction,
    random_gaussian_rational,
)


def _criterion_3_points():
    rng = random.Random(20240808)
    return [random_exact_wavefunction(rng) for _ in range(100)]


def _large_denominators():
    rng = random.Random(7)
    part = lambda: Fraction(rng.randrange(-10**30, 10**30), rng.randrange(10**29, 10**30))
    return [[GaussianRational(part(), part()) for _ in range(5)] for _ in range(10)]


def _pure_scalar_set(rep):
    """The set of test_fierz_decompose_pure_scalar_case; its Z is the -3 of
    the slot-4 point, not S - Sflat."""
    cs = compute_currents(rep, [0, 0, 0, 0, 1])
    cs.S, cs.Sflat = GaussianRational(Fraction(9, 5)), GaussianRational(0)
    cs.J, cs.H, cs.K = cs.J * 0, cs.H * 0, cs.K * 0
    return cs


def _criterion_7_set():
    zero4 = np.array([GaussianRational(0)] * 4, dtype=object)
    zeroK = np.full((4, 4), GaussianRational(0), dtype=object)
    one, zero = GaussianRational(1), GaussianRational(0)
    return CurrentSet(mode="exact", S=one, Sflat=zero, J=zero4, H=zero4.copy(),
                      K=zeroK, Z=one, tilde_S=zero, tilde_Sflat=zero,
                      tilde_J=zero4.copy(), tilde_K=zeroK.copy(), tilde_Z=zero)


def _random_set(rng):
    """Currents that no wavefunction has, complex Z and Z-tilde included."""
    r = lambda: random_gaussian_rational(rng)
    vec = lambda: np.array([r() for _ in range(4)], dtype=object)
    mat = lambda: np.array([[r() for _ in range(4)] for _ in range(4)], dtype=object)
    S, Sflat, tS, tSflat = r(), r(), r(), r()
    return CurrentSet(mode="exact", S=S, Sflat=Sflat, J=vec(), H=vec(), K=mat(), Z=S - Sflat,
                      tilde_S=tS, tilde_Sflat=tSflat, tilde_J=vec(), tilde_K=mat(),
                      tilde_Z=tS - tSflat)


def _assert_equal(got, want):
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if w is None or isinstance(w, bool):
            assert g is w, field.name
        else:
            assert np.shape(g) == np.shape(w), field.name
            assert all(np.ravel(np.asarray(g, dtype=object) == np.asarray(w, dtype=object))), field.name


def _assert_all_equal(rep, phi, cs):
    _assert_equal(fierz_decompose(cs), frozen.fierz_decompose(cs))
    _assert_equal(algebraic_constraint_residuals(cs), frozen.algebraic_constraint_residuals(cs))
    _assert_equal(zeta_identity_residuals(rep, phi, cs=cs), frozen.zeta_identity_residuals(rep, phi, cs=cs))


@pytest.mark.parametrize("points", [
    _criterion_3_points,
    lambda: [[0] * 5, [0, 0, 0, 1, 0]],
    _large_denominators,
], ids=["criterion-3", "zero-and-z-singular", "large-denominators"])
def test_exact_relations_equal_the_frozen_copies(exact_rep, points):
    for phi in points():
        cs = compute_currents(exact_rep, phi)
        _assert_all_equal(exact_rep, phi, cs)
        _assert_equal(zeta_identity_residuals(exact_rep, phi), frozen.zeta_identity_residuals(exact_rep, phi))


def test_z_singular_point_is_covered(exact_rep):
    cs = compute_currents(exact_rep, [0, 0, 0, 1, 0])
    assert cs.S == cs.Sflat == -1 and cs.Z == 0
    assert algebraic_constraint_residuals(cs).k_elimination is None


def test_exact_relations_equal_the_frozen_copies_on_hand_built_sets(exact_rep):
    rng = random.Random(11)
    sets = [_criterion_7_set(), _pure_scalar_set(exact_rep)] + [_random_set(rng) for _ in range(20)]
    assert any(cs.Z.im for cs in sets)
    for cs in sets:
        _assert_all_equal(exact_rep, random_exact_wavefunction(rng), cs)


def test_float_relations_agree_with_the_frozen_copies(float_rep):
    rng = np.random.default_rng(20240808)
    for _ in range(100):
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        bound = 1e-12 * (1.0 + float(np.sum(np.abs(phi) ** 2)) ** 2)
        cs = compute_currents(float_rep, phi)
        pairs = [
            (fierz_decompose(cs), frozen.fierz_decompose(cs)),
            (algebraic_constraint_residuals(cs), frozen.algebraic_constraint_residuals(cs)),
            (zeta_identity_residuals(float_rep, phi, cs=cs), frozen.zeta_identity_residuals(float_rep, phi, cs=cs)),
        ]
        for got, want in pairs:
            for field in dataclasses.fields(want):
                g, w = getattr(got, field.name), getattr(want, field.name)
                if w is None or isinstance(w, bool):
                    assert g is w, field.name
                    continue
                assert np.asarray(g).dtype == np.asarray(w).dtype and np.shape(g) == np.shape(w), field.name
                assert np.max(np.abs(np.asarray(g) - w)) < bound, field.name


def test_relations_run_without_gaussian_rational_arithmetic(exact_rep, monkeypatch):
    phi = [GaussianRational(Fraction(1, 2), 3), 2, Fraction(-5, 7), GaussianRational(0, 1), 1]
    cs = compute_currents(exact_rep, phi)

    def refuse(*args):
        raise AssertionError("Gaussian rational arithmetic on an integer path")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(GaussianRational, op, refuse)
    fierz_decompose(cs)
    res = algebraic_constraint_residuals(cs)
    assert not res.singular_z and res.k_elimination is not None
    zeta_identity_residuals(exact_rep, phi, cs=cs)
    fierz_residual(exact_rep, phi, cs=cs)


def _integer_points(rng, scale):
    """Gaussian-integer wavefunctions with parts up to ``scale``."""
    part = lambda: rng.randint(-scale, scale)
    return [[GaussianRational(part(), part()) for _ in range(5)] for _ in range(3)]


def _fierz_inputs():
    """Wavefunction batches: the 100 points of criterion 3, no wavefunction,
    the zero one, and integer ones from 2**10 to 2**31, which put the exact
    products on both sides of the int64 bound with and without currents."""
    rng = random.Random(15)
    return [np.array(_criterion_3_points(), dtype=object), np.empty((0, 5), dtype=object),
            np.zeros((1, 5), dtype=int)] + [
        np.array(_integer_points(rng, 2**k), dtype=object) for k in (10, 12, 14, 25, 26, 31)]


def test_exact_fierz_residual_equals_the_frozen_copy(exact_rep, monkeypatch):
    taken, dtypes = [], {True: set(), False: set()}  # with and without currents

    def spy(bound, *arrays):
        out = bounded(bound, *arrays)
        taken.append(out[0].dtype)
        return out

    monkeypatch.setattr(dkp5.bilinears, "bounded", spy)
    for phis in _fierz_inputs():
        for points in (phis, *phis[:5]):  # the batch, then its first points one at a time
            for cs in (None, compute_currents(exact_rep, points)):
                taken.clear()
                got = fierz_residual(exact_rep, points, cs=cs)
                dtypes[cs is not None].update(taken)
                want = frozen.fierz_residual(exact_rep, points, cs=cs)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.dtype == w.dtype == object
                    assert all(isinstance(x, GaussianRational) for x in g.reshape(-1))
                    assert list(g.reshape(-1)) == list(w.reshape(-1))
                    assert not any(g.reshape(-1))
    assert dtypes[False] == dtypes[True] == {np.dtype(np.int64), np.dtype(object)}


def test_float_fierz_residual_is_bit_identical_to_the_frozen_copy(float_rep):
    rng = np.random.default_rng(20240808)
    phis = rng.standard_normal((100, 5)) + 1j * rng.standard_normal((100, 5))
    for points in (phis, phis[0], phis[:0]):
        for cs in (None, compute_currents(float_rep, points)):
            for g, w in zip(fierz_residual(float_rep, points, cs=cs),
                            frozen.fierz_residual(float_rep, points, cs=cs)):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def test_int64_results_are_boxed_from_python_ints(exact_rep):
    """Currents and Fierz residuals of small Gaussian integers, both taken on
    int64, hold Python ints: a Fraction of numpy integers would wrap round
    in later arithmetic."""
    phis = _integer_points(random.Random(1), 2**10)
    cs = compute_currents(exact_rep, phis)
    cs.S = cs.S + 1
    fields = [cs.S, cs.J, cs.H, cs.K, cs.tilde_K, *fierz_residual(exact_rep, phis, cs=cs)]
    parts = [f for a in fields for x in np.ravel(a) for f in (x.re, x.im)]
    assert any(parts)
    assert all(type(f.numerator) is int and type(f.denominator) is int for f in parts)
