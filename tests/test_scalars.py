from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp5.scalars import (
    GaussianRational,
    as_fraction,
    random_exact_rows,
    random_exact_wavefunction,
    random_gaussian_rational,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-2, 3))
    assert a - a == 0
    assert a * 0 == 0
    assert (a * b) / b == a
    assert -a + a == 0
    assert a.conjugate().im == -a.im


def test_mixing_with_int_and_fraction():
    a = GaussianRational(1, 1)
    assert 2 * a == GaussianRational(2, 2)
    assert a + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert Fraction(1, 2) - a == GaussianRational(Fraction(-1, 2), -1)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_pow():
    i = GaussianRational(0, 1)
    assert i**2 == -1
    assert i**4 == 1
    assert GaussianRational(Fraction(1, 2)) ** 3 == Fraction(1, 8)


def test_float_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    assert GaussianRational(1).__add__(0.5) is NotImplemented


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_as_fraction_numpy_ints_unboxed():
    f = as_fraction(np.int64(3))
    assert f == 3
    assert type(f.numerator) is int
    g = GaussianRational(np.int32(2), np.int64(-1))
    assert type(g.re.numerator) is int and type(g.im.numerator) is int


def test_helpers():
    """abs, bool and complex of a Gaussian rational, as the package reads them."""
    assert abs(GaussianRational(3, 4)) == pytest.approx(5.0)
    assert not GaussianRational(0)
    assert GaussianRational(0, Fraction(1, 10**40))
    assert complex(GaussianRational(1, -2)) == 1 - 2j


@given(gaussians, gaussians, gaussians)
@settings(max_examples=200)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a / b) * b == a


@given(gaussians)
@settings(max_examples=100)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    n2 = a.norm2()
    assert a * a.conjugate() == GaussianRational(n2)
    assert n2 >= 0


def test_random_generator_seeded():
    import random

    g1 = [random_gaussian_rational(random.Random(5)) for _ in range(3)]
    g2 = [random_gaussian_rational(random.Random(5)) for _ in range(3)]
    assert g1 == g2


def test_integer_draw_boxes_to_the_wavefunctions_of_the_same_seed():
    """random_exact_rows makes the draws of random_exact_wavefunction, in its
    order: boxed, the rows are the wavefunctions from the same seed, and
    they are bilinears._integer_parts of them."""
    import random

    from dkp5.bilinears import _integer_parts, _ratio

    for seed in range(51):
        for n in (1, 2, 7, 20):
            num, den = random_exact_rows(random.Random(seed), n)
            rng = random.Random(seed)
            phis = [random_exact_wavefunction(rng) for _ in range(n)]
            assert _ratio(num, den).tolist() == phis
            want_num, want_den = _integer_parts(phis)
            assert num.shape == want_num.shape and den.shape == want_den.shape
            assert all(type(x) is int for x in [*num.flat, *den.flat])
            assert (num == want_num).all() and (den == want_den).all()
