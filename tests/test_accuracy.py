"""Float currents against the exact currents of the same float inputs.

A float converts to a Fraction exactly, so exact mode gives the value that
the float kernel rounds: the exact currents of
GaussianRational(Fraction(x.real), Fraction(x.imag)).  Every current
column of one batched float ``compute_currents`` must lie within c u |Phi|^2
of it, u = 2^-53, with c from the float current table.

The bound: a column sums its t nonzero coefficients c_r times a real or
imaginary pair part of Phi_a Phi_b, in row order.  A pair part is two
products and a sum, the coefficient may carry two roundings (the c_mu
columns times 1/3), its product one more, and the sum t - 1, so at most
t + 4 roundings lie on each term's path, and the column is within
gamma_(t+4) sum_r |c_r| |Phi_a| |Phi_b| <= gamma_(t+4) ||c||_1 |Phi|^2 of
the exact one (gamma_n = n u / (1 - n u)).  c takes the largest t and the
largest ||c||_1 of the table.  Z = S - Sflat and its tilde twin add the
errors of two columns and one rounding of a value at most ||c||_1 |Phi|^2
each, within three times the column bound.  This is a normwise bound
only: where Z cancels (|Z| << |Phi|^2) it says nothing of Z's relative
error.

Stencils get the same treatment: ``stencil_derivative`` of a float grid
against the Fraction stencil of the same floats (2h is exact).  A real
interior value is a difference and a division, within gamma_2 of the exact
value; a real boundary value is a product -3 v0 (4 v1 is exact), two sums
and a division, within gamma_4 (3|v0| + 4|v1| + |v2|) / 2h.  A complex
value is divided as each part times the rounded 1/2h, one rounding more
per part: gamma_3 inside, gamma_5 at the boundary, on the part's own
magnitudes.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp5 import build_representation, compute_currents, stencil_derivative
from dkp5.bilinears import CURRENT_COLUMNS, _float_table, _pair_table
from dkp5.scalars import GaussianRational

U = Fraction(1, 2**53)
FLOAT_REP, EXACT_REP = build_representation("float"), build_representation("exact")


def _column_bound():
    """gamma_(t+4) ||c||_1 for the largest t and ||c||_1 of the float table."""
    table = _pair_table(_float_table(FLOAT_REP), hermitian=False)
    terms = int(np.count_nonzero(table, axis=0).max())
    norm1 = max(sum(Fraction(abs(c)) for c in column) for column in table.T)
    n = terms + 4
    return n * U / (1 - n * U) * norm1


BOUND = {column: (3 if column in ("Z", "ReZt", "ImZt") else 1) * _column_bound()
         for column, *_ in CURRENT_COLUMNS}


def _wavefunctions(seed, n=300):
    """n wavefunctions of magnitude 10^e, e uniform in -100..100, each
    component's real and imaginary parts normal; a third with Phi_4
    scaled by 1e-6."""
    rng = np.random.default_rng(seed)
    phis = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
    phis *= 10.0 ** rng.integers(-100, 101, size=(n, 1))
    phis[::3, 4] *= 1e-6
    return phis


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_float_currents_lie_within_the_bound_of_the_exact_ones(seed):
    phis = _wavefunctions(seed)
    got = compute_currents(FLOAT_REP, phis)
    exact = compute_currents(EXACT_REP, [[GaussianRational(Fraction(x.real), Fraction(x.imag)) for x in phi]
                                         for phi in phis])
    size = [sum(Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in phi) for phi in phis]  # |Phi|^2
    for column, field, index, part in CURRENT_COLUMNS:
        floats = getattr(getattr(got, field)[(..., *index)], part)
        exacts = getattr(exact, field)[(..., *index)]
        for i, (f, e) in enumerate(zip(floats, exacts)):
            err = abs(Fraction(f) - (e.re if part == "real" else e.im))
            assert err <= BOUND[column] * size[i], (column, i, float(err / (U * size[i])))


def _gamma(n):
    return n * U / (1 - n * U)


def _fractions(x):
    return np.vectorize(Fraction, otypes=[object])(x)


def _exact_stencil(part, axis, h):
    """The stencil of a real float array in Fractions, stencil axis first,
    and the magnitude its rounding bound scales with: |exact| inside,
    3|v0| + 4|v1| + |v2| / 2h at the two boundary layers."""
    v = np.moveaxis(_fractions(part), axis, 0)
    two_h = 2 * Fraction(h)
    exact = np.empty_like(v)
    exact[1:-1] = (v[2:] - v[:-2]) / two_h
    exact[0] = (-3 * v[0] + 4 * v[1] - v[2]) / two_h
    exact[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / two_h
    size = np.abs(exact)
    size[0] = (3 * abs(v[0]) + 4 * abs(v[1]) + abs(v[2])) / two_h
    size[-1] = (3 * abs(v[-1]) + 4 * abs(v[-2]) + abs(v[-3])) / two_h
    return exact, size


@given(st.integers(0, 2**32 - 1), st.floats(1e-2, 10.0))
@settings(max_examples=4, deadline=None)
def test_stencils_lie_within_the_rounding_bound_of_exact_stencils(seed, h):
    rng = np.random.default_rng(seed)
    shape = (2, 4, 3, 5, 3)
    parts = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 101, shape)
    parts[rng.random(shape) < 0.1] = -0.0
    for values, extra in ((parts[0], 0), (parts[0] + 1j * parts[1], 1)):  # complex: 1/2h rounded
        for axis in range(4):
            got = stencil_derivative(values, axis, h)
            for floats, part in ((got.real, values.real), (got.imag, values.imag)):
                exact, size = _exact_stencil(part, axis, h)
                err = np.abs(np.moveaxis(_fractions(floats), axis, 0) - exact)
                assert (err[1:-1] <= _gamma(2 + extra) * size[1:-1]).all(), (axis, extra)
                assert (err[[0, -1]] <= _gamma(4 + extra) * size[[0, -1]]).all(), (axis, extra)
