"""Scalar arithmetic for the two computation modes.

Every computation in the package runs in one of two fixed scalar modes:

* ``exact``: Gaussian rationals, i.e. complex numbers whose real and
  imaginary parts are arbitrary-precision :class:`fractions.Fraction`
  values.  Arithmetic is closed, there is no rounding, and equality
  against zero is decidable, so identity checks can assert exact zeros.
* ``float``: ordinary double-precision complex numbers.  Comparisons go
  through an explicit tolerance, never implicit equality.

Exact matrices are numpy object arrays whose entries are ``Fraction``
(real matrices) or :class:`GaussianRational` (complex ones); numpy's
``dot``, ``trace``, ``outer`` and friends work through the operator
protocol, so the same linear-algebra code serves both modes.

:class:`GaussianRational` serves the edges and the test oracles, not the
hot paths: wavefunctions and hand-built currents come in as Gaussian
rationals and results go out as them, while the exact stages in between
run on int64 or Python-int numerators (``KemmerRep.integers`` and the
integer rows of :mod:`dkp5.bilinears`).  Its zero and real shortcuts
serve the oracles, which multiply sparse Gaussian-rational matrices.

The scaled view ``KemmerRep.integers`` is int64 in exact mode and
complex128 in float mode, and one numpy expression serves both: the
integer helpers below bound what an int64 product can reach
(:func:`checked_matmul`, which passes float and complex operands
straight through, :func:`top`, :func:`column_top`) or pick int64 or
Python ints from such a bound (:func:`bounded`).
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import ModeError

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


def as_fraction(x) -> Fraction:
    """Exact conversion to Fraction with pure Python integer internals.

    numpy integers are converted through int so their fixed-width
    arithmetic can never leak into (and silently overflow) an exact
    computation; floats are rejected outright.
    """
    if isinstance(x, Fraction):
        # Re-box fractions whose internals are numpy integers.
        if type(x.numerator) is int and type(x.denominator) is int:
            return x
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not exact; use Fraction or int")
    return Fraction(x)


class GaussianRational:
    """Exact complex scalar with Fraction real and imaginary parts.

    Mixes freely with ``int`` and ``Fraction`` operands.  Floats are
    deliberately rejected so that a float sneaking into an exact
    computation fails loudly instead of silently degrading it.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def _fast(cls, re, im):
        # Internal constructor for operands already known to be Fractions.
        out = object.__new__(cls)
        out.re = re
        out.im = im
        return out

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction, numbers.Integral)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            # Products with zero return the shared zero; sums of sparse
            # matrix products skip it without touching the Fractions.
            if other is _GR_ZERO:
                return self
            if self is _GR_ZERO:
                return other
            return GaussianRational._fast(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            return GaussianRational._fast(self.re + other, self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + o

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational._fast(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            return GaussianRational._fast(self.re - other, self.im)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self - o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational._fast(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            # Sparse matrices make zero and real factors the common case.
            if not b:
                if not a:
                    return _GR_ZERO
                return GaussianRational._fast(a * c, a * d)
            if not d:
                if not c:
                    return _GR_ZERO
                return GaussianRational._fast(a * c, b * c)
            return GaussianRational._fast(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            if not other:
                return _GR_ZERO
            return GaussianRational._fast(self.re * other, self.im * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational._fast(
            (self.re * o.re + self.im * o.im) / n2,
            (self.im * o.re - self.re * o.im) / n2,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational._fast(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Exact squared magnitude."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


_GR_ZERO = GaussianRational(0)


def check_mode(mode):
    if mode not in MODES:
        raise ModeError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def magnitude(x) -> float:
    """Absolute value of a scalar of either mode, as a float."""
    return float(abs(x))


def is_exact_zero(x) -> bool:
    return not x


def to_complex(x) -> complex:
    return complex(x)


#: Half the int64 range: room to add or subtract two bounded values.
INT64_HALF = np.iinfo(np.int64).max // 2


def exact_int64(mats):
    """Exact matrices as int64: ModeError on a non-integer entry, OverflowError past int64."""
    ints = np.asarray(mats, dtype=object).reshape(-1)
    if not all(getattr(x, "denominator", None) == 1 for x in ints):
        raise ModeError("exact integer arithmetic needs integer (int or Fraction) matrices")
    return np.array([int(x) for x in ints], dtype=np.int64).reshape(np.shape(mats))


def top(a):
    """max |a| of an int64 or Python-int array as a Python int, 0 if it is empty
    (not np.abs, which wraps round on the most negative int64)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def column_top(m):
    """The largest column abs-sum of a matrix, in Python ints for an integer
    one: |x @ m| <= top(x) column_top(m)."""
    return max(np.abs(m.astype(object)).sum(axis=0), default=0)


def bounded(bound, *arrays):
    """Integer arrays as int64 when ``bound``, a Python int that caps every
    value the caller's products and sums can take, is within INT64_HALF;
    else as Python-int object arrays.  Either way the same numpy code then
    runs exactly, and nothing wraps round."""
    dtype = np.int64 if bound <= INT64_HALF else object
    return [np.asarray(a).astype(dtype) for a in arrays]


def checked_matmul(a, b):
    """a @ b; on integer arrays OverflowError unless every entry fits in half
    the range, which leaves room to subtract two checked products.  A float
    or complex operand cannot wrap round and passes straight through."""
    if a.dtype.kind not in "fc" and b.dtype.kind not in "fc":
        bound = a.shape[-1] * top(a) * top(b)
        if bound > INT64_HALF:
            raise OverflowError(f"int64 product could reach {bound}")
    return a @ b


def random_rational(rng, bound=9) -> Fraction:
    """Small random Fraction with numerator in [-bound, bound]."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_gaussian_rational(rng, bound=9) -> GaussianRational:
    return GaussianRational(random_rational(rng, bound), random_rational(rng, bound))


def random_exact_wavefunction(rng, bound=9):
    """Five random Gaussian rationals, the exact-mode test workhorse."""
    return [random_gaussian_rational(rng, bound) for _ in range(5)]
