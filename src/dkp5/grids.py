"""Rectangular 4D lattices of field values, their file format and stencils.

A grid has four axes (t, x, y, z), per-axis spacing in natural units,
and a per-point payload of one of four kinds, identified by the number
of complex components it carries: 1 (scalar), 4 (four-vector), 5
(wavefunction) or 16 (rank-2 tensor, stored row-major).  Axes of extent
1 are symmetry axes: the field is constant along them and derivatives
along them are exactly zero.

File format (little-endian, self-describing, bit-exact round trip):

    magic   "DKP5"            4 bytes
    version u32 = 1
    kind    u8  (components per point)
    extents 4 x u64           slowest axis first (t)
    spacing 4 x f64           each positive and finite, h*h a normal float
    payload f64 pairs (re, im), row-major, component index fastest; all finite

Derivatives use second-order central differences in the interior and
the one-sided stencil (-3 f0 + 4 f1 - f2) / 2h at the two boundary
layers; both are exact on quadratics.  ``derivatives`` is the one array
gradient (the FieldGrid ``partial_derivative`` and ``gradient`` wrap it),
and every stencil runs through ``stencil_derivative``.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GridFormatError, ShapeError, StencilError

SCALAR = 1
FOUR_VECTOR = 4
WAVEFUNCTION = 5
TENSOR2 = 16

_KIND_TRAILING = {
    SCALAR: (),
    FOUR_VECTOR: (4,),
    WAVEFUNCTION: (5,),
    TENSOR2: (4, 4),
}

_MAGIC = b"DKP5"
_VERSION = 1
_HEADER = struct.Struct("<4sIB4Q4d")


def valid_spacing(h) -> bool:
    """h > 0, finite, h*h normal: the nested stencils divide by h twice."""
    return h > 0 and math.isfinite(h) and h * h >= sys.float_info.min


@dataclass
class FieldGrid:
    """Lattice of per-point payloads, values of shape extents + payload shape:
    float64 for a real (float64) payload, complex128 for any other."""

    extents: tuple
    spacing: tuple
    kind: int
    values: np.ndarray

    def __post_init__(self):
        self.extents = tuple(int(n) for n in self.extents)
        self.spacing = tuple(float(h) for h in self.spacing)
        if len(self.extents) != 4 or len(self.spacing) != 4:
            raise ShapeError("grids have exactly four axes")
        if any(n < 1 for n in self.extents):
            raise ShapeError(f"axis extents must be positive, got {self.extents}")
        if not all(map(valid_spacing, self.spacing)):
            raise ShapeError(f"axis spacings must be positive and finite, with "
                             f"h*h >= {sys.float_info.min}, got {self.spacing}")
        if self.kind not in _KIND_TRAILING:
            raise ShapeError(f"unknown payload kind {self.kind}")
        want = self.extents + _KIND_TRAILING[self.kind]
        values = np.asarray(self.values)
        self.values = values if values.dtype == np.float64 else values.astype(complex, copy=False)
        if self.values.shape != want:
            raise ShapeError(f"values shape {self.values.shape}, want {want}")

    @classmethod
    def zeros(cls, extents, spacing, kind):
        shape = tuple(extents) + _KIND_TRAILING[kind]
        return cls(tuple(extents), tuple(spacing), kind, np.zeros(shape, dtype=complex))

    @property
    def n_points(self):
        return int(np.prod(self.extents))


def check_addressable(extents, kind):
    """ShapeError unless numpy can address a payload of this shape; allocates nothing."""
    nbytes = math.prod(extents) * kind * 16  # Python ints never wrap round
    if nbytes > np.iinfo(np.intp).max:
        raise ShapeError(f"extents {tuple(extents)} need {nbytes} bytes, more than numpy can address")


def _check_finite(values, message):
    """GridFormatError at the file offset of the first non-finite float of
    ``values`` laid out as '<c16' (a float64 value x as the pair (x, 0.0))."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())  # row-major, whatever the memory layout
        first = values[np.unravel_index(i, values.shape)]
        part = np.iscomplexobj(values) and math.isfinite(first.real)  # 1: the imaginary part
        raise GridFormatError(message, offset=_HEADER.size + 16 * i + 8 * part)


def coordinate_axes(extents, spacing):
    """Per-axis coordinate arrays; the grid origin sits at 0."""
    return [np.arange(n) * h for n, h in zip(extents, spacing)]


#: Bytes of '<c16' payload that store_grid casts and writes at a time.
_SLAB_BYTES = 1 << 20


def store_grid(grid: FieldGrid, path):
    """Write the grid file; refuse, before any file is opened, a non-finite value.

    The payload is cast to '<c16' and written in slabs of whole t-slices,
    about ``_SLAB_BYTES`` each, so no complex copy of the whole grid is made.
    """
    header = _HEADER.pack(
        _MAGIC, _VERSION, grid.kind, *grid.extents, *grid.spacing
    )
    values = grid.values
    _check_finite(values, "refusing to write a non-finite value")
    step = max(1, _SLAB_BYTES // (16 * values[:1].size))
    with open(path, "wb") as fh:
        fh.write(header)
        for t in range(0, len(values), step):
            fh.write(memoryview(np.ascontiguousarray(values[t:t + step], dtype="<c16")))


def load_grid(path) -> FieldGrid:
    """The grid stored at ``path``, header and payload read through one
    handle; GridFormatError at the offset of the first bad byte, or of
    the first value missing where the file shrank while it was read."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        file_size = os.fstat(fh.fileno()).st_size
        if len(raw) < _HEADER.size:
            raise GridFormatError(
                f"file too short for header ({len(raw)} < {_HEADER.size} bytes)", offset=len(raw)
            )
        magic, version, kind, n0, n1, n2, n3, h0, h1, h2, h3 = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise GridFormatError(f"bad magic {magic!r}, want {_MAGIC!r}", offset=0)
        if version != _VERSION:
            raise GridFormatError(f"unsupported version {version}", offset=4)
        if kind not in _KIND_TRAILING:
            raise GridFormatError(f"unknown payload kind {kind}", offset=8)
        extents = (n0, n1, n2, n3)
        for i, n in enumerate(extents):
            if n == 0:
                raise GridFormatError(f"axis {i} has extent 0", offset=9 + 8 * i)
        spacing = (h0, h1, h2, h3)
        for i, h in enumerate(spacing):
            if not valid_spacing(h):
                raise GridFormatError(f"axis {i} has spacing {h}", offset=41 + 8 * i)
        # Sized in Python ints, which never wrap round, before anything is read.
        n_values = math.prod(extents) * kind
        expected = n_values * 16
        got = file_size - _HEADER.size
        if got != expected:
            raise GridFormatError(
                f"payload has {got} bytes, want {expected}", offset=_HEADER.size + min(got, expected)
            )
        values = np.fromfile(fh, dtype="<c16", count=n_values)
        if values.size < n_values:
            raise GridFormatError(f"payload ends after {values.size} of {n_values} values",
                                  offset=_HEADER.size + 16 * values.size)
        _check_finite(values, "payload holds a non-finite value")
        values = values.astype(complex, copy=False).reshape(extents + _KIND_TRAILING[kind])
        return FieldGrid(extents, spacing, kind, values)


def stencil_derivative(values: np.ndarray, axis: int, h: float, out=None) -> np.ndarray:
    """Second-order first derivative of an array along one axis, written to
    ``out`` (same shape as ``values``) when given.

    Requires at least 3 samples along the axis; symmetry axes are handled
    by :func:`derivatives`, which returns zeros without touching the stencil.
    """
    v = np.moveaxis(values, axis, 0)
    if v.shape[0] < 3:
        raise StencilError(
            f"axis {axis} has extent {v.shape[0]}; need >= 3 for the stencil"
        )
    out = np.empty_like(v) if out is None else np.moveaxis(out, axis, 0)
    inner = out[1:-1]
    np.subtract(v[2:], v[:-2], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def derivatives(values, spacing, axes=range(4)):
    """d/dx^mu of a grid-shaped array (grid axes first) for each mu in ``axes``,
    stacked on a new leading axis so that each derivative is contiguous;
    exactly zero along symmetry axes."""
    values = np.ascontiguousarray(values)  # strided views take the stencils slowly
    axes = tuple(axes)
    out = np.empty((len(axes),) + values.shape, dtype=np.result_type(values, 1.0))
    for d, mu in zip(out, axes):
        if values.shape[mu] == 1:
            d[...] = 0.0
        else:
            stencil_derivative(values, mu, spacing[mu], out=d)
    return out


def partial_derivative(grid: FieldGrid, axis: int) -> FieldGrid:
    """d/dx^axis of the field; exactly zero along symmetry axes."""
    if not 0 <= axis <= 3:
        raise ShapeError(f"axis {axis} outside 0..3")
    d = derivatives(grid.values, grid.spacing, (axis,))[0]
    return FieldGrid(grid.extents, grid.spacing, grid.kind, d)


def gradient(grid: FieldGrid):
    """All four partial derivatives, lower index."""
    return [FieldGrid(grid.extents, grid.spacing, grid.kind, d)
            for d in derivatives(grid.values, grid.spacing)]


def norms(values, mask=None):
    """(max |value|, root-mean-square of |value|) over unmasked points (mask
    covers the four grid axes), row-major order, from one absolute value."""
    return _norms_of_abs(np.abs(np.atleast_1d(values)), mask)


def _norms_of_abs(a, mask=None):
    """:func:`norms` of the values whose absolute values are ``a``, a float64
    array of at least one axis that this function may overwrite: it squares
    the (unmasked) values in place."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape[: mask.ndim]:
            raise ShapeError(f"mask {mask.shape} does not match the grid axes of {a.shape}")
        a = (a[~mask] if mask.any() else a).ravel()
    if not a.size:
        return 0.0, 0.0
    top = float(a.max())
    scale = math.isfinite(top) and top * top * a.size > sys.float_info.max  # squares overflow
    if scale:
        a /= top
    np.square(a, out=a)
    rms_value = float(np.sqrt(np.mean(a)))
    return top, top * rms_value if scale else rms_value


def max_abs(values, mask=None) -> float:
    """Max |value| over unmasked points (mask covers the four grid axes)."""
    return norms(values, mask)[0]


def rms(values, mask=None) -> float:
    """Root-mean-square of |value| over unmasked points, row-major order."""
    return norms(values, mask)[1]
