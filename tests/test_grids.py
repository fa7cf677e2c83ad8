import math
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dkp5 import (
    FOUR_VECTOR,
    SCALAR,
    TENSOR2,
    WAVEFUNCTION,
    FieldGrid,
    load_grid,
    max_abs,
    partial_derivative,
    rms,
    stencil_derivative,
    store_grid,
)
from dkp5 import cli
from dkp5.errors import GridFormatError, ShapeError, StencilError
from dkp5.grids import derivatives, gradient


def _random_grid(rng, extents, kind):
    shape = tuple(extents) + {SCALAR: (), FOUR_VECTOR: (4,), WAVEFUNCTION: (5,), TENSOR2: (4, 4)}[kind]
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FieldGrid(extents, (0.1, 0.2, 0.3, 0.4), kind, vals)


@pytest.mark.parametrize("kind", [SCALAR, FOUR_VECTOR, WAVEFUNCTION, TENSOR2])
def test_round_trip_bit_exact(tmp_path, kind):
    rng = np.random.default_rng(kind)
    grid = _random_grid(rng, (3, 2, 4, 1), kind)
    path = tmp_path / "grid.dkp5"
    store_grid(grid, path)
    back = load_grid(path)
    assert back.extents == grid.extents
    assert back.spacing == grid.spacing
    assert back.kind == grid.kind
    assert np.array_equal(back.values, grid.values)
    # store-load-store reproduces the file byte for byte
    path2 = tmp_path / "grid2.dkp5"
    store_grid(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "g.dkp5"
    store_grid(_random_grid(rng, (2, 1, 1, 1), SCALAR), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert exc.value.offset == 0


def test_bad_version(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "g.dkp5"
    store_grid(_random_grid(rng, (2, 1, 1, 1), SCALAR), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert exc.value.offset == 4


def test_zero_extent(tmp_path):
    path = tmp_path / "g.dkp5"
    header = struct.pack("<4sIB4Q4d", b"DKP5", 1, 1, 2, 0, 1, 1, 0.1, 0.1, 0.1, 0.1)
    path.write_bytes(header)
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert "extent 0" in str(exc.value)
    assert exc.value.offset == 9 + 8


def test_truncated_payload(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "g.dkp5"
    store_grid(_random_grid(rng, (2, 2, 1, 1), FOUR_VECTOR), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(GridFormatError):
        load_grid(path)


def test_payload_cut_short_while_read(tmp_path, monkeypatch, capsys):
    """A file that a writer truncates after its size is read gives a
    GridFormatError at the first missing value, and `dkp currents` on it
    exits 2."""
    path = tmp_path / "g.dkp5"
    store_grid(_random_grid(np.random.default_rng(2), (2, 5, 1, 1), SCALAR), path)
    raw = path.read_bytes()
    size = len(raw)
    fstat = os.fstat

    def fstat_then_truncate(fd):
        stat = fstat(fd)
        os.truncate(path, size - 16 * 5)  # 5 of the 10 values are left
        return stat

    monkeypatch.setattr(os, "fstat", fstat_then_truncate)
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert exc.value.offset == size - 16 * 5
    path.write_bytes(raw)
    assert cli.main(["currents", "--grid", str(path)]) == 2
    assert "payload ends after 5 of 10 values" in capsys.readouterr().err


def test_extent_product_overflow(tmp_path):
    # 2^40 * 2^40 values wraps to 0 bytes in int64; the loader must not
    path = tmp_path / "g.dkp5"
    path.write_bytes(struct.pack("<4sIB4Q4d", b"DKP5", 1, 1, 2**40, 2**40, 1, 1, 0.1, 0.1, 0.1, 0.1))
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert "want 19342813113834066795298816 (byte" in str(exc.value)


@st.composite
def grid_files(draw):
    """Grid files with random, mostly plausible headers, cut at random."""
    magic = draw(st.sampled_from([b"DKP5", b"DKP5", b"DKP4"]))
    version = draw(st.sampled_from([1, 1, 0, 2**32 - 1]))
    kind = draw(st.sampled_from([1, 4, 5, 16, 0, 7, 255]))
    extent = st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1))
    extents = draw(st.lists(extent, min_size=4, max_size=4))
    spacing = draw(st.lists(st.one_of(st.just(0.1), st.floats()), min_size=4, max_size=4))
    raw = struct.pack("<4sIB4Q4d", magic, version, kind, *extents, *spacing)
    size = math.prod(extents) * kind * 16
    payload = bytes(size if size <= 4096 else 0)
    if 0 < size <= 256 and draw(st.booleans()):
        payload = draw(st.binary(min_size=size, max_size=size))  # may hold NaN or inf
    raw += payload + draw(st.binary(max_size=32))
    return raw[: draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))]


@given(raw=grid_files())
@example(raw=struct.pack("<4sIB4Q4d", b"DKP5", 1, 5, 2**32, 2**32, 1, 1, 0.1, 0.1, 0.1, 0.1))
@settings(max_examples=300, deadline=None)
def test_load_grid_fuzz_raises_only_format_errors(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.dkp5"
    path.write_bytes(raw)
    try:
        grid = load_grid(path)
    except GridFormatError:
        return
    assert len(raw) == struct.calcsize("<4sIB4Q4d") + 16 * grid.values.size
    assert np.isfinite(grid.values).all()


@pytest.mark.parametrize("value, part", [(np.nan, 1), (np.inf, 0), (-np.inf, 1)])
def test_non_finite_payload_rejected(tmp_path, value, part):
    rng = np.random.default_rng(2)
    grid = _random_grid(rng, (2, 3, 1, 1), WAVEFUNCTION)
    path = tmp_path / "g.dkp5"
    store_grid(grid, path)
    raw = bytearray(path.read_bytes())
    offset = struct.calcsize("<4sIB4Q4d") + 16 * 17 + 8 * part  # point (1, 0), component 2
    raw[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert exc.value.offset == offset


def test_store_refuses_non_finite(tmp_path):
    rng = np.random.default_rng(3)
    grid = _random_grid(rng, (2, 1, 1, 1), FOUR_VECTOR)
    grid.values[1, 0, 0, 0, 3] = complex(0.0, np.nan)
    path = tmp_path / "g.dkp5"
    with pytest.raises(GridFormatError) as exc:
        store_grid(grid, path)
    assert exc.value.offset == struct.calcsize("<4sIB4Q4d") + 16 * 7 + 8
    assert not path.exists()


def test_unknown_kind(tmp_path):
    path = tmp_path / "g.dkp5"
    header = struct.pack("<4sIB4Q4d", b"DKP5", 1, 7, 1, 1, 1, 1, 0.1, 0.1, 0.1, 0.1)
    path.write_bytes(header + b"\x00" * 16 * 7)
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert exc.value.offset == 8


def test_constructor_validation():
    with pytest.raises(ShapeError):
        FieldGrid((0, 1, 1, 1), (0.1,) * 4, SCALAR, np.zeros((0, 1, 1, 1)))
    with pytest.raises(ShapeError):
        FieldGrid((2, 1, 1, 1), (0.1, -0.1, 0.1, 0.1), SCALAR, np.zeros((2, 1, 1, 1)))
    with pytest.raises(ShapeError):
        FieldGrid((2, 1, 1, 1), (0.1,) * 4, FOUR_VECTOR, np.zeros((2, 1, 1, 1, 5)))
    for h in (float("inf"), float("nan")):
        with pytest.raises(ShapeError):
            FieldGrid((2, 1, 1, 1), (0.1, h, 0.1, 0.1), SCALAR, np.zeros((2, 1, 1, 1)))


def test_constant_field_derivative_zero():
    grid = FieldGrid((5, 1, 1, 1), (0.1,) * 4, SCALAR, np.full((5, 1, 1, 1), 2.5 + 0j))
    d = partial_derivative(grid, 0)
    assert np.array_equal(d.values, np.zeros_like(d.values))


def test_quadratic_exact_everywhere():
    # both the central and one-sided stencils are exact on t^2
    n, h = 9, 0.37
    t = np.arange(n) * h
    vals = (t**2).reshape(n, 1, 1, 1).astype(complex)
    grid = FieldGrid((n, 1, 1, 1), (h, 1, 1, 1), SCALAR, vals)
    d = partial_derivative(grid, 0)
    want = (2 * t).reshape(n, 1, 1, 1)
    assert np.allclose(d.values, want, atol=1e-12)


def test_sine_convergence_second_order():
    def err(n, h):
        x = np.arange(n) * h
        vals = np.sin(x).reshape(1, n, 1, 1).astype(complex)
        grid = FieldGrid((1, n, 1, 1), (1, h, 1, 1), SCALAR, vals)
        d = partial_derivative(grid, 1)
        return np.max(np.abs(d.values[0, :, 0, 0] - np.cos(x)))

    h = 0.01
    e1 = err(101, h)
    e2 = err(201, h / 2)
    assert e1 <= 1.0 * h**2
    assert 3.5 <= e1 / e2 <= 4.5


def test_symmetry_axis_and_stencil_error():
    grid = FieldGrid((4, 1, 2, 1), (0.1,) * 4, SCALAR, np.ones((4, 1, 2, 1), dtype=complex))
    assert np.array_equal(partial_derivative(grid, 1).values, np.zeros((4, 1, 2, 1)))
    with pytest.raises(StencilError):
        partial_derivative(grid, 2)


def _expression_stencil(values, axis, h):
    """The stencil as one array expression per region, without ``out=``."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_in_place_stencil_is_bit_identical():
    rng = np.random.default_rng(5)
    shape = (5, 4, 6, 3, 4)
    real = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    real.flat[::7] = -0.0
    for values in (real, real + 1j * rng.standard_normal(shape), real[..., 1]):
        for axis in range(4):
            for h in (0.05, 0.1, 0.3, 0.37):
                want = _expression_stencil(values, axis, h)
                assert np.array_equal(_bits(stencil_derivative(values, axis, h)), _bits(want))
                out = np.full(values.shape, np.nan, dtype=values.dtype)
                stencil_derivative(values, axis, h, out=out)
                assert np.array_equal(_bits(out), _bits(want))


def test_derivatives_stack_on_a_leading_axis():
    rng = np.random.default_rng(6)
    spacing = (0.1, 0.2, 0.3, 0.4)
    values = rng.standard_normal((4, 1, 5, 3, 4)) + 1j * rng.standard_normal((4, 1, 5, 3, 4))
    d = derivatives(values, spacing)
    assert d.shape == (4,) + values.shape and d[2].flags.c_contiguous
    assert not d[1].any()  # symmetry axis
    for mu in (0, 2, 3):
        assert np.array_equal(_bits(d[mu]), _bits(stencil_derivative(values, mu, spacing[mu])))
        assert np.array_equal(_bits(derivatives(values, spacing, (mu,))[0]), _bits(d[mu]))
    assert derivatives(values.real, spacing).dtype == np.float64
    grid = FieldGrid((4, 1, 5, 3), spacing, FOUR_VECTOR, values)
    assert all(np.array_equal(g.values, d[mu]) for mu, g in enumerate(gradient(grid)))


def test_derivative_linearity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 1, 1, 1)) + 1j * rng.standard_normal((6, 1, 1, 1))
    b = rng.standard_normal((6, 1, 1, 1)) + 1j * rng.standard_normal((6, 1, 1, 1))
    h = 0.2
    lhs = stencil_derivative(2.0 * a + 3.0 * b, 0, h)
    rhs = 2.0 * stencil_derivative(a, 0, h) + 3.0 * stencil_derivative(b, 0, h)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_cross_axis_stencils_commute():
    # stencils along different axes are tensor-product operators, so they
    # commute to round-off even on rough data
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((5, 6, 1, 1)).astype(complex)
    d01 = stencil_derivative(stencil_derivative(vals, 0, 0.1), 1, 0.2)
    d10 = stencil_derivative(stencil_derivative(vals, 1, 0.2), 0, 0.1)
    assert np.max(np.abs(d01 - d10)) < 1e-12


def test_mixed_derivative_commutes_on_smooth_field():
    def mixed(n, h):
        t = (np.arange(n) * h).reshape(n, 1, 1, 1)
        x = (np.arange(n) * h).reshape(1, n, 1, 1)
        vals = np.broadcast_to(np.sin(t) * np.cos(2 * x), (n, n, 1, 1)).astype(complex)
        d01 = stencil_derivative(stencil_derivative(vals, 0, h), 1, h)
        d10 = stencil_derivative(stencil_derivative(vals, 1, h), 0, h)
        return np.max(np.abs(d01 - d10))

    assert mixed(12, 0.05) < 1e-12


def test_norm_helpers_masked():
    vals = np.array([[1.0, 2.0], [30.0, 4.0]]).reshape(2, 2, 1, 1)
    mask = np.zeros((2, 2, 1, 1), dtype=bool)
    mask[1, 0] = True
    assert max_abs(vals) == 30.0
    assert max_abs(vals, mask) == 4.0
    assert rms(vals, mask) == pytest.approx(np.sqrt((1 + 4 + 16) / 3))
    assert max_abs(vals, np.ones_like(mask)) == 0.0


@pytest.mark.parametrize("h, ok", [(1e-320, False), (1e-160, False), (1e-150, True)])
def test_spacing_square_must_be_normal(tmp_path, h, ok):
    """A spacing is usable when h*h is a normal float; FieldGrid and load_grid
    both reject any other, the loader at the spacing's byte offset."""
    values = np.zeros((3, 1, 1, 1))
    path = tmp_path / "g.dkp5"
    path.write_bytes(struct.pack("<4sIB4Q4d", b"DKP5", 1, 1, 3, 1, 1, 1, 0.1, 0.1, h, 0.1)
                     + bytes(16 * 3))
    if ok:
        assert FieldGrid((3, 1, 1, 1), (h,) * 4, SCALAR, values).spacing == (h,) * 4
        assert load_grid(path).spacing == (0.1, 0.1, h, 0.1)
        return
    with pytest.raises(ShapeError):
        FieldGrid((3, 1, 1, 1), (0.1, h, 0.1, 0.1), SCALAR, values)
    with pytest.raises(GridFormatError) as exc:
        load_grid(path)
    assert exc.value.offset == 41 + 8 * 2


@pytest.mark.parametrize("dtype, want", [
    (np.float64, np.float64), (np.int64, np.complex128), (bool, np.complex128),
    (np.float32, np.complex128), (">f8", np.complex128), (np.complex64, np.complex128),
    (np.complex128, np.complex128),
])
def test_field_grid_keeps_float64_and_makes_the_rest_complex(dtype, want):
    values = np.arange(24).reshape(3, 2, 1, 1, 4).astype(dtype)
    grid = FieldGrid((3, 2, 1, 1), (0.1,) * 4, FOUR_VECTOR, values)
    assert grid.values.dtype == want
    assert np.array_equal(grid.values, values)


def test_store_writes_a_real_grid_as_its_complex_cast(tmp_path):
    """A float64 grid, contiguous or a strided view, is written byte for byte as
    its complex cast and loads back complex."""
    rng = np.random.default_rng(9)
    real = rng.standard_normal((3, 2, 4, 1, 4, 4))
    real[0, 0, 0, 0, 0] = -0.0
    for values in (real, np.swapaxes(real, -1, -2)):
        paths = tmp_path / "real.dkp5", tmp_path / "complex.dkp5"
        for path, payload in zip(paths, (values, values.astype(complex))):
            store_grid(FieldGrid((3, 2, 4, 1), (0.1, 0.2, 0.3, 0.4), TENSOR2, payload), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        back = load_grid(paths[0]).values
        assert back.dtype == np.complex128 and np.array_equal(back, values)


def _whole_grid_file(grid):
    """The file bytes of a grid, from one '<c16' cast of the whole payload."""
    header = struct.pack("<4sIB4Q4d", b"DKP5", 1, grid.kind, *grid.extents, *grid.spacing)
    return header + np.ascontiguousarray(grid.values, dtype="<c16").tobytes()


@pytest.mark.parametrize("slab_bytes", [None, 1, 16 * 5 * 12, 16 * 5 * 12 * 7 + 1])
def test_store_writes_slabs_as_the_whole_grid_cast(tmp_path, monkeypatch, slab_bytes):
    """A grid written in several slabs (the default 1 MiB slab, one t-slice,
    two, and slabs that do not divide the t axis) holds the bytes of its
    whole-grid cast."""
    import dkp5.grids

    if slab_bytes is not None:
        monkeypatch.setattr(dkp5.grids, "_SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(12)
    grid = _random_grid(rng, (13, 3, 4, 1), WAVEFUNCTION) if slab_bytes else \
        _random_grid(rng, (20, 12, 12, 10), WAVEFUNCTION)  # 2.3 MB, three slabs
    path = tmp_path / "g.dkp5"
    store_grid(grid, path)
    assert path.read_bytes() == _whole_grid_file(grid)


def test_store_writes_a_strided_real_view_in_slabs(tmp_path, monkeypatch):
    """A float64 view strided along t and transposed in its payload is written
    slab by slab as its complex cast."""
    import dkp5.grids

    monkeypatch.setattr(dkp5.grids, "_SLAB_BYTES", 3 * 16 * 16 * 2 * 4)
    rng = np.random.default_rng(13)
    real = rng.standard_normal((11, 2, 4, 1, 4, 4))
    view = np.swapaxes(real[::2], -1, -2)
    grid = FieldGrid((6, 2, 4, 1), (0.1, 0.2, 0.3, 0.4), TENSOR2, view)
    path = tmp_path / "g.dkp5"
    store_grid(grid, path)
    assert path.read_bytes() == _whole_grid_file(grid)
    assert np.array_equal(load_grid(path).values, view)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_store_refuses_a_non_finite_real_value_at_its_complex_offset(tmp_path, value):
    """A non-finite float64 value, contiguous or in a strided view, is refused
    at the offset of the same value in the payload's complex cast (its real
    part), and no file is written."""
    rng = np.random.default_rng(14)
    real = rng.standard_normal((3, 2, 1, 1, 4))
    real[2, 1, 0, 0, 3] = value
    spread = np.zeros((3, 2, 1, 1, 8))
    spread[..., ::2] = real
    offsets = []
    for payload in (real, spread[..., ::2], real.astype(complex)):
        path = tmp_path / "g.dkp5"
        with pytest.raises(GridFormatError) as exc:
            store_grid(FieldGrid((3, 2, 1, 1), (0.1,) * 4, FOUR_VECTOR, payload), path)
        assert not path.exists()
        offsets.append(exc.value.offset)
    assert offsets == [struct.calcsize("<4sIB4Q4d") + 16 * 23] * 3
