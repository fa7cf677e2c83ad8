"""The pipeline and its stages, which write into the buffers they keep or
return, against the frozen copy of the code before (tests/frozen_pipeline.py),
bit for bit."""

import numpy as np
import pytest

import frozen_pipeline as frozen
from dkp5 import (
    PlaneWaveSpec,
    compute_currents_grid,
    field_strength_bilinear,
    field_strength_from_potential,
    gauge_term,
    h_elimination_residual,
    invert_pipeline,
    invert_potential_full,
    invert_potential_gauge_fixed,
    manufacture_plane_wave,
    on_shell_momentum,
    plane_wave_gradient,
    random_fourier_field,
)
from dkp5 import bilinears, inversion
from dkp5.bilinears import derivative_bilinears
from dkp5.grids import derivatives
from dkp5.planewave import _wavefunction_gradient
from test_inversion import _close, _oracle_reps

M, E, A = 1.1, 0.8, (0.3, -0.2, 0.1, 0.25)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


def _same_entries(got, want):
    assert [e["identity"] for e in got] == [e["identity"] for e in want]
    for g, w in zip(got, want):
        assert g.keys() == w.keys(), g["identity"]
        for key in ("max_abs", "rms", "masked_fraction", "tolerance"):
            assert _same(np.float64(g[key]), np.float64(w[key])), (g["identity"], key)
        assert g["pass"] == w["pass"], g["identity"]


def _field(case):
    """(grid, closed-form gradient grids) of each input."""
    if case == "plane_wave":
        spec = PlaneWaveSpec(p=on_shell_momentum((0.7, 0.5, 0.4), M, E, A), A=A, m=M, e=E,
                             amplitude=0.9 - 0.4j)
        grid = manufacture_plane_wave(spec, (6, 5, 4, 3), (0.05,) * 4)
        return grid, plane_wave_gradient(spec, grid)
    extents = {"singular": (7, 6, 5, 4), "symmetry_axis": (7, 6, 1, 5)}[case]
    grid, dphi = random_fourier_field(extents, (0.3, 0.25, 0.35, 0.2), seed=len(case))
    for idx in [(3, 2, 0, 1), (0, 0, 0, 0), (6, 5, 0, 3)]:
        grid.values[idx] = 0.0  # Z = 0 there
    return grid, dphi


CASES = ["plane_wave", "singular", "symmetry_axis"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize("A_ref", [None, A])
def test_pipeline_equals_the_frozen_pipeline(float_rep, case, analytic, A_ref):
    """All five grids, the mask and every entry, bit for bit."""
    grid, dphi = _field(case)
    dphi = dphi if analytic else None
    out, entries = invert_pipeline(float_rep, grid, M, E, dphi=dphi, A_ref=A_ref)
    want, want_entries = frozen.invert_pipeline(float_rep, grid, M, E, dphi=dphi, A_ref=A_ref)
    got = (out.a_full.values, out.a_gauge_fixed.values, out.gauge_term.values,
           out.f_from_potential.values, out.f_bilinear.values)
    for name, g, w in zip(("a_full", "a_gauge_fixed", "gauge_term", "f_from_potential",
                           "f_bilinear"), got, want):
        assert g.flags.c_contiguous and _same(g, w), name
    assert np.array_equal(out.singular_mask, want[5])
    assert out.singular_mask.any() == (case != "plane_wave")
    assert len(entries) == (3 if A_ref is None else 15)
    _same_entries(entries, want_entries)


@pytest.mark.parametrize("case", CASES)
def test_stages_called_alone_equal_the_frozen_stages(float_rep, case):
    """Each rewritten stage, called alone, gives its old output."""
    grid, dphi = _field(case)
    cg = compute_currents_grid(float_rep, grid)
    dv = [g.values for g in dphi]
    for weights in (frozen._ZETA_W, frozen._UPPER_W, frozen._SHARED_W):
        for tilde in (False, True):
            assert _same(derivative_bilinears(float_rep, grid.values, dv, weights, tilde),
                         frozen.derivative_bilinears(float_rep, grid.values, dv, weights, tilde))
    for gradient in (None, dphi):
        assert _same(gauge_term(float_rep, grid, E, dphi=gradient, cg=cg).values,
                     frozen.gauge_term(float_rep, grid, E, dphi=gradient, cg=cg))
        assert _same(invert_potential_full(float_rep, grid, M, E, dphi=gradient, cg=cg).values,
                     frozen.invert_potential_full(float_rep, grid, M, E, dphi=gradient, cg=cg))
    want = frozen.field_strength_bilinear(cg, M, E)
    assert _same(field_strength_bilinear(cg, M, E).values, want)
    # a stacked dJ is copied and left as it is
    dJ = derivatives(cg.J, cg.spacing)
    kept = dJ.copy()
    f_bil = field_strength_bilinear(cg, M, E, dJ=dJ).values
    assert f_bil.flags.c_contiguous and _same(f_bil, want)
    assert _same(dJ, kept)
    a_gf = invert_potential_gauge_fixed(cg, M, E)
    assert _same(a_gf.values, frozen.invert_potential_gauge_fixed(cg, M, E))
    assert _same(field_strength_from_potential(a_gf).values,
                 frozen.field_strength_from_potential(a_gf.values, a_gf.spacing))
    assert _same(h_elimination_residual(cg, M).values, frozen.h_elimination_residual(cg, M))


#: Points per block of every blocked kernel in the seam test: the 2,160-point
#: field then crosses two seams of each.
_SEAM_BLOCK = 1024


def _multi_block_field():
    """A random Fourier field of 2,160 points, more than two blocks of
    ``_SEAM_BLOCK``, with whole points zeroed in each block and at both
    seams, and zeros of either sign in single components."""
    grid, dphi = random_fourier_field((9, 8, 6, 5), (0.3, 0.25, 0.3, 0.35), seed=7)
    flat = grid.values.reshape(-1, 5)
    flat[[0, 17, 1023, 1024, 1500, 2047, 2048, 2159]] = 0.0  # Z = 0 there
    flat[100:140, 4] = complex(-0.0, -0.0)
    flat[1010:1040, 0] = complex(-0.0, 0.0)
    flat[2030:2060, 2:4] = 0.0
    return grid, dphi


@pytest.mark.parametrize("rep_name, analytic", [
    pytest.param("reference", False, id="False"), pytest.param("reference", True, id="True"),
    pytest.param("b1+noise", False, id="b1+noise-False"),
])
def test_derivative_bilinears_across_block_seams(float_rep, rep_name, analytic, monkeypatch):
    """Past one block of points of the pair-part kernel and of the
    antisymmetrisation, each set to ``_SEAM_BLOCK``: the
    derivative bilinears of every weight set and sector, and the whole
    pipeline, bit for bit.

    b1+noise, the corrupted representation of the einsum oracle test, has
    tables that read every component of d_mu Phi, where the reference one
    reads two a direction.  A column then sums many inexact terms, which
    the frozen BLAS product adds in its own order, so there each grid that
    is built from the derivative bilinears, and each entry, agrees to
    round-off; every other grid, bit for bit."""
    rep = dict(_oracle_reps(float_rep))[rep_name]
    exact = rep_name == "reference"
    agree = _same if exact else _close
    for module, name in ((bilinears, "_BLOCK"), (inversion, "_F_BLOCK")):
        monkeypatch.setattr(module, name, _SEAM_BLOCK)
    grid, dphi = _multi_block_field()
    dphi = dphi if analytic else None
    dv = list(_wavefunction_gradient(grid, dphi))
    for weights in (frozen._ZETA_W, frozen._UPPER_W, frozen._SHARED_W):
        for tilde in (False, True):
            assert agree(derivative_bilinears(rep, grid.values, dv, weights, tilde),
                         frozen.derivative_bilinears(rep, grid.values, dv, weights, tilde))
    for A_ref in (None, A):
        out, entries = invert_pipeline(rep, grid, M, E, dphi=dphi, A_ref=A_ref)
        want, want_entries = frozen.invert_pipeline(rep, grid, M, E, dphi=dphi, A_ref=A_ref)
        for g, w in zip((out.a_full, out.a_gauge_fixed, out.gauge_term, out.f_from_potential,
                         out.f_bilinear), want):
            assert (agree if g is out.a_full else _same)(g.values, w)
        assert np.array_equal(out.singular_mask, want[5]) and out.singular_mask.any()
        if exact:
            _same_entries(entries, want_entries)
        else:
            assert [e["identity"] for e in entries] == [e["identity"] for e in want_entries]
            for g, w in zip(entries, want_entries):
                assert _close(np.array([g["max_abs"], g["rms"]]), np.array([w["max_abs"], w["rms"]])), g
