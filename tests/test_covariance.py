"""The pipeline commutes with the symmetries of the lattice.

A spatial reflection x -> -x maps a lattice onto itself and every stencil
onto its exact negative, so the pipeline of the mirrored field must give
the mirrored grids bit for bit: each component with index 1 negated once
per index.  The check reads no golden bytes and no frozen copy, so it holds
unedited across changes that move bits on purpose, and it fails when an
index is attached to the wrong axis."""

import numpy as np
import pytest

from dkp5 import FieldGrid, invert_pipeline, random_fourier_field

M, E, A = 1.0, 0.8, (0.3, -0.2, 0.1, 0.25)

#: -1 on the x component of a four-vector (and of Phi's vector part), else 1.
_X_SIGN = np.array([1.0, -1.0, 1.0, 1.0])


def _reflect(values, n_indices):
    """The grid-shaped ``values`` under x -> -x: axis 1 reversed and each
    trailing four-vector index negated on its x component."""
    out = np.flip(values, axis=1)
    for k in range(n_indices):
        out = out * _X_SIGN.reshape((4,) + (1,) * k)
    return out


def _reflected_field(grid):
    """Phi(-x) with its x component negated: the fifth, scalar component
    of the reference representation does not change."""
    values = np.flip(grid.values, axis=1).copy()
    values[..., 1] *= -1.0
    return FieldGrid(grid.extents, grid.spacing, grid.kind, values)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_pipeline_commutes_with_the_x_reflection(float_rep, seed):
    """Every output grid and the mask of the reflected field are the mirrored
    originals under ``array_equal``; every entry keeps its max_abs and its
    verdict.  An entry's rms may move in the last bits, because the pairwise
    sum of its squares depends on the order of the elements."""
    grid, _ = random_fourier_field((5, 6, 6, 4), (0.3, 0.25, 0.35, 0.2), seed=seed)
    grid.values[2, 1, 3, 0] = 0.0  # Z = 0 there, so the mask is not empty
    a_ref = np.array(A)
    out, entries = invert_pipeline(float_rep, grid, M, E, A_ref=a_ref)
    got, got_entries = invert_pipeline(float_rep, _reflected_field(grid), M, E, A_ref=a_ref * _X_SIGN)

    assert out.singular_mask.any()
    assert np.array_equal(got.singular_mask, np.flip(out.singular_mask, axis=1))
    for name, n_indices in (("a_full", 1), ("a_gauge_fixed", 1), ("gauge_term", 1),
                            ("f_from_potential", 2), ("f_bilinear", 2)):
        want = _reflect(getattr(out, name).values, n_indices)
        assert np.array_equal(getattr(got, name).values, want), name
    assert [e["identity"] for e in got_entries] == [e["identity"] for e in entries]
    for g, w in zip(got_entries, entries):
        assert (g["max_abs"], g["pass"], g["masked_fraction"]) == (w["max_abs"], w["pass"], w["masked_fraction"]), g
        assert g["rms"] == pytest.approx(w["rms"], rel=1e-13, abs=0.0), g
