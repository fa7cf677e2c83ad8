import math

import numpy as np
import pytest

from dkp5.errors import ShapeError
from dkp5.grids import max_abs, norms, rms
from dkp5.reports import _entry_from_temporary, entry_from_values


def _two_pass_norms(values, mask):
    """The norms as absolute value, boolean-index copy, max and mean of
    squares, each taken on its own: the oracle for the one-pass ``norms``."""
    a = np.abs(values) if mask is None else np.abs(values)[~mask]
    return (float(a.max()), float(np.sqrt(np.mean(np.square(a))))) if a.size else (0.0, 0.0)


@pytest.mark.parametrize("components", [(), (4,), (4, 4)])
def test_one_pass_norms_equal_two_pass_norms_bit_for_bit(components):
    """Report entries, grids.max_abs and grids.rms all equal the two-pass
    norms exactly on unmasked, partly masked and fully masked grids, also for
    views whose memory order is not row-major; so does the entry of a real
    temporary, reduced in its own buffer."""
    rng = np.random.default_rng(len(components))
    shape = (6, 5, 4, 3) + components
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for grid in (values, values.real, values[:, ::-1], np.swapaxes(values, 0, 1)):
        grid_axes = grid.shape[:4]
        partly = rng.random(grid_axes) < 0.3
        for mask in (None, np.zeros(grid_axes, bool), partly, np.ones(grid_axes, bool)):
            peak, root_mean_sq = _two_pass_norms(grid, mask)
            entry = entry_from_values("x", grid, mask, 1.0)
            assert (entry["max_abs"], entry["rms"]) == (peak, root_mean_sq)
            assert (max_abs(grid, mask), rms(grid, mask)) == (peak, root_mean_sq)
            assert entry["masked_fraction"] == (0.0 if mask is None else float(mask.mean()))
            if grid.dtype == np.float64:
                assert _entry_from_temporary("x", grid.copy(), mask, 1.0) == entry


def test_norms_reject_a_mask_that_misses_the_grid_axes():
    values = np.ones((6, 5, 4, 3, 4))
    for mask in (np.zeros((6, 5, 4, 2), bool), np.zeros((5, 6, 4, 3), bool)):
        with pytest.raises(ShapeError):
            norms(values, mask)


def test_norms_of_huge_residuals_stay_finite():
    """Past sqrt(max float / n) the squares would overflow: norms then scale by
    the max first, so the rms stays finite and the max is unchanged."""
    values = np.array([[3e200, -4e200j], [0.0, 5e200]])
    peak, root_mean_sq = norms(values)
    assert peak == 5e200
    assert root_mean_sq == pytest.approx(math.sqrt(50 / 4) * 1e200, rel=1e-15)
    big = np.full(4, 1e154)  # each square fits, their sum does not
    assert norms(big) == (1e154, pytest.approx(1e154, rel=1e-15))
    assert norms(np.array([np.inf, 1.0])) == (np.inf, np.inf)
