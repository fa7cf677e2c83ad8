"""Machine-readable residual reports.

Every checked identity produces one entry with a fixed schema:

    { "identity": str, "max_abs": float, "rms": float,
      "masked_fraction": float, "pass": bool, "tolerance": float }

Norms run over unmasked points only, accumulated in row-major order, so
reports are byte-deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import json

import numpy as np

from .grids import _norms_of_abs, norms


def report_entry(identity, max_abs_value, rms_value, masked_fraction, tolerance) -> dict:
    return {
        "identity": str(identity),
        "max_abs": float(max_abs_value),
        "rms": float(rms_value),
        "masked_fraction": float(masked_fraction),
        "pass": bool(max_abs_value <= tolerance),
        "tolerance": float(tolerance),
    }


def entry_from_values(identity, values, mask, tolerance) -> dict:
    """Build an entry from a residual array and a grid-axes mask."""
    return _entry(identity, norms(values, mask), mask, tolerance)


def _entry_from_temporary(identity, values, mask, tolerance) -> dict:
    """:func:`entry_from_values` for a real float64 residual that the caller
    gives up: its absolute value is taken, and reduced, in its own buffer."""
    return _entry(identity, _norms_of_abs(np.abs(values, out=values), mask), mask, tolerance)


def _entry(identity, norm_pair, mask, tolerance):
    if mask is None:
        frac = 0.0
    else:
        mask = np.asarray(mask, dtype=bool)
        frac = float(mask.sum()) / mask.size if mask.size else 0.0
    return report_entry(identity, *norm_pair, frac, tolerance)


def all_pass(entries) -> bool:
    return all(e["pass"] for e in entries)


def write_report(path, payload):
    """Serialize a report dict with stable key order and trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
