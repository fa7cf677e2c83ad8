"""Manufactured plane-wave solutions and the wave-equation residual.

The minimally coupled first-order equation

    (i b^mu d_mu - e b^mu A_mu - m) Phi = 0

with a constant potential A admits plane waves Phi(x) = phi exp(-i p.x)
whose amplitude solves (b^mu k_mu - m) phi = 0 for k = p - eA.  In the
reference representation the solved amplitude is simply

    phi = amplitude * (k_0/m, k_1/m, k_2/m, k_3/m, 1)

provided k.k = m^2.  These fields are the oracles for the numerical
pipeline: their continuum residual is identically zero, their analytic
gradient is -i p_mu Phi, and every derived current is constant.

All four-vectors (p, A, k, the output potentials) are stored with lower
indices; raising is always an explicit metric contraction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import KemmerRep, METRIC_DIAG, minkowski_dot
from .errors import MassShellError, ParameterError, ShapeError
from .grids import (
    FOUR_VECTOR,
    WAVEFUNCTION,
    FieldGrid,
    check_addressable,
    coordinate_axes,
    derivatives,
)

#: Relative tolerance for the mass-shell precondition k.k = m^2.
SHELL_TOL = 1e-9


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Plane wave in a constant external potential; natural units.

    p is the phase momentum (lower index), A the constant potential
    (lower index), m > 0 the mass, e the coupling, amplitude the overall
    complex factor on the solved five-component amplitude.
    """

    p: tuple
    A: tuple
    m: float
    e: float
    amplitude: complex

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        object.__setattr__(self, "A", tuple(float(x) for x in self.A))
        if len(self.p) != 4 or len(self.A) != 4:
            raise ShapeError("p and A are four-vectors")

    def wave_vector(self) -> np.ndarray:
        """k = p - eA, lower index."""
        return np.array(self.p) - self.e * np.array(self.A)

    def mass_shell_violation(self) -> float:
        k = self.wave_vector()
        return abs(minkowski_dot(k, k) - self.m**2)

    def check_on_shell(self):
        if self.m <= 0:
            raise ParameterError(f"mass must be positive, got {self.m}")
        try:
            with np.errstate(over="raise", invalid="raise"):
                viol = self.mass_shell_violation()
                bound = SHELL_TOL * max(1.0, self.m**2)
        except (OverflowError, FloatingPointError) as exc:
            raise ParameterError(
                f"k.k - m^2 overflows a float (p={self.p}, A={self.A}, m={self.m}, e={self.e})"
            ) from exc
        if viol > bound:
            raise MassShellError(
                f"|k.k - m^2| = {viol:.6e} violates the mass shell", violation=viol
            )

    def amplitude_vector(self) -> np.ndarray:
        k = self.wave_vector()
        return self.amplitude * np.concatenate([k / self.m, [1.0]]).astype(complex)


def on_shell_momentum(spatial, m, e=0.0, A=(0.0, 0.0, 0.0, 0.0)):
    """Build a lower-index p with k = p - eA exactly on the mass shell.

    ``spatial`` gives the raised-index spatial components (k^1, k^2, k^3);
    the energy follows from k^0 = sqrt(m^2 + |k_spatial|^2).
    """
    k_up = np.array([0.0, *spatial])
    k_up[0] = np.sqrt(m**2 + np.sum(k_up[1:] ** 2))
    k_lower = k_up * np.array(METRIC_DIAG)
    return tuple(k_lower + e * np.array(A))


def _phase_exponent(p, extents, spacing):
    axes = coordinate_axes(extents, spacing)
    px = np.zeros(tuple(extents))
    for mu in range(4):
        shape = [1, 1, 1, 1]
        shape[mu] = extents[mu]
        px = px + p[mu] * axes[mu].reshape(shape)
    return px


def manufacture_plane_wave(spec: PlaneWaveSpec, extents, spacing) -> FieldGrid:
    """Sample Phi(x) = phi exp(-i p.x) on the lattice.

    Raises ShapeError when numpy cannot address the payload, and
    MassShellError when k = p - eA is off shell, so the returned grid
    always has identically vanishing continuum residual.
    """
    check_addressable(extents, WAVEFUNCTION)
    spec.check_on_shell()
    px = _phase_exponent(spec.p, extents, spacing)
    values = spec.amplitude_vector() * np.exp(-1j * px)[..., None]
    return FieldGrid(tuple(extents), tuple(spacing), WAVEFUNCTION, values)


class _PlaneWaveGradient(Sequence):
    """The four grids d_mu Phi = -i p_mu Phi, each made when it is indexed or
    reached by iteration, and not kept."""

    def __init__(self, p, grid):
        self._p, self._grid = p, grid

    def __len__(self):
        return 4

    def __getitem__(self, mu):
        g = self._grid
        return FieldGrid(g.extents, g.spacing, WAVEFUNCTION, -1j * self._p[mu] * g.values)

    def __iter__(self):
        # Sequence.__iter__ would hold each grid until the next one is made.
        return (self[mu] for mu in range(4))


def plane_wave_gradient(spec: PlaneWaveSpec, grid: FieldGrid):
    """Closed-form d_mu Phi = -i p_mu Phi for a manufactured grid: a sequence
    of four grids that holds none of them, so iterating it (as often as
    wanted) holds one direction at a time."""
    return _PlaneWaveGradient(spec.p, grid)


def constant_four_vector_grid(v, extents, spacing) -> FieldGrid:
    """A constant four-vector grid; its values are a read-only broadcast view
    of v as complex, with no per-point copy."""
    values = np.broadcast_to(np.asarray(v, dtype=complex), tuple(extents) + (4,))
    return FieldGrid(tuple(extents), tuple(spacing), FOUR_VECTOR, values)


@dataclass
class DkpResidual:
    """Residuals of the first-order equation and its conjugate."""

    primary: FieldGrid
    conjugate: FieldGrid


def _wavefunction_gradient(phi_grid, dphi):
    """d_mu Phi for mu = 0..3, in turn, each taken when the caller reaches that
    direction: the values of the closed-form grids ``dphi``, or without them
    each direction's stencils."""
    if dphi is None:
        return (derivatives(phi_grid.values, phi_grid.spacing, (mu,))[0] for mu in range(4))
    if len(dphi) != 4:
        raise ShapeError("dphi must supply all four derivative grids")

    def values(g):
        if g.extents != phi_grid.extents:
            raise ShapeError("derivative grid shape does not match the field")
        return g.values

    return map(values, dphi)


def dkp_residual(rep: KemmerRep, phi_grid: FieldGrid, A_grid: FieldGrid, m, e, dphi=None) -> DkpResidual:
    """(i b^mu d_mu - e b^mu A_mu - m) Phi per point, plus the conjugate.

    ``dphi`` may carry closed-form derivative grids; otherwise second-order
    stencils are used.  The conjugate residual equals the eta-transform
    -(primary)^dagger eta at every point.
    """
    if phi_grid.kind != WAVEFUNCTION or A_grid.kind != FOUR_VECTOR:
        raise ShapeError("need a wavefunction grid and a four-vector potential grid")
    if phi_grid.extents != A_grid.extents:
        raise ShapeError(
            f"field extents {phi_grid.extents} != potential extents {A_grid.extents}"
        )
    phi = phi_grid.values
    A = A_grid.values
    dv = _wavefunction_gradient(phi_grid, dphi)
    pb = np.einsum("...a,ab->...b", phi.conj(), rep.eta)
    primary = -m * phi
    conjugate = m * pb
    for mu, d in enumerate(dv):
        bu = np.asarray(rep.beta_upper(mu))
        vec = 1j * d - e * A[..., mu, None] * phi
        primary = primary + np.einsum("ab,...b->...a", bu, vec)
        dpb = np.einsum("...a,ab->...b", d.conj(), rep.eta)
        row = 1j * dpb + e * A[..., mu, None] * pb
        conjugate = conjugate + np.einsum("...a,ab->...b", row, bu)
    make = lambda v: FieldGrid(phi_grid.extents, phi_grid.spacing, WAVEFUNCTION, v)
    return DkpResidual(primary=make(primary), conjugate=make(conjugate))


def eta_conjugate(rep: KemmerRep, values: np.ndarray) -> np.ndarray:
    """The eta-transform r -> -(r)^dagger eta, as a per-point row vector."""
    return -np.einsum("...a,ab->...b", values.conj(), rep.eta)


def random_fourier_field(extents, spacing, n_modes=3, seed=0, scale=1.0):
    """Smooth random field as a short sum of complex plane-wave modes.

    Returns (grid, [4 analytic derivative grids]).  Mode wave numbers
    vanish along symmetry axes and stay below ~0.6/h elsewhere so the
    field is well resolved; not a solution of anything.
    """
    rng = np.random.default_rng(seed)
    extents = tuple(extents)
    spacing = tuple(spacing)
    qmax = [0.0 if n == 1 else 0.6 / h for n, h in zip(extents, spacing)]
    qs = np.stack([rng.uniform(-q, q, size=n_modes) for q in qmax], axis=1)
    coeffs = scale * (
        rng.standard_normal((n_modes, 5)) + 1j * rng.standard_normal((n_modes, 5))
    )
    shape = extents + (5,)
    values = np.zeros(shape, dtype=complex)
    dvalues = [np.zeros(shape, dtype=complex) for _ in range(4)]
    for r in range(n_modes):
        px = _phase_exponent(qs[r], extents, spacing)
        mode = coeffs[r] * np.exp(-1j * px)[..., None]
        values += mode
        for mu in range(4):
            dvalues[mu] += -1j * qs[r, mu] * mode
    grid = FieldGrid(extents, spacing, WAVEFUNCTION, values)
    dgrids = [FieldGrid(extents, spacing, WAVEFUNCTION, d) for d in dvalues]
    return grid, dgrids
