"""Split-step Fourier solver for the semiclassically scaled model

    i eps u_t + (eps^2/2) (eta-signed Laplacian) u
        = eps^J (lam E(|u|^{2 nu}) + mu |u|^{2 nu}) u

and assembly of its multiphase geometric-optics approximation.

Strang splitting with an exactly solvable nonlinear substep: the potential
lam E(|u|^{2nu}) + mu |u|^{2nu} is real (E has a real even symbol), so |u| is
pointwise conserved by the nonlinear flow and the substep is a pure phase
rotation.  The free flow is diagonal in Fourier.  Both substeps preserve the
discrete L2 norm to rounding, making the scheme unconditionally stable.
Fields of one grid shape and one model apart from eps (the period cells of
an eps sweep) evolve as one stack, bit-identical to one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels as _kernels
from .errors import AdmissibilityError, ResolutionError
from .grid import GridFunction, SpectralGrid, _superpose
from .norms import wiener_norm
from .resonance import PhaseSet, Signature, as_wave_vector
from .transport import ProfileSet, _steps, _strang


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: eps, nonlinearity weight exponent, couplings."""

    eps: float
    j_exponent: float
    lam: float
    mu: float
    nu: int
    signature: Signature
    kernel: _kernels.KernelSpec

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.j_exponent < 1:
            raise ValueError("j_exponent must be >= 1")
        if self.nu < 1 or self.nu != int(self.nu):
            raise ValueError("nu must be a positive integer")


@dataclass(frozen=True)
class SemiclassicalField:
    """A field value on a grid at one time, tagged with its model."""

    values: GridFunction
    time: float
    params: ModelParams

    @property
    def grid(self) -> SpectralGrid:
        return self.values.grid

    def mass(self) -> float:
        return self.values.l2_norm() ** 2


def _seed_modes(modes):
    """Accept a PhaseSet (its seed modes carry data) or a list of vectors."""
    if isinstance(modes, PhaseSet):
        return [modes.vectors[j] for j in range(modes.origin_count)]
    return [as_wave_vector(k) for k in modes]


def require_admissible(grid: SpectralGrid, kappas, eps: float) -> list:
    """kappa/eps on the frequency lattice xi = (pi/L) Z, as integer shifts.

    On failure the error lists nearby admissible eps values: with g the gcd
    of all integer kappa components, eps = L g / (pi k) for positive integers k.
    """
    step = eps * grid.spectral_spacing

    def shift(comp) -> int:
        r = comp / step if step else comp * math.inf  # step underflows to 0
        if not math.isfinite(r) or abs(r - round(r)) > 1e-9 * max(1.0, abs(r)):
            g = math.gcd(*(abs(int(c)) for kv in kappas for c in kv))
            base = grid.half_length * g / math.pi
            suggestions = []
            if 0 < base / eps < math.inf:
                k0 = max(1, math.floor(base / eps))
                suggestions = sorted({base / k for k in range(k0, k0 + 6)},
                                     reverse=True)
            raise AdmissibilityError(
                f"kappa component {comp}/eps is off the frequency lattice "
                f"(eps={eps}, lattice spacing {grid.spectral_spacing:.6g}); "
                f"nearby admissible eps: {suggestions}")
        return round(r)
    return [[shift(comp) for comp in kappa] for kappa in kappas]


def require_resolved(grid: SpectralGrid, kappas, eps: float) -> None:
    """n per axis >= 8 (max |kappa|_1 / eps) L / pi, so carriers and their
    first harmonics stay well inside the lattice."""
    if not kappas:
        return
    max_l1 = max(sum(abs(c) for c in kappa) for kappa in kappas)
    need = 8.0 * (max_l1 / eps) * grid.half_length / math.pi
    if grid.points_per_axis < need - 1e-9:
        raise ResolutionError(
            f"{grid.points_per_axis} points per axis resolve carriers only up "
            f"to |kappa|_1/eps = {grid.points_per_axis * math.pi / (8 * grid.half_length):.6g}; "
            f"need n >= {math.ceil(need) if need < math.inf else need}")


def _multiphase(grid: SpectralGrid, kappas, amplitudes, weights,
                eps: float) -> GridFunction:
    """sum_j w_j a_j(x) exp(i kappa_j . x / eps) by grid._superpose on the
    admissibility gate's shifts; the resolution gate runs after its box check."""
    shifts = require_admissible(grid, kappas, eps)
    values = _superpose(grid, zip(amplitudes, shifts, weights))
    require_resolved(grid, kappas, eps)
    return GridFunction(grid, values)


def oscillatory_initial_data(grid: SpectralGrid, modes, alphas,
                             params: ModelParams) -> SemiclassicalField:
    """u0 = sum_j alpha_j(x) exp(i kappa_j . x / eps) on the seed modes.

    alphas holds one field or constant per seed mode.  It is read one
    amplitude at a time into the sum, so an iterator that makes its fields
    as they are read keeps only one of them on the grid."""
    kappas = _seed_modes(modes)
    alphas, count = iter(alphas), 0

    def fields():
        nonlocal count
        for count, a in enumerate(alphas, 1):
            yield a if isinstance(a, GridFunction) \
                else GridFunction.constant(grid, complex(a))

    u0 = _multiphase(grid, kappas, fields(), [1] * len(kappas), params.eps)
    count += sum(1 for _ in alphas)  # any the sum did not reach
    if count != len(kappas):
        raise ValueError(f"{len(kappas)} seed modes but {count} amplitudes")
    return SemiclassicalField(u0, 0.0, params)


def _free_phase(grid: SpectralGrid, signature: Signature,
                scale: float) -> np.ndarray:
    """exp(-i scale Q(xi)), a product of 1-D exponentials."""
    xi2 = grid.frequency_axis() ** 2
    return grid.separable([np.exp((-1j * scale * eta) * xi2)
                           for eta in signature.etas], np.multiply)


def evolve_fields(fields, t_end: float, dt: float) -> list:
    """Advance every field to t_end by Strang splitting (free half / exact
    nonlinear / free half), as one stack along axis 0.

    The fields share a grid shape, a start time and a model apart from eps;
    each keeps its own grid, so period cells of one shape for different eps
    evolve together, and E's one table of that shape serves them all.  Each
    step is one FFT pair of the whole stack (and one real FFT pair for E),
    and each field's values are bit-identical to evolving it alone: every
    line of a stacked transform is computed as the same transform of that
    field alone.

    The nonlinear substep multiplies by exp(-i dt eps^{J-1} V) with the real
    potential V = lam E(|u|^{2nu}) + mu |u|^{2nu}; no time-stepping error
    enters there, only the order-2 splitting commutator.  Each step works in
    place on one complex buffer: the density is real, so E runs on real FFTs
    (:func:`kernels.apply_raw`), and the rotation takes one tangent:
    exp(i theta) = z / conj(z) with z = 1 + i tan(theta / 2) for finite theta.
    """
    fields = list(fields)
    if not fields:
        return []
    first = fields[0]
    p = first.params
    for f in fields[1:]:
        if f.grid.shape != first.grid.shape or f.time != first.time \
                or replace(f.params, eps=p.eps) != p:
            raise ValueError("evolve_fields needs one grid shape, one start "
                             "time and one model apart from eps")
    span = t_end - first.time
    n_steps, _ = _steps(abs(span), dt)
    if span == 0:
        return fields
    dt = span / n_steps  # signed; backward evolution reverses the flow

    shape = (len(fields),) + first.grid.shape
    # theta / 2 per unit V, one value per field
    angle = np.array([-0.5 * dt * f.params.eps ** (p.j_exponent - 1.0)
                      for f in fields]).reshape((-1,) + (1,) * first.grid.dim)
    nonlocal_term = p.lam != 0.0 and p.kernel.kind != "zero"

    density = np.empty(shape)
    square = np.empty(shape)
    z = np.ones(shape, dtype=np.complex128)  # 1 + i tan(theta / 2)

    def rotate(u):
        nonlocal density  # *= and **= assign the name
        np.square(u.real, out=density)
        density += np.square(u.imag, out=square)
        if p.nu > 1:
            density **= p.nu
        if nonlocal_term:
            theta = _kernels.apply_raw(p.kernel, first.grid, density)
            theta *= p.lam * angle
            if p.mu != 0.0:
                density *= p.mu * angle
                theta += density
        else:
            theta = density
            theta *= p.mu * angle
        np.tan(theta, out=z.imag)
        u *= z
        u /= np.conjugate(z, out=z)  # the next tan rewrites z.imag
        return u

    def half():  # built for the first flow and the last, not held between
        return np.stack([_free_phase(f.grid, p.signature,
                                     0.25 * f.params.eps * dt) for f in fields])

    u = _strang([f.values.values for f in fields], half, n_steps, rotate)
    return [SemiclassicalField(GridFunction(f.grid, v), f.time + span, f.params)
            for f, v in zip(fields, u)]


def evolve_semiclassical(field: SemiclassicalField, t_end: float,
                         dt: float) -> SemiclassicalField:
    """Advance one field to t_end: :func:`evolve_fields` on a stack of one."""
    return evolve_fields([field], t_end, dt)[0]


def assemble_approximation(profiles: ProfileSet, params: ModelParams,
                           grid: SpectralGrid | None = None) -> SemiclassicalField:
    """u_app = sum_j a_j(t, x) exp(i (kappa_j . x - (t/2) Q(kappa_j)) / eps).

    Profiles of another resolution on the target's box are resampled
    spectrally (exact for band-limited amplitudes), in the sum that builds u0.
    """
    ps, t = profiles.phase_set, profiles.time
    rotations = [np.exp(-0.5j * t * ps.signature.quad(kappa) / params.eps)
                 for kappa in ps.vectors]
    u_app = _multiphase(grid or profiles.grid, ps.vectors, profiles.amplitudes,
                        rotations, params.eps)
    return SemiclassicalField(u_app, t, params)


def approximation_error(u: SemiclassicalField,
                        u_app: SemiclassicalField) -> tuple:
    """(L2, sup, Wiener) norms of u - u_app; grids and times must match."""
    if u.grid != u_app.grid:
        raise ValueError("fields live on different grids")
    if abs(u.time - u_app.time) > 1e-12 * max(1.0, abs(u.time)):
        raise ValueError(f"fields at different times {u.time} vs {u_app.time}")
    diff = GridFunction(u.grid, u.values.values - u_app.values.values)
    return diff.l2_norm(), diff.sup_norm(), wiener_norm(diff)
