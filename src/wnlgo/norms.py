"""Norm toolkit: Wiener, Sobolev of any real order, and scaled-profile norms.

Conventions (all on the periodic box of a SpectralGrid):

* wiener_norm is the l1 sum of Fourier *series* coefficients, so a plane
  wave of amplitude c has norm exactly |c| and the norm is submultiplicative.
* sobolev_norm uses the continuum-flavoured measure
  ||f||_{H^s}^2 = sum_xi <xi>^{2s} |fhat(xi)|^2 * (spectral cell volume),
  with <xi> = (1 + |xi|^2)^{1/2}; s = 0 recovers the L2 norm.  Negative s is
  well defined on the finite frequency lattice without any regularization.
* gaussian_sobolev_norm evaluates the closed-form squared H^s norm of
  exp(-z|x|^2/2) by adaptive radial quadrature on the whole space — an
  off-grid cross-check for the grid norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ResolutionError
from .grid import GridFunction, SpectralGrid, pow2_at_least


def wiener_norm(f: GridFunction) -> float:
    """l1 norm of the Fourier series coefficients (plane wave c -> |c|)."""
    raw = scipy.fft.fftn(f.values, workers=1)
    return float(np.sum(np.abs(raw)) / f.grid.size)


def sobolev_norm(f: GridFunction, s: float) -> float:
    """Discrete H^s norm, any real s."""
    grid = f.grid
    fhat = grid.forward(f.values)
    xi2 = grid.frequency_axis() ** 2
    # <xi>^2 = 1 + |xi|^2, the 1 folded into the first axis
    weight = grid.separable([1.0 + xi2] + [xi2] * (grid.dim - 1)) ** float(s)
    total = np.sum(weight * np.abs(fhat) ** 2) * grid.spectral_cell_volume
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ScaledProfileSpec:
    """The concentrating/oscillating family f(x eps^{(1-beta)/2}) e^{i kappa.x / eps^{(1+beta)/2}}.

    ``f`` may be a GridFunction (evaluated off-grid through its trigonometric
    interpolant) or a callable taking a (points, dim) array of positions.
    ``half_length`` and ``points_per_axis`` size the evaluation box for
    callables; for a GridFunction they default to its own grid, rescaled
    with the profile.  points_per_axis = 0 picks the smallest adequate
    power of two automatically.
    """

    f: object
    kappa: tuple
    beta: float
    eps: float
    half_length: float = 0.0
    points_per_axis: int = 0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        object.__setattr__(self, "kappa", tuple(float(c) for c in self.kappa))
        if isinstance(self.f, GridFunction):
            if len(self.kappa) != self.f.grid.dim:
                raise ValueError("kappa dimension does not match profile grid")
        elif not callable(self.f):
            raise TypeError("f must be a GridFunction or a callable profile")


def _series_eval_axiswise(f: GridFunction, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at a tensor grid.

    ``points`` is the common 1D coordinate array used along every axis.
    f(x) = sum_k c_k e^{i xi_k . x} with c_k = (2 pi)^{-d/2} dxi^d fhat_k.
    """
    grid = f.grid
    coeffs = grid.forward(f.values) * \
        (grid.spectral_cell_volume / (2.0 * math.pi) ** (grid.dim / 2.0))
    basis = np.exp(1j * np.outer(points, grid.frequency_axis()))
    out = coeffs
    for _ in range(grid.dim):
        # consume the leading lattice axis, appending the evaluated axis last
        out = np.tensordot(out, basis, axes=(0, 1))
    return out


def _choose_points(box: float, carrier: float, base_n: int) -> int:
    """Smallest power of two resolving the carrier with margin 4."""
    # capped: ceil fails on an infinite carrier, and 2^23 fails the test below
    need = min(8.0 * carrier * box / math.pi, 2.0 ** 23)
    n = pow2_at_least(max(base_n, math.ceil(need)))
    if n > 1 << 22:
        raise ResolutionError(
            f"cannot resolve carrier frequency {carrier:.3g} on box "
            f"{box:.3g} within 2^22 points per axis")
    return n


def scaled_grid(spec: ScaledProfileSpec) -> SpectralGrid:
    """The grid scaled_profile_norm builds for spec.

    The box scales with the profile (half-length L0 * eps^{(beta-1)/2}) so
    the sample density relative to f stays constant and only the carrier
    forces refinement.  A carrier beyond half the Nyquist frequency raises
    ResolutionError.
    """
    eps, beta = spec.eps, spec.beta
    try:  # a power of eps beyond the float range
        stretch = eps ** ((1.0 - beta) / 2.0)  # argument factor of f
        carrier = max(abs(c) for c in spec.kappa) / eps ** ((1.0 + beta) / 2.0) \
            if any(spec.kappa) else 0.0
    except (OverflowError, ZeroDivisionError):
        raise ResolutionError(f"no float grid holds the scaled profile at "
                              f"eps = {eps}, beta = {beta}") from None
    if isinstance(spec.f, GridFunction):
        dim = spec.f.grid.dim
        base_box = spec.f.grid.half_length if spec.half_length == 0.0 \
            else spec.half_length
        base_n = spec.f.grid.points_per_axis
    else:
        if spec.half_length <= 0.0:
            raise ValueError("callable profiles need an explicit half_length")
        dim = len(spec.kappa)
        base_box = spec.half_length
        base_n = 64
    box = base_box / stretch

    if spec.points_per_axis:
        n = spec.points_per_axis
        nyquist = (math.pi / box) * (n / 2.0)
        if carrier > 0.5 * nyquist:
            raise ResolutionError(
                f"carrier frequency {carrier:.6g} exceeds half the Nyquist "
                f"frequency {nyquist:.6g} of the requested grid")
    else:
        n = _choose_points(box, carrier, base_n)
    return SpectralGrid(dim, box, n)


def scaled_profile_norm(spec: ScaledProfileSpec, sigma: float) -> float:
    """H^sigma norm of the scaled oscillating profile, built on its own grid
    (scaled_grid)."""
    eps, beta = spec.eps, spec.beta
    stretch = eps ** ((1.0 - beta) / 2.0)  # argument factor of f
    grid = scaled_grid(spec)
    axis = grid.axis()
    if isinstance(spec.f, GridFunction):
        base = _series_eval_axiswise(spec.f, axis * stretch)
    else:
        mesh = np.stack(np.meshgrid(*([axis] * grid.dim), indexing="ij"), axis=-1)
        base = np.asarray(spec.f(mesh.reshape(-1, grid.dim))).reshape(grid.shape)
    osc_scale = eps ** ((1.0 + beta) / 2.0)
    phase = grid.separable([(k / osc_scale) * axis for k in spec.kappa])
    values = base * np.exp(1j * phase)
    return sobolev_norm(GridFunction(grid, values), sigma)


def gaussian_sobolev_norm(z: complex, s: float, d: int) -> float:
    """Squared H^s norm of exp(-z |x|^2 / 2) on R^d, Re z > 0.

    Closed form reduced to a radial integral: with a = Re z, b = Im z and
    c = ((a^2 + b^2)/a)^{1/2},

        ||g_z||_{H^s}^2 = a^{-d/2} S_{d-1} int_0^inf r^{d-1} <c r>^{2s} e^{-r^2} dr,

    S_{d-1} = 2 pi^{d/2} / Gamma(d/2).  Adaptive quadrature, relative error
    below 1e-8.
    """
    z = complex(z)
    a, b = z.real, z.imag
    if a <= 0:
        raise ValueError("Re z must be positive")
    if d < 1 or d != int(d):
        raise ValueError("dimension must be a positive integer")
    d = int(d)
    c2 = (a * a + b * b) / a
    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

    def integrand(r):
        return r ** (d - 1) * (1.0 + c2 * r * r) ** s * math.exp(-r * r)

    # e^{-r^2} < 1e-14 beyond r ~ 5.7; 8 leaves generous headroom.  For
    # |z| >> 1 the bracket turns over in a layer of width 1/c near 0, which
    # adaptive quadrature can miss entirely; flag it as a breakpoint.
    layer = 1.0 / math.sqrt(c2)
    points = [min(layer, 4.0), min(8.0 * layer, 6.0)] if layer < 4.0 else None
    import scipy.integrate  # slow to import, and needed on this path only
    value, _ = scipy.integrate.quad(integrand, 0.0, 8.0,
                                    epsabs=0.0, epsrel=1e-10, limit=200,
                                    points=points)
    return surface * value / a ** (d / 2.0)
