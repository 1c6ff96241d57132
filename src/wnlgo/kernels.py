"""Homogeneous degree-zero Fourier multipliers and their grid action.

A kernel here is a real, even symbol ``Khat`` on R^d \\ {0} that is invariant
under positive rescaling of its argument.  Applied to a grid function it acts
as ``E(f) = F^{-1}(Khat . F f)``.  The symbol has no canonical value at the
origin; for the non-trivial kernels the discrete zero mode is multiplied by 0
(for the Davey-Stewartson symbol xi_1^2/|xi|^2 this matches the operator
d_x1 Laplace^{-1} d_x1, which annihilates constants; the dipolar symbol has
zero angular average).  The identity and zero kernels keep their constant
symbol at the origin.

Each kind's formula is written once, in :func:`symbol`.  It serves
:func:`evaluate`, the grid multiplier of E and the transport coupling
coefficients mu + lam Khat(kappa_j - kappa_l), so the coefficients are the
values E applies to a product oscillating at kappa_j - kappa_l.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from .grid import GridFunction, SpectralGrid

DIPOLAR_SCALE = (2.0 / 3.0) * (2.0 * np.pi) ** 2.5
_VALIDATION_TOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """A degree-zero Fourier multiplier, selectable by kind.

    Use the constructors :func:`identity`, :func:`zero`,
    :func:`davey_stewartson`, :func:`dipolar`, :func:`custom` rather than
    instantiating directly.
    """

    kind: str
    dim: int
    axis: tuple = ()
    fn: object = None

    def __post_init__(self):
        if self.kind not in ("identity", "zero", "ds", "dipolar", "custom"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "ds" and self.dim != 2:
            raise ValueError("Davey-Stewartson kernel requires dim=2")
        if self.kind == "dipolar":
            if self.dim != 3:
                raise ValueError("dipolar kernel requires dim=3")
            ax = np.asarray(self.axis, dtype=float)
            if ax.shape != (3,) or not np.isclose(np.linalg.norm(ax), 1.0,
                                                  rtol=0.0, atol=1e-12):
                raise ValueError("dipolar axis must be a finite unit 3-vector")
        if self.kind == "custom":
            if not callable(self.fn):
                raise ValueError("custom kernel needs a callable symbol")
            _validate_custom(self.fn, self.dim)


def identity(dim: int) -> KernelSpec:
    """Khat == 1 (the multiplier acts as the identity)."""
    return KernelSpec("identity", dim)


def zero(dim: int) -> KernelSpec:
    """Khat == 0."""
    return KernelSpec("zero", dim)


def davey_stewartson() -> KernelSpec:
    """Khat(xi) = xi_1^2 / (xi_1^2 + xi_2^2) on R^2."""
    return KernelSpec("ds", 2)


def dipolar(axis) -> KernelSpec:
    """Dipole-dipole symbol (2/3)(2 pi)^{5/2} (3 cos^2 Theta - 1) on R^3.

    Theta is the angle between xi and the dipole axis.
    """
    ax = np.asarray(axis, dtype=float)
    return KernelSpec("dipolar", 3, axis=tuple(ax))


def custom(dim: int, fn) -> KernelSpec:
    """Wrap a user symbol; evenness, reality and homogeneity are spot-checked.

    The callable is probed on 32 random +/-xi pairs and rays c*xi for
    c in {0.5, 2, 10}; violations, and non-finite values, raise ValueError
    at construction.
    """
    return KernelSpec("custom", dim, fn=fn)


def parse_kernel(text: str, dim: int) -> KernelSpec:
    """Build a kernel from a CLI/config string.

    Accepted forms: "identity", "zero", "ds", "dipolar:ax,ay,az"; the
    dimension and axis rules are :class:`KernelSpec`'s.
    """
    kind, colon, axis = text.partition(":")
    if kind not in ("identity", "zero", "ds", "dipolar") \
            or bool(colon) != (kind == "dipolar"):
        raise ValueError(f"unknown kernel {text!r}")
    axis = tuple(float(a) for a in axis.split(",")) if colon else ()
    return KernelSpec(kind, dim, axis)


def _call_symbol(fn, pts: np.ndarray) -> np.ndarray:
    """Evaluate a custom symbol on an (N, d) stack, tolerating scalar-only fns."""
    try:
        out = np.asarray(fn(pts))
        if out.shape == (pts.shape[0],):
            return out
    except Exception:
        pass
    return np.array([fn(p) for p in pts])


def _validate_custom(fn, dim: int) -> None:
    rng = np.random.default_rng(1234)
    pts = rng.normal(size=(32, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    base, neg, *scaled = (_call_symbol(fn, c * pts)
                          for c in (1.0, -1.0, 0.5, 2.0, 10.0))
    if not all(np.all(np.isfinite(v)) for v in (base, neg, *scaled)):
        raise ValueError("custom kernel symbol must be finite")
    if np.iscomplexobj(base) and np.max(np.abs(np.imag(base))) > _VALIDATION_TOL:
        raise ValueError("custom kernel symbol must be real-valued")
    base = np.real(base)
    if np.max(np.abs(np.real(neg) - base)) > _VALIDATION_TOL:
        raise ValueError("custom kernel symbol must be even: Khat(-xi) == Khat(xi)")
    for values in scaled:
        if np.max(np.abs(np.real(values) - base)) > _VALIDATION_TOL:
            raise ValueError(
                "custom kernel symbol must be homogeneous of degree zero")


def symbol(kernel: KernelSpec, points) -> np.ndarray:
    """Khat at each row of an (N, d) array of nonzero frequencies."""
    p = np.asarray(points, dtype=float)
    if kernel.kind in ("identity", "zero"):  # constant, as at the origin
        return np.full(len(p), zero_mode_value(kernel))
    if kernel.kind == "ds":
        return p[:, 0] ** 2 / (p[:, 0] ** 2 + p[:, 1] ** 2)
    if kernel.kind == "dipolar":
        (ax, ay, az), (x, y, z) = kernel.axis, p.T
        dot = ax * x + ay * y + az * z
        return DIPOLAR_SCALE * (3.0 * dot ** 2 / (x ** 2 + y ** 2 + z ** 2) - 1.0)
    return np.real(_call_symbol(kernel.fn, p))


def evaluate(kernel: KernelSpec, xi) -> float:
    """Khat(xi) for a single nonzero frequency vector."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (kernel.dim,):
        raise ValueError(f"expected {kernel.dim}-vector, got shape {xi.shape}")
    if not np.any(xi):
        raise ValueError("kernel symbol is undefined at xi = 0; "
                         "use apply(), which fixes the zero-mode convention")
    return float(symbol(kernel, xi[None, :])[0])


def zero_mode_value(kernel: KernelSpec) -> float:
    """The multiplier at the zero frequency: 1 for identity, else 0."""
    return 1.0 if kernel.kind == "identity" else 0.0


@lru_cache(maxsize=64)
def _multiplier(kernel: KernelSpec, grid: SpectralGrid) -> np.ndarray:
    """Symbol sampled on the grid frequency lattice, zero mode fixed; read-only."""
    points = np.stack([m.ravel() for m in grid.frequency_mesh()], axis=-1)
    out = np.empty(grid.size)
    out[0] = zero_mode_value(kernel)  # the origin comes first in FFT order
    out[1:] = symbol(kernel, points[1:])
    bad = np.flatnonzero(~np.isfinite(out))  # custom: probed off the lattice
    if bad.size:
        raise ValueError(f"kernel symbol is not finite at lattice frequency "
                         f"{tuple(points[bad[0]].tolist())}")
    out = out.reshape(grid.shape)
    out.setflags(write=False)
    return out


def apply(kernel: KernelSpec, f: GridFunction) -> GridFunction:
    """E(f) = F^{-1}(Khat . F f) with the zero-mode convention above."""
    if f.grid.dim != kernel.dim:
        raise ValueError(
            f"kernel dim {kernel.dim} != field dim {f.grid.dim}")
    coeffs = f.grid.forward(f.values)
    return GridFunction(f.grid, f.grid.inverse(_multiplier(kernel, f.grid) * coeffs))


@lru_cache(maxsize=64)
def _half_multiplier(kernel: KernelSpec, grid: SpectralGrid) -> np.ndarray:
    """The multiplier on the rfftn half spectrum (last axis 0..n/2).

    On a real field only the even part (Khat(k) + Khat(-k))/2 of the sampled
    symbol acts on the real part of E(f).  It equals the symbol except where
    a component sits at Nyquist, which the lattice maps to itself, for
    symbols that are not even in each axis separately (an oblique dipolar
    axis).
    """
    full = _multiplier(kernel, grid)
    mirror = np.roll(np.flip(full), 1, axis=tuple(range(grid.dim)))
    out = 0.5 * (full + mirror)[..., :grid.points_per_axis // 2 + 1]
    out.setflags(write=False)
    return out


def apply_raw(kernel: KernelSpec, grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Re E(values) for a real array, on real FFTs; for hot loops.

    The sign pattern and the normalisation factors of :meth:`SpectralGrid.forward`
    and :meth:`SpectralGrid.inverse` cancel in the round trip, so they are
    skipped.  :func:`apply` is the general (complex) path.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError("apply_raw needs a real array; use apply() for complex fields")
    if values.shape != grid.shape:
        raise ValueError(f"expected shape {grid.shape}, got {values.shape}")
    spectrum = scipy.fft.rfftn(values, workers=1)
    spectrum *= _half_multiplier(kernel, grid)
    return scipy.fft.irfftn(spectrum, s=grid.shape, overwrite_x=True, workers=1)


def oscillatory_coefficient_limit(kernel: KernelSpec, kappa, A: GridFunction,
                                  eps_list) -> list:
    """L2 distance between e^{-ik.x/eps} E(A e^{ik.x/eps}) and Khat(kappa) A.

    As eps decreases, the modulated multiplier sees Khat(kappa + eps zeta) on
    the spectral support of A, so the sequence decays toward 0 for symbols
    continuous at kappa.  kappa must be nonzero (the limit coefficient
    Khat(kappa) would otherwise be undefined).
    """
    kappa = np.asarray(kappa, dtype=float)
    if not np.any(kappa):
        raise ValueError("kappa must be nonzero")
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    if A.grid.dim != kernel.dim:
        raise ValueError("grid dimension mismatch")
    k_at_kappa = evaluate(kernel, kappa)
    axis = A.grid.axis()
    out = []
    for eps in eps_list:
        phase = np.exp(1j * A.grid.separable([k / eps * axis for k in kappa]))
        modulated = GridFunction(A.grid, A.values * phase)
        back = apply(kernel, modulated).values / phase
        diff = GridFunction(A.grid, back - k_at_kappa * A.values)
        out.append(diff.l2_norm())
    return out
