"""Homogeneous degree-zero Fourier multipliers and their grid action.

A kernel here is a real, even symbol ``Khat`` on R^d \\ {0} that is invariant
under positive rescaling of its argument.  Applied to a grid function it acts
as ``E(f) = F^{-1}(Khat . F f)``.  The symbol has no canonical value at the
origin; for the non-trivial kernels the discrete zero mode is multiplied by 0
(for the Davey-Stewartson symbol xi_1^2/|xi|^2 this matches the operator
d_x1 Laplace^{-1} d_x1, which annihilates constants; the dipolar symbol has
zero angular average).  The identity and zero kernels keep their constant
symbol at the origin.

Each kind's formula is written once, in :func:`_sample`, on coordinates
that broadcast: :func:`symbol` passes it the columns of a point stack, the
table builder the 1-D frequency axes.  It serves :func:`evaluate`, the
grid multiplier of E and the transport coupling
coefficients mu + lam Khat(kappa_j - kappa_l), so the coefficients are the
values E applies to a product oscillating at kappa_j - kappa_l.  Both the
multiplier and the coefficients are the symbol at integer lattice points:
Khat sees only the direction of a frequency, so Khat(pi k / L) = Khat(k),
and one table per grid shape serves every box of that shape.
"""

from __future__ import annotations

import math
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
    return _sample(kernel, p.T, np.empty(len(p)))


def _sample(kernel: KernelSpec, coords, out: np.ndarray) -> np.ndarray:
    """Khat written into out at the points whose d coordinates are the arrays
    coords, broadcast to out's shape; each kind's formula, written once.  The
    formulas run in place in out, so only the dipolar |xi|^2 takes a second
    array of out's size.  At the origin Khat is undefined: the formulas give
    nan there (0 / 0) and a custom symbol is not called."""
    if kernel.kind in ("identity", "zero"):  # constant, as at the origin
        out[...] = zero_mode_value(kernel)
    elif kernel.kind == "ds":  # x^2 / (x^2 + y^2)
        x2 = coords[0] ** 2
        np.divide(x2, np.add(x2, coords[1] ** 2, out=out), out=out)
    elif kernel.kind == "dipolar":  # scale (3 (a . xi)^2 / |xi|^2 - 1)
        (ax, ay, az), (x, y, z) = kernel.axis, coords
        np.square(np.add(ax * x + ay * y, az * z, out=out), out=out)
        out *= 3.0
        out /= x ** 2 + y ** 2 + z ** 2
        out -= 1.0
        out *= DIPOLAR_SCALE
    else:
        points = np.stack(np.broadcast_arrays(*coords), axis=-1)
        points = points.reshape(-1, len(coords))
        flat = out.reshape(-1)  # a view: out is contiguous
        nonzero = np.any(points, axis=1)
        flat[~nonzero] = np.nan
        flat[nonzero] = np.real(_call_symbol(kernel.fn, points[nonzero]))
    return out


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


# Points per block of _half_multiplier: the scratch of a table build (the
# mirror block, numpy's buffers for the broadcast axes, the dipolar |xi|^2 or
# a custom symbol's point stack) is sized by it, not by the lattice.
_BLOCK_POINTS = 2 ** 12


@lru_cache(maxsize=64)
def _half_multiplier(kernel: KernelSpec, shape: tuple) -> np.ndarray:
    """The multiplier of E on the rfftn half spectrum (last axis 0..n/2) of
    the integer lattice of shape, zero mode fixed; read-only.

    It is the even part (Khat(k) + Khat(-k mod n))/2 of the symbol: Khat(k)
    except at Nyquist components, which the lattice maps to themselves, for
    symbols not even in each axis (an oblique dipolar axis).  Both samples
    are taken from the 1-D frequency axes by broadcasting, in blocks of rows
    of about _BLOCK_POINTS points, so no mesh, point stack or full-lattice
    table exists."""
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in shape]
    axes = [f[:m] for f, m in zip(freqs, half)]
    mirrors = [f[-np.arange(m) % len(f)] for f, m in zip(freqs, half)]
    out = np.empty(half)
    rows = min(half[0], max(1, round(_BLOCK_POINTS / math.prod(half[1:]))))
    mirror = np.empty((rows,) + half[1:])
    with np.errstate(invalid="ignore"):  # 0 / 0 at the origin
        for start in range(0, half[0], rows):
            block = slice(start, start + rows)
            at = _sample(kernel, np.ix_(axes[0][block], *axes[1:]), out[block])
            at += _sample(kernel, np.ix_(mirrors[0][block], *mirrors[1:]),
                          mirror[:len(at)])
    out *= 0.5
    out.flat[0] = zero_mode_value(kernel)  # the origin comes first in FFT order
    finite = np.isfinite(out)  # custom: probed off the lattice
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), half)
        raise ValueError(f"kernel symbol is not finite at lattice frequency "
                         f"{tuple(float(f[i]) for f, i in zip(axes, index))} "
                         "or at its mirror")
    out.setflags(write=False)
    return out


def apply(kernel: KernelSpec, f: GridFunction) -> GridFunction:
    """E(f) = F^{-1}(Khat . F f) with the zero-mode convention above, on the
    stack of f's real and imaginary parts through :func:`apply_raw`: its
    even multiplier acts on complex fields too, so E keeps real fields real."""
    out = np.empty(f.grid.shape, dtype=np.complex128)
    out.real, out.imag = apply_raw(kernel, f.grid,
                                   np.stack((f.values.real, f.values.imag)))
    return GridFunction(f.grid, out)


def apply_raw(kernel: KernelSpec, grid: SpectralGrid,
              values: np.ndarray) -> np.ndarray:
    """Re E(values) for a real array, on real FFTs; for hot loops.

    values is one field on grid, or a stack of fields of grid's shape along
    axis 0, transformed over axes 1..d; the one :func:`_half_multiplier` of
    that shape serves every spacing.  The sign pattern and the normalisation
    factors of :meth:`SpectralGrid.forward` and :meth:`SpectralGrid.inverse`
    cancel in the round trip, so they are skipped.  :func:`apply` runs it on
    complex fields.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError("apply_raw needs a real array; use apply() for complex fields")
    if grid.dim != kernel.dim:
        raise ValueError(f"kernel dim {kernel.dim} != field dim {grid.dim}")
    stacked = values.ndim - grid.dim
    if stacked not in (0, 1) or values.shape[stacked:] != grid.shape:
        raise ValueError(f"expected shape {grid.shape} or a stack of it, "
                         f"got {values.shape}")
    axes = tuple(range(stacked, values.ndim))
    # the table first, so that a first build does not run beside the spectrum
    table = _half_multiplier(kernel, grid.shape)
    spectrum = scipy.fft.rfftn(values, axes=axes, workers=1)
    spectrum *= table
    return scipy.fft.irfftn(spectrum, s=grid.shape, axes=axes, overwrite_x=True,
                            workers=1)


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
