"""Periodic spectral grids on the box [-L, L)^d.

Conventions
-----------
* The box is ``[-L, L)^d`` sampled with ``n`` points per axis (``n`` a power
  of two), spacing ``h = 2L/n``, row-major axis ordering (axis 0 of the
  arrays is the first spatial coordinate x_1).
* Grid frequencies are ``xi_k = (pi/L) k`` for signed integers
  ``k in [-n/2, n/2)``, stored in FFT order.
* The transform pair uses the symmetric normalization

      fhat(xi) = (2 pi)^{-d/2} \\int f(x) e^{-i x.xi} dx,
      f(x)     = (2 pi)^{-d/2} \\int fhat(xi) e^{i x.xi} dxi,

  realized discretely so that ``inverse(forward(f)) == f`` and the Parseval
  identity ``h^d sum|f|^2 == (pi/L)^d sum|fhat|^2`` hold to round-off.
  The factor ``(-1)^{k_1+...+k_d}`` absorbs the -L origin of the box.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
import scipy.fft

MAGIC = b"WGLF"
SNAPSHOT_VERSION = 1


def pow2_at_least(x: float) -> int:
    """The smallest power of two, 4 or more, not below x (to 1e-9)."""
    n = 4
    while n < x - 1e-9:
        n *= 2
    return n


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [-L, L)^d with FFT frequency bookkeeping.

    Parameters
    ----------
    dim : int
        Spatial dimension d >= 1.
    half_length : float
        Half box length L > 0; the box is [-L, L)^d.
    points_per_axis : int
        Points per axis, a power of two >= 4.
    """

    dim: int
    half_length: float
    points_per_axis: int

    def __post_init__(self):
        for name in ("dim", "points_per_axis"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.half_length > 0:
            raise ValueError(f"half_length must be > 0, got {self.half_length}")
        n = self.points_per_axis
        if pow2_at_least(n) != n:
            raise ValueError(f"points_per_axis must be a power of two >= 4, got {n}")

    # -- geometry -----------------------------------------------------------

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2L/n."""
        return 2.0 * self.half_length / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def spectral_spacing(self) -> float:
        """Frequency lattice spacing pi/L."""
        return np.pi / self.half_length

    @property
    def spectral_cell_volume(self) -> float:
        return self.spectral_spacing ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    def axis(self) -> np.ndarray:
        """Sample points along one axis: -L + h*arange(n)."""
        return -self.half_length + self.spacing * np.arange(self.points_per_axis)

    def mesh(self) -> tuple:
        """d coordinate arrays of shape ``self.shape`` ('ij' indexing)."""
        return tuple(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"))

    def frequency_axis(self) -> np.ndarray:
        """Frequencies along one axis in FFT order: (pi/L)*[0,1,...,-n/2,...,-1]."""
        n = self.points_per_axis
        return self.spectral_spacing * np.fft.fftfreq(n, d=1.0 / n)

    def frequency_mesh(self) -> tuple:
        return tuple(np.meshgrid(*([self.frequency_axis()] * self.dim), indexing="ij"))

    def separable(self, per_axis, op=np.add) -> np.ndarray:
        """f_1[k_1] op ... op f_d[k_d] on the grid, from one 1-D array per axis.

        Builds a separable symbol, phase or weight without a mesh.  The result
        is always a fresh writable array, also at d = 1.
        """
        per_axis = list(per_axis)
        if len(per_axis) != self.dim:
            raise ValueError(
                f"expected {self.dim} per-axis arrays, got {len(per_axis)}")
        return reduce(op.outer, per_axis[1:], np.array(per_axis[0]))

    # -- transforms ---------------------------------------------------------

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Discrete realization of the forward transform on raw arrays."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {values.shape}")
        factor = (2.0 * np.pi) ** (-self.dim / 2.0) * self.cell_volume
        return factor * _sign_pattern(self) * scipy.fft.fftn(values, workers=1)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward` (exact round trip)."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {coeffs.shape}")
        factor = ((2.0 * np.pi) ** (-self.dim / 2.0)
                  * self.spectral_cell_volume * self.size)
        return factor * scipy.fft.ifftn(_sign_pattern(self) * coeffs, workers=1)


@lru_cache(maxsize=64)
def _sign_pattern(grid: SpectralGrid) -> np.ndarray:
    """(-1)^{k_1+...+k_d} on the index lattice; read-only, as every transform
    on the grid shares it."""
    out = grid.separable([(-1.0) ** np.arange(grid.points_per_axis)] * grid.dim,
                         np.multiply)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridFunction:
    """A complex scalar field sampled on a :class:`SpectralGrid`.

    Values are copied and frozen at construction; all operations return new
    instances, so instances are safe to share across threads.
    """

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.complex128, copy=True)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} != grid shape {self.grid.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: SpectralGrid, fn) -> "GridFunction":
        return cls(grid, fn(*grid.mesh()) * np.ones(grid.shape))

    @classmethod
    def zeros(cls, grid: SpectralGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def constant(cls, grid: SpectralGrid, c: complex) -> "GridFunction":
        return cls(grid, np.full(grid.shape, c, dtype=np.complex128))

    def l2_norm(self) -> float:
        """Discrete L2 norm (h^d sum |f|^2)^{1/2}."""
        return float(np.sqrt(self.grid.cell_volume * np.sum(np.abs(self.values) ** 2)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def forward_transform(f: GridFunction) -> GridFunction:
    """Spectral coefficients of ``f`` on the frequency lattice (FFT order)."""
    return GridFunction(f.grid, f.grid.forward(f.values))


def inverse_transform(fhat: GridFunction) -> GridFunction:
    """Inverse of :func:`forward_transform`."""
    return GridFunction(fhat.grid, fhat.grid.inverse(fhat.values))


def shift_in_fourier(f: GridFunction, velocity, t: float) -> GridFunction:
    """Exact translation f(x - v t) for band-limited f.

    Multiplies the coefficient at frequency xi by exp(-i t v.xi); for t = 0
    or a full box period the field is returned unchanged up to round-off.
    """
    xi = f.grid.frequency_axis()
    dot = f.grid.separable([v * xi for v in np.asarray(velocity, dtype=float)])
    coeffs = f.grid.forward(f.values) * np.exp(-1j * t * dot)
    return GridFunction(f.grid, f.grid.inverse(coeffs))


def _superpose(grid: SpectralGrid, terms) -> np.ndarray:
    """sum_j w_j f_j(x) exp(i pi m_j . x / L) on grid, summed in Fourier.

    Each term (f, m, w) puts the band q in [-N/2, N/2) of the raw DFT of f
    (on the box, at any n) at (q + m) mod N, times w (N/n)^d (-1)^{sum m}:
    the sign is the -L origin, and the power of two keeps a constant exact.
    """
    N = grid.points_per_axis
    total = np.zeros(grid.shape, dtype=np.complex128)
    for f, m, w in terms:
        if (f.grid.dim, f.grid.half_length) != (grid.dim, grid.half_length):
            raise ValueError(f"{f.grid} and {grid} do not share a box")
        n = f.grid.points_per_axis
        q = np.fft.fftfreq(n, 1.0 / n).astype(int)
        q = q[(q >= -N // 2) & (q < N // 2)]
        coeffs = scipy.fft.fftn(f.values, workers=1)[np.ix_(*[q % n] * grid.dim)]
        coeffs *= w * (N / n) ** grid.dim * (-1.0) ** sum(m)
        total[np.ix_(*[(q + k) % N for k in m])] += coeffs
    return scipy.fft.ifftn(total, overwrite_x=True, workers=1)


def resample(f: GridFunction, points_per_axis: int) -> GridFunction:
    """Spectral resampling to a new per-axis resolution on the same box.

    Upsampling zero-pads the (centered) spectrum and is exact for band-limited
    fields; downsampling truncates frequencies beyond the new Nyquist band.
    """
    grid = SpectralGrid(f.grid.dim, f.grid.half_length, points_per_axis)
    return GridFunction(grid, _superpose(grid, [(f, (0,) * grid.dim, 1)]))


# -- binary snapshots -------------------------------------------------------

_HEADER = struct.Struct("<4sIIId")


def write_snapshot(f: GridFunction, path) -> None:
    """Write a field snapshot: magic 'WGLF', version, d, n, L, complex64 data."""
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, SNAPSHOT_VERSION, g.dim,
                              g.points_per_axis, g.half_length))
        fh.write(np.ascontiguousarray(f.values.astype(np.complex64)).tobytes())


def read_snapshot(path) -> GridFunction:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"not a field snapshot: {path} is too short")
        magic, version, dim, n, half_length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"not a field snapshot: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        grid = SpectralGrid(dim, half_length, n)
        data = np.frombuffer(fh.read(), dtype=np.complex64)
        if data.size != grid.size:
            raise ValueError(
                f"snapshot payload has {data.size} samples, expected {grid.size}")
        return GridFunction(grid, data.reshape(grid.shape).astype(np.complex128))
