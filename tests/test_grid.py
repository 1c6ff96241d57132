import numpy as np
import pytest

from wnlgo import GridFunction, SpectralGrid, read_snapshot, resample, \
    write_snapshot
from wnlgo.grid import MAGIC, _sign_pattern, pow2_at_least

from oracles import from_callable, shift_in_fourier


def gaussian_1d(grid, width=1.0):
    return from_callable(
        grid, lambda x: np.exp(-x * x / (2.0 * width * width)))


def test_pow2_at_least():
    assert [pow2_at_least(x) for x in (-16, 0, 4, 4.5, 64, 64 + 1e-10)] \
        == [4, 4, 4, 8, 64, 64]
    for x in (float("inf"), float("nan")):  # would loop for ever
        with pytest.raises(ValueError, match="power of two"):
            pow2_at_least(x)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(1, -2.0, 64)
    for half_length in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SpectralGrid(2, half_length, 16)
    with pytest.raises(ValueError):
        SpectralGrid(1, 2.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        SpectralGrid(1, 2.0, 2)  # too small
    with pytest.raises(ValueError):
        SpectralGrid(0, 2.0, 8)
    # a float or bool size is refused here, not later in an allocation
    for dim, n in ((2, 32.0), (2.0, 32), (2, np.float64(32)), (True, 32),
                   (2, True), ("2", 32)):
        with pytest.raises(ValueError, match="must be an integer"):
            SpectralGrid(dim, 2.0, n)
    assert SpectralGrid(np.int64(2), 2.0, np.int64(32)).shape == (32, 32)


def test_axis_and_spacings():
    g = SpectralGrid(1, 4.0, 16)
    ax = g.axis()
    assert ax[0] == -4.0
    assert ax[-1] == 4.0 - g.spacing
    assert g.spacing == pytest.approx(0.5)
    assert g.spectral_spacing == pytest.approx(np.pi / 4.0)
    # frequency axis is in FFT order and covers the symmetric band
    freqs = g.frequency_axis()
    assert freqs[0] == 0.0
    assert freqs.min() == pytest.approx(-8 * g.spectral_spacing)


def test_round_trip_exact():
    g = SpectralGrid(2, np.pi, 32)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    back = g.inverse(g.forward(vals))
    assert np.max(np.abs(back - vals)) < 1e-12


def test_plane_wave_bin():
    # forward puts a plane wave e^{i k.x} into the single bin k with value
    # (2 pi)^{-d/2} (2L)^d
    g = SpectralGrid(2, np.pi, 64)
    f = from_callable(g, lambda x, y: np.exp(1j * (3 * x - 2 * y)))
    coeffs = g.forward(f.values)
    expected = (2 * np.pi) ** (-1.0) * (2 * np.pi) ** 2
    assert coeffs[3 % 64, -2 % 64] == pytest.approx(expected, rel=1e-12)
    coeffs[3 % 64, -2 % 64] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-10


def test_parseval():
    g = SpectralGrid(2, 2.5, 32)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    coeffs = g.forward(vals)
    phys = np.sum(np.abs(vals) ** 2) * g.cell_volume
    spec = np.sum(np.abs(coeffs) ** 2) * g.spectral_cell_volume
    assert spec == pytest.approx(phys, rel=1e-10)


def test_gaussian_transform_pair():
    # hat of exp(-x^2/2) is exp(-xi^2/2) with this normalization
    g = SpectralGrid(1, 16.0, 256)
    f = gaussian_1d(g)
    coeffs = g.forward(f.values)
    expected = np.exp(-g.frequency_axis() ** 2 / 2.0)
    assert np.max(np.abs(coeffs - expected)) < 1e-8


def test_forward_inverse_wrappers():
    g = SpectralGrid(1, 8.0, 64)
    f = gaussian_1d(g, 2.0)
    assert np.allclose(g.inverse(g.forward(f.values)), f.values, atol=1e-12)


def test_grids_of_one_shape_share_one_sign_pattern():
    # (-1)^{k_1+...+k_d} depends on n and d alone, so cells and y-grids of
    # one shape and other boxes build one table
    values = np.random.default_rng(5).standard_normal((16, 16))
    grids = [SpectralGrid(2, L, 16) for L in (np.pi, 0.3, 4.0)]
    _sign_pattern.cache_clear()
    for g in grids:
        assert np.allclose(g.inverse(g.forward(values)), values, atol=1e-12)
    info = _sign_pattern.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    table = _sign_pattern(grids[0].shape)
    assert not table.flags.writeable
    assert table is _sign_pattern(grids[-1].shape)


class TestShift:
    def test_matches_sampled_translation(self):
        g = SpectralGrid(1, 16.0, 512)
        f = gaussian_1d(g)
        moved = shift_in_fourier(f, (2.0,), 1.25)
        expected = from_callable(
            g, lambda x: np.exp(-(x - 2.5) ** 2 / 2.0))
        assert np.max(np.abs(moved.values - expected.values)) < 1e-9

    def test_additive_in_time(self):
        g = SpectralGrid(2, np.pi, 32)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.standard_normal(g.shape)
                         + 1j * rng.standard_normal(g.shape))
        v = (0.7, -0.3)
        once = shift_in_fourier(f, v, 0.9)
        twice = shift_in_fourier(shift_in_fourier(f, v, 0.4), v, 0.5)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_box_period_returns(self):
        g = SpectralGrid(1, np.pi, 64)
        f = gaussian_1d(g)
        # v t = 2L is a full period of the torus
        back = shift_in_fourier(f, (1.0,), 2 * np.pi)
        assert np.max(np.abs(back.values - f.values)) < 1e-10


class TestSeparable:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sum_matches_meshgrid(self, dim):
        g = SpectralGrid(dim, 2.0, 8)
        weights = np.random.default_rng(dim).standard_normal(dim)
        got = g.separable([w * g.axis() for w in weights])
        want = sum(w * x for w, x in zip(weights, g.mesh()))
        assert got.shape == g.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_product_matches_meshgrid(self, dim):
        g = SpectralGrid(dim, 2.0, 8)
        powers = range(1, dim + 1)
        got = g.separable([np.abs(g.frequency_axis()) ** p for p in powers],
                          np.multiply)
        want = np.prod([np.abs(xi) ** p for xi, p in
                        zip(g.frequency_mesh(), powers)], axis=0)
        assert got.shape == g.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_wrong_axis_count(self, dim):
        g = SpectralGrid(dim, 2.0, 8)
        with pytest.raises(ValueError, match="per-axis"):
            g.separable([g.axis()] * (dim + 1))
        with pytest.raises(ValueError, match="per-axis"):
            g.separable([g.axis()] * (dim - 1))

    def test_fresh_writable_array_in_one_dimension(self):
        g = SpectralGrid(1, 2.0, 8)
        axis = g.axis()
        out = g.separable([axis])
        out[0] = 1.0  # as the dipolar multiplier writes its origin entry
        assert axis[0] == -2.0 and out[0] == 1.0


def test_resample_band_limited_exact():
    g = SpectralGrid(1, np.pi, 32)
    f = from_callable(
        g, lambda x: np.cos(3 * x) + 0.5j * np.sin(7 * x))
    up = resample(f, 128)
    expected = from_callable(
        up.grid, lambda x: np.cos(3 * x) + 0.5j * np.sin(7 * x))
    assert np.max(np.abs(up.values - expected.values)) < 1e-12
    down = resample(up, 32)
    assert np.max(np.abs(down.values - f.values)) < 1e-12


def test_grid_function_validation():
    g = SpectralGrid(2, 1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((8, 4)))
    f = GridFunction.zeros(g)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0  # frozen buffer


def test_norm_helpers():
    g = SpectralGrid(2, 3.0, 16)
    f = GridFunction.constant(g, 2.0 - 1.0j)
    # |c| * (2L)^{d/2}
    assert f.l2_norm() == pytest.approx(abs(2.0 - 1.0j) * 6.0, rel=1e-12)
    assert f.sup_norm() == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = SpectralGrid(2, np.pi, 16)
        rng = np.random.default_rng(5)
        f = GridFunction(g, (rng.standard_normal(g.shape)
                             + 1j * rng.standard_normal(g.shape)))
        path = tmp_path / "field.wglf"
        write_snapshot(f, path)
        back = read_snapshot(path)
        assert back.grid == g
        # payload is complex64
        assert np.max(np.abs(back.values - f.values)) < 1e-6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.wglf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "stub.wglf"
        path.write_bytes(MAGIC + b"\x00" * 4)
        with pytest.raises(ValueError, match="stub.wglf is too short"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        g = SpectralGrid(1, 1.0, 16)
        f = GridFunction.zeros(g)
        path = tmp_path / "short.wglf"
        write_snapshot(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            read_snapshot(path)
