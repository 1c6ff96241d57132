import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wnlgo import GridFunction, ResolutionError, ScaledProfileSpec, \
    SpectralGrid, gaussian_sobolev_norm, scaled_profile_norm, sobolev_norm, \
    wiener_norm
from wnlgo.norms import scaled_grid


def gaussian(grid, amp=1.0, width=1.0):
    r2 = sum(c ** 2 for c in grid.mesh())
    return GridFunction(grid, amp * np.exp(-r2 / (2.0 * width ** 2)) + 0j * r2)


def test_import_leaves_scipy_integrate_out():
    # scipy.integrate costs more to import than the package itself, and only
    # gaussian_sobolev_norm uses it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, wnlgo; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout == "False\n"


def random_band_limited(grid, rng, band=5):
    n = grid.points_per_axis
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    idx = np.arange(-band, band + 1)
    for i in idx:
        for j in idx:
            coeffs[i % n, j % n] = rng.standard_normal() + 1j * rng.standard_normal()
    import scipy.fft
    return GridFunction(grid, scipy.fft.ifftn(coeffs))


class TestWienerNorm:
    def test_plane_wave(self):
        grid = SpectralGrid(2, np.pi, 32)
        x, y = grid.mesh()
        f = GridFunction(grid, (1.5 - 0.5j) * np.exp(1j * (3 * x - 2 * y)))
        assert abs(wiener_norm(f) - abs(1.5 - 0.5j)) < 1e-12

    def test_triangle_inequality_and_submultiplicativity(self):
        grid = SpectralGrid(2, np.pi, 64)
        rng = np.random.default_rng(31)
        f = random_band_limited(grid, rng)
        g = random_band_limited(grid, rng)
        wf, wg = wiener_norm(f), wiener_norm(g)
        fg = GridFunction(grid, f.values * g.values)
        s = GridFunction(grid, f.values + g.values)
        assert wiener_norm(s) <= wf + wg + 1e-12
        assert wiener_norm(fg) <= wf * wg + 1e-12


class TestSobolevNorm:
    def test_s_zero_is_l2(self):
        grid = SpectralGrid(2, np.pi, 32)
        rng = np.random.default_rng(8)
        f = random_band_limited(grid, rng)
        assert abs(sobolev_norm(f, 0.0) - f.l2_norm()) < 1e-12

    def test_monotone_in_s(self):
        grid = SpectralGrid(2, 8.0, 64)
        f = gaussian(grid)
        values = [sobolev_norm(f, s) for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_radial_quadrature(self):
        # grid H^s of a unit Gaussian against the off-grid closed form
        grid = SpectralGrid(2, 10.0, 256)
        f = gaussian(grid)
        for s in (-1.5, -0.5, 0.0, 1.0):
            target = math.sqrt(gaussian_sobolev_norm(1.0, s, 2))
            got = sobolev_norm(f, s)
            assert abs(got - target) < 1e-6 * target


class TestGaussianSobolevNorm:
    def test_s_zero_closed_form(self):
        # squared L2 norm of exp(-z|x|^2/2) is (pi / Re z)^{d/2}
        for d in (1, 2, 3):
            for z in (1.0, 3.0, 2.0 + 3.0j, 0.5 - 4.0j):
                got = gaussian_sobolev_norm(z, 0.0, d)
                want = (math.pi / complex(z).real) ** (d / 2.0)
                assert abs(got - want) < 1e-10 * want

    def test_monotone_in_s(self):
        vals = [gaussian_sobolev_norm(1.0 + 2.0j, s, 2) for s in (-2, -1, 0, 1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_extreme_arguments_stay_clean(self):
        # the bracket turns over in a thin layer for |z| >> 1; quadrature
        # must keep digits there without warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (2 ** 10, 2 ** 13, 2 ** 16):
                for s in (-0.25, -1.0, -2.0):
                    v = gaussian_sobolev_norm(1.0 + 1j * k, s, 1)
                    assert v > 0.0
                    w = gaussian_sobolev_norm(float(k), s, 2)
                    assert w > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_sobolev_norm(-1.0, 0.0, 2)
        with pytest.raises(ValueError):
            gaussian_sobolev_norm(1j, 0.0, 2)
        with pytest.raises(ValueError):
            gaussian_sobolev_norm(1.0, 0.0, 0)


class TestScaledProfileNorm:
    def test_beta_one_is_plain_modulation(self):
        # beta = 1: no rescaling, the norm is just the grid H^sigma norm of
        # the modulated profile
        grid = SpectralGrid(2, 8.0, 128)
        f = gaussian(grid)
        eps = 0.25
        spec = ScaledProfileSpec(f, (1.0, 0.0), 1.0, eps)
        x, _ = grid.mesh()
        modulated = GridFunction(grid, f.values * np.exp(1j * x / eps))
        for sigma in (0.0, -1.0):
            got = scaled_profile_norm(spec, sigma)
            want = sobolev_norm(modulated, sigma)
            assert abs(got - want) < 1e-10 * want

    def test_l2_scaling_law_is_exact_on_the_grid(self):
        # sigma = 0: rescaling the box maps lattice points onto lattice
        # points, so || f(x eps^{(1-beta)/2}) ||_{L2} = eps^{-d(1-beta)/4} ||f||
        grid = SpectralGrid(2, 8.0, 128)
        f = gaussian(grid)
        eps = 1.0 / 16.0
        for beta in (0.5, 1.0, 1.5):
            spec = ScaledProfileSpec(f, (0.0, 0.0), beta, eps)
            got = scaled_profile_norm(spec, 0.0)
            want = eps ** (-2.0 * (1.0 - beta) / 4.0) * f.l2_norm()
            assert abs(got - want) < 1e-10 * want

    def test_callable_profile(self):
        def profile(points):
            return np.exp(-np.sum(points ** 2, axis=-1) / 2.0)

        spec = ScaledProfileSpec(profile, (3.0,), 1.0, 0.1, half_length=10.0)
        got = scaled_profile_norm(spec, 0.0)
        assert abs(got - math.pi ** 0.25) < 1e-6

    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_grid_profile_matches_the_callable(self, n):
        # a grid profile is read at every (128/n)-th sample, or through its
        # interpolant above 128 points: at beta = 1 both are the Gaussian
        # the callable samples, to the grid profile's resolution
        grid = SpectralGrid(2, 8.0, 128)

        def profile(points):
            return np.exp(-np.sum(points ** 2, axis=-1) / 2.0)
        for sigma in (0.0, -1.0):
            got, want = (scaled_profile_norm(ScaledProfileSpec(
                f, (1.0, 0.5), 1.0, 0.5, half_length=8.0, points_per_axis=n),
                sigma) for f in (gaussian(grid), profile))
            assert abs(got - want) < 1e-12 * want

    def test_callable_needs_box(self):
        with pytest.raises(ValueError, match="half_length"):
            scaled_profile_norm(
                ScaledProfileSpec(lambda p: p[..., 0], (1.0,), 1.0, 0.5), 0.0)

    def test_under_resolved_carrier_rejected(self):
        grid = SpectralGrid(1, np.pi, 64)
        f = GridFunction(grid, np.exp(-grid.mesh()[0] ** 2) + 0j)
        spec = ScaledProfileSpec(f, (1.0,), 1.0, 1.0 / 64.0, points_per_axis=64)
        with pytest.raises(ResolutionError, match="Nyquist"):
            scaled_profile_norm(spec, 0.0)

    @pytest.mark.parametrize("beta, eps", [(1e5, 0.5), (1.0, 1e-320)],
                             ids=["beta-1e5", "eps-1e-320"])
    def test_no_float_grid_is_a_resolution_error(self, beta, eps):
        # eps ** ((1 - beta) / 2) past the float range raised OverflowError,
        # and an infinite carrier OverflowError from the point count
        spec = ScaledProfileSpec(lambda p: p[..., 0], (1.0,), beta, eps,
                                 half_length=8.0)
        with pytest.raises(ResolutionError):
            scaled_grid(spec)

    def test_spec_validation(self):
        grid = SpectralGrid(2, np.pi, 16)
        f = GridFunction.constant(grid, 1.0)
        with pytest.raises(ValueError):
            ScaledProfileSpec(f, (1.0, 0.0), 0.0, 0.5)
        with pytest.raises(ValueError):
            ScaledProfileSpec(f, (1.0, 0.0), 1.0, 1.5)
        with pytest.raises(ValueError):
            ScaledProfileSpec(f, (1.0,), 1.0, 0.5)
        with pytest.raises(TypeError):
            ScaledProfileSpec("not a profile", (1.0, 0.0), 1.0, 0.5)
        # a grid profile is read on its own box only
        with pytest.raises(ValueError, match="own box"):
            ScaledProfileSpec(f, (1.0, 0.0), 1.0, 0.5, half_length=2.0)
        for half_length in (0.0, np.pi):
            assert ScaledProfileSpec(f, (1.0, 0.0), 1.0, 0.5,
                                     half_length=half_length).half_length == np.pi
