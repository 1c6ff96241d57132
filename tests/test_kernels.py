import numpy as np
import pytest

from wnlgo import DIPOLAR_SCALE, GridFunction, SpectralGrid, apply, apply_raw, \
    custom, davey_stewartson, dipolar, evaluate, identity, \
    oscillatory_coefficient_limit, parse_kernel, zero
from wnlgo import grid as grid_module, kernels


def test_ds_values():
    ds = davey_stewartson()
    assert evaluate(ds, (1.0, 0.0)) == 1.0
    assert evaluate(ds, (0.0, 1.0)) == 0.0
    assert evaluate(ds, (1.0, 1.0)) == pytest.approx(0.5)
    assert evaluate(ds, (2.0, -1.0)) == pytest.approx(4.0 / 5.0)


def test_ds_rotation_partition():
    # Khat(p, q) + Khat(-q, p) = 1: the symbol and its quarter-turn partner
    # split unity
    ds = davey_stewartson()
    rng = np.random.default_rng(42)
    for _ in range(50):
        p, q = rng.integers(-9, 10, size=2)
        if p == 0 and q == 0:
            continue
        total = evaluate(ds, (p, q)) + evaluate(ds, (-q, p))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_ds_even_and_homogeneous():
    ds = davey_stewartson()
    rng = np.random.default_rng(8)
    for _ in range(20):
        xi = rng.standard_normal(2)
        v = evaluate(ds, xi)
        assert evaluate(ds, -xi) == pytest.approx(v, abs=1e-12)
        for c in (0.5, 2.0, 10.0):
            assert evaluate(ds, c * xi) == pytest.approx(v, abs=1e-12)


def test_dipolar_axis_values():
    dip = dipolar((0.0, 0.0, 1.0))
    # parallel to the dipole axis: 3 cos^2 - 1 = 2
    assert evaluate(dip, (0.0, 0.0, 5.0)) == pytest.approx(2.0 * DIPOLAR_SCALE)
    # perpendicular: -1
    assert evaluate(dip, (3.0, 0.0, 0.0)) == pytest.approx(-DIPOLAR_SCALE)
    assert evaluate(dip, (0.0, -2.0, 0.0)) == pytest.approx(-DIPOLAR_SCALE)
    # magic angle cos^2 = 1/3 kills the symbol
    c = 1.0 / np.sqrt(3.0)
    s = np.sqrt(2.0 / 3.0)
    assert evaluate(dip, (s, 0.0, c)) == pytest.approx(0.0, abs=1e-10)


def test_dipolar_scale_constant():
    assert DIPOLAR_SCALE == pytest.approx((2.0 / 3.0) * (2 * np.pi) ** 2.5)


def test_evaluate_rejects_origin():
    with pytest.raises(ValueError, match="zero"):
        evaluate(davey_stewartson(), (0.0, 0.0))


def test_identity_and_zero_apply():
    g = SpectralGrid(2, np.pi, 16)
    rng = np.random.default_rng(12)
    f = GridFunction(g, rng.standard_normal(g.shape)
                     + 1j * rng.standard_normal(g.shape))
    assert np.max(np.abs(apply(identity(2), f).values - f.values)) < 1e-12
    assert np.max(np.abs(apply(zero(2), f).values)) < 1e-15


def test_apply_plane_wave_eigenfunction():
    g = SpectralGrid(2, np.pi, 32)
    ds = davey_stewartson()
    for k in ((1, 0), (0, 1), (2, 1), (-3, 2)):
        f = GridFunction.from_callable(
            g, lambda x, y, k=k: np.exp(1j * (k[0] * x + k[1] * y)))
        out = apply(ds, f)
        expected = evaluate(ds, np.asarray(k, float)) * f.values
        assert np.max(np.abs(out.values - expected)) < 1e-12


def test_apply_kills_constants():
    # homogeneous symbols have no preferred value at 0; the convention is 0
    g = SpectralGrid(2, 2.0, 16)
    f = GridFunction.constant(g, 3.0 + 1.0j)
    assert np.max(np.abs(apply(davey_stewartson(), f).values)) < 1e-13


def test_apply_dim_mismatch():
    g = SpectralGrid(1, 1.0, 8)
    with pytest.raises(ValueError):
        apply(davey_stewartson(), GridFunction.zeros(g))


def _cross_symbol(p):
    # even and degree zero, but odd in each axis: Khat(-n/2, k) != Khat(-n/2, -k)
    # at the Nyquist row, which the lattice maps to itself
    return p[..., 0] * p[..., 1] / (p[..., 0] ** 2 + p[..., 1] ** 2)


REAL_APPLY_CASES = {
    "ds": (davey_stewartson(), SpectralGrid(2, np.pi, 32)),
    "dipolar": (dipolar((3.0 / 7.0, 6.0 / 7.0, 2.0 / 7.0)), SpectralGrid(3, 2.0, 16)),
    "identity": (identity(2), SpectralGrid(2, np.pi, 32)),
    "zero": (zero(2), SpectralGrid(2, np.pi, 32)),
    "custom": (custom(2, _cross_symbol), SpectralGrid(2, 1.5, 16)),
}


class TestApplyRaw:
    """The real-FFT apply_raw against the general complex apply."""

    @pytest.mark.parametrize("name", sorted(REAL_APPLY_CASES))
    def test_matches_complex_apply(self, name):
        kernel, grid = REAL_APPLY_CASES[name]
        values = np.random.default_rng(31).standard_normal(grid.shape)
        expected = apply(kernel, GridFunction(grid, values)).values.real
        got = apply_raw(kernel, grid, values)
        assert got.dtype == np.float64 and got.shape == grid.shape
        scale = max(np.linalg.norm(expected), np.linalg.norm(values))
        assert np.linalg.norm(got - expected) <= 1e-13 * scale

    @pytest.mark.parametrize("name", sorted(REAL_APPLY_CASES))
    def test_cached_multipliers_are_read_only(self, name):
        # one cached array serves every later call with this kernel and grid
        kernel, grid = REAL_APPLY_CASES[name]
        for table in (kernels._multiplier(kernel, grid),
                      kernels._half_multiplier(kernel, grid)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(1,) * grid.dim] = 7.0
            assert table[(0,) * grid.dim] == kernels.zero_mode_value(kernel)
        assert kernels.zero_mode_value(kernel) == (kernel.kind == "identity")

    def test_cached_sign_pattern_is_read_only(self):
        # one cached array serves every later transform on this grid
        for _, grid in REAL_APPLY_CASES.values():
            values = np.random.default_rng(33).standard_normal(grid.shape)
            before = grid.forward(values)
            table = grid_module._sign_pattern(grid)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(1,) * grid.dim] = 7.0
            assert np.array_equal(grid.forward(values), before)

    @pytest.mark.parametrize("name", sorted(REAL_APPLY_CASES))
    def test_evaluate_is_the_lattice_multiplier(self, name):
        # one symbol serves both: Khat at each nonzero lattice frequency is
        # the multiplier there, bit for bit
        kernel, grid = REAL_APPLY_CASES[name]
        table = kernels._multiplier(kernel, grid)
        mesh = grid.frequency_mesh()
        for k in np.ndindex(grid.shape):
            if any(k):
                assert evaluate(kernel, [m[k] for m in mesh]) == table[k], k

    def test_input_is_left_unchanged(self):
        kernel, grid = REAL_APPLY_CASES["ds"]
        values = np.random.default_rng(32).standard_normal(grid.shape)
        before = values.copy()
        apply_raw(kernel, grid, values)
        assert np.array_equal(values, before)

    def test_rejects_complex_and_misshaped_input(self):
        kernel, grid = REAL_APPLY_CASES["ds"]
        with pytest.raises(ValueError, match="real"):
            apply_raw(kernel, grid, np.ones(grid.shape, dtype=np.complex128))
        with pytest.raises(ValueError, match="shape"):
            apply_raw(kernel, grid, np.ones((16, 16)))


class TestCustom:
    def test_accepts_valid_symbol(self):
        fn = lambda p: p[..., 0] ** 2 / (p[..., 0] ** 2 + p[..., 1] ** 2)
        k = custom(2, fn)
        g = SpectralGrid(2, np.pi, 16)
        f = GridFunction.from_callable(g, lambda x, y: np.exp(1j * (x + y)))
        out = apply(k, f)
        assert np.max(np.abs(out.values - 0.5 * f.values)) < 1e-12

    def test_rejects_odd_symbol(self):
        fn = lambda p: p[..., 0] / np.sqrt(np.sum(p ** 2, axis=-1))
        with pytest.raises(ValueError, match="even"):
            apply(custom(2, fn),
                  GridFunction.zeros(SpectralGrid(2, 1.0, 8)))

    def test_rejects_inhomogeneous_symbol(self):
        fn = lambda p: np.sum(p ** 2, axis=-1)
        with pytest.raises(ValueError, match="homogeneous"):
            apply(custom(2, fn),
                  GridFunction.zeros(SpectralGrid(2, 1.0, 8)))

    @pytest.mark.parametrize("fn", [
        lambda p: np.full(len(p), np.nan),
        lambda p: np.where(np.sum(p ** 2, axis=-1) > 2.0, np.nan, 1.0)],
        ids=["everywhere", "scaled-probes"])
    def test_rejects_non_finite_symbol(self, fn):
        with pytest.raises(ValueError, match="finite"):
            custom(2, fn)

    def test_rejects_non_finite_lattice_samples(self):
        # finite on the random probes, which never sit on an axis, but nan
        # on the xi_2 = 0 lattice line; apply_raw shares the multiplier
        k = custom(2, lambda p: np.where(p[:, 1] == 0, np.nan, 1.0))
        grid = SpectralGrid(2, np.pi, 8)
        for run in (lambda: apply(k, GridFunction.zeros(grid)),
                    lambda: apply_raw(k, grid, np.zeros(grid.shape))):
            with pytest.raises(ValueError, match=r"not finite at lattice "
                                                 r"frequency \(1\.0, 0\.0\)"):
                run()

    def test_rejects_complex_symbol(self):
        fn = lambda p: 1.0j * np.ones(p.shape[0])
        with pytest.raises(ValueError, match="real"):
            apply(custom(2, fn),
                  GridFunction.zeros(SpectralGrid(2, 1.0, 8)))


class TestOscillatoryCoefficientLimit:
    def test_decays_for_smooth_symbol(self):
        g = SpectralGrid(2, np.pi, 256)
        A = GridFunction.from_callable(
            g, lambda x, y: np.exp(-(x * x + y * y) / (2 * 0.42 ** 2)))
        vals = oscillatory_coefficient_limit(
            davey_stewartson(), (1.0, 0.0), A, [1 / 4, 1 / 8, 1 / 16])
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_identity_symbol_sees_no_increment(self):
        g = SpectralGrid(1, np.pi, 64)
        A = GridFunction.from_callable(g, lambda x: np.exp(-x * x))
        vals = oscillatory_coefficient_limit(identity(1), (1.0,), A, [0.5, 0.25])
        assert max(vals) < 1e-10

    def test_validation(self):
        g = SpectralGrid(2, np.pi, 16)
        A = GridFunction.zeros(g)
        with pytest.raises(ValueError, match="nonzero"):
            oscillatory_coefficient_limit(davey_stewartson(), (0, 0), A, [0.5])
        with pytest.raises(ValueError, match="decreasing"):
            oscillatory_coefficient_limit(davey_stewartson(), (1, 0), A,
                                          [0.25, 0.5])


def test_parse_kernel():
    assert parse_kernel("identity", 3).kind == "identity"
    assert parse_kernel("zero", 1).kind == "zero"
    assert parse_kernel("ds", 2).kind == "ds"
    dip = parse_kernel("dipolar:0,0,1", 3)
    assert dip.kind == "dipolar"
    assert dip.axis == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        parse_kernel("ds", 3)
    with pytest.raises(ValueError):
        parse_kernel("dipolar:0,0,1", 2)
    with pytest.raises(ValueError):
        parse_kernel("dipolar:1,2", 3)
    for axis in ("nan,0,1", "inf,0,0"):
        with pytest.raises(ValueError, match="finite"):
            parse_kernel(f"dipolar:{axis}", 3)
    with pytest.raises(ValueError):
        parse_kernel("sobolev", 2)
