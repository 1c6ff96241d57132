import os
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from wnlgo import AdmissibilityError, GridFunction, ModelParams, ProfileSet, \
    ResolutionError, SemiclassicalField, Signature, SpectralGrid, \
    TransportParams, approximation_error, assemble_approximation, \
    close_phase_set, custom, davey_stewartson, dipolar, evolve_fields, \
    evolve_profiles, evolve_semiclassical, identity, oscillatory_initial_data, \
    require_admissible, require_resolved, resample, zero
from wnlgo import kernels
from wnlgo.experiments import load_config, parse_config, run_inflation
from wnlgo.grid import _superpose
from wnlgo.solver import _free_phase
from wnlgo.transport import _advection_phases, _steps

from oracles import advection_phases_per_mode, assert_same_bits, \
    evolve_one_at_a_time, reference_apply, shift_in_fourier

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

ELLIPTIC = Signature.elliptic(2)
HYPERBOLIC = Signature.from_string("-+")


def params_for(eps, lam=0.0, mu=1.0, j=1.0, signature=ELLIPTIC, kernel=None):
    return ModelParams(eps=eps, j_exponent=j, lam=lam, mu=mu, nu=1,
                       signature=signature,
                       kernel=kernel if kernel is not None else zero(2))


def gaussian(grid, amp=1.0, width=0.8):
    r2 = sum(c ** 2 for c in grid.mesh())
    return GridFunction(grid, amp * np.exp(-r2 / (2.0 * width ** 2)))


def test_model_params_validation():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            params_for(bad)
    with pytest.raises(ValueError):
        ModelParams(0.5, 0.5, 0.0, 1.0, 1, ELLIPTIC, zero(2))
    with pytest.raises(ValueError):
        ModelParams(0.5, 1.0, 0.0, 1.0, 0, ELLIPTIC, zero(2))


class TestAdmissibility:
    def test_inadmissible_eps_suggests_alternatives(self):
        grid = SpectralGrid(2, np.pi, 64)
        with pytest.raises(AdmissibilityError, match="admissible eps") as exc:
            require_admissible(grid, [(1, 0), (1, 1)], 0.3)
        # the message carries usable nearby values
        listed = str(exc.value).split("[")[1].rstrip("]").split(",")
        eps_ok = float(listed[0])
        require_admissible(grid, [(1, 0), (1, 1)], eps_ok)

    def test_admissible_eps_passes(self):
        grid = SpectralGrid(2, np.pi, 64)
        for eps in (1.0, 0.5, 0.25, 0.125, 1.0 / 3.0):
            require_admissible(grid, [(1, 0), (1, 1), (0, 1)], eps)

    def test_gate_returns_the_lattice_shifts(self):
        # kappa / (eps pi / L) per component: L = 2 pi, eps = 1/3 gives 6 kappa
        grid = SpectralGrid(2, 2 * np.pi, 64)
        assert require_admissible(grid, [(1, 0), (-1, 2)], 1.0 / 3.0) \
            == [[6, 0], [-6, 12]]

    @pytest.mark.parametrize("half_length", [np.pi, 4 * np.pi],
                             ids=["ratio-inf", "step-zero"])
    def test_ratio_beyond_the_floats_is_off_the_lattice(self, half_length):
        # 1 / (5e-324 pi / L) is inf, and with L = 4 pi the step itself
        # underflows to 0
        grid = SpectralGrid(2, half_length, 64)
        with pytest.raises(AdmissibilityError, match="admissible eps: \\[\\]"):
            require_admissible(grid, [(1, 0)], 5e-324)

    def test_resolution_gate(self):
        grid = SpectralGrid(2, np.pi, 8)
        with pytest.raises(ResolutionError, match="need n >="):
            require_resolved(grid, [(1, 0)], 0.25)
        with pytest.raises(ResolutionError, match="need n >= inf"):
            require_resolved(grid, [(8, 0)], 1e-307)
        require_resolved(SpectralGrid(2, np.pi, 32), [(1, 0)], 0.25)


def test_constant_orbit_is_exact():
    # a spatially constant state only rotates its phase; with identity E the
    # coupling is lam + mu, with the zero-average kernel it is mu alone
    grid = SpectralGrid(2, np.pi, 16)
    c = 0.8
    t = 0.7
    for kernel, coupling in ((identity(2), 1.3 - 0.4), (davey_stewartson(), -0.4)):
        p = ModelParams(0.5, 1.0, 1.3, -0.4, 1, ELLIPTIC, kernel)
        u0 = oscillatory_initial_data(grid, [(0, 0)], [c], p)
        out = evolve_semiclassical(u0, t, dt=0.07)
        exact = c * np.exp(-1j * t * coupling * c ** 2)
        assert np.max(np.abs(out.values.values - exact)) < 1e-13


def test_constant_orbit_through_half_turns():
    # each step rotates the constant state by theta = pi, where the tangent
    # of theta / 2 in the rotation sits at its pole
    grid = SpectralGrid(2, np.pi, 16)
    c, dt, steps = 0.8, 0.07, 10
    coupling = -np.pi / (dt * c ** 2)
    for kernel, lam, mu in ((zero(2), 0.0, coupling),
                            (identity(2), coupling, 0.0)):
        p = ModelParams(0.5, 1.0, lam, mu, 1, ELLIPTIC, kernel)
        u0 = oscillatory_initial_data(grid, [(0, 0)], [c], p)
        out = evolve_semiclassical(u0, steps * dt, dt=dt)
        exact = c * np.exp(-1j * steps * dt * coupling * c ** 2)
        assert np.max(np.abs(out.values.values - exact)) < 1e-13


def test_time_reversibility():
    grid = SpectralGrid(2, np.pi, 64)
    p = params_for(0.5, lam=1.0, mu=0.5, kernel=davey_stewartson())
    u0 = oscillatory_initial_data(grid, [(1, 0), (1, 1), (0, 1)],
                                  [gaussian(grid, a) for a in (0.9, 0.7, 0.8)], p)
    fwd = evolve_semiclassical(u0, 0.3, dt=0.01)
    back = evolve_semiclassical(fwd, 0.0, dt=0.01)
    assert back.time == 0.0
    assert np.max(np.abs(back.values.values - u0.values.values)) < 1e-12


def test_mass_conserved_to_rounding():
    grid = SpectralGrid(2, np.pi, 64)
    p = params_for(0.25, lam=1.0, mu=-0.5, kernel=davey_stewartson())
    u0 = oscillatory_initial_data(grid, [(1, 0), (1, 1), (0, 1)],
                                  [gaussian(grid, a) for a in (0.9, 0.7, 0.8)], p)
    out = evolve_semiclassical(u0, 0.5, dt=0.005)
    assert abs(out.mass() - u0.mass()) < 1e-12 * u0.mass()


def test_free_flow_is_exact():
    # lam = mu = 0 reduces the scheme to the exact Fourier propagator
    grid = SpectralGrid(2, np.pi, 64)
    p = params_for(0.5, lam=0.0, mu=0.0)
    u0 = oscillatory_initial_data(grid, [(1, 0)], [gaussian(grid)], p)
    t = 0.4
    out = evolve_semiclassical(u0, t, dt=0.1)

    xi1, xi2 = grid.frequency_mesh()
    symbol = np.exp(-0.5j * p.eps * t * (xi1 ** 2 + xi2 ** 2))
    expect = grid.inverse(symbol * grid.forward(u0.values.values))
    assert np.max(np.abs(out.values.values - expect)) < 1e-12


def test_null_mode_is_stationary_in_hyperbolic_signature():
    # Q(1, 1) = 0 under '-+' and the zero-average kernel kills the constant
    # density, so the plane wave does not move at all
    grid = SpectralGrid(2, np.pi, 32)
    p = ModelParams(0.5, 1.0, 1.0, 0.0, 1, HYPERBOLIC, davey_stewartson())
    u0 = oscillatory_initial_data(grid, [(1, 1)], [0.9], p)
    out = evolve_semiclassical(u0, 0.6, dt=0.02)
    assert np.max(np.abs(out.values.values - u0.values.values)) < 1e-13


def test_galilei_boost_covariance():
    # boosting by a lattice-admissible velocity commutes with the flow; a
    # band-limited envelope keeps the boosted spectrum clear of the Nyquist
    # edge, where a wrapped tail would break the exact symmetry
    grid = SpectralGrid(2, np.pi, 64)
    eps = 0.5
    p = params_for(eps, lam=0.0, mu=1.0)
    v = (1.0, 0.0)  # v / eps = (2, 0) sits on the frequency lattice
    t = 0.2
    dt = 0.002

    mx, my = grid.mesh()
    alpha = GridFunction(grid, 0.9 + 0.3 * np.cos(mx) + 0.2 * np.sin(2 * my)
                         + 0j * mx)
    u0 = oscillatory_initial_data(grid, [(1, 0)], [alpha], p)
    x1, _ = grid.mesh()
    boost0 = np.exp(1j * (v[0] * x1) / eps)
    ub0 = SemiclassicalField(GridFunction(grid, u0.values.values * boost0), 0.0, p)

    u_t = evolve_semiclassical(u0, t, dt)
    ub_t = evolve_semiclassical(ub0, t, dt)

    shifted = shift_in_fourier(u_t.values, v, t)
    phase = np.exp(1j * (v[0] * x1 - 0.5 * (v[0] ** 2) * t) / eps)
    expect = shifted.values * phase
    err = np.max(np.abs(ub_t.values.values - expect))
    assert err < 1e-11


def test_strang_is_second_order():
    grid = SpectralGrid(2, np.pi, 64)
    p = params_for(0.5, lam=0.0, mu=1.0)
    u0 = oscillatory_initial_data(grid, [(1, 0)], [gaussian(grid, 0.9)], p)
    t = 0.25
    ref = evolve_semiclassical(u0, t, dt=t / 512).values.values
    errs = [np.max(np.abs(evolve_semiclassical(u0, t, dt=t / n).values.values - ref))
            for n in (16, 32, 64)]
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_evolve_validates_dt():
    grid = SpectralGrid(2, np.pi, 16)
    p = params_for(0.5)
    u0 = oscillatory_initial_data(grid, [(0, 0)], [1.0], p)
    with pytest.raises(ValueError):
        evolve_semiclassical(u0, 0.5, dt=0.0)
    assert evolve_semiclassical(u0, 0.0, dt=0.1) is u0


class TestAssembly:
    def seed_profiles(self, grid, eps, weight=1.0):
        ps = close_phase_set(((1, 0), (1, 1), (0, 1)), ELLIPTIC, 1, box_radius=4)
        tp = TransportParams(1.0, 0.0, 1, davey_stewartson(), weight=weight)
        seeds = [gaussian(grid, a) for a in (0.9, 0.7, 0.8)]
        return ProfileSet.from_seed(ps, grid, seeds, tp)

    def test_matches_initial_data_at_time_zero(self):
        grid = SpectralGrid(2, np.pi, 64)
        p = params_for(0.25, lam=1.0, kernel=davey_stewartson())
        profiles = self.seed_profiles(grid, p.eps)
        direct = oscillatory_initial_data(
            grid, profiles.phase_set, list(profiles.amplitudes)[:3], p)
        assembled = assemble_approximation(profiles, p)
        assert np.max(np.abs(assembled.values.values - direct.values.values)) \
            < 1e-13

    def test_plane_wave_free_flow_recovered_exactly(self):
        # constant amplitude, no coupling: the assembled single-mode ansatz
        # coincides with the true evolution for all times
        grid = SpectralGrid(2, np.pi, 32)
        p = params_for(0.5, lam=0.0, mu=0.0)
        ps = close_phase_set(((1, 1),), ELLIPTIC, 1, box_radius=1)
        tp = TransportParams(0.0, 0.0, 1, zero(2))
        profiles = ProfileSet.from_seed(
            ps, grid, [GridFunction.constant(grid, 0.7)], tp)
        t = 0.5
        from wnlgo import evolve_profiles
        moved = evolve_profiles(profiles, t, dt=0.05)
        u0 = oscillatory_initial_data(grid, ps, [0.7], p)
        u_t = evolve_semiclassical(u0, t, dt=0.05)
        u_app = assemble_approximation(moved, p)
        l2, sup, wiener = approximation_error(u_t, u_app)
        assert sup < 1e-11
        assert l2 < 1e-11
        assert wiener < 1e-11

    def test_resampling_onto_finer_grid(self):
        # band-limited amplitudes upsample exactly, so assembling on a finer
        # grid must reproduce the directly seeded data there
        coarse = SpectralGrid(2, np.pi, 32)
        fine = SpectralGrid(2, np.pi, 64)
        p = params_for(0.5, lam=1.0, kernel=davey_stewartson())
        ps = close_phase_set(((1, 0), (1, 1), (0, 1)), ELLIPTIC, 1, box_radius=4)
        tp = TransportParams(1.0, 0.0, 1, davey_stewartson())

        def trig(grid):
            mx, my = grid.mesh()
            return [GridFunction(grid, 0.9 + 0.2 * np.cos(mx) + 0j * mx),
                    GridFunction(grid, 0.7 + 0.1 * np.sin(my) + 0j * mx),
                    GridFunction(grid, 0.8 + 0.15 * np.cos(mx + my) + 0j * mx)]

        profiles = ProfileSet.from_seed(ps, coarse, trig(coarse), tp)
        on_fine = assemble_approximation(profiles, p, grid=fine)
        direct = oscillatory_initial_data(fine, ps, trig(fine), p)
        assert np.max(np.abs(on_fine.values.values - direct.values.values)) < 1e-13

    def test_box_mismatch_rejected(self):
        grid = SpectralGrid(2, np.pi, 32)
        other = SpectralGrid(2, 2 * np.pi, 32)
        p = params_for(0.5, lam=1.0, kernel=davey_stewartson())
        profiles = self.seed_profiles(grid, p.eps)
        with pytest.raises(ValueError, match="box"):
            assemble_approximation(profiles, p, grid=other)

    def test_error_requires_matching_fields(self):
        grid = SpectralGrid(2, np.pi, 16)
        other = SpectralGrid(2, np.pi, 32)
        p = params_for(0.5)
        a = oscillatory_initial_data(grid, [(0, 0)], [1.0], p)
        b = oscillatory_initial_data(other, [(0, 0)], [1.0], p)
        with pytest.raises(ValueError, match="grids"):
            approximation_error(a, b)
        c = evolve_semiclassical(a, 0.1, dt=0.1)
        with pytest.raises(ValueError, match="times"):
            approximation_error(a, c)


def test_initial_data_validates_counts():
    grid = SpectralGrid(2, np.pi, 32)
    p = params_for(0.5)
    with pytest.raises(ValueError, match="amplitudes"):
        oscillatory_initial_data(grid, [(1, 0), (0, 1)], [1.0], p)


def test_initial_data_resamples_amplitudes_on_the_box():
    # an amplitude of another resolution is resampled spectrally, as the
    # assembly resamples profiles; one on another box is refused by name
    grid = SpectralGrid(2, np.pi, 32)
    p = params_for(0.5)
    coarse = SpectralGrid(2, np.pi, 16)
    mx, my = coarse.mesh()
    alpha = GridFunction(coarse, 0.9 + 0.2 * np.cos(mx) + 0.1j * np.sin(my))
    got = oscillatory_initial_data(grid, [(1, 0)], [alpha], p)
    mx, my = grid.mesh()
    direct = GridFunction(grid, 0.9 + 0.2 * np.cos(mx) + 0.1j * np.sin(my))
    expect = oscillatory_initial_data(grid, [(1, 0)], [direct], p)
    assert np.max(np.abs(got.values.values - expect.values.values)) < 1e-14
    other = GridFunction.constant(SpectralGrid(2, 2 * np.pi, 32), 0.9)
    with pytest.raises(ValueError, match="do not share a box") as exc:
        oscillatory_initial_data(grid, [(1, 0)], [other], p)
    assert str(other.grid) in str(exc.value) and str(grid) in str(exc.value)


def reference_resample(f, n):
    """grid.resample as it was before the shared synthesis: forward, centre,
    pad or crop, and inverse on the new grid."""
    old = f.grid
    new = SpectralGrid(old.dim, old.half_length, n)
    coeffs = np.fft.fftshift(old.forward(f.values))
    if n >= old.points_per_axis:
        pad = (n - old.points_per_axis) // 2
        coeffs = np.pad(coeffs, [(pad, pad)] * old.dim)
    else:
        crop = (old.points_per_axis - n) // 2
        coeffs = coeffs[(slice(crop, crop + n),) * old.dim]
    return new.inverse(np.fft.ifftshift(coeffs))


def reference_multiphase(grid, kappas, amplitudes, weights, eps):
    """sum_j w_j a_j(x) exp(i kappa_j . x / eps) as the physical-space loop
    it replaced: each amplitude resampled, times a carrier from 1-D
    exponentials, times its weight."""
    total = np.zeros(grid.shape, dtype=np.complex128)
    for kappa, a, w in zip(kappas, amplitudes, weights):
        carrier = grid.separable(
            [np.exp((1j * c / eps) * grid.axis()) for c in kappa], np.multiply)
        total += reference_resample(a, grid.points_per_axis) * carrier * w
    return total


def reference_superpose(grid, terms):
    """grid._superpose as it placed each band by fancy indexing: a crop
    np.ix_(q % n) of the raw DFT and a scatter to np.ix_((q + m) % N)."""
    N = grid.points_per_axis
    total = np.zeros(grid.shape, dtype=np.complex128)
    for f, m, w in terms:
        n = f.grid.points_per_axis
        q = np.fft.fftfreq(n, 1.0 / n).astype(int)
        q = q[(q >= -N // 2) & (q < N // 2)]
        coeffs = scipy.fft.fftn(f.values, workers=1)[np.ix_(*[q % n] * grid.dim)]
        coeffs *= w * (N / n) ** grid.dim * (-1.0) ** sum(m)
        total[np.ix_(*[(q + k) % N for k in m])] += coeffs
    return scipy.fft.ifftn(total, overwrite_x=True, workers=1)


SYNTHESIS_CASES = {
    # name: (d, target n, profile n, kappas, eps); random profiles carry
    # content at their own Nyquist frequency, and on profile grids as fine
    # as the target the shifted band wraps past N/2
    "1d-coarser": (1, 64, 32, [(2,), (-1,)], 0.5),
    "1d-finer": (1, 64, 128, [(2,), (-1,)], 0.5),
    "2d-coarser": (2, 32, 16, [(1, 0), (0, 1), (1, 1)], 0.5),
    "2d-same": (2, 32, 32, [(1, 1), (-1, 0)], 0.5),
    "2d-finer": (2, 32, 64, [(1, 1), (0, -1)], 0.5),
    "3d-coarser": (3, 16, 8, [(1, 0, 0), (0, 1, 1)], 1.0),
    "3d-finer": (3, 16, 32, [(1, 0, 0), (0, -1, 1)], 1.0),
}


def random_profiles(d, n, count, seed=3):
    grid = SpectralGrid(d, np.pi, n)
    rng = np.random.default_rng(seed)
    return [GridFunction(grid, rng.standard_normal(grid.shape)
                         + 1j * rng.standard_normal(grid.shape))
            for _ in range(count)]


class TestSynthesis:
    """resample, u0 and u_app against the product loop they replaced."""

    @pytest.mark.parametrize("name", sorted(SYNTHESIS_CASES))
    def test_resample_matches_reference(self, name):
        d, target, n, _, _ = SYNTHESIS_CASES[name]
        f, = random_profiles(d, n, 1)
        got = resample(f, target).values
        expect = reference_resample(f, target)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("name", sorted(SYNTHESIS_CASES))
    def test_superpose_matches_the_indexed_placement(self, name):
        d, target, n, kappas, eps = SYNTHESIS_CASES[name]
        grid = SpectralGrid(d, np.pi, target)
        dxi = eps * grid.spectral_spacing
        shifts = [[round(c / dxi) for c in kappa] for kappa in kappas]
        # past the band's edge on the first axis, and more than a period
        # back on the others
        shifts.append([target // 2 + 1] + [-target - 3] * (d - 1))
        terms = [(f, m, (1, 0.3 - 0.7j, 2.5)[j % 3]) for j, (f, m) in
                 enumerate(zip(random_profiles(d, n, len(shifts)), shifts))]
        assert np.array_equal(_superpose(grid, terms),
                              reference_superpose(grid, terms))

    @pytest.mark.parametrize("name", sorted(SYNTHESIS_CASES))
    def test_initial_data_matches_reference(self, name):
        d, target, n, kappas, eps = SYNTHESIS_CASES[name]
        grid = SpectralGrid(d, np.pi, target)
        p = ModelParams(eps, 1.0, 0.0, 1.0, 1, Signature.elliptic(d), zero(d))
        alphas = random_profiles(d, n, len(kappas))
        got = oscillatory_initial_data(grid, kappas, alphas, p).values.values
        expect = reference_multiphase(grid, kappas, alphas, [1] * len(kappas),
                                      eps)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("name", sorted(SYNTHESIS_CASES))
    def test_assembly_matches_reference(self, name):
        d, target, n, kappas, eps = SYNTHESIS_CASES[name]
        grid = SpectralGrid(d, np.pi, target)
        signature = Signature.from_string("-" + "+" * (d - 1))
        ps = close_phase_set(kappas, signature, 1,
                             box_radius=max(abs(c) for k in kappas for c in k))
        profile_grid = SpectralGrid(d, np.pi, n)
        profiles = ProfileSet(ps, profile_grid,
                              tuple(random_profiles(d, n, len(ps))), 0.3,
                              TransportParams(1.0, 0.0, 1, zero(d)))
        p = ModelParams(eps, 1.0, 0.0, 1.0, 1, signature, zero(d))
        got = assemble_approximation(profiles, p, grid).values.values
        rotations = [np.exp(-0.15j * signature.quad(k) / eps) for k in ps.vectors]
        expect = reference_multiphase(grid, ps.vectors, profiles.amplitudes,
                                      rotations, eps)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("profile_n", [8, 32, 64, 128])
    def test_uniform_assembly_is_initial_data_at_time_zero(self, profile_n):
        # a constant has one Fourier coefficient, scaled by a power of two,
        # so u_app(0) and u0 are the same sum bit for bit on every grid
        grid = SpectralGrid(2, np.pi, 32)
        p = params_for(0.5, lam=1.0, kernel=davey_stewartson())
        ps = close_phase_set(((1, 0), (1, 1), (0, 1)), ELLIPTIC, 1,
                             box_radius=4)
        amps = (0.4, 0.32 - 0.1j, 0.36)
        profile_grid = SpectralGrid(2, np.pi, profile_n)
        profiles = ProfileSet.from_seed(
            ps, profile_grid, [GridFunction.constant(profile_grid, a)
                               for a in amps],
            TransportParams(1.0, 0.0, 1, davey_stewartson()))
        u_app = assemble_approximation(profiles, p, grid)
        u0 = oscillatory_initial_data(grid, ps, amps, p)
        assert np.array_equal(u_app.values.values, u0.values.values)


def reference_evolve(field, t_end, dt):
    """The complex-FFT step loop evolve_semiclassical replaced, as its oracle:
    complex fftn for the free flow, np.exp for the rotation, E on the
    density through the complex transforms (reference_apply)."""
    span = t_end - field.time
    n_steps = max(1, round(abs(span) / dt))
    dt = span / n_steps
    p = field.params
    grid = field.grid
    q = sum(eta * xi ** 2 for eta, xi in zip(p.signature.etas,
                                             grid.frequency_mesh()))
    half = np.exp(-0.5j * p.eps * (0.5 * dt) * q)
    full = half * half
    scale = p.eps ** (p.j_exponent - 1.0)
    u = field.values.values.copy()
    u = scipy.fft.ifftn(half * scipy.fft.fftn(u))
    for step in range(n_steps):
        density = np.abs(u) ** (2 * p.nu)
        potential = p.mu * density
        if p.lam != 0.0:
            potential = potential + p.lam * reference_apply(
                p.kernel, GridFunction(grid, density)).values.real
        u *= np.exp((-1j * dt * scale) * potential)
        factor = full if step < n_steps - 1 else half
        u = scipy.fft.ifftn(factor * scipy.fft.fftn(u))
    return u


def three_wave_field(p, grid=None):
    grid = grid or SpectralGrid(2, np.pi, 64)
    return oscillatory_initial_data(grid, [(1, 0), (1, 1), (0, 1)],
                                    [gaussian(grid, a) for a in (0.9, 0.7, 0.8)], p)


STEP_CASES = {
    # name: (lam, mu, nu, kernel, signature, t_end[, eps, n, dt]); the
    # default is eps = 0.25 on 64^2 with dt = 0.002, 50 steps
    "ds-nu1": (1.0, 0.5, 1, davey_stewartson(), ELLIPTIC, 0.1),
    "local-nu2": (0.0, -1.0, 2, zero(2), ELLIPTIC, 0.1),
    "lam0-ds": (0.0, 1.0, 1, davey_stewartson(), HYPERBOLIC, 0.1),
    "zero-kernel": (1.0, 0.5, 1, zero(2), ELLIPTIC, 0.1),
    "backward-ds": (1.0, -0.5, 1, davey_stewartson(), HYPERBOLIC, -0.1),
    "identity-nu2": (0.7, 0.3, 2, identity(2), ELLIPTIC, 0.1),
    # first-step rotations |theta| beyond pi (asserted in the test); the
    # focusing local case runs 3 steps, because its instability amplifies
    # rounding differences over longer runs
    "local-wide-angle": (0.0, -60.0, 1, zero(2), ELLIPTIC, 0.06, 0.25, 64, 0.02),
    "defocusing-wide-angle": (0.0, 60.0, 1, zero(2), ELLIPTIC, 1.0, 0.25, 64, 0.02),
    "ds-wide-angle": (50.0, 0.0, 1, davey_stewartson(), ELLIPTIC, 2.5, 0.25, 64, 0.05),
    "backward-ds-wide-angle": (50.0, 0.0, 1, davey_stewartson(), HYPERBOLIC,
                               -2.5, 0.25, 64, 0.05),
    # 16^2 grids, as the period cells of uniform data
    "local-16": (0.0, -1.0, 2, zero(2), ELLIPTIC, 0.1, 1.0, 16, 0.002),
    "local-16-wide-angle": (0.0, 60.0, 1, zero(2), ELLIPTIC, 0.1, 1.0, 16, 0.02),
}


def largest_rotation(u0, dt):
    """max |theta| of the first step's rotation, as reference_evolve forms it."""
    p = u0.params
    density = np.abs(u0.values.values) ** (2 * p.nu)
    potential = p.mu * density
    if p.lam != 0.0:
        potential = potential + p.lam * reference_apply(
            p.kernel, GridFunction(u0.grid, density)).values.real
    return np.max(np.abs(dt * p.eps ** (p.j_exponent - 1.0) * potential))


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_step_matches_reference_loop(name):
    lam, mu, nu, kernel, signature, t_end, *setup = STEP_CASES[name]
    eps, n, dt = setup or (0.25, 64, 0.002)
    p = ModelParams(eps, 1.5, lam, mu, nu, signature, kernel)
    u0 = three_wave_field(p, SpectralGrid(2, np.pi, n))
    if "wide-angle" in name:
        assert largest_rotation(u0, dt) > np.pi
    out = evolve_semiclassical(u0, t_end, dt=dt)
    ref = reference_evolve(u0, t_end, dt=dt)
    assert np.linalg.norm(out.values.values - ref) <= 1e-12 * np.linalg.norm(ref)


STACK_KERNELS = {
    # name: (dim, kernel, lam, mu); dipolar on 8^3 cells, the others on 16^2
    "zero": (2, zero(2), 1.0, 0.5),
    "local-ds": (2, davey_stewartson(), 0.0, 0.5),
    "ds": (2, davey_stewartson(), 1.0, 0.5),
    "dipolar": (3, dipolar((3.0 / 7.0, 6.0 / 7.0, 2.0 / 7.0)), 0.7, 0.3),
    # even and degree zero, but its samples at pi k / L round with L
    "custom": (2, custom(2, lambda p: p[:, 0] * p[:, 1]
                         / (p[:, 0] ** 2 + p[:, 1] ** 2)), 1.0, 0.5),
}


def cell_fields(dim, kernel, lam, mu, nu, j, signs, eps_list=(0.5, 0.3, 0.125)):
    """One random field per eps, on cells of one shape whose spacings
    differ with eps, as the sweeps' period cells do, all at time 0.2."""
    n = 8 if dim == 3 else 16
    signature = Signature.from_string(signs + "+" * (dim - 2))
    rng = np.random.default_rng(41)
    fields = []
    for eps in eps_list:
        grid = SpectralGrid(dim, np.pi * eps, n)
        values = rng.standard_normal((2,) + grid.shape) * 0.5
        fields.append(SemiclassicalField(
            GridFunction(grid, values[0] + 1j * values[1]), 0.2,
            ModelParams(eps, j, lam, mu, nu, signature, kernel)))
    return fields


class TestEvolveFields:
    """The stacked evolution against each field evolved alone."""

    @pytest.mark.parametrize("t_end", [0.3, 0.1], ids=["forward", "backward"])
    @pytest.mark.parametrize("signs", ["++", "-+"])
    @pytest.mark.parametrize("j", [1.0, 1.5])
    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("name", sorted(STACK_KERNELS))
    def test_matches_one_at_a_time(self, name, nu, j, signs, t_end):
        fields = cell_fields(*STACK_KERNELS[name], nu, j, signs)
        got = evolve_fields(fields, t_end, 0.004)
        expected = evolve_one_at_a_time(fields, t_end, 0.004)
        for field, out, ref in zip(fields, got, expected):
            assert np.array_equal(out.values.values, ref)
            assert out.grid == field.grid and out.params == field.params
            assert out.time == t_end

    @pytest.mark.parametrize("eps_list", [(0.5, 0.125), (0.3,)],
                             ids=["two-eps", "one-eps"])
    @pytest.mark.parametrize("t_end", [0.204, 0.3], ids=["one-step", "25-steps"])
    @pytest.mark.parametrize("name", sorted(STACK_KERNELS))
    def test_same_bits_as_one_at_a_time(self, name, t_end, eps_list):
        # the half phase is built for the first flow and again for the
        # last, and with one step no full phase comes between them; zeros
        # keep their signs too
        fields = cell_fields(*STACK_KERNELS[name], 1, 1.5, "-+", eps_list)
        assert _steps(t_end - 0.2, 0.004)[0] == (1 if t_end < 0.25 else 25)
        got = evolve_fields(fields, t_end, 0.004)
        for out, ref in zip(got, evolve_one_at_a_time(fields, t_end, 0.004),
                            strict=True):
            assert_same_bits(out.values.values, ref)

    def test_peak_memory_of_a_cold_call(self):
        # converge-ds's eps = 1/16 field (256^2), E's tables built in the
        # call: the stack, the full phase, the rotation's density, square
        # and tangent, and E's half spectrum and result make 5 fields; a half
        # phase held beside the full one, a second copy of the stack or a
        # mesh for the table goes over 6
        cfg = load_config(os.path.join(CONFIGS, "converge_ds_elliptic.json"))
        grid = cfg.grid_for(0.0625)
        assert grid.shape == (256, 256)
        u0 = oscillatory_initial_data(grid, cfg.phase_set(),
                                      cfg.seed_amplitudes(grid),
                                      cfg.model_for(0.0625))
        kernels._half_multiplier.cache_clear()
        tracemalloc.start()
        try:
            evolve_fields([u0], 0.02, cfg.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * u0.values.values.nbytes

    def test_single_field_is_evolve_semiclassical(self):
        field = cell_fields(*STACK_KERNELS["ds"], 1, 1.5, "-+")[1]
        out = evolve_semiclassical(field, 0.3, 0.004)
        assert np.array_equal(out.values.values,
                              evolve_fields([field], 0.3, 0.004)[0].values.values)

    def test_empty_and_zero_span(self):
        fields = cell_fields(*STACK_KERNELS["zero"], 1, 1.0, "++")
        assert evolve_fields([], 0.5, 0.01) == []
        assert all(a is b for a, b in zip(evolve_fields(fields, 0.2, 0.01),
                                          fields))

    @pytest.mark.parametrize("change", ["shape", "time", "model"])
    def test_rejects_fields_that_cannot_share_a_stack(self, change):
        fields = cell_fields(*STACK_KERNELS["ds"], 1, 1.0, "++")
        last = fields[-1]
        if change == "shape":
            grid = SpectralGrid(2, last.grid.half_length, 32)
            last = SemiclassicalField(GridFunction.zeros(grid), 0.2, last.params)
        elif change == "time":
            last = SemiclassicalField(last.values, 0.25, last.params)
        else:
            last = SemiclassicalField(last.values, 0.2,
                                      params_for(last.params.eps, lam=1.0,
                                                 mu=0.25, kernel=davey_stewartson()))
        with pytest.raises(ValueError, match="one grid shape"):
            evolve_fields(fields[:-1] + [last], 0.3, 0.01)


def exact_phase(argument):
    """exp(i argument) from an n-d argument, in extended precision, with the
    argument's own rounding as the bound to allow."""
    arg = sum(argument)
    allow = np.finfo(np.longdouble).eps * float(np.max(np.abs(arg)))
    return np.exp(1j * arg), allow


PHASE_GRIDS = [SpectralGrid(2, np.pi, 64), SpectralGrid(3, np.pi, 16)]


class TestPhasesFromOneDimensionalExponentials:
    """Each separable phase against exp of the n-d exponent."""

    @pytest.mark.parametrize("grid", PHASE_GRIDS, ids=["64^2", "16^3"])
    @pytest.mark.parametrize("scale", [1.25e-4, 0.01])
    def test_free_flow(self, grid, scale):
        signature = Signature.from_string("-+" + "+" * (grid.dim - 2))
        xi = [x.astype(np.longdouble) for x in grid.frequency_mesh()]
        expect, allow = exact_phase(-np.longdouble(scale) * eta * x * x
                                    for eta, x in zip(signature.etas, xi))
        got = _free_phase(grid, signature, scale)
        assert np.max(np.abs(got - expect)) <= 1e-15 + allow

    @pytest.mark.parametrize("grid", PHASE_GRIDS, ids=["64^2", "16^3"])
    @pytest.mark.parametrize("dt", [0.005, 0.05])
    def test_advection(self, grid, dt):
        d = grid.dim
        signature = Signature.from_string("-+" + "+" * (d - 2))
        seeds = [(1,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2),
                 (0, 1) + (0,) * (d - 2)]
        ps = close_phase_set(seeds, signature, 1, box_radius=2)
        state = ProfileSet.from_seed(
            ps, grid, [GridFunction.zeros(grid)] * ps.origin_count,
            TransportParams(1.0, 0.0, 1, zero(d)))
        got = _advection_phases(state, dt)
        xi = [x.astype(np.longdouble) for x in grid.frequency_mesh()]
        for j, kappa in enumerate(ps.vectors):
            expect, allow = exact_phase(-np.longdouble(dt) * eta * k * x
                                        for eta, k, x in
                                        zip(signature.etas, kappa, xi))
            assert np.max(np.abs(got[j] - expect)) <= 1e-15 + allow

    @pytest.mark.parametrize("grid", PHASE_GRIDS, ids=["64^2", "16^3"])
    def test_advection_is_each_modes_separable_product(self, grid):
        # the phases of all modes at once, bit for bit the product that
        # grid.separable forms for each mode alone
        d = grid.dim
        seeds = [(1,) + (0,) * (d - 1), (1, 1) + (0,) * (d - 2),
                 (0, 1) + (0,) * (d - 2)]
        ps = close_phase_set(seeds, Signature.from_string("-+" + "+" * (d - 2)),
                             1, box_radius=2)
        state = ProfileSet.from_seed(
            ps, grid, [GridFunction.zeros(grid)] * ps.origin_count,
            TransportParams(1.0, 0.0, 1, zero(d)))
        for dt in (0.005, -0.0125, 0.0, 1.0 / 3.0):
            assert_same_bits(_advection_phases(state, dt),
                             advection_phases_per_mode(state, dt))


class TestTransformCount:
    """The hot loops' work as a deterministic count of scipy.fft calls."""

    def shapes(self, monkeypatch, run):
        """The input shape of each scipy.fft transform that run() makes."""
        shapes = {name: [] for name in ("fftn", "ifftn", "rfftn", "irfftn")}
        for name in shapes:
            original = getattr(scipy.fft, name)

            def counted(x, *args, _name=name, _original=original, **kwargs):
                shapes[_name].append(np.shape(x))
                return _original(x, *args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        run()
        return shapes

    def count(self, monkeypatch, field, t_end, dt):
        shapes = self.shapes(
            monkeypatch, lambda: evolve_semiclassical(field, t_end, dt))
        return {name: len(calls) for name, calls in shapes.items()}

    def test_ds_run(self, monkeypatch):
        u0 = three_wave_field(params_for(0.25, lam=1.0, mu=0.5,
                                         kernel=davey_stewartson()))
        n = 7
        assert self.count(monkeypatch, u0, n * 0.01, 0.01) == {
            "fftn": n + 1, "ifftn": n + 1, "rfftn": n, "irfftn": n}

    @pytest.mark.parametrize("lam, kernel", [(0.0, davey_stewartson()),
                                             (1.0, zero(2))])
    def test_local_run_has_no_real_transforms(self, monkeypatch, lam, kernel):
        u0 = three_wave_field(params_for(0.25, lam=lam, mu=0.5, kernel=kernel))
        n = 5
        assert self.count(monkeypatch, u0, n * 0.01, 0.01) == {
            "fftn": n + 1, "ifftn": n + 1, "rfftn": 0, "irfftn": 0}

    def test_profile_run_transforms_the_stack_once_per_step(self, monkeypatch):
        # the interaction's E runs on real transforms of the grid; the
        # advection is one complex transform pair of the whole stack
        grid = SpectralGrid(2, np.pi, 32)
        ps = close_phase_set([(1, 0), (1, 1), (0, 1)], HYPERBOLIC, 1,
                             box_radius=2)
        state = ProfileSet.from_seed(
            ps, grid, [gaussian(grid, a) for a in (0.4, 0.32, 0.36)],
            TransportParams(1.0, 0.5, 1, davey_stewartson()))
        n = 5
        shapes = self.shapes(monkeypatch,
                             lambda: evolve_profiles(state, n * 0.01, 0.01))
        stack = (len(ps),) + grid.shape
        assert shapes["fftn"] == [stack] * (n + 1)
        assert shapes["ifftn"] == [stack] * (n + 1)
        assert shapes["rfftn"] == [grid.shape] * (4 * n)

    def test_uniform_sweep_transforms_its_cells_as_one_stack(self, monkeypatch):
        # inflate-local's sweep: its three eps run on 16^2 period cells, so
        # each step is one complex transform pair of the (3, 16, 16) stack
        cfg = parse_config({
            "experiment": "inflate",
            "model": {"lam": 0.0, "mu": 1.0, "nu": 1, "signature": "++",
                      "kernel": "zero"},
            "grid": {"dim": 2, "box_pi_multiple": 1.0, "points_scale": 16},
            "phases": {"phi0": [[1, 0], [1, 1], [0, 1]], "box_radius": 4},
            "data": {"profile": "uniform", "amplitudes": [0.7, 0.7, 0.7]},
            "eps_list": [0.25, 0.125, 0.0625], "T": 5.0, "dt": 0.005,
            "s": -0.6, "sigma": -1.0})
        result = []
        shapes = self.shapes(monkeypatch,
                             lambda: result.append(run_inflation(cfg)))
        n = _steps(result[0].metadata["tau"], cfg.dt)[0]
        stack = (3, 16, 16)
        assert [s for s in shapes["fftn"] if s == stack] == [stack] * (n + 1)
        assert [s for s in shapes["ifftn"] if s == stack] == [stack] * (n + 1)
        assert all(len(s) == 2 for s in shapes["fftn"] if s != stack)

    def test_ds_run_takes_one_tangent_per_step(self, monkeypatch):
        # numpy's float64 cos and sin are much slower than its tan here, and
        # every phase is a product of 1-D exponentials
        u0 = three_wave_field(params_for(0.25, lam=1.0, mu=0.5,
                                         kernel=davey_stewartson()))
        calls = dict.fromkeys(("tan", "cos", "sin", "exp"), 0)
        exp_dims = []
        for name in calls:
            original = getattr(np, name)

            def counted(x, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                if _name == "exp":
                    exp_dims.append(np.ndim(x))
                return _original(x, *args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        n = 7
        evolve_semiclassical(u0, n * 0.01, 0.01)
        assert (calls["tan"], calls["cos"], calls["sin"]) == (n, 0, 0)
        assert calls["exp"] > 0 and max(exp_dims) <= 1
