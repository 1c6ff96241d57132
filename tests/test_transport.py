import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from wnlgo import GridFunction, ProfileSet, Signature, SpectralGrid, \
    TransportParams, close_phase_set, custom, davey_stewartson, dipolar, \
    evolve_profiles, identity, is_resonant, profile_norms, shift_in_fourier, \
    transport_rhs, zero, zero_mode_rate
from wnlgo.kernels import apply_raw
from wnlgo.transport import _constant_interaction, _interaction, \
    _pair_coefficients, _plan, _rhs_stack, _rk4, _strang, \
    constant_profile_history, plan_facts
from wnlgo.kernels import apply as apply_kernel, evaluate as evaluate_kernel

ELLIPTIC = Signature.elliptic(2)
HYPERBOLIC = Signature.from_string("-+")
RECT = ((1, 0), (1, 1), (0, 1))


def gaussian(grid, amp, width=0.8, center=(0.0, 0.0)):
    mesh = grid.mesh()
    r2 = sum((c - c0) ** 2 for c, c0 in zip(mesh, center))
    return GridFunction(grid, amp * np.exp(-r2 / (2.0 * width ** 2)))


def rect_state(grid, params, signature=ELLIPTIC, amps=(0.9, 0.7, 0.8)):
    ps = close_phase_set(RECT, signature, params.nu, box_radius=4)
    seeds = [gaussian(grid, a) for a in amps]
    return ProfileSet.from_seed(ps, grid, seeds, params)


def test_params_reject_bad_nu():
    with pytest.raises(ValueError):
        TransportParams(lam=1.0, mu=0.0, nu=0, kernel=identity(2))


def test_profile_set_validation():
    grid = SpectralGrid(2, np.pi, 16)
    other = SpectralGrid(2, np.pi, 32)
    params = TransportParams(1.0, 0.0, 1, davey_stewartson())
    ps = close_phase_set(RECT, ELLIPTIC, 1, box_radius=4)
    with pytest.raises(ValueError, match="amplitudes"):
        ProfileSet(ps, grid, (GridFunction.zeros(grid),), 0.0, params)
    with pytest.raises(ValueError, match="seed"):
        ProfileSet.from_seed(ps, grid, [GridFunction.zeros(grid)], params)
    mixed = [GridFunction.zeros(grid), GridFunction.zeros(other),
             GridFunction.zeros(grid)]
    with pytest.raises(ValueError, match="grids"):
        ProfileSet.from_seed(ps, grid, mixed, params)


def test_single_mode_closed_form():
    # one mode: the interaction reduces to a pointwise phase rotation riding
    # the advected envelope, exactly solvable for any multiplier
    grid = SpectralGrid(2, 2 * np.pi, 64)
    params = TransportParams(lam=0.7, mu=0.3, nu=1,
                             kernel=davey_stewartson(), weight=1.0)
    ps = close_phase_set(((1, 1),), ELLIPTIC, 1, box_radius=1)
    alpha = gaussian(grid, 1.0, width=1.1)
    state = ProfileSet.from_seed(ps, grid, [alpha], params)

    t = 0.4
    out = evolve_profiles(state, t, dt=0.004)

    intensity = GridFunction(grid, np.abs(alpha.values) ** 2)
    phase = params.lam * apply_kernel(params.kernel, intensity).values \
        + params.mu * intensity.values
    exact0 = alpha.values * np.exp(-1j * params.weight * t * phase)
    # then advect the exact profile at the group velocity (1, 1)
    exact = shift_in_fourier(GridFunction(grid, exact0), (1.0, 1.0), t)
    err = np.max(np.abs(out.amplitudes[0].values - exact.values))
    assert err < 2e-6


def test_free_streaming_matches_fourier_shift():
    grid = SpectralGrid(2, np.pi, 32)
    params = TransportParams(lam=0.0, mu=0.0, nu=1, kernel=identity(2))
    state = rect_state(grid, params, signature=HYPERBOLIC)
    t = 0.37
    out = evolve_profiles(state, t, dt=0.037)
    etas = HYPERBOLIC.etas
    for j, kappa in enumerate(state.phase_set.vectors):
        v = tuple(e * k for e, k in zip(etas, kappa))
        expect = shift_in_fourier(state.amplitudes[j], v, t)
        err = np.max(np.abs(out.amplitudes[j].values - expect.values))
        assert err < 1e-12


def test_mass_conserved():
    # RK4 on the coupling is not exactly unitary; the drift is O(dt^4) and
    # far below the 1e-8 working tolerance at practical step sizes
    grid = SpectralGrid(2, np.pi, 32)
    params = TransportParams(1.0, 0.5, 1, davey_stewartson(), weight=1.0)
    state = rect_state(grid, params)
    mass0 = state.total_mass()
    drift = [abs(evolve_profiles(state, 0.5, dt=dt).total_mass() - mass0)
             for dt in (0.01, 0.005)]
    assert drift[0] < 1e-9 * mass0
    assert drift[1] < drift[0] / 8.0


def test_strang_is_second_order():
    grid = SpectralGrid(2, np.pi, 32)
    params = TransportParams(1.0, 0.5, 1, davey_stewartson(), weight=1.0)
    state = rect_state(grid, params)
    ref = evolve_profiles(state, 0.3, dt=0.3 / 256).stack()
    errs = []
    for steps in (8, 16, 32):
        got = evolve_profiles(state, 0.3, dt=0.3 / steps).stack()
        errs.append(np.max(np.abs(got - ref)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_global_phase_covariance():
    grid = SpectralGrid(2, np.pi, 32)
    params = TransportParams(1.0, -0.3, 1, davey_stewartson(), weight=1.0)
    state = rect_state(grid, params)
    theta = 0.83
    rotated = ProfileSet(
        state.phase_set, grid,
        tuple(GridFunction(grid, np.exp(1j * theta) * a.values)
              for a in state.amplitudes),
        0.0, params)
    a = evolve_profiles(state, 0.25, dt=0.0125).stack()
    b = evolve_profiles(rotated, 0.25, dt=0.0125).stack()
    assert np.max(np.abs(b - np.exp(1j * theta) * a)) < 1e-12


def reference_profiles(state, t_end, dt):
    """The Strang loop of evolve_profiles before one driver served both
    evolvers, as its oracle: advection ifftn(phases * fftn(stack)) out of
    place, with the phases from the n-d exponent, around four RK4 stages per
    step."""
    n_steps = max(1, round((t_end - state.time) / dt))
    dt = (t_end - state.time) / n_steps
    grid = state.grid
    axes = tuple(range(1, grid.dim + 1))
    xi = grid.frequency_mesh()
    half = np.array([
        np.exp(-0.5j * dt * sum(eta * k * x for eta, k, x in
                                zip(state.phase_set.signature.etas, kappa, xi)))
        for kappa in state.phase_set.vectors])
    full = half * half
    rhs = _interaction(state.phase_set, state.params, grid)

    def advect(stack, phases):
        return scipy.fft.ifftn(phases * scipy.fft.fftn(stack, axes=axes),
                               axes=axes)

    stack = advect(state.stack(), half)
    for step in range(n_steps):
        k1 = rhs(stack)
        k2 = rhs(stack + (0.5 * dt) * k1)
        k3 = rhs(stack + (0.5 * dt) * k2)
        k4 = rhs(stack + dt * k3)
        stack = stack + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stack = advect(stack, full if step < n_steps - 1 else half)
    return stack


def test_strang_never_writes_its_input():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3, 8, 8)) \
        + 1j * rng.standard_normal((3, 8, 8))
    half = np.exp(1j * rng.standard_normal(values.shape))
    before = values.copy()

    def double(v):
        v *= 2.0
        return v
    out = _strang(values, half, 3, (1, 2), double)
    assert np.array_equal(values, before)
    # |half| = 1, so the flow keeps the l2 norm, and three doublings remain
    assert np.isclose(np.linalg.norm(out), 8.0 * np.linalg.norm(values))


def profile_state(nu, box_radius, n):
    """The profiles benchmark's data: DS with the -+ signature."""
    grid = SpectralGrid(2, np.pi, n)
    ps = close_phase_set(RECT, HYPERBOLIC, nu, box_radius=box_radius)
    seeds = [gaussian(grid, a, width=0.42) for a in (0.4, 0.32, 0.36)]
    return ProfileSet.from_seed(ps, grid, seeds,
                                TransportParams(1.0, 0.0, nu, davey_stewartson()))


EVOLVE_CASES = {
    # name: (nu, box_radius, n, t_end, dt, modes)
    "nu2-32": (2, 2, 32, 0.05, 0.01, 9),
    "wide-65-modes-32": (1, 16, 32, 0.02, 0.01, 65),
    "nine-modes-256": (1, 2, 256, 0.02, 0.005, 9),
    "one-step": (1, 4, 32, 0.01, 0.01, 17),
}


@pytest.mark.parametrize("name", sorted(EVOLVE_CASES))
def test_evolve_matches_reference_loop(name):
    nu, box_radius, n, t_end, dt, modes = EVOLVE_CASES[name]
    state = profile_state(nu, box_radius, n)
    assert len(state.phase_set) == modes
    got = evolve_profiles(state, t_end, dt).stack()
    ref = reference_profiles(state, t_end, dt)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def brute_force_rhs(state):
    """The interaction rhs summed tuple by tuple over every (2 nu + 1)-tuple
    of the set that is_resonant accepts onto some mode."""
    ps, grid, params = state.phase_set, state.grid, state.params
    stack = state.stack()
    lookup = {v: j for j, v in enumerate(ps.vectors)}
    local = np.zeros_like(stack)    # prefixes of tuples ending in their target
    coupled = np.zeros_like(stack)
    for t in itertools.product(range(len(ps)), repeat=2 * params.nu + 1):
        kappas = [ps.vectors[i] for i in t]
        j = lookup.get(tuple(sum((-1) ** p * k[c] for p, k in enumerate(kappas))
                             for c in range(ps.dim)))
        if j is None or not is_resonant(ps.signature, params.nu, kappas,
                                        ps.vectors[j]):
            continue
        prefix = np.prod([np.conj(stack[i]) if p % 2 else stack[i]
                          for p, i in enumerate(t[:-1])], axis=0)
        if t[-1] == j:
            local[j] += prefix
        else:
            delta = np.subtract(ps.vectors[j], kappas[-1]).astype(float)
            c = params.mu + params.lam * evaluate_kernel(params.kernel, delta)
            coupled[j] += c * prefix * stack[t[-1]]
    rhs = [(params.lam * apply_kernel(params.kernel, GridFunction(grid, s)).values
            + params.mu * s) * a + b for s, a, b in zip(local, stack, coupled)]
    return -1j * params.weight * np.stack(rhs)


def _axis_even_symbol(p):
    # even in each axis separately, so the real-density E (apply_raw) and
    # the oracle's complex apply agree on the Nyquist rows too
    r2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return p[..., 0] ** 2 * p[..., 1] ** 2 / (r2 * r2)


def _level_terms(plan, level):
    """The "terms" entries of plan at level, as (kind, (twice, once))."""
    return [entry for entry, (_, lev) in zip(plan.sums, plan.keys)
            if entry[0] == "terms" and lev == level]


@pytest.mark.parametrize("signature,nu,box_radius,n,kernel,mu", [
    (ELLIPTIC, 1, 4, 16, davey_stewartson(), -0.4),
    (HYPERBOLIC, 2, 2, 8, davey_stewartson(), -0.4),
    (HYPERBOLIC, 1, 4, 8, davey_stewartson(), -0.4),
    (HYPERBOLIC, 1, 4, 8, custom(2, _axis_even_symbol), -0.4),
    (ELLIPTIC, 1, 4, 16, davey_stewartson(), 0.0),
    (HYPERBOLIC, 2, 2, 8, davey_stewartson(), 0.0),
    (ELLIPTIC, 2, 4, 16, davey_stewartson(), -0.4),
    (ELLIPTIC, 3, 4, 8, davey_stewartson(), -0.4)],
    ids=["nu1", "nu2", "nu1-hyperbolic", "nu1-hyperbolic-custom", "nu1-mu0",
         "nu2-mu0", "nu2-elliptic", "nu3-elliptic"])
def test_rhs_matches_brute_force_oracle(signature, nu, box_radius, n, kernel,
                                        mu):
    # random data on every mode, generated ones included; the hyperbolic
    # nu = 1 box holds 17 modes, with conjugate and multi-member classes;
    # with mu = 0 the DS coefficient of some classes is exactly 0, and the
    # rhs skips their couplings; the elliptic nu = 2 plan has a level-2
    # class with a diagonal term (a, a), and the nu = 3 plan has level-3
    # classes, whose terms are not symmetric
    grid = SpectralGrid(2, np.pi, n)
    params = TransportParams(0.8, mu, nu, kernel, weight=1.3)
    ps = close_phase_set(RECT, signature, nu, box_radius=box_radius)
    if signature == ELLIPTIC and nu >= 2:
        plan = _plan(ps, params.lam, mu, kernel)
        assert any(once for kind, (twice, once) in _level_terms(plan, 2))
        assert all(not twice for _, (twice, _) in _level_terms(plan, 3))
        assert any(_level_terms(plan, 3)) == (nu == 3)
    rng = np.random.default_rng(7)
    amps = tuple(GridFunction(grid, rng.standard_normal(grid.shape)
                              + 1j * rng.standard_normal(grid.shape))
                 for _ in ps.vectors)
    state = ProfileSet(ps, grid, amps, 0.0, params)
    got = np.stack([r.values for r in transport_rhs(state)])
    expect = brute_force_rhs(state)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def _nearly_even_symbol(p):
    # the DS symbol plus 1e-12 on xi_2 > 0 only, within the evenness check's
    # tolerance: Khat(0, 1) = 1e-12 but Khat(0, -1) = 0
    r2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return (p[..., 0] ** 2 + 1e-12 * (p[..., 1] > 0) * p[..., 1] ** 2) / r2


def _unpruned(ps, lam, mu, kernel):
    """The plan of (lam, mu + 0.5), which has no zero coefficient on the
    kernels used here, with each class's (lam, mu) coefficient put back,
    zeros included."""
    plan = _plan(ps, lam, mu + 0.5, kernel)
    assert plan.zero_classes == 0
    sids = [sid for sid, _ in plan.coefficients]
    coeffs = _pair_coefficients(ps, lam, mu, kernel,
                                [pairs[0] for pairs in plan.couplings])
    return replace(plan, coefficients=tuple(zip(sids, coeffs)))


def _applied(plan):
    """(j, l, sum id) for every coupling the plan applies."""
    return [(j, l, sid) for (sid, _), pairs in zip(plan.coefficients,
                                                    plan.couplings)
            for j, l in pairs]


RECT_3D = ((1, 0, 0), (1, 1, 0), (0, 1, 0))
OBLIQUE = dipolar((0.48, 0.6, 0.64))


@pytest.mark.parametrize("phi0, signature, nu, box_radius, kernel, lam, mu", [
    (RECT, ELLIPTIC, 1, 4, davey_stewartson(), 0.8, 0.0),
    (RECT, HYPERBOLIC, 2, 2, davey_stewartson(), 0.8, 0.0),
    (RECT, ELLIPTIC, 1, 4, custom(2, _nearly_even_symbol), 0.8, 0.0),
    (RECT, HYPERBOLIC, 1, 4, identity(2), 0.5, -0.5),
    (RECT_3D, Signature.from_string("-++"), 2, 1, OBLIQUE, 1.0,
     -evaluate_kernel(OBLIQUE, (1.0, 0.0, 0.0)))],
    ids=["ds", "nu2-ds", "nearly-even-custom", "identity-common-only",
         "nu2-oblique-dipolar"])
def test_skipping_zero_couplings_is_bit_identical(phi0, signature, nu,
                                                  box_radius, kernel, lam, mu):
    # the rhs on the model's plan against the unpruned plan with every
    # coefficient; for the custom symbol the class keyed (0, -1) has
    # coefficient 0, so the (0, 1) class, its conjugate in the unpruned
    # plan, is formed from its own pairs
    ps = close_phase_set(phi0, signature, nu, box_radius=box_radius)
    params = TransportParams(lam, mu, nu, kernel, weight=1.3)
    grid = SpectralGrid(len(phi0[0]), np.pi, 8)
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((len(ps),) + grid.shape) \
        + 1j * rng.standard_normal((len(ps),) + grid.shape)

    def apply_e(s):
        return apply_raw(kernel, grid, s)
    full_plan = _unpruned(ps, lam, mu, kernel)
    full = _rhs_stack(stack, full_plan, params, apply_e)
    plan = _plan(ps, lam, mu, kernel)
    assert 0 < plan.zero_classes
    assert sum(map(len, plan.couplings)) < sum(map(len, full_plan.couplings))
    assert np.array_equal(_rhs_stack(stack, plan, params, apply_e), full)
    if kernel.kind == "identity":  # every coupling has coefficient 0
        assert plan.coefficients == () and not any(plan.couplings)
        assert plan.keys[plan.common] == (0, nu)


@pytest.mark.parametrize("signature, nu, box_radius, kernel, lam, mu", [
    (HYPERBOLIC, 1, 16, davey_stewartson(), 1.0, 0.0),
    (HYPERBOLIC, 1, 16, davey_stewartson(), 1.0, 0.5),
    (ELLIPTIC, 1, 4, custom(2, _nearly_even_symbol), 0.8, 0.0),
    (HYPERBOLIC, 2, 2, davey_stewartson(), 0.8, 0.0),
    (ELLIPTIC, 2, 4, davey_stewartson(), 1.0, 0.5),
    (ELLIPTIC, 3, 4, davey_stewartson(), 0.8, -0.4)],
    ids=["nu1-ds-mu0", "nu1", "nearly-even-custom", "nu2-ds-mu0",
         "nu2-elliptic", "nu3-elliptic"])
def test_schedule_applies_each_coupling_once(signature, nu, box_radius,
                                             kernel, lam, mu):
    # walks the plan as the rhs does: the lower sums, the (0, 0) class,
    # then each coupled class formed once and used before the next
    ps = close_phase_set(RECT, signature, nu, box_radius=box_radius)
    plan = _plan(ps, lam, mu, kernel)
    levels = [level for _, level in plan.keys]

    def needs(sid):
        kind, terms = plan.sums[sid]
        if kind == "conj":
            return {terms}
        return set() if kind == "pairs" else set(sum(terms[0] + terms[1], ()))

    assert plan.lower == tuple(i for i, lev in enumerate(levels) if lev < nu)
    for i, sid in enumerate(plan.lower):
        assert needs(sid) <= set(plan.lower[:i])
    assert plan.keys[plan.common] == (0, nu)
    assert needs(plan.common) <= set(plan.lower)
    top = [sid for sid, _ in plan.coefficients]
    assert sorted(top + [plan.common]) \
        == [i for i, lev in enumerate(levels) if lev == nu]
    taken = None  # a source whose conjugate was taken before scaling
    for sid, partner in zip(top, plan.partners, strict=True):
        kind, terms = plan.sums[sid]
        if kind == "conj":
            assert terms == taken
        else:
            assert taken is None and needs(sid) <= set(plan.lower)
        taken = sid if partner else None
    assert taken is None
    pairs = [(j, l) for j in range(len(ps)) for l in range(len(ps)) if j != l]
    coeffs = _pair_coefficients(ps, lam, mu, kernel, pairs)
    index = ps.prefix_index
    assert Counter((j, l, plan.keys[sid]) for j, l, sid in _applied(plan)) \
        == Counter((j, l, (index.key(j, l), nu))
                   for (j, l), c in zip(pairs, coeffs) if c != 0.0)
    # the classes keep their order when zero ones are pruned, so the rhs
    # adds the same terms in the same order as on the unpruned plan
    full = _unpruned(ps, lam, mu, kernel)
    assert [plan.keys[sid] for sid in top] \
        == [full.keys[sid] for sid, c in full.coefficients if c != 0.0]


def test_rhs_memory_is_bounded_by_the_stack():
    # the 65-mode closure has 1182 coupled class sums; the rhs holds one
    # (and its conjugate) at a time, not all of them
    grid = SpectralGrid(2, np.pi, 16)
    ps = close_phase_set(RECT, HYPERBOLIC, 1, box_radius=16)
    assert len(ps) == 65
    params = TransportParams(1.0, 0.0, 1, davey_stewartson())
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((len(ps),) + grid.shape) \
        + 1j * rng.standard_normal((len(ps),) + grid.shape)
    rhs = _interaction(ps, params, grid)
    rhs(stack)  # the plan and the kernel's multiplier are cached
    tracemalloc.start()
    try:
        rhs(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * stack.nbytes


@pytest.mark.parametrize("nu, box_radius, bound", [(1, 16, 10.6), (2, 2, 15.5)])
def test_evolve_memory_is_bounded_by_the_stack(nu, box_radius, bound):
    # the four RK4 stages, their arguments and the two phases; the bounds
    # are the peaks of the loop with its own advection (10.09 and 14.96
    # stacks) plus half a stack, so one more stack copy fails
    state = profile_state(nu, box_radius, 32)
    evolve_profiles(state, 0.02, 0.01)  # the plan and the multiplier are cached
    tracemalloc.start()
    try:
        evolve_profiles(state, 0.02, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * state.stack().nbytes


class TestPlanWork:
    """The coupling plan's work as exact counts, not timings, on models with
    no zero coefficient unless a test says otherwise."""

    @staticmethod
    def plan(nu, box_radius):
        return _plan(close_phase_set(RECT, HYPERBOLIC, nu,
                                     box_radius=box_radius),
                     1.0, 0.5, davey_stewartson())

    @staticmethod
    def split(plan):
        """Products per rhs: (pair products, level >= 2 products of twice
        terms, of once terms)."""
        twice, once = (sum(len(terms[i]) for kind, terms in plan.sums
                           if kind == "terms") for i in (0, 1))
        return sum(len(terms) for kind, terms in plan.sums
                   if kind == "pairs"), twice, once

    @classmethod
    def products(cls, plan):
        return sum(cls.split(plan))

    @staticmethod
    def modes(plan):
        return len({j for j, _, _ in _applied(plan)})

    def test_nu1_forms_half_the_pair_products(self):
        plan = self.plan(1, 16)
        count = self.modes(plan)
        assert count == 65
        assert plan.zero_classes == 0
        assert self.products(plan) == (count ** 2 + count) // 2 == 2145
        assert sum(kind == "conj" for kind, _ in plan.sums) == 607

    def test_nu2_products(self):
        # each unordered level-2 pair (a, b), a != b, is formed once, not as
        # both (a, b) and (b, a): 45 + 2 * 188 + 4 = 425 ordered products
        plan = self.plan(2, 2)
        assert self.modes(plan) == 9
        assert plan.zero_classes == 0
        assert self.split(plan) == (45, 188, 4)
        assert self.products(plan) == 237
        ps = close_phase_set(RECT, HYPERBOLIC, 2, box_radius=2)
        params = TransportParams(1.0, 0.5, 2, davey_stewartson())
        assert plan_facts(ps, params)["pair_products"] == 237

    @pytest.mark.parametrize("phi0, signature, nu, box_radius, kernel", [
        (RECT, HYPERBOLIC, 2, 2, davey_stewartson()),
        (RECT, HYPERBOLIC, 2, 4, davey_stewartson()),
        (RECT, ELLIPTIC, 2, 4, davey_stewartson()),
        (RECT, ELLIPTIC, 3, 4, davey_stewartson()),
        (RECT_3D, Signature.from_string("-++"), 2, 1, OBLIQUE)],
        ids=["nu2", "nu2-box4", "nu2-elliptic", "nu3-elliptic",
             "nu2-3d-oblique-dipolar"])
    def test_level2_terms_are_unordered_pairs(self, phi0, signature, nu,
                                              box_radius, kernel):
        # each off-diagonal pair stands for (a, b) and (b, a), and with the
        # diagonal pairs they are exactly the index's ordered splits
        ps = close_phase_set(phi0, signature, nu, box_radius=box_radius)
        plan = _plan(ps, 1.0, 0.5, kernel)
        index, ids = ps.prefix_index, {key: i for i, key in
                                       enumerate(plan.keys)}
        level2 = 0
        for (kind, terms), (code, level) in zip(plan.sums, plan.keys):
            if kind != "terms":
                continue
            twice, once = terms
            split = Counter((ids[rest, level - 1], ids[k, 1])
                            for rest, k in index.terms(code, level))
            if level > 2:
                assert twice == () and Counter(once) == split
                continue
            level2 += 1
            assert all(a < b for a, b in twice)
            assert all(a == b for a, b in once)
            assert Counter(twice + tuple((b, a) for a, b in twice) + once) \
                == split
        assert level2 > 0

    @pytest.mark.parametrize("nu, box_radius", [(1, 16), (2, 2)])
    def test_conjugates_point_to_earlier_negated_codes(self, nu, box_radius):
        plan = self.plan(nu, box_radius)
        index = close_phase_set(RECT, HYPERBOLIC, nu,
                                box_radius=box_radius).prefix_index
        built = set()
        for i, ((kind, terms), (code, level)) in enumerate(
                zip(plan.sums, plan.keys)):
            if kind == "conj":
                assert terms < i
                assert plan.keys[terms] == (-code, level)
            else:
                assert (-code, level) not in built
            if kind == "pairs":
                assert all(index.key(a, b) == code for a, b in terms)
            built.add((code, level))
        assert len(built) == len(plan.sums)
        for j, l, sid in _applied(plan):
            assert plan.keys[sid] == (index.key(j, l), nu)

    def test_one_coefficient_per_coupled_class(self):
        # -0.4 + 0.8 Khat is 0 on the diagonals, where the DS symbol is 1/2
        ps = close_phase_set(RECT, HYPERBOLIC, 1, box_radius=16)
        lam, mu, kernel = 0.8, -0.4, davey_stewartson()
        plan = _plan(ps, lam, mu, kernel)
        by_sum = dict(plan.coefficients)
        assert len(by_sum) == len(plan.coefficients)
        assert set(by_sum) == {sid for _, _, sid in _applied(plan)}
        assert plan.common not in by_sum
        for j, l, sid in _applied(plan):
            delta = np.subtract(ps.vectors[j], ps.vectors[l]).astype(float)
            assert by_sum[sid] == mu + lam * evaluate_kernel(kernel, delta)
        full = self.plan(1, 16)
        zero = {full.keys[sid] for j, l, sid in _applied(full)
                if mu + lam * evaluate_kernel(kernel, np.subtract(
                    ps.vectors[j], ps.vectors[l]).astype(float)) == 0.0}
        assert plan.zero_classes == len(zero) > 0
        assert {plan.keys[sid] for sid in by_sum} \
            == {full.keys[sid] for sid, _ in full.coefficients} - zero

    @staticmethod
    def sum_ops(plan):
        """Ufunc calls that form the sums: k products and k - 1 additions
        for a class of k terms, one conj for a conjugate class."""
        return sum(1 if kind == "conj" else 2 * len(terms) - 1
                   for kind, terms in plan.sums)

    @pytest.mark.parametrize("signature, box_radius, couplings, sum_ops", [
        (ELLIPTIC, 4, (12, 8), (19, 15)),
        (HYPERBOLIC, 16, (4160, 4096), (4289, 4225))],
        ids=["elliptic", "hyperbolic"])
    def test_zero_coefficient_couplings_are_skipped(self, signature,
                                                    box_radius, couplings,
                                                    sum_ops):
        # the DS symbol vanishes for kappa_j - kappa_l on the xi_2 axis, so
        # with mu = 0 those classes' couplings and the sums only they reach
        # are not in the plan
        ps = close_phase_set(RECT, signature, 1, box_radius=box_radius)
        lam, mu, kernel = 1.0, 0.0, davey_stewartson()
        full = _unpruned(ps, lam, mu, kernel)
        plan = _plan(ps, lam, mu, kernel)
        assert [sum(len(row) for row in p.couplings) for p in (full, plan)] \
            == list(couplings)
        assert [self.sum_ops(p) for p in (full, plan)] == list(sum_ops)
        by_key = {full.keys[sid]: c for sid, c in full.coefficients}
        assert dict((plan.keys[sid], c) for sid, c in plan.coefficients) \
            == {key: c for key, c in by_key.items() if c != 0.0}
        assert plan.zero_classes == list(by_key.values()).count(0.0)
        assert {(j, l, plan.keys[sid]) for j, l, sid in _applied(plan)} \
            == {(j, l, full.keys[sid]) for j, l, sid in _applied(full)
                if by_key[full.keys[sid]] != 0.0}
        full_sums = dict(zip(full.keys, full.sums))
        for i, (kind, terms) in enumerate(plan.sums):
            code, level = plan.keys[i]
            if kind == "conj":  # sources keep their place before their users
                assert terms < i and plan.keys[terms] == (-code, level)
            else:
                assert (kind, terms) == full_sums[code, level]
        assert plan.keys[plan.common] == full.keys[full.common]

    @pytest.mark.parametrize("lam, mu", [(0.0, 1.0), (1.0, 0.5)])
    def test_nonzero_coefficients_keep_the_plan(self, lam, mu):
        ps = close_phase_set(RECT, HYPERBOLIC, 2, box_radius=2)
        assert _plan(ps, lam, mu, davey_stewartson()) \
            == _unpruned(ps, lam, mu, davey_stewartson())


@pytest.mark.parametrize("signature, params", [
    (ELLIPTIC, TransportParams(0.8, -0.4, 1, davey_stewartson(), weight=1.3)),
    (HYPERBOLIC, TransportParams(0.6, 0.3, 1, identity(2))),
    (HYPERBOLIC, TransportParams(0.9, 0.2, 1, zero(2))),
    (HYPERBOLIC, TransportParams(0.0, 1.0, 2, zero(2), weight=0.7)),
    (ELLIPTIC, TransportParams(0.8, 0.0, 1, davey_stewartson())),
    (HYPERBOLIC, TransportParams(0.8, 0.0, 2, davey_stewartson(), weight=1.3))],
    ids=["ds", "identity", "zero-kernel", "nu2-local", "ds-mu0", "nu2-ds-mu0"])
def test_constant_rhs_matches_the_grid(signature, params):
    # the scalar rhs on one value per mode against the grid rhs on the same
    # values broadcast to every point of a 4^2 grid: E acts on a constant as
    # its zero-mode value (0 but for the identity kernel)
    ps = close_phase_set(RECT, signature, params.nu,
                         box_radius=4 if params.nu == 1 else 2)
    grid = SpectralGrid(2, np.pi, 4)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(len(ps)) + 1j * rng.standard_normal(len(ps))
    got = _constant_interaction(ps, params)(values.tolist())
    on_grid = _interaction(ps, params, grid)(
        np.broadcast_to(values[:, None, None], (len(ps),) + grid.shape).copy())
    assert len(got) == len(values)
    assert all(type(v) is complex for v in got)
    got = np.array(got)
    assert np.max(np.abs(on_grid - got[:, None, None])) \
        <= 1e-14 * np.max(np.abs(got))


@pytest.mark.parametrize("signature, box_radius, params", [
    (ELLIPTIC, 4, TransportParams(0.0, 1.0, 1, zero(2))),
    (HYPERBOLIC, 4, TransportParams(0.8, 0.3, 1, identity(2), weight=1.3)),
    (HYPERBOLIC, 2, TransportParams(1.0, 0.5, 2, davey_stewartson())),
    (HYPERBOLIC, 4, TransportParams(1.0, 0.0, 1, davey_stewartson()))],
    ids=["inflate-local", "identity", "nu2-ds", "ds-17-modes"])
def test_constant_history_matches_evolve_profiles(signature, box_radius,
                                                  params):
    # the scalar scan against evolve_profiles on constant profiles on a 4^2
    # grid, at the same times: one repeated time (no step) and one span of a
    # single step
    ps = close_phase_set(RECT, signature, params.nu, box_radius=box_radius)
    grid = SpectralGrid(2, np.pi, 4)
    rng = np.random.default_rng(7)
    values = 0.6 * (rng.standard_normal(len(ps))
                    + 1j * rng.standard_normal(len(ps)))
    dt = 0.01
    times = [0.0, 0.13, 0.13, 0.14, 0.5]
    state = ProfileSet(ps, grid, tuple(GridFunction.constant(grid, v)
                                       for v in values), 0.0, params)
    history = list(constant_profile_history(ps, params, values, times, dt))
    assert len(history) == len(times)
    assert not np.array_equal(history[-1], values)
    for t, got in zip(times, history):
        state = evolve_profiles(state, t, dt)
        assert np.max(np.abs(state.stack() - got[:, None, None])) \
            <= 1e-13 * np.max(np.abs(got))


def test_constant_history_rounds_as_the_numpy_stages():
    # the scan's stages on lists against _rk4's numpy stages around the same
    # scalar rhs: each stage operation adds or scales by a real number
    ps = close_phase_set(RECT, HYPERBOLIC, 1, box_radius=4)
    params = TransportParams(0.8, 0.3, 1, identity(2), weight=1.3)
    rng = np.random.default_rng(9)
    values = rng.standard_normal(len(ps)) + 1j * rng.standard_normal(len(ps))
    rhs = _constant_interaction(ps, params)
    step = _rk4(lambda stack: np.array(rhs(stack.tolist())), 0.3 / 30)
    stack = values.copy()
    for _ in range(30):
        stack = step(stack)
    got, = constant_profile_history(ps, params, values, [0.3], 0.01)
    assert np.array_equal(got, stack)
    assert not np.array_equal(got, values)


@pytest.mark.parametrize("count", [3, 5])
def test_constant_history_needs_one_value_per_mode(count):
    ps = close_phase_set(RECT, ELLIPTIC, 1, box_radius=4)
    assert len(ps) == 4
    params = TransportParams(0.0, 1.0, 1, zero(2))
    history = constant_profile_history(ps, params, [0.7] * count,
                                       [0.0, 0.1], 0.005)
    with pytest.raises(ValueError, match=f"{count} values for 4 phase-set"):
        next(history)


def test_weight_scales_interaction():
    grid = SpectralGrid(2, np.pi, 16)
    ps = close_phase_set(RECT, ELLIPTIC, 1, box_radius=4)
    seeds = [gaussian(grid, a) for a in (0.9, 0.7, 0.8)]
    base = TransportParams(1.0, 0.5, 1, davey_stewartson(), weight=1.0)
    heavy = TransportParams(1.0, 0.5, 1, davey_stewartson(), weight=2.5)
    r1 = transport_rhs(ProfileSet.from_seed(ps, grid, seeds, base))
    r2 = transport_rhs(ProfileSet.from_seed(ps, grid, seeds, heavy))
    for a, b in zip(r1, r2):
        assert np.allclose(b.values, 2.5 * a.values, rtol=1e-14, atol=0.0)


class TestZeroModeRate:
    def test_rectangle_closed_form(self):
        grid = SpectralGrid(2, np.pi, 32)
        lam, mu = 1.0, 0.25
        params = TransportParams(lam, mu, 1, davey_stewartson(), weight=1.0)
        alphas = [gaussian(grid, a) for a in (0.9, 0.7, 0.8)]
        rate = zero_mode_rate(RECT, alphas, params)
        # Khat(1,0) + Khat(0,1) = 1 for this kernel, so the coefficient
        # collapses to lam + 2 mu
        expect = -1j * (lam + 2 * mu) * alphas[0].values \
            * np.conj(alphas[1].values) * alphas[2].values
        assert np.max(np.abs(rate.values - expect)) < 1e-14

    def test_matches_full_rhs_at_start(self):
        grid = SpectralGrid(2, np.pi, 32)
        params = TransportParams(1.0, 0.25, 1, davey_stewartson(), weight=0.7)
        state = rect_state(grid, params)
        rate = zero_mode_rate(RECT, state.amplitudes[:3], params)
        j0 = state.phase_set.index((0, 0))
        rhs = transport_rhs(state)[j0]
        scale = np.max(np.abs(rate.values))
        assert np.max(np.abs(rhs.values - rate.values)) < 1e-13 * scale

    def test_validation(self):
        grid = SpectralGrid(2, np.pi, 16)
        params = TransportParams(1.0, 0.0, 1, davey_stewartson())
        a = GridFunction.constant(grid, 1.0)
        with pytest.raises(ValueError, match="three"):
            zero_mode_rate(((1, 0), (0, 1)), [a, a], params)
        with pytest.raises(ValueError, match="nonzero"):
            zero_mode_rate(((0, 0), (1, 1), (0, 1)), [a, a, a], params)
        with pytest.raises(ValueError, match="interact"):
            zero_mode_rate(((1, 0), (2, 1), (0, 1)), [a, a, a], params)


def test_evolve_validates_time_arguments():
    grid = SpectralGrid(2, np.pi, 16)
    params = TransportParams(0.0, 1.0, 1, identity(2))
    state = rect_state(grid, params)
    with pytest.raises(ValueError):
        evolve_profiles(state, 0.5, dt=0.0)
    with pytest.raises(ValueError):
        evolve_profiles(state, -0.1, dt=0.1)
    assert evolve_profiles(state, 0.0, dt=0.1) is state


class TestProfileNorms:
    def test_gaussian_reference_values(self):
        # fhat of exp(-|x|^2/2) in d=2 is exp(-|xi|^2/2):
        # integral norms 2*pi (l1) and sqrt(pi) (l2)
        params = TransportParams(0.0, 1.0, 1, identity(2))
        ps = close_phase_set(((1, 1),), ELLIPTIC, 1, box_radius=1)

        def norms_on(half_length, n):
            grid = SpectralGrid(2, half_length, n)
            state = ProfileSet.from_seed(
                ps, grid, [gaussian(grid, 1.0, width=1.0)], params)
            return profile_norms(state, s_list=(1,))

        coarse = norms_on(8.0, 128)
        l1, l2 = 2.0 * math.pi, math.sqrt(math.pi)
        assert abs(coarse.x_norm - (l1 + l2)) < 1e-8
        # s = 1 adds the <kappa> mode weight plus the plain and the two
        # first-derivative terms; the |xi| kink makes the lattice sum
        # second-order accurate in the spectral spacing, not spectral
        d1_l1 = 2.0 * math.sqrt(2.0 * math.pi)
        d1_l2 = math.sqrt(math.pi / 2.0)
        expect = math.sqrt(3.0) * (l1 + l2) + (l1 + l2) + 2.0 * (d1_l1 + d1_l2)
        err_coarse = abs(coarse.xs_norms[1] - expect)
        err_fine = abs(norms_on(16.0, 256).xs_norms[1] - expect)
        assert err_coarse < 5e-3 * expect
        assert 3.5 < err_coarse / err_fine < 4.5

    def test_rejects_bad_weights(self):
        grid = SpectralGrid(2, np.pi, 16)
        params = TransportParams(0.0, 1.0, 1, identity(2))
        state = rect_state(grid, params)
        with pytest.raises(ValueError):
            profile_norms(state, s_list=(0.5,))
        with pytest.raises(ValueError):
            profile_norms(state, s_list=(-1,))
