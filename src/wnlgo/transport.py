"""Coupled transport of slowly modulated mode amplitudes.

One complex amplitude a_j rides each wave vector kappa_j of a resonance-closed
phase set.  Between interactions each a_j is advected at the constant group
velocity v_j = (eta_1 kappa_{j,1}, ..., eta_d kappa_{j,d}); the interactions
couple the amplitudes through every resonant (2 nu + 1)-tuple, with a
non-local coefficient Khat(kappa_j - kappa_last) on the oscillatory products
and the multiplier E acting on the non-oscillatory ones.  Evolution uses
Strang splitting: exact spectral advection half-steps around an RK4 step of
the pointwise coupling, so the only time-discretization error is the
second-order splitting of smooth non-stiff terms.

The ``weight`` parameter scales the whole coupling (the regime where the
nonlinearity enters at a positive power of the small parameter); weight = 1
is the critical case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np
import scipy.fft

from . import kernels as _kernels
from .grid import GridFunction, SpectralGrid
from .resonance import (PhaseSet, Signature, as_wave_vector, close_phase_set,
                        is_resonant, resonant_tuples)


@dataclass(frozen=True)
class TransportParams:
    """Coupling constants for the amplitude system."""

    lam: float
    mu: float
    nu: int
    kernel: _kernels.KernelSpec
    weight: float = 1.0

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be a positive integer")


@dataclass(frozen=True)
class XNorms:
    """Summed Fourier l1+l2 amplitude norms, plain and weighted."""

    x_norm: float
    xs_norms: dict


@dataclass(frozen=True)
class ProfileSet:
    """Amplitudes a_j(t, x) for every mode of a phase set, at one time."""

    phase_set: PhaseSet
    grid: SpectralGrid
    amplitudes: tuple
    time: float
    params: TransportParams

    def __post_init__(self):
        if len(self.amplitudes) != len(self.phase_set):
            raise ValueError(
                f"{len(self.amplitudes)} amplitudes for "
                f"{len(self.phase_set)} phase-set modes")
        for a in self.amplitudes:
            if a.grid != self.grid:
                raise ValueError("amplitude grids must all match")
        if self.phase_set.dim != self.grid.dim:
            raise ValueError("phase set / grid dimension mismatch")

    @classmethod
    def from_seed(cls, phase_set: PhaseSet, grid: SpectralGrid, seed_amplitudes,
                  params: TransportParams, time: float = 0.0) -> "ProfileSet":
        """Start from data on the seed modes; generated modes start at zero."""
        seed_amplitudes = list(seed_amplitudes)
        if len(seed_amplitudes) != phase_set.origin_count:
            raise ValueError(
                f"need {phase_set.origin_count} seed amplitudes, "
                f"got {len(seed_amplitudes)}")
        amps = list(seed_amplitudes)
        amps += [GridFunction.zeros(grid)
                 for _ in range(len(phase_set) - phase_set.origin_count)]
        return cls(phase_set, grid, tuple(amps), time, params)

    def stack(self) -> np.ndarray:
        return np.stack([a.values for a in self.amplitudes])

    def total_mass(self) -> float:
        """sum_j ||a_j||_{L2}^2 — conserved by the evolution."""
        return float(sum(a.l2_norm() ** 2 for a in self.amplitudes))


# -- coupling structure -------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """The sums one rhs evaluation forms for a phase set and model, and the
    order it uses them in.

    Each entry of sums is (kind, terms): a "pairs" class sums
    a_{l1} conj(a_{l2}) over its member pairs, a "terms" class (level >= 2)
    sums (class one level down) * (pair class) over (sum id, sum id) terms,
    and a "conj" entry is the complex conjugate of the earlier sum id terms.
    A "terms" entry is (twice, once), and its sum is twice the sum over
    twice plus the sum over once.  At level 2 both factors are pair classes
    and (a, b) is a term exactly when (b, a) is, so twice lists the terms
    with a < b and once the terms (a, a); above level 2 twice is empty.
    keys[i] is the (code, level) of sum i.  The class keyed by the negated
    code at the same level is the conjugate of the class keyed by the code:
    at level 1 negating a key swaps each member pair, and a level-m term
    (rest, k) becomes (-rest, -k).

    lower lists the sums below level nu in build order, and common is the
    (0, 0) class at level nu, which feeds the multiplier E.  Mode j couples
    to mode l through the class keyed (kappa_j - kappa_l, Q(kappa_j) -
    Q(kappa_l)): coefficients holds (sum id, mu + lam*Khat(kappa_j -
    kappa_l)) for each class whose coefficient is not exactly 0 (a term
    with it would add 0 * S * a_l = +-0), and couplings[i] the (j, l) of
    class i.  The classes go by |code|, each conjugate right after its
    source, and partners[i] is true when class i is such a source; pruning
    cannot change that order, so it cannot change the rhs's rounding.
    zero_classes counts the classes left out; sums only they would reach
    are never formed.
    """

    sums: tuple
    keys: tuple
    lower: tuple
    common: int
    coefficients: tuple
    couplings: tuple
    partners: tuple
    zero_classes: int


@lru_cache(maxsize=32)
def _plan(phase_set: PhaseSet, lam: float, mu: float,
          kernel: _kernels.KernelSpec) -> _Plan:
    index = phase_set.prefix_index
    codes = (index.codes[:, None] - index.codes).tolist()  # index.key(j, l)
    # kappa_j - kappa_l is part of the key: a class's first coupling gives
    # the coefficient of all of them
    couplings = {}
    for j, row in enumerate(codes):
        for l, code in enumerate(row):
            if l != j:
                couplings.setdefault(code, []).append((j, l))
    coeff = dict(zip(couplings, _pair_coefficients(
        phase_set, lam, mu, kernel,
        [pairs[0] for pairs in couplings.values()])))
    sums, ids = [], {}

    def sum_id(code: int, level: int) -> int:
        if (code, level) not in ids:
            if (-code, level) in ids:
                entry = ("conj", ids[-code, level])
            elif level == 1:
                entry = ("pairs", tuple(index.pairs(code)))
            else:
                terms = [(sum_id(rest, level - 1), sum_id(k, 1))
                         for rest, k in index.terms(code, level)]
                symmetric = level == 2  # (a, b) and (b, a) are both terms
                entry = ("terms", (
                    tuple(t for t in terms if symmetric and t[0] < t[1]),
                    tuple(t for t in terms if not symmetric or t[0] == t[1])))
            ids[code, level] = len(sums)
            sums.append(entry)
        return ids[code, level]

    nu = phase_set.nu
    common = sum_id(0, nu)
    kept = {code: sum_id(code, nu) for code, c in coeff.items() if c != 0.0}
    order = sorted(kept, key=lambda code: (abs(code),
                                           sums[kept[code]][0] == "conj"))
    keys = tuple(ids)  # in sum order
    return _Plan(
        tuple(sums), keys,
        tuple(i for i, (_, level) in enumerate(keys) if level < nu), common,
        tuple((kept[code], coeff[code]) for code in order),
        tuple(tuple(couplings[code]) for code in order),
        tuple(sums[kept[code]][0] != "conj" and -code in kept
              for code in order),
        len(coeff) - len(kept))


def _pair_coefficients(phase_set: PhaseSet, lam: float, mu: float,
                       kernel: _kernels.KernelSpec, pairs) -> list:
    """mu + lam*Khat(kappa_j - kappa_l) for each (j, l) of pairs, j != l."""
    j, l = np.array(pairs, dtype=int).reshape(-1, 2).T
    vectors = np.array(phase_set.vectors, dtype=float)
    return (mu + lam * _kernels.symbol(kernel, vectors[j] - vectors[l])).tolist()


def plan_facts(phase_set: PhaseSet, params: TransportParams) -> dict:
    """Coupled classes, the zero-coefficient ones, pair products per rhs."""
    plan = _plan(phase_set, params.lam, params.mu, params.kernel)
    return dict(coupled_classes=len(plan.coefficients) + plan.zero_classes,
                zero_coefficient_classes=plan.zero_classes,
                pair_products=sum(
                    len(t) if kind == "pairs" else sum(map(len, t))
                    for kind, t in plan.sums if kind != "conj"))


def _product(stack: np.ndarray, indices) -> np.ndarray:
    """a_{l1} conj(a_{l2}) a_{l3} ... with odd positions conjugated."""
    out = stack[indices[0]].copy()
    for pos, idx in enumerate(indices[1:], start=1):
        out *= np.conj(stack[idx]) if pos % 2 else stack[idx]
    return out


def _sum_products(left, right, terms, acc=None):
    """acc (if not None) plus left[a] * right[b] summed over the (a, b) of
    terms, in place on acc."""
    if acc is None:
        (a, b), terms = terms[0], terms[1:]
        acc = left[a] * right[b]
    for a, b in terms:
        acc += left[a] * right[b]
    return acc


def _form(entry, entries, conj, sums):
    """The sum of a plan entry, in a fresh array when entries are fields."""
    kind, terms = entry
    if kind == "conj":
        return sums[terms].conjugate()
    if kind == "pairs":
        return _sum_products(entries, conj, terms)
    twice, once = terms
    acc = _sum_products(sums, sums, twice) * 2.0 if twice else None
    return _sum_products(sums, sums, once, acc)


def _common(s, params: TransportParams, apply_e):
    """lam E(s) + mu s, the factor of every a_j, from the (0, 0) class sum s,
    which is real: the class is closed under conjugation.  lam as a complex
    scalar makes the factor complex, so its products with the modes need no
    cast."""
    if params.lam == 0.0:
        return params.mu * s
    common = complex(params.lam) * apply_e(s.real)
    if params.mu != 0.0:
        common += params.mu * s
    return common


def _rhs_stack(stack: np.ndarray, plan: _Plan, params: TransportParams,
               apply_e) -> np.ndarray:
    """The interaction term on a stack of grid fields, one per mode; apply_e
    applies E to the real (0, 0) class sum.

    Each coupled class sum is used for all its couplings while it is in
    cache, and then dropped.  A conjugate class is taken from its source
    before the source is scaled, so nothing relies on Khat being exactly
    even.
    """
    entries, conj = stack, np.conj(stack)
    sums = {}
    for sid in plan.lower:
        sums[sid] = _form(plan.sums[sid], entries, conj, sums)
    common = _common(_form(plan.sums[plan.common], entries, conj, sums),
                     params, apply_e)
    out = [common * a for a in entries]
    for (sid, c), pairs, partner in zip(plan.coefficients, plan.couplings,
                                        plan.partners):
        entry = plan.sums[sid]
        s = taken if entry[0] == "conj" else _form(entry, entries, conj, sums)
        if partner:
            taken = s.conjugate()
        s *= c
        for j, l in pairs:
            out[j] += s * entries[l]
    del conj, sums  # not held while the result is copied
    out = np.array(out)
    return np.multiply(-1j * params.weight, out, out=out)


def _interaction(phase_set: PhaseSet, params: TransportParams,
                 grid: SpectralGrid):
    """stack -> _rhs_stack(stack, ...) on grid fields, with the model's plan
    and E, the kernel's Fourier multiplier, resolved once."""
    plan = _plan(phase_set, params.lam, params.mu, params.kernel)

    def apply_e(s):
        return _kernels.apply_raw(params.kernel, grid, s)

    def rhs(stack):
        return _rhs_stack(stack, plan, params, apply_e)
    return rhs


def _constant_interaction(phase_set: PhaseSet, params: TransportParams):
    """values -> the interaction term on spatially constant profiles, one
    Python complex per mode in a list, in and out.

    It forms the sums of _rhs_stack's plan in the same order, on scalars,
    and E acts on a constant as its symbol's zero-mode value.  The level-1
    pair sums are written out here: a call per class would cost more than
    the sum.
    """
    plan = _plan(phase_set, params.lam, params.mu, params.kernel)
    zero_mode = _kernels.zero_mode_value(params.kernel)
    scale = -1j * params.weight

    def apply_e(s):
        return zero_mode * s

    # a pair class keeps its first pair apart, to start its sum from
    classes = []
    for (sid, c), pairs, partner in zip(plan.coefficients, plan.couplings,
                                        plan.partners):
        kind, terms = entry = plan.sums[sid]
        first, rest = (terms[0], terms[1:]) if kind == "pairs" else (None, entry)
        classes.append((kind, first, rest, c, pairs, partner))

    def rhs(values):
        conj = [v.conjugate() for v in values]
        sums = {}
        for sid in plan.lower:
            sums[sid] = _form(plan.sums[sid], values, conj, sums)
        common = _common(_form(plan.sums[plan.common], values, conj, sums),
                         params, apply_e)
        out = [common * a for a in values]
        for kind, first, rest, c, pairs, partner in classes:
            if kind == "pairs":
                a, b = first
                s = values[a] * conj[b]
                for a, b in rest:
                    s += values[a] * conj[b]
            elif kind == "conj":
                s = taken
            else:
                s = _form(rest, values, conj, sums)
            if partner:
                taken = s.conjugate()
            s *= c
            for j, l in pairs:
                out[j] += s * values[l]
        return [scale * v for v in out]
    return rhs


def transport_rhs(state: ProfileSet) -> list:
    """Interaction part of d a_j / dt (advection excluded; handled by splitting)."""
    rhs = _interaction(state.phase_set, state.params, state.grid)
    return [GridFunction(state.grid, r) for r in rhs(state.stack())]


# -- evolution ----------------------------------------------------------------


def _advection_phases(state: ProfileSet, dt: float) -> np.ndarray:
    """exp(-i dt v_j . xi) for each mode from 1-D exponentials, stacked;
    advection by dt in Fourier."""
    grid = state.grid
    etas = state.phase_set.signature.etas
    xi = grid.frequency_axis()
    out = np.empty((len(state.phase_set),) + grid.shape, dtype=np.complex128)
    for j, kappa in enumerate(state.phase_set.vectors):
        out[j] = grid.separable([np.exp((-1j * dt * eta * k) * xi)
                                 for eta, k in zip(etas, kappa)], np.multiply)
    return out


def _steps(span: float, dt: float) -> tuple:
    """(n, span / n) with n = max(1, round(span / dt)): the steps covering span."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if span < 0:
        raise ValueError("t_end must not precede the current state time")
    n_steps = max(1, round(span / dt))
    return n_steps, span / n_steps


def _strang(values: np.ndarray, half, n_steps: int, axes, substep) -> np.ndarray:
    """n_steps Strang steps: the half linear flow, then per step values =
    substep(values) and the full flow (half on the last step).  The flow
    multiplies the transform over axes by half or full = half * half.
    substep may work in place; the caller's values are never written."""
    full = half * half

    def flow(values, phase, overwrite=True):
        values = scipy.fft.fftn(values, axes=axes, overwrite_x=overwrite, workers=1)
        values *= phase
        return scipy.fft.ifftn(values, axes=axes, overwrite_x=True, workers=1)

    values = flow(values, half, overwrite=False)
    for step in range(n_steps):
        values = flow(substep(values), full if step < n_steps - 1 else half)
    return values


def _rk4(rhs, dt: float):
    """One classical RK4 step of d stack / dt = rhs(stack), as a function
    that updates the stack in place and returns it.  Each stage lives until
    the next call replaces it: freed together at the end of a step, the four
    stages made the allocator hand their pages back to the system and fault
    them in again every step."""
    k1 = k2 = k3 = k4 = None

    def step(stack):
        nonlocal k1, k2, k3, k4
        k1 = rhs(stack)
        k2 = rhs(stack + (0.5 * dt) * k1)
        k3 = rhs(stack + (0.5 * dt) * k2)
        k4 = rhs(stack + dt * k3)
        stack += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return stack
    return step


def evolve_profiles(state: ProfileSet, t_end: float, dt: float) -> ProfileSet:
    """Advance the amplitude system to t_end with Strang splitting.

    Half-step exact advection / RK4 on the interaction terms / half-step
    advection, with interior half-steps fused.  Second order in dt.
    """
    span = t_end - state.time
    n_steps, dt = _steps(span, dt)
    if span == 0:
        return state

    grid = state.grid
    rhs = _interaction(state.phase_set, state.params, grid)
    stack = _strang(state.stack(), _advection_phases(state, 0.5 * dt), n_steps,
                    tuple(range(1, grid.dim + 1)), _rk4(rhs, dt))
    amps = tuple(GridFunction(grid, a) for a in stack)
    return replace(state, amplitudes=amps, time=state.time + span)


def constant_profile_history(phase_set: PhaseSet, params: TransportParams,
                             values, times, dt: float):
    """Yield spatially constant profiles, one value per mode, at each of the
    (nondecreasing) times, from values at time 0.

    The profile system keeps constants constant, and on them it is an ODE in
    C^count: advection moves a constant nowhere and E acts on it as its
    symbol's zero-mode value, so each Strang step of evolve_profiles is
    exactly one RK4 step of the interaction.  The steps are the ones
    evolve_profiles takes between the same times, and each RK4 stage is the
    one _rk4 forms, on Python complex numbers: every stage operation adds or
    scales by a real number, so it rounds as numpy does.
    """
    values = [complex(v) for v in values]
    if len(values) != len(phase_set):
        raise ValueError(f"{len(values)} values for "
                         f"{len(phase_set)} phase-set modes")
    rhs = _constant_interaction(phase_set, params)
    now = 0.0
    for t in times:
        span = float(t) - now  # numpy scalars would turn every value into one
        n_steps, h = _steps(span, dt)
        if span != 0:
            half, sixth = 0.5 * h, h / 6.0
            for _ in range(n_steps):
                k1 = rhs(values)
                k2 = rhs([v + half * k for v, k in zip(values, k1)])
                k3 = rhs([v + half * k for v, k in zip(values, k2)])
                k4 = rhs([v + h * k for v, k in zip(values, k3)])
                values = [v + sixth * (p + 2.0 * q + 2.0 * r + w)
                          for v, p, q, r, w in zip(values, k1, k2, k3, k4)]
        now += span  # the clock of ProfileSet.time
        yield np.array(values)


# -- derived quantities ---------------------------------------------------------


def zero_mode_rate(kappas, alphas, params: TransportParams,
                   signature: Signature | None = None) -> GridFunction:
    """Instantaneous creation rate of the zero mode from three seed modes.

    For seed vectors forming the rectangle 0, kappa_1, kappa_2 = kappa_1 +
    kappa_3, kappa_3 (with orthogonal nonzero kappa_1, kappa_3), the rate at
    t=0 is assembled directly from the resonant tuples whose entries all
    carry seed data — for nu = 1 this reduces to the closed form
    -i * weight * (2 mu + lam (Khat(kappa_1) + Khat(kappa_3))) a_1 conj(a_2) a_3.
    Computed without any grid transform, so it can cross-check the evolved
    dynamics.
    """
    kappas = [as_wave_vector(k) for k in kappas]
    alphas = list(alphas)
    if len(kappas) != 3 or len(alphas) != 3:
        raise ValueError("expected exactly three seed modes")
    d = len(kappas[0])
    if signature is None:
        signature = Signature.elliptic(d)
    k1, k2, k3 = kappas
    origin = (0,) * d
    if origin in kappas or len(set(kappas)) != 3:
        raise ValueError("seed modes must be distinct and nonzero")
    if not is_resonant(signature, 1, (k1, k2, k3), origin):
        raise ValueError("seed modes do not interact onto the zero mode")

    radius = max(abs(c) for k in kappas for c in k)
    ps = close_phase_set(kappas, signature, params.nu, box_radius=radius)
    j0 = ps.index(origin)
    grid = alphas[0].grid
    acc = np.zeros(grid.shape, dtype=np.complex128)
    stack = np.stack([a.values for a in alphas])
    seeded = [rt.indices for rt in resonant_tuples(ps, j0) if max(rt.indices) < 3]
    coeffs = _pair_coefficients(ps, params.lam, params.mu, params.kernel,
                                [(j0, indices[-1]) for indices in seeded])
    for c, indices in zip(coeffs, seeded):
        acc += c * _product(stack, indices)
    return GridFunction(grid, (-1j * params.weight) * acc)


def _l1_l2(fhat: np.ndarray, measure: float):
    l1 = measure * float(np.sum(np.abs(fhat)))
    l2 = float(np.sqrt(measure * np.sum(np.abs(fhat) ** 2)))
    return l1, l2


def profile_norms(state: ProfileSet, s_list=()) -> XNorms:
    """Summed Fourier l1+l2 norms of the amplitudes, with s-weighted variants.

    The s-weighted norm adds <kappa_j>^s mode weights and all derivative
    weights |xi^beta| for multi-indices |beta| <= s.
    """
    grid = state.grid
    measure = grid.spectral_cell_volume
    hats = [grid.forward(a.values) for a in state.amplitudes]
    base = [_l1_l2(h, measure) for h in hats]
    x_norm = float(sum(l1 + l2 for l1, l2 in base))

    xs = {}
    for s in s_list:
        if s != int(s) or s < 0:
            raise ValueError("s-weighted norms are defined for integer s >= 0")
        s = int(s)
        mode_part = 0.0
        for (l1, l2), kappa in zip(base, state.phase_set.vectors):
            bracket = (1.0 + sum(c * c for c in kappa)) ** (s / 2.0)
            mode_part += bracket * (l1 + l2)
        deriv_part = 0.0
        xi_abs = np.abs(grid.frequency_axis())
        for beta in _iproduct(range(s + 1), repeat=grid.dim):
            if sum(beta) > s:
                continue
            weight = grid.separable([xi_abs ** p for p in beta], np.multiply)
            for h in hats:
                l1, l2 = _l1_l2(weight * h, measure)
                deriv_part += l1 + l2
        xs[s] = mode_part + deriv_part
    return XNorms(x_norm, xs)
