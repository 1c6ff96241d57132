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

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np
import scipy.fft

from . import kernels as _kernels
from .grid import GridFunction, SpectralGrid
from .resonance import PhaseSet, Signature, as_wave_vector, is_resonant


@dataclass(frozen=True)
class TransportParams:
    """Coupling constants for the amplitude system."""

    lam: float
    mu: float
    nu: int
    kernel: _kernels.KernelSpec
    weight: float = 1.0

    def __post_init__(self):
        if self.nu < 1 or self.nu != int(self.nu):
            raise ValueError("nu must be a positive integer")


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
        if self.params.nu != self.phase_set.nu:
            raise ValueError(f"params.nu = {self.params.nu} but the phase set "
                             f"was closed for nu = {self.phase_set.nu}")

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
    """The _Plan of a phase set and model.  Its couplings and its level-1
    "pairs" sums are the phase set's pair classes, one grouping of the
    sorted pair keys, taken in the order of each class's first pair."""
    index = phase_set.prefix_index
    # mode j couples to mode l through the pair class of index.key(j, l);
    # the class keyed 0 is the j == l pairs.  kappa_j - kappa_l is part of
    # the key: a class's first pair gives the coefficient of all of them
    couplings = {code: pairs for code, pairs in index.pair_classes.items()
                 if code != 0}
    coeff = dict(zip(couplings, _pair_coefficients(
        phase_set.vectors, lam, mu, kernel,
        [pairs[0] for pairs in couplings.values()])))
    sums, ids = [], {}

    def sum_id(code: int, level: int) -> int:
        if (code, level) not in ids:
            if (-code, level) in ids:
                entry = ("conj", ids[-code, level])
            elif level == 1:
                entry = ("pairs", index.pairs(code))
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
        tuple(couplings[code] for code in order),
        tuple(sums[kept[code]][0] != "conj" and -code in kept
              for code in order),
        len(coeff) - len(kept))


def _pair_coefficients(vectors, lam: float, mu: float,
                       kernel: _kernels.KernelSpec, pairs) -> list:
    """mu + lam*Khat(vectors[j] - vectors[l]) for each (j, l) of pairs, j != l."""
    j, l = np.array(pairs, dtype=int).reshape(-1, 2).T
    vectors = np.array(vectors, dtype=float)
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


@lru_cache(maxsize=32)
def _program(plan: _Plan, count: int, lam: float, mu: float) -> tuple:
    """(count, size, steps): the interaction term of plan as the steps the
    rhs takes, in order, on the rows of a table; _program_rhs runs them on
    grid fields, _scan_source writes them out as statements on scalars.

    Row j < count is mode v_j, row count + j its conjugate w_j and row
    2 count + j its term o_j before the factor -i weight.  Then come x, the
    coupled class sum in use, t, the sum of its conjugate class, taken from
    x before x is scaled (so nothing relies on Khat being exactly even),
    common = lam E(s) + mu s, the factor of every mode, and a row for each
    sum of the plan below level nu and for the (0, 0) class sum s (real:
    the class is closed under conjugation).  The last of the size rows from
    count on is a scratch row, and the row after them holds mu.  lam is a
    complex scalar, so common needs no cast in its products with the modes.

    A step is ("conjugates", bs), w_b = conj(v_b) for each mode b of bs;
    ("=" or "+=", ((target, a, b), ...)), target = or += a * b in turn;
    ("*=", target, name, value), the value bound as name in the scan;
    ("conj", target, source); or ("E", target, source), target =
    lam E(source.real).
    """
    v, w, o = range(count), range(count, 2 * count), range(2 * count, 3 * count)
    x, t, common = range(3 * count, 3 * count + 3)
    s = {sid: common + 1 + i
         for i, sid in enumerate(plan.lower + (plan.common,))}
    size = 2 * count + 4 + len(s)  # w, o, x, t, common, s and scratch
    steps = [("conjugates", tuple(sorted(
        {b for kind, terms in plan.sums if kind == "pairs" for _, b in terms})))]

    def accumulate(target, factors, fresh=True):
        if fresh:
            steps.append(("=", ((target, *factors[0]),)))
            factors = factors[1:]
        if factors:
            steps.append(("+=", tuple([(target, a, b) for a, b in factors])))

    def form(target, entry):
        kind, terms = entry
        if kind == "conj":
            steps.append(("conj", target, s[terms]))
        elif kind == "pairs":
            accumulate(target, [(v[a], w[b]) for a, b in terms])
        else:
            twice, once = terms
            if twice:
                accumulate(target, [(s[a], s[b]) for a, b in twice])
                steps.append(("*=", target, "2.0", 2.0))
            accumulate(target, [(s[a], s[b]) for a, b in once], not twice)

    for sid in plan.lower:
        form(s[sid], plan.sums[sid])
    form(s[plan.common], plan.sums[plan.common])
    mu_row = count + size
    if lam == 0.0:
        accumulate(common, [(mu_row, s[plan.common])])
    else:
        steps.append(("E", common, s[plan.common]))
        if mu != 0.0:
            accumulate(common, [(mu_row, s[plan.common])], fresh=False)
    steps.append(("=", tuple((o[j], common, v[j]) for j in range(count))))
    for i, ((sid, c), pairs, partner) in enumerate(zip(
            plan.coefficients, plan.couplings, plan.partners)):
        row = t if plan.sums[sid][0] == "conj" else x
        if row == x:
            form(x, plan.sums[sid])
        if partner:
            steps.append(("conj", t, x))
        steps.append(("*=", row, f"k{i}", c))
        steps.append(("+=", tuple([(o[j], row, v[l]) for j, l in pairs])))
    return count, size, tuple(steps)


def _program_rhs(program: tuple, params: TransportParams, grid: SpectralGrid):
    """stack -> the interaction term on a stack of grid fields, one per mode:
    the steps of program run on the rows of one workspace, allocated here,
    each product as one ufunc call with out= its row.  The mode rows are
    the input's own rows, and E is the kernel's Fourier multiplier.  The
    result is a fresh array, -i weight times the o rows, so it shares no
    memory with the input, the workspace or an earlier result."""
    count, size, steps = program
    work = np.empty((size,) + grid.shape, dtype=np.complex128)
    table = [*work, params.mu]
    conj, terms, scratch = work[:count], work[count:2 * count], work[-1]
    lam, scale = complex(params.lam), -1j * params.weight
    multiply, add = np.multiply, np.add

    def rhs(stack):
        r = [*stack, *table]
        for step in steps:
            op = step[0]
            if op == "+=":
                for target, a, b in step[1]:
                    multiply(r[a], r[b], scratch)
                    add(r[target], scratch, r[target])
            elif op == "=":
                for target, a, b in step[1]:
                    multiply(r[a], r[b], r[target])
            elif op == "*=":
                multiply(r[step[1]], step[3], r[step[1]])
            elif op == "conjugates":  # of every mode, in one call
                np.conjugate(stack, conj)
            elif op == "conj":
                np.conjugate(r[step[2]], r[step[1]])
            else:  # "E"
                multiply(lam, _kernels.apply_raw(params.kernel, grid,
                                                 r[step[2]].real), r[step[1]])
        return multiply(scale, terms)
    return rhs


def _interaction(phase_set: PhaseSet, params: TransportParams,
                 grid: SpectralGrid):
    """_program_rhs of the model's program on grid, with its own workspace."""
    return _program_rhs(
        _program(_plan(phase_set, params.lam, params.mu, params.kernel),
                 len(phase_set), params.lam, params.mu), params, grid)


def _scan_source(plan: _Plan, count: int, lam: float, mu: float) -> str:
    """The source of bind(k0, ..., lam, mu, e0, scale) -> (rhs, loop), the
    interaction term and its RK4 steps on spatially constant profiles.

    rhs(r0, ..., r{count-1}) takes one complex value per mode, runs the
    steps of _program as statements on locals named for their rows (r{i}
    for row i), with E acting on a constant as its symbol's zero-mode value
    e0, and returns the term as a tuple.  loop(steps, h, values) takes one
    step of _rk4's stages per item of steps.  Each number of the model is a
    parameter of bind, bound as the Python object the grid code uses: a
    literal need not read back as that value (repr(-1j) is '-1j', whose
    real part reads back as -0.0, not +0.0).
    """
    templates = {"*=": "r{} *= {}", "conj": "r{} = r{}.conjugate()",
                 "E": "r{} = lam * (e0 * r{}.real)"}
    _, size, steps = _program(plan, count, lam, mu)
    lines = [f"r{count + size} = mu"]
    for op, *args in steps:
        if op in ("=", "+="):
            lines += [f"r{target} {op} r{a} * r{b}" for target, a, b in args[0]]
        elif op == "conjugates":
            lines += [f"r{count + b} = r{b}.conjugate()" for b in args[0]]
        else:
            lines.append(templates[op].format(*args))

    def tup(template):
        return ", ".join(template.format(j=j) for j in range(count)) + ","

    coefficients = "".join(f"k{i}, " for i in range(len(plan.coefficients)))
    return "\n".join([
        f"def bind({coefficients}lam, mu, e0, scale):",
        f"    def rhs({tup('r{j}')}):",
        *(f"        {line}" for line in lines),
        "        return " + ", ".join(f"scale * r{2 * count + j}"
                                     for j in range(count)) + ",",
        "    def loop(steps, h, values):",
        f"        {tup('v{j}')} = values",
        "        half = 0.5 * h",
        "        sixth = h / 6.0",
        "        for _ in steps:",
        f"            {tup('p{j}')} = rhs({tup('v{j}')})",
        f"            {tup('q{j}')} = rhs({tup('v{j} + half * p{j}')})",
        f"            {tup('u{j}')} = rhs({tup('v{j} + half * q{j}')})",
        f"            {tup('z{j}')} = rhs({tup('v{j} + h * u{j}')})",
        *(f"            v{j} = v{j} + sixth * (p{j} + 2.0 * q{j} + 2.0 * u{j}"
          f" + z{j})" for j in range(count)),
        f"        return {tup('v{j}')}",
        "    return rhs, loop",
        ""])


@lru_cache(maxsize=32)
def _scan_binder(phase_set: PhaseSet, lam: float, mu: float,
                 kernel: _kernels.KernelSpec):
    """bind of _scan_source for _plan(phase_set, lam, mu, kernel), compiled
    once.  The source is built from the plan's indices alone: it holds no
    string and calls nothing but rhs and conjugate, so no text of a config
    reaches compile()."""
    plan = _plan(phase_set, lam, mu, kernel)
    namespace = {}
    exec(compile(_scan_source(plan, len(phase_set), lam, mu),
                 "<constant scan>", "exec"), {"__builtins__": {}}, namespace)
    return namespace["bind"]


def _constant_scan(phase_set: PhaseSet, params: TransportParams):
    """(rhs, loop) of _scan_source for a model, its numbers bound."""
    plan = _plan(phase_set, params.lam, params.mu, params.kernel)
    bind = _scan_binder(phase_set, params.lam, params.mu, params.kernel)
    return bind(*(c for _, c in plan.coefficients), complex(params.lam),
                params.mu, _kernels.zero_mode_value(params.kernel),
                -1j * params.weight)


def transport_rhs(state: ProfileSet) -> list:
    """Interaction part of d a_j / dt (advection excluded; handled by splitting)."""
    rhs = _interaction(state.phase_set, state.params, state.grid)
    return [GridFunction(state.grid, r) for r in rhs(state.stack())]


# -- evolution ----------------------------------------------------------------


def _advection_phases(state: ProfileSet, dt: float) -> np.ndarray:
    """exp(-i dt v_j . xi) for each mode from 1-D exponentials, stacked;
    advection by dt in Fourier.  Per axis, one exp of the outer product of
    the modes' coefficients with xi, then one broadcast product over the
    axes: each sample is the product grid.separable forms for one mode, at a
    third of the cost, so evolve_profiles can build the phases twice."""
    grid, vectors = state.grid, state.phase_set.vectors
    xi = grid.frequency_axis()
    per_axis = [np.exp(np.multiply.outer([-1j * dt * eta * k for k in ks], xi))
                for eta, ks in zip(state.phase_set.signature.etas, zip(*vectors))]
    return reduce(np.multiply, [
        p.reshape((len(vectors),) + (1,) * a + (-1,) + (1,) * (grid.dim - 1 - a))
        for a, p in enumerate(per_axis)])


def _steps(span: float, dt: float) -> tuple:
    """(n, span / n) with n = max(1, round(span / dt)): the steps covering span."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if span < 0:
        raise ValueError("t_end must not precede the current state time")
    n_steps = max(1, round(span / dt))
    return n_steps, span / n_steps


def _strang(values, half, n_steps: int, substep) -> np.ndarray:
    """n_steps Strang steps of a stack of fields along axis 0: the half
    linear flow, then per step values = substep(values) and the full flow
    (half on the last step).  The flow multiplies the transform over every
    axis but the first by half or full = half * half.  values (the stack or
    a sequence of its fields) is copied once, and every flow runs in place
    on the copy, so the caller's values are never written; substep may work
    in place.  half may be a function that builds the phase afresh: it runs
    for the first flow and the last, so only full is held through the loop."""
    build = half if callable(half) else half.copy
    values = np.array(values)
    axes = tuple(range(1, values.ndim))

    def flow(values, phase):
        values = scipy.fft.fftn(values, axes=axes, overwrite_x=True, workers=1)
        values *= phase
        return scipy.fft.ifftn(values, axes=axes, overwrite_x=True, workers=1)

    full = build()
    values = flow(values, full)
    full *= full  # the half phase, squared in place
    for _ in range(n_steps - 1):
        values = flow(substep(values), full)
    del full
    return flow(substep(values), build())


def _rk4(rhs, dt: float):
    """One classical RK4 step of d stack / dt = rhs(stack), as a function
    that updates the stack in place and returns it.  The stages are summed
    as they come, acc = k1, acc += 2.0 k2, acc += 2.0 k3, acc += k4: the
    order of k1 + 2.0 k2 + 2.0 k3 + k4, so the same bits.  A step holds the
    stack, the sum, one stage and one stage input; rhs must return a fresh
    array, since the sum and the stages are written in place."""
    half = 0.5 * dt

    def step(stack):
        acc = rhs(stack)
        arg = np.multiply(half, acc)
        for h in (half, dt):
            k = rhs(np.add(stack, arg, out=arg))
            np.multiply(h, k, out=arg)
            acc += np.multiply(2.0, k, out=k)
            del k  # not held while the next stage is formed
        acc += rhs(np.add(stack, arg, out=arg))
        stack += np.multiply(dt / 6.0, acc, out=acc)
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
    stack = _strang([a.values for a in state.amplitudes],
                    lambda: _advection_phases(state, 0.5 * dt), n_steps,
                    _rk4(rhs, dt))
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
    one _rk4 forms, on Python complex numbers in code compiled for the
    coupling plan (_scan_source): every stage operation adds or scales by a
    real number, so it rounds as numpy does.
    """
    values = [complex(v) for v in values]
    if len(values) != len(phase_set):
        raise ValueError(f"{len(values)} values for "
                         f"{len(phase_set)} phase-set modes")
    _, loop = _constant_scan(phase_set, params)
    now = 0.0
    for t in times:
        span = float(t) - now  # numpy scalars would turn every value into one
        n_steps, h = _steps(span, dt)
        if span != 0:
            values = loop(range(n_steps), h, values)
        now += span  # the clock of ProfileSet.time
        yield np.array(values)


# -- derived quantities ---------------------------------------------------------


def zero_mode_rate(kappas, alphas, params: TransportParams,
                   signature: Signature | None = None) -> GridFunction:
    """Instantaneous creation rate of the zero mode from three seed modes.

    The seeds resonate onto 0 (the rectangle 0, kappa_1, kappa_2, kappa_3
    under the signature), and the rate at t=0 sums the seeds' resonant
    (2 nu + 1)-tuples onto 0 — for nu = 1 this reduces to the closed form
    -i * weight * (2 mu + lam (Khat(kappa_1) + Khat(kappa_3))) a_1 conj(a_2) a_3.
    Computed without any grid transform, so it can cross-check the evolved
    dynamics.
    """
    kappas = [as_wave_vector(k) for k in kappas]
    alphas = list(alphas)
    if len(kappas) != 3 or len(alphas) != 3:
        raise ValueError("expected exactly three seed modes")
    origin = (0,) * len(kappas[0])
    if signature is None:
        signature = Signature.elliptic(len(origin))
    if origin in kappas or len(set(kappas)) != 3:
        raise ValueError("seed modes must be distinct and nonzero")
    if not is_resonant(signature, 1, kappas, origin):
        raise ValueError("seed modes do not interact onto the zero mode")

    seeded = [t for t in itertools.product(range(3), repeat=2 * params.nu + 1)
              if is_resonant(signature, params.nu, [kappas[i] for i in t], origin)]
    coeffs = _pair_coefficients(kappas + [origin], params.lam, params.mu,
                                params.kernel, [(3, t[-1]) for t in seeded])
    grid = alphas[0].grid
    acc = np.zeros(grid.shape, dtype=np.complex128)
    stack = np.stack([a.values for a in alphas])
    for c, indices in zip(coeffs, seeded):
        acc += c * _product(stack, indices)
    return GridFunction(grid, (-1j * params.weight) * acc)
