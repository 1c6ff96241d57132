"""Closed-form references that the tests check the package against.

Nothing in wnlgo calls these; they exist to cross-check it, each written
in a different way from the code it checks: the rectangle and
parallelogram laws against the alternating-sum resonance test, the exact
Fourier shift against the Strang advection, the profiles' weighted
Wiener-algebra norms against closed-form Gaussian values, the zero-mode
rate read off a closed phase set against the rate enumerated over the seeds,
the split-step run one field at a time against the stacked evolution,
the advection phases built mode by mode against the batched build,
E's symbol sampled at each box's own frequencies against the one table of
integer lattice points per grid shape, E through the complex transforms of
the grid against the real-FFT apply, and the closure and coupling plan
with a row-wise unique, an eager pair sort and a per-pair loop against the
ones built from one grouping of the pair codes.  assert_same_bits is the
comparison that the bit-identity tests share.
A plain module, not collected by pytest; test files import it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count as _count, product as _iproduct

import numpy as np
import scipy.fft

from wnlgo import GridFunction, PhaseSet, ProfileSet, Signature, \
    SpectralGrid, TransportParams, apply_raw, as_wave_vector, \
    close_phase_set, is_resonant, resonant_tuples
from wnlgo.kernels import symbol, zero_mode_value
from wnlgo.resonance import PrefixIndex
from wnlgo.solver import _free_phase
from wnlgo.transport import _pair_coefficients, _Plan, _product


def from_callable(grid: SpectralGrid, fn) -> GridFunction:
    return GridFunction(grid, fn(*grid.mesh()) * np.ones(grid.shape))


def rectangle_oracle(kappas, target) -> bool:
    """Geometric test equivalent to is_resonant for nu=1, all-plus signature.

    (kappa_k, kappa_l, kappa_m) hits kappa_j exactly when the four points are
    the corners of a (possibly degenerate) rectangle with kappa_l opposite
    kappa_j: the diagonals share a midpoint and the sides at the kappa_l
    corner are orthogonal.  Deliberately a different formulation from the
    alternating-sum test, so the two can cross-check each other.
    """
    k, l, m = (as_wave_vector(v) for v in kappas)
    j = as_wave_vector(target)
    if any(len(v) != len(j) for v in (k, l, m)):
        raise ValueError("wave vector dimension mismatch")
    if tuple(a + b for a, b in zip(k, m)) != tuple(a + b for a, b in zip(j, l)):
        return False
    dot = sum((a - b) * (c - b) for a, b, c in zip(k, l, m))
    return dot == 0


def parallelogram_oracle(kappas, target) -> bool:
    """Geometric test equivalent to is_resonant for nu=1, signature (-1,+1).

    After translating everything by -target (the conditions are translation
    invariant), the tuple resonates exactly when kappa'_l = kappa'_k +
    kappa'_m and the translated components satisfy p'_k p'_m == q'_k q'_m.
    Geometrically: a parallelogram whose corners pair across the first
    bisector.
    """
    k, l, m = (as_wave_vector(v) for v in kappas)
    j = as_wave_vector(target)
    if not all(len(v) == 2 for v in (k, l, m, j)):
        raise ValueError("hyperbolic oracle is two-dimensional")
    pk, qk = k[0] - j[0], k[1] - j[1]
    pl, ql = l[0] - j[0], l[1] - j[1]
    pm, qm = m[0] - j[0], m[1] - j[1]
    if (pl, ql) != (pk + pm, qk + qm):
        return False
    return pk * pm == qk * qm


def shift_in_fourier(f: GridFunction, velocity, t: float) -> GridFunction:
    """Exact translation f(x - v t) for band-limited f.

    Multiplies the coefficient at frequency xi by exp(-i t v.xi); for t = 0
    or a full box period the field is returned unchanged up to round-off.
    """
    xi = f.grid.frequency_axis()
    dot = f.grid.separable([v * xi for v in np.asarray(velocity, dtype=float)])
    coeffs = f.grid.forward(f.values) * np.exp(-1j * t * dot)
    return GridFunction(f.grid, f.grid.inverse(coeffs))


@dataclass(frozen=True)
class XNorms:
    """Summed Fourier l1+l2 amplitude norms, plain and weighted."""

    x_norm: float
    xs_norms: dict


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


def reference_zero_mode_rate(kappas, alphas, params: TransportParams,
                             signature: Signature | None = None) -> GridFunction:
    """The zero-mode creation rate from the phase set the seeds close to.

    Closes kappas for params.nu in their own box, takes every resonant tuple
    onto the zero mode from resonant_tuples, keeps those whose entries are
    all seeds, and sums their products with the coefficients
    mu + lam*Khat(0 - kappa_last), in the order resonant_tuples lists them.
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
    seeded = [t for t in resonant_tuples(ps, j0) if max(t) < 3]
    coeffs = _pair_coefficients(ps.vectors, params.lam, params.mu,
                                params.kernel, [(j0, t[-1]) for t in seeded])
    for c, indices in zip(coeffs, seeded):
        acc += c * _product(stack, indices)
    return GridFunction(grid, (-1j * params.weight) * acc)


def evolve_one_at_a_time(fields, t_end: float, dt: float) -> list:
    """The values of each field evolved alone to t_end: the split-step loop
    that solver.evolve_fields runs on a stack, written for one field, with
    its transforms over all the field's axes and E on that field's grid.
    Every operation is the stacked loop's, in its order, on one field."""
    return [_evolve_alone(f, t_end, dt) for f in fields]


def _evolve_alone(field, t_end: float, dt: float) -> np.ndarray:
    span = t_end - field.time
    if span == 0:
        return field.values.values
    n_steps = max(1, round(abs(span) / dt))
    dt = span / n_steps
    p, grid = field.params, field.grid
    half = _free_phase(grid, p.signature, 0.25 * p.eps * dt)
    full = half * half
    angle = -0.5 * dt * p.eps ** (p.j_exponent - 1.0)

    def flow(u, phase):
        u = scipy.fft.fftn(u, workers=1)
        u *= phase
        return scipy.fft.ifftn(u, overwrite_x=True, workers=1)

    u = flow(field.values.values, half)
    z = np.ones(grid.shape, dtype=np.complex128)
    for step in range(n_steps):
        density = u.real ** 2 + u.imag ** 2
        if p.nu > 1:
            density **= p.nu
        if p.lam != 0.0 and p.kernel.kind != "zero":
            theta = apply_raw(p.kernel, grid, density)
            theta *= p.lam * angle
            if p.mu != 0.0:
                theta += density * (p.mu * angle)
        else:
            theta = density * (p.mu * angle)
        z.imag = np.tan(theta)
        u *= z
        u /= np.conjugate(z)
        u = flow(u, full if step < n_steps - 1 else half)
    return u


def advection_phases_per_mode(state: ProfileSet, dt: float) -> np.ndarray:
    """transport._advection_phases as one grid.separable product per mode:
    exp(-i dt eta_a k_a xi) along each axis a, multiplied out mode by mode."""
    xi = state.grid.frequency_axis()
    etas = state.phase_set.signature.etas
    return np.stack([
        state.grid.separable([np.exp((-1j * dt * eta * k) * xi)
                              for eta, k in zip(etas, kappa)], np.multiply)
        for kappa in state.phase_set.vectors])


def assert_same_bits(got, expect):
    """Equal complex arrays whose zeros also carry the same signs."""
    got, expect = np.asarray(got), np.asarray(expect)
    assert np.array_equal(got, expect)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(expect)))


def frequency_multiplier(kernel, grid: SpectralGrid) -> np.ndarray:
    """Khat at the physical frequencies pi k / L of grid (FFT order), with
    the zero mode fixed: the multiplier of E sampled on this box alone."""
    points = np.stack([m.ravel() for m in grid.frequency_mesh()], axis=-1)
    out = np.empty(grid.size)
    out[0] = zero_mode_value(kernel)
    out[1:] = symbol(kernel, points[1:])
    return out.reshape(grid.shape)


def even_part(full: np.ndarray) -> np.ndarray:
    """The even part (M(k) + M(-k)) / 2 of a multiplier table in FFT order,
    with -k taken index by index modulo n: for a symbol even in floating
    point, M itself except at the Nyquist frequencies the lattice maps to
    themselves."""
    mirror = full[np.ix_(*[-np.arange(n) % n for n in full.shape])]
    return 0.5 * (full + mirror)


def half_spectrum(full: np.ndarray) -> np.ndarray:
    """even_part of a multiplier table on the rfftn half spectrum."""
    return even_part(full)[..., :full.shape[-1] // 2 + 1]


def reference_apply(kernel, f: GridFunction) -> GridFunction:
    """E(f) on the complex transforms of f's grid: forward, times the even
    part of frequency_multiplier, then inverse."""
    grid = f.grid
    multiplier = even_part(frequency_multiplier(kernel, grid))
    return GridFunction(grid, grid.inverse(multiplier * grid.forward(f.values)))


class EagerPrefixIndex(PrefixIndex):
    """The prefix index with its pair sort made at construction, pairs()
    looked up by searchsorted in it and targets() made unique row-wise by
    np.unique(axis=0)."""

    def __init__(self, vectors, signature: Signature, nu: int):
        super().__init__(vectors, signature, nu)
        pairs = (self.codes[:, None] - self.codes[None, :]).ravel()
        self._pair_order = np.argsort(pairs, kind="stable")
        self._sorted_pairs = pairs[self._pair_order]

    def targets(self) -> np.ndarray:
        codes, half, digits = self.levels[-1], self.radix // 2, []
        for _ in range(self.vectors.shape[1] + 1):
            digits.append((codes + half) % self.radix - half)
            codes = (codes - digits[-1]) // self.radix
        lin, quad = np.stack(digits[:-1], axis=1), digits[-1]
        hits = []
        for kappa, q in zip(self.vectors, self.quads):
            t = lin + kappa
            hits.append(t[(self.etas * t * t).sum(axis=1) == quad + q])
        return np.unique(np.concatenate(hits), axis=0)

    def pairs(self, code: int) -> list:
        lo, hi = np.searchsorted(self._sorted_pairs, (code, code + 1))
        return [divmod(int(i), len(self.vectors))
                for i in self._pair_order[lo:hi]]


def reference_closure(phi0, signature: Signature, nu: int,
                      max_generations: int = 8,
                      box_radius: int = 0) -> PhaseSet:
    """close_phase_set on a fresh EagerPrefixIndex per generation, with no
    index handed to the result (valid arguments only)."""
    vectors = [as_wave_vector(k) for k in phi0]
    origin_count, known, truncated_by_box = len(vectors), set(vectors), False
    for generations in _count():
        targets = EagerPrefixIndex(vectors, signature, nu).targets()
        inside = np.abs(targets).max(axis=1) <= box_radius
        truncated_by_box = truncated_by_box or not inside.all()
        fresh = sorted(set(map(tuple, targets[inside].tolist())) - known)
        if not fresh or generations >= max_generations:
            return PhaseSet(signature.dim, signature, nu, tuple(vectors),
                            origin_count, truncated_by_box, bool(fresh),
                            generations)
        vectors.extend(fresh)
        known.update(fresh)


def reference_plan(phase_set: PhaseSet, lam: float, mu: float,
                   kernel) -> _Plan:
    """The coupling plan with its couplings grouped by a loop over every
    (j, l), j != l, and each pair class looked up in an EagerPrefixIndex."""
    index = EagerPrefixIndex(phase_set.vectors, phase_set.signature,
                             phase_set.nu)
    codes = (index.codes[:, None] - index.codes).tolist()
    couplings = {}
    for j, row in enumerate(codes):
        for l, code in enumerate(row):
            if l != j:
                couplings.setdefault(code, []).append((j, l))
    coeff = dict(zip(couplings, _pair_coefficients(
        phase_set.vectors, lam, mu, kernel,
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
                symmetric = level == 2
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
    keys = tuple(ids)
    return _Plan(
        tuple(sums), keys,
        tuple(i for i, (_, level) in enumerate(keys) if level < nu), common,
        tuple((kept[code], coeff[code]) for code in order),
        tuple(tuple(couplings[code]) for code in order),
        tuple(sums[kept[code]][0] != "conj" and -code in kept
              for code in order),
        len(coeff) - len(kept))
