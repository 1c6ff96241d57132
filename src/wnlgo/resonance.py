"""Resonance combinatorics for characteristic wave vectors.

A (2 nu + 1)-tuple of wave vectors (kappa_{l_1}, ..., kappa_{l_{2nu+1}})
interacts resonantly onto a target kappa when both the alternating vector sum
and the alternating signed-square sum close:

    sum_k (-1)^{k+1} kappa_{l_k}          == kappa,
    sum_k (-1)^{k+1} Q(kappa_{l_k})       == Q(kappa),   Q(v) = sum_m eta_m v_m^2.

Everything in this module is exact integer arithmetic on Z^d; no floating
point enters any resonance decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def as_wave_vector(v) -> tuple:
    """Coerce to a tuple of exact Python ints, rejecting non-integers."""
    try:
        out = tuple(int(c) for c in v)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != tuple(v):
        raise ValueError(f"wave vectors must be integer lattice points, got {v!r}")
    return out


@dataclass(frozen=True)
class Signature:
    """The vector of signs eta in {-1,+1}^d defining the signed Laplacian."""

    etas: tuple

    def __post_init__(self):
        if not self.etas or any(e not in (-1, 1) for e in self.etas):
            raise ValueError(f"signature entries must be +-1, got {self.etas}")
        object.__setattr__(self, "etas", tuple(int(e) for e in self.etas))

    @classmethod
    def elliptic(cls, dim: int) -> "Signature":
        return cls((1,) * dim)

    @classmethod
    def from_string(cls, s: str) -> "Signature":
        """Parse e.g. '+-' into (+1, -1)."""
        table = {"+": 1, "-": -1}
        if not isinstance(s, str) or any(c not in table for c in s):
            raise ValueError(f"signature string must use only '+'/'-', got {s!r}")
        return cls(tuple(table[c] for c in s))

    @property
    def dim(self) -> int:
        return len(self.etas)

    def quad(self, kappa) -> int:
        """Q(kappa) = sum_m eta_m kappa_m^2 (exact)."""
        return sum(e * int(c) * int(c) for e, c in zip(self.etas, kappa))


def is_resonant(signature: Signature, nu: int, kappas, target) -> bool:
    """Exact test of the two resonance conditions for a (2 nu + 1)-tuple."""
    kappas = [as_wave_vector(k) for k in kappas]
    target = as_wave_vector(target)
    d = signature.dim
    if len(kappas) != 2 * nu + 1:
        raise ValueError(f"expected {2 * nu + 1} wave vectors, got {len(kappas)}")
    if any(len(k) != d for k in kappas) or len(target) != d:
        raise ValueError("wave vector dimension mismatch with signature")
    lin = tuple(
        sum((-1) ** idx * k[m] for idx, k in enumerate(kappas)) for m in range(d))
    if lin != target:
        return False
    quad = sum((-1) ** idx * signature.quad(k) for idx, k in enumerate(kappas))
    return quad == signature.quad(target)


@dataclass(frozen=True)
class PhaseSet:
    """A resonance-closed, ordered set of wave vectors.

    The first ``origin_count`` vectors are the seed set (data-carrying
    modes); generated vectors follow in generation order, lexicographically
    sorted within each generation, so indices are stable across runs.
    """

    dim: int
    signature: Signature
    nu: int
    vectors: tuple
    origin_count: int
    truncated_by_box: bool = False
    truncated_by_generations: bool = False
    generations: int = 0

    def __post_init__(self):
        if len(set(self.vectors)) != len(self.vectors):
            raise ValueError("phase set vectors must be distinct")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def truncated(self) -> bool:
        return self.truncated_by_box or self.truncated_by_generations

    def index(self, kappa) -> int:
        kappa = as_wave_vector(kappa)
        if kappa not in self.vectors:
            raise ValueError(f"{kappa} is not in the phase set")
        return self.vectors.index(kappa)

    @cached_property
    def prefix_index(self) -> "PrefixIndex":
        """The 2nu-prefix classes of this set, built on first use unless
        close_phase_set made the set (it keeps its last index)."""
        return PrefixIndex(self.vectors, self.signature, self.nu)


class PrefixIndex:
    """The 2nu-prefixes of a list of wave vectors, sorted into classes by key.

    A prefix (l_1, ..., l_{2nu}) has the key (sum_k (-1)^{k+1} kappa_{l_k},
    sum_k (-1)^{k+1} Q(kappa_{l_k})), so a (2nu+1)-tuple ending in l
    resonates onto kappa exactly when its prefix has the key
    (kappa - kappa_l, Q(kappa) - Q(kappa_l)).  A prefix is nu pairs
    (l_1, l_2), (l_3, l_4), ...: level 1 holds the pair keys, and level m the
    keys of m-pair prefixes, each a level m-1 key plus a pair key.

    Each key is packed into one int64 code, digit by digit in a balanced
    radix wide enough for every level-nu key, so the code of a sum of keys
    is the sum of their codes and no digit ever carries.  The level keys are
    built here; the pair classes behind pairs() (a count^2 sort) only on
    first use, since a closure needs just the levels.
    """

    def __init__(self, vectors, signature: Signature, nu: int):
        self.vectors = np.array(vectors, dtype=np.int64)
        self.etas = np.array(signature.etas, dtype=np.int64)
        self.quads = (self.etas * self.vectors ** 2).sum(axis=1)
        self.nu = nu
        digits = np.column_stack([self.vectors, self.quads])
        self.radix = 4 * nu * int(np.abs(digits).max()) + 1
        if self.radix ** digits.shape[1] >= 2 ** 62:
            raise ValueError("wave vectors too large for int64 resonance keys")
        self.codes = digits @ self.radix ** np.arange(digits.shape[1])
        self.levels = [np.unique(self.codes[:, None] - self.codes)]
        for _ in range(nu - 1):
            self.levels.append(
                np.unique(self.levels[-1][:, None] + self.levels[0]))

    def key(self, j: int, l: int) -> int:
        """Code of (kappa_j - kappa_l, Q(kappa_j) - Q(kappa_l))."""
        return int(self.codes[j] - self.codes[l])

    def targets(self) -> np.ndarray:
        """Every wave vector some resonant (2nu+1)-tuple reaches, unique rows.

        A level-nu key (L, q) and a last index l reach L + kappa_l exactly
        when Q(L + kappa_l) == q + Q(kappa_l); as Q(L + kappa) = Q(L) +
        2 B(L, kappa) + Q(kappa) with B(L, kappa) = sum_m eta_m L_m kappa_m,
        that is 2 B(L, kappa_l) == q - Q(L): one classes x d product per mode.
        """
        codes, half, digits = self.levels[-1], self.radix // 2, []
        for _ in range(self.vectors.shape[1] + 1):
            digits.append((codes + half) % self.radix - half)
            codes = (codes - digits[-1]) // self.radix
        lin, quad = np.stack(digits[:-1], axis=1), digits[-1]
        bilinear = self.etas * lin
        gap = quad - (bilinear * lin).sum(axis=1)
        hits = np.concatenate([lin[2 * (bilinear @ kappa) == gap] + kappa
                               for kappa in self.vectors])
        # one int64 code per row, most significant digit first: unique
        # codes are unique rows, in lexicographic order
        low = hits.min()
        width = int(hits.max() - low) + 1
        if width ** hits.shape[1] >= 2 ** 63:
            raise ValueError("wave vectors too large for int64 resonance keys")
        _, first = np.unique(
            (hits - low) @ width ** np.arange(hits.shape[1])[::-1],
            return_index=True)
        return hits[first]

    @cached_property
    def pair_classes(self) -> dict:
        """Pair code -> the index pairs (l_1, l_2) with that key, each class
        in lexicographic order and the classes in the order of their first
        pairs: one stable sort of the count^2 pair codes."""
        count = len(self.vectors)
        codes = (self.codes[:, None] - self.codes).ravel()  # key(j, l)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        bounds = np.append(starts, len(order)).tolist()
        pairs = list(zip(*(i.tolist() for i in np.divmod(order, count))))
        return {codes[bounds[g]].item(): tuple(pairs[bounds[g]:bounds[g + 1]])
                for g in np.argsort(order[starts]).tolist()}

    def pairs(self, code: int) -> tuple:
        """Index pairs (l_1, l_2) whose key is code, in lexicographic order."""
        return self.pair_classes.get(code, ())

    def terms(self, code: int, level: int) -> list:
        """(level m-1 code, pair code) splits of a level-m key, m >= 2."""
        rest = code - self.levels[0]
        keep = np.isin(rest, self.levels[level - 2], assume_unique=True)
        return list(zip(rest[keep].tolist(), self.levels[0][keep].tolist()))

    def prefixes(self, code: int, level: int | None = None) -> list:
        """Every prefix of `level` pairs (default nu) whose key is code."""
        level = self.nu if level is None else level
        if level == 1:
            return list(self.pairs(code))
        return [p + q for rest, k in self.terms(code, level)
                for p in self.prefixes(rest, level - 1) for q in self.pairs(k)]


def close_phase_set(phi0, signature: Signature, nu: int,
                    max_generations: int = 8, box_radius: int = 0) -> PhaseSet:
    """Grow phi0 to a fixed point under resonant interactions within a box.

    Each generation adds every target of a resonant (2 nu + 1)-tuple from the
    current set with sup-norm <= box_radius, and stops at a fixed point or
    after max_generations.  Truncation (by the box or by the generation
    limit) is recorded on the result, and the last generation's PrefixIndex,
    built on exactly the returned vectors, becomes its prefix_index.
    """
    if nu < 1:
        raise ValueError(f"nu must be a positive integer, got {nu}")
    if max_generations < 0:
        raise ValueError(f"max_generations must be >= 0, got {max_generations}")
    vectors = [as_wave_vector(k) for k in phi0]
    if not vectors:
        raise ValueError("phi0 must be nonempty")
    if len(set(vectors)) != len(vectors):
        raise ValueError("phi0 vectors must be distinct")
    d = signature.dim
    if any(len(v) != d for v in vectors):
        raise ValueError("wave vector dimension mismatch with signature")
    seed_radius = max(abs(c) for v in vectors for c in v)
    if box_radius < seed_radius:
        raise ValueError(
            f"box_radius {box_radius} smaller than seed sup-norm {seed_radius}")

    origin_count = len(vectors)
    known = set(vectors)
    truncated_by_box = False
    for generations in itertools.count():
        index = PrefixIndex(vectors, signature, nu)
        targets = index.targets()
        inside = np.abs(targets).max(axis=1) <= box_radius
        truncated_by_box = truncated_by_box or not inside.all()
        fresh = sorted(set(map(tuple, targets[inside].tolist())) - known)
        if not fresh or generations >= max_generations:
            phase_set = PhaseSet(d, signature, nu, tuple(vectors), origin_count,
                                 truncated_by_box, bool(fresh), generations)
            # the cached property's value: index was built on these vectors
            phase_set.__dict__["prefix_index"] = index
            return phase_set
        vectors.extend(fresh)
        known.update(fresh)


def resonant_tuples(phase_set: PhaseSet, target_index: int) -> list:
    """Exhaustive list of resonant index tuples onto one target.

    Read off the prefix index: the tuples ending in l are the prefixes of
    the class keyed (kappa_j - kappa_l, Q(kappa_j) - Q(kappa_l)), followed by
    l.  Output is the index tuples (l_1, ..., l_{2nu+1}) in lexicographic order.
    """
    count = len(phase_set)
    if not 0 <= target_index < count:
        raise ValueError(f"target index {target_index} out of range")
    index = phase_set.prefix_index
    return sorted(p + (l,) for l in range(count)
                  for p in index.prefixes(index.key(target_index, l)))
