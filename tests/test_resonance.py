import itertools
import tracemalloc

import numpy as np
import pytest

from wnlgo import Signature, close_phase_set, is_resonant, resonant_tuples
from wnlgo import resonance

from oracles import EagerPrefixIndex, parallelogram_oracle, \
    reference_closure, rectangle_oracle

ELLIPTIC = Signature.elliptic(2)
HYPERBOLIC = Signature.from_string("-+")
PHI0 = ((1, 0), (1, 1), (0, 1))


def test_signature_parsing():
    assert Signature.from_string("++").etas == (1, 1)
    assert Signature.from_string("-+").etas == (-1, 1)
    assert Signature.elliptic(3).etas == (1, 1, 1)
    with pytest.raises(ValueError):
        Signature.from_string("+0")
    assert HYPERBOLIC.quad((2, -1)) == -3
    assert ELLIPTIC.quad((2, -1)) == 5


def test_rectangle_triple_is_resonant():
    assert is_resonant(ELLIPTIC, 1, PHI0, (0, 0))
    # reversal hits the same target
    assert is_resonant(ELLIPTIC, 1, PHI0[::-1], (0, 0))
    # breaking the quadratic matching kills it
    assert not is_resonant(ELLIPTIC, 1, ((1, 0), (1, 1), (0, 2)), (0, 1))


def test_signature_changes_the_answer():
    kappas = ((2, 1), (3, 3), (1, 2))
    assert is_resonant(HYPERBOLIC, 1, kappas, (0, 0))
    assert not is_resonant(ELLIPTIC, 1, kappas, (0, 0))


def test_null_direction_chain():
    # with one negative eta, vectors along the light cone have Q = 0 and
    # the zero mode regenerates further modes
    assert is_resonant(HYPERBOLIC, 1, ((0, 0), (1, 1), (0, 0)), (-1, -1))
    assert not is_resonant(ELLIPTIC, 1, ((0, 0), (1, 1), (0, 0)), (-1, -1))


def test_translation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        kappas = [tuple(v) for v in rng.integers(-4, 5, size=(3, 2))]
        target = tuple(np.array(kappas[0]) - kappas[1] + kappas[2])
        shift = rng.integers(-3, 4, size=2)
        shifted = [tuple(np.array(k) + shift) for k in kappas]
        t_shifted = tuple(np.array(target) + shift)
        for sig in (ELLIPTIC, HYPERBOLIC):
            assert is_resonant(sig, 1, kappas, target) == \
                is_resonant(sig, 1, shifted, t_shifted)


def test_pair_insertion_keeps_resonance():
    # nu=2: inserting a repeated mode (x, x) into a resonant triple keeps the
    # alternating sums intact
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = tuple(rng.integers(-5, 6, size=2))
        kappas = (PHI0[0], PHI0[1], PHI0[2], x, x)
        assert is_resonant(ELLIPTIC, 2, kappas, (0, 0))
        assert is_resonant(HYPERBOLIC, 2, kappas, (0, 0))


def test_is_resonant_validates_arity():
    with pytest.raises(ValueError):
        is_resonant(ELLIPTIC, 1, ((1, 0), (0, 1)), (1, 1))
    with pytest.raises(ValueError):
        is_resonant(ELLIPTIC, 2, PHI0, (0, 0))


class TestOracles:
    def test_rectangle_matches_direct_small_radius(self):
        vals = range(-2, 3)
        for k1 in itertools.product(vals, vals):
            for k2 in itertools.product(vals, vals):
                for k3 in itertools.product(vals, vals):
                    target = (k1[0] - k2[0] + k3[0], k1[1] - k2[1] + k3[1])
                    assert rectangle_oracle((k1, k2, k3), target) == \
                        is_resonant(ELLIPTIC, 1, (k1, k2, k3), target)

    def test_parallelogram_matches_direct_random(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            kappas = [tuple(v) for v in rng.integers(-6, 7, size=(3, 2))]
            target = tuple(np.array(kappas[0]) - kappas[1] + kappas[2])
            assert parallelogram_oracle(kappas, target) == \
                is_resonant(HYPERBOLIC, 1, kappas, target)

    def test_oracles_reject_off_lattice_targets(self):
        # targets that break the linear matching are never resonant
        assert not rectangle_oracle(PHI0, (1, 1))
        assert not parallelogram_oracle(PHI0, (1, 1))


class TestClosePhaseSet:
    def test_elliptic_key_example(self):
        ps = close_phase_set(PHI0, ELLIPTIC, 1, box_radius=4)
        assert ps.vectors == ((1, 0), (1, 1), (0, 1), (0, 0))
        assert ps.origin_count == 3
        assert ps.generations == 1
        assert not ps.truncated

    def test_elliptic_closure_is_fixed_point(self):
        ps = close_phase_set(PHI0, ELLIPTIC, 1, box_radius=4)
        again = close_phase_set(ps.vectors, ELLIPTIC, 1, box_radius=4)
        assert again.vectors == ps.vectors

    def test_hyperbolic_first_generation(self):
        ps = close_phase_set(PHI0, HYPERBOLIC, 1, max_generations=1,
                             box_radius=2)
        assert set(ps.vectors) == set(PHI0) | {(0, 0), (2, -1), (-1, 2)}
        assert ps.truncated  # more modes exist beyond one generation

    def test_hyperbolic_box2_closure(self):
        ps = close_phase_set(PHI0, HYPERBOLIC, 1, box_radius=2)
        assert ps.vectors == ((1, 0), (1, 1), (0, 1), (-1, 2), (0, 0),
                              (2, -1), (-1, -1), (2, 2), (-2, -2))
        assert ps.generations == 3
        assert ps.truncated_by_box

    def test_index_lookup(self):
        ps = close_phase_set(PHI0, ELLIPTIC, 1, box_radius=4)
        assert ps.index((0, 0)) == 3
        assert ps.index((1, 1)) == 1
        with pytest.raises(ValueError):
            ps.index((5, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            close_phase_set(((1, 0, 0),), ELLIPTIC, 1)


def brute_force_closure(phi0, signature, nu, box_radius, max_generations):
    """Closure by is_resonant over every (2 nu + 1)-tuple, one generation at
    a time: (vectors, generations, truncated_by_box, truncated_by_gens)."""
    vectors, generations, by_box = list(phi0), 0, False
    while True:
        reached = set()
        for kappas in itertools.product(vectors, repeat=2 * nu + 1):
            target = tuple(sum((-1) ** p * k[c] for p, k in enumerate(kappas))
                           for c in range(signature.dim))
            if is_resonant(signature, nu, kappas, target):
                reached.add(target)
        inside = {t for t in reached if max(map(abs, t)) <= box_radius}
        by_box = by_box or inside != reached
        fresh = sorted(inside - set(vectors))
        if not fresh or generations == max_generations:
            return tuple(vectors), generations, by_box, bool(fresh)
        vectors += fresh
        generations += 1


@pytest.mark.parametrize("signature,nu,box_radius,max_generations", [
    ("++", 1, 4, 8), ("-+", 1, 2, 8), ("-+", 1, 3, 1), ("-+", 1, 4, 2),
    ("++", 2, 2, 8), ("-+", 2, 2, 8), ("-+", 2, 3, 1)])
def test_closure_matches_brute_force(signature, nu, box_radius,
                                     max_generations):
    sig = Signature.from_string(signature)
    ps = close_phase_set(PHI0, sig, nu, max_generations=max_generations,
                         box_radius=box_radius)
    assert (ps.vectors, ps.generations, ps.truncated_by_box,
            ps.truncated_by_generations) == brute_force_closure(
                PHI0, sig, nu, box_radius, max_generations)


RECT_3D = ((1, 0, 0), (1, 1, 0), (0, 1, 0))
# (phi0, signature, nu, box_radius, max_generations, truncated by the box,
# by the generation limit)
REFERENCE_CASES = [
    (PHI0, "++", 1, 4, 8, False, False),
    (PHI0, "-+", 1, 16, 8, True, False),
    (PHI0, "-+", 1, 32, 8, True, False),
    (PHI0, "-+", 1, 32, 3, True, True),
    (PHI0, "-+", 1, 32, 2, False, True),
    (PHI0, "-+", 1, 8, 0, False, True),
    (PHI0, "++", 2, 4, 8, False, False),
    (PHI0, "-+", 2, 4, 8, True, False),
    (PHI0, "-+", 2, 3, 2, True, False),
    (PHI0, "-+", 2, 3, 1, True, True),
    (PHI0, "++", 3, 4, 8, False, False),
    (PHI0, "-+", 3, 3, 8, True, False),
    (PHI0, "-+", 3, 4, 1, True, True),
    (RECT_3D, "+++", 1, 4, 8, False, False),
    (RECT_3D, "-++", 1, 8, 8, True, False),
    (RECT_3D, "-++", 1, 3, 1, True, True),
    (RECT_3D, "-++", 2, 1, 8, True, False),
    (RECT_3D, "-++", 1, 6, 0, False, True)]


@pytest.mark.parametrize("phi0, signature, nu, box_radius, max_generations, "
                         "by_box, by_generations", REFERENCE_CASES)
def test_closure_equals_the_eager_reference(phi0, signature, nu, box_radius,
                                            max_generations, by_box,
                                            by_generations):
    sig = Signature.from_string(signature)
    ps = close_phase_set(phi0, sig, nu, max_generations=max_generations,
                         box_radius=box_radius)
    assert ps == reference_closure(phi0, sig, nu, max_generations, box_radius)
    assert (ps.truncated_by_box, ps.truncated_by_generations) \
        == (by_box, by_generations)


@pytest.mark.parametrize("nu, box_radius, max_generations",
                         [(1, 16, 8), (1, 8, 0), (2, 3, 2)])
def test_phase_set_keeps_the_closures_last_index(monkeypatch, nu, box_radius,
                                                 max_generations):
    built = []

    class Recorded(resonance.PrefixIndex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(resonance, "PrefixIndex", Recorded)
    ps = close_phase_set(PHI0, HYPERBOLIC, nu, max_generations=max_generations,
                         box_radius=box_radius)
    assert len(built) == ps.generations + 1
    assert ps.prefix_index is built[-1]
    assert ps.prefix_index.vectors.tolist() == [list(v) for v in ps.vectors]
    # the closure needs the level keys only, never the pair sort
    assert not any("pair_classes" in vars(index) for index in built)


@pytest.mark.parametrize("signature, nu", [("-+", 1), ("++", 2)])
def test_targets_are_the_sorted_resonant_targets(signature, nu):
    sig = Signature.from_string(signature)
    vectors = close_phase_set(PHI0, sig, nu, box_radius=3).vectors
    reached = set()
    for kappas in itertools.product(vectors, repeat=2 * nu + 1):
        t = tuple(sum((-1) ** p * k[c] for p, k in enumerate(kappas))
                  for c in range(2))
        if is_resonant(sig, nu, kappas, t):
            reached.add(t)
    targets = resonance.PrefixIndex(vectors, sig, nu).targets()
    assert targets.tolist() == sorted(map(list, reached))
    assert np.array_equal(targets,
                          EagerPrefixIndex(vectors, sig, nu).targets())


def test_closure_memory_is_bounded():
    # nu = 2 on the hyperbolic seeds, box radius 4 (17 modes): the prefix
    # classes times the modes, never every 5-tuple of the set
    tracemalloc.start()
    try:
        ps = close_phase_set(PHI0, HYPERBOLIC, 2, box_radius=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ps) == 17
    assert peak < 8 * 2 ** 20


class TestResonantTuples:
    def test_key_example_zero_target(self):
        ps = close_phase_set(PHI0, ELLIPTIC, 1, box_radius=4)
        tuples = resonant_tuples(ps, 3)
        assert tuples == [(0, 0, 3), (0, 1, 2), (1, 1, 3), (2, 1, 0),
                          (2, 2, 3), (3, 0, 0), (3, 1, 1), (3, 2, 2),
                          (3, 3, 3)]

    def test_key_example_first_mode(self):
        ps = close_phase_set(PHI0, ELLIPTIC, 1, box_radius=4)
        tuples = resonant_tuples(ps, 0)
        assert tuples == [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3),
                          (1, 1, 0), (1, 2, 3), (2, 2, 0), (3, 2, 1),
                          (3, 3, 0)]

    def test_quintic_matches_brute_force(self):
        ps = close_phase_set(PHI0, HYPERBOLIC, 2, box_radius=2)
        for j in (0, ps.index((0, 0))):
            expect = [t for t in itertools.product(range(len(ps)), repeat=5)
                      if is_resonant(HYPERBOLIC, 2, [ps.vectors[i] for i in t],
                                     ps.vectors[j])]
            assert resonant_tuples(ps, j) == expect

    def test_every_listed_tuple_is_resonant(self):
        ps = close_phase_set(PHI0, HYPERBOLIC, 1, box_radius=2)
        for j in range(len(ps.vectors)):
            for t in resonant_tuples(ps, j):
                kappas = [ps.vectors[i] for i in t]
                assert is_resonant(HYPERBOLIC, 1, kappas, ps.vectors[j])
