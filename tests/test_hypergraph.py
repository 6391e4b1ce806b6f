"""Ordinal morphisms, calibrations, pushforwards and the monadic product."""

import itertools
import math
import random

import pytest

from hyperqudit import (
    CalibratedHypergraph,
    CycExponent,
    ExpFunc,
    OrdinalMorphism,
    apply_morphism,
    bell_hypergraph,
    calib_pushforward,
    exp_add,
    exp_pushforward,
    hypergraph_from_json,
    hypergraph_to_json,
    index_period,
    monadic_product,
    named_ring,
)
from hyperqudit.errors import DomainMismatch, SizeMismatch


def exponent_bounds(ring):
    """Per element, the number of values its generalized-exponent component takes."""
    return [sum(index_period(x)) for x in ring.elements]


def all_exponents(ring):
    """Every generalized exponent of the ring, as dense tuples."""
    for dense in itertools.product(*[range(b) for b in exponent_bounds(ring)]):
        yield CycExponent.from_dense(ring, dense)


def random_exponent(ring, rng, bounds):
    """Entry rng.randrange(N) of all_exponents(ring), N the product of the bounds.

    Decoded in mixed radix with the last component fastest, so it draws the
    same exponent as rng.choice(list(all_exponents(ring))) without listing
    them (choice and randrange consume the generator alike).
    """
    idx = rng.randrange(math.prod(bounds))
    dense = []
    for b in reversed(bounds):
        idx, digit = divmod(idx, b)
        dense.append(digit)
    return CycExponent.from_dense(ring, tuple(reversed(dense)))


def all_exp_funcs(ring, edge):
    """Every exponent function on the edge."""
    exps = list(all_exponents(ring))
    for pick in itertools.product(exps, repeat=len(edge)):
        yield ExpFunc.make(dict(zip(edge, pick)))


def random_calibrated(ring, l, rng, key_budget=3):
    edges = []
    for size in range(1, l + 1):
        edges.extend(itertools.combinations(range(l), size))
    rng.shuffle(edges)
    chosen = edges[: rng.randint(1, min(3, len(edges)))]
    bounds = exponent_bounds(ring)
    calib = {}
    for e in chosen:
        slot = {}
        for _ in range(rng.randint(1, key_budget)):
            w = ExpFunc.make({v: random_exponent(ring, rng, bounds) for v in e})
            slot[w] = rng.randrange(ring.char)
        calib[e] = slot
    return CalibratedHypergraph(ring, l, calib, edges=chosen)


class TestRandomCalibrated:
    @pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5"])
    def test_draw_matches_the_listed_choice(self, name):
        ring = named_ring(name)
        exps = list(all_exponents(ring))
        bounds = exponent_bounds(ring)
        for seed in range(6):
            listed, decoded = random.Random(seed), random.Random(seed)
            for _ in range(25):
                assert random_exponent(ring, decoded, bounds) == listed.choice(exps)
            assert decoded.random() == listed.random()

    @pytest.mark.parametrize("name", ["GR(4,2)", "F16"])
    def test_large_exponent_sets_return(self, name):
        ring = named_ring(name)
        assert math.prod(exponent_bounds(ring)) > 10 ** 8
        hg = random_calibrated(ring, 2, random.Random(3))
        assert hg.ring is ring and hg.l == 2 and hg.edges


class TestOrdinalMorphism:
    def test_identity_and_composition(self):
        f = OrdinalMorphism(2, 3, (2, 0))
        g = OrdinalMorphism(3, 2, (1, 1, 0))
        gf = g.after(f)
        assert gf.values == (0, 1)
        assert OrdinalMorphism.identity(3).after(f) == f

    def test_block_sum(self):
        f = OrdinalMorphism(1, 2, (1,))
        g = OrdinalMorphism(2, 1, (0, 0))
        assert f.block_sum(g).values == (1, 2, 2)

    def test_validation(self):
        with pytest.raises(SizeMismatch):
            OrdinalMorphism(2, 1, (0, 1))

    def test_from_values(self):
        f = OrdinalMorphism.from_values([2, 0], 3)
        assert (f.source_size, f.target_size) == (2, 3)
        assert f.is_injective() and not f.is_bijective()

    def test_unknown_json_kind(self, f2):
        doc = hypergraph_to_json(bell_hypergraph(0, 0))
        with pytest.raises(Exception):
            hypergraph_from_json(doc, "florps")


class TestExpPushforward:
    def test_injective_is_relabelling(self, f3):
        exps = list(all_exponents(f3))
        f = OrdinalMorphism(3, 3, (2, 0, 1))
        w = ExpFunc.make({0: exps[1], 2: exps[3]})
        pushed = exp_pushforward(f, (0, 2), w)
        assert pushed == ExpFunc.make({2: exps[1], 1: exps[3]})

    def test_constant_merge_over_f2(self, f2):
        first = CycExponent.from_dense(f2, (1, 0))
        f = OrdinalMorphism(2, 1, (0, 0))
        w = ExpFunc.make({0: first, 1: first})
        pushed = exp_pushforward(f, (0, 1), w)
        # (1,0) + (1,0) = (1,0): 1 +_0 1 = 1 and 0 +_1 0 = 0
        assert pushed == ExpFunc.make({0: first})

    def test_zero_maps_to_zero(self):
        f = OrdinalMorphism(2, 1, (0, 0))
        assert exp_pushforward(f, (0, 1), ExpFunc.zero()) == ExpFunc.zero()

    def test_domain_mismatch(self, f3):
        exps = list(all_exponents(f3))
        f = OrdinalMorphism(3, 3, (0, 1, 2))
        w = ExpFunc.make({1: exps[1]})
        with pytest.raises(DomainMismatch):
            exp_pushforward(f, (0, 2), w)

    def test_against_componentwise_sum(self, f2):
        f = OrdinalMorphism(3, 1, (0, 0, 0))
        for w in all_exp_funcs(f2, (0, 1, 2)):
            pushed = exp_pushforward(f, (0, 1, 2), w)
            total = CycExponent.zero(f2)
            for v in (0, 1, 2):
                total = exp_add(total, w.value(v, f2))
            assert pushed == ExpFunc.make({0: total})


class TestCalibPushforward:
    def test_bijective_transport(self, f2):
        hg = bell_hypergraph(1, 0)
        swap = OrdinalMorphism(2, 2, (1, 0))
        pushed = calib_pushforward(swap, hg)
        assert set(pushed) == {(0, 1)}
        first = CycExponent.from_dense(f2, (1, 0))
        assert pushed[(0, 1)][ExpFunc.make({1: first})] == 1  # a0 moved to vertex 1

    def test_double_sum_oracle_three_vertices(self, f2):
        # collapse [3] -> [2] merging vertices 0, 1; compare against the
        # full double sum over all exponent functions
        rng = random.Random(7)
        f = OrdinalMorphism(3, 2, (0, 0, 1))
        for _ in range(10):
            hg = random_calibrated(f2, 3, rng)
            pushed = calib_pushforward(f, hg)
            for Y in {f.image_edge(e) for e in hg.edges}:
                for v in all_exp_funcs(f2, Y):
                    expected = 0
                    for X in hg.edges:
                        if f.image_edge(X) != Y:
                            continue
                        for w in all_exp_funcs(f2, X):
                            if exp_pushforward(f, X, w) == v:
                                expected += hg.calib[X].get(w, 0)
                    expected %= f2.char
                    assert pushed[Y].get(v, 0) == expected

    def test_zero_calibration_stays_zero(self, f3):
        hg = CalibratedHypergraph(f3, 2, {}, edges=[(0, 1)])
        f = OrdinalMorphism(2, 1, (0, 0))
        pushed = calib_pushforward(f, hg)
        assert pushed == {(0,): {}}

    def test_bijection_preserves_value_multiset(self, f3):
        rng = random.Random(23)
        for _ in range(5):
            hg = random_calibrated(f3, 3, rng)
            perm = OrdinalMorphism(3, 3, tuple(rng.sample(range(3), 3)))
            pushed = calib_pushforward(perm, hg)
            before = sorted(
                sorted(vs.values()) for vs in hg.calib.values())
            after = sorted(
                sorted(vs.values()) for vs in pushed.values())
            assert before == after

    def test_colliding_values_add(self, f3):
        # two edges mapping onto the same image edge with equal pushed keys
        exps = list(all_exponents(f3))
        u = exps[1]
        f = OrdinalMorphism(3, 2, (0, 1, 1))
        calib = {
            (0, 1): {ExpFunc.make({0: u, 1: u}): 2},
            (0, 2): {ExpFunc.make({0: u, 2: u}): 2},
        }
        hg = CalibratedHypergraph(f3, 3, calib)
        pushed = calib_pushforward(f, hg)
        assert pushed[(0, 1)][ExpFunc.make({0: u, 1: u})] == (2 + 2) % 3


class TestApplyMorphism:
    def test_identity(self):
        hg = bell_hypergraph(1, 1)
        assert apply_morphism(OrdinalMorphism.identity(2), hg) == hg

    def test_symmetric_bell_fixed_by_swap(self):
        hg = bell_hypergraph(1, 1)
        swap = OrdinalMorphism(2, 2, (1, 0))
        assert apply_morphism(swap, hg) == hg

    def test_collapse_to_singleton(self, f2):
        hg = bell_hypergraph(0, 0)
        f = OrdinalMorphism(2, 1, (0, 0))
        image = apply_morphism(f, hg)
        assert image.edges == ((0,),)

    def test_size_mismatch(self):
        hg = bell_hypergraph(0, 0)
        with pytest.raises(SizeMismatch):
            apply_morphism(OrdinalMorphism.identity(3), hg)

    def test_functoriality(self):
        rng = random.Random(11)
        for name in ["F2", "F3"]:
            ring = named_ring(name)
            for _ in range(8):
                l = rng.randint(1, 3)
                m = rng.randint(1, 3)
                n = rng.randint(1, 3)
                f = OrdinalMorphism(l, m, tuple(rng.randrange(m) for _ in range(l)))
                g = OrdinalMorphism(m, n, tuple(rng.randrange(n) for _ in range(m)))
                hg = random_calibrated(ring, l, rng)
                assert apply_morphism(g.after(f), hg) == apply_morphism(g, apply_morphism(f, hg))

    def test_monadic_compatibility(self):
        rng = random.Random(13)
        ring = named_ring("F3")
        for _ in range(6):
            la, lb = rng.randint(1, 2), rng.randint(1, 2)
            ma, mb = rng.randint(1, 2), rng.randint(1, 2)
            f = OrdinalMorphism(la, ma, tuple(rng.randrange(ma) for _ in range(la)))
            g = OrdinalMorphism(lb, mb, tuple(rng.randrange(mb) for _ in range(lb)))
            a = random_calibrated(ring, la, rng)
            b = random_calibrated(ring, lb, rng)
            lhs = apply_morphism(f.block_sum(g), monadic_product(a, b))
            rhs = monadic_product(apply_morphism(f, a), apply_morphism(g, b))
            assert lhs == rhs


class TestMonadicProduct:
    def test_empty_unit(self, f2):
        unit = CalibratedHypergraph.empty(f2, 0)
        hg = bell_hypergraph(1, 0)
        assert monadic_product(unit, hg) == hg
        assert monadic_product(hg, unit) == hg

    def test_bell_bell(self):
        hg = bell_hypergraph(0, 0)
        prod = monadic_product(hg, hg)
        assert prod.l == 4
        assert prod.edges == ((0, 1), (2, 3))

    def test_associative(self):
        rng = random.Random(17)
        ring = named_ring("F3")
        for _ in range(3):
            parts = [random_calibrated(ring, rng.randint(1, 2), rng) for _ in range(3)]
            a, b, c = parts
            assert monadic_product(monadic_product(a, b), c) == monadic_product(a, monadic_product(b, c))


class TestImmutability:
    def test_calibration_is_read_only(self):
        from hyperqudit import phase_table

        hg = bell_hypergraph(1, 0)
        before, table = hash(hg), phase_table(hg)
        key = next(iter(hg.calib[(0, 1)]))
        with pytest.raises(TypeError):
            hg.calib[(0, 1)] = {}
        with pytest.raises(TypeError):
            hg.calib[(0, 1)][key] = 0
        with pytest.raises(TypeError):
            del hg.calib[(0, 1)][key]
        assert hash(hg) == before
        assert phase_table(hg).tolist() == table.tolist()
        assert table.tolist() == phase_table(bell_hypergraph(1, 0)).tolist()


class TestJson:
    def test_round_trip_calibrated(self):
        for build in (lambda: bell_hypergraph(1, 1),):
            hg = build()
            doc = hypergraph_to_json(hg)
            assert hypergraph_from_json(doc, "calibrated") == hg

    def test_round_trip_qutrit(self):
        from hyperqudit import qutrit_hypergraph

        for lab in "abcde":
            hg = qutrit_hypergraph(lab)
            assert hypergraph_from_json(hypergraph_to_json(hg), "calibrated") == hg

    def test_random_round_trip_gr42(self, gr42):
        # exponents sampled componentwise: enumerating the whole cyclicity
        # monoid of a 16-element ring is astronomically large
        rng = random.Random(29)
        bounds = [sum(index_period(x)) for x in gr42.elements]

        def sample_exponent():
            picks = rng.sample(range(gr42.q), rng.randint(0, 3))
            return CycExponent.make(
                gr42, {i: rng.randrange(bounds[i]) for i in picks})

        for _ in range(6):
            calib = {}
            for edge in [(0, 1), (1,)]:
                calib[edge] = {
                    ExpFunc.make({v: sample_exponent() for v in edge}): rng.randrange(1, 4)
                    for _ in range(2)
                }
            hg = CalibratedHypergraph(gr42, 2, calib)
            doc = hypergraph_to_json(hg)
            assert hypergraph_from_json(doc, "calibrated") == hg

    def test_weighted_and_marked_round_trip(self, f3):
        from hyperqudit import MarkedHypergraph, WeightedHypergraph

        whg = WeightedHypergraph.make(f3, 3, {(0, 1): 2, (2,): 1})
        assert hypergraph_from_json(hypergraph_to_json(whg), "weighted") == whg
        mhg = MarkedHypergraph.make(f3, 3, {(0, 1): 0, (0, 1, 2): 2})
        assert hypergraph_from_json(hypergraph_to_json(mhg), "marked") == mhg

    def test_documented_shape(self, f3):
        hg = bell_hypergraph(1, 0)
        doc = hypergraph_to_json(hg)
        assert set(doc) == {"ring", "l", "edges"}
        assert doc["ring"] == {"p": 2, "r": 1, "d": 1, "modulus": [0, 1]}
        entry = doc["edges"][0]
        assert entry["vertices"] == [0, 1]
        assert all(set(item) == {"w", "value"} for item in entry["calibration"])
