"""The pruned congruence and isotropy search, against brute force.

`tests/oracle.py` keeps the brute-force search: every vertex permutation
is tried through `apply_morphism`.  The package's search must return the
same least witness and the same isotropy list, in the same order, for
every grade up to the cap.  Inputs are drawn over F2, F3, F4, Z4 and
GR(4,2), with edges that carry no calibration, keys that leave some
vertices of their edge at exponent zero, and hypergraphs closed under a
random permutation so that their isotropy groups are not trivial.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hyperqudit.hypergraph as hypergraph
from hyperqudit import (
    CalibratedHypergraph,
    CycExponent,
    ExpFunc,
    OrdinalMorphism,
    apply_morphism,
    congruent,
    index_period,
    isotropy_group,
    named_ring,
)
from tests import oracle

RINGS = ["F2", "F3", "F4", "Z4", "GR(4,2)"]
# brute force tries l! permutations per call, so the larger grades get fewer examples
EXAMPLES = {0: 5, 1: 10, 2: 25, 3: 25, 4: 25, 5: 15, 6: 6}


@st.composite
def exponents(draw, ring):
    """Zero, or one nonzero component at a random element; few values, so keys repeat."""
    bounds = [sum(index_period(x)) for x in ring.elements]
    movable = [i for i, b in enumerate(bounds) if b > 1]
    i = draw(st.sampled_from(movable))
    u = draw(st.integers(0, min(2, bounds[i] - 1)))
    return CycExponent.make(ring, {i: u})


def _orbit_closure(hg, f):
    """The sum of hg and its images under the powers of f: a hypergraph f fixes."""
    edges, entries = list(hg.edges), list(hg.stored_entries())
    power, image = f, hg
    while power != OrdinalMorphism.identity(hg.l):
        image = apply_morphism(f, image)
        edges.extend(image.edges)
        entries.extend(image.stored_entries())
        power = f.after(power)
    return CalibratedHypergraph(hg.ring, hg.l, edges=edges, entries=entries)


@st.composite
def hypergraphs(draw, ring, l):
    subsets = [e for size in range(1, l + 1) for e in itertools.combinations(range(l), size)]
    chosen = draw(st.lists(st.sampled_from(subsets), max_size=5, unique=True)) if l else []
    entries = []
    for edge in chosen:
        for _ in range(draw(st.integers(0, 2))):  # zero keys: an edge with no calibration
            support = draw(st.lists(st.sampled_from(edge), unique=True))
            key = ExpFunc.make({v: draw(exponents(ring)) for v in support})
            entries.append((edge, key, draw(st.integers(1, ring.char - 1))))
    hg = CalibratedHypergraph(ring, l, edges=chosen, entries=entries)
    if l and draw(st.booleans()):
        f = OrdinalMorphism(l, l, tuple(draw(st.permutations(range(l)))))
        hg = _orbit_closure(hg, f)
    return hg


def _values(morphisms):
    return [f.values for f in morphisms]


def _check(a, b):
    expected = oracle.congruent(a, b)
    got = congruent(a, b)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.values == expected.values


@pytest.mark.parametrize("l", sorted(EXAMPLES))
def test_search_matches_brute_force(l):
    @settings(max_examples=EXAMPLES[l], deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def run(data):
        ring = named_ring(data.draw(st.sampled_from(RINGS)))
        a = data.draw(hypergraphs(ring, l))
        assert _values(isotropy_group(a)) == _values(oracle.isotropy_group(a))
        perm = OrdinalMorphism(l, l, tuple(data.draw(st.permutations(range(l)))))
        _check(a, apply_morphism(perm, a))
        # a second drawn hypergraph, permuted: mostly not congruent, sometimes alike in shape
        _check(a, apply_morphism(perm, data.draw(hypergraphs(ring, l))))

    run()


def _graph(ring, l, edges):
    u = CycExponent.make(ring, {2: 1})
    return CalibratedHypergraph(
        ring, l, entries=[(e, ExpFunc.make({v: u for v in e}), 1) for e in edges])


CYCLE = [(i, (i + 1) % 6) for i in range(6)]
TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def test_complete_graph_k6(f3):
    k6 = _graph(f3, 6, itertools.combinations(range(6), 2))
    group = isotropy_group(k6)
    assert len(group) == 720
    assert _values(group) == list(itertools.permutations(range(6)))


def test_six_cycle(f3):
    cycle = _graph(f3, 6, CYCLE)
    group = isotropy_group(cycle)
    assert len(group) == 12
    assert _values(group) == _values(oracle.isotropy_group(cycle))


def test_six_cycle_is_not_two_triangles(f3):
    # both 2-regular, so every vertex has the same colour and the search must backtrack
    cycle, triangles = _graph(f3, 6, CYCLE), _graph(f3, 6, TRIANGLES)
    assert congruent(cycle, triangles) is None
    assert congruent(triangles, cycle) is None
    assert oracle.congruent(cycle, triangles) is None


def test_search_builds_no_hypergraph(f3, monkeypatch):
    """No per-permutation image: congruence and isotropy run with construction disabled."""
    core = _graph(f3, 6, CYCLE + [(0, 3)])
    image = apply_morphism(OrdinalMorphism(6, 6, (3, 5, 1, 0, 4, 2)), core)
    witness = oracle.congruent(core, image).values
    group = _values(oracle.isotropy_group(core))

    def refuse(*args, **kwargs):
        raise AssertionError("the search built a hypergraph")

    monkeypatch.setattr(hypergraph, "apply_morphism", refuse)
    monkeypatch.setattr(CalibratedHypergraph, "__init__", refuse)
    assert congruent(core, image).values == witness
    assert _values(isotropy_group(core)) == group
