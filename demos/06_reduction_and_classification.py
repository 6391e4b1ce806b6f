"""Canonical forms: effectivization, primitive cores, congruence.

Different calibrations can encode the same state.  Regrouping every
calibration entry onto the support of its key (effectivization) and
stripping unused vertices (the primitive core) yield canonical
representatives, on which vertex-permutation congruence is decided by
a backtracking search that maps each vertex only to vertices of the same
invariant colour and checks every edge as soon as it is fully placed.
"""

from hyperqudit import (
    CalibratedHypergraph,
    CycExponent,
    ExpFunc,
    OrdinalMorphism,
    apply_morphism,
    build_state,
    congruent,
    effectivize,
    equal_up_to_phase,
    is_effective,
    isotropy_group,
    named_ring,
    primitive_core,
    qutrit_hypergraph,
    support_index,
)


def main():
    print("== effectivizing the qutrit family ==")
    for lab in "abcde":
        hg = qutrit_hypergraph(lab)
        eff, const = effectivize(hg)
        same = equal_up_to_phase(build_state(eff), build_state(hg)) == const
        print(f"  {lab}: effective {is_effective(eff)}, edges {list(eff.edges)},"
              f" constant {const}, state preserved {same}")

    print("\n== primitive core of a hypergraph with an unused vertex ==")
    f3 = named_ring("F3")
    sq = CycExponent.from_dense(f3, (0, 0, 1))
    hg = CalibratedHypergraph(f3, 3, {(0, 2): {ExpFunc.make({0: sq, 2: sq}): 1}})
    chart, core = primitive_core(hg)
    print("  support:", support_index(hg)[0], " chart:", chart.values)
    print("  core over", core.l, "vertices with edges", list(core.edges))
    print("  chart transports the core back exactly:",
          apply_morphism(chart, core) == hg)

    print("\n== congruence and isotropy ==")
    base, _ = effectivize(qutrit_hypergraph("b"))
    rotated = apply_morphism(OrdinalMorphism(3, 3, (1, 2, 0)), base)
    witness = congruent(base, rotated)
    print("  a rotation witnesses congruence:", witness.values if witness else None)
    other, _ = effectivize(qutrit_hypergraph("d"))
    print("  families b and d are congruent:", congruent(base, other) is not None)
    print("  isotropy group sizes: b ->", len(isotropy_group(base)),
          " d ->", len(isotropy_group(other)))


if __name__ == "__main__":
    main()
