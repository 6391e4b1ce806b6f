"""Marked hypergraph states from controlled-phase gates.

Over a prime field, each hyperedge with a target vertex defines a
controlled-phase gate: it applies the target's phase when every control
sits in the reference state (by default p - 1).  The resulting states
are calibrated hypergraph states, and for p > 2 their quadratic phases
put them strictly beyond the weighted family.
"""

import itertools

from hyperqudit import (
    all_configurations,
    build_state,
    cz_phase,
    marked_state,
    marked_to_calibrated,
    named_ring,
    p_polynomial,
    phase_table,
    qutrit_hypergraph,
    qutrit_marked,
)


def main():
    f3 = named_ring("F3")
    ref = f3.from_int(2)

    print("the control indicator as a polynomial:",
          [c.coeffs[0] for c in p_polynomial(f3, ref).coeffs], " (x + 2x^2)")

    print("\none gate on edge {0,1} targeting vertex 1:")
    for x in list(all_configurations(f3, 2))[:6]:
        val = cz_phase((0, 1), 1, ref, x)
        print(f"   input {[e.coeffs[0] for e in x]} -> phase {val}")

    print("\n== the marked qutrit family equals its calibrated counterparts ==")
    for lab in "abcde":
        mhg = qutrit_marked(lab)
        same_state = marked_state(mhg) == build_state(marked_to_calibrated(mhg))
        same_catalog = marked_to_calibrated(mhg) == qutrit_hypergraph(lab)
        print(f"   {lab}: conversion exact {same_state}, matches catalog {same_catalog}")

    print("\n== but no weighting reproduces the triple-edge state ==")
    target = phase_table(qutrit_hypergraph("a")).tolist()
    edges = [e for k in (1, 2, 3) for e in itertools.combinations(range(3), k)]
    found = False
    for weights in itertools.product(range(3), repeat=len(edges)):
        table = []
        for x in all_configurations(f3, 3):
            total = 0
            for e, alpha in zip(edges, weights):
                prod = 1
                for r in e:
                    prod *= x[r].coeffs[0]
                total += alpha * prod
            table.append(total % 3)
        if table == target:
            found = True
            break
    print("   weighting found over all", 3 ** len(edges), "candidates:", found)


if __name__ == "__main__":
    main()
