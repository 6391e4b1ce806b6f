"""The four Bell states as calibrated hypergraph states.

Two qubits and a single hyperedge {0,1} suffice: the calibration puts
weights a0, a1 on the single-vertex keys and 1 on the key raising both
vertices to the first power, giving the phase a0*x0 + a1*x1 + x0*x1.
"""

from hyperqudit import (
    all_configurations,
    apply_he_morphism,
    apply_morphism,
    bell_hypergraph,
    build_state,
    check_covariance,
    emit_state,
    named_ring,
    OrdinalMorphism,
)


def main():
    f2 = named_ring("F2")
    print("== the four sign patterns ==")
    for a0 in (0, 1):
        for a1 in (0, 1):
            psi = build_state(bell_hypergraph(a0, a1))
            signs = "".join("+-"[v] for v in psi.phases)
            kets = " ".join(
                f"{'+-'[psi.phases[i]]}|{x[0].coeffs[0]}{x[1].coeffs[0]}>"
                for i, x in enumerate(all_configurations(f2, 2)))
            print(f"  (a0,a1)=({a0},{a1}):  {kets}   signs {signs}")

    print("\n== exact emission of the (0,0) state ==")
    print(emit_state(build_state(bell_hypergraph(0, 0)), dense=True))

    print("== covariance under vertex functions ==")
    swap = OrdinalMorphism(2, 2, (1, 0))
    collapse = OrdinalMorphism(2, 1, (0, 0))
    hg = bell_hypergraph(1, 0)
    print("swap two qubits:", check_covariance(hg, swap))
    print("collapse both onto one qudit:", check_covariance(hg, collapse))
    merged = apply_morphism(collapse, hg)
    print("the collapsed hypergraph lives on one vertex with edges", merged.edges)
    print("and transported state phases",
          tuple(apply_he_morphism(collapse, build_state(hg)).phases.tolist()))


if __name__ == "__main__":
    main()
