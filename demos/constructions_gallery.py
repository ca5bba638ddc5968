#!/usr/bin/env python3
"""Run all eight constructive labelings end to end: check hypotheses, build
the composite, emit the explicit labeling, and confirm the predicted edge
counts against the verifier.

Usage: python demos/constructions_gallery.py
"""

from legcordial import (
    Graph,
    Labeling,
    LegendreContext,
    construct_cartesian,
    construct_corona,
    construct_corona_path,
    construct_join,
    construct_kp_tensor,
    construct_lexicographic,
    construct_strong,
    construct_tensor,
    induced_tally,
    make_complete,
    make_cycle,
    make_path,
)
from legcordial.search import DiffWindow, SearchSpec, search_labeling

H7 = Graph(7, [(0, 6), (1, 5), (2, 4), (1, 6), (2, 5), (3, 6), (4, 5)])


def report(name, graph, lab, pred, p):
    tally = induced_tally(lab, LegendreContext(p))
    ok = (tally.e0, tally.e1) == (pred.e0, pred.e1) and tally.is_cordial
    print(
        f"  {name:<22} p={p}  order {graph.order:3d}  size {graph.size:3d}  "
        f"(e0,e1) = ({tally.e0},{tally.e1})  verified: {ok}"
    )


def main():
    print("Constructive labelings, each verified against the closed-form counts")
    print("-" * 76)

    report("corona with P_{p-1}", *construct_corona_path(make_cycle(3), 3), 3)
    report("corona with P_{p-1}", *construct_corona_path(make_path(5), 11), 11)
    report("K_p tensor bipartite", *construct_kp_tensor(make_cycle(6), 5), 5)

    p3 = make_path(3)
    lab_p3 = Labeling(p3, (2, 1, 3))
    k1 = make_complete(1)
    report("join", *construct_join(lab_p3, Labeling(k1, (1,)), 3), 3)

    p2 = make_path(2)
    edge3 = Graph(3, [(0, 1)])
    report("corona", *construct_corona(Labeling(p2, (1, 2)), Labeling(edge3, (1, 3, 2)), 3), 3)

    # the lexicographic balance needs p >= 7: with mp = 7 labels there must be
    # m^2 p = 7 more residue edges than the rest, and only p = 7 has enough
    # residue-summing label pairs
    report(
        "lexicographic",
        *construct_lexicographic(make_cycle(3), Labeling(H7, tuple(range(1, 8))), 7),
        7,
    )

    c5 = make_cycle(5)
    lab_c5 = Labeling(c5, (2, 1, 3, 5, 4))
    print(
        f"  (base labeling of C5: rho - eta = "
        f"{induced_tally(lab_c5, LegendreContext(5)).difference})"
    )
    report("cartesian", *construct_cartesian(lab_c5, make_cycle(4), 5), 5)

    report("tensor", *construct_tensor(lab_p3, make_cycle(3), 3), 3)

    c9 = make_cycle(9)
    res = search_labeling(SearchSpec(c9, 3, objective=DiffWindow.exact(1)))
    report("strong", *construct_strong(Labeling(c9, res.labeling), make_path(4), 3), 3)


if __name__ == "__main__":
    main()
