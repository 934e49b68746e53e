#!/usr/bin/env python3
"""Existence of quadratic Groebner bases, decided exhaustively.

A term order picks a minimal monomial in every degree-2 fiber class; such a
marking is realizable iff an exact strict weight system is feasible, and it
yields a quadratic basis iff the non-minimal members generate a monomial
ideal with the ring's own Hilbert series.  Accounting for all markings
settles existence for every order at once; the search walks them class by
class and cuts every subtree whose prefix is already unrealizable.

The pentagon ring admits a quadratic basis; the heptagon-complement ring
does not (16384 markings, none survives).  The full heptagon run takes a
few seconds; this demo shows the pentagon and the forced inequality chain.
"""

from koszulforge.exactlp import feasible_strict
from koszulforge.graphs import cycle, parse_graph
from koszulforge.qgb import decide_quadratic_gb
from koszulforge.toric import monomial_map, toric_ideal

pentagon = toric_ideal(monomial_map(cycle(5)))
decision = decide_quadratic_gb(pentagon)
print(f"C5 ring: quadratic basis exists = {decision.exists}")
print(f"markings: {decision.total_markings} total, "
      f"{decision.feasible_markings} feasible")
print(f"realizing weights: {decision.witness_weights}")
print(f"reduced basis: {len(decision.quadratic_gb.elements)} elements, "
      f"max degree {decision.quadratic_gb.max_degree}")

# the heptagon obstruction in miniature: the forced chain of comparisons
# telescopes around the cycle to zero, so no weight vector can satisfy all
# of them strictly, and the exact LP finds no witness
mp = monomial_map(parse_graph("complement(cycle(7))"))
idx = {lab: i for i, lab in enumerate(mp.source_labels)}


def mono(*labels):
    m = [0] * mp.source_width
    for lab in labels:
        m[idx[lab]] += 1
    return tuple(m)


def diff(bigger, smaller):
    return tuple(a - b for a, b in zip(mono(*bigger), mono(*smaller)))


chain = [diff(("y_{3}", "y_{1,2}"), ("y_{1}", "y_{2,3}")),
         diff(("y_{5}", "y_{3,4}"), ("y_{3}", "y_{4,5}")),
         diff(("y_{7}", "y_{5,6}"), ("y_{5}", "y_{6,7}")),
         diff(("y_{2}", "y_{1,7}"), ("y_{7}", "y_{1,2}")),
         diff(("y_{4}", "y_{2,3}"), ("y_{2}", "y_{3,4}")),
         diff(("y_{6}", "y_{4,5}"), ("y_{4}", "y_{5,6}")),
         diff(("y_{1}", "y_{6,7}"), ("y_{6}", "y_{1,7}"))]
print(f"\nforced heptagon chain feasible: {feasible_strict(chain) is not None}")
zero_sum = not any(map(sum, zip(*chain)))
print(f"its {len(chain)} differences sum to zero: {zero_sum}, so the "
      "multipliers (1, ..., 1) are a Gordan certificate")
