"""The three workloads: inputs built during set-up, and the certificate calls
of one round, each with the check its result must pass.

A round is a list of chains.  The steps of a chain run in order, each fed the
result of the one before; the seed only shuffles the order of the chains.
The chains share no input, so the order leaves the work of a round unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from koszulforge import betti, hilbert, qgb, toric
from koszulforge.graphs import parse_graph
from koszulforge.toric import closed_form_generators, monomial_map

import checks

P = 32003

# marking search: (graph, whether a quadratic Groebner basis exists).  The
# six-vertex fixture paper:G1 (2058 markings, about a minute) is left out so
# that several rounds fit in one run.
MARKING_GRAPHS = (("paper:G2", True), ("paper:G4", True), ("cycle(5)", True))

# ring certificates: (graph, published h-vector, Gorenstein verdict)
RING_GRAPHS = (("complement(cycle(7))", (1, 7, 14, 7, 1), "Gorenstein"),
               ("paper:G1", (1, 7, 10, 3), "NotGorenstein"),
               ("paper:G4", (1, 6, 8, 2), "NotGorenstein"))

# resolution: Betti bounds (i_max, j_max) per artinian reduction
HEPTAGON_BOUNDS = (5, 5)
FAMILY_BOUNDS = (4, 5)


@dataclass(frozen=True)
class Step:
    label: str
    run: Callable        # run(previous result) -> result
    check: Callable      # check(result, previous result) -> list of problems


def _marking_search_setup():
    chains = []
    for spec, exists in MARKING_GRAPHS:
        ideal = toric.toric_ideal(monomial_map(parse_graph(spec)))
        chains.append([Step(
            f"decide_quadratic_gb {spec}",
            lambda _, ideal=ideal: qgb.decide_quadratic_gb(ideal),
            lambda d, _, ideal=ideal, exists=exists:
                checks.check_qgb_decision(ideal, d, exists))])
    return chains


def _ring_certificates_setup():
    chains = []
    for spec, h, verdict in RING_GRAPHS:
        g = parse_graph(spec)
        mp = monomial_map(g)
        chains.append([
            Step(f"toric_ideal {spec}",
                 lambda _, mp=mp: toric.toric_ideal(mp),
                 lambda ideal, _, g=g: checks.check_toric_ideal(ideal, g)),
            Step(f"hilbert_series {spec}",
                 lambda ideal: (ideal, hilbert.hilbert_series(ideal.presentation)),
                 lambda r, _, g=g, h=h: checks.check_hilbert(r[1], g, h)),
            Step(f"gorenstein_certificate {spec}",
                 lambda r: hilbert.gorenstein_certificate(
                     r[0], socle_even_if_asymmetric=True),
                 lambda cert, _, verdict=verdict:
                     checks.check_gorenstein(cert, verdict)),
        ])
    return chains


def _betti_step(label, art, bounds, characteristic, reference=False):
    def run(_):
        A = betti.graded_basis(art, degree_cap=bounds[1])
        return betti.betti_table(A, *bounds, characteristic=characteristic)

    def check(table, previous):
        problems = checks.check_betti(table, art, beta34=1)
        if reference:
            problems += checks.check_same_table(table, previous)
        return problems

    return Step(label, run, check)


def _resolution_setup():
    heptagon = betti.artinian_reduction(
        closed_form_generators("cbar", 3).presentation)
    family = betti.artinian_reduction(
        closed_form_generators("family", 1).presentation)
    return [
        [_betti_step("betti_table heptagon over Q", heptagon, HEPTAGON_BOUNDS, 0),
         _betti_step(f"betti_table heptagon over GF({P})", heptagon,
                     HEPTAGON_BOUNDS, P, reference=True)],
        [_betti_step("betti_table paper:family(1) over Q", family,
                     FAMILY_BOUNDS, 0)],
    ]


SETUP = {"marking-search": _marking_search_setup,
         "ring-certificates": _ring_certificates_setup,
         "resolution": _resolution_setup}
