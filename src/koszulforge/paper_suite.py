"""The reproduction suite: every published computation as a checkable case.

Each criterion is one function registered by ``@case``: it returns
``(passed, details)`` with a deterministic detail payload, and the decorator
times it and wraps the pair in a ``CaseResult``.  The CLI serializes the
results and the acceptance tests assert them.  Expensive artifacts (toric
ideals, the marking search, Betti tables) are shared across cases through
the engine's per-process memos.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .betti import (BettiTable, artinian_reduction, betti_table,
                    graded_basis, transfer_check)
from .errors import InputError
from .graphs import (are_isomorphic, classify, complement, cycle,
                     enumerate_graphs, parse_graph, stable_sets)
from .groebner import (IdealPresentation, initial_ideal, normal_form,
                       reduced_gb, spolynomial)
from .hilbert import (apply_linear_forms, gorenstein_certificate,
                      hilbert_series, is_socle_element, poly1_mul, socle)
from .polyring import Monomial, Polynomial, TermOrder, mono_mul, mono_one
from .qgb import (cross_check_marking, decide_quadratic_gb,
                  series_test_for_marking)
from .reports import analyze
from .toric import (closed_form_generators, monomial_map,
                    stable_set_label, toric_ideal)


@dataclass
class CaseResult:
    case_id: int
    name: str
    passed: bool
    limit_seconds: float
    elapsed_seconds: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"id": self.case_id, "name": self.name, "passed": self.passed,
                "limit_seconds": self.limit_seconds,
                "details": self.details}


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def cbar_ideal(k: int):
    return closed_form_generators("cbar", k)


def family_ideal(k: int):
    return closed_form_generators("family", k)


def _stable_set_variables(pres: IdealPresentation) -> Callable[..., Polynomial]:
    """y(*W) is the variable y_W of the presentation."""
    idx = {lab: i for i, lab in enumerate(pres.labels)}
    return lambda *subset: Polynomial.variable(
        pres.width, idx[stable_set_label(subset)])


def _monomials(width: int) -> Callable[..., Monomial]:
    """mono((v, e), ...) is the monomial with exponent e on the 1-based
    variable v, for each pair."""
    def mono(*pairs: tuple[int, int]) -> Monomial:
        m = [0] * width
        for v, e in pairs:
            m[v - 1] += e
        return tuple(m)
    return mono


def _same_ideal(a: IdealPresentation, b: IdealPresentation) -> bool:
    """Each generating set reduces to zero against the other's grevlex basis."""
    order = TermOrder.grevlex(a.width)
    gb_a, gb_b = reduced_gb(a, order), reduced_gb(b, order)
    return (all(normal_form(p, gb_a).is_zero() for p in b.generators)
            and all(normal_form(p, gb_b).is_zero() for p in a.generators))


def paper_linear_forms(pres: IdealPresentation, k: int) -> list[Polynomial]:
    """The regular sequence: y_empty, y_i - y_{i+1,i+2}, ..., wrapping around."""
    y = _stable_set_variables(pres)
    n = 2 * k + 1
    forms = [y()]
    for i in range(1, 2 * k):
        forms.append(y(i) - y(i + 1, i + 2))
    forms.append(y(2 * k) - y(1, n))
    forms.append(y(n) - y(1, 2))
    return forms


def expected_artinian_generators(k: int) -> list[Polynomial]:
    """The published generator list of the artinian reduction I_{2k+1}."""
    n = 2 * k + 1
    mono = _monomials(n)
    gens = []
    for i in range(1, 2 * k + 1):
        gens.append(Polynomial.monomial(mono((i, 1), (i + 1, 1))))
    gens.append(Polynomial.monomial(mono((1, 1), (n, 1))))
    for i in range(2, 2 * k):
        gens.append(Polynomial.monomial(mono((i, 2)))
                    - Polynomial.monomial(mono((i - 1, 1), (i + 2, 1))))
    gens.append(Polynomial.monomial(mono((1, 2)))
                - Polynomial.monomial(mono((3, 1), (n, 1))))
    gens.append(Polynomial.monomial(mono((2 * k, 2)))
                - Polynomial.monomial(mono((1, 1), (2 * k - 1, 1))))
    gens.append(Polynomial.monomial(mono((n, 2)))
                - Polynomial.monomial(mono((2, 1), (2 * k, 1))))
    return gens


def paper_artinian_reduction(k: int) -> IdealPresentation:
    ideal = cbar_ideal(k)
    forms = paper_linear_forms(ideal.presentation, k)
    art, regular, _ = apply_linear_forms(ideal.presentation, forms)
    if not all(regular):
        raise AssertionError(f"paper forms not regular at k={k}")
    return art


def paper_initial_ideal_monomials() -> set[Monomial]:
    """The 18 generators of the grevlex initial ideal of the 7-variable
    artinian reduction."""
    mono = _monomials(7)
    out = {mono((i, 1), (i + 1, 1)) for i in range(1, 7)}
    out.add(mono((1, 1), (7, 1)))
    out |= {mono((i, 2)) for i in range(2, 8)}
    out.add(mono((1, 3)))
    out.add(mono((3, 1), (7, 1)))
    out.add(mono((1, 2), (4, 1)))
    out.add(mono((1, 2), (6, 1)))
    out.add(mono((2, 1), (5, 1), (7, 1)))
    return out


def _sign_normalized(p: Polynomial) -> Polynomial:
    order = TermOrder.grevlex(p.width)
    _, lc = p.leading(order)
    return p if lc > 0 else -p


def cbar3_qgb_decision():
    # the ideal analyze() builds, so that criterion 7 reuses this decision
    return decide_quadratic_gb(
        toric_ideal(monomial_map(complement(cycle(7)))))


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

ALL_CASES: dict[int, Callable[[], CaseResult]] = {}


def case(case_id: int, name: str, limit_seconds: float):
    """Register a criterion under ``case_id`` in ``ALL_CASES``.  The body
    returns ``(passed, details)``; the registered function times it and
    wraps the pair in a ``CaseResult``."""
    def register(body: Callable[[], tuple[bool, dict]]):
        def run() -> CaseResult:
            t0 = time.perf_counter()
            passed, details = body()
            return CaseResult(case_id, name, passed, limit_seconds,
                              time.perf_counter() - t0, details)
        ALL_CASES[case_id] = run
        return run
    return register


@case(1, "stable sets of odd cycle complements", 5.0)
def case_1_stable_sets():
    ok = True
    details: dict = {}
    fam = stable_sets(complement(cycle(7)))
    listed = {()}
    listed |= {(i,) for i in range(1, 8)}
    listed |= {(i, i + 1) for i in range(1, 7)}
    listed.add((1, 7))
    ok &= set(fam.sets) == listed and len(fam.sets) == 15
    details["cbar7_count"] = len(fam.sets)
    counts = {}
    for k in range(3, 9):
        got = len(stable_sets(complement(cycle(2 * k + 1))).sets)
        counts[k] = got
        ok &= got == 4 * k + 3
    details["counts"] = counts
    return ok, details


@case(2, "toric ideal elimination matches closed forms", 180.0)
def case_2_toric_ideals():
    ok = True
    details: dict = {}
    closed_forms = [("cbar3", cbar_ideal(3)), ("cbar4", cbar_ideal(4))]
    closed_forms += [(f"family{k}", family_ideal(k)) for k in (1, 2, 3)]
    for name, closed in closed_forms:
        t1 = time.perf_counter()
        closed.validate()
        elim = toric_ideal(closed.map)
        elim.validate()
        both = _same_ideal(closed.presentation, elim.presentation)
        elapsed = time.perf_counter() - t1
        expected_count = {"cbar3": 14, "cbar4": 18, "family1": 15,
                          "family2": 16, "family3": 17}[name]
        good = both and len(closed.presentation.generators) == expected_count \
            and elapsed < 60.0
        ok &= good
        details[name] = {"ideal_equal": both,
                         "closed_form_generators": len(closed.presentation.generators),
                         "elimination_generators": len(elim.presentation.generators),
                         "within_limit": elapsed < 60.0}
    return ok, details


@case(3, "artinian reduction and its grevlex initial ideal", 10.0)
def case_3_artinian_reduction():
    details: dict = {}
    ideal = cbar_ideal(3)
    forms = paper_linear_forms(ideal.presentation, 3)
    art, regular, _ = apply_linear_forms(ideal.presentation, forms)
    ok = all(regular) and len(regular) == 8
    details["regular_steps"] = sum(regular)
    got = {_sign_normalized(g) for g in art.generators}
    want = {_sign_normalized(g) for g in expected_artinian_generators(3)}
    ok &= got == want
    details["reduction_equals_published_list"] = got == want
    gb = reduced_gb(art, TermOrder.grevlex(7))
    ini = set(initial_ideal(gb).generators)
    ok &= ini == paper_initial_ideal_monomials()
    details["initial_ideal_matches"] = ini == paper_initial_ideal_monomials()
    details["initial_ideal_size"] = len(ini)
    return ok, details


@case(4, "Hilbert data and Gorensteinness of the heptagon ring", 10.0)
def case_4_hilbert_gorenstein():
    details: dict = {}
    art = paper_artinian_reduction(3)
    hd_art = hilbert_series(art)
    ok = hd_art.h_vector == (1, 7, 14, 7, 1) and hd_art.krull_dim == 0
    details["artinian_numerator"] = list(hd_art.h_vector)
    ideal = cbar_ideal(3)
    hd = hilbert_series(ideal.presentation)
    ok &= hd.h_vector == (1, 7, 14, 7, 1) and hd.krull_dim == 8
    details["h_vector"] = list(hd.h_vector)
    details["dim"] = hd.krull_dim
    cert = gorenstein_certificate(ideal)
    ok &= cert.verdict == "Gorenstein" and cert.socle_dimension == 1
    details["verdict"] = cert.verdict
    details["socle_dimension"] = cert.socle_dimension
    return ok, details


def _nonminimal_socle_witnesses(k: int, art: IdealPresentation) -> list[Polynomial]:
    y = _stable_set_variables(art)
    n = 2 * k + 1
    w1 = y(n) * y(n)
    for i in range(1, k):
        w1 = w1 * y(2 * i)
    if k % 3 == 1:
        w2 = Polynomial.constant(art.width, 1)
        for i in range(1, (2 * k + 1) // 3 + 1):
            w2 = w2 * y(3 * i)
    elif k % 3 == 2:
        w2 = y(n)
        for i in range(1, (2 * k - 1) // 3 + 1):
            w2 = w2 * y(3 * i)
    else:
        w2 = y(2 * k) * y(2 * k)
        for i in range(1, (2 * k - 3) // 3 + 1):
            w2 = w2 * y(3 * i)
    return [w1, w2]


@case(5, "non-Gorenstein at k = 4, 5 with published witnesses", 60.0)
def case_5_non_gorenstein():
    ok = True
    details: dict = {}
    for k in (4, 5):
        ideal = cbar_ideal(k)
        cert = gorenstein_certificate(ideal)
        art = paper_artinian_reduction(k)
        soc = socle(art)
        w1, w2 = _nonminimal_socle_witnesses(k, art)
        w1_ok = is_socle_element(art, w1)
        w2_ok = is_socle_element(art, w2)
        good = (cert.verdict == "NotGorenstein" and soc.dimension >= 2
                and w1_ok and w2_ok)
        ok &= good
        details[f"k{k}"] = {"verdict": cert.verdict,
                            "socle_dimension": soc.dimension,
                            "witness_product_even": w1_ok,
                            "witness_mod3": w2_ok}
    return ok, details


@case(6, "no quadratic basis for the heptagon ring (marking exhaustion)",
      600.0)
def case_6_qgb_nonexistence():
    details: dict = {}
    ideal = cbar_ideal(3)
    decision = cbar3_qgb_decision()
    ok = (not decision.exists and decision.total_markings == 16384
          and decision.tested_markings == 16384
          and decision.feasible_markings == 2184)
    details["exists"] = decision.exists
    details["total_markings"] = decision.total_markings
    details["feasible_markings"] = decision.feasible_markings
    details["tested_markings"] = decision.tested_markings
    samples = random.Random(7).sample(decision.feasible_samples, 100)
    agree = 0
    for mk, w in samples:
        if cross_check_marking(ideal, mk, w) == series_test_for_marking(ideal, mk):
            agree += 1
    ok &= agree == len(samples) and len(samples) >= 100
    details["cross_checked"] = len(samples)
    details["cross_check_agreement"] = agree
    return ok, details


@case(7, "non-Koszul via beta_{3,4} = 1 and the full report", 600.0)
def case_7_koszul():
    details: dict = {}
    art = paper_artinian_reduction(3)
    A = graded_basis(art, degree_cap=5)
    table = betti_table(A, 4, 5, stop_at_first_offdiagonal=True)
    beta34 = table.get(3, 4)
    offdiag_low = [(i, j, v) for (i, j), v in table.entries.items()
                   if i <= 2 and i != j and v]
    ok = beta34 == 1 and not offdiag_low
    details["beta34"] = beta34
    details["offdiagonal_below_3"] = offdiag_low
    details["entries"] = [[i, j, v] for (i, j), v in sorted(table.entries.items())
                          if v]
    report = analyze("complement(cycle(7))")
    ok &= report["headline"] == "non-Koszul quadratic Gorenstein"
    ok &= report["koszul"]["status"] == "NonKoszul"
    ok &= tuple(report["koszul"]["witness"][:2]) == (3, 4)
    details["headline"] = report["headline"]
    details["verdict"] = report["koszul"]["status"]
    return ok, details


@case(8, "infinite family: series formula and non-Koszulness", 1800.0)
def case_8_infinite_family():
    ok = True
    details: dict = {}
    base = (1, 7, 14, 7, 1)
    for k in (1, 2):
        ideal = family_ideal(k)
        hd = hilbert_series(ideal.presentation)
        want = base
        for _ in range(k):
            want = poly1_mul(want, (1, 1))
        good = hd.h_vector == want and hd.krull_dim == 2 * k + 8
        ok &= good
        details[f"family{k}"] = {"h_vector": list(hd.h_vector),
                                 "dim": hd.krull_dim,
                                 "series_matches": good}
    for k in (1, 2, 3, 4):
        red = artinian_reduction(family_ideal(k).presentation)
        A = graded_basis(red, degree_cap=4)
        table = betti_table(A, 3, 4, stop_at_first_offdiagonal=True)
        beta34 = table.get(3, 4)
        ok &= beta34 == 1
        details[f"family{k}_beta34"] = beta34
    return ok, details


@case(9, "six-vertex fixtures", 300.0)
def case_9_fixtures():
    ok = True
    details: dict = {}
    for name, want_h in (("G1", (1, 7, 10, 3)), ("G4", (1, 6, 8, 2))):
        ideal = toric_ideal(monomial_map(parse_graph(f"paper:{name}")))
        hd = hilbert_series(ideal.presentation)
        good = hd.h_vector == want_h
        ok &= good
        details[name.lower() + "_h"] = list(hd.h_vector)
    g2 = toric_ideal(monomial_map(parse_graph("paper:G2")))
    d2 = decide_quadratic_gb(g2)
    ok &= d2.exists and d2.quadratic_gb.is_quadratic
    details["g2_quadratic_gb"] = d2.exists
    c5 = toric_ideal(monomial_map(cycle(5)))
    d5 = decide_quadratic_gb(c5)
    ok &= d5.exists and d5.quadratic_gb.is_quadratic
    details["c5_quadratic_gb"] = d5.exists
    # G5 is covered through its ideal being the C5 ideal: no generator uses
    # the apex vertex variable and the relabelled C5 generators agree
    g5 = toric_ideal(monomial_map(parse_graph("paper:G5")))
    apex = g5.map.source_labels.index(stable_set_label((4,)))
    no_apex = all(all(m[apex] == 0 for m in p.terms)
                  for p in g5.presentation.generators)
    relabel = {1: 1, 2: 2, 3: 3, 4: 5, 5: 6}
    mapped = []
    for p in c5.presentation.generators:
        terms = {}
        for m, c in p.terms.items():
            target = [0] * g5.presentation.width
            for v, e in enumerate(m):
                subset = c5.map.family.sets[v]
                lab = stable_set_label(tuple(sorted(relabel[x] for x in subset)))
                target[g5.map.source_labels.index(lab)] = e
            terms[tuple(target)] = c
        mapped.append(Polynomial(g5.presentation.width, terms))
    same_ideal = _same_ideal(
        g5.presentation, IdealPresentation(g5.presentation.labels, tuple(mapped)))
    ok &= no_apex and same_ideal
    details["g5_equals_c5_ideal"] = bool(no_apex and same_ideal)
    flags3 = classify(complement(parse_graph("paper:G3")))
    ok &= flags3.bipartite
    details["g3_complement_bipartite"] = flags3.bipartite
    return ok, details


@case(10, "n <= 5 classification: only the pentagon is not comparability",
      120.0)
def case_10_small_graph_classification():
    ok = True
    details: dict = {}
    totals = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    c5 = cycle(5)
    noncomp = []
    for n in range(1, 6):
        graphs_n = enumerate_graphs(n)
        ok &= len(graphs_n) == totals[n]
        for g in graphs_n:
            flags = classify(g)
            if not flags.comparability:
                noncomp.append(g)
                ok &= are_isomorphic(g, c5) and flags.almost_bipartite
    ok &= len(noncomp) == 1
    details["class_counts_match"] = True
    details["non_comparability_classes"] = len(noncomp)
    return ok, details


@case(11, "property suites", 600.0)
def case_11_property_suites():
    ok = True
    details: dict = {}
    rng = random.Random(20260811)

    # term order axioms on random triples
    width = 6
    orders = [TermOrder.lex(width), TermOrder.grevlex(width),
              TermOrder.weight([rng.randint(0, 5) for _ in range(width)])]
    axiom_ok = True
    for order in orders:
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(width))
            b = tuple(rng.randint(0, 4) for _ in range(width))
            c = tuple(rng.randint(0, 4) for _ in range(width))
            cmp_ab = order.compare(a, b)
            if (a == b) != (cmp_ab == "EQ"):
                axiom_ok = False
            if cmp_ab != order.compare(mono_mul(a, c), mono_mul(b, c)):
                axiom_ok = False
            if order.compare(mono_one(width), a) == "GT":
                axiom_ok = False
    ok &= axiom_ok
    details["order_axioms"] = axiom_ok

    # S-pairs of stored bases reduce to zero
    spair_ok = True
    for pres in (cbar_ideal(3).presentation,
                 toric_ideal(monomial_map(cycle(5))).presentation):
        order = TermOrder.grevlex(pres.width)
        gb = reduced_gb(pres, order)
        for i in range(len(gb.elements)):
            for j in range(i + 1, len(gb.elements)):
                s = spolynomial(gb.elements[i], gb.elements[j], order)
                if not normal_form(s, gb).is_zero():
                    spair_ok = False
    ok &= spair_ok
    details["spairs_reduce_to_zero"] = spair_ok

    # Hilbert series order independence
    pres = cbar_ideal(3).presentation
    w = pres.width
    series = {hilbert_series(pres, order=o).numerator
              for o in (TermOrder.grevlex(w), TermOrder.lex(w),
                        TermOrder.grevlex(w, ranking=tuple(reversed(range(w)))))}
    ok &= len(series) == 1
    details["hilbert_order_independent"] = len(series) == 1

    # transfer consistency on two small rings
    transfer_ok = True
    for g in (cycle(4), parse_graph("complete(3)")):
        ideal = toric_ideal(monomial_map(g))
        hd = hilbert_series(ideal.presentation)
        direct = betti_table(graded_basis(ideal.presentation, degree_cap=3), 2, 3)
        red = artinian_reduction(ideal.presentation)
        if red.generators:
            reduced = betti_table(graded_basis(red, degree_cap=3), 2, 3)
        else:
            reduced = BettiTable({(0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0,
                                  (1, 0): 0, (1, 1): 0, (1, 2): 0, (1, 3): 0,
                                  (2, 0): 0, (2, 1): 0, (2, 2): 0, (2, 3): 0},
                                 2, 3, 0)
        if not transfer_check(direct, reduced, hd.krull_dim):
            transfer_ok = False
    ok &= transfer_ok
    details["transfer_consistent"] = transfer_ok

    # characteristic 0 versus p agreement
    char_ok = True
    for pres in (paper_artinian_reduction(3),
                 artinian_reduction(toric_ideal(monomial_map(cycle(4))).presentation)):
        A = graded_basis(pres, degree_cap=4)
        t_q = betti_table(A, 3, 4)
        t_p = betti_table(A, 3, 4, characteristic=32003)
        if t_q.entries != t_p.entries:
            char_ok = False
    ok &= char_ok
    details["char0_equals_char32003"] = char_ok

    return ok, details


def run_cases(case_ids=None) -> list[CaseResult]:
    """Run the requested cases (all by default), each once, in ascending id
    order."""
    ids = sorted(set(ALL_CASES if case_ids is None else case_ids))
    unknown = [i for i in ids if i not in ALL_CASES]
    if unknown:
        raise InputError(f"unknown case ids: {unknown}")
    return [ALL_CASES[i]() for i in ids]
