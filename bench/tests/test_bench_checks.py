"""Each certificate check accepts the engine's genuine result and rejects a
damaged copy of it.

Run from the repository root:  python3 -m pytest bench/tests
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from koszulforge import betti, hilbert, qgb
from koszulforge.graphs import parse_graph
from koszulforge.groebner import IdealPresentation
from koszulforge.polyring import Polynomial
from koszulforge.toric import closed_form_generators, fiber_classes, \
    monomial_map, toric_ideal

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def pentagon():
    g = parse_graph("cycle(5)")
    return g, toric_ideal(monomial_map(g))


@pytest.fixture(scope="module")
def decision(pentagon):
    return qgb.decide_quadratic_gb(pentagon[1])


@pytest.fixture(scope="module")
def heptagon_tables():
    art = betti.artinian_reduction(closed_form_generators("cbar", 3).presentation)
    A = betti.graded_basis(art, degree_cap=4)
    return (art, betti.betti_table(A, 3, 4),
            betti.betti_table(A, 3, 4, characteristic=32003))


# -- marking search ----------------------------------------------------------

def test_degree2_classes_match_the_engine(pentagon):
    mp = pentagon[1].map
    ours = checks.degree2_classes(mp.target_exponents)
    assert ours == {frozenset(c) for c in fiber_classes(mp, 2).classes}


def test_qgb_check_accepts_genuine_decision(pentagon, decision):
    assert checks.check_qgb_decision(pentagon[1], decision, True) == []


def test_qgb_check_rejects_marking_total_off_by_one(pentagon, decision):
    bad = dataclasses.replace(decision, total_markings=decision.total_markings + 1)
    assert checks.check_qgb_decision(pentagon[1], bad, True)


def test_qgb_check_rejects_negated_witness_weights(pentagon, decision):
    negated = tuple(-w for w in decision.witness_weights)
    bad = dataclasses.replace(decision, witness_weights=negated)
    assert checks.check_qgb_decision(pentagon[1], bad, True)


def test_qgb_check_rejects_a_basis_missing_elements(pentagon, decision):
    gb = decision.quadratic_gb
    bad = dataclasses.replace(decision, quadratic_gb=dataclasses.replace(
        gb, elements=gb.elements[:1]))
    assert checks.check_qgb_decision(pentagon[1], bad, True)


def test_qgb_check_rejects_a_wrong_decision(pentagon, decision):
    assert checks.check_qgb_decision(pentagon[1], decision, False)


# -- ring certificates -------------------------------------------------------

def test_toric_check_accepts_and_rejects(pentagon):
    g, ideal = pentagon
    assert checks.check_toric_ideal(ideal, g) == []
    first, *rest = ideal.presentation.generators
    (u, cu), (_, cv) = first.terms.items()
    image = ideal.map.image_of_monomial
    # a unit binomial whose second term lies in another fiber
    other = next(m for m in _degree2_monomials(first.width)
                 if image(m) != image(u))
    for damaged in (Polynomial(first.width, {u: cu, other: cv}),
                    first + Polynomial.monomial(other)):
        bad = dataclasses.replace(ideal, presentation=IdealPresentation(
            ideal.presentation.labels, (damaged, *rest)))
        assert checks.check_toric_ideal(bad, g)


def _degree2_monomials(width):
    for a in range(width):
        for b in range(a, width):
            m = [0] * width
            m[a] += 1
            m[b] += 1
            yield tuple(m)


def test_hilbert_check_accepts_and_rejects(pentagon):
    g, ideal = pentagon
    hd = hilbert.hilbert_series(ideal.presentation)
    assert checks.check_hilbert(hd, g, (1, 5, 5, 1)) == []
    assert checks.check_hilbert(hd, g, (1, 5, 6, 1))
    assert checks.check_hilbert(dataclasses.replace(hd, krull_dim=5), g, None)
    wrong_h1 = dataclasses.replace(hd, h_numerator=(1, 4, 5, 1))
    assert checks.check_hilbert(wrong_h1, g, None)


def test_gorenstein_check_accepts_and_rejects(pentagon):
    cert = hilbert.gorenstein_certificate(pentagon[1],
                                          socle_even_if_asymmetric=True)
    assert checks.check_gorenstein(cert, "Gorenstein") == []
    assert checks.check_gorenstein(cert, "NotGorenstein")
    art = cert.artinian_presentation
    not_socle = Polynomial.variable(art.width, 0)
    bad = dataclasses.replace(cert, socle_witnesses=(not_socle,))
    assert checks.check_gorenstein(bad, "Gorenstein")
    bad = dataclasses.replace(cert, verdict="NotGorenstein")
    assert checks.check_gorenstein(bad, "NotGorenstein")


def test_stable_set_count_is_independent():
    assert checks.count_stable_sets(parse_graph("complement(cycle(7))")) == 15


# -- resolution --------------------------------------------------------------

def test_betti_check_accepts_genuine_tables(heptagon_tables):
    art, over_q, over_p = heptagon_tables
    assert checks.check_betti(over_q, art, beta34=1) == []
    assert checks.check_same_table(over_p, over_q) == []


@pytest.mark.parametrize("entry", [(1, 1), (2, 2), (3, 3), (3, 4)])
def test_betti_check_rejects_one_changed_entry(heptagon_tables, entry):
    art, over_q, over_p = heptagon_tables
    entries = dict(over_q.entries)
    entries[entry] += 1
    bad = dataclasses.replace(over_q, entries=entries)
    assert checks.check_betti(bad, art, beta34=1)
    assert checks.check_same_table(dataclasses.replace(over_p, entries=entries),
                                   over_q)


def test_betti_check_rejects_missing_entries(heptagon_tables):
    art, over_q, _ = heptagon_tables
    entries = {k: v for k, v in over_q.entries.items() if k != (2, 2)}
    assert checks.check_betti(dataclasses.replace(over_q, entries=entries), art)


# -- the benchmark's own contract ----------------------------------------------

def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_run_fails_without_the_engine(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "resolution",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- tracing -----------------------------------------------------------------

def test_tracer_counts_what_the_calls_report(pentagon, heptagon_tables):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.phase = "calls"
    try:
        decision = qgb.decide_quadratic_gb(pentagon[1])
        A = betti.graded_basis(heptagon_tables[0], degree_cap=4)
        betti.betti_table(A, 3, 4, characteristic=32003)
    finally:
        tracer.phase = None
    stats = tracer.stats["calls"]
    assert stats["qgb.markings_tested"] == decision.tested_markings
    assert stats["exactlp.feasible_strict.calls"] == decision.tested_markings
    assert 0 < stats["groebner.reduced_gb.distinct"] <= stats["groebner.reduced_gb.calls"]
    assert stats["linalg.kernel_of_columns.columns"] > 0
    assert stats["betti.betti_table.charp_s"] > 0
    assert "betti.betti_table.char0_s" not in stats
    # self times partition the traced interval, so none is negative
    assert all(v >= 0 for k, v in stats.items() if k.endswith(".self_s"))
