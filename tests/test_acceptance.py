"""Acceptance suite: every published computation, one criterion per test.

Each criterion prints its own PASS/FAIL line (run with -s to see them all)
and asserts both the mathematical content and the stated runtime limit.
Expensive artifacts are shared across criteria within the module.
"""

import dataclasses

from koszulforge import paper_suite
from koszulforge.paper_suite import ALL_CASES, CaseResult


def _run(case_id: int) -> CaseResult:
    result = ALL_CASES[case_id]()
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.case_id:2d} [{status}] "
          f"{result.name} ({result.elapsed_seconds:.1f}s / "
          f"limit {result.limit_seconds:.0f}s)")
    return result


def _assert_case(result: CaseResult):
    assert result.passed, f"criterion {result.case_id} failed: {result.details}"
    assert result.elapsed_seconds < result.limit_seconds, (
        f"criterion {result.case_id} exceeded its runtime limit: "
        f"{result.elapsed_seconds:.1f}s >= {result.limit_seconds:.0f}s")


def test_criterion_01_stable_sets():
    result = _run(1)
    _assert_case(result)
    assert result.details["cbar7_count"] == 15
    assert result.details["counts"] == {k: 4 * k + 3 for k in range(3, 9)}


def test_criterion_02_toric_ideal_equality():
    result = _run(2)
    _assert_case(result)
    for name, count in (("cbar3", 14), ("cbar4", 18), ("family1", 15),
                        ("family2", 16), ("family3", 17)):
        assert result.details[name]["ideal_equal"]
        assert result.details[name]["closed_form_generators"] == count
        assert result.details[name]["within_limit"]


def test_criterion_03_artinian_reduction_and_initial_ideal():
    result = _run(3)
    _assert_case(result)
    assert result.details["regular_steps"] == 8
    assert result.details["reduction_equals_published_list"]
    assert result.details["initial_ideal_matches"]
    assert result.details["initial_ideal_size"] == 18


def test_criterion_04_hilbert_and_gorenstein():
    result = _run(4)
    _assert_case(result)
    assert result.details["artinian_numerator"] == [1, 7, 14, 7, 1]
    assert result.details["h_vector"] == [1, 7, 14, 7, 1]
    assert result.details["dim"] == 8
    assert result.details["verdict"] == "Gorenstein"
    assert result.details["socle_dimension"] == 1


def test_criterion_05_non_gorenstein_k4_k5():
    result = _run(5)
    _assert_case(result)
    for k in (4, 5):
        d = result.details[f"k{k}"]
        assert d["verdict"] == "NotGorenstein"
        assert d["socle_dimension"] >= 2
        assert d["witness_product_even"] and d["witness_mod3"]


def test_criterion_06_no_quadratic_basis():
    result = _run(6)
    _assert_case(result)
    assert result.details["exists"] is False
    assert result.details["total_markings"] == 16384
    assert result.details["tested_markings"] == 16384
    assert result.details["feasible_markings"] == 2184
    assert result.details["cross_checked"] >= 100
    assert result.details["cross_check_agreement"] == \
        result.details["cross_checked"]


def test_criterion_07_non_koszul():
    result = _run(7)
    _assert_case(result)
    assert result.details["beta34"] == 1
    assert result.details["offdiagonal_below_3"] == []
    assert result.details["headline"] == "non-Koszul quadratic Gorenstein"
    assert result.details["verdict"] == "NonKoszul"


def test_criterion_08_infinite_family():
    result = _run(8)
    _assert_case(result)
    assert result.details["family1"]["series_matches"]
    assert result.details["family2"]["series_matches"]
    for k in (1, 2, 3, 4):
        assert result.details[f"family{k}_beta34"] == 1


def test_criterion_08_requires_beta34_equal_to_1(monkeypatch):
    real = paper_suite.betti_table

    def doubled(*args, **kwargs):
        table = real(*args, **kwargs)
        return dataclasses.replace(table, entries={**table.entries, (3, 4): 2})

    monkeypatch.setattr(paper_suite, "betti_table", doubled)
    result = ALL_CASES[8]()
    assert not result.passed
    assert result.details["family1_beta34"] == 2


def test_criterion_09_six_vertex_fixtures():
    result = _run(9)
    _assert_case(result)
    assert result.details["g1_h"] == [1, 7, 10, 3]
    assert result.details["g4_h"] == [1, 6, 8, 2]
    assert result.details["g2_quadratic_gb"]
    assert result.details["c5_quadratic_gb"]
    assert result.details["g5_equals_c5_ideal"]
    assert result.details["g3_complement_bipartite"]


def test_criterion_10_small_graph_classification():
    result = _run(10)
    _assert_case(result)
    assert result.details["non_comparability_classes"] == 1


def test_criterion_11_property_suites():
    result = _run(11)
    _assert_case(result)
    for key in ("order_axioms", "spairs_reduce_to_zero",
                "hilbert_order_independent", "transfer_consistent",
                "char0_equals_char32003"):
        assert result.details[key], key
