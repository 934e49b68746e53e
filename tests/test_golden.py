"""Golden-file regression pins for the JSON interfaces."""

import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def load(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_certificate_cbar3_golden():
    from koszulforge.hilbert import gorenstein_certificate
    from koszulforge.paper_suite import cbar_ideal
    got = gorenstein_certificate(cbar_ideal(3)).to_json()
    assert dump(got) == dump(load("certificate_cbar3"))
    assert got["verdict"] == "Gorenstein"


def test_certificate_cbar4_golden():
    from koszulforge.hilbert import gorenstein_certificate
    from koszulforge.paper_suite import cbar_ideal
    got = gorenstein_certificate(cbar_ideal(4)).to_json()
    assert dump(got) == dump(load("certificate_cbar4"))
    assert got["verdict"] == "NotGorenstein"


@pytest.mark.parametrize("name,verdict", [("g1", "NotGorenstein"),
                                          ("g4", "NotGorenstein")])
def test_certificate_fixture_golden(name, verdict):
    from koszulforge.graphs import parse_graph
    from koszulforge.hilbert import gorenstein_certificate
    from koszulforge.toric import monomial_map, toric_ideal
    ideal = toric_ideal(monomial_map(parse_graph(f"paper:{name.upper()}")))
    got = gorenstein_certificate(ideal).to_json()
    assert dump(got) == dump(load(f"certificate_{name}"))
    assert got["verdict"] == verdict


def test_certificate_cycle6_golden():
    # the seeded candidates are dense forms with coefficients up to +-2, so
    # this pins the reductions that scale their remainders
    from koszulforge.graphs import parse_graph
    from koszulforge.hilbert import gorenstein_certificate
    from koszulforge.toric import monomial_map, toric_ideal
    ideal = toric_ideal(monomial_map(parse_graph("cycle(6)")))
    got = gorenstein_certificate(ideal).to_json()
    assert dump(got) == dump(load("certificate_cycle6"))
    assert got["verdict"] == "Gorenstein"


def test_betti_cbar3_golden():
    from koszulforge.betti import betti_table, graded_basis
    from koszulforge.paper_suite import paper_artinian_reduction
    art = paper_artinian_reduction(3)
    table = betti_table(graded_basis(art, degree_cap=5), 4, 5,
                        stop_at_first_offdiagonal=True)
    assert dump(table.to_json()) == dump(load("betti_cbar3"))


def test_qgb_cbar3_golden_content():
    # pinned output of the expensive nonexistence decision: the frozen
    # shape here, the live decision in test_qgb_cbar3_golden_live
    data = load("qgb_cbar3")
    assert data["exists"] is False
    assert data["markings"]["total"] == 16384
    assert data["markings"]["feasible"] == 2184
    assert data["markings"]["tested"] == 16384
    assert data["exhaustion"]["all_failed_series_test"] is True


def test_qgb_cbar3_golden_live():
    # the live decision, byte for byte; in one pytest process it is the
    # memoised decision that criterion 6 also reads
    from koszulforge.paper_suite import cbar3_qgb_decision
    got = cbar3_qgb_decision().to_json()
    assert dump(got) == (GOLDEN / "qgb_cbar3.json").read_text()


def test_paper_suite_golden(capsys):
    # the whole paper-suite payload, byte for byte; only the timings vary
    from koszulforge.cli import main
    assert main(["paper-suite"]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload.pop("timings")
    assert dump(payload) == (GOLDEN / "paper_suite.json").read_text()
