"""Assembly of analysis reports: the full pipeline for one graph.

A report gathers the stable-set data, the toric ideal, Hilbert data, the
Gorenstein certificate, the quadratic-Groebner-basis decision and the
Koszulness verdict into one JSON document (schema koszul-forge/1), with
timings kept in a separate block so the payload stays deterministic.
The Koszulness block is the ``koszul`` verdict under the same options; the
searches it shares with the earlier blocks are process memos, run once.
"""

from __future__ import annotations

import hashlib
import json
import time

from . import __version__
from .betti import KoszulConfig, koszul_verdict
from .errors import ResourceCapError
from .graphs import CLASSIFY_CAP, Graph, classify, parse_graph, stable_sets
from .groebner import is_quadratically_generated
from .hilbert import gorenstein_certificate, hilbert_series
from .qgb import decide_quadratic_gb
from .toric import monomial_map, toric_ideal

SCHEMA = "koszul-forge/1"


def graph_hash(g: Graph) -> str:
    canonical = json.dumps(g.to_json(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def analyze(spec: str, options: KoszulConfig | None = None) -> dict:
    """Run the whole pipeline on one graph spec and build the report."""
    options = options or KoszulConfig()
    try:
        options.check()
    except ResourceCapError:
        pass  # valid input: koszul_verdict raises it again, skipping its block
    timings: dict[str, float] = {}

    def clocked(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return out

    g = parse_graph(spec)
    fam = clocked("stable_sets", lambda: stable_sets(g))
    classification = None
    if g.n <= CLASSIFY_CAP:
        classification = clocked("classify", lambda: classify(g)).to_json()

    mp = monomial_map(g)
    ideal = clocked("toric_ideal",
                    lambda: toric_ideal(mp, spair_cap=options.spair_cap))
    quadratic = is_quadratically_generated(ideal.presentation,
                                           spair_cap=options.spair_cap)

    hd = clocked("hilbert", lambda: hilbert_series(ideal.presentation,
                                                   spair_cap=options.spair_cap))
    embdim = len(fam.sets)
    h1 = hd.h_vector[1] if len(hd.h_vector) > 1 else 0
    if h1 != embdim - hd.krull_dim:
        raise AssertionError("internal inconsistency: h1 != embdim - dim")

    cert = clocked("gorenstein",
                   lambda: gorenstein_certificate(ideal,
                                                  spair_cap=options.spair_cap))

    qgb_summary: dict
    try:
        decision = clocked("qgb", lambda: decide_quadratic_gb(
            ideal, marking_cap=options.marking_cap,
            spair_cap=options.spair_cap))
        qgb_summary = decision.to_json()
        qgb_summary.pop("witness", None)
        if decision.exists:
            qgb_summary["witness_weights"] = list(decision.witness_weights)
    except ResourceCapError as exc:
        qgb_summary = {"exists": None, "skipped": str(exc)}

    try:
        verdict = clocked("koszul", lambda: koszul_verdict(ideal, options))
    except ResourceCapError as exc:
        verdict = None
        koszul_summary = {"status": None, "skipped": str(exc)}
    else:
        koszul_summary = verdict.to_json()
    if verdict is not None and verdict.table is not None and quadratic:
        stray = [(i, j, v) for (i, j), v in verdict.table.entries.items()
                 if i == 2 and j > 2 and v]
        if stray:
            raise AssertionError(
                f"internal inconsistency: quadratic ideal with beta_2j != 0: {stray}")

    koszul_flag = {"KoszulViaQuadraticGB": True,
                   "NonKoszul": False}.get(koszul_summary["status"])
    headline_parts = []
    if koszul_flag is False:
        headline_parts.append("non-Koszul")
    elif koszul_flag:
        headline_parts.append("Koszul")
    if quadratic:
        headline_parts.append("quadratic")
    if cert.verdict == "Gorenstein":
        headline_parts.append("Gorenstein")
    elif cert.verdict == "NotGorenstein":
        headline_parts.append("non-Gorenstein")
    headline = " ".join(headline_parts) if headline_parts else "(no verdicts)"

    report = {
        "schema": SCHEMA,
        "input": {"spec": spec, "graph": g.to_json(), "hash": graph_hash(g)},
        "stable_sets": {"count": embdim, "alpha": fam.alpha},
        "classification": classification,
        "ring": {
            "embdim": embdim,
            "dim": hd.krull_dim,
            "h_vector": list(hd.h_vector),
            "socle_degree": hd.socle_degree,
            "h1_equals_embdim_minus_dim": True,
        },
        "ideal": {
            "num_generators": len(ideal.presentation.generators),
            "quadratic": quadratic,
            "provenance": ideal.provenance,
        },
        "gorenstein": {
            "verdict": cert.verdict,
            "reason": cert.reason,
            "socle_dimension": cert.socle_dimension,
        },
        "quadratic_gb": qgb_summary,
        "koszul": koszul_summary,
        "headline": headline,
        "meta": {"version": __version__,
                 "characteristic": options.characteristic,
                 "bounds": {"i_max": options.i_max, "j_max": options.j_max,
                            "marking_cap": options.marking_cap,
                            "spair_cap": options.spair_cap}},
        "timings": timings,
    }
    return report


def render_text(report: dict) -> str:
    """Human-readable rendering of an analysis report."""
    lines = []
    g = report["input"]
    lines.append(f"graph: {g['spec']}  (n={g['graph']['n']}, "
                 f"m={len(g['graph']['edges'])}, hash={g['hash']})")
    ss = report["stable_sets"]
    lines.append(f"stable sets: {ss['count']}  alpha={ss['alpha']}")
    if report.get("classification"):
        flags = ", ".join(k for k, v in report["classification"].items() if v)
        lines.append(f"classes: {flags or '(none)'}")
    ring = report["ring"]
    lines.append(f"ring: embdim={ring['embdim']} dim={ring['dim']} "
                 f"h={tuple(ring['h_vector'])}")
    lines.append(f"ideal: {report['ideal']['num_generators']} generators, "
                 f"quadratic={report['ideal']['quadratic']}")
    lines.append(f"gorenstein: {report['gorenstein']['verdict']} "
                 f"({report['gorenstein']['reason']})")
    q = report["quadratic_gb"]
    if q.get("exists") is None:
        lines.append(f"quadratic GB: skipped ({q.get('skipped', '?')})")
    else:
        m = q["markings"]
        lines.append(f"quadratic GB: exists={q['exists']} "
                     f"(markings total={m['total']} feasible={m['feasible']})")
    k = report["koszul"]
    if k["status"] is None:
        lines.append(f"koszul: skipped ({k['skipped']})")
    else:
        lines.append(f"koszul: {k['status']}"
                     + (f" witness beta{tuple(k['witness'])}"
                        if k.get("witness") else "")
                     + (f" bounds={tuple(k['bounds'])}"
                        if k.get("bounds") else ""))
    lines.append(f"headline: {report['headline']}")
    lines.append(f"timings: {report['timings']}")
    return "\n".join(lines)
