"""Benchmark of the koszul-forge certificate engine.

Usage (from the repository root):

  python3 bench/run.py --workload marking-search --seed 1 --seconds 40 --trace 0

Runs whole rounds of one workload for about ``--seconds`` seconds, one round
at a time, each in a fresh interpreter (worker.py), so that the engine's
in-process memos start empty every round.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over rounds,
peak memory as the maximum); with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer ones from the traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("marking-search", "ring-certificates", "resolution")
# A run must end within this many seconds, whatever --seconds asks for.
HARD_LIMIT_S = 170

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics read from the traced rounds' "calls" phase.
LAYER_METRICS = (
    ("qgb.markings_tested", "count"),
    ("qgb.markings_feasible", "count"),
    ("qgb.decide_quadratic_gb.self_s", "s"),
    ("exactlp.feasible_strict.calls", "count"),
    ("exactlp.feasible_strict.infeasible", "count"),
    ("exactlp.feasible_strict.constraints", "count"),
    ("exactlp.feasible_strict.self_s", "s"),
    ("hilbert.monomial_numerator.calls", "count"),
    ("hilbert.monomial_numerator.self_s", "s"),
    ("toric.fiber_classes.self_s", "s"),
    ("groebner.reduced_gb.calls", "count"),
    ("groebner.reduced_gb.distinct", "count"),
    ("groebner.reduced_gb.basis_size", "count"),
    ("groebner.reduced_gb.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("toric.toric_ideal.self_s", "s"),
    ("hilbert.hilbert_series.calls", "count"),
    ("hilbert.hilbert_series.self_s", "s"),
    ("hilbert.quotient_by_linear_form.calls", "count"),
    ("hilbert.find_regular_linear_system.self_s", "s"),
    ("hilbert.socle.self_s", "s"),
    ("linalg.kernel_of_columns.calls", "count"),
    ("linalg.kernel_of_columns.columns", "count"),
    ("linalg.kernel_of_columns.fill", "count"),
    ("linalg.kernel_of_columns.self_s", "s"),
    ("linalg.insert.calls", "count"),
    ("linalg.insert.self_s", "s"),
    ("betti.betti_table.self_s", "s"),
    ("betti.betti_table.char0_s", "s"),
    ("betti.betti_table.charp_s", "s"),
    ("groebner.multiplication_table.self_s", "s"),
)
SETUP_LAYER_METRICS = (("setup.groebner.reduced_gb.self_s", "s"),)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.self_share", "ratio"))
PER_LAYER = LAYER_METRICS + SETUP_LAYER_METRICS + TRACE_METRICS


def run_round(workload: str, seed: int, round_no: int, trace: bool,
              timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Every interpreter compiles the engine from source, whether or not a
    # __pycache__ exists, so that set-up time does not depend on earlier runs.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = str(BENCH / ".no-pycache")
    env.pop("KOSZUL_FORGE_CACHE", None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
         str(round_no), "1" if trace else "0", repr(started)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"round {round_no} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["trace"] = trace
    out["elapsed_s"] = time.monotonic() - started
    return out


def run_rounds(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Whole rounds until the next would overrun ``seconds``.

    A traced run starts with an untraced round and then alternates, and
    makes at least one of each.
    """
    start = time.monotonic()
    rounds: list[dict] = []
    while True:
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        if remaining <= 0:
            raise RuntimeError("the hard time limit ran out")
        r = run_round(workload, seed, len(rounds), trace and len(rounds) % 2 == 1,
                      remaining)
        rounds.append(r)
        print(f"round {len(rounds)}{' (traced)' if r['trace'] else ''}: "
              f"setup {r['setup_s']:.3f} s, calls {r['wall_s']:.3f} s "
              f"({r['cpu_s']:.3f} s cpu), "
              f"peak rss {r['rss_mb']:.1f} MB, {r['attempted']} calls, "
              f"{r['failed']} failed", flush=True)
        elapsed = time.monotonic() - start
        longest = max(x["elapsed_s"] for x in rounds)
        if len(rounds) >= (2 if trace else 1) and elapsed + longest > seconds:
            return rounds


def end_to_end(rounds: list[dict]) -> dict:
    return {"wall_s": median(r["wall_s"] for r in rounds),
            "setup_s": median(r["setup_s"] for r in rounds),
            "peak_rss_mb": max(r["rss_mb"] for r in rounds)}


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["trace"]]
    plain = [r for r in rounds if not r["trace"]]
    calls = [r["layers"].get("calls", {}) for r in traced]
    setup = [r["layers"].get("setup", {}) for r in traced]
    values = {name: median(c.get(name, 0) for c in calls)
              for name, _ in LAYER_METRICS}
    values["setup.groebner.reduced_gb.self_s"] = median(
        s.get("groebner.reduced_gb.self_s", 0) for s in setup)
    values["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                  - median(r["wall_s"] for r in plain))
    values["trace.self_share"] = median(
        sum(v for k, v in c.items() if k.endswith(".self_s")) / r["wall_s"]
        for c, r in zip(calls, traced))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "koszulforge" / "__init__.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(rounds), dict(PER_LAYER)
    else:
        values, units = end_to_end(rounds), dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
