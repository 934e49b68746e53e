"""One round of one workload, in a fresh interpreter.

Started by run.py with the engine's ``src`` directory on PYTHONPATH.  Builds
the workload's inputs, runs its certificate calls under one timer, then
checks every result, and prints one JSON line:

  setup_s   from the parent starting this process until the inputs are built
  wall_s    the certificate calls alone (cpu_s: their CPU time)
  rss_mb    peak resident memory once the calls are done
  attempted, failed, wrong, layers (per-phase span totals when traced)

Usage: worker.py WORKLOAD SEED ROUND TRACE STARTED
(STARTED is the parent's time.monotonic() just before the spawn.)
"""

import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path


def main(workload: str, seed: int, round_no: int, trace: bool,
         started: float) -> dict:
    import koszulforge
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(koszulforge.__file__).resolve().parent.parent != src:
        raise SystemExit(f"koszulforge was imported from {koszulforge.__file__}, "
                         f"not from {src}")
    import tracing
    import workloads

    tracer = tracing.Tracer()
    if trace:
        tracer.install()
        tracer.phase = "setup"
    chains = workloads.SETUP[workload]()
    setup_s = time.monotonic() - started
    random.Random(f"{seed}:{round_no}").shuffle(chains)

    outcomes = []
    tracer.phase = "calls" if trace else None
    start, start_cpu = time.perf_counter(), time.process_time()
    for chain in chains:
        previous, broken = None, False
        for step in chain:
            if broken:
                outcomes.append((step, None, None, True))
                continue
            try:
                result = step.run(previous)
            except Exception:
                traceback.print_exc()
                outcomes.append((step, None, None, True))
                broken = True
                continue
            outcomes.append((step, result, previous, False))
            previous = result
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - start_cpu
    tracer.phase = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = wrong = 0
    for step, result, previous, raised in outcomes:
        if raised:
            failed += 1
            continue
        problems = step.check(result, previous)
        if problems:
            failed += 1
            wrong += 1
            print(f"{step.label}: " + "; ".join(problems), file=sys.stderr)
    return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
            "rss_mb": rss_mb,
            "attempted": len(outcomes), "failed": failed, "wrong": wrong,
            "layers": {phase: dict(s) for phase, s in tracer.stats.items()}}


if __name__ == "__main__":
    name, seed_arg, round_arg, trace_arg, started_arg = sys.argv[1:6]
    print(json.dumps(main(name, int(seed_arg), int(round_arg),
                          trace_arg == "1", float(started_arg))))
