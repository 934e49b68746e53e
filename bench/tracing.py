"""Spans and counters around the engine's public functions.

Each traced function is replaced by a wrapper wherever a ``koszulforge``
module holds it, so that ``qgb.feasible_strict`` and
``exactlp.feasible_strict`` are both traced.  Spans nest: a span's self time
is its duration minus the time its child spans cover.  Spans are folded into
per-phase totals as they end; nothing is recorded while the phase is None.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter


def _count_lp(stats, name, call, result, duration, this):
    stats[name + ".infeasible"] += result is None
    stats[name + ".constraints"] += len(call["diffs"])


def _count_qgb(stats, name, call, result, duration, this):
    stats["qgb.markings_tested"] += result.tested_markings
    stats["qgb.markings_feasible"] += result.feasible_markings


def _count_gb(stats, name, call, result, duration, this):
    stats[name + ".basis_size"] += len(result.elements)
    seen = this.distinct_gb.setdefault(this.phase, set())
    seen.add(hash((call["pres"], call["order"])))
    stats[name + ".distinct"] = len(seen)


def _count_kernel(stats, name, call, result, duration, this):
    stats[name + ".columns"] += len(call["columns"])
    stats[name + ".fill"] += sum(len(r) for r in call["self"].pivots.values())


def _count_betti(stats, name, call, result, duration, this):
    char0 = call["characteristic"] == 0
    stats[name + (".char0_s" if char0 else ".charp_s")] += duration


# (module, function, span name, counter hook)
FUNCTIONS = (
    ("qgb", "decide_quadratic_gb", "qgb.decide_quadratic_gb", _count_qgb),
    ("exactlp", "feasible_strict", "exactlp.feasible_strict", _count_lp),
    ("hilbert", "monomial_numerator", "hilbert.monomial_numerator", None),
    ("toric", "fiber_classes", "toric.fiber_classes", None),
    ("toric", "toric_ideal", "toric.toric_ideal", None),
    ("groebner", "reduced_gb", "groebner.reduced_gb", _count_gb),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("groebner", "multiplication_table", "groebner.multiplication_table", None),
    ("hilbert", "hilbert_series", "hilbert.hilbert_series", None),
    ("hilbert", "quotient_by_linear_form", "hilbert.quotient_by_linear_form", None),
    ("hilbert", "find_regular_linear_system",
     "hilbert.find_regular_linear_system", None),
    ("hilbert", "socle", "hilbert.socle", None),
    ("betti", "betti_table", "betti.betti_table", _count_betti),
)
# (module, class, method, span name, counter hook)
METHODS = (
    ("linalg", "Eliminator", "kernel_of_columns", "linalg.kernel_of_columns",
     _count_kernel),
    ("linalg", "Eliminator", "insert", "linalg.insert", None),
)


class Tracer:
    """Per-phase totals of span counts, self times and counters."""

    def __init__(self):
        self.phase: str | None = None
        self.stats: dict[str, defaultdict] = {}
        self.distinct_gb: dict[str, set[int]] = {}
        self._children: list[list[float]] = []

    def wrap(self, fn, name, hook):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            stats = self.stats.setdefault(self.phase, defaultdict(float))
            children = [0.0]
            self._children.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._children.pop()
                if self._children:
                    self._children[-1][0] += duration
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += duration - children[0]
            if hook is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                hook(stats, name, call.arguments, result, duration, self)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded engine module."""
        for mod_name, attr, name, hook in FUNCTIONS:
            original = getattr(importlib.import_module("koszulforge." + mod_name),
                               attr)
            wrapper = self.wrap(original, name, hook)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("koszulforge"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        for mod_name, cls_name, attr, name, hook in METHODS:
            cls = getattr(importlib.import_module("koszulforge." + mod_name),
                          cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, hook))
