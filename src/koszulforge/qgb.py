"""Exhaustive decision of quadratic Groebner basis existence.

A term order induces, on each degree-2 fiber class of the toric map, a
choice of minimal monomial.  Such a complete choice (a marking) is
realizable by an order iff the strict weight system {w . (u - s) > 0} over
all non-minimal members u and minima s is feasible, and the ideal has a
quadratic basis under a realizing order iff the monomial ideal generated by
the non-minimal members has the same Hilbert series as the toric ring.
Enumerating every marking therefore decides existence exactly: any match
yields a realizing weight order with its reduced quadratic basis, and no
match over all feasible markings is a nonexistence certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import InputError, ResourceCapError
from .exactlp import feasible_strict, nonnegative_shift
from .groebner import DEFAULT_SPAIR_CAP, GroebnerBasis, reduced_gb
from .hilbert import hilbert_series, monomial_numerator
from .polyring import Monomial, TermOrder
from .toric import FiberClasses, ToricIdeal, fiber_classes

DEFAULT_MARKING_CAP = 2 ** 20


@dataclass(frozen=True)
class Marking:
    """A designated minimal monomial per degree-2 fiber class."""

    classes: FiberClasses
    minima: tuple[int, ...]  # index of the chosen minimum within each class

    def __post_init__(self):
        if len(self.minima) != self.classes.count:
            raise InputError("one minimum per class required")

    def difference_vectors(self) -> list[tuple[int, ...]]:
        """u - s for every non-minimal member u against its class minimum s."""
        out = []
        for choice, cls in zip(self.minima, self.classes.classes):
            s = cls[choice]
            for k, u in enumerate(cls):
                if k != choice:
                    out.append(tuple(a - b for a, b in zip(u, s)))
        return out

    def nonminimal_members(self) -> list[Monomial]:
        out = []
        for choice, cls in zip(self.minima, self.classes.classes):
            out.extend(u for k, u in enumerate(cls) if k != choice)
        return out


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[int, ...] | None = None
    infeasible_subset: tuple[int, ...] | None = None


def weight_feasible(diffs: list[tuple[int, ...]],
                    find_infeasible_subset: bool = True) -> FeasibilityResult:
    """Decide whether some rational w has w . d > 0 for every d.

    A term order realizes a finite set of strict monomial comparisons iff
    such a weight vector exists, so this is exact for markings.  Witnesses
    are re-verified; on infeasibility a minimal-ish subset is extracted by
    greedy drop-one (diagnostics mirroring the inequality-chain arguments).
    """
    diffs = [tuple(d) for d in diffs]
    if not diffs:
        return FeasibilityResult(True, witness=None)
    widths = {len(d) for d in diffs}
    if len(widths) != 1:
        raise InputError("difference vectors must share one width")
    w = feasible_strict(diffs)
    if w is not None:
        if not all(sum(a * b for a, b in zip(w, d)) > 0 for d in diffs):
            raise AssertionError("LP witness violates a strict inequality")
        return FeasibilityResult(True, witness=w)
    if not find_infeasible_subset:
        return FeasibilityResult(False)
    core = list(range(len(diffs)))
    i = 0
    while i < len(core):
        trial = [diffs[j] for k, j in enumerate(core) if k != i]
        if not trial or feasible_strict(trial) is not None:
            i += 1
        else:
            core.pop(i)
    return FeasibilityResult(False, infeasible_subset=tuple(core))


@dataclass(frozen=True)
class QGBDecision:
    exists: bool
    total_markings: int
    feasible_markings: int
    tested_markings: int
    realizing_order: TermOrder | None = None
    witness_weights: tuple[int, ...] | None = None
    witness_marking: Marking | None = None
    quadratic_gb: GroebnerBasis | None = None
    feasible_samples: tuple[tuple[Marking, tuple[int, ...]], ...] = ()

    def to_json(self) -> dict:
        out = {"exists": self.exists,
               "markings": {"total": self.total_markings,
                            "feasible": self.feasible_markings,
                            "tested": self.tested_markings}}
        if self.exists:
            out["witness"] = {
                "weights": list(self.witness_weights),
                "order": self.realizing_order.descriptor(),
                "gb": self.quadratic_gb.to_json() if self.quadratic_gb else None,
                "marking": list(self.witness_marking.minima),
            }
        else:
            out["exhaustion"] = {"total": self.total_markings,
                                 "feasible": self.feasible_markings,
                                 "all_failed_series_test": True}
        return out


def decide_quadratic_gb(ideal: ToricIdeal,
                        marking_cap: int = DEFAULT_MARKING_CAP,
                        spair_cap: int = DEFAULT_SPAIR_CAP) -> QGBDecision:
    """Decide, exactly and exhaustively, whether any term order gives the
    toric ideal a quadratic Groebner basis.

    Soundness and completeness rest on two standard facts: initial ideals
    share the ring's Hilbert function, and the degree-2 part of an initial
    ideal is exactly the set of non-minimal degree-2 fiber class members
    under the order's marking.  Decisions are memoized per (ideal, caps),
    and every feasible marking is kept with its weight witness.
    """
    # positional, so that calls with and without keywords share an entry
    return _decide(ideal, marking_cap, spair_cap)


@lru_cache(maxsize=64)
def _decide(ideal: ToricIdeal, marking_cap: int,
            spair_cap: int) -> QGBDecision:
    pres = ideal.presentation
    width = pres.width
    fc = fiber_classes(ideal.map, 2)
    total = fc.marking_space_size()
    if total > marking_cap:
        raise ResourceCapError(
            f"marking space {total} exceeds the cap {marking_cap}; "
            "raise --marking-cap to search anyway")
    target_numerator = hilbert_series(pres, spair_cap=spair_cap).numerator

    feasible_count = 0
    tested = 0
    samples: list[tuple[Marking, tuple[int, ...]]] = []
    for minima in product(*(range(len(cls)) for cls in fc.classes)):
        tested += 1
        marking = Marking(fc, minima)
        diffs = marking.difference_vectors()
        w = feasible_strict(diffs) if diffs else tuple([1] * width)
        if w is None:
            continue
        feasible_count += 1
        samples.append((marking, w))
        gens = marking.nonminimal_members()
        if monomial_numerator(gens) != target_numerator:
            continue
        # match: realize the marking and certify by an actual basis
        weights = nonnegative_shift(w)
        order = TermOrder.weight(weights)
        gb = reduced_gb(pres, order, spair_cap=spair_cap)
        if not gb.is_quadratic:
            raise AssertionError(
                "series test accepted a marking whose basis is not quadratic")
        return QGBDecision(True, total, feasible_count, tested,
                           realizing_order=order, witness_weights=weights,
                           witness_marking=marking, quadratic_gb=gb,
                           feasible_samples=tuple(samples))
    return QGBDecision(False, total, feasible_count, tested,
                       feasible_samples=tuple(samples))


def cross_check_marking(ideal: ToricIdeal, marking: Marking,
                        w: tuple[int, ...],
                        spair_cap: int = DEFAULT_SPAIR_CAP) -> bool:
    """Run full Buchberger under the weight order realizing the marking and
    report whether the reduced basis is quadratic.

    Must agree with the Hilbert-series criterion for the same marking; the
    property suite enforces that agreement.
    """
    diffs = marking.difference_vectors()
    for d in diffs:
        if sum(a * b for a, b in zip(w, d)) <= 0:
            raise InputError("weight vector does not realize the marking")
    order = TermOrder.weight(nonnegative_shift(w))
    gb = reduced_gb(ideal.presentation, order, spair_cap=spair_cap)
    return gb.is_quadratic


def series_test_for_marking(ideal: ToricIdeal, marking: Marking,
                            spair_cap: int = DEFAULT_SPAIR_CAP) -> bool:
    """The Hilbert-series half of the cross-check: does the non-minimal
    monomial ideal match the toric ring's series?"""
    target = hilbert_series(ideal.presentation, spair_cap=spair_cap).numerator
    return monomial_numerator(marking.nonminimal_members()) == target


def sample_feasible_markings(decision: QGBDecision, count: int,
                             seed: int = 0) -> list[tuple[Marking, tuple[int, ...]]]:
    """Deterministic sample of feasible markings with witnesses."""
    pool = list(decision.feasible_samples)
    if len(pool) <= count:
        return pool
    rng = random.Random(seed)
    return rng.sample(pool, count)
