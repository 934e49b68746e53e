"""Exhaustive decision of quadratic Groebner basis existence.

A term order induces, on each degree-2 fiber class of the toric map, a
choice of minimal monomial.  Such a complete choice (a marking) is
realizable by an order iff the strict weight system {w . (u - s) > 0} over
all non-minimal members u and minima s is feasible, and the ideal has a
quadratic basis under a realizing order iff the monomial ideal generated by
the non-minimal members has the same Hilbert series as the toric ring.
Accounting for every marking therefore decides existence exactly: any match
yields a realizing weight order with its reduced quadratic basis, and no
match over all feasible markings is a nonexistence certificate.  Equal
series force equal degree-3 parts, so a feasible marking is first checked
by counting the distinct cubic multiples of its non-minimal members against
the number of cubics outside the ring's degree 3; only a marking that passes
that count has its full Hilbert numerator computed.

The markings are walked depth-first in ``itertools.product`` order, one
class per level.  A prefix of choices carries the weight system of its
classes.  A child whose new inequalities the parent's witness already
satisfies inherits that witness; otherwise its prefix system is solved
exactly, and an infeasible prefix cuts its whole subtree, since every
marking below it contains the same contradiction.  Leaves and cut subtrees
together account for every marking, in the order a plain enumeration would
visit them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

from .errors import InputError, ResourceCapError, check_cap
from .exactlp import feasible_strict, nonnegative_shift
from .groebner import DEFAULT_SPAIR_CAP, GroebnerBasis, reduced_gb
from .hilbert import hilbert_series, monomial_numerator
from .polyring import Monomial, TermOrder, pack, unit_mono
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
            out.extend(_class_differences(cls, choice))
        return out

    def nonminimal_members(self) -> list[Monomial]:
        out = []
        for choice, cls in zip(self.minima, self.classes.classes):
            out.extend(u for k, u in enumerate(cls) if k != choice)
        return out


def _class_differences(cls: tuple[Monomial, ...],
                       choice: int) -> list[tuple[int, ...]]:
    s = cls[choice]
    return [tuple(a - b for a, b in zip(u, s))
            for k, u in enumerate(cls) if k != choice]


@dataclass(frozen=True)
class QGBDecision:
    """The decision with its counts.

    ``tested_markings`` counts the markings accounted for before the search
    stopped: the leaves it reached plus the sizes of the subtrees it cut by
    an infeasible prefix.  It equals ``total_markings`` when no marking
    matches.
    """

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
    and every feasible marking is kept with its weight witness, in product
    order.  A negative cap is an InputError.
    """
    # positional, so that calls with and without keywords share an entry
    return _decide(ideal, check_cap("marking_cap", marking_cap),
                   check_cap("spair_cap", spair_cap))


@lru_cache(maxsize=64)
def _decide(ideal: ToricIdeal, marking_cap: int,
            spair_cap: int) -> QGBDecision:
    """Walk the markings (see the module docstring) and series-test each
    feasible one, stopping at the first match.

    The series test starts with a count in degree 3: the distinct products
    of the marking's non-minimal members with one variable must number
    C(n+2, 3) - HF_R(3), read once from the ring's Hilbert series.  A marking
    that fails the count fails the full test, so the count only spares its
    numerator.

    Every marking is either a leaf or inside a cut subtree, and the walk
    meets them in product order, so ``tested``, ``feasible``, the witness
    marking and the order of the samples are those of a plain enumeration.
    """
    pres = ideal.presentation
    width = pres.width
    fc = fiber_classes(ideal.map, 2)
    total = fc.marking_space_size()
    if total > marking_cap:
        raise ResourceCapError(
            f"marking space {total} exceeds the cap {marking_cap}; "
            "raise --marking-cap to search anyway")
    target = hilbert_series(pres, spair_cap=spair_cap)
    # the degree-3 part of a matching initial ideal: all cubics but HF_R(3),
    # against the packed cubic multiples of each class member
    cubics = comb(width + 2, 3) - target.function_values(3)[3]
    units = [pack(unit_mono(width, v)) for v in range(width)]
    multiples = [[frozenset(pack(u) + e for e in units) for u in cls]
                 for cls in fc.classes]

    feasible_count = 0
    tested = 0
    samples: list[tuple[Marking, tuple[int, ...]]] = []
    for minima, w, accounted in _walk(fc, width):
        tested += accounted
        if w is None:
            continue
        feasible_count += 1
        marking = Marking(fc, minima)
        samples.append((marking, w))
        if len(frozenset().union(*(
                m for choice, cls in zip(minima, multiples)
                for k, m in enumerate(cls) if k != choice))) != cubics:
            continue
        gens = marking.nonminimal_members()
        if monomial_numerator(gens) != target.numerator:
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


def _walk(fc: FiberClasses, width: int):
    """Depth-first over the markings in product order.

    Yields (minima, w, 1) for each feasible marking with its witness w, and
    (prefix, None, size) for each infeasible prefix with the number of
    markings below it.
    """
    steps = [[_class_differences(cls, m) for m in range(len(cls))]
             for cls in fc.classes]
    below = [prod(len(cls) for cls in fc.classes[i + 1:])
             for i in range(len(steps))]

    def visit(depth, minima, diffs, w):
        if depth == len(steps):
            yield minima, w, 1
            return
        for m, new in enumerate(steps[depth]):
            prefix = diffs + new
            if all(sum(a * b for a, b in zip(w, d)) > 0 for d in new):
                child = w
            else:
                child = feasible_strict(prefix)
            if child is None:
                yield minima + (m,), None, below[depth]
            else:
                yield from visit(depth + 1, minima + (m,), prefix, child)

    # the empty system: the all-ones witness
    yield from visit(0, (), [], (1,) * width)


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
