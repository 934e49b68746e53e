"""Toric ideals of stable set polytopes.

The stable sets W of a graph define a monomial map y_W -> t * prod_{i in W} x_i;
the toric ideal is its kernel, computed by eliminating the x's and t from the
graph of the map.  Closed-form generator families are provided for the
complement-of-odd-cycle rings and the heptagon-plus-matchings family, plus
degree-d fiber classes (monomials grouped by image), the combinatorial
substrate of the quadratic-Groebner-basis search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graphs import Graph, StableSetFamily, heptagon_matching_family, \
    indicator_vector, odd_cycle_complement, stable_sets
from .groebner import (DEFAULT_SPAIR_CAP, IdealPresentation, eliminate)
from .polyring import Monomial, Polynomial, mono_one


def stable_set_label(subset: tuple[int, ...]) -> str:
    return "y_{" + ",".join(str(i) for i in subset) + "}"


def stable_set_subset(label: str) -> tuple[int, ...] | None:
    """The inverse of ``stable_set_label``: the subset of vertices that
    ``label`` names, or None for a label that it does not write."""
    body = label[3:-1]
    if not body:
        subset = ()
    elif all(x.isascii() and x.isdigit() for x in body.split(",")):
        subset = tuple(int(x) for x in body.split(","))
    else:
        return None
    return subset if stable_set_label(subset) == label else None


@dataclass(frozen=True)
class MonomialMap:
    """The map sending each stable-set variable to its lattice monomial.

    Target exponent vectors have width n+1: the 0/1 indicator of the stable
    set followed by a homogenizing 1 on the final t coordinate.
    """

    graph: Graph
    family: StableSetFamily
    source_labels: tuple[str, ...]
    target_exponents: tuple[tuple[int, ...], ...]

    @property
    def source_width(self) -> int:
        return len(self.source_labels)

    @property
    def target_width(self) -> int:
        return self.graph.n + 1

    def image_of_monomial(self, m: Monomial) -> tuple[int, ...]:
        out = [0] * self.target_width
        for v, e in enumerate(m):
            if e:
                for k, t in enumerate(self.target_exponents[v]):
                    out[k] += e * t
        return tuple(out)

    def to_json(self) -> dict:
        return {"graph": self.graph.to_json(),
                "sources": list(self.source_labels),
                "targets": [list(t) for t in self.target_exponents]}


def monomial_map(g: Graph) -> MonomialMap:
    fam = stable_sets(g)
    labels = tuple(stable_set_label(s) for s in fam.sets)
    targets = tuple(indicator_vector(g.n, s) + (1,) for s in fam.sets)
    return MonomialMap(g, fam, labels, targets)


@dataclass(frozen=True)
class ToricIdeal:
    map: MonomialMap
    presentation: IdealPresentation
    provenance: str  # "elimination" or "closed_form"

    def validate(self) -> None:
        """Check every generator is a +1/-1 homogeneous binomial in the kernel."""
        for g in self.presentation.generators:
            if not g.is_binomial_pm1():
                raise InputError("toric generator is not a unit binomial")
            if not g.is_homogeneous():
                raise InputError("toric generator is not homogeneous")
            m1, m2 = g.terms
            if self.map.image_of_monomial(m1) != self.map.image_of_monomial(m2):
                raise InputError("toric generator does not vanish under the map")

    def to_json(self) -> dict:
        return {"map": self.map.to_json(),
                "generators": [g.to_json() for g in self.presentation.generators],
                "provenance": self.provenance}


def toric_ideal(mp: MonomialMap, spair_cap: int = DEFAULT_SPAIR_CAP) -> ToricIdeal:
    """Kernel of the monomial map, by elimination on the graph of the map.

    All images are honest monomials (no Laurent inverses), so no saturation
    step is needed; the closed-form cross-validation is the safety net.
    """
    s, t = mp.source_width, mp.target_width
    width = s + t
    labels = mp.source_labels + tuple(
        [f"x_{i}" for i in range(1, mp.graph.n + 1)] + ["t"])
    gens = []
    for v in range(s):
        y = Polynomial.variable(width, v)
        image_exps = mono_one(s) + mp.target_exponents[v]
        gens.append(y - Polynomial.monomial(image_exps))
    big = IdealPresentation(labels, tuple(gens))
    small = eliminate(big, set(range(s, width)), spair_cap=spair_cap)
    return ToricIdeal(mp, small, "elimination")


# ---------------------------------------------------------------------------
# closed-form generator families
# ---------------------------------------------------------------------------

def _binomial(labels_index: dict[str, int], width: int,
              plus: list[tuple[int, ...]], minus: list[tuple[int, ...]]) -> Polynomial:
    terms: dict[Monomial, Fraction] = {}
    for sign, subsets in ((1, plus), (-1, minus)):
        mono = [0] * width
        for s in subsets:
            mono[labels_index[stable_set_label(s)]] += 1
        terms[tuple(mono)] = Fraction(sign)
    return Polynomial(width, terms)


def _cycle_complement_binomials(idx: dict[str, int], w: int,
                                k: int) -> list[Polynomial]:
    """The 4k+2 binomials of the complement of the (2k+1)-cycle."""
    n = 2 * k + 1
    gens = []
    for i in range(1, 2 * k + 1):
        gens.append(_binomial(idx, w, [(i,), (i + 1,)], [(), (i, i + 1)]))
    gens.append(_binomial(idx, w, [(1,), (n,)], [(), (1, n)]))
    for i in range(1, 2 * k):
        gens.append(_binomial(idx, w, [(i,), (i + 1, i + 2)],
                              [(i + 2,), (i, i + 1)]))
    gens.append(_binomial(idx, w, [(2 * k,), (1, n)], [(1,), (2 * k, n)]))
    gens.append(_binomial(idx, w, [(n,), (1, 2)], [(2,), (1, n)]))
    return gens


def closed_form_generators(family: str, k: int) -> ToricIdeal:
    """The published binomial generating sets.

    family="cbar": 4k+2 binomials for the complement of the (2k+1)-cycle,
    k >= 3.  family="family": 14+k binomials for the heptagon-plus-matchings
    construction, k >= 1: the heptagon's 14, then one per matching edge.
    """
    if family == "cbar":
        if k < 3:
            raise InputError("cbar needs k >= 3")
        g, cycle_k, matched = odd_cycle_complement(k), k, ()
    elif family == "family":
        if k < 1:
            raise InputError("family needs k >= 1")
        # the matching edges {2i, 2i+1}, i = 4 .. k+3, beside the heptagon
        g, cycle_k, matched = heptagon_matching_family(k), 3, range(4, k + 4)
    else:
        raise InputError(f"unknown closed form family {family!r}")
    mp = monomial_map(g)
    idx = {lab: i for i, lab in enumerate(mp.source_labels)}
    w = mp.source_width
    gens = _cycle_complement_binomials(idx, w, cycle_k)
    for i in matched:
        gens.append(_binomial(idx, w, [(2 * i,), (2 * i + 1,)],
                              [(), (2 * i, 2 * i + 1)]))
    return ToricIdeal(mp, IdealPresentation(mp.source_labels, tuple(gens)),
                      "closed_form")


# ---------------------------------------------------------------------------
# fiber classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberClasses:
    """Degree-d monomials partitioned by image; only classes of size >= 2."""

    map: MonomialMap
    degree: int
    classes: tuple[tuple[Monomial, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def marking_space_size(self) -> int:
        total = 1
        for cls in self.classes:
            total *= len(cls)
        return total


def fiber_classes(mp: MonomialMap, degree: int) -> FiberClasses:
    """Group all degree-d source monomials by their image exponent vector."""
    if degree < 1:
        raise InputError("fiber classes need degree >= 1")
    s = mp.source_width
    groups: dict[tuple[int, ...], list[Monomial]] = {}
    for combo in itertools.combinations_with_replacement(range(s), degree):
        mono = [0] * s
        for v in combo:
            mono[v] += 1
        mono = tuple(mono)
        groups.setdefault(mp.image_of_monomial(mono), []).append(mono)
    classes = [tuple(sorted(ms)) for img, ms in sorted(groups.items())
               if len(ms) >= 2]
    return FiberClasses(mp, degree, tuple(classes))
