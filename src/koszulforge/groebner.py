"""Buchberger engine: reduced Groebner bases, normal forms, initial ideals,
standard monomials, and elimination.

The pair handling follows Gebauer-Moeller (the update step of Becker and
Weispfenning's GROEBNERNEWS2) with the normal selection strategy: process
the pair whose lcm has the lowest total degree first, ties broken by the
term order on the lcm and then by the pair's indices.  A pair's lcm and its
selection key are computed once, when the pair is created, and pending
pairs wait in a heap; a pair the criteria discard later is skipped when it
is popped.  Each basis element keeps its leading monomial and its order
key.  Everything is exact over the rationals and deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, ResourceCapError
from .polyring import (Monomial, Polynomial, TermOrder, mono_degree, mono_div,
                       mono_divides, mono_lcm, mono_mul, unit_mono)

DEFAULT_SPAIR_CAP = 10 ** 6


@dataclass(frozen=True)
class IdealPresentation:
    """A list of generators in a labelled polynomial ring."""

    labels: tuple[str, ...]
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InputError("variable labels must be unique")
        for g in self.generators:
            if g.width != self.width:
                raise InputError("generator width mismatch")
            if g.is_zero():
                raise InputError("zero generator")

    @property
    def width(self) -> int:
        return len(self.labels)

    @property
    def homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def to_json(self) -> dict:
        return {"labels": list(self.labels),
                "generators": [g.to_json() for g in self.generators]}

    @staticmethod
    def from_json(data: dict) -> "IdealPresentation":
        labels = tuple(data["labels"])
        gens = tuple(Polynomial.from_json(g, len(labels))
                     for g in data["generators"])
        return IdealPresentation(labels, gens)


@dataclass(frozen=True)
class GroebnerBasis:
    order: TermOrder
    elements: tuple[Polynomial, ...]

    @property
    def max_degree(self) -> int:
        return max((g.degree() for g in self.elements), default=0)

    @property
    def is_quadratic(self) -> bool:
        return self.max_degree <= 2

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading(self.order)[0] for g in self.elements)

    def to_json(self) -> dict:
        return {"order": self.order.descriptor(),
                "elements": [g.to_json() for g in self.elements],
                "initial_ideal": [list(m) for m in self.leading_monomials()],
                "flags": {"max_degree": self.max_degree,
                          "quadratic": self.is_quadratic}}


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators (an antichain under divisibility)."""

    width: int
    generators: tuple[Monomial, ...]

    @property
    def is_quadratic(self) -> bool:
        return all(mono_degree(m) <= 2 for m in self.generators)

    @property
    def is_squarefree(self) -> bool:
        return all(all(e <= 1 for e in m) for m in self.generators)

    def contains(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.generators)

    def to_json(self) -> dict:
        return {"width": self.width,
                "generators": [list(m) for m in self.generators],
                "flags": {"quadratic": self.is_quadratic,
                          "squarefree": self.is_squarefree}}


def minimal_generators(gens) -> list[Monomial]:
    """The divisibility-minimal members of a set of monomials, sorted."""
    gens = sorted(set(gens))
    return [m for m in gens
            if not any(g != m and mono_divides(g, m) for g in gens)]


def monomial_ideal(width: int, gens) -> MonomialIdeal:
    """Minimalize and sort a generating set of monomials."""
    return MonomialIdeal(width, tuple(minimal_generators(gens)))


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _reduce_dict(f: dict[Monomial, Fraction],
                 reducers: list[tuple[Monomial, Fraction, dict[Monomial, Fraction]]],
                 key) -> dict[Monomial, Fraction]:
    """Full normal form of the term dict f against (lm, lc, terms) reducers."""
    p = dict(f)
    remainder: dict[Monomial, Fraction] = {}
    while p:
        lm = max(p, key=key)
        lc = p[lm]
        hit = None
        for glm, glc, gterms in reducers:
            if mono_divides(glm, lm):
                hit = (glm, glc, gterms)
                break
        if hit is None:
            remainder[lm] = lc
            del p[lm]
            continue
        glm, glc, gterms = hit
        shift = mono_div(lm, glm)
        scale = lc / glc
        for m, c in gterms.items():
            mm = mono_mul(m, shift)
            s = p.get(mm, Fraction(0)) - scale * c
            if s:
                p[mm] = s
            else:
                p.pop(mm, None)
    return remainder


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by gb; zero iff f lies in the ideal."""
    if f.width != gb.order.width:
        raise InputError("polynomial and basis live in different rings")
    reducers = [(*g.leading(gb.order), g.terms) for g in gb.elements]
    reduced = _reduce_dict(f.terms, reducers, gb.order.key)
    return Polynomial(f.width, reduced)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, order: TermOrder, spair_cap: int):
        self.order = order
        self.key = order.key
        self.cap = spair_cap
        self.processed = 0
        self.polys: list[dict[Monomial, Fraction]] = []
        self.lms: list[Monomial] = []
        self.lm_keys: list = []
        self.G: set[int] = set()
        # live pairs with the lcm of their leading monomials; the heap holds
        # every pair ever created, and a pair once dropped from B never
        # returns, so popping skips the dead ones
        self.B: dict[tuple[int, int], Monomial] = {}
        self.heap: list = []

    def add_poly(self, terms: dict[Monomial, Fraction]) -> int:
        lm = max(terms, key=self.key)
        lc = terms[lm]
        if lc != 1:
            terms = {m: c / lc for m, c in terms.items()}
        self.polys.append(terms)
        self.lms.append(lm)
        self.lm_keys.append(self.key(lm))
        return len(self.polys) - 1

    def by_leading(self, indices) -> list[int]:
        return sorted(indices, key=self.lm_keys.__getitem__)

    def reduce(self, terms: dict[Monomial, Fraction], against: list[int]):
        one = Fraction(1)
        reducers = [(self.lms[i], one, self.polys[i]) for i in against]
        return _reduce_dict(terms, reducers, self.key)

    def update(self, ih: int) -> None:
        """Gebauer-Moeller pair update after adding basis element ih."""
        lms = self.lms
        mh = lms[ih]
        # lcm(mh, lm_g) for every element so far: pairs in B may involve
        # elements that have already left G
        lcm_h = [mono_lcm(mh, m) for m in lms]
        C = set(self.G)
        D: list[int] = []
        E: list[int] = []
        while C:
            ig = C.pop()
            lcm_hg = lcm_h[ig]
            if mono_mul(mh, lms[ig]) == lcm_hg:
                D.append(ig)
            elif (not any(mono_divides(lcm_h[ip], lcm_hg) for ip in C)
                    and not any(mono_divides(lcm_h[ip], lcm_hg) for ip in D)):
                D.append(ig)
                E.append(ig)
        self.B = {pair: lcm12 for pair, lcm12 in self.B.items()
                  if not mono_divides(mh, lcm12)
                  or lcm_h[pair[0]] == lcm12 or lcm_h[pair[1]] == lcm12}
        for ig in E:
            pair, lcm = (ih, ig), lcm_h[ig]
            self.B[pair] = lcm
            heapq.heappush(self.heap, (mono_degree(lcm), self.key(lcm), pair))
        self.G = {ig for ig in self.G if not mono_divides(mh, lms[ig])}
        self.G.add(ih)

    def pop_pair(self) -> tuple[tuple[int, int], Monomial]:
        """The live pair whose lcm is least by (degree, order key, pair)."""
        while True:
            pair = heapq.heappop(self.heap)[2]
            lcm = self.B.pop(pair, None)
            if lcm is not None:
                return pair, lcm

    def spoly(self, i: int, j: int, lcm: Monomial) -> dict[Monomial, Fraction]:
        mi, mj = self.lms[i], self.lms[j]
        si, sj = mono_div(lcm, mi), mono_div(lcm, mj)
        out: dict[Monomial, Fraction] = {}
        for m, c in self.polys[i].items():
            out[mono_mul(m, si)] = c
        for m, c in self.polys[j].items():
            mm = mono_mul(m, sj)
            s = out.get(mm, Fraction(0)) - c
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
        return out


def reduced_gb(pres: IdealPresentation, order: TermOrder,
               spair_cap: int = DEFAULT_SPAIR_CAP) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal w.r.t. the order.

    Results are memoized per (presentation, order): the same quotient ring
    is interrogated many times across the pipeline.  Raises
    ResourceCapError after ``spair_cap`` processed S-pairs; that is a hard
    failure, never a silent truncation.
    """
    # positional, so that calls with and without spair_cap= share an entry
    return _buchberger(pres, order, spair_cap)


@lru_cache(maxsize=512)
def _buchberger(pres: IdealPresentation, order: TermOrder,
                spair_cap: int) -> GroebnerBasis:
    if order.width != pres.width:
        raise InputError("order width does not match presentation")
    if not order.is_global:
        raise InputError("Groebner bases require a global (well-) order")
    eng = _Engine(order, spair_cap)

    # inter-reduce the input before starting; each element is reduced only
    # against already-kept ones, so content is never lost to mutual
    # cancellation, and we iterate to a fixpoint
    current = [dict(g.terms) for g in pres.generators]
    while True:
        kept: list[tuple[Monomial, Fraction, dict]] = []
        changed = False
        for p in current:
            r = _reduce_dict(p, kept, eng.key)
            if r != p:
                changed = True
            if r:
                lm = max(r, key=eng.key)
                lc = r[lm]
                q = {m: c / lc for m, c in r.items()}
                kept.append((lm, q[lm], q))
        current = [q for _, _, q in kept]
        if not changed:
            break
    if not current:
        return GroebnerBasis(order, ())
    for p in current:
        eng.add_poly(p)

    for ih in eng.by_leading(range(len(eng.polys))):
        eng.update(ih)

    while eng.B:
        pair, lcm = eng.pop_pair()
        eng.processed += 1
        if eng.processed > eng.cap:
            raise ResourceCapError(
                f"S-pair budget of {eng.cap} exceeded; raise --spair-cap to continue")
        s = eng.spoly(*pair, lcm)
        if not s:
            continue
        h = eng.reduce(s, eng.by_leading(eng.G))
        if h:
            eng.update(eng.add_poly(h))

    # minimalize and tail-reduce into the reduced basis
    chosen = eng.by_leading(eng.G)
    minimal = [i for i in chosen
               if not any(j != i and mono_divides(eng.lms[j], eng.lms[i])
                          for j in chosen)]
    final: list[Polynomial] = []
    for i in minimal:
        others = [j for j in minimal if j != i]
        r = eng.reduce(eng.polys[i], others)
        if not r:
            raise AssertionError("minimal basis element reduced to zero")
        lm = max(r, key=eng.key)
        lc = r[lm]
        final.append(Polynomial(pres.width, {m: c / lc for m, c in r.items()}))
    final.sort(key=lambda g: eng.key(g.leading(order)[0]))
    return GroebnerBasis(order, tuple(final))


def is_quadratically_generated(pres: IdealPresentation,
                               spair_cap: int = DEFAULT_SPAIR_CAP) -> bool:
    """Whether the ideal is generated by its elements of degree <= 2.

    The presentation may carry redundant higher-degree elements (an
    elimination output is a whole Groebner basis); quadraticity is a
    property of the ideal, so it is tested by reducing every basis element
    against the subideal spanned in degrees <= 2.
    """
    gb = reduced_gb(pres, TermOrder.grevlex(pres.width), spair_cap=spair_cap)
    low = tuple(g for g in gb.elements if g.degree() <= 2)
    if len(low) == len(gb.elements):
        return True
    if not low:
        return False
    sub = reduced_gb(IdealPresentation(pres.labels, low), gb.order,
                     spair_cap=spair_cap)
    return all(normal_form(g, sub).is_zero() for g in gb.elements)


def spolynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """S-polynomial of two nonzero polynomials (used by property tests)."""
    mf, cf = f.leading(order)
    mg, cg = g.leading(order)
    lcm = mono_lcm(mf, mg)
    return (f.mul_term(mono_div(lcm, mf), 1 / cf)
            - g.mul_term(mono_div(lcm, mg), 1 / cg))


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Initial ideal of a reduced basis; generators are already minimal."""
    return monomial_ideal(gb.order.width, gb.leading_monomials())


# ---------------------------------------------------------------------------
# standard monomials and multiplication tables
# ---------------------------------------------------------------------------

def standard_monomials(ideal: MonomialIdeal, degree: int) -> list[Monomial]:
    """All degree-d monomials outside the ideal, in grevlex order."""
    if degree < 0:
        raise InputError("degree must be >= 0")
    m = ideal.width
    order = TermOrder.grevlex(m)
    out = []
    for combo in itertools.combinations_with_replacement(range(m), degree):
        mono = [0] * m
        for v in combo:
            mono[v] += 1
        mono = tuple(mono)
        if not ideal.contains(mono):
            out.append(mono)
    out.sort(key=order.key)
    return out


@dataclass(frozen=True)
class MultiplicationTable:
    """Per-degree standard-monomial bases of a quotient ring together with
    the action of each variable in normal-form coordinates."""

    gb: GroebnerBasis
    bases: tuple[tuple[Monomial, ...], ...]
    index: tuple[dict, ...]
    # action[d][v][i] = sparse {target_index: coeff} for variable v times
    # the i-th basis monomial of degree d; an integral coeff is an int
    action: tuple[tuple[tuple[dict, ...], ...], ...]

    @property
    def degree_cap(self) -> int:
        return len(self.bases) - 1

    def dimension(self, d: int) -> int:
        return len(self.bases[d])

    def dimensions(self) -> tuple[int, ...]:
        return tuple(len(basis) for basis in self.bases)


def multiplication_table(gb: GroebnerBasis, degree_cap: int) -> MultiplicationTable:
    """Coordinatize K[Y]/I up to a degree cap via its standard monomials."""
    width = gb.order.width
    ini = initial_ideal(gb)
    bases = [tuple(standard_monomials(ini, d)) for d in range(degree_cap + 1)]
    index = [{m: i for i, m in enumerate(basis)} for basis in bases]
    action: list[tuple[tuple[dict, ...], ...]] = []
    for d in range(degree_cap + 1):
        per_var: list[tuple[dict, ...]] = []
        if d + 1 <= degree_cap:
            target = index[d + 1]
            for v in range(width):
                cols = []
                for mono in bases[d]:
                    prod = mono_mul(mono, unit_mono(width, v))
                    if prod in target:
                        cols.append({target[prod]: 1})
                    else:
                        nf = normal_form(Polynomial.monomial(prod), gb)
                        cols.append({target[m]: c.numerator
                                     if c.denominator == 1 else c
                                     for m, c in nf.terms.items()})
                per_var.append(tuple(cols))
        action.append(tuple(per_var))
    return MultiplicationTable(gb, tuple(bases), tuple(index), tuple(action))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def eliminate(pres: IdealPresentation, drop: set[int] | list[int] | tuple[int, ...],
              kept_order: TermOrder | None = None,
              spair_cap: int = DEFAULT_SPAIR_CAP) -> IdealPresentation:
    """Generators of the elimination ideal I inter K[kept variables].

    Uses a block order ranking dropped variables above kept ones; the
    y-only elements of the reduced basis generate (indeed form a reduced
    basis of) the intersection.
    """
    drop = set(drop)
    if not all(0 <= v < pres.width for v in drop):
        raise InputError("dropped variable out of range")
    keep = [v for v in range(pres.width) if v not in drop]
    if kept_order is None:
        kept_order = TermOrder.grevlex(pres.width)
    order = TermOrder.block(pres.width, sorted(drop), kept_order)
    gb = reduced_gb(pres, order, spair_cap=spair_cap)
    kept_polys = []
    for g in gb.elements:
        if all(all(m[v] == 0 for v in drop) for m in g.terms):
            kept_polys.append(g.project(keep))
    labels = tuple(pres.labels[v] for v in keep)
    return IdealPresentation(labels, tuple(kept_polys))
