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

The update after adding h creates the pairs that Gebauer and Moeller's pop
loop over a fresh set of G keeps, in one pass: the lcms lcm(h, g), g in G,
are minimalized as ``minimal_packed`` does, and for each minimal one that
no coprime g shares, the pair with the last element, in the set's
iteration order, that has it.  The iteration order of a set of small ints
is fixed, whatever the hash seed.  An lcm of h with a pending pair's
element is computed only when lm(h) divides that pair's lcm.

There is one way into a basis G (``_Engine.enter``): the input generators,
in order of their leading keys, the form l of a resumed quotient and every
S-polynomial alike are reduced against G, added unless they vanish, and
passed to the update, which drops each element of G whose leading monomial
the new one divides.  So the leading monomials of G form an antichain at
every step: G is a minimal basis throughout, and the reduced basis is G
tail-reduced.

The same step resumes a finished basis: the grevlex basis of a quotient
R/(l) whose presentation records its origin (R, l) starts from the reduced
basis of R, its pairs all processed, l enters it, and only the new pairs
are processed.  The element led by the leading variable of l is then
dropped and that variable's field cut out of the others (see ``_resume``),
by the packed projection that also builds the generators of R/(l), the
remainders of those of R on division by l alone
(``quotient_presentation``).  One memo, that of ``reduced_gb``, holds both
kinds of basis.

Inside the engine, the division and the monomial minimalization the data
are machine ints:

* a monomial is a packed int (see polyring): the input is packed once, and
  a basis keeps its packed form;
* its order key is the int ``TermOrder.packed_key``, memoised per engine;
* every engine polynomial is a primitive int vector (content 1) with a
  positive leading coefficient; a Fraction input is cleared of its
  denominators on entry.  Reduction is fraction-free: a leading term c x^u
  is cleared by a reducer with leading term a x^v as
  (a/g) p - (c/g) x^(u-v) g_i, g = gcd(a, c), and the product of the
  factors a/g is kept, so that a normal form divides by it once at the
  end.  A toric ideal, whose binomials have coefficients +-1, keeps lc = 1
  and never scales;
* each basis element is an (lm, terms) reducer built once, and the
  reducers of the current basis, sorted by leading key, form one list that
  is rebuilt only when the basis changes.  A reduced basis keeps the
  reducers Buchberger built, with the order keys of their monomials, for
  its leading monomials, its initial ideal, every normal form taken
  against it and its standard-monomial action, of which it has one
  (``GroebnerBasis.action``).  Its public elements are monic Polynomials
  over Q.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

from .errors import InputError, ResourceCapError, check_cap
from .linalg import Eliminator
from .polyring import (EXP_BITS, EXP_MAX, FIELD_BITS, FIELD_MAX, Monomial,
                       Polynomial, TermOrder, _raw, check_packed, guard_mask,
                       mono_degree, pack, packed_degree, packed_lcm, unpack)

DEFAULT_SPAIR_CAP = 10 ** 6

# a coefficient read out of the engine: an int when integral, else a Fraction
Coeff = int | Fraction
# a packed, primitive engine polynomial with its leading monomial
Reducer = tuple[int, dict[int, int]]


@dataclass(frozen=True)
class IdealPresentation:
    """A list of generators in a labelled polynomial ring.

    ``origin`` is (R, l) when the generators are those of R with the leading
    variable of the linear form l substituted away (see
    ``quotient_presentation``): the grevlex basis is then resumed from that
    of R.  Equality, hashing, repr and JSON ignore it.
    """

    labels: tuple[str, ...]
    generators: tuple[Polynomial, ...]
    origin: tuple[IdealPresentation, Polynomial] | None = field(
        default=None, compare=False, repr=False)

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


@dataclass(frozen=True)
class GroebnerBasis:
    order: TermOrder
    elements: tuple[Polynomial, ...]

    @cached_property
    def _packed(self) -> tuple[int, "_OrderKeys", tuple[Reducer, ...]]:
        """The guard mask, the order keys of the reducers' monomials and the
        primitive packed (lm, terms) reducers of the elements, in their
        order, which every reduction against the basis reads.  A basis from
        Buchberger comes with the reducers the engine built; any other is
        packed here."""
        keys = _OrderKeys(self.order)
        reducers = []
        for g in self.elements:
            terms = _pack_terms(g.terms)[0]
            lm = max(terms, key=keys.__getitem__)
            reducers.append((lm, _primitive(terms, lm)))
        return guard_mask(self.order.width), keys, tuple(reducers)

    @cached_property
    def action(self) -> "StandardAction":
        """The standard-monomial bases and variable actions of K[Y]/I, one
        per basis, so that every caller shares what each has built."""
        return StandardAction(self)

    @property
    def max_degree(self) -> int:
        return max((g.degree() for g in self.elements), default=0)

    @property
    def is_quadratic(self) -> bool:
        return self.max_degree <= 2

    def leading_monomials(self) -> tuple[Monomial, ...]:
        width = self.order.width
        return tuple(unpack(lm, width) for lm, _ in self._packed[2])

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

    def contains(self, m: Monomial) -> bool:
        return self._contains(pack(m))

    @cached_property
    def _packed(self) -> tuple[int, tuple[int, ...]]:
        return guard_mask(self.width), tuple(map(pack, self.generators))

    def _contains(self, p: int) -> bool:
        guard, gens = self._packed
        p_guarded = p | guard
        return any((p_guarded - a) & guard == guard for a in gens)

    @cached_property
    def _involving(self) -> tuple[tuple[int, ...], ...]:
        """The packed generators in which each variable occurs."""
        gens = self._packed[1]
        return tuple(tuple(p for g, p in zip(self.generators, gens) if g[v])
                     for v in range(self.width))

    def _contains_product(self, q: int, v: int) -> bool:
        """Whether q = p * x_v lies in the ideal, for a p outside it: a
        generator that divides q but not p involves x_v."""
        guard = self._packed[0]
        q_guarded = q | guard
        for a in self._involving[v]:
            if (q_guarded - a) & guard == guard:
                return True
        return False


def minimal_generators(gens) -> list[Monomial]:
    """The divisibility-minimal members of a set of monomials, sorted."""
    gens = list(gens)
    if not gens:
        return []
    width = len(gens[0])
    return sorted(unpack(p, width) for p in
                  minimal_packed(map(pack, gens), guard_mask(width)))


def minimal_packed(gens, guard: int) -> list[int]:
    """The divisibility-minimal members of a set of packed monomials.

    A proper divisor is a smaller int (b = a + (b - a)), so in increasing
    order a monomial is minimal iff no minimal one found before divides it.
    ``guard`` may cover more fields than the monomials use.
    """
    kept: list[int] = []
    for p in sorted(set(gens)):
        p_guarded = p | guard
        for a in kept:
            if (p_guarded - a) & guard == guard:
                break
        else:
            kept.append(p)
    return kept


def monomial_ideal(width: int, gens) -> MonomialIdeal:
    """Minimalize and sort a generating set of monomials."""
    return MonomialIdeal(width, tuple(minimal_generators(gens)))


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

class _OrderKeys(dict):
    """Int order keys of packed monomials, each computed on first use.

    It holds the order rather than its key closure, so that a basis, which
    keeps one, stays picklable."""

    def __init__(self, order: TermOrder):
        super().__init__()
        self.order = order

    def __missing__(self, p: int) -> int:
        k = self[p] = self.order.packed_key(p)
        return k


def _pack_terms(terms: dict[Monomial, Fraction]) -> tuple[dict[int, int], int]:
    """The packed terms of a polynomial times the least common denominator
    of its coefficients, and that denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return ({pack(m): c.numerator * (den // c.denominator)
             for m, c in terms.items()}, den)


def _primitive(terms: dict[int, int], lm: int) -> dict[int, int]:
    """terms divided by their content, the coefficient at lm made positive."""
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    return terms if g == 1 else {m: c // g for m, c in terms.items()}


def _quotient(c: int, scale: int) -> Coeff:
    """c / scale, an int when it is integral."""
    return c // scale if c % scale == 0 else Fraction(c, scale)


def _reduce_dict(f: dict[int, int], reducers: Sequence[Reducer],
                 keys: _OrderKeys, guard: int) -> tuple[dict[int, int], int]:
    """Full normal form of the packed int term dict f against primitive
    (lm, terms) reducers, the first divisor in list order reducing.

    Fraction-free: a leading term c x^u is cleared by a reducer with leading
    term a x^v as (a/g) p - (c/g) x^(u-v) g_i with g = gcd(a, c), the
    remainder found so far scaled by a/g too.  Returns (r, scale): scale > 0
    is the product of those factors and r / scale is the remainder of f.
    The leading term is popped from a heap of order keys.

    A product whose exponent overflowed its field is an exact but flagged
    key: it is only compared until it leads, and is checked then, so every
    term that is reduced or kept has passed the check.
    """
    key = keys.__getitem__
    p = dict(f)
    heap = [(-key(m), m) for m in p]
    heapify(heap)
    remainder: dict[int, int] = {}
    scale = 1
    while heap:
        lm = heappop(heap)[1]
        lc = p.get(lm)
        if lc is None:
            # cancelled since it was pushed
            continue
        if lm & guard:
            check_packed(lm, guard)
        # glm | lm, with the guard bits of lm set once for the whole scan
        lm_guarded = lm | guard
        for glm, gterms in reducers:
            if (lm_guarded - glm) & guard == guard:
                break
        else:
            remainder[lm] = p.pop(lm)
            continue
        a = gterms[glm]
        if a != 1:
            g = gcd(a, lc)
            a, lc = a // g, lc // g
            if a != 1:
                scale *= a
                for m in p:
                    p[m] *= a
                for m in remainder:
                    remainder[m] *= a
        shift = lm - glm
        # p[lm], as scaled, is lc times the reducer's leading coefficient,
        # so the term at lm cancels
        for m, c in gterms.items():
            mm = m + shift
            old = p.get(mm)
            if old is None:
                p[mm] = -lc * c
                heappush(heap, (-key(mm), mm))
                continue
            s = old - lc * c
            if s:
                p[mm] = s
            else:
                del p[mm]
    return remainder, scale


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by gb; zero iff f lies in the ideal."""
    width = gb.order.width
    if f.width != width:
        raise InputError("polynomial and basis live in different rings")
    guard, keys, reducers = gb._packed
    terms, den = _pack_terms(f.terms)
    reduced, scale = _reduce_dict(terms, reducers, keys, guard)
    scale *= den
    return Polynomial(width, {unpack(m, width): Fraction(c, scale)
                              for m, c in reduced.items()})


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

class _Engine:
    """Buchberger state over packed monomials and primitive int polynomials."""

    def __init__(self, order: TermOrder, spair_cap: int):
        self.width = order.width
        self.guard = guard_mask(order.width)
        self.keys = _OrderKeys(order)
        self.key = self.keys.__getitem__
        self.cap = spair_cap
        self.processed = 0
        # each element as an (lm, terms) reducer, built once, and the
        # reducers of G by leading key, rebuilt only after G changes
        self.reducers: list[Reducer] = []
        self.lms: list[int] = []
        self.lm_keys: list[int] = []
        self.G: set[int] = set()
        self._by_leading: list[Reducer] | None = None
        # live pairs with the lcm of their leading monomials; the heap holds
        # every pair ever created, and a pair once dropped from B never
        # returns, so popping skips the dead ones
        self.B: dict[tuple[int, int], int] = {}
        self.heap: list = []

    def add_reducer(self, reducer: Reducer) -> int:
        self.reducers.append(reducer)
        self.lms.append(reducer[0])
        self.lm_keys.append(self.key(reducer[0]))
        return len(self.lms) - 1

    def seed(self, gb: GroebnerBasis) -> None:
        """Start from a finished basis of this order: its reducers and order
        keys, each of its pairs processed, so that G is the basis and B is
        empty."""
        _, keys, reducers = gb._packed
        self.keys.update(keys)
        for reducer in reducers:
            self.add_reducer(reducer)
        self.G = set(range(len(reducers)))

    def by_leading(self, indices) -> list[int]:
        return sorted(indices, key=self.lm_keys.__getitem__)

    def basis_reducers(self) -> list[Reducer]:
        """The reducers of G, by leading key."""
        if self._by_leading is None:
            self._by_leading = [self.reducers[i] for i in self.by_leading(self.G)]
        return self._by_leading

    def enter(self, terms: dict[int, int]) -> None:
        """The one way into the basis: reduce the polynomial against G and,
        unless it vanishes, add it and run the pair update.  Reduced, its
        leading monomial is divisible by none in G, and the update drops
        every element of G that it divides, so the leading monomials of G
        stay an antichain.  The remainder's terms come in decreasing order,
        so its first is the leading one."""
        h = _reduce_dict(terms, self.basis_reducers(), self.keys, self.guard)[0]
        if h:
            lm = next(iter(h))
            self.update(self.add_reducer((lm, _primitive(h, lm))))

    def update(self, ih: int) -> None:
        """Gebauer-Moeller pair update after adding basis element ih.

        The pair (h, g), g in G, is created iff lm(h) and lm(g) are not
        coprime, no lcm(h, p), p in G, properly divides lcm(h, g), no p
        with coprime lm(p) shares lcm(h, g), and g is the last, in the
        iteration order of a fresh set of G, of the elements that share it.
        That is what the pop loop of Gebauer and Moeller keeps when it pops
        that set; here the distinct lcms are minimalized in one pass.
        """
        lms, guard = self.lms, self.guard
        mh = lms[ih]
        mh_guarded = mh | guard
        coprime: set[int] = set()
        last: dict[int, int] = {}
        for ig in set(self.G):
            m = lms[ig]
            # lcm(mh, m): the fields where mh >= m from mh, the others from m
            ge = (mh_guarded - m) & guard
            mask = ge - (ge >> EXP_BITS)
            lcm = (mh & mask) | (m & ~mask)
            if lcm == mh + m:
                coprime.add(lcm)
            else:
                last[lcm] = ig
        B = self.B
        for pair in [pair for pair, lcm12 in B.items()
                     if ((lcm12 | guard) - mh) & guard == guard
                     and packed_lcm(mh, lms[pair[0]], guard) != lcm12
                     and packed_lcm(mh, lms[pair[1]], guard) != lcm12]:
            del B[pair]
        heap, key, width = self.heap, self.key, self.width
        for lcm in minimal_packed(chain(coprime, last), guard):
            ig = last.get(lcm)
            if ig is not None and lcm not in coprime:
                pair = (ih, ig)
                B[pair] = lcm
                heappush(heap, (packed_degree(lcm, width), key(lcm), pair))
        self.G = {ig for ig in self.G
                  if ((lms[ig] | guard) - mh) & guard != guard}
        self.G.add(ih)
        self._by_leading = None

    def pop_pair(self) -> tuple[tuple[int, int], int]:
        """The live pair whose lcm is least by (degree, order key, pair)."""
        while True:
            pair = heappop(self.heap)[2]
            lcm = self.B.pop(pair, None)
            if lcm is not None:
                return pair, lcm

    def spoly(self, i: int, j: int, lcm: int) -> dict[int, int]:
        """The S-polynomial (a_j/g) x^si f_i - (a_i/g) x^sj f_j over the
        leading coefficients a and g = gcd(a_i, a_j), whose terms
        _reduce_dict checks as they lead."""
        (lm_i, terms_i), (lm_j, terms_j) = self.reducers[i], self.reducers[j]
        si, sj = lcm - lm_i, lcm - lm_j
        a_i, a_j = terms_i[lm_i], terms_j[lm_j]
        g = gcd(a_i, a_j)
        a_i, a_j = a_i // g, a_j // g
        out = {m + si: a_j * c for m, c in terms_i.items()}
        for m, c in terms_j.items():
            mm = m + sj
            s = out.get(mm, 0) - a_i * c
            if s:
                out[mm] = s
            else:
                del out[mm]
        return out


def reduced_gb(pres: IdealPresentation, order: TermOrder,
               spair_cap: int = DEFAULT_SPAIR_CAP) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal w.r.t. the order.

    Results are memoized per (presentation, order): the same quotient ring
    is interrogated many times across the pipeline.  Raises
    ResourceCapError after ``spair_cap`` processed S-pairs; that is a hard
    failure, never a silent truncation.  The grevlex basis of a presentation
    with an ``origin`` (R, l) is resumed from the grevlex basis of R, found
    under the same cap, and the cap counts the S-pairs of the resumed run.
    A negative cap is an InputError.
    """
    # positional, so that calls with and without spair_cap= share an entry
    return _buchberger(pres, order, check_cap("spair_cap", spair_cap))


@lru_cache(maxsize=512)
def _buchberger(pres: IdealPresentation, order: TermOrder,
                spair_cap: int) -> GroebnerBasis:
    if order.width != pres.width:
        raise InputError("order width does not match presentation")
    if not order.is_global:
        raise InputError("Groebner bases require a global (well-) order")
    if pres.origin is not None and order == TermOrder.grevlex(pres.width):
        return _resume(*pres.origin, spair_cap)
    eng = _Engine(order, spair_cap)
    # the generators enter as S-pair remainders do, by leading key
    for terms in sorted((_pack_terms(g.terms)[0] for g in pres.generators),
                        key=lambda terms: max(map(eng.key, terms))):
        eng.enter(terms)
    return _basis(order, _complete(eng, 0), eng.keys)


def leading_variable(ell: Polynomial) -> int:
    """The greatest-index variable occurring in a linear form, its
    grevlex-greatest one."""
    if ell.is_zero() or ell.degree() != 1 or not ell.is_homogeneous():
        raise InputError("expected a nonzero homogeneous degree-1 form")
    indices = [next(v for v, e in enumerate(m) if e) for m in ell.terms]
    return max(indices)


def _resume(parent: IdealPresentation, ell: Polynomial,
            spair_cap: int) -> GroebnerBasis:
    """The reduced grevlex basis of the quotient presentation of R/(ell),
    R = K[Y]/I the ring of ``parent``, resumed from that of R.

    Buchberger goes on from the basis G of I, with its pairs processed, and
    ell entering as one new element (Gebauer-Moeller), to the reduced basis
    of J = I + (ell).  x = x_lead, the grevlex-greatest variable of ell,
    lies in in(J), so exactly one element of that basis leads with x and no
    other has a term in x; J meets K[Y - x] in the ideal of the quotient
    presentation, so the other elements, with the x field cut out of their
    monomials, are its reduced basis under grevlex(width - 1).  The unit
    ideal is the exception: its basis is 1 in either ring.
    """
    order = TermOrder.grevlex(parent.width)
    eng = _Engine(order, spair_cap)
    eng.seed(_buchberger(parent, order, spair_cap))
    settled = len(eng.lms)
    eng.enter(_pack_terms(ell.terms)[0])
    final = _complete(eng, settled)

    lead = leading_variable(ell)
    shift = FIELD_BITS * lead
    kept = [r for r in final if r[0] != 1 << shift]
    if (len(kept) != len(final) - (final[0][0] != 0)
            or any((m >> shift) & FIELD_MAX for _, terms in kept for m in terms)):
        raise AssertionError(
            "the basis of R/(l) does not project off the leading variable of l")
    project = _drop_field(lead)
    projected = [(project(lm), {project(m): c for m, c in terms.items()})
                 for lm, terms in kept]
    # the grevlex keys of monomials free of x_lead order as their
    # projections' keys do, so the list stays sorted
    return _basis(TermOrder.grevlex(parent.width - 1), projected, {})


def _drop_field(v: int) -> Callable[[int], int]:
    """Re-pack a packed monomial free of x_v in the ring without x_v: the
    fields above that of v move down by one."""
    low = (1 << (FIELD_BITS * v)) - 1
    return lambda m: (m & low) | ((m >> FIELD_BITS) & ~low)


def quotient_presentation(pres: IdealPresentation,
                          ell: Polynomial) -> IdealPresentation:
    """R/(ell) in one fewer variable, R the ring of ``pres``, with origin
    (pres, ell).

    Under grevlex ell leads with x = leading_variable(ell), so the remainder
    of a generator on division by ell alone has no term in x: it is the
    generator with x replaced by its value on ell = 0.  The nonzero
    remainders, with the x field cut out, generate R/(ell).
    """
    if ell.width != pres.width:
        raise InputError("linear form width mismatch")
    lead = leading_variable(ell)
    width = pres.width - 1
    keys = _OrderKeys(TermOrder.grevlex(pres.width))
    guard = guard_mask(pres.width)
    unit = 1 << (FIELD_BITS * lead)
    divisor = [(unit, _primitive(_pack_terms(ell.terms)[0], unit))]
    project = _drop_field(lead)
    gens = []
    for g in pres.generators:
        terms, den = _pack_terms(g.terms)
        r, scale = _reduce_dict(terms, divisor, keys, guard)
        if r:
            scale *= den
            gens.append(_raw(width, {unpack(project(m), width): Fraction(c, scale)
                                     for m, c in r.items()}))
    return IdealPresentation(pres.labels[:lead] + pres.labels[lead + 1:],
                             tuple(gens), (pres, ell))


def _complete(eng: _Engine, settled: int) -> list[Reducer]:
    """Process the pairs in B to the end, then tail-reduce G: the reducers
    of the reduced basis, sorted by leading key.

    The leading monomials of G form an antichain (``_Engine.enter``), so G
    is a minimal basis and each leading monomial still leads after the tail
    reduction.  The elements before index ``settled`` were a reduced basis
    already, so one of them is tail-reduced only when a term of it is
    divisible by the leading monomial of a later element; every later one
    is."""
    while eng.B:
        pair, lcm = eng.pop_pair()
        eng.processed += 1
        if eng.processed > eng.cap:
            raise ResourceCapError(
                f"S-pair budget of {eng.cap} exceeded; raise --spair-cap to continue")
        eng.enter(eng.spoly(*pair, lcm))

    basis, guard = eng.basis_reducers(), eng.guard
    new_lms = [eng.lms[j] for j in eng.G if j >= settled]
    final: list[Reducer] = []
    for i, (lm, terms) in zip(eng.by_leading(eng.G), basis):
        if i < settled and not any(((m | guard) - a) & guard == guard
                                   for m in terms for a in new_lms):
            final.append((lm, terms))
            continue
        others = [r for r in basis if r[0] != lm]
        r = _reduce_dict(terms, others, eng.keys, guard)[0]
        if not r:
            raise AssertionError("minimal basis element reduced to zero")
        final.append((lm, _primitive(r, lm)))
    return final


def _basis(order: TermOrder, final: list[Reducer],
           keys: dict[int, int]) -> GroebnerBasis:
    """The GroebnerBasis of reducers sorted by leading key, monic over Q,
    keeping the reducers in place of packing its elements again, with the
    order keys of their own monomials that ``keys`` holds."""
    width = order.width
    gb = GroebnerBasis(order, tuple(
        _raw(width, {unpack(m, width): Fraction(c, terms[lm])
                     for m, c in terms.items()})
        for lm, terms in final))
    own = _OrderKeys(order)
    for _, terms in final:
        for m in terms:
            if m in keys:
                own[m] = keys[m]
    gb.__dict__["_packed"] = (guard_mask(width), own, tuple(final))
    return gb


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
    pf, pg = pack(mf), pack(mg)
    lcm = packed_lcm(pf, pg, guard_mask(f.width))
    return (f.mul_term(unpack(lcm - pf, f.width), 1 / cf)
            - g.mul_term(unpack(lcm - pg, g.width), 1 / cg))


def initial_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Initial ideal of a reduced basis: its leading monomials, which are
    already minimal."""
    return MonomialIdeal(gb.order.width, tuple(sorted(gb.leading_monomials())))


# ---------------------------------------------------------------------------
# standard monomials and multiplication tables
# ---------------------------------------------------------------------------

def standard_monomials(ideal: MonomialIdeal, degree: int) -> list[Monomial]:
    """All degree-d monomials outside the ideal, in grevlex order."""
    keys = _OrderKeys(TermOrder.grevlex(ideal.width))
    return [unpack(p, ideal.width)
            for p in _standard_packed(ideal, degree, keys)]


def _standard_packed(ideal: MonomialIdeal, degree: int,
                     grevlex_keys: _OrderKeys) -> list[int]:
    """standard_monomials, packed, sorted by the memoised keys of
    TermOrder.grevlex(width).

    A divisor of a standard monomial is standard, so each degree extends the
    one below by a variable at or after the last one used.
    """
    if degree < 0:
        raise InputError("degree must be >= 0")
    if degree > EXP_MAX:
        raise ResourceCapError(
            f"degree {degree} exceeds the packed field maximum {EXP_MAX}")
    m = ideal.width
    if ideal._contains(0):
        return []
    units = [1 << (FIELD_BITS * v) for v in range(m)]
    layer = [(0, 0)]  # (standard monomial, the last variable it uses)
    for _ in range(degree):
        longer = []
        for p, last in layer:
            for v in range(last, m):
                q = p + units[v]
                if not ideal._contains_product(q, v):
                    longer.append((q, v))
        layer = longer
    out = [p for p, _ in layer]
    out.sort(key=grevlex_keys.__getitem__)
    return out


class StandardAction:
    """The standard-monomial basis of K[Y]/I in each degree and the action of
    each variable on it, each built on first use: the one coordinate system
    of the quotient ring.

    ``column(d, v)`` is the action of variable v from degree d to d + 1: its
    i-th entry is the normal form of v times ``basis(d)[i]``, as a sparse
    {position in basis(d + 1): coeff}; an integral coeff is an int.
    """

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.width = gb.order.width
        self.initial = initial_ideal(gb)
        # every basis is in grevlex order: a grevlex basis's own keys, which
        # its normal forms read too, sort them
        grevlex = TermOrder.grevlex(self.width)
        self._grevlex_keys = (gb._packed[1] if gb.order == grevlex
                              else _OrderKeys(grevlex))
        self._packed_bases: dict[int, dict[int, int]] = {}
        self._bases: dict[int, tuple[Monomial, ...]] = {}
        self._columns: dict[tuple[int, int], tuple[dict, ...]] = {}
        self._factors: dict[int, tuple[tuple[int, int], ...]] = {}

    def basis(self, d: int) -> tuple[Monomial, ...]:
        found = self._bases.get(d)
        if found is None:
            found = self._bases[d] = tuple(
                unpack(p, self.width) for p in self._positions(d))
        return found

    def dimension(self, d: int) -> int:
        return len(self._positions(d))

    def _positions(self, d: int) -> dict[int, int]:
        """The packed monomials of basis(d), in its order, each mapped to its
        position."""
        found = self._packed_bases.get(d)
        if found is None:
            found = self._packed_bases[d] = {
                p: i for i, p in enumerate(
                    _standard_packed(self.initial, d, self._grevlex_keys))}
        return found

    def column(self, d: int, v: int) -> tuple[dict, ...]:
        cols = self._columns.get((d, v))
        if cols is None:
            cols = self._columns[(d, v)] = self._act(d, v)
        return cols

    def first_factors(self, d: int) -> tuple[tuple[int, int], ...]:
        """For each monomial u of basis(d), d >= 1, the pair (v, i) with
        u = y_v * basis(d - 1)[i], v the first variable of u: a divisor of a
        standard monomial is standard, so each is found."""
        found = self._factors.get(d)
        if found is None:
            below = self._positions(d - 1)
            pairs = []
            for mono in self._positions(d):
                v = ((mono & -mono).bit_length() - 1) // FIELD_BITS
                pairs.append((v, below[mono - (1 << (FIELD_BITS * v))]))
            found = self._factors[d] = tuple(pairs)
        return found

    def kernel(self, d: int, forms: list[list[tuple[int, int | Fraction]]]):
        """The primitive kernel vectors {i: c}, over basis(d), of the linear
        forms acting jointly from degree d, yielded as they are found.

        Each form is a list of (variable, coeff) pairs.  The i-th column
        stacks the normal forms of every form times the i-th basis monomial,
        its rows keyed position * len(forms) + form_index, so that a vector
        is in the kernel iff every form kills it.
        """
        n = len(forms)
        maps = [(k, c, self.column(d, v))
                for k, form in enumerate(forms) for v, c in form]
        columns = []
        for i in range(self.dimension(d)):
            col: dict = {}
            for k, c, cols in maps:
                for b, a in cols[i].items():
                    row = b * n + k
                    s = col.get(row, 0) + c * a
                    if s:
                        col[row] = s
                    else:
                        del col[row]
            columns.append(col)
        return Eliminator().kernel_vectors(columns)

    def _act(self, d: int, v: int) -> tuple[dict, ...]:
        guard, keys, reducers = self.gb._packed
        unit = 1 << (FIELD_BITS * v)
        target = self._positions(d + 1)
        cols = []
        for mono in self._positions(d):
            prod = mono + unit
            at = target.get(prod)
            if at is not None:
                # a standard product is its own normal form
                cols.append({at: 1})
            else:
                nf, scale = _reduce_dict({prod: 1}, reducers, keys, guard)
                cols.append({target[m]: _quotient(c, scale)
                             for m, c in nf.items()})
        return tuple(cols)


@dataclass(frozen=True)
class MultiplicationTable:
    """K[Y]/I in standard-monomial coordinates up to a degree cap: a view of
    a StandardAction, whose bases and columns callers read below the cap."""

    action: StandardAction
    degree_cap: int

    def dimension(self, d: int) -> int:
        return self.action.dimension(d)

    def dimensions(self) -> tuple[int, ...]:
        return tuple(self.dimension(d) for d in range(self.degree_cap + 1))


def multiplication_table(gb: GroebnerBasis, degree_cap: int) -> MultiplicationTable:
    """Coordinatize K[Y]/I up to a degree cap via its standard monomials."""
    return MultiplicationTable(gb.action, degree_cap)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def eliminate(pres: IdealPresentation, drop: set[int] | list[int] | tuple[int, ...],
              spair_cap: int = DEFAULT_SPAIR_CAP) -> IdealPresentation:
    """Generators of the elimination ideal I inter K[kept variables].

    Uses a block order ranking dropped variables above kept ones, ties
    broken by grevlex; the y-only elements of the reduced basis generate
    (indeed form a reduced basis of) the intersection.
    """
    drop = set(drop)
    if not all(0 <= v < pres.width for v in drop):
        raise InputError("dropped variable out of range")
    keep = [v for v in range(pres.width) if v not in drop]
    order = TermOrder.block(pres.width, sorted(drop),
                            TermOrder.grevlex(pres.width))
    gb = reduced_gb(pres, order, spair_cap=spair_cap)
    kept_polys = []
    for g in gb.elements:
        if all(all(m[v] == 0 for v in drop) for m in g.terms):
            kept_polys.append(g.project(keep))
    labels = tuple(pres.labels[v] for v in keep)
    return IdealPresentation(labels, tuple(kept_polys))
