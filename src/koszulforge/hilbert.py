"""Hilbert series, h-vectors, regular sequences, socles, Gorenstein certificates.

The Hilbert numerator of a monomial ideal is computed by the pivot-splitting
recursion Q(I) = Q(I + (x)) + t * Q(I : x) on packed monomials (see
polyring), memoised on the set of packed ints, a key that does not depend
on the ring's width; the numerator of an arbitrary homogeneous ideal is
that of any initial ideal (Macaulay), which the property suite re-checks
across term orders, and ``hilbert_series`` reads it off the leading
monomials that the engine's reduced basis keeps.  ``hilbert_series`` is
the one entry point: the Krull dimension is the order of the pole of the
series at t = 1, read off the numerator by dividing it by (1 - t) while it
divides, and what is left is the h-vector.

Regularity of a linear form is certified by the exact factor test
H_{R/l}(t) = (1 - t) * H_R(t); an artinian reduction by a full linear system
of parameters exposes the socle, and Gorensteinness is decided by its
dimension.  The quotient R/(l) is presented in one fewer variable by the
engine (groebner.quotient_presentation): its generators are the
remainders of those of R on division by l, which under grevlex leads with
the variable it substitutes away, and its presentation records (R, l), so
that its grevlex basis is resumed from the basis of R plus l rather than
computed from those generators (groebner.reduced_gb).

A form l is regular on R exactly when multiplication by l is injective in
every degree (Bruns-Herzog, Cohen-Macaulay Rings, 1.1).  Since
H_{R/l}(d) = ((1 - t) H_R)(d) + dim ker(l: R_{d-1} -> R_d), a kernel in any
degree makes the factor test fail.  The search for a linear system
therefore looks for such a kernel first, in the standard-monomial
coordinates of the current ring for d = 2 .. ZERO_DIVISOR_DEGREE_CAP, and
rejects a candidate with a kernel vector, a nonzero f with l * f = 0,
without building its quotient.  A candidate with no kernel there still
goes through the factor test, so the forms found are those the factor test
alone would find.

The zero-divisor test and the socle read one standard-monomial action
(groebner.StandardAction): a kernel of one linear form there is a zero
divisor, and the joint kernel of all the variables of an artinian ring is
its socle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, ResourceCapError
from .groebner import (DEFAULT_SPAIR_CAP, IdealPresentation, StandardAction,
                       leading_variable, minimal_packed, normal_form,
                       quotient_presentation, reduced_gb)
from .polyring import (EXP_BITS, FIELD_BITS, FIELD_MAX, Polynomial, TermOrder,
                       guard_mask, pack, packed_degree, unit_mono, unpack)
from .toric import ToricIdeal, stable_set_subset

IntPoly = tuple[int, ...]  # coefficient list in t, constant term first


# ---------------------------------------------------------------------------
# univariate helpers
# ---------------------------------------------------------------------------

def poly1_trim(p: list[int]) -> IntPoly:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly1_add(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    return poly1_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                       for i in range(n)])


def poly1_sub(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    return poly1_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                       for i in range(n)])


def poly1_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly1_trim(out)


def poly1_shift(a: IntPoly, k: int) -> IntPoly:
    if not a:
        return ()
    return tuple([0] * k + list(a))


def poly1_div_one_minus_t(a: IntPoly) -> IntPoly | None:
    """Exact quotient a / (1 - t), or None when (1 - t) does not divide."""
    if not a:
        return ()
    if sum(a) != 0:
        return None
    out = []
    carry = 0
    for c in a[:-1]:
        carry += c
        out.append(carry)
    return poly1_trim(out)


def poly1_series_coeffs(numerator: IntPoly, denom_exponent: int, upto: int) -> list[int]:
    """Coefficients of numerator / (1-t)^denom_exponent up to degree ``upto``."""
    coeffs = [0] * (upto + 1)
    for i, c in enumerate(numerator):
        if i <= upto:
            coeffs[i] = c
    for _ in range(denom_exponent):
        for i in range(1, upto + 1):
            coeffs[i] += coeffs[i - 1]
    return coeffs


def poly1_str(p: IntPoly, var: str = "t") -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else str(c))
            parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Hilbert numerator of a monomial ideal (pivot recursion)
# ---------------------------------------------------------------------------

def monomial_numerator(gens) -> IntPoly:
    """Numerator Q(t) with H(K[x_1..x_m]/I) = Q(t) / (1-t)^m.

    Q does not depend on the ambient width, only on the generators."""
    gens = list(gens)
    if not gens:
        return (1,)
    return _numerator(frozenset(minimal_packed(map(pack, gens),
                                               guard_mask(len(gens[0])))))


@lru_cache(maxsize=2 ** 16)
def _numerator(gens: frozenset[int]) -> IntPoly:
    """Q(t) of the ideal of a minimal set of packed monomials.

    The memo key does not depend on the width, because trailing zero fields
    do not change a packed monomial.  The supports are pairwise coprime iff
    each generator's support mask misses the OR of those before it, and the
    series then factors; otherwise the pivot is the variable that most
    generators involve (the first such), and
    Q(I) = Q(I + (x)) + t * Q(I : x).
    """
    if not gens:
        return (1,)
    if 0 in gens:
        return ()
    if len(gens) > FIELD_MAX:
        raise ResourceCapError(
            f"{len(gens)} generators overflow the packed variable counts")
    fields = -(-max(gens).bit_length() // FIELD_BITS)
    guard = guard_mask(fields)
    # the guard bit of each field set where the generator's exponent is > 0
    ones = guard >> EXP_BITS
    supports = [((p | guard) - ones) & guard for p in gens]
    seen = 0
    for mask in supports:
        if mask & seen:
            break
        seen |= mask
    else:
        out: IntPoly = (1,)
        for p in gens:
            degree = packed_degree(p, fields)
            out = poly1_mul(out, poly1_sub((1,), poly1_shift((1,), degree)))
        return out
    # a field of the sum counts the generators that involve its variable
    counts = unpack(sum(mask >> EXP_BITS for mask in supports), fields)
    pivot = counts.index(max(counts))
    unit = 1 << (FIELD_BITS * pivot)
    involved = unit << EXP_BITS
    # I + (x) stays minimal: its other generators do not involve x
    plus = [unit]
    colon = []
    for p, mask in zip(gens, supports):
        if mask & involved:
            colon.append(p - unit)
        else:
            plus.append(p)
            colon.append(p)
    q_plus = _numerator(frozenset(plus))
    q_colon = _numerator(frozenset(minimal_packed(colon, guard)))
    return poly1_add(q_plus, poly1_shift(q_colon, 1))


# ---------------------------------------------------------------------------
# HilbertData
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertData:
    """Series numerator over (1-t)^m, Krull dimension, and the h-vector."""

    numerator: IntPoly
    denominator_exponent: int
    krull_dim: int
    h_numerator: IntPoly

    @property
    def h_vector(self) -> tuple[int, ...]:
        return self.h_numerator

    @property
    def socle_degree(self) -> int:
        return len(self.h_numerator) - 1

    def function_values(self, upto: int) -> list[int]:
        return poly1_series_coeffs(self.numerator, self.denominator_exponent, upto)

    def series_str(self) -> str:
        return (f"({poly1_str(self.h_numerator)})"
                f" / (1 - t)^{self.krull_dim}")

    def to_json(self) -> dict:
        return {"numerator": list(self.numerator),
                "denominator_exponent": self.denominator_exponent,
                "dim": self.krull_dim,
                "h_vector": list(self.h_vector),
                "socle_degree": self.socle_degree}


def hilbert_series(pres: IdealPresentation, order: TermOrder | None = None,
                   spair_cap: int = DEFAULT_SPAIR_CAP) -> HilbertData:
    """Hilbert data of K[Y]/I, via the initial ideal of a reduced basis.

    The numerator Q over (1 - t)^width is divided by (1 - t) while its
    coefficients sum to 0; what is left is the h-vector h, with h(1) > 0,
    and the Krull dimension is width minus the number of divisions, the
    order of the pole at t = 1 (Bruns-Herzog, Cohen-Macaulay Rings, 4.1).
    The unit ideal has the zero numerator, dimension -1 and h = ().
    """
    if not pres.homogeneous:
        raise InputError("hilbert_series expects a homogeneous ideal")
    order = order or TermOrder.grevlex(pres.width)
    gb = reduced_gb(pres, order, spair_cap=spair_cap)
    q = monomial_numerator(gb.leading_monomials())
    if not q:
        return HilbertData((), pres.width, -1, ())
    h, dim = q, pres.width
    while (quotient := poly1_div_one_minus_t(h)) is not None:
        h, dim = quotient, dim - 1
    if h[0] != 1:
        raise AssertionError("h-vector does not start at 1")
    return HilbertData(q, pres.width, dim, h)


# ---------------------------------------------------------------------------
# quotient by a linear form
# ---------------------------------------------------------------------------

def quotient_by_linear_form(pres: IdealPresentation, ell: Polynomial,
                            spair_cap: int = DEFAULT_SPAIR_CAP,
                            old_numerator: IntPoly | None = None,
                            ) -> tuple[IdealPresentation, bool]:
    """Present R/(ell) in one fewer variable and test regularity.

    Returns the quotient presentation (groebner.quotient_presentation),
    whose generators are the remainders of those of R on division by ell
    and whose origin is (pres, ell), and True iff H_{R/l} = (1 - t) H_R
    exactly, i.e. the numerators agree.
    """
    new_pres = quotient_presentation(pres, ell)
    if old_numerator is None:
        old_numerator = hilbert_series(pres, spair_cap=spair_cap).numerator
    new_numerator = hilbert_series(new_pres, spair_cap=spair_cap).numerator
    return new_pres, new_numerator == old_numerator


def apply_linear_forms(pres: IdealPresentation, forms: list[Polynomial],
                       spair_cap: int = DEFAULT_SPAIR_CAP,
                       ) -> tuple[IdealPresentation, list[bool], list[IntPoly]]:
    """Quotient by the forms in order; forms are given in the original ring
    and re-expressed in each intermediate ring by label.  Each form must be
    a nonzero homogeneous form of degree 1 (the rule of
    groebner.leading_variable), or InputError before any work."""
    original_labels = pres.labels
    for ell in forms:
        if ell.width != len(original_labels):
            raise InputError("forms must live in the original ring")
        leading_variable(ell)
    current = pres
    regular: list[bool] = []
    numerators: list[IntPoly] = []
    numerator = hilbert_series(pres, spair_cap=spair_cap).numerator
    for ell in forms:
        label_pos = {lab: i for i, lab in enumerate(current.labels)}
        terms = {}
        for m, c in ell.terms.items():
            v = next(i for i, e in enumerate(m) if e)
            lab = original_labels[v]
            if lab not in label_pos:
                raise InputError(f"form uses already-eliminated variable {lab}")
            terms[unit_mono(current.width, label_pos[lab])] = c
        ell_here = Polynomial(current.width, terms)
        current, ok = quotient_by_linear_form(current, ell_here,
                                              spair_cap=spair_cap,
                                              old_numerator=numerator)
        regular.append(ok)
        numerator = hilbert_series(current, spair_cap=spair_cap).numerator
        numerators.append(numerator)
    return current, regular, numerators


# ---------------------------------------------------------------------------
# socle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SocleData:
    dimension: int
    witnesses: tuple[Polynomial, ...]
    by_degree: tuple[tuple[int, int], ...]  # (degree, socle dim there)


def socle(pres: IdealPresentation, spair_cap: int = DEFAULT_SPAIR_CAP) -> SocleData:
    """Socle of an artinian quotient: everything killed by all variables.

    Computed degree by degree as the joint kernel of the variables acting on
    the standard monomials, the action the zero-divisor test reads too.
    """
    if hilbert_series(pres, spair_cap=spair_cap).krull_dim != 0:
        raise InputError("socle is defined here only for artinian quotients")
    action = reduced_gb(pres, TermOrder.grevlex(pres.width),
                        spair_cap=spair_cap).action
    variables = [[(v, 1)] for v in range(pres.width)]
    witnesses: list[Polynomial] = []
    by_degree: list[tuple[int, int]] = []
    d = 0
    while basis := action.basis(d):
        found = 0
        for vec in action.kernel(d, variables):
            # a kernel vector comes back primitive; scaled to 1 at its own,
            # largest, index it is the witness in normal form
            lead = vec[max(vec)]
            witnesses.append(Polynomial(pres.width, {
                basis[i]: Fraction(c, lead) for i, c in vec.items()}))
            found += 1
        if found:
            by_degree.append((d, found))
        d += 1
    return SocleData(len(witnesses), tuple(witnesses), tuple(by_degree))


def is_socle_element(pres: IdealPresentation, f: Polynomial,
                     spair_cap: int = DEFAULT_SPAIR_CAP) -> bool:
    """True iff f is nonzero in the quotient and every variable kills it."""
    order = TermOrder.grevlex(pres.width)
    gb = reduced_gb(pres, order, spair_cap=spair_cap)
    nf = normal_form(f, gb)
    if nf.is_zero():
        return False
    return all(normal_form(Polynomial.variable(pres.width, v) * nf, gb).is_zero()
               for v in range(pres.width))


# ---------------------------------------------------------------------------
# Gorenstein certificates
# ---------------------------------------------------------------------------

@dataclass
class GorensteinCertificate:
    presentation: IdealPresentation
    hilbert: HilbertData
    verdict: str  # "Gorenstein" | "NotGorenstein" | "Inconclusive"
    reason: str
    linear_system: list[Polynomial] = field(default_factory=list)
    artinian_presentation: IdealPresentation | None = None
    socle_dimension: int | None = None
    socle_witnesses: tuple[Polynomial, ...] = ()

    def to_json(self) -> dict:
        art = self.artinian_presentation
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "h_vector": list(self.hilbert.h_vector),
            "dim": self.hilbert.krull_dim,
            "socle_degree": self.hilbert.socle_degree,
            "linear_system": [f.to_json() for f in self.linear_system],
            "artinian_labels": list(art.labels) if art else None,
            "socle_dimension": self.socle_dimension,
            "socle_witnesses": [w.to_json() for w in self.socle_witnesses],
        }


DEFAULT_LSOP_SEED = 20260811
# seeded random candidates per slot, after the structured ones
LSOP_RANDOM_CANDIDATES = 20
# regularity tests one search may spend
LSOP_BUDGET = 600


def lsop_candidates(labels: tuple[str, ...], seed: int):
    """Deterministic stream of degree-1 candidates for a linear system of
    parameters, each built when it is drawn: the empty-set variable,
    vertex-minus-disjoint-edge differences, vertex-minus-vertex
    differences, bare variables, then ``LSOP_RANDOM_CANDIDATES`` seeded
    small-integer combinations.

    Differences are ordered by cyclic distance from the vertex so that
    successor-style pairings (the ones that work for the cycle-complement
    rings) are tried first.
    """
    width = len(labels)
    subsets = [stable_set_subset(lab) for lab in labels]
    top = max((max(s) for s in subsets if s), default=0) + 1

    def var(i: int) -> Polynomial:
        return Polynomial.variable(width, i)

    for i, s in enumerate(subsets):
        if s == ():
            yield var(i)
    singles = [(i, s) for i, s in enumerate(subsets) if s is not None and len(s) == 1]
    bigger = [(i, s) for i, s in enumerate(subsets) if s is not None and len(s) >= 2]
    # round-robin across vertices, each vertex offering its cyclically
    # nearest disjoint edges first
    per_vertex: list[list[int]] = []
    for i, sv in singles:
        v = sv[0]
        disjoint = sorted((tuple(sorted((x - v) % top for x in se)), j)
                          for j, se in bigger if v not in se)
        per_vertex.append([j for _, j in disjoint])
    for rnd in range(max((len(es) for es in per_vertex), default=0)):
        for (i, _), edges in zip(singles, per_vertex):
            if rnd < len(edges):
                yield var(i) - var(edges[rnd])
    pairs = []
    for a in range(len(singles)):
        for b in range(len(singles)):
            if a != b:
                va, vb = singles[a][1][0], singles[b][1][0]
                pairs.append(((vb - va) % top, va, singles[a][0], singles[b][0]))
    for _, _, ia, ib in sorted(pairs):
        yield var(ia) - var(ib)
    for j, _ in bigger:
        yield var(j)
    for i in range(width):
        yield var(i)
    rng = random.Random(seed)
    for _ in range(LSOP_RANDOM_CANDIDATES):
        coeffs = [Fraction(rng.choice([-2, -1, 0, 1, 1, 2])) for _ in range(width)]
        if any(coeffs):
            yield Polynomial(width, {unit_mono(width, v): c
                                     for v, c in enumerate(coeffs) if c})


# the kernel of l: R_{d-1} -> R_d is looked for in the degrees 2 .. this cap
ZERO_DIVISOR_DEGREE_CAP = 3


def zero_divisor_witness(action: StandardAction, ell: Polynomial,
                         ) -> Polynomial | None:
    """A nonzero f in normal form with ell * f = 0 in the ring of ``action``,
    or None when ell is injective from degree d - 1 to d for every
    d = 2 .. ZERO_DIVISOR_DEGREE_CAP.

    The map ell: R_{d-1} -> R_d is combined from the action columns of the
    variables of ell only (``StandardAction.kernel`` with the one form), and
    the map into degree d is built only when the one into degree d - 1 has
    no kernel.  A witness proves that ell is not regular; None proves
    nothing beyond the cap.
    """
    if ell.width != action.width:
        raise InputError("linear form width mismatch")
    leading_variable(ell)  # InputError unless ell is a nonzero linear form
    # integral coefficients as ints, so that integral columns stay int
    terms = [(m.index(1), c.numerator if c.denominator == 1 else c)
             for m, c in ell.terms.items()]
    for d in range(2, ZERO_DIVISOR_DEGREE_CAP + 1):
        vec = next(action.kernel(d - 1, [terms]), None)
        if vec is not None:
            source = action.basis(d - 1)
            return Polynomial(action.width,
                              {source[i]: c for i, c in vec.items()})
    return None


def find_regular_linear_system(pres: IdealPresentation,
                               spair_cap: int = DEFAULT_SPAIR_CAP,
                               ) -> tuple[list[Polynomial], IdealPresentation] | None:
    """Depth-first search for dim R successively regular linear forms, a
    linear system of parameters of R = K[Y]/I.

    One ``hilbert_series`` call gives dim R and the numerator that each
    regular quotient keeps; an artinian R gives ([], pres) at once, and
    the unit ideal (dim -1) None at once.
    Candidates are tried greedily in stream order, slot k drawing its random
    ones from the seed DEFAULT_LSOP_SEED + k, with backtracking when a
    prefix dead-ends; at most ``LSOP_BUDGET`` regularity tests are spent
    before reporting failure.  A candidate that ``zero_divisor_witness``
    rejects in the current ring counts as a test but needs no quotient.
    Returns the forms (each in the ring of its own step) and the final
    quotient presentation, or None.
    """
    start = hilbert_series(pres, spair_cap=spair_cap)
    if start.krull_dim < 0:
        # the unit ideal has no linear system of parameters
        return None
    tests = [0]

    def dfs(current: IdealPresentation, numerator: IntPoly, slot: int,
            ) -> tuple[list[Polynomial], IdealPresentation] | None:
        if slot == start.krull_dim:
            return [], current
        # an action of its own, freed with this frame: the basis's shared
        # one would keep the columns of every ring the search visits alive
        # for as long as the basis stays memoised
        action = StandardAction(reduced_gb(
            current, TermOrder.grevlex(current.width), spair_cap=spair_cap))
        for cand in lsop_candidates(current.labels, DEFAULT_LSOP_SEED + slot):
            if tests[0] >= LSOP_BUDGET:
                return None
            tests[0] += 1
            if zero_divisor_witness(action, cand) is not None:
                continue
            try:
                nxt, ok = quotient_by_linear_form(
                    current, cand, spair_cap=spair_cap, old_numerator=numerator)
            except InputError:
                continue
            if not ok:
                continue
            # a regular form leaves the numerator as it was
            deeper = dfs(nxt, numerator, slot + 1)
            if deeper is not None:
                return [cand] + deeper[0], deeper[1]
        return None

    return dfs(pres, start.numerator, 0)


@lru_cache(maxsize=64)
def regular_linear_system(pres: IdealPresentation, spair_cap: int,
                          ) -> tuple[tuple[Polynomial, ...], IdealPresentation] | None:
    """find_regular_linear_system, memoised per process with the forms as a
    tuple; positional arguments, so that every caller shares one entry.
    Its length, dim R, comes from the ring itself."""
    found = find_regular_linear_system(pres, spair_cap)
    return None if found is None else (tuple(found[0]), found[1])


def gorenstein_certificate(ideal: ToricIdeal | IdealPresentation,
                           spair_cap: int = DEFAULT_SPAIR_CAP,
                           socle_even_if_asymmetric: bool = False,
                           ) -> GorensteinCertificate:
    """Certify or refute Gorensteinness via h-vector symmetry, an l.s.o.p.
    and the socle of the artinian reduction.

    An asymmetric h-vector already refutes Gorensteinness and short-circuits
    the search; pass socle_even_if_asymmetric=True to compute the socle
    witnesses anyway.
    """
    pres = ideal.presentation if isinstance(ideal, ToricIdeal) else ideal
    hd = hilbert_series(pres, spair_cap=spair_cap)
    h = hd.h_vector
    s = len(h) - 1
    if any(h[i] != h[s - i] for i in range(s + 1)) and not socle_even_if_asymmetric:
        return GorensteinCertificate(
            pres, hd, "NotGorenstein",
            "asymmetric h-vector (fails the necessary symmetry test)")
    found = regular_linear_system(pres, spair_cap)
    if found is None:
        return GorensteinCertificate(
            pres, hd, "Inconclusive",
            "no linear system of parameters found within the attempt budget")
    forms, artinian = found
    soc = socle(artinian, spair_cap=spair_cap)
    verdict = "Gorenstein" if soc.dimension == 1 else "NotGorenstein"
    reason = (f"socle dimension {soc.dimension} after reduction by "
              f"{len(forms)} regular linear forms")
    return GorensteinCertificate(
        pres, hd, verdict, reason,
        linear_system=list(forms),
        artinian_presentation=artinian,
        socle_dimension=soc.dimension,
        socle_witnesses=soc.witnesses)
