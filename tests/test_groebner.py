"""Buchberger engine: reduced bases, normal forms, initial ideals,
standard monomials, elimination."""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulforge.errors import InputError, ResourceCapError
from koszulforge.graphs import parse_graph
from koszulforge.groebner import (DEFAULT_SPAIR_CAP, IdealPresentation,
                                  StandardAction, _Engine, eliminate,
                                  initial_ideal, monomial_ideal,
                                  multiplication_table, normal_form,
                                  reduced_gb, spolynomial, standard_monomials)
from koszulforge.polyring import (Polynomial, TermOrder, guard_mask, pack,
                                  packed_divides, packed_lcm, parse_polynomial,
                                  unpack)
from koszulforge.toric import closed_form_generators, monomial_map, toric_ideal


def mono_divides(a, b):
    """a | b on exponent tuples, independent of the engine's packed form."""
    return all(x <= y for x, y in zip(a, b))


def P(width, *terms):
    out = Polynomial.zero(width)
    for mono, c in terms:
        out = out + Polynomial.monomial(tuple(mono), Fraction(c))
    return out


@pytest.fixture(scope="module")
def heptagon():
    return closed_form_generators("cbar", 3)


@pytest.fixture(scope="module")
def heptagon_gb(heptagon):
    order = TermOrder.grevlex(heptagon.presentation.width)
    return reduced_gb(heptagon.presentation, order)


def test_empty_ideal():
    pres = IdealPresentation(("x", "y"), ())
    gb = reduced_gb(pres, TermOrder.grevlex(2))
    assert gb.elements == ()
    assert gb.is_quadratic


def test_hand_reduced_lex_example():
    # I = (y1 - y2, y2 - y3) under lex y3 < y2 < y1 reduces to {y1-y3, y2-y3}
    pres = IdealPresentation(
        ("y1", "y2", "y3"),
        (P(3, ((1, 0, 0), 1), ((0, 1, 0), -1)),
         P(3, ((0, 1, 0), 1), ((0, 0, 1), -1))))
    gb = reduced_gb(pres, TermOrder.lex(3, ranking=(2, 1, 0)))
    want = {P(3, ((1, 0, 0), 1), ((0, 0, 1), -1)),
            P(3, ((0, 1, 0), 1), ((0, 0, 1), -1))}
    assert set(gb.elements) == want


def test_textbook_grevlex_twisted_cubic():
    # kernel of t -> (t, t^2, t^3): x^2 - y, xy - z, xz - y^2, y^3 - z^2 ...
    pres = IdealPresentation(
        ("x", "y", "z"),
        (P(3, ((2, 0, 0), -1), ((0, 1, 0), 1)),
         P(3, ((3, 0, 0), -1), ((0, 0, 1), 1))))
    gb = reduced_gb(pres, TermOrder.grevlex(3, ranking=(2, 1, 0)))
    lms = set(gb.leading_monomials())
    assert (2, 0, 0) in lms
    for g in pres.generators:
        assert normal_form(g, gb).is_zero()


def test_reduced_gb_idempotent(heptagon_gb):
    pres = IdealPresentation(tuple(f"v{i}" for i in range(15)),
                             heptagon_gb.elements)
    again = reduced_gb(pres, heptagon_gb.order)
    assert again.elements == heptagon_gb.elements


def test_spairs_reduce_to_zero(heptagon_gb):
    els = heptagon_gb.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            s = spolynomial(els[i], els[j], heptagon_gb.order)
            assert normal_form(s, heptagon_gb).is_zero()


def test_autoreduced(heptagon_gb):
    lms = heptagon_gb.leading_monomials()
    for i, g in enumerate(heptagon_gb.elements):
        for mono in g.terms:
            for j, lm in enumerate(lms):
                if i != j:
                    assert not mono_divides(lm, mono)


def test_normal_form_membership(heptagon, heptagon_gb):
    for g in heptagon.presentation.generators:
        assert normal_form(g, heptagon_gb).is_zero()
    one = Polynomial.constant(15, 1)
    assert normal_form(one, heptagon_gb) == one


def test_normal_form_multiplicative(heptagon_gb):
    import random
    rng = random.Random(3)
    width = 15
    for _ in range(10):
        f = Polynomial.monomial(tuple(rng.randint(0, 1) for _ in range(width)),
                                rng.choice([1, 2, -1]))
        g = Polynomial.monomial(tuple(rng.randint(0, 1) for _ in range(width)),
                                rng.choice([1, 3]))
        lhs = normal_form(f * g, heptagon_gb)
        rhs = normal_form(normal_form(f, heptagon_gb)
                          * normal_form(g, heptagon_gb), heptagon_gb)
        assert lhs == rhs


def test_standard_monomial_of_artinian_reduction():
    # y1*y3*y5 avoids all 18 initial monomials of the 7-variable reduction
    from koszulforge.hilbert import apply_linear_forms
    from koszulforge.paper_suite import cbar_ideal, paper_linear_forms
    ideal = cbar_ideal(3)
    art, regular, _ = apply_linear_forms(ideal.presentation,
                                         paper_linear_forms(ideal.presentation, 3))
    assert all(regular)
    gb = reduced_gb(art, TermOrder.grevlex(7))
    m = (1, 0, 1, 0, 1, 0, 0)
    nf = normal_form(Polynomial.monomial(m), gb)
    assert nf == Polynomial.monomial(m)


def test_initial_ideal_flags(heptagon_gb):
    ini = initial_ideal(heptagon_gb)
    assert not ini.is_quadratic or heptagon_gb.is_quadratic
    # minimal generating set is an antichain
    for a, b in itertools.combinations(ini.generators, 2):
        assert not mono_divides(a, b) and not mono_divides(b, a)


def test_monomial_ideal_minimalization():
    ideal = monomial_ideal(2, [(1, 0), (1, 1), (2, 0), (0, 3)])
    assert set(ideal.generators) == {(1, 0), (0, 3)}
    assert ideal.contains((5, 0))
    assert not ideal.contains((0, 2))


def test_standard_monomials_counts():
    all_vars = monomial_ideal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert standard_monomials(all_vars, 1) == []
    empty = monomial_ideal(3, [])
    assert len(standard_monomials(empty, 2)) == 6  # C(4,2)


@given(width=st.integers(1, 4),
       gens=st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                     max_size=5),
       degree=st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_standard_monomials_match_enumeration(width, gens, degree):
    # every degree-d exponent tuple that no generator divides, in grevlex
    # order; the unit ideal (a zero generator) leaves none
    ideal = monomial_ideal(width, [tuple(g[:width]) for g in gens])
    order = TermOrder.grevlex(width)
    expected = sorted(
        (m for m in itertools.product(range(degree + 1), repeat=width)
         if sum(m) == degree
         and not any(mono_divides(g, m) for g in ideal.generators)),
        key=order.key)
    assert standard_monomials(ideal, degree) == expected


def test_eliminate_kernel_of_injection():
    # I = (x - y^2) in K[x, y]: dropping x leaves the zero ideal
    pres = IdealPresentation(("x", "y"),
                             (P(2, ((1, 0), 1), ((0, 2), -1)),))
    out = eliminate(pres, {0})
    assert out.labels == ("y",)
    assert out.generators == ()


def test_eliminate_hand_example():
    # I = (y1 - t, y2 - t^2): dropping t gives (y1^2 - y2)
    pres = IdealPresentation(
        ("y1", "y2", "t"),
        (P(3, ((1, 0, 0), 1), ((0, 0, 1), -1)),
         P(3, ((0, 1, 0), 1), ((0, 0, 2), -1))))
    out = eliminate(pres, {2})
    assert out.labels == ("y1", "y2")
    assert len(out.generators) == 1
    g = out.generators[0]
    assert g == P(2, ((2, 0), 1), ((0, 1), -1)) or \
        g == P(2, ((2, 0), -1), ((0, 1), 1))


def test_spair_cap_is_hard_failure():
    ideal = closed_form_generators("cbar", 3)
    with pytest.raises(ResourceCapError):
        reduced_gb(ideal.presentation, TermOrder.grevlex(15), spair_cap=2)


@pytest.mark.parametrize("spec, elimination, grevlex",
                         [("cycle(5)", 261, 25), ("paper:G4", 483, 52),
                          ("complement(cycle(7))", 736, 58),
                          ("paper:G1", 636, 77), ("paper:family(3)", 3489, 58)],
                         ids=["cycle(5)", "paper:G4", "complement(cycle(7))",
                              "paper:G1", "paper:family(3)"])
def test_spair_count_is_pinned(spec, elimination, grevlex):
    # processed S-pairs of the elimination and of the grevlex basis of its
    # result; a change in pair selection or pruning moves these counts
    mp = monomial_map(parse_graph(spec))
    ideal = toric_ideal(mp, spair_cap=elimination)
    with pytest.raises(ResourceCapError):
        toric_ideal(mp, spair_cap=elimination - 1)
    order = TermOrder.grevlex(ideal.presentation.width)
    reduced_gb(ideal.presentation, order, spair_cap=grevlex)
    with pytest.raises(ResourceCapError):
        reduced_gb(ideal.presentation, order, spair_cap=grevlex - 1)


def pop_loop_update(lms, G, B, ih, guard):
    """The Gebauer-Moeller update as a pop loop runs it: pop the elements
    of a fresh set of G one by one, and keep (h, g) unless lm(h) and lm(g)
    are coprime or lcm(h, p) divides lcm(h, g) for a p still to pop or
    already kept.  Returns the pairs created, B pruned, and G after."""
    mh = lms[ih]
    lcm_h = [packed_lcm(mh, m, guard) for m in lms]
    C, D, E = set(G), [], []
    while C:
        ig = C.pop()
        if mh + lms[ig] == lcm_h[ig]:
            D.append(ig)
            continue
        if not any(packed_divides(lcm_h[ip], lcm_h[ig], guard)
                   for ip in itertools.chain(C, D)):
            D.append(ig)
            E.append(ig)
    pruned = {pair: lcm12 for pair, lcm12 in B.items()
              if not (packed_divides(mh, lcm12, guard)
                      and lcm_h[pair[0]] != lcm12 and lcm_h[pair[1]] != lcm12)}
    after = {ig for ig in G if not packed_divides(mh, lms[ig], guard)} | {ih}
    return {(ih, ig): lcm_h[ig] for ig in E}, pruned, after


@st.composite
def update_states(draw):
    """Leading monomials, a basis G among all but the last of them (its
    indices spread, so that a set of them does not iterate in sorted
    order), pending pairs with their lcms, and the new element, the last."""
    width = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 3)] * width)
    lms = [pack(m) for m in draw(st.lists(mono, min_size=2, max_size=48))]
    ih = len(lms) - 1
    G = draw(st.sets(st.integers(0, ih - 1)))
    guard = guard_mask(width)
    pairs = draw(st.sets(st.tuples(st.integers(0, ih - 1),
                                   st.integers(0, ih - 1))
                         .filter(lambda ij: ij[0] > ij[1]), max_size=30))
    B = {pair: packed_lcm(lms[pair[0]], lms[pair[1]], guard) for pair in pairs}
    return width, lms, G, B, ih


@given(update_states())
@settings(max_examples=400)
def test_update_creates_and_prunes_the_pairs_of_the_pop_loop(state):
    width, lms, G, B, ih = state
    created, pruned, after = pop_loop_update(lms, G, B, ih, guard_mask(width))
    eng = _Engine(TermOrder.grevlex(width), DEFAULT_SPAIR_CAP)
    eng.lms, eng.G, eng.B = list(lms), set(G), dict(B)
    eng.update(ih)
    assert eng.B == {**pruned, **created}
    assert eng.G == after
    assert sorted(eng.heap) == sorted(
        (sum(unpack(lcm, width)), eng.key(lcm), pair)
        for pair, lcm in created.items())


@st.composite
def small_ideals(draw):
    """Homogeneous binomials and trinomials in 3-5 variables, with a global
    order: grevlex, lex or weight over a random ranking, or a block order.
    Homogeneous, so every reduction stays inside one degree."""
    width = draw(st.integers(3, 5))
    ranking = draw(st.permutations(range(width)))
    kind = draw(st.sampled_from(["grevlex", "lex", "weight", "block"]))
    if kind == "grevlex":
        order = TermOrder.grevlex(width, ranking)
    elif kind == "lex":
        order = TermOrder.lex(width, ranking)
    elif kind == "weight":
        weights = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
        order = TermOrder.weight(weights, ranking)
    else:
        dropped = draw(st.sets(st.integers(0, width - 1),
                               min_size=1, max_size=width - 1))
        order = TermOrder.block(width, dropped, TermOrder.grevlex(width, ranking))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        monomial = st.lists(st.integers(0, width - 1), min_size=degree,
                            max_size=degree).map(
            lambda vs: tuple(vs.count(v) for v in range(width)))
        monos = draw(st.lists(monomial, min_size=2, max_size=3, unique=True))
        coeffs = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                               min_size=len(monos), max_size=len(monos)))
        gens.append(Polynomial(width, dict(zip(monos, map(Fraction, coeffs)))))
    labels = tuple(f"x{i}" for i in range(width))
    return IdealPresentation(labels, tuple(gens)), order


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_reduced_gb_properties(case):
    pres, order = case
    gb = reduced_gb(pres, order)
    els = gb.elements
    lms = gb.leading_monomials()
    for i, g in enumerate(els):
        assert g.leading(order)[1] == 1
        for mono in g.terms:
            assert not any(mono_divides(lm, mono)
                           for j, lm in enumerate(lms) if j != i)
    for f, g in itertools.combinations(els, 2):
        assert normal_form(spolynomial(f, g, order), gb).is_zero()
    for f in pres.generators:
        assert normal_form(f, gb).is_zero()
    # the reduced basis is unique, whatever order the pairs arise in
    backwards = IdealPresentation(pres.labels, pres.generators[::-1])
    assert reduced_gb(backwards, order).elements == els


@given(small_ideals())
@settings(max_examples=40, deadline=None)
def test_standard_action_columns_are_normal_forms(case):
    # column(d, v)[i] keys positions in basis(d + 1); read over that basis
    # it is the normal form of x_v * basis(d)[i]
    pres, order = case
    gb = reduced_gb(pres, order)
    action = StandardAction(gb)
    width = pres.width
    for d in range(4):
        source, target = action.basis(d), action.basis(d + 1)
        for v in range(width):
            column = action.column(d, v)
            assert len(column) == len(source)
            for mono, col in zip(source, column):
                product = Polynomial.variable(width, v) * Polynomial.monomial(mono)
                read = Polynomial(width, {target[b]: c for b, c in col.items()})
                assert read == normal_form(product, gb)


# ---------------------------------------------------------------------------
# the fraction-free engine against a monic Fraction reference
# ---------------------------------------------------------------------------

def ref_leading(f, order):
    return max(f, key=order.key)


def ref_monic(f, order):
    lc = f[ref_leading(f, order)]
    return {m: c / lc for m, c in f.items()}


def ref_reduce(f, basis, order):
    """Full remainder of a {monomial: Fraction} dict on division by monic
    dicts, the first divisor in list order reducing."""
    p, remainder = dict(f), {}
    while p:
        lm = ref_leading(p, order)
        c = p[lm]
        for g in basis:
            glm = ref_leading(g, order)
            if mono_divides(glm, lm):
                break
        else:
            remainder[lm] = p.pop(lm)
            continue
        shift = tuple(a - b for a, b in zip(lm, glm))
        for m, d in g.items():
            mm = tuple(a + b for a, b in zip(m, shift))
            rest = p.get(mm, 0) - c * d
            if rest:
                p[mm] = rest
            else:
                del p[mm]
    return remainder


def ref_reduced_gb(gens, order):
    """Plain Buchberger on monic Fraction dicts, every pair reduced, then
    minimalized and tail-reduced: the reduced basis as a set of term sets."""
    basis = [ref_monic(g, order) for g in gens]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        lf, lg = ref_leading(f, order), ref_leading(g, order)
        lcm = tuple(map(max, lf, lg))
        s = {}
        for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
            shift = tuple(a - b for a, b in zip(lcm, lh))
            for m, c in h.items():
                mm = tuple(a + b for a, b in zip(m, shift))
                s[mm] = s.get(mm, 0) + sign * c
        h = ref_reduce({m: c for m, c in s.items() if c}, basis, order)
        if h:
            basis.append(ref_monic(h, order))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []
    for g in basis:
        lg = ref_leading(g, order)
        if not any(mono_divides(ref_leading(h, order), lg) for h in minimal):
            minimal = [h for h in minimal
                       if not mono_divides(lg, ref_leading(h, order))] + [g]
    return [ref_monic(ref_reduce(g, [h for h in minimal if h is not g], order),
                      order) for g in minimal]


HALVES = [Fraction(c, 2) for c in (-3, -2, -1, 1, 2, 3)] + [Fraction(2), Fraction(-2)]


@st.composite
def half_integral_ideals(draw):
    """Homogeneous ideals in 3-5 variables with coefficients in
    {+-1, +-2, +-1/2, +-3/2}, a random global order and a random polynomial
    to reduce."""
    width = draw(st.integers(3, 5))
    ranking = draw(st.permutations(range(width)))
    order = draw(st.sampled_from([TermOrder.grevlex(width, ranking),
                                  TermOrder.lex(width, ranking)]))

    def polynomial(degree, size):
        monomial = st.lists(st.integers(0, width - 1), min_size=degree,
                            max_size=degree).map(
            lambda vs: tuple(vs.count(v) for v in range(width)))
        monos = draw(st.lists(monomial, min_size=1, max_size=size, unique=True))
        coeffs = draw(st.lists(st.sampled_from(HALVES), min_size=len(monos),
                               max_size=len(monos)))
        return Polynomial(width, dict(zip(monos, coeffs)))

    gens = [polynomial(draw(st.integers(1, 2)), 3)
            for _ in range(draw(st.integers(1, 3)))]
    labels = tuple(f"x{i}" for i in range(width))
    f = polynomial(draw(st.integers(1, 3)), 5)
    return IdealPresentation(labels, tuple(gens)), order, f


@given(half_integral_ideals())
@settings(max_examples=60, deadline=None)
def test_fraction_free_engine_matches_the_fraction_reference(case):
    # the engine reduces on primitive ints and divides by the accumulated
    # scale once; the reference divides by each leading coefficient as it
    # goes, so any scale lost on the way shows as a different remainder
    pres, order, f = case
    gb = reduced_gb(pres, order)
    ref = ref_reduced_gb([g.terms for g in pres.generators], order)
    assert ({frozenset(g.terms.items()) for g in gb.elements}
            == {frozenset(g.items()) for g in ref})
    assert normal_form(f, gb).terms == ref_reduce(f.terms, ref, order)
    action = StandardAction(gb)
    width = pres.width
    for d in range(3):
        target = action.basis(d + 1)
        for v in range(width):
            for mono, col in zip(action.basis(d), action.column(d, v)):
                product = tuple(e + (u == v) for u, e in enumerate(mono))
                assert ({target[b]: c for b, c in col.items()}
                        == ref_reduce({product: Fraction(1)}, ref, order))


def test_standard_action_columns_hold_ints_on_a_toric_ring(heptagon_gb):
    # a toric ideal has a basis of binomials with unit coefficients, so every
    # normal form of a monomial, and every column entry, is an int
    action = StandardAction(heptagon_gb)
    entries = [c for d in range(4) for v in range(action.width)
               for col in action.column(d, v) for c in col.values()]
    assert entries and all(type(c) is int for c in entries)


def test_reduced_gb_keeps_fractional_coefficients():
    # the engine runs on ints where it can; a non-integral coefficient stays
    # an exact Fraction, and the public basis is monic over Q
    labels = ("x", "y", "z")
    pres = IdealPresentation(labels, tuple(
        parse_polynomial(g, labels)
        for g in ("y^2 - 2*x*z - x^2", "3*y^2 + x*z", "3*x*y + x^2")))
    gb = reduced_gb(pres, TermOrder.grevlex(3))
    coeffs = [c for g in gb.elements for c in g.terms.values()]
    assert all(type(c) is Fraction for c in coeffs)
    assert {Fraction(1, 3), Fraction(3, 7), Fraction(-1, 7)} <= set(coeffs)
    assert all(g.leading(gb.order)[1] == 1 for g in gb.elements)
    x2 = Polynomial.monomial((2, 0, 0))
    assert normal_form(parse_polynomial("x*y", labels), gb) == x2 * Fraction(-1, 3)


def test_a_used_basis_pickles():
    # a basis keeps its packed reducers and order keys; the keys hold the
    # order, whose key closure is dropped and rebuilt
    import pickle
    labels = ("x", "y", "z")
    pres = IdealPresentation(labels, tuple(
        parse_polynomial(g, labels) for g in ("x*y - z^2", "2*x^2 - y*z")))
    gb = reduced_gb(pres, TermOrder.grevlex(3))
    f = parse_polynomial("x^3 + y^3", labels)
    expected = normal_form(f, gb)
    back = pickle.loads(pickle.dumps(gb))
    assert back == gb
    assert normal_form(f, back) == expected


def test_reduced_gb_memoized_with_or_without_spair_cap(heptagon):
    from koszulforge import groebner
    order = TermOrder.lex(heptagon.presentation.width)
    first = reduced_gb(heptagon.presentation, order)
    misses = groebner._buchberger.cache_info().misses
    again = reduced_gb(heptagon.presentation, order,
                       spair_cap=groebner.DEFAULT_SPAIR_CAP)
    assert again is first
    assert groebner._buchberger.cache_info().misses == misses


def test_gb_requires_global_order():
    pres = IdealPresentation(("x", "y"), (P(2, ((1, 0), 1), ((0, 1), -1)),))
    with pytest.raises(InputError):
        reduced_gb(pres, TermOrder.weight((-1, 1)))


def test_multiplication_table_dims(heptagon_gb):
    table = multiplication_table(heptagon_gb, 2)
    assert table.dimension(0) == 1
    assert table.dimension(1) == 15
    assert table.dimension(2) == 106


def test_gb_json_stable(heptagon_gb):
    import json
    a = json.dumps(heptagon_gb.to_json(), sort_keys=True)
    b = json.dumps(heptagon_gb.to_json(), sort_keys=True)
    assert a == b
    data = heptagon_gb.to_json()
    assert set(data) == {"order", "elements", "initial_ideal", "flags"}


def test_quadratic_generation_is_an_ideal_property():
    from koszulforge.groebner import is_quadratically_generated
    from koszulforge.graphs import complement, cycle
    from koszulforge.toric import monomial_map, toric_ideal
    # the elimination output carries cubic basis elements, but the ideal is
    # quadratically generated
    elim = toric_ideal(monomial_map(complement(cycle(7))))
    assert any(g.degree() > 2 for g in elim.presentation.generators)
    assert is_quadratically_generated(elim.presentation)
    # a genuinely cubic ideal
    cubic = IdealPresentation(("y",), (P(1, ((3,), 1)),))
    assert not is_quadratically_generated(cubic)


def test_quadratic_flag_consistent_with_betti_row_two():
    # quadraticity matches the vanishing of beta_{2,j} for j > 2
    from koszulforge.betti import betti_table, graded_basis
    from koszulforge.groebner import is_quadratically_generated
    from koszulforge.paper_suite import paper_artinian_reduction
    art = paper_artinian_reduction(3)
    assert is_quadratically_generated(art)
    table = betti_table(graded_basis(art, degree_cap=4), 2, 4)
    assert table.get(2, 3) == 0 and table.get(2, 4) == 0
    cubic = IdealPresentation(("y",), (P(1, ((3,), 1)),))
    assert not is_quadratically_generated(cubic)
    t2 = betti_table(graded_basis(cubic, degree_cap=4), 2, 4)
    assert t2.get(2, 3) == 1


# ---------------------------------------------------------------------------
# exponents past the packed field
# ---------------------------------------------------------------------------

OVERFLOW_CASES = textwrap.dedent("""
    from fractions import Fraction
    from koszulforge.errors import ResourceCapError
    from koszulforge.groebner import IdealPresentation, normal_form, reduced_gb
    from koszulforge.polyring import EXP_MAX, Polynomial, TermOrder

    def P(*terms):
        return Polynomial(2, {m: Fraction(c) for m, c in terms})

    # lex with y > x: y - x^20000 turns y^2 into x^40000
    order = TermOrder.lex(2)
    line = IdealPresentation(("x", "y"), (P(((0, 1), 1), ((20000, 0), -1)),))
    cases = {
        "input": lambda: reduced_gb(IdealPresentation(
            ("x", "y"), (P(((EXP_MAX + 1, 0), 1), ((0, 1), -1)),)), order),
        "normal_form": lambda: normal_form(P(((0, 2), 1)),
                                           reduced_gb(line, order)),
        "buchberger": lambda: reduced_gb(IdealPresentation(
            ("x", "y"), line.generators + (P(((0, 2), 1), ((1, 0), -1)),)),
            order),
    }
    for name, case in cases.items():
        try:
            case()
        except ResourceCapError:
            continue
        raise SystemExit(f"{name}: an exponent overflow went unnoticed")
""")


def test_exponent_overflow_raises():
    exec(OVERFLOW_CASES, {})


def test_exponent_overflow_raises_under_optimize():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", OVERFLOW_CASES],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
