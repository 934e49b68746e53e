"""Hilbert series, h-vectors, regular sequences, socles, Gorenstein
certification."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulforge import hilbert
from koszulforge.errors import InputError
from koszulforge.graphs import complete, parse_graph
from koszulforge.groebner import IdealPresentation, monomial_ideal
from koszulforge.hilbert import (SocleData, apply_linear_forms,
                                 gorenstein_certificate, hilbert_series,
                                 is_socle_element, monomial_numerator,
                                 poly1_div_one_minus_t, poly1_mul,
                                 poly1_series_coeffs, quotient_by_linear_form,
                                 socle)
from koszulforge.paper_suite import (_nonminimal_socle_witnesses, cbar_ideal,
                                     expected_artinian_generators,
                                     paper_artinian_reduction,
                                     paper_linear_forms)
from koszulforge.polyring import Polynomial, TermOrder, parse_polynomial
from koszulforge.toric import closed_form_generators, monomial_map, toric_ideal


def P(width, *terms):
    out = Polynomial.zero(width)
    for mono, c in terms:
        out = out + Polynomial.monomial(tuple(mono), Fraction(c))
    return out


def brute_force_series(gens, width, upto):
    """Oracle: count monomials outside the ideal degree by degree."""
    ideal = monomial_ideal(width, gens)
    counts = []
    for d in range(upto + 1):
        n = 0
        for combo in itertools.combinations_with_replacement(range(width), d):
            m = [0] * width
            for v in combo:
                m[v] += 1
            if not ideal.contains(tuple(m)):
                n += 1
        counts.append(n)
    return counts


@pytest.mark.parametrize("gens,width", [
    ([], 3),
    ([(2, 0, 0)], 3),
    ([(1, 1, 0), (0, 1, 1)], 3),
    ([(2, 0, 0), (0, 2, 0), (1, 0, 1)], 3),
    ([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (2, 0, 0, 2)], 4),
])
def test_monomial_numerator_against_brute_force(gens, width):
    numerator = monomial_numerator([tuple(g) for g in gens])
    got = poly1_series_coeffs(numerator, width, 6)
    assert got == brute_force_series([tuple(g) for g in gens], width, 6)


@st.composite
def monomial_gens(draw):
    width = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    gens = draw(st.lists(exps.map(tuple), max_size=5))
    return gens, width


@given(monomial_gens())
@settings(max_examples=60, deadline=None)
def test_packed_numerator_against_brute_force(case):
    gens, width = case
    got = poly1_series_coeffs(monomial_numerator(gens), width, 6)
    assert got == brute_force_series(gens, width, 6)


def test_padded_generators_share_the_memo_entry():
    # trailing zero fields leave a packed monomial as it is, so the padded
    # ideal is the same memo key
    gens = [(2, 1, 0), (0, 1, 3), (1, 0, 2)]
    numerator = monomial_numerator(gens)
    before = hilbert._numerator.cache_info()
    padded = monomial_numerator([g + (0, 0) for g in gens])
    after = hilbert._numerator.cache_info()
    assert padded == numerator
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


def test_a_degree_0_generator_gives_the_zero_numerator():
    assert monomial_numerator([(0, 0)]) == ()
    assert monomial_numerator([(0, 0, 0), (1, 2, 0)]) == ()
    assert monomial_numerator([(1, 0), (0, 0), (0, 1)]) == ()
    assert monomial_numerator([]) == (1,)


def monomial_presentation(width, gens):
    """K[x_1..x_width] modulo the monomials gens."""
    return IdealPresentation(
        tuple(f"x{v}" for v in range(width)),
        tuple(Polynomial.monomial(tuple(g), Fraction(1)) for g in gens))


def oracle_krull_dimension(width, gens):
    """Brute force: the size of the largest set of variables that contains
    no generator's support, or -1 for the unit ideal."""
    supports = [{v for v, e in enumerate(g) if e} for g in gens]
    if any(not s for s in supports):
        return -1
    return max(k for k in range(width + 1)
               for free in itertools.combinations(range(width), k)
               if not any(s <= set(free) for s in supports))


def test_krull_dimension_cases():
    assert hilbert_series(monomial_presentation(3, [])).krull_dim == 3
    assert hilbert_series(monomial_presentation(3, [(1, 1, 0)])).krull_dim == 2
    assert hilbert_series(monomial_presentation(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])).krull_dim == 0
    # pentagon edge ideal: independence number of C5 is 2
    c5_edges = [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
                (0, 0, 0, 1, 1), (1, 0, 0, 0, 1)]
    assert hilbert_series(monomial_presentation(5, c5_edges)).krull_dim == 2


def one_minus_t_power(k):
    out = (1,)
    for _ in range(k):
        out = poly1_mul(out, (1, -1))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pole_order_is_the_krull_dimension(data):
    width = data.draw(st.integers(1, 7))
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * width),
                              max_size=6))
    hd = hilbert_series(monomial_presentation(width, gens))
    assert hd.krull_dim == oracle_krull_dimension(width, gens)
    assert poly1_mul(hd.h_vector,
                     one_minus_t_power(width - hd.krull_dim)) == hd.numerator


def test_unit_ideal_hilbert():
    hd = hilbert_series(monomial_presentation(3, [(0, 0, 0)]))
    assert hd.numerator == ()
    assert hd.krull_dim == -1
    assert hd.h_vector == ()


def test_zero_ideal_hilbert():
    for labels in ((), ("a", "b", "c")):
        hd = hilbert_series(IdealPresentation(labels, ()))
        assert hd.numerator == (1,)
        assert hd.krull_dim == len(labels)
        assert hd.h_vector == (1,)


def test_an_h_vector_not_starting_at_1_is_an_engine_fault(monkeypatch):
    # no proper homogeneous ideal has such a numerator, so this is no input
    # error; an explicit raise holds under python -O too
    monkeypatch.setattr(hilbert, "monomial_numerator", lambda gens: (2, -2))
    with pytest.raises(AssertionError, match="does not start at 1"):
        hilbert_series(monomial_presentation(2, [(1, 1)]))


def test_heptagon_ring_hilbert():
    hd = hilbert_series(cbar_ideal(3).presentation)
    assert hd.h_vector == (1, 7, 14, 7, 1)
    assert hd.krull_dim == 8
    assert hd.socle_degree == 4


def test_hilbert_h1_is_embdim_minus_dim():
    for spec in ("paper:G1", "paper:G4", "cycle(4)"):
        mp = monomial_map(parse_graph(spec))
        hd = hilbert_series(toric_ideal(mp).presentation)
        h1 = hd.h_vector[1] if len(hd.h_vector) > 1 else 0
        assert h1 == mp.source_width - hd.krull_dim


def test_fixture_h_vectors():
    h1 = hilbert_series(toric_ideal(monomial_map(parse_graph("paper:G1"))).presentation)
    assert h1.h_vector == (1, 7, 10, 3)
    h4 = hilbert_series(toric_ideal(monomial_map(parse_graph("paper:G4"))).presentation)
    assert h4.h_vector == (1, 6, 8, 2)


def test_complete_graph_h_vector():
    hd = hilbert_series(toric_ideal(monomial_map(complete(5))).presentation)
    assert hd.h_vector == (1,)


def test_hilbert_order_independence():
    pres = cbar_ideal(3).presentation
    w = pres.width
    series = {hilbert_series(pres, order=o).numerator for o in (
        TermOrder.grevlex(w), TermOrder.lex(w),
        TermOrder.grevlex(w, ranking=tuple(reversed(range(w)))),
        TermOrder.lex(w, ranking=tuple(reversed(range(w)))))}
    assert len(series) == 1


def test_standard_monomial_count_is_order_independent():
    from koszulforge.groebner import initial_ideal, reduced_gb, standard_monomials
    pres = cbar_ideal(3).presentation
    w = pres.width
    counts = []
    for order in (TermOrder.grevlex(w), TermOrder.lex(w)):
        ini = initial_ideal(reduced_gb(pres, order))
        counts.append([len(standard_monomials(ini, d)) for d in range(5)])
    assert counts[0] == counts[1]


def test_exact_division_failure_signals_dimension_bug():
    assert poly1_div_one_minus_t((1, 1)) is None
    assert poly1_div_one_minus_t((1, 0, -1)) == (1, 1)


def test_quotient_regular_and_zerodivisor():
    # K[y]/(0) by y: regular; K[y]/(y^2) by y: not regular
    free = IdealPresentation(("y",), ())
    _, ok = quotient_by_linear_form(free, P(1, ((1,), 1)))
    assert ok
    sq = IdealPresentation(("y",), (P(1, ((2,), 1)),))
    _, ok = quotient_by_linear_form(sq, P(1, ((1,), 1)))
    assert not ok


def test_quotient_rejects_bad_forms():
    pres = IdealPresentation(("x", "y"), ())
    with pytest.raises(InputError):
        quotient_by_linear_form(pres, Polynomial.zero(2))
    with pytest.raises(InputError):
        quotient_by_linear_form(pres, P(2, ((2, 0), 1)))


def test_paper_reduction_yields_published_generators():
    ideal = cbar_ideal(3)
    forms = paper_linear_forms(ideal.presentation, 3)
    art, regular, _ = apply_linear_forms(ideal.presentation, forms)
    assert regular == [True] * 8
    assert art.labels == tuple(f"y_{{{i}}}" for i in range(1, 8))
    order = TermOrder.grevlex(7)

    def normalize(p):
        _, lc = p.leading(order)
        return p if lc > 0 else -p

    got = {normalize(g) for g in art.generators}
    want = {normalize(g) for g in expected_artinian_generators(3)}
    assert got == want


def test_socle_univariate():
    pres = IdealPresentation(("y",), (P(1, ((3,), 1)),))
    soc = socle(pres)
    assert soc.dimension == 1
    assert soc.witnesses[0] == P(1, ((2,), 1))


def test_socle_witnesses_below_the_top_degree():
    # the degree-1 witnesses are kernel vectors of the elimination, scaled
    # to 1 at their largest basis index
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    pres = IdealPresentation(("x", "y", "z"), (
        P(3, ((2, 0, 0), 1)), P(3, ((1, 1, 0), 1)), P(3, ((0, 3, 0), 1)),
        P(3, (z, 1))))
    soc = socle(pres)
    assert soc.by_degree == ((1, 1), (2, 1))
    assert soc.witnesses == (P(3, (x, 1)), P(3, ((0, 2, 0), 1)))
    pres = IdealPresentation(("x", "y", "z"), (
        P(3, ((2, 0, 0), 1)), P(3, ((1, 1, 0), 1)), P(3, ((0, 2, 0), 1)),
        P(3, ((0, 0, 3), 1)), P(3, ((1, 0, 1), 1), ((0, 1, 1), -2))))
    soc = socle(pres)
    assert soc.by_degree == ((1, 1), (3, 1))
    assert soc.witnesses == (P(3, (y, 1), (x, Fraction(-1, 2))),
                             P(3, ((1, 0, 2), 1)))


def test_socle_of_the_field():
    # K = K[]/(0): the constant 1 spans the socle, in degree 0
    assert socle(IdealPresentation((), ())) == SocleData(
        1, (Polynomial.constant(0, 1),), ((0, 1),))


@st.composite
def artinian_monomial_ideals(draw):
    """Pure powers x_v^a, a in 1..4, for every variable, and a few random
    monomials of positive degree."""
    width = draw(st.integers(2, 4))
    powers = [draw(st.integers(1, 4)) for _ in range(width)]
    gens = [tuple(a if u == v else 0 for u in range(width))
            for v, a in enumerate(powers)]
    exponents = st.tuples(*[st.integers(0, 3)] * width).filter(any)
    gens += draw(st.lists(exponents, max_size=4))
    return width, powers, gens


@settings(max_examples=60, deadline=None)
@given(artinian_monomial_ideals())
def test_socle_of_a_monomial_quotient(data):
    # the socle of K[x]/I for a monomial ideal I is spanned by the standard
    # monomials m with x_v * m in I for every v
    width, powers, gens = data
    ideal = monomial_ideal(width, gens)
    standard = [m for m in itertools.product(*(range(a) for a in powers))
                if not ideal.contains(m)]
    in_socle = [m for m in standard
                if all(ideal.contains(tuple(e + (u == v) for u, e in
                                            enumerate(m)))
                       for v in range(width))]
    degrees = sorted({sum(m) for m in in_socle})
    pres = IdealPresentation(tuple(f"x{v}" for v in range(width)),
                             tuple(P(width, (g, 1)) for g in ideal.generators))
    soc = socle(pres)
    assert soc.dimension == len(in_socle)
    assert soc.by_degree == tuple(
        (d, sum(sum(m) == d for m in in_socle)) for d in degrees)
    assert all(is_socle_element(pres, w) for w in soc.witnesses)
    assert set(soc.witnesses) == {P(width, (m, 1)) for m in in_socle}


def test_socle_requires_artinian():
    pres = IdealPresentation(("x", "y"), (P(2, ((2, 0), 1)),))
    with pytest.raises(InputError):
        socle(pres)


def test_socle_heptagon_reduction():
    soc = socle(paper_artinian_reduction(3))
    assert soc.dimension == 1
    assert soc.by_degree == ((4, 1),)


def test_socle_k4_reduction_witnesses():
    art = paper_artinian_reduction(4)
    soc = socle(art)
    assert soc.dimension >= 2
    idx = {lab: i for i, lab in enumerate(art.labels)}
    w = art.width

    def var(i):
        return Polynomial.variable(w, idx[f"y_{{{i}}}"])

    w1 = var(9) * var(9) * var(2) * var(4) * var(6)
    w2 = var(3) * var(6) * var(9)
    assert is_socle_element(art, w1)
    assert is_socle_element(art, w2)
    # a unit is never a socle element here
    assert not is_socle_element(art, Polynomial.constant(w, 1))


def test_socle_witnesses_for_k_divisible_by_3():
    # criterion 5 checks k = 4, 5; the third branch of the second witness
    # formula, k = 0 mod 3, first applies at k = 6
    art = paper_artinian_reduction(6)
    w1, w2 = _nonminimal_socle_witnesses(6, art)
    assert is_socle_element(art, w1)
    assert is_socle_element(art, w2)


def test_unreadable_stable_set_label_is_a_plain_variable():
    # the candidate search reads vertex sets off the labels; a label that
    # stable_set_label never writes names no set, and the search goes on
    pres = toric_ideal(monomial_map(parse_graph("cycle(5)"))).presentation
    labels = tuple("y_{1,,3}" if lab == "y_{1,3}" else lab
                   for lab in pres.labels)
    cert = gorenstein_certificate(IdealPresentation(labels, pres.generators))
    assert cert.verdict == "Gorenstein"


def test_gorenstein_certificates():
    cert = gorenstein_certificate(cbar_ideal(3))
    assert cert.verdict == "Gorenstein"
    assert cert.socle_dimension == 1
    assert cert.hilbert.socle_degree == 4
    assert len(cert.linear_system) == 8


def test_gorenstein_fast_fail_asymmetric():
    ideal = toric_ideal(monomial_map(parse_graph("paper:G1")))
    cert = gorenstein_certificate(ideal)
    assert cert.verdict == "NotGorenstein"
    assert "asymmetric" in cert.reason
    assert cert.socle_dimension is None


def test_gorenstein_socle_route_for_k4():
    cert = gorenstein_certificate(cbar_ideal(4), socle_even_if_asymmetric=True)
    assert cert.verdict == "NotGorenstein"
    assert cert.socle_dimension >= 2
    assert len(cert.linear_system) == 10


def test_gorenstein_polynomial_ring():
    cert = gorenstein_certificate(toric_ideal(monomial_map(complete(3))))
    assert cert.verdict == "Gorenstein"
    assert cert.socle_dimension == 1


def test_gorenstein_symmetry_invariant():
    for builder in (lambda: cbar_ideal(3),
                    lambda: toric_ideal(monomial_map(complete(3)))):
        cert = gorenstein_certificate(builder())
        if cert.verdict == "Gorenstein":
            h = cert.hilbert.h_vector
            s = len(h) - 1
            assert all(h[i] == h[s - i] for i in range(s + 1))


def test_regular_form_composition_recovers_h_numerator():
    ideal = cbar_ideal(3)
    hd = hilbert_series(ideal.presentation)
    art, regular, numerators = apply_linear_forms(
        ideal.presentation, paper_linear_forms(ideal.presentation, 3))
    assert all(regular)
    # the raw numerator over (1-t)^m is unchanged by each regular quotient,
    # and the artinian quotient's h-polynomial is the original h-vector
    assert all(num == hd.numerator for num in numerators)
    assert hilbert_series(art).h_vector == hd.h_vector


@pytest.mark.parametrize("text", ["y_{1}^2", "y_{1}*y_{2}", "y_{1} + y_{2}^2",
                                  "0*y_{1}"])
def test_apply_linear_forms_rejects_a_form_not_linear(text):
    # each term used to be read by its first variable, its exponent dropped,
    # so y_{1}^2 and y_{1}*y_{2} were taken as y_{1} and reported regular
    pres = toric_ideal(monomial_map(parse_graph("cycle(5)"))).presentation
    form = parse_polynomial(text, pres.labels)
    with pytest.raises(InputError, match="degree-1 form"):
        apply_linear_forms(pres, [form])
    # also when it follows a good form: the check comes before any work
    good = parse_polynomial("y_{1}", pres.labels)
    with pytest.raises(InputError, match="degree-1 form"):
        apply_linear_forms(pres, [good, form])


def test_family_series_formula():
    base = (1, 7, 14, 7, 1)
    for k in (1, 2):
        hd = hilbert_series(closed_form_generators("family", k).presentation)
        want = base
        for _ in range(k):
            want = poly1_mul(want, (1, 1))
        assert hd.h_vector == want
        assert hd.krull_dim == 2 * k + 8


def test_perfect_graph_gorenstein_matches_clique_criterion():
    # for perfect graphs, Gorenstein iff all maximal cliques equicardinal;
    # the paw graph (triangle plus a pendant edge) covers the negative case
    from koszulforge.graphs import classify
    paw = '{"n": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]}'
    for spec in ("complete(3)", "complete(4)", "path(3)", "cycle(4)",
                 "path(4)", paw):
        g = parse_graph(spec)
        flags = classify(g)
        assert flags.perfect
        cert = gorenstein_certificate(toric_ideal(monomial_map(g)),
                                      socle_even_if_asymmetric=True)
        assert cert.verdict in ("Gorenstein", "NotGorenstein")
        assert (cert.verdict == "Gorenstein") == flags.max_cliques_equicardinal
