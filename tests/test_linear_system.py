"""The search for a regular linear system: its budget, its pinned output, the
zero-divisor pre-filter that rejects candidates before any quotient, and the
quotient bases resumed from the basis of the ring before."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulforge import hilbert
from koszulforge.errors import InputError, ResourceCapError
from koszulforge.graphs import parse_graph
from koszulforge.groebner import (DEFAULT_SPAIR_CAP, IdealPresentation,
                                  StandardAction, _buchberger, normal_form,
                                  reduced_gb)
from koszulforge.hilbert import (find_regular_linear_system,
                                 gorenstein_certificate, hilbert_series,
                                 leading_variable, quotient_by_linear_form,
                                 zero_divisor_witness)
from koszulforge.paper_suite import paper_artinian_reduction
from koszulforge.polyring import (Polynomial, TermOrder, parse_polynomial,
                                  unit_mono)
from koszulforge.toric import closed_form_generators, monomial_map, toric_ideal


@cache
def toric_presentation(spec):
    return toric_ideal(monomial_map(parse_graph(spec))).presentation


def form_strings(pres, forms):
    """Each form in the labels of the ring of its own step."""
    labels = list(pres.labels)
    out = []
    for f in forms:
        out.append(f.to_str(labels))
        labels.pop(leading_variable(f))
    return out


# (graph, regularity tests the search spends, quotients it builds, forms)
SEARCHES = [
    ("complement(cycle(7))", 26, 16,
     ["y_{}", "-y_{2,3} + y_{1}", "-y_{3,4} + y_{2}", "-y_{4,5} + y_{3}",
      "-y_{5,6} + y_{4}", "-y_{6,7} + y_{5}", "-y_{1,7} + y_{6}",
      "-y_{1,2} + y_{7}"]),
    ("paper:G1", 116, 12,
     ["y_{}", "-y_{2,4} + y_{1}", "-y_{3,5} + y_{2}", "-y_{4,6} + y_{3}",
      "-y_{2,5} + y_{4}",
      "-y_{3,6} + y_{1,4} + y_{1,3} + y_{5} + 2*y_{3} - y_{2} + y_{1}",
      "-y_{1,4} + y_{1,3} - 2*y_{6} + 2*y_{5} - 2*y_{4} - 2*y_{2} + 2*y_{1}"]),
    ("paper:G4", 108, 13,
     ["y_{}", "-y_{3,5} + y_{2}", "-y_{4,6} + y_{3}", "-y_{1,5} + y_{4}",
      "-y_{2,4} + y_{6}", "2*y_{2,5} - 2*y_{6} + y_{4} + y_{2} + y_{1}",
      "y_{3,6} - 2*y_{6} + 2*y_{5} - 2*y_{4} - 2*y_{2} + 2*y_{1}"]),
    ("paper:G2", 115, 11,
     ["y_{}", "-y_{2,5} + y_{1}", "-y_{3,5} + y_{2}", "-y_{1,4} + y_{3}",
      "-y_{3,6} + y_{5}",
      "2*y_{1,3,5} + 2*y_{1,3} - 2*y_{6} + y_{4} + y_{2} + y_{1}",
      "-y_{1,5} + y_{1,3} - 2*y_{6} + 2*y_{5} - 2*y_{4} - 2*y_{2} + 2*y_{1}"]),
    ("cycle(5)", 14, 8,
     ["y_{}", "-y_{2,4} + y_{1}", "-y_{3,5} + y_{2}", "-y_{1,4} + y_{3}",
      "-y_{2,5} + y_{4}", "-y_{1,3} + y_{5}"]),
]


def count_quotients(monkeypatch):
    calls = [0]
    full_test = hilbert.quotient_by_linear_form

    def counted(*args, **kwargs):
        calls[0] += 1
        return full_test(*args, **kwargs)

    monkeypatch.setattr(hilbert, "quotient_by_linear_form", counted)
    return calls


@pytest.mark.parametrize("spec, tests, quotients, forms", SEARCHES,
                         ids=[case[0] for case in SEARCHES])
def test_search_output_and_budget_are_pinned(monkeypatch, spec, tests,
                                             quotients, forms):
    # the search spends exactly ``tests`` regularity tests, pre-filter
    # rejections included, so one fewer in the budget ends it in None; only
    # ``quotients`` of them build a quotient and its Groebner basis
    pres = toric_presentation(spec)
    calls = count_quotients(monkeypatch)
    monkeypatch.setattr(hilbert, "LSOP_BUDGET", tests)
    found = find_regular_linear_system(pres)
    assert found is not None
    assert form_strings(pres, found[0]) == forms
    assert calls[0] == quotients
    monkeypatch.setattr(hilbert, "LSOP_BUDGET", tests - 1)
    assert find_regular_linear_system(pres) is None


def test_an_artinian_ring_needs_no_form(monkeypatch):
    # the search reads dim 0 from the ring and builds no quotient
    pres = paper_artinian_reduction(3)
    assert hilbert_series(pres).krull_dim == 0
    calls = count_quotients(monkeypatch)
    assert find_regular_linear_system(pres) == ([], pres)
    assert calls[0] == 0


def test_the_unit_ideal_ends_the_search_at_once(monkeypatch):
    # dim -1 is no length a linear system can have, so the search gives up
    # before building any quotient
    pres = IdealPresentation(("x", "y"), (Polynomial.constant(2, 1),))
    assert hilbert_series(pres).krull_dim == -1
    calls = count_quotients(monkeypatch)
    assert find_regular_linear_system(pres) is None
    assert calls[0] == 0


def test_quotient_count_of_the_ring_certificates_is_pinned(monkeypatch):
    # the heptagon ring, G1 and G4 build 41 quotients together, where the
    # factor test alone would build one per regularity test (250)
    calls = count_quotients(monkeypatch)
    for spec in ("complement(cycle(7))", "paper:G1", "paper:G4"):
        pres = toric_presentation(spec)
        find_regular_linear_system(pres)
    assert calls[0] == 41


@pytest.fixture
def fresh_search_memo():
    """An empty linear-system memo, emptied again afterwards, so that no
    search under a patched budget leaks into other tests."""
    hilbert.regular_linear_system.cache_clear()
    yield
    hilbert.regular_linear_system.cache_clear()


def test_small_budget_gives_an_inconclusive_certificate(monkeypatch,
                                                       fresh_search_memo):
    monkeypatch.setattr(hilbert, "LSOP_BUDGET", 3)
    pres = toric_presentation("cycle(5)")
    assert find_regular_linear_system(pres) is None
    cert = gorenstein_certificate(pres, socle_even_if_asymmetric=True)
    assert cert.verdict == "Inconclusive"
    assert cert.linear_system == [] and cert.artinian_presentation is None


@cache
def prefilter_ring(spec, quotiented):
    """The toric ring of spec, or its quotient by the empty-set variable
    y_{} (variable 0, the first form of its linear system), with its
    numerator, grevlex basis and action."""
    pres = toric_presentation(spec)
    if quotiented:
        pres, ok = quotient_by_linear_form(
            pres, Polynomial.variable(pres.width, 0))
        assert ok
    gb = reduced_gb(pres, TermOrder.grevlex(pres.width))
    return pres, hilbert_series(pres).numerator, gb, StandardAction(gb)


def check_witness(spec, quotiented, coeffs):
    pres, numerator, gb, action = prefilter_ring(spec, quotiented)
    width = pres.width
    ell = Polynomial(width, {unit_mono(width, v): Fraction(c)
                             for v, c in coeffs.items() if v < width})
    if ell.is_zero():
        return None
    f = zero_divisor_witness(action, ell)
    if f is not None:
        _, regular = quotient_by_linear_form(pres, ell, old_numerator=numerator)
        assert not regular
        assert not normal_form(f, gb).is_zero()
        assert normal_form(ell * f, gb).is_zero()
    return f


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(["cycle(5)", "paper:G4"]), quotiented=st.booleans(),
       coeffs=st.dictionaries(st.integers(0, 12), st.integers(-2, 2),
                              min_size=1))
def test_a_zero_divisor_witness_fails_the_factor_test(spec, quotiented, coeffs):
    check_witness(spec, quotiented, coeffs)


def test_variables_are_zero_divisors_after_the_first_form():
    # the property above is not vacuous: a toric ring is a domain, but in
    # its quotient by the empty-set variable every variable of cycle(5)
    # kills something already in degree 1 or 2
    for v in range(10):
        assert check_witness("cycle(5)", True, {v: 1}) is not None
    assert check_witness("cycle(5)", False, {0: 1}) is None


def test_zero_divisor_witness_rejects_bad_forms():
    _, _, _, action = prefilter_ring("cycle(5)", False)
    for bad in (Polynomial.zero(11), Polynomial.variable(11, 1) ** 2,
                Polynomial.variable(10, 1)):
        with pytest.raises(InputError):
            zero_divisor_witness(action, bad)


# ---------------------------------------------------------------------------
# quotient bases resumed from the ring's basis
# ---------------------------------------------------------------------------

def assert_resumed_as_from_scratch(quotient):
    """The grevlex basis of a quotient presentation, resumed from its
    origin, is the one Buchberger finds from its generators alone, packed
    reducers included; the memo is bypassed on both sides."""
    order = TermOrder.grevlex(quotient.width)
    plain = IdealPresentation(quotient.labels, quotient.generators)
    assert quotient.origin is not None and plain.origin is None
    assert plain == quotient and hash(plain) == hash(quotient)
    assert repr(plain) == repr(quotient)
    assert plain.to_json() == quotient.to_json()
    resumed = _buchberger.__wrapped__(quotient, order, DEFAULT_SPAIR_CAP)
    scratch = _buchberger.__wrapped__(plain, order, DEFAULT_SPAIR_CAP)
    assert resumed == scratch
    assert resumed._packed[2] == scratch._packed[2]


COEFFS = st.sampled_from([Fraction(c) for c in (-3, -2, -1, 1, 2, 3)]
                         + [Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def quotient_cases(draw):
    """A homogeneous ideal in 3-5 variables, linear generators among its
    others, and a linear form; the form may lie in the ideal, the ideal may
    be the unit ideal, and coefficients are integral or not."""
    width = draw(st.integers(3, 5))

    def form(degree):
        monomial = st.lists(st.integers(0, width - 1), min_size=degree,
                            max_size=degree).map(
            lambda vs: tuple(vs.count(v) for v in range(width)))
        monos = draw(st.lists(monomial, min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(COEFFS, min_size=len(monos),
                               max_size=len(monos)))
        return Polynomial(width, dict(zip(monos, coeffs)))

    gens = [form(draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(0, 4)))]
    ell = form(1)
    kind = draw(st.sampled_from(["form", "member", "unit"]))
    if kind == "member":
        gens.append(ell * draw(COEFFS))
    elif kind == "unit":
        gens.append(Polynomial.constant(width, draw(COEFFS)))
    labels = tuple(f"x{i}" for i in range(width))
    return IdealPresentation(labels, tuple(gens)), ell


@given(quotient_cases())
@settings(max_examples=80, deadline=None)
def test_a_resumed_quotient_basis_is_the_basis_from_scratch(case):
    pres, ell = case
    quotient, _ = quotient_by_linear_form(pres, ell)
    assert quotient.origin == (pres, ell)
    assert_resumed_as_from_scratch(quotient)


def search_ring(spec):
    """The toric ring of a graph, or a closed-form ideal as "cbar(3)"."""
    for name in ("cbar", "family"):
        if spec.startswith(name + "("):
            return closed_form_generators(name, int(spec[len(name) + 1:-1])
                                          ).presentation
    return toric_presentation(spec)


@pytest.mark.parametrize("spec", ["complement(cycle(7))", "paper:G1",
                                  "paper:G4", "cbar(3)", "family(1)"])
def test_every_quotient_of_a_search_is_resumed_exactly(monkeypatch, spec):
    quotients = []
    full_test = hilbert.quotient_by_linear_form

    def recorded(*args, **kwargs):
        out = full_test(*args, **kwargs)
        quotients.append(out[0])
        return out

    monkeypatch.setattr(hilbert, "quotient_by_linear_form", recorded)
    assert find_regular_linear_system(search_ring(spec)) is not None
    assert quotients
    for quotient in quotients:
        assert_resumed_as_from_scratch(quotient)


def heptagon_quotients(monkeypatch):
    """(R, l, R/(l)) for each quotient of the heptagon ring's search, and
    for two forms of its own: one led by 2, and then, on that quotient,
    whose generators have the coefficient 1/2, one with Fraction
    coefficients."""
    pres = toric_presentation("complement(cycle(7))")
    found = []
    full_test = hilbert.quotient_by_linear_form

    def recorded(ring, ell, *args, **kwargs):
        out = full_test(ring, ell, *args, **kwargs)
        found.append((ring, ell, out[0]))
        return out

    monkeypatch.setattr(hilbert, "quotient_by_linear_form", recorded)
    assert find_regular_linear_system(pres) is not None
    ring = pres
    for text in ("2*y_{6,7} - y_{1} + y_{3,4}", "3/2*y_{5,6} + 2/3*y_{} - y_{5}"):
        ring = recorded(ring, parse_polynomial(text, ring.labels))[0]
    return found


def test_quotient_generators_agree_with_their_ring_where_l_vanishes(monkeypatch):
    # checked by evaluation alone: at a rational point on l = 0, a generator
    # of R takes the value of its counterpart in R/(l) at the same point
    # without the coordinate of the substituted variable, the greatest one
    # in l; a generator that vanishes at every such point was dropped
    rng = random.Random(7)
    quotients = heptagon_quotients(monkeypatch)
    assert len(quotients) == 18
    for ring, ell, quotient in quotients:
        lead = max(m.index(1) for m in ell.terms)
        coeff = ell.terms[unit_mono(ring.width, lead)]
        assert quotient.labels == ring.labels[:lead] + ring.labels[lead + 1:]
        points = []
        for _ in range(3):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(ring.width)]
            point[lead] = 0
            point[lead] = -ell.evaluate(point) / coeff
            assert ell.evaluate(point) == 0
            points.append(point)
        left = iter(quotient.generators)
        counterpart = next(left, None)
        for g in ring.generators:
            values = [g.evaluate(point) for point in points]
            if counterpart is not None and values == [
                    counterpart.evaluate(point[:lead] + point[lead + 1:])
                    for point in points]:
                counterpart = next(left, None)
            else:
                assert values == [0] * len(points)
        assert counterpart is None


# the heptagon ring quotiented by y_{} and then by the next three forms of
# its linear system, and the fifth form the search tries there
HEPTAGON_CHAIN = ["y_{}", "y_{1} - y_{2,3}", "y_{2} - y_{3,4}",
                  "y_{3} - y_{4,5}", "y_{2} - y_{5,6}"]


@pytest.mark.parametrize("steps, cap", [(1, 58), (5, 66)],
                         ids=["first quotient", "fifth quotient"])
def test_a_resumed_basis_honours_the_spair_cap(steps, cap):
    # the cap bounds each run of Buchberger, and a resumed basis rests on
    # the bases before it, found under the same cap.  The heptagon ring's
    # basis takes 58 S-pairs from scratch; its quotient by y_{} resumes with
    # none, since y_{} is prime to every leading monomial, so it needs the
    # ring's 58; the fifth quotient resumes with 66 of its own, more than
    # any basis before it needs
    pres = toric_presentation("complement(cycle(7))")
    for text in HEPTAGON_CHAIN[:steps]:
        parent = pres
        pres, _ = quotient_by_linear_form(
            parent, parse_polynomial(text, parent.labels))
    order = TermOrder.grevlex(pres.width)
    assert reduced_gb(pres, order, spair_cap=cap) == reduced_gb(pres, order)
    with pytest.raises(ResourceCapError):
        reduced_gb(pres, order, spair_cap=cap - 1)
    if steps == 5:
        # the resumed run itself is what exceeds the smaller cap
        reduced_gb(parent, TermOrder.grevlex(parent.width), spair_cap=cap - 1)
