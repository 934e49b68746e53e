"""The search for a regular linear system: its budget, its pinned output and
the zero-divisor pre-filter that rejects candidates before any quotient."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulforge import hilbert
from koszulforge.errors import InputError
from koszulforge.graphs import parse_graph
from koszulforge.groebner import (IdealPresentation, StandardAction,
                                  normal_form, reduced_gb)
from koszulforge.hilbert import (find_regular_linear_system,
                                 gorenstein_certificate, hilbert_series,
                                 leading_variable, quotient_by_linear_form,
                                 zero_divisor_witness)
from koszulforge.paper_suite import paper_artinian_reduction
from koszulforge.polyring import Polynomial, TermOrder, unit_mono
from koszulforge.toric import monomial_map, toric_ideal


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
