"""Monomial maps, toric ideals, closed-form families, fiber classes."""

import itertools
from fractions import Fraction

import pytest

from koszulforge.errors import InputError
from koszulforge.graphs import complete, cycle, parse_graph
from koszulforge.groebner import normal_form, reduced_gb
from koszulforge.polyring import Polynomial, TermOrder
from koszulforge.toric import (closed_form_generators, fiber_classes,
                               monomial_map, stable_set_label,
                               stable_set_subset, toric_ideal)


def test_monomial_map_complete3():
    mp = monomial_map(complete(3))
    assert mp.source_labels == ("y_{}", "y_{1}", "y_{2}", "y_{3}")
    assert mp.target_exponents == ((0, 0, 0, 1), (1, 0, 0, 1),
                                   (0, 1, 0, 1), (0, 0, 1, 1))


def test_monomial_map_sizes():
    assert monomial_map(parse_graph("complement(cycle(7))")).source_width == 15
    assert monomial_map(parse_graph("paper:family(1)")).source_width == 18


def test_labels():
    assert stable_set_label(()) == "y_{}"
    assert stable_set_label((3,)) == "y_{3}"
    assert stable_set_label((1, 2)) == "y_{1,2}"


def test_label_inverse():
    for subset in ((), (3,), (1, 2), (10, 11)):
        assert stable_set_subset(stable_set_label(subset)) == subset
    # labels that stable_set_label never writes name no subset
    for label in ("y_{1,,2}", "y_{1,}", "y_{,}", "y_{01}", "y_{ 1}",
                  "y_{-1}", "y_{+1}", "y_{\u00b2}", "y_{1", "x_{1}", "t", ""):
        assert stable_set_subset(label) is None, label


def test_toric_ideal_complete_graph_is_zero():
    ideal = toric_ideal(monomial_map(complete(4)))
    assert ideal.presentation.generators == ()


def brute_force_degree2_kernel_pairs(mp):
    """Oracle: all unordered pairs of degree-2 monomials with equal image."""
    s = mp.source_width
    monos = []
    for i, j in itertools.combinations_with_replacement(range(s), 2):
        m = [0] * s
        m[i] += 1
        m[j] += 1
        monos.append(tuple(m))
    pairs = set()
    for a, b in itertools.combinations(monos, 2):
        if mp.image_of_monomial(a) == mp.image_of_monomial(b):
            pairs.add(frozenset((a, b)))
    return pairs


def test_cycle4_kernel_binomials():
    mp = monomial_map(cycle(4))
    ideal = toric_ideal(mp)
    ideal.validate()
    idx = {lab: i for i, lab in enumerate(mp.source_labels)}
    w = mp.source_width

    def mono(*labs):
        m = [0] * w
        for lab in labs:
            m[idx[lab]] += 1
        return tuple(m)

    f1 = Polynomial(w, {mono("y_{1}", "y_{3}"): Fraction(1),
                        mono("y_{}", "y_{1,3}"): Fraction(-1)})
    f2 = Polynomial(w, {mono("y_{2}", "y_{4}"): Fraction(1),
                        mono("y_{}", "y_{2,4}"): Fraction(-1)})
    gb = reduced_gb(ideal.presentation, TermOrder.grevlex(w))
    assert normal_form(f1, gb).is_zero()
    assert normal_form(f2, gb).is_zero()


def test_elimination_matches_closed_form_cbar3():
    closed = closed_form_generators("cbar", 3)
    closed.validate()
    assert len(closed.presentation.generators) == 14
    elim = toric_ideal(closed.map)
    elim.validate()
    order = TermOrder.grevlex(closed.presentation.width)
    gb_c = reduced_gb(closed.presentation, order)
    gb_e = reduced_gb(elim.presentation, order)
    assert gb_c.elements == gb_e.elements


def test_closed_form_counts():
    assert len(closed_form_generators("cbar", 3).presentation.generators) == 14
    assert len(closed_form_generators("cbar", 4).presentation.generators) == 18
    assert len(closed_form_generators("family", 1).presentation.generators) == 15
    assert len(closed_form_generators("family", 2).presentation.generators) == 16


def test_closed_form_validation_and_ranges():
    closed_form_generators("cbar", 5).validate()
    closed_form_generators("family", 2).validate()
    with pytest.raises(InputError):
        closed_form_generators("cbar", 2)
    with pytest.raises(InputError):
        closed_form_generators("family", 0)
    with pytest.raises(InputError):
        closed_form_generators("nope", 3)


def test_every_generator_vanishes_under_map():
    for ideal in (toric_ideal(monomial_map(cycle(5))),
                  closed_form_generators("family", 1)):
        mp = ideal.map
        for g in ideal.presentation.generators:
            (m1, _), (m2, _) = sorted(g.terms.items())
            assert mp.image_of_monomial(m1) == mp.image_of_monomial(m2)


def test_fiber_classes_complete_graph():
    fc = fiber_classes(monomial_map(complete(3)), 2)
    assert fc.count == 0
    assert fc.marking_space_size() == 1


def test_fiber_classes_cbar7():
    mp = monomial_map(parse_graph("complement(cycle(7))"))
    fc = fiber_classes(mp, 2)
    assert fc.count == 14
    assert all(len(c) == 2 for c in fc.classes)
    assert fc.marking_space_size() == 2 ** 14
    # oracle: the classes are exactly the equal-image pairs
    assert {frozenset(c) for c in fc.classes} == \
        brute_force_degree2_kernel_pairs(mp)


def test_fiber_classes_cycle4():
    mp = monomial_map(cycle(4))
    fc = fiber_classes(mp, 2)
    idx = {lab: i for i, lab in enumerate(mp.source_labels)}
    w = mp.source_width

    def mono(*labs):
        m = [0] * w
        for lab in labs:
            m[idx[lab]] += 1
        return tuple(m)

    flat = {frozenset(c) for c in fc.classes}
    assert frozenset((mono("y_{1}", "y_{3}"), mono("y_{}", "y_{1,3}"))) in flat
    assert frozenset((mono("y_{2}", "y_{4}"), mono("y_{}", "y_{2,4}"))) in flat


def test_fiber_class_members_share_image():
    mp = monomial_map(parse_graph("paper:G2"))
    fc = fiber_classes(mp, 2)
    for cls in fc.classes:
        images = {mp.image_of_monomial(m) for m in cls}
        assert len(images) == 1


def test_degree2_fiber_span_matches_hilbert():
    # dim I_2 = sum over classes of (size - 1) must equal
    # (number of degree-2 monomials) - HF(2)
    from koszulforge.hilbert import hilbert_series, poly1_series_coeffs
    for spec in ("complement(cycle(7))", "paper:G2"):
        mp = monomial_map(parse_graph(spec))
        ideal = toric_ideal(mp)
        fc = fiber_classes(mp, 2)
        hd = hilbert_series(ideal.presentation)
        hf2 = poly1_series_coeffs(hd.numerator, mp.source_width, 2)[2]
        total_deg2 = mp.source_width * (mp.source_width + 1) // 2
        assert sum(len(c) - 1 for c in fc.classes) == total_deg2 - hf2


def test_fiber_degree_validation():
    with pytest.raises(InputError):
        fiber_classes(monomial_map(complete(2)), 0)
