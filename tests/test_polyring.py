"""Polynomial arithmetic, term orders, parsing and serialization."""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulforge.errors import InputError, ResourceCapError
from koszulforge.polyring import (EXP_MAX, FIELD_BITS, FIELD_MAX, Polynomial,
                                  TermOrder, check_packed,
                                  guard_mask, mono_mul, mono_one, pack,
                                  packed_degree, packed_divides, packed_lcm,
                                  parse_polynomial, unit_mono, unpack)

WIDTH = 5

monomials = st.tuples(*[st.integers(min_value=0, max_value=6)] * WIDTH)
coeffs = st.fractions(min_value=-10, max_value=10).filter(lambda c: c != 0)
orders = st.sampled_from([
    TermOrder.lex(WIDTH),
    TermOrder.grevlex(WIDTH),
    TermOrder.grevlex(WIDTH, ranking=(4, 2, 0, 1, 3)),
    TermOrder.weight([3, 1, 4, 1, 5]),
    TermOrder.weight([Fraction(1, 2), 2, 0, 1, 1]),
])


def poly(width, *terms):
    return Polynomial(width, {tuple(m): Fraction(c) for m, c in terms})


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

@given(orders, monomials, monomials)
@settings(max_examples=300)
def test_order_totality_antisymmetry(order, a, b):
    ab = order.compare(a, b)
    ba = order.compare(b, a)
    if a == b:
        assert ab == ba == "EQ"
    else:
        assert {ab, ba} == {"LT", "GT"}


@given(orders, monomials, monomials, monomials)
@settings(max_examples=300)
def test_order_multiplicativity(order, a, b, c):
    assert order.compare(a, b) == order.compare(mono_mul(a, c), mono_mul(b, c))


@given(orders, monomials)
@settings(max_examples=300)
def test_order_one_minimal(order, a):
    assert order.compare(mono_one(WIDTH), a) in ("LT", "EQ")


@given(orders, monomials, monomials, monomials)
@settings(max_examples=300)
def test_order_transitivity(order, a, b, c):
    if order.compare(a, b) != "GT" and order.compare(b, c) != "GT":
        assert order.compare(a, c) != "GT"


def test_grevlex_examples_from_heptagon_ring():
    # under y1 < ... < y7, the initial ideal of the artinian reduction forces
    # y3*y7 above y1^2 and y2^2 above y1*y4
    order = TermOrder.grevlex(7)
    y1sq = unit_mono(7, 0, 2)
    y3y7 = mono_mul(unit_mono(7, 2), unit_mono(7, 6))
    assert order.compare(y1sq, y3y7) == "LT"
    y2sq = unit_mono(7, 1, 2)
    y1y4 = mono_mul(unit_mono(7, 0), unit_mono(7, 3))
    assert order.compare(y2sq, y1y4) == "GT"


def test_order_compare_eq_and_errors():
    order = TermOrder.grevlex(3)
    m = (1, 2, 0)
    assert order.compare(m, m) == "EQ"
    with pytest.raises(InputError):
        order.compare((1, 0), (0, 1, 0))
    with pytest.raises(InputError):
        TermOrder.grevlex(3, ranking=(0, 1))


def test_negative_weight_order_is_not_global():
    assert not TermOrder.weight((-1, 1)).is_global
    assert TermOrder.grevlex(3).is_global
    assert TermOrder.weight([1, 0, 2]).is_global


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_basic_identities():
    y1 = Polynomial.variable(3, 0)
    y2 = Polynomial.variable(3, 1)
    y3 = Polynomial.variable(3, 2)
    assert (y1 - y2) + (y2 - y3) == y1 - y3
    assert (y1 - y2) * (y1 + y2) == y1 * y1 - y2 * y2
    f = 3 * y1 * y2 - y3
    assert (f - f).is_zero()


simple_polys = st.lists(st.tuples(monomials, coeffs), min_size=0, max_size=5)


@given(simple_polys, simple_polys)
@settings(max_examples=150)
def test_product_matches_evaluation(ft, gt):
    f = Polynomial(WIDTH, dict(ft))
    g = Polynomial(WIDTH, dict(gt))
    point = [Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(0),
             Fraction(5, 7)]
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_project():
    f = poly(3, ((2, 0, 0), 1), ((0, 1, 1), -2))
    g = poly(3, ((0, 2, 0), 1), ((0, 0, 2), 1))
    h = g.project([1, 2])
    assert h.width == 2
    assert h == poly(2, ((2, 0), 1), ((0, 2), 1))
    with pytest.raises(InputError):
        f.project([1, 2])  # x0 still occurs


def test_leading_and_monic():
    order = TermOrder.grevlex(2)
    f = poly(2, ((2, 0), 2), ((0, 1), 7))
    lm, lc = f.leading(order)
    assert lm == (2, 0) and lc == 2
    assert f.monic(order).terms[(2, 0)] == 1


def test_width_mismatch_raises():
    with pytest.raises(InputError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(InputError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)


# ---------------------------------------------------------------------------
# text and JSON
# ---------------------------------------------------------------------------

def test_parse_polynomial_roundtrip():
    labels = ("y_{}", "y_{1}", "y_{1,2}", "t")
    f = parse_polynomial("3*y_{1}^2*t - 1/2*y_{1,2} + y_{}", labels)
    assert f.terms[(0, 2, 0, 1)] == 3
    assert f.terms[(0, 0, 1, 0)] == Fraction(-1, 2)
    assert f.terms[(1, 0, 0, 0)] == 1
    text = f.to_str(labels)
    again = parse_polynomial(text, labels)
    assert again == f


def test_parse_polynomial_errors():
    labels = ("a", "b")
    with pytest.raises(InputError):
        parse_polynomial("a + ?", labels)
    with pytest.raises(InputError):
        parse_polynomial("a -", labels)
    with pytest.raises(InputError):
        parse_polynomial("1/0", ("x",))
    with pytest.raises(InputError):
        parse_polynomial("a^1/2", labels)
    for too_long in ("1" * 5000, "a^" + "1" * 5000):  # past int()'s limit
        with pytest.raises(InputError):
            parse_polynomial(too_long, labels)
    # no label, or an empty one, used to match the empty string forever
    with pytest.raises(InputError):
        parse_polynomial("x", ())
    with pytest.raises(InputError):
        parse_polynomial("x", ("",))


POLY_LABELS = ("y_{}", "y_{1,2}", "t")
polynomial_texts = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(list(POLY_LABELS) + [
        "0", "1", "12", "/", "/0", "^", "*", "+", "-", "(", ")", " ", "y_{1"]),
        max_size=12).map("".join))


@given(polynomial_texts)
@example("1/0")
@example("t^1/2")
@settings(max_examples=300)
def test_parse_polynomial_fails_only_with_input_error(text):
    try:
        f = parse_polynomial(text, POLY_LABELS)
    except InputError:
        return
    assert f.width == len(POLY_LABELS)


def test_polynomial_json_roundtrip():
    f = poly(3, ((1, 2, 0), Fraction(5, 3)), ((0, 0, 1), -1))
    data = f.to_json()
    assert all(set(item) == {"coeff", "exps"} for item in data)
    assert Polynomial.from_json(data, 3) == f


def test_zero_polynomial_renders():
    assert Polynomial.zero(2).to_str(("a", "b")) == "0"
    assert parse_polynomial("0", ("a", "b")).is_zero()


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

field_values = st.one_of(st.integers(0, 3), st.integers(0, EXP_MAX),
                         st.just(EXP_MAX))


@st.composite
def monomial_pairs(draw):
    """(a, b) of one width in 1..40; half the time b is a multiple of a."""
    width = draw(st.integers(1, 40))
    a = tuple(draw(st.lists(field_values, min_size=width, max_size=width)))
    d = tuple(draw(st.lists(field_values, min_size=width, max_size=width)))
    if draw(st.booleans()):
        return a, d
    return a, tuple(min(EXP_MAX, x + y) for x, y in zip(a, d))


@given(monomial_pairs())
@settings(max_examples=200)
def test_packed_arithmetic_matches_tuples(pair):
    a, b = pair
    width = len(a)
    guard = guard_mask(width)
    pa, pb = pack(a), pack(b)
    assert unpack(pa, width) == a and unpack(pb, width) == b
    assert packed_degree(pa, width) == sum(a)
    divides = all(x <= y for x, y in zip(a, b))
    assert packed_divides(pa, pb, guard) == divides
    if divides:
        assert unpack(pb - pa, width) == tuple(y - x for x, y in zip(a, b))
    assert unpack(packed_lcm(pa, pb, guard), width) == tuple(map(max, a, b))
    product = tuple(x + y for x, y in zip(a, b))
    if max(product) <= EXP_MAX:
        assert unpack(check_packed(pa + pb, guard), width) == product
    else:
        # an overflowing field is flagged, and its neighbours are intact
        assert unpack(pa + pb, width) == product
        with pytest.raises(ResourceCapError):
            check_packed(pa + pb, guard)


def test_pack_rejects_exponents_outside_a_field():
    assert unpack(pack((EXP_MAX, 0)), 2) == (EXP_MAX, 0)
    with pytest.raises(ResourceCapError):
        pack((0, EXP_MAX + 1))
    with pytest.raises(InputError):
        pack((1, -1))
    assert pack(()) == 0 and unpack(0, 0) == ()


# ---------------------------------------------------------------------------
# int order keys of packed monomials
# ---------------------------------------------------------------------------

def raw_pack(m):
    """Fields laid out as pack does, without its range check, so that a
    field may hold a flagged product up to FIELD_MAX."""
    return sum(e << (FIELD_BITS * i) for i, e in enumerate(m))


@st.composite
def orders_and_monomials(draw):
    """Any kind of order over a random ranking, and distinct monomials whose
    fields reach past EXP_MAX up to FIELD_MAX."""
    width = draw(st.integers(0, 7))
    ranking = draw(st.permutations(range(width)))
    weights = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                       min_size=width, max_size=width)

    def simple(draw_kind):
        if draw_kind == "lex":
            return TermOrder.lex(width, ranking)
        if draw_kind == "grevlex":
            return TermOrder.grevlex(width, ranking)
        return TermOrder.weight(draw(weights), ranking)

    kind = draw(st.sampled_from(["lex", "grevlex", "weight", "block"]))
    if kind == "block":
        dropped = draw(st.lists(st.sampled_from(range(width)), unique=True)
                       if width else st.just([]))
        kept = simple(draw(st.sampled_from(["lex", "grevlex", "weight"])))
        order = TermOrder.block(width, dropped, kept)
    else:
        order = simple(kind)
    fields = st.one_of(st.integers(0, 3), st.integers(0, FIELD_MAX),
                       st.sampled_from([EXP_MAX, EXP_MAX + 1, FIELD_MAX]))
    monos = draw(st.lists(st.tuples(*[fields] * width), min_size=1,
                          max_size=6, unique=True))
    # moves of exponent between two fields keep the degree, so that the
    # comparisons past it are reached too
    for _ in range(draw(st.integers(0, 10)) if width > 1 else 0):
        m = list(draw(st.sampled_from(monos)))
        i, j = draw(st.permutations(range(width)))[:2]
        t = draw(st.integers(0, min(m[i], FIELD_MAX - m[j])))
        m[i] -= t
        m[j] += t
        monos.append(tuple(m))
    return order, list(dict.fromkeys(monos))


@given(orders_and_monomials())
@settings(max_examples=300)
def test_packed_key_orders_as_the_tuple_key(case):
    order, monos = case
    by_key = sorted(monos, key=order.key)
    assert sorted(monos, key=lambda m: order.packed_key(raw_pack(m))) == by_key
    assert all(isinstance(order.packed_key(raw_pack(m)), int) for m in monos)


def byte_path_key(order):
    """The packed key of a grevlex, block or weight order as the fields read
    one by one give it, for every monomial and ranking: the reference that
    the int shortcuts of TermOrder.packed_key must equal value for value.
    Returns (key, bits)."""
    width = order.width

    def field(p, v):
        return (p >> (FIELD_BITS * v)) & FIELD_MAX

    if order.kind in ("grevlex", "block"):
        vs = order.ranking if order.kind == "grevlex" else order.dropped
        shift = FIELD_BITS * len(vs)
        bits = shift + (len(vs) * FIELD_MAX).bit_length()

        def descending(p):
            fields = [field(p, v) for v in vs]
            rev = sum(f << (FIELD_BITS * (len(vs) - 1 - j))
                      for j, f in enumerate(fields))
            return ((sum(fields) + 1) << shift) - 1 - rev

        if order.kind == "grevlex":
            return descending, bits
        tie, tie_bits = byte_path_key(order.tiebreak)
        keep = sum(FIELD_MAX << (FIELD_BITS * v)
                   for v in range(width) if v not in vs)
        return (lambda p: (descending(p) << tie_bits) + tie(p & keep),
                bits + tie_bits)
    scale = 1
    for w in order.weights:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    w = [int(x * scale) for x in order.weights]
    least = FIELD_MAX * sum(x for x in w if x < 0)
    span = FIELD_MAX * sum(abs(x) for x in w)
    tie, tie_bits = byte_path_key(order.tiebreak)
    return (lambda p: ((sum(x * field(p, v) for v, x in enumerate(w)) - least)
                       << tie_bits) + tie(p),
            span.bit_length() + tie_bits)


@st.composite
def runs_and_monomials(draw):
    """Orders whose ranked variables are mostly one increasing run: the
    identity ranking, a contiguous dropped block, or neither; and monomials
    whose fields sit on both sides of 256 and of the guard bit."""
    width = draw(st.integers(0, 8))
    identity = tuple(range(width))
    ranking = draw(st.one_of(st.just(identity), st.permutations(identity)))
    kind = draw(st.sampled_from(["grevlex", "weight", "block"]))
    if kind == "grevlex":
        order = TermOrder.grevlex(width, ranking)
    elif kind == "weight":
        order = TermOrder.weight(
            draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)),
            ranking)
    else:
        lo = draw(st.integers(0, width))
        hi = draw(st.integers(lo, width))
        dropped = draw(st.one_of(st.just(range(lo, hi)),
                                 st.sets(st.sampled_from(identity))
                                 if width else st.just(set())))
        order = TermOrder.block(width, dropped, TermOrder.grevlex(width, ranking))
    fields = st.one_of(st.integers(0, 3), st.integers(0, 255),
                       st.sampled_from([255, 256, 257, 511, 512, EXP_MAX,
                                        EXP_MAX + 1, FIELD_MAX]),
                       st.integers(0, FIELD_MAX))
    monos = draw(st.lists(st.tuples(*[fields] * width), min_size=1, max_size=8))
    return order, monos


@given(runs_and_monomials())
@settings(max_examples=400)
@example((TermOrder.grevlex(3), [(0, 0, 0), (255, 255, 255), (256, 0, 1),
                                  (EXP_MAX + 1, 2, 0), (1, FIELD_MAX, 3)]))
@example((TermOrder.block(5, [2, 3], TermOrder.grevlex(5)),
          [(1, 2, 255, 256, 7), (9, 9, 0, 0, 300), (0, 0, FIELD_MAX, 1, 0)]))
@example((TermOrder.block(5, [1, 3], TermOrder.grevlex(5, (4, 3, 2, 1, 0))),
          [(1, 2, 3, 4, 5), (0, 256, 0, 300, 1)]))
def test_packed_key_and_degree_equal_the_byte_path(case):
    order, monos = case
    key, bits = byte_path_key(order)
    for m in monos:
        p = raw_pack(m)
        assert order.packed_key(p) == key(p) < 1 << bits
        assert packed_degree(p, order.width) == sum(m)


def test_term_order_pickles_after_packed_key_use():
    order = TermOrder.block(3, [0], TermOrder.weight([1, 2, 3]))
    key = order.packed_key(raw_pack((1, 2, 3)))
    back = pickle.loads(pickle.dumps(order))
    assert back == order and hash(back) == hash(order)
    assert back.packed_key(raw_pack((1, 2, 3))) == key


# ---------------------------------------------------------------------------
# inexact coefficients
# ---------------------------------------------------------------------------

def test_float_coefficients_are_rejected():
    with pytest.raises(InputError, match="inexact"):
        Polynomial(2, {(1, 0): 0.1})
    with pytest.raises(InputError, match="inexact"):
        Polynomial.monomial((1, 0), 0.5)
    with pytest.raises(InputError, match="inexact"):
        Polynomial.from_json([{"coeff": 0.1, "exps": [1, 0]}], 2)
    x = Polynomial.variable(2, 0)
    for inexact in (lambda: x * 0.1, lambda: x.mul_term((0, 1), 0.1),
                    lambda: TermOrder.weight([0.1, 1])):
        with pytest.raises(InputError, match="inexact"):
            inexact()
    # exact spellings still parse
    p = Polynomial.from_json([{"coeff": "1/10", "exps": [1, 0]},
                              {"coeff": 2, "exps": [0, 1]}], 2)
    assert p.terms == {(1, 0): Fraction(1, 10), (0, 1): Fraction(2)}
