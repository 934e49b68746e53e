"""Exact multivariate polynomial arithmetic over Q with pluggable term orders.

Monomials are dense exponent tuples (ring widths here stay below ~40),
polynomials are mappings from monomials to nonzero rational coefficients.
The hot loops of the Buchberger engine pack each monomial into one int
(see "packed monomials" below); tuples stay the public type.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping

from .errors import InputError, ResourceCapError

Monomial = tuple[int, ...]


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def mono_one(width: int) -> Monomial:
    return (0,) * width


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def unit_mono(width: int, index: int, exp: int = 1) -> Monomial:
    m = [0] * width
    m[index] = exp
    return tuple(m)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------
#
# Inside the Buchberger engine and the monomial minimalization a monomial is
# one int: the exponent of variable i sits in the 16-bit field starting at
# bit 16 * i, whose top bit is a guard that a valid exponent leaves clear
# (Bachmann and Schoenemann, "Monomial representations for Groebner bases
# computations", ISSAC 1998).  With ``guard`` the mask of every guard bit of
# the ring:
#
#   a | b       ((b | guard) - a) & guard == guard   (no field borrows)
#   a * b       a + b
#   b / a       b - a                                (when a | b)
#   lcm(a, b)   a select between the fields of a and b, masked by the same
#               guard-bit subtraction
#
# Two valid fields sum to less than 2 ** 16, so a product never carries into
# the next field: an exponent past EXP_MAX shows as a set guard bit, and the
# engine raises ResourceCapError on it before using the monomial again.  The
# order key of a packed monomial is an int as well (TermOrder.packed_key).
# For grevlex and a block order's dropped block over one increasing run of
# variables, the usual case, the key and the degree are int arithmetic on
# the packed int while every field is below 256 (a field sum is p % 65535);
# other monomials and rankings read the fields byte by byte, to the same
# int.

EXP_BITS = 15
FIELD_BITS = EXP_BITS + 1
EXP_MAX = (1 << EXP_BITS) - 1
FIELD_MAX = (1 << FIELD_BITS) - 1


def guard_mask(width: int) -> int:
    """The guard bit of every field of a ring of the given width."""
    return int.from_bytes(b"\x00\x80" * width, "little")


def pack(m: Monomial) -> int:
    """One int for an exponent tuple; an exponent over EXP_MAX is a
    ResourceCapError, a negative one an InputError."""
    if m:
        if max(m) > EXP_MAX:
            raise ResourceCapError(
                f"exponent {max(m)} exceeds the packed field maximum {EXP_MAX}")
        if min(m) < 0:
            raise InputError(f"negative exponent {min(m)}")
    return int.from_bytes(array("H", m).tobytes(), sys.byteorder)


def unpack(p: int, width: int) -> Monomial:
    """The exponent tuple of a packed monomial (fields read whole)."""
    return tuple(memoryview(p.to_bytes(2 * width, sys.byteorder)).cast("H"))


def check_packed(p: int, guard: int) -> int:
    """p itself, or ResourceCapError when an exponent has left its field."""
    if p & guard:
        raise ResourceCapError(
            f"an exponent exceeds the packed field maximum {EXP_MAX}")
    return p


def packed_divides(a: int, b: int, guard: int) -> bool:
    """True if a | b."""
    return ((b | guard) - a) & guard == guard


def packed_lcm(a: int, b: int, guard: int) -> int:
    # guard bit of field i set iff a_i >= b_i; the mask fills those fields
    ge = ((a | guard) - b) & guard
    mask = ge - (ge >> EXP_BITS)
    return (a & mask) | (b & ~mask)


# the high byte of each of 256 fields: a packed monomial that leaves them
# all clear has every field below 256, so its fields sum to p % 65535
# (2 ** 16 = 1 mod 65535, and 256 * 255 < 65535)
_HIGH_BYTES = int.from_bytes(b"\x00\xff" * 256, "little")


def packed_degree(p: int, width: int) -> int:
    if width <= 256 and not p & _HIGH_BYTES:
        return p % 65535
    return sum(unpack(p, width))


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermOrder:
    """A multiplicative total order on monomials of a fixed width.

    ``ranking`` lists variable indices from least to greatest, so
    ranking=(2,0,1) means var2 < var0 < var1.  Kinds:

    * ``lex``: compare exponents from the greatest variable down.
    * ``grevlex``: higher total degree wins; on ties the monomial with the
      strictly larger exponent on the least variable is the smaller one,
      recursing upward through the ranking.
    * ``weight``: compare w-weights first, break ties with ``tiebreak``.
    * ``block``: rank every monomial containing a ``dropped`` variable above
      all monomials in the kept variables (grevlex inside the dropped block,
      ``tiebreak`` on the kept part); used for elimination.
    """

    kind: str
    ranking: tuple[int, ...]
    weights: tuple[Fraction, ...] | None = None
    tiebreak: "TermOrder | None" = None
    dropped: tuple[int, ...] | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def lex(width: int, ranking: Iterable[int] | None = None) -> "TermOrder":
        return TermOrder("lex", _check_ranking(width, ranking))

    @staticmethod
    def grevlex(width: int, ranking: Iterable[int] | None = None) -> "TermOrder":
        return TermOrder("grevlex", _check_ranking(width, ranking))

    @staticmethod
    def weight(weights: Iterable[Fraction | int],
               ranking: Iterable[int] | None = None) -> "TermOrder":
        w = tuple(map(_exact, weights))
        rk = _check_ranking(len(w), ranking)
        return TermOrder("weight", rk, weights=w,
                         tiebreak=TermOrder.grevlex(len(w), rk))

    @staticmethod
    def block(width: int, dropped: Iterable[int], kept_order: "TermOrder") -> "TermOrder":
        dr = tuple(sorted(dropped))
        if kept_order.width != width:
            raise InputError("kept order width mismatch")
        return TermOrder("block", _check_ranking(width, None),
                         tiebreak=kept_order, dropped=dr)

    # -- behaviour ----------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.ranking)

    @property
    def is_global(self) -> bool:
        """True if 1 is the minimal monomial (a well-order)."""
        if self.kind == "weight":
            return all(w >= 0 for w in self.weights) and self.tiebreak.is_global
        return True

    def key(self, m: Monomial):
        """Sort key; bigger key means bigger monomial."""
        kind = self.kind
        if kind == "grevlex":
            return (sum(m), tuple(-m[v] for v in self.ranking))
        if kind == "lex":
            return tuple(m[v] for v in reversed(self.ranking))
        if kind == "weight":
            w = sum(wi * e for wi, e in zip(self.weights, m))
            return (w, self.tiebreak.key(m))
        if kind == "block":
            dropped = self.dropped
            dropdeg = sum(m[v] for v in dropped)
            kept = tuple(0 if v in dropped else e for v, e in enumerate(m))
            return ((dropdeg, tuple(-m[v] for v in dropped)), self.tiebreak.key(kept))
        raise InputError(f"unknown term order kind {kind!r}")

    @cached_property
    def packed_key(self) -> Callable[[int], int]:
        """Sort key of packed monomials: ``packed_key(p)`` is an int, and
        ints order as ``key(unpack(p, width))`` does.

        Fields are read whole, up to FIELD_MAX, so a product whose exponent
        overflowed into its guard bit still compares exactly until it leads
        and is checked.
        """
        return _packed_key(self)[0]

    def __getstate__(self) -> dict:
        # the packed_key closure cannot be pickled; it is rebuilt on first use
        state = dict(self.__dict__)
        state.pop("packed_key", None)
        return state

    def compare(self, a: Monomial, b: Monomial) -> str:
        """Return 'LT', 'EQ' or 'GT' for a versus b."""
        if len(a) != self.width or len(b) != self.width:
            raise InputError("monomial width does not match order width")
        if a == b:
            return "EQ"
        return "GT" if self.key(a) > self.key(b) else "LT"

    def descriptor(self) -> dict:
        """JSON-ready description (stable field order)."""
        d: dict = {"kind": self.kind, "ranking": list(self.ranking)}
        if self.weights is not None:
            d["weights"] = [str(w) for w in self.weights]
        if self.dropped is not None:
            d["dropped"] = list(self.dropped)
        return d


def _check_ranking(width: int, ranking: Iterable[int] | None) -> tuple[int, ...]:
    if ranking is None:
        return tuple(range(width))
    rk = tuple(ranking)
    if sorted(rk) != list(range(width)):
        raise InputError(f"ranking must be a permutation of 0..{width - 1}")
    return rk


def _fields(variables: Iterable[int]) -> Callable[[bytes], tuple[int, ...]]:
    """From the little-endian bytes of a packed monomial, the bytes of the
    fields of the given variables, big-endian, the first variable's first."""
    picks = [i for v in variables for i in (2 * v + 1, 2 * v)]
    return itemgetter(*picks) if picks else lambda b: ()


def _descending(vs: tuple[int, ...], width: int) -> Callable[[int], int]:
    """The int of (degree in vs, -m[vs[0]], -m[vs[1]], ...): the big-endian
    int of the fields FIELD_MAX - m[v] under the degree.

    When vs is one increasing run of fields (the identity ranking, and the
    dropped block of every elimination here) and each of its fields is below
    256, the int is read off the packed one: q, the run's fields, sums to
    q % 65535, and its little-endian bytes read big-endian hold the fields
    in reverse, each shifted up by one byte.  Any other monomial or ranking
    takes the fields byte by byte.  Both give the same int.
    """
    nbytes = 2 * width
    fields = _fields(vs)
    run = len(vs)
    shift = FIELD_BITS * run

    def by_bytes(p: int) -> int:
        b = bytes(fields(p.to_bytes(nbytes, "little")))
        deg = (sum(b[::2]) << 8) + sum(b[1::2])
        return ((deg + 1) << shift) - 1 - int.from_bytes(b, "big")

    if not vs or vs != tuple(range(vs[0], vs[0] + run)) or run > 256:
        return by_bytes
    low, mask = FIELD_BITS * vs[0], (1 << shift) - 1
    high = _HIGH_BYTES & mask
    nrun = 2 * run

    def from_int(p: int) -> int:
        q = (p >> low) & mask
        if q & high:
            return by_bytes(p)
        return (((q % 65535 + 1) << shift) - 1
                - (int.from_bytes(q.to_bytes(nrun, "little"), "big") >> 8))

    return from_int


def _packed_key(order: TermOrder) -> tuple[Callable[[int], int], int]:
    """The packed key of an order and a bit length that bounds it.

    A descending-field tuple ``(-m[v] for v in vs)`` becomes the big-endian
    int of the fields ``FIELD_MAX - m[v]`` (``_descending``); a pair of keys
    becomes ``(first << bits(second)) + second`` with both parts
    nonnegative.
    """
    width, kind = order.width, order.kind
    nbytes = 2 * width
    if kind in ("grevlex", "block"):
        vs = order.ranking if kind == "grevlex" else order.dropped
        descending = _descending(vs, width)
        bits = FIELD_BITS * len(vs) + (len(vs) * FIELD_MAX).bit_length()
        if kind == "grevlex":
            return descending, bits
        tie, tie_bits = _packed_key(order.tiebreak)
        keep = sum(FIELD_MAX << (FIELD_BITS * v)
                   for v in range(width) if v not in vs)
        return (lambda p: (descending(p) << tie_bits) + tie(p & keep),
                bits + tie_bits)
    if kind == "lex":
        fields = _fields(reversed(order.ranking))
        return (lambda p: int.from_bytes(
            bytes(fields(p.to_bytes(nbytes, "little"))), "big"),
            FIELD_BITS * width)
    if kind == "weight":
        scale = lcm(*(w.denominator for w in order.weights))
        w = [int(x * scale) for x in order.weights]
        least = FIELD_MAX * sum(x for x in w if x < 0)
        span = FIELD_MAX * sum(abs(x) for x in w)
        tie, tie_bits = _packed_key(order.tiebreak)

        def weighted(p: int) -> int:
            b = p.to_bytes(nbytes, "little")
            total = sum(map(mul, w, b[::2])) + (sum(map(mul, w, b[1::2])) << 8)
            return ((total - least) << tie_bits) + tie(p)

        return weighted, span.bit_length() + tie_bits
    raise InputError(f"unknown term order kind {kind!r}")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _exact(c) -> Fraction:
    """c as a Fraction; a float is an InputError, since Fraction(0.1) is the
    binary value of the float, not 1/10."""
    if isinstance(c, float):
        raise InputError(f"inexact coefficient {c!r}: give an int, a Fraction "
                         f"or a string such as '1/10'")
    return Fraction(c)


class Polynomial:
    """An exact multivariate polynomial: {monomial: nonzero Fraction}.

    Instances are immutable by convention; arithmetic returns new objects.
    """

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: Mapping[Monomial, Fraction] | None = None):
        self.width = width
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                if len(mono) != width:
                    raise InputError("term width mismatch")
                c = _exact(c)
                if c:
                    clean[mono] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(width: int) -> "Polynomial":
        return Polynomial(width)

    @staticmethod
    def constant(width: int, c: Fraction | int) -> "Polynomial":
        return Polynomial(width, {mono_one(width): c})

    @staticmethod
    def monomial(mono: Monomial, coeff: Fraction | int = 1) -> "Polynomial":
        return Polynomial(len(mono), {mono: coeff})

    @staticmethod
    def variable(width: int, index: int) -> "Polynomial":
        return Polynomial.monomial(unit_mono(width, index))

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((mono_degree(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def is_binomial_pm1(self) -> bool:
        """True for u - v with unit coefficients (toric generator shape)."""
        if len(self.terms) != 2:
            return False
        return sorted(self.terms.values()) == [Fraction(-1), Fraction(1)]

    def leading(self, order: TermOrder) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise InputError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    # -- arithmetic ----------------------------------------------------------

    def _require_same_width(self, other: "Polynomial") -> None:
        if self.width != other.width:
            raise InputError("polynomial width mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.width == other.width
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.width, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_width(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _raw(self.width, out)

    def __neg__(self) -> "Polynomial":
        return _raw(self.width, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_width(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _raw(self.width, out)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._require_same_width(other)
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    s = out.get(m, Fraction(0)) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return _raw(self.width, out)
        c = _exact(other)
        if not c:
            return Polynomial.zero(self.width)
        return _raw(self.width, {m: c * v for m, v in self.terms.items()})

    __rmul__ = __mul__

    def mul_term(self, mono: Monomial, coeff: Fraction) -> "Polynomial":
        coeff = _exact(coeff)
        if not coeff:
            return Polynomial.zero(self.width)
        return _raw(self.width,
                    {mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise InputError("negative power")
        out = Polynomial.constant(self.width, 1)
        for _ in range(e):
            out = out * self
        return out

    def monic(self, order: TermOrder) -> "Polynomial":
        _, lc = self.leading(order)
        return self * (1 / lc)

    def evaluate(self, point: Iterable[Fraction]) -> Fraction:
        pt = list(point)
        if len(pt) != self.width:
            raise InputError("evaluation point width mismatch")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if e:
                    v *= x ** e
            total += v
        return total

    def project(self, keep: Iterable[int]) -> "Polynomial":
        """Re-express in the sub-ring on ``keep`` (all other exponents must be 0)."""
        keep = tuple(keep)
        out: dict[Monomial, Fraction] = {}
        dropped = set(range(self.width)) - set(keep)
        for m, c in self.terms.items():
            if any(m[v] for v in dropped):
                raise InputError("term involves a dropped variable")
            out[tuple(m[v] for v in keep)] = c
        return _raw(len(keep), out)

    # -- text and JSON -------------------------------------------------------

    def to_str(self, labels: Iterable[str], order: TermOrder | None = None) -> str:
        labels = tuple(labels)
        if not self.terms:
            return "0"
        order = order or TermOrder.grevlex(self.width)
        parts = []
        for m in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[m]
            factors = [f"{labels[v]}^{e}" if e > 1 else labels[v]
                       for v, e in enumerate(m) if e]
            mag = abs(c)
            body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_json(self) -> list[dict]:
        items = sorted(self.terms.items())
        return [{"coeff": str(c), "exps": list(m)} for m, c in items]

    @staticmethod
    def from_json(data: list[dict], width: int) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for item in data:
            mono = tuple(item["exps"])
            c = item["coeff"]
            terms[mono] = Fraction(c) if isinstance(c, str) else c
        return Polynomial(width, terms)

    def __repr__(self):
        return f"Polynomial(width={self.width}, terms={len(self.terms)})"


def _raw(width: int, terms: dict[Monomial, Fraction]) -> Polynomial:
    """Construct without re-validating (terms already clean)."""
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "width", width)
    object.__setattr__(p, "terms", terms)
    return p


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _number(text: str) -> Fraction:
    """A numeral token; a zero denominator and a numeral past Python's int
    conversion limit are input errors."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad number {text[:20]!r}: {exc}") from None


def parse_polynomial(text: str, labels: Iterable[str]) -> Polynomial:
    """Parse ``3*y_{1,2}^2*t - 1/2*x_3`` style text against known labels."""
    labels = tuple(labels)
    if "" in labels:
        raise InputError("variable labels must be nonempty")
    width = len(labels)
    by_label = {lab: i for i, lab in enumerate(labels)}
    # with no labels, a pattern that never matches
    label_re = "|".join(re.escape(lab) for lab in
                        sorted(labels, key=len, reverse=True)) or "(?!)"
    token_re = re.compile(rf"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<var>{label_re})"
                          rf"|(?P<op>[-+*^()]))")
    pos = 0
    tokens: list[tuple[str, str]] = []
    while pos < len(text):
        m = token_re.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise InputError(f"cannot tokenize polynomial at: {text[pos:]!r}")
        pos = m.end()
        for kind in ("num", "var", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break

    result = Polynomial.zero(width)
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        saw_sign = False
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if i >= n:
            if saw_sign:
                raise InputError("dangling sign in polynomial")
            break
        coeff = sign
        mono = [0] * width
        saw_factor = False
        while i < n:
            kind, val = tokens[i]
            if kind == "num":
                coeff *= _number(val)
                i += 1
            elif kind == "var":
                v = by_label[val]
                e = 1
                i += 1
                if i + 1 < n and tokens[i] == ("op", "^") and tokens[i + 1][0] == "num":
                    e = _number(tokens[i + 1][1])
                    if e.denominator != 1:
                        raise InputError(f"exponent {e} is not an integer")
                    i += 2
                mono[v] += int(e)
            else:
                break
            saw_factor = True
            if i < n and tokens[i] == ("op", "*"):
                i += 1
                continue
            break
        if not saw_factor:
            raise InputError("expected a term")
        result = result + Polynomial.monomial(tuple(mono), coeff)
    return result
