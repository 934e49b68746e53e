"""Sparse exact elimination: ranks and kernels against dense oracles, and
the characteristic that names the field."""

import heapq
import random
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulforge import linalg
from koszulforge.errors import InputError
from koszulforge.linalg import (Eliminator, check_characteristic, columns_rank,
                                to_field)


def dense_rank(rows, mod=None):
    """Fraction Gaussian elimination on dense row lists (oracle)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def sparse(vec):
    return {i: Fraction(x) for i, x in enumerate(vec) if x}


def test_rank_against_dense_oracle():
    rng = random.Random(42)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert columns_rank([sparse(r) for r in rows]) == dense_rank(rows)


def test_kernel_vectors_annihilate_columns():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        cols = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        sparse_cols = [sparse(c) for c in cols]
        kernel = Eliminator().kernel_of_columns(sparse_cols)
        # dimension check: n - rank
        assert len(kernel) == n - dense_rank([list(c) for c in zip(*cols)]) \
            if cols and any(any(c) for c in cols) else True
        for vec in kernel:
            combo = [Fraction(0)] * m
            for j, c in vec.items():
                for i, x in enumerate(cols[j]):
                    combo[i] += c * x
            assert all(x == 0 for x in combo)
            assert vec  # kernel vectors are nonzero


@pytest.mark.parametrize("p", [0, 7])
def test_kernel_vectors_leave_the_columns_unmodified(p):
    cols = [{0: 1, 1: Fraction(1, 2)}, {0: 2, 1: 1}, {1: 3}, {}, {0: -4, 2: 5}]
    if p:
        cols = [{i: to_field(x, p) for i, x in c.items()} for c in cols]
    copies = [dict(c) for c in cols]
    kernel = Eliminator(p).kernel_of_columns(cols)
    assert len(kernel) == 2
    assert cols == copies


def test_insert_reports_rank_growth():
    elim = Eliminator()
    assert elim.insert(sparse([1, 0, 1]))
    assert elim.insert(sparse([0, 1, 0]))
    assert not elim.insert(sparse([1, 1, 1]))
    assert elim.rank == 2


def test_reduce_handles_pivot_chains():
    # rows whose eliminations cascade into later pivot positions
    elim = Eliminator()
    elim.insert(sparse([1, 1, 0, 0]))
    elim.insert(sparse([0, 1, 1, 0]))
    elim.insert(sparse([0, 0, 1, 1]))
    residual = elim.reduce(sparse([1, 0, 0, 0]))
    assert set(residual) == {3}
    assert not elim.reduce(sparse([1, 0, -1, 0]))  # r1 - r2, in the span


def test_prime_field_elimination_matches_rationals():
    rng = random.Random(3)
    p = 32003
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rq = columns_rank([sparse(r) for r in rows])
        rp = columns_rank([{i: to_field(Fraction(x), p)
                            for i, x in enumerate(r) if x} for r in rows], p)
        assert rq == rp  # entries are tiny, no accidental p-divisibility


@st.composite
def small_matrices(draw):
    """Up to 5 x 5: all ints, or ints and Fractions mixed."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = (st.integers(-2, 2) if draw(st.booleans()) else
             st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3),
                                            st.integers(1, 4)))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@given(small_matrices())
@settings(max_examples=200, deadline=None)
def test_fraction_free_elimination(rows):
    m = len(rows)
    cols = [{i: x for i, x in enumerate(c) if x} for c in zip(*rows)]
    elim = Eliminator()
    kernel = elim.kernel_of_columns(cols)
    rank = dense_rank(rows)
    assert elim.rank == rank == columns_rank([sparse(r) for r in rows])
    assert len(kernel) == len(cols) - rank
    for vec in kernel:
        assert all(type(v) is int for v in vec.values())
        combo = [Fraction(0)] * m
        for j, c in vec.items():
            for i, x in cols[j].items():
                combo[i] += c * x
        assert not any(combo)
    for head, row in elim.pivots.items():
        assert head == min(row) and row[head] > 0
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
    if all(type(x) is int for r in rows for x in r):
        # int entries in [-3, 3] bound every minor of a 5 x 5 matrix by
        # 48 * 3**5 < 32003 (Hadamard), so no nonzero minor vanishes mod p
        p = 32003
        assert columns_rank([{i: x % p for i, x in enumerate(r) if x}
                             for r in rows], p) == rank
        gf = Eliminator(p)
        gf.kernel_of_columns([{i: x % p for i, x in c.items()} for c in cols])
        assert all(row[head] == 1 for head, row in gf.pivots.items())


class SetIntersectionEliminator(Eliminator):
    """The elimination loop before pivots came from a heap: each step finds
    the smallest pivot position present by intersecting key sets, and a
    kernel column's head is its least entry below the augmented block."""

    def reduce(self, vec):
        p = self.characteristic
        if p:
            out = dict(vec)
        else:
            den = lcm(*(Fraction(v).denominator for v in vec.values()))
            out = {k: int(v * den) for k, v in vec.items()}
        piv = self.pivots
        while True:
            common = piv.keys() & out.keys()
            if not common:
                break
            head = min(common)
            row = piv[head]
            c = out.pop(head)
            a = row[head]
            if a != 1:
                g = gcd(a, c)
                a //= g
                c //= g
                if a != 1:
                    for k in out:
                        out[k] *= a
            for k, v in row.items():
                if k == head:
                    continue
                s = out.get(k, 0) - c * v
                if p:
                    s %= p
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        if not p and out:
            g = gcd(*out.values())
            if g != 1:
                out = {k: v // g for k, v in out.items()}
        return out

    def kernel_vectors(self, columns):
        offset = 1 + max((max(c) for c in columns if c), default=0)
        for j, col in enumerate(columns):
            aug = dict(col)
            aug[offset + j] = 1
            residual = self.reduce(aug)
            head = [k for k in residual if k < offset]
            if head:
                self._add_pivot(min(head), residual)
            else:
                yield {k - offset: v for k, v in residual.items()}


@st.composite
def elimination_runs(draw):
    """A field, vectors to insert and vectors to reduce: up to 4 entries on
    at most 8 positions, so that pivot chains cascade and positions cancel
    and come back; over Q ints and Fractions mixed."""
    p = draw(st.sampled_from([0, 32003]))
    small = st.integers(-3, 3).filter(bool)
    if p:
        entry = small.map(lambda x: x % p)
    else:
        entry = small | st.builds(Fraction, small, st.integers(1, 4))
    size = draw(st.integers(2, 8))
    vectors = st.lists(st.dictionaries(st.integers(0, size - 1), entry,
                                       min_size=1, max_size=4),
                       min_size=1, max_size=12)
    return p, draw(vectors), draw(vectors)


@given(elimination_runs())
@settings(max_examples=300, deadline=None)
def test_heap_eliminates_as_the_set_intersection_loop(run):
    p, inserted, probes = run
    heap, old = Eliminator(p), SetIntersectionEliminator(p)
    for vec in inserted:
        assert heap.insert(vec) == old.insert(vec)
        assert heap.pivots == old.pivots
    for vec in probes + inserted:
        residual = heap.reduce(vec)
        assert residual == old.reduce(vec)
        assert all(type(v) is int for v in residual.values())
    heap, old = Eliminator(p), SetIntersectionEliminator(p)
    assert (list(heap.kernel_vectors(inserted))
            == list(old.kernel_vectors(inserted)))
    assert heap.pivots == old.pivots


@pytest.mark.parametrize("p", [0, 32003])
def test_a_position_cancelled_and_recreated_is_eliminated_once(p, monkeypatch):
    # eliminating 0 cancels 2 and creates 1; eliminating 1 creates 2 again,
    # which is pushed a second time; the stale entry is skipped
    pushed = []
    monkeypatch.setattr(linalg, "heappush",
                        lambda heap, k: (pushed.append(k),
                                         heapq.heappush(heap, k)))
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1, 3: 1}, {2: 1, 4: 1}]
    heap, old = Eliminator(p), SetIntersectionEliminator(p)
    for row in rows:
        heap.insert(row)
        old.insert(row)
    residual = heap.reduce({0: 1, 2: 1})
    assert residual == old.reduce({0: 1, 2: 1})
    assert residual == ({3: 1, 4: p - 1} if p else {3: 1, 4: -1})
    assert pushed == [1, 2]


def test_rational_elimination_never_yields_floats():
    # integer input over Q: int / int would be a float, so every value must
    # stay an int or a Fraction
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        cols = [{i: x for i in range(m) if (x := rng.randint(-3, 3))}
                for _ in range(n)]
        elim = Eliminator()
        kernel = elim.kernel_of_columns(cols)
        values = [v for row in elim.pivots.values() for v in row.values()]
        values += [v for vec in kernel for v in vec.values()]
        assert all(type(v) in (int, Fraction) for v in values)


@pytest.mark.parametrize("p", [6, -3, 1, 32001,
                               # pseudoprimes to some Miller-Rabin bases; the
                               # last is strong to every base up to 23
                               561, 2047, 3215031751, 3825123056546413051,
                               # at and above the Miller-Rabin bound: refused
                               3317044064679887385961981,
                               3317044064679887385962123,
                               2 * 3317044064679887385961981])
def test_bad_characteristic_is_rejected(p):
    with pytest.raises(InputError):
        check_characteristic(p)
    with pytest.raises(InputError):
        Eliminator(p)


def test_good_characteristic_is_kept():
    assert [check_characteristic(p) for p in (0, 2, 7, 32003)] == [0, 2, 7, 32003]


def test_large_primes_are_accepted_quickly():
    primes = (2 ** 61 - 1, 2 ** 64 - 59, 10 ** 14 + 31)
    start = time.perf_counter()
    assert [check_characteristic(p) for p in primes] == list(primes)
    # trial division needs over a second for 10**14 + 31 alone
    assert time.perf_counter() - start < 0.1


def test_primality_agrees_with_trial_division():
    for p in range(-5, 20000):
        prime = p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))
        try:
            check_characteristic(p)
            kept = True
        except InputError:
            kept = False
        assert kept == (prime or p == 0), p


def test_to_field_maps_rationals_into_gf_p():
    assert to_field(Fraction(1, 2), 7) == 4
    assert to_field(-3, 7) == 4
    assert to_field(Fraction(2, 3), 0) == Fraction(2, 3)


def test_to_field_rejects_denominator_divisible_by_p():
    with pytest.raises(InputError):
        to_field(Fraction(1, 14), 7)
