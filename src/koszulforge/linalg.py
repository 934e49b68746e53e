"""Sparse exact Gaussian elimination over Q or a prime field.

The field is named by its characteristic: 0 is Q, whose elements are ints
and Fractions, and a prime p is GF(p), whose elements are ints in [0, p).
Vectors are dicts {index: nonzero coefficient}.  The Eliminator keeps a set
of pivot rows and supports incremental rank queries and kernel extraction
via augmented columns.  All its arithmetic is on ints: over Q a pivot row is
a primitive int row (content 1) with a positive head, and reduction is
fraction-free (denominators are cleared once on entry, the content divided
out at the end); over GF(p) a pivot row has head 1 and entries in [0, p).
Reduction clears the smallest pivot position present first, popped from a
heap of the pivot positions the vector holds or gains (BENCH_22.json).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import InputError


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, 2015); a characteristic at or above it is refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def check_characteristic(p: int) -> int:
    """p, if it is 0 or a prime below _MR_BOUND; InputError otherwise."""
    if p >= _MR_BOUND:
        raise InputError(f"characteristic must be below {_MR_BOUND}, got {p}")
    if p != 0 and not _is_prime(p):
        raise InputError(f"characteristic must be 0 or a prime, got {p}")
    return p


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def to_field(x: Fraction | int, p: int) -> Fraction | int:
    """The rational x as an element of the field of characteristic p."""
    if not p:
        return x
    den = x.denominator
    if den % p == 0:
        raise InputError(f"denominator {den} not invertible mod {p}")
    return x.numerator * pow(den, -1, p) % p


class Eliminator:
    """Incremental row-reduction: feed vectors, track pivots and rank."""

    def __init__(self, characteristic: int = 0):
        self.characteristic = check_characteristic(characteristic)
        self.pivots: dict[int, dict] = {}  # pivot index -> normalized row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Eliminate all known pivots from a copy of vec; over Q the result
        is the residual up to a nonzero rational factor, a primitive int
        vector.

        Always eliminates the smallest pivot position present; since a pivot
        row only touches positions above its own pivot, eliminated positions
        never reappear and the loop terminates.  The pivot positions present
        wait in a heap: those of vec at the start, and each one a pivot row
        creates as it is pushed; a position cancelled before its turn is
        skipped when it is popped.  Against a pivot row with head a, an
        entry c is cleared as (a/g)*out - (c/g)*row with g = gcd(a, c); over
        GF(p) every head is 1, so only the subtraction remains.
        """
        out = vec if self.characteristic else _integral(vec)
        return self._reduce(dict(out) if out is vec else out)

    def _reduce(self, out: dict) -> dict:
        """reduce, in place on a vector of the caller's own, with int
        entries over Q."""
        p = self.characteristic
        piv = self.pivots
        heads = [k for k in out if k in piv]
        heapify(heads)
        while heads:
            head = heappop(heads)
            c = out.pop(head, 0)
            if not c:
                continue
            row = piv[head]
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
                s = out.get(k)
                if s is None:
                    # a product of two nonzero field elements: nonzero
                    out[k] = -c * v % p if p else -c * v
                    if k in piv:
                        heappush(heads, k)
                    continue
                s -= c * v
                if p:
                    s %= p
                if s:
                    out[k] = s
                else:
                    del out[k]
        if not p and out:
            g = gcd(*out.values())
            if g != 1:
                out = {k: v // g for k, v in out.items()}
        return out

    def _add_pivot(self, head: int, residual: dict) -> None:
        """Store a reduced residual as the pivot row at head: over GF(p)
        scaled so that its head is 1, over Q as the primitive int row with
        a positive head."""
        p = self.characteristic
        if p:
            inv = pow(residual[head], -1, p)
            self.pivots[head] = {k: inv * v % p for k, v in residual.items()}
        elif residual[head] < 0:
            self.pivots[head] = {k: -v for k, v in residual.items()}
        else:
            self.pivots[head] = residual

    def insert(self, vec: dict) -> bool:
        """Add a vector to the span; True if it increased the rank."""
        residual = self.reduce(vec)
        if not residual:
            return False
        self._add_pivot(min(residual), residual)
        return True

    def kernel_of_columns(self, columns: list[dict]) -> list[dict]:
        """Kernel of the matrix whose j-th column is columns[j].

        Returns coefficient vectors {j: c} with sum_j c * columns[j] = 0,
        one per kernel dimension; the largest index of the vector found at
        column j is j itself.  Over Q the vectors are primitive int vectors.
        Requires fresh state.
        """
        return list(self.kernel_vectors(columns))

    def kernel_vectors(self, columns: list[dict]):
        """The vectors of kernel_of_columns, yielded as they are found, so
        that a caller can stop at the first one."""
        if self.pivots:
            raise ValueError("kernel_of_columns needs a fresh Eliminator")
        p = self.characteristic
        offset = 1 + max((max(c) for c in columns if c), default=0)
        for j, col in enumerate(columns):
            aug = dict(col)
            aug[offset + j] = 1
            residual = self._reduce(aug if p else _integral(aug))
            # the augmented entry offset + j survives, so residual is not
            # empty, and it is a kernel vector iff no column entry is left
            head = min(residual)
            if head < offset:
                self._add_pivot(head, residual)
            else:
                yield {k - offset: v for k, v in residual.items()}


def _integral(vec: dict) -> dict:
    """vec times the lcm of its denominators, with int entries: vec itself
    when they are ints already."""
    for v in vec.values():
        if type(v) is not int:
            break
    else:
        return vec
    den = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in vec.items()}


def columns_rank(columns: list[dict], characteristic: int = 0) -> int:
    elim = Eliminator(characteristic)
    for col in columns:
        elim.insert(col)
    return elim.rank
