"""Sparse exact Gaussian elimination over Q or a prime field.

The field is named by its characteristic: 0 is Q, whose elements are ints
and Fractions, and a prime p is GF(p), whose elements are ints in [0, p).
Vectors are dicts {index: nonzero coefficient}.  The Eliminator keeps a set
of normalized pivot rows and supports incremental rank queries and kernel
extraction via augmented columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InputError


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def check_characteristic(p: int) -> int:
    """p, if it is 0 or a prime; InputError otherwise."""
    if p != 0 and not _is_prime(p):
        raise InputError(f"characteristic must be 0 or a prime, got {p}")
    return p


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p >= _MR_BOUND:
        return all(p % q for q in range(2, isqrt(p) + 1))
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
        """Eliminate all known pivots from a copy of vec.

        Always eliminates the smallest pivot position present; since a pivot
        row only touches positions at or above its own pivot, eliminated
        positions never reappear and the loop terminates.
        """
        p = self.characteristic
        out = dict(vec)
        piv = self.pivots
        while True:
            common = piv.keys() & out.keys()
            if not common:
                return out
            head = min(common)
            c = out.pop(head)
            for k, v in piv[head].items():
                if k == head:
                    continue
                s = out.get(k, 0) - c * v
                if p:
                    s %= p
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)

    def _add_pivot(self, head: int, residual: dict) -> None:
        """Store residual scaled so that its entry at head is 1."""
        p = self.characteristic
        if p:
            inv = pow(residual[head], -1, p)
            self.pivots[head] = {k: inv * v % p for k, v in residual.items()}
        else:
            inv = Fraction(1) / residual[head]
            self.pivots[head] = {k: inv * v for k, v in residual.items()}

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
        one per kernel dimension.  Requires fresh state.
        """
        if self.pivots:
            raise ValueError("kernel_of_columns needs a fresh Eliminator")
        offset = 1 + max((max(c) for c in columns if c), default=0)
        kernel = []
        for j, col in enumerate(columns):
            aug = dict(col)
            aug[offset + j] = 1
            residual = self.reduce(aug)
            head = [k for k in residual if k < offset]
            if head:
                self._add_pivot(min(head), residual)
            else:
                kernel.append({k - offset: v for k, v in residual.items()})
        return kernel


def columns_rank(columns: list[dict], characteristic: int = 0) -> int:
    elim = Eliminator(characteristic)
    for col in columns:
        elim.insert(col)
    return elim.rank
