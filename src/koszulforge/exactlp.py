"""Exact rational feasibility of strict homogeneous inequality systems.

Given integer vectors d_1..d_r, decide whether some rational w satisfies
w . d_i > 0 for all i.  By homogeneity this is equivalent to the phase-1
linear program for {w . d_i >= 1}, solved with a dense simplex tableau over
exact rationals (Bland's rule, so no cycling).  A returned witness is always
re-verified against every constraint in exact arithmetic by the caller.
"""

from __future__ import annotations

from fractions import Fraction


def feasible_strict(diffs: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """An integer witness w with w . d > 0 for every d, or None.

    The empty system is feasible with the all-ones witness.
    """
    diffs = list(diffs)
    if not diffs:
        # width is unknowable here; callers treat the empty system as
        # feasible with their own all-ones default
        raise ValueError("empty system: handle upstream")
    n = len(diffs[0])
    if any(len(d) != n for d in diffs):
        raise ValueError("difference vectors must share one width")
    if any(all(x == 0 for x in d) for d in diffs):
        return None  # zero vector: no strict solution
    r = len(diffs)

    # columns: w+ (n), w- (n), slack (r); artificial basis is implicit.
    # rows: d.w+ - d.w- - s_i = 1  with rhs 1 >= 0.
    width = 2 * n + r
    rows: list[list[Fraction]] = []
    for i, d in enumerate(diffs):
        row = [Fraction(x) for x in d] + [Fraction(-x) for x in d] \
            + [Fraction(0)] * r
        row[2 * n + i] = Fraction(-1)
        row.append(Fraction(1))  # rhs
        rows.append(row)
    basis = [width + i for i in range(r)]  # artificial indices (virtual)

    # phase-1 objective: minimize the artificial sum; its row is the sum of
    # all constraint rows (cost of the artificials pivots away with them)
    obj = [sum(row[j] for row in rows) for j in range(width + 1)]

    while True:
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            break
        ratio_best = None
        leave = None
        for i in range(r):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][width] / a
                if (ratio_best is None or ratio < ratio_best
                        or (ratio == ratio_best and basis[i] < basis[leave])):
                    ratio_best = ratio
                    leave = i
        if leave is None:
            # unbounded improvement cannot happen in phase 1
            raise ArithmeticError("phase-1 simplex lost boundedness")
        _pivot(rows, obj, basis, leave, enter, width)

    if obj[width] != 0:
        return None  # optimum > 0: some artificial stuck, system infeasible

    w = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            w[b] += rows[i][width]
        elif b < 2 * n:
            w[b - n] -= rows[i][width]
    lcm = 1
    for x in w:
        lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
    wi = [int(x * lcm) for x in w]
    if not all(sum(wi[k] * d[k] for k in range(n)) > 0 for d in diffs):
        raise AssertionError("simplex witness violates a strict inequality")
    return tuple(wi)


def _pivot(rows, obj, basis, leave, enter, width):
    prow = rows[leave]
    inv = 1 / prow[enter]
    for j in range(width + 1):
        prow[j] *= inv
    for row in rows:
        if row is prow:
            continue
        c = row[enter]
        if c:
            for j in range(width + 1):
                row[j] -= c * prow[j]
    c = obj[enter]
    if c:
        for j in range(width + 1):
            obj[j] -= c * prow[j]
    basis[leave] = enter


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def nonnegative_shift(w: tuple[int, ...]) -> tuple[int, ...]:
    """Shift a weight vector by a constant to make it componentwise >= 0.

    Harmless for degree-homogeneous comparisons (the constraints there have
    coordinate sum zero) and required for the weight order to be global.
    """
    low = min(w)
    if low >= 0:
        return w
    return tuple(x - low for x in w)
