"""Exact feasibility of strict homogeneous inequality systems.

Given integer vectors d_1..d_r, decide whether some rational w satisfies
w . d_i > 0 for all i.  By homogeneity this is equivalent to the phase-1
linear program for {w . d_i >= 1} with w = w+ - w-, solved with a dense
simplex tableau (Bland's rule, so no cycling).  The tableau stores only the
w+ and slack columns: row operations keep every w- column equal to minus
its w+ column, so a w- column is read as the stored one times -1.  Each row,
the objective row included, is kept fraction-free as a primitive integer
vector, a positive multiple of its tableau row: a pivot replaces a row by
p * row - c * prow over the gcd of its entries.  Signs and ratio tests do
not depend on that scale, so the pivots are those of the rational tableau,
and a basic value is the row's rhs over its basic column.  Both answers are
re-verified by integer dot products before they are returned: a witness
against every constraint, and an infeasibility against Gordan's
alternative, read from the objective row as multipliers lambda >= 0,
lambda != 0 with sum_i lambda_i d_i = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def feasible_strict(diffs: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """An integer witness w with w . d > 0 for every d, or None.

    A zero vector makes the system infeasible.  The empty system raises
    ValueError: its width is unknown here, so callers decide it themselves.
    """
    diffs = list(diffs)
    if not diffs:
        raise ValueError("empty system: handle upstream")
    n = len(diffs[0])
    if any(len(d) != n for d in diffs):
        raise ValueError("difference vectors must share one width")
    if any(all(x == 0 for x in d) for d in diffs):
        return None  # zero vector: no strict solution
    r = len(diffs)

    # logical columns: w+ (n), w- (n), slack (r), and the implicit
    # artificial basis after them; stored columns: w+, slack, rhs.
    # rows: d.w+ - d.w- - s_i = 1  with rhs 1 >= 0.
    width = n + r
    rows: list[list[int]] = []
    for i, d in enumerate(diffs):
        row = list(d) + [0] * r + [1]
        row[n + i] = -1
        rows.append(row)
    basis = [2 * n + r + i for i in range(r)]  # artificial indices (virtual)

    # phase-1 objective: minimize the artificial sum; its row is the sum of
    # all constraint rows (cost of the artificials pivots away with them)
    obj = [sum(col) for col in zip(*rows)]

    while True:
        entering = _entering(obj, n)
        if entering is None:
            break
        enter, col, sign = entering
        leave = None
        for i, row in enumerate(rows):
            a = sign * row[col]
            if a > 0:
                # ratio rhs_i / a against the best so far, cross-multiplied
                if leave is None:
                    leave, best = i, a
                    continue
                lhs = row[width] * best
                rhs = rows[leave][width] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best = i, a
        if leave is None:
            # unbounded improvement cannot happen in phase 1
            raise ArithmeticError("phase-1 simplex lost boundedness")
        _pivot(rows, obj, leave, col, sign)
        basis[leave] = enter

    if obj[width] != 0:
        # optimum > 0: some artificial stuck, system infeasible.  The slack
        # reduced costs are the dual solution, up to a positive scale.
        lam = [-x for x in obj[n:width]]
        combo = [sum(l * d[k] for l, d in zip(lam, diffs)) for k in range(n)]
        if min(lam) < 0 or not any(lam) or any(combo):
            raise AssertionError("simplex multipliers do not certify "
                                 "infeasibility")
        return None

    # a basic w+_k adds rhs / row[k]; a basic w-_k, whose column is -row[k],
    # subtracts rhs / -row[k]: the same expression
    w = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < 2 * n:
            k = b % n
            w[k] += Fraction(row[width], row[k])
    scale = lcm(*(x.denominator for x in w))
    wi = [int(x * scale) for x in w]
    if not all(sum(wi[k] * d[k] for k in range(n)) > 0 for d in diffs):
        raise AssertionError("simplex witness violates a strict inequality")
    return tuple(wi)


def _entering(obj: list[int], n: int) -> tuple[int, int, int] | None:
    """Bland's rule: the least logical column with a positive reduced cost,
    as (logical index, stored column, sign), or None at the optimum.  The
    reduced cost of w-_k is -obj[k]."""
    for k in range(n):
        if obj[k] > 0:
            return k, k, 1
    for k in range(n):
        if obj[k] < 0:
            return n + k, k, -1
    for j in range(n, len(obj) - 1):
        if obj[j] > 0:
            return n + j, j, 1
    return None


def _pivot(rows, obj, leave, col, sign) -> None:
    """Pivot on rows[leave] at the stored column col times sign: every other
    row with a nonzero entry there becomes p * row - c * prow, divided by its
    gcd; rows with a zero entry are left as they are."""
    prow = rows[leave]
    p = sign * prow[col]
    for row in rows + [obj]:
        c = sign * row[col]
        if not c or row is prow:
            continue
        new = [p * a - c * b for a, b in zip(row, prow)]
        g = gcd(*new)
        if g > 1:
            new = [x // g for x in new]
        row[:] = new


def nonnegative_shift(w: tuple[int, ...]) -> tuple[int, ...]:
    """Shift a weight vector by a constant to make it componentwise >= 0.

    Harmless for degree-homogeneous comparisons (the constraints there have
    coordinate sum zero) and required for the weight order to be global.
    """
    low = min(w)
    if low >= 0:
        return w
    return tuple(x - low for x in w)
