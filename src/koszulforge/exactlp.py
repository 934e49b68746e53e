"""Exact feasibility of strict homogeneous inequality systems.

Given integer vectors d_1..d_r, decide whether some rational w satisfies
w . d_i > 0 for all i.  By homogeneity this is equivalent to the phase-1
linear program for {w . d_i >= 1}, solved with a dense simplex tableau
(Bland's rule, so no cycling).  The tableau is kept fraction-free: integer
rows over one common positive denominator, the last pivot, updated by
Bareiss' integer-preserving elimination, whose divisions are exact by
Sylvester's identity.  Both answers are re-verified by integer dot products
before they are returned: a witness against every constraint, and an
infeasibility against Gordan's alternative, read from the objective row as
multipliers lambda >= 0, lambda != 0 with sum_i lambda_i d_i = 0.
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
    # The tableau is rows / den, with den > 0 the last pivot.
    width = 2 * n + r
    rows: list[list[int]] = []
    for i, d in enumerate(diffs):
        row = list(d) + [-x for x in d] + [0] * r
        row[2 * n + i] = -1
        row.append(1)  # rhs
        rows.append(row)
    basis = [width + i for i in range(r)]  # artificial indices (virtual)
    den = 1

    # phase-1 objective: minimize the artificial sum; its row is the sum of
    # all constraint rows (cost of the artificials pivots away with them)
    obj = [sum(row[j] for row in rows) for j in range(width + 1)]

    while True:
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(r):
            a = rows[i][enter]
            if a > 0:
                # ratio rhs_i / a against the best so far, cross-multiplied
                if leave is None:
                    leave = i
                    continue
                lhs = rows[i][width] * rows[leave][enter]
                rhs = rows[leave][width] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # unbounded improvement cannot happen in phase 1
            raise ArithmeticError("phase-1 simplex lost boundedness")
        den = _pivot(rows, obj, basis, den, leave, enter)

    if obj[width] != 0:
        # optimum > 0: some artificial stuck, system infeasible.  The slack
        # reduced costs are the dual solution, scaled by den.
        lam = [-x for x in obj[2 * n:width]]
        combo = [sum(l * d[k] for l, d in zip(lam, diffs)) for k in range(n)]
        if min(lam) < 0 or not any(lam) or any(combo):
            raise AssertionError("simplex multipliers do not certify "
                                 "infeasibility")
        return None

    w = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            w[b] += Fraction(rows[i][width], den)
        elif b < 2 * n:
            w[b - n] -= Fraction(rows[i][width], den)
    lcm = 1
    for x in w:
        lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
    wi = [int(x * lcm) for x in w]
    if not all(sum(wi[k] * d[k] for k in range(n)) > 0 for d in diffs):
        raise AssertionError("simplex witness violates a strict inequality")
    return tuple(wi)


def _pivot(rows, obj, basis, den, leave, enter) -> int:
    """Bareiss pivot on rows[leave][enter]; returns the new denominator."""
    prow = rows[leave]
    p = prow[enter]
    cols = range(len(prow))
    for row in rows + [obj]:
        if row is prow:
            continue
        c = row[enter]
        if c:
            for j in cols:
                row[j] = (p * row[j] - c * prow[j]) // den
        else:
            for j in cols:
                row[j] = p * row[j] // den
    basis[leave] = enter
    return p


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
