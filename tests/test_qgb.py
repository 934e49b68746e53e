"""Marking enumeration, exact weight feasibility, quadratic-basis decisions."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import islice, product
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koszulforge
from koszulforge import qgb
from koszulforge.errors import InputError, ResourceCapError
from koszulforge.exactlp import feasible_strict, nonnegative_shift
from koszulforge.graphs import complete, cycle, parse_graph
from koszulforge.hilbert import (hilbert_series, monomial_numerator,
                                 poly1_series_coeffs)
from koszulforge.qgb import (Marking, cross_check_marking, decide_quadratic_gb,
                             series_test_for_marking)
from koszulforge.toric import (closed_form_generators, fiber_classes,
                               monomial_map, toric_ideal)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_single_vector_feasible():
    w = feasible_strict([(1, -1, 0)])
    assert w is not None
    assert sum(a * b for a, b in zip(w, (1, -1, 0))) > 0


def test_antisymmetric_pair_infeasible():
    assert feasible_strict([(1, -1, 0), (-1, 1, 0)]) is None


def test_empty_system_is_refused():
    # the width of an empty system is unknown to the LP; the marking walk
    # starts from the all-ones witness instead
    with pytest.raises(ValueError):
        feasible_strict([])


def test_zero_vector_infeasible():
    assert feasible_strict([(0, 0)]) is None


def test_witnesses_reverify_on_random_systems():
    import random
    rng = random.Random(11)
    for _ in range(50):
        diffs = [tuple(rng.randint(-2, 2) for _ in range(6)) for _ in range(8)]
        diffs = [d for d in diffs if any(d)]
        if not diffs:
            continue
        w = feasible_strict(diffs)
        if w is not None:
            assert all(sum(a * b for a, b in zip(w, d)) > 0 for d in diffs)


def test_feasibility_matches_brute_force_small():
    # oracle: search integer vectors in a small box
    import itertools
    import random
    rng = random.Random(5)
    box = list(itertools.product(range(-3, 4), repeat=3))
    for _ in range(40):
        diffs = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(4)]
        diffs = [d for d in diffs if any(d)]
        if not diffs:
            continue
        brute = any(all(sum(a * b for a, b in zip(w, d)) > 0 for d in diffs)
                    for w in box)
        got = feasible_strict(diffs) is not None
        # the box search can miss feasible witnesses outside the box but
        # never invents one
        if brute:
            assert got
        if not got:
            assert not brute


def test_infeasible_results_hold_against_brute_force():
    # systems shaped like markings: coordinate sums zero, so every None
    # comes out of the simplex with multipliers it has re-verified
    import itertools
    import random
    rng = random.Random(23)
    box = list(itertools.product(range(-3, 4), repeat=4))
    infeasible = 0
    for _ in range(150):
        diffs = []
        for _ in range(rng.randint(2, 6)):
            d = [rng.randint(-2, 2) for _ in range(3)]
            d.append(-sum(d))
            if any(d):
                diffs.append(tuple(d))
        if not diffs or feasible_strict(diffs) is not None:
            continue
        infeasible += 1
        assert not any(all(sum(a * b for a, b in zip(w, d)) > 0 for d in diffs)
                       for w in box)
    assert infeasible > 20


def test_paper_inequality_chain_is_infeasible():
    # the forced marking for the heptagon ring: both chains of inequalities,
    # ending in a cyclic contradiction
    mp = monomial_map(parse_graph("complement(cycle(7))"))
    idx = {lab: i for i, lab in enumerate(mp.source_labels)}
    w = mp.source_width

    def mono(*labels):
        m = [0] * w
        for lab in labels:
            m[idx[lab]] += 1
        return tuple(m)

    def diff(bigger, smaller):
        return tuple(a - b for a, b in zip(mono(*bigger), mono(*smaller)))

    chain = [
        diff(("y_{3}", "y_{1,2}"), ("y_{1}", "y_{2,3}")),
        diff(("y_{5}", "y_{3,4}"), ("y_{3}", "y_{4,5}")),
        diff(("y_{7}", "y_{5,6}"), ("y_{5}", "y_{6,7}")),
        diff(("y_{2}", "y_{1,7}"), ("y_{7}", "y_{1,2}")),
        diff(("y_{4}", "y_{2,3}"), ("y_{2}", "y_{3,4}")),
        diff(("y_{6}", "y_{4,5}"), ("y_{4}", "y_{5,6}")),
        diff(("y_{1}", "y_{6,7}"), ("y_{6}", "y_{1,7}")),
    ]
    assert feasible_strict(chain) is None
    # Gordan's certificate with every multiplier 1: the chain sums to zero
    assert not any(map(sum, zip(*chain)))
    # and the whole chain is needed: each six-inequality subset is feasible
    for k in range(len(chain)):
        assert feasible_strict(chain[:k] + chain[k + 1:]) is not None


def reference_feasible_strict(diffs):
    """The Bareiss simplex that exactlp replaced: the full tableau with
    explicit w- columns, over one common denominator, the last pivot.  Same
    Bland's rule and ratio ties, so it must return the same witness."""
    n, r = len(diffs[0]), len(diffs)
    if any(not any(d) for d in diffs):
        return None
    width = 2 * n + r
    rows = []
    for i, d in enumerate(diffs):
        row = list(d) + [-x for x in d] + [0] * r + [1]
        row[2 * n + i] = -1
        rows.append(row)
    basis = [width + i for i in range(r)]
    den = 1
    obj = [sum(row[j] for row in rows) for j in range(width + 1)]
    while True:
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(r):
            a = rows[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = rows[i][width] * rows[leave][enter]
                rhs = rows[leave][width] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        prow = rows[leave]
        p = prow[enter]
        for row in rows + [obj]:
            if row is not prow:
                c = row[enter]
                for j in range(width + 1):
                    row[j] = (p * row[j] - c * prow[j]) // den
        basis[leave] = enter
        den = p
    if obj[width] != 0:
        return None
    w = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            w[b] += Fraction(rows[i][width], den)
        elif b < 2 * n:
            w[b - n] -= Fraction(rows[i][width], den)
    scale = lcm(*(x.denominator for x in w))
    return tuple(int(x * scale) for x in w)


def _balance(d):
    """Move entries toward -3 or 3, first to last, until they sum to zero."""
    d = list(d)
    for i in range(len(d)):
        s = sum(d)
        d[i] -= min(s, d[i] + 3) if s > 0 else -min(-s, 3 - d[i])
    return tuple(d)


@st.composite
def lp_systems(draw):
    """Random strict systems: about half of the rows sum to zero, like fiber
    differences, and some systems hold a row together with its negation.
    The other rows face a hidden weight, so that most systems are feasible
    and their witnesses depend on every pivot."""
    n = draw(st.integers(min_value=1, max_value=7))
    entries = st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=n, max_size=n)
    hidden = draw(entries)
    diffs = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        d = tuple(draw(entries))
        if draw(st.booleans()):
            d = _balance(d)
        if sum(a * b for a, b in zip(hidden, d)) < 0:
            d = tuple(-x for x in d)
        diffs.append(d)
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        k = draw(st.integers(min_value=0, max_value=len(diffs) - 1))
        diffs.insert(k + 1, tuple(-x for x in diffs[k]))
    return diffs


# a feasible system whose witness depends on how ratio ties are broken
@example([(1, 0, 0, 0, 1, 0, -2), (3, 1, 0, 0, 1, -2, -3),
          (0, 1, 0, 0, 0, 0, 0)])
@given(lp_systems())
@settings(max_examples=400, deadline=None)
def test_feasible_strict_matches_the_bareiss_reference(diffs):
    assert feasible_strict(diffs) == reference_feasible_strict(diffs)


def test_nonnegative_shift_preserves_balanced_products():
    w = (-3, 1, 4)
    shifted = nonnegative_shift(w)
    assert min(shifted) >= 0
    d = (1, -2, 1)  # coordinates sum to zero
    assert sum(a * b for a, b in zip(w, d)) == \
        sum(a * b for a, b in zip(shifted, d))


# forge the witness where the check reads it: the lcm that exactlp scales
# the rational witness by (3w > 0 needs w = 1/3)
FORGED_WITNESSES = {
    "exactlp": "from koszulforge import exactlp\n"
               "exactlp.lcm = lambda *denominators: 1\n"
               "check = lambda: exactlp.feasible_strict([(3, 0)])",
}


# forge the Gordan multipliers of an infeasible system: after each real
# pivot, the last slack reduced cost of the objective row is off by one
FORGED_MULTIPLIERS = (
    "from koszulforge import exactlp\n"
    "pivot = exactlp._pivot\n"
    "def forged(rows, obj, *args):\n"
    "    pivot(rows, obj, *args)\n"
    "    obj[-2] -= 1\n"
    "exactlp._pivot = forged\n"
    "check = lambda: exactlp.feasible_strict([(1, 0), (-2, 0)])")


def _run_optimized(forge):
    code = forge + textwrap.dedent("""
        try:
            check()
        except AssertionError:
            raise SystemExit(0)
        raise SystemExit("forged witness accepted")
    """)
    src = str(Path(koszulforge.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("where", sorted(FORGED_WITNESSES))
def test_forged_witness_raises_under_optimize(where):
    done = _run_optimized(FORGED_WITNESSES[where])
    assert done.returncode == 0, done.stderr


def test_forged_multipliers_raise_under_optimize():
    done = _run_optimized(FORGED_MULTIPLIERS)
    assert done.returncode == 0, done.stderr


def test_width_mismatch():
    with pytest.raises(ValueError):
        feasible_strict([(1, 0), (1, 0, 0)])


# ---------------------------------------------------------------------------
# markings
# ---------------------------------------------------------------------------

def test_marking_difference_vectors():
    mp = monomial_map(cycle(4))
    fc = fiber_classes(mp, 2)
    marking = Marking(fc, tuple(0 for _ in fc.classes))
    diffs = marking.difference_vectors()
    assert len(diffs) == sum(len(c) - 1 for c in fc.classes)
    assert all(sum(d) == 0 for d in diffs)
    with pytest.raises(InputError):
        Marking(fc, (0,) * (fc.count + 1))


def test_marking_space_sizes():
    mp3 = monomial_map(parse_graph("complement(cycle(7))"))
    assert fiber_classes(mp3, 2).marking_space_size() == 16384
    mp5 = monomial_map(cycle(5))
    assert fiber_classes(mp5, 2).marking_space_size() == 1024


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_zero_ideal_trivially_quadratic():
    decision = decide_quadratic_gb(toric_ideal(monomial_map(complete(3))))
    assert decision.exists
    assert decision.total_markings == 1
    assert decision.quadratic_gb.elements == ()


def test_pentagon_has_quadratic_basis():
    ideal = toric_ideal(monomial_map(cycle(5)))
    decision = decide_quadratic_gb(ideal)
    assert decision.exists
    assert decision.quadratic_gb.is_quadratic
    assert decision.realizing_order.kind == "weight"
    # the witness marking is realized by the witness weights
    for d in decision.witness_marking.difference_vectors():
        assert sum(a * b for a, b in zip(decision.witness_weights, d)) > 0


def test_square_has_quadratic_basis():
    decision = decide_quadratic_gb(toric_ideal(monomial_map(cycle(4))))
    assert decision.exists


def test_decision_memoized_with_or_without_keywords():
    ideal = toric_ideal(monomial_map(cycle(4)))
    first = decide_quadratic_gb(ideal)
    misses = qgb._decide.cache_info().misses
    again = decide_quadratic_gb(toric_ideal(monomial_map(cycle(4))),
                                marking_cap=qgb.DEFAULT_MARKING_CAP,
                                spair_cap=qgb.DEFAULT_SPAIR_CAP)
    assert again is first
    assert qgb._decide.cache_info().misses == misses


def test_marking_cap_is_hard_failure():
    ideal = closed_form_generators("cbar", 3)
    with pytest.raises(ResourceCapError):
        decide_quadratic_gb(ideal, marking_cap=100)


def naive_decision(ideal):
    """Reference search: the LP on every full marking in product order, and
    the series test on each feasible one, up to the first match."""
    fc = fiber_classes(ideal.map, 2)
    target = hilbert_series(ideal.presentation).numerator
    tested = feasible = 0
    samples = []
    for minima in product(*(range(len(cls)) for cls in fc.classes)):
        tested += 1
        marking = Marking(fc, minima)
        if feasible_strict(marking.difference_vectors()) is None:
            continue
        feasible += 1
        samples.append(minima)
        if monomial_numerator(marking.nonminimal_members()) == target:
            return tested, feasible, minima, samples
    return tested, feasible, None, samples


@pytest.mark.parametrize("spec", ["cycle(5)", "paper:G4"])
def test_pruned_walk_matches_naive_enumeration(spec):
    ideal = toric_ideal(monomial_map(parse_graph(spec)))
    decision = decide_quadratic_gb(ideal)
    tested, feasible, witness, samples = naive_decision(ideal)
    assert decision.tested_markings == tested
    assert decision.feasible_markings == feasible
    assert decision.witness_marking.minima == witness
    assert [m.minima for m, _ in decision.feasible_samples] == samples
    # inherited witnesses still realize their markings
    for marking, w in decision.feasible_samples:
        assert all(sum(a * b for a, b in zip(w, d)) > 0
                   for d in marking.difference_vectors())


def degree3_count(marking):
    """The distinct products of the marking's non-minimal members with one
    variable: the degree-3 part of the ideal they generate."""
    gens = marking.nonminimal_members()
    width = len(marking.classes.classes[0][0])
    return len({tuple(e + (k == v) for k, e in enumerate(g))
                for g in gens for v in range(width)})


# cycle(5) and G4 have 240 and 960 feasible markings, all checked; G2 has
# 11568, whose walk alone takes about a minute, so it checks the first 500
# in product order, well past its witness, the 5th
@pytest.mark.parametrize("spec,limit", [("cycle(5)", None), ("paper:G2", 500),
                                        ("paper:G4", None)])
def test_degree3_count_rejects_only_wrong_numerators(spec, limit):
    # feasible markings past the first match: a marking whose cubic count
    # misses C(n+2, 3) - HF_R(3) has a numerator other than the target
    ideal = toric_ideal(monomial_map(parse_graph(spec)))
    fc = fiber_classes(ideal.map, 2)
    width = ideal.presentation.width
    target = hilbert_series(ideal.presentation).numerator
    cubics = comb(width + 2, 3) - poly1_series_coeffs(target, width, 3)[3]
    # the pruned walk yields the feasible markings of a plain enumeration
    # (test_pruned_walk_matches_naive_enumeration)
    feasible = (minima for minima, w, _ in qgb._walk(fc, width)
                if w is not None)
    rejected = matched = 0
    for minima in islice(feasible, limit):
        marking = Marking(fc, minima)
        gens = marking.nonminimal_members()
        if degree3_count(marking) != cubics:
            rejected += 1
            assert monomial_numerator(gens) != target
        else:
            matched += monomial_numerator(gens) == target
    assert rejected > 0 and matched > 0


def test_g4_decision_computes_one_leaf_numerator(monkeypatch):
    # the count rejects every feasible marking before the witness, so only
    # the witness has its numerator computed
    calls = []

    def counted(gens):
        calls.append(gens)
        return monomial_numerator(gens)

    qgb._decide.cache_clear()
    monkeypatch.setattr(qgb, "monomial_numerator", counted)
    decision = decide_quadratic_gb(
        toric_ideal(monomial_map(parse_graph("paper:G4"))))
    assert decision.exists
    assert len(calls) == 1


def test_cross_check_agrees_on_pentagon():
    ideal = toric_ideal(monomial_map(cycle(5)))
    decision = decide_quadratic_gb(ideal)
    assert len(decision.feasible_samples) == 8
    for marking, w in decision.feasible_samples:
        assert cross_check_marking(ideal, marking, w) == \
            series_test_for_marking(ideal, marking)


def test_cross_check_rejects_wrong_witness():
    ideal = toric_ideal(monomial_map(cycle(5)))
    decision = decide_quadratic_gb(ideal)
    marking, w = decision.witness_marking, decision.witness_weights
    bad = tuple(-x for x in w)
    with pytest.raises(InputError):
        cross_check_marking(ideal, marking, bad)


def test_decision_json_shape():
    decision = decide_quadratic_gb(toric_ideal(monomial_map(cycle(4))))
    data = decision.to_json()
    assert data["exists"] is True
    assert set(data["markings"]) == {"total", "feasible", "tested"}
    assert "witness" in data


def test_positive_decision_backs_koszul_shortcut():
    # an existence decision must come with a basis that passes the S-pair
    # criterion and feeds the Koszulness shortcut
    from koszulforge.betti import koszul_verdict
    from koszulforge.groebner import normal_form, spolynomial
    ideal = toric_ideal(monomial_map(cycle(5)))
    decision = decide_quadratic_gb(ideal)
    gb = decision.quadratic_gb
    for i in range(len(gb.elements)):
        for j in range(i + 1, len(gb.elements)):
            s = spolynomial(gb.elements[i], gb.elements[j], gb.order)
            assert normal_form(s, gb).is_zero()
    verdict = koszul_verdict(ideal)
    assert verdict.status == "KoszulViaQuadraticGB"
