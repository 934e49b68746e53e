"""Graded bases, Betti tables of the residue field, Koszul verdicts,
transfer consistency."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulforge import betti, hilbert
from koszulforge.betti import (BettiTable, KoszulConfig, artinian_reduction,
                               betti_table, graded_basis, koszul_verdict,
                               transfer_check)
from koszulforge.errors import InputError, ResourceCapError
from koszulforge.graphs import complete, cycle, parse_graph
from koszulforge.groebner import (IdealPresentation, MultiplicationTable,
                                  StandardAction, multiplication_table,
                                  reduced_gb)
from koszulforge.hilbert import hilbert_series, poly1_series_coeffs
from koszulforge.linalg import to_field
from koszulforge.paper_suite import paper_artinian_reduction
from koszulforge.polyring import Polynomial, TermOrder, parse_polynomial
from koszulforge.toric import closed_form_generators, monomial_map, toric_ideal


def P(width, *terms):
    out = Polynomial.zero(width)
    for mono, c in terms:
        out = out + Polynomial.monomial(tuple(mono), Fraction(c))
    return out


def nonzero(table):
    return {k: v for k, v in sorted(table.entries.items()) if v}


# ---------------------------------------------------------------------------
# graded bases
# ---------------------------------------------------------------------------

def test_graded_basis_zero_ideal_dims():
    pres = IdealPresentation(("a", "b"), ())
    A = graded_basis(pres, degree_cap=2)
    assert A.dimensions() == (1, 2, 3)


def test_graded_basis_artinian_reduction_dims():
    A = graded_basis(paper_artinian_reduction(3), degree_cap=4)
    assert A.dimensions() == (1, 7, 14, 7, 1)


def test_graded_basis_heptagon_ring_dims():
    # oracle: expand (1 + 7t + 14t^2 + 7t^3 + t^4) / (1-t)^8
    expected = poly1_series_coeffs((1, 7, 14, 7, 1), 8, 3)
    assert expected == [1, 15, 106, 491]
    ideal = closed_form_generators("cbar", 3)
    A = graded_basis(ideal.presentation, degree_cap=3)
    assert list(A.dimensions()) == expected


def test_graded_basis_calls_share_one_action():
    # the tables over Q and over GF(p) read the same bases and columns
    art = paper_artinian_reduction(3)
    first = graded_basis(art, degree_cap=5)
    second = graded_basis(art, degree_cap=5)
    gb = reduced_gb(art, TermOrder.grevlex(art.width))
    assert first.action is second.action is gb.action
    over_q = betti_table(first, 4, 5)
    over_p = betti_table(second, 4, 5, characteristic=32003)
    assert over_q.entries == over_p.entries
    assert over_q.get(3, 4) == 1
    # a fresh, unshared action gives the same table
    alone = MultiplicationTable(StandardAction(gb), 5)
    assert betti_table(alone, 4, 5).entries == over_q.entries


def test_graded_basis_dims_match_hilbert_function():
    for spec in ("cycle(4)", "paper:G4"):
        pres = toric_ideal(monomial_map(parse_graph(spec))).presentation
        hd = hilbert_series(pres)
        A = graded_basis(pres, degree_cap=3)
        assert list(A.dimensions()) == hd.function_values(3)


# ---------------------------------------------------------------------------
# betti tables: closed-form checks
# ---------------------------------------------------------------------------

def test_betti_dual_numbers():
    pres = IdealPresentation(("y",), (P(1, ((2,), 1)),))
    table = betti_table(graded_basis(pres, degree_cap=5), 4, 5)
    assert nonzero(table) == {(i, i): 1 for i in range(5)}


def test_betti_koszul_complex():
    for m in (2, 3):
        labels = tuple(f"x{i}" for i in range(m))
        table = betti_table(graded_basis(IdealPresentation(labels, ()),
                                         degree_cap=4), 4, 4)
        assert nonzero(table) == {(i, i): comb(m, i) for i in range(min(m, 4) + 1)
                                  if comb(m, i)}


def test_betti_quadratic_complete_intersection():
    pres = IdealPresentation(("x", "y"),
                             (P(2, ((2, 0), 1)), P(2, ((0, 2), 1))))
    table = betti_table(graded_basis(pres, degree_cap=4), 4, 4)
    assert nonzero(table) == {(i, i): i + 1 for i in range(5)}


def test_betti_cubic_hypersurface():
    pres = IdealPresentation(("y",), (P(1, ((3,), 1)),))
    table = betti_table(graded_basis(pres, degree_cap=6), 4, 6)
    assert nonzero(table) == {(0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 4): 1,
                              (4, 6): 1}


def test_betti_first_row_identities():
    # beta_11 = embdim; beta_22 - C(embdim, 2) = number of quadric relations
    art = paper_artinian_reduction(3)
    table = betti_table(graded_basis(art, degree_cap=3), 2, 3)
    assert table.get(1, 1) == 7
    assert table.get(0, 0) == 1
    assert table.get(0, 1) == 0
    assert table.get(1, 2) == 0
    assert table.get(2, 2) - comb(7, 2) == len(art.generators)
    assert table.get(2, 3) == 0  # quadratic ring


def test_betti_heptagon_witness():
    art = paper_artinian_reduction(3)
    table = betti_table(graded_basis(art, degree_cap=5), 4, 5,
                        stop_at_first_offdiagonal=True)
    assert table.get(3, 4) == 1
    assert table.off_diagonal_witness() == (3, 4, 1)
    # everything off-diagonal up to homological degree 2 vanishes
    assert all(v == 0 for (i, j), v in table.entries.items()
               if i <= 2 and i != j)


def test_betti_order_independent():
    art = paper_artinian_reduction(3)
    t1 = betti_table(graded_basis(art, degree_cap=4), 3, 4)
    reversed_gb = reduced_gb(
        art, TermOrder.grevlex(7, ranking=(6, 5, 4, 3, 2, 1, 0)))
    t2 = betti_table(multiplication_table(reversed_gb, 4), 3, 4)
    assert t1.entries == t2.entries


def test_betti_characteristic_agreement():
    art = paper_artinian_reduction(3)
    A = graded_basis(art, degree_cap=4)
    t0 = betti_table(A, 3, 4)
    tp = betti_table(A, 3, 4, characteristic=32003)
    assert t0.entries == tp.entries
    assert t0.characteristic == 0 and tp.characteristic == 32003


def test_betti_characteristic_agreement_with_fraction_coefficients():
    # the grevlex basis of this ideal has the coefficients 1/3, 3/7 and
    # -1/7, so some action columns hold Fractions, which GF(p) reads through
    # to_field; reading only their numerators gives beta_{2,3} = 1
    labels = ("x", "y", "z")
    pres = IdealPresentation(labels, tuple(
        parse_polynomial(g, labels)
        for g in ("y^2 - 2*x*z - x^2", "3*y^2 + x*z", "3*x*y + x^2")))
    A = graded_basis(pres, degree_cap=4)
    assert any(type(c) is Fraction for d in range(4) for v in range(3)
               for col in A.action.column(d, v) for c in col.values())
    t0 = betti_table(A, 4, 4)
    tp = betti_table(A, 4, 4, characteristic=32003)
    assert t0.entries == tp.entries
    assert nonzero(t0) == {(0, 0): 1, (1, 1): 3, (2, 2): 6, (3, 3): 11,
                           (4, 4): 19}


def test_betti_action_coefficient_divisible_by_p():
    # y * x = 3 x^2 in K[x, y]/(xy - 3x^2): over GF(3) that action
    # coefficient is 0, and the ring is K[x, y]/(xy), with the same table
    labels = ("x", "y")
    pres = IdealPresentation(labels, (parse_polynomial("x*y - 3*x^2",
                                                       labels),))
    A = graded_basis(pres, degree_cap=4)
    table = betti_table(A, 3, 4, characteristic=3)
    assert table.entries == betti_table(A, 3, 4).entries
    assert nonzero(table) == {(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 2}


def test_betti_bounds_validation():
    A = graded_basis(IdealPresentation(("x",), ()), degree_cap=2)
    with pytest.raises(InputError):
        betti_table(A, 2, 5)
    with pytest.raises(InputError):
        betti_table(graded_basis(
            IdealPresentation(("x", "y"), (P(2, ((1, 0), 1), ((0, 1), -1)),)),
            degree_cap=2), 2, 2)


def test_betti_column_cap(monkeypatch):
    # F_1 = A(-1)^7 over the heptagon reduction, dims (1, 7, 14, 7, 1): the
    # map in degree 2 has 7 * 7 = 49 columns, in degree 3 7 * 14 = 98
    A = graded_basis(paper_artinian_reduction(3), degree_cap=4)
    built = []
    image_column = betti._image_column
    monkeypatch.setattr(betti, "_image_column",
                        lambda *args: built.append(args) or image_column(*args))
    monkeypatch.setattr(betti, "BETTI_COLUMN_CAP", 48)
    with pytest.raises(ResourceCapError, match=r"beta_\{2,2\} needs 49 "):
        betti_table(A, 3, 4)
    # degree 1 of the first step, 7 columns, was the only one built
    assert len(built) == 7
    monkeypatch.setattr(betti, "BETTI_COLUMN_CAP", 49)
    with pytest.raises(ResourceCapError, match=r"beta_\{2,3\} needs 98 "):
        betti_table(A, 3, 4)


def test_betti_entry_cap(monkeypatch):
    # bounds spanning more than BETTI_ENTRY_CAP entries are refused before
    # any column of the resolution is built
    A = graded_basis(paper_artinian_reduction(3), degree_cap=4)
    monkeypatch.setattr(betti, "_image_column",
                        lambda *args: pytest.fail("a column was built"))
    i_max = betti.BETTI_ENTRY_CAP // 5
    with pytest.raises(ResourceCapError, match=r"span \d+ entries, over the cap"):
        betti_table(A, i_max, 4)
    with pytest.raises(ResourceCapError):
        KoszulConfig(i_max=i_max, j_max=4).check()
    # negative bounds stay an input error, checked first
    with pytest.raises(InputError):
        KoszulConfig(i_max=-1, j_max=10 ** 9).check()


def grid(i_max, j_max, nonzero_entries):
    """Every entry (i, j) up to the bounds: the given ones, the rest 0."""
    return {(i, j): nonzero_entries.get((i, j), 0)
            for i in range(i_max + 1) for j in range(j_max + 1)}


@pytest.fixture(scope="module")
def workload_reductions():
    # the artinian reductions of the resolution benchmark
    return {name: artinian_reduction(closed_form_generators(name, k).presentation)
            for name, k in (("cbar", 3), ("family", 1))}


HEPTAGON_TABLE = {(0, 0): 1, (1, 1): 7, (2, 2): 35, (3, 3): 154, (3, 4): 1,
                  (4, 4): 637, (4, 5): 15, (5, 5): 2549}
FAMILY1_TABLE = {(0, 0): 1, (1, 1): 8, (2, 2): 43, (3, 3): 197, (3, 4): 1,
                 (4, 4): 834, (4, 5): 16}


@pytest.mark.parametrize("name, bounds, characteristic, expected", [
    ("cbar", (5, 5), 0, HEPTAGON_TABLE),
    ("cbar", (5, 5), 32003, HEPTAGON_TABLE),
    ("family", (4, 5), 0, FAMILY1_TABLE),
])
def test_workload_tables_pinned(workload_reductions, name, bounds,
                                characteristic, expected):
    A = graded_basis(workload_reductions[name], degree_cap=bounds[1])
    table = betti_table(A, *bounds, characteristic=characteristic)
    assert table.entries == grid(*bounds, expected)


@pytest.mark.parametrize("name, bounds, work", [
    ("cbar", (5, 5), (6868, 2735, 14, 6997, 12680)),
    ("family", (4, 5), (12775, 5241, 12, 3343, 6550)),
])
def test_workload_elimination_work_pinned(workload_reductions, monkeypatch,
                                          name, bounds, work):
    # insert calls, rank-raising inserts, kernel eliminations, their columns
    # and the entries of their pivot rows, first counted with a key-set
    # intersection per elimination step and one variable per module action:
    # a change to either loop that changes the work shows here
    counts = dict.fromkeys(["inserts", "raising", "kernels", "columns",
                            "pivot_entries"], 0)
    insert = betti.Eliminator.insert
    kernel_of_columns = betti.Eliminator.kernel_of_columns

    def counted_insert(self, vec):
        raised = insert(self, vec)
        counts["inserts"] += 1
        counts["raising"] += raised
        return raised

    def counted_kernel(self, columns):
        kernel = kernel_of_columns(self, columns)
        counts["kernels"] += 1
        counts["columns"] += len(columns)
        counts["pivot_entries"] += sum(map(len, self.pivots.values()))
        return kernel

    monkeypatch.setattr(betti.Eliminator, "insert", counted_insert)
    monkeypatch.setattr(betti.Eliminator, "kernel_of_columns", counted_kernel)
    A = graded_basis(workload_reductions[name], degree_cap=bounds[1])
    betti_table(A, *bounds)
    assert tuple(counts.values()) == work


@pytest.mark.parametrize("characteristic", [0, 32003])
def test_one_pass_action_is_each_variable_alone(characteristic):
    A = graded_basis(paper_artinian_reduction(3), degree_cap=4)
    action = betti._action_table(A, 4, characteristic)
    width = A.action.width
    rng = random.Random(characteristic)
    for _ in range(200):
        degrees = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
        n = len(degrees)
        j = rng.randint(max(degrees), 3)
        coords = [b * n + g for g, d in enumerate(degrees)
                  for b in range(A.dimension(j - d))]
        vec = {k: rng.randint(1, 5) for k in rng.sample(coords, min(
            len(coords), rng.randint(1, 6)))}
        together = betti._module_action(action, degrees, range(width), j,
                                        vec, characteristic)
        assert together == [betti._module_action(action, degrees, (v,), j,
                                                 vec, characteristic)[0]
                            for v in range(width)]
        # against the column of each variable read off the ring itself
        for v, prod in enumerate(together):
            want: dict = {}
            for key, c in vec.items():
                b, g = divmod(key, n)
                col = A.action.column(j - degrees[g], v)[b]
                for row, coeff in col.items():
                    k = row * n + g
                    want[k] = want.get(k, 0) + c * coeff
            want = {k: to_field(x, characteristic) for k, x in want.items()}
            assert prod == {k: x for k, x in want.items() if x}


def test_exactness_check_rejects_a_wrong_map(monkeypatch):
    # a zero map leaves every column free, more than exactness allows; the
    # check is an explicit raise, so it holds under python -O as well
    monkeypatch.setattr(betti, "_image_column", lambda *args: {})
    A = graded_basis(paper_artinian_reduction(3), degree_cap=3)
    with pytest.raises(AssertionError, match=r"beta_\{2,1\}: 7 new "
                                             r"generators, but exactness "
                                             r"leaves 0"):
        betti_table(A, 3, 3)


@st.composite
def quadratic_monomial_ideals(draw):
    width = draw(st.integers(2, 5))
    quadrics = [tuple(int(v == a) + int(v == b) for v in range(width))
                for a in range(width) for b in range(a, width)]
    chosen = draw(st.lists(st.sampled_from(quadrics), unique=True))
    labels = tuple(f"x{v}" for v in range(width))
    return IdealPresentation(labels, tuple(P(width, (m, 1)) for m in chosen))


@given(quadratic_monomial_ideals())
@settings(max_examples=60, deadline=None)
def test_quadratic_monomial_quotients_are_koszul(pres):
    # Froeberg: K[x]/I with I generated by quadratic monomials is Koszul, so
    # the table is diagonal and P_A(t) = sum beta_{i,i} t^i equals 1 / H_A(-t)
    bound = 4
    table = betti_table(graded_basis(pres, degree_cap=bound), bound, bound)
    assert all(v == 0 for (i, j), v in table.entries.items() if i != j)
    # H_A(-t) = Q(-t) / (1 + t)^m, so 1 / H_A(-t) = (1 + t)^m / Q(-t)
    q = hilbert_series(pres).numerator
    q_neg = [c * (-1) ** k for k, c in enumerate(q)] + [0] * bound
    binomial = [comb(pres.width, k) for k in range(bound + 1)]
    poincare: list[int] = []
    for k in range(bound + 1):  # q_neg[0] = 1: divide term by term
        poincare.append(binomial[k] - sum(q_neg[k - l] * poincare[l]
                                          for l in range(k)))
    assert [table.get(i, i) for i in range(bound + 1)] == poincare


def test_entries_absent_outside_computed_bounds():
    art = paper_artinian_reduction(3)
    table = betti_table(graded_basis(art, degree_cap=5), 4, 5,
                        stop_at_first_offdiagonal=True)
    # aborted at (3, 4): no homological degree 4 entries are reported
    assert all(i <= 3 for (i, j) in table.entries)
    assert table.get(4, 4) is None


# ---------------------------------------------------------------------------
# transfer consistency
# ---------------------------------------------------------------------------

def test_transfer_polynomial_ring_to_field():
    ring = BettiTable({(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1,
                       (1, 2): 0, (2, 2): 0, (2, 1): 0, (2, 0): 0,
                       (0, 2): 0}, 2, 2, 0)
    point = BettiTable({(0, 0): 1, (0, 1): 0, (0, 2): 0, (1, 0): 0,
                        (1, 1): 0, (1, 2): 0, (2, 0): 0, (2, 1): 0,
                        (2, 2): 0}, 2, 2, 0)
    assert transfer_check(ring, point, 1)


def test_transfer_identity_when_c_zero():
    pres = IdealPresentation(("x", "y"),
                             (P(2, ((2, 0), 1)), P(2, ((0, 2), 1))))
    table = betti_table(graded_basis(pres, degree_cap=3), 2, 3)
    assert transfer_check(table, table, 0)


def test_transfer_direct_vs_reduced_small_rings():
    for g in (cycle(4), complete(3)):
        pres = toric_ideal(monomial_map(g)).presentation
        hd = hilbert_series(pres)
        direct = betti_table(graded_basis(pres, degree_cap=3), 2, 3)
        red = artinian_reduction(pres)
        if red.generators:
            reduced = betti_table(graded_basis(red, degree_cap=3), 2, 3)
        else:
            entries = {(i, j): 1 if i == j == 0 else 0
                       for i in range(3) for j in range(4)}
            reduced = BettiTable(entries, 2, 3, 0)
        assert transfer_check(direct, reduced, hd.krull_dim)


def test_transfer_requires_overlap():
    t1 = BettiTable({(0, 0): 1}, 0, 0, 0)
    t2 = BettiTable({}, 0, 0, 0)
    with pytest.raises(InputError):
        transfer_check(t1, t2, 1)


def test_transfer_detects_mismatch():
    a = BettiTable({(1, 1): 5, (0, 0): 1}, 1, 1, 0)
    b = BettiTable({(1, 1): 5, (0, 0): 1}, 1, 1, 0)
    assert not transfer_check(a, b, 1)  # 5 != 5 + 1


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_koszul_verdict_complete_graph():
    verdict = koszul_verdict(toric_ideal(monomial_map(complete(4))))
    assert verdict.status == "KoszulViaQuadraticGB"


def test_koszul_verdict_pentagon():
    verdict = koszul_verdict(toric_ideal(monomial_map(cycle(5))))
    assert verdict.status == "KoszulViaQuadraticGB"
    assert verdict.gb is None or verdict.gb.is_quadratic


def test_koszul_verdict_heptagon_with_known_decision():
    # a bare presentation has no fiber classes, so no marking search runs
    ideal = closed_form_generators("cbar", 3)
    verdict = koszul_verdict(ideal.presentation)
    assert verdict.status == "NonKoszul"
    assert verdict.witness == (3, 4, 1)
    assert verdict.bounds is not None


def test_koszul_verdict_reports_bounds_when_inconclusive():
    # (xy, x^2 + y^2) is a quadratic complete intersection, so Koszul, but
    # its grevlex basis {xy, x^2 + y^2, x^3} is not quadratic, and a bounded
    # table cannot prove Koszulness by itself
    pres = IdealPresentation(("x", "y"), (P(2, ((1, 1), 1)),
                                          P(2, ((2, 0), 1), ((0, 2), 1))))
    config = KoszulConfig(i_max=3, j_max=4)
    verdict = koszul_verdict(pres, config)
    assert verdict.status == "KoszulUpToBound"
    assert verdict.bounds == (3, 4)


def test_koszul_verdict_over_the_ring_itself(monkeypatch):
    # with no budget for the linear-system search there is no artinian
    # reduction, and the table is taken over the ring; the memo is emptied
    # before and after, so that no search under the patched budget leaks
    monkeypatch.setattr(hilbert, "LSOP_BUDGET", 0)
    hilbert.regular_linear_system.cache_clear()
    try:
        pres = toric_ideal(monomial_map(parse_graph("paper:G3"))).presentation
        verdict = koszul_verdict(pres, KoszulConfig(i_max=2, j_max=3))
    finally:
        hilbert.regular_linear_system.cache_clear()
    assert verdict.status == "NonKoszul"
    assert verdict.witness == (2, 3, 1)
    assert "over the ring itself" in verdict.note


def test_family_reduction_non_koszul():
    red = artinian_reduction(closed_form_generators("family", 1).presentation)
    table = betti_table(graded_basis(red, degree_cap=4), 3, 4,
                        stop_at_first_offdiagonal=True)
    assert table.get(3, 4) == 1
