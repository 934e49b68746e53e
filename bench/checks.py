"""Independent checks on the certificates the workloads produce.

Each check takes a result and returns a list of problems; an empty list
means the certificate holds.  The checks recompute what they can from
scratch (fiber classes, stable-set counts, dot products, the Euler
characteristic) and lean on the engine only for normal forms, socle
membership and the Hilbert function, each taken from a different module
than the result being checked.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import prod

from koszulforge.errors import InputError
from koszulforge.groebner import normal_form
from koszulforge.hilbert import hilbert_series, is_socle_element


# ---------------------------------------------------------------------------
# marking search
# ---------------------------------------------------------------------------

def degree2_classes(target_exponents) -> set[frozenset]:
    """Degree-2 source monomials grouped by image, classes of size >= 2."""
    s = len(target_exponents)
    groups: dict[tuple[int, ...], set] = {}
    for a, b in combinations_with_replacement(range(s), 2):
        mono = [0] * s
        mono[a] += 1
        mono[b] += 1
        image = tuple(x + y for x, y in zip(target_exponents[a],
                                             target_exponents[b]))
        groups.setdefault(image, set()).add(tuple(mono))
    return {frozenset(ms) for ms in groups.values() if len(ms) >= 2}


def check_qgb_decision(ideal, decision, expect_exists: bool) -> list[str]:
    """Marking count, decision, and (when one exists) the witness."""
    problems = []
    classes = degree2_classes(ideal.map.target_exponents)
    total = prod(len(c) for c in classes)
    if decision.total_markings != total:
        problems.append(f"total markings {decision.total_markings}, "
                        f"product of class sizes {total}")
    if not (0 <= decision.feasible_markings <= decision.tested_markings
            <= decision.total_markings):
        problems.append("feasible <= tested <= total does not hold")
    if decision.exists != expect_exists:
        problems.append(f"exists is {decision.exists}, expected {expect_exists}")
    if decision.exists:
        problems += _check_qgb_witness(ideal, decision, classes)
    return problems


def _check_qgb_witness(ideal, decision, classes) -> list[str]:
    problems = []
    marking = decision.witness_marking
    weights = decision.witness_weights
    gb = decision.quadratic_gb
    if marking is None or weights is None or gb is None:
        return ["an existing basis comes without its witness"]
    if {frozenset(c) for c in marking.classes.classes} != classes:
        problems.append("witness marking uses other fiber classes")
    if any(x < 0 for x in weights):
        problems.append("witness weights are not nonnegative")
    for choice, cls in zip(marking.minima, marking.classes.classes):
        low = cls[choice]
        for u in cls:
            if u != low and sum(w * (a - b) for w, a, b in
                                zip(weights, u, low)) <= 0:
                problems.append(f"weights do not rank {u} above {low}")
    if max((sum(m) for g in gb.elements for m in g.terms), default=0) > 2:
        problems.append("witness basis has an element of degree > 2")
    for g in ideal.presentation.generators:
        if not normal_form(g, gb).is_zero():
            problems.append("a toric generator does not reduce to zero")
            break
    return problems


# ---------------------------------------------------------------------------
# ring certificates
# ---------------------------------------------------------------------------

def count_stable_sets(graph) -> int:
    """Subsets of 1..n spanning no edge, the empty set included."""
    vertices = range(1, graph.n + 1)
    return sum(1 for r in range(graph.n + 1)
               for subset in combinations(vertices, r)
               if not any(graph.has_edge(i, j)
                          for i, j in combinations(subset, 2)))


def check_toric_ideal(ideal, graph) -> list[str]:
    problems = []
    if ideal.map.source_width != count_stable_sets(graph):
        problems.append("one variable per stable set does not hold")
    if not ideal.presentation.generators:
        problems.append("the eliminated ideal has no generators")
    try:
        ideal.validate()
    except InputError as exc:
        problems.append(f"generator check failed: {exc}")
    return problems


def check_hilbert(hd, graph, expected_h) -> list[str]:
    problems = []
    if hd.krull_dim != graph.n + 1:
        problems.append(f"Krull dimension {hd.krull_dim}, expected {graph.n + 1}")
    h = tuple(hd.h_vector)
    h1 = count_stable_sets(graph) - (graph.n + 1)
    if len(h) < 2 or h[1] != h1:
        problems.append(f"h_1 of {h} is not {h1}")
    if expected_h is not None and h != tuple(expected_h):
        problems.append(f"h-vector {h}, published {tuple(expected_h)}")
    return problems


def check_gorenstein(cert, expected_verdict: str) -> list[str]:
    problems = []
    h = tuple(cert.hilbert.h_vector)
    if cert.verdict != expected_verdict:
        problems.append(f"verdict {cert.verdict}, expected {expected_verdict}")
    if cert.verdict == "Gorenstein" and h != h[::-1]:
        problems.append(f"Gorenstein verdict with asymmetric h-vector {h}")
    art = cert.artinian_presentation
    if art is None:
        return problems + ["no artinian reduction was computed"]
    if cert.socle_dimension != len(cert.socle_witnesses):
        problems.append("socle dimension differs from its witness count")
    if (cert.verdict == "Gorenstein") != (cert.socle_dimension == 1):
        problems.append("verdict disagrees with the socle dimension")
    if art.generators:
        for w in cert.socle_witnesses:
            if not is_socle_element(art, w):
                problems.append("a socle witness is not in the socle")
                break
    return problems


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def check_betti(table, pres, beta34=None) -> list[str]:
    """Euler characteristic against the Hilbert function, beta_{1,1},
    and (when given) beta_{3,4}."""
    problems = []
    if table.get(1, 1) != pres.width:
        problems.append(f"beta_(1,1) is {table.get(1, 1)}, "
                        f"not the {pres.width} variables")
    top = min(table.i_max, table.j_max)
    hf = hilbert_series(pres).function_values(top)
    for j in range(top + 1):
        total = 0
        for k in range(j + 1):
            alternating = 0
            for i in range(top + 1):
                entry = table.get(i, k)
                if entry is None:
                    return problems + [f"beta_({i},{k}) was not computed"]
                alternating += (-1) ** i * entry
            total += hf[j - k] * alternating
        if total != (1 if j == 0 else 0):
            problems.append(f"Euler characteristic fails in degree {j}")
    if beta34 is not None and table.get(3, 4) != beta34:
        problems.append(f"beta_(3,4) is {table.get(3, 4)}, expected {beta34}")
    return problems


def check_same_table(table, reference) -> list[str]:
    if table.entries != reference.entries:
        return [f"table in characteristic {table.characteristic} differs "
                f"from characteristic {reference.characteristic}"]
    return []
