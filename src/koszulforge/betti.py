"""Minimal graded free resolution of the residue field over a quotient ring,
graded Betti numbers, and Koszulness verdicts.

The resolution is built step by step in the coordinates of
groebner.StandardAction: a degree-e element of A = K[Y]/I is a sparse
{position in basis(e): coeff}.  A free module F_i with n generators, g of
degree d_g, has in degree j the coordinate b * n + g for generator g times
the b-th basis monomial of degree j - d_g; g fixes that degree, so no two
pairs (g, b) share a coordinate, and (b, g) = divmod(coordinate, n).

In each degree j the kernel K_j of F_i -> F_{i-1} is
known in size before any elimination: the resolution is exact, so its image
is the kernel of the step before (the maximal ideal for i = 1), and
dim K_j = dim F_{i,j} - dim im_j.  The span S of (variables) * K_{j-1} is
built first and stops growing once it fills K_j.  A nonzero vector that
vanishes at the pivots of S lies outside S, so the kernel of the map
restricted to the other, free coordinates complements S in K_j: exact sparse
elimination of just those columns gives the minimal generators of degree j,
and their number is beta_{i+1,j} (new generators that complement
(variables) * K_{j-1} keep the resolution minimal; Eisenbud, The Geometry of
Syzygies, ch. 1; Froeberg, "Koszul algebras", 1999).  That number must equal
dim K_j - rank S, an invariant checked at every (i, j).  S's pivot rows plus
the new generators are the basis of K_j that the next degree multiplies.

One function carries the module action: S takes the products of a lower
kernel vector by all the variables from one pass over its entries, and an
image column takes one variable at a time.  The column of (g, b) is the
image of generator g times u = basis(j - deg g)[b], built from that of
u / y_v, v the first variable of u, with both monomials named by their
degree and basis index (StandardAction.first_factors).  These, with the
heap of linalg's pivot positions, cut a round of the benchmark's
resolution workload (BENCH_22.json).

A ring is Koszul iff the table vanishes off the diagonal; a finite table can
only refute Koszulness (NonKoszul) or report KoszulUpToBound, while the
quadratic-Groebner-basis shortcut proves it outright.  koszul_verdict alone
orders these steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InputError, ResourceCapError, check_cap
from .groebner import (DEFAULT_SPAIR_CAP, GroebnerBasis, IdealPresentation,
                       MultiplicationTable, multiplication_table, reduced_gb)
from .hilbert import regular_linear_system
from .linalg import Eliminator, check_characteristic, to_field
from .polyring import TermOrder
from .qgb import DEFAULT_MARKING_CAP, decide_quadratic_gb
from .toric import ToricIdeal


def graded_basis(pres: IdealPresentation, degree_cap: int = 5,
                 spair_cap: int = DEFAULT_SPAIR_CAP) -> MultiplicationTable:
    """Standard-monomial bases and variable actions of K[Y]/I up to the
    degree cap, under grevlex."""
    if not pres.homogeneous:
        raise InputError("graded basis needs a homogeneous ideal")
    if degree_cap < 1:
        raise InputError("degree cap must be >= 1")
    gb = reduced_gb(pres, TermOrder.grevlex(pres.width), spair_cap=spair_cap)
    return multiplication_table(gb, degree_cap)


@dataclass(frozen=True)
class BettiTable:
    """Computed entries beta_{i,j}; absent keys were not computed, never 0."""

    entries: dict[tuple[int, int], int]
    i_max: int
    j_max: int
    characteristic: int

    def get(self, i: int, j: int) -> int | None:
        return self.entries.get((i, j))

    def off_diagonal_witness(self) -> tuple[int, int, int] | None:
        hits = [(i, j, v) for (i, j), v in sorted(self.entries.items())
                if i != j and v]
        return hits[0] if hits else None

    def to_json(self) -> dict:
        return {"bounds": [self.i_max, self.j_max],
                "characteristic": self.characteristic,
                "entries": [[i, j, v] for (i, j), v in sorted(self.entries.items())]}


def _module_action(action, degrees: list[int], variables, j: int, vec: dict,
                   p: int) -> list[dict]:
    """Module action of each of the variables on a degree-j vector of the
    free module: one product per variable, in their order, all built in one
    pass over the entries of vec."""
    n = len(degrees)
    outs: list[dict] = [{} for _ in variables]
    for key, c in vec.items():
        b, g = divmod(key, n)
        acts = action[j - degrees[g]][b]
        for out, v in zip(outs, variables):
            for row, coeff in acts[v]:
                k = row * n + g
                s = out.get(k, 0) + c * coeff
                if p:
                    s %= p
                if s:
                    out[k] = s
                else:
                    del out[k]
    return outs


def _action_table(A: MultiplicationTable, top: int, p: int) -> list:
    """action[e][b][v], e < top: the (row, coeff) pairs of
    y_v * basis(e)[b] over basis(e + 1), coeffs in the field's elements;
    a coeff that p divides is left out, so that none is zero."""
    def pairs(col):
        field = ((row, to_field(c, p) if p else c) for row, c in col.items())
        return tuple((row, c) for row, c in field if c)
    return [list(zip(*(tuple(map(pairs, A.action.column(e, v)))
                       for v in range(A.action.width))))
            for e in range(top)]


# Most columns one step (i, j) of the resolution may build; each column is a
# sparse vector, and the kernel elimination holds a pivot row per column.
BETTI_COLUMN_CAP = 2 ** 16
# Most entries (i_max + 1) * (j_max + 1) a table may hold; each is stored,
# zeros too, and printed.
BETTI_ENTRY_CAP = 2 ** 16


def check_bounds(i_max: int, j_max: int) -> None:
    """InputError unless both Betti bounds are nonnegative; ResourceCapError
    if the table they span holds more than BETTI_ENTRY_CAP entries."""
    if i_max < 0 or j_max < 0:
        raise InputError("bounds must be nonnegative")
    entries = (i_max + 1) * (j_max + 1)
    if entries > BETTI_ENTRY_CAP:
        raise ResourceCapError(
            f"Betti bounds ({i_max}, {j_max}) span {entries} entries, "
            f"over the cap {BETTI_ENTRY_CAP}")


def betti_table(A: MultiplicationTable, i_max: int, j_max: int,
                characteristic: int = 0,
                stop_at_first_offdiagonal: bool = False) -> BettiTable:
    """Graded Betti numbers of K over A = K[Y]/I, exact for all reported (i, j).

    With ``stop_at_first_offdiagonal`` the computation aborts as soon as a
    nonzero off-diagonal entry appears; entries beyond that point are absent.
    Bounds spanning more than BETTI_ENTRY_CAP entries, or a step whose map
    has more than BETTI_COLUMN_CAP columns, raise ResourceCapError before
    any of that work is done.
    """
    p = check_characteristic(characteristic)
    check_bounds(i_max, j_max)
    if j_max > A.degree_cap:
        raise InputError("j_max exceeds the graded basis degree cap")
    width = A.action.width
    # A is graded, so a generator of degree <= 1 shows as a missing variable
    if A.dimension(1) < width:
        raise InputError("presentation has generators of degree <= 1; "
                         "substitute them away first")
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for j in range(1, j_max + 1):
        entries[(0, j)] = 0

    def finished(ent) -> BettiTable:
        return BettiTable(ent, i_max, j_max, characteristic)

    if i_max == 0:
        return finished(entries)

    action = _action_table(A, max(j_max, 1), p)
    dims = [A.dimension(e) for e in range(j_max + 1)]
    # factors[e][b] = (v, b'): basis(e)[b] = y_v * basis(e - 1)[b']
    factors = [()] + [A.action.first_factors(e) for e in range(1, j_max)]
    variables = range(width)
    # F_1 = A(-1)^width with e_v -> y_v; images live in F_0 = A, and the
    # image of F_1 -> F_0 is the maximal ideal
    gen_images = [(1, dict(action[0][0][v])) for v in range(width)]
    image_dims = [dims[j] if j else 0 for j in range(j_max + 1)]
    for j in range(j_max + 1):
        entries[(1, j)] = width if j == 1 else 0
    prev_degrees = [0]

    for i in range(1, i_max):
        # kernel K of F_i -> F_{i-1}, degree by degree
        degrees = [d for d, _ in gen_images]
        n = len(degrees)
        min_gen_degree = min(degrees, default=j_max + 1)
        kernel_dims = [0] * (j_max + 1)
        lower: list[dict] = []  # a basis of K in degree j - 1
        new_gens: list[tuple[int, dict]] = []
        aborted = False
        for j in range(min_gen_degree, j_max + 1):
            columns = sum(dims[j - d] for d in degrees if d <= j)
            if columns > BETTI_COLUMN_CAP:
                raise ResourceCapError(
                    f"beta_{{{i + 1},{j}}} needs {columns} columns, "
                    f"over the cap {BETTI_COLUMN_CAP}")
            # the resolution is exact: the image of F_i -> F_{i-1} in degree
            # j is the kernel of the step before
            kernel_dims[j] = columns - image_dims[j]
            # S = variables * (lower kernel), inserted until it fills K_j
            span = Eliminator(p)
            products = (prod for vec in lower
                        for prod in _module_action(action, degrees, variables,
                                                   j - 1, vec, p))
            for prod in products:
                if span.rank == kernel_dims[j]:
                    break
                if prod:
                    span.insert(prod)
            # a vector vanishing at the pivots of S lies outside S, so the
            # kernel on the other (free) coordinates complements S in K_j:
            # a basis of the minimal generators of degree j.  The column of
            # coordinate (g, b) is the image u * v_g, u = A_{j - deg g}[b],
            # computed by one variable step from a lower-degree column
            coords = (b * n + g for g, d in enumerate(degrees) if d <= j
                      for b in range(dims[j - d]))
            free = [c for c in coords if c not in span.pivots]
            col_cache: dict[tuple[int, int, int], dict] = {}
            cols = [_image_column(action, prev_degrees, factors, col_cache, g,
                                  *gen_images[g], j - degrees[g], b, p)
                    for b, g in (divmod(c, n) for c in free)]
            fresh = [{free[k]: c for k, c in vec.items()}
                     for vec in Eliminator(p).kernel_of_columns(cols)]
            if len(fresh) != kernel_dims[j] - span.rank:
                raise AssertionError(
                    f"beta_{{{i + 1},{j}}}: {len(fresh)} new generators, but "
                    f"exactness leaves {kernel_dims[j] - span.rank}")
            lower = list(span.pivots.values()) + fresh
            new_gens.extend((j, vec) for vec in fresh)
            entries[(i + 1, j)] = len(fresh)
            if stop_at_first_offdiagonal and j != i + 1 and fresh:
                aborted = True
                break
        for j in range(0, min_gen_degree):
            entries[(i + 1, j)] = 0
        if aborted:
            pruned = {k: v for k, v in entries.items() if k[0] <= i + 1}
            return finished(pruned)
        prev_degrees = degrees
        gen_images = new_gens
        image_dims = kernel_dims
        if not gen_images:
            for ii in range(i + 2, i_max + 1):
                for j in range(j_max + 1):
                    entries[(ii, j)] = 0
            break
    return finished(entries)


def _image_column(action, degrees: list[int], factors, cache: dict, g: int,
                  d_g: int, img: dict, e: int, b: int, p: int) -> dict:
    """img * u in F_{i-1}, u = basis(e)[b], built one variable at a time
    with caching: u = y_v * basis(e - 1)[b'] for (v, b') = factors[e][b]."""
    if not e:
        return img
    key = (g, e, b)
    hit = cache.get(key)
    if hit is not None:
        return hit
    v, below = factors[e][b]
    base = _image_column(action, degrees, factors, cache, g, d_g, img, e - 1,
                         below, p)
    out = cache[key] = _module_action(action, degrees, (v,), d_g + e - 1,
                                      base, p)[0]
    return out


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KoszulVerdict:
    status: str  # "NonKoszul" | "KoszulViaQuadraticGB" | "KoszulUpToBound"
    witness: tuple[int, int, int] | None = None
    bounds: tuple[int, int] | None = None
    characteristic: int = 0
    table: BettiTable | None = None
    gb: GroebnerBasis | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {"status": self.status,
                "witness": list(self.witness) if self.witness else None,
                "bounds": list(self.bounds) if self.bounds else None,
                "characteristic": self.characteristic,
                "betti": self.table.to_json() if self.table else None,
                "note": self.note}


DEFAULT_BETTI_BOUNDS = (4, 5)


@dataclass
class KoszulConfig:
    """The bounds and caps of ``koszul_verdict`` and ``reports.analyze``."""
    i_max: int = DEFAULT_BETTI_BOUNDS[0]
    j_max: int = DEFAULT_BETTI_BOUNDS[1]
    characteristic: int = 0
    spair_cap: int = DEFAULT_SPAIR_CAP
    marking_cap: int = DEFAULT_MARKING_CAP

    def check(self) -> None:
        """check_characteristic, the caps, then check_bounds: a check to run
        before any work."""
        check_characteristic(self.characteristic)
        check_cap("spair_cap", self.spair_cap)
        check_cap("marking_cap", self.marking_cap)
        check_bounds(self.i_max, self.j_max)


def artinian_reduction(pres: IdealPresentation,
                       spair_cap: int = DEFAULT_SPAIR_CAP) -> IdealPresentation | None:
    """Quotient by a full linear system of parameters, if one is found: the
    memoised search that gorenstein_certificate runs, which reads dim R
    from the ring's Hilbert series."""
    found = regular_linear_system(pres, spair_cap)
    if found is None:
        return None
    return found[1]


def koszul_verdict(ideal: ToricIdeal | IdealPresentation,
                   config: KoszulConfig | None = None) -> KoszulVerdict:
    """Decide Koszulness as far as the configured bounds allow.

    Pipeline: a quadratic Groebner basis (canonical order first, then, for a
    toric ideal, the memoised marking search) proves Koszulness; otherwise
    the Betti table of the artinian reduction (or of the ring itself when no
    linear system of parameters is found) is computed up to the bounds,
    refuting Koszulness on the first off-diagonal entry and otherwise
    reporting KoszulUpToBound.  A marking search that hits a resource cap is
    skipped, and the note says so.  The characteristic and the bounds are
    checked first.
    """
    config = config or KoszulConfig()
    config.check()
    pres = ideal.presentation if isinstance(ideal, ToricIdeal) else ideal
    gb = reduced_gb(pres, TermOrder.grevlex(pres.width),
                    spair_cap=config.spair_cap)
    if gb.is_quadratic:
        return KoszulVerdict("KoszulViaQuadraticGB", gb=gb,
                             characteristic=config.characteristic,
                             note="canonical grevlex basis is quadratic")
    skipped = ""
    if isinstance(ideal, ToricIdeal):
        try:
            decision = decide_quadratic_gb(ideal,
                                           marking_cap=config.marking_cap,
                                           spair_cap=config.spair_cap)
        except ResourceCapError as exc:
            skipped = f"; marking search skipped ({exc})"
        else:
            if decision.exists:
                return KoszulVerdict(
                    "KoszulViaQuadraticGB", gb=decision.quadratic_gb,
                    characteristic=config.characteristic,
                    note="marking search found a quadratic basis")

    reduction = artinian_reduction(pres, spair_cap=config.spair_cap)
    if reduction is not None and reduction.generators:
        target = reduction
        note = "betti table over the artinian reduction"
    else:
        target = pres
        note = ("betti table over the ring itself "
                "(no linear system of parameters found)")
    A = graded_basis(target, degree_cap=max(config.j_max, 1),
                     spair_cap=config.spair_cap)
    table = betti_table(A, config.i_max, config.j_max,
                        characteristic=config.characteristic,
                        stop_at_first_offdiagonal=True)
    witness = table.off_diagonal_witness()
    note += skipped
    if witness:
        return KoszulVerdict("NonKoszul", witness=witness,
                             bounds=(table.i_max, table.j_max),
                             characteristic=config.characteristic,
                             table=table, note=note)
    return KoszulVerdict("KoszulUpToBound",
                         bounds=(config.i_max, config.j_max),
                         characteristic=config.characteristic,
                         table=table, note=note)


def transfer_check(direct_table: BettiTable, reduced_table: BettiTable,
                   c: int) -> bool:
    """Change-of-rings consistency between the two computation modes.

    For A = R/(c linear regular forms), the residue-field Betti numbers obey
    beta^R_{ij} = sum_l C(c, l) * beta^A_{i-l, j-l}; verified on every (i, j)
    whose required entries were computed on both sides.
    """
    checked = 0
    for (i, j), direct_value in sorted(direct_table.entries.items()):
        needed = []
        ok = True
        for l in range(0, min(i, j, c) + 1):
            entry = reduced_table.get(i - l, j - l)
            if entry is None:
                ok = False
                break
            needed.append(comb(c, l) * entry)
        if not ok:
            continue
        checked += 1
        if direct_value != sum(needed):
            return False
    if checked == 0:
        raise InputError("insufficient overlap between the two tables")
    return True
