"""Minimal graded free resolution of the residue field over a quotient ring,
graded Betti numbers, and Koszulness verdicts.

The resolution is built step by step: coordinates come from standard-monomial
bases per degree, kernels of the maps F_{i+1} -> F_i are computed degree by
degree with exact sparse elimination, and minimal generators of each kernel
are the kernel vectors that survive modulo (variables) * (lower kernel).
Because minimal generators are chosen independent modulo that image, the
resulting resolution is minimal and the counts are honest Betti numbers.

A ring is Koszul iff the table vanishes off the diagonal; a finite table can
only refute Koszulness (NonKoszul) or report KoszulUpToBound, while the
quadratic-Groebner-basis shortcut proves it outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InputError, ResourceCapError
from .groebner import (DEFAULT_SPAIR_CAP, GroebnerBasis, IdealPresentation,
                       MultiplicationTable, multiplication_table, reduced_gb)
from .hilbert import find_regular_linear_system, hilbert_series
from .linalg import Eliminator
from .polyring import TermOrder, field_of_characteristic
from .toric import ToricIdeal


@dataclass(frozen=True)
class GradedAlgebraBasis:
    """Standard-monomial coordinatization of K[Y]/I up to a degree cap."""

    presentation: IdealPresentation
    order: TermOrder
    table: MultiplicationTable

    @property
    def degree_cap(self) -> int:
        return self.table.degree_cap

    @property
    def width(self) -> int:
        return self.presentation.width

    def dimensions(self) -> tuple[int, ...]:
        return tuple(self.table.dimension(d) for d in range(self.degree_cap + 1))


def graded_basis(pres: IdealPresentation, order: TermOrder | None = None,
                 degree_cap: int = 5,
                 spair_cap: int = DEFAULT_SPAIR_CAP) -> GradedAlgebraBasis:
    """Bases and variable actions for K[Y]/I up to the degree cap."""
    if not pres.homogeneous:
        raise InputError("graded basis needs a homogeneous ideal")
    if degree_cap < 1:
        raise InputError("degree cap must be >= 1")
    order = order or TermOrder.grevlex(pres.width)
    gb = reduced_gb(pres, order, spair_cap=spair_cap)
    return GradedAlgebraBasis(pres, order, multiplication_table(gb, degree_cap))


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


class _ResolutionState:
    """One homological step: generators of F_i and their images in F_{i-1}.

    Vectors over F_i in degree j are indexed by flattened (generator, basis
    monomial of A in degree j - deg(gen)) coordinates.
    """

    def __init__(self, gen_degrees: list[int]):
        self.gen_degrees = gen_degrees

    def layout(self, table: MultiplicationTable, j: int) -> list[tuple[int, int]]:
        """(offset, basis dimension) per generator for degree-j vectors."""
        out = []
        offset = 0
        for d in self.gen_degrees:
            dim = table.dimension(j - d) if 0 <= j - d <= table.degree_cap else 0
            out.append((offset, dim))
            offset += dim
        return out

    def total_dim(self, table: MultiplicationTable, j: int) -> int:
        layout = self.layout(table, j)
        if not layout:
            return 0
        off, dim = layout[-1]
        return off + dim


def _multiply_by_variable(table: MultiplicationTable, state: _ResolutionState,
                          v: int, j: int, vec: dict, F) -> dict:
    """Module action of variable v on a degree-j vector of the free module."""
    src = state.layout(table, j)
    dst = state.layout(table, j + 1)
    out: dict[int, object] = {}
    for g, (off, dim) in enumerate(src):
        if dim == 0:
            continue
        d = j - state.gen_degrees[g]
        action = table.action[d][v]
        doff = dst[g][0]
        for flat, c in vec.items():
            if not (off <= flat < off + dim):
                continue
            for row, coeff in action[flat - off].items():
                k = doff + row
                s = F.add(out.get(k, F.zero), F.mul(c, F.convert(coeff)))
                if s == F.zero:
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


def betti_table(A: GradedAlgebraBasis, i_max: int, j_max: int,
                characteristic: int = 0,
                stop_at_first_offdiagonal: bool = False) -> BettiTable:
    """Graded Betti numbers of K over A = K[Y]/I, exact for all reported (i, j).

    With ``stop_at_first_offdiagonal`` the computation aborts as soon as a
    nonzero off-diagonal entry appears; entries beyond that point are absent.
    """
    if j_max > A.degree_cap:
        raise InputError("j_max exceeds the graded basis degree cap")
    if i_max < 0 or j_max < 0:
        raise InputError("bounds must be nonnegative")
    if any(g.degree() <= 1 for g in A.presentation.generators):
        raise InputError("presentation has generators of degree <= 1; "
                         "substitute them away first")
    F = field_of_characteristic(characteristic)
    table = A.table
    width = A.width
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for j in range(1, j_max + 1):
        entries[(0, j)] = 0

    def finished(ent) -> BettiTable:
        return BettiTable(ent, i_max, j_max, characteristic)

    if i_max == 0:
        return finished(entries)

    # F_1 = A(-1)^width with e_v -> y_v; images live in F_0 = A
    state0 = _ResolutionState([0])
    gens_deg = [1] * width
    gen_images: list[tuple[int, dict]] = []
    for v in range(width):
        col = table.action[0][v][0]
        vec = {row: F.convert(c) for row, c in col.items()}
        gen_images.append((1, vec))
    for j in range(j_max + 1):
        entries[(1, j)] = width if j == 1 else 0
    prev_state = state0

    for i in range(1, i_max):
        # kernel of F_i -> F_{i-1}, degree by degree
        state = _ResolutionState([d for d, _ in gen_images])
        min_gen_degree = min((d for d, _ in gen_images), default=j_max + 1)
        kernel_by_degree: dict[int, list[dict]] = {}
        new_gens: list[tuple[int, dict]] = []
        aborted = False
        for j in range(min_gen_degree, j_max + 1):
            # columns of the map in degree j: for each generator g and each
            # basis monomial u of A in degree j - deg(g), the image u * v_g,
            # computed by one variable step from a lower-degree column
            cols: list[dict] = []
            col_cache: dict[tuple[int, tuple[int, ...]], dict] = {}
            src_layout = state.layout(table, j)
            for g, (d_g, img) in enumerate(gen_images):
                e = j - d_g
                if e < 0 or src_layout[g][1] == 0:
                    continue
                for bi, mono in enumerate(table.bases[e]):
                    cols.append(_image_column(table, prev_state, col_cache,
                                              g, d_g, img, mono, F))
            kernel = Eliminator(F).kernel_of_columns(cols)
            # kernel coords index columns; re-express over the standard layout
            flat_kernel = []
            col_flat: list[int] = []
            for g, (off, dim) in enumerate(src_layout):
                col_flat.extend(range(off, off + dim))
            for vec in kernel:
                flat_kernel.append({col_flat[c]: v for c, v in vec.items()})
            kernel_by_degree[j] = flat_kernel
            # minimal generators: kernel modulo variables * (lower kernel)
            span = Eliminator(F)
            for lower in kernel_by_degree.get(j - 1, ()):
                for v in range(width):
                    prod = _multiply_by_variable(table, state, v, j - 1, lower, F)
                    if prod:
                        span.insert(prod)
            fresh = 0
            for vec in flat_kernel:
                if span.insert(vec):
                    fresh += 1
                    new_gens.append((j, vec))
            entries[(i + 1, j)] = fresh
            if stop_at_first_offdiagonal and j != i + 1 and fresh:
                aborted = True
                break
        for j in range(0, min_gen_degree):
            entries[(i + 1, j)] = 0
        if aborted:
            pruned = {k: v for k, v in entries.items() if k[0] <= i + 1}
            return finished(pruned)
        prev_state = state
        gen_images = new_gens
        if not gen_images:
            for ii in range(i + 2, i_max + 1):
                for j in range(j_max + 1):
                    entries[(ii, j)] = 0
            break
    return finished(entries)


def _image_column(table: MultiplicationTable, prev_state: _ResolutionState,
                  cache: dict, g: int, d_g: int, img: dict, mono, F) -> dict:
    """img * mono in F_{i-1}, built one variable at a time with caching."""
    if not any(mono):
        return img
    key = (g, mono)
    hit = cache.get(key)
    if hit is not None:
        return hit
    v = next(i for i, e in enumerate(mono) if e)
    smaller = list(mono)
    smaller[v] -= 1
    smaller = tuple(smaller)
    base = _image_column(table, prev_state, cache, g, d_g, img, smaller, F)
    deg = d_g + sum(smaller)
    out = _multiply_by_variable(table, prev_state, v, deg, base, F)
    cache[key] = out
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
    i_max: int = DEFAULT_BETTI_BOUNDS[0]
    j_max: int = DEFAULT_BETTI_BOUNDS[1]
    characteristic: int = 0
    use_qgb_shortcut: bool = True
    direct: bool = False  # resolve over R itself instead of a reduction
    stop_at_first_offdiagonal: bool = True
    spair_cap: int = DEFAULT_SPAIR_CAP
    marking_cap: int = 2 ** 20
    qgb_exists: bool | None = None  # precomputed decision, if available
    reduction: IdealPresentation | None = None  # precomputed artinian ring


def artinian_reduction(pres: IdealPresentation,
                       spair_cap: int = DEFAULT_SPAIR_CAP) -> IdealPresentation | None:
    """Quotient by a full linear system of parameters, if one is found."""
    hd = hilbert_series(pres, spair_cap=spair_cap)
    found = find_regular_linear_system(pres, hd.krull_dim, spair_cap=spair_cap)
    if found is None:
        return None
    return found[1]


def koszul_verdict(ideal: ToricIdeal | IdealPresentation,
                   config: KoszulConfig | None = None) -> KoszulVerdict:
    """Decide Koszulness as far as the configured bounds allow.

    Pipeline: a quadratic Groebner basis (canonical order first, then the
    exhaustive marking search unless disabled) proves Koszulness; otherwise
    the Betti table of the artinian reduction (or of the ring itself in
    direct mode) is computed up to the bounds, refuting Koszulness on the
    first off-diagonal entry and otherwise reporting KoszulUpToBound.  A
    marking search that hits a resource cap is skipped, and the note says so.
    """
    config = config or KoszulConfig()
    pres = ideal.presentation if isinstance(ideal, ToricIdeal) else ideal
    skipped = ""
    if config.use_qgb_shortcut:
        gb = reduced_gb(pres, TermOrder.grevlex(pres.width),
                        spair_cap=config.spair_cap)
        if gb.is_quadratic:
            return KoszulVerdict("KoszulViaQuadraticGB", gb=gb,
                                 characteristic=config.characteristic,
                                 note="canonical grevlex basis is quadratic")
        exists = config.qgb_exists
        if exists is None and isinstance(ideal, ToricIdeal):
            from .qgb import decide_quadratic_gb
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
        elif exists:
            return KoszulVerdict("KoszulViaQuadraticGB",
                                 characteristic=config.characteristic,
                                 note="caller-supplied quadratic-basis decision")

    target = pres
    note = "betti table over the ring itself"
    if not config.direct:
        reduction = config.reduction
        if reduction is None:
            reduction = artinian_reduction(pres, spair_cap=config.spair_cap)
        if reduction is not None and reduction.generators:
            target = reduction
            note = "betti table over the artinian reduction"
        else:
            note = ("betti table over the ring itself "
                    "(no linear system of parameters found)")
    A = graded_basis(target, degree_cap=max(config.j_max, 1),
                     spair_cap=config.spair_cap)
    table = betti_table(A, config.i_max, config.j_max,
                        characteristic=config.characteristic,
                        stop_at_first_offdiagonal=config.stop_at_first_offdiagonal)
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
