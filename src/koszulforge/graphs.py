"""Finite simple graphs: construction, transforms, classification, enumeration.

Vertices are 1..n.  Everything here is exact, intended for the small graphs
the stable-set pipeline consumes (n up to ~20 for stable set enumeration,
~12 for classification, 7 for isomorphism-free listing).  Comparability is
decided in polynomial time by Gallai's implication classes; the other
classes by brute force over vertex bitmasks.  The isomorphism-free listing
extends each class on n - 1 vertices by one vertex in every way.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

from .errors import InputError, ResourceCapError

Edge = tuple[int, int]

# the most stable sets stable_sets lists; cycle(24) has 103682
STABLE_SET_CAP = 2 ** 18
# the most edges a graph may have; complete(362), with 65341 edges, is the
# largest complete graph under it
EDGE_CAP = 2 ** 16


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("graph needs at least one vertex")
        if self.n > STABLE_SET_CAP:  # the empty set and n singletons
            raise ResourceCapError(f"a graph on {self.n} vertices has more "
                                   f"than {STABLE_SET_CAP} stable sets")
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.n):
                raise InputError(f"bad edge {e} for n={self.n}")

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def adjacency_masks(self) -> list[int]:
        """Bitmask neighbours; bit v-1 set in masks[u-1] iff {u,v} is an edge."""
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i - 1] |= 1 << (j - 1)
            masks[j - 1] |= 1 << (i - 1)
        return masks

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i - 1] += 1
            deg[j - 1] += 1
        return tuple(deg)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _is_int(v) -> bool:
    """v is an int and not a bool, which Python counts as an int."""
    return isinstance(v, int) and not isinstance(v, bool)


def graph(n: int, edges) -> Graph:
    """Normalizing constructor: sorts endpoints, rejects loops and duplicates."""
    if not _is_int(n):
        raise InputError(f"bad vertex count {n!r}: expected an integer")
    norm = set()
    for e in edges:
        if not (isinstance(e, (tuple, list)) and len(e) == 2
                and all(map(_is_int, e))):
            raise InputError(f"bad edge {e!r}: expected a pair of vertices")
        i, j = e
        if i == j:
            raise InputError(f"loop at vertex {i}")
        norm.add((min(i, j), max(i, j)))
    return Graph(n, frozenset(norm))


# ---------------------------------------------------------------------------
# families and transforms
# ---------------------------------------------------------------------------

def _check_edges(count: int) -> None:
    """Refuse a graph with more than EDGE_CAP edges before they are built."""
    if count > EDGE_CAP:
        raise ResourceCapError(f"{count} edges exceed the cap {EDGE_CAP}")


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError("complete(n) needs n >= 1")
    _check_edges(n * (n - 1) // 2)
    return graph(n, itertools.combinations(range(1, n + 1), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle(n) needs n >= 3")
    _check_edges(n)
    return graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise InputError("path(n) needs n >= 1")
    _check_edges(n - 1)
    return graph(n, [(i, i + 1) for i in range(1, n)])


def complement(g: Graph) -> Graph:
    _check_edges(g.n * (g.n - 1) // 2 - len(g.edges))
    return graph(g.n, (e for e in itertools.combinations(range(1, g.n + 1), 2)
                       if e not in g.edges))


def union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are relabelled to g.n+1 .. g.n+h.n."""
    _check_edges(len(g.edges) + len(h.edges))
    shifted = [(i + g.n, j + g.n) for i, j in h.edges]
    return graph(g.n + h.n, list(g.edges) + shifted)


def induced(g: Graph, vertices) -> Graph:
    """Induced subgraph, relabelled to 1..k preserving the vertex order."""
    vs = sorted(set(vertices))
    if not vs or vs[0] < 1 or vs[-1] > g.n:
        raise InputError(f"invalid vertex subset {vertices}")
    pos = {v: k + 1 for k, v in enumerate(vs)}
    kept = [(pos[i], pos[j]) for i, j in g.edges if i in pos and j in pos]
    return graph(len(vs), kept)


# Six-vertex fixtures: a hexagon 1..6 plus chords, transcribed from the
# figures; validated indirectly by the acceptance results on their rings.
_HEX = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
PAPER_FIXTURES = {
    "G1": _HEX + [(1, 5), (2, 6)],
    "G2": _HEX + [(2, 4), (2, 6), (4, 6)],
    "G3": _HEX + [(1, 3), (2, 5), (4, 6)],
    "G4": _HEX + [(1, 3), (1, 4), (2, 6)],
    "G5": _HEX + [(1, 4), (2, 4), (3, 5), (4, 6)],
}


def paper_fixture(name: str) -> Graph:
    if name not in PAPER_FIXTURES:
        raise InputError(f"unknown fixture {name!r}")
    return graph(6, PAPER_FIXTURES[name])


def odd_cycle_complement(k: int) -> Graph:
    """The complement of the odd cycle on 2k+1 vertices, k >= 3."""
    if k < 3:
        raise InputError("odd cycle complement needs k >= 3")
    return complement(cycle(2 * k + 1))


def heptagon_matching_family(k: int) -> Graph:
    """Graph on [2k+7] whose complement is C7 on 1..7 plus k disjoint edges
    {8,9}, ..., {2k+6, 2k+7}."""
    if k < 1:
        raise InputError("family graph needs k >= 1")
    n = 2 * k + 7
    _check_edges(k + 7)
    comp = [(i, i + 1) for i in range(1, 7)] + [(1, 7)]
    comp += [(2 * i + 6, 2 * i + 7) for i in range(1, k + 1)]
    return complement(graph(n, comp))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_graph(spec: str) -> Graph:
    """Parse a JSON edge list, an edge-list text, or a family DSL term.

    DSL terms: cycle(n), complete(n), path(n), complement(g), union(g1,g2),
    paper:G1..paper:G5, paper:cbar(k), paper:family(k).  More than
    STABLE_SET_CAP vertices or EDGE_CAP edges raise ResourceCapError.
    """
    text = spec.strip()
    if not text:
        raise InputError("empty graph spec")
    if text.startswith("{"):
        return _graph_from_json_text(text)
    if "\n" in text or _looks_like_edge_lines(text):
        return _graph_from_edge_text(text)
    g, rest = _parse_dsl(text)
    if rest.strip():
        raise InputError(f"trailing input in graph spec: {rest!r}")
    return g


def _looks_like_edge_lines(text: str) -> bool:
    head = text.split("\n", 1)[0].strip()
    parts = head.split()
    return len(parts) == 2 and all(_is_number(p) for p in parts)


def _is_number(text: str) -> bool:
    """A nonempty run of ASCII digits (str.isdigit also accepts digits that
    int() rejects, such as superscripts)."""
    return text.isascii() and text.isdigit()


def _to_int(digits: str) -> int:
    """int() of a digit run, which fails past Python's conversion limit."""
    try:
        return int(digits)
    except ValueError:
        raise InputError(f"a {len(digits)}-digit number is too long") from None


def _graph_from_json_text(text: str) -> Graph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad graph JSON: {exc}") from exc
    return graph_from_json(data)


def graph_from_json(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InputError('graph JSON needs {"n": int, "edges": [[i,j], ...]}')
    if not isinstance(data["edges"], list):
        raise InputError("graph JSON: edges must be a list of pairs")
    _check_edges(len(data["edges"]))
    return graph(data["n"], data["edges"])


def _graph_from_edge_text(text: str) -> Graph:
    edges = []
    top = 0
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(_is_number(p) for p in parts):
            raise InputError(f"bad edge line: {line!r}")
        i, j = _to_int(parts[0]), _to_int(parts[1])
        if i < 1 or j < 1:
            raise InputError(f"vertices must be >= 1: {line!r}")
        top = max(top, i, j)
        edges.append((i, j))
    if not edges:
        raise InputError("edge-list text contains no edges")
    _check_edges(len(edges))
    return graph(top, edges)


# the terms that take one integer argument: its closing ')' is checked
# before the builder runs, so a cut-off term is malformed, not over a cap
_INT_TERMS = (("cycle(", cycle), ("complete(", complete), ("path(", path),
              ("paper:cbar(", odd_cycle_complement),
              ("paper:family(", heptagon_matching_family))


def _parse_dsl(text: str) -> tuple[Graph, str]:
    text = text.lstrip()
    for head, builder in _INT_TERMS:
        if text.startswith(head):
            arg, rest = _parse_int(text[len(head):])
            rest = _expect(rest, ")")
            return builder(arg), rest
    if text.startswith("paper:"):
        rest = text[len("paper:"):]
        for name in PAPER_FIXTURES:
            if rest.startswith(name):
                return paper_fixture(name), rest[len(name):]
        raise InputError(f"unknown paper term: {text!r}")
    if text.startswith("complement("):
        g, rest = _parse_dsl(text[len("complement("):])
        rest = _expect(rest, ")")
        return complement(g), rest
    if text.startswith("union("):
        g1, rest = _parse_dsl(text[len("union("):])
        rest = _expect(rest, ",")
        g2, rest = _parse_dsl(rest)
        rest = _expect(rest, ")")
        return union(g1, g2), rest
    raise InputError(f"cannot parse graph spec: {text!r}")


def _parse_int(text: str) -> tuple[int, str]:
    text = text.lstrip()
    i = 0
    while i < len(text) and _is_number(text[i]):
        i += 1
    if i == 0:
        raise InputError(f"expected an integer at: {text!r}")
    return _to_int(text[:i]), text[i:]


def _expect(text: str, ch: str) -> str:
    text = text.lstrip()
    if not text.startswith(ch):
        raise InputError(f"expected {ch!r} at: {text!r}")
    return text[1:]


# ---------------------------------------------------------------------------
# stable sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableSetFamily:
    graph: Graph
    sets: tuple[tuple[int, ...], ...]
    alpha: int


def stable_sets(g: Graph) -> StableSetFamily:
    """All stable sets in canonical order (cardinality, then lexicographic).

    Exponential in n by nature; more than STABLE_SET_CAP sets raise
    ResourceCapError as soon as the listing passes the cap.
    """
    masks = g.adjacency_masks()
    found: list[tuple[int, ...]] = []

    def extend(current: tuple[int, ...], blocked: int, start: int) -> None:
        found.append(current)
        if len(found) > STABLE_SET_CAP:
            raise ResourceCapError(
                f"more than {STABLE_SET_CAP} stable sets in a graph on "
                f"{g.n} vertices")
        for v in range(start, g.n + 1):
            if not (blocked >> (v - 1)) & 1:
                extend(current + (v,), blocked | masks[v - 1] | (1 << (v - 1)), v + 1)

    extend((), 0, 1)
    found.sort(key=lambda s: (len(s), s))
    alpha = max(len(s) for s in found)
    return StableSetFamily(g, tuple(found), alpha)


def indicator_vector(n: int, subset: tuple[int, ...]) -> tuple[int, ...]:
    """0/1 vector of length n marking the members of the subset."""
    v = [0] * n
    for i in subset:
        v[i - 1] = 1
    return tuple(v)


def maximal_stable_sets(g: Graph) -> list[tuple[int, ...]]:
    masks = g.adjacency_masks()
    fam = stable_sets(g)
    out = []
    for s in fam.sets:
        closed = 0
        for v in s:
            closed |= masks[v - 1] | (1 << (v - 1))
        if all((closed >> (v - 1)) & 1 for v in range(1, g.n + 1)):
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphClassFlags:
    bipartite: bool
    almost_bipartite: bool
    comparability: bool
    perfect: bool
    complement_bipartite: bool
    max_cliques_equicardinal: bool

    def to_json(self) -> dict:
        return asdict(self)


# the largest graph the brute-force classification takes
CLASSIFY_CAP = 12


def classify(g: Graph) -> GraphClassFlags:
    """Membership in the graph classes the pipeline cares about."""
    if g.n > CLASSIFY_CAP:
        raise ResourceCapError(
            f"classify supports n <= {CLASSIFY_CAP} (got n={g.n})")
    comp = complement(g)
    cliques = maximal_stable_sets(comp)
    sizes = {len(c) for c in cliques}
    return GraphClassFlags(
        bipartite=is_bipartite(g),
        almost_bipartite=is_almost_bipartite(g),
        comparability=has_transitive_orientation(g),
        perfect=is_perfect(g),
        complement_bipartite=is_bipartite(comp),
        max_cliques_equicardinal=len(sizes) == 1,
    )


def _members(mask: int):
    """The 0-based vertices of a vertex bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bipartite_within(masks: list[int], within: int) -> bool:
    """The subgraph induced on the vertex bitmask `within` is bipartite.

    Breadth-first from the lowest unvisited vertex, one layer at a time:
    the graph is bipartite iff no edge joins two vertices of one layer."""
    left = within
    while left:
        frontier = left & -left
        while frontier:
            left &= ~frontier
            reach = 0
            for v in _members(frontier):
                reach |= masks[v]
            if reach & frontier:
                return False
            frontier = reach & left
    return True


def is_bipartite(g: Graph) -> bool:
    return _bipartite_within(g.adjacency_masks(), (1 << g.n) - 1)


def is_almost_bipartite(g: Graph) -> bool:
    """Some vertex leaves a bipartite graph behind when it is removed."""
    masks, full = g.adjacency_masks(), (1 << g.n) - 1
    return any(_bipartite_within(masks, full & ~(1 << v)) for v in range(g.n))


def has_transitive_orientation(g: Graph) -> bool:
    """Gallai's criterion: g has a transitive orientation iff no implication
    class of its arcs holds an arc together with its reverse (Golumbic,
    *Algorithmic Graph Theory and Perfect Graphs*, ch. 5).

    Arc (a, b) forces (a, c) when b and c are non-adjacent neighbours of a,
    and (b, a) forces (c, a) likewise.  The classes are kept in a union-find
    over the arcs, numbered a * n + b (0-based)."""
    n = g.n
    masks = g.adjacency_masks()
    parent = list(range(n * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        for b, c in itertools.combinations(_members(masks[a]), 2):
            if not (masks[b] >> c) & 1:
                parent[find(a * n + b)] = find(a * n + c)
                parent[find(b * n + a)] = find(c * n + a)
    return all(find((i - 1) * n + j - 1) != find((j - 1) * n + i - 1)
               for i, j in g.edges)


def _induces_cycle(masks: list[int], within: int) -> bool:
    """The vertex bitmask `within` induces a cycle: each member has exactly
    two neighbours inside it, and it is connected."""
    if any(bin(masks[v] & within).count("1") != 2 for v in _members(within)):
        return False
    reached = within & -within
    while True:
        grown = reached
        for v in _members(reached):
            grown |= masks[v] & within
        if grown == reached:
            return reached == within
        reached = grown


def has_odd_hole(g: Graph) -> bool:
    """An induced odd cycle of length >= 5."""
    masks = g.adjacency_masks()
    return any(_induces_cycle(masks, sum(1 << v for v in vs))
               for size in range(5, g.n + 1, 2)
               for vs in itertools.combinations(range(g.n), size))


def is_perfect(g: Graph) -> bool:
    return not has_odd_hole(g) and not has_odd_hole(complement(g))


# ---------------------------------------------------------------------------
# isomorphism-free enumeration
# ---------------------------------------------------------------------------

def _wl_classes(n: int, masks: list[int]) -> list[list[int]]:
    """1-WL colour classes (0-based vertices), ordered by colour signature."""
    colors = [bin(masks[v]).count("1") for v in range(n)]
    for _ in range(n):
        sigs = []
        for v in range(n):
            neigh = sorted(colors[u] for u in range(n) if (masks[v] >> u) & 1)
            sigs.append((colors[v], tuple(neigh)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return [classes[c] for c in sorted(classes)]


def _canonical_bits(n: int, masks: list[int]) -> int:
    """Lexicographically minimal adjacency bitstring over colour-respecting
    vertex orderings (sound: isomorphic graphs share WL colour signatures)."""
    def bits(order: list[int]) -> int:
        out = 0
        for a in range(n):
            for b in range(a + 1, n):
                out = (out << 1) | ((masks[order[a]] >> order[b]) & 1)
        return out

    # the product is never empty: each class has at least one ordering
    classes = _wl_classes(n, masks)
    return min(bits([v for part in parts for v in part])
               for parts in itertools.product(
                   *(itertools.permutations(c) for c in classes)))


def _graph_from_bits(n: int, bits: int) -> Graph:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    total = len(pairs)
    edges = [pairs[k] for k in range(total) if (bits >> (total - 1 - k)) & 1]
    return graph(n, edges)


def enumerate_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class, deterministic order.

    A graph on k vertices is a graph on k - 1 vertices plus a vertex joined
    to some subset of them, so each class on k vertices arises from a class
    representative on k - 1 vertices and one of its 2^(k-1) neighbourhoods.
    A representative's canonical bits are its own: the order is by edge
    count, then by those bits."""
    if not 1 <= n <= 7:
        raise InputError("enumerate_graphs supports 1 <= n <= 7")
    reps = {0}
    for k in range(1, n):
        grown: set[int] = set()
        for bits in reps:
            base = _graph_from_bits(k, bits).adjacency_masks()
            for nbhd in range(1 << k):
                masks = [m | (((nbhd >> v) & 1) << k) for v, m in enumerate(base)]
                grown.add(_canonical_bits(k + 1, masks + [nbhd]))
        reps = grown
    return [_graph_from_bits(n, bits)
            for bits in sorted(reps, key=lambda b: (bin(b).count("1"), b))]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test (permutation search), for small n."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree_sequence()) != sorted(h.degree_sequence()):
        return False
    hm = h.adjacency_masks()
    for perm in itertools.permutations(range(g.n)):
        ok = True
        for i, j in g.edges:
            if not (hm[perm[i - 1]] >> perm[j - 1]) & 1:
                ok = False
                break
        if ok:
            return True
    return False

