"""Graph construction, transforms, stable sets, classification, enumeration."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulforge.errors import InputError, ResourceCapError
from koszulforge.cli import main
from koszulforge.graphs import (EDGE_CAP, STABLE_SET_CAP, Graph,
                                are_isomorphic, classify, complement,
                                complete, cycle, enumerate_graphs, graph,
                                graph_from_json, has_transitive_orientation,
                                induced, is_bipartite, parse_graph, path,
                                stable_sets, union)


def brute_force_stable_sets(g):
    """Independent oracle: check every subset directly."""
    out = []
    for r in range(g.n + 1):
        for subset in itertools.combinations(range(1, g.n + 1), r):
            if all(not g.has_edge(i, j)
                   for i, j in itertools.combinations(subset, 2)):
                out.append(subset)
    return sorted(out, key=lambda s: (len(s), s))


def test_graph_validation():
    with pytest.raises(InputError):
        graph(3, [(1, 1)])
    with pytest.raises(InputError):
        graph(3, [(0, 2)])
    with pytest.raises(InputError):
        graph(3, [(2, 4)])
    g = graph(3, [(2, 1), (1, 2)])  # normalizes and dedups
    assert g.edges == frozenset({(1, 2)})


def test_a_boolean_vertex_is_rejected(capsys):
    # a JSON boolean is a Python int, but not a vertex
    with pytest.raises(InputError):
        graph(3, [(True, 3)])
    with pytest.raises(InputError):
        parse_graph('{"n": 3, "edges": [[true, 3], [2, 3]]}')
    assert main(["stable-sets", '{"n": 3, "edges": [[true, 3], [2, 3]]}']) == 1
    assert capsys.readouterr().err.startswith("error: bad edge")


def test_a_boolean_vertex_count_is_rejected(capsys):
    with pytest.raises(InputError):
        graph(True, [])
    with pytest.raises(InputError):
        parse_graph('{"n": true, "edges": []}')
    assert main(["analyze", '{"n": true, "edges": []}']) == 1
    assert capsys.readouterr().err.startswith("error: bad vertex count True")


def test_parse_families():
    assert parse_graph("cycle(7)").n == 7
    assert len(parse_graph("cycle(7)").edges) == 7
    assert len(parse_graph("complete(5)").edges) == 10
    assert len(parse_graph("path(4)").edges) == 3
    g = parse_graph("complement(cycle(7))")
    assert g.n == 7 and len(g.edges) == 21 - 7


def test_parse_nested_and_union():
    g = parse_graph("union(cycle(5), complete(1))")
    assert g.n == 6 and len(g.edges) == 5
    gg = parse_graph("complement(complement(cycle(6)))")
    assert gg == cycle(6)


def test_parse_paper_terms():
    g1 = parse_graph("paper:G1")
    assert g1.n == 6
    assert g1.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                  (1, 6), (1, 5), (2, 6)})
    fam1 = parse_graph("paper:family(1)")
    assert fam1.n == 9
    comp = complement(fam1)
    assert comp.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                    (6, 7), (1, 7), (8, 9)})
    cb = parse_graph("paper:cbar(3)")
    assert cb == complement(cycle(7))


def test_parse_errors():
    for bad in ("", "cycle(2)", "paper:cbar(2)", "paper:family(0)",
                "triangle(3)", "cycle(3) extra", "paper:G9",
                '{"n": 2, "edges": [[1]]}', '{"n": 2, "edges": 5}',
                '{"n": 2, "edges": [[1, 2.0]]}', '{"n": 2, "edges": [["1", "2"]]}',
                '{"n": ' + "[" * 100000, "1 \u00b2", "cycle(\u00b3)",
                "1 " + "9" * 5000):
        with pytest.raises(InputError):
            parse_graph(bad)


def test_parse_json_and_edge_text():
    g = parse_graph('{"n": 4, "edges": [[1, 2], [3, 4]]}')
    assert g.n == 4 and g.edges == frozenset({(1, 2), (3, 4)})
    g2 = parse_graph("1 2\n# a comment\n2 3\n")
    assert g2.n == 3 and len(g2.edges) == 2
    with pytest.raises(InputError):
        parse_graph('{"n": 2, "edges": [[1, 5]]}')
    assert graph_from_json({"n": 2, "edges": []}).n == 2


@pytest.mark.parametrize("spec, message", [
    ("complete(1500)", f"1124250 edges exceed the cap {EDGE_CAP}"),
    ("complement(path(400))", f"79401 edges exceed the cap {EDGE_CAP}"),
    ("cycle(300000)", f"300000 edges exceed the cap {EDGE_CAP}"),
    ('{"n": 300000, "edges": []}',
     f"300000 vertices has more than {STABLE_SET_CAP} stable sets"),
    ("1 2\n2 300000", f"300000 vertices has more than {STABLE_SET_CAP}"),
])
def test_parse_graph_caps_vertices_and_edges(capsys, spec, message):
    with pytest.raises(ResourceCapError, match=message):
        parse_graph(spec)
    assert main(["stable-sets", spec]) == 2
    assert message in capsys.readouterr().err


def test_a_cut_off_term_is_malformed_before_its_cap(capsys):
    # the closing ')' is read before the builder runs
    assert main(["stable-sets", "complete(400"]) == 1
    assert "expected ')'" in capsys.readouterr().err
    assert main(["stable-sets", "complete(400)"]) == 2
    assert f"79800 edges exceed the cap {EDGE_CAP}" in capsys.readouterr().err


def test_graph_caps_admit_their_bounds():
    assert len(complete(362).edges) == 65341 <= EDGE_CAP
    with pytest.raises(ResourceCapError):
        complete(363)
    assert parse_graph(f'{{"n": {STABLE_SET_CAP}, "edges": []}}').n \
        == STABLE_SET_CAP
    edges = json.dumps([[1, 2]] * (EDGE_CAP + 1))
    with pytest.raises(ResourceCapError):
        parse_graph(f'{{"n": 2, "edges": {edges}}}')


# small sizes only: every family term builds its whole edge set
dsl_leaves = st.one_of(
    st.builds("{}({})".format,
              st.sampled_from(["cycle", "complete", "path", "paper:cbar",
                               "paper:family", "triangle"]),
              st.integers(min_value=-1, max_value=5)),
    st.sampled_from(["paper:G1", "paper:G5", "paper:G9", "paper:"]))
dsl_terms = st.recursive(
    dsl_leaves,
    lambda inner: st.one_of(
        st.builds("complement({})".format, inner),
        st.builds("union({},{})".format, inner, inner)),
    max_leaves=4)
# a well-formed term with one character inserted or the tail cut off
mutated_dsl = st.builds(
    lambda term, at, ch, cut: (term[:at] + ch + term[at:])[:len(term) + 1 - cut],
    dsl_terms, st.integers(min_value=0, max_value=40),
    st.sampled_from(list("(),: 1x")), st.integers(min_value=0, max_value=3))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(min_value=-2, max_value=6),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=10)
json_specs = st.one_of(
    st.fixed_dictionaries({"n": json_values, "edges": json_values}),
    st.dictionaries(st.sampled_from(["n", "edges", "x"]), json_values),
).map(json.dumps)
edge_texts = st.lists(
    st.lists(st.sampled_from(["0", "1", "2", "3", "12", "x", "-1",
                              "\u00b2", "#"]), max_size=3).map(" ".join),
    min_size=1, max_size=4).map("\n".join)
graph_specs = st.one_of(st.text(max_size=20), dsl_terms, mutated_dsl,
                        json_specs, edge_texts)


@given(graph_specs)
@settings(max_examples=400, deadline=None)
def test_parse_graph_fails_only_with_input_error(spec):
    try:
        g = parse_graph(spec)
    except InputError:
        return
    assert isinstance(g, Graph)


def test_transforms():
    g = cycle(5)
    assert complement(complement(g)) == g
    assert induced(cycle(5), [1, 2, 3, 4]) == path(4)
    h = union(path(2), path(3))
    assert h.n == 5
    assert (4, 5) in h.edges and (1, 2) in h.edges
    with pytest.raises(InputError):
        induced(g, [0, 1])
    # the pentagon's complement is the pentagon again
    assert are_isomorphic(complement(cycle(5)), cycle(5))


def test_g3_complement_is_hexagon():
    assert are_isomorphic(complement(parse_graph("paper:G3")), cycle(6))
    assert is_bipartite(complement(parse_graph("paper:G3")))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_stable_sets_against_brute_force(n):
    for g in (cycle(max(n, 3)), complete(n), path(n)):
        fam = stable_sets(g)
        assert list(fam.sets) == brute_force_stable_sets(g)


def test_stable_sets_cycle5():
    fam = stable_sets(cycle(5))
    assert len(fam.sets) == 11
    assert fam.alpha == 2


def test_stable_sets_complete():
    fam = stable_sets(complete(6))
    assert list(fam.sets) == [()] + [(i,) for i in range(1, 7)]
    assert fam.alpha == 1


def test_stable_sets_odd_cycle_complements():
    for k in range(3, 9):
        fam = stable_sets(parse_graph(f"paper:cbar({k})"))
        assert len(fam.sets) == 4 * k + 3
        assert fam.alpha == 2
        # the sets are exactly the empty set, singletons, and cyclic pairs
        n = 2 * k + 1
        pairs = {s for s in fam.sets if len(s) == 2}
        assert pairs == {(i, i + 1) for i in range(1, n)} | {(1, n)}


def test_stable_sets_every_pair_is_nonedge():
    for spec in ("paper:G1", "paper:G2", "paper:G5", "cycle(6)"):
        g = parse_graph(spec)
        for s in stable_sets(g).sets:
            for i, j in itertools.combinations(s, 2):
                assert not g.has_edge(i, j)


def test_classify_cycle5():
    flags = classify(cycle(5))
    assert not flags.bipartite
    assert flags.almost_bipartite
    assert not flags.comparability
    assert not flags.perfect


def test_classify_cbar7():
    flags = classify(parse_graph("complement(cycle(7))"))
    assert not flags.perfect
    assert not flags.comparability
    assert not flags.almost_bipartite
    assert not flags.complement_bipartite


def test_classify_complete4():
    flags = classify(complete(4))
    assert not flags.bipartite
    assert flags.comparability
    assert flags.perfect
    assert flags.max_cliques_equicardinal


def test_classify_bipartite_implications():
    for spec in ("path(5)", "cycle(6)", "complete(3)", "paper:G2", "cycle(5)"):
        flags = classify(parse_graph(spec))
        if flags.bipartite:
            assert flags.almost_bipartite and flags.perfect
        if flags.comparability:
            assert flags.perfect


def test_classify_complement_flag_consistency():
    for spec in ("cycle(5)", "paper:G3", "complete(4)"):
        g = parse_graph(spec)
        assert classify(g).complement_bipartite == classify(complement(g)).bipartite


def _two_colourings(g, pairs):
    """Every 2-colouring of the vertices under which each pair is bichromatic."""
    for colour in itertools.product((0, 1), repeat=g.n):
        if all(colour[i - 1] != colour[j - 1] for i, j in pairs):
            yield colour


def _is_transitive(arcs):
    return all((a, d) in arcs
               for a, b in arcs for c, d in arcs if b == c and a != d)


def test_classify_flags_match_their_definitions():
    # independent oracles, on every graph with at most 6 vertices
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            vs = range(1, n + 1)
            edges = sorted(g.edges)
            nonedges = [e for e in itertools.combinations(vs, 2)
                        if e not in g.edges]
            comparability = any(
                _is_transitive({(i, j) if (k >> x) & 1 else (j, i)
                                   for x, (i, j) in enumerate(edges)})
                for k in range(1 << len(edges)))

            def is_clique(s):
                return all(g.has_edge(i, j)
                           for i, j in itertools.combinations(s, 2))

            def is_stable(s):
                return not any(g.has_edge(i, j)
                               for i, j in itertools.combinations(s, 2))

            subsets = [s for r in range(n + 1)
                       for s in itertools.combinations(vs, r)]
            # Lovasz: perfect iff omega(H) * alpha(H) >= |V(H)| for every
            # induced subgraph H
            perfect = all(
                max(len(t) for r in range(len(s) + 1)
                    for t in itertools.combinations(s, r) if is_clique(t))
                * max(len(t) for r in range(len(s) + 1)
                      for t in itertools.combinations(s, r) if is_stable(t))
                >= len(s) for s in subsets)
            maximal = [s for s in subsets if is_clique(s) and not any(
                is_clique(s + (v,)) for v in vs if v not in s)]
            expected = {
                "bipartite": any(_two_colourings(g, edges)),
                "almost_bipartite": any(
                    any(_two_colourings(g, [e for e in edges if v not in e]))
                    for v in vs),
                "comparability": comparability,
                "perfect": perfect,
                "complement_bipartite": any(_two_colourings(g, nonedges)),
                "max_cliques_equicardinal": len({len(s) for s in maximal}) == 1,
            }
            assert classify(g).to_json() == expected, g.to_json()


def test_comparability_of_a_large_complete_block_is_decided_at_once():
    # an orientation search grows by about 9x per vertex of the block
    assert not has_transitive_orientation(
        parse_graph("union(complete(7), cycle(5))"))
    assert has_transitive_orientation(
        parse_graph("union(complete(7), cycle(6))"))


def test_classify_size_cap():
    with pytest.raises(ResourceCapError):
        classify(complete(13))


# OEIS A000088
@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34),
                                     (7, 1044)])
def test_enumerate_counts(n, count):
    assert len(enumerate_graphs(n)) == count


def test_enumerate_counts_n6():
    assert len(enumerate_graphs(6)) == 156


def test_enumerate_matches_brute_force_dedup_n4():
    # oracle: dedup all 2^6 edge sets by permutation-search isomorphism
    pairs = list(itertools.combinations(range(1, 5), 2))
    reps: list[Graph] = []
    for bits in range(1 << 6):
        g = graph(4, [pairs[i] for i in range(6) if (bits >> i) & 1])
        if not any(are_isomorphic(g, h) for h in reps):
            reps.append(g)
    assert len(reps) == len(enumerate_graphs(4)) == 11


def test_enumerate_pairwise_noniso_n5():
    graphs5 = enumerate_graphs(5)
    for g, h in itertools.combinations(graphs5, 2):
        assert not are_isomorphic(g, h)


def test_enumerate_is_deterministic():
    a = [g.to_json() for g in enumerate_graphs(4)]
    b = [g.to_json() for g in enumerate_graphs(4)]
    assert a == b


def test_enumerate_range_check():
    with pytest.raises(InputError):
        enumerate_graphs(0)
    with pytest.raises(InputError):
        enumerate_graphs(8)


def test_alpha_one_iff_complete():
    for spec in ("complete(2)", "complete(5)", "cycle(4)", "path(3)",
                 "paper:G2"):
        g = parse_graph(spec)
        fam = stable_sets(g)
        is_complete = len(g.edges) == g.n * (g.n - 1) // 2
        assert (fam.alpha == 1) == is_complete
