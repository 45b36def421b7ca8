import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import swcactus.cactus as cactus_mod
import swcactus.unigraph as unigraph_mod
from swcactus import (
    ColoredEdge,
    InputStateWalk,
    InputVertex,
    ModelError,
    StateVertex,
    SwitchedStructure,
    build_union_graph,
    generic_rank,
    input_edges_only,
    max_independent_edges,
    parse_system,
    reachable_states,
    restrict_to_color,
    sample_realization,
    walk_violations,
)
from swcactus.unigraph import (
    UnionGraph,
    _rows_into,
    _term_rank_ceiling,
    edge_sort_key,
    format_vertex,
    hopcroft_karp,
    input_search,
    term_rank_ceiling,
)


def _pattern_edges(s):
    """The union graph's edges read straight off the nonzeros, unsorted."""
    edges = []
    for i, (a, b) in enumerate(s.subsystems):
        edges += [ColoredEdge(StateVertex(c), r, i) for r, c in a.nonzeros]
        edges += [ColoredEdge(InputVertex(i, c), r, i) for r, c in b.nonzeros]
    return edges


def test_example1_edges(example1):
    g = build_union_graph(example1)
    assert g.n == 3 and g.colors == 2
    assert g.input_counts == (1, 1)
    assert set(g.edges) == {
        ColoredEdge(InputVertex(0, 0), 0, 0),
        ColoredEdge(StateVertex(0), 1, 0),
        ColoredEdge(StateVertex(0), 2, 1),
    }
    assert len(g.input_vertices) == 2


def test_edges_sorted_canonically(chain10):
    g = build_union_graph(chain10)
    assert list(g.edges) == sorted(g.edges, key=edge_sort_key)


def test_adjacency(example1):
    g = build_union_graph(example1)
    out = g.edges_from(StateVertex(0))
    assert [e.head for e in out] == [1, 2]
    assert g.edges_from(StateVertex(2)) == ()


def test_union_graph_validates():
    with pytest.raises(ModelError):
        UnionGraph(2, (1,), [ColoredEdge(StateVertex(0), 5, 0)])
    with pytest.raises(ModelError):
        UnionGraph(2, (1,), [ColoredEdge(StateVertex(0), 1, 3)])
    with pytest.raises(ModelError):
        # input edges carry their own subsystem's color
        UnionGraph(2, (1, 1), [ColoredEdge(InputVertex(0, 0), 1, 1)])
    with pytest.raises(ModelError):
        UnionGraph(2, (1,), [ColoredEdge(InputVertex(0, 3), 1, 0)])
    with pytest.raises(ModelError):
        UnionGraph(0, (1,), [])
    with pytest.raises(ModelError):
        UnionGraph(2, (), [])


@pytest.mark.parametrize("n, input_counts, edges, message", [
    (2.7, (1,), [], "graph state count must be an integer, got 2.7"),
    (True, (1,), [], "graph state count must be an integer, got True"),
    (2, (1.9,), [], "graph input counts must be an integer, got 1.9"),
    (2, (1, "1"), [], "graph input counts must be integers"),
    (2, (1,), [ColoredEdge(InputVertex(0, 0), True, 0)],
     "edge head and color must be integers"),
    (2, (1,), [ColoredEdge(StateVertex(0), 1, 0.0)],
     "edge head and color must be integers"),
    (2, (1,), [ColoredEdge(InputVertex(0, 0.0), 1, 0)], "edge tail must be integers"),
    (2, (1,), [ColoredEdge(InputVertex(False, 0), 1, 0)], "edge tail must be integers"),
    (2, (1,), [ColoredEdge(StateVertex(1.0), 0, 0)], "edge tail must be an integer")])
def test_union_graph_refuses_values_that_are_not_indices(n, input_counts, edges,
                                                         message):
    # int() would have built a 2-state graph from 2.7 and (1.9,); a range
    # check alone would have listed an edge with head True
    with pytest.raises(ModelError, match=re.escape(message)):
        UnionGraph(n, input_counts, edges)


def test_union_graph_refuses_negative_input_counts_and_non_vertex_tails():
    # a count of -1 gave a graph of width 1, whose state and input row ids
    # overlap; a tuple tail raised a bare TypeError from ``astuple``
    with pytest.raises(ModelError, match=re.escape(
            "graph input counts must not be negative, got (-1,)")):
        UnionGraph(2, (-1,), [])
    with pytest.raises(ModelError, match=re.escape(
            "graph input counts must not be negative, got (1, -2)")):
        UnionGraph(2, (1, -2), [])
    with pytest.raises(ModelError,
                       match=re.escape("edge tail must be a vertex, got (0,)")):
        UnionGraph(2, (1,), [ColoredEdge((0,), 1, 0)])


def test_union_graph_reads_numpy_integers():
    i = np.int64
    g = UnionGraph(i(2), (i(1),), [ColoredEdge(InputVertex(i(0), i(0)), i(1), i(0)),
                                   ColoredEdge(StateVertex(i(1)), i(0), i(0))])
    assert list(g.edges) == [ColoredEdge(InputVertex(0, 0), 1, 0),
                             ColoredEdge(StateVertex(1), 0, 0)]
    assert type(g.n) is int and all(type(m) is int for m in g.input_counts)
    assert all(type(e.head) is int and type(e.color) is int
               and type(e.tail.index) is int for e in g.edges)


def test_subgraphs_copy_the_parent_shape(boost, monkeypatch):
    # a subgraph's shape is its parent's, already validated; only its memo
    # is its own
    g = build_union_graph(boost)

    def refused(*args):
        raise AssertionError("shape validated again")
    monkeypatch.setattr(UnionGraph, "_shape", refused)
    subs = [restrict_to_color(g, c) for c in range(g.colors)]
    subs.append(input_edges_only(g))
    for sub in subs:
        assert (sub.n, sub.input_counts, sub.colors, sub._input_base,
                sub._inputs, sub._width) == (g.n, g.input_counts, g.colors,
                                             g._input_base, g._inputs, g._width)
        assert sub._memo == {} and sub._memo is not g._memo
    assert len(subs[0].edges) + len(subs[1].edges) == len(g.edges)


def test_format_vertex():
    assert format_vertex(StateVertex(2)) == "x3"
    assert format_vertex(InputVertex(1, 0)) == "u2.1"


def test_reachable(example1, chain10):
    assert reachable_states(build_union_graph(example1)) == frozenset({0, 1, 2})
    assert reachable_states(build_union_graph(chain10)) == frozenset(range(10))


def test_reachable_partial():
    s = helpers.parse_system(
        '{"n": 3, "subsystems": [{"A": [[3, 3]], '
        '"B": {"cols": 1, "nonzeros": [[1, 1]]}}]}')
    assert reachable_states(build_union_graph(s)) == frozenset({0})


def test_grank_example1(example1):
    g = build_union_graph(example1)
    chosen = max_independent_edges(g)
    assert len(chosen) == 3
    assert helpers.is_independent(chosen)
    assert generic_rank(g) == 3


def test_grank_chain10(chain10):
    assert generic_rank(build_union_graph(chain10)) == 9


def test_allowed_heads_restriction(chain10):
    g = build_union_graph(chain10)
    chosen = helpers.matched_edges(g, range(5))
    assert {e.head for e in chosen} <= set(range(5))
    assert len(chosen) == 5


def test_matching_deterministic(chain10):
    g = build_union_graph(chain10)
    assert max_independent_edges(g) == max_independent_edges(g)


def test_restrict_to_color(chain10):
    g = build_union_graph(chain10)
    g1 = restrict_to_color(g, 0)
    assert all(e.color == 0 for e in g1.edges)
    assert len(g1.edges) == 8
    assert g1.n == g.n and g1.input_counts == g.input_counts
    with pytest.raises(ModelError):
        restrict_to_color(g, 5)


@pytest.mark.parametrize("color", [True, 0.0, 1.5, "0"])
def test_restrict_to_color_refuses_a_color_that_is_not_an_index(chain10, color):
    # True would have read as color index 1 and 0.0 as color 0
    with pytest.raises(ModelError, match="color must be an integer"):
        restrict_to_color(build_union_graph(chain10), color)


def test_one_color_graph_is_its_own_slice(example1):
    a, b = example1.subsystems[0]
    g = build_union_graph(SwitchedStructure(n=example1.n, subsystems=((a, b),)))
    assert restrict_to_color(g, 0) is g
    assert g._memo == {}
    with pytest.raises(ModelError):
        restrict_to_color(g, 1)


def test_input_edges_only(example1):
    g = input_edges_only(build_union_graph(example1))
    assert len(g.edges) == 1
    assert isinstance(g.edges[0].tail, InputVertex)


def test_matching_against_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(60):
        s = helpers.sparse_structure(rng, max_n=4, max_colors=3, max_edges=9)
        g = build_union_graph(s)
        assert len(max_independent_edges(g)) == helpers.brute_max_independent(g)


def test_grank_matches_realized_rank():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = helpers.random_structure(rng, max_n=4)
        g = build_union_graph(s)
        assert generic_rank(g) == helpers.concat_rank(s, seed=11)


def test_walk_construction():
    w = InputStateWalk(source=InputVertex(0, 0), states=(0, 1), colors=(0, 1))
    assert w.length == 2 and w.end == 1
    from_numpy = InputStateWalk(InputVertex(0, 0), (np.int64(0), np.int32(1)),
                                (np.uint8(0), np.int64(1)))
    assert from_numpy == w
    assert all(type(v) is int for v in from_numpy.states + from_numpy.colors)
    with pytest.raises(ModelError):
        InputStateWalk(source=InputVertex(1, 0), states=(0,), colors=(0,))
    with pytest.raises(ModelError):
        InputStateWalk(source=InputVertex(0, 0), states=(), colors=())
    with pytest.raises(ModelError):
        InputStateWalk(source=InputVertex(0, 0), states=(0, 1), colors=(0,))


@pytest.mark.parametrize("states, colors", [
    ((1.7, 2), (0, 0)), ((1, "2"), (0, 0)), ((1, 2), (0, 0.9)),
    ((True, 2), (0, 0)), ((1, 2), (False, 0)), ((np.float64(1.0),), (0,))])
def test_walk_refuses_entries_that_are_not_indices(states, colors):
    # int() would have read 1.7 as 1, "2" as 2 and True as 1
    with pytest.raises(ModelError, match="walk states and colors must be integers"):
        InputStateWalk(source=InputVertex(0, 0), states=states, colors=colors)


def test_walk_violations(example1):
    g = build_union_graph(example1)
    good = InputStateWalk(source=InputVertex(0, 0), states=(0, 2), colors=(0, 1))
    assert walk_violations(good, g) == ()
    bad = InputStateWalk(source=InputVertex(0, 0), states=(0, 2), colors=(0, 0))
    problems = walk_violations(bad, g)
    assert len(problems) == 1 and "step 2" in problems[0]
    outside = InputStateWalk(source=InputVertex(0, 0), states=(7,), colors=(0,))
    assert any("outside" in p for p in walk_violations(outside, g))


def test_edge_lookup_matches_out_edges():
    # every (tail, head, color) triple, inputs of every subsystem and one
    # past the last input index included, against the tail's out-edges
    rng = np.random.default_rng(47)
    for _ in range(60):
        g = build_union_graph(helpers.random_structure(rng, max_n=5, density=0.4))
        tails = [StateVertex(v) for v in range(g.n)] + [
            InputVertex(i, k) for i in range(g.colors)
            for k in range(g.input_counts[i] + 1)]
        for tail in tails:
            out = g.edges_from(tail)
            for head in range(g.n):
                for color in range(g.colors):
                    e = ColoredEdge(tail, head, color)
                    assert g._has_edge(e) == (e in out)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_independence_property(seed):
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=5)
    g = build_union_graph(s)
    chosen = max_independent_edges(g)
    assert helpers.is_independent(chosen)
    assert set(chosen) <= set(g.edges)
    # restricting heads can never increase the matching
    sub = helpers.matched_edges(g, range(g.n - 1))
    assert len(sub) <= len(chosen)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=1, max_value=12),
       st.sampled_from([0.1, 0.2, 0.3, 0.5]))
def test_matching_equals_reference(seed, max_n, density):
    # whole edge tuples, not sizes: the ties must break the same way
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=max_n, density=density)
    g = build_union_graph(s)
    allowed = [h for h in range(g.n) if rng.random() < 0.7]
    for graph in (g, *(restrict_to_color(g, c) for c in range(g.colors))):
        assert max_independent_edges(graph) == helpers.ref_max_independent_edges(graph)
        assert (helpers.matched_edges(graph, allowed)
                == helpers.ref_max_independent_edges(graph, allowed_heads=allowed))


@pytest.mark.parametrize("seed, n, modes", [(1, 40, 3), (2, 60, 2), (3, 80, 6)])
def test_matching_equals_reference_wide(seed, n, modes):
    g = build_union_graph(helpers.wide_structure(seed, n, modes))
    banned = set(range(0, n, 7))
    allowed = [h for h in range(n) if h not in banned]
    assert max_independent_edges(g) == helpers.ref_max_independent_edges(g)
    assert (helpers.matched_edges(g, allowed)
            == helpers.ref_max_independent_edges(g, allowed_heads=allowed))


def _candidate_rows(g, allowed):
    """The positions of the rows holding an allowed head, ascending."""
    return [k for k, heads in enumerate(g._adj) if not allowed.isdisjoint(heads)]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from([0.1, 0.3, 0.5]))
def test_every_scan_list_gives_the_reference_matching(seed, density):
    # the cold start forced to scan every row, then only the rows holding
    # an allowed head, on any allowed set from none to every head: whole
    # edge tuples, so ties break alike, and no other row is ever matched
    rng = np.random.default_rng(seed)
    g = build_union_graph(helpers.random_structure(rng, max_n=12, density=density))
    keep = rng.random()
    allowed = [h for h in range(g.n) if rng.random() < keep]
    expected = helpers.ref_max_independent_edges(g, allowed_heads=allowed)
    candidates = _candidate_rows(g, set(allowed))
    for scan in (None, candidates):
        with pytest.MonkeyPatch.context() as mp:
            calls = helpers.spy_kernel(mp, unigraph_mod, scan=scan)
            assert helpers.matched_edges(g, allowed) == expected
        assert all({k for k, h in enumerate(call.result) if h >= 0} <= set(candidates)
                   for call in calls)


@pytest.mark.parametrize("seed, n, modes", [(1, 100, 3), (2, 250, 2), (3, 400, 3)])
def test_matching_size_matches_networkx(seed, n, modes):
    nx = pytest.importorskip("networkx")
    g = build_union_graph(helpers.wide_structure(seed, n, modes))
    allowed = frozenset(h for h in range(n) if h % 5)
    for heads_ok in (None, allowed):
        bip = nx.Graph()
        lefts = set()
        for e in g.edges:
            if heads_ok is None or e.head in heads_ok:
                lefts.add(("row", e.tail, e.color))
                bip.add_edge(("row", e.tail, e.color), ("head", e.head))
        size = len(nx.bipartite.maximum_matching(bip, top_nodes=lefts)) // 2
        chosen = helpers.matched_edges(g, heads_ok)
        assert len(chosen) == size
        assert helpers.is_independent(chosen)
        assert heads_ok is None or {e.head for e in chosen} <= heads_ok


def test_derived_results_are_kept(chain10):
    g = build_union_graph(chain10)
    assert reachable_states(g) is reachable_states(g)
    assert restrict_to_color(g, 1) is restrict_to_color(g, 1)
    term_rank_ceiling(g)
    assert (_term_rank_ceiling,) in g._memo
    sub = restrict_to_color(g, 1)
    assert list(sub.edges) == [e for e in g.edges if e.color == 1]


def test_edge_accessors_agree_with_edges():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = build_union_graph(
            helpers.sparse_structure(rng, max_n=6, max_colors=3, max_edges=14))
        edges = list(g.edges)
        for v in (*g.input_vertices, *(StateVertex(k) for k in range(g.n))):
            assert g.edges_from(v) == tuple(e for e in edges if e.tail == v)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from([0.1, 0.3, 0.6]))
def test_pattern_rows_match_public_constructor(seed, density):
    # whole edge tuples: the rows taken from the pattern columns must equal
    # the graph the public constructor builds from the same edge list
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=7, density=density)
    edges = _pattern_edges(s)
    expected = sorted(edges, key=edge_sort_key)
    rng.shuffle(edges)
    g = build_union_graph(s)
    ref = UnionGraph(s.n, s.input_counts, edges)
    assert tuple(g.edges) == tuple(ref.edges) == tuple(expected)
    assert len(g.edges) == len(ref.edges) == len(expected)
    for c in range(g.colors):
        mine, theirs = restrict_to_color(g, c), restrict_to_color(ref, c)
        assert (tuple(mine.edges) == tuple(theirs.edges)
                == tuple(e for e in expected if e.color == c))
        assert len(mine.edges) == len(theirs.edges)
    mine, theirs = input_edges_only(g), input_edges_only(ref)
    assert (tuple(mine.edges) == tuple(theirs.edges)
            == tuple(e for e in expected if isinstance(e.tail, InputVertex)))
    assert len(mine.edges) == len(theirs.edges)


def test_edge_view_indexing_agrees_with_iteration():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = build_union_graph(helpers.random_structure(rng, max_n=6))
        edges = list(g.edges)
        view = g.edges
        assert len(view) == len(edges)
        for i in range(-len(edges), len(edges)):
            assert view[i] == edges[i]
        for part in (slice(None), slice(1, None, 2), slice(-3, None),
                     slice(None, None, -1), slice(2, 1)):
            assert view[part] == tuple(edges[part])
        assert list(reversed(view)) == edges[::-1]
        with pytest.raises(IndexError):
            view[len(edges)]


def test_edge_view_builds_only_what_is_read(monkeypatch):
    # 1,806 edges in 903 rows: an index finds its row by bisection, so
    # reading every index, forwards, backwards and through ``reversed``,
    # builds no row's edge list
    g = build_union_graph(helpers.wide_structure(1, 300, 3))
    edges = list(g.edges)
    view = g.edges
    assert len(view) == len(edges) == 1806
    built = []
    row_edges = UnionGraph._row_edges

    def counted(self, row, heads):
        built.append(row)
        return row_edges(self, row, heads)
    monkeypatch.setattr(UnionGraph, "_row_edges", counted)
    for i in range(-len(edges), len(edges)):
        assert view[i] == edges[i]
    for part in (slice(None), slice(1, None, 2), slice(-3, None), slice(None, None, -1),
                 slice(900, 905), slice(2, 1), slice(-1, -1807, -7), slice(1805, 5000)):
        assert view[part] == tuple(edges[part])
    assert view.index(edges[-1]) == len(edges) - 1
    assert list(reversed(view)) == edges[::-1]
    assert built == []
    for bad in (len(edges), -len(edges) - 1):
        with pytest.raises(IndexError):
            view[bad]


@st.composite
def _search_graphs(draw):
    # one to four colors, inputs with and without rows, every tail with
    # rows in any of the colors
    n = draw(st.integers(min_value=1, max_value=7))
    counts = draw(st.lists(st.integers(min_value=0, max_value=2),
                           min_size=1, max_size=4))
    heads = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3, unique=True)
    edges = []
    for color, m in enumerate(counts):
        tails = [InputVertex(color, k) for k in range(m)]
        tails += [StateVertex(v) for v in range(n)]
        edges += [ColoredEdge(tail, h, color) for tail in tails for h in draw(heads)]
    return UnionGraph(n, tuple(counts), edges)


def _assert_search_equals_the_bucket_search(g):
    order, parent = input_search(g)
    assert (order, parent) == helpers.ref_input_search(g)
    tree = cactus_mod.shortest_walk_tree(g)
    with mock.patch.object(cactus_mod, "input_search", helpers.ref_input_search):
        assert cactus_mod.shortest_walk_tree(g) == tree
    return order


@settings(max_examples=300, deadline=None)
@given(_search_graphs())
def test_input_search_equals_the_bucket_search(g):
    # the same visit order and parent rows as bucketing every tail's rows,
    # so the walk tree read off them is unchanged
    _assert_search_equals_the_bucket_search(g)


@pytest.mark.parametrize("seed, n, modes", [(1, 300, 3), (2, 120, 6)])
def test_input_search_equals_the_bucket_search_wide(seed, n, modes):
    g = build_union_graph(helpers.wide_structure(seed, n, modes))
    for graph in (g, *(restrict_to_color(g, c) for c in range(g.colors))):
        assert _assert_search_equals_the_bucket_search(graph)


def test_color_slices_share_pattern_columns(chain10):
    g = build_union_graph(chain10)
    for color, (a, b) in enumerate(chain10.subsystems):
        sub = restrict_to_color(g, color)
        assert sub._rows
        for row, heads in zip(sub._rows, sub._adj):
            tail, row_color = sub._row_tail(row)
            mat = b if isinstance(tail, InputVertex) else a
            assert row_color == color
            assert heads is mat.columns[tail.index]


def _ceiling_case(seed):
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=9,
                                 density=float(rng.uniform(0.05, 0.45)))
    g = build_union_graph(s)
    return s, g, reachable_states(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_term_rank_ceiling_equals_reference(seed):
    # the edges whose tail is an input or a reachable state, matched by the
    # reference; capped at |R| as in the bound's definition
    s, g, reach = _ceiling_case(seed)
    kept = [e for e in g.edges
            if isinstance(e.tail, InputVertex) or e.tail.index in reach]
    sub = UnionGraph(s.n, s.input_counts, kept)
    expected = min(len(reach), len(helpers.ref_max_independent_edges(sub)))
    assert term_rank_ceiling(g) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_term_rank_ceiling_bounds_realized_stack(seed):
    # the realized B columns and the A_i columns of reachable states span
    # the reachable space; no realization gives them rank above the ceiling
    s, g, reach = _ceiling_case(seed)
    r = sample_realization(s, seed=seed)
    cols = []
    for idx, (a, b) in enumerate(s.subsystems):
        for which, mat, picked in (("B", b, range(b.cols)), ("A", a, sorted(reach))):
            for c in picked:
                col = [0] * s.n
                for row in mat.columns[c]:
                    col[row] = r.values[(idx, which, row, c)]
                cols.append(col)
    assert term_rank_ceiling(g) >= helpers.brute_rank_ff(cols, s.n, r.prime)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from([0.1, 0.2, 0.3, 0.5]))
def test_hopcroft_karp_cold_start_with_sentinels(seed, density):
    # some heads held by the sentinel: the result is a valid maximum
    # matching onto the other heads that keeps the sentinels in place
    rng = np.random.default_rng(seed)
    g = build_union_graph(helpers.random_structure(rng, max_n=12, density=density))
    size = len(g._adj)
    held = {h for h in range(g.n) if rng.random() < 0.2}
    match_right = [size if h in held else -1 for h in range(g.n)]

    match_left = hopcroft_karp(g._adj, match_right)
    assert all(match_right[h] == size for h in held)
    assert {h: left for h, left in enumerate(match_right) if 0 <= left < size} == {
        h: left for left, h in enumerate(match_left) if h >= 0}
    assert all(h in g._adj[left] for left, h in enumerate(match_left) if h >= 0)
    allowed = [h for h in range(g.n) if h not in held]
    assert sum(h >= 0 for h in match_left) == len(
        helpers.ref_max_independent_edges(g, allowed_heads=allowed))


def _layered_hopcroft_karp(adj, match_right):
    """Every phase of ``hopcroft_karp`` run as layered search, the cold
    first one too: the reference its greedy first phase must reproduce."""
    size = len(adj)
    match_left = [-1] * size
    inf = size + 1
    while True:
        dist = [inf if m >= 0 else 0 for m in match_left]
        dist.append(-2)
        queue = [idx for idx in range(size) if match_left[idx] < 0]
        found = False
        for idx in queue:
            layer = dist[idx] + 1
            for head in adj[idx]:
                other = match_right[head]
                if other < 0:
                    found = True
                elif dist[other] == inf:
                    dist[other] = layer
                    queue.append(other)
        if not found:
            return match_left
        for root in range(size):
            if match_left[root] >= 0:
                continue
            path = [root]
            pos = [0]
            while path:
                idx = path[-1]
                heads = adj[idx]
                p = pos[-1]
                layer = dist[idx] + 1
                end = len(heads)
                while p < end:
                    other = match_right[heads[p]]
                    p += 1
                    if other < 0 or dist[other] == layer:
                        break
                else:
                    dist[idx] = inf
                    path.pop()
                    pos.pop()
                    continue
                pos[-1] = p
                if other < 0:
                    for left, q in zip(path, pos):
                        head = adj[left][q - 1]
                        match_left[left] = head
                        match_right[head] = left
                    break
                path.append(other)
                pos.append(0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from(["cold", "sentinels"]))
def test_hopcroft_karp_equals_layered_search(seed, start):
    # random lefts with heads in random order, so the greedy phase cannot
    # lean on sorted rows
    rng = np.random.default_rng(seed)
    heads = int(rng.integers(1, 13))
    adj = [tuple(int(h) for h in rng.permutation(heads)[:int(rng.integers(0, heads + 1))])
           for _ in range(int(rng.integers(0, 16)))]
    size = len(adj)
    match_right = [-1] * heads
    if start == "sentinels":
        match_right = [size if rng.random() < 0.25 else -1 for _ in range(heads)]
    expected_right = list(match_right)
    expected_left = _layered_hopcroft_karp(adj, expected_right)
    assert hopcroft_karp(adj, match_right) == expected_left
    assert match_right == expected_right


def _heads_into(adj, heads):
    """Per head, the lefts holding it, ascending."""
    return [[left for left, row in enumerate(adj) if h in row] for h in range(heads)]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_hopcroft_karp_equals_the_full_phase_oracle(seed):
    # left-heavy random graphs, up to three times as many lefts as heads
    # and 0-3 heads per left, 0-30% of the heads held by the sentinel: the
    # matching and the updated match_right equal the oracle's, with and
    # without the search back from the free heads and with every scan list
    rng = np.random.default_rng(seed)
    heads = int(rng.integers(1, 13))
    adj = [tuple(int(h) for h in rng.permutation(heads)[:int(rng.integers(0, 4))])
           for _ in range(int(rng.integers(0, 3 * heads + 1)))]
    size = len(adj)
    held = rng.random() * 0.3
    match_right = [size if rng.random() < held else -1 for _ in range(heads)]
    expected_right = list(match_right)
    expected_left = helpers.ref_hopcroft_karp(adj, expected_right)
    # a cold start that scans only the lefts holding a head no sentinel
    # holds gives the same matching
    held = [left for left, row in enumerate(adj)
            if any(match_right[h] < 0 for h in row)]
    for rows_into in (None, lambda: _heads_into(adj, heads)):
        for scan in (None, held):
            right = list(match_right)
            assert hopcroft_karp(adj, right, rows_into, scan) == expected_left
            assert right == expected_right


def test_cover_rounds_equal_the_full_phase_oracle(monkeypatch):
    # every matching of the all-color and per-color fixpoints on a wide
    # system, compared with the oracle from the same start
    calls = helpers.spy_kernel(monkeypatch, unigraph_mod)
    g = build_union_graph(helpers.wide_structure(1, 300, 3))
    cactus_mod.best_cactus_cover(g)
    cactus_mod.conventional_cactus_cover(g)
    assert len(calls) > 4
    for call in calls:
        expected_right = list(call.start)
        expected_left = helpers.ref_hopcroft_karp(call.args["adj"], expected_right)
        assert call.result == expected_left
        assert call.args["match_right"] == expected_right
        assert call.args["rows_into"] is not None


class _CountedRows(list):
    """A list that records every index read through ``[]``."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, index):
        self.read.add(index)
        return super().__getitem__(index)


def test_phases_read_only_live_lefts():
    # heads 0..9; left 0 holds heads 0 and 9, lefts 1..8 head i each, 2,000
    # lefts hold heads among 1..8 and the last left head 0.  The cold start
    # leaves head 9 free, held only by left 0, and the 2,001 lefts after
    # left 8 free; only left 0 and the last left reach head 9, so no phase
    # reads any other left
    rng = np.random.default_rng(5)
    dead = [tuple(int(h) for h in rng.choice(np.arange(1, 9), 2, replace=False))
            for _ in range(2000)]
    rows = [(0, 9)] + [(i,) for i in range(1, 9)] + dead + [(0,)]
    last = len(rows) - 1
    adj = _CountedRows(rows)
    match_right = [-1] * 10
    expected_right = list(match_right)
    expected_left = helpers.ref_hopcroft_karp(rows, expected_right)
    assert hopcroft_karp(adj, match_right, lambda: _heads_into(rows, 10)) == expected_left
    assert match_right == expected_right
    assert expected_left[0] == 9 and expected_left[last] == 0
    assert adj.read <= {0, last}


@pytest.mark.parametrize("seed, kept", [(1, 12), (2, 40), (3, 140)])
def test_cold_start_reads_only_rows_holding_an_allowed_head(seed, kept):
    # under half the states allowed: no row without an allowed head is
    # read, by the cold start or any phase, and the matching is the
    # reference's
    g = build_union_graph(helpers.wide_structure(seed, 300, 3))
    allowed = {int(h) for h in np.random.default_rng(seed).permutation(g.n)[:kept]}
    expected = helpers.ref_max_independent_edges(g, allowed_heads=allowed)
    g._adj = _CountedRows(g._adj)
    assert helpers.matched_edges(g, allowed) == expected
    assert g._adj.read == set(_candidate_rows(g, allowed))


def test_rows_into_built_only_when_a_phase_has_a_free_row_and_head():
    # the cold start takes both heads of u -> x1 -> x2, and the one row of
    # u -> x1 with x2 free, so no phase runs and no per-head row lists are
    # kept; the chain's cold start leaves its input row and last state
    # free, so its lists are built and kept
    u, x1 = InputVertex(0, 0), StateVertex(0)
    for edges, rank in ([ColoredEdge(u, 0, 0), ColoredEdge(x1, 1, 0)], 2), (
            [ColoredEdge(u, 0, 0)], 1):
        g = UnionGraph(2, (1,), edges)
        assert generic_rank(g) == rank
        assert (_rows_into,) not in g._memo
    chain = build_union_graph(parse_system(json.dumps(helpers.chain_document(6))))
    assert generic_rank(chain) == 6
    assert chain._memo[(_rows_into,)] == _heads_into(chain._adj, chain.n)
