import inspect
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import mdg_path_vertices, walks_provably_disjoint
import swcactus.cactus as cactus_mod
import swcactus.unigraph as unigraph_mod
from swcactus import (
    ModelError,
    StateVertex,
    best_cactus_cover,
    build_union_graph,
    component_cycle,
    conventional_cactus_cover,
    decompose,
    max_independent_edges,
    reachable_states,
    system_from_dict,
    verify_cactus_walking,
    walk_violations,
)
from swcactus.cactus import Decomposition, cactus_walks_for_bud, cactus_walks_for_stem
from swcactus.rankcore import controllable_dim
from swcactus.unigraph import (
    ColoredEdge,
    InputStateWalk,
    InputVertex,
    UnionGraph,
    edge_sort_key,
    restrict_to_color,
)


def test_decompose_example1_all_stems(example1):
    g = build_union_graph(example1)
    edges = max_independent_edges(g)
    d = decompose(edges, reachable_states(g))
    assert len(d.stems) == 3
    assert not d.cycle_groups and not d.dropped
    assert d.covered == frozenset({0, 1, 2})


def test_decompose_boost(boost):
    g = build_union_graph(boost)
    edges = max_independent_edges(g)
    d = decompose(edges, reachable_states(g))
    heads_by_kind = {
        "stem": sorted(e.head for e in d.stems),
        "cycle": sorted(e.head for grp in d.cycle_groups for e in grp),
    }
    assert heads_by_kind["stem"] == [1]
    assert heads_by_kind["cycle"] == [0]
    cyc = d.cycle_groups[0]
    assert len(cyc) == 1 and cyc[0].tail == StateVertex(0)
    assert d.covered == frozenset({0, 1})
    # built once and kept; equality still compares the pieces only
    assert d.covered is d.covered
    assert d == decompose(edges, reachable_states(g))


def test_decompose_drops_rootless_tree():
    # a lone state edge with no input anywhere upstream of it
    e = ColoredEdge(StateVertex(0), 1, 0)
    d = decompose((e,), frozenset({0, 1}))
    assert not d.stems and not d.cycle_groups
    assert d.dropped == (e,)
    assert d.covered == frozenset()


def test_decompose_cycle_kept_iff_reachable():
    cycle = (
        ColoredEdge(StateVertex(0), 1, 0),
        ColoredEdge(StateVertex(1), 0, 0),
    )
    kept = decompose(cycle, frozenset({0, 1}))
    assert len(kept.cycle_groups) == 1
    assert kept.covered == frozenset({0, 1})
    dropped = decompose(cycle, frozenset({0}))
    assert not dropped.cycle_groups
    assert set(dropped.dropped) == set(cycle)


def test_decompose_reads_reachable_as_indices():
    # a list of reachable states once raised AttributeError on its missing
    # ``issuperset`` as soon as the edge set held a cycle
    cycle = (
        ColoredEdge(InputVertex(0, 0), 0, 0),
        ColoredEdge(StateVertex(1), 2, 0),
        ColoredEdge(StateVertex(2), 1, 0),
    )
    assert decompose(cycle, [0, 1, 2]) == decompose(cycle, frozenset({0, 1, 2}))
    assert decompose(cycle, [0]) == decompose(cycle, frozenset({0}))
    for reachable in ([0, 1.0, 2], [True], ["2"]):
        with pytest.raises(ModelError, match="reachable states must be"):
            decompose(cycle, reachable)


def test_decompose_rejects_dependent_edges():
    clash = (
        ColoredEdge(StateVertex(0), 1, 0),
        ColoredEdge(StateVertex(2), 1, 0),
    )
    with pytest.raises(ModelError):
        decompose(clash, frozenset({0, 1, 2}))


# u -> x1 -> x2 (stem); x3 -> x3 -> x4 (self-loop with a branch); x5 <-> x6
# (two-cycle); x10 -> x7 -> x8 (rootless, x10 has no in-edge); x9 -> x9
# (self-loop off the reachable set)
MIXED_TAILS = [-1, 0, 2, 2, 5, 4, 9, 6, 8]
MIXED_HEADS = [0, 1, 2, 3, 4, 5, 6, 7, 8]
MIXED_REACHABLE = frozenset(range(8))


def test_pieces_follow_in_edges():
    assert cactus_mod._pieces(MIXED_TAILS, MIXED_HEADS, MIXED_REACHABLE) == (
        [0, 1], [[2, 3], [4, 5]], [6, 7, 8])
    assert cactus_mod._pieces([], [], frozenset()) == ([], [], [])


@st.composite
def in_edge_maps(draw):
    """Distinct heads in any order, each tail an input (-1) or any state,
    and a few states off the reachable set."""
    n = draw(st.integers(0, 12))
    heads = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    tails = draw(st.lists(st.integers(-1, n - 1), min_size=len(heads),
                          max_size=len(heads)))
    unreachable = draw(st.frozensets(st.sampled_from(range(n)), max_size=2)
                       if n else st.just(frozenset()))
    return tails, heads, frozenset(range(n)) - unreachable


@settings(max_examples=400, deadline=None)
@given(in_edge_maps())
@example(([], [], frozenset()))
@example((MIXED_TAILS, MIXED_HEADS, MIXED_REACHABLE))
def test_pieces_match_the_union_find_split(case):
    assert cactus_mod._pieces(*case) == helpers.ref_pieces(*case)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_decompose_matches_the_union_find_split(seed):
    g = build_union_graph(helpers.random_structure(
        np.random.default_rng(seed), max_n=8, density=0.35))
    edges = sorted(max_independent_edges(g), key=edge_sort_key)
    reachable = reachable_states(g)
    tails = [-1 if isinstance(e.tail, InputVertex) else e.tail.index for e in edges]
    stems, groups, dropped = helpers.ref_pieces(
        tails, [e.head for e in edges], reachable)
    d = decompose(max_independent_edges(g), reachable)
    assert d.stems == tuple(edges[i] for i in stems)
    assert d.cycle_groups == tuple(tuple(edges[i] for i in grp) for grp in groups)
    assert d.dropped == tuple(edges[i] for i in dropped)


def test_component_cycle_orders_and_rotates():
    grp = [
        ColoredEdge(StateVertex(2), 0, 1),
        ColoredEdge(StateVertex(0), 1, 0),
        ColoredEdge(StateVertex(1), 2, 0),
    ]
    cyc = component_cycle(tuple(grp))
    assert cyc[0].tail == StateVertex(0)
    assert [e.head for e in cyc] == [1, 2, 0]


def test_component_cycle_rejects_non_cycle():
    path = (
        ColoredEdge(StateVertex(0), 1, 0),
        ColoredEdge(StateVertex(1), 2, 0),
    )
    with pytest.raises(ModelError):
        component_cycle(path)


def test_component_cycle_rejects_empty_group():
    with pytest.raises(ModelError, match="cycle group is empty"):
        component_cycle(())


def test_component_cycle_reads_a_generator_once():
    grp = (ColoredEdge(StateVertex(1), 0, 0), ColoredEdge(StateVertex(0), 1, 0))
    assert component_cycle(e for e in grp) == component_cycle(grp)
    with pytest.raises(ModelError, match="repeated head"):
        component_cycle(e for e in grp + grp[:1])


@pytest.mark.parametrize("group", [
    (ColoredEdge(InputVertex(0, 0), 0, 0),),
    (ColoredEdge(InputVertex(0, 1), 0, 0), ColoredEdge(StateVertex(0), 1, 0)),
])
def test_component_cycle_rejects_input_tails(group):
    # an input has no incoming edge, so a chain that reaches one is a stem
    with pytest.raises(ModelError, match="fed by input"):
        component_cycle(group)


def test_best_cover_example1(example1):
    g = build_union_graph(example1)
    cover = best_cactus_cover(g)
    assert cover.restricted_color is None
    assert cover.covered == frozenset({0, 1, 2})


def test_best_cover_chain10(chain10):
    g = build_union_graph(chain10)
    cover = best_cactus_cover(g)
    assert len(cover.covered) == 8
    assert cover.covered == frozenset({0, 1, 2, 3, 4, 5, 8, 9})


def test_conventional_cover_chain10(chain10):
    g = build_union_graph(chain10)
    cover = conventional_cactus_cover(g)
    assert cover.restricted_color == 0
    assert len(cover.covered) == 6
    assert cover.covered == frozenset({0, 1, 2, 3, 4, 8})


def test_conventional_never_beats_general():
    rng = np.random.default_rng(21)
    for _ in range(60):
        s = helpers.random_structure(rng)
        g = build_union_graph(s)
        conv = conventional_cactus_cover(g)
        best = best_cactus_cover(g)
        assert len(conv.covered) <= len(best.covered)


def test_heuristic_cover_vs_exact_small():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 40:
        s = helpers.sparse_structure(rng, max_n=4, max_colors=2, max_edges=9)
        g = build_union_graph(s)
        exact = helpers.brute_best_cover(g)
        cover = best_cactus_cover(g)
        edges = [*cover.decomposition.stems,
                 *(e for grp in cover.decomposition.cycle_groups for e in grp)]
        assert helpers.is_valid_cover_config(edges, reachable_states(g))
        assert len(cover.covered) <= exact
        checked += 1


def test_stem_walks_are_valid(example1):
    g = build_union_graph(example1)
    d = decompose(max_independent_edges(g), reachable_states(g))
    walks = cactus_walks_for_stem(d)
    assert sorted(walks) == [0, 1, 2]
    for target, walk in walks.items():
        assert walk.states[-1] == target
        assert walk_violations(walk, g) == ()


def test_bud_walks_are_valid(boost):
    g = build_union_graph(boost)
    d = decompose(max_independent_edges(g), reachable_states(g))
    grp = d.cycle_groups[0]
    for loops in range(3):
        walks = cactus_walks_for_bud(grp, g, loops)
        assert sorted(walks) == [0]
        walk = walks[0]
        assert walk.states[-1] == 0
        assert walk_violations(walk, g) == ()
        assert walk.length >= loops  # each extra loop lengthens the walk


def test_bud_walks_refuse_negative_loops(boost):
    g = build_union_graph(boost)
    d = decompose(max_independent_edges(g), reachable_states(g))
    with pytest.raises(ModelError, match="negative"):
        cactus_walks_for_bud(d.cycle_groups[0], g, -1)


@pytest.mark.parametrize("loops", [1.5, True, "1"])
def test_bud_walks_refuse_a_loop_count_that_is_not_an_index(boost, loops):
    # 1.5 failed with a bare TypeError and True ran one loop
    g = build_union_graph(boost)
    d = decompose(max_independent_edges(g), reachable_states(g))
    with pytest.raises(ModelError, match="loop count must be an integer"):
        cactus_walks_for_bud(d.cycle_groups[0], g, loops)


def test_walks_refuse_chains_that_do_not_end():
    # two self-loops are not one cycle group, nor is a self-loop plus an
    # edge from outside the group, and a two-cycle is no stem set
    s = system_from_dict({"n": 3, "subsystems": [
        {"A": [[1, 1], [2, 2], [2, 3]],
         "B": {"cols": 1, "nonzeros": [[1, 1], [2, 1], [3, 1]]}}]})
    g = build_union_graph(s)
    loop = ColoredEdge(StateVertex(0), 0, 0)
    for group in ((loop, ColoredEdge(StateVertex(1), 1, 0)),
                  (loop, ColoredEdge(StateVertex(2), 1, 0))):
        with pytest.raises(ModelError, match="breaks off or runs round a cycle"):
            cactus_walks_for_bud(group, g, 1)
    swap = (ColoredEdge(StateVertex(1), 0, 0), ColoredEdge(StateVertex(0), 1, 0))
    with pytest.raises(ModelError, match="breaks off or runs round a cycle"):
        cactus_walks_for_stem(Decomposition(stems=swap, cycle_groups=(), dropped=()))


def test_verify_walking_takes_no_options():
    assert list(inspect.signature(verify_cactus_walking).parameters) == ["cover", "g"]


def test_verify_walking_example1(example1):
    g = build_union_graph(example1)
    walks = verify_cactus_walking(best_cactus_cover(g), g)
    assert len(walks) == 3


def test_verify_walking_boost(boost):
    g = build_union_graph(boost)
    walks = verify_cactus_walking(best_cactus_cover(g), g)
    # the stem x2 is one step long (D = 1), so the one-state cycle at x1
    # takes the least L with L * 1 >= D + 1, two turns after its prefix
    assert [w.states for w in walks] == [(1,), (1, 0, 0, 0)]
    n_colors = len(g.input_counts)
    vertex_sets = [frozenset(mdg_path_vertices(w, n_colors)) for w in walks]
    assert not (vertex_sets[0] & vertex_sets[1])


def test_verify_walking_chain10(chain10):
    g = build_union_graph(chain10)
    cover = best_cactus_cover(g)
    walks = verify_cactus_walking(cover, g)
    assert len(walks) == 8
    assert sorted(w.states[-1] for w in walks) == sorted(cover.covered)


def test_walking_search_deeper_than_recursion_limit():
    # one input per state: every state is a stem of its own, more walks
    # than the recursion limit allows frames
    n = 400
    s = system_from_dict({"n": n, "subsystems": [
        {"A": [], "B": {"cols": n, "nonzeros": [[i, i] for i in range(1, n + 1)]}}]})
    g = build_union_graph(s)
    cover = best_cactus_cover(g)
    assert len(cover.covered) == n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        walks = verify_cactus_walking(cover, g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(walks) == n
    assert sorted(w.states[-1] for w in walks) == list(range(n))


def _walk_order(cover):
    """Walk ends as :func:`verify_cactus_walking` lists them: stems by
    head, then the cycle groups in decomposition order, heads ascending."""
    decomp = cover.decomposition
    return (sorted(e.head for e in decomp.stems)
            + [h for group in decomp.cycle_groups for h in sorted(e.head for e in group)])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
@example(seed=5)  # one mode, two cycle groups, all seven states covered
def test_cover_walking_property(seed):
    # 1-3 modes; in one mode all colors agree, so only the states keep the
    # layered paths apart
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=8, max_colors=3,
                                 density=float(rng.choice([0.15, 0.25, 0.35])))
    g = build_union_graph(s)
    cover = best_cactus_cover(g)
    walks = verify_cactus_walking(cover, g)
    assert [w.end for w in walks] == _walk_order(cover)
    n_colors = len(g.input_counts)
    vertex_sets = []
    for w in walks:
        assert walk_violations(w, g) == ()
        vertex_sets.append(frozenset(mdg_path_vertices(w, n_colors)))
    for i in range(len(vertex_sets)):
        for j in range(i + 1, len(vertex_sets)):
            assert not (vertex_sets[i] & vertex_sets[j])
            assert walks_provably_disjoint(walks[i], walks[j])


def _layered_paths_disjoint(walks) -> bool:
    """Whether no two walks' layered paths share a vertex, in time linear in
    the walks' total length.

    A walk's layered vertex at distance ``q`` from its end is the state (or
    the input, at ``q == length``) there plus the last ``q`` colors; each
    color suffix is interned as an integer, one step longer per ``q``.
    """
    suffix_ids: dict = {}
    seen = set()
    for w in walks:
        k, suffix = w.length, 0
        for q in range(k + 1):
            at = w.states[k - 1 - q] if q < k else (w.source.subsystem, w.source.index)
            if (q, at, suffix) in seen:
                return False
            seen.add((q, at, suffix))
            if q < k:
                suffix = suffix_ids.setdefault((suffix, w.colors[k - 1 - q]),
                                               len(suffix_ids) + 1)
    return True


def test_layered_check_matches_materialized_paths():
    # short random walks on three states and two colors share a layered
    # vertex often; their materialized paths are the reference
    rng = np.random.default_rng(43)
    shared = 0
    for _ in range(400):
        walks = []
        for _ in range(3):
            k = int(rng.integers(1, 5))
            colors = tuple(int(c) for c in rng.integers(0, 2, k))
            states = tuple(int(v) for v in rng.integers(0, 3, k))
            walks.append(InputStateWalk(InputVertex(colors[0], 0), states, colors))
        paths = [set(mdg_path_vertices(w, 2)) for w in walks]
        disjoint = sum(map(len, paths)) == len(set().union(*paths))
        assert _layered_paths_disjoint(walks) == disjoint
        shared += not disjoint
    assert 50 <= shared <= 350


@pytest.mark.parametrize("n", [600, 1000])
def test_walking_on_large_wide_covers(n):
    # all n states covered, nearly all of them in cycle groups (7 at n=600,
    # 3 at n=1000, the largest of 437 and 793 states)
    g = build_union_graph(helpers.wide_structure(1, n, 3))
    cover = best_cactus_cover(g)
    assert len(cover.covered) == n and cover.decomposition.cycle_groups
    walks = verify_cactus_walking(cover, g)
    assert [w.end for w in walks] == _walk_order(cover)
    assert all(walk_violations(w, g) == () for w in walks)
    assert _layered_paths_disjoint(walks)


def test_cover_deterministic(chain10):
    g = build_union_graph(chain10)
    first = best_cactus_cover(g)
    second = best_cactus_cover(g)
    assert first.decomposition.stems == second.decomposition.stems
    assert first.decomposition.cycle_groups == second.decomposition.cycle_groups


def test_best_cover_prefers_mixed_then_lowest_color():
    # the definition spelled out: all-color fixpoint first, then each color;
    # the first candidate of largest coverage wins
    rng = np.random.default_rng(29)
    for _ in range(60):
        g = build_union_graph(helpers.random_structure(rng))
        candidates = [(cactus_mod._cover_fixpoint(g), None)] + [
            (cactus_mod._cover_fixpoint(restrict_to_color(g, c)), c)
            for c in range(g.colors)
        ]
        decomp, color = max(candidates, key=lambda cand: len(cand[0].covered))
        cover = best_cactus_cover(g)
        assert cover.decomposition == decomp
        assert cover.restricted_color == color


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_fixpoint_is_a_bounded_cover(seed):
    rng = np.random.default_rng(seed)
    s = helpers.sparse_structure(rng, max_n=6, max_colors=3, max_edges=11)
    g = build_union_graph(s)
    exact = helpers.brute_best_cover(g)
    probe_dim = controllable_dim(s).dim
    for graph in (g, *(restrict_to_color(g, c) for c in range(g.colors))):
        result = cactus_mod._cover_fixpoint(graph)
        assert not result.dropped
        assert helpers.is_valid_cover_config(
            [*result.stems, *(e for grp in result.cycle_groups for e in grp)],
            reachable_states(graph))
        assert len(result.covered) <= min(exact, probe_dim)


def test_walking_builds_one_walk_tree(boost, monkeypatch):
    calls = []
    original = cactus_mod.shortest_walk_tree

    def counted(g):
        calls.append(g)
        return original(g)
    monkeypatch.setattr(cactus_mod, "shortest_walk_tree", counted)
    g = build_union_graph(boost)
    assert verify_cactus_walking(best_cactus_cover(g), g) is not None
    assert calls == [g]
    # the public function still hands out fresh dicts
    assert original(g)[0] is not original(g)[0]


def _deque_walk_tree(g):
    """Breadth-first parents and distances over ``edges_from``: inputs in
    order, then states as they are reached, each tail's edges in
    ``edge_sort_key`` order."""
    parents, dist = {}, {}
    queue = deque()
    for u in g.input_vertices:
        for e in g.edges_from(u):
            if e.head not in parents:
                parents[e.head] = e
                dist[e.head] = 1
                queue.append(e.head)
    while queue:
        v = queue.popleft()
        for e in g.edges_from(StateVertex(v)):
            if e.head not in parents:
                parents[e.head] = e
                dist[e.head] = dist[v] + 1
                queue.append(e.head)
    return parents, dist


def test_walk_tree_equals_edge_level_search():
    rng = np.random.default_rng(31)
    partial = 0
    for _ in range(300):
        s = helpers.random_structure(
            rng, max_n=7, density=float(rng.choice([0.1, 0.2, 0.35])))
        g = build_union_graph(s)
        parents, dist = cactus_mod.shortest_walk_tree(g)
        ref_parents, ref_dist = _deque_walk_tree(g)
        assert parents == ref_parents and dist == ref_dist
        assert list(parents) == list(ref_parents)  # same visiting order
        assert set(parents) == reachable_states(g)
        partial += 0 < len(parents) < g.n
    assert partial >= 30


def test_walking_reads_no_edge_table(example1, boost, chain10, monkeypatch):
    # the walks come from the union graph's rows; no out-edge list is built
    def refuse(self, vertex):
        raise AssertionError("edges_from called")
    monkeypatch.setattr(UnionGraph, "edges_from", refuse)
    for s in (example1, boost, chain10):
        g = build_union_graph(s)
        cover = best_cactus_cover(g)
        walks = verify_cactus_walking(cover, g)
        assert walks is not None and len(walks) == len(cover.covered)


def _edge_level_fixpoint(g):
    """The cover fixpoint on edge objects: match, decompose, ban the heads
    of the dropped edges, until nothing is dropped."""
    reachable = reachable_states(g)
    allowed = set(reachable)
    while True:
        edges = helpers.ref_max_independent_edges(
            g, None if len(allowed) == g.n else allowed)
        decomp = decompose(edges, reachable)
        if not decomp.dropped:
            return decomp
        allowed -= {e.head for e in decomp.dropped}


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from([0.1, 0.2, 0.3]))
def test_fixpoint_equals_edge_level_loop(seed, density):
    # about one fixpoint in five takes two or more rounds on this draw
    rng = np.random.default_rng(seed)
    g = build_union_graph(helpers.random_structure(rng, max_n=12, density=density))
    for graph in (g, *(restrict_to_color(g, c) for c in range(g.colors))):
        assert cactus_mod._cover_fixpoint(graph) == _edge_level_fixpoint(graph)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fixpoint_equals_edge_level_loop_on_wide_colors(seed, monkeypatch):
    # the per-color graphs of a wide system have 301 rows and keep a few
    # dozen heads after the first round, so later rounds scan only the rows
    # holding an allowed head, which must give the reference's matching
    calls = helpers.spy_kernel(monkeypatch, unigraph_mod)
    g = build_union_graph(helpers.wide_structure(seed, 300, 3))
    fewer = 0
    for c in range(g.colors):
        graph = restrict_to_color(g, c)
        calls.clear()
        assert cactus_mod._cover_fixpoint(graph) == _edge_level_fixpoint(graph)
        fewer += sum(len(call.scanned) < len(graph._adj) for call in calls)
    assert fewer >= 3


def test_later_fixpoint_rounds_match_on_fewer_rows(monkeypatch):
    # a guard on work, not time: every per-color fixpoint of this system
    # takes three rounds, and each round after the first has its cold
    # start scan fewer rows than the color graph has
    calls = helpers.spy_kernel(monkeypatch, unigraph_mod)
    g = build_union_graph(helpers.wide_structure(2, 300, 3))
    for c in range(g.colors):
        graph = restrict_to_color(g, c)
        calls.clear()
        cactus_mod._cover_fixpoint(graph)
        rows = [len(call.scanned) for call in calls]
        assert len(rows) == 3 and rows[0] == len(graph._adj) == 301
        assert all(k < len(graph._adj) for k in rows[1:])


@pytest.mark.parametrize("seed", [1, 2])
def test_cover_builds_edges_only_for_fixpoint_covers(seed, monkeypatch):
    # seed 1 is covered by the all-color fixpoint alone; seed 2 also runs
    # the three per-color fixpoints, over several rounds each
    g = build_union_graph(helpers.wide_structure(seed, 300, 3))
    calls = []
    original = UnionGraph._row_tail

    def counted(self, row):
        calls.append(row)
        return original(self, row)
    monkeypatch.setattr(UnionGraph, "_row_tail", counted)
    best_cactus_cover(g)
    monkeypatch.undo()
    graphs = (g, *(restrict_to_color(g, c) for c in range(g.colors)))
    covers = [graph._memo[key] for graph in graphs
              for key in [(cactus_mod._cover_fixpoint,)] if key in graph._memo]
    assert len(calls) == sum(len(d.covered) for d in covers)
