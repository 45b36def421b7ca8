import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    det_ff,
    layered_product_columns,
    linking_determinant_expansion,
    mdg_path_vertices,
    walks_provably_disjoint,
)
import swcactus.mdg as mdg_mod
from swcactus import (
    DEFAULT_PRIME,
    InputStateWalk,
    InputVertex,
    MdgSizeError,
    ModelError,
    StateVertex,
    StructuredMatrix,
    SwitchedStructure,
    build_mdg,
    build_union_graph,
    dim_bounds,
    max_linking,
    parse_system,
    reachable_states,
    sample_realization,
)
from swcactus.checker import input_rank
from swcactus.mdg import layer_blocks
from swcactus.rankcore import rank_ff
from swcactus.unigraph import term_rank_ceiling

P = DEFAULT_PRIME


def test_layer_sizes(example1):
    # n = 3 states, N = 2 colors, M = 2 inputs; the lists decoded from ids
    # match the N^layer blocks spelled out: (k, t) with k the first color
    # and t the rest of the word, block-major
    mdg = build_mdg(example1, 3)
    for layer in range(4):
        blocks = ([(0, 0)] if layer == 0 else
                  [(k, t) for k in range(2) for t in range(2 ** (layer - 1))])
        assert list(mdg.state_vertices(layer)) == [
            ("x", layer, k, t, j) for k, t in blocks for j in range(3)]
        assert list(mdg.input_vertices(layer)) == [
            ("u", layer, k, t, l, 0) for k, t in blocks for l in range(2)]
    assert mdg.vertex_count == sum((3 + 2) * 2 ** i for i in range(4))


@pytest.mark.parametrize("depth", [1.5, 2.0, "2", True])
def test_depth_must_be_an_index(example1, depth):
    # int() would have read 1.5 as a 15-vertex graph that max_linking then
    # failed on with a bare TypeError
    with pytest.raises(ModelError, match="depth must be an integer"):
        build_mdg(example1, depth)
    with pytest.raises(ModelError, match="depth must be an integer"):
        layer_blocks(example1, depth)


def test_depth_reads_numpy_integers(example1):
    mdg = build_mdg(example1, np.int64(2))
    assert type(mdg.depth) is int
    assert max_linking(mdg) == max_linking(build_mdg(example1, 2))


def test_vertex_lists_refuse_layers_outside_the_graph(example1):
    mdg = build_mdg(example1, 2)
    assert mdg.vertex_count == 35
    for layer in (-1, 3):
        with pytest.raises(ModelError):
            mdg.state_vertices(layer)
        with pytest.raises(ModelError):
            mdg.input_vertices(layer)


def test_word_of_round_trip(example1):
    mdg = build_mdg(example1, 3)
    seen = set()
    for layer in range(4):
        for v in mdg.state_vertices(layer):
            word = mdg.word_of(layer, v[2], v[3])
            assert len(word) == layer
            assert all(0 <= c < 2 for c in word)
            seen.add((layer, word))
    # block words enumerate every color sequence exactly once per layer
    for layer in range(4):
        assert sum(1 for l, _ in seen if l == layer) == 2 ** layer


def test_frozen_path_example():
    walk = InputStateWalk(InputVertex(0, 0), (0, 2), (0, 1))
    path = mdg_path_vertices(walk, 2)
    assert path == (
        ("u", 1, 1, 0, 0, 0),
        ("x", 1, 1, 0, 0),
        ("x", 0, 0, 0, 2),
    )


def test_disjointness_is_exact():
    # same union-graph trajectory: definitely intersecting
    w = InputStateWalk(InputVertex(0, 0), (0,), (0,))
    assert walks_provably_disjoint(w, w) is None
    # shared source but different color histories after the meet
    w1 = InputStateWalk(InputVertex(0, 0), (0, 1), (0, 0))
    w2 = InputStateWalk(InputVertex(0, 0), (0, 2), (0, 1))
    assert walks_provably_disjoint(w1, w2) is True
    # no shared union-graph vertex at all
    w3 = InputStateWalk(InputVertex(0, 0), (1,), (0,))
    w4 = InputStateWalk(InputVertex(1, 0), (2,), (1,))
    assert walks_provably_disjoint(w3, w4) is True


def _random_walk(rng, g, source):
    """A valid walk of 1-6 edges from ``source``, each edge drawn from the
    out-edges of the current tail; it ends early at a tail without any."""
    tail, states, colors = source, [], []
    for _ in range(int(rng.integers(1, 7))):
        out = g.edges_from(tail)
        if not out:
            break
        e = out[int(rng.integers(len(out)))]
        states.append(e.head)
        colors.append(e.color)
        tail = StateVertex(e.head)
    return InputStateWalk(source, tuple(states), tuple(colors))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_disjointness_is_exact_on_random_walks(seed):
    # the suffix test against the materialized layered paths; the second
    # walk reuses the first one's source half of the time
    rng = np.random.default_rng(seed)
    g = build_union_graph(helpers.random_structure(rng, max_n=6, density=0.4))
    sources = [u for u in g.input_vertices if g.edges_from(u)]
    if not sources:
        return
    for _ in range(30):
        w1 = _random_walk(rng, g, sources[int(rng.integers(len(sources)))])
        w2 = _random_walk(rng, g, w1.source if rng.random() < 0.5
                          else sources[int(rng.integers(len(sources)))])
        shared = (set(mdg_path_vertices(w1, g.colors))
                  & set(mdg_path_vertices(w2, g.colors)))
        assert walks_provably_disjoint(w1, w2) is (None if shared else True)
        assert walks_provably_disjoint(w2, w1) is (None if shared else True)


def test_linking_example1_frozen(example1):
    mdg = build_mdg(example1, 2)
    linking = max_linking(mdg)
    assert linking.size == 3
    assert linking.tails() == (
        ("u", 0, 0, 0, 0, 0),
        ("u", 1, 0, 0, 0, 0),
        ("u", 1, 1, 0, 0, 0),
    )
    assert linking.heads() == (0, 1, 2)
    assert [mdg.input_column_index(t) for t in linking.tails()] == [0, 2, 4]


def test_linking_paths_are_vertex_disjoint(chain10):
    mdg = build_mdg(chain10, 9)
    linking = max_linking(mdg)
    assert linking.size == 8
    used = set()
    for path in linking.paths:
        for v in path:
            assert v not in used
            used.add(v)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_linking_size_matches_stack_rank(seed):
    # max vertex-disjoint linking == generic rank of the layered product
    # stack; the finite-field realization is the independent witness
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=4, max_colors=2)
    depth = min(s.n, 3)
    mdg = build_mdg(s, depth)
    linking = max_linking(mdg)
    best = 0
    for trial in range(3):
        r = sample_realization(s, seed=seed + trial)
        cols, _ = layered_product_columns(s, r, depth)
        best = max(best, rank_ff(cols, s.n, P))
    assert linking.size == best


def test_vertex_cap_enforced(example1, monkeypatch):
    monkeypatch.setattr(mdg_mod, "VERTEX_CAP", 10)
    with pytest.raises(MdgSizeError) as err:
        build_mdg(example1, 2)
    assert "cap" in str(err.value)


def test_determinant_expansion_gate(chain10):
    mdg = build_mdg(chain10, 2)
    r = sample_realization(chain10, seed=0)
    linking = max_linking(mdg)
    with pytest.raises(ModelError):
        linking_determinant_expansion(mdg, r, linking.heads(), linking.tails())


def test_determinant_expansion_example1(example1):
    mdg = build_mdg(example1, 2)
    r = sample_realization(example1, seed=0)
    linking = max_linking(mdg)
    lgv = linking_determinant_expansion(mdg, r, linking.heads(),
                                        linking.tails())
    cols, _ = layered_product_columns(example1, r, 2)
    picked = [[cols[c][row] for row in linking.heads()]
              for c in (0, 2, 4)]
    assert lgv == det_ff(picked, P)
    a21 = r.values[(0, "A", 1, 0)]
    a31 = r.values[(1, "A", 2, 0)]
    b1 = r.values[(0, "B", 0, 0)]
    assert lgv == (a21 * a31 * pow(b1, 3, P)) % P


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_determinant_expansion_matches_minor(seed):
    rng = np.random.default_rng(seed)
    s = helpers.sparse_structure(rng, max_n=3, max_colors=2, max_edges=6)
    depth = min(s.n, 2)
    mdg = build_mdg(s, depth)
    linking = max_linking(mdg)
    if linking.size == 0:
        return
    r = sample_realization(s, seed=seed)
    lgv = linking_determinant_expansion(mdg, r, linking.heads(),
                                        linking.tails())
    # the expansion canonicalizes row and tail order by sorting; the
    # reference minor must be read off in the same order
    rows = sorted(linking.heads())
    cols, _ = layered_product_columns(s, r, depth)
    idx = [mdg.input_column_index(t) for t in sorted(linking.tails())]
    picked = [[cols[c][row] for row in rows] for c in idx]
    assert lgv == det_ff(picked, P)


def test_max_linking_deterministic(chain10):
    mdg = build_mdg(chain10, 5)
    first = max_linking(mdg)
    second = max_linking(mdg)
    assert first.paths == second.paths


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def _split_graph(nx, mdg):
    """The vertex-split flow network, built from ``edges_from`` alone."""
    g = nx.DiGraph()
    g.add_nodes_from(["source", "sink"])
    for layer in range(mdg.depth + 1):
        for u in mdg.input_vertices(layer):
            g.add_edge("source", ("in", u), capacity=1)
        for v in [*mdg.input_vertices(layer), *mdg.state_vertices(layer)]:
            g.add_edge(("in", v), ("out", v), capacity=1)
            for head, _ in mdg.edges_from(v):
                g.add_edge(("out", v), ("in", head), capacity=1)
    for x in mdg.state_vertices(0):
        g.add_edge(("out", x), "sink", capacity=1)
    return g


def _assert_max_linking(nx, mdg, linking):
    """``linking`` has the max-flow size, starts at input copies, ends on
    layer 0, follows edges and is vertex-disjoint."""
    assert linking.size == nx.maximum_flow_value(
        _split_graph(nx, mdg), "source", "sink")

    inputs = {u for layer in range(mdg.depth + 1) for u in mdg.input_vertices(layer)}
    used = set()
    for path in linking.paths:
        assert path[0] in inputs
        assert path[-1][0] == "x" and path[-1][1] == 0
        for tail, head in zip(path, path[1:]):
            assert head in [h for h, _ in mdg.edges_from(tail)]
        assert used.isdisjoint(path)
        used.update(path)


def _stop_depth(s, depth: int, ceiling: int) -> int:
    """The first depth of the bounds' schedule, the full ``depth`` halved
    (rounding up) down to 1 and run shallowest first, whose own linking
    reaches ``ceiling``; ``depth`` if none does."""
    return next((d for d in helpers.halving_schedule(depth)
                 if max_linking(build_mdg(s, d)).size == ceiling), depth)


def _bounds_linkings(s, **kwargs):
    """``dim_bounds(s, **kwargs)``, the ``[depth, linking]`` pairs it built
    and linked, and its kernel calls, each checked to start cold."""
    with pytest.MonkeyPatch.context() as mp:
        built = helpers.spy_bounds_linkings(mp)
        calls = helpers.spy_kernel(mp, mdg_mod)
        bounds = dim_bounds(s, **kwargs)
    # one kernel call per linking; its result has one entry per left
    assert len(calls) == sum(linking is not None for _, linking in built)
    assert all(call.start == [-1] * len(call.result) for call in calls)
    return bounds, built


def _assert_linkings_match_networkx(nx, s):
    """At depth ``n`` minus the input rank, the linking is maximum; below
    it, linking sizes never fall with depth and never pass the ceiling,
    which is what makes stopping there exact.  ``dim_bounds`` links each
    depth of its schedule once, cold, up to the first that reaches the
    ceiling, and that depth's linking is maximum at the full depth too."""
    g = build_union_graph(s)
    ceiling = term_rank_ceiling(g)
    depth = s.n - input_rank(g)
    mdg = build_mdg(s, depth)
    full = max_linking(mdg)
    _assert_max_linking(nx, mdg, full)
    sizes = [max_linking(build_mdg(s, d)).size for d in range(depth + 1)]
    assert sizes == sorted(sizes)
    assert sizes[-1] <= ceiling
    # the single-mode cover is the smaller lower bound, so it leaves more
    # of these below the ceiling, where the linking runs
    bounds, built = _bounds_linkings(s, conventional=True, layer_cap=depth)
    assert bounds.upper == min(len(reachable_states(g)), full.size)
    if bounds.lower == ceiling:  # read from the ceiling, nothing built
        assert built == []
        return
    stop = _stop_depth(s, depth, ceiling)
    schedule = helpers.halving_schedule(depth)
    assert built == [[d, max_linking(build_mdg(s, d))]
                     for d in schedule[:schedule.index(stop) + 1]]
    _assert_max_linking(nx, mdg, built[-1][1])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_linking_matches_networkx_max_flow(nx, seed):
    rng = np.random.default_rng(seed)
    _assert_linkings_match_networkx(
        nx, helpers.random_structure(rng, max_n=6, max_colors=3))


@pytest.mark.parametrize("family", [helpers.gapped_structure,
                                    helpers.pinched_structure])
@pytest.mark.parametrize("seed", range(3))
def test_benchmark_families_match_networkx_max_flow(nx, family, seed):
    # the deep workload's families at n=6 and 3 modes: one input, so the
    # unrolling runs to depth n - 1 (2,548 layered vertices)
    _assert_linkings_match_networkx(nx, family(seed, 6, 3))


def test_ceiling_stops_at_a_shallow_layer():
    # 873,810 layered vertices at depth 8, but the linking reaches the
    # ceiling of 8 at depth 2: no deeper layer is built
    s = helpers.gapped_structure(1, 9, 4)
    g = build_union_graph(s)
    assert build_mdg(s, s.n - input_rank(g)).vertex_count == 873_810
    bounds, built = _bounds_linkings(s)
    assert [depth for depth, _ in built] == [1, 2]
    linking = built[-1][1]
    assert linking.size == bounds.upper == term_rank_ceiling(g) == 8
    assert max(v[1] for path in linking.paths for v in path) <= 2


@pytest.mark.parametrize("seed, n, modes", [(1, 9, 4), (1, 10, 3), (2, 9, 3),
                                             (0, 7, 3)])
def test_ceiling_stopped_linking_is_its_stop_depth_linking(seed, n, modes):
    # each reaches its ceiling at depth 2; a run warm-started from the
    # depth-1 matching ended on other paths than the depth-2 graph's own;
    # the single-mode covers stay below the ceiling, so the linking runs
    s = helpers.gapped_structure(seed, n, modes)
    g = build_union_graph(s)
    ceiling = term_rank_ceiling(g)
    assert _stop_depth(s, s.n - input_rank(g), ceiling) == 2
    bounds, built = _bounds_linkings(s, conventional=True)
    assert [depth for depth, _ in built] == [1, 2]
    assert built[-1][1] == max_linking(build_mdg(s, 2))
    assert bounds.upper == ceiling


def test_every_linking_run_starts_cold():
    # the spider's linking, 7, stays below its ceiling of 8, so all five
    # depths of the schedule run (1, 2, 3, 5, 10), each with a fresh
    # all-free match_right
    s = helpers.spider_structure(5, 2, 2)
    bounds, built = _bounds_linkings(s)
    assert [depth for depth, _ in built] == [1, 2, 3, 5, 10]
    assert built[-1][1] == max_linking(build_mdg(s, 10))
    assert bounds.upper == built[-1][1].size == 7


@pytest.mark.parametrize("vertex", [("x", 0, 0, 0, 1), ("u", 0, 0, 0, 2, 7),
                                    ("u", 3, 0, 0, 0, 0)])
def test_input_column_index_refuses_other_vertices(example1, vertex):
    # a state copy failed on unpacking and a missing input slot in
    # ``tuple.index``, both with a bare ValueError
    with pytest.raises(ModelError, match="not an input vertex of this graph"):
        build_mdg(example1, 2).input_column_index(vertex)


def test_family_helpers_draw_like_the_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(helpers.DATA_DIR.parents[1] / "perfbench"))
    families = pytest.importorskip("families")
    for name in ("wide", "gapped", "pinched"):
        build = getattr(helpers, f"{name}_structure")
        for seed in range(3):
            doc = getattr(families, name)(random.Random(seed), 7, 3)
            assert parse_system(json.dumps(doc)) == build(seed, 7, 3)


def test_linking_memory_per_layered_vertex():
    # one head tuple per vertex plus the matching's arrays: about 260 B per
    # layered vertex here, where a flow network with one arc list per split
    # node takes about 760 B
    mdg = build_mdg(helpers.gapped_structure(5, 8, 3), 7)
    assert mdg.vertex_count == 29_520
    tracemalloc.start()
    try:
        max_linking(mdg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * mdg.vertex_count


def test_long_path_linking_is_fast():
    # one mode, B = e_1 and A the path x1 -> x2 -> ... -> xn, unrolled to
    # 360,600 vertices: the one maximum linking has a path from every
    # layer, n paths of n different lengths
    n = 600
    a = StructuredMatrix(n, n, frozenset((j + 1, j) for j in range(n - 1)))
    s = SwitchedStructure(n=n, subsystems=(
        (a, StructuredMatrix(n, 1, frozenset({(0, 0)}))),))
    start = time.perf_counter()
    linking = max_linking(build_mdg(s, n - 1))
    assert linking.size == n
    assert time.perf_counter() - start < 4.0


def test_huge_depth_fails_fast():
    # one mode keeps every layer at one block, so only the cap test stops
    # the layer count from growing with the depth
    s = parse_system('{"n": 1, "subsystems": '
                     '[{"A": [[1, 1]], "B": {"cols": 1, "nonzeros": [[1, 1]]}}]}')
    start = time.perf_counter()
    with pytest.raises(MdgSizeError) as err:
        build_mdg(s, 10 ** 9)
    assert time.perf_counter() - start < 5.0
    assert "cap" in str(err.value)


@pytest.mark.parametrize("depth, cap, fits", [
    (0, 7, True), (3, 280, True), (3, 279, False), (6, 4000, False)])
def test_layer_blocks_decides_the_vertex_cap_like_mdg(depth, cap, fits,
                                                      monkeypatch):
    # one input and six states: seven vertices per block, 3^i blocks at layer i
    monkeypatch.setattr(mdg_mod, "VERTEX_CAP", cap)
    s = helpers.gapped_structure(2, 6, 3)
    if not fits:
        with pytest.raises(MdgSizeError):
            layer_blocks(s, depth)
        with pytest.raises(MdgSizeError):
            build_mdg(s, depth)
        return
    blocks = layer_blocks(s, depth)
    assert blocks == [3 ** i for i in range(depth + 1)]
    assert build_mdg(s, depth).vertex_count == 7 * sum(blocks)
