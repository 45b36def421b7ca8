import json
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import swcactus.cactus as cactus_mod
import swcactus.checker as checker_mod
import swcactus.mdg as mdg_mod
import swcactus.unigraph as unigraph_mod
from swcactus import (
    CheckReport,
    ConsistencyError,
    MdgSizeError,
    ModelError,
    StructuredMatrix,
    SwitchedStructure,
    best_cactus_cover,
    build_mdg,
    build_union_graph,
    check,
    conventional_cactus_cover,
    dim_bounds,
    input_rank,
    max_linking,
    parse_system,
    report_to_dict,
    restrict_to_color,
    serialize_system,
)
from swcactus.cactus import decompose
from swcactus.checker import edge_to_dict
from swcactus.rankcore import ControllabilityProbe
from swcactus.unigraph import (
    UnionGraph,
    max_independent_edges,
    reachable_states,
    term_rank_ceiling,
)


def test_check_example1(example1):
    report = check(example1)
    assert report.controllable
    assert report.generic_rank == 3
    assert report.reachable == frozenset({0, 1, 2})
    assert report.probe.dim == 3
    assert report.bounds.lower == 3 and report.bounds.upper == 3
    assert report.certificate is not None
    assert report.certificate.covered == frozenset({0, 1, 2})


@pytest.mark.parametrize("name", ["example1", "boost"])
def test_full_cover_skips_per_color_fixpoints(monkeypatch, name):
    # the all-color cover holds every reachable state, so no single-color
    # cover can beat it
    calls = []
    original = cactus_mod._cover_fixpoint

    def counted(g):
        calls.append(g)
        return original(g)
    monkeypatch.setattr(cactus_mod, "_cover_fixpoint", counted)
    report = check(helpers.load_system(name))
    assert report.cover.restricted_color is None
    assert len(calls) == 1


def test_one_color_graph_runs_one_fixpoint(monkeypatch):
    # one mode with u -> x1, x1 -> x2 and x1 -> x3: x1 feeds one state per
    # color, so the cover holds 2 of the 3 reachable states and the per-color
    # cover is asked for; the graph is its own color slice, so the all-color
    # fixpoint serves it
    a = StructuredMatrix(3, 3, frozenset({(1, 0), (2, 0)}))
    b = StructuredMatrix(3, 1, frozenset({(0, 0)}))
    calls = []
    original = cactus_mod._cover_fixpoint

    def counted(g):
        calls.append(g)
        return original(g)
    monkeypatch.setattr(cactus_mod, "_cover_fixpoint", counted)
    report = check(SwitchedStructure(n=3, subsystems=((a, b),)))
    assert len(report.cover.covered) == 2 < len(report.reachable) == 3
    assert len(calls) == 1


def test_check_boost(boost):
    report = check(boost)
    assert report.controllable
    assert report.certificate is not None
    assert len(report.certificate.cycle_groups) == 1


def test_check_chain10(chain10):
    report = check(chain10)
    assert not report.controllable
    assert report.certificate is None
    assert report.generic_rank == 9
    assert len(report.reachable) == 10
    assert report.probe.dim == 8
    assert report.bounds == checker_mod.DimBounds(8, 8, True, 9)


def test_conventional_bounds_chain10(chain10):
    report = check(chain10)
    conv = dim_bounds(chain10, conventional=True, graph=report.graph)
    assert conv.lower == 6
    assert conv.upper == 8


def test_layer_cap_fallback(chain10):
    bounds = dim_bounds(chain10, layer_cap=3)
    assert not bounds.used_linking_bound
    assert bounds.linking_layers is None
    assert bounds.upper == 10
    assert bounds.lower == 8


def test_vertex_cap_fallback(chain10, monkeypatch):
    monkeypatch.setattr(mdg_mod, "VERTEX_CAP", 50)
    bounds = dim_bounds(chain10)
    assert not bounds.used_linking_bound
    assert bounds.upper == 10


def _reference_bounds(s, lower: int) -> checker_mod.DimBounds:
    """Bounds with the linking always run: full depth, no ceiling, the same
    caps as ``check``."""
    g = build_union_graph(s)
    reach = len(reachable_states(g))
    depth = s.n - input_rank(g)
    if depth <= checker_mod.DEFAULT_LAYER_CAP:
        try:
            mdg = build_mdg(s, depth)
        except MdgSizeError:
            pass
        else:
            return checker_mod.DimBounds(lower, min(reach, max_linking(mdg).size),
                                         True, depth)
    return checker_mod.DimBounds(lower, reach, False, None)


def test_bounds_read_from_the_ceiling_equal_the_linking():
    # every other draw is single-mode, where the probe stays below the
    # ceiling on a few draws in a thousand; those run the linking, and the
    # draws go on until four of them have
    rng = np.random.default_rng(2026)
    paths: Counter = Counter()
    for i in range(8000):
        if paths[True, True] == 4:
            break
        s = helpers.random_structure(rng, max_n=7, max_colors=1 + 2 * (i % 2),
                                     density=float(rng.uniform(0.15, 0.35)))
        if s.n < 2:
            continue
        report = check(s)
        lower = len(best_cactus_cover(build_union_graph(s)).covered)
        assert report.bounds == _reference_bounds(s, lower), s
        ran = report.probe.dim < term_rank_ceiling(report.graph)
        paths[s.subsystem_count == 1, ran] += 1
    assert paths[True, True] == 4
    assert paths[True, False] > 0 and paths[False, False] > 0


def test_check_skips_the_linking_at_the_ceiling(example1, monkeypatch):
    # the probe's rank 3 is the ceiling, so no layered graph is built
    built = helpers.spy_bounds_linkings(monkeypatch)
    report = check(example1)
    assert report.bounds == checker_mod.DimBounds(3, 3, True, 2)
    assert built == []


def test_check_links_once_below_the_ceiling(chain10, monkeypatch):
    # rank 8 against a ceiling of 9: the linking runs, and never reaches
    # the ceiling, so every depth of the schedule is built and linked once
    built = helpers.spy_bounds_linkings(monkeypatch)
    report = check(chain10)
    assert report.probe.dim == 8 < term_rank_ceiling(report.graph) == 9
    assert report.bounds == checker_mod.DimBounds(8, 8, True, 9)
    assert [(depth, linking.size) for depth, linking in built] == [
        (1, 2), (2, 3), (3, 4), (5, 7), (9, 8)]


def test_spider_links_below_the_ceiling(monkeypatch):
    # one mode's pattern twice: the probe reaches the hub, two first leg
    # states and four of the five leg ends (one per two-color word), 7,
    # below c = 8; the cover covers 5, and the linking pins upper at 7
    built = helpers.spy_bounds_linkings(monkeypatch)
    report = check(helpers.spider_structure(5, 2, 2))
    assert report.probe.dim == 7 < term_rank_ceiling(report.graph) == 8
    assert report.bounds == checker_mod.DimBounds(5, 7, True, 10)
    assert [depth for depth, _ in built] == [1, 2, 3, 5, 10]
    assert None not in [linking for _, linking in built]


def test_skipped_linking_keeps_the_vertex_cap(monkeypatch):
    # the probe reaches the ceiling, so the linking is read as c and nothing
    # is built; the vertex cap guards only graphs that are built, so the
    # depth-10 unrolling of four modes, past it, does not void the bound
    built = helpers.spy_bounds_linkings(monkeypatch)
    s = helpers.gapped_structure(1, 11, 4)
    with pytest.raises(MdgSizeError):
        mdg_mod.layer_blocks(s, 10)
    report = check(s)
    assert report.probe.dim == term_rank_ceiling(report.graph) == 10
    assert report.bounds == checker_mod.DimBounds(4, 10, True, 10)
    assert built == []


def test_linking_past_the_vertex_cap_falls_back(monkeypatch):
    # the cover's 4 is below c = 10, so the linking must run; its depth-10
    # graph is past the vertex cap, but the depth-2 linking already reaches
    # c, so no deeper graph is built and the bound holds
    built = helpers.spy_bounds_linkings(monkeypatch)
    bounds = dim_bounds(helpers.gapped_structure(1, 11, 4))
    assert bounds == checker_mod.DimBounds(4, 10, True, 10)
    assert [(depth, linking.size) for depth, linking in built] == [
        (1, 5), (2, 10)]


@pytest.mark.parametrize("spider, layer_cap, vertex_cap, bounds, depths", [
    # depth 12 is past the vertex cap; depth 3 already reaches c = 12
    ((4, 3, 3), 12, mdg_mod.VERTEX_CAP, (10, 12, True, 12), [1, 2, 3]),
    # c = 14; depth 20 is past the layer cap, so nothing is built
    ((10, 2, 3), 12, mdg_mod.VERTEX_CAP, (7, 21, False, None), []),
    # the linking stays at 13 up to depth 5; depth 10 is past the cap
    ((10, 2, 3), 20, 100_000, (7, 21, False, None), [1, 2, 3, 5, 10]),
])
def test_spider_past_the_vertex_cap(monkeypatch, spider, layer_cap, vertex_cap,
                                    bounds, depths):
    monkeypatch.setattr(mdg_mod, "VERTEX_CAP", vertex_cap)
    s = helpers.spider_structure(*spider)
    built = helpers.spy_bounds_linkings(monkeypatch)
    assert dim_bounds(s, layer_cap=layer_cap) == checker_mod.DimBounds(*bounds)
    assert [depth for depth, _ in built] == depths
    # only the build past the vertex cap is not linked
    assert [linking is None for _, linking in built] == [
        depth == 10 for depth in depths]


def test_dim_bounds_refuses_a_negative_layer_cap(chain10):
    # -1 used to read as past the layer cap: upper 10, where it is 8
    with pytest.raises(ModelError, match="layer_cap may not be negative, got -1"):
        dim_bounds(chain10, layer_cap=-1)


def test_check_refuses_a_negative_layer_cap(chain10):
    with pytest.raises(ModelError, match="layer_cap may not be negative, got -5"):
        check(chain10, layer_cap=-5)


@pytest.mark.parametrize("layer_cap", [1.5, 12.0, "12", True])
def test_dim_bounds_refuses_a_layer_cap_that_is_not_an_index(chain10, layer_cap):
    with pytest.raises(ModelError, match="layer_cap must be an integer"):
        dim_bounds(chain10, layer_cap=layer_cap)


@pytest.mark.parametrize("proven_lower", [2.5, True, "2"])
def test_dim_bounds_refuses_a_proven_lower_that_is_not_an_index(chain10, proven_lower):
    with pytest.raises(ModelError, match="proven_lower must be an integer"):
        dim_bounds(chain10, proven_lower=proven_lower)


def test_dim_bounds_refuses_a_proven_lower_above_the_ceiling(chain10):
    # no dimension passes c = 9; 99 used to skip the linking and read
    # upper 9, where the linking gives 8
    assert dim_bounds(chain10) == checker_mod.DimBounds(8, 8, True, 9)
    assert dim_bounds(chain10, proven_lower=9) == checker_mod.DimBounds(8, 9, True, 9)
    for proven_lower in (10, 99):
        with pytest.raises(ModelError, match=f"proven_lower {proven_lower} exceeds "
                                             "the term-rank ceiling 9"):
            dim_bounds(chain10, proven_lower=proven_lower)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": True}, "seed and trials must be integers"),
    ({"trials": 2.0}, "seed and trials must be integers"),
    ({"seed": 1.7}, "seed and trials must be integers"),
    ({"seed": True}, "seed and trials must be integers"),
    ({"prime": 2147483659.9}, "prime must be an integer"),
    ({"layer_cap": 1.5}, "layer_cap must be an integer")])
def test_check_refuses_arguments_that_are_not_indices(example1, kwargs, message):
    # int() would have run one trial for True, seed 1 for 1.7 and the prime
    # 2147483659 for 2147483659.9
    with pytest.raises(ModelError, match=message):
        check(example1, **kwargs)


def test_check_reads_numpy_integer_arguments(example1):
    report = check(example1, seed=np.int64(5), trials=np.int32(2),
                   layer_cap=np.int64(12))
    assert report_to_dict(report) == report_to_dict(check(example1, seed=5, trials=2))


def test_input_rank(example1, chain10):
    assert input_rank(build_union_graph(example1)) == 1
    assert input_rank(build_union_graph(chain10)) == 1


def test_input_rank_kept_on_graph(chain10, monkeypatch):
    # the input slice and its matching are built on the first call only
    calls = Counter()
    original = checker_mod.generic_rank

    def counted(g):
        calls["generic_rank"] += 1
        return original(g)
    monkeypatch.setattr(checker_mod, "generic_rank", counted)
    g = build_union_graph(chain10)
    assert input_rank(g) == input_rank(g) == 1
    assert calls["generic_rank"] == 1
    assert (checker_mod._input_rank,) in g._memo


def test_consistency_error_carries_instance(example1, monkeypatch):
    def broken(structure, *, seed, trials, prime, graph):
        return ControllabilityProbe(
            dim=1, layers_used=1, trial_dims=(1,) * trials,
            trial_layers=(1,) * trials, seed=seed, prime=prime)

    monkeypatch.setattr(checker_mod, "controllable_dim", broken)
    with pytest.raises(ConsistencyError) as err:
        check(example1)
    text = str(err.value)
    assert '"system"' in text
    payload = json.loads(text[text.index("\n") + 1:])
    assert payload["system"]["n"] == 3


def test_consistency_error_on_impossible_dim(chain10, monkeypatch):
    def inflated(structure, *, seed, trials, prime, graph):
        return ControllabilityProbe(
            dim=10, layers_used=9, trial_dims=(10,) * trials,
            trial_layers=(9,) * trials, seed=seed, prime=prime)

    monkeypatch.setattr(checker_mod, "controllable_dim", inflated)
    with pytest.raises(ConsistencyError):
        check(chain10)


def test_report_to_dict_round_trips(example1, chain10):
    for structure in (example1, chain10):
        report = check(structure)
        obj = report_to_dict(report)
        json.dumps(obj)
        assert obj["n"] == structure.n
        assert obj["controllable"] == report.controllable
        assert obj["generic_rank"] == report.generic_rank
        assert obj["dimension"]["value"] == report.probe.dim
        assert obj["bounds"]["lower"] == report.bounds.lower
        assert sorted(obj["reachable"]) == sorted(
            i + 1 for i in report.reachable)


def test_mini_harness_is_consistent():
    rng = np.random.default_rng(97)
    for _ in range(50):
        s = helpers.random_structure(rng)
        report = check(s, seed=1729)
        assert isinstance(report, CheckReport)
        assert report.bounds.lower <= report.probe.dim <= report.bounds.upper
        if report.controllable:
            assert report.certificate is not None
        else:
            assert report.certificate is None


def _mid_scale_structure(rng: np.random.Generator, n: int, colors: int) -> SwitchedStructure:
    # A columns hold 0-2 entries, so some states lose their in-edges and
    # some A_i are column-deficient; B_i has 0-2 columns of 1-2 entries
    subsystems = []
    for _ in range(colors):
        a = {(int(r), c) for c in range(n)
             for r in rng.choice(n, size=int(rng.choice(3, p=[0.15, 0.45, 0.4])),
                                 replace=False)}
        m = int(rng.integers(0, 3))
        b = {(int(r), c) for c in range(m)
             for r in rng.choice(n, size=int(rng.integers(1, 3)), replace=False)}
        subsystems.append((StructuredMatrix(n, n, frozenset(a)),
                           StructuredMatrix(n, m, frozenset(b))))
    return SwitchedStructure(n=n, subsystems=tuple(subsystems))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=20, max_value=60),
       st.integers(min_value=1, max_value=3))
def test_mid_scale_views_agree(seed, n, colors):
    # beyond brute force: check() itself raises ConsistencyError when the
    # verdict, the rank probe and the cover/linking sandwich disagree; the
    # layer cap lets one-mode systems reach a linking bound at any depth;
    # hypothesis runs the body many times per call, so the cap is patched
    # inside it rather than by a function-scoped fixture
    s = _mid_scale_structure(np.random.default_rng(seed), n, colors)
    with patch.object(mdg_mod, "VERTEX_CAP", 50_000):
        report = check(s, layer_cap=n)
    conventional = conventional_cactus_cover(report.graph)
    assert len(conventional.covered) <= report.bounds.lower
    if report.controllable:
        assert report.certificate == report.cover.decomposition


@pytest.mark.parametrize("name", ["example1", "boost", "chain10"])
def test_check_runs_one_unrestricted_matching_per_graph(name, monkeypatch):
    # a mask that allows every head gives the unrestricted matching again,
    # so it counts as one; the graphs are kept alive as counter keys
    # (the verdict, the cover fixpoint's first round and the ceiling all
    # read the kept row matching)
    counts: Counter = Counter()
    original = unigraph_mod._row_matching

    def counted(g, allowed_heads=None):
        if allowed_heads is None or set(allowed_heads) >= set(range(g.n)):
            counts[g] += 1
        return original(g, allowed_heads)
    monkeypatch.setattr(unigraph_mod, "_row_matching", counted)
    report = check(helpers.load_system(name))
    assert counts[report.graph] == 1
    assert set(counts.values()) == {1}


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.sampled_from([0.2, 0.3, 0.5]))
def test_certificate_is_decomposed_independent_set(seed, density):
    # the reference: the full independent edge set, split into its pieces;
    # about two draws in three are controllable
    s = helpers.random_structure(np.random.default_rng(seed), max_n=8,
                                 density=density)
    report = check(s)
    if report.controllable:
        g = build_union_graph(s)
        assert report.certificate == decompose(max_independent_edges(g),
                                               reachable_states(g))


@pytest.mark.parametrize("name", ["example1", "boost", "chain10"])
def test_check_decomposes_nothing_on_success(name, monkeypatch):
    # the certificate is read off the cover; only a failed cross-check
    # rebuilds the independent set to report what it dropped
    def refused(*args, **kwargs):
        raise AssertionError("called on the success path")
    monkeypatch.setattr(checker_mod, "decompose", refused)
    monkeypatch.setattr(checker_mod, "max_independent_edges", refused)
    report = check(helpers.load_system(name))
    assert report.controllable == (name != "chain10")


@pytest.mark.parametrize("name", ["example1", "boost"])
def test_check_builds_edges_only_for_the_cover(name, monkeypatch):
    # every rank is counted on row matchings, so the only edges built are
    # those of the cover the fixpoint returns
    calls = []
    original = UnionGraph._row_tail

    def counted(self, row):
        calls.append(row)
        return original(self, row)
    monkeypatch.setattr(UnionGraph, "_row_tail", counted)
    report = check(helpers.load_system(name))
    monkeypatch.undo()
    d = report.cover.decomposition
    assert len(calls) == (len(d.stems) + sum(map(len, d.cycle_groups))
                          + len(d.dropped))


def test_certificate_check_reports_dropped_edges(example1, monkeypatch):
    # a decomposition core that drops the first stem edge leaves no total
    # cover of a controllable structure
    certificate = check(example1).certificate
    first = certificate.stems[0]
    original = cactus_mod._pieces

    def dropping(tails, heads, reachable):
        stems, cycle_groups, dropped = original(tails, heads, reachable)
        if stems:
            dropped = sorted(dropped + stems[:1])
            stems = stems[1:]
        return stems, cycle_groups, dropped
    monkeypatch.setattr(cactus_mod, "_pieces", dropping)
    with pytest.raises(ConsistencyError) as err:
        check(example1)
    message, dump = str(err.value).split("\n", 1)
    assert message == ("verdict says controllable but the full independent "
                       "set does not decompose into a total cover")
    facts = json.loads(dump)["facts"]
    assert facts == {
        "covered": sorted(v + 1 for v in certificate.covered - {first.head}),
        "dropped": [edge_to_dict(first)],
    }


def test_dim_bounds_refuses_a_graph_of_another_structure():
    # an 8-state graph once gave a 30-state structure's bounds as 30 and 30
    gapped, wide = helpers.gapped_structure(1, 8, 3), helpers.wide_structure(1, 30, 3)
    for structure, other in ((gapped, wide), (wide, gapped)):
        with pytest.raises(ModelError, match="graph is not this structure's union graph"):
            dim_bounds(structure, graph=build_union_graph(other))
    # the same state and input counts, other rows; a color slice; and one
    # more state, isolated, which leaves a one-color graph's rows as they are
    shifted = helpers.wide_structure(2, 30, 3)
    g = build_union_graph(wide)
    one = helpers.gapped_structure(1, 8, 1)
    for structure, graph in ((wide, build_union_graph(shifted)),
                             (wide, restrict_to_color(g, 0)), (wide, "graph"),
                             (one, UnionGraph(9, one.input_counts,
                                              build_union_graph(one).edges))):
        with pytest.raises(ModelError, match="graph is not this structure's union graph"):
            dim_bounds(structure, graph=graph)
    # an equal structure parsed again, and the public constructor's graph
    again = parse_system(serialize_system(wide))
    rebuilt = UnionGraph(wide.n, wide.input_counts, g.edges)
    for graph in (g, rebuilt):
        assert dim_bounds(again, graph=graph) == dim_bounds(wide)
