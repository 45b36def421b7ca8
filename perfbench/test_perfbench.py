"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import calib
import families
import oracle
import run
import swcactus
import reference
from worker import summarize

HERE = Path(__file__).resolve().parent
SEED = families.DEFAULT_SEED


def _texts(workload: str, seed: int) -> list[str]:
    return [families.serialize(rec["doc"]) for rec in families.instances(workload, seed)]


@pytest.mark.parametrize("workload", families.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    first = _texts(workload, SEED)
    assert first == _texts(workload, SEED)
    assert first != _texts(workload, SEED + 1)
    assert reference.load(workload, SEED, first) is not None


def test_deep_variants_behave_as_designed():
    for rec in families.instances("deep", SEED):
        structure = swcactus.parse_system(families.serialize(rec["doc"]))
        g = swcactus.build_union_graph(structure)
        reachable = len(swcactus.reachable_states(g))
        if rec["family"] == "gapped":
            assert swcactus.controllable_dim(structure, seed=1729).dim < reachable
        else:
            assert reachable == structure.n
            assert swcactus.generic_rank(g) == structure.n


@pytest.mark.parametrize("workload", ["wide", "cover"])
def test_wide_and_cover_exceed_the_layer_cap(workload):
    assert oracle.LAYER_CAP == swcactus.DEFAULT_LAYER_CAP
    for text in _texts(workload, SEED):
        structure = swcactus.parse_system(text)
        depth = structure.n - swcactus.input_rank(swcactus.build_union_graph(structure))
        assert depth > swcactus.DEFAULT_LAYER_CAP


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(families.WORKLOADS)
    for name in [*end_to_end, *per_layer]:
        assert name_ok.match(name), name


@pytest.mark.parametrize("workload", families.WORKLOADS)
def test_references_reproduce_at_the_default_seed(workload):
    texts = _texts(workload, SEED)
    got = [reference.answers(families.KIND[workload], t) for t in texts]
    assert got == reference.load(workload, SEED, texts)


@pytest.mark.parametrize("workload", families.WORKLOADS)
def test_oracle_agrees_with_the_package(workload):
    for text in _texts(workload, SEED)[:40]:
        structure = swcactus.parse_system(text)
        g = swcactus.build_union_graph(structure)
        truth = oracle.facts(json.loads(text))
        assert truth["reachable"] == len(swcactus.reachable_states(g))
        assert truth["generic_rank"] == swcactus.generic_rank(g)
        assert truth["depth_needed"] == structure.n - swcactus.input_rank(g)


def test_a_lower_bound_below_its_reference_is_a_mismatch():
    truth = {"n": 5, "reachable": 5, "generic_rank": 4, "controllable": False,
             "depth_needed": 3}
    out = {"controllable": False, "generic_rank": 4, "reachable": 5, "dim": 4,
           "lower": 3, "upper": 4, "used_linking": True}
    ref = dict(out, lower=4)
    del ref["used_linking"]
    assert oracle.check_op("check", "gapped", out, truth, None) == []
    assert oracle.check_op("check", "gapped", dict(out, lower=4), truth, ref) == []
    assert any("below reference" in p
               for p in oracle.check_op("check", "gapped", out, truth, ref))


def test_summarize_self_time_and_stages():
    spans = [
        ["op", 0.0, 10.0, None, 0, None, None],
        ["checker.check", 0.0, 10.0, 0, 0, None, None],
        ["rankcore.controllable_dim", 1.0, 7.0, 1, 0, None,
         {"rankcore.dim": 5, "rankcore.layers_used": 2}],
        ["model.sample_realization", 1.0, 2.0, 2, 0, None, None],
        ["cactus.best_cactus_cover", 7.0, 9.0, 1, 0, None, {"cactus.covered": 4}],
        ["unigraph.max_independent_edges", 7.5, 8.5, 4, 0, None,
         {"unigraph.matching_size": 4}],
    ]
    out = summarize(spans, 0, [True], {0: 0})
    assert out["checker.self_s"] == pytest.approx(2.0)
    assert out["rankcore.self_s"] == pytest.approx(5.0)
    assert out["cactus.self_s"] == pytest.approx(1.0)
    assert out["share.rankcore"] == pytest.approx(0.6)
    assert out["share.cactus"] == pytest.approx(0.2)
    assert out["share.unigraph"] == 0
    assert out["share.checker"] == pytest.approx(0.2)
    assert out["mdg.skipped"] == out["mdg.skipped.layer_cap"] == 1
    assert out["rankcore.dim"] == 5 and out["unigraph.matching_size"] == 4


def test_calibration_scales_to_the_reference_speed():
    assert calib.factor([calib.REF_S] * 3) == pytest.approx(1.0)
    # a machine at half speed: the median slice takes twice REF_S
    assert calib.factor([2 * calib.REF_S, calib.REF_S, 9.0]) == pytest.approx(0.5)
    assert calib.factor([0.2, 0.4], ref=0.15) == pytest.approx(0.5)
    # x -> (A*x + 1) mod 2**k visits every entry once (Hull-Dobell)
    assert calib._CHASE_A % 4 == 1


def test_wide_tail_sits_inside_the_uncontrollable_class():
    recs = families.instances("wide", SEED)
    slow = [r for r in recs if not oracle.facts(r["doc"])["controllable"]]
    assert len(slow) == 7 and all(r["doc"]["n"] == 70 for r in slow)
    for passes in (2, 3, 4):
        _, beyond = run.percentile([0.0] * (len(recs) * passes),
                                   run.TAIL_PERCENTILE["wide"])
        assert len(slow) * passes / 3 < beyond < len(slow) * passes
