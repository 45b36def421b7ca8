"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``-s`` to see them on success)
and then asserts, so a red criterion is both visible and fatal.
"""
import time

import numpy as np
import pytest

import helpers
from helpers import det_ff, layered_product_columns, linking_determinant_expansion
from swcactus import (
    DEFAULT_PRIME,
    averaged_pair_rank,
    best_cactus_cover,
    build_mdg,
    build_union_graph,
    check,
    dim_bounds,
    generic_rank,
    max_independent_edges,
    max_linking,
    reachable_states,
    sample_realization,
)

P = DEFAULT_PRIME


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def harness():
    rng = np.random.default_rng(20260822)
    rows = []
    check_elapsed = 0.0
    for _ in range(500):
        s = helpers.random_structure(rng, max_n=5, max_colors=3)
        start = time.perf_counter()
        report = check(s, seed=1729)
        check_elapsed += time.perf_counter() - start
        conv = dim_bounds(s, conventional=True, graph=report.graph)
        rows.append((s, report, conv))
    return rows, check_elapsed


def test_ac1_small_example_end_to_end():
    s = helpers.load_system("example1")
    start = time.perf_counter()
    report = check(s)
    elapsed = time.perf_counter() - start
    ok = (report.generic_rank == 3 and report.controllable
          and report.probe.trial_dims == (3,) and elapsed < 0.1)
    _report("AC1", ok,
            f"grank={report.generic_rank} controllable={report.controllable} "
            f"trial_dims={report.probe.trial_dims} elapsed={elapsed:.4f}s")


def test_ac2_mode_mixing_loses_rank():
    s = helpers.load_system("example1")
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0
    for trial in range(3):
        r = sample_realization(s, seed=trial)
        for _ in range(100):
            weights = [int(rng.integers(1, P)) for _ in range(2)]
            worst = max(worst, averaged_pair_rank(s, r, weights))
    elapsed = time.perf_counter() - start
    ok = worst <= 2 and elapsed < 1.0
    _report("AC2", ok,
            f"max averaged-pair rank {worst} over 300 draws "
            f"(full rank would be 3), elapsed={elapsed:.3f}s")


def test_ac3_frozen_layered_linking():
    s = helpers.load_system("example1")
    mdg = build_mdg(s, 2)
    linking = max_linking(mdg)
    expected_tails = (
        ("u", 0, 0, 0, 0, 0),
        ("u", 1, 0, 0, 0, 0),
        ("u", 1, 1, 0, 0, 0),
    )
    r = sample_realization(s, seed=0)
    lgv = linking_determinant_expansion(mdg, r, linking.heads(),
                                        linking.tails())
    a21 = r.values[(0, "A", 1, 0)]
    a31 = r.values[(1, "A", 2, 0)]
    b1 = r.values[(0, "B", 0, 0)]
    closed_form = (a21 * a31 * pow(b1, 3, P)) % P
    cols, _ = layered_product_columns(s, r, 2)
    idx = [mdg.input_column_index(t) for t in sorted(linking.tails())]
    minor = det_ff([[cols[c][row] for row in sorted(linking.heads())]
                    for c in idx], P)
    ok = (linking.size == 3 and linking.tails() == expected_tails
          and lgv == closed_form == minor)
    _report("AC3", ok,
            f"linking size={linking.size}, tails={linking.tails()}, "
            f"expansion == minor == closed form: "
            f"{lgv == closed_form == minor}")


def test_ac4_path_expansion_equals_minor():
    rng = np.random.default_rng(41)
    start = time.perf_counter()
    compared = 0
    while compared < 50:
        s = helpers.sparse_structure(rng, max_n=3, max_colors=2, max_edges=6)
        depth = min(s.n, 3)
        mdg = build_mdg(s, depth)
        linking = max_linking(mdg)
        if linking.size == 0:
            continue
        r = sample_realization(s, seed=compared)
        lgv = linking_determinant_expansion(mdg, r, linking.heads(),
                                            linking.tails())
        cols, _ = layered_product_columns(s, r, depth)
        idx = [mdg.input_column_index(t) for t in sorted(linking.tails())]
        minor = det_ff([[cols[c][row] for row in sorted(linking.heads())]
                        for c in idx], P)
        assert lgv == minor, f"instance {compared}: {lgv} != {minor}"
        compared += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report("AC4", ok,
            f"{compared} signed path expansions matched their minors, "
            f"elapsed={elapsed:.2f}s")


def test_ac5_random_harness_consistent(harness):
    rows, elapsed = harness
    controllable = 0
    for s, report, _ in rows:
        max_dim = max(report.probe.trial_dims)
        if report.controllable:
            controllable += 1
            assert max_dim == s.n
            assert report.certificate is not None
        else:
            assert all(d < s.n for d in report.probe.trial_dims)
            assert report.certificate is None
    ok = elapsed < 60.0
    _report("AC5", ok,
            f"500 systems checked with zero disagreements "
            f"({controllable} controllable), elapsed={elapsed:.2f}s")


def test_ac6_bound_sandwich(harness):
    rows, _ = harness
    for s, report, conv in rows:
        dim = report.probe.dim
        assert conv.lower <= report.bounds.lower, (conv, report.bounds)
        assert report.bounds.lower <= dim <= report.bounds.upper, \
            (report.bounds, dim)
    _report("AC6", True,
            "conventional lower <= mixed lower <= dimension <= upper "
            "held on all 500 systems")


def test_ac7_branching_chain_frozen_values():
    s = helpers.load_system("chain10")
    report = check(s)
    conv = dim_bounds(s, conventional=True, graph=report.graph)
    linking = max_linking(build_mdg(s, 9))
    got = (report.generic_rank, len(best_cactus_cover(report.graph).covered),
           conv.lower, report.probe.dim, linking.size)
    ok = got == (9, 8, 6, 8, 8)
    _report("AC7", ok,
            f"(grank, cover, conventional cover, dim, linking) = {got}, "
            f"expected (9, 8, 6, 8, 8)")


def test_ac8_brute_force_agreement():
    rng = np.random.default_rng(83)
    granks = 0
    while granks < 100:
        s = helpers.sparse_structure(rng, max_n=4, max_colors=3, max_edges=6)
        g = build_union_graph(s)
        brute = helpers.brute_max_independent(g)
        assert brute == generic_rank(g), (brute, generic_rank(g))
        granks += 1

    gaps = 0
    covers = 0
    while covers < 40:
        s = helpers.sparse_structure(rng, max_n=6, max_colors=3, max_edges=12)
        g = build_union_graph(s)
        exact = helpers.brute_best_cover(g)
        heur = len(best_cactus_cover(g).covered)
        assert heur <= exact, (heur, exact)
        if heur < exact:
            gaps += 1
        covers += 1
    _report("AC8", True,
            f"100 brute-force rank agreements; heuristic cover matched the "
            f"exact optimum on {covers - gaps}/{covers} sparse systems "
            f"({gaps} gaps, heuristic never exceeded exact)")
