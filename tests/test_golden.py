"""Byte-identity of the default CLI output on the bundled systems.

The files under ``data/golden`` were written by ``swcactus`` itself; any
change to a verdict, a bound, a cover or a linking path shows up here as a
byte difference.  Regenerate one with, for example,
``swcactus mdg tests/data/chain10.json > tests/data/golden/mdg_chain10.json``
when a change to the output is intended, and say why in the change log.
"""

import pytest

import helpers
from swcactus.cli import main

GOLDEN_DIR = helpers.DATA_DIR / "golden"
P61 = str((1 << 61) - 1)

# (golden file, command line, exit code); check exits 1 when uncontrollable
CASES = [
    ("check_example1.json", ["check", "example1.json"], 0),
    ("check_chain10.json", ["check", "chain10.json"], 1),
    ("check_boost.json", ["check", "boost.json"], 0),
    ("mdg_example1.json", ["mdg", "example1.json"], 0),
    ("mdg_chain10.json", ["mdg", "chain10.json"], 0),
    ("mdg_boost.json", ["mdg", "boost.json"], 0),
    ("mdg_example1_layers2.dot",
     ["mdg", "example1.json", "--layers", "2", "--format", "dot"], 0),
    ("bounds_example1.json", ["bounds", "example1.json"], 0),
    ("bounds_chain10.json", ["bounds", "chain10.json"], 0),
    ("bounds_boost.json", ["bounds", "boost.json"], 0),
    ("cactus_example1.json", ["cactus", "example1.json"], 0),
    ("cactus_chain10.json", ["cactus", "chain10.json"], 0),
    ("cactus_boost.json", ["cactus", "boost.json"], 0),
    ("grank_example1.json", ["grank", "example1.json"], 0),
    ("grank_chain10.json", ["grank", "chain10.json"], 0),
    ("grank_boost.json", ["grank", "boost.json"], 0),
    ("check_example1.dot", ["check", "example1.json", "--format", "dot"], 0),
    ("check_chain10.dot", ["check", "chain10.json", "--format", "dot"], 1),
    ("counterexample_boost.json", ["counterexample", "boost.json"], 0),
    ("counterexample_example1.json", ["counterexample", "example1.json"], 0),
    # the realized values pin the sampler's stream: random.Random per seed
    ("realize_example1.json", ["realize", "example1.json"], 0),
    ("realize_example1_real.json", ["realize", "example1.json", "--field", "real"], 0),
    # wide60 is perfbench/families.py wide(random.Random(11), 60, 3), the
    # first uncontrollable draw: the rank probe runs three rounds that grow
    # the span and one that does not.  It sits in a subdirectory because the
    # benchmark times the CLI on every tests/data/*.json
    ("check_wide60.json", ["check", "probe/wide60.json"], 1),
    # a 57-state mixed cover, and a matching of 59 of its 366 edges
    ("cactus_wide60.json", ["cactus", "probe/wide60.json"], 0),
    ("grank_wide60.json", ["grank", "probe/wide60.json"], 0),
    # gapped6 is perfbench/families.py gapped(random.Random(0), 6, 3): a
    # linking of 5 out of 2548 layered vertices, where the matching leaves
    # chains that stop short of layer 0
    ("mdg_gapped6.json", ["mdg", "probe/gapped6.json"], 0),
    # the probe over 2**61 - 1, the default prime before 2**32 - 5: only the
    # prime line differs from the default output
    ("check_example1_p61.json", ["check", "example1.json", "--prime", P61], 0),
    ("check_chain10_p61.json", ["check", "chain10.json", "--prime", P61], 1),
    ("check_boost_p61.json", ["check", "boost.json", "--prime", P61], 0),
    ("check_wide60_p61.json", ["check", "probe/wide60.json", "--prime", P61], 1),
]


@pytest.mark.parametrize("golden, argv, exit_code", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(tmp_path, golden, argv, exit_code):
    command, system, *options = argv
    out = tmp_path / golden
    code = main([command, str(helpers.DATA_DIR / system), "-o", str(out), *options])
    assert code == exit_code
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_top_level_documents_are_pinned():
    # perfbench/run.py times ``swcactus check`` on every top-level
    # tests/data/*.json, so a file added there silently changes cli_s.p50
    top = sorted(p.name for p in helpers.DATA_DIR.glob("*.json"))
    assert top == ["boost.json", "chain10.json", "example1.json"], (
        "new documents belong in tests/data/probe/: the benchmark times the "
        "CLI on every top-level tests/data/*.json")
