import dataclasses
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import swcactus
import swcactus.cactus as cactus_mod
import swcactus.checker as checker_mod
import swcactus.cli as cli_mod
import swcactus.rankcore as rankcore_mod
from swcactus.cli import main

EX1 = "tests/data/example1.json"
FIG3A = "tests/data/chain10.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", EX1)
    assert code == 0
    assert json.loads(out)["controllable"] is True
    code, out, _ = run(capsys, "check", FIG3A)
    assert code == 1
    assert json.loads(out)["controllable"] is False


def test_consistency_error_exits_three(capsys, monkeypatch):
    # a probe that undershoots by one contradicts the graph verdict; exit 1
    # would read as "not controllable", so the contradiction has its own code
    original = checker_mod.controllable_dim

    def undershoot(*args, **kwargs):
        probe = original(*args, **kwargs)
        return dataclasses.replace(probe, dim=probe.dim - 1)

    monkeypatch.setattr(checker_mod, "controllable_dim", undershoot)
    code, out, err = run(capsys, "check", EX1)
    assert code == 3
    assert out == ""
    message, dump = err.split("\n", 1)
    assert message == ("error: graph criteria say controllable but the rank "
                       "probe disagrees")
    assert json.loads(dump)["facts"]["probe_dim"] == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "tests/data/no_such.json")
    assert code == 2
    assert "error:" in err


def test_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["check", "grank"])
@pytest.mark.parametrize("content", [b"[" * 200000, b'{"n": 1\xc3\x28}'],
                         ids=["nested", "not_utf8"])
def test_undecodable_input_exits_two(tmp_path, capsys, command, content):
    # nesting past the decoder's recursion limit and bytes that are not
    # UTF-8 are bad input, not a "not controllable" verdict
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, command, str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: input is not valid JSON: ")


def test_undecodable_stdin_exits_two(capsys, monkeypatch):
    # a strict UTF-8 stdin must hand its bytes to the parser, not raise
    # while decoding them
    stdin = io.TextIOWrapper(io.BytesIO(b'{"n": 1\xc3\x28}'),
                             encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, "check", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: input is not valid JSON: ")


def test_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "subsystems": [{"A": [[0, 1]],
                                                      "B": {"cols": 1,
                                                            "nonzeros": []}}]}))
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "subsystem 1" in err


def _limit_address_space():
    # a parser that allocates per column fails here with MemoryError instead
    # of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


@pytest.mark.parametrize("n, m, a", [(300_000_000, 0, []), (1, 299_999_999, []),
                                     (300_000_000, 0, [[1, 1]])],
                         ids=["300000000-0", "1-299999999", "300000000-0-one-entry"])
def test_huge_dimensions_exit_2_before_allocating(n, m, a):
    # a 90-byte document naming hundreds of millions of pattern columns; the
    # cap is checked before A's columns are laid out, empty or not
    payload = json.dumps({"n": n, "subsystems": [
        {"A": a, "B": {"cols": m, "nonzeros": []}}]})
    env = dict(os.environ)
    src = str(Path(swcactus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "swcactus.cli", "check", "-"], input=payload,
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: subsystem 1: 300000000 pattern columns so far")
    assert "over the cap of 1000000" in proc.stderr
    assert cpu_s < 1.0


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0
    capsys.readouterr()


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_all_json_subcommands_parse(capsys):
    for argv in (
        ["check", EX1],
        ["grank", EX1],
        ["bounds", EX1],
        ["cactus", EX1],
        ["mdg", EX1, "--layers", "2"],
        ["realize", EX1],
        ["counterexample", EX1, "--samples", "5"],
    ):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1), (argv, err)
        json.loads(out)


def test_grank_values(capsys):
    _, out, _ = run(capsys, "grank", FIG3A)
    doc = json.loads(out)
    assert doc["generic_rank"] == 9
    assert doc["n"] == 10


def test_bounds_values(capsys):
    _, out, _ = run(capsys, "bounds", FIG3A)
    doc = json.loads(out)
    assert doc["lower"] == 8 and doc["upper"] == 8


def test_bounds_runs_one_linking(capsys, monkeypatch):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    built = helpers.spy_bounds_linkings(monkeypatch)
    counted(checker_mod, "input_rank")
    counted(cactus_mod, "_cover_fixpoint")
    code, out, _ = run(capsys, "bounds", FIG3A)
    assert code == 0
    assert json.loads(out)["conventional_lower"] == 6
    # the linking stays below c = 9, so each depth of the schedule is built
    # and linked once
    assert [depth for depth, _ in built] == [1, 2, 3, 5, 9]
    assert None not in [linking for _, linking in built]
    assert calls["input_rank"] == 1
    # one all-color fixpoint plus one per color, shared by both lower bounds
    assert calls["_cover_fixpoint"] == 1 + 2


@pytest.mark.parametrize("command", ["grank", "bounds", "cactus"])
def test_long_augmenting_path(capsys, monkeypatch, command):
    # the matching needs an augmenting path through all 5000 states; a
    # recursive search ran out of stack near 1000
    doc = json.dumps(helpers.chain_document(5000))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, command, "-")
    assert code == 0 and err == ""
    if command == "grank":
        assert json.loads(out)["generic_rank"] == 5000
    if command == "bounds":
        assert json.loads(out)["lower"] == 5000


@pytest.mark.parametrize("prime", ["18446744073709551557",
                                   "318665857834031151167461"])
def test_prime_beyond_sampler_exit_2(capsys, monkeypatch, prime):
    # the first is prime but past the supported range, the second a
    # composite that the 12-base Miller-Rabin test passes
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(EX1).read_text()))
    code, out, err = run(capsys, "check", "-", "--prime", prime)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "2**63" in lines[0]


def test_counterexample_rejects_zero_samples(capsys):
    code, out, err = run(capsys, "counterexample", "tests/data/boost.json",
                         "--samples", "0")
    assert code == 2
    assert out == ""
    assert "at least one sample" in err


def test_counterexample_draws_each_realization_once(capsys, monkeypatch):
    calls = []
    original = cli_mod.sample_realization

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return original(*args, **kwargs)
    for module in (cli_mod, rankcore_mod):
        monkeypatch.setattr(module, "sample_realization", counted)
    code, out, _ = run(capsys, "counterexample", "tests/data/boost.json",
                       "--samples", "5")
    assert code == 0
    assert json.loads(out)["probe_dim"] == 2
    assert sorted(calls) == [1729, 1730, 1731]


@pytest.mark.parametrize("path,probe_dim,calls", [(EX1, 3, 1), (FIG3A, 8, 3)])
def test_counterexample_probe_stops_at_ceiling(capsys, monkeypatch, path,
                                               probe_dim, calls):
    # example1 reaches its ceiling c = 3 on the first realization; chain10
    # never does (c = 9 > dim = 8), so every realization is probed
    dims = []
    original = rankcore_mod.reachable_space_dim

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        dims.append(result[0])
        return result
    monkeypatch.setattr(rankcore_mod, "reachable_space_dim", counted)
    code, out, _ = run(capsys, "counterexample", path, "--samples", "2")
    assert code == 0
    assert json.loads(out)["probe_dim"] == probe_dim
    assert dims == [probe_dim] * calls


def test_counterexample_rejects_zero_trials(capsys):
    code, out, err = run(capsys, "counterexample", EX1, "--trials", "0")
    assert code == 2 and out == ""
    assert "at least one trial" in err


def test_trials_only_where_read(capsys):
    assert run(capsys, "realize", EX1, "--trials", "2")[0] == 2
    assert run(capsys, "check", EX1, "--trials", "2")[0] == 0
    assert run(capsys, "counterexample", EX1, "--trials", "2",
               "--samples", "1")[0] == 0


@pytest.mark.parametrize("argv, flag", [
    (["check", EX1, "--layer-cap", "-3"], "--layer-cap"),
    (["bounds", EX1, "--layer-cap", "-1"], "--layer-cap"),
    (["mdg", EX1, "--layer-cap", "-2"], "--layer-cap"),
    (["mdg", EX1, "--layers", "-1"], "--layers"),
    (["mdg", EX1, "--layers", "2", "--layer-cap", "-1"], "--layer-cap"),
])
def test_negative_depth_flags_exit_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and flag in lines[0]


@pytest.mark.parametrize("layers", ["10000", "20000"])
def test_oversize_layers_exit_2(layers):
    env = dict(os.environ)
    src = str(Path(swcactus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "swcactus.cli", "mdg", EX1, "--layers", layers],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "cap" in lines[0]
    assert len(lines[0]) < 200


# run in a fresh interpreter, where nothing has loaded numpy yet
_NUMPY_FREE_SCRIPT = """
import os, sys
import swcactus
from swcactus.cli import main
assert "numpy" not in sys.modules, "import swcactus"
ex1 = sys.argv[1]
for argv in (["check", ex1], ["bounds", ex1], ["cactus", ex1], ["mdg", ex1],
             ["grank", ex1], ["realize", ex1], ["realize", ex1, "--field", "real"],
             ["counterexample", ex1, "--samples", "5"]):
    assert main([*argv, "-o", os.devnull]) == 0, argv
    assert "numpy" not in sys.modules, argv
system = swcactus.parse_system(open(ex1).read())
real = swcactus.sample_realization(system, field_kind="real", seed=4)
assert swcactus.reachable_space_dim(system, real) == (3, 1)
assert "numpy" in sys.modules
"""


def test_check_path_leaves_numpy_unloaded():
    env = dict(os.environ)
    src = str(Path(swcactus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT, EX1],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_mdg_values(capsys):
    _, out, _ = run(capsys, "mdg", EX1, "--layers", "2")
    doc = json.loads(out)
    assert doc["depth"] == 2
    assert doc["vertex_count"] == 35
    assert doc["linking_size"] == 3
    assert doc["tail_column_indices"] == [1, 3, 5]


def test_union_dot_output(capsys):
    _, out, _ = run(capsys, "check", EX1, "--format", "dot")
    assert out.startswith("digraph")
    assert "shape=box" in out
    assert "color=red" in out


def test_mdg_dot_output(capsys):
    _, out, _ = run(capsys, "mdg", EX1, "--layers", "2", "--format", "dot")
    assert out.startswith("digraph")
    assert "rank=same" in out
    assert "color=red" in out


def test_counterexample_reports_loss(capsys):
    _, out, _ = run(capsys, "counterexample", EX1, "--samples", "20")
    doc = json.loads(out)
    assert doc["max_mixed_rank"] <= 2
    assert doc["mixing_loses_rank"] is True


def test_stdin_input(capsys, monkeypatch):
    payload = open(EX1).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "grank", "-")
    assert code == 0
    assert json.loads(out)["generic_rank"] == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", EX1, "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["controllable"] is True


def test_byte_deterministic(capsys):
    _, first, _ = run(capsys, "check", FIG3A)
    _, second, _ = run(capsys, "check", FIG3A)
    assert first == second


@pytest.mark.skipif(shutil.which("swcactus") is None,
                    reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(["swcactus", "check", EX1],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["controllable"] is True
