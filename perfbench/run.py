"""Benchmark of the swcactus pipeline: one workload per run, closed loop.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  One client runs the workload's ops back to back in a child
process for ``--seconds`` (always at least one full pass over the seeded
instance set), with a wall-clock budget per op enforced from here.  Every
op's output is checked against independent oracle facts and, for seeds in
``reference.json``, against the seed code's answers.  ``--trace 1`` also
times the layers through wrappers installed by the child (see worker.py)
and prints per-layer metrics instead of end-to-end ones.

Every reported time is in reference seconds: the wall time scaled by
calibration work timed next to it, which takes out the drift of a shared
machine's speed (see calib.py).  The unscaled wall times are printed on a
comment line.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat every metric by name
with its unit.  Trace spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import families  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
from worker import SPAN_NAMES, STAGES  # noqa: E402

# The op-time percentile reported as op_s.tail, fixed per workload so that it
# means the same thing on every commit: about the highest with ten samples
# beyond it at the seed code's op count in a 22 s run.  Passes repeat the
# same instances, so the samples beyond it must also span enough distinct
# instances, and it sits in the middle of the slowest class's repeats, not
# on the edge between two classes.  On wide, p90 is the middle of the seven
# uncontrollable n=70 instances; on deep, p85 the middle of the six n=8
# instances.  On small, p95 rests on the costliest 60 of 1200 draws; at 400
# draws p99 and p97.5 rested on 4-10 and swung 30% from seed to seed.  A
# run holds only 20-25 cover ops, where ten beyond would make the tail the
# median; cover's p90 is the middle of the slowest instance's repeats, with
# two or three beyond it.
TAIL_PERCENTILE = {"wide": 90, "deep": 85, "cover": 90, "small": 95}
# Wall-clock budget per op, about 20x the seed code's slowest op: an op over
# it (an exponential unrolling, an unbounded probe) is killed, counted as
# failed, and ends the run's passes.
OP_BUDGET_S = {"wide": 30.0, "deep": 30.0, "cover": 30.0, "small": 5.0}
SETUP_REPEATS = 3
CLI_SMALL = 4  # seeded small instances per run, besides tests/data/*.json
# CLI runs of each document: one run varies by 15% even after scaling, so
# cli_s.p50 rests on 14 of them.
CLI_REPEATS = 2
RUN_DEADLINE_S = 170.0  # every child is stopped by then; a run must end in 180 s

END_TO_END = {
    "pass_s": "s", "op_s.p50": "s", "op_s.tail": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "frac", "cli_s.p50": "s",
}
COUNTS = ("ops", "rankcore.dim", "rankcore.layers_used", "mdg.vertices",
          "mdg.linking_size", "mdg.skipped", "mdg.skipped.layer_cap",
          "mdg.skipped.vertex_cap", "unigraph.edges", "unigraph.matching_size",
          "cactus.covered")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}.calls"] = "count"
    for module in ("checker", "unigraph", "cactus", "rankcore", "mdg", "model"):
        units[f"{module}.self_s"] = "s"
    for stage in STAGES:
        units[f"share.{stage}"] = "frac"
    units.update({name: "count" for name in COUNTS})
    units.update({"model.parse_system_s": "s", "cli.import_s": "s",
                  "cli.main_s": "s", "trace.overhead_frac": "frac",
                  "bound_ratio": "ratio"})
    return units


class Failures:
    """Attempted and failed ops.  Any failure makes the run incorrect: a
    wrong answer, an exception, an op over its budget or a dead child."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append("; ".join(problems))


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _wait(proc: subprocess.Popen, deadline: float, budget: float,
          stdin: str) -> tuple[str, bool]:
    timeout = max(0.1, min(budget, deadline - time.monotonic()))
    try:
        out, _ = proc.communicate(stdin, timeout=timeout)
        return out, True
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "", False


def child(args: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env)


def probe_setup(payload: str, env: dict, deadline: float,
                fails: Failures | None) -> dict | None:
    """One fresh-interpreter import plus parse, in reference seconds; None
    when it failed.  Calibration processes run just before and after."""
    samples = [calib.process_s(env)]
    proc = child([str(HERE / "worker.py"), "setup"], env)
    out, ok = _wait(proc, deadline, 30.0, payload)
    samples.append(calib.process_s(env))
    good = ok and proc.returncode == 0
    if fails is not None:
        fails.record([] if good else [f"setup run failed (exit {proc.returncode})"])
    if not good:
        return None
    sample = json.loads(out)
    scale = calib.factor(samples, calib.PROCESS_REF_S)
    return {"import_s": sample["import_s"] * scale, "parse_s": sample["parse_s"] * scale,
            "wall_s": sample["import_s"] + sample["parse_s"]}


def _check_cli(code: int, out: str, truth: dict) -> list[str]:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return [f"cli printed no JSON (exit {code})"]
    bad = []
    if code != (0 if truth["controllable"] else 1):
        bad.append(f"cli exit {code} for controllable={truth['controllable']}")
    if doc.get("generic_rank") != truth["generic_rank"]:
        bad.append("cli generic_rank")
    if len(doc.get("reachable", ())) != truth["reachable"]:
        bad.append("cli reachable")
    return bad


def _cli_once(args: list[str], text: str, truth: dict, traced: bool, env: dict,
              deadline: float, fails: Failures) -> float:
    """Wall seconds of one CLI check, or (traced) of the child's main()."""
    start = time.perf_counter()
    proc = child(args, env)
    out, ok = _wait(proc, deadline, 30.0, text)
    wall = time.perf_counter() - start
    if not ok:
        fails.record(["cli over budget"])
        return wall
    code = proc.returncode
    if traced:
        try:
            rec = json.loads(out)
        except json.JSONDecodeError:
            fails.record([f"traced cli run printed no JSON (exit {code})"])
            return wall
        code, out, wall = rec["code"], rec["out"], rec["main_s"]
    fails.record(_check_cli(code, out, truth))
    return wall


def probe_cli(text: str, traced: bool, env: dict, deadline: float,
              fails: Failures) -> list[tuple[float, float]]:
    """Reference and wall seconds of CLI_REPEATS CLI checks of one document,
    between two calibration processes."""
    truth = oracle.facts(json.loads(text))
    if traced:
        args = [str(HERE / "worker.py"), "cli", "-"]
    else:
        args = ["-m", "swcactus.cli", "check", "-"]
    samples = [calib.process_s(env)]
    walls = [_cli_once(args, text, truth, traced, env, deadline, fails)
             for _ in range(CLI_REPEATS)]
    samples.append(calib.process_s(env))
    scale = calib.factor(samples, calib.PROCESS_REF_S)
    return [(wall * scale, wall) for wall in walls]


class WorkloadChild:
    """The child that runs the ops, one pass per request.

    Every op's output is checked here.  An op that outlives its wall-clock
    budget, or a child that dies, is a failed op and ends the run's passes.
    """

    def __init__(self, config: dict, records: list[dict], truths: list[dict],
                 refs: list | None, env: dict, budget: float, fails: Failures) -> None:
        self.kind = config["kind"]
        self.records, self.truths, self.refs = records, truths, refs
        self.budget, self.fails = budget, fails
        self.first_outs: list[dict | None] = [None] * len(records)
        self.alive = True
        self.proc = child([str(HERE / "worker.py"), "run"], env)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()
        self._send(json.dumps(config))

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _send(self, line: str) -> None:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.alive = False

    def _next(self, wait: float, deadline: float, what: str) -> str | None:
        try:
            line = self.lines.get(timeout=max(0.1, min(wait, deadline - time.monotonic())))
        except queue.Empty:
            line = None
            self.fails.record([f"{what} over its wall-clock budget"])
        else:
            if line is None:
                self.fails.record([f"worker died during {what}"])
        if line is None:
            self.alive = False
        return line

    def run_pass(self, deadline: float) -> dict | None:
        """One pass: ``{"t", "wall", "traced", "op_times", "layers"?}``, or
        None.  Times are in reference seconds but ``wall``, the pass's
        unscaled time: each op is scaled by the calibration slices just
        before and after its chunk of ops, a traced pass's layer seconds by
        the median of the pass's slices.

        Outputs are parsed and checked after the pass, or after the child
        failed, so that the work done here per op, on the other CPU, stays
        small while ops are timed.
        """
        self._send("pass")
        in_flight = None
        done: list[tuple[str, int]] = []  # op output, slices before it
        slices: list[float] = []
        event = None
        while self.alive:
            what = f"op {in_flight}" if in_flight is not None else "pass start"
            line = self._next(self.budget if in_flight is not None else 60.0,
                              deadline, what)
            if line is None:
                break
            if line.startswith("s "):
                in_flight = int(line[2:])
            elif line.startswith("d "):
                done.append((line[2:], len(slices)))
                in_flight = None
            elif line.startswith("c "):
                slices.append(float(line[2:]))
            else:
                event = json.loads(line)
                break
        ops = [json.loads(text) for text, _ in done]
        for i, op in enumerate(ops):
            self._check(i, op)
        if event is not None:
            event["op_times"] = [op["t"] * calib.factor(slices[k - 1:k + 1])
                                 for op, (_, k) in zip(ops, done)]
            event["wall"] = event["t"]
            event["t"] = sum(event["op_times"])
            if event["traced"]:
                scale = calib.factor(slices)
                event["layers"] = {name: value * scale if name.endswith("_s") else value
                                   for name, value in event["layers"].items()}
        return event

    def _check(self, i: int, op: dict) -> None:
        if op["error"]:
            problems = [op["error"]]
        else:
            problems = oracle.check_op(self.kind, self.records[i]["family"],
                                       op["out"], self.truths[i],
                                       self.refs[i] if self.refs else None)
            if self.first_outs[i] is None:
                self.first_outs[i] = op["out"]
        self.fails.record([f"instance {i}: {p}" for p in problems])

    def finish(self, deadline: float) -> float:
        """Stop the child; returns its peak RSS in MB, also if it was killed,
        less the calibration array it holds."""
        if self.alive:
            self._send("end")
            self._next(30.0, deadline, "shutdown")
        # os.kill, not Popen.kill(), which may reap the child before wait4 can
        if not self.alive:
            os.kill(self.proc.pid, signal.SIGKILL)
        give_up = min(deadline, time.monotonic() + 10.0)
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > give_up:
                self.fails.record(["worker did not exit after its last pass"])
                os.kill(self.proc.pid, signal.SIGKILL)
                give_up = math.inf
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join(timeout=5)
        return (usage.ru_maxrss * 1024 - calib.chase_bytes()) / 2**20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=families.WORKLOADS)
    parser.add_argument("--seed", type=int, default=families.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "swcactus" / "__init__.py").is_file():
        print("error: run from the root of a swcactus checkout (no src/swcactus)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    workload, traced = args.workload, bool(args.trace)
    records = families.instances(workload, args.seed)
    texts = [families.serialize(rec["doc"]) for rec in records]
    truths = [oracle.facts(rec["doc"]) for rec in records]
    try:
        refs = reference.load(workload, args.seed, texts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fails = Failures()

    cli_docs = [families.serialize(rec["doc"])
                for rec in families.instances("small", args.seed)[:CLI_SMALL]]
    cli_docs += [p.read_text() for p in sorted((root / "tests" / "data").glob("*.json"))]
    # Set-up and CLI probes are spread over the run between passes, so a
    # slow spell of the machine does not land on all of them at once.
    setup_payload = json.dumps(texts)
    order = [probe for pair in itertools.zip_longest(
                 [("setup", None)] * SETUP_REPEATS, [("cli", doc) for doc in cli_docs])
             for probe in pair if probe]
    total_probes = len(order)
    setup: list[dict] = []
    cli: list[tuple[float, float]] = []  # reference and wall seconds

    def run_probe(probe: tuple) -> None:
        if probe[0] == "setup":
            sample = probe_setup(setup_payload, env, deadline, fails)
            if sample is not None:
                setup.append(sample)
        else:
            cli.extend(probe_cli(probe[1], traced, env, deadline, fails))

    trace_file = None
    if traced:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = str(out_dir / f"trace-{workload}-seed{args.seed}.json")
    config = {"kind": families.KIND[workload], "instances": texts,
              "beyond_cap": [t["depth_needed"] > oracle.LAYER_CAP for t in truths],
              "trace": traced, "trace_file": trace_file}
    probe_setup(setup_payload, env, deadline, None)  # fills bytecode caches
    worker = WorkloadChild(config, records, truths, refs, env,
                           OP_BUDGET_S[workload], fails)
    passes: list[float] = []
    pass_walls: list[float] = []
    traced_passes: list[float] = []
    op_times: list[float] = []
    pass_layers: list[dict] = []
    min_passes = 2 if traced else 1  # a traced run needs one pass of each kind
    started = time.monotonic()
    try:
        while worker.alive and (len(passes) + len(traced_passes) < min_passes
                                or time.monotonic() - started < args.seconds):
            event = worker.run_pass(deadline)
            if event is None:
                break
            if event["traced"]:
                traced_passes.append(event["t"])
                pass_layers.append(event["layers"])
            else:
                passes.append(event["t"])
                pass_walls.append(event["wall"])
                op_times.extend(event["op_times"])
            elapsed = time.monotonic() - started
            while order and elapsed >= args.seconds * (1 - len(order) / (total_probes + 1)):
                run_probe(order.pop(0))
    finally:
        loop_s = time.monotonic() - started
        rss_mb = worker.finish(deadline)
    while order and time.monotonic() < deadline:
        run_probe(order.pop(0))
    complete = bool(passes) and (bool(traced_passes) or not traced)
    if not passes:
        # An op was killed or the child died in the first pass.  The run is
        # incorrect; its timings are the seconds spent, never a speed-up.
        passes, pass_walls, op_times = [loop_s], [loop_s], [loop_s]

    pass_s = statistics.median(passes)
    outs = [o for o in worker.first_outs if o is not None]
    upper = sum(o["upper"] for o in outs)
    bound_ratio = sum(o["lower"] for o in outs) / upper if upper else 0.0
    if traced:
        layers = {}
        for name in per_layer_units():
            values = [one.get(name, 0.0) for one in pass_layers]
            layers[name] = statistics.median(values) if values else 0.0
        layers["model.parse_system_s"] = statistics.median(
            [s["parse_s"] for s in setup] or [0.0])
        layers["cli.import_s"] = statistics.median([s["import_s"] for s in setup] or [0.0])
        layers["cli.main_s"] = statistics.median([c[0] for c in cli] or [0.0])
        traced_pass = statistics.median(traced_passes or [pass_s])
        layers["trace.overhead_frac"] = traced_pass / pass_s - 1 if pass_s else 0.0
        layers["bound_ratio"] = bound_ratio
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        tail_q = TAIL_PERCENTILE[workload]
        tail, beyond = percentile(op_times, tail_q)
        values = {
            "pass_s": pass_s,
            "op_s.p50": statistics.median(op_times),
            "op_s.tail": tail,
            "setup_s": statistics.median(
                [s["import_s"] + s["parse_s"] for s in setup] or [0.0]),
            "peak_rss_mb": rss_mb,
            "ok_frac": 1 - fails.failed / max(1, fails.attempted),
            "cli_s.p50": statistics.median([c[0] for c in cli] or [0.0]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"# op_s.tail is p{tail_q} over {len(op_times)} ops, "
              f"{beyond} beyond it; {len(passes)} untraced passes; "
              f"bound_ratio {bound_ratio:.6f} (sum of lower over sum of upper)")
        print(f"# unscaled wall seconds: pass_s {statistics.median(pass_walls):.6g}, "
              f"setup_s {statistics.median([s['wall_s'] for s in setup] or [0.0]):.6g}, "
              f"cli_s.p50 {statistics.median([c[1] for c in cli] or [0.0]):.6g}")
    print(f"# {workload} seed {args.seed}: {len(records)} instances per pass, "
          f"references {'checked' if refs else 'absent for this seed'}; "
          f"failed_frac {fails.failed / max(1, fails.attempted):.6f} "
          f"({fails.failed} of {fails.attempted})")
    for note in fails.notes:
        print(f"# FAILED {note}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not complete:
        print("# FAILED no complete pass of each kind")
    print(json.dumps({"correct": complete and fails.failed == 0,
                      "attempted": fails.attempted,
                      "failed": fails.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
