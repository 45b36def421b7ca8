"""Child processes of the benchmark; each imports the package under test.

``python worker.py run``    runs a workload's ops; reads a JSON config
                            line, then one ``pass`` line per pass over the
                            instances, on stdin.  On stdout it writes
                            ``s <i>`` as op i starts, ``d <json>`` with its
                            time and outputs when it ends, ``c <seconds>``
                            for each calibration slice (one as a pass starts
                            and one after every ``CHUNK_S`` of ops, see
                            calib.py), and one JSON line when a pass ends.
``python worker.py setup``  times a fresh-interpreter ``import swcactus``
                            plus ``parse_system`` of the documents on stdin.
``python worker.py cli F``  times ``import swcactus.cli`` and ``main(["check",
                            F])`` separately (the traced view of the CLI).

The tracer wraps module attributes that ``checker``, ``cactus`` and
``rankcore`` look up at call time, so spans come from these files alone and
exist only in traced passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import defaultdict

import calib

# (module, attribute, span name).  An attribute is wrapped in every module
# that looks it up, so nested calls get spans wherever they happen.
TRACED = (
    ("checker", "check", "checker.check"),
    ("checker", "dim_bounds", "checker.dim_bounds"),
    ("checker", "build_union_graph", "unigraph.build_union_graph"),
    ("unigraph", "build_union_graph", "unigraph.build_union_graph"),
    ("checker", "reachable_states", "unigraph.reachable_states"),
    ("cactus", "reachable_states", "unigraph.reachable_states"),
    ("checker", "max_independent_edges", "unigraph.max_independent_edges"),
    ("cactus", "max_independent_edges", "unigraph.max_independent_edges"),
    ("cactus", "restrict_to_color", "unigraph.restrict_to_color"),
    ("checker", "decompose", "cactus.decompose"),
    ("cactus", "decompose", "cactus.decompose"),
    ("checker", "best_cactus_cover", "cactus.best_cactus_cover"),
    ("checker", "conventional_cactus_cover", "cactus.conventional_cactus_cover"),
    ("checker", "controllable_dim", "rankcore.controllable_dim"),
    ("rankcore", "reachable_space_dim", "rankcore.reachable_space_dim"),
    ("rankcore", "sample_realization", "model.sample_realization"),
    ("checker", "build_mdg", "mdg.build_mdg"),
    ("checker", "max_linking", "mdg.max_linking"),
)
# Ops timed between two calibration slices: at least this many seconds of
# them, or a single op when it takes longer.
CHUNK_S = 0.2
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))
STAGES = ("unigraph", "cactus", "rankcore", "mdg", "checker")


def _counts(name: str, result) -> dict:
    """Work counts read off a layer's result at its boundary."""
    if name == "unigraph.build_union_graph":
        return {"unigraph.edges": len(result.edges)}
    if name == "unigraph.max_independent_edges":
        return {"unigraph.matching_size": len(result)}
    if name in ("cactus.best_cactus_cover", "cactus.conventional_cactus_cover"):
        return {"cactus.covered": len(result.covered)}
    if name == "rankcore.controllable_dim":
        return {"rankcore.dim": result.dim, "rankcore.layers_used": result.layers_used}
    if name == "mdg.build_mdg":
        return {"mdg.vertices": result.vertex_count}
    if name == "mdg.max_linking":
        return {"mdg.linking_size": result.size}
    return {}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, error, counts]."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                self.close(rec)
            rec[6] = _counts(name, result)
            return result
        return traced

    def install(self) -> None:
        for mod, attr, name in TRACED:
            module = self.modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def summarize(spans: list[list], first: int, beyond_cap: list[bool],
              op_instances: dict[int, int]) -> dict:
    """Per-pass layer numbers from the spans ``first..`` of one traced pass.

    ``op_instances`` maps each op span's op id to its instance index.  Self
    time is a span's duration minus its children's.  A stage is the
    outermost span under the op that is not a ``checker`` span; stage shares
    are inclusive, and ``share.checker`` is what the stages leave over.
    """
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    via_checker: set[int] = set()  # op spans and checker spans under them
    linked: set[int] = set()
    capped: set[int] = set()
    for idx in range(first, len(spans)):
        name, start, end, parent, op, err, counts = spans[idx]
        dur = end - start
        if parent is not None:
            child_time[parent] += dur
        if name == "op":
            out["ops"] += 1
            out["op_s"] += dur
            via_checker.add(idx)
            continue
        out[f"{name}_s"] += dur
        out[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            out[key] += value
        module = name.split(".")[0]
        if parent in via_checker:
            if module == "checker":
                via_checker.add(idx)
            else:
                out[f"share.{module}"] += dur
        if name == "mdg.max_linking" and err is None:
            linked.add(op)
        if name == "mdg.build_mdg" and err == "MdgSizeError":
            capped.add(op)
    for idx in range(first, len(spans)):
        name, start, end = spans[idx][:3]
        if name != "op":
            out[f"{name.split('.')[0]}.self_s"] += end - start - child_time[idx]
    for op, inst in op_instances.items():
        if op in linked:
            continue
        out["mdg.skipped"] += 1
        if op in capped:
            out["mdg.skipped.vertex_cap"] += 1
        elif beyond_cap[inst]:
            out["mdg.skipped.layer_cap"] += 1
    staged = sum(out[f"share.{m}"] for m in STAGES if m != "checker")
    out["share.checker"] = out["op_s"] - staged
    for m in STAGES:
        out[f"share.{m}"] = out[f"share.{m}"] / out["op_s"] if out["op_s"] else 0.0
    return dict(out)


def run_op(kind: str, structure):
    """One op.  The entry points are looked up on their modules at call
    time, so traced passes see the wrappers."""
    from swcactus import checker, unigraph

    if kind == "check":
        return checker.check(structure)
    g = unigraph.build_union_graph(structure)
    return (checker.dim_bounds(structure, graph=g),
            checker.dim_bounds(structure, conventional=True, graph=g))


def facts(kind: str, result) -> dict:
    """The checked outputs of one op."""
    if kind == "check":
        return {
            "controllable": result.controllable,
            "generic_rank": result.generic_rank,
            "reachable": len(result.reachable),
            "dim": result.probe.dim,
            "lower": result.bounds.lower,
            "upper": result.bounds.upper,
            "used_linking": result.bounds.used_linking_bound,
        }
    general, conventional = result
    return {
        "lower": general.lower,
        "conventional_lower": conventional.lower,
        "upper": general.upper,
        "used_linking": general.used_linking_bound or conventional.used_linking_bound,
    }


def _calibrate() -> None:
    sys.stdout.write(f"c {calib.slice_s()!r}\n")
    sys.stdout.flush()


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def run(config: dict) -> None:
    import swcactus
    from swcactus import cactus, checker, rankcore, unigraph

    modules = {"checker": checker, "cactus": cactus, "rankcore": rankcore,
               "unigraph": unigraph}
    kind = config["kind"]
    structures = [swcactus.parse_system(text) for text in config["instances"]]
    calib.prepare()
    beyond_cap = config["beyond_cap"]
    tracer = Tracer(modules)

    passes = 0
    for command in sys.stdin:
        if command.strip() != "pass":
            break
        traced = bool(config["trace"]) and passes % 2 == 1
        if traced:
            tracer.install()
        first = len(tracer.spans)
        op_instances: dict[int, int] = {}
        pass_time = chunk = 0.0
        _calibrate()
        for i, structure in enumerate(structures):
            sys.stdout.write(f"s {i}\n")
            sys.stdout.flush()
            tracer.op += 1
            if traced:
                op_instances[tracer.op] = i
                rec = tracer.open("op")
            error = None
            t0 = time.perf_counter()
            try:
                result = run_op(kind, structure)
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {(str(exc).splitlines() or [''])[0]}"
            t1 = time.perf_counter()
            if traced:
                tracer.close(rec)
            pass_time += t1 - t0
            done = {"t": t1 - t0, "error": error,
                    "out": None if error else facts(kind, result)}
            sys.stdout.write(f"d {json.dumps(done)}\n")
            sys.stdout.flush()
            chunk += t1 - t0
            if chunk >= CHUNK_S or i == len(structures) - 1:
                _calibrate()
                chunk = 0.0
        event = {"ev": "pass", "t": pass_time, "traced": traced}
        if traced:
            tracer.uninstall()
            event["layers"] = summarize(tracer.spans, first, beyond_cap, op_instances)
        _emit(event)
        passes += 1
    if config.get("trace_file"):
        with open(config["trace_file"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error",
                                  "counts"], "spans": tracer.spans}, fh)
    _emit({"ev": "end"})


def setup() -> None:
    texts = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    import swcactus
    t1 = time.perf_counter()
    for text in texts:
        swcactus.parse_system(text)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))


def cli(path: str) -> None:
    t0 = time.perf_counter()
    from swcactus import cli as swcli
    t1 = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = swcli.main(["check", path])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "main_s": t2 - t1, "code": code,
                      "out": buf.getvalue()}))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "run":
        run(json.loads(sys.stdin.readline()))
    elif mode == "setup":
        setup()
    elif mode == "cli":
        cli(sys.argv[2])
    else:
        sys.exit(f"unknown mode {mode!r}")
