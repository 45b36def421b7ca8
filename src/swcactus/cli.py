"""Command line interface.

Subcommands operate on a JSON system document (see ``parse_system``) given
as a file path or ``-`` for stdin.  ``check`` exits 0 when the structure is
controllable and 1 when it is not; every subcommand exits 2 on bad input and
3 when two views that must agree do not (a ``ConsistencyError``, printed
with the instance it was found on).
Output is canonical JSON (sorted keys, two-space indent) or Graphviz DOT,
both byte-stable for fixed inputs and options.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Sequence

from .cactus import Decomposition, best_cactus_cover, conventional_cactus_cover
from .checker import (
    DEFAULT_LAYER_CAP,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    ConsistencyError,
    check,
    cover_to_dict,
    dim_bounds,
    input_rank,
    report_to_dict,
)
from .mdg import Linking, Mdg, MdgSizeError, build_mdg, max_linking
from .model import (
    DEFAULT_PRIME,
    ModelError,
    SwitchedStructure,
    parse_system,
    realization_to_dict,
    sample_realization,
)
from .rankcore import averaged_pair_rank, probe_trials, trial_realizations
from .unigraph import (
    UnionGraph,
    build_union_graph,
    format_vertex,
    generic_rank,
    reachable_states,
    term_rank_ceiling,
)

_EDGE_STYLES = ("solid", "dashed", "dotted")


def _style(color: int) -> str:
    return _EDGE_STYLES[color % len(_EDGE_STYLES)]


def _load(path: str) -> SwitchedStructure:
    if path == "-":
        # bytes, so that bad UTF-8 fails in the JSON parser as in a file
        return parse_system(getattr(sys.stdin, "buffer", sys.stdin).read())
    with open(path, "rb") as fh:
        return parse_system(fh.read())


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _union_dot(g: UnionGraph, decomposition: Decomposition) -> str:
    stems = frozenset(decomposition.stems)
    cycles = frozenset(e for grp in decomposition.cycle_groups for e in grp)
    dropped = frozenset(decomposition.dropped)
    lines = ["digraph union {", "  rankdir=LR;"]
    for u in g.input_vertices:
        lines.append(f'  "{format_vertex(u)}" [shape=box];')
    for j in range(g.n):
        lines.append(f'  "x{j + 1}";')
    for e in g.edges:
        attrs = [f"style={_style(e.color)}", f'label="{e.color + 1}"']
        if e in stems:
            attrs += ["color=red", "penwidth=2"]
        elif e in cycles:
            attrs += ["color=blue", "penwidth=2"]
        elif e in dropped:
            attrs += ["color=gray"]
        lines.append(
            f'  "{format_vertex(e.tail)}" -> "x{e.head + 1}" '
            f'[{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _mdg_vertex_label(v) -> str:
    if v[0] == "x":
        return f"x{v[4] + 1}"
    return f"u{v[4] + 1}.{v[5] + 1}"


def _mdg_vertex_str(mdg: Mdg, v) -> str:
    word = ",".join(str(c + 1) for c in mdg.word_of(v[1], v[2], v[3]))
    return f"{_mdg_vertex_label(v)}@L{v[1]}[{word}]"


def _mdg_vertex_id(v) -> str:
    return '"' + ":".join(str(part) for part in v) + '"'


def _mdg_dot(mdg: Mdg, linking: Linking) -> str:
    on_linking = set()
    for path in linking.paths:
        for tail, head in zip(path, path[1:]):
            on_linking.add((tail, head))
    lines = ["digraph layered {"]
    for layer in range(mdg.depth, -1, -1):
        members = list(mdg.input_vertices(layer)) + list(mdg.state_vertices(layer))
        group = "; ".join(_mdg_vertex_id(v) for v in members)
        lines.append(f"  {{ rank=same; {group}; }}")
        for v in members:
            shape = ", shape=box" if v[0] == "u" else ""
            lines.append(
                f'  {_mdg_vertex_id(v)} [label="{_mdg_vertex_str(mdg, v)}"{shape}];')
    for layer in range(mdg.depth, -1, -1):
        for v in list(mdg.input_vertices(layer)) + list(mdg.state_vertices(layer)):
            for head, key in mdg.edges_from(v):
                attrs = [f"style={_style(key[0])}", f'label="{key[0] + 1}"']
                if (v, head) in on_linking:
                    attrs += ["color=red", "penwidth=2"]
                lines.append(
                    f"  {_mdg_vertex_id(v)} -> {_mdg_vertex_id(head)} "
                    f'[{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_check(args: argparse.Namespace) -> int:
    structure = _load(args.system)
    report = check(structure, seed=args.seed, trials=args.trials,
                   prime=args.prime, layer_cap=args.layer_cap)
    if args.format == "json":
        _emit(_json(report_to_dict(report)), args.output)
    else:
        _emit(_union_dot(report.graph, report.cover.decomposition), args.output)
    return 0 if report.controllable else 1


def _cmd_grank(args: argparse.Namespace) -> int:
    structure = _load(args.system)
    g = build_union_graph(structure)
    doc = {
        "n": structure.n,
        "generic_rank": generic_rank(g),
        "input_rank": input_rank(g),
        "reachable_count": len(reachable_states(g)),
    }
    _emit(_json(doc), args.output)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    structure = _load(args.system)
    g = build_union_graph(structure)
    bounds = dim_bounds(structure, layer_cap=args.layer_cap, graph=g)
    doc = {
        "n": structure.n,
        "conventional_lower": len(conventional_cactus_cover(g).covered),
        "lower": bounds.lower,
        "upper": bounds.upper,
        "used_linking_bound": bounds.used_linking_bound,
        "linking_layers": bounds.linking_layers,
    }
    _emit(_json(doc), args.output)
    return 0


def _cmd_cactus(args: argparse.Namespace) -> int:
    structure = _load(args.system)
    g = build_union_graph(structure)
    cover = best_cactus_cover(g)
    if args.format == "json":
        _emit(_json(cover_to_dict(cover)), args.output)
    else:
        _emit(_union_dot(g, cover.decomposition), args.output)
    return 0


def _cmd_mdg(args: argparse.Namespace) -> int:
    structure = _load(args.system)
    g = build_union_graph(structure)
    if args.layers is not None:
        depth = args.layers
    else:
        depth = min(args.layer_cap, structure.n - input_rank(g))
    mdg = build_mdg(structure, depth)
    linking = max_linking(mdg)
    if args.format == "json":
        doc = {
            "depth": depth,
            "vertex_count": mdg.vertex_count,
            "linking_size": linking.size,
            "linking_paths": [
                [_mdg_vertex_str(mdg, v) for v in path]
                for path in linking.paths
            ],
            "tail_column_indices": sorted(
                mdg.input_column_index(t) + 1 for t in linking.tails()
            ),
        }
        _emit(_json(doc), args.output)
    else:
        _emit(_mdg_dot(mdg, linking), args.output)
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    structure = _load(args.system)
    realization = sample_realization(structure, field_kind=args.field,
                                     seed=args.seed, prime=args.prime)
    _emit(_json(realization_to_dict(realization)), args.output)
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    structure = _load(args.system)
    if args.samples < 1:
        raise ModelError(f"need at least one sample, got {args.samples}")
    if args.trials < 1:
        raise ModelError(f"need at least one trial, got {args.trials}")
    # the realizations of controllable_dim, drawn once and shared with the
    # mixing loop; probe_dim is that probe's maximum over them
    realizations = list(trial_realizations(structure, args.seed, args.trials,
                                           args.prime))
    dims, _ = probe_trials(structure, realizations,
                           term_rank_ceiling(build_union_graph(structure)))
    probe_dim = max(dims)
    rng = random.Random(args.seed & ((1 << 64) - 1))
    max_rank = 0
    for realization in realizations:
        for _ in range(args.samples):
            weights = [rng.randrange(1, args.prime)
                       for _ in range(structure.subsystem_count)]
            max_rank = max(max_rank,
                           averaged_pair_rank(structure, realization, weights))
    doc = {
        "n": structure.n,
        "probe_dim": probe_dim,
        "samples": args.samples,
        "realizations": args.trials,
        "max_mixed_rank": max_rank,
        "mixing_loses_rank": max_rank < probe_dim,
    }
    _emit(_json(doc), args.output)
    return 0


def _add_common(sub: argparse.ArgumentParser, *, fmt: bool = False,
                seeded: bool = False, layered: bool = False) -> None:
    sub.add_argument("system", help="system JSON file, or - for stdin")
    sub.add_argument("-o", "--output", default=None,
                     help="write to this file instead of stdout")
    if fmt:
        sub.add_argument("--format", choices=("json", "dot"), default="json")
    if seeded:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                         help="the probe's field: a prime between 2**31 and "
                              "2**63 (default %(default)s = 2**32 - 5)")
    if layered:
        sub.add_argument("--layer-cap", type=int, default=DEFAULT_LAYER_CAP)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swcactus",
        description="Structural controllability analysis of switched linear systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="decide structural controllability")
    _add_common(p, fmt=True, seeded=True, layered=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help="at most this many realizations; the probe stops at "
                        "the first that reaches the ceiling")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("grank", help="generic rank of the stacked patterns")
    _add_common(p)
    p.set_defaults(func=_cmd_grank)

    p = subs.add_parser("bounds", help="cover and linking dimension bounds")
    _add_common(p, layered=True)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("cactus", help="best stem/cycle cover")
    _add_common(p, fmt=True)
    p.set_defaults(func=_cmd_cactus)

    p = subs.add_parser("mdg", help="layered dynamic graph and max linking")
    _add_common(p, fmt=True, layered=True)
    p.add_argument("--layers", type=int, default=None,
                   help="explicit unrolling depth (default: n - input rank)")
    p.set_defaults(func=_cmd_mdg)

    p = subs.add_parser("realize", help="sample a numeric realization")
    _add_common(p, seeded=True)
    p.add_argument("--field", choices=("finite", "real"), default="finite")
    p.set_defaults(func=_cmd_realize)

    p = subs.add_parser("counterexample",
                        help="rank lost by mixing all modes into one pair")
    _add_common(p, seeded=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help="realizations to mix (at least 1); the probe stops at "
                        "the first that reaches the ceiling")
    p.add_argument("--samples", type=int, default=100,
                   help="weight vectors per realization (at least 1)")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # both are unrolling depths
        for flag in ("layer_cap", "layers"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ModelError(f"--{flag.replace('_', '-')} may not be "
                                 f"negative, got {value}")
        return args.func(args)
    except (ModelError, MdgSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
