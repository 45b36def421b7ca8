"""Structural controllability decision with cross-checked evidence.

The decisive test is cheap: every state reachable from the inputs in the
colored union graph, and a full-size independent edge set.  Everything else
computed here corroborates that verdict from an unrelated direction: a
randomized rank probe over a prime field, a stem/cycle cover certificate,
and linking-based dimension bounds.  The three views are provably equivalent,
so any disagreement means a bug, a malformed input, or an astronomically
unlucky random draw; it is reported loudly as :class:`ConsistencyError` with
the full instance attached rather than silently reconciled.  Nothing is
computed twice: the certificate is the all-color cover's first round, and
:func:`dim_bounds` is the one bounds computation.  The linking runs only
where the probe's rank and the cover both stay below the term-rank
ceiling; elsewhere it could only return that ceiling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cactus import (
    CactusCover,
    Decomposition,
    best_cactus_cover,
    conventional_cactus_cover,
    decompose,
)
from .mdg import MdgSizeError, build_mdg, max_linking
from .model import (DEFAULT_PRIME, ModelError, SwitchedStructure, as_indices,
                    system_to_dict)
from .rankcore import ControllabilityProbe, controllable_dim
from .unigraph import (
    UnionGraph,
    build_union_graph,
    format_vertex,
    generic_rank,
    input_edges_only,
    max_independent_edges,
    reachable_states,
    term_rank_ceiling,
    union_graph_of,
)

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 3
DEFAULT_LAYER_CAP = 12


class ConsistencyError(RuntimeError):
    """Two provably equivalent computations disagreed."""


@dataclass(frozen=True)
class DimBounds:
    """Sandwich on the generic controllable-subspace dimension.

    ``lower`` counts a cover's states, ``upper`` is the smaller of the
    reachable-state count and a depth-limited linking size.  When the depth
    needed for a sound linking bound is out of reach (past the layer cap,
    or a depth of the linking's schedule whose unrolling has more than
    ``mdg.VERTEX_CAP`` vertices), ``used_linking_bound`` is False and
    ``upper`` falls back to the reachable count alone.  The vertex cap
    applies per depth built: where a shallow depth's linking or a proven
    lower bound reaches the term-rank ceiling, no deeper graph is built
    (:func:`dim_bounds`).  ``linking_layers`` is the depth the bound holds
    for, whatever depth the linking stopped at.
    """

    lower: int
    upper: int
    used_linking_bound: bool
    linking_layers: int | None


@dataclass(frozen=True)
class CheckReport:
    structure: SwitchedStructure
    graph: UnionGraph
    reachable: frozenset[int]
    generic_rank: int
    controllable: bool
    certificate: Decomposition | None
    probe: ControllabilityProbe
    cover: CactusCover
    bounds: DimBounds


def _dump(structure: SwitchedStructure, facts: dict) -> str:
    body = {"system": system_to_dict(structure), "facts": facts}
    return json.dumps(body, sort_keys=True, indent=2)


def _inconsistent(message: str, structure: SwitchedStructure, **facts) -> ConsistencyError:
    return ConsistencyError(f"{message}\n{_dump(structure, facts)}")


def input_rank(g: UnionGraph) -> int:
    """Generic rank of the stacked input patterns alone, computed once per
    graph and kept on it."""
    return g._once(_input_rank)


def _input_rank(g: UnionGraph) -> int:
    return generic_rank(input_edges_only(g))


def dim_bounds(structure: SwitchedStructure, *, conventional: bool = False,
               layer_cap: int = DEFAULT_LAYER_CAP,
               graph: UnionGraph | None = None,
               proven_lower: int = 0) -> DimBounds:
    """The one bounds computation: cover and linking bounds on the dimension.

    With ``conventional=True`` the lower bound only uses covers drawn inside
    a single subsystem, which is how a per-mode analysis would bound the
    dimension; the default may mix colors and is never smaller.

    ``proven_lower`` is a lower bound on the dimension the caller has
    already proven, such as the rank of a realization; no dimension passes
    the term-rank ceiling c, so one above c raises :class:`ModelError`.
    The linking runs on layers ``0..d`` for the depths d met by halving the
    needed depth D (rounding up) down to 1, shallowest first, and stops at
    the first d whose linking size is c; where ``proven_lower`` or the
    cover's count is already c, it is read as c and nothing is built.  Both
    stops are exact.  With l_d the linking size at depth d, l_d <= l_D for
    d <= D (layers ``0..d`` are an induced subgraph), and dim <= l_D <= c:
    every path's last edge enters a distinct layer-0 state from a layer-0
    input copy or from a layer-1 copy of a reachable state in block k, so
    the last edges use distinct ``B`` or ``A_k`` columns, an independent
    edge set of the union graph.  So c at depth d or in a lower view pins
    l_D = c.  The vertex cap applies per depth built: a depth past it falls
    back to the reachable count.  ``layer_cap`` and ``proven_lower`` are
    read by :func:`model.as_indices`, and a negative ``layer_cap`` raises
    :class:`ModelError`.  ``graph``, when given, must be the structure's
    union graph (:func:`unigraph.union_graph_of`).
    """
    (layer_cap,) = as_indices((layer_cap,), "layer_cap")
    if layer_cap < 0:
        raise ModelError(f"layer_cap may not be negative, got {layer_cap}")
    (proven_lower,) = as_indices((proven_lower,), "proven_lower")
    g = union_graph_of(structure, graph)
    cover = conventional_cactus_cover(g) if conventional else best_cactus_cover(g)
    lower = len(cover.covered)
    # the cover's count is at most c, so only a bound above it can pass c
    if proven_lower > lower and proven_lower > term_rank_ceiling(g):
        raise ModelError(f"proven_lower {proven_lower} exceeds the term-rank "
                         f"ceiling {term_rank_ceiling(g)}")
    reachable_count = len(reachable_states(g))
    depth_needed = structure.n - input_rank(g)
    fallback = DimBounds(lower=lower, upper=reachable_count,
                         used_linking_bound=False, linking_layers=None)
    # a shallower linking can undershoot the true dimension, so it is not a
    # sound upper bound; past the layer cap, fall back to reachability alone
    if depth_needed > layer_cap:
        return fallback
    ceiling = linking_size = term_rank_ceiling(g)
    if max(lower, proven_lower) < ceiling:
        # the needed depth halved, rounding up, down to 1; shallowest first
        depths = [depth_needed]
        while depths[-1] > 1:
            depths.append((depths[-1] + 1) // 2)
        for depth in reversed(depths):
            try:
                mdg = build_mdg(structure, depth)
            except MdgSizeError:  # past the vertex cap
                return fallback
            linking_size = max_linking(mdg).size
            if linking_size == ceiling:
                break
    return DimBounds(lower=lower, upper=min(reachable_count, linking_size),
                     used_linking_bound=True, linking_layers=depth_needed)


def check(structure: SwitchedStructure, *, seed: int = DEFAULT_SEED,
          trials: int = DEFAULT_TRIALS, prime: int = DEFAULT_PRIME,
          layer_cap: int = DEFAULT_LAYER_CAP) -> CheckReport:
    """Decide structural controllability and cross-validate every view.

    The verdict comes from reachability plus generic rank.  The rank probe,
    the cover certificate, and the dimension bounds must all agree with it;
    a contradiction raises :class:`ConsistencyError` carrying the instance.
    The certificate is the all-color cover: total exactly when its first
    round, the split of the full independent edge set, drops nothing.
    """
    n = structure.n
    g = build_union_graph(structure)
    reachable = reachable_states(g)
    grank = generic_rank(g)
    controllable = len(reachable) == n and grank == n
    cover = best_cactus_cover(g)

    total = cover.restricted_color is None and len(cover.covered) == n
    if controllable and not total:
        found = decompose(max_independent_edges(g), reachable)
        raise _inconsistent(
            "verdict says controllable but the full independent set "
            "does not decompose into a total cover",
            structure, covered=sorted(v + 1 for v in found.covered),
            dropped=[edge_to_dict(e) for e in found.dropped])
    certificate = cover.decomposition if controllable else None

    probe = controllable_dim(structure, seed=seed, trials=trials, prime=prime,
                             graph=g)
    if controllable and probe.dim != n:
        raise _inconsistent(
            "graph criteria say controllable but the rank probe disagrees",
            structure, probe_dim=probe.dim, trial_dims=list(probe.trial_dims),
            seed=seed, prime=prime)
    if not controllable and probe.dim == n:
        raise _inconsistent(
            "rank probe reached full dimension on a structure the graph "
            "criteria reject",
            structure, reachable=sorted(v + 1 for v in reachable),
            generic_rank=grank, seed=seed, prime=prime)

    # the probe's rank is a proven lower bound; where it reaches the ceiling
    # the linking need not run
    bounds = dim_bounds(structure, layer_cap=layer_cap, graph=g,
                        proven_lower=probe.dim)

    if not bounds.lower <= probe.dim <= bounds.upper:
        raise _inconsistent(
            "rank probe escaped the cover/linking sandwich",
            structure, lower=bounds.lower, dim=probe.dim, upper=bounds.upper,
            seed=seed, prime=prime)
    if controllable and (bounds.lower != n or bounds.upper != n):
        raise _inconsistent(
            "controllable structure must pinch the bounds at n",
            structure, lower=bounds.lower, upper=bounds.upper)

    return CheckReport(
        structure=structure,
        graph=g,
        reachable=reachable,
        generic_rank=grank,
        controllable=controllable,
        certificate=certificate,
        probe=probe,
        cover=cover,
        bounds=bounds,
    )


def edge_to_dict(edge) -> dict:
    return {
        "from": format_vertex(edge.tail),
        "to": f"x{edge.head + 1}",
        "color": edge.color + 1,
    }


def decomposition_to_dict(decomposition: Decomposition) -> dict:
    return {
        "stems": [edge_to_dict(e) for e in decomposition.stems],
        "cycles": [[edge_to_dict(e) for e in group]
                   for group in decomposition.cycle_groups],
        "dropped": [edge_to_dict(e) for e in decomposition.dropped],
        "covered": sorted(v + 1 for v in decomposition.covered),
    }


def cover_to_dict(cover: CactusCover) -> dict:
    """JSON-ready view of a cover, 1-based like :func:`report_to_dict`."""
    return {
        "restricted_color": (None if cover.restricted_color is None
                             else cover.restricted_color + 1),
        **decomposition_to_dict(cover.decomposition),
    }


def report_to_dict(report: CheckReport) -> dict:
    """JSON-ready view of a check, 1-based and fully deterministic."""
    return {
        "n": report.structure.n,
        "subsystems": report.structure.subsystem_count,
        "reachable": sorted(v + 1 for v in report.reachable),
        "generic_rank": report.generic_rank,
        "controllable": report.controllable,
        "dimension": {
            "value": report.probe.dim,
            "layers_used": report.probe.layers_used,
            "trial_dims": list(report.probe.trial_dims),
            "seed": report.probe.seed,
            "prime": report.probe.prime,
        },
        "bounds": {
            "lower": report.bounds.lower,
            "upper": report.bounds.upper,
            "used_linking_bound": report.bounds.used_linking_bound,
            "linking_layers": report.bounds.linking_layers,
        },
        "cover": cover_to_dict(report.cover),
        "certificate": (None if report.certificate is None
                        else decomposition_to_dict(report.certificate)),
    }
