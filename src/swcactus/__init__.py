"""Structural controllability analysis for switched linear systems.

The package decides, from zero/nonzero patterns alone, whether a switched
linear system is structurally controllable, and backs the verdict with
independent evidence: randomized rank probes over a prime field, stem/cycle
cover certificates on the colored union graph, and vertex-disjoint linkings
in the layered dynamic graph.
"""

from .cactus import (
    CactusCover,
    Decomposition,
    best_cactus_cover,
    cactus_walks_for_bud,
    cactus_walks_for_stem,
    component_cycle,
    conventional_cactus_cover,
    decompose,
    verify_cactus_walking,
)
from .checker import (
    DEFAULT_LAYER_CAP,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    CheckReport,
    ConsistencyError,
    DimBounds,
    check,
    dim_bounds,
    input_rank,
    report_to_dict,
)
from .mdg import (
    Linking,
    Mdg,
    MdgSizeError,
    build_mdg,
    max_linking,
)
from .model import (
    DEFAULT_PRIME,
    ModelError,
    Realization,
    StructuredMatrix,
    SwitchedStructure,
    parse_system,
    sample_realization,
    serialize_system,
    system_from_dict,
    system_to_dict,
)
from .rankcore import (
    ControllabilityProbe,
    averaged_pair_rank,
    controllable_dim,
    reachable_space_dim,
)
from .unigraph import (
    ColoredEdge,
    InputStateWalk,
    InputVertex,
    StateVertex,
    UnionGraph,
    build_union_graph,
    generic_rank,
    input_edges_only,
    max_independent_edges,
    reachable_states,
    restrict_to_color,
    walk_violations,
)

__version__ = "0.1.0"

__all__ = [
    "CactusCover",
    "CheckReport",
    "ColoredEdge",
    "ConsistencyError",
    "ControllabilityProbe",
    "DEFAULT_LAYER_CAP",
    "DEFAULT_PRIME",
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "Decomposition",
    "DimBounds",
    "InputStateWalk",
    "InputVertex",
    "Linking",
    "Mdg",
    "MdgSizeError",
    "ModelError",
    "Realization",
    "StateVertex",
    "StructuredMatrix",
    "SwitchedStructure",
    "UnionGraph",
    "averaged_pair_rank",
    "best_cactus_cover",
    "build_mdg",
    "build_union_graph",
    "cactus_walks_for_bud",
    "cactus_walks_for_stem",
    "check",
    "component_cycle",
    "controllable_dim",
    "conventional_cactus_cover",
    "decompose",
    "dim_bounds",
    "generic_rank",
    "input_edges_only",
    "input_rank",
    "max_independent_edges",
    "max_linking",
    "parse_system",
    "reachable_space_dim",
    "reachable_states",
    "report_to_dict",
    "restrict_to_color",
    "sample_realization",
    "serialize_system",
    "system_from_dict",
    "system_to_dict",
    "verify_cactus_walking",
    "walk_violations",
]
