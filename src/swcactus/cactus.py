"""Stem/cycle covers built from independent edge sets.

An independent edge set (distinct heads, color-distinct shared tails) gives
every chosen state exactly one incoming edge, so following in-edges back
from any edge ends in one of three ways, and that end names its piece:

* stems: the chain reaches an input; these are trees of edges grown out of
  input-rooted edges,
* cycle groups: the chain runs into a cycle; each is one cycle plus the
  branches that leave it,
* rootless trees: the chain reaches a state with no incoming edge, which
  leaves nothing to anchor it, so these are dropped.

A cover retains stems plus those cycle groups whose vertices are all
input-reachable.  The covered states lower-bound the generic dimension of
the controllable subspace; the walk machinery at the bottom of this module
builds that bound's witness: one input-to-state walk per covered state,
with vertex-disjoint paths in the layered graph.  Stem walks follow the
stem edges back to an input; a cycle group's walks reach its entry vertex
along the shortest walk tree, the parent rows of the union graph's
breadth-first search from the inputs, wind round the cycle and leave along
the group's edges.  One helper follows all these predecessor chains.  The
loop counts are fixed per group, each group winding long enough that its
walks' way in runs where no other walk is, so the family is built
directly, with no search and no layered path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .model import ModelError, as_indices
from .unigraph import (
    ColoredEdge,
    InputStateWalk,
    InputVertex,
    UnionGraph,
    edge_sort_key,
    format_vertex,
    input_search,
    max_independent_edges,  # noqa: F401  (patched by name by the benchmark tracer)
    reachable_states,
    restrict_to_color,
    row_matching,
)

# labels of :func:`_pieces`; a cycle group is labeled by its index
_STEM, _DROPPED, _WALKING = -1, -2, -3


@dataclass(frozen=True)
class Decomposition:
    """Partition of an independent edge set into stems, cycle groups, drops."""

    stems: tuple[ColoredEdge, ...]
    cycle_groups: tuple[tuple[ColoredEdge, ...], ...]
    dropped: tuple[ColoredEdge, ...]

    @cached_property
    def covered(self) -> frozenset[int]:
        """The heads of the stems and cycle groups, built on first read."""
        return frozenset([e.head for e in self.stems]
                         + [e.head for group in self.cycle_groups for e in group])


def _check_independent(edges: tuple[ColoredEdge, ...]) -> None:
    heads = [e.head for e in edges]
    if len(set(heads)) != len(heads):
        raise ModelError("edge set is not independent: repeated head")
    tails = [(e.tail, e.color) for e in edges]
    if len(set(tails)) != len(tails):
        raise ModelError("edge set is not independent: repeated tail and color")


def decompose(edges, reachable: Iterable[int]) -> Decomposition:
    """Split an independent edge set into its cover pieces.

    Each edge belongs to the piece its chain of in-edges ends in: an input
    (stem), a cycle (cycle group) or a state with no in-edge (rootless,
    dropped).  Cycle groups with any unreachable vertex are dropped too,
    since no walk from an input could ever wind through them.  ``reachable``
    is read by :func:`model.as_indices`.
    """
    reachable = frozenset(as_indices(reachable, "reachable states"))
    edges = tuple(sorted(edges, key=edge_sort_key))
    _check_independent(edges)
    tails = [-1 if isinstance(e.tail, InputVertex) else e.tail.index
             for e in edges]
    pieces = _pieces(tails, [e.head for e in edges], reachable)
    return _assemble(edges.__getitem__, *pieces)


def _pieces(tails: list[int], heads: list[int], reachable: frozenset[int]
            ) -> tuple[list[int], list[list[int]], list[int]]:
    """The decomposition of an independent edge set given by position.

    ``tails[i]`` is the tail state of edge ``i``, or ``-1`` for an input,
    and ``heads[i]`` its head; positions follow ``edge_sort_key``.  Returns
    the positions of the stems, of each cycle group and of the dropped
    edges, each ascending and the groups by their first position, which is
    the order :class:`Decomposition` lists edges in.

    Every head has one in-edge, so each edge is labeled by following tails
    back until the walk meets a labeled edge (and takes its label), an
    input (stem), a tail with no in-edge (rootless, dropped) or an edge of
    this walk (a new cycle group).  Every tail of a cycle group is also one
    of its heads, so a group is kept when all its heads are reachable.
    """
    at = {h: i for i, h in enumerate(heads)}
    label: list[int | None] = [None] * len(heads)  # _STEM, _DROPPED or a group
    group_kept: list[bool] = []
    for i in range(len(heads)):
        if label[i] is not None:
            continue
        walk = []
        j = i
        while label[j] is None:
            label[j] = _WALKING
            walk.append(j)
            if tails[j] < 0:
                kind = _STEM
                break
            j = at.get(tails[j])
            if j is None:
                kind = _DROPPED
                break
        else:
            kind = label[j]
            if kind == _WALKING:
                kind = len(group_kept)
                group_kept.append(True)
        for j in walk:
            label[j] = kind
        if kind >= 0 and not reachable.issuperset([heads[j] for j in walk]):
            group_kept[kind] = False

    stems: list[int] = []
    groups: list[list[int]] = [[] for _ in group_kept]
    dropped: list[int] = []
    for i, kind in enumerate(label):
        if kind == _STEM:
            stems.append(i)
        elif kind == _DROPPED or not group_kept[kind]:
            dropped.append(i)
        else:
            groups[kind].append(i)
    return stems, [g for g, kept in zip(groups, group_kept) if kept], dropped


def _assemble(edge, stems: list[int], cycle_groups: list[list[int]],
              dropped: list[int]) -> Decomposition:
    """A decomposition from the positions of :func:`_pieces`, with
    ``edge(i)`` the edge at position ``i``."""
    return Decomposition(
        stems=tuple(map(edge, stems)),
        cycle_groups=tuple(tuple(map(edge, comp)) for comp in cycle_groups),
        dropped=tuple(map(edge, dropped)),
    )


def component_cycle(group) -> tuple[ColoredEdge, ...]:
    """The unique cycle of a cycle group, forward order, min vertex first."""
    group = tuple(group)
    if not group:
        raise ModelError("cycle group is empty")
    pred = {e.head: e for e in group}
    if len(pred) != len(group):
        raise ModelError("cycle group has a repeated head")
    start = min(pred)
    seen: dict[int, int] = {}
    v = start
    while v not in seen:
        seen[v] = len(seen)
        if v not in pred:
            raise ModelError(f"no cycle: vertex x{v + 1} has no incoming edge")
        tail = pred[v].tail
        if isinstance(tail, InputVertex):
            raise ModelError(
                f"no cycle: vertex x{v + 1} is fed by input {format_vertex(tail)}")
        v = tail.index
    # v is on the cycle: the chain from v back into its predecessor, closed
    cycle = tuple(_back(pred, pred[v].tail.index, v)) + (pred[v],)
    low = min(range(len(cycle)), key=lambda i: cycle[i].tail.index)
    return cycle[low:] + cycle[:low]


@dataclass(frozen=True)
class CactusCover:
    """A dropped-edge-free decomposition reached by the cover iteration.

    ``restricted_color`` is None when all colors were available and the
    color index when the cover was built inside one subsystem's subgraph.
    """

    decomposition: Decomposition
    restricted_color: int | None

    @property
    def covered(self) -> frozenset[int]:
        return self.decomposition.covered


def _cover_fixpoint(g: UnionGraph) -> Decomposition:
    """Iterate matching and decomposition until nothing is dropped.

    Dropped edges show their heads cannot be covered by the current
    selection; banning those heads and re-matching lets the matching spend
    its edges elsewhere.  The allowed set shrinks every round, so this
    terminates.  A round that allows every head reads the graph's kept
    unrestricted matching, which is the same matching.

    The rounds work on :func:`row_matching` and :func:`_pieces`, the integer
    forms of :func:`max_independent_edges` and :func:`decompose`: the
    matched rows ascend in ``edge_sort_key`` order, and each row names its
    tail, read for the matched rows alone.  Every round starts its matching
    cold; once bans leave under half the states allowed, a round's cold
    start scans just the rows holding an allowed head, so later rounds cost
    what they still touch.  Edge objects are built only for the pieces of
    the last round.
    """
    reachable = reachable_states(g)
    allowed = set(reachable)
    width, m, rows = g._width, g._inputs, g._rows
    while True:
        matched, heads = row_matching(g, None if len(allowed) == g.n else allowed)
        tails = [-1 if t < m else t - m for t in (rows[k] % width for k in matched)]
        stems, cycle_groups, dropped = _pieces(tails, heads, reachable)
        if not dropped:
            break
        allowed.difference_update(heads[i] for i in dropped)

    def edge(i: int) -> ColoredEdge:
        tail, color = g._row_tail(rows[matched[i]])
        return ColoredEdge(tail, heads[i], color)
    return _assemble(edge, stems, cycle_groups, dropped)


def best_cactus_cover(g: UnionGraph) -> CactusCover:
    """Largest cover found across the all-color and per-color iterations.

    The all-color iteration can talk itself into a smaller cover than a
    single subsystem would reach alone, because a larger matching is not
    always a more coverable one.  Comparing with the best single-color cover
    makes the result at least as large as any per-subsystem cover; ties
    prefer the all-color run, then the lowest color.  Every fixpoint runs
    once per graph, however often the covers are asked for, and a one-color
    graph is its own color slice, so it runs one fixpoint.  A single-color
    cover lies inside the reachable states, so when the all-color cover
    holds all of them it wins the tie and the per-color runs are skipped.
    """
    mixed = CactusCover(g._once(_cover_fixpoint), None)
    if len(mixed.covered) == len(reachable_states(g)):
        return mixed
    single = conventional_cactus_cover(g)
    return single if len(single.covered) > len(mixed.covered) else mixed


def conventional_cactus_cover(g: UnionGraph) -> CactusCover:
    """Best cover achievable inside a single subsystem's subgraph."""
    candidates = [
        CactusCover(restrict_to_color(g, c)._once(_cover_fixpoint), c)
        for c in range(g.colors)
    ]
    return max(candidates, key=lambda cover: len(cover.covered))


def shortest_walk_tree(g: UnionGraph) -> tuple[dict[int, ColoredEdge], dict[int, int]]:
    """Deterministic BFS parents and distances from the input vertices.

    The search is :func:`unigraph.input_search`, the one behind
    :func:`reachable_states`; its parent rows become edges here.
    """
    order, parent_rows = input_search(g)
    parents: dict[int, ColoredEdge] = {}
    dist: dict[int, int] = {}
    for v in order:
        tail, color = g._row_tail(g._rows[parent_rows[v]])
        parents[v] = ColoredEdge(tail, v, color)
        dist[v] = 1 if isinstance(tail, InputVertex) else dist[tail.index] + 1
    return parents, dist


def _back(pred: dict[int, ColoredEdge], v: int, stop: int | None = None
          ) -> list[ColoredEdge]:
    """The chain of ``pred`` edges into ``v``, in walk order, from an input
    tail or, when it comes first, from ``stop``.

    Raises :class:`ModelError` when the chain breaks off or runs round a
    cycle instead, as it can in an edge set that is not one stem set or
    cycle group.
    """
    chain: list[ColoredEdge] = []
    target = v
    while v != stop:
        e = pred.get(v)
        if e is None or len(chain) == len(pred):
            raise ModelError(f"the in-edge chain into x{target + 1} "
                             f"breaks off or runs round a cycle")
        chain.append(e)
        if isinstance(e.tail, InputVertex):
            break
        v = e.tail.index
    chain.reverse()
    return chain


def _chain_to_walk(chain: list[ColoredEdge]) -> InputStateWalk:
    source = chain[0].tail
    assert isinstance(source, InputVertex)
    return InputStateWalk(
        source=source,
        states=tuple(e.head for e in chain),
        colors=tuple(e.color for e in chain),
    )


def cactus_walks_for_stem(decomposition: Decomposition) -> dict[int, InputStateWalk]:
    """One walk per stem-covered state, along the stem edges themselves."""
    pred = {e.head: e for e in decomposition.stems}
    return {head: _chain_to_walk(_back(pred, head)) for head in sorted(pred)}


class _Route(NamedTuple):
    """The three stretches every walk onto one cycle group is made of."""

    prefix: list[ColoredEdge]  # a shortest walk from an input to the entry
    rotation: tuple[ColoredEdge, ...]  # the cycle, from the entry round
    arcs: dict[int, list[ColoredEdge]]  # group edges from the entry to each target


def _bud_route(group, g: UnionGraph) -> _Route:
    """The route onto a cycle group, its targets ascending.

    The entry is the cycle vertex nearest an input, ties to the lowest
    index, and the prefix is read off the walk tree, which is computed once
    per graph and only read here.
    """
    parents, dist = g._once(shortest_walk_tree)
    cycle = component_cycle(group)
    cycle_tails = [e.tail.index for e in cycle]
    for v in cycle_tails:
        if v not in dist:
            raise ModelError(f"cycle vertex x{v + 1} is not input-reachable")
    entry = min(cycle_tails, key=lambda v: (dist[v], v))
    at = cycle_tails.index(entry)
    pred = {e.head: e for e in group}
    return _Route(_back(parents, entry), cycle[at:] + cycle[:at],
                  {target: _back(pred, target, entry) for target in sorted(pred)})


def _route_walks(route: _Route, loops: int) -> dict[int, InputStateWalk]:
    way_in = route.prefix + list(route.rotation) * loops
    return {target: _chain_to_walk(way_in + arc) for target, arc in route.arcs.items()}


def cactus_walks_for_bud(group, g: UnionGraph, loops: int) -> dict[int, InputStateWalk]:
    """Walks onto every vertex of one cycle group.

    Each walk runs from an input to the group's entry vertex along shortest
    walks, circles the cycle ``loops`` times, and follows the group's unique
    edge path to the target.  The loop count is the degree of freedom used to
    pull different groups' walks apart in the layered graph.  It is read by
    :func:`model.as_indices`, and a negative one raises :class:`ModelError`.
    """
    (loops,) = as_indices((loops,), "loop count")
    if loops < 0:
        raise ModelError(f"loop count may not be negative, got {loops}")
    return _route_walks(_bud_route(group, g), loops)


def verify_cactus_walking(cover: CactusCover, g: UnionGraph) -> tuple[InputStateWalk, ...]:
    """One walk per covered state, with vertex-disjoint layered paths.

    Stem walks follow the stem edges.  A cycle group's walks are those of
    :func:`cactus_walks_for_bud`: a prefix to the entry, ``L`` turns of the
    cycle and an arc to the target.  Let ``D`` be the longest stem walk or
    arc.  Taking the groups by (distance of the entry, entry), group ``a``
    with a cycle of length ``l_a`` takes the least ``L_a`` with ``L_a l_a
    >= F_a``, where ``F_1 = D + 1`` and ``F_(a+1) = L_a l_a + D +
    dist(entry_a) + 1``.  The walks are listed stems by head, then the
    groups in decomposition order, targets ascending.  Every cover gets its
    family, built in time linear in the family's total length.

    Why the paths are disjoint.  Two layered paths can only share a vertex
    at the same distance ``q`` from their walks' ends, so scan two walks
    back from their ends.  Where both follow cover in-edges and first
    meet, they leave the meeting state by two cover edges.  Same-tail cover
    edges have distinct colors, so the layered paths separate there and
    cannot meet at any larger ``q``: their first meeting decides whether
    they share a vertex.  It is therefore enough that no first
    meeting falls where a walk is on its prefix.  Stems and arcs end within
    ``D`` steps of the walk's end, so group ``a``'s prefix lies past ``q =
    L_a l_a >= F_a``: beyond the full length of every stem walk and every
    earlier group's walk, and where every later group's walk is still on
    its own cycle.  A prefix never touches a later group's cycle: its
    states are strictly closer to the inputs than its own entry, which is
    no farther than any later entry.  Within one group, a walk on its
    prefix meets no other walk of the group on the cycle (farther from the
    inputs) nor on the prefix at another offset; at the same offset (arcs
    of equal length) both walks have met by the entry already.
    """
    decomp = cover.decomposition
    stems = cactus_walks_for_stem(decomp)
    routes = [_bud_route(group, g) for group in decomp.cycle_groups]
    reach = max([w.length for w in stems.values()]
                + [len(arc) for route in routes for arc in route.arcs.values()],
                default=0)
    loops = [0] * len(routes)
    floor = reach + 1
    for a in sorted(range(len(routes)), key=lambda a: (
            len(routes[a].prefix), routes[a].rotation[0].tail.index)):
        turn = len(routes[a].rotation)
        loops[a] = -(-floor // turn)
        floor = loops[a] * turn + reach + len(routes[a].prefix) + 1
    walks = list(stems.values())
    for route, count in zip(routes, loops):
        walks.extend(_route_walks(route, count).values())
    return tuple(walks)
