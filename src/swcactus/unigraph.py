"""Colored union graph of a switched structure.

Every subsystem contributes one color of directed edges over a shared vertex
set: state vertices ``x_1 .. x_n`` plus one input vertex per column of each
``B_i``.  A state edge of color ``i`` runs from ``x_k`` to ``x_j`` exactly
when ``A_i[j, k]`` is structurally nonzero, and an input edge of color ``i``
runs from the ``k``-th input of subsystem ``i`` to ``x_j`` exactly when
``B_i[j, k]`` is structurally nonzero.  All edges leaving one input vertex
therefore share that vertex's color.

The central combinatorial primitive here is :func:`max_independent_edges`:
the largest edge set whose heads are pairwise distinct and whose same-tail
edges carry pairwise distinct colors.  Its size equals the generic rank of
the row-concatenation of all system matrices, which is why it drives both
the controllability test and the cover construction downstream.

Layout.  Vertices are numbered inputs first (by subsystem, then column),
then states: :func:`vertex_sort_key` order.  The edges of one (tail,
color) pair form a *row*, a left vertex of the matching, numbered ``color
* V + tail`` with ``V`` vertices and kept as its ascending head tuple:
column ``tail`` of that color's ``B_i`` or ``A_i`` as it is in
:attr:`StructuredMatrix.columns`, shared by every subgraph.  Rows ascend,
so they list edges in :func:`edge_sort_key` order and a color's rows are
one slice (:func:`restrict_to_color`).  :class:`ColoredEdge` objects exist
only at the public boundary: ``edges`` (a view that builds only the edges
read), ``edges_from`` and returned matchings.

Memo.  A graph never changes, so what is derived from it is computed once
and kept on it by ``UnionGraph._once(compute, *args)``, keyed by the
function and its arguments: ``_reachable``, the states that
:func:`input_search` reaches; ``_color_slice`` per color (a one-color
graph is its own slice); ``_row_matching``, the unrestricted matching,
which :func:`generic_rank`, the ceiling, a cover fixpoint's first round
and :func:`max_independent_edges` all read; ``_rows_into``, the rows
holding each head, once a phase has a free row and a free head or a
matching onto under half the states picks the rows it scans;
``_edge_offsets`` once ``edges`` is indexed; ``_term_rank_ceiling``; and
other modules' ``_input_rank``, ``_cover_fixpoint`` and
``shortest_walk_tree``.  A row slice's matching is not kept.

Matching.  :func:`hopcroft_karp` (Hopcroft and Karp, SIAM J. Comput. 1973)
is the one augmenting-path loop of the package, on an explicit stack.
:func:`row_matching` runs it on the rows, ``mdg.max_linking`` on the layered
graph; every run starts cold, and lefts and heads are tried in a recursive
search's order, so the matching is determined by the graph.  Onto
``allowed_heads`` every other head is held by a sentinel, and a cold start
onto few heads scans only their rows (``_row_matching``).  With the rows
per head, each phase after a cold start's greedy one searches only the
*live* rows, those with an alternating path to a free head: 6-61 of about
4,000 free rows on the ``cover`` benchmark's 3-mode n=2000 graph (seed 1).
``max_linking`` lists no rows per head: at full depth, live-row phases
took 0.89 s against 0.66 s on the one-mode n=600 chain and 2.60 s against
1.18 s on ``gapped(1, 9, 4)`` (medians of 5, 2-CPU machine), at 317-365
against 201-235 B per layered vertex.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from itertools import accumulate, chain, compress, count
from typing import Callable, Iterable, Iterator, Union

from .model import ModelError, SwitchedStructure, as_indices


@dataclass(frozen=True, order=True)
class StateVertex:
    index: int


@dataclass(frozen=True, order=True)
class InputVertex:
    subsystem: int
    index: int


Vertex = Union[StateVertex, InputVertex]


@dataclass(frozen=True)
class ColoredEdge:
    """One directed edge; ``head`` is always a state index."""

    tail: Vertex
    head: int
    color: int


def vertex_sort_key(vertex: Vertex) -> tuple[int, int, int]:
    if isinstance(vertex, InputVertex):
        return (0, vertex.subsystem, vertex.index)
    return (1, vertex.index, 0)


def edge_sort_key(edge: ColoredEdge) -> tuple:
    return (edge.color, vertex_sort_key(edge.tail), edge.head)


def format_vertex(vertex: Vertex) -> str:
    """1-based display form: states as ``x3``, inputs as ``u2.1``."""
    if isinstance(vertex, InputVertex):
        return f"u{vertex.subsystem + 1}.{vertex.index + 1}"
    return f"x{vertex.index + 1}"


class UnionGraph:
    """Immutable colored multigraph on flat integer arrays.  ``input_counts``
    keeps one entry per subsystem, with or without inputs, so layer sizes
    downstream stay aligned with the structure.  ``_structure`` is the one
    :func:`build_union_graph` built it from, if any."""

    _structure: SwitchedStructure | None = None

    def __init__(self, n: int, input_counts: tuple[int, ...],
                 edges: Iterable[ColoredEdge]) -> None:
        self._shape(n, input_counts)
        by_row: dict[int, list[int]] = {}
        for e in edges:
            e = self._check_edge(e)
            row = e.color * self._width + self._vertex_id(e.tail)
            by_row.setdefault(row, []).append(e.head)
        rows = sorted(by_row)
        self._set_rows(rows, [tuple(sorted(by_row[row])) for row in rows])

    def _sub(self) -> UnionGraph:
        """A graph of this one's validated shape, rows to be set, own memo."""
        sub = UnionGraph.__new__(UnionGraph)
        sub.n, sub.input_counts, sub.colors = self.n, self.input_counts, self.colors
        sub._input_base, sub._inputs = self._input_base, self._inputs
        sub._width = self._width
        sub._memo = {}
        return sub

    def _shape(self, n: int, input_counts: tuple[int, ...]) -> None:
        (self.n,) = as_indices((n,), "graph state count")
        if self.n < 1:
            raise ModelError(f"graph needs a positive state count, got {n}")
        self.input_counts = as_indices(input_counts, "graph input counts")
        if not self.input_counts:
            raise ModelError("graph needs at least one color")
        self.colors = len(self.input_counts)
        bases = []
        total = 0
        for m in self.input_counts:
            if m < 0:
                raise ModelError(f"graph input counts must not be negative, "
                                 f"got {self.input_counts}")
            bases.append(total)
            total += m
        self._input_base = tuple(bases)
        self._inputs = total
        self._width = total + self.n
        self._memo: dict = {}

    def _set_rows(self, rows: list[int], adj: list[tuple[int, ...]]) -> None:
        """Ascending row ids and each row's ascending head tuple."""
        self._rows, self._adj = rows, adj
        self._edge_count = sum(map(len, adj))

    def _check_edge(self, e: ColoredEdge) -> ColoredEdge:
        """``e``, every index read by :func:`model.as_indices`, if it fits."""
        head, color = as_indices((e.head, e.color), "edge head and color")
        if not (0 <= color < self.colors):
            raise ModelError(f"edge color {color + 1} outside 1..{self.colors}")
        if not (0 <= head < self.n):
            raise ModelError(f"edge head {head + 1} outside 1..{self.n}")
        if not isinstance(e.tail, (StateVertex, InputVertex)):
            raise ModelError(f"edge tail must be a vertex, got {e.tail!r}")
        t = type(e.tail)(*as_indices(astuple(e.tail), "edge tail"))
        if isinstance(t, InputVertex):
            if t.subsystem != color:
                raise ModelError(
                    f"input edge from {format_vertex(t)} must carry color "
                    f"{t.subsystem + 1}, got {color + 1}")
            if not (0 <= t.index < self.input_counts[t.subsystem]):
                raise ModelError(f"input vertex {format_vertex(t)} does not exist")
        elif not (0 <= t.index < self.n):
            raise ModelError(f"state tail {format_vertex(t)} outside 1..{self.n}")
        return ColoredEdge(t, head, color)

    def _vertex_id(self, vertex: Vertex) -> int | None:
        if isinstance(vertex, InputVertex):
            if not (0 <= vertex.subsystem < self.colors
                    and 0 <= vertex.index < self.input_counts[vertex.subsystem]):
                return None
            return self._input_base[vertex.subsystem] + vertex.index
        if not (0 <= vertex.index < self.n):
            return None
        return self._inputs + vertex.index

    def _row_tail(self, row: int) -> tuple[Vertex, int]:
        """The tail vertex and the color of one row."""
        color, t = divmod(row, self._width)
        if t < self._inputs:
            return InputVertex(color, t - self._input_base[color]), color
        return StateVertex(t - self._inputs), color

    def _row_edges(self, row: int, heads) -> list[ColoredEdge]:
        tail, color = self._row_tail(row)
        return [ColoredEdge(tail, h, color) for h in heads]

    def _once(self, compute: Callable, *args):
        """``compute(self, *args)``, computed on the first call and kept,
        keyed by ``compute`` itself so that modules cannot clash."""
        key = (compute, *args)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(self, *args)
            return value

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    @property
    def input_vertices(self) -> tuple[InputVertex, ...]:
        return tuple(InputVertex(i, k)
                     for i, m in enumerate(self.input_counts) for k in range(m))

    def edges_from(self, vertex: Vertex) -> tuple[ColoredEdge, ...]:
        """The vertex's out-edges in ``edge_sort_key`` order, read off its
        rows, one per color."""
        t = self._vertex_id(vertex)
        if t is None:
            return ()
        rows = self._rows
        out: list[ColoredEdge] = []
        for row in range(t, self.colors * self._width, self._width):
            k = bisect_left(rows, row)
            if k < len(rows) and rows[k] == row:
                out += self._row_edges(row, self._adj[k])
        return tuple(out)

    def _has_edge(self, edge: ColoredEdge) -> bool:
        """Whether ``edge`` is in the graph, read off its tail's row."""
        t = self._vertex_id(edge.tail)
        if t is None:
            return False
        row = edge.color * self._width + t
        k = bisect_left(self._rows, row)
        return k < len(self._rows) and self._rows[k] == row and edge.head in self._adj[k]


class EdgeView(Sequence):
    """A graph's edges in ``edge_sort_key`` order, built when read; an index
    finds its row by bisection over the rows' cumulative edge counts."""

    __slots__ = ("_graph",)

    def __init__(self, graph: UnionGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._edge_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        g, i = self._graph, range(len(self))[index]
        offsets = g._once(_edge_offsets)
        k = bisect_right(offsets, i) - 1
        tail, color = g._row_tail(g._rows[k])
        return ColoredEdge(tail, g._adj[k][i - offsets[k]], color)

    def __iter__(self) -> Iterator[ColoredEdge]:
        g = self._graph
        for row, heads in zip(g._rows, g._adj):
            yield from g._row_edges(row, heads)


def _edge_offsets(g: UnionGraph) -> list[int]:
    """Per row, where its edges start in ``edges``; then the edge count."""
    return list(accumulate(map(len, g._adj), initial=0))


def build_union_graph(structure: SwitchedStructure) -> UnionGraph:
    g = UnionGraph.__new__(UnionGraph)  # rows are set below, from valid columns
    g._shape(structure.n, structure.input_counts)
    g._set_rows(*_structure_rows(g, structure))
    g._structure = structure
    return g


def _structure_rows(g: UnionGraph, structure: SwitchedStructure
                    ) -> tuple[list[int], list[tuple[int, ...]]]:
    """The row ids and head tuples of ``structure`` in ``g``'s layout: a row
    per non-empty column, per color inputs first; the tuples are the columns."""
    blocks = [(i * g._width + first, mat)
              for i, (a, b) in enumerate(structure.subsystems)
              for first, mat in ((g._input_base[i], b), (g._inputs, a))]
    return (list(chain.from_iterable(compress(count(k), m.columns) for k, m in blocks)),
            list(filter(None, chain.from_iterable(m.columns for _, m in blocks))))


def union_graph_of(structure: SwitchedStructure, graph: UnionGraph | None = None
                   ) -> UnionGraph:
    """``graph``, or ``structure``'s union graph built when it is None.  A graph
    whose state count, input counts or rows are not the structure's raises
    :class:`ModelError`; one built from ``structure`` itself passes at once."""
    if graph is None:
        return build_union_graph(structure)
    if not (isinstance(graph, UnionGraph) and (graph._structure is structure or (
            graph.n == structure.n and graph.input_counts == structure.input_counts
            and (graph._rows, graph._adj) == _structure_rows(graph, structure)))):
        raise ModelError("graph is not this structure's union graph: its state "
                         "count, input counts or rows differ")
    return graph


def restrict_to_color(g: UnionGraph, color: int) -> UnionGraph:
    """Subgraph keeping only the given color's edges (state set unchanged):
    a slice of ``g``'s rows, sharing their head tuples, built once per graph
    and color.  A one-color graph is its own slice, and its memo serves both.
    ``color`` is read by :func:`model.as_indices`.
    """
    (color,) = as_indices((color,), "color")
    if not (0 <= color < g.colors):
        raise ModelError(f"color {color + 1} outside 1..{g.colors}")
    if g.colors == 1:  # before the memo, so the graph keeps no reference to itself
        return g
    return g._once(_color_slice, color)


def _color_slice(g: UnionGraph, color: int) -> UnionGraph:
    sub = g._sub()
    lo = bisect_left(g._rows, color * g._width)
    hi = bisect_left(g._rows, (color + 1) * g._width)
    sub._set_rows(g._rows[lo:hi], g._adj[lo:hi])
    return sub


def input_edges_only(g: UnionGraph) -> UnionGraph:
    return _row_slice(g, lambda t: t < g._inputs)


def _row_slice(g: UnionGraph, keep: Callable[[int], bool]) -> UnionGraph:
    """Subgraph of the rows whose tail's vertex id ``keep`` accepts."""
    sub = g._sub()
    width = g._width
    kept = [k for k, row in enumerate(g._rows) if keep(row % width)]
    sub._set_rows([g._rows[k] for k in kept], [g._adj[k] for k in kept])
    return sub


def reachable_states(g: UnionGraph) -> frozenset[int]:
    """States reachable from at least one input vertex, any edge colors."""
    return g._once(_reachable)


def _reachable(g: UnionGraph) -> frozenset[int]:
    return frozenset(input_search(g)[0])


def input_search(g: UnionGraph) -> tuple[list[int], list[int]]:
    """Breadth-first search from the input vertices, over every color:
    input tails by vertex id, then state tails as reached; a tail's rows
    ascend (color-major), each row's heads ascend.  Returns the reached
    states in that order and, per state, the position in ``g._rows`` of the
    row that reached it first (``-1`` if none).  Two int lists link a tail's
    rows (its first; per row, the next), so no list is built per tail."""
    width, m, rows, adj = g._width, g._inputs, g._rows, g._adj
    first, after = [-1] * width, [-1] * len(rows)
    for k in range(len(rows) - 1, -1, -1):
        t = rows[k] % width
        after[k] = first[t]
        first[t] = k
    parent = [-1] * g.n
    order: list[int] = []
    # ``order`` grows while it is read: breadth-first
    for t in chain(range(m), (m + v for v in order)):
        k = first[t]
        while k >= 0:
            for h in adj[k]:
                if parent[h] < 0:
                    parent[h] = k
                    order.append(h)
            k = after[k]
    return order, parent


def max_independent_edges(g: UnionGraph) -> tuple[ColoredEdge, ...]:
    """Largest set of edges with distinct heads and color-distinct shared tails.

    Equivalently a maximum matching between rows of the concatenated system
    matrices and their structurally nonzero columns, so its size is the
    generic rank of ``[A_1 .. A_N, B_1 .. B_N]``: :func:`row_matching`'s
    edges, in order, ties broken by color, inputs first, tail and head."""
    return tuple(ColoredEdge(tail, head, color)
                 for k, head in zip(*row_matching(g))
                 for tail, color in [g._row_tail(g._rows[k])])


def row_matching(g: UnionGraph, allowed_heads: Iterable[int] | None = None
                 ) -> tuple[list[int], list[int]]:
    """The matching of :func:`max_independent_edges` by row: the positions
    in ``g._rows`` of the matched rows, ascending (``edge_sort_key`` order),
    and each one's head; with ``allowed_heads``, a maximum matching onto
    those heads alone.  The one without is kept, so its lists must not be
    changed (lists: small tuples outlive a dropped graph in the interpreter's
    free lists, which raised peak RSS by 0.4-0.8 MB)."""
    if allowed_heads is None:
        return g._once(_row_matching)
    return _row_matching(g, allowed_heads)


def _row_matching(g: UnionGraph, allowed_heads: Iterable[int] | None = None
                  ) -> tuple[list[int], list[int]]:
    """:func:`row_matching`, computed on the graph's own rows and heads.
    Onto ``allowed_heads`` every other head is held by the sentinel left
    ``len(g._adj)``; under half the states allowed, the cold start scans
    only the rows holding an allowed head, and the result is read off them.
    Which rows are scanned changes only the cost, never the matching: a row
    with no allowed head holds only sentinel heads, so is never matched."""
    adj, n = g._adj, g.n
    scan = None
    if allowed_heads is None:
        match_right = [-1] * n
    else:
        match_right = [len(adj)] * n
        keep = {h for h in allowed_heads if 0 <= h < n}
        for h in keep:
            match_right[h] = -1
        if 2 * len(keep) < n:
            into = g._once(_rows_into)
            scan = sorted(set(chain.from_iterable(map(into.__getitem__, keep))))
    match_left = hopcroft_karp(adj, match_right, lambda: g._once(_rows_into), scan)
    matched = [k for k in (range(len(adj)) if scan is None else scan)
               if match_left[k] >= 0]
    return matched, list(map(match_left.__getitem__, matched))


def _rows_into(g: UnionGraph) -> list[list[int]]:
    """Per head, the positions of the rows holding it, ascending."""
    into: list[list[int]] = [[] for _ in range(g.n)]
    for idx, heads in enumerate(g._adj):
        for h in heads:
            into[h].append(idx)
    return into


def hopcroft_karp(adj: Sequence[Sequence[int]], match_right: list[int],
                  rows_into: Callable[[], Sequence[Sequence[int]]] | None = None,
                  scan: Sequence[int] | None = None) -> list[int]:
    """Maximum bipartite matching; the head of every left, or ``-1``.

    ``adj[i]`` lists the heads of left ``i`` in the order they are tried.
    ``match_right[h]``, updated in place, is the left holding head ``h``;
    on entry it is ``-1`` if free or ``len(adj)`` for a sentinel no search
    may displace.  Every run starts cold, and lefts and heads are tried in
    a recursive search's order, so the matching is fully determined by
    ``adj`` and the sentinels.

    ``rows_into``, when given, returns per head the lefts holding it, and is
    called once, when a phase first has a free left and a free head.  Each
    phase then searches back from the free heads (a left holding one, its
    matched head, ...) and runs only on the *live* lefts, those with an
    alternating path to a free head, until no free left is live.  The
    matching is the same as without it:
      1. a left that is not live stays so: its alternating reach holds only
         sentinels and heads of lefts that are not live, and an augmenting
         path only free heads and heads of live lefts;
      2. every left on a successful search path is live, as is every
         alternating predecessor of a live left, so live lefts keep layers;
      3. a search entering a left that is not live fails, changing nothing.

    ``scan``, when given, lists the lefts the cold start scans, ascending;
    every other left must hold only sentinel heads, so is never matched.
    """
    size = len(adj)
    match_left = [-1] * size
    # a cold start layers every left 0, where no augmenting path runs
    # through a matched left: each left takes its first free head
    for idx, heads in (enumerate(adj) if scan is None
                       else zip(scan, map(adj.__getitem__, scan))):
        for head in heads:
            if match_right[head] < 0:
                match_left[idx] = head
                match_right[head] = idx
                break
    inf = size + 1
    into = None
    # an augmentation frees no head, so each phase filters the last one's;
    # a left not scanned holds no free head
    free: Iterable[int] = (range(len(match_right)) if scan is None
                           else {head for idx in scan for head in adj[idx]})
    while True:
        if rows_into is None:
            # every free left is a root; the sentinel's layer never qualifies
            dist = [inf if m >= 0 else 0 for m in match_left] + [-2]
            roots = [idx for idx in range(size) if match_left[idx] < 0]
        else:
            # an augmenting path runs from a free left to a free head
            free = [head for head in free if match_right[head] < 0]
            if not free or -1 not in match_left:
                return match_left
            if into is None:
                into = rows_into()
            dist, roots = _live_lefts(into, free, match_left, inf)
        # breadth-first layers from the roots
        queue = list(roots)
        found = False
        for idx in queue:  # grows while it is read
            layer = dist[idx] + 1
            for head in adj[idx]:
                other = match_right[head]
                if other < 0:
                    found = True
                elif dist[other] == inf:
                    dist[other] = layer
                    queue.append(other)
        if not found:
            return match_left
        # one depth-first augmenting search per root, on an explicit stack:
        # path[j] is a left and pos[j] the position after the head it tries,
        # so heads are tried as in a recursion; a root stays free until its
        # own search augments
        for root in roots:
            path = [root]
            pos = [0]
            while path:
                idx = path[-1]
                heads = adj[idx]
                p = pos[-1]
                layer = dist[idx] + 1
                end = len(heads)
                while p < end:
                    other = match_right[heads[p]]
                    p += 1
                    if other < 0 or dist[other] == layer:
                        break
                else:
                    dist[idx] = inf
                    path.pop()
                    pos.pop()
                    continue
                pos[-1] = p
                if other < 0:
                    for left, q in zip(path, pos):
                        head = adj[left][q - 1]
                        match_left[left] = head
                        match_right[head] = left
                    break
                path.append(other)
                pos.append(0)


def _live_lefts(into: Sequence[Sequence[int]], free: list[int],
                match_left: list[int], inf: int) -> tuple[list[int], list[int]]:
    """Layer-0 distances of the lefts with an alternating path to a head in
    ``free`` (``0`` if free, ``inf`` if matched) and the free ones, sorted;
    every other left and the sentinel read ``-2``, which no layer equals."""
    dist = [-2] * (len(match_left) + 1)
    roots: list[int] = []
    heads = list(free)
    for head in heads:  # grows while it is read
        for idx in into[head]:
            if dist[idx] == -2:
                m = match_left[idx]
                if m < 0:
                    dist[idx] = 0
                    roots.append(idx)
                else:
                    dist[idx] = inf
                    heads.append(m)
    roots.sort()
    return dist, roots


def term_rank_ceiling(g: UnionGraph) -> int:
    """Term rank of ``[B_1 .. B_N, A_1[:, R] .. A_N[:, R]]``, with ``R`` the
    reachable states: a ceiling on the generic controllable dimension.

    The reachable subspace lies in the span of every ``B_i`` column and of
    the ``A_i`` columns in ``R``, so its dimension is at most that stack's
    term rank (Hosoe, IEEE TAC 1980), and every head of such a column lies
    in ``R``, so the value is at most ``|R|``.  Computed once per graph."""
    return g._once(_term_rank_ceiling)


def _term_rank_ceiling(g: UnionGraph) -> int:
    reach = reachable_states(g)
    if len(reach) == g.n:
        return generic_rank(g)
    m = g._inputs
    # rows whose tail is an input or a reachable state, all heads reachable
    return generic_rank(_row_slice(g, lambda t: t < m or t - m in reach))


def generic_rank(g: UnionGraph) -> int:
    """Generic rank of the row-concatenation of all system matrices."""
    return len(row_matching(g)[0])


@dataclass(frozen=True)
class InputStateWalk:
    """A walk that starts at an input vertex and then moves through states.

    ``states[j]`` is the head of the ``j``-th edge and ``colors[j]`` its
    color, so ``colors[0]`` is ``source``'s subsystem.  Both are read by
    :func:`model.as_indices`: a ``bool``, a float or a string is refused.
    """

    source: InputVertex
    states: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            states, colors = as_indices(self.states), as_indices(self.colors)
        except (TypeError, ModelError):  # not a sequence of indices
            raise ModelError(f"walk states and colors must be integers, got "
                             f"{self.states!r} and {self.colors!r}") from None
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "colors", colors)
        if not self.states:
            raise ModelError("a walk needs at least one edge")
        if len(self.states) != len(self.colors):
            raise ModelError(
                f"walk has {len(self.states)} states but {len(self.colors)} colors")
        if self.colors[0] != self.source.subsystem:
            raise ModelError(
                f"first walk edge leaves {format_vertex(self.source)} and must "
                f"carry color {self.source.subsystem + 1}, got {self.colors[0] + 1}")

    @property
    def length(self) -> int:
        return len(self.states)

    @property
    def end(self) -> int:
        return self.states[-1]


def walk_violations(walk: InputStateWalk, g: UnionGraph) -> tuple[str, ...]:
    """Every reason the walk is not realizable in ``g``; empty means valid."""
    problems: list[str] = []
    tail: Vertex = walk.source
    for pos, (head, color) in enumerate(zip(walk.states, walk.colors), start=1):
        if not (0 <= head < g.n):
            problems.append(f"step {pos}: state x{head + 1} outside 1..{g.n}")
        elif not (0 <= color < g.colors):
            problems.append(f"step {pos}: color {color + 1} outside 1..{g.colors}")
        elif not g._has_edge(ColoredEdge(tail, head, color)):
            problems.append(
                f"step {pos}: no color-{color + 1} edge from "
                f"{format_vertex(tail)} to x{head + 1}")
        tail = StateVertex(head)
    return tuple(problems)
