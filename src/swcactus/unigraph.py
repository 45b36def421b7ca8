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

Layout.  Vertices are numbered once, inputs first (by subsystem, then
column) and then the states, which is :func:`vertex_sort_key` order.  The
edges of one (tail, color) pair form a *row*, one left vertex of the
matching, numbered ``color * V + tail`` with ``V`` vertices and kept as
its ascending head tuple.  Rows ascend, so iterating them yields edges in
:func:`edge_sort_key` order, and a color's rows are contiguous, so
:func:`restrict_to_color` takes slices.  The head tuple of a row is column
``tail`` of that color's ``B_i`` or ``A_i``, taken as it is from
:attr:`StructuredMatrix.columns`; nothing is sorted or regrouped, and a
subgraph shares its parent's tuples.  :class:`ColoredEdge` objects exist
only at the public boundary: ``edges`` (a view that builds them as it is
read), ``edges_from`` and returned matchings.

Memo.  A graph never changes, so results derived from it are computed
once and kept on it by ``UnionGraph._once(compute, *args)``, keyed by the
function and its arguments: :func:`reachable_states` keeps ``_reachable``,
the state set of the one breadth-first search, :func:`input_search`;
:func:`restrict_to_color` keeps ``_color_slice`` per color, except that a
one-color graph is its own color slice, so the two share one memo;
:func:`row_matching` without ``allowed_heads`` keeps ``_row_matching``, the
unrestricted matching as one head (or ``-1``) per row; every row matching
keeps ``_rows_into``, the rows holding each head, once a phase has both a
free row and a free head; and :func:`term_rank_ceiling` keeps
``_term_rank_ceiling``.
:func:`generic_rank`, the ceiling, a cover fixpoint's first round and
:func:`max_independent_edges` all read that one row matching, so each
graph runs one unrestricted matching; the input rank and a ceiling below
full reachability are :func:`generic_rank` of a row slice, whose matching
is not kept.  The checker keeps the input rank itself as ``_input_rank``.
The cactus module keeps ``_cover_fixpoint``, whose rounds run on row
matchings and build edges only for the cover they return, and
``shortest_walk_tree``, which reads its parents off :func:`input_search`
and so runs the same search again on the graphs whose walks it builds.
``edges_from`` keeps nothing: it finds the vertex's rows by bisection.  A
graph is dropped with its memo.

Matching.  :func:`hopcroft_karp` (Hopcroft and Karp, SIAM J. Comput.
1973) is the one augmenting-path loop of the package, with an explicit
stack in place of recursion, so an augmenting path may run through every
state.  It has two callers: :func:`row_matching` runs it on the rows, with
heads outside ``allowed_heads`` held by a sentinel row that no search may
displace, and ``mdg.max_linking`` runs it on the layered graph.  Rows and
heads are tried in the same order as a recursive search would, so the
matching is fully determined by the graph.  A warm start is read from
``match_right``: an entry naming a row ``0 <= i < len(adj)`` is kept as a
match and only grown by augmenting paths.  Only the ceiling-stopped
``max_linking`` passes one, the matching of the previous, shallower depth;
every other call starts cold, from free heads and sentinels alone.  On a
cold start every left sits on layer 0 of the first phase, so that phase's
search is a plain loop: each left, in order, takes its first free head.
:func:`row_matching` also hands the kernel the graph's rows per head, and
each later phase then searches back from the free heads (free head, a row
holding it, that row's matched head, ...) to mark the *live* rows, those
with an alternating path to a free head, and layers and searches only
those.  The matching is the same: a row that is not live stays so after
any augmentation, every row on a successful search is live, every
alternating predecessor of a live row is live (so live rows keep their
layers), and a search into a row that is not live could only fail, which
changes nothing.  The loop stops when no free row is live.  On the
3-mode, n=2000 wide graph of the ``cover`` benchmark (seed 1), a cover
round's cold start leaves about 4,000 free rows and one or two free heads,
and 6-61 rows are live in a phase.  ``max_linking`` passes no rows per
head, so its phases layer every free row: on the n=600 chain, building the
lists for its 360,600 rows cost more than the search saved.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from itertools import chain
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
    """Immutable colored multigraph on flat integer arrays.

    ``input_counts`` keeps one entry per subsystem even when that subsystem
    has no inputs, so downstream layer-size arithmetic stays aligned with the
    original structure.
    """

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

    @classmethod
    def _blank(cls, n: int, input_counts: tuple[int, ...]) -> UnionGraph:
        """A graph whose edges are still to be set, from valid rows."""
        g = cls.__new__(cls)
        g._shape(n, input_counts)
        return g

    def _sub(self) -> UnionGraph:
        """A graph of this one's validated shape whose rows are still to be
        set, with a memo of its own."""
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
            bases.append(total)
            total += m
        self._input_base = tuple(bases)
        self._inputs = total
        self._width = total + self.n
        self._memo: dict = {}

    def _set_rows(self, rows: list[int], adj: list[tuple[int, ...]]) -> None:
        """Ascending row ids and each row's ascending head tuple."""
        self._rows = rows
        self._adj = adj
        self._edge_count = sum(map(len, adj))

    def _check_edge(self, e: ColoredEdge) -> ColoredEdge:
        """``e``, every index read by :func:`model.as_indices`, if it fits."""
        head, color = as_indices((e.head, e.color), "edge head and color")
        if not (0 <= color < self.colors):
            raise ModelError(f"edge color {color + 1} outside 1..{self.colors}")
        if not (0 <= head < self.n):
            raise ModelError(f"edge head {head + 1} outside 1..{self.n}")
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
        """``compute(self, *args)``, computed on the first call and kept.

        The memo is keyed by ``compute`` itself and ``args``, so callers in
        different modules cannot clash.
        """
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
    """A graph's edges in ``edge_sort_key`` order, built when read."""

    __slots__ = ("_graph",)

    def __init__(self, graph: UnionGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._edge_count

    def __getitem__(self, index):
        return tuple(self)[index]

    def __iter__(self) -> Iterator[ColoredEdge]:
        g = self._graph
        for row, heads in zip(g._rows, g._adj):
            yield from g._row_edges(row, heads)


def build_union_graph(structure: SwitchedStructure) -> UnionGraph:
    g = UnionGraph._blank(structure.n, structure.input_counts)
    rows: list[int] = []
    adj: list[tuple[int, ...]] = []
    for i, (a, b) in enumerate(structure.subsystems):
        # one row per non-empty column; per color, input rows come first
        base = i * g._width
        for first, mat in ((base + g._input_base[i], b), (base + g._inputs, a)):
            for c, heads in enumerate(mat.columns):
                if heads:
                    rows.append(first + c)
                    adj.append(heads)
    g._set_rows(rows, adj)
    return g


def restrict_to_color(g: UnionGraph, color: int) -> UnionGraph:
    """Subgraph keeping only the given color's edges (state set unchanged).

    The color's rows are a contiguous slice of ``g``'s rows, sharing their
    head tuples; the subgraph is built once per graph and color.  A
    one-color graph is its own slice, so what is kept on it serves both.
    """
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
    """Breadth-first search from the input vertices, over every color.

    Tails are searched in vertex-id order for the inputs, then in the order
    their states are reached; a tail's rows ascend (color-major) and each
    row's heads ascend.  Returns the reached states in that order and, per
    state, the position in ``g._rows`` of the row that reached it first
    (``-1`` for a state not reached).  Nothing is kept.
    """
    width, m, adj = g._width, g._inputs, g._adj
    out: list[list[int]] = [[] for _ in range(width)]
    for k, row in enumerate(g._rows):
        out[row % width].append(k)
    parent = [-1] * g.n
    order: list[int] = []
    # ``order`` grows while it is read: breadth-first
    for t in chain(range(m), (m + v for v in order)):
        for k in out[t]:
            for h in adj[k]:
                if parent[h] < 0:
                    parent[h] = k
                    order.append(h)
    return order, parent


def max_independent_edges(g: UnionGraph) -> tuple[ColoredEdge, ...]:
    """Largest set of edges with distinct heads and color-distinct shared tails.

    Equivalently a maximum matching between rows of the concatenated system
    matrices and their structurally nonzero columns, so the returned size is
    the generic rank of ``[A_1 .. A_N, B_1 .. B_N]``.  Fully deterministic:
    ties are broken by color, then input tails before state tails, then
    tail and head order.  The edges are those of :func:`row_matching`, in
    ``edge_sort_key`` order.
    """
    rows = g._rows
    chosen: list[ColoredEdge] = []
    for idx, head in enumerate(row_matching(g)):
        if head >= 0:
            tail, color = g._row_tail(rows[idx])
            chosen.append(ColoredEdge(tail, head, color))
    return tuple(chosen)


def row_matching(g: UnionGraph, allowed_heads: Iterable[int] | None = None
                 ) -> Sequence[int]:
    """The matching of :func:`max_independent_edges` by row: the head
    matched to each row of ``g``, or ``-1``.  With ``allowed_heads`` it is
    a maximum matching onto those heads alone, as the cover fixpoint runs.

    Rows ascend in ``edge_sort_key`` order and hold one (tail, color) pair
    each, so the matched rows list the edges in that order.  The matching
    without ``allowed_heads`` is computed once per graph and kept.
    """
    if allowed_heads is None:
        return g._once(_row_matching)
    return _row_matching(g, allowed_heads)


def _row_matching(g: UnionGraph, allowed_heads: Iterable[int] | None = None
                  ) -> tuple[int, ...]:
    size = len(g._adj)
    # a head outside allowed_heads is held by the sentinel left ``size``
    if allowed_heads is None:
        match_right = [-1] * g.n
    else:
        match_right = [size] * g.n
        for h in allowed_heads:
            if 0 <= h < g.n:
                match_right[h] = -1
    return tuple(hopcroft_karp(g._adj, match_right,
                               lambda: g._once(_rows_into)))


def _rows_into(g: UnionGraph) -> list[list[int]]:
    """Per head, the positions of the rows holding it, ascending."""
    into: list[list[int]] = [[] for _ in range(g.n)]
    for idx, heads in enumerate(g._adj):
        for h in heads:
            into[h].append(idx)
    return into


def hopcroft_karp(adj: Sequence[Sequence[int]], match_right: list[int],
                  rows_into: Callable[[], Sequence[Sequence[int]]] | None = None
                  ) -> list[int]:
    """Maximum bipartite matching; the head of every left, or ``-1``.

    ``adj[i]`` lists the heads of left ``i`` in the order they are tried.
    ``match_right[h]`` is the left holding head ``h``: ``-1`` if it is
    free, ``len(adj)`` for a sentinel that no search may displace, and any
    other left ``i`` for a matching to start from, which must pair ``h``
    with a head in ``adj[i]`` and hold each left at most once.  It is
    updated in place.  Lefts and heads are tried in the same order as a
    recursive search would, so the matching is fully determined by ``adj``
    and the starting matching.

    ``rows_into``, when given, returns per head the lefts whose ``adj``
    holds it; it is called once, when a phase first has both a free left
    and a free head.  Each phase then searches back from the free heads
    (free head, a left holding it, that left's matched head, ...) and runs
    only on the *live* lefts, those with an alternating path to a free
    head, stopping when no free left is live.  The matching is the same as without it:
      1. a left that is not live stays so after any augmentation: every
         head in its alternating reach is a sentinel or matched to a left
         that is not live, while every head on an augmenting path is free
         or matched to a live left, so no path touches that reach;
      2. every left on a successful search path is live, and every
         alternating predecessor of a live left is live, so the layers of
         live lefts are the same as when every free left is layered;
      3. a search entering a left that is not live can only fail, and a
         failed search changes no match.
    """
    size = len(adj)
    match_left = [-1] * size
    # entries other than free heads and sentinels are a matching to start
    # from; the counts skip the scan when there are none
    if match_right.count(-1) + match_right.count(size) < len(match_right):
        for head, left in enumerate(match_right):
            if 0 <= left < size:
                match_left[left] = head
    else:
        # a cold start puts every left on layer 0, where no augmenting path
        # runs through a matched left, so the first phase's search is each
        # left, in order, taking its first free head
        for idx, heads in enumerate(adj):
            for head in heads:
                if match_right[head] < 0:
                    match_left[idx] = head
                    match_right[head] = idx
                    break
    inf = size + 1
    into = None
    while True:
        if rows_into is None:
            # every free left is a root; the sentinel's layer never qualifies
            dist = [inf if m >= 0 else 0 for m in match_left]
            dist.append(-2)
            roots = [idx for idx in range(size) if match_left[idx] < 0]
        else:
            # an augmenting path runs from a free left to a free head
            free = [head for head, left in enumerate(match_right) if left < 0]
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
        # path[j] is a left and pos[j] the position after the head it is
        # trying, so heads are tried in order as in a recursion; a root
        # stays free until its own search augments
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
    ``free``, and the free ones among them, ascending.

    A live left reads ``0`` if free and ``inf`` if matched, to be layered;
    every other left, and the sentinel at ``len(match_left)``, reads ``-2``,
    which no layer equals.
    """
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
    term rank (Hosoe, IEEE TAC 1980).  Every head of such a column lies in
    ``R``, so the value is also at most ``|R|``.  Computed once per graph.
    """
    return g._once(_term_rank_ceiling)


def _term_rank_ceiling(g: UnionGraph) -> int:
    reach = reachable_states(g)
    if len(reach) == g.n:
        return generic_rank(g)
    m = g._inputs
    # rows whose tail is an input or a reachable state; their heads are all
    # reachable, so no head needs filtering
    return generic_rank(_row_slice(g, lambda t: t < m or t - m in reach))


def generic_rank(g: UnionGraph) -> int:
    """Generic rank of the row-concatenation of all system matrices."""
    return sum(head >= 0 for head in row_matching(g))


@dataclass(frozen=True)
class InputStateWalk:
    """A walk that starts at an input vertex and then moves through states.

    ``states[j]`` is the head of the ``j``-th edge and ``colors[j]`` its
    color; the first edge leaves ``source``, so ``colors[0]`` always equals
    the source's subsystem.  Every state and color is read by
    :func:`model.as_indices`, so a ``bool``, a float or a string is refused.
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
            tail = StateVertex(head)
            continue
        edge = ColoredEdge(tail, head, color)
        if not (0 <= color < g.colors):
            problems.append(f"step {pos}: color {color + 1} outside 1..{g.colors}")
        elif not g._has_edge(edge):
            problems.append(
                f"step {pos}: no color-{color + 1} edge from "
                f"{format_vertex(tail)} to x{head + 1}")
        tail = StateVertex(head)
    return tuple(problems)
