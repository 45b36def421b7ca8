"""Layered dynamic graph of a switched structure.

The graph unrolls mode products into layers.  Layer 0 holds one copy of every
state and every input.  Layer ``i >= 1`` holds ``N^i`` blocks, one per word of
``i`` colors; a block is addressed as ``(k, t)`` where ``k`` is the first
color of its word and ``t`` packs the remaining ``i - 1`` colors big-endian
in base ``N``, so its index inside the layer is ``k * N^(i-1) + t``.  Every
block contains all ``n`` states and all ``M`` inputs.

Edges point toward layer 0.  Inside a block, input copies feed state copies
through their own ``B_l`` pattern; a state copy in block ``(k, t)`` at layer
``i`` feeds layer ``i - 1`` through the ``A_k`` pattern, landing in block
``t`` of the layer below (the word minus its first color).  Each edge
carries the key of the structural entry it represents, so one realization
assigns consistent weights to all copies of an entry.

The graph is implicit: :class:`Mdg` stores only the layer sizes, reads the
sorted rows of every ``A`` and ``B`` column from the patterns' own
``columns``, and derives everything else by arithmetic.  Vertices are
numbered layer by layer; inside a layer all input copies come first
(block-major, then subsystem, then column), then all state copies
(block-major, then state).  ``Mdg._ids`` is the one place that knows this
layout: it gives a layer's two id ranges, and every vertex list, matching
row and path is read through it.  A graph holds at most ``VERTEX_CAP``
vertices; the cap is a module constant, not a parameter.

At the API boundary vertices are plain tuples, so they hash, sort, and print
without ceremony:

* ``("x", layer, k, t, j)`` is the copy of state ``j`` in block ``(k, t)``.
* ``("u", layer, k, t, l, q)`` is the copy of input ``q`` of subsystem ``l``.

Layer 0 uses ``k = t = 0``.  Tuples are built only for the vertices a caller
asks about and for the paths of a returned linking.

A vertex-disjoint path family from input copies onto layer-0 states bounds
the generic rank of the depth-limited product stack.  A maximum family is
found as one bipartite matching (Ingleton and Piff 1973), by the union
graph's Hopcroft-Karp loop: one row per vertex id, listing its heads, with
every state copy above layer 0 listing itself first so that it can stay
off every path.  The matching, followed down from each input copy, gives
the paths; a chain that stops short of layer 0 is dropped.  The exhaustive
checks of these claims are test oracles in ``tests/helpers.py``, not part of
the package: the signed expansion over path families that reproduces a
minor of the product stack, the layered path of a union-graph walk, and the
exact pairwise disjointness test of two walks' paths.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import ModelError, SwitchedStructure, as_indices
from .unigraph import hopcroft_karp

VERTEX_CAP = 2_000_000

WeightKey = tuple[int, str, int, int]
MdgVertex = tuple


class MdgSizeError(RuntimeError):
    """The requested unrolling is too large to materialize."""


def _fold_word(word: Sequence[int], base: int) -> int:
    value = 0
    for c in word:
        value = value * base + c
    return value


def layer_blocks(structure: SwitchedStructure, depth: int) -> list[int]:
    """Block count of every layer ``0..depth``, ``N^i`` at layer ``i``, for
    :class:`Mdg`: the one place where the vertex cap is checked.

    ``depth`` is read by :func:`model.as_indices`.  Raises
    :class:`MdgSizeError` when the layers hold more than ``VERTEX_CAP``
    vertices in all, each block holding every state and every input.
    """
    (depth,) = as_indices((depth,), "depth")
    if depth < 0:
        raise ModelError(f"depth may not be negative, got {depth}")
    per_block = structure.n + structure.total_inputs
    colors = structure.subsystem_count
    blocks = [1]
    total = per_block
    # stop at the first layer past the cap: a huge depth must fail fast
    while len(blocks) <= depth and total <= VERTEX_CAP:
        blocks.append(blocks[-1] * colors)
        total += per_block * blocks[-1]
    if total > VERTEX_CAP:
        raise MdgSizeError(
            f"unrolling to depth {depth} needs more vertices than the "
            f"vertex cap of {VERTEX_CAP} (block count grows as "
            f"{colors}^layer)")
    return blocks


class Mdg:
    """Implicit layered graph down from ``depth`` to layer 0."""

    def __init__(self, structure: SwitchedStructure, depth: int) -> None:
        self._blocks_at = layer_blocks(structure, depth)
        self.depth = len(self._blocks_at) - 1
        self.n = structure.n
        self.colors = structure.subsystem_count
        self.total_inputs = structure.total_inputs
        per_block = self.n + self.total_inputs
        # id of the first vertex of every layer, plus one past the last
        self._layer_base = [0]
        for count in self._blocks_at:
            self._layer_base.append(self._layer_base[-1] + per_block * count)
        self._input_slots = tuple(
            (l, q) for l, m in enumerate(structure.input_counts) for q in range(m))
        # sorted rows of every B_l and A_k column
        self._b_cols = tuple(b.columns for _, b in structure.subsystems)
        self._a_cols = tuple(a.columns for a, _ in structure.subsystems)

    def _ids(self, layer: int) -> tuple[range, range]:
        """Id ranges of the input copies and of the state copies of ``layer``."""
        if not 0 <= layer <= self.depth:
            raise ModelError(f"layer {layer} is outside 0..{self.depth}")
        base = self._layer_base[layer]
        states = base + self._blocks_at[layer] * self.total_inputs
        return range(base, states), range(states, self._layer_base[layer + 1])

    def _block_of(self, layer: int, index: int) -> tuple[int, int]:
        if layer == 0:
            return (0, 0)
        return divmod(index, self._blocks_at[layer - 1])

    def _vertex(self, vid: int) -> MdgVertex:
        """The tuple vertex with integer id ``vid``."""
        layer = bisect_right(self._layer_base, vid) - 1
        inputs, states = self._ids(layer)
        if vid < states.start:
            block, slot = divmod(vid - inputs.start, self.total_inputs)
            return ("u", layer, *self._block_of(layer, block), *self._input_slots[slot])
        block, j = divmod(vid - states.start, self.n)
        return ("x", layer, *self._block_of(layer, block), j)

    def _contains(self, vertex: MdgVertex) -> bool:
        if not isinstance(vertex, tuple) or len(vertex) not in (5, 6):
            return False
        kind, layer, k, t = vertex[:4]
        if not 0 <= layer <= self.depth:
            return False
        if (k, t) != (0, 0) and not (
                layer > 0 and 0 <= k < self.colors
                and 0 <= t < self._blocks_at[layer - 1]):
            return False
        if kind == "x" and len(vertex) == 5:
            return 0 <= vertex[4] < self.n
        if kind == "u" and len(vertex) == 6:
            return vertex[4:] in self._input_slots
        return False

    @property
    def vertex_count(self) -> int:
        return self._layer_base[-1]

    def state_vertices(self, layer: int) -> Iterator[MdgVertex]:
        return map(self._vertex, self._ids(layer)[1])

    def input_vertices(self, layer: int) -> Iterator[MdgVertex]:
        return map(self._vertex, self._ids(layer)[0])

    def edges_from(self, vertex: MdgVertex) -> tuple[tuple[MdgVertex, WeightKey], ...]:
        """Out-edges of ``vertex`` as ``(head, key)`` pairs, sorted by head."""
        if not self._contains(vertex):
            return ()
        if vertex[0] == "u":
            _, layer, k, t, l, q = vertex
            return tuple((("x", layer, k, t, r), (l, "B", r, q))
                         for r in self._b_cols[l][q])
        _, layer, k, t, c = vertex
        if layer == 0:
            return ()
        down = self._block_of(layer - 1, t)
        return tuple((("x", layer - 1, *down, r), (k, "A", r, c))
                     for r in self._a_cols[k][c])

    def input_column_index(self, vertex: MdgVertex) -> int:
        """Position of this input copy's column in the depth-stacked products.

        Layer-``i`` columns are the ``i``-fold products; inside layer ``i``
        the block index is the vertex's word reversed, because the last
        color applied is the outermost product factor.
        """
        if not (self._contains(vertex) and vertex[0] == "u"):
            raise ModelError(f"not an input vertex of this graph: {vertex!r}")
        _, layer, k, t, l, q = vertex
        word = self.word_of(layer, k, t)
        m = self.total_inputs
        offset = sum(m * self._blocks_at[i] for i in range(layer))
        r = _fold_word(tuple(reversed(word)), self.colors)
        return offset + r * m + self._input_slots.index((l, q))

    def word_of(self, layer: int, k: int, t: int) -> tuple[int, ...]:
        if layer == 0:
            return ()
        digits = []
        value = t
        for _ in range(layer - 1):
            digits.append(value % self.colors)
            value //= self.colors
        return (k, *reversed(digits))


def build_mdg(structure: SwitchedStructure, depth: int) -> Mdg:
    return Mdg(structure, depth)


@dataclass(frozen=True)
class Linking:
    """A maximum family of vertex-disjoint paths onto layer-0 states."""

    paths: tuple[tuple[MdgVertex, ...], ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    def tails(self) -> tuple[MdgVertex, ...]:
        return tuple(path[0] for path in self.paths)

    def heads(self) -> tuple[int, ...]:
        return tuple(path[-1][4] for path in self.paths)


def _rows(mdg: Mdg) -> list[tuple[int, ...]]:
    """The matching row of every vertex, in id order.

    An input copy lists its ``B`` column's state copies in its own block; a
    state copy above layer 0 lists itself, then its ``A_k`` column heads in
    the block below; a layer-0 state lists nothing.
    """
    n = mdg.n
    adj: list[tuple[int, ...]] = []
    for layer in range(mdg.depth + 1):
        # ids of the first state copy of every block
        for base in mdg._ids(layer)[1][::n]:
            for l, q in mdg._input_slots:
                adj.append(tuple([base + r for r in mdg._b_cols[l][q]]))
        if layer == 0:
            adj += [()] * n
            continue
        # block (k, t) feeds block t of the layer below
        below = mdg._ids(layer - 1)[1][::n]
        for k in range(mdg.colors):
            for base in below:
                for rows in mdg._a_cols[k]:
                    adj.append((len(adj), *[base + r for r in rows]))
    return adj


def max_linking(mdg: Mdg) -> Linking:
    """Maximum vertex-disjoint linking from all input copies to layer 0.

    A linking is a matching in disguise (Ingleton and Piff 1973).  Every
    vertex but the layer-0 states is a row listing its out-neighbors, and
    a state copy above layer 0 lists itself first.  A linking, plus a self
    match for every such copy off its paths, is a matching; conversely a
    maximum matching from :func:`unigraph.hopcroft_karp`, followed down
    from each input copy, traces chains, and the ones that reach layer 0
    form a linking of the matching's size minus the state copies above
    layer 0.  A chain that stops short, at a copy whose row is unmatched,
    is dropped.  Rows are built in vertex-id order, heads sorted after the
    self entry, so equal inputs always produce the identical linking.
    Paths are listed by tail id.
    """
    adj = _rows(mdg)
    match = hopcroft_karp(adj, [-1] * len(adj))
    # a maximum matching holds one match per path and one per state copy
    # above layer 0
    size = len(adj) - match.count(-1) - sum(
        len(mdg._ids(layer)[1]) for layer in range(1, mdg.depth + 1))

    targets = mdg._ids(0)[1]
    paths: list[tuple[MdgVertex, ...]] = []
    for layer in range(mdg.depth + 1):
        for vid in mdg._ids(layer)[0]:
            path = [vid]
            while match[path[-1]] >= 0:
                path.append(match[path[-1]])
            if path[-1] in targets:
                paths.append(tuple(mdg._vertex(v) for v in path))
    if len(paths) != size:
        raise AssertionError("linking size differs from the matching size")
    return Linking(paths=tuple(paths))
