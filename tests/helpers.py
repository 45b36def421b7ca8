"""Shared test utilities: brute-force oracles and instance generators.

The oracles re-derive quantities by exhaustive enumeration so the production
algorithms are checked against definitions, not against themselves.  None of
them ships in the package: the exhaustive checks of the layered dynamic
graph (the signed path expansion of a stack minor, the layered path of a
walk and the exact disjointness test of two walks) and the dense product
stack live here with the rest.
"""

from __future__ import annotations

import inspect
import json
import random
from collections import deque
from itertools import chain, combinations
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from swcactus import (
    ColoredEdge,
    InputStateWalk,
    Mdg,
    ModelError,
    InputVertex,
    Realization,
    StateVertex,
    StructuredMatrix,
    SwitchedStructure,
    UnionGraph,
    parse_system,
    reachable_states,
    sample_realization,
)
from swcactus.model import realized_dense
from swcactus.rankcore import rank_ff
from swcactus.unigraph import edge_sort_key, row_matching

DATA_DIR = Path(__file__).parent / "data"

BRUTE_EDGE_LIMIT = 16


def load_system(name: str) -> SwitchedStructure:
    return parse_system((DATA_DIR / f"{name}.json").read_text())


def is_independent(edges) -> bool:
    heads = [e.head for e in edges]
    if len(set(heads)) != len(heads):
        return False
    tails = [(e.tail, e.color) for e in edges]
    return len(set(tails)) == len(tails)


def brute_max_independent(g: UnionGraph) -> int:
    """Largest independent edge set by subset enumeration."""
    edges = g.edges
    if len(edges) > BRUTE_EDGE_LIMIT:
        raise ValueError(f"too many edges for enumeration: {len(edges)}")
    for size in range(len(edges), 0, -1):
        for subset in combinations(edges, size):
            if is_independent(subset):
                return size
    return 0


def ref_max_independent_edges(g: UnionGraph, allowed_heads=None):
    """The dict-based, recursive Hopcroft-Karp matching that the flat-array
    ``max_independent_edges`` replaced, kept as its reference.

    Left vertices are (tail, color) pairs sorted by color, inputs before
    states, then tail; heads are tried in increasing order.  The recursion
    is one frame per edge of an augmenting path, so keep paths short.
    """
    if allowed_heads is None:
        heads_ok = frozenset(range(g.n))
    else:
        heads_ok = frozenset(h for h in allowed_heads if 0 <= h < g.n)
    by_tail = {}
    for e in g.edges:
        if e.head in heads_ok:
            by_tail.setdefault((e.tail, e.color), []).append(e.head)

    def left_key(item):
        tail, color = item
        if isinstance(tail, InputVertex):
            return (color, 0, tail.subsystem, tail.index)
        return (color, 1, tail.index, 0)

    lefts = sorted(by_tail, key=left_key)
    adjacency = [tuple(sorted(set(by_tail[key]))) for key in lefts]
    size = len(lefts)
    match_left = [None] * size
    match_right = {}
    inf = size + 1
    dist = [inf] * size

    def bfs_layers():
        queue = deque()
        for idx in range(size):
            dist[idx] = inf if match_left[idx] is not None else 0
            if dist[idx] == 0:
                queue.append(idx)
        found = False
        while queue:
            idx = queue.popleft()
            for head in adjacency[idx]:
                other = match_right.get(head)
                if other is None:
                    found = True
                elif dist[other] == inf:
                    dist[other] = dist[idx] + 1
                    queue.append(other)
        return found

    def try_augment(idx):
        for head in adjacency[idx]:
            other = match_right.get(head)
            if other is None or (dist[other] == dist[idx] + 1
                                 and try_augment(other)):
                match_left[idx] = head
                match_right[head] = idx
                return True
        dist[idx] = inf
        return False

    while bfs_layers():
        for idx in range(size):
            if match_left[idx] is None:
                try_augment(idx)

    chosen = [ColoredEdge(tail, match_left[idx], color)
              for idx, (tail, color) in enumerate(lefts)
              if match_left[idx] is not None]
    return tuple(sorted(chosen, key=edge_sort_key))


def matched_edges(g: UnionGraph, allowed_heads) -> tuple[ColoredEdge, ...]:
    """The edges of ``row_matching(g, allowed_heads)``, in ``edge_sort_key``
    order: ``max_independent_edges(g)`` with its heads restricted to
    ``allowed_heads``."""
    return tuple(ColoredEdge(tail, head, color)
                 for k, head in zip(*row_matching(g, allowed_heads))
                 for tail, color in [g._row_tail(g._rows[k])])


def _vertex_key(v):
    if isinstance(v, InputVertex):
        return ("u", v.subsystem, v.index)
    return ("x", v.index)


def _components(edges):
    parent = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for e in edges:
        for key in (_vertex_key(e.tail), ("x", e.head)):
            parent.setdefault(key, key)
        a, b = find(_vertex_key(e.tail)), find(("x", e.head))
        if a != b:
            parent[a] = b
    groups = {}
    for e in edges:
        groups.setdefault(find(("x", e.head)), []).append(e)
    return list(groups.values())


def is_valid_cover_config(edges, reachable) -> bool:
    """Validity per definition: input-rooted trees plus reachable cycles.

    Deliberately does not call the production decomposition.
    """
    if not is_independent(edges):
        return False
    for comp in _components(edges):
        rooted = [e for e in comp if isinstance(e.tail, InputVertex)]
        if rooted:
            absorbed = set(rooted)
            frontier = [e.head for e in rooted]
            while frontier:
                v = frontier.pop()
                for e in comp:
                    if e not in absorbed and isinstance(e.tail, StateVertex) \
                            and e.tail.index == v:
                        absorbed.add(e)
                        frontier.append(e.head)
            if len(absorbed) != len(comp):
                return False
        else:
            verts = {e.head for e in comp} | {e.tail.index for e in comp}
            if len(comp) != len(verts):
                return False
            if not verts <= reachable:
                return False
    return True


def brute_best_cover(g: UnionGraph) -> int:
    """Maximum states coverable by any valid configuration, by enumeration."""
    edges = g.edges
    if len(edges) > 12:
        raise ValueError(f"too many edges for enumeration: {len(edges)}")
    reachable = reachable_states(g)
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for subset in combinations(edges, size):
            if is_valid_cover_config(subset, reachable):
                best = size
                break
    return best


def random_structure(rng: np.random.Generator, *, max_n: int = 5,
                     max_colors: int = 3, density: float = 0.3) -> SwitchedStructure:
    n = int(rng.integers(1, max_n + 1))
    colors = int(rng.integers(1, max_colors + 1))
    subsystems = []
    for _ in range(colors):
        a_mask = rng.random((n, n)) < density
        a = StructuredMatrix(n, n, frozenset(
            (int(r), int(c)) for r in range(n) for c in range(n) if a_mask[r, c]))
        m = int(rng.integers(0, 3))
        b_mask = rng.random((n, m)) < density if m else None
        b = StructuredMatrix(n, m, frozenset(
            (int(r), int(c)) for r in range(n) for c in range(m)
            if b_mask[r, c]) if m else frozenset())
        subsystems.append((a, b))
    return SwitchedStructure(n=n, subsystems=tuple(subsystems))


def sparse_structure(rng: np.random.Generator, *, max_n: int, max_colors: int,
                     max_edges: int) -> SwitchedStructure:
    """Random structure with a hard cap on total nonzeros (for enumeration)."""
    while True:
        s = random_structure(rng, max_n=max_n, max_colors=max_colors, density=0.2)
        total = sum(a.nnz + b.nnz for a, b in s.subsystems)
        if 0 < total <= max_edges:
            return s


def concat_rank(structure: SwitchedStructure, seed: int) -> int:
    """Rank of one realized ``[A_1 .. A_N, B_1 .. B_N]``; grank cross-check."""
    realization = sample_realization(structure, seed=seed)
    n = structure.n
    cols = []
    for idx, (a, b) in enumerate(structure.subsystems):
        for c in range(n):
            col = [0] * n
            for r in range(n):
                if (r, c) in a.nonzeros:
                    col[r] = realization.values[(idx, "A", r, c)]
            cols.append(col)
        for c in range(b.cols):
            col = [0] * n
            for r in range(n):
                if (r, c) in b.nonzeros:
                    col[r] = realization.values[(idx, "B", r, c)]
            cols.append(col)
    return rank_ff(cols, n, realization.prime)


class BruteReducer:
    """Column elimination over GF(p) on plain lists of Python ints.

    Basis columns are normalized to pivot value 1, and reducing a column is
    one multiply-subtract sweep per pivot, every entry taken mod p.
    """

    def __init__(self, n: int, prime: int) -> None:
        self.n = n
        self.prime = prime
        self.pivots: list[int] = []
        self.basis: list[list[int]] = []

    def add(self, column) -> bool:
        p = self.prime
        col = [int(v) % p for v in column]
        for pivot, vec in zip(self.pivots, self.basis):
            factor = col[pivot]
            if factor:
                col = [(a - factor * b) % p for a, b in zip(col, vec)]
        for row, value in enumerate(col):
            if value:
                inv = pow(value, p - 2, p)
                self.pivots.append(row)
                self.basis.append([v * inv % p for v in col])
                return True
        return False


def brute_rank_ff(columns, n: int, prime: int) -> int:
    reducer = BruteReducer(n, prime)
    for col in columns:
        reducer.add(col)
    return len(reducer.basis)


def brute_reachable_space_dim(structure: SwitchedStructure,
                              realization) -> tuple[int, int]:
    """``(dim, layers_used)`` by applying every dense ``A_i`` to the whole
    basis each round, until a round adds nothing."""
    n, p = structure.n, realization.prime
    values = realization.values
    a_dense = []
    reducer = BruteReducer(n, p)
    for idx, (a, b) in enumerate(structure.subsystems):
        mat = [[0] * n for _ in range(n)]
        for r, c in a.nonzeros:
            mat[r][c] = values[(idx, "A", r, c)]
        a_dense.append(mat)
        for q in range(b.cols):
            reducer.add([values.get((idx, "B", r, q), 0) for r in range(n)])
    layers = 0
    while len(reducer.basis) < n:
        before = len(reducer.basis)
        for vec in list(reducer.basis):
            for mat in a_dense:
                reducer.add([sum(x * y for x, y in zip(row, vec)) % p for row in mat])
        if len(reducer.basis) == before:
            break
        layers += 1
    return len(reducer.basis), layers


def layered_product_columns(structure: SwitchedStructure, realization: Realization,
                            depth: int) -> tuple[list[list[int]], list[int]]:
    """All product columns up to the given depth, with layer offsets.

    Layer 0 holds the columns of every ``B_l`` in subsystem order; layer
    ``i`` holds each ``A_j`` in turn applied to the whole previous layer.
    Returns ``(columns, offsets)`` where ``offsets[i]`` is the index of the
    first column of layer ``i`` and ``offsets[depth + 1]`` the total count.
    This is the column order that ``Mdg.input_column_index`` numbers.  The
    products are dense row-by-column sums mod p over ``realized_dense``
    matrices, so they share no code with the probe's sparse products.
    """
    if depth < 0:
        raise ModelError(f"depth may not be negative, got {depth}")
    if realization.kind != "finite":
        raise ModelError("layered product columns require a finite-field realization")
    p = realization.prime
    modes = range(structure.subsystem_count)
    a_dense = [realized_dense(structure, realization, i, "A") for i in modes]
    current = [list(col) for i in modes
               for col in zip(*realized_dense(structure, realization, i, "B"))]
    columns = list(current)
    offsets = [0, len(columns)]
    for _ in range(depth):
        current = [[sum(x * y for x, y in zip(row, col)) % p for row in a]
                   for a in a_dense for col in current]
        columns += current
        offsets.append(len(columns))
    return columns, offsets


def det_ff(columns: Sequence[Sequence[int]], prime: int) -> int:
    """Determinant of a square matrix given by columns, over GF(p)."""
    n = len(columns)
    mat = [[int(v) % prime for v in col] for col in columns]
    for col in mat:
        if len(col) != n:
            raise ModelError("determinant needs a square matrix")
    det = 1
    for i in range(n):
        pivot_col = next((j for j in range(i, n) if mat[j][i]), None)
        if pivot_col is None:
            return 0
        if pivot_col != i:
            mat[i], mat[pivot_col] = mat[pivot_col], mat[i]
            det = prime - det
        inv = pow(mat[i][i], -1, prime)
        det = det * mat[i][i] % prime
        for j in range(i + 1, n):
            factor = mat[j][i] * inv % prime
            if factor:
                mat[j] = [(a - factor * b) % prime for a, b in zip(mat[j], mat[i])]
    return det


def linking_determinant_expansion(mdg: Mdg, realization: Realization,
                                  rows: Sequence[int], tails: Sequence) -> int:
    """Signed sum over all disjoint path families from ``tails`` onto ``rows``.

    Enumerates every family of vertex-disjoint layered paths that starts at
    exactly the given input copies and ends onto exactly the given layer-0
    states, multiplying each family's edge weights and signing it by the
    parity of the head arrangement.  Equals the minor of the product stack on
    those rows and columns; exponential, so gated to small instances.
    """
    if realization.kind != "finite":
        raise ModelError("determinant expansion requires a finite-field realization")
    if mdg.n > 4 or mdg.colors > 2 or mdg.depth > 3:
        raise ModelError(
            "instance too large for exhaustive path enumeration "
            f"(n={mdg.n}, colors={mdg.colors}, depth={mdg.depth}; "
            "need n<=4, colors<=2, depth<=3)")
    rows = sorted(rows)
    tails = sorted(tails)
    if len(rows) != len(tails):
        raise ModelError(f"{len(tails)} tails cannot match {len(rows)} rows")
    p = realization.prime

    def all_paths(v):
        # (vertices, weight product, final row)
        if v[0] == "x" and v[1] == 0:
            return [((v,), 1, v[4])]
        out = []
        for head, key in mdg.edges_from(v):
            w = realization.values[key]
            for rest, prod, end in all_paths(head):
                out.append(((v, *rest), w * prod % p, end))
        return out

    options = [
        [(path, prod, end) for path, prod, end in all_paths(t) if end in rows]
        for t in tails
    ]
    total = 0
    used: set = set()
    chosen_ends: list[int] = []

    def recurse(idx: int, weight: int) -> None:
        nonlocal total
        if idx == len(tails):
            perm = [rows.index(e) for e in chosen_ends]
            total = (total + _permutation_sign(perm) * weight) % p
            return
        for path, prod, end in options[idx]:
            if end in chosen_ends or used.intersection(path):
                continue
            used.update(path)
            chosen_ends.append(end)
            recurse(idx + 1, weight * prod % p)
            chosen_ends.pop()
            used.difference_update(path)

    recurse(0, 1)
    return total % p


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _block_address(word: Sequence[int], base: int) -> tuple[int, int]:
    """The layered-graph block ``(k, t)`` of a color word: ``k`` its first
    color and ``t`` the rest packed big-endian in base ``base``."""
    if not word:
        return (0, 0)
    t = 0
    for c in word[1:]:
        t = t * base + c
    return (word[0], t)


def mdg_path_vertices(walk: InputStateWalk, colors: int) -> tuple:
    """The layered-graph path a union-graph walk traces, without the graph.

    A walk of ``k`` edges starts at the input copy in layer ``k - 1`` whose
    block word is the walk's color sequence after the first edge, then steps
    down one layer per edge, shedding the leading color each time, and ends
    at the walk's final state in layer 0.
    """
    k = walk.length
    blk, t = _block_address(walk.colors[1:], colors)
    path = [("u", k - 1, blk, t, walk.source.subsystem, walk.source.index)]
    for i, state in enumerate(walk.states):
        word = walk.colors[i + 1:]
        blk, t = _block_address(word, colors)
        path.append(("x", len(word), blk, t, state))
    return tuple(path)


def walks_provably_disjoint(w1: InputStateWalk, w2: InputStateWalk) -> bool | None:
    """Exact vertex-disjointness test for the layered paths of two walks.

    Copies of the two paths can only coincide at equal distance from the
    walk ends, and then only if the color sequences covering that distance
    agree.  Scanning from the ends, the first place the underlying walks
    occupy the same vertex decides everything: differing color suffixes
    there rule out a collision at every later distance as well, and
    agreeing ones make that place a shared vertex.  Returns ``True`` when
    the layered paths are vertex-disjoint and ``None`` when they share a
    vertex, with no path materialized.  ``cactus.verify_cactus_walking``
    builds its walk families disjoint by this first-meeting rule.
    """
    k1, k2 = w1.length, w2.length

    def at(walk: InputStateWalk, q: int):
        if q < walk.length:
            return ("x", walk.states[walk.length - 1 - q])
        return ("u", walk.source.subsystem, walk.source.index)

    for q in range(min(k1, k2) + 1):
        if at(w1, q) == at(w2, q):
            if w1.colors[k1 - q:] == w2.colors[k2 - q:]:
                return None
            return True
    return True


def _wide_a(rng: random.Random, n: int, rows) -> StructuredMatrix:
    return StructuredMatrix(n, n, frozenset(
        (r, c) for c in range(n) for r in rng.sample(rows, 2)))


def _input_at(n: int, rows) -> StructuredMatrix:
    return StructuredMatrix(n, 1, frozenset((r, 0) for r in rows))


def wide_structure(seed: int, n: int, modes: int) -> SwitchedStructure:
    """The benchmark's wide family: every column of every ``A_i`` gets two
    distinct random rows, and every ``B_i`` one column with two.  Same draws
    as ``wide(random.Random(seed), n, modes)`` in ``perfbench/families.py``."""
    rng = random.Random(seed)
    subsystems = []
    for _ in range(modes):
        b = _input_at(n, rng.sample(range(n), 2))
        subsystems.append((_wide_a(rng, n, range(n)), b))
    return SwitchedStructure(n=n, subsystems=tuple(subsystems))


def gapped_structure(seed: int, n: int, modes: int) -> SwitchedStructure:
    """The benchmark's gapped family: wide ``A_i`` patterns over all rows
    but two gap rows, and one input, in mode 1, feeding both gap rows.  Same
    draws as ``gapped(random.Random(seed), n, modes)`` in
    ``perfbench/families.py``."""
    rng = random.Random(seed)
    gap = rng.sample(range(n), 2)
    rest = [r for r in range(n) if r not in gap]
    subsystems = []
    for i in range(modes):
        b = _input_at(n, gap) if i == 0 else StructuredMatrix(n, 0)
        subsystems.append((_wide_a(rng, n, rest), b))
    return SwitchedStructure(n=n, subsystems=tuple(subsystems))


def pinched_structure(seed: int, n: int, modes: int) -> SwitchedStructure:
    """The benchmark's pinched family: wide ``A_i`` patterns plus a
    Hamiltonian path from the one input, in mode 1, with every step in a
    random mode.  Same draws as ``pinched(random.Random(seed), n, modes)``
    in ``perfbench/families.py``."""
    rng = random.Random(seed)
    a = [set(_wide_a(rng, n, range(n)).nonzeros) for _ in range(modes)]
    order = rng.sample(range(n), n)
    for tail, head in zip(order, order[1:]):
        a[rng.randrange(modes)].add((head, tail))
    return SwitchedStructure(n=n, subsystems=tuple(
        (StructuredMatrix(n, n, frozenset(a[i])),
         _input_at(n, [order[0]]) if i == 0 else StructuredMatrix(n, 0))
        for i in range(modes)))


def spider_structure(legs: int, length: int, modes: int) -> SwitchedStructure:
    """One input, in mode 1, into the hub ``x_0``, and ``legs`` legs of
    ``length`` states each: the hub feeds the first state of every leg, and
    each leg is a path away from it.  All ``modes`` modes share this ``A``
    pattern, so the probe's rank stays below the term-rank ceiling (7 < 8
    at 5 legs of 2 in 2 modes) and the bounds run the layered linking."""
    n = 1 + legs * length
    firsts = range(1, n, length)
    a = StructuredMatrix(n, n, frozenset(
        [(first, 0) for first in firsts]
        + [(j + 1, j) for first in firsts for j in range(first, first + length - 1)]))
    return SwitchedStructure(n=n, subsystems=tuple(
        (a, _input_at(n, [0]) if i == 0 else StructuredMatrix(n, 0))
        for i in range(modes)))


def chain_document(n: int) -> dict:
    """Mode 1 has ``x_i -> x_i`` for i < n and ``x_i -> x_{i+1}``; mode 2
    has one input into ``x_1``.  Its matching needs an augmenting path
    through every state."""
    a = [[i, i] for i in range(1, n)] + [[i + 1, i] for i in range(1, n)]
    return {"n": n, "subsystems": [
        {"A": a, "B": {"cols": 0, "nonzeros": []}},
        {"A": [], "B": {"cols": 1, "nonzeros": [[1, 1]]}},
    ]}


def ref_parse_positions(raw, *, where: str, rows: int, cols: int):
    """The per-entry position reader that the bulk check in
    ``model._parse_positions`` replaced, kept as the oracle for its result
    and for its error messages."""
    def expect(condition, message):
        if not condition:
            raise ModelError(message)

    expect(isinstance(raw, list), f"{where}: expected a list of [row, col] pairs")
    seen = set()
    for item in raw:
        expect(
            isinstance(item, list) and len(item) == 2,
            f"{where}: each nonzero must be a [row, col] pair, got {item!r}",
        )
        r, c = item
        expect(
            isinstance(r, int) and isinstance(c, int) and not isinstance(r, bool) and not isinstance(c, bool),
            f"{where}: row and column must be integers, got {item!r}",
        )
        expect(
            1 <= r <= rows and 1 <= c <= cols,
            f"{where}: entry ({r}, {c}) does not fit a {rows}x{cols} matrix",
        )
        pos = (r - 1, c - 1)
        expect(pos not in seen, f"{where}: duplicate nonzero entry ({r}, {c})")
        seen.add(pos)
    return frozenset(seen)


def ref_parse_columns(raw, *, where: str, row_ids, cols: int):
    """``ref_parse_positions`` with the arguments and the result of
    ``model._parse_positions``: the positions grouped by column, rows
    ascending."""
    rows = len(row_ids) - 1
    columns = [[] for _ in range(cols)]
    for r, c in sorted(ref_parse_positions(raw, where=where, rows=rows, cols=cols)):
        columns[c].append(r)
    return tuple(map(tuple, columns))


def ref_input_search(g: UnionGraph) -> tuple[list[int], list[int]]:
    """``unigraph.input_search`` as it was when it bucketed the rows per
    tail before searching, kept as the oracle for its order and parents."""
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


def ref_pieces(tails: list[int], heads: list[int], reachable
               ) -> tuple[list[int], list[list[int]], list[int]]:
    """The split of an independent edge set by position that a stem sweep
    and a union-find made before ``cactus._pieces`` followed in-edges, kept
    as the oracle for its result."""
    out: dict[int, list[int]] = {}
    stems: list[int] = []
    for i, t in enumerate(tails):
        if t < 0:
            stems.append(i)
        else:
            out.setdefault(t, []).append(i)
    for i in stems:  # grows while it is read: breadth-first
        stems += out.pop(heads[i], ())

    remainder = sorted(i for group in out.values() for i in group)
    cycle_groups: list[list[int]] = []
    dropped: list[int] = []
    for comp in _ref_weak_components(remainder, tails, heads):
        verts = {heads[i] for i in comp} | {tails[i] for i in comp}
        assert len(comp) in (len(verts) - 1, len(verts))
        if len(comp) == len(verts) and verts <= reachable:
            cycle_groups.append(comp)
        else:
            dropped += comp
    stems.sort()
    dropped.sort()
    return stems, cycle_groups, dropped


def _ref_weak_components(positions: list[int], tails: list[int],
                         heads: list[int]) -> list[list[int]]:
    """Edge positions grouped by shared endpoints with a union-find, each
    group in position order and the groups by their first position."""
    if not positions:
        return []
    parent = list(range(1 + max(max(tails), max(heads))))
    for i in positions:
        a, b = tails[i], heads[i]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)

    groups: dict[int, list[int]] = {}
    for i in positions:
        root = heads[i]
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(i)
    return list(groups.values())


def ref_hopcroft_karp(adj: Sequence[Sequence[int]], match_right: list[int]) -> list[int]:
    """Maximum bipartite matching; the head of every left, or ``-1``.

    ``unigraph.hopcroft_karp`` as it was before its phases searched back
    from the free heads, kept verbatim as the oracle for its matching.

    ``adj[i]`` lists the heads of left ``i`` in the order they are tried.
    ``match_right[h]`` is the left holding head ``h``: ``-1`` if it is
    free, ``len(adj)`` for a sentinel that no search may displace, and any
    other left ``i`` for a matching to start from, which must pair ``h``
    with a head in ``adj[i]`` and hold each left at most once.  It is
    updated in place.  Lefts and heads are tried in the same order as a
    recursive search would, so the matching is fully determined by ``adj``
    and the starting matching.
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
    while True:
        # breadth-first layers from every free left; the sentinel's layer
        # never qualifies
        dist = [inf if m >= 0 else 0 for m in match_left]
        dist.append(-2)
        queue = [idx for idx in range(size) if match_left[idx] < 0]
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
        # one depth-first augmenting search per free left, on an explicit
        # stack: path[j] is a left and pos[j] the position after the head
        # it is trying, so heads are tried in order as in a recursion
        for root in range(size):
            if match_left[root] >= 0:
                continue
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


class KernelCall(NamedTuple):
    """One ``hopcroft_karp`` call: its arguments by name, defaults filled
    in and ``match_right`` as the kernel left it; ``match_right`` as it was
    on entry; and the kernel's result."""

    args: dict
    start: list[int]
    result: list[int]

    @property
    def scanned(self) -> Sequence[int]:
        """The lefts the cold start scanned, ascending."""
        scan = self.args["scan"]
        return range(len(self.args["adj"])) if scan is None else scan


def spy_kernel(monkeypatch, module, **forced) -> list[KernelCall]:
    """Every call that ``module`` makes to ``unigraph.hopcroft_karp`` from
    now on, recorded as it returns; ``forced`` replaces named arguments of
    each call before the kernel runs."""
    calls: list[KernelCall] = []
    kernel = module.hopcroft_karp
    signature = inspect.signature(kernel)

    def spied(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        bound.arguments.update(forced)
        start = list(bound.arguments["match_right"])
        result = kernel(*bound.args, **bound.kwargs)
        calls.append(KernelCall(dict(bound.arguments), start, result))
        return result
    monkeypatch.setattr(module, "hopcroft_karp", spied)
    return calls


def halving_schedule(depth: int) -> list[int]:
    """The depths the bounds' linking runs, shallowest first: ``depth``
    halved, rounding up, down to 1."""
    depths = [depth]
    while depths[-1] > 1:
        depths.append((depths[-1] + 1) // 2)
    return depths[::-1]


def spy_bounds_linkings(monkeypatch) -> list[list]:
    """Every layered graph that ``checker.dim_bounds`` builds from now on,
    as a ``[depth, linking]`` pair in build order.  The linking stays None
    until ``max_linking`` runs on that graph, and for a build past the
    vertex cap; a second linking of one graph fails the spy."""
    import swcactus.checker as checker_mod

    built: list[list] = []
    build, link = checker_mod.build_mdg, checker_mod.max_linking

    def spied_build(structure, depth):
        built.append([depth, None])
        return build(structure, depth)

    def spied_link(mdg):
        assert built[-1] == [mdg.depth, None], "linked twice or not built"
        built[-1][1] = link(mdg)
        return built[-1][1]
    monkeypatch.setattr(checker_mod, "build_mdg", spied_build)
    monkeypatch.setattr(checker_mod, "max_linking", spied_link)
    return built
