"""Numeric rank probes for switched structures.

Generic ranks are sampled by realizing every structural nonzero with a random
scalar and doing exact linear algebra over a large prime field.  A random
realization achieves the generic rank except on a vanishing variety.  With
values uniform on ``[1, p - 1]``, a trial undershoots with probability at
most ``d / (p - 1)`` (Schwartz-Zippel), ``d <= c * (L + 1) <= n**2`` the
degree of a nonzero minor of the stack at depth L; at the default ``2**32 -
5`` that is below 1.2e-6 at n = 70 and 2.1e-3 at n = 3000.  A ``dim`` equal
to the ceiling c below is exact; one below c is wrong only if every trial
undershot, at most ``(d / (p - 1))**trials``; ``layers_used`` rests on one
trial.

The finite-field path uses Python integers, which hold any prime.  Only the
real-field paths import numpy, when they run, so checking a structure never
loads it.  The elimination in ``ColumnReducer`` packs a whole column into
one integer, a fixed-width slot per row, so one pivot step is one
big-integer multiply-add (Kronecker substitution).  Rows take slots from
the top down, in the order the columns first reach them.  A column is
reduced at its nonzero slots only, lowest first, on a shrinking tail, and
stops at its first free slot with a nonzero residue.  Slots are reduced mod
p lazily, as in delayed reduction (Dumas, Giorgi and Pernet, ACM TOMS
2008): a stored column is only folded, every slot at once, back below a
fixed bound (slot-wise folding, Hasenplaugh, Gaubatz and Gopal, ARITH
2007), and a slot is taken mod p only where its residue is read.  The
``ColumnReducer`` docstring proves each of these steps.  The Krylov loop of
``reachable_space_dim`` applies the ``A_i`` only to the columns the
previous round added, as sparse products on ``(row, value)`` pairs that go
to the reducer without a dense detour.

The loop also stops once the rank reaches a ceiling that no realization can
exceed: c = min(|R|, nu), with ``R`` the reachable states of the union graph
and nu the term rank of ``[B_1 .. B_N, A_1[:, R] .. A_N[:, R]]``
(``unigraph.term_rank_ceiling``).  Proof:
  1. the reachable space V lies in span(e_R), and V = sum im B_i + sum A_i V;
  2. a column ``j`` in ``R`` of any ``A_i`` has nonzeros only in ``R``, so V
     lies in the column space of that stack;
  3. a rank is at most the term rank, over any field, so dim V <= nu.
Once the rank reaches c every further column is dependent, so stopping there
returns the same dimension; the round that reached c absorbed a column, so
``layers_used`` counts it either way.  The proof holds for every realization,
so no trial exceeds c either: ``controllable_dim`` stops its trials at the
first one that reaches c, since later trials could not raise the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .model import (
    DEFAULT_PRIME,
    ModelError,
    Realization,
    SwitchedStructure,
    as_indices,
    check_realization,
    is_prime,
    realized_dense,
    sample_realization,
)
from .unigraph import UnionGraph, term_rank_ceiling, union_graph_of

_REAL_RANK_REL_TOL = 1e-9


@lru_cache(maxsize=32)
def _slot_layout(n: int, prime: int) -> tuple[int, int, int, int, int, int, int]:
    """``(w, mask, c, radix, folds, lo, hi)`` of ``ColumnReducer(n, prime)``:
    the slot width and one slot's bits; the fold shift and ``2**c mod p``;
    the number of folds an absorbed column takes; and the masks of the low
    ``c`` and the high ``w - c`` bits of every slot.  ``c`` is ``b =
    bitlen(p)`` when ``2**b mod p < 2**(b//2)``, as for a prime just below a
    power of two, else ``b + b//2``."""
    b = prime.bit_length()
    c = b if (1 << b) % prime < 1 << (b // 2) else b + b // 2
    w = b + c + n.bit_length() + 3
    radix = (1 << c) % prime
    top = 1 << (c + 1)
    x = prime - 1 + n * (prime - 1) * (top - 1)  # the largest candidate slot
    folds = 0
    while x >= top:
        x = (x >> c) * radix + (1 << c) - 1
        folds += 1
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)  # bit 0 of every slot
    return (w, (1 << w) - 1, c, radix, folds,
            ones * ((1 << c) - 1), ones * ((1 << (w - c)) - 1))


class ColumnReducer:
    """Incremental column-echelon basis over GF(p), on packed integers.

    ``add`` reduces a column against the basis and absorbs it when it is
    independent.  A column is either a dense sequence of ``n`` entries or a
    dict from row (in ``range(n)``) to entry that may leave out zero rows;
    entries are any integers, taken mod p.  It is packed into one Python
    int with a fixed-width slot per row (slot ``s`` in bits ``s*w`` to
    ``(s+1)*w - 1``), so eliminating one pivot is a single big-integer
    multiply-add rather than ``n`` scalar steps.  Every term is
    non-negative, so no borrow crosses a slot.  ``n >= 0`` and any prime
    serve, each read by :func:`model.as_indices`.

    Slot order.  A row has no slot until a column first has an entry
    nonzero mod p in it; it then takes the highest free slot, so the
    slotted rows fill slots ``n-1, n-2, ...`` in the order they were
    reached.  Elimination runs in slot order, which is one order of the
    rows; whether a column is independent depends only on the span, so
    ``add`` answers as an elimination in any other order would.
    Invariant: a basis column with pivot slot ``q`` is zero mod p in every
    slot below ``q``.  It is stored from slot ``q`` up, so its slot 0 is
    the pivot, beside ``ninv = -1/pivot mod p``, in ``_pivots[q]``.  A row
    slotted later sits below every slot taken before it, and every stored
    column is zero in that row, since no column had reached it: the
    invariant holds there too.  So a candidate that reaches a new row has
    its lowest nonzero slot at the last row it slotted, where no pivot
    lies, and it is absorbed with no pivot step.

    Reduction.  The candidate is reduced on a shrinking tail: the settled
    slots below the current one are shifted out, so the multiply-add by the
    factor ``(slot 0 mod p) * ninv mod p`` covers slots ``q..n-1`` only.
    No pivot touches a slot below its own, so a slot is final once the
    reduction passes it.  The reduction jumps to the lowest nonzero slot
    left: a zero slot has residue zero, which at a pivot would give a zero
    factor and at a free slot is no pivot, so skipping it changes nothing.
    A nonzero slot with residue zero is shifted out as well.  The first
    free slot with a nonzero residue is the candidate's pivot, and the
    reduction stops there: the column is zero mod p below that slot, as the
    invariant asks, and need not be reduced at the pivots above it.

    Layout.  Stored slots are folded, not normalized: with ``b =
    bitlen(p)``, a fold maps every slot ``x`` to ``(x >> c) * r + (x mod
    2**c)`` with ``r = 2**c mod p``, which is congruent to ``x`` mod p.
    ``c = b`` when ``r = 2**b mod p < 2**(b//2)``, else ``c = b + b//2``;
    either way ``r < 2**(c - b//2)``, since ``r < p < 2**b`` in the second
    case.  With ``w = b + c + bitlen(n) + 3``:
      1. A candidate slot starts below p and takes at most one product per
         pivot below it, at most ``n`` of them, each a factor below p times
         a stored slot below ``2**(c+1)``.  So it stays below ``p * (1 + n
         * 2**(c+1)) < 2**(b + c + 1 + bitlen(n)) = 2**(w - 2)``.
      2. A fold of a slot below ``2**w`` stays below ``2**(w - c) * r +
         2**c < 2**(w - b//2) + 2**c <= 2**w``, since ``b//2 >= 1`` and
         ``c < w - 1``: it carries into no other slot, so two masks fold
         every slot at once.
      3. A fold maps ``x >= 2**(c+1)`` to at most ``(x >> c) * r + 2**c - 1
         < x``, since ``x >= (x >> c) * 2**c``, ``x >> c >= 2`` and ``r <=
         2**(c-1)``; and it maps ``x < 2**(c+1)`` to below ``r + 2**c <
         2**(c+1)``.  So a fixed number of folds, counted per ``(n, p)``
         from the bound of item 1 by ``_slot_layout``, brings every slot of
         an absorbed column below ``2**(c+1)``, as item 1 assumes.  The
         default prime, ``2**32 - 5``, has ``c = b`` and ``r = 5`` and
         needs 2.  A column absorbed with no pivot step has every slot
         below p already, and is stored unfolded.
    """

    def __init__(self, n: int, prime: int) -> None:
        (n,) = as_indices((n,), "n")
        (prime,) = as_indices((prime,), "prime")
        if n < 0:
            raise ModelError(f"n must be non-negative, got {n}")
        if not is_prime(prime):
            raise ModelError(f"prime must be a prime, got {prime}")
        self.n = n
        self.prime = prime
        self._layout = _slot_layout(n, prime)
        self._rank = 0
        # the slot of every row, -1 until a column reaches it, and the
        # highest free slot
        self._slot_of = [-1] * n
        self._top = n - 1
        # per slot: None, or the pivot's (packed column from its slot up,
        # -1/pivot mod p)
        self._pivots: list[tuple[int, int] | None] = [None] * n

    @property
    def rank(self) -> int:
        return self._rank

    def add(self, column: Sequence[int] | dict[int, int]) -> bool:
        p = self.prime
        w, mask = self._layout[:2]
        if isinstance(column, dict):
            if column and ((row := min(column)) < 0 or (row := max(column)) >= self.n):
                raise ModelError(f"column row {row} is outside range({self.n})")
            entries = column.items()
        elif len(column) != self.n:
            raise ModelError(f"column length {len(column)} does not match n={self.n}")
        else:
            entries = enumerate(column)
        slot_of, top = self._slot_of, self._top
        acc = 0
        for row, value in entries:
            if value and (value := int(value) % p):
                s = slot_of[row]
                if s < 0:
                    s = slot_of[row] = top
                    top -= 1
                acc |= value << s * w
        self._top = top
        pivots = self._pivots
        pos = 0  # slot 0 of acc is slot pos; the slots below pos are settled
        reduced = False
        while acc:
            x = acc & mask
            if not x:  # jump to the lowest nonzero slot
                skip = ((acc & -acc).bit_length() - 1) // w
                acc >>= skip * w
                pos += skip
                x = acc & mask
            residue = x % p
            if residue:
                pivot = pivots[pos]
                if pivot is None:
                    self._absorb(acc, pos, residue, reduced)
                    return True
                stored, ninv = pivot
                acc += residue * ninv % p * stored
                reduced = True
            acc >>= w
            pos += 1
        return False

    def _absorb(self, tail: int, slot: int, residue: int, reduced: bool) -> None:
        """Store the ``tail`` of a column, whose slot 0 is ``slot`` with the
        nonzero ``residue``; fold it when a pivot step ``reduced`` it, since
        otherwise every slot is still below p."""
        p = self.prime
        if reduced:
            c, radix, folds, lo, hi = self._layout[2:]
            for _ in range(folds):
                tail = (tail >> c & hi) * radix + (tail & lo)
        self._pivots[slot] = (tail, p - pow(residue, -1, p))
        self._rank += 1


def rank_ff(columns: Iterable[Sequence[int]], n: int, prime: int = DEFAULT_PRIME) -> int:
    reducer = ColumnReducer(n, prime)
    for col in columns:
        reducer.add(col)
    return reducer.rank


def _product(a_cols: Sequence[Sequence[tuple[int, int]]], column: dict[int, int],
             prime: int) -> dict[int, int]:
    """``A @ column`` mod p, for ``A`` given by its columns of ``(row,
    value)`` pairs and ``column`` as a dict from row to value: a dict of the
    rows that are nonzero mod p, in the order the product first reaches
    them."""
    out: dict[int, int] = {}
    for j, x in column.items():
        for r, v in a_cols[j]:
            if r in out:
                out[r] += v * x
            else:
                out[r] = v * x
    return {r: y for r, v in out.items() if (y := v % prime)}


def _input_columns(realization: Realization) -> list[dict[int, int]]:
    """Every ``B_i`` column in mode order, as a dict from row to value."""
    return [dict(entries) for _, b_cols in realization.columns for entries in b_cols]


def reachable_space_dim(structure: SwitchedStructure, realization: Realization,
                        ceiling: int | None = None) -> tuple[int, int]:
    """Dimension of the smallest A-invariant space containing all B columns.

    Returns ``(dim, layers_used)`` where ``layers_used`` is the first depth at
    which adding another round of products stops growing the span.  For this
    realization, ``dim`` is the rank of the full controllability stack.

    Over GF(p) the loop stops as soon as the rank reaches ``ceiling`` (``n``
    when None), also in the middle of a round.  Pass a ceiling that no
    realization can exceed, such as ``unigraph.term_rank_ceiling``: every
    later column would then be dependent, so the result is the same as
    without it; it is read by :func:`model.as_indices`.  A real
    realization ignores ``ceiling``.  A realization of another pattern
    raises :class:`ModelError` (:func:`model.check_realization`).
    """
    check_realization(structure, realization)
    if realization.kind == "real":
        return _reachable_space_dim_real(structure, realization)
    n, p = structure.n, realization.prime
    assert p is not None
    top = n if ceiling is None else as_indices((ceiling,), "ceiling")[0]
    a_sparse = [a_cols for a_cols, _ in realization.columns]
    reducer = ColumnReducer(n, p)
    # S_{k+1} = S_k + sum_i A_i S_k, and A_i S_{k-1} already lies in S_k, so
    # round k + 1 needs the products of the columns round k absorbed only.
    # ``absorbed`` holds (round, column) in the order they were absorbed, so
    # reading it front to back visits the rounds in turn.
    absorbed: list[tuple[int, dict[int, int]]] = []
    for col in _input_columns(realization):
        if reducer.add(col):
            if reducer.rank == top:
                return top, 0
            absorbed.append((0, col))
    layers = 0
    for layer, col in absorbed:  # grows while it is read
        for entries in a_sparse:
            prod = _product(entries, col, p)
            if reducer.add(prod):
                layers = layer + 1
                if reducer.rank == top:
                    return top, layers
                absorbed.append((layers, prod))
    return reducer.rank, layers


def _reachable_space_dim_real(structure: SwitchedStructure,
                              realization: Realization) -> tuple[int, int]:
    """``reachable_space_dim`` over the reals, for demonstration.

    Keeps an orthonormal basis of the span reached so far and grows it by
    every mode's products of that basis, round by round, until a round adds
    no rank, so a round multiplies at most ``n`` columns per mode.  It
    takes no ceiling: its rank is a numerical rank under a tolerance, not
    an exact one, so the ceiling's proof does not cover it.
    """
    import numpy as np

    n = structure.n
    a_mats = [np.array(realized_dense(structure, realization, i, "A"), dtype=float)
              for i in range(structure.subsystem_count)]
    b_cols = [np.array(realized_dense(structure, realization, i, "B"), dtype=float)
              for i in range(structure.subsystem_count)]
    basis = _real_basis(np.hstack([b for b in b_cols if b.size] or [np.zeros((n, 0))]))
    layers = 0
    while basis.shape[1] < n:
        grown = _real_basis(np.hstack([basis] + [a @ basis for a in a_mats]))
        if grown.shape[1] == basis.shape[1]:
            break
        basis = grown
        layers += 1
    return basis.shape[1], layers


def _real_basis(mat):
    """Orthonormal basis of the column span of a float matrix: its left
    singular vectors whose singular values pass the numerical-rank
    tolerance, relative to the largest column norm."""
    import numpy as np

    if mat.shape[1] == 0:
        return mat
    top = np.linalg.norm(mat, axis=0).max()
    u, sv, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, sv > _REAL_RANK_REL_TOL * top]


@dataclass(frozen=True)
class ControllabilityProbe:
    """Outcome of repeated randomized rank trials.

    ``dim`` is the best (largest) reachable-space dimension seen; undershoot
    is possible only on a vanishing-variety draw, so the maximum over trials
    is the right aggregate.  ``layers_used`` comes from the first trial that
    attained ``dim``.  ``trial_dims`` and ``trial_layers`` hold only the
    trials that ran, and ``trials`` counts them: every dim but the last is
    below the term-rank ceiling.
    """

    dim: int
    layers_used: int
    trial_dims: tuple[int, ...]
    trial_layers: tuple[int, ...]
    seed: int
    prime: int

    @property
    def trials(self) -> int:
        return len(self.trial_dims)


def controllable_dim(structure: SwitchedStructure, *, seed: int = 0,
                     trials: int = 3, prime: int = DEFAULT_PRIME,
                     graph: UnionGraph | None = None) -> ControllabilityProbe:
    """Probe the generic controllable-subspace dimension.

    Runs at most ``trials`` independent realizations seeded ``seed, seed+1,
    ...`` and keeps the maximum dimension.  A result of ``n`` certifies
    structural controllability up to the (astronomically small) chance that
    every trial landed on the degenerate variety.  Every trial stops at the
    term-rank ceiling of ``graph``, the structure's union graph, built here
    when not given (:func:`unigraph.union_graph_of`), and the trials stop as
    :func:`probe_trials` says.  Each realization is drawn only when its
    trial runs.  ``seed`` and ``trials`` are read by
    :func:`model.as_indices`.
    """
    seed, trials = as_indices((seed, trials), "seed and trials")
    if trials < 1:
        raise ModelError(f"need at least one trial, got {trials}")
    g = union_graph_of(structure, graph)
    dims, layer_counts = probe_trials(
        structure, trial_realizations(structure, seed, trials, prime),
        term_rank_ceiling(g))
    best = max(dims)
    first = dims.index(best)
    return ControllabilityProbe(
        dim=best,
        layers_used=layer_counts[first],
        trial_dims=tuple(dims),
        trial_layers=tuple(layer_counts),
        seed=seed,
        prime=prime,
    )


def trial_realizations(structure: SwitchedStructure, seed: int, trials: int,
                       prime: int) -> Iterator[Realization]:
    """The probe's finite-field realizations, seeded ``seed .. seed +
    trials - 1``, each drawn when it is read."""
    for t in range(trials):
        yield sample_realization(structure, field_kind="finite",
                                 seed=seed + t, prime=prime)


def probe_trials(structure: SwitchedStructure,
                 realizations: Iterable[Realization],
                 ceiling: int) -> tuple[list[int], list[int]]:
    """``reachable_space_dim`` of each realization in turn, stopped at
    ``ceiling``, as its dims and its ``layers_used``.

    The first trial that reaches the ceiling is the last: no realization
    exceeds it, so later trials could not raise the maximum.  A trial that
    undershoots is followed by the next.
    """
    dims: list[int] = []
    layer_counts: list[int] = []
    for realization in realizations:
        dim, layers = reachable_space_dim(structure, realization, ceiling)
        dims.append(dim)
        layer_counts.append(layers)
        if dim == ceiling:
            break
    return dims, layer_counts


def averaged_pair_rank(structure: SwitchedStructure, realization: Realization,
                       weights: Sequence) -> int:
    """Rank of the single pair obtained by mixing all modes with weights.

    The state matrix is the weighted sum of the realized ``A_i``; input
    column ``k`` is the weighted sum of column ``k`` of every ``B_i`` that
    has one.  Structures can be controllable under switching while every
    such mixed pair is rank deficient, and this function measures exactly
    that deficit.  One assembly serves both fields: column ``k`` of
    ``[A | B]`` mixes column ``k`` of every ``A_i``, column ``n + k`` column
    ``k`` of every ``B_i``, read from ``realization.columns``.  The stack
    then takes ``rank_ff`` over GF(p), or a numerical rank over the reals.
    A realization of another pattern raises :class:`ModelError`.
    """
    check_realization(structure, realization)
    if len(weights) != structure.subsystem_count:
        raise ModelError(
            f"need {structure.subsystem_count} weights, got {len(weights)}")
    n, p = structure.n, realization.prime
    finite = realization.kind == "finite"
    w = as_indices(weights, "weights") if finite else [float(x) for x in weights]
    cols = [[0] * n for _ in range(n + max(structure.input_counts))]
    for wi, (a_cols, b_cols) in zip(w, realization.columns):
        for col, entries in zip(cols, a_cols + b_cols):
            for r, v in entries:
                col[r] += wi * v
    if finite:
        return rank_ff(cols, n, p)
    import numpy as np

    return _real_basis(np.array(cols, dtype=float).T).shape[1]
