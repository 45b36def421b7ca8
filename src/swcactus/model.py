"""Structured models of switched linear systems.

A system is stored purely as zero/nonzero patterns: one pattern pair
``(A_i, B_i)`` per operating mode (subsystem).  A pattern is stored once, as
the ascending row indices of each of its columns, and a document is parsed
straight into that layout; the set of ``(row, col)`` positions is derived
from it only when read.  Realizations assign concrete scalars, drawn from a
large prime field or from the reals, to the nonzero positions so that
generic rank properties can be probed numerically.  The draws come from
the standard library's ``random.Random``: the generic dimensions depend on
the pattern alone, so any fixed seeded stream serves, and this one needs no
numpy.  A realization is stored in the patterns' own column layout, each
column its ``(row, value)`` pairs, so the rank probe reads it as drawn; the
keyed map ``Realization.values`` is derived from it only when read.

Indices are 0-based internally and 1-based in every serialized document and
error message.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Any, Iterable

DEFAULT_PRIME = (1 << 32) - 5  # the largest prime below 2**32
# Realization values must stay exact; primes this large force Python-int
# arithmetic downstream (int64 products would overflow).
_MIN_PRIME_EXCLUSIVE = 1 << 31
# The supported prime range, as documented for ``--prime``: it lies inside the
# 64-bit range on which ``is_prime`` is exact, so every accepted prime is
# proven prime.
_MAX_PRIME_EXCLUSIVE = 1 << 63

_UINT64_MASK = (1 << 64) - 1

# Every pattern column gets its own row bucket and tuple at parse time, so a
# short document with a huge ``n`` or ``B`` column count would allocate
# without bound.  A document whose column count, n + m_i summed over the
# subsystems, exceeds this cap is rejected before a column past it is laid
# out, and so is a :class:`StructuredMatrix` built with more columns.
# The largest structures tested hold about 18,000 (n = 3000, 6 modes).
COLUMN_SLOT_CAP = 1_000_000

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ModelError(ValueError):
    """A malformed system document or invalid model argument."""


def as_indices(values: Iterable, what: str = "indices") -> tuple[int, ...]:
    """``values`` as ``int``s, each read with ``operator.index``, so that an
    ``int`` or a numpy integer passes and a float, a numeric string or a
    ``bool`` raises :class:`ModelError` naming ``what``: ``int()`` would
    read ``True`` as 1 and 1.7 as 1."""
    values = tuple(values)
    try:
        if bool not in set(map(type, values)):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    one = len(values) == 1
    raise ModelError(f"{what} must be {'an integer' if one else 'integers'}, "
                     f"got {values[0] if one else values!r}")


@lru_cache(maxsize=64)
def is_prime(value: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for 64-bit integers.

    Cached: every trial of a rank probe re-validates the same prime.
    """
    n = int(value)
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, init=False)
class StructuredMatrix:
    """A zero/nonzero pattern with explicit dimensions.

    Only the positions of the structurally nonzero entries are stored; the
    entries themselves are free parameters.  ``columns``, the one stored
    form, holds the ascending row indices of every column's nonzeros: the
    column layout that the union graph, the layered graph, the rank probe
    and every :class:`Realization` share.  ``StructuredMatrix(rows, cols,
    nonzeros)`` takes any iterable of ``(row, col)`` pairs of integers,
    repeats allowed, and keeps no pair; the dimensions and every index are
    read by :func:`as_indices`, so a ``bool``, a float or a string is
    refused with a :class:`ModelError`.  ``nonzeros`` is the frozenset of
    positions, derived from ``columns`` when first read.  Equality and hash
    follow the pattern.
    """

    rows: int
    cols: int
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int,
                 nonzeros: Iterable[tuple[int, int]] = frozenset()) -> None:
        rows, cols = as_indices((rows, cols), "matrix dimensions")
        if rows < 1:
            raise ModelError(f"matrix needs at least one row, got {rows}")
        if cols < 0:
            raise ModelError(f"matrix column count may not be negative, got {cols}")
        if cols > COLUMN_SLOT_CAP:
            raise ModelError(f"matrix column count {cols} is over the cap "
                             f"of {COLUMN_SLOT_CAP}")
        vars(self).update(rows=rows, cols=cols,
                          columns=_column_rows(nonzeros, rows, cols))

    @classmethod
    def _of_columns(cls, rows: int, cols: int,
                    columns: tuple[tuple[int, ...], ...]) -> StructuredMatrix:
        """A matrix on ``columns`` that the parser has already checked."""
        matrix = object.__new__(cls)
        vars(matrix).update(rows=rows, cols=cols, columns=columns)
        return matrix

    @cached_property
    def nonzeros(self) -> frozenset[tuple[int, int]]:
        """The ``(row, col)`` positions, built from ``columns`` on first read."""
        return frozenset((r, c) for c, col in enumerate(self.columns) for r in col)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))


def _column_rows(entries: Iterable, rows: int, cols: int
                 ) -> tuple[tuple[int, ...], ...]:
    """The ascending, distinct row indices of every column's entries, each
    entry read as a pair of indices by :func:`as_indices`."""
    columns: list[list[int]] = [[] for _ in range(cols)]
    for entry in entries:
        try:
            r, c = as_indices(entry)
        except (TypeError, ValueError):  # not a pair of indices
            raise ModelError(f"nonzero position must be a pair of integers, "
                             f"got {entry!r}") from None
        if not (0 <= r < rows and 0 <= c < cols):
            raise ModelError(
                f"nonzero position ({r + 1}, {c + 1}) lies outside a "
                f"{rows}x{cols} matrix"
            )
        columns[c].append(r)
    return tuple(tuple(sorted(set(col))) for col in columns)


@dataclass(frozen=True)
class SwitchedStructure:
    """Patterns of all subsystems of a switched linear system.

    Every ``A_i`` is ``n x n`` and every ``B_i`` is ``n x m_i`` where the
    input counts ``m_i`` may differ per subsystem (including zero).  A system
    whose ``B_i`` are all empty is representable; it is simply uncontrollable.
    """

    n: int
    subsystems: tuple[tuple[StructuredMatrix, StructuredMatrix], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError(f"state dimension must be positive, got {self.n}")
        subs = tuple(tuple(pair) for pair in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if not subs:
            raise ModelError("a switched system needs at least one subsystem")
        for idx, (a, b) in enumerate(subs):
            if a.rows != self.n or a.cols != self.n:
                raise ModelError(
                    f"subsystem {idx + 1}: state matrix must be {self.n}x{self.n}, "
                    f"got {a.rows}x{a.cols}"
                )
            if b.rows != self.n:
                raise ModelError(
                    f"subsystem {idx + 1}: input matrix must have {self.n} rows, "
                    f"got {b.rows}"
                )

    @property
    def subsystem_count(self) -> int:
        return len(self.subsystems)

    @property
    def input_counts(self) -> tuple[int, ...]:
        return tuple(b.cols for _, b in self.subsystems)

    @property
    def total_inputs(self) -> int:
        return sum(self.input_counts)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ModelError(message)


def _parse_positions(raw: Any, *, where: str, row_ids: tuple[int, ...], cols: int
                     ) -> tuple[tuple[int, ...], ...]:
    """The 0-based ``columns`` of one ``[[row, col], ...]`` list, in a
    matrix of ``len(row_ids) - 1`` rows; ``row_ids[r]`` is ``r - 1``.

    A list of JSON lists is read in bulk: each pair of plain ints in range
    drops ``row_ids[row]`` into its column's bucket, and the list is
    accepted when no pair was out of place and no column holds a row twice.
    Anything else is read by :func:`_read_positions`, which names the first
    offender (and accepts list and ``int`` subclasses other than ``bool``,
    with the same result).
    """
    rows = len(row_ids) - 1
    if type(raw) is list and set(map(type, raw)) <= {list}:
        # bucket 0 stays empty, so a 1-based column needs no subtraction
        buckets: list[list[int]] = [[] for _ in range(cols + 1)]
        try:
            for r, c in raw:
                if not (type(r) is int and type(c) is int
                        and 1 <= r <= rows and 1 <= c <= cols):
                    break
                buckets[c].append(row_ids[r])
            else:
                # no position pair is built: a variant that built the
                # frozenset of pairs and dropped it left the ops run after
                # the parse about 1.1x slower, with the collector off too
                columns = tuple(map(tuple, map(sorted, buckets)))
                if sum(map(len, map(set, columns))) == len(raw):
                    return columns[1:]
        except ValueError:  # an item that is not a pair
            pass
    return _column_rows(_read_positions(raw, where=where, rows=rows, cols=cols),
                        rows, cols)


def _read_positions(raw: Any, *, where: str, rows: int, cols: int
                    ) -> set[tuple[int, int]]:
    """The 0-based positions of one ``[[row, col], ...]`` list, read entry
    by entry; raises on the first offender.  It allocates nothing per
    column."""
    # messages are formatted only for the offender
    if not isinstance(raw, list):
        raise ModelError(f"{where}: expected a list of [row, col] pairs")
    seen: set[tuple[int, int]] = set()
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise ModelError(f"{where}: each nonzero must be a [row, col] pair, got {item!r}")
        r, c = item
        if (not isinstance(r, int) or not isinstance(c, int)
                or isinstance(r, bool) or isinstance(c, bool)):
            raise ModelError(f"{where}: row and column must be integers, got {item!r}")
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise ModelError(f"{where}: entry ({r}, {c}) does not fit a {rows}x{cols} matrix")
        pos = (r - 1, c - 1)
        if pos in seen:
            raise ModelError(f"{where}: duplicate nonzero entry ({r}, {c})")
        seen.add(pos)
    return seen


def system_from_dict(doc: Any) -> SwitchedStructure:
    """Build a :class:`SwitchedStructure` from a parsed JSON document.

    Each subsystem is checked in one order: its keys, ``A``, the shape of
    ``B``, the column cap, then ``B``'s positions; the first fault is
    reported.
    """
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    extra = set(doc) - {"n", "subsystems"}
    _expect(not extra, f"unknown top-level keys: {sorted(extra)}")
    _expect("n" in doc, "missing required key 'n'")
    _expect("subsystems" in doc, "missing required key 'subsystems'")
    n = doc["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
            f"'n' must be a positive integer, got {n!r}")
    raw_subs = doc["subsystems"]
    _expect(isinstance(raw_subs, list) and raw_subs,
            "'subsystems' must be a non-empty list")

    pairs = []
    slots = 0
    row_ids = None
    for idx, sub in enumerate(raw_subs, start=1):
        where = f"subsystem {idx}"
        _expect(isinstance(sub, dict), f"{where}: expected an object")
        extra = set(sub) - {"A", "B"}
        _expect(not extra, f"{where}: unknown keys {sorted(extra)}")
        _expect("A" in sub and "B" in sub, f"{where}: needs both 'A' and 'B'")

        if slots + n > COLUMN_SLOT_CAP:
            # the cap check below fails whatever B holds: A is read only for
            # a fault to name first, and its columns are never laid out
            _read_positions(sub["A"], where=f"{where}, matrix A", rows=n, cols=n)
        else:
            if row_ids is None:
                # The columns are the structure's only store, built here and
                # not on first use: built lazily, long-lived tuples land
                # among one op's transient objects, and the layered-graph
                # linkings run after them were measured about 20% slower.
                # Every column holds the same int object for a row, so a
                # nonzero costs one tuple slot, and the ops that read the
                # columns run faster.
                row_ids = tuple(range(-1, n))
            a_columns = _parse_positions(sub["A"], where=f"{where}, matrix A",
                                         row_ids=row_ids, cols=n)
        b_raw = sub["B"]
        _expect(isinstance(b_raw, dict), f"{where}: 'B' must be an object with 'cols' and 'nonzeros'")
        extra = set(b_raw) - {"cols", "nonzeros"}
        _expect(not extra, f"{where}, matrix B: unknown keys {sorted(extra)}")
        _expect("cols" in b_raw and "nonzeros" in b_raw,
                f"{where}: 'B' needs both 'cols' and 'nonzeros'")
        m = b_raw["cols"]
        _expect(isinstance(m, int) and not isinstance(m, bool) and m >= 0,
                f"{where}: B column count must be a non-negative integer, got {m!r}")
        slots += n + m
        _expect(slots <= COLUMN_SLOT_CAP,
                f"{where}: {slots} pattern columns so far (n plus the B column "
                f"count, summed over subsystems), over the cap of {COLUMN_SLOT_CAP}")
        b_columns = _parse_positions(b_raw["nonzeros"], where=f"{where}, matrix B",
                                     row_ids=row_ids, cols=m)

        pairs.append((StructuredMatrix._of_columns(n, n, a_columns),
                      StructuredMatrix._of_columns(n, m, b_columns)))
    return SwitchedStructure(n=n, subsystems=tuple(pairs))


def parse_system(text: str | bytes) -> SwitchedStructure:
    """Parse a JSON system document.

    The schema is ``{"n": int, "subsystems": [{"A": [[r, c], ...],
    "B": {"cols": int, "nonzeros": [[r, c], ...]}}, ...]}`` with 1-based
    positions.  Raises :class:`ModelError` with the offending position on any
    schema violation or JSON decoding failure (including deep nesting).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"input is not valid JSON: {exc}") from exc
    return system_from_dict(doc)


def _positions(matrix: StructuredMatrix) -> list[list[int]]:
    """The 1-based ``[row, col]`` pairs of a matrix, row-major."""
    return sorted([r + 1, c + 1] for c, col in enumerate(matrix.columns) for r in col)


def system_to_dict(structure: SwitchedStructure) -> dict:
    subs = []
    for a, b in structure.subsystems:
        subs.append({
            "A": _positions(a),
            "B": {"cols": b.cols, "nonzeros": _positions(b)},
        })
    return {"n": structure.n, "subsystems": subs}


def serialize_system(structure: SwitchedStructure) -> str:
    """Serialize to canonical JSON; ``parse_system`` round-trips exactly."""
    return json.dumps(system_to_dict(structure), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True, eq=True)
class Realization:
    """Concrete values for every structural nonzero of one system.

    Each value is an integer in ``[1, prime - 1]`` for the finite-field
    kind, a nonzero float in ``[-1, 1]`` for the real kind.  ``columns[i]``
    is ``(A_i columns, B_i columns)``, and each column is a tuple of
    ``(row, value)`` pairs, rows ascending, exactly as
    ``StructuredMatrix.columns`` lists the rows.  Equality compares
    ``columns``.

    ``values`` is derived: it maps ``(subsystem, "A"|"B", row, col)`` to the
    value, in draw order, and is built on first read.  ``structure`` is the
    one :func:`sample_realization` drew it for, if any; it takes no part in
    equality.
    """

    kind: str
    prime: int | None
    seed: int
    columns: tuple[tuple[tuple[tuple[tuple[int, Any], ...], ...], ...], ...]
    structure: SwitchedStructure | None = field(default=None, compare=False, repr=False)

    @cached_property
    def values(self) -> dict[tuple[int, str, int, int], Any]:
        return {(idx, tag, r, c): v
                for idx, pair in enumerate(self.columns)
                for tag, cols in zip("AB", pair)
                for c, col in enumerate(cols)
                for r, v in col}


def check_realization(structure: SwitchedStructure, realization: Realization) -> None:
    """Raise :class:`ModelError` unless ``realization`` has ``structure``'s
    subsystem count and, per matrix, its column count and column rows; one
    drawn for ``structure`` itself passes at once."""
    if realization.structure is structure:
        return
    drawn = realization.columns
    if len(drawn) != structure.subsystem_count:
        raise ModelError(f"realization has {len(drawn)} subsystems, the "
                         f"structure {structure.subsystem_count}")
    for i, (pair, mats) in enumerate(zip(drawn, structure.subsystems)):
        for tag, cols, mat in zip("AB", pair, mats):
            if (list(map(len, cols)) != list(map(len, mat.columns))
                    or list(map(operator.itemgetter(0), chain.from_iterable(cols)))
                    != list(chain.from_iterable(mat.columns))):
                raise ModelError(f"realization columns of {tag}_{i + 1} are not "
                                 f"the structure's")


def realized_dense(structure: SwitchedStructure, realization: Realization,
                   subsystem: int, which: str) -> list[list[Any]]:
    """Materialize one realized matrix as nested lists (zeros filled in)."""
    t = 0 if which == "A" else 1
    zero = 0 if realization.kind == "finite" else 0.0
    out = [[zero] * structure.subsystems[subsystem][t].cols for _ in range(structure.n)]
    for c, col in enumerate(realization.columns[subsystem][t]):
        for r, v in col:
            out[r][c] = v
    return out


def realization_to_dict(realization: Realization) -> dict:
    entries = [
        {
            "subsystem": key[0] + 1,
            "matrix": key[1],
            "row": key[2] + 1,
            "col": key[3] + 1,
            "value": value,
        }
        for key, value in sorted(realization.values.items())
    ]
    return {
        "field": realization.kind,
        "prime": realization.prime,
        "seed": realization.seed,
        "values": entries,
    }


def sample_realization(structure: SwitchedStructure, *, field_kind: str = "finite",
                       seed: int = 0, prime: int = DEFAULT_PRIME) -> Realization:
    """Draw one realization, deterministically from ``seed``.

    Values come from the standard library's ``random.Random`` seeded with
    ``seed`` modulo 2**64.  Finite-field values are uniform on
    ``[1, prime - 1]``; zero is excluded so that the realized pattern matches
    the structural pattern exactly.  Real values are uniform on ``[-1, 1]``
    with zero rejected.  Positions are visited matrix by matrix, column by
    column, rows ascending (``StructuredMatrix.columns``), and stored in that
    layout, so equal seeds give identical realizations.  ``seed`` and
    ``prime`` are read by :func:`as_indices`.
    """
    if field_kind not in ("finite", "real"):
        raise ModelError(f"unknown field kind {field_kind!r}; expected 'finite' or 'real'")
    p: int | None = None
    if field_kind == "finite":
        (p,) = as_indices((prime,), "prime")
        if p <= _MIN_PRIME_EXCLUSIVE:
            raise ModelError(f"prime must exceed 2**31 for reliable generic ranks, got {p}")
        if p >= _MAX_PRIME_EXCLUSIVE:
            raise ModelError(f"prime must be below 2**63, the supported range, got {p}")
        if not is_prime(p):
            raise ModelError(f"{p} is not prime")
        # the draws below are rng.randrange(1, p) inlined: the same
        # getrandbits(k) calls with the same rejection, so the same values
        width = p - 1
        k = width.bit_length()
    seed = as_indices((seed,), "seed")[0] & _UINT64_MASK
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    columns = []
    for pair in structure.subsystems:
        blocks = []
        for mat in pair:
            cols = []
            for rows in mat.columns:
                col = []
                for r in rows:
                    if field_kind == "finite":
                        x = getrandbits(k)
                        while x >= width:
                            x = getrandbits(k)
                        col.append((r, 1 + x))
                    else:
                        x = rng.uniform(-1.0, 1.0)
                        while x == 0.0:
                            x = rng.uniform(-1.0, 1.0)
                        col.append((r, x))
                cols.append(tuple(col))
            blocks.append(tuple(cols))
        columns.append(tuple(blocks))
    return Realization(kind=field_kind, prime=p, seed=seed, columns=tuple(columns),
                       structure=structure)
