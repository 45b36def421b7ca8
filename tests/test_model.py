import gc
import json
import random
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcactus import (
    DEFAULT_PRIME,
    ModelError,
    StructuredMatrix,
    SwitchedStructure,
    parse_system,
    sample_realization,
    serialize_system,
    system_from_dict,
    system_to_dict,
)
import helpers
import swcactus.model as model_mod
from swcactus.model import is_prime, realization_to_dict, realized_dense


def test_structured_matrix_bounds():
    m = StructuredMatrix(2, 3, frozenset({(0, 0), (1, 2)}))
    assert m.nnz == 2
    with pytest.raises(ModelError):
        StructuredMatrix(2, 2, frozenset({(2, 0)}))
    with pytest.raises(ModelError):
        StructuredMatrix(2, 2, frozenset({(0, -1)}))
    with pytest.raises(ModelError):
        StructuredMatrix(0, 2)


def test_structured_matrix_entries_are_plain_int_pairs():
    kept = frozenset({(0, 0), (1, 2)})
    assert StructuredMatrix(2, 3, kept).nonzeros == kept
    inputs = ([(0, 0), [1, 2], (1, 2)],
              frozenset({(np.int64(0), np.int64(0)), (np.int32(1), 2)}),
              [(np.int64(0), 0), (np.uint8(1), 2)])
    for entries in inputs:
        m = StructuredMatrix(2, 3, entries)
        assert type(m.nonzeros) is frozenset and m.nonzeros == kept
        assert all(type(r) is int and type(c) is int for r, c in m.nonzeros)
        assert m.columns == ((0,), (), (1,))
    m = StructuredMatrix(np.int64(2), np.uint16(3), kept)
    assert type(m.rows) is int and type(m.cols) is int and m.nonzeros == kept
    message = "nonzero position (3, 1) lies outside a 2x2 matrix"
    for entries in (frozenset({(2, 0)}), [(2, 0)], [[2, 0]],
                    frozenset({(np.int64(2), np.int64(0))})):
        with pytest.raises(ModelError, match=re.escape(message)):
            StructuredMatrix(2, 2, entries)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=5),
       st.data())
def test_columns_group_sorted_nonzeros(rows, cols, data):
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, max(cols - 1, 0)))
    nonzeros = data.draw(st.frozensets(cells) if cols else st.just(frozenset()))
    m = StructuredMatrix(rows, cols, nonzeros)
    assert m.columns == tuple(tuple(r for r, c in sorted(nonzeros) if c == col)
                              for col in range(cols))


@pytest.mark.parametrize("entry", [
    (1.7, 0), (0, 1.0), ("1", "1"), ("1", 0), (True, 0), (0, False),
    (np.float64(1.0), 0), (np.True_, 0), (1, 0, 0), (1,), 5])
def test_structured_matrix_refuses_entries_that_are_not_index_pairs(entry):
    # int() would have read (1.7, 0) and (True, 0) as row 1 and ("1", "1")
    # as (1, 1); the message names the entry, as the parser's does
    message = f"nonzero position must be a pair of integers, got {entry!r}"
    with pytest.raises(ModelError, match=re.escape(message)):
        StructuredMatrix(2, 2, [(0, 0), entry])


@pytest.mark.parametrize("rows, cols", [
    (2.5, 2), (2, 2.0), ("2", 2), (True, 2), (2, True), (np.float64(2), 2)])
def test_structured_matrix_refuses_dimensions_that_are_not_indices(rows, cols):
    with pytest.raises(ModelError, match="matrix dimensions must be integers"):
        StructuredMatrix(rows, cols)


def test_zero_column_matrix_allowed():
    m = StructuredMatrix(3, 0)
    assert m.nnz == 0


def test_switched_structure_shape_checks():
    a = StructuredMatrix(2, 2)
    b = StructuredMatrix(2, 1)
    s = SwitchedStructure(n=2, subsystems=((a, b),))
    assert s.subsystem_count == 1
    assert s.input_counts == (1,)
    assert s.total_inputs == 1
    with pytest.raises(ModelError):
        SwitchedStructure(n=2, subsystems=())
    with pytest.raises(ModelError):
        SwitchedStructure(n=3, subsystems=((a, b),))
    with pytest.raises(ModelError):
        SwitchedStructure(n=2, subsystems=((a, StructuredMatrix(3, 1)),))


def test_parse_example1(example1):
    assert example1.n == 3
    assert example1.subsystem_count == 2
    a1, b1 = example1.subsystems[0]
    assert a1.nonzeros == frozenset({(1, 0)})
    assert b1.nonzeros == frozenset({(0, 0)})
    a2, b2 = example1.subsystems[1]
    assert a2.nonzeros == frozenset({(2, 0)})
    assert b2.cols == 1 and b2.nnz == 0


@pytest.mark.parametrize("doc, fragment", [
    ("not json", "not valid JSON"),
    ('[]', "top level"),
    ('{"n": 2}', "subsystems"),
    ('{"subsystems": []}', "'n'"),
    ('{"n": 0, "subsystems": [{"A": [], "B": {"cols": 0, "nonzeros": []}}]}', "positive"),
    ('{"n": true, "subsystems": [{"A": [], "B": {"cols": 0, "nonzeros": []}}]}', "positive"),
    ('{"n": 2, "subsystems": []}', "non-empty"),
    ('{"n": 2, "subsystems": [{"A": []}]}', "both 'A' and 'B'"),
    ('{"n": 2, "subsystems": [{"A": [], "B": {"cols": 1, "nonzeros": []}, "C": 1}]}', "unknown keys"),
    ('{"n": 2, "extra": 1, "subsystems": [{"A": [], "B": {"cols": 0, "nonzeros": []}}]}', "unknown top-level"),
    ('{"n": 2, "subsystems": [{"A": [[3, 1]], "B": {"cols": 0, "nonzeros": []}}]}', "(3, 1)"),
    ('{"n": 2, "subsystems": [{"A": [[0, 1]], "B": {"cols": 0, "nonzeros": []}}]}', "(0, 1)"),
    ('{"n": 2, "subsystems": [{"A": [[1, 1], [1, 1]], "B": {"cols": 0, "nonzeros": []}}]}', "duplicate"),
    ('{"n": 2, "subsystems": [{"A": [[1]], "B": {"cols": 0, "nonzeros": []}}]}', "pair"),
    ('{"n": 2, "subsystems": [{"A": [[1.5, 1]], "B": {"cols": 0, "nonzeros": []}}]}', "integers"),
    ('{"n": 2, "subsystems": [{"A": [], "B": {"cols": -1, "nonzeros": []}}]}', "non-negative"),
    ('{"n": 2, "subsystems": [{"A": [], "B": {"cols": 1, "nonzeros": [[1, 2]]}}]}', "(1, 2)"),
    ('{"n": 2, "subsystems": [{"A": [], "B": [[1, 1]]}]}', "'cols'"),
])
def test_parse_rejects(doc, fragment):
    with pytest.raises(ModelError) as err:
        parse_system(doc)
    assert fragment in str(err.value)


def _outcome(doc):
    """The error message for a document, or what it parses to: the structure
    and the column layout of every matrix."""
    try:
        s = system_from_dict(doc)
    except ModelError as exc:
        return str(exc)
    return s, [m.columns for pair in s.subsystems for m in pair]


def _oracle_outcome(doc):
    with mock.patch.object(model_mod, "_parse_positions", helpers.ref_parse_columns):
        return _outcome(doc)


_JUNK = st.one_of(st.booleans(), st.floats(), st.text(max_size=2), st.none(),
                  st.lists(st.integers(-2, 6), max_size=3),
                  st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=2))


@st.composite
def valid_documents(draw):
    """A valid document, its positions in no particular order."""
    n = draw(st.integers(1, 5))
    subs = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 3))
        a = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          unique=True, max_size=8))
        b = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, m)),
                          unique=True, max_size=4)) if m else []
        subs.append({"A": [list(p) for p in a],
                     "B": {"cols": m, "nonzeros": [list(p) for p in b]}})
    return {"n": n, "subsystems": subs}


@st.composite
def mutated_documents(draw):
    """A valid document with up to four mutations of its position lists;
    some leave Python tuples, which only ``system_from_dict`` sees."""
    doc = draw(valid_documents())
    n, subs = doc["n"], doc["subsystems"]
    for _ in range(draw(st.integers(0, 4))):
        sub = draw(st.sampled_from(subs))
        holder, key = draw(st.sampled_from([(sub, "A"), (sub["B"], "nonzeros")]))
        rows, cols = n, (n if key == "A" else sub["B"]["cols"])
        raw = holder[key]
        kind = draw(st.sampled_from(["field", "shape", "range", "duplicate",
                                     "empty", "whole", "tuples"]))
        if kind == "whole":
            holder[key] = draw(st.one_of(_JUNK, st.just({"1": [1, 1]})))
            continue
        if not isinstance(raw, (list, tuple)):
            continue
        raw = list(raw)
        at = draw(st.integers(0, len(raw)))
        if kind == "empty":
            raw = []
        elif kind == "duplicate" and raw:
            item = draw(st.sampled_from(raw))
            raw.insert(at, list(item) if isinstance(item, (list, tuple)) else item)
        elif kind == "field":
            pair = [draw(st.integers(1, rows)), draw(st.integers(1, max(cols, 1)))]
            pair[draw(st.integers(0, 1))] = draw(_JUNK)
            raw.insert(at, pair)
        elif kind == "range":
            bad = st.one_of(st.integers(-3, 0), st.integers(rows + 1, rows + 3),
                            st.integers(cols + 1, cols + 3), st.just(2 ** 70),
                            st.just(-2 ** 70))
            pair = [draw(st.integers(1, rows)), draw(st.integers(1, max(cols, 1)))]
            pair[draw(st.integers(0, 1))] = draw(bad)
            raw.insert(at, pair)
        elif kind == "shape":
            raw.insert(at, draw(st.one_of(
                st.lists(st.integers(1, rows), min_size=0, max_size=1),
                st.lists(st.integers(1, rows), min_size=3, max_size=3),
                st.tuples(st.integers(1, rows), st.integers(1, max(cols, 1))),
                st.builds(lambda r, c: [[r, c]], st.integers(1, rows), st.integers(1, cols or 1)),
                st.builds(lambda r, c: [[r], c], st.integers(1, rows), st.integers(1, cols or 1)),
                _JUNK)))
        elif kind == "tuples":
            # only list items become tuples: an earlier "shape" mutation may
            # have left a bool, float or None that tuple() cannot take
            raw = (tuple(raw) if draw(st.booleans())
                   else [tuple(item) if isinstance(item, list) and draw(st.booleans())
                         else item for item in raw])
        holder[key] = raw
    return {"n": n, "subsystems": subs}


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_parse_messages_match_per_entry_reading(doc):
    # the bulk check accepts what the per-entry reading accepts, builds the
    # same structure, and otherwise raises the same message, byte for byte
    assert _outcome(doc) == _oracle_outcome(doc)
    as_json = json.loads(json.dumps(doc))
    assert _outcome(as_json) == _oracle_outcome(as_json)


@settings(max_examples=200, deadline=None)
@given(valid_documents())
def test_parsed_columns_group_the_oracle_positions(doc):
    # each matrix's columns are the per-entry reader's positions grouped by
    # column, rows ascending
    n = doc["n"]
    parsed = system_from_dict(doc)
    for sub, (a, b) in zip(doc["subsystems"], parsed.subsystems):
        m = sub["B"]["cols"]
        for raw, mat, cols in ((sub["A"], a, n), (sub["B"]["nonzeros"], b, m)):
            positions = helpers.ref_parse_positions(raw, where="", rows=n, cols=cols)
            assert mat.columns == tuple(
                tuple(sorted(r for r, c in positions if c == col)) for col in range(cols))


def test_parse_accepts_list_and_int_subclasses():
    class Row(list):
        pass

    class Index(int):
        pass

    doc = {"n": 2, "subsystems": [
        {"A": Row([Row([Index(1), 2]), [2, Index(2)]]), "B": {"cols": 0, "nonzeros": []}}]}
    assert _outcome(doc) == _oracle_outcome(doc)
    assert system_from_dict(doc).subsystems[0][0].nonzeros == frozenset({(0, 1), (1, 1)})


@pytest.mark.parametrize("n, modes", [(2, 1), (40, 3), (600, 6), (3000, 6)])
def test_parse_builds_the_oracle_objects(n, modes):
    s = helpers.wide_structure(n, n, modes)
    text = serialize_system(s)
    doc = json.loads(text)
    for sub in doc["subsystems"]:  # the reading must not lean on sorted input
        random.Random(n).shuffle(sub["A"])
    parsed, columns = _outcome(doc)
    assert (parsed, columns) == _oracle_outcome(doc)
    for pair, ref_pair in zip(parsed.subsystems, s.subsystems):
        for mat, ref in zip(pair, ref_pair):
            assert mat.nonzeros == ref.nonzeros and mat.columns == ref.columns
    assert parsed == s and serialize_system(parsed) == text


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_parse_builds_the_oracle_objects_small(seed):
    s = helpers.random_structure(np.random.default_rng(seed), max_n=6, density=0.4)
    text = serialize_system(s)
    parsed, columns = _outcome(json.loads(text))
    assert (parsed, columns) == _oracle_outcome(json.loads(text))
    assert columns == [m.columns for pair in s.subsystems for m in pair]
    assert parsed == s and serialize_system(parsed) == text


def test_parsed_structure_memory_per_nonzero():
    # a parsed structure keeps its column tuples, whose rows share one int
    # object per row index, and nothing per entry beside them: about 37
    # bytes per nonzero here; a fresh int per entry makes it about 61, and a
    # frozenset of position pairs kept beside the columns about 177
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    s = helpers.wide_structure(1, 2000, 3)
    nnz = sum(a.nnz + b.nnz for a, b in s.subsystems)
    text = serialize_system(s)
    del s
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_system(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert parsed.n == 2000
    assert held <= 48 * nnz, f"{held / nnz:.0f} bytes per nonzero"


@pytest.mark.parametrize("path", [*sorted(helpers.DATA_DIR.glob("*.json")),
                                  helpers.DATA_DIR / "probe" / "wide60.json"],
                         ids=lambda path: path.name)
def test_serialize_lists_sorted_positions(path):
    # the canonical document: every position list sorted, row-major
    text = path.read_text()
    doc = json.loads(text)
    canonical = {"n": doc["n"], "subsystems": [
        {"A": sorted(sub["A"]),
         "B": {"cols": sub["B"]["cols"], "nonzeros": sorted(sub["B"]["nonzeros"])}}
        for sub in doc["subsystems"]]}
    out = serialize_system(parse_system(text))
    assert out == json.dumps(canonical, indent=2, sort_keys=True) + "\n"
    assert serialize_system(parse_system(out)) == out


def test_equality_and_hash_follow_the_pattern():
    built = StructuredMatrix(3, 2, [(2, 1), (0, 0), (1, 1), (2, 1)])
    parsed = system_from_dict({"n": 3, "subsystems": [
        {"A": [], "B": {"cols": 2, "nonzeros": [[3, 2], [1, 1], [2, 2]]}}]}).subsystems[0][1]
    assert built == parsed and hash(built) == hash(parsed)
    assert built.columns == ((0,), (1, 2)) and built.nnz == 3
    assert built.nonzeros == frozenset({(0, 0), (1, 1), (2, 1)})
    assert built != StructuredMatrix(3, 2, [(0, 0), (1, 1)])
    assert built != StructuredMatrix(3, 3, [(2, 1), (0, 0), (1, 1)])


@pytest.mark.parametrize("n, m", [(300_000_000, 0), (1, 10 ** 12)])
def test_parse_rejects_column_slots_past_cap(n, m):
    doc = {"n": n, "subsystems": [{"A": [], "B": {"cols": m, "nonzeros": []}}]}
    with pytest.raises(ModelError, match="over the cap of 1000000"):
        system_from_dict(doc)


@pytest.mark.parametrize("n, a, b, message", [
    (2, [[1, 1], [1, 1]], {"cols": -1, "nonzeros": []},
     "subsystem 1, matrix A: duplicate nonzero entry (1, 1)"),
    (12, [[1, 1], [1, 1]], {"cols": 0, "nonzeros": []},
     "subsystem 1, matrix A: duplicate nonzero entry (1, 1)"),
    (12, [[1, 1]], [], "subsystem 1: 'B' must be an object with 'cols' and 'nonzeros'"),
    (12, [[1, 1]], {"cols": 0, "nonzeros": [[1, 1]]}, "subsystem 1: 12 pattern columns so far"),
])
def test_a_faults_come_before_b_faults_and_the_cap(monkeypatch, n, a, b, message):
    # a subsystem names A's first fault, then B's shape, then the cap, also
    # when n alone is past the cap and A's columns are not laid out
    monkeypatch.setattr(model_mod, "COLUMN_SLOT_CAP", 10)
    laid_out = []
    parse = model_mod._parse_positions
    monkeypatch.setattr(model_mod, "_parse_positions",
                        lambda raw, **kw: laid_out.append(kw["where"]) or parse(raw, **kw))
    with pytest.raises(ModelError) as err:
        system_from_dict({"n": n, "subsystems": [{"A": a, "B": b}]})
    assert str(err.value).startswith(message)
    assert laid_out == (["subsystem 1, matrix A"] if n <= 10 else [])


def test_structured_matrix_rejects_columns_past_cap(monkeypatch):
    # rejected before one list per column is allocated
    start = time.perf_counter()
    with pytest.raises(ModelError, match="column count 1000000000 is over the cap of 1000000"):
        StructuredMatrix(1, 10 ** 9)
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(model_mod, "COLUMN_SLOT_CAP", 5)
    assert StructuredMatrix(1, 5).columns == ((),) * 5
    with pytest.raises(ModelError, match="over the cap of 5"):
        StructuredMatrix(1, 6)


def test_column_slot_cap_counts_every_subsystem(monkeypatch):
    monkeypatch.setattr(model_mod, "COLUMN_SLOT_CAP", 10)
    sub = {"A": [], "B": {"cols": 2, "nonzeros": []}}
    assert system_from_dict({"n": 3, "subsystems": [sub, sub]}).total_inputs == 4
    with pytest.raises(ModelError) as err:
        system_from_dict({"n": 3, "subsystems": [sub, sub, {"A": [], "B": {"cols": 0, "nonzeros": []}}]})
    assert str(err.value).startswith("subsystem 3: 13 pattern columns so far")


def test_error_names_subsystem():
    doc = {"n": 2, "subsystems": [
        {"A": [], "B": {"cols": 0, "nonzeros": []}},
        {"A": [[9, 1]], "B": {"cols": 0, "nonzeros": []}},
    ]}
    with pytest.raises(ModelError) as err:
        system_from_dict(doc)
    assert "subsystem 2" in str(err.value)


def test_roundtrip(example1, boost, chain10):
    for s in (example1, boost, chain10):
        text = serialize_system(s)
        again = parse_system(text)
        assert again == s
        assert serialize_system(again) == text


def test_system_to_dict_sorted(chain10):
    doc = system_to_dict(chain10)
    positions = doc["subsystems"][0]["A"]
    assert positions == sorted(positions)


def test_is_prime_known_values():
    for p in (2, 3, 5, 7, 31, 2 ** 31 - 1, (1 << 61) - 1):
        assert is_prime(p)
    for c in (0, 1, 4, 9, 25, 2 ** 32 + 1, (1 << 61) + 1, 561, 41041):
        assert not is_prime(c)


def test_sample_realization_deterministic(example1):
    r1 = sample_realization(example1, seed=7)
    r2 = sample_realization(example1, seed=7)
    r3 = sample_realization(example1, seed=8)
    assert r1.values == r2.values
    assert r1.values != r3.values
    assert r1 == r2
    assert r1 != r3
    assert set(r1.values) == {(0, "A", 1, 0), (0, "B", 0, 0), (1, "A", 2, 0)}
    for v in r1.values.values():
        assert 1 <= v < DEFAULT_PRIME


def test_sample_realization_real(example1):
    r = sample_realization(example1, field_kind="real", seed=3)
    assert r.kind == "real" and r.prime is None
    for v in r.values.values():
        assert -1.0 <= v <= 1.0 and v != 0.0


def test_sample_realization_validates(example1):
    with pytest.raises(ModelError):
        sample_realization(example1, field_kind="complex")
    with pytest.raises(ModelError):
        sample_realization(example1, prime=97)
    with pytest.raises(ModelError):
        sample_realization(example1, prime=(1 << 61) + 1)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": 1.7}, "seed must be an integer, got 1.7"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": "1"}, "seed must be an integer, got '1'"),
    ({"prime": 2147483659.9}, "prime must be an integer, got 2147483659.9"),
    ({"prime": float(DEFAULT_PRIME)}, "prime must be an integer")])
def test_sample_realization_refuses_seeds_and_primes_that_are_not_indices(
        example1, kwargs, message):
    # int() would have drawn seed 1's values for 1.7 and run over the prime
    # 2147483659 for 2147483659.9
    with pytest.raises(ModelError, match=re.escape(message)):
        sample_realization(example1, **kwargs)


def test_sample_realization_reads_numpy_integers(example1):
    r = sample_realization(example1, seed=np.int64(7), prime=np.uint64(DEFAULT_PRIME))
    assert r == sample_realization(example1, seed=7)
    assert type(r.seed) is int and type(r.prime) is int


@pytest.mark.parametrize("prime", [(1 << 64) - 59, 318665857834031151167461,
                                   1 << 63])
def test_sample_realization_rejects_primes_past_int64(example1, monkeypatch, prime):
    # checked before primality: is_prime passes the composite 3186...461
    monkeypatch.setattr("swcactus.model.is_prime", lambda p: pytest.fail("called"))
    with pytest.raises(ModelError, match="below 2\\*\\*63"):
        sample_realization(example1, prime=prime)


def test_largest_int64_prime_accepted(example1):
    prime = (1 << 63) - 25
    values = sample_realization(example1, prime=prime).values.values()
    assert all(1 <= v < prime for v in values)


def test_cached_primality_keeps_rejections(example1):
    # is_prime is cached; a repeated draw must still reject what it rejected
    for _ in range(3):
        with pytest.raises(ModelError, match="not prime"):
            sample_realization(example1, prime=(1 << 61) + 1)
        with pytest.raises(ModelError, match="2\\*\\*31"):
            sample_realization(example1, prime=97)
        assert sample_realization(example1, prime=DEFAULT_PRIME).prime == DEFAULT_PRIME
    assert is_prime.cache_info().hits > 0


def test_realized_dense(example1):
    r = sample_realization(example1, seed=1)
    a = realized_dense(example1, r, 0, "A")
    assert len(a) == 3 and len(a[0]) == 3
    assert a[1][0] == r.values[(0, "A", 1, 0)]
    assert a[0][0] == 0
    b = realized_dense(example1, r, 1, "B")
    assert b == [[0], [0], [0]]


def test_realization_to_dict(example1):
    r = sample_realization(example1, seed=2)
    doc = realization_to_dict(r)
    assert doc["field"] == "finite"
    assert doc["seed"] == 2
    assert len(doc["values"]) == 3
    assert doc["values"][0]["subsystem"] == 1
    json.dumps(doc)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63))
def test_seed_mask_accepts_any(seed):
    import helpers
    sample_realization(helpers.load_system("example1"), seed=seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1 << 31) + 11, DEFAULT_PRIME, (1 << 63) - 25]),
       st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       st.integers(min_value=0, max_value=10 ** 9))
def test_finite_draws_are_randrange(prime, seed, shape):
    # the finite draws inline rng.randrange(1, p): the same values, in
    # StructuredMatrix.columns order, for any seed
    import helpers
    s = helpers.random_structure(np.random.default_rng(shape), max_n=6, density=0.5)
    rng = random.Random(seed & (2 ** 64 - 1))
    expected = {}
    for idx, (a, b) in enumerate(s.subsystems):
        for tag, mat in (("A", a), ("B", b)):
            for c, rows in enumerate(mat.columns):
                for r in rows:
                    expected[(idx, tag, r, c)] = rng.randrange(1, prime)
    r = sample_realization(s, seed=seed, prime=prime)
    assert list(r.values.items()) == list(expected.items())
    # stored per pattern column: the rows are the pattern's, the values the
    # draws in that order
    drawn = []
    for pair, blocks in zip(s.subsystems, r.columns):
        for mat, cols in zip(pair, blocks):
            assert [tuple(row for row, _ in col) for col in cols] == list(mat.columns)
            drawn.extend(v for col in cols for _, v in col)
    assert drawn == list(expected.values())
