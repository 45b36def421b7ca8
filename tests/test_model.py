import json
import random
import re

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
from swcactus.model import is_prime, realization_to_dict, realized_dense


def test_structured_matrix_bounds():
    m = StructuredMatrix(2, 3, frozenset({(0, 0), (1, 2)}))
    assert m.nnz == 2
    assert m.columns_with_entries() == frozenset({0, 2})
    assert m.column_rows(0) == (0,)
    assert m.column_rows(1) == ()
    with pytest.raises(ModelError):
        StructuredMatrix(2, 2, frozenset({(2, 0)}))
    with pytest.raises(ModelError):
        StructuredMatrix(2, 2, frozenset({(0, -1)}))
    with pytest.raises(ModelError):
        StructuredMatrix(0, 2)


def test_structured_matrix_entries_are_plain_int_pairs():
    kept = frozenset({(0, 0), (1, 2)})
    assert StructuredMatrix(2, 3, kept).nonzeros is kept
    inputs = ([(0, 0), [1, 2], (1, 2)],
              frozenset({(np.int64(0), np.int64(0)), (np.int32(1), 2)}),
              [(np.int64(0), 0), (True, 2)])
    for entries in inputs:
        m = StructuredMatrix(2, 3, entries)
        assert type(m.nonzeros) is frozenset and m.nonzeros == kept
        assert all(type(r) is int and type(c) is int for r, c in m.nonzeros)
        assert m.columns == ((0,), (), (1,))
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
    assert all(m.column_rows(c) is m.columns[c] for c in range(cols))


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
