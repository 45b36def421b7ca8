import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import det_ff, layered_product_columns
import swcactus.rankcore as rankcore_mod
from swcactus import (
    DEFAULT_PRIME,
    ConsistencyError,
    ModelError,
    averaged_pair_rank,
    build_union_graph,
    check,
    controllable_dim,
    input_rank,
    parse_system,
    reachable_space_dim,
    sample_realization,
    serialize_system,
)
from swcactus.model import Realization, StructuredMatrix, SwitchedStructure, is_prime
from swcactus.rankcore import ColumnReducer, _slot_layout, rank_ff
from swcactus.unigraph import _term_rank_ceiling, term_rank_ceiling

P = DEFAULT_PRIME
# a prime just past the probe's 2**31 floor, the default (2**32 - 5), the
# default before it, the largest 64-bit prime and one past 64 bits
P61 = (1 << 61) - 1
PRIMES = ((1 << 31) + 11, DEFAULT_PRIME, P61, (1 << 64) - 59, (1 << 89) - 1)
# the primes on either side of the fold-shift branch at 40 bits: 2**40 mod p
# = 2**40 - p, so c = b exactly when p > 2**40 - 2**20
_EDGE = (1 << 40) - (1 << 20)
BOUNDARY_PRIMES = (next(q for q in range(_EDGE, 0, -1) if is_prime(q)),
                   next(q for q in range(_EDGE + 1, 1 << 40) if is_prime(q)))


def test_column_reducer_basic():
    red = ColumnReducer(3, P)
    assert red.add([1, 0, 0])
    assert red.add([0, 2, 0])
    assert not red.add([3, 4, 0])
    assert red.add([0, 0, 5])
    assert red.rank == 3
    with pytest.raises(ModelError):
        red.add([1, 2])


def _low_rank_columns(rng: random.Random, n: int, prime: int) -> list[list[int]]:
    # integer combinations of at most n generators, shifted by multiples of p:
    # entries are zero, negative or far beyond p, and the rank mod p is low
    gens = [[rng.choice((0, 0, 1, -1, rng.randrange(-3 * prime, 3 * prime)))
             for _ in range(n)] for _ in range(rng.randint(0, n))]
    return [[sum(c * g[row] for c, g in zip(coeffs, gens)) + prime * rng.randrange(-2, 3)
             for row in range(n)]
            for coeffs in ([rng.randrange(-3, 4) for _ in gens]
                           for _ in range(rng.randint(0, 2 * n + 2)))]


def _sparse_columns(rng: random.Random, n: int, prime: int) -> list[list[int]]:
    # 1-3 nonzero rows placed at random, so pivots arrive out of row order and
    # a column's first nonzero free row often lies below existing pivots; an
    # entry may be a multiple of p, nonzero but zero mod p
    cols = []
    for _ in range(rng.randint(1, 2 * n + 2)):
        col = [0] * n
        for row in rng.sample(range(n), rng.randint(1, min(3, n))):
            col[row] = rng.choice((1, -1, prime, rng.randrange(-3 * prime, 3 * prime)))
        cols.append(col)
    return cols


def _assert_folded(red: ColumnReducer) -> None:
    """The slotted rows hold the slots above ``_top``, one each; pivots sit
    only there; every stored slot is below ``2**(c + 1)``, no bits lie past
    slot n - 1, and each column's ``ninv`` is minus the inverse of its slot
    0."""
    w, mask, c = _slot_layout(red.n, red.prime)[:3]
    assert sorted(s for s in red._slot_of if s >= 0) == list(range(red._top + 1, red.n))
    assert red.rank == sum(pivot is not None for pivot in red._pivots)
    for slot, pivot in enumerate(red._pivots):
        if pivot is None:
            continue
        stored, ninv = pivot
        assert slot > red._top
        slots = [stored >> i * w & mask for i in range(red.n - slot)]
        assert stored >> (red.n - slot) * w == 0
        assert max(slots) < 1 << (c + 1)
        assert slots[0] * ninv % red.prime == red.prime - 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from((_low_rank_columns, _sparse_columns)))
def test_column_reducer_matches_plain_elimination(prime, n, seed, draw):
    cols = draw(random.Random(seed), n, prime)
    red, brute = ColumnReducer(n, prime), helpers.BruteReducer(n, prime)
    for c in cols:
        assert red.add(c) == brute.add(c)
        _assert_folded(red)
    assert red.rank == rank_ff(cols, n, prime) == helpers.brute_rank_ff(cols, n, prime)


@pytest.mark.parametrize("prime", PRIMES + BOUNDARY_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 7, 8, 31])
def test_column_reducer_largest_slot_sum(prime, n):
    # basis e_k + e_last for every row k but the last, and a candidate that
    # it reduces to zero: the last row, which no pivot reads, takes n - 1
    # products on top of its entry before it is read; a narrower slot would
    # carry out of it and break the rejection.  The reducer gets each basis
    # column as a dict that lists the last row first, so the last row takes
    # the top slot and every pivot lies below it
    red, brute = ColumnReducer(n, prime), helpers.BruteReducer(n, prime)
    for k in range(n - 1):
        col = [0] * n
        col[k] = col[n - 1] = 1
        assert red.add({n - 1: 1, k: 1}) and brute.add(col)
    assert n == 1 or red._slot_of[n - 1] == n - 1
    candidate = [-1] * (n - 1) + [1 - n]
    assert not red.add(candidate) and not brute.add(candidate)
    assert red.add([0] * (n - 1) + [1])
    assert red.rank == n


@pytest.mark.parametrize("prime", PRIMES + BOUNDARY_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 7, 8, 31])
def test_column_reducer_folded_extreme(prime, n):
    # the basis e_k + e_last for every row k but the last, stored by hand
    # with row k in slot k and every slot at its folded maximum: the largest
    # value below 2**(c + 1) in its class mod p.  Candidates of ones make
    # every factor p - 1, so the last slot takes n - 1 of the largest
    # products the slot width must hold before it is read; a carry out of
    # any slot would break the rejection, and the accepted column is folded
    # from that extreme
    w, _, c = _slot_layout(n, prime)[:3]
    top = (1 << (c + 1)) - 1
    red, brute = ColumnReducer(n, prime), helpers.BruteReducer(n, prime)
    red._slot_of, red._top = list(range(n)), -1
    for k in range(n - 1):
        col = [0] * n
        col[k] = col[n - 1] = 1
        assert brute.add(col)
        slots = [top - (top - v) % prime for v in col[k:]]
        assert all(top - prime < v <= top for v in slots)
        red._pivots[k] = (sum(v << i * w for i, v in enumerate(slots)), prime - 1)
        red._rank += 1
    _assert_folded(red)
    candidate = [1] * (n - 1) + [n - 1]
    assert not red.add(candidate) and not brute.add(candidate)
    candidate[-1] = n
    assert red.add(candidate) and brute.add(candidate)
    assert red.rank == n
    _assert_folded(red)


def test_rank_ff_known():
    assert rank_ff([[1, 2], [2, 4]], 2, P) == 1
    assert rank_ff([[1, 0], [0, 1], [1, 1]], 2, P) == 2
    assert rank_ff([], 3, P) == 0
    assert rank_ff([[0, 0, 0]], 3, P) == 0


@pytest.mark.parametrize("n, prime, message", [
    (2, 4, "prime must be a prime, got 4"),  # Z/4 is no field
    (2, True, "prime must be an integer, got True"),  # was read as 1
    (2, 2.5, "prime must be an integer, got 2.5"),
    (-3, 7, "n must be non-negative, got -3"),
    (2.0, 7, "n must be an integer, got 2.0"),
])
def test_reducer_refuses_a_bad_modulus_or_size(n, prime, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        ColumnReducer(n, prime)
    with pytest.raises(ModelError, match=re.escape(message)):
        rank_ff([[1, 0]], n, prime)


def test_probe_refuses_a_hand_built_realization_over_a_ring(example1):
    drawn = sample_realization(example1, seed=1)
    r = Realization(kind="finite", prime=1 << 32, seed=1, columns=drawn.columns)
    with pytest.raises(ModelError, match="prime must be a prime"):
        reachable_space_dim(example1, r)


@pytest.mark.parametrize("row", [-1, 3, 5])
def test_reducer_refuses_dict_rows_outside_range(row):
    # row -1 took row 2's slot, and row 5 raised a bare IndexError
    red = ColumnReducer(3, 7)
    with pytest.raises(ModelError, match=f"column row {row} is outside range\\(3\\)"):
        red.add({0: 1, row: 1})
    assert red.rank == 0 and red._slot_of == [-1, -1, -1]
    assert not red.add({}) and red.add({2: 1, 0: 0})


def test_small_primes_match_plain_elimination():
    # the reducer takes any prime, also ones the probe's sampler refuses
    rng = random.Random(5)
    for prime in (2, 3, 5, 7, 31):
        for n in (1, 2, 5):
            cols = _sparse_columns(rng, n, prime)
            assert rank_ff(cols, n, prime) == helpers.brute_rank_ff(cols, n, prime)


def test_rank_ff_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        mat = rng.integers(-4, 5, size=(n, m))
        cols = [list(mat[:, j] % P) for j in range(m)]
        assert rank_ff(cols, n, P) == np.linalg.matrix_rank(mat)


def test_det_ff_known():
    assert det_ff([[1, 0], [0, 1]], P) == 1
    assert det_ff([[0, 1], [1, 0]], P) == P - 1
    assert det_ff([[2, 0], [0, 3]], P) == 6
    assert det_ff([[1, 2], [2, 4]], P) == 0
    with pytest.raises(ModelError):
        det_ff([[1, 2]], P)


def test_det_ff_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        mat = rng.integers(-3, 4, size=(n, n))
        cols = [list(mat[:, j] % P) for j in range(n)]
        expected = int(round(np.linalg.det(mat))) % P
        assert det_ff(cols, P) == expected


def test_reachable_space_dim_example1(example1):
    for seed in (0, 1, 2, 99):
        r = sample_realization(example1, seed=seed)
        assert reachable_space_dim(example1, r) == (3, 1)


def test_reachable_space_dim_real(example1):
    r = sample_realization(example1, field_kind="real", seed=4)
    assert reachable_space_dim(example1, r) == (3, 1)


def test_zero_input_structure():
    s = SwitchedStructure(
        n=2,
        subsystems=((StructuredMatrix(2, 2, frozenset({(0, 1)})),
                     StructuredMatrix(2, 0)),))
    probe = controllable_dim(s, seed=0)
    assert probe.dim == 0 and probe.layers_used == 0
    r = sample_realization(s, field_kind="real", seed=0)
    assert reachable_space_dim(s, r) == (0, 0)


def test_real_probe_keeps_a_basis_not_the_stack():
    # three modes share one path x_1 -> .. -> x_9 from the input, so the
    # span grows by one state a round for eight rounds; stacking every
    # round's products held 4^8 columns, a basis holds at most 9
    n = 9
    a = StructuredMatrix(n, n, frozenset((j + 1, j) for j in range(n - 1)))
    b = StructuredMatrix(n, 1, frozenset({(0, 0)}))
    s = SwitchedStructure(n=n, subsystems=((a, b),) * 3)
    r = sample_realization(s, field_kind="real", seed=0)
    reachable_space_dim(s, r)  # warm numpy's lazy imports outside the trace
    tracemalloc.start()
    try:
        assert reachable_space_dim(s, r) == (9, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_probe_fields(example1):
    # the first trial reaches the ceiling c = 3, so it is the only one run
    probe = controllable_dim(example1, seed=5, trials=4)
    assert probe.trials == 1
    assert probe.trial_dims == (3,)
    assert probe.dim == 3 and probe.layers_used == 1
    assert probe.seed == 5 and probe.prime == P
    with pytest.raises(ModelError):
        controllable_dim(example1, trials=0)


def test_probe_chain10(chain10):
    # dim 8 is below the ceiling c = 9, so every trial runs
    probe = controllable_dim(chain10, seed=1729)
    assert probe.dim == 8
    assert probe.trial_dims == (8, 8, 8)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=4))
def test_trials_stop_at_ceiling(seed, trials):
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=8, max_colors=3,
                                 density=float(rng.uniform(0.05, 0.4)))
    ceiling = term_rank_ceiling(build_union_graph(s))
    # every trial, each run without a ceiling
    full = [reachable_space_dim(s, sample_realization(s, seed=seed + t))
            for t in range(trials)]
    dims = [d for d, _ in full]
    best = max(dims)
    probe = controllable_dim(s, seed=seed, trials=trials)
    assert probe.dim == best
    assert probe.layers_used == full[dims.index(best)][1]
    ran = dims.index(ceiling) + 1 if ceiling in dims else trials
    assert probe.trial_dims == tuple(dims[:ran])
    assert probe.trial_layers == tuple(layers for _, layers in full[:ran])
    assert all(d < ceiling for d in probe.trial_dims[:-1])


@pytest.mark.parametrize("name,draws", [("example1", 1), ("chain10", 3)])
def test_check_draws_until_ceiling(request, monkeypatch, name, draws):
    seeds = []
    original = rankcore_mod.sample_realization

    def counted(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return original(*args, **kwargs)
    monkeypatch.setattr(rankcore_mod, "sample_realization", counted)
    check(request.getfixturevalue(name), seed=7)
    assert seeds == list(range(7, 7 + draws))


def _undershoot(monkeypatch, calls: float) -> None:
    """Make the first ``calls`` probe trials return one below their ceiling."""
    original = rankcore_mod.reachable_space_dim
    count = itertools.count(1)

    def short(structure, realization, ceiling=None):
        dim, layers = original(structure, realization, ceiling)
        return (ceiling - 1, layers) if next(count) <= calls else (dim, layers)
    monkeypatch.setattr(rankcore_mod, "reachable_space_dim", short)


def test_undershoot_runs_next_trial(example1, monkeypatch):
    _undershoot(monkeypatch, 1)
    probe = controllable_dim(example1, seed=3, trials=3)
    assert probe.trial_dims == (2, 3)
    assert probe.dim == 3 and probe.layers_used == 1


def test_undershoot_every_trial(example1, monkeypatch):
    _undershoot(monkeypatch, math.inf)
    probe = controllable_dim(example1, seed=3, trials=4)
    assert probe.trial_dims == (2, 2, 2, 2)
    assert probe.dim == 2
    with pytest.raises(ConsistencyError):
        check(example1)


def test_layered_product_offsets(example1):
    r = sample_realization(example1, seed=9)
    cols, offsets = layered_product_columns(example1, r, 2)
    assert offsets == [0, 2, 6, 14]
    assert len(cols) == 14
    assert all(len(c) == 3 for c in cols)
    with pytest.raises(ModelError):
        layered_product_columns(example1, r, -1)
    real = sample_realization(example1, field_kind="real", seed=9)
    with pytest.raises(ModelError):
        layered_product_columns(example1, real, 1)


def test_layers_bounded_by_missing_rank():
    rng = np.random.default_rng(11)
    for _ in range(40):
        s = helpers.random_structure(rng)
        g = build_union_graph(s)
        r0 = input_rank(g)
        probe = controllable_dim(s, seed=3, trials=2)
        assert probe.dim <= s.n
        assert all(layers <= max(0, s.n - r0) for layers in probe.trial_layers)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
@example(seed=13)  # the rank needs both rows of an A column: a product that drops one shows
def test_dim_matches_explicit_stack(seed):
    # the incremental basis probe and the explicit product stack are
    # independent constructions; their ranks must agree realization by
    # realization
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=4, max_colors=2)
    r = sample_realization(s, seed=seed)
    dim, _ = reachable_space_dim(s, r)
    cols, _ = layered_product_columns(s, r, s.n)
    assert rank_ff(cols, s.n, P) == dim


def test_averaged_pair_rank_example1(example1):
    rng = np.random.default_rng(13)
    r = sample_realization(example1, seed=0)
    for _ in range(10):
        weights = [int(rng.integers(1, P)) for _ in range(2)]
        assert averaged_pair_rank(example1, r, weights) <= 2
    with pytest.raises(ModelError):
        averaged_pair_rank(example1, r, [1])


@pytest.mark.parametrize("weights", [[1.9, 2], [1, "2"], [True, 2]])
def test_averaged_pair_rank_refuses_finite_weights_that_are_not_indices(
        example1, weights):
    # int() would have truncated 1.9 to 1 on a finite realization
    r = sample_realization(example1, seed=0)
    with pytest.raises(ModelError, match="weights must be integers"):
        averaged_pair_rank(example1, r, weights)


def test_averaged_pair_rank_reads_weights_mod_p(example1):
    r = sample_realization(example1, seed=0)
    for weights in ([3, 5], [np.int64(3), 5], [3 + P, 5 - 2 * P]):
        assert averaged_pair_rank(example1, r, weights) == averaged_pair_rank(
            example1, r, [3, 5])


@pytest.mark.parametrize("kwargs", [{"trials": 2.0}, {"trials": True},
                                    {"seed": 1.7}, {"seed": False}])
def test_controllable_dim_refuses_arguments_that_are_not_indices(example1, kwargs):
    with pytest.raises(ModelError, match="seed and trials must be integers"):
        controllable_dim(example1, **kwargs)


def test_averaged_pair_rank_real(example1):
    r = sample_realization(example1, field_kind="real", seed=1)
    assert averaged_pair_rank(example1, r, [0.3, 0.7]) <= 2


def test_averaged_pair_rank_full_when_single_mode(boost):
    # with one weight per mode a single-mode system loses nothing
    single = SwitchedStructure(n=2, subsystems=(boost.subsystems[0],))
    r = sample_realization(single, seed=2)
    assert averaged_pair_rank(single, r, [5]) == 2


def _mixed_stack_from_values(s, r, weights) -> list[list]:
    """Columns of the mixed ``[A | B]``, read entry by entry from the keyed
    ``r.values``."""
    n = s.n
    cols = []
    for c in range(n + max(s.input_counts)):
        tag, col = ("A", c) if c < n else ("B", c - n)
        cols.append([sum(w * r.values.get((i, tag, row, col), 0)
                         for i, w in enumerate(weights))
                     for row in range(n)])
    return cols


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_averaged_pair_rank_matches_dense_oracle(seed):
    # modes with different input counts, one of them without inputs
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=6, density=0.4)
    while 0 not in s.input_counts or len(set(s.input_counts)) < 2:
        s = helpers.random_structure(rng, max_n=6, density=0.4)
    modes = s.subsystem_count
    # a zero weight drops its mode from the mix
    dropped = rng.random(modes) < 0.3
    r = sample_realization(s, seed=seed)
    weights = [0 if drop else int(rng.integers(1, P)) for drop in dropped]
    cols = _mixed_stack_from_values(s, r, weights)
    assert averaged_pair_rank(s, r, weights) == helpers.brute_rank_ff(cols, s.n, P)
    real = sample_realization(s, field_kind="real", seed=seed)
    weights = [0.0 if drop else float(rng.uniform(-1.0, 1.0)) for drop in dropped]
    stack = np.array(_mixed_stack_from_values(s, real, weights), dtype=float).T
    top = np.linalg.norm(stack, axis=0).max()
    expected = (int(np.linalg.matrix_rank(stack, tol=rankcore_mod._REAL_RANK_REL_TOL * top))
                if top else 0)
    assert averaged_pair_rank(s, real, weights) == expected


def test_probe_and_mixing_never_read_the_keyed_values(monkeypatch, example1,
                                                      boost, chain10, tmp_path):
    # the probe, the mixing rank and the product stack read
    # Realization.columns as drawn; the keyed map is for realize only
    from swcactus import cli
    from swcactus.model import Realization

    def values(self):
        raise AssertionError("Realization.values was read")
    monkeypatch.setattr(Realization, "values", property(values))
    for s in (example1, boost, chain10):
        check(s)
    doc = helpers.DATA_DIR / "example1.json"
    assert cli.main(["counterexample", str(doc), "--samples", "3",
                     "-o", str(tmp_path / "out.json")]) == 0
    cols, _ = layered_product_columns(boost, sample_realization(boost, seed=1), 2)
    assert cols


def _record_adds(mp: pytest.MonkeyPatch) -> list[bool]:
    results: list[bool] = []
    original = ColumnReducer.add

    def add(self, column):
        results.append(original(self, column))
        return results[-1]
    mp.setattr(ColumnReducer, "add", add)
    return results


def _krylov_order_adds(s, r, top: int) -> list[bool]:
    """The outcome of every add of the probe's Krylov order, on a
    ``BruteReducer`` with dense products read from the keyed ``r.values``:
    the input columns in mode order, then each absorbed column, in the order
    absorbed, times every ``A_i``, until an absorbed column brings the rank
    to ``top``."""
    n, p = s.n, r.prime
    dense = [[[r.values.get((i, "A", row, c), 0) for c in range(n)] for row in range(n)]
             for i in range(s.subsystem_count)]
    red = helpers.BruteReducer(n, p)
    outcomes: list[bool] = []
    absorbed = []

    def offer(col) -> bool:
        outcomes.append(red.add(col))
        if outcomes[-1]:
            absorbed.append(col)
        return outcomes[-1] and len(red.basis) == top
    for i, (_, b) in enumerate(s.subsystems):
        for q in range(b.cols):
            if offer([r.values.get((i, "B", row, q), 0) for row in range(n)]):
                return outcomes
    for col in absorbed:  # grows while it is read
        for mat in dense:
            if offer([sum(x * y for x, y in zip(row, col)) % p for row in mat]):
                return outcomes
    return outcomes


def _probe_against_all_basis_loop(s, r) -> None:
    expected = helpers.brute_reachable_space_dim(s, r)
    ceiling = term_rank_ceiling(build_union_graph(s))
    for top in (None, ceiling):
        with pytest.MonkeyPatch.context() as mp:
            adds = _record_adds(mp)
            dim, layers = reachable_space_dim(s, r, top)
        assert (dim, layers) == expected
        assert adds == _krylov_order_adds(s, r, s.n if top is None else top)
        # each input column once, then each absorbed column times every A_i once
        assert len(adds) <= s.total_inputs + s.subsystem_count * dim
    assert dim <= ceiling
    # a probe that reaches its ceiling stops on the add that reached it
    if dim == ceiling > 0:
        assert adds[-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_krylov_matches_all_basis_loop(seed):
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=12, max_colors=3,
                                 density=float(rng.uniform(0.05, 0.4)))
    _probe_against_all_basis_loop(s, sample_realization(s, seed=seed))


@pytest.mark.parametrize("seed", [1, 2, 11])
def test_krylov_matches_all_basis_loop_wide(seed):
    # wide_structure(11, 40, 3) is uncontrollable (dim 39)
    s = helpers.wide_structure(seed, 40, 3)
    _probe_against_all_basis_loop(s, sample_realization(s, seed=seed))


def test_product_cancels_on_reached_row():
    # A has rows 2 and 3 in column 0, row 2 in columns 1 and 3; B = (3, 5)
    # on rows 0 and 1.  The value at (2, 1) makes A B cancel mod p on row
    # 2, which A B reaches structurally: A B = 33 e_3 takes no slot for row
    # 2, then A^2 B = 13 * 33 e_2 reaches it for real
    a21 = -7 * 3 * pow(5, -1, P) % P
    s = SwitchedStructure(n=4, subsystems=((
        StructuredMatrix(4, 4, frozenset({(2, 0), (3, 0), (2, 1), (2, 3)})),
        StructuredMatrix(4, 1, frozenset({(0, 0), (1, 0)})),),))
    a_cols = (((2, 7), (3, 11)), ((2, a21),), (), ((2, 13),))
    r = Realization(kind="finite", prime=P, seed=0,
                    columns=((a_cols, (((0, 3), (1, 5)),)),))
    assert rankcore_mod._product(a_cols, {0: 3, 1: 5}, P) == {3: 33}
    assert layered_product_columns(s, r, 2)[0] == [[3, 5, 0, 0], [0, 0, 0, 33],
                                                   [0, 0, 13 * 33, 0]]
    red = ColumnReducer(4, P)
    assert red.add({0: 3, 1: 5}) and red.add({2: 0, 3: 33})
    assert red._slot_of == [3, 2, -1, 1]
    assert red.add({2: 13 * 33 + P}) and red._slot_of[2] == 0
    _assert_folded(red)
    assert reachable_space_dim(s, r) == (3, 2)
    _probe_against_all_basis_loop(s, r)


@pytest.mark.parametrize("prime", PRIMES + BOUNDARY_PRIMES)
@pytest.mark.parametrize("n", [1, 8, 70, 1000])
def test_slot_layout_bounds(prime, n):
    # proof items 1-3 of ColumnReducer, checked on the numbers
    w, mask, c, radix, folds, lo, hi = _slot_layout(n, prime)
    b = prime.bit_length()
    narrow = (1 << b) % prime < 1 << (b // 2)
    assert c == (b if narrow else b + b // 2)
    assert w == b + c + n.bit_length() + 3 and mask == (1 << w) - 1
    assert radix == (1 << c) % prime < 1 << (c - b // 2)
    # 1: the largest candidate slot, p - 1 plus n products of a factor
    # below p and a stored slot below 2**(c + 1)
    top = 1 << (c + 1)
    largest = prime - 1 + n * (prime - 1) * (top - 1)
    assert largest < 1 << (w - 2)

    def fold(x: int) -> int:
        return (x >> c & hi) * radix + (x & lo)
    # 2: folding n slots at once equals folding each, even from all ones
    for slot in (mask, largest, top - 1, prime):
        packed = sum(slot << i * w for i in range(n))
        assert fold(packed) == sum(fold(slot) << i * w for i in range(n))
        assert fold(slot) < 1 << w
    # 3: each fold shrinks a slot at or above 2**(c + 1) and keeps one below
    # it there; the counted folds bring the largest slot below it
    x = largest
    for _ in range(folds):
        assert x >= top and (x >> c) * radix + (1 << c) - 1 < x
        x = (x >> c) * radix + (1 << c) - 1
    assert x < top and radix + (1 << c) - 1 < top
    if prime == P61:
        assert narrow and radix == 1 and folds == 2
    if prime == DEFAULT_PRIME:
        assert c == 32 and radix == 5 and folds == 2
    assert narrow == (prime in (DEFAULT_PRIME, P61, (1 << 64) - 59, (1 << 89) - 1,
                                BOUNDARY_PRIMES[1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
@example(seed=0)  # the rank needs both rows of an A column: a product that drops one shows
def test_dim_is_rank_of_full_stack(seed):
    # depth n - 1 is where the controllability stack stops growing
    rng = np.random.default_rng(seed)
    s = helpers.random_structure(rng, max_n=7, max_colors=3)
    r = sample_realization(s, seed=seed)
    dim, _ = reachable_space_dim(s, r)
    cols, _ = layered_product_columns(s, r, s.n - 1)
    assert helpers.brute_rank_ff(cols, s.n, P) == dim


def _round_loop_adds(s, r) -> tuple[int, int, int]:
    """``(dim, layers, adds)`` of a Krylov loop over the previous round's
    new columns that tests its stop condition only between rounds."""
    n, p = s.n, r.prime
    dense = [[[r.values.get((i, "A", row, c), 0) for c in range(n)] for row in range(n)]
             for i in range(s.subsystem_count)]
    red = helpers.BruteReducer(n, p)
    adds = 0
    frontier = []
    for i, (_, b) in enumerate(s.subsystems):
        for q in range(b.cols):
            adds += 1
            col = [r.values.get((i, "B", row, q), 0) for row in range(n)]
            if red.add(col):
                frontier.append(col)
    layers = 0
    while len(red.basis) < n:
        absorbed = []
        for col in frontier:
            for mat in dense:
                adds += 1
                prod = [sum(x * y for x, y in zip(row, col)) % p for row in mat]
                if red.add(prod):
                    absorbed.append(prod)
        if not absorbed:
            break
        frontier = absorbed
        layers += 1
    return len(red.basis), layers, adds


@pytest.mark.parametrize("seed", [1, 11])
def test_ceiling_stops_mid_round(seed):
    # controllable at seed 1 (c = n = 40), uncontrollable at seed 11 (c = 39)
    s = helpers.wide_structure(seed, 40, 3)
    r = sample_realization(s, seed=seed)
    ceiling = term_rank_ceiling(build_union_graph(s))
    with pytest.MonkeyPatch.context() as mp:
        adds = _record_adds(mp)
        probe = reachable_space_dim(s, r, ceiling)
    dim, layers, round_adds = _round_loop_adds(s, r)
    assert probe == (dim, layers) and dim == ceiling
    assert adds[-1]
    assert len(adds) < round_adds


@pytest.mark.parametrize("ceiling", [True, 2.0, "3"])
def test_probe_refuses_a_ceiling_that_is_not_an_index(example1, ceiling):
    # True was read as a ceiling of 1, which the rank passes at once
    r = sample_realization(example1, seed=1)
    with pytest.raises(ModelError, match="ceiling must be an integer"):
        reachable_space_dim(example1, r, ceiling)
    assert reachable_space_dim(example1, r, None) == reachable_space_dim(example1, r)


def test_probe_reads_ceiling_from_graph(chain10):
    g = build_union_graph(chain10)
    assert controllable_dim(chain10, graph=g) == controllable_dim(chain10)
    assert (_term_rank_ceiling,) in g._memo


def _assert_same_probe_over_p61(s):
    # the default prime and 2**61 - 1 give the same dimensions and depths
    probe, p61 = controllable_dim(s), controllable_dim(s, prime=P61)
    assert probe.prime == DEFAULT_PRIME and p61.prime == P61
    assert (probe.dim, probe.layers_used, probe.trial_dims) == (
        p61.dim, p61.layers_used, p61.trial_dims)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_default_prime_probes_as_p61(seed):
    rng = np.random.default_rng(seed)
    _assert_same_probe_over_p61(helpers.random_structure(rng, max_n=8, max_colors=3))


@pytest.mark.parametrize("build, args", [
    (helpers.wide_structure, (1, 60, 3)),
    (helpers.wide_structure, (11, 60, 3)),  # uncontrollable: probe/wide60.json
    (helpers.gapped_structure, (0, 6, 3)),
    (helpers.gapped_structure, (1, 11, 4)),
    (helpers.spider_structure, (5, 2, 2)),  # probe below the ceiling
    (helpers.spider_structure, (6, 2, 2)),
])
def test_default_prime_probes_as_p61_on_families(build, args):
    _assert_same_probe_over_p61(build(*args))


# README's per-trial undershoot bound n**2 / (p - 1) at the default prime,
# for n = 70 (`wide`) and n = 3000 (`cover`)
DOCUMENTED_BOUNDS = ((70, "1.2e-6"), (3000, "2.1e-3"))


def test_documented_undershoot_bound():
    readme = (helpers.DATA_DIR.parent.parent / "README.md").read_text()
    docs = [" ".join(text.split()) for text in (readme, rankcore_mod.__doc__)]
    for n, figure in DOCUMENTED_BOUNDS:
        assert n * n / (DEFAULT_PRIME - 1) < float(figure)
        assert all(f"{figure} at n = {n}" in text for text in docs)
    # d <= c * (layers_used + 1) on every document the goldens run, at the
    # goldens' seed
    for path in sorted(helpers.DATA_DIR.glob("*.json")) + sorted(
            helpers.DATA_DIR.glob("probe/*.json")):
        s = helpers.parse_system(path.read_text())
        probe = controllable_dim(s, seed=1729)
        c = term_rank_ceiling(build_union_graph(s))
        bound = c * (probe.layers_used + 1) / (DEFAULT_PRIME - 1)
        assert bound < float(DOCUMENTED_BOUNDS[0][1])


def test_controllable_dim_refuses_a_graph_of_another_structure():
    # the 8-state graph's ceiling, 7, was the 30-state structure's answer
    wide = helpers.wide_structure(1, 30, 3)
    with pytest.raises(ModelError, match="graph is not this structure's union graph"):
        controllable_dim(wide, graph=build_union_graph(helpers.gapped_structure(1, 8, 3)))
    assert controllable_dim(wide, graph=build_union_graph(wide)).dim == 30


def test_realization_of_another_structure_is_refused():
    # averaged_pair_rank raised a bare IndexError, and reachable_space_dim
    # gave the other structure's answer, (30, 2)
    other = sample_realization(helpers.wide_structure(2, 30, 3), seed=5)
    with pytest.raises(ModelError, match="realization columns of A_1"):
        averaged_pair_rank(helpers.gapped_structure(1, 8, 3), other, [1, 2, 3])
    wide = helpers.wide_structure(1, 30, 3)
    for kind in ("finite", "real"):
        drawn = sample_realization(helpers.wide_structure(2, 30, 3), field_kind=kind, seed=5)
        with pytest.raises(ModelError, match="realization columns of A_1"):
            reachable_space_dim(wide, drawn)
    # fewer subsystems; and a B column's rows moved to the next column
    with pytest.raises(ModelError, match="realization has 3 subsystems, the structure 2"):
        reachable_space_dim(helpers.wide_structure(2, 30, 2), other)
    b = StructuredMatrix(3, 2, [(0, 0), (1, 0), (2, 1)])
    moved = StructuredMatrix(3, 2, [(0, 0), (1, 1), (2, 1)])
    a = StructuredMatrix(3, 3, [(1, 0), (2, 1)])
    structure = SwitchedStructure(3, ((a, b),))
    drawn = sample_realization(SwitchedStructure(3, ((a, moved),)), seed=1)
    with pytest.raises(ModelError, match="realization columns of B_1"):
        reachable_space_dim(structure, drawn)
    with pytest.raises(ModelError, match="realization columns of B_1"):
        averaged_pair_rank(structure, drawn, [1])
    # an equal structure parsed again, and a hand-built realization, pass
    # the comparison
    own = sample_realization(wide, seed=5)
    copy = Realization(kind=own.kind, prime=own.prime, seed=own.seed, columns=own.columns)
    again = parse_system(serialize_system(wide))
    assert reachable_space_dim(again, own) == reachable_space_dim(wide, copy) == (30, 2)
