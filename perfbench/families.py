"""Seeded instance families for the benchmark.

Instances are plain system documents in the ``parse_system`` schema
(1-based ``[row, col]`` positions), generated with ``random.Random`` so that
one seed gives byte-identical documents on every Python and numpy version.
Nothing here imports the package under test: the program only ever sees the
serialized documents.

Families:

* ``wide``: N modes; every column of every A_i gets 2 distinct random rows;
  every B_i has one column with 2 random rows.
* ``gapped``: wide A patterns over all rows but two gap rows that no A_i
  reaches; only mode 1 has an input, and its one column feeds both gap
  rows.  The gap rows are proportional in every product, so the generic
  dimension is below the reachable count and the linking bound matters.
* ``pinched``: wide A patterns plus a Hamiltonian input path in random
  colors; only mode 1 has an input.  Controllable by construction, so the
  cover equals n and the linking bound is redundant.
* ``small``: the random distribution of the AC5 acceptance harness
  (n <= 5, <= 3 modes, density 0.3, 0-2 inputs per mode).
"""

from __future__ import annotations

import hashlib
import json
import random

from oracle import facts

WORKLOADS = ("wide", "deep", "cover", "small")
DEFAULT_SEED = 1
# The entry point one op calls: ``check()``, or the two ``dim_bounds()``
# calls of ``swcactus bounds``.
KIND = {"wide": "check", "deep": "check", "cover": "bounds", "small": "check"}

# One pass of a workload: (family, n, modes, controllable) per instance, in
# this order.  ``controllable`` stratifies random draws (None: take the
# first draw).  Without it the share of uncontrollable wide instances, which
# cost two to three times as much, would swing the pass time from seed to
# seed.
# wide: the probe dominates and grows about n^4.  About one draw in
# fifteen needs a fourth Krylov layer at two to three times the cost, at any
# n; many mid-size instances average that out, where a few n=100-120 ones
# would make the pass time swing from seed to seed.  The uncontrollable
# draws, at two to three times the cost, are all n=70: they form the slowest
# class, a fifth of the ops, and op_s.tail (p90) falls in its middle.
# Spread over n, they would put the tail on the edge between classes, where
# it moves 25% from seed to seed.
WIDE_LADDER = [("wide", size, 3, want)
               for n in range(40, 75, 5)
               for size, want in [(n, True)] * 4 + [(70, False)]]
# deep: only mode 1 has an input, so the unrolling depth is n - 1 and the
# layered graph grows as N^(n-1).  n=9/N=3 (4.5 s, 200 MB per op) and
# n=10/N=3 (26 s, 500 MB) do not fit three passes in one run, and n=7/N=4
# (2 s per op) leaves room for only one pair of it: the slowest class then
# rests on two instances and its tail swings with them.  Six n=8 instances
# (about 0.9 s each) form the slowest class instead.
DEEP_LADDER = [(fam, n, modes, None)
               for n, modes, copies in ((6, 3, 3), (7, 3, 2), (6, 4, 2), (8, 3, 3))
               for _ in range(copies)
               for fam in ("gapped", "pinched")]
# cover: far past the layer cap and far too large for the probe.  With six
# modes the all-color cover is total; with three it covers a handful of
# states, which is the gap ROADMAP item 4 targets.  Five instances keep
# three passes in a run and put the median op inside one instance's group.
COVER_LADDER = [("wide", n, modes, modes == 6)
                for n, modes in ((2000, 3), (2000, 6), (2500, 3), (2500, 6), (3000, 3))]
# small: op_s.tail (p95) rests on the costliest 5% of distinct random draws;
# with 400 per pass it moved 16% from seed to seed, with 1200 about 7%.
SMALL_COUNT = 1200


def _wide_a(rng: random.Random, n: int, rows: list[int]) -> list[list[int]]:
    return sorted([r + 1, c + 1] for c in range(n) for r in rng.sample(rows, 2))


def wide(rng: random.Random, n: int, modes: int) -> dict:
    subs = []
    for _ in range(modes):
        b = sorted([r + 1, 1] for r in rng.sample(range(n), 2))
        subs.append({"A": _wide_a(rng, n, list(range(n))),
                     "B": {"cols": 1, "nonzeros": b}})
    return {"n": n, "subsystems": subs}


def gapped(rng: random.Random, n: int, modes: int) -> dict:
    gap = rng.sample(range(n), 2)
    rest = [r for r in range(n) if r not in gap]
    subs = []
    for i in range(modes):
        b = sorted([r + 1, 1] for r in gap) if i == 0 else []
        subs.append({"A": _wide_a(rng, n, rest),
                     "B": {"cols": 1 if i == 0 else 0, "nonzeros": b}})
    return {"n": n, "subsystems": subs}


def pinched(rng: random.Random, n: int, modes: int) -> dict:
    a = [set(map(tuple, _wide_a(rng, n, list(range(n))))) for _ in range(modes)]
    order = rng.sample(range(n), n)
    for tail, head in zip(order, order[1:]):
        a[rng.randrange(modes)].add((head + 1, tail + 1))
    subs = []
    for i in range(modes):
        b = [[order[0] + 1, 1]] if i == 0 else []
        subs.append({"A": sorted(list(e) for e in a[i]),
                     "B": {"cols": 1 if i == 0 else 0, "nonzeros": b}})
    return {"n": n, "subsystems": subs}


def small(rng: random.Random, density: float = 0.3) -> dict:
    n = rng.randint(1, 5)
    subs = []
    for _ in range(rng.randint(1, 3)):
        a = [[r + 1, c + 1] for r in range(n) for c in range(n)
             if rng.random() < density]
        m = rng.randint(0, 2)
        b = [[r + 1, c + 1] for r in range(n) for c in range(m)
             if rng.random() < density]
        subs.append({"A": a, "B": {"cols": m, "nonzeros": b}})
    return {"n": n, "subsystems": subs}


_FAMILIES = {"wide": wide, "gapped": gapped, "pinched": pinched}


def instances(workload: str, seed: int) -> list[dict]:
    """One pass of ``workload`` as ``{"family", "doc"}`` records."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"swcactus-bench:{workload}:{seed}")
    if workload == "small":
        return [{"family": "small", "doc": small(rng)} for _ in range(SMALL_COUNT)]
    ladder = {"wide": WIDE_LADDER, "deep": DEEP_LADDER, "cover": COVER_LADDER}[workload]
    out = []
    for fam, n, modes, want in ladder:
        while True:
            doc = _FAMILIES[fam](rng, n, modes)
            if want is None or facts(doc)["controllable"] == want:
                break
        out.append({"family": fam, "doc": doc})
    return out


def serialize(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(texts: list[str]) -> str:
    """Fingerprint of one pass's serialized instances."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()
