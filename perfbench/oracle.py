"""Independent answers for generated instances, and the per-op output check.

The oracle re-derives, from the system document alone and without the
package under test, the facts every correct answer must agree with: the
input-reachable state count, the generic rank of ``[A_1 .. A_N, B_1 .. B_N]``
(a maximum bipartite matching between rows and (column, mode) pairs), and the
input rank that sets the linking depth.
"""

from __future__ import annotations

from collections import deque

LAYER_CAP = 12  # the checker's default; deeper linkings are skipped


def _inputs(doc: dict) -> list[list[int]]:
    """Rows fed by each input column, one list per (mode, column)."""
    cols = []
    for sub in doc["subsystems"]:
        rows: dict[int, list[int]] = {q: [] for q in range(sub["B"]["cols"])}
        for r, c in sub["B"]["nonzeros"]:
            rows[c - 1].append(r - 1)
        cols.extend(rows.values())
    return cols


def _state_tails(doc: dict) -> list[list[int]]:
    """Rows fed by each (mode, state column) that has a nonzero."""
    tails = []
    for sub in doc["subsystems"]:
        rows: dict[int, list[int]] = {}
        for r, c in sub["A"]:
            rows.setdefault(c - 1, []).append(r - 1)
        tails.extend(rows[c] for c in sorted(rows))
    return tails


def reachable_count(doc: dict) -> int:
    n = doc["n"]
    succ: list[list[int]] = [[] for _ in range(n)]
    for sub in doc["subsystems"]:
        for r, c in sub["A"]:
            succ[c - 1].append(r - 1)
    seen = [False] * n
    queue: deque[int] = deque()
    for rows in _inputs(doc):
        for r in rows:
            if not seen[r]:
                seen[r] = True
                queue.append(r)
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return sum(seen)


def max_matching(adjacency: list[list[int]], right: int) -> int:
    """Hopcroft-Karp matching size; ``adjacency[i]`` lists right vertices."""
    left = len(adjacency)
    match_l = [-1] * left
    match_r = [-1] * right
    size = 0
    for i, nbrs in enumerate(adjacency):  # greedy start
        for j in nbrs:
            if match_r[j] < 0:
                match_l[i], match_r[j] = j, i
                size += 1
                break
    inf = left + 1
    while True:
        dist = [inf] * left
        queue = deque(i for i in range(left) if match_l[i] < 0)
        for i in queue:
            dist[i] = 0
        found = False
        while queue:
            i = queue.popleft()
            for j in adjacency[i]:
                k = match_r[j]
                if k < 0:
                    found = True
                elif dist[k] == inf:
                    dist[k] = dist[i] + 1
                    queue.append(k)
        if not found:
            return size
        progress = [0] * left
        for root in range(left):
            if match_l[root] >= 0:
                continue
            stack = [root]
            while stack:
                i = stack[-1]
                if progress[i] == len(adjacency[i]):
                    dist[i] = inf
                    stack.pop()
                    continue
                j = adjacency[i][progress[i]]
                progress[i] += 1
                k = match_r[j]
                if k < 0:
                    # augment along the stack
                    for depth in range(len(stack) - 1, -1, -1):
                        a = stack[depth]
                        prev = match_l[a]
                        match_l[a], match_r[j] = j, a
                        j = prev
                    size += 1
                    break
                if dist[k] == dist[i] + 1:
                    stack.append(k)


def facts(doc: dict) -> dict:
    """Oracle facts for one instance."""
    n = doc["n"]
    inputs = _inputs(doc)
    grank = max_matching(inputs + _state_tails(doc), n)
    input_rank = max_matching(inputs, n)
    reach = reachable_count(doc)
    return {
        "n": n,
        "reachable": reach,
        "generic_rank": grank,
        "controllable": reach == n and grank == n,
        "depth_needed": n - input_rank,
    }


def check_op(kind: str, family: str, out: dict, truth: dict,
             ref: dict | None) -> list[str]:
    """Every reason ``out`` is wrong; empty means the op is correct.

    ``truth`` comes from :func:`facts`, ``ref`` from the committed reference
    answers of the seed code (None for seeds without references).  A lower
    bound may rise above its reference but never fall below it.
    """
    bad = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    n, reach = truth["n"], truth["reachable"]
    lower, upper = out["lower"], out["upper"]
    expect(lower <= upper <= reach, f"bounds {lower}..{upper} vs reachable {reach}")
    if truth["depth_needed"] > LAYER_CAP:
        expect(not out["used_linking"], "linking used beyond the layer cap")
    if kind == "check":
        dim = out["dim"]
        expect(out["reachable"] == reach, f"reachable {out['reachable']} != {reach}")
        expect(out["generic_rank"] == truth["generic_rank"],
               f"generic_rank {out['generic_rank']} != {truth['generic_rank']}")
        expect(out["controllable"] == truth["controllable"], "controllable verdict")
        expect(lower <= dim <= upper, f"dim {dim} outside {lower}..{upper}")
        expect((dim == n) == truth["controllable"], f"dim {dim} vs verdict")
        if truth["controllable"]:
            expect(lower == upper == n, "controllable bounds not pinched at n")
        if family == "gapped":
            expect(dim < reach, f"gapped dim {dim} not below reachable {reach}")
        if family == "pinched":
            expect(truth["controllable"], "pinched instance not controllable")
    else:
        expect(out["conventional_lower"] <= lower,
               f"conventional lower {out['conventional_lower']} > lower {lower}")
    if ref is not None:
        for key in ("controllable", "generic_rank", "reachable", "dim", "upper"):
            if key in ref:
                expect(out[key] == ref[key], f"{key} {out[key]} != reference {ref[key]}")
        for key in ("lower", "conventional_lower"):
            if key in ref:
                expect(out[key] >= ref[key], f"{key} {out[key]} below reference {ref[key]}")
        if "linking" in ref:
            expect(upper == min(reach, ref["linking"]),
                   f"upper {upper} != min(reachable, linking {ref['linking']})")
    return bad
