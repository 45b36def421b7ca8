"""Reference answers: reference.json holds the seed code's answers per seed.

    PYTHONPATH=src python3 perfbench/reference.py 0 1 2 ...

rewrites the answers of the given seeds with those of the current code.

The committed file was made from the seed code.  Regenerate it only when a
change is meant to alter an answer, and say which answer and why.  A lower
bound may later rise above its reference without counting as a mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402
from worker import facts, run_op  # noqa: E402

PATH = HERE / "reference.json"
# answer fields per op kind, stored as one row per instance
FIELDS = {
    "check": ("controllable", "generic_rank", "reachable", "dim", "lower", "upper",
              "linking"),
    "bounds": ("lower", "conventional_lower", "upper"),
}


def answers(kind: str, text: str) -> dict:
    """The reference fields of one op's outputs, plus the linking size."""
    import swcactus

    structure = swcactus.parse_system(text)
    result = run_op(kind, structure)
    out = {k: v for k, v in facts(kind, result).items() if k in FIELDS[kind]}
    if kind == "check" and result.bounds.used_linking_bound:
        mdg = swcactus.build_mdg(structure, result.bounds.linking_layers)
        out["linking"] = swcactus.max_linking(mdg).size
    return out


def load(workload: str, seed: int, texts: list[str]) -> list[dict] | None:
    """The reference answers for these instances, or None for other seeds."""
    entry = json.loads(PATH.read_text())[workload].get(str(seed))
    if entry is None:
        return None
    if families.digest(texts) != entry["sha256"]:
        raise ValueError(f"instances for {workload} seed {seed} differ from the "
                         "ones the references were made from")
    fields = FIELDS[families.KIND[workload]]
    return [{k: v for k, v in zip(fields, row) if v is not None}
            for row in entry["answers"]]


def main(seeds: list[int]) -> None:
    refs = json.loads(PATH.read_text()) if PATH.exists() else {}
    for workload in families.WORKLOADS:
        fields = FIELDS[families.KIND[workload]]
        table = refs.setdefault(workload, {})
        for seed in seeds:
            texts = [families.serialize(rec["doc"])
                     for rec in families.instances(workload, seed)]
            rows = [answers(families.KIND[workload], t) for t in texts]
            table[str(seed)] = {
                "sha256": families.digest(texts),
                "answers": [[row.get(k) for k in fields] for row in rows],
            }
            print(f"{workload} seed {seed}: {len(texts)} answers", flush=True)
    PATH.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
