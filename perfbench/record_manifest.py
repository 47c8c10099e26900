"""Record manifest.json: what each workload slot printed at the seed commit.

    python3 perfbench/record_manifest.py

Runs every invocation of every workload once, as a cold subprocess, for
seeds 0, 1 and 2, and keeps per slot the expected exit code, the contract
errors seen (``seed_errors``), the sorted (name, tolerance, pass) checks and
the CSV header and row count.  Fails if the seeds disagree, since the
generator may only draw values that leave this shape unchanged.  Run it only
on the commit whose behaviour the benchmark pins.
"""

from __future__ import annotations

import json
import sys

from run import child_env, negspin_cmd, spawn
from validate import MANIFEST_PATH, observe
from workloads import WORKLOADS, generate

SEEDS = (0, 1, 2)


def record(workload: str, seed: int, env: dict) -> dict:
    slots = {}
    for inv in generate(workload, seed):
        _, code, out, err, _ = spawn(negspin_cmd(inv.argv), env)
        errors, shape = observe(inv.expect, inv.fmt, code, out, err)
        slots[inv.slot] = {"expect": inv.expect, "seed_errors": errors, **shape}
    return slots


def main() -> int:
    env = child_env()
    manifest = {}
    for workload in WORKLOADS:
        runs = [record(workload, seed, env) for seed in SEEDS]
        for seed, slots in zip(SEEDS[1:], runs[1:]):
            if slots != runs[0]:
                diff = [s for s in slots if slots[s] != runs[0].get(s)]
                print(f"error: {workload} seed {seed} differs from seed 0 in {diff}",
                      file=sys.stderr)
                return 1
        manifest[workload] = runs[0]
        for slot, entry in runs[0].items():
            print(f"{workload}/{slot}: {entry['seed_errors'] or 'ok'}")
    # one line per slot keeps the file short and its diffs readable
    blocks = []
    for workload, slots in manifest.items():
        body = ",\n".join(f"  {json.dumps(slot)}: {json.dumps(entry)}" for slot, entry in slots.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    MANIFEST_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
