"""Record the output digests that run.py checks every operation against.

    python3 bench/record_digests.py

Runs each workload's operations once at the default seed in a fresh child
and writes bench/digests.json: the sha256 of every suite report and eval
payload as printed on stdout, and of the canonical JSON of every
steinbergDecompose result.  It refuses to record an operation whose exit
status is not 0 or whose Steinberg result does not rebuild its input.
Re-record only when an output is meant to change.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from time import perf_counter

from run import HERE, childSpec, runChild
from workloads import DEFAULT_SEED, WORKLOADS, makeOps, workloadTypes


def main() -> int:
    root = os.path.dirname(HERE)
    outDir = os.path.join(root, ".bench_out")
    os.makedirs(outDir, exist_ok=True)
    digests = {}
    for workload in WORKLOADS:
        cacheDir = os.path.join(outDir, f"cache-record-{os.getpid()}")
        ops = makeOps(workload, DEFAULT_SEED)
        spec = childSpec(list(workloadTypes(workload)), ops, 0, cacheDir, False, None, {})
        res = runChild(root, outDir, spec, perf_counter() + 900)
        shutil.rmtree(cacheDir, ignore_errors=True)
        if res is None:
            print(f"{workload}: child failed", file=sys.stderr)
            return 1
        bad = [key for key, _, _, rc, _, _ in res["records"]
               if rc != 0 or res["round_trip"].get(key) is False]
        if bad:
            print(f"{workload}: not recording, failed: {bad}", file=sys.stderr)
            return 1
        shas = {key: sha for key, _, _, _, sha, _ in res["records"]}
        digests[workload] = ({"seed": DEFAULT_SEED, "ops": shas}
                             if workload == "steinberg-mixed" else shas)
        print(f"{workload}: {len(shas)} digests")
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
