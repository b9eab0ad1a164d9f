"""Self-check: every workload at a tiny size, untraced and traced.

    python3 bench/selfcheck.py

Asserts that BENCHMARK.json keeps to the benchmark's format rules, that each
run reports every declared metric with its declared unit, and that no
operation fails (fail_frac is 0).  Takes well under a minute.
"""
from __future__ import annotations

import json
import os
import re

from run import HERE, measure, report
from workloads import WORKLOADS, makeOps

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 0   # not the default seed, so steinberg-mixed is checked by round trip


def tinyOps(workload: str) -> list[dict]:
    ops = makeOps(workload, SEED)
    if workload == "suite-sweep":
        return [op for op in ops if op["argv"][3] in ("A1", "A2")][:4]
    if workload == "rank4-eval":
        return [op for op in ops
                if "xclass" in op["key"] or op["key"].startswith("eval:D4:decomposeG")]
    small = {"kind": "steinberg", "type": "B3", "f": [[[1, -1, 0], 2], [[0, 0, -1], -1]]}
    return [dict(small, key="steinberg:B3:0:mixed", choices=["UNIT", "Q", "PSTAR"] * 16),
            dict(small, key="steinberg:B3:0:uniform", choices="Q")]


def checkFormat(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def main() -> int:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    checkFormat(bench)
    for workload in WORKLOADS:
        for trace in (0, 1):
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            run = measure(root, workload, SEED, 0, trace, ops=tinyOps(workload),
                          hotPasses=1, probes=(1, 1))
            result = report(run, declared)
            assert run["failures"] == [], run["failures"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            assert run["figures"]["fail_frac"] == 0
            for m in declared:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], (int, float)), (m, got)
            if not trace:
                assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
            print(f"ok {workload} trace={trace}: {result['attempted']} operations, "
                  f"{len(declared)} metrics")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
