"""demkit benchmark: one workload, measured in fresh child processes.

    python3 bench/run.py --workload suite-sweep [--seed 1] [--seconds 40] [--trace 0]

Run it from the root of a source tree that holds src/demkit.  The parent
makes the workload's operations from the seed and starts children one after
another (a closed loop with one client and one busy process): one, then
more while the next one is expected to end within --seconds.  Each child
builds its Weyl groups, runs a cold pass and hot passes over the operations and
reports per-operation times and output digests (see child.py).  Before
them, short children that only do the set-up give more samples of set-up
time.  Each time figure is built from per-operation medians over the run's
children (see timeFigures), in reference seconds: every duration is scaled
by the speed the child's probes saw around it (see child.py), so that the
host's drift in speed between runs cancels out.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics named in BENCHMARK.json.  With --trace 1 the first child runs
untraced and the rest run with the timing wrappers of tracer.py; the
metrics are then the per-layer ones, plus trace.overhead_frac.  Lines before
the last one give the environment and the figures BENCHMARK.json does not
declare, among them each time figure as measured, before scaling.  Full
results go to .bench_out/ under the source tree.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import DEFAULT_SEED, HOT_PASSES, WORKLOADS, makeOps, workloadTypes

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = (3, 9)    # at least 3 set-up-only children, more while under
SETUP_PROBE_S = 2.0      # 2 s in all; F4's group build alone is ~0.45 s
HARD_LIMIT_S = 170.0     # every run must end well inside 180 s


class BenchError(Exception):
    pass


def environment(root: str, workload: str, seed: int, trace: int) -> dict:
    src = os.path.join(root, "src", "demkit")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def runChild(root: str, outDir: str, spec: dict, deadline: float) -> dict | None:
    """Run one child to completion; None if it failed or ran out of time."""
    specPath = os.path.join(outDir, f"spec-{os.getpid()}.json")
    with open(specPath, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - perf_counter()
    try:
        if timeout <= 0:
            raise subprocess.TimeoutExpired("child", 0)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), specPath],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("bench: child ran out of time", file=sys.stderr)
        return None
    finally:
        os.unlink(specPath)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def loadDigests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def expectedDigests(digests: dict, workload: str, seed: int) -> dict:
    """Recorded sha256 per operation key.  Suite and eval outputs do not
    depend on the seed (it only orders them); Steinberg digests exist for
    the default seed, and other seeds rely on the round-trip rebuild."""
    if workload == "steinberg-mixed":
        rec = digests.get(workload, {})
        return rec.get("ops", {}) if rec.get("seed") == seed else {}
    return digests.get(workload, {})


def childSpec(types, ops, hotPasses, cacheDir, trace, spansPath, env) -> dict:
    """Spec for one measuring child; eval operations get the child's own
    fresh cache directory."""
    ops = [dict(op, argv=op["argv"] + ["--cache-dir", cacheDir])
           if op["kind"] == "cli" and op["argv"][0] == "eval" else op
           for op in ops]
    return {"types": types, "ops": ops, "hot_passes": hotPasses, "cache_dir": cacheDir,
            "trace": trace, "spans_path": spansPath, "env": env}


def checkChild(res: dict, expected: dict, needDigest: bool) -> list[str]:
    """Names every failed operation of one child, one entry per execution."""
    bad = []
    cold = {}
    for key, p, _, rc, sha, _ in res["records"]:
        if p == 0:
            cold[key] = sha
    for key, p, _, rc, sha, _ in res["records"]:
        if rc != 0:
            bad.append(f"{key} pass {p}: exit status {rc}")
        elif p > 0 and sha != cold[key]:
            bad.append(f"{key} pass {p}: hot output differs from cold output")
        elif key in expected and sha != expected[key]:
            bad.append(f"{key} pass {p}: output digest differs from the recorded one")
        elif needDigest and key not in expected:
            bad.append(f"{key} pass {p}: no recorded digest")
        elif res["round_trip"].get(key) is False:
            bad.append(f"{key} pass {p}: round-trip rebuild differs from the input")
    return bad


REF, MEASURED = 5, 2    # fields of a child's record: reference or measured seconds


def opMedians(children: list[dict], hot: bool, field: int) -> dict[str, float]:
    """Median duration of each operation: over the children's cold passes,
    or over every hot pass of every child.  A neighbour that slows the
    machine for a few seconds then moves few of the samples each median
    rests on."""
    samples: dict[str, list[float]] = {}
    for res in children:
        for rec in res["records"]:
            if (rec[1] > 0) == hot:
                samples.setdefault(rec[0], []).append(rec[field])
    return {key: statistics.median(durs) for key, durs in samples.items()}


def timeFigures(children: list[dict], hotPasses: int, field: int = REF) -> dict:
    """Time figures in reference seconds (see child.py), or with
    field=MEASURED in seconds as measured."""
    cold = opMedians(children, hot=False, field=field)
    hot = opMedians(children, hot=True, field=field)
    coldS, hotS = sum(cold.values()), sum(hot.values())
    return {
        "wall_s": coldS + hotPasses * hotS,
        "cold_pass_s": coldS,
        "hot_evals_per_s": len(hot) / hotS if hotS else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in children),
        "mixed_choice_s": sum(v for k, v in cold.items() if k.endswith(":mixed")),
        "uniform_choice_s": sum(v for k, v in cold.items() if k.endswith(":uniform")),
    }


def layerFigures(res: dict) -> dict:
    """The child's raw tracer totals and outside counts, under the metric
    names of BENCHMARK.json."""
    raw = dict(res["layers"])
    out = {k: v for k, v in raw.items() if k.endswith((".calls", ".self_s"))}
    out["weyl.build_s"] = raw["weyl.build.total_s"]
    for k in ("characters.mul.term_pairs", "characters.decomposeWeylBasis.irreducibles",
              "demazure.demStep.terms_in", "cache.get.hits", "cache.put.bytes"):
        out[k] = raw[k]
    calls = raw["demazure.charQ.calls"]
    out["demazure.charQ.hit_ratio"] = raw["demazure.charQ.hits"] / calls if calls else 0.0
    memo = res["memo"]
    for fam in ("dem", "h0", "Q", "Qhat"):
        out[f"demazure.memo.{fam}"] = memo[fam]
    out["steinberg.memo.stx_tables"] = memo["stx_tables"]
    out["steinberg.memo.stx_entries"] = memo["stx_entries"]
    out["cache.dir.files"] = res["cache_dir"]["files"]
    out["cache.dir.bytes"] = res["cache_dir"]["bytes"]
    return out


def measure(root: str, workload: str, seed: int, seconds: float, trace: int,
            ops: list[dict] | None = None, hotPasses: int | None = None,
            probes: tuple[int, int] = SETUP_PROBES) -> dict:
    """Runs the children of one benchmark run and returns every figure."""
    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    outDir = os.path.join(root, ".bench_out")
    os.makedirs(outDir, exist_ok=True)
    env = environment(root, workload, seed, trace)
    if ops is None:
        ops = makeOps(workload, seed)
    if hotPasses is None:
        hotPasses = HOT_PASSES[workload]
    types = list(workloadTypes(workload))
    tag = f"{workload}-seed{seed}-trace{trace}"
    expected = expectedDigests(loadDigests(), workload, seed)
    needDigest = workload != "steinberg-mixed"

    setups, untraced, traced, failures = [], [], [], []
    attempted = failed = 0
    lo, hi = (0, 0) if trace else probes
    while len(setups) < hi and (len(setups) < lo or perf_counter() - start < SETUP_PROBE_S):
        res = runChild(root, outDir, {"types": types, "setup_only": True, "trace": False},
                       deadline)
        if res is None:
            raise BenchError("set-up child failed")
        setups.append([res["setup_s"], res["ref_setup_s"]])

    n = 0
    while True:
        traceThis = bool(trace) and n > 0
        t0 = perf_counter()
        cacheDir = os.path.join(outDir, f"cache-{os.getpid()}-{n}")
        spansPath = os.path.join(outDir, f"spans-{tag}.json") if traceThis else None
        spec = childSpec(types, ops, hotPasses, cacheDir, traceThis, spansPath, env)
        res = runChild(root, outDir, spec, deadline)
        shutil.rmtree(cacheDir, ignore_errors=True)
        n += 1
        count = len(ops) * (1 + hotPasses)
        attempted += count
        if res is None:
            failed += count
            failures.append(f"child {n} did not finish: all {count} operations count as failed")
            break
        bad = checkChild(res, expected, needDigest)
        failed += len(bad)
        failures += bad + [f"child {n}: {e}" for e in res["errors"]]
        if traceThis:
            traced.append(res)
        else:
            setups.append([res["setup_s"], res["ref_setup_s"]])
            untraced.append(res)
        # One measuring child, then more while the next one should end
        # within --seconds.
        enough = traced if trace else untraced
        if enough and perf_counter() - start + (perf_counter() - t0) > seconds:
            break

    figures = {}
    if untraced:
        figures = timeFigures(untraced, hotPasses)
        figures["setup_s"] = statistics.median(ref for _, ref in setups)
        measured = dict(timeFigures(untraced, hotPasses, MEASURED),
                        setup_s=statistics.median(s for s, _ in setups))
        figures.update({f"measured.{k}": v for k, v in measured.items() if k != "peak_rss_mb"})
        figures["host.probe_s"] = statistics.median(r["probe_s"] for r in untraced)
    figures["fail_frac"] = failed / attempted if attempted else 1.0
    layers = {}
    if traced and untraced:
        per = [layerFigures(r) for r in traced]
        layers = {k: statistics.median(p[k] for p in per) for k in per[0]}
        tracedWall = timeFigures(traced, hotPasses)["wall_s"]
        layers["trace.overhead_frac"] = tracedWall / figures["wall_s"] - 1.0
    return {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "figures": figures,
        "layers": layers,
        "children": {"setup": setups,
                     "untraced": [timeFigures([r], hotPasses) for r in untraced],
                     "traced": [timeFigures([r], hotPasses) for r in traced]},
        "elapsed_s": perf_counter() - start,
        "record_path": os.path.join(outDir, f"result-{tag}.json"),
    }


def report(run: dict, declared: list[dict]) -> dict:
    """The final JSON object: every declared metric with its unit."""
    values = dict(run["figures"], **run["layers"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


# Figures printed with the rest but not declared in BENCHMARK.json, where an
# end-to-end metric must exist, nonzero, on every workload.  The time
# figures also appear as measured, before scaling to reference seconds,
# under "measured.", and host.probe_s is the median time of a speed probe.
EXTRA_UNITS = {"fail_frac": "ratio", "mixed_choice_s": "s", "uniform_choice_s": "s",
               "host.probe_s": "s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "demkit", "__init__.py")):
        print(f"bench: no src/demkit under {root}; run from a demkit source tree",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    try:
        run = measure(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    if not run["figures"].get("wall_s") or (args.trace and not run["layers"]):
        print("bench: no child completed; nothing to report", file=sys.stderr)
        for f in run["failures"][:20]:
            print(f"  {f}", file=sys.stderr)
        return 1
    result = report(run, declared)
    with open(run["record_path"], "w") as fh:
        json.dump(dict(run, result=result), fh, indent=1)

    print("env " + json.dumps(run["env"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    for name, value in sorted(dict(run["figures"], **run["layers"]).items()):
        base = name.removeprefix("measured.")
        unit = units.get(base) or ("count" if name.endswith(".calls") else "s")
        print(f"metric {name} {value:.6g} {unit}")
    for f in run["failures"][:20]:
        print(f"FAILED {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
