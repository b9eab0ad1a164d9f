"""One fresh Python process running one cycle of a workload.

    python3 bench/child.py SPEC.json

The spec (written by run.py) lists the operations.  The child imports demkit
and builds the Weyl groups it needs (the set-up), runs every operation once
(the cold pass) and then the whole list again `hot_passes` times in the same
process, one operation at a time.  Only the calls into demkit are timed.
Output digests, memo sizes, cache-directory counts and the Steinberg
round-trip rebuild are taken outside the timed regions, after the passes.
The result is one JSON object on the last line of stdout.

During the passes, every PROBE_EVERY_S seconds of wall time, an interval
timer interrupts the child to time a speed probe: a fixed piece of
demkit-free Python work.  The shared host's speed drifts by 20-40 % over
seconds to minutes, and the probe slows with it.  Every time is reported
twice: as measured, and scaled to reference seconds, the time it would have
taken at the speed where the probe takes PROBE_REF_S (see Probes.scale).
Time spent in probes is left out of both.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

PROBE_EVERY_S = 0.25     # interval of the probe timer
PROBE_REF_S = 0.01       # probe time that defines a reference second
PROBE_WINDOW_S = 0.5     # probes this close to an operation scale its time
PROBES_IN_BURST = 3      # probes in a row before and after the group builds


def _probe() -> float:
    """Times a fixed piece of work of the kinds demkit does: tuple-keyed
    dicts, Fraction arithmetic and JSON encoding.  About 10 ms.  The cyclic
    garbage collector is off meanwhile, or its passes over the child's
    growing heap would slow the probe as well as the host."""
    from fractions import Fraction   # imported by demkit; not part of the set-up time

    gcWasOn = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    acc = {}
    for i in range(700):
        key = (i % 17, i % 13, i % 11)
        acc[key] = acc.get(key, 0) + Fraction(i, 7)
    json.dumps([[list(k), str(v)] for k, v in acc.items()] * 20)
    dur = perf_counter() - t0
    if gcWasOn:
        gc.enable()
    return dur


class Probes:
    """Speed probes of one child: (start, end, seconds) of each.  A burst
    before and after the set-up's group builds, then one per tick of an
    interval timer, so that an operation lasting seconds is probed within
    as well as around.  Probing only between operations read the speed of
    such an operation worse than not probing at all."""

    def __init__(self):
        _probe()            # first use warms the code paths; not recorded
        self.samples = []
        self.busy = False
        self.burst()

    def burst(self) -> None:
        for _ in range(PROBES_IN_BURST):
            self._take()

    def _take(self) -> None:
        t0 = perf_counter()
        dur = _probe()
        self.samples.append((t0, t0 + dur, dur))

    def _onTick(self, signum, frame) -> None:
        if not self.busy:   # a tick during a slow probe is dropped
            self.busy = True
            self._take()
            self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._onTick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, start: float, end: float) -> float:
        """Seconds spent probing inside [start, end]."""
        return sum(d for s, e, d in self.samples if s >= start and e <= end)

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured over [start, end] to reference
        seconds: PROBE_REF_S over the median time of the probes within
        PROBE_WINDOW_S of the span.  The median, because now and then a
        probe reads 20 % or more off its neighbours."""
        near = [d for s, e, d in self.samples
                if e >= start - PROBE_WINDOW_S and s <= end + PROBE_WINDOW_S]
        return PROBE_REF_S / statistics.median(near)


def _runCli(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:   # report and count; keep the loop going
            rc = f"{type(e).__name__}: {e}"
        end = perf_counter()
    return start, end, rc, out.getvalue().encode(), err.getvalue()


def _canonical(decomp: dict) -> bytes:
    """Canonical JSON of a steinbergDecompose result."""
    rows = [[v, [[list(w), c] for w, c in sorted(g.items())]]
            for v, g in sorted(decomp.items())]
    return json.dumps(rows, separators=(",", ":")).encode()


def _memoCounts(groups) -> dict[str, int]:
    out = {"dem": 0, "h0": 0, "Q": 0, "Qhat": 0, "stx_tables": 0, "stx_entries": 0}
    for W in groups:
        memo = getattr(W, "memo", None)
        if not isinstance(memo, dict):
            continue
        for key, val in memo.items():
            tag = key[0] if isinstance(key, tuple) and key else None
            if tag == "stx":
                out["stx_tables"] += 1
                out["stx_entries"] += len(val)
            elif tag in out:
                out[tag] += 1
    return out


def _dirCounts(path: str | None) -> dict[str, int]:
    files = size = 0
    if path and os.path.isdir(path):
        for entry in os.scandir(path):
            if entry.is_file():
                files += 1
                size += entry.stat().st_size
    return {"files": files, "bytes": size}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    setupStart = perf_counter()
    import demkit
    import demkit.cli
    importS = perf_counter() - setupStart

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # The set-up's speed is read from probes just before and just after the
    # group builds, outside the time it is measured by.
    probes = Probes()
    t0 = perf_counter()
    groups = {t: demkit.weylGroup(t) for t in spec["types"]}
    setupSpan = (t0, perf_counter())
    setupS = importS + setupSpan[1] - t0
    probes.burst()
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setupS, "ref_setup_s": setupS * probes.scale(*setupSpan)}))
        return 0

    # Inputs are turned into library objects before any timing starts.
    prepared = []
    for op in spec["ops"]:
        if op["kind"] == "steinberg":
            W = groups[op["type"]]
            f = demkit.Character({tuple(w): c for w, c in op["f"]})
            ch = op["choices"]
            choices = (demkit.uniformChoices(W, ch) if isinstance(ch, str)
                       else dict(enumerate(ch)))
            prepared.append((op, W, f, choices))
        else:
            prepared.append((op, None, None, None))

    records = []          # [key, pass, seconds, exit status, sha256, start, end]
    coldResults = {}      # key -> steinbergDecompose result, kept for the rebuild
    errors = []
    probes.start()
    for p in range(1 + spec["hot_passes"]):
        for i, (op, W, f, choices) in enumerate(prepared):
            if tracer:
                tracer.op = p * len(prepared) + i
            if op["kind"] == "cli":
                start, end, rc, out, err = _runCli(demkit.cli, op["argv"])
                if rc != 0 and len(errors) < 5:
                    errors.append(f"{op['key']}: exit {rc}: {err.strip()[-300:]}")
            else:
                start = perf_counter()
                try:
                    res = demkit.steinbergDecompose(W, f, choices)
                    rc = 0
                except Exception as e:   # report and count; keep the loop going
                    rc, res = f"{type(e).__name__}: {e}", {}
                end = perf_counter()
                if rc != 0 and len(errors) < 5:
                    errors.append(f"{op['key']}: {rc}"[:300])
                out = _canonical(res)
                if p == 0:
                    coldResults[op["key"]] = res
            dur = end - start - probes.within(start, end)
            records.append([op["key"], p, dur, rc, hashlib.sha256(out).hexdigest(), start, end])
    probes.stop()
    # [key, pass, seconds, exit status, sha256, reference seconds]
    records = [r[:5] + [r[2] * probes.scale(r[5], r[6])] for r in records]

    result = {"setup_s": setupS, "ref_setup_s": setupS * probes.scale(*setupSpan)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["memo"] = _memoCounts(groups.values())
    result["cache_dir"] = _dirCounts(spec.get("cache_dir"))
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layerMetrics()
        if spec.get("spans_path"):
            tracer.writeSpans(spec["spans_path"], {"env": spec.get("env", {})})

    # Round-trip rebuild: sum over v of (coefficient as a character) times
    # the basis character at v gives back f, as tests/test_steinberg.py does.
    roundTrip = {}
    for op, W, f, choices in prepared:
        res = coldResults.get(op["key"])
        if res is None:
            continue
        back = demkit.Character.zero()
        for v, coeffs in res.items():
            back = back + demkit.expandGClass(W, coeffs) * demkit.basisCharacter(W, v, choices[v])
        roundTrip[op["key"]] = back == f

    result["records"] = records
    result["probe_s"] = statistics.median(d for _, _, d in probes.samples)
    result["round_trip"] = roundTrip
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
