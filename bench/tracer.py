"""Timing wrappers installed around demkit's layers from outside the package.

Each wrapped function records a span (id, parent id, operation index, name,
start, end) and adds to per-name totals: calls, inclusive time and self time,
where self time is the span's duration minus the time its child spans cover.
Nothing under src/ changes; the wrappers are swapped into every module
binding and class attribute through which callers look the function up, so
`from .demazure import demStep` in ktheory is traced as well as
`demazure.demStep` itself.

Spans stay in memory and are written out when the child ends.  Only spans of
at least KEEP_S seconds are kept, which keeps the span tree whole (a parent
always lasts longer than its children) while bounding memory on the
millions of short calls a rank-4 product makes.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

KEEP_S = 0.001
MAX_SPANS = 200_000

# (module, owner, attribute, span name).  owner is a class name or None for a
# module-level function.
TARGETS = (
    ("demkit.weyl", "WeylGroup", "__init__", "weyl.build"),
    ("demkit.weyl", "WeylGroup", "toDominant", "weyl.toDominant"),
    ("demkit.rootsystem", None, "norm2", "rootsystem.norm2"),
    ("demkit.characters", "Character", "__mul__", "characters.mul"),
    ("demkit.characters", "Character", "__add__", "characters.add"),
    ("demkit.characters", None, "decomposeWeylBasis", "characters.decomposeWeylBasis"),
    ("demkit.demazure", None, "demStep", "demazure.demStep"),
    ("demkit.demazure", None, "charQ", "demazure.charQ"),
    ("demkit.steinberg", None, "steinbergDecomposeChar", "steinberg.steinbergDecomposeChar"),
    ("demkit.steinberg", None, "antipodalLeq", "steinberg.antipodalLeq"),
    ("demkit.steinberg", None, "excellentLeq", "steinberg.excellentLeq"),
    ("demkit.ktheory", None, "eulerPair", "ktheory.eulerPair"),
    ("demkit.ktheory", None, "xClass", "ktheory.xClass"),
    ("demkit.ktheory", None, "alphaEntry", "ktheory.alphaEntry"),
    ("demkit.ktheory", None, "betaEntry", "ktheory.betaEntry"),
    ("demkit.exprlang", None, "parse", "exprlang.parse"),
    ("demkit.exprlang", None, "evalExpr", "exprlang.evalExpr"),
    ("demkit.cache", "DiskCache", "get", "cache.get"),
    ("demkit.cache", "DiskCache", "put", "cache.put"),
    ("demkit.cli", None, "main", "cli.main"),
    ("demkit.cli", None, "runSuite", "cli.runSuite"),
)


def _mulPairs(args) -> int:
    a, b = args[0], args[1]
    return len(a.terms) * len(b.terms) if hasattr(b, "terms") else 0


def _charQHit(args) -> int:
    W, lam = args[0], args[1]
    memo = getattr(W, "memo", None)
    return int(isinstance(memo, dict) and ("Q", tuple(lam)) in memo)


def _putBytes(args) -> int:
    cache, key = args[0], args[1]
    try:
        return os.path.getsize(os.path.join(cache.root, key + ".json"))
    except (OSError, TypeError):
        return 0


# Work counts taken at the span boundary: name -> (counter, before-call
# function of the arguments) or (counter, after-call function of arguments
# and result).
BEFORE = {
    "characters.mul": ("term_pairs", _mulPairs),
    "demazure.demStep": ("terms_in", lambda args: len(args[2].terms)),
    "demazure.charQ": ("hits", _charQHit),
}
AFTER = {
    "characters.decomposeWeylBasis": ("irreducibles", lambda args, r: len(r)),
    "cache.get": ("hits", lambda args, r: int(r is not None)),
    "cache.put": ("bytes", lambda args, r: _putBytes(args)),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}      # "name.counter" -> value
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1                          # index of the current operation
        self._stack: list[list] = []          # [span id, time covered by children]
        self._nextId = 1
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        before = BEFORE.get(name)
        after = AFTER.get(name)
        for extra in (before, after):
            if extra:
                self.counts.setdefault(f"{name}.{extra[0]}", 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if before:
                tracer.counts[f"{name}.{before[0]}"] += before[1](args)
            sid = tracer._nextId
            tracer._nextId = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if dur >= KEEP_S:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((sid, parent, tracer.op, name, t0, t1))
                    else:
                        tracer.dropped += 1
            if after:
                tracer.counts[f"{name}.{after[0]}"] += after[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "demkit" or n.startswith("demkit."))]
        for modName, owner, attr, name in TARGETS:
            mod = sys.modules[modName]
            holder = getattr(mod, owner) if owner else mod
            orig = getattr(holder, attr)
            wrapped = self.wrap(name, orig)
            places = [holder] if owner else mods
            for place in places:
                for key, val in list(vars(place).items()):
                    if val is orig:
                        self._restore.append((place, key, orig))
                        setattr(place, key, wrapped)

    def uninstall(self) -> None:
        for place, key, orig in reversed(self._restore):
            setattr(place, key, orig)
        self._restore.clear()

    def layerMetrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        return out

    def writeSpans(self, path: str, header: dict) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(header)
        doc["fields"] = ["id", "parent", "op", "name", "start_s", "end_s"]
        doc["names"] = names
        doc["keep_s"] = KEEP_S
        doc["dropped"] = self.dropped
        doc["spans"] = [[sid, parent, op, index[name], round(t0, 7), round(t1, 7)]
                        for sid, parent, op, name, t0, t1 in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
