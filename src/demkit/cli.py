"""Command line front end.

Two commands:

    demkit eval  EXPR   --type A2 [--format pretty]
    demkit suite NAME   --type B2 [--parabolic 1] [--out report.json]

Suite reports are JSON by default; every check row carries a name, a status,
and a witness string that is empty on success and pinpoints the first
counterexample otherwise.  The process exits 0 only if every check passed.

Results are re-derivable, so caching is safe: pass --cache-dir (or set the
DEMKIT_CACHE environment variable) to reuse previous runs.  Output bytes are
identical with the cache hot, cold, or disabled.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys as _sys

from . import __version__
from . import demazure as dz
from . import ktheory as kt
from .cache import DiskCache
from .characters import (
    Character,
    _formatTerms,
    charFromJSON,
    charToJSON,
    compact,
    gexpToJSON,
)
from .exprlang import EvalContext, ParseError, asciiInt, clip, evalExpr, parse, printExpr
from .weyl import WeylGroup, weylGroup

SEED = 20260819

RANK2 = ("A2", "B2", "G2")


class UsageError(Exception):
    pass


# -- context construction ------------------------------------------------------


def _parseParabolic(spec: str | None, rank: int) -> tuple[int, ...]:
    if spec is None or spec.strip() == "":
        return ()
    out = []
    for part in spec.split(","):
        part = part.strip()
        k = asciiInt(part)
        if k is None:
            raise UsageError(f"--parabolic expects 1-based indices, got {clip(part)!r}")
        if not 1 <= k <= rank:
            raise UsageError(f"--parabolic index {clip(str(k))} out of range 1..{rank}")
        out.append(k - 1)
    return tuple(sorted(set(out)))


def _parseWord(text: str, W: WeylGroup, where: str) -> int:
    w = 0
    if text == "e":
        return w
    for tok in text.split():
        k = asciiInt(tok[1:]) if tok[0] == "s" else None
        if k is None:
            raise UsageError(f"{where}: bad word letter {clip(tok)!r}")
        if not 1 <= k <= W.sys.rank:
            raise UsageError(f"{where}: letter {clip(tok)} out of range for {W.sys.name}")
        w = W.rmul(w, k - 1)
    return w


def _loadOrder(path: str, W: WeylGroup) -> list[int]:
    """One element per line, written as a word; must list the whole group in
    an order that refines Bruhat order."""
    order = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            order.append(_parseWord(line, W, f"{path}:{lineno}"))
    if sorted(order) != list(W.elements()):
        raise UsageError(f"{path}: not a permutation of all {W.size} elements")
    pos = {w: k for k, w in enumerate(order)}
    for u in W.elements():
        for w in W.elements():
            if u != w and W.bruhatLeq(u, w) and pos[u] > pos[w]:
                raise UsageError(
                    f"{path}: order is not Bruhat-refining "
                    f"({kt.wordStr(W, u)} must come before {kt.wordStr(W, w)})")
    return order


def _orderSig(W: WeylGroup, order: list[int] | None):
    if order is None:
        return "default"
    return [kt.wordStr(W, w) for w in order]


# -- random data for sampled suites ---------------------------------------------


def randomCharacters(W: WeylGroup, rng: random.Random, count: int) -> list[Character]:
    rank = W.sys.rank
    out = []
    for _ in range(count):
        terms = {}
        while len(terms) < 4:
            w = tuple(rng.randint(-2, 2) for _ in range(rank))
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[w] = c
        out.append(Character(terms))
    return out


# -- suites ---------------------------------------------------------------------


def _suiteQEquivalence(W: WeylGroup):
    checks = []
    ok, witness = True, ""
    for v in W.elements():
        lam = W.steinbergWeight(v)
        if dz.charQ(W, lam) != dz.charQviaTwist(W, lam):
            ok, witness = False, f"steinberg weight {lam}"
    checks.append(("q-twist-on-steinberg-weights", ok, witness))
    ok, witness = True, ""
    for lam in itertools.product(range(-2, 2), repeat=W.sys.rank):
        if dz.charQ(W, lam) != dz.charQviaTwist(W, lam):
            ok, witness = False, str(lam)
    checks.append(("q-twist-on-grid", ok, witness))
    return checks, {}


def _suiteIndPQ(W: WeylGroup):
    m = kt.indPQMatrix(W)
    return kt.indPQCheck(W, m), {"matrix": kt.matrixToJSON(W, m)}


def _suiteTriang(W: WeylGroup, rng: random.Random):
    vs = list(W.elements())
    extras = {}
    if W.sys.rank <= 2:
        ws = vs
    else:
        ws = sorted(rng.sample(vs, 12))
        extras["sampledColumns"] = [kt.wordStr(W, w) for w in ws]
    return kt.triangularityChecks(W, vs, ws), extras


def _suiteXclassGram(W: WeylGroup, order):
    table = kt.gramTable(W, order)
    checks, below = kt.gramCheck(W, order, table)
    extras = {
        "belowDiagonalNonzero": sum(1 for g in below.values() if g),
        "sameLengthPairs": kt.sameLengthPairReport(W, order, table),
    }
    return checks, extras


def _suiteDualConjecture(W: WeylGroup):
    rows = []
    ok, witness = True, ""
    for v in W.elements():
        try:
            rows.append(kt.dualConjectureCheck(W, v))
        except AssertionError as e:
            ok, witness = False, str(e)
    holds = sum(1 for r in rows if r["conjectureHolds"])
    checks = [("dual-sign-identity", ok, witness)]
    extras = {"rows": rows, "conjectureHoldsCount": holds, "elements": W.size}
    return checks, extras


def _suiteWordIndependence(W: WeylGroup, rng: random.Random):
    chars = randomCharacters(W, rng, 20)
    ok, witness = True, ""
    pairs = 0
    if W.sys.name in RANK2:
        for w in W.elements():
            words = W.reducedWords(w)
            if len(words) < 2:
                continue
            for f in chars:
                base = dz.demWord(W, words[0], f)
                for word in words[1:]:
                    pairs += 1
                    if dz.demWord(W, word, f) != base:
                        ok, witness = False, f"{kt.wordStr(W, w)} word {word}"
    else:
        eligible = [w for w in W.elements() if W.length[w] >= 2]
        for _ in range(100):
            w = rng.choice(eligible)
            a = W.randomReducedWord(w, rng)
            b = W.randomReducedWord(w, rng)
            for _ in range(10):
                if b != a:
                    break
                b = W.randomReducedWord(w, rng)
            pairs += 1
            for f in chars:
                if dz.demWord(W, a, f) != dz.demWord(W, b, f):
                    ok, witness = False, f"{kt.wordStr(W, w)}: {a} vs {b}"
    return [("word-independence", ok, witness)], {"comparisons": pairs}


def _types(*names: str):
    return lambda W: (None if W.sys.name in names
                      else f"supports {', '.join(names)}; got {W.sys.name}")


def _maxSize(n: int):
    return lambda W: None if W.size <= n else f"needs |W| <= {n}; {W.sys.name} has {W.size}"


def _maxRank(r: int):
    return lambda W: None if W.sys.rank <= r else f"supports rank <= {r}; got {W.sys.name}"


# name -> (gate, runner).  A gate returns None for a Weyl group the suite
# accepts and otherwise the reason it does not; a runner takes
# (W, piP, order, rng) and returns (checks, extras).
SUITES = {
    "steinberg-lists": (
        _types(*RANK2), lambda W, *_: (kt.steinbergListCheck(W), {})),
    "tensor-decomp": (
        _types(*RANK2), lambda W, *_: (kt.tensorDecompCheck(W), {})),
    "q-equivalence": (
        _types(*RANK2, "A3", "B3", "C3"), lambda W, *_: _suiteQEquivalence(W)),
    "indpq-triangular": (
        _maxSize(48), lambda W, *_: _suiteIndPQ(W)),
    "triang-alphabeta": (
        _maxSize(48), lambda W, piP, order, rng: _suiteTriang(W, rng)),
    "orthogonality": (
        _maxRank(2), lambda W, *_: (kt.orthogonalityCheck(W), {})),
    "xclass-gram": (
        _maxRank(3), lambda W, piP, order, rng: _suiteXclassGram(W, order)),
    "parabolic": (
        _maxRank(3), lambda W, piP, order, rng: (
            kt.parabolicChecks(W, piP, order),
            {"minimalReps": len(W.parabolicData(piP)[1])})),
    "rank2-bundles": (
        _types(*RANK2), lambda W, *_: (kt.rank2BundleChecks(W), {})),
    "dual-conjecture-report": (
        _maxRank(3), lambda W, *_: _suiteDualConjecture(W)),
    "word-independence": (
        _types(*RANK2, "B3"), lambda W, piP, order, rng: _suiteWordIndependence(W, rng)),
}


def runSuite(name: str, W: WeylGroup, piP, order):
    """Returns (checks, extras); checks is a list of (name, ok, witness)."""
    gate, runner = SUITES[name]
    refusal = gate(W)
    if refusal is not None:
        raise UsageError(f"suite {name} {refusal}")
    return runner(W, piP, order, random.Random(SEED))


# -- rendering --------------------------------------------------------------------


def _renderEval(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    key, symbol = ("weight", "chi") if payload["kind"] == "gexp" else ("w", "e")
    pairs = [(d[key], d["c"]) for d in payload["value"]]
    if fmt == "csv":
        lines = ["weight,coeff"]
        lines += ['"[%s]",%d' % (",".join(str(x) for x in w), c) for w, c in pairs]
        return "\n".join(lines) + "\n"
    return _formatTerms(pairs, symbol, tight=False) + "\n"


def _renderSuite(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        if "matrix" in report:
            m = report["matrix"]
            lines = ["," + ",".join(m["cols"])]
            for r, row in zip(m["rows"], m["entries"]):
                cells = [compact(charFromJSON(cell)) for cell in row]
                lines.append(r + "," + ",".join(cells))
            return "\n".join(lines) + "\n"
        lines = ["name,status,witness"]
        lines += ['%s,%s,"%s"' % (c["name"], c["status"], c["witness"])
                  for c in report["checks"]]
        return "\n".join(lines) + "\n"
    lines = []
    for c in report["checks"]:
        tag = "PASS" if c["status"] == "pass" else "FAIL"
        tail = f"  [{c['witness']}]" if c["witness"] else ""
        lines.append(f"{tag}  {c['name']}{tail}")
    n = len(report["checks"])
    bad = len(report["failures"])
    lines.append(f"{n - bad}/{n} checks passed ({report['suite']}, {report['context']['type']})")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


# -- entry point ------------------------------------------------------------------


def _addCommon(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True, metavar="NAME",
                   help="root system, e.g. A2, B3, G2, F4")
    p.add_argument("--parabolic", metavar="IDX", default=None,
                   help="comma-separated 1-based simple reflection indices")
    p.add_argument("--order-file", metavar="PATH", default=None,
                   help="total order on the Weyl group, one word per line")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.add_argument("--cache-dir", metavar="PATH", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--out", metavar="PATH", default=None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="demkit",
        description="exact character computations and verification suites")
    sub = ap.add_subparsers(dest="command", required=True)
    pe = sub.add_parser("eval", help="evaluate a character expression")
    pe.add_argument("expr")
    _addCommon(pe)
    ps = sub.add_parser("suite", help="run a verification suite")
    ps.add_argument("name", choices=SUITES)
    _addCommon(ps)
    args = ap.parse_args(argv)

    try:
        try:
            W = weylGroup(args.type)
        except (KeyError, ValueError):
            raise UsageError(f"unknown root system {clip(args.type)!r}")
        piP = _parseParabolic(args.parabolic, W.sys.rank)
        order = _loadOrder(args.order_file, W) if args.order_file else None
        root = None if args.no_cache else (args.cache_dir or os.environ.get("DEMKIT_CACHE"))
        cache = DiskCache(root)

        if args.command == "eval":
            return _runEval(args, W, piP, order, cache)
        return _runSuite(args, W, piP, order, cache)
    except UsageError as e:
        print(f"demkit: {e}", file=_sys.stderr)
        return 2


# The top-level keys of a suite report.  A cache entry of any other shape
# than the one a command writes is a miss: it is recomputed and overwritten.
# Only the top level is checked, which keeps hot reads cheap.
REPORT_KEYS = frozenset(("suite", "context", "checks", "failures", "seed", "version"))


def _runEval(args, W, piP, order, cache: DiskCache) -> int:
    try:
        node = parse(args.expr)
    except ParseError as e:
        print(f"demkit: {e}", file=_sys.stderr)
        return 2
    params = {"expr": printExpr(node), "parabolic": list(piP),
              "order": _orderSig(W, order)}
    key = cache.key(W.sys.name, W.sys.rank, "eval", params)
    payload = cache.get(key)
    if not (isinstance(payload, dict) and payload.get("kind") in ("char", "gexp")
            and isinstance(payload.get("value"), list)):
        try:
            value = evalExpr(node, EvalContext(W, piP, order))
        except ValueError as e:
            print(f"demkit: {e}", file=_sys.stderr)
            return 2
        if isinstance(value, Character):
            payload = {"kind": "char", "value": charToJSON(value)}
        else:
            payload = {"kind": "gexp", "value": gexpToJSON(value)}
        cache.put(key, payload)
    _emit(_renderEval(payload, args.format), args.out)
    return 0


def _runSuite(args, W, piP, order, cache: DiskCache) -> int:
    params = {"parabolic": list(piP), "order": _orderSig(W, order), "seed": SEED}
    key = cache.key(W.sys.name, W.sys.rank, f"suite:{args.name}", params)
    report = cache.get(key)
    if not (isinstance(report, dict) and REPORT_KEYS <= report.keys()):
        checks, extras = runSuite(args.name, W, piP, order)
        rows = [{"name": n, "status": "pass" if ok else "fail", "witness": wit}
                for n, ok, wit in checks]
        report = {
            "suite": args.name,
            "context": {
                "type": W.sys.name,
                "parabolic": [i + 1 for i in piP],
                "order": "default" if order is None else "custom",
            },
            "checks": rows,
            "failures": [r["name"] for r in rows if r["status"] == "fail"],
            "seed": SEED,
            "version": __version__,
        }
        report.update(extras)
        cache.put(key, report)
    _emit(_renderSuite(report, args.format), args.out)
    return 0 if not report["failures"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
