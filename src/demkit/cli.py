"""Command line front end.

Two commands:

    demkit eval  EXPR   --type A2 [--format pretty]
    demkit suite NAME   --type B2 [--parabolic 1] [--out report.json]

Suite reports are JSON by default; every check row carries a name, a status,
and a witness string that is empty on success and otherwise names the last
failure in scan order (ktheory.verdict).  The process exits 0 only if every
check passed.

A suite's extras are JSON values or Characters.  This module alone writes a
character's JSON term rows; characters._formatTerms, the routine of compact
and pretty, writes the text of witnesses, CSV matrix cells and pretty eval
output.  JSON output, reports and eval payloads alike, comes from one
emitter, `_jsonText`, whose bytes are those of json.dumps with sorted keys
and an indent of 2; it writes a Character as its {"c", "w"} term rows in
weight order, filled in from %-templates, instead of running the stdlib's
pure-Python indenting encoder.  CSV quotes every cell that may hold a comma.

Results are re-derivable, so caching is safe: pass --cache-dir (or set the
DEMKIT_CACHE environment variable, unless it is empty) to reuse previous
runs.  The format is part of the key, and an entry holds exactly the text a
command printed and its exit status, sealed by a hash (see cache).  A hot run,
in any format, prints the stored text and returns the stored status, with
nothing decoded or rendered; a cold one renders once, in its own format.
Output bytes are identical with the cache hot, cold, or disabled.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import os
import random
import sys as _sys
from json.encoder import encode_basestring_ascii as _jsonStr

from . import __version__
from . import demazure as dz
from . import ktheory as kt
from .cache import DiskCache
from .characters import Character, _formatTerms, clip, compact
from .exprlang import EvalContext, ParseError, asciiInt, evalExpr, parse, printExpr
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


# A path that heads an error as its location is kept whole up to the length
# of one file name (NAME_MAX), longer than a quoted token's CLIP_CHARS.
PATH_CHARS = 255


def _loadOrder(path: str, W: WeylGroup) -> list[int]:
    """One element per line, written as a word; must list the whole group in
    an order that refines Bruhat order."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) else "not UTF-8 text"
        raise UsageError(f"cannot read --order-file {clip(path)!r}: {reason}")
    where = clip(path, PATH_CHARS)   # the location that heads the errors below
    order = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            order.append(_parseWord(line, W, f"{where}:{lineno}"))
    if sorted(order) != list(W.elements()):
        raise UsageError(f"{where}: not a permutation of all {W.size} elements")
    # lows: each u listed after a w above it; name the least u, then its least w
    after = lows = 0
    for w in reversed(order):
        lows |= W.bruhatBits[w] & after
        after |= 1 << w
    if lows:
        u = (lows & -lows).bit_length() - 1
        w = min(w for w in order[:order.index(u)] if W.bruhatBits[w] >> u & 1)
        raise UsageError(
            f"{where}: order is not Bruhat-refining "
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
    def fails(lams):
        return [lam for lam in lams if dz.charQ(W, lam) != dz.charQviaTwist(W, lam)]

    stw = fails(map(W.steinbergWeight, W.elements()))
    grid = fails(itertools.product(range(-2, 2), repeat=W.sys.rank))
    return [kt.verdict("q-twist-on-steinberg-weights", [f"steinberg weight {lam}" for lam in stw]),
            kt.verdict("q-twist-on-grid", [str(lam) for lam in grid])], {}


def _suiteIndPQ(W: WeylGroup):
    rows = kt.indPQMatrix(W)
    return kt.indPQCheck(W, rows), {"matrix": kt.matrixReport(W, rows)}


def _suiteTriang(W: WeylGroup, rng: random.Random):
    vs = list(W.elements())
    extras = {}
    if W.sys.rank <= 2:
        ws = vs
    else:
        ws = sorted(rng.sample(vs, 12))
        extras["sampledColumns"] = [kt.wordStr(W, w) for w in ws]
    return kt.triangularityChecks(W, ws), extras


def _suiteXclassGram(W: WeylGroup, order):
    checks, below, pairs = kt.gramCheck(W, order)
    return checks, {"belowDiagonalNonzero": below, "sameLengthPairs": pairs}


def _suiteParabolic(W: WeylGroup, piP, order, rng):
    # with no parabolic every QHAT layer is Q: the suite would compare G/B with itself
    if not piP:
        raise UsageError("suite parabolic needs --parabolic with at least one index")
    return kt.parabolicChecks(W, piP, order), {"minimalReps": len(W.parabolicData(piP)[1])}


def _suiteDualConjecture(W: WeylGroup):
    rows, failures = [], []
    for v in W.elements():
        row = kt.dualConjectureCheck(W, v)
        if row["identity"] == "pass":
            rows.append(row)
        else:
            failures.append(row["identity"])
    holds = sum(1 for r in rows if r["conjectureHolds"])
    checks = [kt.verdict("dual-sign-identity", failures)]
    extras = {"rows": rows, "conjectureHoldsCount": holds, "elements": W.size}
    return checks, extras


def _suiteWordIndependence(W: WeylGroup, rng: random.Random):
    """pi_a(f) == pi_b(f) for pairs (a, b) of reduced words of one element w:
    on rank 2 the first reduced word of each w against every other, on B3
    100 drawn pairs.  A B3 pair is not always two distinct words: 11 of the
    44 elements of length >= 2 have a single reduced word, and at SEED 19
    of the 100 pairs compare a word with itself, though the report counts
    100 comparisons.  Each character's words go to one demWords call.  The
    witness names the last failing pair in (element, character, word) order
    on rank 2 and in draw order on B3."""
    chars = randomCharacters(W, rng, 20)
    pairs = []   # (block, w, a, b); the witness is ordered by (block, character, pair)
    if W.sys.name in RANK2:
        for w in W.elements():
            first, *rest = W.reducedWords(w)
            pairs += [(w, w, first, b) for b in rest]
        comparisons = len(pairs) * len(chars)
    else:
        eligible = [w for w in W.elements() if W.length[w] >= 2]
        for n in range(100):
            w = rng.choice(eligible)
            a = W.randomReducedWord(w, rng)
            b = W.randomReducedWord(w, rng)
            for _ in range(10):
                if b != a:
                    break
                b = W.randomReducedWord(w, rng)
            pairs.append((n, w, a, b))
        comparisons = len(pairs)
    words = [x for _, _, a, b in pairs for x in (a, b)]
    fails = []
    for k, f in enumerate(chars):
        got = dz.demWords(W, words, f)
        fails += [(block, k, n) for n, (block, _, a, b) in enumerate(pairs)
                  if got[a] != got[b]]
    witnesses = []
    for _, _, n in sorted(fails):
        _, w, a, b = pairs[n]
        witnesses.append(f"{kt.wordStr(W, w)} word {b}" if W.sys.name in RANK2
                         else f"{kt.wordStr(W, w)}: {a} vs {b}")
    return [kt.verdict("word-independence", witnesses)], {"comparisons": comparisons}


def _types(*names: str):
    return lambda W: (None if W.sys.name in names
                      else f"supports {', '.join(names)}; got {W.sys.name}")


def _maxSize(n: int):
    return lambda W: None if W.size <= n else f"needs |W| <= {n}; {W.sys.name} has {W.size}"


# name -> (gate, runner).  A gate returns None for a Weyl group the suite
# accepts and otherwise the reason it does not; a runner takes
# (W, piP, order, rng) and returns (checks, extras), the extras a dict of
# JSON values (str keys, lists, str, int, bool, None) and Characters.
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
        _maxSize(12), lambda W, *_: (kt.orthogonalityCheck(W), {})),
    "xclass-gram": (
        _maxSize(48), lambda W, piP, order, rng: _suiteXclassGram(W, order)),
    "parabolic": (
        _maxSize(48), _suiteParabolic),
    "rank2-bundles": (
        _types(*RANK2), lambda W, *_: (kt.rank2BundleChecks(W), {})),
    "dual-conjecture-report": (
        _maxSize(48), lambda W, *_: _suiteDualConjecture(W)),
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


@functools.cache
def _rowTemplates(nl: str, key: str, r: int) -> tuple[str, str]:
    """The text of one term row in a list whose own line starts with nl: a
    template with a %d for c and a %s for the weight, and the weight's own
    template with a %d for each of its r entries."""
    i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
    w = "[" + i3 + ("," + i3).join(["%d"] * r) + i2 + "]" if r else "[]"
    return "{" + i2 + '"c": %d,' + i2 + _jsonStr(key) + ": %s" + i1 + "}", w


def _termRows(nl: str, key: str, terms: dict) -> str:
    """{weight: coeff} terms as the list of {"c", key} term rows in weight
    order that _jsonText writes on a line that starts with nl; "[]" if there
    are none.  Rows are filled from two %-templates over the sorted weights,
    with no tuple held per term: for a large character those would set off
    collections of the cyclic garbage collector."""
    if not terms:
        return "[]"
    ws = sorted(terms)
    row, weight = _rowTemplates(nl, key, len(ws[0]))
    rows = map(row.__mod__, zip(map(terms.__getitem__, ws), map(weight.__mod__, ws)))
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(rows) + nl + "]"


def _jsonText(o, nl: str = "\n") -> str:
    """The text json.dumps(o, sort_keys=True) writes with an indent of 2,
    byte for byte, for the values reports and eval payloads are made of:
    dicts with str keys, lists, str, int, bool and None; nl is the newline
    and indent of the line o starts on.  A Character is written as the JSON
    of its term rows, [{"c": coeff, "w": [weight]}, ...] in weight order
    (_termRows).  Any other type raises TypeError, where json.dumps would
    write a float or a tuple."""
    t = type(o)
    if t is str:
        return _jsonStr(o)
    if t is int:
        return int.__repr__(o)
    if t is Character:
        return _termRows(nl, "w", o.terms)
    inner = nl + "  "
    if t is list:
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(_jsonText(x, inner) for x in o) + nl + "]"
    if t is dict:
        if not o:
            return "{}"
        if set(map(type, o)) - {str}:
            raise TypeError("report JSON keys must be str")
        return "{" + inner + ("," + inner).join(
            _jsonStr(k) + ": " + _jsonText(o[k], inner) for k in sorted(o)) + nl + "}"
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    raise TypeError(f"cannot write {t.__name__} as report JSON")


def _renderEval(kind: str, terms: dict, fmt: str) -> str:
    """An eval payload of this kind whose value is the {weight: coeff}
    terms; as JSON, the text _jsonText writes for the payload."""
    key, symbol = ("weight", "chi") if kind == "gexp" else ("w", "e")
    if fmt == "json":
        return '{\n  "kind": %s,\n  "value": %s\n}\n' % (
            _jsonStr(kind), _termRows("\n  ", key, terms))
    items = sorted(terms.items())
    if fmt == "csv":
        lines = ["weight,coeff"]
        lines += ['"[%s]",%d' % (",".join(str(x) for x in w), c) for w, c in items]
        return "\n".join(lines) + "\n"
    return _formatTerms(items, symbol, tight=False) + "\n"


def _renderSuite(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _jsonText(report) + "\n"
    if fmt == "csv":
        if "matrix" in report:
            m = report["matrix"]
            lines = ["," + ",".join(m["cols"])]
            for r, row in zip(m["rows"], m["entries"]):
                lines.append(r + "," + ",".join('"%s"' % compact(f) for f in row))
            return "\n".join(lines) + "\n"
        lines = ["name,status,witness"]
        lines += ['%s,%s,"%s"' % (c["name"], c["status"], c["witness"].replace('"', '""'))
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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write --out {clip(out)!r}: {e.strerror}")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return ap


# the encoding each format's text is written and cached in
ENCODINGS = {"json": "ascii", "csv": "ascii", "pretty": "utf-8"}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        try:
            W = weylGroup(args.type)
        except (KeyError, ValueError):
            raise UsageError(f"unknown root system {clip(args.type)!r}")
        piP = _parseParabolic(args.parabolic, W.sys.rank)
        order = _loadOrder(args.order_file, W) if args.order_file else None
        # an empty DEMKIT_CACHE is unset; DiskCache refuses --cache-dir ""
        env = os.environ.get("DEMKIT_CACHE") or None
        root = None if args.no_cache else env if args.cache_dir is None else args.cache_dir
        try:
            cache = DiskCache(root)
        except OSError as e:
            raise UsageError(f"cannot create cache directory {clip(root)!r}: {e.strerror}")

        params = {"parabolic": list(piP), "order": _orderSig(W, order), "format": args.format}
        if args.command == "eval":
            node = parse(args.expr)
            kind, params["expr"] = "eval", printExpr(node)
            compute = functools.partial(_evalText, node, W, piP, order)
        else:
            kind, params["seed"] = f"suite:{args.name}", SEED
            compute = functools.partial(_suiteText, args.name, W, piP, order)
        key = cache.key(W.sys.name, W.sys.rank, kind, params)
        encoding = ENCODINGS[args.format]
        entry = cache.get(key, encoding)
        if entry is None:
            entry = compute(args.format)
            cache.put(key, encoding, *entry)
        status, text = entry
        _emit(text, args.out)
        return status
    except (UsageError, ParseError) as e:
        print(f"demkit: {e}", file=_sys.stderr)
        return 2


def _evalText(node, W, piP, order, fmt: str) -> tuple[int, str]:
    """(0, the text of the expression's value in format fmt)."""
    try:
        value = evalExpr(node, EvalContext(W, piP, order))
    except ValueError as e:
        raise UsageError(e) from None
    if isinstance(value, Character):
        return 0, _renderEval("char", value.terms, fmt)
    return 0, _renderEval("gexp", value, fmt)


def _suiteText(name: str, W, piP, order, fmt: str) -> tuple[int, str]:
    """(exit status, the text of the suite's report in format fmt); the
    status is 1 if a check failed."""
    checks, extras = runSuite(name, W, piP, order)
    rows = [{"name": n, "status": "pass" if ok else "fail", "witness": wit}
            for n, ok, wit in checks]
    report = {
        "suite": name,
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
    return int(bool(report["failures"])), _renderSuite(report, fmt)


if __name__ == "__main__":
    raise SystemExit(main())
