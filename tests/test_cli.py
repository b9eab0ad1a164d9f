from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import demkit
import demkit.cache as cache
import demkit.cli as cli
import demkit.ktheory as kt
from demkit.characters import Character
from demkit.cli import main
from demkit.exprlang import clip
from demkit.weyl import weylGroup

import oracles
from test_rootsystem import BAD_TYPE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_eval_json(capsys):
    code, out, err = run(capsys, "eval", "chi([1,0])", "--type", "A2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "char"
    assert {tuple(d["w"]): d["c"] for d in payload["value"]} == \
        {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "C2", "C3", "C4", "D4", "G2", "F4"])
def test_eval_steinberg_matches_fold_oracle(capsys, name):
    W = weylGroup(name)
    word = (0, 1) if W.sys.rank > 1 else (0,)
    src = "steinberg(" + " ".join(f"s{i + 1}" for i in word) + ")"
    code, out, err = run(capsys, "eval", src, "--type", name, "--no-cache")
    assert code == 0 and err == ""
    v = 0
    for i in word:
        v = W.rmul(v, i)
    want = oracles.steinbergWeightByAct(W, v)
    assert [(tuple(d["w"]), d["c"]) for d in json.loads(out)["value"]] == [(want, 1)]


def test_eval_pretty_and_csv(capsys):
    code, out, _ = run(capsys, "eval", "e([0,0]) + e([0,0])",
                       "--type", "A2", "--format", "pretty")
    assert code == 0
    assert out == "2·e[0,0]\n"
    code, out, _ = run(capsys, "eval", "e([1,-1])", "--type", "A2",
                       "--format", "csv")
    assert out == 'weight,coeff\n"[1,-1]",1\n'


def test_eval_gexp_formats(capsys):
    src = "decomposeG(chi([1,0])*chi([0,1]))"
    code, out, _ = run(capsys, "eval", src, "--type", "A2")
    payload = json.loads(out)
    assert payload["kind"] == "gexp"
    assert {tuple(d["weight"]): d["c"] for d in payload["value"]} == \
        {(1, 1): 1, (0, 0): 1}
    code, out, _ = run(capsys, "eval", src, "--type", "A2", "--format", "pretty")
    assert code == 0
    assert "chi[" in out
    code, out, _ = run(capsys, "eval", src, "--type", "A2", "--format", "csv")
    assert out.startswith("weight,coeff\n")


def test_eval_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "chi([1,0]", "--type", "A2")
    assert code == 2 and out == ""
    assert err.startswith("demkit:") and "column" in err


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "chi([-1,0])", "--type", "A2")
    assert code == 2 and "demkit:" in err
    code, _, err = run(capsys, "eval", "chi([1,0,0])", "--type", "A2")
    assert code == 2


def test_unknown_type_exit_2(capsys):
    for name in BAD_TYPE_NAMES:
        code, out, err = run(capsys, "eval", "e([0])", "--type", name)
        assert (code, out) == (2, "") and "unknown root system" in err, name
    code, _, err = run(capsys, "suite", "word-independence", "--type", "B 3")
    assert code == 2 and "unknown root system" in err


def test_parabolic_flag(capsys):
    code, out, _ = run(capsys, "eval", "Qhat([2,1])", "--type", "B2",
                       "--parabolic", "1")
    assert code == 0
    code, _, err = run(capsys, "eval", "Qhat([2,1])", "--type", "B2",
                       "--parabolic", "3")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "eval", "e([0,0])", "--type", "B2",
                       "--parabolic", "x")
    assert code == 2 and "1-based" in err


def test_suite_report_schema(capsys):
    code, out, _ = run(capsys, "suite", "steinberg-lists", "--type", "A2")
    assert code == 0
    report = json.loads(out)
    assert set(report) >= {"suite", "context", "checks", "failures", "seed",
                           "version"}
    assert report["suite"] == "steinberg-lists"
    assert report["context"] == {"type": "A2", "parabolic": [],
                                 "order": "default"}
    assert report["failures"] == []
    for row in report["checks"]:
        assert set(row) == {"name", "status", "witness"}
        assert row["status"] == "pass"


def test_suite_failure_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "runSuite",
                        lambda *a: ([("fake", False, "boom")], {}))
    code, out, _ = run(capsys, "suite", "steinberg-lists", "--type", "A2")
    assert code == 1
    report = json.loads(out)
    assert report["failures"] == ["fake"]
    assert report["checks"][0]["witness"] == "boom"


def test_suite_pretty_summary_line(capsys):
    code, out, _ = run(capsys, "suite", "tensor-decomp", "--type", "B2",
                       "--format", "pretty")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("(tensor-decomp, B2)")


def test_suite_type_gate_exit_2(capsys):
    code, _, err = run(capsys, "suite", "indpq-triangular", "--type", "C4")
    assert code == 2 and "|W| <= 48" in err
    code, _, err = run(capsys, "suite", "rank2-bundles", "--type", "A3")
    assert code == 2


ACCEPTED_TYPES = {
    "steinberg-lists": "A2 B2 G2",
    "tensor-decomp": "A2 B2 G2",
    "q-equivalence": "A2 A3 B2 B3 C3 G2",
    "indpq-triangular": "A1 A2 A3 B2 B3 C2 C3 G2",
    "triang-alphabeta": "A1 A2 A3 B2 B3 C2 C3 G2",
    "orthogonality": "A1 A2 B2 C2 G2",
    "xclass-gram": "A1 A2 A3 B2 B3 C2 C3 G2",
    "parabolic": "A1 A2 A3 B2 B3 C2 C3 G2",
    "rank2-bundles": "A2 B2 G2",
    "dual-conjecture-report": "A1 A2 A3 B2 B3 C2 C3 G2",
    "word-independence": "A2 B2 B3 G2",
}
ALL_TYPES = "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D4 G2 F4".split()


def test_suite_gates(capsys):
    assert list(cli.SUITES) == list(ACCEPTED_TYPES)
    for name, (gate, _) in cli.SUITES.items():
        accepted = {t for t in ALL_TYPES if gate(weylGroup(t)) is None}
        assert accepted == set(ACCEPTED_TYPES[name].split()), name
    for argv, msg in [
        (("indpq-triangular", "F4"), "needs |W| <= 48; F4 has 1152"),
        (("orthogonality", "A3"), "supports rank <= 2; got A3"),
        (("word-independence", "C3"), "supports A2, B2, G2, B3; got C3"),
    ]:
        code, out, err = run(capsys, "suite", argv[0], "--type", argv[1])
        assert (code, out, err) == (2, "", f"demkit: suite {argv[0]} {msg}\n")


def smallestAcceptedType(name):
    gate, _ = cli.SUITES[name]
    return min((weylGroup(t) for t in ALL_TYPES if gate(weylGroup(t)) is None),
               key=lambda W: (W.size, W.sys.name)).sys.name


def stdlibText(x):
    return json.dumps(x, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", list(ACCEPTED_TYPES))
def test_json_text_equals_stdlib_on_suite_reports(capsys, name):
    argv = ["suite", name, "--type", smallestAcceptedType(name), "--no-cache"]
    if name == "parabolic":
        argv += ["--parabolic", "1"]
    _, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert cli._jsonText(report) == stdlibText(report) == out[:-1]


ROW = {"c": -3, "w": [0, -1]}
EMITTER_CASES = {
    "empty-dict": {},
    "empty-list": [],
    "nested-empties": {"a": [], "b": {}, "c": [[], [{}]]},
    "zero-char": {"kind": "char", "value": []},
    "rank-1": {"kind": "char", "value": [{"c": 1, "w": [2]}, {"c": -1, "w": [-2]}]},
    "rank-0": [{"c": 5, "w": []}],
    "gexp": {"kind": "gexp", "value": [{"c": 2, "weight": [1, 0, 1]}]},
    "negatives": [-1, -(10 ** 30), 0, 10 ** 30],
    "constants": [True, False, None, {"t": True, "f": False, "n": None}],
    "strings": ['say "hi"', "back\\slash", "·", "²", "", "tab\t\n"],
    "string-keys": {'"': 1, "\\": 2, "·": 3, "²": 4, "B": 5, "a": 6},
    "int-list": [1, 2, 3],
    "row-third-key": [ROW, {"c": 1, "w": [1, 1], "x": 0}],
    "row-c-true": [{"c": True, "w": [1, 0]}],
    "row-weight-bool": [ROW, {"c": 1, "w": [1, False]}],
    "row-wrong-rank": [ROW, {"c": 1, "w": [1]}],
    "row-mixed-keys": [ROW, {"c": 1, "weight": [1, 0]}],
    "row-then-int": [ROW, 7],
    "row-lists": [[ROW, ROW], [ROW]],
    "matrix-like": {"matrix": {"entries": [[[ROW], []], [[], [ROW, ROW]]], "cols": ["e"]}},
}


@pytest.mark.parametrize("case", list(EMITTER_CASES))
def test_json_text_equals_stdlib_on_edge_values(case):
    x = EMITTER_CASES[case]
    assert cli._jsonText(x) == stdlibText(x)


@pytest.mark.parametrize("bad", [1.5, {"a": 1.5}, [ROW, {"c": 1, "w": [0.5, 0]}], (1, 2),
                                 [{"c": 1, "w": (1, 0)}], {1: 2}])
def test_json_text_rejects_other_types(bad):
    with pytest.raises(TypeError):
        cli._jsonText(bad)


def test_unknown_suite_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "frobnicate", "--type", "A2"])
    assert exc.value.code == 2


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "suite", "indpq-triangular", "--type", "A1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",e,s1"
    assert lines[1].startswith("e,e[0]")


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")


def test_golden_outputs(capsys):
    """Exit status and exact stdout of every suite on a small type and of
    evals covering each payload kind, sign and the zero character, in every
    format.  Re-record a case only when its output is meant to change."""
    with open(GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert {c["argv"][-2] for c in cases} == {"json", "csv", "pretty"}
    assert {c["argv"][1] for c in cases} >= set(cli.SUITES)
    for case in cases:
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["code"], case["stdout"], ""), case["argv"]


SUITE_DIGESTS = os.path.join(os.path.dirname(__file__), "golden", "suites.json")


def suiteCases():
    """Every (suite, type) pair the CLI accepts, --parabolic 1 for parabolic,
    in json, then csv, then pretty."""
    for name, types in ACCEPTED_TYPES.items():
        extra = ["--parabolic", "1"] if name == "parabolic" else []
        for t in types.split():
            for fmt in ("json", "csv", "pretty"):
                yield ["suite", name, "--type", t, *extra, "--format", fmt]


def cacheEntries(cdir):
    return {(e.name, e.inode()) for e in os.scandir(cdir)}


def suiteDigestRuns(cdir):
    """[{argv, code, sha256 of stdout}] of every suite case run through
    cli.main with one cache directory.  A pair's json run must be cold (it
    adds one cache entry) and its csv and pretty runs hot (they leave every
    entry as it is), so the digests pin hot output to cold output.  The
    checks raise, so they hold under python -O too."""
    out = []
    for argv in suiteCases():
        before = cacheEntries(cdir)
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            code = cli.main([*argv, "--cache-dir", cdir])
        after = cacheEntries(cdir)
        fresh = (len(after - before), len(before - after))
        if se.getvalue() or fresh != ((1, 0) if argv[-1] == "json" else (0, 0)):
            raise AssertionError(f"{argv}: stderr {se.getvalue()!r}, cache {fresh}")
        digest = hashlib.sha256(so.getvalue().encode()).hexdigest()
        out.append({"argv": argv, "code": code, "sha256": digest})
    return out


def test_suite_digests(tmp_path):
    """Exit status and the sha256 of stdout of every suite on every type it
    accepts, in every format.  Re-record a case only when its output is
    meant to change."""
    with open(SUITE_DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [c["argv"] for c in golden] == list(suiteCases())
    assert suiteDigestRuns(str(tmp_path)) == golden


@pytest.mark.parametrize("argv,order", [
    (["eval", "e([\u00b2])", "--type", "A1"], None),
    (["eval", "e([" + "1" * 5000 + "])", "--type", "A1"], None),
    (["eval", "xclass(s\u00b2)", "--type", "A2"], None),
    (["eval", "xclass(s" + "1" * 5000 + ")", "--type", "A2"], None),
    (["eval", "e([0,0])", "--type", "A2", "--parabolic", "\u00b2"], None),
    (["eval", "e([0,0])", "--type", "A2", "--parabolic", "1" * 5000], None),
    (["suite", "xclass-gram", "--type", "A2"],
     ["e", "s\u00b2", "s1", "s2 s1", "s1 s2", "s1 s2 s1"]),
    (["suite", "xclass-gram", "--type", "A2"],
     ["e", "s" + "1" * 5000, "s1", "s2 s1", "s1 s2", "s1 s2 s1"]),
], ids=["weight-superscript", "weight-5000-digits", "letter-superscript",
        "letter-5000-digits", "parabolic-superscript", "parabolic-5000-digits",
        "order-superscript", "order-5000-digits"])
def test_non_ascii_or_oversized_integers_exit_2(tmp_path, capsys, argv, order):
    if order is not None:
        argv = [*argv, "--order-file", writeOrder(tmp_path / "o.txt", order)]
    code, out, err = run(capsys, *argv, "--no-cache")
    assert code == 2 and out == ""
    assert err.startswith("demkit:") and "Traceback" not in err


LONG = {"3000": "1" * 3000, "5000": "1" * 5000}


@pytest.mark.parametrize("digits", sorted(LONG))
@pytest.mark.parametrize("site", ["eval-letter", "parabolic", "order-letter",
                                  "function-name", "type"])
def test_rejected_long_token_is_echoed_short(tmp_path, capsys, site, digits):
    # a 3,000-digit letter converts and fails the range check; a 5,000-digit
    # one does not convert at all; both are cut short in the message
    n = LONG[digits]
    argv = {
        "eval-letter": ["eval", f"xclass(s{n})", "--type", "A2"],
        "parabolic": ["eval", "e([0,0])", "--type", "A2", "--parabolic", n],
        "order-letter": ["suite", "xclass-gram", "--type", "A2", "--order-file",
                         writeOrder(tmp_path / "o.txt",
                                    ["e", "s" + n, "s1", "s2 s1", "s1 s2", "s1 s2 s1"])],
        "function-name": ["eval", f"f{n}(e([0,0]))", "--type", "A2"],
        "type": ["eval", "e([0])", "--type", f"A{n}"],
    }[site]
    code, out, err = run(capsys, *argv, "--no-cache")
    assert code == 2 and out == ""
    assert err.startswith("demkit:") and len(err) < 250, err[:300]
    assert "characters)" in err


@pytest.mark.parametrize("argv", [
    ["suite", "xclass-gram", "--type", "B3"],
    ["suite", "indpq-triangular", "--type", "B3"],
    ["suite", "parabolic", "--type", "B3", "--parabolic", "1"],
])
def test_pairing_suites_same_under_python_O(capsys, argv):
    # every invariant on these paths is an explicit raise, so stripping
    # asserts changes nothing a report says
    src = os.path.dirname(os.path.dirname(os.path.abspath(demkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "demkit.cli", *argv, "--no-cache"],
                          capture_output=True, text=True, env=env, timeout=300)
    code, out, err = run(capsys, *argv, "--no-cache")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "r.json"
    code, out, _ = run(capsys, "suite", "steinberg-lists", "--type", "G2",
                       "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["suite"] == "steinberg-lists"


def test_out_file_is_utf8_under_c_locale(tmp_path, capsys):
    # pretty output holds "·"; --out writes UTF-8 whatever the locale says
    argv = ["eval", "e([1,0])+e([1,0])", "--type", "B2", "--format", "pretty",
            "--no-cache"]
    dest = tmp_path / "out.txt"
    src = os.path.dirname(os.path.dirname(os.path.abspath(demkit.__file__)))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "demkit.cli", *argv, "--out", str(dest)],
                          capture_output=True, env=env, timeout=300)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and "\u00b7" in out
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert dest.read_bytes() == out.encode("utf-8")


BIG_EVALS = [
    ("eval", "chi([1,1,1])", "--type", "B3"),
    ("eval", "decomposeG(chi([1,1,1])*chi([1,1,1]))", "--type", "B3"),
]


def test_cache_byte_identity(tmp_path, capsys):
    for k, argv in enumerate([("suite", "q-equivalence", "--type", "A2"), *BIG_EVALS]):
        if argv[0] == "eval":   # payloads large enough to show the term-row route
            payload = json.loads(run(capsys, *argv, "--no-cache")[1])
            key = "w" if payload["kind"] == "char" else "weight"
            assert len(payload["value"]) > 30
            assert cli._termColumns(payload["value"], key, 3) is not None
        for fmt in ("json", "csv", "pretty"):
            cdir = str(tmp_path / f"cache-{k}-{fmt}")
            _, cold, _ = run(capsys, *argv, "--format", fmt, "--cache-dir", cdir)
            files = [f for _, _, fs in os.walk(cdir) for f in fs]
            assert files
            _, hot, _ = run(capsys, *argv, "--format", fmt, "--cache-dir", cdir)
            _, bare, _ = run(capsys, *argv, "--format", fmt, "--no-cache")
            assert cold == hot == bare, (argv, fmt)


def test_golden_outputs_under_python_O(tmp_path):
    # one -O process runs every golden case through cli.main in turn, then
    # every suite digest case
    src = os.path.dirname(os.path.dirname(os.path.abspath(demkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """if 1:
        import contextlib, io, json, os, sys
        import demkit.cli as cli
        assert not __debug__
        bad = []
        for case in json.load(open(sys.argv[1], encoding="utf-8")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(case["argv"])
            if (code, out.getvalue(), err.getvalue()) != (case["code"], case["stdout"], ""):
                bad.append(case["argv"])
        sys.path.insert(0, os.path.dirname(os.path.dirname(sys.argv[1])))
        import test_cli
        golden = json.load(open(sys.argv[2], encoding="utf-8"))
        runs = test_cli.suiteDigestRuns(sys.argv[3])
        bad += [c["argv"] for c, r in zip(golden, runs) if c != r]
        print(json.dumps(bad))
    """
    proc = subprocess.run([sys.executable, "-O", "-c", script, GOLDEN, SUITE_DIGESTS,
                           str(tmp_path)], capture_output=True, text=True, env=env,
                          timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == []


def test_acceptance_gate_under_python_O():
    # the gate's own asserts are rewritten by pytest and so still check;
    # every invariant in the package under them is an explicit raise
    src = os.path.dirname(os.path.dirname(os.path.abspath(demkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    gate = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_acceptance.py")
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           gate], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"\b13 passed\b", proc.stdout), proc.stdout


Q_TYPES = ("A2", "A3", "B2", "B3", "C3", "G2")


def test_q_equivalence_same_under_python_O(capsys):
    # one -O process runs the suite on every type it accepts
    src = os.path.dirname(os.path.dirname(os.path.abspath(demkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """if 1:
        import sys
        import demkit.cli as cli
        assert not __debug__
        for t in sys.argv[1:]:
            if cli.main(["suite", "q-equivalence", "--type", t, "--no-cache"]):
                sys.exit(1)
    """
    proc = subprocess.run([sys.executable, "-O", "-c", script, *Q_TYPES],
                          capture_output=True, text=True, env=env, timeout=300)
    outs = [run(capsys, "suite", "q-equivalence", "--type", t, "--no-cache")
            for t in Q_TYPES]
    assert [(code, err) for code, _, err in outs] == [(0, "")] * len(Q_TYPES)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(out for _, out, _ in outs)


def test_cache_put_writes_one_shot_dumps(tmp_path):
    store = cache.DiskCache(str(tmp_path))
    value = {"kind": "char", "value": [{"c": -2, "w": [1, 0]}, {"c": 1, "w": [0, 0]}],
             "·": ["²", None, True]}
    store.put("k", value)
    assert (tmp_path / "k.json").read_text() == json.dumps(value, sort_keys=True)
    assert store.get("k") == value


NESTED_BAD = [
    {"kind": "char", "value": [{"c": "x", "w": [1, 0]}]},
    {"kind": "char", "value": [{"c": True, "w": [1, 0]}]},
    {"kind": "char", "value": [ROW, {"c": 1, "w": [1]}]},
    {"kind": "char", "value": [ROW, {"c": 1, "w": [1, 0.5]}]},
    {"kind": "char", "value": [ROW, {"c": 1, "w": [1, False]}]},
    {"kind": "char", "value": [{"c": 1, "weight": [1, 0]}]},
    {"kind": "char", "value": [{"c": 1, "w": [1, 0], "x": 0}]},
    {"kind": "char", "value": [ROW, [1, 0]]},
    {"kind": "char", "value": [ROW], "x": 0},
    {"kind": "gexp", "value": [ROW]},
]


@pytest.mark.parametrize("argv, bad", [
    (("eval", "e([1,0])", "--type", "A2"), []),
    (("suite", "steinberg-lists", "--type", "A2"), {"a": 1}),
    (("eval", "e([1,0])", "--type", "A2"), {"kind": "char", "value": {}}),
    *[(("eval", "e([1,0])", "--type", "A2"), b) for b in NESTED_BAD],
    (("eval", "decomposeG(chi([1,0])*chi([0,1]))", "--type", "A2"),
     {"kind": "gexp", "value": [{"c": 1, "weight": [1, "1"]}]}),
])
def test_cache_entry_of_wrong_shape_is_recomputed(tmp_path, capsys, argv, bad):
    for fmt in ("json", "csv", "pretty"):
        cdir = tmp_path / f"cache-{fmt}"
        fargv = (*argv, "--format", fmt, "--cache-dir", str(cdir))
        code, cold, _ = run(capsys, *fargv)
        (entry,) = cdir.iterdir()
        good = json.loads(entry.read_text())
        entry.write_text(json.dumps(bad))
        code2, out, err = run(capsys, *fargv)
        assert (code2, out, err) == (code, cold, ""), fmt
        assert json.loads(entry.read_text()) == good


REPORT_BAD = [
    {"checks": [1, 2]},
    {"checks": {}},
    {"checks": [{"name": "q", "status": "pass"}]},
    {"checks": [{"name": "q", "status": "pass", "witness": "", "x": 0}]},
    {"checks": [{"name": 1, "status": "pass", "witness": ""}]},
    {"checks": [{"name": "q", "status": "ok", "witness": ""}]},
    {"checks": [{"name": "q", "status": ["pass"], "witness": ""}]},
    {"checks": [{"name": "q", "status": "pass", "witness": None}]},
    {"failures": [1]},
    {"failures": "q"},
    {"context": []},
    {"context": {}},
    {"context": {"type": 2}},
    # a matrix change is made to an A2 indpq-triangular report
    {"matrix": {"rows": [], "cols": [], "entries": [1, 2]}},
    {"matrix": []},
    {"matrix": {"rows": ["e"], "cols": ["e"]}},
    {"matrix": {"rows": ["e"], "cols": [1], "entries": [[[]]]}},
    {"matrix": {"rows": "e", "cols": ["e"], "entries": [[[]]]}},
    {"matrix": {"rows": ["e"], "cols": ["e"], "entries": [[[]], [[]]]}},
    {"matrix": {"rows": ["e"], "cols": ["e"], "entries": [[[], []]]}},
    {"matrix": {"rows": ["e"], "cols": ["e"], "entries": [[{}]]}},
    {"matrix": {"rows": ["e"], "cols": ["e"], "entries": [[[1]]]}},
    {"matrix": {"rows": ["e"], "cols": ["e"], "entries": [[[{"c": "1", "w": [0, 0]}]]]}},
    {"matrix": {"rows": ["e"], "cols": ["e"], "entries": [[[{"c": 1, "w": [0, None]}]]]}},
    {"matrix": {"rows": ["e"], "cols": ["e"], "entries": [[[{"c": 1}]]]}},
    {"matrix": {"rows": ["e"], "cols": ["e", "s1"],
                "entries": [[[{"c": 1, "w": [0, 0]}], [{"c": 1, "w": [0]}]]]}},
]


@pytest.mark.parametrize("change", REPORT_BAD)
def test_cached_report_with_bad_nested_field_is_recomputed(tmp_path, capsys, change):
    suite = "indpq-triangular" if "matrix" in change else "q-equivalence"
    argv = ("suite", suite, "--type", "A2")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = {tuple(c["argv"]): c for c in json.load(fh)}
    for fmt in ("json", "csv", "pretty"):
        case = golden[(*argv, "--format", fmt, "--no-cache")]
        cdir = tmp_path / f"cache-{fmt}"
        fargv = (*argv, "--format", fmt, "--cache-dir", str(cdir))
        assert run(capsys, *fargv) == (case["code"], case["stdout"], "")
        (entry,) = cdir.iterdir()
        good = json.loads(entry.read_text())
        entry.write_text(json.dumps({**good, **change}))
        assert run(capsys, *fargv) == (case["code"], case["stdout"], ""), fmt
        assert json.loads(entry.read_text()) == good


# (command, another command of the same kind whose entry has another key)
SEALED = {
    "eval": (("eval", "chi([1,0])", "--type", "A2"), ("eval", "chi([0,1])", "--type", "A2")),
    "suite": (("suite", "steinberg-lists", "--type", "A2"),
              ("suite", "tensor-decomp", "--type", "A2")),
}


def digitChanged(text):
    i = re.search(r"[0-9]", text).start()
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


# good entry, another key's good entry -> a broken entry
BROKEN_SEALS = {
    "digit-changed": lambda good, other: {**good, "text": digitChanged(good["text"])},
    "other-keys-entry": lambda good, other: other,
    "extra-key": lambda good, other: {**good, "x": 0},
    "text-not-str": lambda good, other: {**good, "text": json.loads(good["text"])},
    "sha256-missing": lambda good, other: {"text": good["text"]},
    "text-lone-surrogate": lambda good, other: {**good, "text": "\ud800"},
}


@pytest.mark.parametrize("broken", sorted(BROKEN_SEALS))
@pytest.mark.parametrize("command", sorted(SEALED))
def test_cache_entry_with_broken_seal_is_recomputed(tmp_path, capsys, monkeypatch,
                                                     command, broken):
    argv, otherArgv = SEALED[command]
    cdir = tmp_path / "cache"
    assert run(capsys, *otherArgv, "--cache-dir", str(cdir))[0] == 0
    (otherEntry,) = cdir.iterdir()
    assert run(capsys, *argv, "--cache-dir", str(cdir))[0] == 0
    (entry,) = set(cdir.iterdir()) - {otherEntry}
    goodText = entry.read_text()
    good = json.loads(goodText)
    assert good.keys() == {"sha256", "text"}
    bad = BROKEN_SEALS[broken](good, json.loads(otherEntry.read_text()))
    calls = []
    for name in ("evalExpr", "runSuite"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: calls.append(a) or real(*a))
    for fmt in ("json", "csv", "pretty"):
        want = run(capsys, *argv, "--format", fmt, "--no-cache")
        entry.write_text(json.dumps(bad))
        del calls[:]
        assert run(capsys, *argv, "--format", fmt, "--cache-dir", str(cdir)) == want, fmt
        assert len(calls) == 1 and entry.read_text() == goodText, fmt


def test_cache_entry_nested_too_deep_is_recomputed(tmp_path, capsys):
    argv = ("eval", "e([1,0])", "--type", "A2", "--cache-dir", str(tmp_path))
    cold = run(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    good = entry.read_text()
    entry.write_text("[" * 100000 + "]" * 100000)
    assert run(capsys, *argv) == cold
    assert entry.read_text() == good


@pytest.mark.parametrize("command", sorted(SEALED))
def test_hot_json_run_writes_the_stored_text(tmp_path, capsys, monkeypatch, command):
    # a hot --format json run neither recomputes nor re-renders its result
    argv = (*SEALED[command][0], "--cache-dir", str(tmp_path / "cache"))
    cold = run(capsys, *argv)

    def recomputed(*a):
        raise AssertionError("hot JSON run recomputed or re-rendered its result")

    for name in ("evalExpr", "runSuite", "_renderEval", "_renderSuite"):
        monkeypatch.setattr(cli, name, recomputed)
    assert run(capsys, *argv) == cold


def test_cache_eval_normalizes_expr(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    _, a, _ = run(capsys, "eval", "chi([1,0]) * chi([0,1])", "--type", "A2",
                  "--cache-dir", cdir)
    _, b, _ = run(capsys, "eval", "chi([1,0])*chi([0,1])", "--type", "A2",
                  "--cache-dir", cdir)
    assert a == b
    files = [f for _, _, fs in os.walk(cdir) for f in fs]
    assert len(files) == 1


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cdir = tmp_path / "envcache"
    monkeypatch.setenv("DEMKIT_CACHE", str(cdir))
    code, _, _ = run(capsys, "eval", "e([0,0])", "--type", "A2")
    assert code == 0
    assert any(fs for _, _, fs in os.walk(cdir))
    monkeypatch.setattr(cli, "runSuite",
                        lambda *a: (_ for _ in ()).throw(AssertionError))
    # cached eval result must not re-run anything
    code, _, _ = run(capsys, "eval", "e([0,0])", "--type", "A2")
    assert code == 0


def test_cache_keyed_on_source_tag(tmp_path, capsys, monkeypatch):
    cdir = str(tmp_path / "cache")
    argv = ("eval", "chi([1,0])", "--type", "A2", "--cache-dir", cdir)
    monkeypatch.setattr(cache, "sourceTag", lambda: "tag-a")
    _, cold, _ = run(capsys, *argv)
    calls = []
    real = cli.evalExpr
    monkeypatch.setattr(cli, "evalExpr", lambda *a: calls.append(a) or real(*a))
    _, hot, _ = run(capsys, *argv)
    assert calls == [] and hot == cold   # same tag: hit
    monkeypatch.setattr(cache, "sourceTag", lambda: "tag-b")
    _, again, _ = run(capsys, *argv)
    assert len(calls) == 1 and again == cold   # changed tag: miss
    assert len([f for _, _, fs in os.walk(cdir) for f in fs]) == 2


def test_source_tag_hashes_package_sources(tmp_path):
    pkg = os.path.dirname(os.path.abspath(cache.__file__))
    copy = tmp_path / "pkg"
    shutil.copytree(pkg, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert cache.hashSources(str(copy)) == cache.sourceTag()
    edited = copy / "demazure.py"
    edited.write_text(edited.read_text() + "\n")
    assert cache.hashSources(str(copy)) != cache.sourceTag()


def writeOrder(path, words):
    path.write_text("\n".join(words) + "\n")
    return str(path)


def test_order_file_accepted(tmp_path, capsys):
    p = writeOrder(tmp_path / "ok.txt",
                   ["e", "s2", "s1", "s2 s1", "s1 s2  # comment", "s1 s2 s1"])
    code, out, _ = run(capsys, "suite", "xclass-gram", "--type", "A2",
                       "--order-file", p)
    assert code == 0
    assert json.loads(out)["context"]["order"] == "custom"


def test_order_file_not_refining(tmp_path, capsys):
    p = writeOrder(tmp_path / "bad.txt",
                   ["s1 s2 s1", "s1", "s2", "s1 s2", "s2 s1", "e"])
    code, _, err = run(capsys, "suite", "xclass-gram", "--type", "A2",
                       "--order-file", p)
    assert code == 2 and "not Bruhat-refining" in err
    assert "must come before" in err


def test_order_file_F4(tmp_path, capsys):
    W = weylGroup("F4")
    words = [kt.wordStr(W, w) for w in W.elements()]
    argv = ("eval", "e([1,0,0,0])", "--type", "F4", "--no-cache", "--order-file")
    code, out, err = run(capsys, *argv, writeOrder(tmp_path / "ok.txt", words))
    assert (code, err) == (0, "") and json.loads(out)["value"][0]["w"] == [1, 0, 0, 0]
    # s1 s2 s1 s3 s2 s1 s3 s4 listed after an element two layers above it
    assert W.bruhatLeq(200, 350)
    words[200], words[350] = words[350], words[200]
    p = writeOrder(tmp_path / "bad.txt", words)
    assert run(capsys, *argv, p) == (2, "", (
        f"demkit: {p}: order is not Bruhat-refining (s1 s2 s1 s3 s2 s1 s3 s4 "
        "must come before s1 s2 s1 s3 s2 s1 s3 s2 s4)\n"))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_order_file_names_first_violation_by_element_id(tmp_path, capsys, name):
    W = weylGroup(name)
    rng = random.Random(f"order:{name}")
    for k in range(20):
        order = list(W.elements())
        for _ in range(k % 4 + 1):   # a few swaps, of near or far pairs
            i = rng.randrange(W.size)
            j = min(W.size - 1, i + rng.choice([1, 2, 5, W.size]))
            order[i], order[j] = order[j], order[i]
        p = writeOrder(tmp_path / f"o{k}.txt", [kt.wordStr(W, w) for w in order])
        code, _, err = run(capsys, "eval", "e([0,0,0])", "--type", name, "--no-cache",
                           "--order-file", p)
        pair = oracles.firstBruhatViolation(W, order)
        if pair is None:
            assert (code, err) == (0, "")
        else:
            u, w = (kt.wordStr(W, x) for x in pair)
            assert (code, err) == (2, f"demkit: {p}: order is not Bruhat-refining "
                                      f"({u} must come before {w})\n")


def test_order_file_not_permutation(tmp_path, capsys):
    p = writeOrder(tmp_path / "short.txt", ["e", "s1", "s2"])
    code, _, err = run(capsys, "suite", "xclass-gram", "--type", "A2",
                       "--order-file", p)
    assert code == 2 and "not a permutation" in err
    p = writeOrder(tmp_path / "junk.txt", ["e", "s1", "s2", "s9", "s1 s2",
                                           "s1 s2 s1"])
    code, _, err = run(capsys, "suite", "xclass-gram", "--type", "A2",
                       "--order-file", p)
    assert code == 2 and "out of range" in err


# site: (option or variable, path under tmp_path, what failed, reason)
BAD_FILE_SITES = {
    "order-missing": ("--order-file", "missing.txt", "cannot read --order-file",
                      "No such file or directory"),
    "order-directory": ("--order-file", ".", "cannot read --order-file", "Is a directory"),
    "order-not-utf8": ("--order-file", "latin1.txt", "cannot read --order-file",
                       "not UTF-8 text"),
    "out-missing-dir": ("--out", "missing/r.json", "cannot write --out",
                        "No such file or directory"),
    "cache-dir": ("--cache-dir", "file/cache", "cannot create cache directory",
                  "Not a directory"),
    "cache-env": ("DEMKIT_CACHE", "file/cache", "cannot create cache directory",
                  "Not a directory"),
}


@pytest.mark.parametrize("site", list(BAD_FILE_SITES))
def test_bad_file_argument_exit_2(tmp_path, capsys, monkeypatch, site):
    option, name, what, reason = BAD_FILE_SITES[site]
    (tmp_path / "file").write_text("")
    (tmp_path / "latin1.txt").write_bytes("e\ns1\ns2\ns1 s2 # \xe9t\xe9\n".encode("latin-1"))
    path = str(tmp_path / name)
    argv = ["eval", "e([0,0])", "--type", "A2"]
    monkeypatch.delenv("DEMKIT_CACHE", raising=False)
    if option == "DEMKIT_CACHE":
        monkeypatch.setenv(option, path)
    else:
        argv += [option, path]
    assert run(capsys, *argv) == (2, "", f"demkit: {what} {clip(path)!r}: {reason}\n")


def test_bad_file_argument_path_is_clipped(tmp_path, capsys):
    path = str(tmp_path / ("d" * 3000) / "r.json")
    code, out, err = run(capsys, "eval", "e([0,0])", "--type", "A2", "--no-cache",
                         "--out", path)
    assert (code, out) == (2, "") and err.startswith("demkit: cannot write --out ")
    assert len(err) < 250 and "characters)" in err, err[:300]


def test_all_suites_run_on_a_supported_type(capsys):
    picks = {
        "steinberg-lists": "A2",
        "tensor-decomp": "G2",
        "q-equivalence": "A2",
        "indpq-triangular": "B2",
        "triang-alphabeta": "A2",
        "orthogonality": "B2",
        "xclass-gram": "G2",
        "parabolic": "B2",
        "rank2-bundles": "B2",
        "dual-conjecture-report": "A2",
        "word-independence": "A2",
    }
    assert set(picks) == set(cli.SUITES)
    for name, typ in picks.items():
        code, out, _ = run(capsys, "suite", name, "--type", typ)
        assert code == 0, (name, typ, out)
        assert json.loads(out)["failures"] == []


def test_seed_recorded(capsys):
    code, out, _ = run(capsys, "suite", "word-independence", "--type", "A2")
    assert json.loads(out)["seed"] == cli.SEED == 20260819


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_word_independence_matches_pairwise_oracle(name):
    W = weylGroup(name)
    got = cli._suiteWordIndependence(W, random.Random(cli.SEED))
    assert got == oracles.wordIndependencePairwise(W, random.Random(cli.SEED))
    assert got[0][0][1]


def failingDraws(W, monkeypatch, seed):
    """Make word-independence fail in a pattern that depends on the
    character: its 20 characters become monomials e^lam with lam in
    [-1, 1]^r, which a step often kills or fixes, and random words of up to
    three letters stand in for reduced words: on rank 2 each list of
    reducedWords gains two (its recursion sees them too), on B3 every third
    draw is one.  Call again to restart the same draws: that first undoes
    every patch of `monkeypatch`."""
    monkeypatch.undo()
    rng = random.Random(seed)
    rank = W.sys.rank
    chars = [Character.monomial(tuple(rng.randint(-1, 1) for _ in range(rank)))
             for _ in range(20)]
    reducedWords, randomReducedWord = type(W).reducedWords, type(W).randomReducedWord
    draws = itertools.count()

    def junk():
        return tuple(rng.randrange(rank) for _ in range(rng.randint(0, 3)))

    def rank2(self, w):
        return reducedWords(self, w) + [junk(), junk()]

    def drawn(self, w, r):
        word = randomReducedWord(self, w, r)
        return junk() if next(draws) % 3 == 2 else word

    for module in (cli, oracles):
        monkeypatch.setattr(module, "randomCharacters", lambda W, r, count: chars)
    monkeypatch.setattr(type(W), "reducedWords", rank2)
    monkeypatch.setattr(type(W), "randomReducedWord", drawn)


@pytest.mark.parametrize("name", ["A2", "G2", "B3"])
@pytest.mark.parametrize("seed", range(3))
def test_word_independence_names_the_oracle_witness(monkeypatch, name, seed):
    # the witness is the last failing pair in the pairwise loop's order
    W = weylGroup(name)
    failingDraws(W, monkeypatch, seed)
    got = cli._suiteWordIndependence(W, random.Random(cli.SEED))
    failingDraws(W, monkeypatch, seed)
    want = oracles.wordIndependencePairwise(W, random.Random(cli.SEED))
    assert got == want
    [(_, ok, witness)] = got[0]
    assert not ok and witness


def test_word_independence_packs_each_character_once(monkeypatch, capsys):
    # one demWords call per character on B3, not one packing per pair
    calls = []
    demWords = cli.dz.demWords
    monkeypatch.setattr(cli.dz, "demWords",
                        lambda W, words, f: calls.append(len(words)) or demWords(W, words, f))
    code, out, _ = run(capsys, "suite", "word-independence", "--type", "B3", "--no-cache")
    assert code == 0 and json.loads(out)["comparisons"] == 100
    assert calls == [200] * 20


def test_order_file_errors_clip_a_long_path(tmp_path, capsys):
    d = tmp_path
    while len(str(d)) < 3000:
        d = d / ("d" * 200)
    d.mkdir(parents=True)
    files = {
        "not a permutation": ["e", "s1", "s2"],
        ":2: bad word letter 'x1'": ["e", "x1"],
        ":2: letter s9 out of range": ["e", "s9"],
        "not Bruhat-refining": ["s1 s2 s1", "s1", "s2", "s1 s2", "s2 s1", "e"],
    }
    for k, (what, lines) in enumerate(files.items()):
        p = writeOrder(d / f"o{k}.txt", lines)
        assert len(p) > 3000
        code, out, err = run(capsys, "suite", "xclass-gram", "--type", "A2",
                             "--order-file", p)
        assert (code, out) == (2, "") and what in err, err[:400]
        assert err.startswith(f"demkit: {p[:cli.PATH_CHARS]}... ({len(p)} characters)")
        assert len(err) < cli.PATH_CHARS + 120, err
