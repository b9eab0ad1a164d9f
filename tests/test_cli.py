from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import demkit
import demkit.cache as cache
import demkit.cli as cli
from demkit.cli import main
from demkit.weyl import weylGroup


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
    code, _, err = run(capsys, "eval", "e([0])", "--type", "E8")
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


def test_cache_byte_identity(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    argv = ("suite", "q-equivalence", "--type", "A2", "--cache-dir", cdir)
    _, cold, _ = run(capsys, *argv)
    files = [f for _, _, fs in os.walk(cdir) for f in fs]
    assert files
    _, hot, _ = run(capsys, *argv)
    _, bare, _ = run(capsys, "suite", "q-equivalence", "--type", "A2",
                     "--no-cache")
    assert cold == hot == bare


@pytest.mark.parametrize("argv, bad", [
    (("eval", "e([1,0])", "--type", "A2"), []),
    (("suite", "steinberg-lists", "--type", "A2"), {"a": 1}),
])
def test_cache_entry_of_wrong_shape_is_recomputed(tmp_path, capsys, argv, bad):
    cdir = tmp_path / "cache"
    code, cold, _ = run(capsys, *argv, "--cache-dir", str(cdir))
    (entry,) = cdir.iterdir()
    good = json.loads(entry.read_text())
    entry.write_text(json.dumps(bad))
    code2, out, err = run(capsys, *argv, "--cache-dir", str(cdir))
    assert (code2, out, err) == (code, cold, "")
    assert json.loads(entry.read_text()) == good


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
