from __future__ import annotations

import json
import os
import shutil

import pytest

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
    assert lines[1].startswith("e,")


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
