"""Acceptance gate: thirteen end-to-end identities, every one checked with
exact integer arithmetic (tolerance zero) and a wall-clock budget.

Each test prints a single PASS line (visible with -s); under pytest -v each
criterion likewise occupies exactly one line of the run log."""
from __future__ import annotations

import itertools
import random
import time

from demkit.characters import Character, augment, dual
from demkit.cli import SEED, randomCharacters
from demkit.demazure import charNabla, charQ, charQviaTwist, demStep, demWord, eulerChar
from demkit.ktheory import (
    eulerPair,
    dualConjectureCheck,
    gramCheck,
    gramTable,
    indPQCheck,
    indPQMatrix,
    orthogonalityCheck,
    parabolicChecks,
    steinbergListCheck,
    tensorDecompCheck,
    triangularityChecks,
    xClass,
    xHatClass,
)
from demkit.rootsystem import fundamental, rho, subW, zero
from demkit.weyl import weylGroup
from oracles import addW

ALL_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
             "C2", "C3", "C4", "D4", "G2", "F4")


def passLine(num: int, label: str, detail: str, dt: float, budget: float) -> None:
    print(f"PASS criterion {num:02d} {label}: {detail} "
          f"({dt:.2f}s, budget {budget:g}s)")
    assert dt < budget, f"criterion {num} exceeded {budget}s: {dt:.2f}s"


def identityOf(W):
    return min(W.elements(), key=lambda w: W.length[w])


def test_c01_steinberg_weight_lists():
    sizes = {"A2": 6, "B2": 8, "G2": 12}
    worst = 0.0
    for name, n in sizes.items():
        W = weylGroup(name)
        t0 = time.perf_counter()
        checks = steinbergListCheck(W)
        weights = {W.steinbergWeight(v) for v in W.elements()}
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert all(ok for _, ok, _ in checks), checks
        assert len(weights) == n == W.size
        assert dt < 1.0, f"{name}: {dt:.2f}s"
    passLine(1, "steinberg-lists", "A2/B2/G2 match catalogued sets 6/8/12",
             worst, 1.0)


def test_c02_fundamental_dimensions():
    t0 = time.perf_counter()
    got = {}
    for name, want in (("B2", (4, 5)), ("G2", (7, 14))):
        W = weylGroup(name)
        dims = tuple(augment(charNabla(W, fundamental(W.sys, i)))
                     for i in range(2))
        got[name] = dims
        assert dims == want, (name, dims)
    passLine(2, "dimensions", f"B2 {got['B2']}, G2 {got['G2']}",
             time.perf_counter() - t0, 1.0)


def test_c03_tensor_decompositions():
    t0 = time.perf_counter()
    counted = []
    for name in ("A2", "B2", "G2"):
        checks = tensorDecompCheck(weylGroup(name))
        assert all(ok for _, ok, _ in checks), (name, checks)
        counted.append(name)
    passLine(3, "tensor-decomp", "catalogued lists reproduced on " +
             "/".join(counted), time.perf_counter() - t0, 5.0)


def test_c04_q_route_equivalence():
    t0 = time.perf_counter()
    total = 0
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        W = weylGroup(name)
        grid = set(itertools.product(range(-2, 2), repeat=W.sys.rank))
        lams = grid | {W.steinbergWeight(v) for v in W.elements()}
        for lam in sorted(lams):
            assert charQ(W, lam) == charQviaTwist(W, lam), (name, lam)
            total += 1
    passLine(4, "q-equivalence", f"{total} weights across six types",
             time.perf_counter() - t0, 120.0)


def test_c05_indpq_unitriangular():
    t0 = time.perf_counter()
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        W = weylGroup(name)
        checks = indPQCheck(W, indPQMatrix(W))
        assert all(ok for _, ok, _ in checks), (name, checks)
    passLine(5, "indpq-unitriangular",
             "diagonal 1 and upper vanishing, exhaustive up to 48x48",
             time.perf_counter() - t0, 600.0)


def test_c06_transition_triangularity():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    for name in ("A2", "B2", "G2"):
        W = weylGroup(name)
        everyone = list(W.elements())
        checks = triangularityChecks(W, everyone, everyone)
        assert all(ok for _, ok, _ in checks), (name, checks)
    for name in ("A3", "B3"):
        W = weylGroup(name)
        ws = rng.sample(list(W.elements()), 12)
        checks = triangularityChecks(W, list(W.elements()), ws)
        assert all(ok for _, ok, _ in checks), (name, checks)
    passLine(6, "triangularity",
             "corners and zero pattern, exhaustive rank 2 + sampled A3/B3",
             time.perf_counter() - t0, 600.0)


def test_c07_orthogonality():
    t0 = time.perf_counter()
    for name in ("A2", "B2"):
        checks = orthogonalityCheck(weylGroup(name))
        assert all(ok for _, ok, _ in checks), (name, checks)
    passLine(7, "orthogonality", "exhaustive A2 and B2",
             time.perf_counter() - t0, 120.0)


def test_c08_xclasses():
    t0 = time.perf_counter()
    for name in ALL_TYPES:
        W = weylGroup(name)
        assert xClass(W, identityOf(W)) == Character.monomial(zero(W.sys)), name
    W = weylGroup("A1")
    assert [xClass(W, v) for v in W.elements()] == \
        [Character.monomial((0,)), Character.monomial((-1,))]
    for name in ("A2", "B2", "G2"):
        W = weylGroup(name)
        checks, _ = gramCheck(W, None, gramTable(W))
        assert all(ok for _, ok, _ in checks), (name, checks)
    passLine(8, "x-classes",
             "unit at identity in 13 types, rank-1 pair, rank-2 gram",
             time.perf_counter() - t0, 120.0)


def test_c09_parabolic():
    t0 = time.perf_counter()
    for name in ("A2", "B2"):
        W = weylGroup(name)
        for piP in ((0,), (1,)):
            checks = parabolicChecks(W, piP)
            assert all(ok for _, ok, _ in checks), (name, piP, checks)
            _, minimal, _ = W.parabolicData(piP)
            for v in minimal:
                assert xHatClass(W, v, piP) == xClass(W, v), (name, piP, v)
    passLine(9, "parabolic",
             "induction matrices and classes agree on minimal reps, "
             "both maximal parabolics of A2/B2",
             time.perf_counter() - t0, 60.0)


def test_c10_word_independence():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    pairs = 0
    for name in ("A2", "B2", "G2"):
        W = weylGroup(name)
        chars = randomCharacters(W, rng, 20)
        for w in W.elements():
            words = W.reducedWords(w)
            base = words[0]
            for other in words[1:]:
                for f in chars:
                    assert demWord(W, base, f) == demWord(W, other, f)
                pairs += 1
    W = weylGroup("B3")
    chars = randomCharacters(W, rng, 20)
    for _ in range(100):
        w = rng.randrange(W.size)
        a = W.randomReducedWord(w, rng)
        b = W.randomReducedWord(w, rng)
        for _ in range(10):
            if b != a:
                break
            b = W.randomReducedWord(w, rng)
        for f in chars:
            assert demWord(W, a, f) == demWord(W, b, f), (w, a, b)
        pairs += 1
    passLine(10, "word-independence",
             f"{pairs} reduced-word pairs on 20 random characters each",
             time.perf_counter() - t0, 120.0)


def test_c11_euler_sign_rule():
    t0 = time.perf_counter()
    W = weylGroup("A2")
    r = rho(W.sys)
    lams = [zero(W.sys), fundamental(W.sys, 0), fundamental(W.sys, 1), r]
    for lam in lams:
        chi = charNabla(W, lam)
        for w in W.elements():
            dot = subW(W.act(w, addW(lam, r)), r)
            want = chi if W.length[w] % 2 == 0 else -1 * chi
            assert eulerChar(W, Character.monomial(dot)) == want, (lam, w)
    passLine(11, "euler-sign-rule",
             "shifted-action exponentials recover signed characters, A2",
             time.perf_counter() - t0, 10.0)


def test_c12_two_step_bundle_character():
    t0 = time.perf_counter()
    W = weylGroup("B2")
    f = charNabla(W, (1, 0)) - Character.monomial((1, 0))
    want = Character.monomial((-1, 0)) + Character.monomial((1, -1))
    assert demStep(W, 0, f) == want
    passLine(12, "two-step-bundle", "B2 first-node identity",
             time.perf_counter() - t0, 1.0)


def test_c13_dual_collection_identity():
    t0 = time.perf_counter()
    held = total = 0
    for name in ("A2", "B2", "G2"):
        W = weylGroup(name)
        for v in W.elements():
            row = dualConjectureCheck(W, v)
            assert row["identity"] == "pass", (name, row)
            held += bool(row["conjectureHolds"])
            total += 1
    passLine(13, "dual-collection",
             f"sign identity exact for all {total} elements; "
             f"conjectured pairing reported true for {held}/{total} "
             "(not asserted)",
             time.perf_counter() - t0, 60.0)
