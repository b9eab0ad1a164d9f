from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

import demkit
from demkit.rootsystem import isDominant, negW, rho, rootSystem, zero
from demkit.weyl import WeylGroup, weylGroup

import oracles

ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D4": 192, "G2": 12, "F4": 1152,
}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_group_order(name):
    assert weylGroup(name).size == ORDERS[name]


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_positive_roots_match_oracle(name):
    # one positive root per reflection hyperplane, as many as l(w0)
    W = weylGroup(name)
    assert sorted(W.positiveRoots) == sorted(oracles.positiveRoots(W.sys))
    assert len(W.positiveRoots) == W.length[W.w0]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_length_equals_inversion_count(name):
    W = weylGroup(name)
    for w in W.elements():
        assert W.length[w] == oracles.lengthByInversions(W, w)
        assert len(W.canonicalWord(w)) == W.length[w]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_bruhat_matches_subword_oracle(name):
    W = weylGroup(name)
    for w in W.elements():
        low = oracles.subwordReachable(W, w)
        for u in W.elements():
            assert W.bruhatLeq(u, w) == (u in low)


def spotCheckBruhat(name, seed):
    W = weylGroup(name)
    rng = random.Random(seed)
    for _ in range(300):
        u, w = rng.randrange(W.size), rng.randrange(W.size)
        assert W.bruhatLeq(u, w) == oracles.bruhatLeqOracle(W, u, w)


def test_bruhat_spot_checks_B3():
    spotCheckBruhat("B3", 5)


def test_bruhat_spot_checks_D4():
    spotCheckBruhat("D4", 12)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_bruhat_table_matches_descent_oracle(name):
    W = weylGroup(name)
    bits, covers = oracles.bruhatBitsByDescent(W)
    assert W.bruhatBits == bits
    assert W.coversOf == covers
    for w in W.elements():
        assert W.bruhatBits[w] < 1 << W.size
        assert W.bruhatBits[w] & 1 and W.bruhatBits[w] >> w & 1


def test_group_keeps_no_build_scratch():
    W = WeylGroup(rootSystem("B3"))
    assert sorted(vars(W)) == sorted([
        "sys", "cartanCols", "positiveRoots", "size", "words", "length", "rmulTable", "inv",
        "lmulTable", "w0", "bruhatBits", "coversOf", "memo",
    ])


def test_bruhat_table_same_under_python_O():
    # one -O process with another hash seed builds every group afresh
    src = os.path.dirname(os.path.dirname(os.path.abspath(demkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "7"
    script = """if 1:
        import hashlib, sys
        from demkit.weyl import weylGroup
        assert not __debug__
        for name in sys.argv[1:]:
            W = weylGroup(name)
            print(name, hashlib.sha256(repr((W.bruhatBits, W.coversOf)).encode()).hexdigest())
    """
    proc = subprocess.run([sys.executable, "-O", "-c", script, *sorted(ORDERS)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    want = ""
    for name in sorted(ORDERS):
        W = weylGroup(name)
        want += f"{name} {hashlib.sha256(repr((W.bruhatBits, W.coversOf)).encode()).hexdigest()}\n"
    assert proc.stdout == want


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_bruhat_is_a_poset_with_extremes(name):
    W = weylGroup(name)
    for w in W.elements():
        assert W.bruhatLeq(0, w) and W.bruhatLeq(w, W.w0)
        assert W.bruhatLeq(w, w)
        for u in W.elements():
            if W.bruhatLeq(u, w):
                assert W.length[u] <= W.length[w]
                if W.bruhatLeq(w, u):
                    assert u == w


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_covers_match_bruhat_table(name):
    W = weylGroup(name)
    for w in W.elements():
        want = {z for z in W.elements()
                if W.length[z] == W.length[w] - 1 and W.bruhatLeq(z, w)}
        assert set(W.covers(w)) == want


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_demazure_product(name):
    W = weylGroup(name)
    for x in W.elements():
        assert W.demazureProduct(x, W.w0) == W.w0
        assert W.demazureProduct(W.w0, x) == W.w0
        for y in W.elements():
            # length-additive pairs multiply honestly
            if W.length[W.mul(x, y)] == W.length[x] + W.length[y]:
                assert W.demazureProduct(x, y) == W.mul(x, y)
            for z in W.elements():
                assert W.demazureProduct(W.demazureProduct(x, y), z) == \
                    W.demazureProduct(x, W.demazureProduct(y, z))


def test_mul_and_inverse():
    W = weylGroup("B3")
    rng = random.Random(1)
    for _ in range(200):
        x, y = rng.randrange(W.size), rng.randrange(W.size)
        assert W.mul(W.inverse(x), x) == 0
        assert W.inverse(W.mul(x, y)) == W.mul(W.inverse(y), W.inverse(x))
    assert W.mul(W.w0, W.w0) == 0


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_to_dominant(name):
    W = weylGroup(name)
    for lam in itertools.product(range(-2, 2), repeat=W.sys.rank):
        dom, w = W.toDominant(lam)
        assert isDominant(dom)
        assert W.act(w, dom) == lam
        # minimality: the witness length equals the separating hyperplane count
        assert W.length[w] == oracles.hyperplanesSeparating(W.sys, lam)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_to_dominant_matches_plain_reference(name):
    W = weylGroup(name)
    for lam in itertools.product(range(-3, 4), repeat=W.sys.rank):
        assert W.toDominant(lam) == oracles.toDominantPlain(W, lam)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_fresh_group_has_empty_memo(name):
    # every table of the character layers is built on first use, not at set-up
    assert WeylGroup(rootSystem(name)).memo == {}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_orbit_matches_act(name):
    W = weylGroup(name)
    lam = tuple(range(-1, W.sys.rank - 1))
    assert W.orbit(lam) == [W.act(u, lam) for u in W.elements()]


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_steinberg_weight_table_matches_fold_oracle(name):
    W = WeylGroup(rootSystem(name))
    got = [W.steinbergWeight(v) for v in W.elements()]
    assert W.memoSizes() == {"stw": W.size}
    assert got == [oracles.steinbergWeightByAct(W, v) for v in W.elements()]


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_steinberg_weights(name):
    W = weylGroup(name)
    seen = {}
    for v in W.elements():
        ev = W.steinbergWeight(v)
        assert ev not in seen, (v, seen[ev])
        seen[ev] = v
        moved = W.act(v, ev)
        assert isDominant(moved) and all(x in (0, 1) for x in moved)
        dom, w = W.toDominant(ev)
        assert dom == moved
        assert w == W.inverse(v)
    assert seen[zero(W.sys)] == 0
    assert seen[negW(rho(W.sys))] == W.w0


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_total_order_refines_bruhat(name):
    # ids are the default total order: (length, canonical word), with w0 last
    W = weylGroup(name)
    ids = list(W.elements())
    assert ids == sorted(ids, key=lambda w: (W.length[w], W.canonicalWord(w)))
    assert W.w0 == W.size - 1 and W.length[W.w0] == max(W.length)
    # u < w in Bruhat order puts u at a smaller id: no bit of [e, w] lies above w
    for w in ids:
        assert W.bruhatBits[w] >> w == 1


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_reduced_words_all_reduced_and_canonical_is_smallest(name):
    W = weylGroup(name)
    for w in W.elements():
        words = W.reducedWords(w)
        assert len(set(words)) == len(words)
        for word in words:
            u = 0
            for i in word:
                u = W.rmul(u, i)
            assert u == w and len(word) == W.length[w]
        assert min(words) == W.canonicalWord(w)


def test_random_reduced_word():
    W = weylGroup("B3")
    rng = random.Random(9)
    for _ in range(100):
        w = rng.randrange(W.size)
        word = W.randomReducedWord(w, rng)
        u = 0
        for i in word:
            u = W.rmul(u, i)
        assert u == w and len(word) == W.length[w]


@pytest.mark.parametrize("name", ["A2", "B2", "B3"])
def test_parabolic_data(name):
    W = weylGroup(name)
    rank = W.sys.rank
    for r in range(rank + 1):
        for piP in itertools.combinations(range(rank), r):
            wp, minimal, w0p = W.parabolicData(piP)
            assert set(minimal) == oracles.minimalCosetReps(W, piP)
            assert len(wp) * len(minimal) == W.size
            assert max(W.length[p] for p in wp) == W.length[w0p]
            assert 0 in minimal and 0 in wp


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_parabolic_subgroup_matches_closure(name):
    # W_P read off the canonical words against the closure of {e} under P
    W = weylGroup(name)
    rank = W.sys.rank
    for r in range(rank + 1):
        for piP in itertools.combinations(range(rank), r):
            wp, _, w0p = W.parabolicData(piP)
            assert wp == sorted(oracles.parabolicSubgroup(W, piP))
            assert w0p == wp[-1] and W.length[w0p] == max(W.length[p] for p in wp)


def test_descents():
    W = weylGroup("B2")
    assert W.rightDescents(0) == [] and W.leftDescents(0) == []
    assert set(W.rightDescents(W.w0)) == {0, 1}
    for w in W.elements():
        for i in W.rightDescents(w):
            assert W.length[W.rmul(w, i)] == W.length[w] - 1
        for i in W.leftDescents(w):
            assert W.length[W.lmulTable[w][i]] == W.length[w] - 1


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_reflection_keys_match_matrix_enumeration(name):
    """The enumeration keyed by w^-1 rho gives the same ids, words and tables
    as the one keyed by action matrices, and act agrees with the matrices."""
    W = weylGroup(name)
    old = oracles.matrixWeylTables(W.sys)
    assert W.words == old["words"]
    assert W.rmulTable == old["rmul"]
    assert W.lmulTable == old["lmul"]
    assert W.inv == old["inv"]
    rng = random.Random(f"act:{name}")
    elems = list(W.elements())
    if W.size > 200:
        elems = rng.sample(elems, 200) + [W.w0]
    for w in elems:
        for _ in range(5):
            lam = tuple(rng.randint(-4, 4) for _ in range(W.sys.rank))
            assert W.act(w, lam) == oracles.matrixAct(old["mats"][w], lam)


def test_memo_sizes_count_entries_per_family():
    # a one-item key holds a table and counts its entries; a longer key is
    # one entry of its family
    W = WeylGroup(rootSystem("A2"))
    assert W.memoSizes() == {}
    W.memo[("Q", (1, 0))] = None
    W.memo[("Q", (0, 1))] = None
    W.memo[("stx",)] = {(0, 0): {}, (1, 0): {}, (0, 1): {}}
    assert W.memoSizes() == {"Q": 2, "stx": 3}
    W.clearMemo()
    assert W.memoSizes() == {}
