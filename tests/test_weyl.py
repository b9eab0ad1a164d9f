from __future__ import annotations

import itertools
import random

import pytest

from demkit.rootsystem import isDominant, negW, rho, zero
from demkit.weyl import weylGroup

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


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_length_equals_inversion_count(name):
    W = weylGroup(name)
    for w in W.elements():
        assert W.length[w] == oracles.lengthByInversions(W, w)
        assert len(W.canonicalWord(w)) == W.length[w]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_bruhat_matches_subword_oracle(name):
    W = weylGroup(name)
    for w in W.elements():
        low = oracles.subwordReachable(W, w)
        for u in W.elements():
            assert W.bruhatLeq(u, w) == (u in low)


def test_bruhat_spot_checks_B3():
    W = weylGroup("B3")
    rng = random.Random(5)
    for _ in range(300):
        u, w = rng.randrange(W.size), rng.randrange(W.size)
        assert W.bruhatLeq(u, w) == oracles.bruhatLeqOracle(W, u, w)


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


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "F4"])
def test_total_order_refines_bruhat(name):
    W = weylGroup(name)
    order = W.totalOrderBuild()
    assert sorted(order) == list(W.elements())
    pos = {w: k for k, w in enumerate(order)}
    assert all(W.orderPos(w) == pos[w] for w in W.elements())
    for u in W.elements():
        for w in W.elements():
            if u != w and W.bruhatLeq(u, w):
                assert pos[u] < pos[w]


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
