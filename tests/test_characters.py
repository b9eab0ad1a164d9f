from __future__ import annotations

import itertools
import random

import pytest

from demkit.characters import (
    Character,
    augment,
    compact,
    decomposeWeylBasis,
    dual,
    gDual,
    gSorted,
    isInvariant,
    pretty,
)
from demkit.demazure import charNabla, expandGClass, gAddMul
from demkit.rootsystem import fundamental, isDominant, rho, rootSystem
from demkit.weyl import weylGroup
from oracles import TYPES, decomposeGreedy, extremalWeights, height, weylActionChar


def randomChar(rank: int, rng: random.Random, nterms: int = 5) -> Character:
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(-3, 3) for _ in range(rank))
        terms[w] = rng.randint(-5, 5)
    return Character({w: c for w, c in terms.items() if c})


def test_ring_axioms():
    rng = random.Random(2)
    for _ in range(25):
        f, g, h = (randomChar(2, rng) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Character.zero()
        assert f + Character.zero() == f
        one = Character.monomial((0, 0))
        assert f * one == f
        assert -(-f) == f
        assert 3 * f == f + f + f


def test_no_explicit_zeros_survive():
    f = Character.monomial((1, 0)) - Character.monomial((1, 0))
    assert f.terms == {}
    g = Character.monomial((1, 0)) + Character.monomial((0, 1))
    assert (g - Character.monomial((0, 1))).terms == {(1, 0): 1}


def test_monomial_product_adds_exponents():
    f = Character.monomial((1, -1), 2) * Character.monomial((0, 3), -3)
    assert f.terms == {(1, 2): -6}


def test_dual_is_ring_homomorphism_and_involution():
    rng = random.Random(4)
    for _ in range(25):
        f, g = randomChar(3, rng), randomChar(3, rng)
        assert dual(f * g) == dual(f) * dual(g)
        assert dual(f + g) == dual(f) + dual(g)
        assert dual(dual(f)) == f


def test_augment_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(25):
        f, g = randomChar(2, rng), randomChar(2, rng)
        assert augment(f * g) == augment(f) * augment(g)
        assert augment(f + g) == augment(f) + augment(g)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_weyl_action_is_a_group_action(name):
    W = weylGroup(name)
    rng = random.Random(6)
    f = randomChar(2, rng)
    for u in W.elements():
        for v in W.elements():
            assert weylActionChar(W, u, weylActionChar(W, v, f)) == \
                weylActionChar(W, W.mul(u, v), f)
    assert weylActionChar(W, 0, f) == f


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_invariance_detector(name):
    W = weylGroup(name)
    chi = charNabla(W, (1, 1))
    assert isInvariant(W, chi) is None
    bad = Character.monomial(fundamental(W.sys, 0))
    witness = isInvariant(W, bad)
    assert witness is not None
    lam, slam = witness
    assert bad.coeff(lam) != bad.coeff(slam)
    # invariance holds iff every simple reflection fixes f
    for w in W.elements():
        assert weylActionChar(W, w, chi) == chi


def smallestFundamentals(W) -> list:
    fundamentals = [fundamental(W.sys, i) for i in range(W.sys.rank)]
    return sorted(fundamentals, key=lambda f: augment(charNabla(W, f)))[:2]


def invariantSamples(W, runs: int):
    """Random products of irreducible characters, plus a multiple of one;
    these stay invariant by construction.  Seeded by the type name."""
    rank = W.sys.rank
    rng = random.Random(sum(map(ord, W.sys.name)))
    fundamentals = [fundamental(W.sys, i) for i in range(rank)]
    small = smallestFundamentals(W)
    for _ in range(runs):
        if rank <= 3:
            a = tuple(rng.randint(0, 1) for _ in range(rank))
            b = rng.choice(fundamentals)
        else:
            a, b = rng.choice(small), rng.choice(small)
        yield charNabla(W, a) * charNabla(W, b) + rng.randint(-2, 2) * charNabla(W, b)


@pytest.mark.parametrize("name", TYPES)
def test_decompose_weyl_basis_round_trip(name):
    W = weylGroup(name)
    for f in invariantSamples(W, 100 if W.sys.rank <= 3 else 12):
        coeffs = decomposeWeylBasis(W, f)
        assert expandGClass(W, coeffs) == f
        assert all(c != 0 for c in coeffs.values())


@pytest.mark.parametrize("name", TYPES)
def test_decompose_matches_greedy_oracle(name):
    # the alternant rule against the greedy stripping it replaced, order too
    W = weylGroup(name)
    small = smallestFundamentals(W)
    samples = list(invariantSamples(W, 25 if W.sys.rank <= 3 else 2))
    samples.append(charNabla(W, small[0]) * charNabla(W, small[-1]))
    for f in samples:
        assert list(decomposeWeylBasis(W, f).items()) == \
            list(decomposeGreedy(W, f).items())


RANK_LE_3 = [name for name in TYPES if rootSystem(name).rank <= 3]


def gProduct(W, lam, mu) -> dict:
    acc = {}
    gAddMul(W, acc, {lam: 1}, {mu: 1})
    return acc


def checkProduct(W, lam, mu) -> None:
    f = charNabla(W, lam) * charNabla(W, mu)
    got = gProduct(W, lam, mu)
    assert got == decomposeWeylBasis(W, f)
    assert got == decomposeGreedy(W, f)
    assert gProduct(W, mu, lam) == got


@pytest.mark.parametrize("name", RANK_LE_3)
def test_brauer_klimyk_product_every_small_pair(name):
    # chi(lam) chi(mu) in R(G) against decomposing the product of characters,
    # for every pair of dominant weights with coordinates <= 1
    W = weylGroup(name)
    weights = list(itertools.product((0, 1), repeat=W.sys.rank))
    for lam, mu in itertools.combinations_with_replacement(weights, 2):
        checkProduct(W, lam, mu)
    for lam in weights:
        assert gDual(W, {lam: 3}) == decomposeWeylBasis(W, dual(3 * charNabla(W, lam)))


@pytest.mark.parametrize("name", [t for t in TYPES if t not in RANK_LE_3])
def test_brauer_klimyk_product_rank_4_sample(name):
    # seeded pairs over the two smallest fundamentals and their sum
    W = weylGroup(name)
    a, b = smallestFundamentals(W)
    pool = [a, b, tuple(x + y for x, y in zip(a, b))]
    rng = random.Random(sum(map(ord, "bk:" + name)))
    for _ in range(3):
        checkProduct(W, rng.choice(pool), rng.choice([a, b]))


def test_g_add_mul_accumulates_and_cancels():
    W = weylGroup("B2")
    h = {(0, 0): 2, (1, 0): 1}
    k = {(1, 0): 1, (0, 1): -1}
    acc = {(0, 1): 2}
    gAddMul(W, acc, h, k)
    want = decomposeWeylBasis(
        W, expandGClass(W, h) * expandGClass(W, k) + 2 * charNabla(W, (0, 1)))
    assert acc == want
    gAddMul(W, acc, {(0, 0): -1}, want)
    assert acc == {}


def test_decompose_readme_example_order():
    W = weylGroup("B2")
    chi = charNabla(W, (1, 0))
    assert list(decomposeWeylBasis(W, chi * chi).items()) == \
        [((2, 0), 1), ((0, 1), 1), ((0, 0), 1)]


@pytest.mark.parametrize("name", TYPES)
def test_decompose_rejects_perturbed_invariant(name):
    W = weylGroup(name)
    chi = charNabla(W, rho(W.sys))
    mu = min(w for w in chi.terms if not isDominant(w))
    bad = chi + Character.monomial(mu)
    with pytest.raises(ValueError):
        decomposeWeylBasis(W, bad)
    witness = isInvariant(W, bad)
    assert witness is not None
    lam, slam = witness
    assert bad.coeff(lam) != bad.coeff(slam)
    assert slam in {W.act(W.rmul(0, i), lam) for i in range(W.sys.rank)}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_is_invariant_matches_simple_reflections(name):
    """Orbit sums, with and without one weight dropped or added, against
    applying every simple reflection; a witness is a pair lam, s_i lam with
    different coefficients."""
    W = weylGroup(name)
    rng = random.Random(f"invariant:{name}")
    cases = []
    for _ in range(10):
        lam = tuple(rng.randint(-2, 2) for _ in range(W.sys.rank))
        orbit = Character({W.act(w, lam): 1 for w in W.elements()})
        mu = rng.choice(sorted(orbit.terms))
        cases += [orbit, orbit - Character.monomial(mu), orbit + Character.monomial(mu),
                  randomChar(W.sys.rank, rng)]
    for f in cases:
        fixed = all(weylActionChar(W, W.rmul(0, i), f) == f for i in range(W.sys.rank))
        witness = isInvariant(W, f)
        assert (witness is None) == fixed
        if witness is not None:
            lam, slam = witness
            assert f.coeff(lam) != f.coeff(slam)
            assert slam in {W.reflect(lam, i) for i in range(W.sys.rank)}


@pytest.mark.parametrize("name", TYPES)
def test_g_sorted_is_descending_height_then_lex(name):
    # height is the linear form with the column sums of the scaled inverse
    # Cartan matrix as coefficients; gSorted orders by it, then by the weight
    W = weylGroup(name)
    sys = W.sys
    assert sys.heightInt == tuple(sum(row[j] for row in sys.cartanInvInt)
                                  for j in range(sys.rank))
    rng = random.Random(f"gSorted:{name}")
    box = list(itertools.product(range(3), repeat=sys.rank))
    if sys.rank == 4:
        box = rng.sample(box, 40)
    rng.shuffle(box)
    mult = {lam: k + 1 for k, lam in enumerate(box)}
    got = gSorted(W, mult)
    want = sorted(box, key=lambda lam: (height(sys, lam), lam), reverse=True)
    assert list(got) == want
    assert got == mult


def test_decompose_rejects_non_invariant():
    W = weylGroup("A2")
    with pytest.raises(ValueError):
        decomposeWeylBasis(W, Character.monomial((1, 0)))


def test_extremal_weights():
    W = weylGroup("A2")
    chi = charNabla(W, rho(W.sys))
    orbit = {W.act(w, rho(W.sys)) for w in W.elements()}
    assert extremalWeights(W.sys, chi) == orbit
    assert extremalWeights(W.sys, Character.monomial((0, 0))) == {(0, 0)}


def test_pretty_and_compact_forms():
    f = Character({(1, -1): 1, (0, 0): 2})
    assert pretty(f) == "2·e[0,0] + e[1,-1]"
    assert compact(f) == "2e[0,0]+e[1,-1]"
    assert pretty(Character.zero()) == "0"
    assert compact(Character.zero()) == "0"
    g = Character({(1,): -1, (-1,): 3})
    assert pretty(g) == "3·e[-1] - e[1]"
    assert compact(g) == "3e[-1]-e[1]"
