from __future__ import annotations

import itertools
import random

import pytest

from demkit.characters import Character, augment, isInvariant
from demkit.demazure import (
    antichainFromMask,
    boundary,
    charNabla,
    charP,
    charQ,
    charQhat,
    charQviaTwist,
    charSections,
    demElt,
    demStep,
    demWord,
    eulerChar,
    lowerSet,
    lowerSetMask,
)
from demkit.rootsystem import fundamental, isDominant, rho, zero
from demkit.weyl import weylGroup

import oracles

ALL_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
             "C2", "C3", "C4", "D4", "G2", "F4")


def randomChar(rank: int, rng: random.Random) -> Character:
    terms = {tuple(rng.randint(-3, 3) for _ in range(rank)): rng.randint(-4, 4)
             for _ in range(5)}
    return Character({w: c for w, c in terms.items() if c})


# closed forms on the rank-1 line: the operator sums a geometric string of
# exponents toward the reflected weight, with the n = -1 case collapsing.
def test_rank1_closed_forms():
    W = weylGroup("A1")
    for n in range(0, 6):
        got = demStep(W, 0, Character.monomial((n,)))
        want = Character({(n - 2 * k,): 1 for k in range(n + 1)})
        assert got == want
    assert demStep(W, 0, Character.monomial((-1,))) == Character.zero()
    for n in range(2, 6):
        got = demStep(W, 0, Character.monomial((-n,)))
        want = Character({(-n + 2 * k,): -1 for k in range(1, n)})
        assert got == want


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_demstep_idempotent(name):
    W = weylGroup(name)
    rng = random.Random(3)
    for _ in range(20):
        f = randomChar(2, rng)
        for i in range(2):
            once = demStep(W, i, f)
            assert demStep(W, i, once) == once


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_demelt_composes_along_demazure_product(name):
    W = weylGroup(name)
    rng = random.Random(7)
    f = randomChar(2, rng)
    for v in W.elements():
        for w in W.elements():
            assert demElt(W, v, demElt(W, w, f)) == \
                demElt(W, W.demazureProduct(v, w), f)


@pytest.mark.parametrize("name", ["G2", "B3"])
def test_demelt_composes_sampled(name):
    W = weylGroup(name)
    rng = random.Random(11)
    f = randomChar(W.sys.rank, rng)
    for _ in range(40):
        v, w = rng.randrange(W.size), rng.randrange(W.size)
        assert demElt(W, v, demElt(W, w, f)) == \
            demElt(W, W.demazureProduct(v, w), f)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_char_nabla_against_alternant_oracle(name):
    W = weylGroup(name)
    rank = W.sys.rank
    denom = oracles.alternantChar(W, zero(W.sys))
    for lam in itertools.product(range(2), repeat=rank):
        chi = charNabla(W, lam)
        assert chi * denom == oracles.alternantChar(W, lam)
        assert augment(chi) == oracles.weylDim(W.sys, lam)
        assert isInvariant(W, chi) is None
        assert chi.coeff(lam) == 1


def test_char_nabla_needs_dominant():
    W = weylGroup("A2")
    with pytest.raises(ValueError):
        charNabla(W, (-1, 0))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_charP_positivity_and_socle(name):
    W = weylGroup(name)
    for lam in itertools.product(range(-2, 2), repeat=W.sys.rank):
        f = charP(W, lam)
        assert all(c > 0 for c in f.terms.values())
        assert f.coeff(lam) == 1


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_filtration_identity(name):
    # sections over a Schubert variety split into boundary-kernel layers,
    # one per distinct extreme in the lower Bruhat interval
    W = weylGroup(name)
    for w in W.elements():
        s = lowerSet(W, [w])
        for lamPlus in itertools.product(range(2), repeat=W.sys.rank):
            assert charP(W, W.act(w, lamPlus)) == charSections(W, s, lamPlus)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_sections_walk_matches_plain_oracle(name):
    """The lower-set walk against one W.act per element of the mask: every
    one-generator lower set below rank 4, and seeded two-generator lower sets
    (rank 4: a few, with 0/1 weights, as F4's layer characters are costly)."""
    W = weylGroup(name)
    n = W.sys.rank
    rng = random.Random(f"sections:{name}")
    if n < 4:
        lams = [rho(W.sys)] + [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
        cases = [((w,), lam) for w in W.elements() for lam in lams]
        cases += [(lowerSet(W, rng.sample(range(W.size), 2)), rng.choice(lams))
                  for _ in range(20)]
    else:
        cases = [(lowerSet(W, rng.sample(range(W.size), 2)),
                  tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(4)]
    for s, lam in cases:
        assert charSections(W, s, lam) == oracles.charSectionsPlain(W, s, lam), (s, lam)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_orbit_sum_gives_full_character(name):
    W = weylGroup(name)
    full = lowerSet(W, [W.w0])
    for lamPlus in itertools.product(range(2), repeat=W.sys.rank):
        assert charSections(W, full, lamPlus) == charNabla(W, lamPlus)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_charQ_equals_twisted_route(name):
    W = weylGroup(name)
    for v in W.elements():
        lam = W.steinbergWeight(v)
        assert charQ(W, lam) == charQviaTwist(W, lam)
    for lam in itertools.product(range(-2, 2), repeat=W.sys.rank):
        assert charQ(W, lam) == charQviaTwist(W, lam)


def test_charQ_rank1_values():
    W = weylGroup("A1")
    assert charQ(W, (0,)) == Character.monomial((0,))
    assert charQ(W, (3,)) == Character.monomial((3,))
    # negative side: full string minus the head layer
    assert charQ(W, (-3,)) == Character({(1,): 1, (-1,): 1, (-3,): 1})


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_charQ_head_coefficient(name):
    W = weylGroup(name)
    for lam in itertools.product(range(-2, 2), repeat=2):
        assert charQ(W, lam).coeff(lam) == 1


def test_lower_sets():
    W = weylGroup("B2")
    for w in W.elements():
        s = lowerSet(W, [w])
        mask = lowerSetMask(W, s)
        assert antichainFromMask(W, mask) == s == (w,)
        for u in W.elements():
            assert oracles.inLowerSet(W, s, u) == W.bruhatLeq(u, w)
        assert set(boundary(W, w)) == set(W.covers(w))
    # union of two incomparable elements survives as a two-element antichain
    s1s2 = W.rmul(W.rmul(0, 0), 1)
    s2s1 = W.rmul(W.rmul(0, 1), 0)
    s = lowerSet(W, [s1s2, s2s1])
    assert set(s) == {s1s2, s2s1}
    assert antichainFromMask(W, lowerSetMask(W, s)) == s


def test_euler_char_is_invariant_and_projects():
    W = weylGroup("A2")
    rng = random.Random(13)
    for _ in range(10):
        f = randomChar(2, rng)
        e = eulerChar(W, f)
        assert isInvariant(W, e) is None
        assert eulerChar(W, e) == e
    for lam in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        assert eulerChar(W, Character.monomial(lam)) == charNabla(W, lam)


@pytest.mark.parametrize("name,piP", [("A2", (0,)), ("A2", (1,)),
                                      ("B2", (0,)), ("B2", (1,)),
                                      ("B3", (0, 1))])
def test_charQhat_layer_structure(name, piP):
    # inducing up to the parabolic stacks one boundary-kernel layer per
    # distinct weight in the subgroup orbit, each with head coefficient 1
    W = weylGroup(name)
    wp, minimal, w0p = W.parabolicData(piP)
    for v in minimal:
        ev = W.steinbergWeight(v)
        f = charQhat(W, ev, piP)
        assert f.coeff(ev) == 1
        orbit = {W.act(u, ev) for u in wp}
        assert oracles.extremalWeights(W.sys, f) == orbit
        layers = Character.zero()
        for mu in sorted(orbit):
            assert f.coeff(mu) == 1
            layers = layers + charQ(W, mu)
        assert f == layers
        # stable under the parabolic's own operators
        for i in piP:
            assert demStep(W, i, f) == f


def test_charQhat_degenerate_cases():
    W = weylGroup("B2")
    for lam in itertools.product(range(-2, 2), repeat=2):
        assert charQhat(W, lam, ()) == charQ(W, lam)
    assert charQhat(W, zero(W.sys), (0, 1)) == charNabla(W, zero(W.sys))


def test_word_order_matters_in_demword():
    # demWord folds right-to-left: the last letter acts first
    W = weylGroup("A2")
    f = Character.monomial((1, 1))
    assert demWord(W, (0, 1), f) == demStep(W, 0, demStep(W, 1, f))
    assert demWord(W, (), f) == f



def packingSamples(W, rng: random.Random):
    """(word, f) pairs for the packed demWord.  Coordinates paired with the
    word's letters stay small so strings stay short; the others sit near 0,
    +-10^3 or +-10^6, which changes the field width.  One more sample per
    letter strings a +-10^3 coordinate out under that letter alone."""
    rank = W.sys.rank
    for trial in range(12):
        letters = rng.sample(range(rank), rng.randint(1, rank))
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        scale = (0, 10**3, 10**6)[trial % 3]
        terms = {}
        for _ in range(5):
            lam = tuple(rng.randint(-3, 3) if j in letters
                        else rng.choice((-1, 1)) * scale + rng.randint(-3, 3)
                        for j in range(rank))
            terms[lam] = rng.choice((-3, -2, -1, 1, 2, 3))
        yield word, Character(terms)
    for i in range(rank):
        big = tuple(rng.choice((-1, 1)) * (10**3 + rng.randint(0, 3)) if j == i
                    else rng.choice((-1, 1)) * 10**6 for j in range(rank))
        yield (i,), Character({big: 2, zero(W.sys): -1})


@pytest.mark.parametrize("name", ALL_TYPES)
def test_demword_matches_plain_oracle(name):
    W = weylGroup(name)
    rng = random.Random(23)
    for word, f in packingSamples(W, rng):
        got = demWord(W, word, f)
        want = oracles.demWordPlain(W, word, f)
        assert got.terms == want.terms, (word, f)
        assert 0 not in got.terms.values()
        if len(word) == 1:
            assert demStep(W, word[0], f).terms == want.terms


def eulerSamples(W, rng: random.Random):
    """Non-invariant characters whose monomials e^mu have mu + rho in random
    chambers: regular (rho, or rho plus a fundamental weight) or on a wall
    (rho minus a fundamental weight).  Small groups also get random
    weights in [-2, 1]^r."""
    sys = W.sys
    r = rho(sys)
    rank = sys.rank
    for _ in range(6 if rank < 4 else 2):
        terms = {}
        for _ in range(4):
            j = rng.randrange(rank)
            shift = rng.choice((-1, 0, 1))
            nu = tuple(r[k] + (shift if k == j else 0) for k in range(rank))
            mu = tuple(x - 1 for x in W.act(rng.randrange(W.size), nu))
            terms[mu] = rng.choice((-2, -1, 1, 2))
        if rank < 4:
            for _ in range(3):
                terms[tuple(rng.randint(-2, 1) for _ in range(rank))] = rng.randint(1, 3)
        yield Character(terms)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_euler_char_matches_termwise_oracle(name):
    W = weylGroup(name)
    rng = random.Random(29)
    nonzero = 0
    for f in eulerSamples(W, rng):
        assert isInvariant(W, f) is not None
        got = eulerChar(W, f)
        assert got.terms == oracles.eulerCharTermwise(W, f).terms, f
        nonzero += bool(got)
    assert nonzero
