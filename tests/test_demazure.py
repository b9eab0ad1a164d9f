from __future__ import annotations

import itertools
import random

import pytest

import demkit.demazure as dz
from demkit.characters import Character, augment, isInvariant
from demkit.demazure import (
    charNabla,
    charP,
    charQ,
    charQhat,
    charQviaTwist,
    charSections,
    demElt,
    demStep,
    demWord,
    demWords,
    eulerChar,
    lowerSetMask,
)
from demkit.rootsystem import fundamental, isDominant, rho, rootSystem, zero
from demkit.weyl import WeylGroup, weylGroup

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


# the dominant box, coordinates 0 .. n, on which each type's irreducibles
# meet the longest operator
NABLA_BOXES = {"A1": 8, "A2": 5, "B2": 5, "C2": 5, "G2": 4, "A3": 3, "B3": 3,
               "C3": 3, "A4": 2, "B4": 2, "C4": 2, "D4": 2, "F4": 1}

# a highest weight per type whose packing bound is 2^k - 1, so that the
# widest coordinate fills its field
FULL_FIELDS = {"A1": (12,), "A2": (1, 10), "B2": (2, 5), "C2": (5, 2),
               "G2": (4, 1), "A3": (0, 1, 3), "B3": (0, 1, 1), "C3": (1, 1, 0),
               "A4": (0, 1, 2, 0), "B4": (0, 0, 1, 1), "C4": (0, 1, 1, 0),
               "D4": (0, 1, 0, 2), "F4": (0, 1, 0, 0)}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_char_nabla_matches_longest_operator(name):
    # Freudenthal on dominant weights against pi_w0(e^lam) and Weyl's
    # dimension formula; a fresh group, so nothing is read from a memo
    W = WeylGroup(rootSystem(name))
    for lam in itertools.product(range(NABLA_BOXES[name] + 1), repeat=W.sys.rank):
        chi = charNabla(W, lam)
        assert chi == demElt(W, W.w0, Character.monomial(lam)), lam
        assert augment(chi) == oracles.weylDim(W.sys, lam), lam


@pytest.mark.parametrize("name", ALL_TYPES)
def test_char_nabla_with_full_packing_fields(name, monkeypatch):
    W = WeylGroup(rootSystem(name))
    lam = FULL_FIELDS[name]
    bounds = []
    layout = dz._layout
    monkeypatch.setattr(dz, "_layout", lambda W, bound: bounds.append(bound) or layout(W, bound))
    chi = charNabla(W, lam)
    [bound] = bounds
    assert bound >= 7 and bound & (bound + 1) == 0
    assert chi == demElt(W, W.w0, Character.monomial(lam))
    assert augment(chi) == oracles.weylDim(W.sys, lam)


def test_char_nabla_string_steps_past_the_box_alias_nothing(monkeypatch):
    # with the box cut down to the largest coordinate the orbit reaches, a
    # string step one root past it borrows across fields; on B2 (3, 0) that
    # reads a real weight's multiplicity unless the fields are widened
    W = WeylGroup(rootSystem("B2"))
    lam = (3, 0)
    want = demElt(W, W.w0, Character.monomial(lam))
    reach = max(abs(x) for w in W.elements() for x in W.act(w, lam))
    monkeypatch.setattr(dz, "_coordBound", lambda W, f: reach)
    assert charNabla(W, lam) == want


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
        for lamPlus in itertools.product(range(2), repeat=W.sys.rank):
            assert charP(W, W.act(w, lamPlus)) == \
                charSections(W, W.bruhatBits[w], lamPlus, 0)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_sections_walk_matches_plain_oracle(name):
    """The orbit masks against one W.act per element of the mask: every
    one-generator lower set below rank 4, and seeded two-generator lower sets
    (rank 4: a few, with 0/1 weights, as F4's layer characters are costly)."""
    W = weylGroup(name)
    n = W.sys.rank
    rng = random.Random(f"sections:{name}")
    if n < 4:
        lams = [rho(W.sys)] + [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
        cases = [(W.bruhatBits[w], lam) for w in W.elements() for lam in lams]
        cases += [(lowerSetMask(W, rng.sample(range(W.size), 2)), rng.choice(lams))
                  for _ in range(20)]
    else:
        cases = [(lowerSetMask(W, rng.sample(range(W.size), 2)),
                  tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(4)]
    for mask, lam in cases:
        assert charSections(W, mask, lam, 0) == oracles.charSectionsPlain(W, mask, lam), \
            (oracles.antichainFromMask(W, mask), lam)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_sections_masks_match_walk_oracle(name):
    """The orbit masks against the lower-set walk they replaced, at every
    dominant 0/1 weight.  Tops are Demazure products u * t: every top when
    |W| <= 48 (t runs over W), a seeded sample at rank 4.  Each top is taken
    with nothing left out, with all of it left out, and with the lower sets
    alphaEntry and betaEntry leave out (the covers of t, resp. of u, moved
    by the same product)."""
    W = weylGroup(name)
    rng = random.Random(f"masks:{name}")
    lams = list(itertools.product(range(2), repeat=W.sys.rank))
    if W.size <= 48:
        pairs = [(u, t) for t in W.elements() for u in (0, rng.randrange(W.size))]
    else:
        pairs = [(rng.randrange(W.size), rng.randrange(W.size)) for _ in range(3)]
        lams = rng.sample(lams, 4)
    for u, t in pairs:
        mask = W.bruhatBits[W.demazureProduct(u, t)]
        cuts = (lowerSetMask(W, [W.demazureProduct(u, z) for z in W.covers(t)]),
                lowerSetMask(W, [W.demazureProduct(z, t) for z in W.covers(u)]))
        for below in (0, mask, *cuts):
            for lam in lams:
                assert charSections(W, mask, lam, below) == \
                    oracles.charSectionsWalk(W, mask, lam, below), (u, t, below, lam)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_orbit_sum_gives_full_character(name):
    W = weylGroup(name)
    full = W.bruhatBits[W.w0]
    assert full == (1 << W.size) - 1
    for lamPlus in itertools.product(range(2), repeat=W.sys.rank):
        assert charSections(W, full, lamPlus, 0) == charNabla(W, lamPlus)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_charQ_equals_twisted_route(name):
    W = weylGroup(name)
    for v in W.elements():
        lam = W.steinbergWeight(v)
        assert charQ(W, lam) == charQviaTwist(W, lam)
    for lam in itertools.product(range(-2, 2), repeat=W.sys.rank):
        assert charQ(W, lam) == charQviaTwist(W, lam)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_charQ_matches_boundary_definition(name):
    # the atom fold against inclusion-exclusion over the boundary antichain
    W = weylGroup(name)
    lams = {W.steinbergWeight(v) for v in W.elements()}
    lams.update(itertools.product(range(-2, 2), repeat=W.sys.rank))
    for lam in sorted(lams):
        assert charQ(W, lam) == oracles.charQBoundary(W, lam), lam


def test_charQ_matches_boundary_definition_D4_steinberg_weights():
    W = weylGroup("D4")
    for v in W.elements():
        lam = W.steinbergWeight(v)
        assert charQ(W, lam) == oracles.charQBoundary(W, lam), lam


def test_charQ_F4_equals_twisted_route():
    # inclusion-exclusion is out of reach on F4; the twist route is not
    W = weylGroup("F4")
    rng = random.Random("charQ:F4")
    for v in [W.w0, *rng.sample(range(W.size), 24)]:
        lam = W.steinbergWeight(v)
        assert charQ(W, lam) == charQviaTwist(W, lam), v


def test_charQ_is_one_demwords_call(monkeypatch):
    """On a fresh F4 group, the layer character at the length-24 element
    (lam = -rho, so w = w0) is one demWords call of one atom word, not a
    fold of 24 one-letter steps."""
    W = WeylGroup(rootSystem("F4"))
    calls = []
    real = dz.demWords

    def counting(W_, words, f):
        calls.append(list(words))
        return real(W_, words, f)

    monkeypatch.setattr(dz, "demWords", counting)
    lam = tuple(-x for x in rho(W.sys))
    assert W.toDominant(lam) == (rho(W.sys), W.w0) and W.length[W.w0] == 24
    got = charQ(W, lam)
    assert calls == [[tuple(~i for i in W.canonicalWord(W.w0))]]
    assert got == oracles.demWordPlain(W, calls[0][0], Character.monomial(rho(W.sys)))
    assert charQ(W, lam) is got and len(calls) == 1


def test_charQ_leaves_only_its_own_memo_family():
    # charQ memoises the layer only, no piece of the boundary
    W = WeylGroup(rootSystem("F4"))
    lam = next(lam for lam in map(W.steinbergWeight, W.elements())
               if W.length[W.toDominant(lam)[1]] >= 20)
    before = set(W.memo)
    charQ(W, lam)
    assert set(W.memo) - before == {("Q", lam)}


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
        s = oracles.lowerSet(W, [w])
        mask = lowerSetMask(W, s)
        assert oracles.antichainFromMask(W, mask) == s == (w,)
        for u in W.elements():
            assert oracles.inLowerSet(W, s, u) == W.bruhatLeq(u, w)
        # the covers generate everything strictly below w
        assert oracles.lowerSet(W, W.covers(w)) == tuple(sorted(W.covers(w)))
        assert lowerSetMask(W, W.covers(w)) == mask ^ (1 << w)
    # union of two incomparable elements survives as a two-element antichain
    s1s2 = W.rmul(W.rmul(0, 0), 1)
    s2s1 = W.rmul(W.rmul(0, 1), 0)
    s = oracles.lowerSet(W, [s1s2, s2s1])
    assert set(s) == {s1s2, s2s1}
    assert oracles.antichainFromMask(W, lowerSetMask(W, s)) == s
    # raw generators give the mask of their antichain
    gens = [s1s2, s2s1, 0, W.rmul(0, 0)]
    assert lowerSetMask(W, gens) == lowerSetMask(W, oracles.lowerSet(W, gens))


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


def overlappingWordSets(W, rng: random.Random):
    """(words, f) for demWords, from each packingSamples pair (word, f): for
    the 12 random words, every sample word over word's letters (so strings
    stay short), word again, the empty word, every suffix of word (each a
    suffix of the next) and non-reduced words (a letter repeated, word and
    its reverse); for the one-letter words whose string has ~10^3 terms,
    that word twice and the empty word.  Each set also holds every word
    spelled in atom letters (~i) and in mixed letters (~i at even
    positions), derived without drawing from rng."""
    def spellings(words):
        return [*words, *(tuple(~i for i in w) for w in words),
                *(tuple(~i if k % 2 == 0 else i for k, i in enumerate(w)) for w in words)]

    samples = list(packingSamples(W, rng))
    for word, f in samples[:12]:
        near = [w for w, _ in samples if set(w) <= set(word)]
        yield spellings([*near, word, (), *(word[k:] for k in range(len(word))),
                         word + word[-1:], word[:1] + word, word[::-1]]), f
    for word, f in samples[12:]:
        yield spellings([word, (), word]), f


@pytest.mark.parametrize("name", ALL_TYPES)
def test_demwords_matches_plain_oracle(name):
    W = weylGroup(name)
    rng = random.Random(31)
    for words, f in overlappingWordSets(W, rng):
        before = dict(f.terms)
        got = demWords(W, words, f)
        assert set(got) == set(words)
        for word, g in got.items():
            assert g.terms == oracles.demWordPlain(W, word, f).terms, (word, f)
            assert 0 not in g.terms.values()
        # every value is a fresh Character: mutating one touches no other
        # and not f
        assert len({id(g.terms) for g in got.values()} | {id(f.terms)}) == len(got) + 1
        first, *rest = got.values()
        want = [dict(g.terms) for g in rest]
        first.terms.clear()
        assert f.terms == before and [g.terms for g in rest] == want


def test_demword_empty_word_is_a_fresh_copy():
    W = weylGroup("B2")
    f = Character({(1, -1): 2, (0, 3): -1})
    g = demWord(W, (), f)
    assert g == f and g is not f and g.terms is not f.terms
