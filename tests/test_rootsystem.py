from __future__ import annotations

import itertools
import random

import pytest

from demkit.rootsystem import (
    dominanceLeq,
    fundamental,
    heightScaled,
    innerProductScaled,
    isDominant,
    negW,
    norm2,
    rho,
    rootSystem,
    zero,
)
from demkit.weyl import weylGroup
from oracles import (
    TYPES,
    addW,
    corootPairing,
    dominanceLeqFraction,
    height,
    innerProduct,
    positiveRoots,
    simpleRoot,
)

SMALL = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4"]


@pytest.mark.parametrize("name", TYPES)
def test_cartan_symmetrizable(name):
    sys = rootSystem(name)
    c, d = sys.cartan, sys.d
    n = sys.rank
    for i in range(n):
        assert c[i][i] == 2
        for j in range(n):
            assert d[i] * c[i][j] == d[j] * c[j][i]
            if i != j:
                assert c[i][j] <= 0


@pytest.mark.parametrize("name", TYPES)
def test_simple_root_pairings(name):
    # coords(lam)[j] must read off the pairing with the j-th simple coroot
    sys = rootSystem(name)
    rng = random.Random(7)
    for _ in range(40):
        lam = tuple(rng.randint(-4, 4) for _ in range(sys.rank))
        for j in range(sys.rank):
            a = simpleRoot(sys, j)
            assert lam[j] == 2 * innerProduct(sys, lam, a) / innerProduct(sys, a, a)
            assert lam[j] == corootPairing(sys, lam, a)


@pytest.mark.parametrize("name", TYPES)
def test_short_roots_have_norm_two(name):
    sys = rootSystem(name)
    norms = [norm2(sys, simpleRoot(sys, i)) for i in range(sys.rank)]
    assert min(norms) == 2
    for beta in positiveRoots(sys):
        assert norm2(sys, beta) >= 2


@pytest.mark.parametrize("name", TYPES)
def test_inner_product_weyl_invariant(name):
    sys = rootSystem(name)
    W = weylGroup(name)
    rng = random.Random(11)
    pairs = [
        (tuple(rng.randint(-3, 3) for _ in range(sys.rank)),
         tuple(rng.randint(-3, 3) for _ in range(sys.rank)))
        for _ in range(200)
    ]
    elems = list(W.elements())
    if W.size > 60:
        elems = rng.sample(elems, 60) + [0, W.w0]
    for w in elems:
        for lam, mu in pairs:
            assert innerProduct(sys, W.act(w, lam), W.act(w, mu)) == \
                innerProduct(sys, lam, mu)


@pytest.mark.parametrize("name", SMALL)
def test_dominance_partial_order(name):
    sys = rootSystem(name)
    rng = random.Random(3)
    sample = [tuple(rng.randint(-2, 2) for _ in range(sys.rank)) for _ in range(25)]
    for a in sample:
        assert dominanceLeq(sys, a, a)
        assert dominanceLeq(sys, a, addW(a, simpleRoot(sys, 0)))
        for b in sample:
            if dominanceLeq(sys, a, b) and dominanceLeq(sys, b, a):
                assert a == b
            for c in sample:
                if dominanceLeq(sys, a, b) and dominanceLeq(sys, b, c):
                    assert dominanceLeq(sys, a, c)


@pytest.mark.parametrize("name", TYPES)
def test_scaled_integers_match_rational_oracle(name):
    sys = rootSystem(name)
    rng = random.Random(5)
    for _ in range(100):
        lam = tuple(rng.randint(-4, 4) for _ in range(sys.rank))
        mu = tuple(rng.randint(-4, 4) for _ in range(sys.rank))
        assert innerProductScaled(sys, lam, mu) == sys.gramScale * innerProduct(sys, lam, mu)
        assert norm2(sys, lam) == innerProduct(sys, lam, lam)
        assert heightScaled(sys, lam) == sys.cartanInvScale * height(sys, lam)


@pytest.mark.parametrize("name", TYPES)
def test_dominance_matches_fraction_oracle(name):
    """Every pair of weights in [-2, 2]^r below rank 4; a seeded sample of
    pairs on rank 4."""
    sys = rootSystem(name)
    box = list(itertools.product(range(-2, 3), repeat=sys.rank))
    if sys.rank < 4:
        pairs = itertools.product(box, repeat=2)
    else:
        rng = random.Random(f"dominance:{name}")
        pairs = [(rng.choice(box), rng.choice(box)) for _ in range(5000)]
    for lam, mu in pairs:
        assert dominanceLeq(sys, lam, mu) == dominanceLeqFraction(sys, lam, mu), (lam, mu)


@pytest.mark.parametrize("name", TYPES)
def test_rho_and_fundamentals(name):
    sys = rootSystem(name)
    assert rho(sys) == tuple(1 for _ in range(sys.rank))
    assert isDominant(rho(sys))
    total = zero(sys)
    for i in range(sys.rank):
        f = fundamental(sys, i)
        assert f[i] == 1 and sum(abs(x) for x in f) == 1
        total = addW(total, f)
    assert total == rho(sys)
    assert negW(rho(sys)) == tuple(-1 for _ in range(sys.rank))


@pytest.mark.parametrize("name", TYPES)
def test_positive_root_count_matches_longest_length(name):
    # independent cross-check: #positive roots equals the longest length
    sys = rootSystem(name)
    W = weylGroup(name)
    roots = positiveRoots(sys)
    assert len(set(roots)) == len(roots) == W.length[W.w0]
    for i in range(sys.rank):
        assert simpleRoot(sys, i) in roots
        assert height(sys, simpleRoot(sys, i)) == 1
    for beta in roots:
        assert height(sys, beta) >= 1


# Only the 13 canonical names are root systems: no spaced, signed,
# zero-padded or non-ASCII spelling of a rank names an aliased group.
BAD_TYPE_NAMES = ["E8", "Q2", "D3", "A5", "a2", "A 1", "A+1", "A01", "B3 ", "A\u0663", "",
                  "B 3"]


def test_unknown_type_rejected():
    for name in BAD_TYPE_NAMES:
        with pytest.raises(ValueError, match="unsupported type"):
            rootSystem(name)


def accepts(name: str) -> bool:
    try:
        rootSystem(name)
    except ValueError:
        return False
    return True


def test_types_are_exactly_the_accepted_names():
    # the per-type tests run over TYPES: each type once, and no type missed
    names = [f"{fam}{n}" for fam in "ABCDEFG" for n in range(10)]
    assert sorted(TYPES) == [name for name in sorted(names) if accepts(name)]
