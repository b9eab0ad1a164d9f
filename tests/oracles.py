"""Brute-force oracles.

Most of these share no code path with what they check: Bruhat order comes
from subword products, lengths from inversion counts, dimensions from the
product-over-positive-roots formula, and irreducible decompositions from
greedy stripping of irreducible characters.  The alternating-sum identity
(checked multiplicatively, no division needed) still checks the Demazure
characters, but it is not independent of decomposeWeylBasis, which reads
multiplicities off the same alternants.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as Q

from demkit.characters import Character, GClassExpansion
from demkit.demazure import charNabla
from demkit.rootsystem import (
    RootSystem,
    Weight,
    addW,
    corootPairing,
    height,
    isDominant,
    positiveRoots,
    rho,
)
from demkit.weyl import WeylGroup


def subwordReachable(W: WeylGroup, w: int) -> set[int]:
    """Products of all subwords of one fixed reduced word of w.  By the
    subword characterization this is exactly the lower Bruhat interval."""
    word = W.canonicalWord(w)
    out = set()
    for bits in itertools.product((0, 1), repeat=len(word)):
        u = 0
        for take, i in zip(bits, word):
            if take:
                u = W.rmul(u, i)
        out.add(u)
    return out


def bruhatLeqOracle(W: WeylGroup, u: int, w: int) -> bool:
    key = ("oracle-bruhat", w)
    if key not in W.memo:
        W.memo[key] = subwordReachable(W, w)
    return u in W.memo[key]


def lengthByInversions(W: WeylGroup, w: int) -> int:
    pos = positiveRoots(W.sys)
    posSet = set(pos)
    return sum(1 for beta in pos if W.act(w, beta) not in posSet)


def hyperplanesSeparating(sys: RootSystem, lam: Weight) -> int:
    """Number of positive coroots negative on lam: the length of the minimal
    Weyl element moving the dominant representative onto lam."""
    return sum(1 for beta in positiveRoots(sys) if corootPairing(sys, lam, beta) < 0)


def weylDim(sys: RootSystem, lam: Weight) -> int:
    num = Q(1)
    r = rho(sys)
    for beta in positiveRoots(sys):
        num *= corootPairing(sys, addW(lam, r), beta) / corootPairing(sys, r, beta)
    assert num.denominator == 1
    return int(num)


def alternantChar(W: WeylGroup, lam: Weight) -> Character:
    """Antisymmetrized orbit sum of lam + rho.  The classical character
    formula says chi(lam) * alternant(0) = alternant(lam), which checks
    irreducible characters using multiplication only."""
    target = addW(lam, rho(W.sys))
    f = Character.zero()
    for w in W.elements():
        f = f + Character.monomial(W.act(w, target), (-1) ** W.length[w])
    return f


def decomposeGreedy(W: WeylGroup, f: Character) -> GClassExpansion:
    """Irreducible decomposition of a W-invariant f by greedy stripping.

    Repeatedly strip the (height, lex)-largest dominant support weight lam
    with its coefficient times chi(lam).  Each strip removes lam and only
    introduces weights strictly below it, so the loop ends with an exact
    expansion, in descending (height, lex) order.
    """
    rem = dict(f.terms)
    out: GClassExpansion = {}
    while rem:
        lam = max(
            (w for w in rem if isDominant(w)),
            key=lambda w: (height(W.sys, w), w),
        )
        c = rem[lam]
        out[lam] = c
        for w, k in charNabla(W, lam).terms.items():
            n = rem.get(w, 0) - c * k
            if n:
                rem[w] = n
            else:
                rem.pop(w, None)
    return out


def minimalCosetReps(W: WeylGroup, piP: tuple[int, ...]) -> set[int]:
    """Shortest element of each coset u W_P, found by brute force."""
    sub = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for u in frontier:
            for i in piP:
                v = W.lmul(i, u)
                if v not in sub:
                    sub.add(v)
                    nxt.add(v)
        frontier = nxt
    seen = set()
    reps = set()
    for u in sorted(W.elements(), key=lambda x: W.length[x]):
        coset = frozenset(W.mul(u, p) for p in sub)
        if coset not in seen:
            seen.add(coset)
            reps.add(u)
    return reps
