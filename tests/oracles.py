"""Brute-force oracles.

Most of these share no code path with what they check: Bruhat order comes
from subword products, lengths from inversion counts, dimensions from the
product-over-positive-roots formula, and irreducible decompositions from
greedy stripping of irreducible characters.  The alternating-sum identity
(checked multiplicatively, no division needed) still checks the Demazure
characters, but it is not independent of decomposeWeylBasis, which reads
multiplicities off the same alternants.

eulerChar follows the Weyl character formula too, so test_c11_euler_sign_rule
in the acceptance gate now restates what eulerChar computes; what keeps it
independent is eulerCharTermwise, which folds demStepPlain (the step on
weight tuples that demWord's packed keys replace) along the longest word.

The pairing tables by the product route (eulerPair of the two full
characters, then decomposed) check the adjointness and projection-formula
routes of ktheory.pairingsWithP and ktheory.gramTable.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as Q

from demkit.characters import Character, GClassExpansion, decomposeWeylBasis, dual
from demkit.demazure import LowerSet, charNabla, charP
from demkit.ktheory import eulerPair, xClass
from demkit.rootsystem import (
    RootSystem,
    Weight,
    addW,
    fundamental,
    height,
    innerProduct,
    isDominant,
    norm2,
    rho,
    rootCoords,
    simpleRoot,
    subW,
    zero,
)
from demkit.steinberg import antipodalLeq, basisCharacter, isSteinbergWeight
from demkit.weyl import WeylGroup


def positiveRoots(sys: RootSystem) -> list[Weight]:
    """All positive roots, as weights, found by closing the simple roots
    under the simple reflections."""
    simples = [simpleRoot(sys, i) for i in range(sys.rank)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        beta = queue.pop()
        for i in range(sys.rank):
            # reflect: s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
            refl = subW(beta, tuple(beta[i] * x for x in simples[i]))
            if refl not in seen:
                seen.add(refl)
                queue.append(refl)
    pos = [b for b in seen if all(c >= 0 for c in rootCoords(sys, b))]
    pos.sort(key=lambda b: (height(sys, b), b))
    return pos


def corootPairing(sys: RootSystem, lam: Weight, beta: Weight) -> Q:
    """<lam, beta^vee> = 2 (lam, beta) / (beta, beta) for any root beta."""
    return 2 * innerProduct(sys, lam, beta) / norm2(sys, beta)


def extremalWeights(sys: RootSystem, f: Character) -> set[Weight]:
    """Support weights of maximal norm."""
    if not f.terms:
        raise ValueError("zero character has no extremal weights")
    best = None
    out: set[Weight] = set()
    for w in f.terms:
        n = norm2(sys, w)
        if best is None or n > best:
            best = n
            out = {w}
        elif n == best:
            out.add(w)
    return out


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


def demStepPlain(W: WeylGroup, i: int, f: Character) -> Character:
    """One simple push-pull on weight tuples, term by term, deleting a
    weight as soon as its coefficient cancels."""
    alpha = simpleRoot(W.sys, i)
    n_ = len(alpha)
    out: dict[Weight, int] = {}

    def bump(w: Weight, c: int) -> None:
        v = out.get(w, 0) + c
        if v:
            out[w] = v
        else:
            del out[w]

    for lam, c in f.terms.items():
        n = lam[i]   # pairing with the i-th simple coroot
        if n >= 0:
            for k in range(n + 1):
                bump(tuple(lam[j] - k * alpha[j] for j in range(n_)), c)
        elif n <= -2:
            for k in range(1, -n):
                bump(tuple(lam[j] + k * alpha[j] for j in range(n_)), -c)
        # n == -1 contributes nothing
    return Character(out)


def demWordPlain(W: WeylGroup, word: tuple[int, ...], f: Character) -> Character:
    for i in reversed(word):
        f = demStepPlain(W, i, f)
    return f


def eulerCharTermwise(W: WeylGroup, f: Character) -> Character:
    """The longest Demazure operator, applied to each monomial of f by
    folding demStepPlain along the canonical word of w0, and summed."""
    word = W.canonicalWord(W.w0)
    total = Character.zero()
    for lam, c in f.terms.items():
        total = total + demWordPlain(W, word, Character.monomial(lam)) * c
    return total


def inLowerSet(W: WeylGroup, s: LowerSet, u: int) -> bool:
    """Membership in the lower set generated by the antichain s."""
    return any(W.bruhatLeq(u, m) for m in s)


def minimalCosetReps(W: WeylGroup, piP: tuple[int, ...]) -> set[int]:
    """Shortest element of each coset u W_P, found by brute force."""
    sub = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for u in frontier:
            for i in piP:
                v = W.lmulTable[u][i]
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


def toDominantPlain(W: WeylGroup, lam: Weight) -> tuple[Weight, int]:
    """Reflect by the first negative coordinate until none is left, reading
    the Cartan matrix directly; the minimal witness is the product of those
    reflections."""
    cart = W.sys.cartan
    n = W.sys.rank
    cur = list(lam)
    w = 0
    while True:
        i = next((k for k in range(n) if cur[k] < 0), None)
        if i is None:
            return tuple(cur), w
        c = cur[i]
        for k in range(n):
            cur[k] -= c * cart[k][i]
        w = W.rmul(w, i)


def expandPerChoiceMap(
    W: WeylGroup,
    f: Character,
    choices: dict[int, str],
    piP: tuple[int, ...] | None = None,
) -> dict[int, Character]:
    """Steinberg expansion of f by direct recursion under one choice map.

    At a Steinberg weight e_v, e^{e_v} is the basis character at v minus its
    lower terms; any other weight lam is rewritten through the pivot
    chi(omega_j) e^{w tau}, whose other terms lie below lam.  Every weight met
    is expanded afresh for this map, with no table shared across maps.  The
    recursion is as deep as the longest antipodal chain below f's weights, so
    callers raise the recursion limit for large weights.
    """
    table: dict[Weight, dict[int, Character]] = {}

    def take(out: dict[int, Character], v: int, c: Character) -> None:
        cur = out.get(v)
        cur = c if cur is None else cur + c
        if cur:
            out[v] = cur
        else:
            out.pop(v, None)

    def expand(lam: Weight) -> dict[int, Character]:
        got = table.get(lam)
        if got is not None:
            return got
        out: dict[int, Character] = {}
        v = isSteinbergWeight(W, lam)
        if v is not None:
            B = basisCharacter(W, v, choices[v], piP)
            assert B.coeff(lam) == 1
            take(out, v, Character.monomial(zero(W.sys)))
            for mu, c in B.terms.items():
                if mu != lam:
                    assert antipodalLeq(W, mu, lam)
                    for u, coef in expand(mu).items():
                        take(out, u, coef * (-c))
        else:
            dom, w = W.toDominant(lam)
            n = W.sys.rank
            if all(x <= 1 for x in dom):
                rd = set(W.rightDescents(w))
                j = next(j for j in range(n) if dom[j] == 1 and j not in rd)
            else:
                j = next(j for j in range(n) if dom[j] > 1)
            omega = fundamental(W.sys, j)
            wtau = W.act(w, tuple(dom[k] - omega[k] for k in range(n)))
            chi = charNabla(W, omega)
            N = chi * Character.monomial(wtau)
            assert N.coeff(lam) == 1 and wtau != lam
            for u, coef in expand(wtau).items():
                take(out, u, coef * chi)
            for mu, c in N.terms.items():
                if mu != lam:
                    assert antipodalLeq(W, mu, lam)
                    for u, coef in expand(mu).items():
                        take(out, u, coef * (-c))
        table[lam] = out
        return out

    total: dict[int, Character] = {}
    for lam, c in f.terms.items():
        for v, coef in expand(lam).items():
            take(total, v, coef * c)
    return total


def pairingsWithPProduct(W: WeylGroup, vs, gs: dict) -> dict[tuple, GClassExpansion]:
    """chi(P_v g) keyed (v, key of g), as ktheory.pairingsWithP, by forming
    each product P_v g."""
    ps = {v: charP(W, tuple(-x for x in W.steinbergWeight(v))) for v in vs}
    return {(v, k): decomposeWeylBasis(W, eulerPair(W, ps[v], g))
            for v in vs for k, g in gs.items()}


def gramTableProduct(
    W: WeylGroup, order: list[int] | None = None
) -> dict[tuple[int, int], GClassExpansion]:
    """chi(dual(x_v) x_w) for every ordered pair of exceptional classes, as
    ktheory.gramTable, by building each class and forming each product."""
    order = W.totalOrderBuild() if order is None else order
    classes = {p: xClass(W, p, order) for p in order}
    return {(v, w): decomposeWeylBasis(W, eulerPair(W, dual(classes[v]), classes[w]))
            for v in order for w in order}
