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
routes of ktheory.pairingsWithP and ktheory.gramTable; the dual-conjecture
pairing by the product route (dualConjecturePairingProduct) checks the
adjointness route of ktheory.dualConjectureCheck.

The rational weight API (inner products, norms, heights and simple-root
coordinates) is computed here from the Cartan matrix and the symmetrizer
alone, inverting the Cartan matrix over Fractions, so it checks the scaled
integer matrices the package uses.  The Weyl group by action matrices
(matrixWeylTables) and the section characters by one action per lower-set
element (charSectionsPlain) check the reflection-keyed enumeration and the
orbit masks of charSections; the lower-set walk those masks replaced
(charSectionsWalk) checks them with a left-out set too, and the Steinberg
weights by folding v^-1's word (steinbergWeightByAct) check the table
summed from fundamental-weight orbits.  The transition-matrix entries as
the difference of two full section sums (alphaEntryTwoSums,
betaEntryTwoSums) check ktheory's one sum with a left-out set.  Lower sets are
bitmasks in the package; the canonical antichain of Bruhat-maximal
generators (lowerSet, antichainFromMask) is kept here for the oracles and
tests that build one.  The layer characters by their definition, sections
over a Schubert variety minus those over its boundary by inclusion-exclusion
over the boundary antichain (charQBoundary), check demazure.charQ's one
demWord in atom letters; demWordPlain folds the atom letters one step at a
time.  The word-independence suite by one demWord per (word,
character) pair (wordIndependencePairwise) checks the suite's one
demWords call per character and the witness it names.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction as Q
from math import lcm

from demkit.characters import Character, GClassExpansion, decomposeWeylBasis, dual
from demkit.cli import RANK2, randomCharacters
from demkit.demazure import (
    charNabla,
    charP,
    charQ,
    charSections,
    demElt,
    demWord,
    lowerSetMask,
)
from demkit.ktheory import eulerPair, wordStr, xClass
from demkit.rootsystem import (
    RootSystem,
    Weight,
    fundamental,
    isDominant,
    negW,
    rho,
    subW,
    zero,
)
from demkit.steinberg import antipodalLeq, basisCharacter, isSteinbergWeight
from demkit.weyl import WeylGroup


# -- the rational weight API ------------------------------------------------------

@functools.cache
def cartanInverse(sys: RootSystem) -> tuple[tuple[Q, ...], ...]:
    """Inverse of the Cartan matrix by Gauss-Jordan over Fractions: entry
    (i, j) is the alpha_i coordinate of omega_j."""
    n = sys.rank
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(sys.cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def simpleRoot(sys: RootSystem, i: int) -> Weight:
    """Fundamental-weight coordinates of the i-th simple root (0-based)."""
    return tuple(sys.cartan[k][i] for k in range(sys.rank))


def addW(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _integral(mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(den * mat, den) with den the lcm of the denominators."""
    den = lcm(*(x.denominator for row in mat for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in mat), den


@functools.cache
def _coordMatrix(sys: RootSystem):
    return _integral(cartanInverse(sys))


@functools.cache
def _gramMatrix(sys: RootSystem):
    # (omega_i, omega_j) = d_i (C^-1)_ij, since (omega_i, alpha_k) = d_k delta_ik
    cinv = cartanInverse(sys)
    return _integral([[sys.d[i] * x for x in row] for i, row in enumerate(cinv)])


def rootCoords(sys: RootSystem, lam: Weight) -> tuple[Q, ...]:
    """Coordinates of lam on the simple-root basis (exact rationals)."""
    mat, den = _coordMatrix(sys)
    return tuple(Q(sum(c * x for c, x in zip(row, lam)), den) for row in mat)


def height(sys: RootSystem, lam: Weight) -> Q:
    mat, den = _coordMatrix(sys)
    return Q(sum(c * x for row in mat for c, x in zip(row, lam)), den)


def innerProduct(sys: RootSystem, lam: Weight, mu: Weight) -> Q:
    """W-invariant form, normalized so short roots have length^2 = 2."""
    mat, den = _gramMatrix(sys)
    return Q(sum(x * sum(g * y for g, y in zip(row, mu)) for x, row in zip(lam, mat)), den)


def norm2(sys: RootSystem, lam: Weight) -> Q:
    return innerProduct(sys, lam, lam)


def dominanceLeqFraction(sys: RootSystem, lam: Weight, mu: Weight) -> bool:
    """mu - lam has nonnegative integral simple-root coordinates."""
    return all(c >= 0 and c.denominator == 1 for c in rootCoords(sys, subW(mu, lam)))


# -- the Weyl group by action matrices --------------------------------------------

def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def matrixWeylTables(sys: RootSystem) -> dict:
    """Breadth-first enumeration keyed by the action matrix of each element on
    weight coordinates: the element ids, canonical words, right and left
    multiplication tables, inverses and matrices, in the order a FIFO search
    with ascending generator indices meets them."""
    n = sys.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # s_i on coordinates: column i becomes e_i - alpha_i
    gens = [
        tuple(tuple(int(k == j) - (sys.cartan[k][i] if j == i else 0) for j in range(n))
              for k in range(n))
        for i in range(n)
    ]
    mats = [ident]
    words: list[tuple[int, ...]] = [()]
    index = {ident: 0}
    rmul = []
    head = 0
    while head < len(mats):
        row = []
        for i in range(n):
            prod = _matmul(mats[head], gens[i])
            j = index.get(prod)
            if j is None:
                j = index[prod] = len(mats)
                mats.append(prod)
                words.append(words[head] + (i,))
            row.append(j)
        rmul.append(row)
        head += 1
    lmul = [[index[_matmul(gens[i], m)] for i in range(n)] for m in mats]
    inv = []
    for word in words:
        m = ident
        for i in reversed(word):
            m = _matmul(m, gens[i])
        inv.append(index[m])
    return {"words": words, "rmul": rmul, "lmul": lmul, "inv": inv, "mats": mats}


def matrixAct(mat, lam: Weight) -> Weight:
    return tuple(sum(a * x for a, x in zip(row, lam)) for row in mat)


LowerSet = tuple[int, ...]   # canonical antichain of Bruhat-maximal elements


def lowerSet(W: WeylGroup, elems) -> LowerSet:
    """Canonical antichain generating the same lower set as elems."""
    es = set(elems)
    strict = 0   # strictly below some element of es
    for v in es:
        strict |= W.bruhatBits[v] ^ 1 << v
    return tuple(sorted(u for u in es if not strict >> u & 1))


def charSectionsPlain(W: WeylGroup, mask: int, lam: Weight) -> Character:
    """Sum of layer characters over the distinct weights u lam, one W.act per
    element u of the lower set with bit mask `mask`."""
    seen = {W.act(u, lam) for u in W.elements() if mask >> u & 1}
    total = Character.zero()
    for mu in sorted(seen):
        total = total + charQ(W, mu)
    return total


def charSectionsWalk(W: WeylGroup, mask: int, lam: Weight, below: int) -> Character:
    """demazure.charSections by walking the lower set up from e by left
    multiplication: a reduced word s_i1 ... s_ik of u puts every suffix below
    u, so each u is reached, and (s_i u) lam = s_i (u lam) is one reflection
    of a weight already known."""
    moved = {0: lam} if mask else {}
    stack = list(moved)
    while stack:
        u = stack.pop()
        for i, v in enumerate(W.lmulTable[u]):
            if mask >> v & 1 and v not in moved:
                moved[v] = W.reflect(moved[u], i)
                stack.append(v)
    left = {mu for u, mu in moved.items() if below >> u & 1}
    total = Character.zero()
    for mu in sorted(set(moved.values()) - left):
        total = total + charQ(W, mu)
    return total


def steinbergWeightByAct(W: WeylGroup, v: int) -> Weight:
    """e_v = v^-1 theta_v by folding the canonical word of v^-1 over theta_v,
    the sum of the fundamental weights of the left descents of v."""
    theta = tuple(int(i in W.leftDescents(v)) for i in range(W.sys.rank))
    return W.act(W.inverse(v), theta)


def antichainFromMask(W: WeylGroup, mask: int) -> LowerSet:
    """The Bruhat-maximal elements of the lower set with bit mask `mask`."""
    below = 0
    elems = []
    m = mask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        elems.append(u)
        below |= W.bruhatBits[u] ^ low
        m ^= low
    return tuple(u for u in elems if not (below >> u) & 1)


def charH0InclusionExclusion(W: WeylGroup, s: LowerSet, lam: Weight) -> Character:
    """Sections of the lam-line-bundle over a union of Schubert varieties.

    Inclusion-exclusion on the generating antichain: split off the ShortLex
    largest generator m, then sections over the union = sections over the rest
    + sections over m's piece - sections over the overlap.
    """
    s = lowerSet(W, s)
    key = ("oracle-h0", s, lam)
    r = W.memo.get(key)
    if r is not None:
        return r
    if not s:
        r = Character.zero()
    elif len(s) == 1:
        r = demElt(W, s[0], Character.monomial(lam))
    else:
        m = max(s)   # ids are in (length, canonical word) order
        rest = tuple(u for u in s if u != m)
        inter = antichainFromMask(W, lowerSetMask(W, rest) & W.bruhatBits[m])
        r = (charH0InclusionExclusion(W, rest, lam) + charH0InclusionExclusion(W, (m,), lam)
             - charH0InclusionExclusion(W, inter, lam))
    W.memo[key] = r
    return r


def charQBoundary(W: WeylGroup, lam: Weight) -> Character:
    """The layer character by its definition: sections over X_w minus the
    sections over its boundary, the union of X_u over the covers u of w,
    where (dom, w) = toDominant(lam)."""
    dom, w = W.toDominant(lam)
    return (charH0InclusionExclusion(W, (w,), dom)
            - charH0InclusionExclusion(W, W.covers(w), dom))


def betaEntryTwoSums(W: WeylGroup, v: int, w: int) -> Character:
    """ktheory.betaEntry as the difference of two full section sums."""
    lam = negW(W.act(W.w0, W.act(v, W.steinbergWeight(v))))
    vw0 = W.mul(W.inverse(v), W.w0)
    ww0 = W.mul(w, W.w0)
    top = W.bruhatBits[W.demazureProduct(ww0, vw0)]
    below = lowerSetMask(W, [W.demazureProduct(z, vw0) for z in W.covers(ww0)])
    return charSections(W, top, lam, 0) - charSections(W, below, lam, 0)


def alphaEntryTwoSums(W: WeylGroup, v: int, w: int) -> Character:
    """ktheory.alphaEntry as the difference of two full section sums."""
    lam = W.act(v, W.steinbergWeight(v))
    u = W.mul(W.mul(W.w0, w), W.w0)
    vi = W.inverse(v)
    top = W.bruhatBits[W.demazureProduct(u, vi)]
    below = lowerSetMask(W, [W.demazureProduct(u, z) for z in W.covers(vi)])
    diff = charSections(W, top, lam, 0) - charSections(W, below, lam, 0)
    return Character({W.act(W.w0, mu): c for mu, c in diff.terms.items()})


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


def bruhatBitsByDescent(W: WeylGroup) -> tuple[list[int], list[tuple[int, ...]]]:
    """Bruhat bitmasks and covers by the descent recursion, one element
    pair at a time: for a left descent s of w, u <= w iff min(u, su) <= sw.
    The covers of each w come from a scan of the whole group."""
    size, lm, length = W.size, W.lmulTable, W.length
    bits = [0] * size
    bits[0] = 1
    for w in sorted(range(size), key=lambda w: length[w]):
        if w == 0:
            continue
        s = next(i for i in range(W.sys.rank) if length[lm[w][i]] < length[w])
        base = bits[lm[w][s]]
        row = 0
        for u in range(size):
            su = lm[u][s]
            if base >> (su if length[su] < length[u] else u) & 1:
                row |= 1 << u
        bits[w] = row
    covers = [
        tuple(u for u in range(size) if length[u] == length[w] - 1 and bits[w] >> u & 1)
        for w in range(size)
    ]
    return bits, covers


def firstBruhatViolation(W: WeylGroup, order: list[int]) -> tuple[int, int] | None:
    """The first pair u != w, u <= w with u listed after w, scanning u and
    then w by ascending element id; None if order refines Bruhat order."""
    pos = {w: k for k, w in enumerate(order)}
    for u in W.elements():
        for w in W.elements():
            if u != w and W.bruhatLeq(u, w) and pos[u] > pos[w]:
                return u, w
    return None


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
    """demStepPlain folded along word, rightmost letter first; a letter ~i
    applies the Demazure atom demStepPlain(f) - f."""
    for i in reversed(word):
        f = demStepPlain(W, i, f) if i >= 0 else demStepPlain(W, ~i, f) - f
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


def parabolicSubgroup(W: WeylGroup, piP: tuple[int, ...]) -> set[int]:
    """W_P as the closure of {e} under left multiplication by its generators."""
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
    return sub


def minimalCosetReps(W: WeylGroup, piP: tuple[int, ...]) -> set[int]:
    """Shortest element of each coset u W_P, found by brute force."""
    sub = parabolicSubgroup(W, piP)
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


def dualConjecturePairingProduct(W: WeylGroup, v: int) -> Character:
    """chi(P_v Q(e_{w0 v}) e^-rho), the pairing ktheory.dualConjectureCheck
    reports, by forming the product of the three characters."""
    w0v = W.mul(W.w0, v)
    return eulerPair(
        W,
        charP(W, negW(W.steinbergWeight(v))),
        charQ(W, W.steinbergWeight(w0v)) * Character.monomial(negW(rho(W.sys))),
    )


def gramTableProduct(
    W: WeylGroup, order: list[int] | None = None
) -> dict[tuple[int, int], GClassExpansion]:
    """chi(dual(x_v) x_w) for every ordered pair of exceptional classes, as
    ktheory.gramTable, by building each class and forming each product."""
    order = W.elements() if order is None else order
    classes = {p: xClass(W, p, order) for p in order}
    return {(v, w): decomposeWeylBasis(W, eulerPair(W, dual(classes[v]), classes[w]))
            for v in order for w in order}


def wordIndependencePairwise(W: WeylGroup, rng) -> tuple[list, dict]:
    """(checks, extras) of the word-independence suite by one demWord per
    (word, character) pair, in the loop order that defines its witness: the
    last failing pair, rank 2 by (element, character, word) and B3 by
    (draw, character)."""
    chars = randomCharacters(W, rng, 20)
    ok, witness = True, ""
    pairs = 0
    if W.sys.name in RANK2:
        for w in W.elements():
            words = W.reducedWords(w)
            if len(words) < 2:
                continue
            for f in chars:
                base = demWord(W, words[0], f)
                for word in words[1:]:
                    pairs += 1
                    if demWord(W, word, f) != base:
                        ok, witness = False, f"{wordStr(W, w)} word {word}"
    else:
        eligible = [w for w in W.elements() if W.length[w] >= 2]
        for _ in range(100):
            w = rng.choice(eligible)
            a = W.randomReducedWord(w, rng)
            b = W.randomReducedWord(w, rng)
            for _ in range(10):
                if b != a:
                    break
                b = W.randomReducedWord(w, rng)
            pairs += 1
            for f in chars:
                if demWord(W, a, f) != demWord(W, b, f):
                    ok, witness = False, f"{wordStr(W, w)}: {a} vs {b}"
    return [("word-independence", ok, witness)], {"comparisons": pairs}
