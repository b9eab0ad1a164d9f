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

The rational weight API (inner products, norms, heights and simple-root
coordinates) is computed here from the Cartan matrix and the symmetrizer
alone, inverting the Cartan matrix over Fractions, so it checks the scaled
integer matrices the package uses.  The Weyl group by action matrices
(matrixWeylTables) and the section characters by one action per lower-set
element (charSectionsPlain) check the reflection-keyed enumeration and the
lower-set walk that replaced them.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction as Q
from math import lcm

from demkit.characters import Character, GClassExpansion, decomposeWeylBasis, dual
from demkit.demazure import LowerSet, charNabla, charP, charQ, lowerSetMask
from demkit.ktheory import eulerPair, xClass
from demkit.rootsystem import (
    RootSystem,
    Weight,
    fundamental,
    isDominant,
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


def charSectionsPlain(W: WeylGroup, s: LowerSet, lam: Weight) -> Character:
    """Sum of layer characters over the distinct weights u lam, one W.act per
    element u of the lower set's mask."""
    mask = lowerSetMask(W, s)
    seen = {W.act(u, lam) for u in W.elements() if mask >> u & 1}
    total = Character.zero()
    for mu in sorted(seen):
        total = total + charQ(W, mu)
    return total


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
