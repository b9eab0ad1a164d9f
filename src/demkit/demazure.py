"""Demazure operators and the characters built from them.

The push-pull operator for a simple reflection acts on monomials by a
three-case geometric-series formula.  demWords applies many words of such
steps to one character, packing its weights once into single integers:
coordinate j sits in a field of a width chosen per call from an exact bound
on every weight any word can reach, so a step subtracts multiples of the
packed simple root and reads the coroot pairing from one field.  Words that
end alike share the steps of that suffix.  demWord is its one-word case.
Orbit characters, section characters over unions of Schubert varieties and
their twisted variants are built on demWord.  A lower set in Bruhat order is a bitmask over element ids, the OR
of the interval masks W.bruhatBits of its generators.  A layer character
(charQ) is a Demazure atom: the fold of
pi-bar_i = pi_i - 1 along a reduced word.  The rho-twisted operators of
charQviaTwist give the same characters by a second route, which the
q-equivalence suite compares; the inclusion-exclusion over the boundary
that defines them is a test oracle only.  The Euler characteristic (the
longest operator) of an arbitrary character instead follows the Weyl
character formula: e^mu goes to (-1)^l(w) chi(w^-1(mu + rho) - rho), or to
0 when mu + rho lies on a wall.
"""
from __future__ import annotations

from functools import reduce
from math import isqrt
from operator import mul, or_

from .characters import Character, addMul, alternantCoeffs, expandGClass
from .rootsystem import Weight, isDominant, negW, norm2Scaled, rho
from .weyl import WeylGroup


def demStep(W: WeylGroup, i: int, f: Character) -> Character:
    """One simple push-pull.  Idempotent; image = s_i-invariants."""
    return demWord(W, (i,), f)


def _coordBound(W: WeylGroup, f: Character) -> int:
    """A bound on |<mu, alpha_j^vee>| over every weight mu a word reaches from f.

    A step sends e^lam to weights on the segment from lam to s_i lam, so
    every weight reached lies in the convex hull of the W-orbit of supp f,
    and its norm is at most the largest norm N in supp f.  Cauchy-Schwarz
    with |alpha_j|^2 >= 2 gives |<mu, alpha_j^vee>| = 2|(mu, alpha_j)| /
    |alpha_j|^2 <= 2|mu| / |alpha_j| <= sqrt(2 N), computed in integers
    from the scaled norms; the + 1 is headroom.
    """
    sys = W.sys
    top = max((norm2Scaled(sys, lam) for lam in f.terms), default=0)
    return isqrt(2 * top // sys.gramScale) + 1


def demWords(W: WeylGroup, words, f: Character) -> dict[tuple[int, ...], Character]:
    """pi_word(f) for each word of `words`, keyed by word; each value is a
    fresh Character.  A word i1..ik applies its rightmost letter first.

    f is packed once: coordinate j is stored as x_j + bound in the field at
    bit j * width, so lam - k alpha_i is key - k * D_i with D_i the packed
    simple root, and field i holds <lam, alpha_i^vee> + bound.  One bound
    serves every word (see _coordBound).  Words that end alike share those
    steps: the distinct words, reversed and sorted, are walked as a trie
    whose nodes are the words and the suffixes where two of them part (the
    common prefixes of sorted neighbours), each node applying only its own
    letters to its parent's packed dict.
    """
    bound = _coordBound(W, f)
    width = (2 * bound).bit_length()   # a field holds 0 .. 2 * bound
    mask = (1 << width) - 1
    shifts = [j * width for j in range(W.sys.rank)]
    place = [1 << s for s in shifts]
    base = bound * sum(place)
    cols = W.cartanCols
    low = bound - 1   # the field value of pairing -1, which contributes nothing
    rs = sorted({tuple(reversed(word)) for word in words})
    forks = set()
    for a, b in zip(rs, rs[1:]):
        n = 0
        while n < len(a) and a[n] == b[n]:
            n += 1
        forks.add(a[:n])
    # path: the forks met so far on the way to the current word, each with
    # its packed dict; the root (no letter applied) never leaves it
    path = [((), {base + sum(map(mul, lam, place)): c for lam, c in f.terms.items()})]
    out = {}
    for r in rs:
        while r[:len(path[-1][0])] != path[-1][0]:
            path.pop()
        done, cur = path[-1]
        for t in range(len(done), len(r)):
            i = r[t]
            step = sum(map(mul, cols[i], place))
            sh = shifts[i]
            acc: dict[int, int] = {}
            get = acc.get
            for key, c in cur.items():
                d = (key >> sh) & mask
                if d >= bound:     # pairing n >= 0: e^lam + ... + e^(lam - n alpha_i)
                    acc[key] = get(key, 0) + c
                    while d > bound:
                        key -= step
                        acc[key] = get(key, 0) + c
                        d -= 1
                elif d < low:      # n <= -2: -e^(lam + alpha_i) - ... - e^(lam + (-n - 1) alpha_i)
                    c = -c
                    while d < low:
                        key += step
                        acc[key] = get(key, 0) + c
                        d += 1
            cur = {k: c for k, c in acc.items() if c}
            if r[:t + 1] in forks:
                path.append((r[:t + 1], cur))
        # unpack field by field; the top field is read unmasked, so a carry
        # out of it is not lost
        coords = [[((k >> s) & mask) - bound for k in cur] for s in shifts[:-1]]
        coords.append([(k >> shifts[-1]) - bound for k in cur])
        for j, xs in enumerate(coords):
            if max(xs, default=0) > bound or min(xs, default=0) < -bound:
                raise AssertionError(f"coordinate {j} outside the packing bound {bound}")
        g = Character.__new__(Character)
        g.terms = dict(zip(zip(*coords), cur.values()))
        out[r[::-1]] = g
    return out


def demWord(W: WeylGroup, word: tuple[int, ...], f: Character) -> Character:
    """Compose steps for a word i1..ik, rightmost letter applied first; a
    fresh Character even for the empty word."""
    [g] = demWords(W, (word,), f).values()
    return g


def demElt(W: WeylGroup, w: int, f: Character) -> Character:
    """Operator of a group element via any reduced word (canonical one here)."""
    return demWord(W, W.canonicalWord(w), f)


def eulerChar(W: WeylGroup, f: Character) -> Character:
    """The full-group operator by the Weyl character formula (see module
    docstring): one toDominant per term, then one irreducible character per
    constituent.  Output is W-invariant."""
    return expandGClass(W, alternantCoeffs(W, f))


def highestWeight(lam: Weight) -> Weight:
    """lam, checked to be dominant, as the highest weight of an irreducible."""
    if not isDominant(lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    return lam


def charNabla(W: WeylGroup, lam: Weight) -> Character:
    """Character of the irreducible with highest weight lam (dominant)."""
    key = ("dem", lam)
    r = W.memo.get(key)
    if r is None:
        r = demElt(W, W.w0, Character.monomial(highestWeight(lam)))
        W.memo[key] = r
    return r


def charP(W: WeylGroup, lam: Weight) -> Character:
    """Sections over the Schubert variety selected by lam's orbit position."""
    dom, w = W.toDominant(lam)
    return demElt(W, w, Character.monomial(dom))


def lowerSetMask(W: WeylGroup, elems) -> int:
    """The bitmask of the lower set in Bruhat order generated by elems."""
    return reduce(or_, [W.bruhatBits[u] for u in elems], 0)


# -- the quotient-by-boundary characters ---------------------------------------

def charQ(W: WeylGroup, lam: Weight) -> Character:
    """The character of the layer attached to lam: sections over the Schubert
    variety X_w minus the sections over its boundary, where (dom, w) =
    toDominant(lam).  That is the Demazure atom pi-bar_w(e^dom), folding
    pi-bar_i = pi_i - 1 along a reduced word of w, rightmost letter first."""
    key = ("Q", lam)
    r = W.memo.get(key)
    if r is None:
        dom, w = W.toDominant(lam)
        r = Character.monomial(dom)
        for i in reversed(W.canonicalWord(w)):
            r = demStep(W, i, r) - r
        W.memo[key] = r
    return r


def _twistStep(W: WeylGroup, i: int, f: Character) -> Character:
    rh = rho(W.sys)
    g = demStep(W, i, Character.monomial(W.reflect(rh, i)) * f)
    return Character.monomial(negW(rh)) * g


def charQviaTwist(W: WeylGroup, lam: Weight) -> Character:
    """Same layer character by the twisted-operator route: compose the
    rho-shifted steps along the canonical word, rightmost letter first."""
    dom, w = W.toDominant(lam)
    f = Character.monomial(dom)
    for i in reversed(W.canonicalWord(w)):
        f = _twistStep(W, i, f)
    return f


def charSections(W: WeylGroup, mask: int, lam: Weight, below: int) -> Character:
    """Sum of layer characters over the distinct orbit weights u*lam for u in
    the lower set with bit mask `mask`, leaving out every weight also reached
    from the lower set with mask `below`, which must lie inside it (0 for the
    sections over the union of the Schubert varieties the lower set names).

    The lower set is walked up from e by left multiplication: a reduced word
    s_i1 ... s_ik of u puts every suffix below u, so each u is reached, and
    (s_i u) lam = s_i (u lam) is one reflection of a weight already known.
    """
    if below & ~mask:
        u = (below & ~mask).bit_length() - 1
        raise AssertionError(f"element {u} is left out but not in the lower set")
    lmul = W.lmulTable
    reflect = W.reflect
    moved = {0: lam} if mask else {}
    stack = list(moved)
    while stack:
        u = stack.pop()
        mu = moved[u]
        for i, v in enumerate(lmul[u]):
            if mask >> v & 1 and v not in moved:
                moved[v] = reflect(mu, i)
                stack.append(v)
    left = {mu for u, mu in moved.items() if below >> u & 1}
    r = Character.__new__(Character)
    r.terms = acc = {}
    for mu in sorted(set(moved.values()) - left):
        addMul(acc, charQ(W, mu).terms, 1)
    return r


def charQhat(W: WeylGroup, lam: Weight, piP: tuple[int, ...]) -> Character:
    """Layer character pushed to the parabolic chosen by piP: apply the
    longest parabolic operator, landing in the parabolic invariants."""
    key = ("Qhat", lam, piP)
    r = W.memo.get(key)
    if r is None:
        _, _, w0p = W.parabolicData(piP)
        r = demElt(W, w0p, charQ(W, lam))
        W.memo[key] = r
    return r
