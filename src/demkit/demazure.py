"""Demazure operators and the characters built from them.

The push-pull operator for a simple reflection acts on monomials by a
three-case geometric-series formula.  demWord applies a word of such steps
to weights packed into single integers: coordinate j sits in a field of a
width chosen per call from an exact bound on every weight the word can
reach, so a step subtracts multiples of the packed simple root and reads
the coroot pairing from one field.  Orbit characters, section characters
over unions of Schubert varieties and their twisted variants are built on
demWord.  The Euler characteristic (the longest operator) of an arbitrary
character instead follows the Weyl character formula: e^mu goes to
(-1)^l(w) chi(w^-1(mu + rho) - rho), or to 0 when mu + rho lies on a wall.
"""
from __future__ import annotations

from math import isqrt
from operator import mul

from .characters import Character, alternantCoeffs, expandGClass
from .rootsystem import Weight, isDominant, negW, norm2Scaled, rho
from .weyl import WeylGroup

LowerSet = tuple[int, ...]   # canonical antichain of Bruhat-maximal elements


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


def demWord(W: WeylGroup, word: tuple[int, ...], f: Character) -> Character:
    """Compose steps for a word i1..ik, rightmost letter applied first.

    Weights are packed once: coordinate j is stored as x_j + bound in the
    field at bit j * width, so lam - k alpha_i is key - k * D_i with D_i the
    packed simple root, and field i holds <lam, alpha_i^vee> + bound.
    """
    if not word:
        return f
    bound = _coordBound(W, f)
    width = (2 * bound).bit_length()   # a field holds 0 .. 2 * bound
    mask = (1 << width) - 1
    shifts = [j * width for j in range(W.sys.rank)]
    place = [1 << s for s in shifts]
    base = bound * sum(place)
    cur = {base + sum(map(mul, lam, place)): c for lam, c in f.terms.items()}
    cols = W.cartanCols
    low = bound - 1   # the field value of pairing -1, which contributes nothing
    for i in reversed(word):
        step = sum(map(mul, cols[i], place))
        sh = shifts[i]
        out: dict[int, int] = {}
        get = out.get
        for key, c in cur.items():
            d = (key >> sh) & mask
            if d >= bound:     # pairing n >= 0: e^lam + ... + e^(lam - n alpha_i)
                out[key] = get(key, 0) + c
                while d > bound:
                    key -= step
                    out[key] = get(key, 0) + c
                    d -= 1
            elif d < low:      # n <= -2: -e^(lam + alpha_i) - ... - e^(lam + (-n - 1) alpha_i)
                c = -c
                while d < low:
                    key += step
                    out[key] = get(key, 0) + c
                    d += 1
        cur = {k: c for k, c in out.items() if c}
    # unpack field by field; the top field is read unmasked, so a carry out
    # of it is not lost
    coords = [[((k >> s) & mask) - bound for k in cur] for s in shifts[:-1]]
    coords.append([(k >> shifts[-1]) - bound for k in cur])
    for j, xs in enumerate(coords):
        if max(xs, default=0) > bound or min(xs, default=0) < -bound:
            raise AssertionError(f"coordinate {j} outside the packing bound {bound}")
    r = Character.__new__(Character)
    r.terms = dict(zip(zip(*coords), cur.values()))
    return r


def demElt(W: WeylGroup, w: int, f: Character) -> Character:
    """Operator of a group element via any reduced word (canonical one here)."""
    return demWord(W, W.canonicalWord(w), f)


def _demMono(W: WeylGroup, w: int, lam: Weight) -> Character:
    key = ("dem", w, lam)
    r = W.memo.get(key)
    if r is None:
        r = demElt(W, w, Character.monomial(lam))
        W.memo[key] = r
    return r


def eulerChar(W: WeylGroup, f: Character) -> Character:
    """The full-group operator by the Weyl character formula (see module
    docstring): one toDominant per term, then one irreducible character per
    constituent.  Output is W-invariant."""
    return expandGClass(W, alternantCoeffs(W, f))


def charNabla(W: WeylGroup, lam: Weight) -> Character:
    """Character of the irreducible with highest weight lam (dominant)."""
    if not isDominant(lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    return _demMono(W, W.w0, lam)


def charP(W: WeylGroup, lam: Weight) -> Character:
    """Sections over the Schubert variety selected by lam's orbit position."""
    dom, w = W.toDominant(lam)
    return demElt(W, w, Character.monomial(dom))


# -- lower sets in Bruhat order ----------------------------------------------

def lowerSet(W: WeylGroup, elems) -> LowerSet:
    """Canonical antichain generating the same downward-closed set."""
    es = set(elems)
    return tuple(sorted(
        u for u in es
        if not any(v != u and W.bruhatLeq(u, v) for v in es)
    ))


def lowerSetMask(W: WeylGroup, s: LowerSet) -> int:
    m = 0
    for u in s:
        m |= W.bruhatBits[u]
    return m


def antichainFromMask(W: WeylGroup, mask: int) -> LowerSet:
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


def boundary(W: WeylGroup, w: int) -> LowerSet:
    """Everything strictly below w, as a lower set: generated by the covers."""
    return tuple(sorted(W.covers(w)))


def charH0LowerSet(W: WeylGroup, s: LowerSet, lam: Weight) -> Character:
    """Sections of the lam-line-bundle over a union of Schubert varieties.

    Inclusion-exclusion on the generating antichain: split off the ShortLex
    largest generator m, then sections over the union = sections over the rest
    + sections over m's piece - sections over the overlap.
    """
    s = lowerSet(W, s)
    key = ("h0", s, lam)
    r = W.memo.get(key)
    if r is not None:
        return r
    if not s:
        r = Character.zero()
    elif len(s) == 1:
        r = _demMono(W, s[0], lam)
    else:
        m = max(s, key=W.orderPos)
        rest = tuple(u for u in s if u != m)
        inter = antichainFromMask(W, lowerSetMask(W, rest) & W.bruhatBits[m])
        r = (charH0LowerSet(W, rest, lam) + _demMono(W, m, lam)
             - charH0LowerSet(W, inter, lam))
    W.memo[key] = r
    return r


# -- the quotient-by-boundary characters ---------------------------------------

def charQ(W: WeylGroup, lam: Weight) -> Character:
    """Sections over the Schubert cell closure minus its boundary sections:
    the character of the layer attached to lam."""
    key = ("Q", lam)
    r = W.memo.get(key)
    if r is None:
        dom, w = W.toDominant(lam)
        r = demElt(W, w, Character.monomial(dom)) - charH0LowerSet(W, boundary(W, w), dom)
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


def charSections(W: WeylGroup, s: LowerSet, lam: Weight) -> Character:
    """Sum of layer characters over the distinct orbit weights u*lam for u in
    the lower set generated by s.

    The lower set is walked up from e by left multiplication: a reduced word
    s_i1 ... s_ik of u puts every suffix below u, so each u is reached, and
    (s_i u) lam = s_i (u lam) is one reflection of a weight already known.
    """
    mask = lowerSetMask(W, s)
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
    total = Character.zero()
    for mu in sorted(set(moved.values())):
        total = total + charQ(W, mu)
    return total


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
