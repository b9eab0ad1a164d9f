"""Demazure operators and the characters built from them.

The push-pull operator pi_i for a simple reflection acts on monomials by a
three-case geometric-series formula; its atom pi_i - 1 differs only in the
head term, and the twisted step D_i = pi_i e^(-alpha_i) first shifts every
weight by -alpha_i.  demWords applies many words of these three letter
kinds to one character, packing its weights once into single integers:
coordinate j sits in a field of a width chosen per call from an exact bound
on every weight any word reaches, so a step subtracts multiples of the
packed simple root and reads the coroot pairing from one field.  Words
that end alike share those steps, and the words of one call share one
layout, so each distinct packed key is split back into its weight once per
call, through a table {key: weight} that all the words look up.  demWord is
its one-word case; it, and Freudenthal's orbit dict below, split every key
directly.  Orbit characters, section characters over unions of Schubert
varieties and their twisted variants are built on demWords.

The irreducible character chi(lam) = pi_w0(e^lam) (charNabla) is built from
its dominant weights instead.  Those below lam are reached from it along
chains of dominant weights that differ by positive roots (Stembridge, "The
partial order of dominant weights", 1998); their multiplicities follow in
decreasing height from Freudenthal's formula, in exact integers (Humphreys,
Introduction to Lie Algebras and Representation Theory, 22.3); and each is
spread over its W-orbit by reflecting packed keys in the field layout of
demWords.  The longest operator demElt(W, W.w0, e^lam) is its test oracle.

A lower set in Bruhat order is a bitmask over element ids, the OR of the
interval masks W.bruhatBits of its generators.  The sections over one
(charSections) sum layer characters over orbit weights chosen by masks: each
distinct u lam carries the bitmask of the u reaching it, built once per lam,
so no lower set is walked.  A layer character (charQ)
is a Demazure atom pi-bar_w(e^dom): one demWord along a reduced word of w
in atom letters.  The rho-twisted operators T_i = e^-rho pi_i e^(s_i rho)
give the same characters by a second route, which the q-equivalence suite
compares: as s_i rho = rho - alpha_i, T_i = e^-rho D_i e^rho, so
charQviaTwist is one demWord in twisted letters between e^(+-rho).  The
twisted letter is pi_i after a shift, not the atom conjugated by e^omega_i
(the same operator): that would make the second route a conjugate of the
first, and a fault in the head term or the sign of the shared step would
then change both alike and pass the suite.  The inclusion-exclusion over
the boundary that defines the layer characters is a test oracle only.  The
Euler characteristic (the longest operator) of an arbitrary character
instead follows the Weyl character formula: e^mu goes to (-1)^l(w)
chi(w^-1(mu + rho) - rho), or to 0 when mu + rho lies on a wall.

The R(G) routines that need chi(lam) live here too: expandGClass turns
irreducible multiplicities back into the character sum of m chi(lam), and
gAddMul multiplies two such sums, each chi(lam) chi(mu) by Brauer-Klimyk.
The WeylGroup docstring lists the memo families this module fills.
"""
from __future__ import annotations

from functools import reduce
from math import isqrt
from operator import add, mul, or_, sub

from .characters import Character, GClassExpansion, addMul, alternantCoeffs, clip
from .rootsystem import (
    Weight,
    heightScaled,
    innerProductScaled,
    isDominant,
    negW,
    norm2Scaled,
    rho,
)
from .weyl import WeylGroup


def demStep(W: WeylGroup, i: int, f: Character) -> Character:
    """One simple push-pull.  Idempotent; image = s_i-invariants."""
    return demWord(W, (i,), f)


def _coordBound(W: WeylGroup, f: Character) -> int:
    """A bound on |<mu, alpha_j^vee>| over every weight mu a word reaches from f.

    A step, pi_i or pi_i - 1, sends e^lam to weights on the segment from lam
    to s_i lam: every weight reached lies in the convex hull of the W-orbit
    of supp f (so do the weights of the irreducible of highest weight lam
    when f is e^lam), and has norm at most the largest norm N in supp f.
    Cauchy-Schwarz with |alpha_j|^2 >= 2 gives |<mu, alpha_j^vee>| =
    2|(mu, alpha_j)| / |alpha_j|^2 <= 2|mu| / |alpha_j| <= sqrt(2 N),
    computed in integers from the scaled norms; the + 1 is headroom.
    """
    sys = W.sys
    top = max((norm2Scaled(sys, lam) for lam in f.terms), default=0)
    return isqrt(2 * top // sys.gramScale) + 1


def _layout(W: WeylGroup, bound: int) -> tuple[int, list[int], list[int], int]:
    """The packing of weights whose coordinates lie in [-bound, bound]:
    coordinate j is stored as x_j + bound in the field at bit j * width.
    Returns the field mask, the field shifts, the place values and the
    packed zero weight."""
    width = (2 * bound).bit_length()   # a field holds 0 .. 2 * bound
    shifts = [j * width for j in range(W.sys.rank)]
    place = [1 << s for s in shifts]
    return (1 << width) - 1, shifts, place, bound * sum(place)


def _unpack(packed: dict[int, int], bound: int, mask: int, shifts: list[int],
            seen: dict[int, Weight] | None = None) -> Character:
    """The character of a packed terms dict, unpacked field by field.  The
    top field is read unmasked, so a carry out of it is not lost, and a
    coordinate outside the bound is refused.

    With seen, the table {packed key: weight} shared by the words of one
    demWords call (whose layout is fixed), only the keys missing from it are
    split and checked; they join the table, and each term's weight is looked
    up in it.  Without it (Freudenthal's orbit dict, a one-word call) every
    key is split directly."""
    new = packed if seen is None else [k for k in packed if k not in seen]
    coords = []
    if new:
        coords = [[((k >> s) & mask) - bound for k in new] for s in shifts[:-1]]
        coords.append([(k >> shifts[-1]) - bound for k in new])
        for j, xs in enumerate(coords):
            if max(xs) > bound or min(xs) < -bound:
                raise AssertionError(f"coordinate {j} outside the packing bound {bound}")
    g = Character.__new__(Character)
    if seen is None:
        g.terms = dict(zip(zip(*coords), packed.values()))
    else:
        seen.update(zip(new, zip(*coords)))
        g.terms = {seen[k]: c for k, c in packed.items()}
    return g


def demWords(W: WeylGroup, words, f: Character) -> dict[tuple[int, ...], Character]:
    """pi_word(f) for each word of `words`, keyed by word; each value is a
    fresh Character.  A word i1..ik applies its rightmost letter first.  A
    letter i applies pi_i, a letter ~i (that is, -i - 1) the atom pi_i - 1,
    and a letter rank + i the twisted step D_i = pi_i e^(-alpha_i), with
    which T_i = e^-rho D_i e^rho (see charQviaTwist).  The twisted letter
    shifts the packed dict by -alpha_i and then runs the step of pi_i, so
    the other two kinds pay nothing for it.

    f is packed once (_layout), so lam - k alpha_i is key - k * A_i with A_i
    the packed simple root, and field i holds <lam, alpha_i^vee> + bound.
    One bound serves every word (see _coordBound).  The shift of a twisted
    letter can leave that box by one simple root before pi_i brings the
    weights back into it (in charQviaTwist, where each shift acts on e^rho
    times an atom of e^dom), so a call holding a twisted letter widens
    every field by the largest |Cartan entry|; any other call keeps the
    box of _coordBound.  Words that end alike share those steps: the
    distinct words, reversed and sorted, are walked as a trie whose nodes
    are the words and the suffixes where two of them part (the common
    prefixes of sorted neighbours), each node applying only its own letters
    to its parent's packed dict.  With more than one distinct word, the
    words' results are unpacked through one table of the keys split so far
    (see _unpack), so each distinct key is split and bound-checked once per
    call.
    """
    rank, cols = W.sys.rank, W.cartanCols
    rs = sorted({tuple(reversed(word)) for word in words})
    bound = _coordBound(W, f)
    if any(x >= rank for r in rs for x in r):
        bound += max(abs(x) for col in cols for x in col)
    mask, shifts, place, base = _layout(W, bound)
    low = bound - 1   # the field value of pairing -1, whose string is empty
    forks = set()
    for a, b in zip(rs, rs[1:]):
        n = 0
        while n < len(a) and a[n] == b[n]:
            n += 1
        forks.add(a[:n])
    seen = {} if len(rs) > 1 else None
    # path: the forks met so far on the way to the current word, each with
    # its packed dict; the root (no letter applied) never leaves it
    path = [((), {base + sum(map(mul, lam, place)): c for lam, c in f.terms.items()})]
    out = {}
    for r in rs:
        while r[:len(path[-1][0])] != path[-1][0]:
            path.pop()
        done, cur = path[-1]
        for t in range(len(done), len(r)):
            atom = r[t] < 0     # a letter ~i applies pi_i - 1
            twist, i = divmod(~r[t] if atom else r[t], rank)
            step = sum(map(mul, cols[i], place))
            if twist:           # a letter rank + i applies pi_i after e^(-alpha_i)
                cur = {key - step: c for key, c in cur.items()}
            sh = shifts[i]
            acc: dict[int, int] = {}
            get = acc.get
            for key, c in cur.items():
                d = (key >> sh) & mask
                if d < bound:      # pairing n <= -1: the string is subtracted
                    c = -c
                if (d >= bound) != atom:   # head: e^lam for pi at n >= 0, -e^lam for pi - 1 at n < 0
                    acc[key] = get(key, 0) + c
                while d > bound:   # n >= 1: e^(lam - alpha_i) + ... + e^(lam - n alpha_i)
                    key -= step
                    acc[key] = get(key, 0) + c
                    d -= 1
                while d < low:     # n <= -2: -e^(lam + alpha_i) - ... - e^(lam + (-n - 1) alpha_i)
                    key += step
                    acc[key] = get(key, 0) + c
                    d += 1
            cur = {k: c for k, c in acc.items() if c}
            if r[:t + 1] in forks:
                path.append((r[:t + 1], cur))
        out[r[::-1]] = _unpack(cur, bound, mask, shifts, seen)
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
        raise ValueError(f"highest weight must be dominant, got {clip(str(list(lam)))}")
    return lam


def charNabla(W: WeylGroup, lam: Weight) -> Character:
    """Character of the irreducible with highest weight lam (dominant), by
    Freudenthal's formula on its dominant weights (see module docstring)."""
    return W.cached(("dem", lam), _freudenthal, W, lam)


def _freudenthal(W: WeylGroup, lam: Weight) -> Character:
    """The dominant mu <= lam, each multiplicity m(mu) from those above it,
    and each mu spread over its orbit in one packed dict, unpacked at the end.

    Freudenthal: (|lam + rho|^2 - |mu + rho|^2) m(mu) = 2 sum over beta > 0
    and k >= 1 of m(mu + k beta) (mu + k beta, beta), in gramScale units on
    both sides.  A string mu + k beta is unbroken and ends at its first
    non-weight, so the packed dict, holding every weight whose dominant
    representative lies above mu, answers each step.  That step may leave
    the box of _coordBound by one root, so every field is widened by the
    largest root coordinate: a key just outside the box aliases no weight.
    """
    sys = W.sys
    roots = W.positiveRoots
    doms, todo = {highestWeight(lam)}, [lam]
    while todo:
        nu = todo.pop()
        for beta in roots:
            mu = tuple(map(sub, nu, beta))
            if min(mu) >= 0 and mu not in doms:
                doms.add(mu)
                todo.append(mu)
    headroom = max(abs(x) for beta in roots for x in beta)
    bound = _coordBound(W, Character.monomial(lam)) + headroom
    mask, shifts, place, base = _layout(W, bound)
    steps = [sum(map(mul, col, place)) for col in W.cartanCols]
    strings = [(sum(map(mul, b, place)), b, norm2Scaled(sys, b)) for b in roots]
    rh = rho(sys)
    top = norm2Scaled(sys, tuple(map(add, lam, rh)))
    mult: dict[int, int] = {}
    for mu in sorted(doms, key=lambda mu: (heightScaled(sys, mu), mu), reverse=True):
        key = base + sum(map(mul, mu, place))
        if mu == lam:
            m = 1
        else:
            acc = 0
            for pb, beta, bb in strings:
                nb, ip = key, innerProductScaled(sys, mu, beta)
                while (c := mult.get(nb := nb + pb)) is not None:
                    ip += bb      # (mu + k beta, beta) at the k-th step
                    acc += c * ip
            m, rem = divmod(2 * acc, top - norm2Scaled(sys, tuple(map(add, mu, rh))))
            if rem:
                raise AssertionError(f"Freudenthal's formula leaves a remainder at {mu}")
        # the orbit, layer by layer: reflecting by each positive pairing
        # reaches every weight of it from the dominant one
        mult[key] = m
        layer = [key]
        while layer:
            nxt = []
            for x in layer:
                for sh, step in zip(shifts, steps):
                    d = ((x >> sh) & mask) - bound
                    if d > 0 and (y := x - d * step) not in mult:
                        mult[y] = m
                        nxt.append(y)
            layer = nxt
    return _unpack(mult, bound, mask, shifts)


def expandGClass(W: WeylGroup, coeffs: GClassExpansion) -> Character:
    """Inverse of decomposeWeylBasis: assemble the invariant character."""
    r = Character.__new__(Character)
    r.terms = acc = {}
    for lam, m in coeffs.items():
        addMul(acc, charNabla(W, lam).terms, m)
    return r


def gAddMul(W: WeylGroup, acc: GClassExpansion, h: GClassExpansion,
            k: GClassExpansion) -> None:
    """acc += h k in R(G), in place, dropping every multiplicity that cancels.

    A factor chi(0) is a scaling.  Any other chi(lam) chi(mu) is Brauer-Klimyk:
    the alternant of the irreducible of lower height shifted by the other
    highest weight (alternantCoeffs), memoised per group ("stxprod").
    """
    products = W.cached(("stxprod",), dict)
    for lam, a in h.items():
        if not any(lam):
            addMul(acc, k, a)
            continue
        for mu, b in k.items():
            if not any(mu):
                addMul(acc, {lam: a}, b)
                continue
            key = (lam, mu) if lam <= mu else (mu, lam)
            terms = products.get(key)
            if terms is None:
                terms = products[key] = _bkProduct(W, *key)
            addMul(acc, terms, a * b)


def _bkProduct(W: WeylGroup, lam: Weight, mu: Weight) -> GClassExpansion:
    """chi(lam) chi(mu), expanding the irreducible of lower height."""
    sys = W.sys
    if (heightScaled(sys, lam), lam) > (heightScaled(sys, mu), mu):
        lam, mu = mu, lam
    return alternantCoeffs(W, charNabla(W, lam), mu)


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
    toDominant(lam).  That is the Demazure atom pi-bar_w(e^dom): one demWord
    along the canonical word of w, each letter i spelled ~i (pi_i - 1)."""
    return W.cached(("Q", lam), _atom, W, lam)


def _atom(W: WeylGroup, lam: Weight) -> Character:
    dom, w = W.toDominant(lam)
    return demWord(W, tuple(~i for i in W.canonicalWord(w)), Character.monomial(dom))


def charQviaTwist(W: WeylGroup, lam: Weight) -> Character:
    """Same layer character by the rho-twisted operators T_i along the
    canonical word: e^-rho times one demWord in twisted letters rank + i
    applied to e^(dom + rho) (see the module docstring)."""
    dom, w = W.toDominant(lam)
    rank, rh = W.sys.rank, rho(W.sys)
    word = tuple(rank + i for i in W.canonicalWord(w))
    g = demWord(W, word, Character.monomial(tuple(map(add, dom, rh))))
    return Character.monomial(negW(rh)) * g


def charSections(W: WeylGroup, mask: int, lam: Weight, below: int) -> Character:
    """Sum of layer characters over the distinct orbit weights u*lam for u in
    the lower set with bit mask `mask`, leaving out every weight also reached
    from the lower set with mask `below`, which must lie inside it (0 for the
    sections over the union of the Schubert varieties the lower set names).

    No lower set is walked: each distinct u*lam (the "orbit" memo family) is
    summed when the bitmask of the u reaching it meets `mask` and misses
    `below`.
    """
    if below & ~mask:
        u = (below & ~mask).bit_length() - 1
        raise AssertionError(f"element {u} is left out but not in the lower set")
    r = Character.__new__(Character)
    r.terms = acc = {}
    for mu, m in W.cached(("orbit", lam), _orbitMasks, W, lam):
        if m & mask and not m & below:
            addMul(acc, charQ(W, mu).terms, 1)
    return r


def _orbitMasks(W: WeylGroup, lam: Weight) -> list[tuple[Weight, int]]:
    masks: dict[Weight, int] = {}
    for u, mu in enumerate(W.orbit(lam)):
        masks[mu] = masks.get(mu, 0) | 1 << u
    return sorted(masks.items())


def charQhat(W: WeylGroup, lam: Weight, piP: tuple[int, ...]) -> Character:
    """Layer character pushed to the parabolic chosen by piP: apply the
    longest parabolic operator, landing in the parabolic invariants."""
    return W.cached(("Qhat", lam, piP), _pushedQ, W, lam, piP)


def _pushedQ(W: WeylGroup, lam: Weight, piP: tuple[int, ...]) -> Character:
    return demElt(W, W.parabolicData(piP)[2], charQ(W, lam))
