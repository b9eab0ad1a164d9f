"""Sparse formal characters: the group ring of the weight lattice.

A Character maps weight tuples to nonzero integers.  Ring operations are
exact; coefficients are Python ints so nothing overflows silently.

>>> a = Character.monomial((1, 0))
>>> b = Character.monomial((0, 1), 2)
>>> sorted((a * b).terms.items())
[((1, 1), 2)]
"""
from __future__ import annotations

from operator import add

from .rootsystem import Weight, heightScaled
from .weyl import WeylGroup

GClassExpansion = dict[Weight, int]   # keys dominant, values nonzero


class Character:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, int] | None = None):
        # invariant: no zero coefficients stored
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @staticmethod
    def monomial(w: Weight, c: int = 1) -> "Character":
        return Character({w: c} if c else {})

    @staticmethod
    def zero() -> "Character":
        return Character({})

    def coeff(self, w: Weight) -> int:
        return self.terms.get(w, 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.terms == other.terms

    def __add__(self, other: "Character") -> "Character":
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for w, c in small.items():
            n = out.get(w, 0) + c
            if n:
                out[w] = n
            else:
                out.pop(w, None)
        r = Character.__new__(Character)
        r.terms = out
        return r

    def __neg__(self) -> "Character":
        r = Character.__new__(Character)
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Character.zero()
            r = Character.__new__(Character)
            r.terms = {w: c * other for w, c in self.terms.items()}
            return r
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Weight, int] = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                key = tuple(x + y for x, y in zip(w1, w2))
                n = out.get(key, 0) + c1 * c2
                if n:
                    out[key] = n
                else:
                    del out[key]
        r = Character.__new__(Character)
        r.terms = out
        return r

    __rmul__ = __mul__

    def sortedItems(self) -> list[tuple[Weight, int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        return pretty(self)


def dual(f: Character) -> Character:
    """Character of the linear dual: negate every weight."""
    return Character({tuple(-x for x in w): c for w, c in f.terms.items()})


def weylActionChar(W: WeylGroup, w: int, f: Character) -> Character:
    m = W.mats[w]
    n = W.sys.rank
    out: dict[Weight, int] = {}
    for lam, c in f.terms.items():
        key = tuple(sum(m[k][j] * lam[j] for j in range(n)) for k in range(n))
        out[key] = out.get(key, 0) + c
    return Character(out)


def augment(f: Character) -> int:
    """Sum of all coefficients (the dimension of a genuine module's character)."""
    return sum(f.terms.values())


def isInvariant(W: WeylGroup, f: Character) -> tuple[Weight, Weight] | None:
    """None if W-invariant, else a witnessing weight pair (lam, s_i lam).

    Invariance under every simple reflection is invariance under W.  Each
    s_i is an involution, so comparing the coefficient of every support
    weight lam with that of s_i lam = lam - lam_i alpha_i covers the
    weights outside the support too.
    """
    terms = f.terms
    get = terms.get
    for i, col in enumerate(W.cartanCols):
        idx = range(len(col))
        for lam, c in terms.items():
            k = lam[i]
            if k:
                slam = tuple([lam[j] - k * col[j] for j in idx])
                if get(slam, 0) != c:
                    return lam, slam
    return None


def alternantCoeffs(
    W: WeylGroup, f: Character, shift: Weight | None = None
) -> GClassExpansion:
    """Signed irreducible multiplicities read off the alternant of f, or of
    e^shift f when a shift is given (without forming that product).

    Alternant (Brauer-Klimyk / Racah-Speiser) rule: multiplying f by the Weyl
    denominator turns each irreducible chi(lam) into the alternant of
    lam + rho, whose only strictly dominant weight is lam + rho.  Reading off
    those coefficients, each support weight mu of f with coefficient c sends
    mu + rho to its dominant representative w^-1(mu + rho); it contributes
    nothing if that lies on a wall (a zero coordinate), and otherwise
    (-1)^l(w) c to the multiplicity of dom(mu + rho) - rho.  One toDominant
    per support weight, no irreducible character built.  See Humphreys,
    Introduction to Lie Algebras and Representation Theory, section 24, and
    Stembridge, "Computational aspects of root systems, Coxeter groups and
    Weyl characters" (2001).

    For W-invariant f this is its expansion over the irreducibles; for any f
    it is that of the Euler characteristic of f (Demazure's character
    formula).  Nonzero multiplicities only, in first-seen order.
    """
    length = W.length
    toDominant = W.toDominant
    # rho is (1, ..., 1) in fundamental-weight coordinates
    rs = (1,) * W.sys.rank if shift is None else tuple([x + 1 for x in shift])
    mult: GClassExpansion = {}
    get = mult.get
    for mu, c in f.terms.items():
        dom, w = toDominant(tuple(map(add, mu, rs)))
        if 0 in dom:
            continue
        lam = tuple([x - 1 for x in dom])
        mult[lam] = get(lam, 0) + (-c if length[w] & 1 else c)
    return {lam: m for lam, m in mult.items() if m}


def decomposeWeylBasis(W: WeylGroup, f: Character) -> GClassExpansion:
    """Expand a W-invariant character over the irreducible-character basis
    by the alternant rule (alternantCoeffs).

    Constituents come in descending (height, lex) order of highest weight.
    """
    wit = isInvariant(W, f)
    if wit is not None:
        raise ValueError(f"character is not W-invariant: weights {wit[0]} vs {wit[1]}")
    mult = alternantCoeffs(W, f)
    sys = W.sys
    order = sorted(mult, key=lambda lam: (heightScaled(sys, lam), lam), reverse=True)
    return {lam: mult[lam] for lam in order}


def expandGClass(W: WeylGroup, coeffs: GClassExpansion) -> Character:
    """Inverse of decomposeWeylBasis: assemble the invariant character."""
    from . import demazure

    acc: dict[Weight, int] = {}
    get = acc.get
    for lam, m in coeffs.items():
        for nu, d in demazure.charNabla(W, lam).terms.items():
            acc[nu] = get(nu, 0) + m * d
    return Character(acc)


# -- serialization ------------------------------------------------------------

def charToJSON(f: Character) -> list[dict]:
    return [{"w": list(w), "c": c} for w, c in f.sortedItems()]


def charFromJSON(data: list[dict]) -> Character:
    return Character({tuple(d["w"]): d["c"] for d in data})


def _formatTerms(items, symbol: str, tight: bool) -> str:
    """Sorted (weight, coeff) pairs, nonzero coefficients, as a sum of
    symbol[weight] monomials: "2·e[0,0] - e[1,-1]", or "2e[0,0]-e[1,-1]"
    when tight; "0" if there are none."""
    parts = []
    for w, c in items:
        mono = symbol + "[" + ",".join(str(x) for x in w) + "]"
        if abs(c) != 1:
            mono = f"{abs(c)}{'' if tight else '·'}{mono}"
        if parts:
            sign = "-" if c < 0 else "+"
            parts.append(sign + mono if tight else f" {sign} {mono}")
        else:
            parts.append("-" + mono if c < 0 else mono)
    return "".join(parts) or "0"


def pretty(f: Character) -> str:
    """Human form, lex-sorted: "2·e[0,0] + e[1,-1]"."""
    return _formatTerms(f.sortedItems(), "e", tight=False)


def compact(f: Character) -> str:
    """CSV cell form, lex-sorted: "2e[0,0]+e[1,-1]"."""
    return _formatTerms(f.sortedItems(), "e", tight=True)


def gexpToJSON(coeffs: GClassExpansion) -> list[dict]:
    return [{"weight": list(w), "c": c} for w, c in sorted(coeffs.items())]
