"""Euler pairing, triangular transition matrices, and exceptional-class checks.

Everything here is a statement about exact integer characters.  The pairing
chi(f g) is the full-group Demazure operator applied to f g.  eulerPair forms
that product for any two characters; the pairing tables avoid it and stay in
R(G) coordinates (irreducible multiplicities, expanded to a character only
where a report prints an entry):

* section-class tables and the dual-conjecture pairing by Demazure
  adjointness: chi(pi_w(f) g) = chi(f pi_{w^-1}(g)), so pairing with
  P_v = pi_u(e^dom) is the alternant of pi_{u^-1}(g) shifted by dom
  (pairingsWithP);
* the Gram matrix of the exceptional classes by the projection formula:
  chi(h f) = h chi(f) for invariant h, so only the Gram table of the layer
  characters is a product of characters; it is computed and checked one row
  at a time (gramRows, gramCheck).

The transition entries are differences of section characters over unions of
Schubert varieties, with the weight theta_v = v e_v of the v-th row, the sum
of the omega_i over the left descents of v (WeylGroup.theta), and the class
constructions project dualized section characters onto a chosen half of a
mixed basis.
"""
from __future__ import annotations

from .characters import (
    Character,
    GClassExpansion,
    alternantCoeffs,
    augment,
    compact,
    decomposeWeylBasis,
    dual,
    gDual,
    isInvariant,
)
from .demazure import (
    charNabla,
    charSections,
    demStep,
    demWords,
    eulerChar,
    expandGClass,
    gAddMul,
    lowerSetMask,
)
from .rootsystem import fundamental, negW, rho, subW, zero
from .steinberg import PSTAR, Q, QHAT, basisCharacter, steinbergDecompose
from .weyl import WeylGroup


def eulerPair(W: WeylGroup, f: Character, g: Character) -> Character:
    """Euler-characteristic pairing of two classes; symmetric, invariant."""
    return eulerChar(W, f * g)


def verdict(name: str, failures: list[str]) -> tuple[str, bool, str]:
    """The check row of a check that scanned to the end and collected the
    witnesses of its failures in scan order: it passes when there are none,
    and its witness is the last one ("" when it passes)."""
    return (name, not failures, failures[-1] if failures else "")


def wordStr(W: WeylGroup, w: int) -> str:
    word = W.canonicalWord(w)
    return "e" if not word else " ".join(f"s{i + 1}" for i in word)


def matrixReport(W: WeylGroup, rows: list[list[Character]]) -> dict:
    """A square matrix of characters whose rows and columns are both indexed
    by id, as a report extra."""
    names = [wordStr(W, w) for w in W.elements()]
    return {"rows": names, "cols": names, "entries": rows}


def pairingsWithP(W: WeylGroup, vs, gs: dict) -> dict[tuple, GClassExpansion]:
    """chi(P_v g) for each v in vs and each g in gs, in R(G) coordinates,
    keyed (v, key of g); P_v is the section character charP(-e_v).

    With (dom, u) = toDominant(-e_v), P_v = pi_u(e^dom), and Demazure
    adjointness chi(pi_u(f) g) = chi(f pi_{u^-1}(g)) (Demazure 1974; Kumar,
    Kac-Moody Groups, their Flag Varieties and Representation Theory, ch. 8)
    makes the entry the alternant of pi_{u^-1}(g) shifted by dom: no product
    is formed.  Rows are grouped by u^-1, and the reversed canonical words
    of the u, reduced words of the u^-1, go to one demWords call per g: they
    are suffix-closed, so each element is stepped once per g.
    """
    groups: dict[tuple[int, ...], list[tuple[int, tuple]]] = {}
    for v in vs:
        dom, u = W.toDominant(negW(W.steinbergWeight(v)))
        groups.setdefault(W.canonicalWord(u)[::-1], []).append((v, dom))
    out = {}
    for k, g in gs.items():
        for word, h in demWords(W, groups, g).items():
            for v, dom in groups[word]:
                out[(v, k)] = alternantCoeffs(W, h, dom)
    return out


def _qChars(W: WeylGroup, ws) -> dict[int, Character]:
    """The layer characters Q(e_w), keyed by w."""
    return {w: basisCharacter(W, w, Q) for w in ws}


def indPQMatrix(W: WeylGroup) -> list[list[Character]]:
    """Pairing table of the two section-character families: the row of P_v
    at index v, the column of Q_w at index w."""
    ws = W.elements()
    table = pairingsWithP(W, ws, _qChars(W, ws))
    return [[expandGClass(W, table[(v, w)]) for w in ws] for v in ws]


def indPQCheck(W: WeylGroup, rows: list[list[Character]]) -> list[tuple[str, bool, str]]:
    """Unitriangularity: diagonal 1, zero wherever the column element does not
    lie below the row element."""
    one = Character.monomial(zero(W.sys))
    failures = []
    for v, row in enumerate(rows):
        for w, e in enumerate(row):
            if v == w and e != one:
                failures.append(f"diagonal at {wordStr(W, v)}: {compact(e)}")
            elif not W.bruhatLeq(w, v) and e:
                failures.append(f"({wordStr(W, v)},{wordStr(W, w)}): {compact(e)}")
    return [verdict("indpq-unitriangular", failures)]


# -- transition matrices against the Schubert bases ----------------------------

def betaEntry(W: WeylGroup, v: int, w: int) -> Character:
    """Expansion coefficient of the v-th layer class over the twisted
    structure sheaves of the opposite Schubert cells."""
    lam = W.negW0(W.theta(v))
    vw0 = W.mul(W.inverse(v), W.w0)
    ww0 = W.mul(w, W.w0)
    top = W.demazureProduct(ww0, vw0)
    below = lowerSetMask(W, [W.demazureProduct(z, vw0) for z in W.covers(ww0)])
    return charSections(W, W.bruhatBits[top], lam, below)


def alphaEntry(W: WeylGroup, v: int, w: int) -> Character:
    """Expansion coefficient of the v-th dual-section class over the Schubert
    basis, computed on the opposite Borel side and carried back by the longest
    element: w0 mu = -(-w0 mu), a coordinate permutation (W.negW0) negated."""
    lam = W.theta(v)
    u = W.mul(W.mul(W.w0, w), W.w0)
    vi = W.inverse(v)
    top = W.demazureProduct(u, vi)
    below = lowerSetMask(W, [W.demazureProduct(u, z) for z in W.covers(vi)])
    f = charSections(W, W.bruhatBits[top], lam, below)
    return Character({negW(W.negW0(mu)): c for mu, c in f.terms.items()})


def triangularityChecks(W: WeylGroup, ws) -> list[tuple[str, bool, str]]:
    """Monomial corners e^theta_v and e^-theta_v of both transition matrices
    in every row v, and their zero pattern in the columns ws."""
    corners, zeros = [], []
    for v in W.elements():
        theta = W.theta(v)
        vw0 = W.mul(v, W.w0)
        corner_a = alphaEntry(W, v, vw0)
        if corner_a != Character.monomial(theta):
            corners.append(f"alpha corner {wordStr(W, v)}: {compact(corner_a)}")
        corner_b = betaEntry(W, v, vw0)
        if corner_b != Character.monomial(negW(theta)):
            corners.append(f"beta corner {wordStr(W, v)}: {compact(corner_b)}")
        for w in ws:
            if not W.bruhatLeq(w, vw0) and alphaEntry(W, v, w):
                zeros.append(f"alpha ({wordStr(W, v)},{wordStr(W, w)})")
            if not W.bruhatLeq(vw0, w) and betaEntry(W, v, w):
                zeros.append(f"beta ({wordStr(W, v)},{wordStr(W, w)})")
    return [verdict("alpha-beta-corners", corners),
            verdict("alpha-beta-zero-pattern", zeros)]


def orthogonalityCheck(W: WeylGroup) -> list[tuple[str, bool, str]]:
    """The two transition matrices multiply back to the pairing table."""
    table = pairingsWithP(W, W.elements(), _qChars(W, W.elements()))
    alphas = {
        (w, y): alphaEntry(W, w, y) for w in W.elements() for y in W.elements()
    }
    betas = {
        (v, y): betaEntry(W, v, y) for v in W.elements() for y in W.elements()
    }
    failures = []
    for v in W.elements():
        for w in W.elements():
            total = Character.zero()
            for y in W.elements():
                total = total + alphas[(w, y)] * betas[(v, y)]
            ind = table[(v, w)]
            if isInvariant(W, total) is not None or alternantCoeffs(W, total) != ind:
                failures.append(f"({wordStr(W, v)},{wordStr(W, w)}): "
                                f"sum {compact(total)} vs pairing {compact(expandGClass(W, ind))}")
    return [verdict("orthogonality", failures)]


# -- exceptional classes --------------------------------------------------------

def _xCoefficients(
    W: WeylGroup, p: int, order: list[int], piP: tuple[int, ...] = ()
) -> dict[int, GClassExpansion]:
    """The R(G) coefficients {b: c_{p,b}} of the class at p over the layer
    characters at the minimal coset representatives b at or after p: the
    upper half of the expansion of the dualized section character at p (the
    layer basis there, PSTAR everywhere else).  The layer is Q, or QHAT for
    a nonempty piP; with piP = () every element is minimal.  A coefficient
    away from the minimal representatives must cancel, and that is checked."""
    minset = set(W.parabolicData(piP)[1])
    if p not in minset:
        raise ValueError(f"element {wordStr(W, p)} is not a minimal coset representative")
    pos = {w: k for k, w in enumerate(order)}
    layer = QHAT if piP else Q
    choices = {v: (layer if v in minset and pos[v] >= pos[p] else PSTAR)
               for v in W.elements()}
    raw = steinbergDecompose(W, basisCharacter(W, p, PSTAR), choices, piP)
    stray = sorted(v for v in raw if v not in minset)
    if stray:
        raise AssertionError(f"nonzero coefficients outside the minimal representatives: {stray}")
    return {v: coef for v, coef in raw.items() if pos[v] >= pos[p]}


def xClass(
    W: WeylGroup, p: int, order: list[int] | None = None, piP: tuple[int, ...] = ()
) -> Character:
    """Project the dualized section character at p onto the layer classes at
    or after p: the K-class of the exceptional object attached to p on G/B,
    or, for a nonempty piP and a minimal coset representative p, on G/P,
    with the parabolic layers QHAT.  An order of None is the id order."""
    order = W.elements() if order is None else order
    layer = QHAT if piP else Q
    out = Character.zero()
    for v, coef in _xCoefficients(W, p, order, piP).items():
        out = out + expandGClass(W, coef) * basisCharacter(W, v, layer, piP)
    return out


def gramRows(W: WeylGroup, order: list[int] | None = None):
    """The Euler pairings chi(dual(x_v) x_w) of the exceptional classes in
    R(G) coordinates, one row at a time: (v, {w: entry}) for v in order,
    w in order, None meaning the id order.

    Projection formula: x_p = sum_b c_{p,b} Q_b with W-invariant c_{p,b}, and
    chi(h f) = h chi(f) for invariant h, so the entry is
    sum_b c_{w,b} (sum_a dual(c_{v,a}) M_ab) with M_ab = chi(dual(Q_a) Q_b).
    The coefficients are few and mostly scalars, so the only products of
    characters are the entries of the small layer Gram table M.
    """
    order = W.elements() if order is None else order
    coeffs = {p: _xCoefficients(W, p, order) for p in order}
    support = sorted({b for cp in coeffs.values() for b in cp})
    layers = _qChars(W, support)
    qGram: dict[tuple[int, int], GClassExpansion] = {}
    for v in order:
        duals = {a: gDual(W, c) for a, c in coeffs[v].items()}
        # outer[b] = sum_a dual(c_{v,a}) M_ab
        outer: dict[int, GClassExpansion] = {}
        for b in support:
            acc: dict = {}
            for a, c in duals.items():
                m = qGram.get((a, b))
                if m is None:
                    m = qGram[(a, b)] = alternantCoeffs(W, dual(layers[a]) * layers[b])
                gAddMul(W, acc, c, m)
            outer[b] = acc
        row = {}
        for w in order:
            acc = {}
            for b, c in coeffs[w].items():
                gAddMul(W, acc, c, outer[b])
            row[w] = acc
        yield v, row


def gramCheck(
    W: WeylGroup, order: list[int] | None = None
) -> tuple[list[tuple[str, bool, str]], int, list[dict]]:
    """One pass over gramRows(W, order), None meaning the id order: the
    diagonal-1 and upper-zero conditions, the number of nonzero entries
    strictly below the diagonal, which are unconstrained, and the pairings
    between distinct classes of equal length, emitted for inspection only."""
    order = W.elements() if order is None else order
    pos = {w: k for k, w in enumerate(order)}
    one = {zero(W.sys): 1}
    below = 0
    failures, pairs = [], []
    for v, row in gramRows(W, order):
        for w, g in row.items():
            if v == w and g != one:
                failures.append(f"diagonal {wordStr(W, v)}: {compact(expandGClass(W, g))}")
            elif pos[w] > pos[v] and g:
                failures.append(
                    f"({wordStr(W, v)},{wordStr(W, w)}): {compact(expandGClass(W, g))}")
            elif pos[w] < pos[v] and g:
                below += 1
            if v != w and W.length[v] == W.length[w]:
                pairs.append({"v": wordStr(W, v), "w": wordStr(W, w),
                              "pairing": expandGClass(W, g)})
    return [verdict("xclass-gram", failures)], below, pairs


def parabolicChecks(
    W: WeylGroup, piP: tuple[int, ...], order: list[int] | None = None
) -> list[tuple[str, bool, str]]:
    """(a) the parabolic pairing table restricted to minimal representatives
    matches the full-flag one; (b) the parabolic classes coincide with the
    plain ones."""
    minimal = W.parabolicData(piP)[1]
    hat = pairingsWithP(W, minimal, {w: basisCharacter(W, w, QHAT, piP) for w in minimal})
    plain = pairingsWithP(W, minimal, _qChars(W, minimal))
    tables = [
        f"({wordStr(W, v)},{wordStr(W, w)}): "
        f"{compact(expandGClass(W, hat[(v, w)]))} vs {compact(expandGClass(W, plain[(v, w)]))}"
        for v in minimal for w in minimal if hat[(v, w)] != plain[(v, w)]]
    classes = [f"class mismatch at {wordStr(W, p)}" for p in minimal
               if xClass(W, p, order, piP) != xClass(W, p, order)]
    return [verdict("parabolic-ind-matches-borel", tables),
            verdict("parabolic-classes-match", classes)]


def dualConjectureCheck(W: WeylGroup, v: int) -> dict:
    """The row of v: its "identity" is "pass" when the Euler characteristic
    of the single exponent built from a pair of opposite-corner head weights
    is the predicted sign, and otherwise the witness of that failure, with
    nothing else in the row.  Reported only: the same sign for the pairing
    chi(P_v Q(e_{w0 v}) e^-rho) of the section characters, taken by
    adjointness (pairingsWithP)."""
    ev = W.steinbergWeight(v)
    w0v = W.mul(W.w0, v)
    ew0v = W.steinbergWeight(w0v)
    exponent = subW(subW(ew0v, ev), rho(W.sys))
    sign = (-1) ** W.length[w0v]
    lhs = eulerChar(W, Character.monomial(exponent))
    expected = Character.monomial(zero(W.sys), sign)
    if lhs != expected:
        return {"identity": f"sign identity fails at {wordStr(W, v)}: "
                            f"{compact(lhs)} vs {compact(expected)}"}
    g = basisCharacter(W, w0v, Q) * Character.monomial(negW(rho(W.sys)))
    strong = pairingsWithP(W, [v], {0: g})[(v, 0)]
    return {
        "v": wordStr(W, v),
        "identity": "pass",
        "conjectureHolds": strong == {zero(W.sys): sign},
        "pairingValue": expandGClass(W, strong),
    }


# -- rank-2 catalogue ------------------------------------------------------------

_STEINBERG_LISTS = {
    "A2": {(-1, -1), (-1, 0), (0, -1), (-1, 1), (1, -1), (0, 0)},
    "B2": {(-1, -1), (-1, 0), (0, -1), (-2, 1), (1, -1), (-1, 1), (2, -1), (0, 0)},
    "G2": {(-1, -1), (-1, 0), (0, -1), (-1, 1), (1, -1), (2, -1), (-2, 1),
           (3, -2), (-3, 2), (3, -1), (-3, 1), (0, 0)},
}

# nabla-filtration factor lists for products of small irreducibles, rank 2
_TENSOR_LISTS = {
    "A2": [
        (((1, 0), (1, 0)), {(2, 0): 1, (0, 1): 1}),
        (((0, 1), (0, 1)), {(1, 0): 1, (0, 2): 1}),
        (((1, 0), (2, 0)), {(3, 0): 1, (1, 1): 1}),
        (((0, 1), (0, 2)), {(0, 3): 1, (1, 1): 1}),
        (((1, 0), (0, 1)), {(1, 1): 1, (0, 0): 1}),
        (((1, 0), (1, 1)), {(2, 1): 1, (1, 0): 1, (0, 2): 1}),
    ],
    "B2": [
        (((1, 0), (1, 0)), {(2, 0): 1, (0, 1): 1, (0, 0): 1}),
        (((1, 0), (0, 1)), {(1, 1): 1, (1, 0): 1}),
    ],
    "G2": [
        (((1, 0), (0, 1)), {(1, 1): 1, (2, 0): 1, (1, 0): 1}),
        (((1, 0), (1, 0)), {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}),
    ],
}


# dimensions of the two fundamental irreducibles in each rank-2 type
_FUND_DIMS = {"A2": (3, 3), "B2": (4, 5), "G2": (7, 14)}


def _rank2(W: WeylGroup) -> str:
    """The type name of W, refused unless the rank-2 catalogue covers it."""
    name = W.sys.name
    if name not in _STEINBERG_LISTS:
        raise ValueError(f"the rank-2 catalogue covers A2/B2/G2, not {name}")
    return name


def _tensorListCheck(W: WeylGroup) -> tuple[str, bool, str]:
    failures = []
    for (a, b), want in _TENSOR_LISTS[W.sys.name]:
        got = decomposeWeylBasis(W, charNabla(W, a) * charNabla(W, b))
        if got != want:
            failures.append(f"{a}x{b}: {got}")
    return verdict("tensor-filtration-lists", failures)


def _steinbergListCheck(W: WeylGroup) -> tuple[str, bool, str]:
    got = {W.steinbergWeight(v) for v in W.elements()}
    want = _STEINBERG_LISTS[W.sys.name]
    return verdict("steinberg-weight-list", [str(sorted(got ^ want))] if got != want else [])


def steinbergListCheck(W: WeylGroup) -> list[tuple[str, bool, str]]:
    """The Steinberg weights against the reference list, rank 2 only."""
    _rank2(W)
    return [_steinbergListCheck(W)]


def tensorDecompCheck(W: WeylGroup) -> list[tuple[str, bool, str]]:
    """Fundamental dimensions and product filtration lists, rank 2 only."""
    failures = []
    for i, want in enumerate(_FUND_DIMS[_rank2(W)]):
        got = augment(charNabla(W, fundamental(W.sys, i)))
        if got != want:
            failures.append(f"dim chi(omega_{i + 1}) = {got}, expected {want}")
    return [verdict("fundamental-dimensions", failures), _tensorListCheck(W)]


def rank2BundleChecks(W: WeylGroup) -> list[tuple[str, bool, str]]:
    """Rank-2 catalogue: the two-step bundle character, the filtration factor
    lists, and the Steinberg weight lists."""
    checks = []
    if _rank2(W) == "B2":
        psi = charNabla(W, (1, 0)) - Character.monomial((1, 0))
        got = demStep(W, 0, psi)
        want = Character.monomial((-1, 0)) + Character.monomial((1, -1))
        checks.append(verdict("two-step-bundle-character",
                              [] if got == want else [compact(got)]))
    return checks + [_tensorListCheck(W), _steinbergListCheck(W)]
