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
* the Gram table of the exceptional classes by the projection formula:
  chi(h f) = h chi(f) for invariant h, so only the Gram table of the layer
  characters is a product of characters (gramTable).

The transition entries are differences of section characters over unions of
Schubert varieties, and the class constructions project dualized section
characters onto a chosen half of a mixed basis.
"""
from __future__ import annotations

from .characters import (
    Character,
    GClassExpansion,
    alternantCoeffs,
    augment,
    charToJSON,
    compact,
    decomposeWeylBasis,
    dual,
    expandGClass,
    gAddMul,
    gDual,
    isInvariant,
    weylActionChar,
)
from .demazure import (
    charNabla,
    charP,
    charQ,
    charQhat,
    charSections,
    demStep,
    demWords,
    eulerChar,
    lowerSetMask,
)
from .rootsystem import fundamental, isDominant, negW, rho, subW, zero
from .steinberg import PSTAR, Q, QHAT, steinbergDecompose
from .weyl import WeylGroup


def eulerPair(W: WeylGroup, f: Character, g: Character) -> Character:
    """Euler-characteristic pairing of two classes; symmetric, invariant."""
    return eulerChar(W, f * g)


def wordStr(W: WeylGroup, w: int) -> str:
    word = W.canonicalWord(w)
    return "e" if not word else " ".join(f"s{i + 1}" for i in word)


def matrixToJSON(W: WeylGroup, rows: list[list[Character]]) -> dict:
    """A square matrix whose rows and columns are both indexed by id."""
    names = [wordStr(W, w) for w in W.elements()]
    return {
        "rows": names,
        "cols": names,
        "entries": [[charToJSON(c) for c in row] for row in rows],
    }


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
    return {w: charQ(W, W.steinbergWeight(w)) for w in ws}


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
    for v, row in enumerate(rows):
        for w, e in enumerate(row):
            if v == w and e != one:
                return [("indpq-unitriangular", False,
                         f"diagonal at {wordStr(W, v)}: {compact(e)}")]
            if not W.bruhatLeq(w, v) and e:
                return [("indpq-unitriangular", False,
                         f"({wordStr(W, v)},{wordStr(W, w)}): {compact(e)}")]
    return [("indpq-unitriangular", True, "")]


# -- transition matrices against the Schubert bases ----------------------------

def betaEntry(W: WeylGroup, v: int, w: int) -> Character:
    """Expansion coefficient of the v-th layer class over the twisted
    structure sheaves of the opposite Schubert cells."""
    theta = W.act(v, W.steinbergWeight(v))
    lam = negW(W.act(W.w0, theta))
    if not isDominant(lam):
        raise AssertionError(f"beta weight {lam} of element {v} is not dominant")
    vw0 = W.mul(W.inverse(v), W.w0)
    ww0 = W.mul(w, W.w0)
    top = W.demazureProduct(ww0, vw0)
    below = lowerSetMask(W, [W.demazureProduct(z, vw0) for z in W.covers(ww0)])
    return charSections(W, W.bruhatBits[top], lam, below)


def alphaEntry(W: WeylGroup, v: int, w: int) -> Character:
    """Expansion coefficient of the v-th dual-section class over the Schubert
    basis, computed on the opposite Borel side and carried back by the longest
    element."""
    lam = W.act(v, W.steinbergWeight(v))
    if not isDominant(lam):
        raise AssertionError(f"alpha weight {lam} of element {v} is not dominant")
    u = W.mul(W.mul(W.w0, w), W.w0)
    vi = W.inverse(v)
    top = W.demazureProduct(u, vi)
    below = lowerSetMask(W, [W.demazureProduct(u, z) for z in W.covers(vi)])
    return weylActionChar(W, W.w0, charSections(W, W.bruhatBits[top], lam, below))


def triangularityChecks(
    W: WeylGroup, vs, ws
) -> list[tuple[str, bool, str]]:
    """Zero pattern and monomial corners for both transition matrices."""
    checks = []
    okz, wz = True, ""
    okc, wc = True, ""
    for v in vs:
        ev = W.steinbergWeight(v)
        vev = W.act(v, ev)
        vw0 = W.mul(v, W.w0)
        corner_a = alphaEntry(W, v, vw0)
        if corner_a != Character.monomial(vev):
            okc, wc = False, f"alpha corner {wordStr(W, v)}: {compact(corner_a)}"
        corner_b = betaEntry(W, v, vw0)
        if corner_b != Character.monomial(negW(vev)):
            okc, wc = False, f"beta corner {wordStr(W, v)}: {compact(corner_b)}"
        for w in ws:
            if not W.bruhatLeq(w, vw0) and alphaEntry(W, v, w):
                okz, wz = False, f"alpha ({wordStr(W, v)},{wordStr(W, w)})"
            if not W.bruhatLeq(vw0, w) and betaEntry(W, v, w):
                okz, wz = False, f"beta ({wordStr(W, v)},{wordStr(W, w)})"
    checks.append(("alpha-beta-corners", okc, wc))
    checks.append(("alpha-beta-zero-pattern", okz, wz))
    return checks


def orthogonalityCheck(W: WeylGroup) -> list[tuple[str, bool, str]]:
    """The two transition matrices multiply back to the pairing table."""
    table = pairingsWithP(W, W.elements(), _qChars(W, W.elements()))
    alphas = {
        (w, y): alphaEntry(W, w, y) for w in W.elements() for y in W.elements()
    }
    betas = {
        (v, y): betaEntry(W, v, y) for v in W.elements() for y in W.elements()
    }
    for v in W.elements():
        for w in W.elements():
            total = Character.zero()
            for y in W.elements():
                total = total + alphas[(w, y)] * betas[(v, y)]
            ind = table[(v, w)]
            if isInvariant(W, total) is not None or alternantCoeffs(W, total) != ind:
                return [(
                    "orthogonality",
                    False,
                    f"({wordStr(W, v)},{wordStr(W, w)}): "
                    f"sum {compact(total)} vs pairing {compact(expandGClass(W, ind))}",
                )]
    return [("orthogonality", True, "")]


# -- exceptional classes --------------------------------------------------------

def _xCoefficients(W: WeylGroup, p: int, order: list[int]) -> dict[int, GClassExpansion]:
    """The R(G) coefficients {b: c_{p,b}} of the class at p over the layer
    characters Q_b at or after p: the upper half of the expansion of the
    dualized section character at p (Q from p on, PSTAR before)."""
    pos = {w: k for k, w in enumerate(order)}
    choices = {v: (Q if pos[v] >= pos[p] else PSTAR) for v in W.elements()}
    raw = steinbergDecompose(W, dual(charP(W, negW(W.steinbergWeight(p)))), choices)
    return {v: coef for v, coef in raw.items() if pos[v] >= pos[p]}


def _combine(W: WeylGroup, coeffs: dict[int, GClassExpansion], layer) -> Character:
    """sum_v coeffs[v] layer(v), each R(G) coefficient expanded to its character."""
    out = Character.zero()
    for v, coef in coeffs.items():
        out = out + expandGClass(W, coef) * layer(v)
    return out


def xClass(W: WeylGroup, p: int, order: list[int] | None = None) -> Character:
    """Project the dualized section character at p onto the layer classes at
    or after p: the K-class of the exceptional object attached to p."""
    order = W.elements() if order is None else order
    return _combine(W, _xCoefficients(W, p, order),
                    lambda v: charQ(W, W.steinbergWeight(v)))


def gramTable(
    W: WeylGroup, order: list[int] | None = None
) -> dict[tuple[int, int], GClassExpansion]:
    """The Euler pairings chi(dual(x_v) x_w) of the exceptional classes, for
    every ordered pair, in R(G) coordinates.

    Projection formula: x_p = sum_b c_{p,b} Q_b with W-invariant c_{p,b}, and
    chi(h f) = h chi(f) for invariant h, so the entry is
    sum_a dual(c_{v,a}) (sum_b c_{w,b} M_ab) with M_ab = chi(dual(Q_a) Q_b).
    The coefficients are few and mostly scalars, so the only products of
    characters are the entries of the small layer Gram table M.
    """
    order = W.elements() if order is None else order
    coeffs = {p: _xCoefficients(W, p, order) for p in order}
    duals = {p: {a: gDual(W, c) for a, c in cp.items()} for p, cp in coeffs.items()}
    support = sorted({a for cp in coeffs.values() for a in cp})
    layers = _qChars(W, support)
    qGram: dict[tuple[int, int], GClassExpansion] = {}
    table = {}
    for w in order:
        # inner[a] = sum_b c_{w,b} M_ab
        inner: dict[int, GClassExpansion] = {}
        for a in support:
            acc: dict = {}
            for b, c in coeffs[w].items():
                m = qGram.get((a, b))
                if m is None:
                    m = qGram[(a, b)] = alternantCoeffs(W, dual(layers[a]) * layers[b])
                gAddMul(W, acc, c, m)
            inner[a] = acc
        for v in order:
            acc = {}
            for a, c in duals[v].items():
                gAddMul(W, acc, c, inner[a])
            table[(v, w)] = acc
    return table


def gramCheck(
    W: WeylGroup,
    order: list[int] | None,
    table: dict[tuple[int, int], GClassExpansion],
) -> tuple[list[tuple[str, bool, str]], dict[tuple[int, int], GClassExpansion]]:
    """Diagonal-1 and upper-zero conditions on the class pairing table
    gramTable(W, order), None meaning the id order.  Entries strictly below
    the diagonal are returned unconstrained."""
    order = W.elements() if order is None else order
    pos = {w: k for k, w in enumerate(order)}
    one = {zero(W.sys): 1}
    below: dict[tuple[int, int], GClassExpansion] = {}
    ok, witness = True, ""
    for v in order:
        for w in order:
            g = table[(v, w)]
            if v == w and g != one:
                ok, witness = False, (
                    f"diagonal {wordStr(W, v)}: {compact(expandGClass(W, g))}")
            elif pos[w] > pos[v] and g:
                ok, witness = False, (
                    f"({wordStr(W, v)},{wordStr(W, w)}): {compact(expandGClass(W, g))}")
            elif pos[w] < pos[v]:
                below[(v, w)] = g
    return [("xclass-gram", ok, witness)], below


def sameLengthPairReport(
    W: WeylGroup,
    order: list[int] | None,
    table: dict[tuple[int, int], GClassExpansion],
) -> list[dict]:
    """Euler pairings between distinct classes of equal length, from the
    table gramTable(W, order), None meaning the id order; emitted for
    inspection only, nothing is asserted about their values."""
    order = W.elements() if order is None else order
    rows = []
    for v in order:
        for w in order:
            if v != w and W.length[v] == W.length[w]:
                rows.append({
                    "v": wordStr(W, v),
                    "w": wordStr(W, w),
                    "pairing": charToJSON(expandGClass(W, table[(v, w)])),
                })
    return rows


def xHatClass(
    W: WeylGroup,
    p: int,
    piP: tuple[int, ...],
    order: list[int] | None = None,
) -> Character:
    """Parabolic analogue: expand over the minimal coset representatives with
    parabolic layer characters in the upper half.  Coefficients away from the
    minimal representatives must cancel, and that cancellation is checked."""
    wp, minimal, w0p = W.parabolicData(piP)
    if p not in minimal:
        raise ValueError(f"element {wordStr(W, p)} is not a minimal coset representative")
    order = W.elements() if order is None else order
    pos = {w: k for k, w in enumerate(order)}
    minset = set(minimal)
    choices = {
        v: (QHAT if v in minset and pos[v] >= pos[p] else PSTAR)
        for v in W.elements()
    }
    raw = steinbergDecompose(
        W, dual(charP(W, negW(W.steinbergWeight(p)))), choices, piP
    )
    stray = {v for v in raw if v not in minset}
    if stray:
        raise AssertionError(
            f"nonzero coefficients outside the minimal representatives: {sorted(stray)}"
        )
    return _combine(W, {v: coef for v, coef in raw.items() if pos[v] >= pos[p]},
                    lambda v: charQhat(W, W.steinbergWeight(v), piP))


def parabolicChecks(
    W: WeylGroup, piP: tuple[int, ...], order: list[int] | None = None
) -> list[tuple[str, bool, str]]:
    """(a) the parabolic pairing table restricted to minimal representatives
    matches the full-flag one; (b) the parabolic classes coincide with the
    plain ones."""
    wp, minimal, w0p = W.parabolicData(piP)
    hat = pairingsWithP(
        W, minimal, {w: charQhat(W, W.steinbergWeight(w), piP) for w in minimal})
    plain = pairingsWithP(W, minimal, _qChars(W, minimal))
    checks = []
    ok, witness = True, ""
    for v in minimal:
        for w in minimal:
            lhs, rhs = hat[(v, w)], plain[(v, w)]
            if lhs != rhs:
                ok, witness = False, (
                    f"({wordStr(W, v)},{wordStr(W, w)}): "
                    f"{compact(expandGClass(W, lhs))} vs {compact(expandGClass(W, rhs))}"
                )
    checks.append(("parabolic-ind-matches-borel", ok, witness))
    ok, witness = True, ""
    for p in minimal:
        if xHatClass(W, p, piP, order) != xClass(W, p, order):
            ok, witness = False, f"class mismatch at {wordStr(W, p)}"
    checks.append(("parabolic-classes-match", ok, witness))
    return checks


def dualConjectureCheck(W: WeylGroup, v: int) -> dict:
    """Asserted: the Euler characteristic of the single exponent built from a
    pair of opposite-corner head weights is the predicted sign.  Reported
    only: the same sign for the pairing chi(P_v Q(e_{w0 v}) e^-rho) of the
    section characters, taken by adjointness (pairingsWithP)."""
    ev = W.steinbergWeight(v)
    w0v = W.mul(W.w0, v)
    ew0v = W.steinbergWeight(w0v)
    exponent = subW(subW(ew0v, ev), rho(W.sys))
    sign = (-1) ** W.length[w0v]
    lhs = eulerChar(W, Character.monomial(exponent))
    expected = Character.monomial(zero(W.sys), sign)
    if lhs != expected:
        raise AssertionError(
            f"sign identity fails at {wordStr(W, v)}: {compact(lhs)} vs {compact(expected)}"
        )
    g = charQ(W, ew0v) * Character.monomial(negW(rho(W.sys)))
    strong = pairingsWithP(W, [v], {0: g})[(v, 0)]
    return {
        "v": wordStr(W, v),
        "identity": "pass",
        "conjectureHolds": strong == {zero(W.sys): sign},
        "pairingValue": charToJSON(expandGClass(W, strong)),
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


def _tensorListCheck(W: WeylGroup) -> tuple[str, bool, str]:
    ok, witness = True, ""
    for (a, b), want in _TENSOR_LISTS[W.sys.name]:
        got = decomposeWeylBasis(W, charNabla(W, a) * charNabla(W, b))
        if got != want:
            ok, witness = False, f"{a}x{b}: {got}"
    return ("tensor-filtration-lists", ok, witness)


def tensorDecompCheck(W: WeylGroup) -> list[tuple[str, bool, str]]:
    """Fundamental dimensions and product filtration lists, rank 2 only."""
    name = W.sys.name
    if name not in _TENSOR_LISTS:
        raise ValueError(f"reference lists exist for A2/B2/G2, not {name}")
    checks = []
    ok, witness = True, ""
    for i, want in enumerate(_FUND_DIMS[name]):
        got = augment(charNabla(W, fundamental(W.sys, i)))
        if got != want:
            ok, witness = False, f"dim chi(omega_{i + 1}) = {got}, expected {want}"
    checks.append(("fundamental-dimensions", ok, witness))
    checks.append(_tensorListCheck(W))
    return checks


def rank2BundleChecks(W: WeylGroup) -> list[tuple[str, bool, str]]:
    """Rank-2 catalogue: the two-step bundle character, the filtration factor
    lists, and the Steinberg weight lists."""
    name = W.sys.name
    if name not in _STEINBERG_LISTS:
        raise ValueError(f"rank-2 catalogue covers A2/B2/G2, not {name}")
    checks = []
    if name == "B2":
        psi = charNabla(W, (1, 0)) - Character.monomial((1, 0))
        got = demStep(W, 0, psi)
        want = Character.monomial((-1, 0)) + Character.monomial((1, -1))
        checks.append((
            "two-step-bundle-character",
            got == want,
            "" if got == want else compact(got),
        ))
    checks.append(_tensorListCheck(W))
    checks.append(steinbergListCheck(W)[0])
    return checks


def steinbergListCheck(W: WeylGroup) -> list[tuple[str, bool, str]]:
    name = W.sys.name
    if name not in _STEINBERG_LISTS:
        raise ValueError(f"reference lists exist for A2/B2/G2, not {name}")
    got = {W.steinbergWeight(v) for v in W.elements()}
    want = _STEINBERG_LISTS[name]
    return [(
        "steinberg-weight-list",
        got == want,
        "" if got == want else str(sorted(got ^ want)),
    )]
