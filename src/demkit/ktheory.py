"""Euler pairing, triangular transition matrices, and exceptional-class checks.

Everything here is a statement about exact integer characters.  The pairing
chi(f g) is the full-group Demazure operator applied to f g.  eulerPair forms
that product for any two characters; the pairing tables avoid it and stay in
R(G) coordinates (irreducible multiplicities, expanded to a character only
where a report prints an entry):

* section-class tables by Demazure adjointness: chi(pi_w(f) g) =
  chi(f pi_{w^-1}(g)), so pairing with P_v = pi_u(e^dom) is the alternant of
  pi_{u^-1}(g) shifted by dom (pairingsWithP);
* the Gram table of the exceptional classes by the projection formula:
  chi(h f) = h chi(f) for invariant h, so only the Gram table of the layer
  characters is a product of characters (gramTable).

The transition entries are differences of section characters over unions of
Schubert varieties, and the class constructions project dualized section
characters onto a chosen half of a mixed basis.
"""
from __future__ import annotations

from dataclasses import dataclass

from .characters import (
    Character,
    GClassExpansion,
    addMul,
    alternantCoeffs,
    augment,
    charToJSON,
    compact,
    decomposeWeylBasis,
    dual,
    expandGClass,
    isInvariant,
    weylActionChar,
)
from .demazure import (
    charNabla,
    charP,
    charQ,
    charQhat,
    charSections,
    demElt,
    demStep,
    eulerChar,
    lowerSet,
)
from .rootsystem import fundamental, isDominant, negW, rho, subW, zero
from .steinberg import PSTAR, Q, QHAT, steinbergDecomposeChar
from .weyl import WeylGroup


def eulerPair(W: WeylGroup, f: Character, g: Character) -> Character:
    """Euler-characteristic pairing of two classes; symmetric, invariant."""
    return eulerChar(W, f * g)


@dataclass
class TransitionMatrix:
    rowOrder: list[int]
    colOrder: list[int]
    entries: list[list[Character]]


def wordStr(W: WeylGroup, w: int) -> str:
    word = W.canonicalWord(w)
    return "e" if not word else " ".join(f"s{i + 1}" for i in word)


def matrixToJSON(W: WeylGroup, m: TransitionMatrix) -> dict:
    return {
        "rows": [wordStr(W, w) for w in m.rowOrder],
        "cols": [wordStr(W, w) for w in m.colOrder],
        "entries": [[charToJSON(c) for c in row] for row in m.entries],
    }


def pairingsWithP(W: WeylGroup, vs, gs: dict) -> dict[tuple, GClassExpansion]:
    """chi(P_v g) for each v in vs and each g in gs, in R(G) coordinates,
    keyed (v, key of g); P_v is the section character charP(-e_v).

    With (dom, u) = toDominant(-e_v), P_v = pi_u(e^dom), and Demazure
    adjointness chi(pi_u(f) g) = chi(f pi_{u^-1}(g)) (Demazure 1974; Kumar,
    Kac-Moody Groups, their Flag Varieties and Representation Theory, ch. 8)
    makes the entry the alternant of pi_{u^-1}(g) shifted by dom: no product
    is formed.  Rows are grouped by u^-1, so each pi_{u^-1}(g) is computed
    once and dropped after its group.
    """
    groups: dict[int, list[tuple[int, tuple]]] = {}
    for v in vs:
        dom, u = W.toDominant(negW(W.steinbergWeight(v)))
        groups.setdefault(W.inverse(u), []).append((v, dom))
    out = {}
    for ui, heads in groups.items():
        for k, g in gs.items():
            h = demElt(W, ui, g)
            for v, dom in heads:
                out[(v, k)] = alternantCoeffs(W, h, dom)
    return out


def _qChars(W: WeylGroup, ws) -> dict[int, Character]:
    """The layer characters Q(e_w), keyed by w."""
    return {w: charQ(W, W.steinbergWeight(w)) for w in ws}


def indPQMatrix(W: WeylGroup) -> TransitionMatrix:
    """Pairing table of the two section-character families, rows and columns
    in the fixed length-then-word order."""
    order = W.totalOrderBuild()
    table = pairingsWithP(W, order, _qChars(W, order))
    entries = [[expandGClass(W, table[(v, w)]) for w in order] for v in order]
    return TransitionMatrix(list(order), list(order), entries)


def indPQCheck(W: WeylGroup, m: TransitionMatrix) -> list[tuple[str, bool, str]]:
    """Unitriangularity: diagonal 1, zero wherever the column element does not
    lie below the row element."""
    one = Character.monomial(zero(W.sys))
    checks = []
    ok = True
    witness = ""
    for i, v in enumerate(m.rowOrder):
        for j, w in enumerate(m.colOrder):
            e = m.entries[i][j]
            if v == w and e != one:
                ok, witness = False, f"diagonal at {wordStr(W, v)}: {compact(e)}"
                break
            if not W.bruhatLeq(w, v) and e:
                ok, witness = False, f"({wordStr(W, v)},{wordStr(W, w)}): {compact(e)}"
                break
        if not ok:
            break
    checks.append(("indpq-unitriangular", ok, witness))
    return checks


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
    first = charSections(W, (top,), lam)
    zs = lowerSet(W, [W.demazureProduct(z, vw0) for z in W.covers(ww0)])
    return first - charSections(W, zs, lam)


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
    first = charSections(W, (top,), lam)
    zs = lowerSet(W, [W.demazureProduct(u, z) for z in W.covers(vi)])
    return weylActionChar(W, W.w0, first - charSections(W, zs, lam))


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

def _xCoefficients(W: WeylGroup, p: int, order: list[int]) -> dict[int, Character]:
    """The W-invariant coefficients {b: c_{p,b}} of the class at p over the
    layer characters Q_b at or after p: the upper half of the expansion of the
    dualized section character at p (Q from p on, PSTAR before)."""
    pos = {w: k for k, w in enumerate(order)}
    choices = {v: (Q if pos[v] >= pos[p] else PSTAR) for v in W.elements()}
    raw = steinbergDecomposeChar(W, dual(charP(W, negW(W.steinbergWeight(p)))), choices)
    return {v: coef for v, coef in raw.items() if pos[v] >= pos[p]}


def xClass(W: WeylGroup, p: int, order: list[int] | None = None) -> Character:
    """Project the dualized section character at p onto the layer classes at
    or after p: the K-class of the exceptional object attached to p."""
    order = W.totalOrderBuild() if order is None else order
    out = Character.zero()
    for v, coef in _xCoefficients(W, p, order).items():
        out = out + coef * charQ(W, W.steinbergWeight(v))
    return out


def _gDual(W: WeylGroup, h: GClassExpansion) -> GClassExpansion:
    """Dual in R(G): chi(lam)^* = chi(-w0 lam)."""
    return {negW(W.act(W.w0, lam)): m for lam, m in h.items()}


def _gAddMul(W: WeylGroup, acc: dict, h: GClassExpansion, k: GClassExpansion,
             products: dict) -> None:
    """acc += h k in R(G), in place.  A factor chi(0) is a scaling; any other
    chi(lam) chi(mu) is Brauer-Klimyk, the alternant of chi(lam) shifted by
    mu, memoised in products."""
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
                terms = products[key] = alternantCoeffs(W, charNabla(W, key[0]), key[1])
            addMul(acc, terms, a * b)


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
    order = W.totalOrderBuild() if order is None else order
    coeffs = {
        p: {b: decomposeWeylBasis(W, c) for b, c in _xCoefficients(W, p, order).items()}
        for p in order
    }
    duals = {p: {a: _gDual(W, c) for a, c in cp.items()} for p, cp in coeffs.items()}
    support = sorted({a for cp in coeffs.values() for a in cp})
    layers = _qChars(W, support)
    products: dict = {}
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
                _gAddMul(W, acc, c, m, products)
            inner[a] = acc
        for v in order:
            acc = {}
            for a, c in duals[v].items():
                _gAddMul(W, acc, c, inner[a], products)
            table[(v, w)] = acc
    return table


def gramCheck(
    W: WeylGroup,
    order: list[int] | None = None,
    table: dict[tuple[int, int], GClassExpansion] | None = None,
) -> tuple[list[tuple[str, bool, str]], dict[tuple[int, int], GClassExpansion]]:
    """Diagonal-1 and upper-zero conditions on the class pairing table
    (gramTable, built here unless given).  Entries strictly below the
    diagonal are returned unconstrained."""
    order = W.totalOrderBuild() if order is None else order
    table = gramTable(W, order) if table is None else table
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
    order: list[int] | None = None,
    table: dict[tuple[int, int], GClassExpansion] | None = None,
) -> list[dict]:
    """Euler pairings between distinct classes of equal length (from
    gramTable, built here unless given), emitted for inspection only; nothing
    is asserted about their values."""
    order = W.totalOrderBuild() if order is None else order
    table = gramTable(W, order) if table is None else table
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
    order = W.totalOrderBuild() if order is None else order
    pos = {w: k for k, w in enumerate(order)}
    minset = set(minimal)
    choices = {
        v: (QHAT if v in minset and pos[v] >= pos[p] else PSTAR)
        for v in W.elements()
    }
    raw = steinbergDecomposeChar(
        W, dual(charP(W, negW(W.steinbergWeight(p)))), choices, piP
    )
    stray = {v for v in raw if v not in minset}
    if stray:
        raise AssertionError(
            f"nonzero coefficients outside the minimal representatives: {sorted(stray)}"
        )
    out = Character.zero()
    for v, coef in raw.items():
        if pos[v] >= pos[p]:
            out = out + coef * charQhat(W, W.steinbergWeight(v), piP)
    return out


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
    only: the same sign for the full product of section characters."""
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
    strong = eulerChar(
        W,
        charP(W, negW(ev))
        * charQ(W, ew0v)
        * Character.monomial(negW(rho(W.sys))),
    )
    return {
        "v": wordStr(W, v),
        "identity": "pass",
        "conjectureHolds": strong == expected,
        "pairingValue": charToJSON(strong),
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
