from __future__ import annotations

import random

import pytest

import demkit.ktheory as kt
from demkit.characters import (
    Character,
    charFromJSON,
    charToJSON,
    decomposeWeylBasis,
    dual,
    pretty,
)
from demkit.demazure import charNabla, charP, charQ, charSections, demWords, lowerSetMask
from demkit.ktheory import (
    alphaEntry,
    betaEntry,
    dualConjectureCheck,
    eulerPair,
    gramCheck,
    gramTable,
    indPQCheck,
    indPQMatrix,
    matrixToJSON,
    orthogonalityCheck,
    pairingsWithP,
    parabolicChecks,
    rank2BundleChecks,
    sameLengthPairReport,
    steinbergListCheck,
    tensorDecompCheck,
    triangularityChecks,
    wordStr,
    xClass,
    xHatClass,
)
from demkit.rootsystem import negW, rho, rootSystem, zero
from demkit.steinberg import Q, steinbergDecomposeChar, uniformChoices
from demkit.weyl import WeylGroup, weylGroup
from oracles import (
    alphaEntryTwoSums,
    betaEntryTwoSums,
    dualConjecturePairingProduct,
    gramTableProduct,
    pairingsWithPProduct,
)


def allPass(checks):
    bad = [(n, w) for n, ok, w in checks if not ok]
    assert not bad, bad


def test_euler_pair_symmetric_and_invariant():
    W = weylGroup("B2")
    rng = random.Random(2)
    for _ in range(10):
        f = Character({tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)
                       for _ in range(3)})
        g = Character({tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)
                       for _ in range(3)})
        assert eulerPair(W, f, g) == eulerPair(W, g, f)


def test_indpq_A1_matrix_frozen():
    W = weylGroup("A1")
    m = indPQMatrix(W)
    one = Character.monomial((0,))
    chiRho = charNabla(W, (1,))
    # rows are P(-e_v), columns Q(e_w), both indexed by id: e then s
    assert m == [[one, Character.zero()], [chiRho, one]]
    allPass(indPQCheck(W, m))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_indpq_unitriangular(name):
    W = weylGroup(name)
    allPass(indPQCheck(W, indPQMatrix(W)))


def test_alpha_beta_A1_frozen():
    W = weylGroup("A1")
    e, s = 0, W.w0
    assert alphaEntry(W, e, e) == Character.monomial((0,))
    assert alphaEntry(W, e, s) == Character.monomial((0,))
    assert alphaEntry(W, s, e) == Character.monomial((1,))
    assert alphaEntry(W, s, s) == Character.zero()
    assert betaEntry(W, e, e) == Character.zero()
    assert betaEntry(W, e, s) == Character.monomial((0,))
    assert betaEntry(W, s, e) == Character.monomial((-1,))
    assert betaEntry(W, s, s) == Character.monomial((1,))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2"])
def test_alpha_beta_entries_match_two_section_sums(name):
    W = weylGroup(name)
    for v in W.elements():
        for w in W.elements():
            assert alphaEntry(W, v, w) == alphaEntryTwoSums(W, v, w), (v, w)
            assert betaEntry(W, v, w) == betaEntryTwoSums(W, v, w), (v, w)


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_alpha_beta_entries_match_two_section_sums_sampled(name):
    W = weylGroup(name)
    rng = random.Random(10)
    elems = list(W.elements())
    for _ in range(200):
        v, w = rng.choice(elems), rng.choice(elems)
        assert alphaEntry(W, v, w) == alphaEntryTwoSums(W, v, w), (v, w)
        assert betaEntry(W, v, w) == betaEntryTwoSums(W, v, w), (v, w)


def test_sections_above_refuses_a_lower_set_not_below_top():
    W = weylGroup("A2")
    s1, s2 = W.rmul(0, 0), W.rmul(0, 1)
    top, below = W.bruhatBits[W.w0], lowerSetMask(W, (s1, s2))
    assert charSections(W, top, (1, 1), below) == \
        charSections(W, top, (1, 1), 0) - charSections(W, below, (1, 1), 0)
    with pytest.raises(AssertionError, match=f"element {s2} is left out but not in"):
        charSections(W, W.bruhatBits[s1], (1, 1), W.bruhatBits[s2])


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_triangularity_exhaustive_rank_le_2(name):
    W = weylGroup(name)
    vs = list(W.elements())
    allPass(triangularityChecks(W, vs, vs))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_triangularity_sampled_rank_3(name):
    W = weylGroup(name)
    rng = random.Random(17)
    vs = list(W.elements())
    ws = sorted(rng.sample(vs, 12))
    allPass(triangularityChecks(W, vs, ws))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_orthogonality(name):
    allPass(orthogonalityCheck(weylGroup(name)))


def test_xclass_A2_frozen_values():
    W = weylGroup("A2")
    s1, s2 = W.rmul(0, 0), W.rmul(0, 1)
    assert xClass(W, 0) == Character.monomial((0, 0))
    assert xClass(W, s1) == Character({(-1, 1): 1, (0, -1): 1})
    assert xClass(W, s2) == Character({(1, -1): 1, (-1, 0): 1})
    assert xClass(W, W.w0) == Character.monomial((-1, -1))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3",
                                  "C3", "A4", "B4", "C4", "D4", "F4"])
def test_xclass_identity_element(name):
    W = weylGroup(name)
    assert xClass(W, 0) == Character.monomial(zero(W.sys))


def test_xclass_rank1():
    W = weylGroup("A1")
    got = [xClass(W, v) for v in W.elements()]
    assert got == [Character.monomial((0,)), Character.monomial((-1,))]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "C3"])
def test_gram_conditions_default_order(name):
    W = weylGroup(name)
    checks, below = gramCheck(W, None, gramTable(W))
    allPass(checks)


def randomBruhatExtension(W, rng: random.Random) -> list[int]:
    # Kahn's algorithm with random tie-breaking over the cover relation
    preds = {w: set(W.covers(w)) for w in W.elements()}
    out = []
    ready = sorted(w for w, ps in preds.items() if not ps)
    while ready:
        w = ready.pop(rng.randrange(len(ready)))
        out.append(w)
        for u in W.elements():
            if w in preds[u]:
                preds[u].discard(w)
                if not preds[u] and u not in out and u not in ready:
                    ready.append(u)
    assert len(out) == W.size
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_gram_conditions_random_orders(name):
    W = weylGroup(name)
    rng = random.Random(23)
    default = {p: xClass(W, p) for p in W.elements()}
    for _ in range(3):
        order = randomBruhatExtension(W, rng)
        pos = {w: k for k, w in enumerate(order)}
        for u in W.elements():
            for w in W.elements():
                if u != w and W.bruhatLeq(u, w):
                    assert pos[u] < pos[w]
        checks, below = gramCheck(W, order, gramTable(W, order))
        allPass(checks)
        # class differences across orders are reported, never asserted
        changed = sum(1 for p in W.elements() if xClass(W, p, order) != default[p])
        assert 0 <= changed <= W.size


@pytest.mark.parametrize("name", ["A2", "B2", "B3"])
def test_xclass_pure_q_support(name):
    # independent re-expansion: the class of p lives in the span of the
    # boundary-kernel layers at ids at or after p
    W = weylGroup(name)
    choices = uniformChoices(W, Q)
    sample = W.elements() if W.size <= 12 else [*range(6), 17, 31, W.w0]
    for p in sample:
        raw = steinbergDecomposeChar(W, xClass(W, p), choices)
        assert raw, "class expansion must be nonempty"
        for v in raw:
            assert v >= p, (wordStr(W, p), wordStr(W, v))


def test_same_length_report_counts():
    # the same-length pairings below the diagonal are emitted for inspection;
    # their nonzero counts are stable for the default order
    W3 = weylGroup("B3")
    rows = sameLengthPairReport(W3, None, gramTable(W3))
    nonzero = [r for r in rows if r["pairing"]]
    assert len(nonzero) == 12
    C3 = weylGroup("C3")
    nonzeroC = [r for r in sameLengthPairReport(C3, None, gramTable(C3)) if r["pairing"]]
    assert len(nonzeroC) == 10
    for r in nonzero:
        assert charFromJSON(r["pairing"]) != Character.zero()


@pytest.mark.parametrize("name,piP", [("A2", (0,)), ("A2", (1,)),
                                      ("B2", (0,)), ("B2", (1,))])
def test_parabolic_checks(name, piP):
    allPass(parabolicChecks(weylGroup(name), piP))


def test_xhat_requires_minimal_rep():
    W = weylGroup("A2")
    piP = (0,)
    s1 = W.rmul(0, 0)
    with pytest.raises(ValueError):
        xHatClass(W, s1, piP)


def test_xhat_refuses_stray_coefficient(monkeypatch):
    # a coefficient at a non-minimal element must cancel; one that does not is refused
    W = weylGroup("B2")
    piP = (0,)
    s1 = W.rmul(0, 0)
    assert s1 not in W.parabolicData(piP)[1]
    decompose = kt.steinbergDecompose

    def withStray(*args):
        out = decompose(*args)
        out[s1] = {zero(W.sys): 1}
        return out

    monkeypatch.setattr(kt, "steinbergDecompose", withStray)
    with pytest.raises(AssertionError, match="outside the minimal representatives"):
        xHatClass(W, 0, piP)


def test_parabolic_degenerate_cases():
    W = weylGroup("B2")
    # empty parabolic: everything reduces to the Borel case
    allPass(parabolicChecks(W, ()))
    # full parabolic: one coset, one class, equal to the unit
    wp, minimal, w0p = W.parabolicData((0, 1))
    assert minimal == [0]
    assert xHatClass(W, 0, (0, 1)) == Character.monomial(zero(W.sys))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_dual_conjecture_rows(name):
    # the pairing by adjointness against the product route
    W = weylGroup(name)
    for v in W.elements():
        row = dualConjectureCheck(W, v)
        assert row["identity"] == "pass"
        strong = dualConjecturePairingProduct(W, v)
        sign = (-1) ** W.length[W.mul(W.w0, v)]
        assert row["conjectureHolds"] is (strong == Character.monomial(zero(W.sys), sign))
        assert row["pairingValue"] == charToJSON(strong), (name, v)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_rank2_catalogue(name):
    W = weylGroup(name)
    allPass(steinbergListCheck(W))
    allPass(tensorDecompCheck(W))
    allPass(rank2BundleChecks(W))


def test_catalogue_rejects_other_types():
    with pytest.raises(ValueError):
        steinbergListCheck(weylGroup("A3"))
    with pytest.raises(ValueError):
        tensorDecompCheck(weylGroup("D4"))


def test_matrix_serialization():
    W = weylGroup("A1")
    data = matrixToJSON(W, indPQMatrix(W))
    assert data["rows"] == ["e", "s1"] and data["cols"] == ["e", "s1"]
    assert charFromJSON(data["entries"][1][0]) == charNabla(W, (1,))


# -- the pairing tables against the product route --------------------------------

SMALL = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"]   # every type with |W| <= 48


def pqTables(W):
    order = W.elements()
    qs = {w: charQ(W, W.steinbergWeight(w)) for w in order}
    return pairingsWithP(W, order, qs), pairingsWithPProduct(W, order, qs)


@pytest.mark.parametrize("name", SMALL)
def test_pq_table_matches_product_route(name):
    fast, slow = pqTables(weylGroup(name))
    assert fast == slow


@pytest.mark.parametrize("name", SMALL)
def test_gram_table_matches_product_route(name):
    W = weylGroup(name)
    assert gramTable(W) == gramTableProduct(W)


def test_gram_table_matches_product_route_random_order():
    W = weylGroup("A3")
    order = randomBruhatExtension(W, random.Random(29))
    assert gramTable(W, order) == gramTableProduct(W, order)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4", "F4"])
def test_pq_sample_matches_product_route_rank_4(name):
    W = weylGroup(name)
    rng = random.Random(f"pq:{name}")
    vs = rng.sample(list(W.elements()), 3)
    qs = {w: charQ(W, W.steinbergWeight(w)) for w in rng.sample(list(W.elements()), 3)}
    assert pairingsWithP(W, vs, qs) == pairingsWithPProduct(W, vs, qs)


def test_pq_cross_check_catches_pi_u_for_pi_u_inverse(monkeypatch):
    # the mistake: words of u, not of u^-1, keyed as pairingsWithP asked
    W = weylGroup("A3")

    def wordsOfU(W, words, f):
        got = demWords(W, [word[::-1] for word in words], f)
        return {word: got[word[::-1]] for word in words}

    monkeypatch.setattr(kt, "demWords", wordsOfU)
    fast, slow = pqTables(W)
    assert fast != slow


def test_gram_cross_check_catches_a_dropped_coefficient(monkeypatch):
    W = weylGroup("A3")
    scalar = {zero(W.sys)}
    dropped = []
    xCoefficients = kt._xCoefficients

    def dropFirstNonScalar(W, p, order):
        got = xCoefficients(W, p, order)
        for b, c in got.items():
            if set(c) != scalar and not dropped:
                dropped.append((p, b, c))
                del got[b]
                break
        return got

    monkeypatch.setattr(kt, "_xCoefficients", dropFirstNonScalar)
    assert gramTable(W) != gramTableProduct(W)
    assert dropped


def test_pairing_tables_leave_no_memo_family():
    # the tables are rebuilt per call; the group memo keeps only the
    # character families it had before
    W = WeylGroup(rootSystem("B2"))
    gramCheck(W, None, gramTable(W))
    indPQMatrix(W)
    orthogonalityCheck(W)
    parabolicChecks(W, (0,))
    families = {key[0] for key in W.memo}
    assert families <= {"dem", "Q", "Qhat", "stx", "stxrow", "stxorder", "stxprod",
                        "orbit", "stw"}, families


def test_triangularity_memo_stays_bounded():
    # the orbit masks are kept per dominant 0/1 weight, the Steinberg weights
    # in one table; a second run reads them and adds nothing
    W = WeylGroup(rootSystem("B3"))
    triangularityChecks(W, W.elements(), W.elements())
    sizes = W.memoSizes()
    assert sizes["orbit"] <= 2 ** W.sys.rank and sizes["stw"] == W.size, sizes
    keys = set(W.memo)
    triangularityChecks(W, W.elements(), W.elements())
    assert set(W.memo) == keys and W.memoSizes() == sizes


# -- failing checks report a witness ----------------------------------------------

def test_indpq_check_reports_tampered_entries():
    W = weylGroup("A2")
    m = indPQMatrix(W)
    m[1][1] = Character.monomial((0, 0), 2)
    assert indPQCheck(W, m) == [("indpq-unitriangular", False, "diagonal at s1: 2e[0,0]")]
    m = indPQMatrix(W)
    m[0][1] = Character({(1, 0): 1, (0, -1): -1})
    assert indPQCheck(W, m) == [("indpq-unitriangular", False, "(e,s1): -e[0,-1]+e[1,0]")]


def test_gram_check_reports_tampered_entries():
    W = weylGroup("A2")
    s1 = W.rmul(0, 0)
    table = gramTable(W)
    table[(s1, s1)] = {(0, 0): 2}
    assert gramCheck(W, None, table)[0] == [("xclass-gram", False, "diagonal s1: 2e[0,0]")]
    table = gramTable(W)
    table[(0, s1)] = {(1, 0): 1}
    assert gramCheck(W, None, table)[0] == [
        ("xclass-gram", False, "(e,s1): e[-1,1]+e[0,-1]+e[1,0]")]
