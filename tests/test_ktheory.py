from __future__ import annotations

import itertools
import random

import pytest

import demkit.ktheory as kt
from demkit.characters import (
    Character,
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
    gramRows,
    indPQCheck,
    indPQMatrix,
    matrixReport,
    orthogonalityCheck,
    pairingsWithP,
    parabolicChecks,
    rank2BundleChecks,
    steinbergListCheck,
    tensorDecompCheck,
    triangularityChecks,
    wordStr,
    xClass,
)
from demkit.rootsystem import negW, rho, rootSystem, zero
from demkit.steinberg import Q, QHAT, steinbergDecomposeChar, uniformChoices
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
    allPass(triangularityChecks(W, vs))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_triangularity_sampled_rank_3(name):
    W = weylGroup(name)
    rng = random.Random(17)
    vs = list(W.elements())
    ws = sorted(rng.sample(vs, 12))
    allPass(triangularityChecks(W, ws))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_corners_fail_with_theta_from_right_descents(monkeypatch, name):
    # the right descents of v are the left descents of v^-1, so they name
    # another weight wherever v is not an involution
    W = WeylGroup(rootSystem(name))
    monkeypatch.setattr(W, "theta", lambda v: tuple(
        int(i in W.rightDescents(v)) for i in range(W.sys.rank)))
    corners, zeros = triangularityChecks(W, [])
    assert corners[:2] == ("alpha-beta-corners", False), corners
    assert zeros == ("alpha-beta-zero-pattern", True, "")


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
    checks, _, _ = gramCheck(W, None)
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
        checks, _, _ = gramCheck(W, order)
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
    rows = gramCheck(W3, None)[2]
    nonzero = [r for r in rows if r["pairing"]]
    assert len(nonzero) == 12
    C3 = weylGroup("C3")
    nonzeroC = [r for r in gramCheck(C3, None)[2] if r["pairing"]]
    assert len(nonzeroC) == 10
    for r in nonzero:
        assert r["pairing"] != Character.zero()


@pytest.mark.parametrize("name,piP", [("A2", (0,)), ("A2", (1,)),
                                      ("B2", (0,)), ("B2", (1,))])
def test_parabolic_checks(name, piP):
    allPass(parabolicChecks(weylGroup(name), piP))


def test_xhat_requires_minimal_rep():
    W = weylGroup("A2")
    piP = (0,)
    s1 = W.rmul(0, 0)
    with pytest.raises(ValueError):
        xClass(W, s1, None, piP)


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
        xClass(W, 0, None, piP)


def test_parabolic_degenerate_cases():
    W = weylGroup("B2")
    # empty parabolic: everything reduces to the Borel case
    allPass(parabolicChecks(W, ()))
    # full parabolic: one coset, one class, equal to the unit
    wp, minimal, w0p = W.parabolicData((0, 1))
    assert minimal == [0]
    assert xClass(W, 0, None, (0, 1)) == Character.monomial(zero(W.sys))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_parabolic_classes_match_borel_on_every_proper_subset(name):
    # the G/P class at a minimal coset representative is the G/B one, for
    # every nonempty proper subset of the simple reflections
    W = weylGroup(name)
    for r in range(1, W.sys.rank):
        for piP in itertools.combinations(range(W.sys.rank), r):
            for p in W.parabolicData(piP)[1]:
                assert xClass(W, p, None, piP) == xClass(W, p), (name, piP, wordStr(W, p))


def test_borel_classes_build_no_parabolic_layers():
    # with no parabolic, the classes read the Q layers and the (v, Q, None)
    # basis rows only: no Qhat character and no QHAT row is built
    W = WeylGroup(rootSystem("B3"))
    for p in W.elements():
        xClass(W, p)
    assert "Qhat" not in {key[0] for key in W.memo}
    assert not [key for key in W.memo[("stxrow",)] if QHAT in key]


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
        assert row["pairingValue"] == strong, (name, v)


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
    data = matrixReport(W, indPQMatrix(W))
    assert data["rows"] == ["e", "s1"] and data["cols"] == ["e", "s1"]
    assert data["entries"][1][0] == charNabla(W, (1,))


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


def gramTableOf(W, order=None):
    return {(v, w): e for v, row in gramRows(W, order) for w, e in row.items()}


@pytest.mark.parametrize("name", SMALL)
def test_gram_table_matches_product_route(name):
    W = weylGroup(name)
    assert gramTableOf(W) == gramTableProduct(W)


def test_gram_table_matches_product_route_random_order():
    W = weylGroup("A3")
    order = randomBruhatExtension(W, random.Random(29))
    assert gramTableOf(W, order) == gramTableProduct(W, order)


@pytest.mark.parametrize("name,seed", [("A2", None), ("B2", None), ("G2", None), ("A3", 31)])
def test_gram_extras_match_product_route(name, seed):
    # the below-diagonal count and the same-length pairs, read off the table
    # of the product route: pairs in scan order (v outer, w inner), each
    # pairing decomposed back to the oracle's R(G) coordinates
    W = weylGroup(name)
    order = W.elements() if seed is None else randomBruhatExtension(W, random.Random(seed))
    table = gramTableProduct(W, order)
    pos = {w: k for k, w in enumerate(order)}
    below = sum(1 for (v, w), e in table.items() if pos[w] < pos[v] and e)
    pairs = [(v, w) for v in order for w in order
             if v != w and W.length[v] == W.length[w]]
    checks, gotBelow, gotPairs = gramCheck(W, None if seed is None else order)
    allPass(checks)
    assert gotBelow == below
    assert [(r["v"], r["w"]) for r in gotPairs] == \
        [(wordStr(W, v), wordStr(W, w)) for v, w in pairs]
    assert [decomposeWeylBasis(W, r["pairing"]) for r in gotPairs] == \
        [table[pair] for pair in pairs]
    assert below and pairs


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

    def dropFirstNonScalar(W, p, order, *rest):
        got = xCoefficients(W, p, order, *rest)
        for b, c in got.items():
            if set(c) != scalar and not dropped:
                dropped.append((p, b, c))
                del got[b]
                break
        return got

    monkeypatch.setattr(kt, "_xCoefficients", dropFirstNonScalar)
    assert gramTableOf(W) != gramTableProduct(W)
    assert dropped


def test_pairing_tables_leave_no_memo_family():
    # the tables are rebuilt per call; the group memo keeps only the
    # character families it had before
    W = WeylGroup(rootSystem("B2"))
    gramCheck(W, None)
    indPQMatrix(W)
    orthogonalityCheck(W)
    parabolicChecks(W, (0,))
    families = {key[0] for key in W.memo}
    assert families <= {"dem", "Q", "Qhat", "stx", "stxrow", "stxorder", "stxprod",
                        "orbit", "stw"}, families


def test_triangularity_memo_stays_bounded():
    # the orbit masks are kept per dominant 0/1 weight, and theta_v is read
    # from the descents, so no Steinberg weight table is built; a second run
    # reads the masks and adds nothing
    W = WeylGroup(rootSystem("B3"))
    triangularityChecks(W, W.elements())
    sizes = W.memoSizes()
    assert sizes["orbit"] <= 2 ** W.sys.rank and "stw" not in sizes, sizes
    keys = set(W.memo)
    triangularityChecks(W, W.elements())
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


def test_indpq_check_names_the_later_of_two_tampered_cells():
    # the scan runs to the end: a tampered diagonal in the first row and an
    # off-support cell in a later row give the later cell as the witness
    W = weylGroup("A2")
    m = indPQMatrix(W)
    m[0][0] = Character.monomial((0, 0), 2)
    m[1][2] = Character.monomial((1, 0))
    assert indPQCheck(W, m) == [("indpq-unitriangular", False,
                                 f"({wordStr(W, 1)},{wordStr(W, 2)}): e[1,0]")]


def test_orthogonality_names_the_later_of_two_failing_cells(monkeypatch):
    # a far monomial added to alpha(s1, s1) in A1 breaks the cells (v, s1)
    # whose beta(v, s1) is nonzero, that is (e, s1) and then (s1, s1)
    W = weylGroup("A1")
    s1 = W.w0
    assert betaEntry(W, 0, s1) and betaEntry(W, s1, s1)
    entry = kt.alphaEntry
    monkeypatch.setattr(kt, "alphaEntry", lambda W, w, y: entry(W, w, y) + (
        Character.monomial((5,)) if (w, y) == (s1, s1) else Character.zero()))
    [(name, ok, witness)] = orthogonalityCheck(W)
    assert (name, ok) == ("orthogonality", False)
    assert witness.startswith("(s1,s1): sum "), witness


def test_gram_check_reports_tampered_entries(monkeypatch):
    W = weylGroup("A2")
    s1 = W.rmul(0, 0)
    rows = kt.gramRows

    def tamper(v, w, entry):
        def tampered(W, order):
            for u, row in rows(W, order):
                if u == v:
                    row[w] = entry
                yield u, row
        monkeypatch.setattr(kt, "gramRows", tampered)

    tamper(s1, s1, {(0, 0): 2})
    assert gramCheck(W, None)[0] == [("xclass-gram", False, "diagonal s1: 2e[0,0]")]
    tamper(0, s1, {(1, 0): 1})
    assert gramCheck(W, None)[0] == [
        ("xclass-gram", False, "(e,s1): e[-1,1]+e[0,-1]+e[1,0]")]
