from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

import demkit.rootsystem as rootsystem
from demkit.characters import Character, decomposeWeylBasis, dual, gSorted
from demkit.demazure import charNabla, charP, expandGClass
from demkit.rootsystem import negW, rho, rootSystem, zero
from demkit.steinberg import (
    PSTAR,
    Q,
    QHAT,
    UNIT,
    _addVec,
    _unitVector,
    antipodalLeq,
    basisCharacter,
    excellentLeq,
    isSteinbergWeight,
    steinbergDecompose,
    steinbergDecomposeChar,
    uniformChoices,
)
from demkit.weyl import WeylGroup, weylGroup

import oracles

RANK_LE_3 = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"]


def randomChar(rank: int, rng: random.Random) -> Character:
    terms = {tuple(rng.randint(-2, 2) for _ in range(rank)): rng.randint(-3, 3)
             for _ in range(4)}
    return Character({w: c for w, c in terms.items() if c})


def reconstruct(W, out, choices) -> Character:
    back = Character.zero()
    for v, coeffs in out.items():
        back = back + expandGClass(W, coeffs) * basisCharacter(W, v, choices[v])
    return back


@pytest.mark.parametrize("name", RANK_LE_3)
def test_steinberg_weight_recognition(name):
    W = weylGroup(name)
    for v in W.elements():
        assert isSteinbergWeight(W, W.steinbergWeight(v)) == v
    # rho is never a Steinberg weight (its orbit rep has coordinate 1s but
    # the dominant representative must come from a descent set)
    assert isSteinbergWeight(W, rho(W.sys)) is None
    assert isSteinbergWeight(W, zero(W.sys)) == 0


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_excellent_order_on_steinberg_weights(name):
    W = weylGroup(name)
    weights = [W.steinbergWeight(v) for v in W.elements()]
    for lam in weights:
        assert excellentLeq(W, lam, lam)
        assert antipodalLeq(W, lam, lam)
        for mu in weights:
            if excellentLeq(W, lam, mu) and excellentLeq(W, mu, lam):
                assert lam == mu
            assert antipodalLeq(W, lam, mu) == excellentLeq(W, negW(lam), negW(mu))
    # zero is the antipodal minimum among Steinberg weights: its expansion
    # never needs anything else
    for lam in weights:
        assert antipodalLeq(W, zero(W.sys), lam)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_basis_characters_head_coefficient(name):
    W = weylGroup(name)
    for v in W.elements():
        ev = W.steinbergWeight(v)
        for choice in (UNIT, Q, PSTAR):
            f = basisCharacter(W, v, choice)
            assert f.coeff(ev) == 1
            # every other term sits strictly below in the antipodal order
            for mu in f.terms:
                if mu != ev:
                    assert antipodalLeq(W, mu, ev) and mu != ev
    assert basisCharacter(W, 0, UNIT) == Character.monomial(zero(W.sys))


@pytest.mark.parametrize("name", RANK_LE_3)
@pytest.mark.parametrize("choice", [UNIT, Q, PSTAR])
def test_round_trip_pure_choices(name, choice):
    W = weylGroup(name)
    rng = random.Random(sum(map(ord, name + choice)))
    choices = uniformChoices(W, choice)
    for _ in range(50):
        f = randomChar(W.sys.rank, rng)
        out = steinbergDecompose(W, f, choices)
        assert reconstruct(W, out, choices) == f


@pytest.mark.parametrize("name", RANK_LE_3)
def test_round_trip_mixed_choices(name):
    W = weylGroup(name)
    rng = random.Random(sum(map(ord, name)) + 99)
    for _ in range(50):
        f = randomChar(W.sys.rank, rng)
        choices = {v: rng.choice([UNIT, Q, PSTAR]) for v in W.elements()}
        out = steinbergDecompose(W, f, choices)
        assert reconstruct(W, out, choices) == f


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_unit_coefficient_in_own_expansion(name):
    # a Steinberg exponential expands over the basis with coefficient exactly
    # one unit at its own index and nothing at any index above it
    W = weylGroup(name)
    one = Character.monomial(zero(W.sys))
    for choice in (UNIT, Q, PSTAR):
        choices = uniformChoices(W, choice)
        for v in W.elements():
            ev = W.steinbergWeight(v)
            raw = steinbergDecomposeChar(W, Character.monomial(ev), choices)
            assert raw[v] == one
            for u in raw:
                assert antipodalLeq(W, W.steinbergWeight(u), ev)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_support_bound_on_exponentials(name):
    W = weylGroup(name)
    choices = uniformChoices(W, Q)
    for lam in itertools.product(range(-1, 2), repeat=W.sys.rank):
        raw = steinbergDecomposeChar(W, Character.monomial(lam), choices)
        for v in raw:
            assert antipodalLeq(W, W.steinbergWeight(v), lam)


@pytest.mark.parametrize("name", RANK_LE_3)
def test_matches_per_choice_map_oracle(name):
    # the shared UNIT table plus a solve gives exactly what a fresh recursion
    # under each choice map gives
    W = weylGroup(name)
    rng = random.Random(sum(map(ord, name)) + 7)
    draws = 4 if W.sys.rank == 3 else 20
    for _ in range(draws):
        f = randomChar(W.sys.rank, rng)
        choices = {v: rng.choice([UNIT, Q, PSTAR]) for v in W.elements()}
        assert steinbergDecomposeChar(W, f, choices) == oracles.expandPerChoiceMap(W, f, choices)


@pytest.mark.parametrize("name,piP", [("A2", (0,)), ("B2", (1,)), ("B3", (0, 2))])
def test_parabolic_maps_match_per_choice_map_oracle(name, piP):
    # the choice maps xClass builds for a parabolic: QHAT on minimal coset
    # representatives at or after p, PSTAR everywhere else
    W = weylGroup(name)
    _, minimal, _ = W.parabolicData(piP)
    for p in minimal:
        choices = {v: (QHAT if v in minimal and v >= p else PSTAR)
                   for v in W.elements()}
        f = dual(charP(W, negW(W.steinbergWeight(p))))
        got = steinbergDecomposeChar(W, f, choices, piP)
        assert got == oracles.expandPerChoiceMap(W, f, choices, piP)
        assert set(got) <= set(minimal)


def test_memo_bounded_over_choice_maps():
    # one fresh group, one f, 20 fresh mixed maps: once the three uniform
    # maps have built the rows f reaches, no map adds a UNIT-table entry,
    # and the rows stay within one per (element, choice)
    W = WeylGroup(rootSystem("B3"))
    rng = random.Random(2024)
    f = Character({(1, -1, 2): 2, (-2, 1, 0): -1, (0, 2, -1): 1})
    for choice in (UNIT, Q, PSTAR):
        steinbergDecomposeChar(W, f, uniformChoices(W, choice))
    units = W.memoSizes()["stx"]
    for _ in range(20):
        choices = {v: rng.choice([UNIT, Q, PSTAR]) for v in W.elements()}
        assert steinbergDecomposeChar(W, f, choices) == oracles.expandPerChoiceMap(W, f, choices)
        sizes = W.memoSizes()
        assert sizes["stx"] == units
        assert sizes["stxrow"] <= 3 * W.size


def test_clear_memo_then_same_output():
    W = WeylGroup(rootSystem("B3"))
    f = Character({(1, -1, 2): 2, (-2, 1, 0): -1, (0, 2, -1): 1})
    choices = {v: (UNIT, Q, PSTAR)[v % 3] for v in W.elements()}
    first = steinbergDecompose(W, f, choices)
    assert {"stx", "stxrow", "stxorder"} <= set(W.memoSizes())
    W.clearMemo()
    assert W.memo == {} and W.memoSizes() == {}
    again = steinbergDecompose(W, f, choices)
    assert repr(again) == repr(first)


@pytest.mark.parametrize("name", ["A2", "G2", "B3", "C3"])
def test_coefficients_in_decomposition_order(name):
    # the R(G) coefficients come out as decomposeWeylBasis would split the
    # expanded characters, in its (height, lex) order
    W = weylGroup(name)
    rng = random.Random(sum(map(ord, name)) + 3)
    for _ in range(5):
        f = randomChar(W.sys.rank, rng)
        choices = {v: rng.choice([UNIT, Q, PSTAR]) for v in W.elements()}
        got = steinbergDecompose(W, f, choices)
        chars = steinbergDecomposeChar(W, f, choices)
        assert list(got) == list(chars)
        for v, coef in got.items():
            assert list(coef.items()) == list(decomposeWeylBasis(W, chars[v]).items())


def test_zero_and_cancelling_adds():
    W = weylGroup("B2")
    a, b = (0, 0), (1, 0)
    acc = {0: {a: 2}, 5: {b: 4}}
    _addVec(W, acc, {0: {a: 2, b: -1}, 3: {a: 1}}, 0)
    assert acc == {0: {a: 2}, 5: {b: 4}}
    vec = {0: {a: -1, b: 3}, 3: {a: 2}, 5: {b: -2}}
    _addVec(W, acc, vec, 2)
    # index 0 drops its cancelled weight, index 3 is vec's coefficient times
    # 2 and index 5 cancels away
    assert acc == {0: {b: 6}, 3: {a: 4}}
    assert vec == {0: {a: -1, b: 3}, 3: {a: 2}, 5: {b: -2}}
    _addVec(W, acc, {0: {b: 3}, 3: {a: 2}}, -2)
    assert acc == {}
    # the same over the shared UNIT vectors, which the adds must not change
    for lam in [(2, 1), (-1, 2), (1, -2), (0, 0), (-2, -1)]:
        unit = _unitVector(W, lam)
        kept = {u: dict(coef) for u, coef in unit.items()}
        x: dict = {}
        total = 0
        for m in (1, 0, 3, -5):
            _addVec(W, x, unit, m)
            total += m
            assert x == {u: {mu: c * total for mu, c in coef.items()}
                         for u, coef in unit.items()}
            # no index maps to {} and no stored coefficient is 0
            assert all(coef and 0 not in coef.values() for coef in x.values())
        _addVec(W, x, unit, -total)
        assert x == {}
        assert unit == kept


def test_zero_and_cancelling_adds_under_python_O():
    # pytest rewrites the test's asserts, so they still check under -O
    env = oracles.subprocessEnv()
    test = os.path.abspath(__file__) + "::test_zero_and_cancelling_adds"
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           test], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout, proc.stdout


def test_warm_solve_and_sort_do_not_take_root_coordinates(monkeypatch):
    # height is one dot product; only the dominance test takes simple-root
    # coordinates
    W = weylGroup("B3")
    rng = random.Random(23)
    f = Character({(2, 2, 2): 2, (1, -1, 0): -1, (-2, 1, 1): 3, (0, 0, 0): 1})
    choices = {v: rng.choice([UNIT, Q, PSTAR]) for v in W.elements()}
    first = steinbergDecompose(W, f, choices)

    def refuse(rs, lam):
        raise AssertionError("simple-root coordinates taken")

    monkeypatch.setattr(rootsystem, "_rootCoordsScaled", refuse)
    assert repr(steinbergDecompose(W, f, choices)) == repr(first)
    mult = {lam: 1 for coef in first.values() for lam in coef}
    assert list(gSorted(W, dict(reversed(mult.items())))) == list(gSorted(W, mult))
    with pytest.raises(AssertionError, match="simple-root coordinates"):
        rootsystem.dominanceLeq(W.sys, (0, 0, 0), (1, 0, 0))


def test_no_recursion_limit_change(monkeypatch):
    # a fresh group runs the whole expansion of the costliest weight in the
    # [-2, 2] box under the default limit, without touching it
    W = WeylGroup(rootSystem("B3"))
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        def refuse(n):
            raise AssertionError(f"setrecursionlimit({n}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        f = Character.monomial((2, 2, 2))
        out = steinbergDecomposeChar(W, f, uniformChoices(W, UNIT))
        back = Character.zero()
        for v, coef in out.items():
            back = back + coef * basisCharacter(W, v, UNIT)
        assert back == f
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(before)


def test_parabolic_choice_requires_minimal_rep():
    W = weylGroup("A2")
    piP = (0,)
    wp, minimal, w0p = W.parabolicData(piP)
    for v in minimal:
        f = basisCharacter(W, v, QHAT, piP)
        assert f.coeff(W.steinbergWeight(v)) == 1
    with pytest.raises(ValueError):
        basisCharacter(W, 0, QHAT, None)


def test_bad_choice_rejected():
    W = weylGroup("A1")
    with pytest.raises(ValueError):
        steinbergDecomposeChar(W, Character.monomial((0,)), {0: "NOPE", 1: Q})


def test_recursion_limit_restored():
    W = weylGroup("B2")
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(3000)
        f = Character({(1, 1): 1, (-2, 1): 3})
        steinbergDecomposeChar(W, f, uniformChoices(W, Q))
        assert sys.getrecursionlimit() == 3000
        # restored on the error path too: QHAT without a parabolic subset
        with pytest.raises(ValueError):
            steinbergDecomposeChar(W, Character.monomial((0, 0)), uniformChoices(W, QHAT))
        assert sys.getrecursionlimit() == 3000
    finally:
        sys.setrecursionlimit(before)


OPTIMIZED_SCRIPT = textwrap.dedent("""
    import itertools
    from demkit.characters import Character
    from demkit.demazure import expandGClass
    import demkit.steinberg as st
    from demkit.steinberg import (
        PSTAR, Q, UNIT, basisCharacter, steinbergDecompose, steinbergDecomposeChar,
        uniformChoices,
    )
    from demkit.weyl import weylGroup

    if __debug__:
        raise SystemExit("expected python -O")
    kinds = itertools.cycle((UNIT, Q, PSTAR))
    for name, f in (("B2", Character({(1, -1): 2, (0, 2): -1, (-2, 1): 1})),
                    ("B3", Character({(1, -1, 2): 2, (0, 2, -1): -1, (-2, 1, 1): 1}))):
        W = weylGroup(name)
        choices = {v: next(kinds) for v in W.elements()}
        back = Character.zero()
        for v, coeffs in steinbergDecompose(W, f, choices).items():
            back = back + expandGClass(W, coeffs) * basisCharacter(W, v, choices[v])
        if back != f:
            raise SystemExit(name + " round trip did not rebuild its input")
    # e_0 = 0 is the antipodal minimum, solved last; a row there that reaches
    # the already solved w0 must be refused
    W = weylGroup("B3")
    one = Character.monomial((0, 0, 0))
    st._basisRow = lambda W, v, choice, piP: {W.w0: dict(one.terms)} if v == 0 else {}
    try:
        steinbergDecomposeChar(W, one, uniformChoices(W, Q))
    except AssertionError as e:
        if "already solved" not in str(e):
            raise SystemExit("wrong refusal: " + str(e))
    else:
        raise SystemExit("a basis row reaching above its own index was accepted")
    # a left-out set that is not inside the lower set has no section difference
    import demkit.demazure as dz
    A2 = weylGroup("A2")
    try:
        dz.charSections(A2, A2.bruhatBits[A2.rmul(0, 0)], (1, 1),
                        A2.bruhatBits[A2.rmul(0, 1)])
    except AssertionError as e:
        if "not in the lower set" not in str(e):
            raise SystemExit("wrong refusal: " + str(e))
    else:
        raise SystemExit("a left-out set outside the lower set was accepted")
    # Freudenthal's divisibility check is an explicit raise; print the digest
    import hashlib
    chi = dz.charNabla(weylGroup("F4"), (1, 1, 1, 1))
    print(hashlib.sha256(repr(chi.sortedItems()).encode()).hexdigest())
    # a packing bound that is too small must be caught when unpacking
    dz._coordBound = lambda W, f: 1
    try:
        dz.demWord(weylGroup("A1"), (0,), Character.monomial((5,)))
    except AssertionError as e:
        if "packing bound" not in str(e):
            raise SystemExit("wrong refusal: " + str(e))
    else:
        raise SystemExit("a weight outside the packing bound was accepted")
    # ... also when a later word of one call first reaches it: the empty word
    # stays inside the bound, pi_1 reaches (-1, 2)
    try:
        dz.demWords(weylGroup("A2"), [(), (0,)], Character.monomial((1, 1)))
    except AssertionError as e:
        if "packing bound" not in str(e):
            raise SystemExit("wrong refusal: " + str(e))
    else:
        raise SystemExit("a weight a later word reaches outside the packing bound was accepted")
    print("ok")
""")


def test_invariants_hold_under_python_O():
    env = oracles.subprocessEnv()
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    chi = charNabla(weylGroup("F4"), (1, 1, 1, 1))
    assert proc.stdout.split() == [hashlib.sha256(repr(chi.sortedItems()).encode()).hexdigest(), "ok"]
