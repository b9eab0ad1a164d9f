from __future__ import annotations

import random

import pytest

import demkit.exprlang as ex
from demkit.characters import Character, decomposeWeylBasis, dual
from demkit.cli import main
from demkit.demazure import charNabla, charP, charQ, demWord, eulerChar
from demkit.exprlang import EvalContext, ParseError, evalExpr, parse, printExpr
from demkit.ktheory import xClass
from demkit.rootsystem import rootSystem
from demkit.weyl import WeylGroup, weylGroup
from test_characters import smallestFundamentals


def genWeight(rng, rank=2):
    return "[" + ",".join(str(rng.randint(-2, 2)) for _ in range(rank)) + "]"


def genDominant(rng, rank=2):
    return "[" + ",".join(str(rng.randint(0, 2)) for _ in range(rank)) + "]"


def genWord(rng):
    n = rng.randint(0, 3)
    return "e" if n == 0 else " ".join(f"s{rng.randint(1, 2)}" for _ in range(n))


def genChar(rng, depth):
    if depth <= 0:
        leaf = rng.choice(["e", "chi", "P", "Q", "steinberg", "xclass"])
        if leaf == "e":
            return f"e({genWeight(rng)})"
        if leaf == "chi":
            return f"chi({genDominant(rng)})"
        if leaf in ("P", "Q"):
            return f"{leaf}({genWeight(rng)})"
        return f"{leaf}({genWord(rng)})"
    op = rng.choice(["add", "sub", "mul", "neg", "paren",
                     "dualOf", "D", "pair", "euler"])
    a = genChar(rng, depth - 1)
    if op == "add":
        return f"{a} + {genChar(rng, depth - 1)}"
    if op == "sub":
        return f"{a} - {genChar(rng, depth - 1)}"
    if op == "mul":
        return f"({a}) * ({genChar(rng, depth - 1)})"
    if op == "neg":
        return f"-({a})"
    if op == "paren":
        return f"({a})"
    if op == "dualOf":
        return f"dualOf({a})"
    if op == "D":
        return f"D({genWord(rng)}, {a})"
    if op == "pair":
        return f"pair({a}, {genChar(rng, depth - 1)})"
    return f"euler({a})"


def test_parse_print_parse_idempotent_on_corpus():
    rng = random.Random(31)
    corpus = []
    for k in range(50):
        src = genChar(rng, rng.randint(0, 3))
        if k % 7 == 0:
            src = f"decomposeG({src})"
        corpus.append(src)
    for src in corpus:
        ast = parse(src)
        printed = printExpr(ast)
        assert parse(printed) == ast
        assert printExpr(parse(printed)) == printed


def test_print_canonical_shapes():
    assert printExpr(parse("chi([1,0]) * chi([0,1])")) == "chi([1,0])*chi([0,1])"
    assert printExpr(parse("e([1,0]) + e([0,1]) - e([0,0])")) == \
        "e([1,0]) + e([0,1]) - e[0,0]".replace("e[0,0]", "e([0,0])")
    assert printExpr(parse("-(e([1,0]) + e([0,1]))")) == "-(e([1,0]) + e([0,1]))"
    assert printExpr(parse("(e([1,0]) - e([0,1])) * Q([1,1])")) == \
        "(e([1,0]) - e([0,1]))*Q([1,1])"
    assert printExpr(parse("xclass(s1 s2 s1)")) == "xclass(s1 s2 s1)"
    assert printExpr(parse("steinberg( e )")) == "steinberg(e)"
    assert printExpr(parse("D(s2 s1, dualOf(P([-1,2])))")) == \
        "D(s2 s1, dualOf(P([-1,2])))"


def test_whitespace_and_newlines():
    a = parse("pair(\n  P([-1,-1]),\n  Q([0,0])\n)")
    assert a == parse("pair(P([-1,-1]),Q([0,0]))")


@pytest.mark.parametrize("src,line,col", [
    ("chi([1,0]", 1, 10),
    ("chi([1,0])) ", 1, 11),
    ("pair(P([1,0]))", 1, 14),
    ("frob([1,0])", 1, 1),
    ("e([1,0]) @ e([0,1])", 1, 10),
    ("xclass(s0)", 1, 8),
    ("chi([1,])", 1, 8),
    ("decomposeG(e([1,0])) + e([0,0])", 1, 22),
    ("pair(decomposeG(e([1,0])), Q([0,0]))", 1, 26),
    ("e([1,0]) e([0,1])", 1, 10),
])
def test_parse_errors_with_positions(src, line, col):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.line == line
    assert exc.value.col == col


def test_multiline_error_position():
    with pytest.raises(ParseError) as exc:
        parse("e([1,0]) +\n  chi([1,0)")
    assert exc.value.line == 2


def test_no_bare_literals():
    # weights and words only appear as arguments; integers are not factors
    for src in ["[1,0]", "3", "e([1,0]) * 2", "s1", "2*chi([1,0])"]:
        with pytest.raises(ParseError):
            parse(src)


def test_eval_basic_identities():
    W = weylGroup("A2")
    ctx = EvalContext(W)
    assert evalExpr(parse("e([1,0]) * e([0,1])"), ctx) == Character.monomial((1, 1))
    assert evalExpr(parse("e([1,0]) - e([1,0])"), ctx) == Character.zero()
    assert evalExpr(parse("-e([2,-1])"), ctx) == Character.monomial((2, -1), -1)
    assert evalExpr(parse("dualOf(dualOf(Q([1,1])))"), ctx) == charQ(W, (1, 1))
    assert evalExpr(parse("euler(e([1,1]))"), ctx) == charNabla(W, (1, 1))
    assert evalExpr(parse("chi([2,1])"), ctx) == charNabla(W, (2, 1))
    assert evalExpr(parse("P([-1,-1])"), ctx) == charP(W, (-1, -1))
    assert evalExpr(parse("D(s1 s2, e([1,1]))"), ctx) == \
        demWord(W, (0, 1), Character.monomial((1, 1)))
    assert evalExpr(parse("xclass(s1 s2 s1)"), ctx) == xClass(W, W.w0)
    # D folds the letters: s1 s1 multiplies to e, but D_1 D_1 = D_1
    assert evalExpr(parse("D(s1 s1, e([1,0]))"), ctx) == \
        demWord(W, (0,), Character.monomial((1, 0))) != Character.monomial((1, 0))
    assert evalExpr(parse("steinberg(e)"), ctx) == Character.monomial((0, 0))
    assert evalExpr(parse("steinberg(s1 s2)"), ctx) == \
        Character.monomial(W.steinbergWeight(W.rmul(W.rmul(0, 0), 1)))
    assert evalExpr(parse("decomposeG(chi([1,0])*chi([0,1]))"), ctx) == \
        {(1, 1): 1, (0, 0): 1}


def test_eval_domain_errors():
    W = weylGroup("A2")
    ctx = EvalContext(W)
    with pytest.raises(ValueError):
        evalExpr(parse("chi([1,0,0])"), ctx)
    with pytest.raises(ValueError):
        evalExpr(parse("xclass(s3)"), ctx)
    with pytest.raises(ValueError, match="s3 out of range"):
        evalExpr(parse("D(s3, e([1,1]))"), ctx)
    with pytest.raises(ValueError):
        evalExpr(parse("chi([-1,0])"), ctx)


def test_eval_refuses_negative_word_letters():
    """A parsed word never holds a negative letter, but an expression tree
    built by hand can; negative indexing must not turn -1 into the last
    simple reflection (nor into the atom letter ~0 of demWords)."""
    W = weylGroup("A2")
    ctx = EvalContext(W)
    f = ("e", ("weight", (1, 1)))
    for node in (("D", ("word", (-1,)), f), ("D", ("word", (0, -3)), f),
                 ("steinberg", ("word", (-1,))), ("xclass", ("word", (-2,)))):
        with pytest.raises(ValueError, match="out of range for A2"):
            evalExpr(node, ctx)


def test_eval_qhat_uses_context():
    W = weylGroup("B2")
    from demkit.demazure import charQhat
    got = evalExpr(parse("Qhat([2,1])"), EvalContext(W, piP=(0,)))
    assert got == charQhat(W, (2, 1), (0,))
    assert got != evalExpr(parse("Qhat([2,1])"), EvalContext(W, piP=()))


# -- decomposeG in R(G) coordinates ----------------------------------------------

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]


def lit(w) -> str:
    return "[" + ",".join(map(str, w)) + "]"


def genPure(rng, pool, rank, depth):
    """A random expression that is in R(G) by construction: chi of weights
    from pool, euler and pair of small characters, combined by + - * and
    dualOf."""
    if depth <= 0:
        leaf = rng.choice(["chi", "chi", "euler", "pair"])
        chi = f"chi({lit(rng.choice(pool))})"
        mono = f"e({genWeight(rng, rank)})"
        if leaf == "chi":
            return chi
        if leaf == "euler":
            return f"euler({rng.choice([mono, f'{chi}*{mono}'])})"
        return f"pair({rng.choice([mono, chi])}, {mono})"
    op = rng.choice(["add", "sub", "mul", "neg", "dualOf"])
    a = genPure(rng, pool, rank, depth - 1)
    if op == "neg":
        return f"-({a})"
    if op == "dualOf":
        return f"dualOf({a})"
    b = genPure(rng, pool, rank, depth - 1)
    return f"({a}) {dict(add='+', sub='-', mul='*')[op]} ({b})"


def smallWeights(W) -> list:
    """0, the two fundamentals of smallest dimension and their sum."""
    a, b = smallestFundamentals(W)
    return [(0,) * W.sys.rank, a, b, tuple(x + y for x, y in zip(a, b))]


@pytest.mark.parametrize("name", TYPES)
def test_pure_decompose_matches_character_route(name):
    # value and constituent order, against decomposing the character
    W = weylGroup(name)
    rank = W.sys.rank
    small = rank <= 3
    rng = random.Random(sum(map(ord, "rg:" + name)))
    ctx = EvalContext(W)
    for _ in range(25 if small else 4):
        pool = smallWeights(W) if not small else \
            [tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(3)]
        src = genPure(rng, pool, rank, rng.randint(0, 2 if small else 1))
        node = parse(f"decomposeG({src})")
        assert ex._inRG(node[1]), src
        got = evalExpr(node, ctx)
        want = decomposeWeylBasis(W, evalExpr(parse(src), ctx))
        assert got == want and list(got) == list(want), src


@pytest.mark.parametrize("src, want", [
    ("decomposeG(e([1,0])*e([-1,0]))", {(0, 0): 1}),
    ("decomposeG((chi([1,1]) + e([1,0])) - e([1,0]))", {(1, 1): 1}),
    ("decomposeG(D(s1 s2 s1, e([1,0]))*chi([0,1]))", {(1, 1): 1, (0, 0): 1}),
])
def test_impure_argument_takes_the_character_route(src, want):
    W = weylGroup("A2")
    node = parse(src)
    assert not ex._inRG(node[1])
    assert evalExpr(node, EvalContext(W)) == want


@pytest.mark.parametrize("src", ["decomposeG(e([1,0]))",
                                 "decomposeG(chi([1,0]) + e([1,0]))",
                                 "decomposeG(chi([1,0])*chi([0,1])*e([0,1]))"])
def test_non_invariant_argument_refused_as_before(src):
    W = weylGroup("A2")
    ctx = EvalContext(W)
    with pytest.raises(ValueError) as before:
        decomposeWeylBasis(W, evalExpr(parse(src)[1], ctx))
    assert str(before.value).startswith("character is not W-invariant")
    with pytest.raises(ValueError) as exc:
        evalExpr(parse(src), ctx)
    assert str(exc.value) == str(before.value)


@pytest.mark.parametrize("src, top", [
    ("decomposeG(chi([1,0])*chi([-1,0]))", "chi([-1,0])"),
    ("decomposeG(dualOf(chi([0,-2])) + chi([1,1]))", "chi([0,-2])"),
    ("decomposeG(chi([1,0]) - chi([1,0,0]))", "chi([1,0,0])"),
])
def test_bad_chi_inside_pure_argument_exits_2_as_before(capsys, src, top):
    assert ex._inRG(parse(src)[1])
    got = []
    for expr in (src, top):
        code = main(["eval", expr, "--type", "A2", "--no-cache"])
        got.append((code, *capsys.readouterr()))
    assert got[0] == got[1]
    code, out, err = got[0]
    assert code == 2 and out == "" and err.startswith("demkit: ")


def test_product_of_irreducibles_is_never_built():
    W = WeylGroup(rootSystem("F4"))
    got = evalExpr(parse("decomposeG(chi([1,1,0,1])*chi([0,0,0,1]))"), EvalContext(W))
    assert ("dem", (1, 1, 0, 1)) not in W.memo
    f = charNabla(W, (1, 1, 0, 1)) * charNabla(W, (0, 0, 0, 1))
    want = decomposeWeylBasis(W, f)
    assert got == want and list(got) == list(want)
    # a product that is printed is still the product of characters
    assert evalExpr(parse("chi([1,1,0,1])*chi([0,0,0,1])"), EvalContext(W)) == f
