"""A tiny expression language for characters.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := func | '(' expr ')' | '-' factor
    func   := IDENT '(' args ')'

Weights are bracketed integer lists like [1,-1]; Weyl words are written
's1 s2 s1' (or 'e' for the identity) in the argument slots that expect a
word.  Argument counts and kinds are checked while parsing, so an
ill-formed call never reaches evaluation.

The argument of decomposeG is evaluated in R(G) coordinates (dominant
multiplicities) when it is built from chi, euler and pair by + - * and
dualOf: such a value is in R(G) by construction, and a product of
irreducibles is decomposed by Brauer-Klimyk without being formed.  Any
other argument is evaluated as a character and then decomposed.

>>> printExpr(parse("pair(P([-1,-1]), Q([0,0]))"))
'pair(P([-1,-1]), Q([0,0]))'
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from . import demazure as _dz
from . import ktheory as _kt
from .characters import (
    Character,
    GClassExpansion,
    addMul,
    alternantCoeffs,
    decomposeWeylBasis,
    dual,
    gAddMul,
    gDual,
    gSorted,
)
from .weyl import WeylGroup

CHAR = "char"
WEIGHT = "weight"
WORD = "word"
GEXP = "gexp"
RG = "rg"   # a character argument, resolved to dominant multiplicities

# name -> (argument kinds, result kind, evaluator).  The evaluator gets the
# EvalContext and one resolved value per argument: a rank-checked weight
# tuple, a range-checked tuple of 0-based letters, an evaluated character,
# or the dominant multiplicities of an R(G) argument (_gClass).
# It reaches library functions through their modules or this module's
# globals, so a wrapper installed on a module after import is the one called.
FUNCS: dict[str, tuple] = {
    "e": ((WEIGHT,), CHAR, lambda ctx, lam: Character.monomial(lam)),
    "chi": ((WEIGHT,), CHAR, lambda ctx, lam: _dz.charNabla(ctx.W, lam)),
    "P": ((WEIGHT,), CHAR, lambda ctx, lam: _dz.charP(ctx.W, lam)),
    "Q": ((WEIGHT,), CHAR, lambda ctx, lam: _dz.charQ(ctx.W, lam)),
    "Qhat": ((WEIGHT,), CHAR, lambda ctx, lam: _dz.charQhat(ctx.W, lam, ctx.piP)),
    "dualOf": ((CHAR,), CHAR, lambda ctx, f: dual(f)),
    # demWord, not demElt: D on a non-reduced word is not D of its product
    "D": ((WORD, CHAR), CHAR, lambda ctx, word, f: _dz.demWord(ctx.W, word, f)),
    "pair": ((CHAR, CHAR), CHAR, lambda ctx, f, g: _kt.eulerPair(ctx.W, f, g)),
    "euler": ((CHAR,), CHAR, lambda ctx, f: _dz.eulerChar(ctx.W, f)),
    "decomposeG": ((RG,), GEXP, lambda ctx, h: gSorted(ctx.W, h)),
    "steinberg": ((WORD,), CHAR, lambda ctx, word: Character.monomial(
        ctx.W.steinbergWeight(reduce(ctx.W.rmul, word, 0)))),
    "xclass": ((WORD,), CHAR, lambda ctx, word: _kt.xClass(
        ctx.W, reduce(ctx.W.rmul, word, 0), ctx.order)),
}


def asciiInt(text: str) -> int | None:
    """The value of a nonempty string of ASCII digits; None for any other
    string, and for one longer than int() converts."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:   # more digits than sys.get_int_max_str_digits()
        return None


CLIP_CHARS = 40


def clip(token: str, limit: int = CLIP_CHARS) -> str:
    """A token for a usage error: the whole of it up to `limit` characters,
    else its first `limit` and a marker with its length, so a huge rejected
    input does not flood the message."""
    if len(token) <= limit:
        return token
    return f"{token[:limit]}... ({len(token)} characters)"


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            toks.append(_Tok("INT", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        kinds = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
                 ",": "COMMA", "+": "PLUS", "-": "MINUS", "*": "STAR"}
        kind = kinds.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
        toks.append(_Tok(kind, ch, line, start_col))
        i += 1
        col += 1
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {clip(t.text or 'end of input')!r}",
                             t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # expr := term (('+'|'-') term)*
    def expr(self):
        node, kind = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next()
            right, rkind = self.term()
            if kind != CHAR or rkind != CHAR:
                raise ParseError("arithmetic needs character operands", op.line, op.col)
            node = ("add" if op.kind == "PLUS" else "sub", node, right)
        return node, kind

    # term := factor ('*' factor)*
    def term(self):
        node, kind = self.factor()
        while self.peek().kind == "STAR":
            op = self.next()
            right, rkind = self.factor()
            if kind != CHAR or rkind != CHAR:
                raise ParseError("arithmetic needs character operands", op.line, op.col)
            node = ("mul", node, right)
        return node, kind

    # factor := func | '(' expr ')' | '-' factor
    def factor(self):
        t = self.peek()
        if t.kind == "MINUS":
            self.next()
            node, kind = self.factor()
            if kind != CHAR:
                raise ParseError("negation needs a character operand", t.line, t.col)
            return ("neg", node), CHAR
        if t.kind == "LPAREN":
            self.next()
            node, kind = self.expr()
            self.expect("RPAREN", "')'")
            return node, kind
        if t.kind == "IDENT":
            return self.call()
        self.fail(f"expected an expression, found {clip(t.text or 'end of input')!r}")

    def call(self):
        name_tok = self.expect("IDENT", "a function name")
        sig = FUNCS.get(name_tok.text)
        if sig is None:
            raise ParseError(f"unknown function {clip(name_tok.text)!r}",
                             name_tok.line, name_tok.col)
        argkinds, result, _ = sig
        self.expect("LPAREN", "'('")
        args = []
        for k, want in enumerate(argkinds):
            if k > 0:
                self.expect("COMMA", "','")
            if want == WEIGHT:
                args.append(self.weightLit())
            elif want == WORD:
                args.append(self.wordLit())
            else:
                node, kind = self.expr()
                if kind != CHAR:
                    t = self.peek()
                    raise ParseError(
                        f"argument {k + 1} of {name_tok.text} must be a character",
                        t.line, t.col)
                args.append(node)
        self.expect("RPAREN", "')'")
        return (name_tok.text, *args), result

    def weightLit(self):
        self.expect("LBRACK", "'['")
        coords = [self.signedInt()]
        while self.peek().kind == "COMMA":
            self.next()
            coords.append(self.signedInt())
        self.expect("RBRACK", "']'")
        return ("weight", tuple(coords))

    def signedInt(self) -> int:
        sign = 1
        if self.peek().kind == "MINUS":
            self.next()
            sign = -1
        t = self.expect("INT", "an integer")
        k = asciiInt(t.text)
        if k is None:
            raise ParseError(f"integer of {len(t.text)} digits is too long", t.line, t.col)
        return sign * k

    def wordLit(self):
        t = self.peek()
        if t.kind != "IDENT":
            self.fail("expected a Weyl word ('e' or 's1 s2 ...')")
        if t.text == "e":
            self.next()
            return ("word", ())
        letters = []
        while self.peek().kind == "IDENT":
            tok = self.next()
            k = asciiInt(tok.text[1:]) if tok.text[0] == "s" else None
            if k is None:
                raise ParseError(f"bad word letter {clip(tok.text)!r}", tok.line, tok.col)
            if k < 1:
                raise ParseError("word letters are numbered from s1", tok.line, tok.col)
            letters.append(k - 1)
        if not letters:
            self.fail("expected a Weyl word ('e' or 's1 s2 ...')")
        return ("word", tuple(letters))


def parse(src: str):
    p = _Parser(src)
    node, kind = p.expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {clip(t.text)!r}", t.line, t.col)
    return node


def printExpr(node) -> str:
    kind = node[0]
    if kind == "weight":
        return "[" + ",".join(str(x) for x in node[1]) + "]"
    if kind == "word":
        return "e" if not node[1] else " ".join(f"s{i + 1}" for i in node[1])
    if kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        right = printExpr(node[2])
        if node[2][0] in ("add", "sub"):
            right = f"({right})"
        return printExpr(node[1]) + op + right
    if kind == "mul":
        parts = []
        for child in node[1:]:
            s = printExpr(child)
            if child[0] in ("add", "sub"):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if kind == "neg":
        s = printExpr(node[1])
        if node[1][0] in ("add", "sub", "mul"):
            s = f"({s})"
        return "-" + s
    return f"{kind}(" + ", ".join(printExpr(a) for a in node[1:]) + ")"


@dataclass
class EvalContext:
    W: WeylGroup
    piP: tuple[int, ...] = ()
    order: list[int] | None = None


def _weight(ctx: EvalContext, node) -> tuple[int, ...]:
    coords = node[1]
    if len(coords) != ctx.W.sys.rank:
        raise ValueError(
            f"weight {clip(str(list(coords)))} has {len(coords)} coordinates; "
            f"{ctx.W.sys.name} needs {ctx.W.sys.rank}")
    return coords


def _word(ctx: EvalContext, node) -> tuple[int, ...]:
    for i in node[1]:
        if not 0 <= i < ctx.W.sys.rank:
            raise ValueError(
                f"word letter {clip(f's{i + 1}')} out of range for {ctx.W.sys.name}")
    return node[1]


# Nodes of an expression that is in R(G) by construction: these leaves,
# combined by these operations.
_G_LEAVES = frozenset(("chi", "euler", "pair"))
_G_OPS = frozenset(("add", "sub", "mul", "neg", "dualOf"))


def _inRG(node) -> bool:
    if node[0] in _G_OPS:
        return all(map(_inRG, node[1:]))
    return node[0] in _G_LEAVES


def _evalG(node, ctx: EvalContext) -> GClassExpansion:
    """The value of an _inRG expression as dominant multiplicities: chi(lam)
    is {lam: 1}, euler and pair are read off the alternant of their
    character, products are gAddMul and duals gDual."""
    kind, W = node[0], ctx.W
    if kind == "chi":
        return {_dz.highestWeight(_weight(ctx, node[1])): 1}
    if kind == "euler":
        return alternantCoeffs(W, evalExpr(node[1], ctx))
    if kind == "pair":   # the Euler characteristic of the product
        return alternantCoeffs(W, evalExpr(node[1], ctx) * evalExpr(node[2], ctx))
    a = _evalG(node[1], ctx)
    if kind == "dualOf":
        return gDual(W, a)
    if kind == "neg":
        return {lam: -m for lam, m in a.items()}
    b = _evalG(node[2], ctx)
    acc: GClassExpansion = {}
    if kind == "mul":
        gAddMul(W, acc, a, b)
    else:
        addMul(acc, a, 1)
        addMul(acc, b, 1 if kind == "add" else -1)
    return acc


def _gClass(ctx: EvalContext, node) -> GClassExpansion:
    """decomposeG's argument in R(G) coordinates: by _evalG when it is in
    R(G) by construction, else evaluated as a character and decomposed (a
    product like e([1,0])*e([-1,0]) is invariant only as a whole)."""
    if _inRG(node):
        return _evalG(node, ctx)
    return decomposeWeylBasis(ctx.W, evalExpr(node, ctx))


_RESOLVE = {
    WEIGHT: _weight,
    WORD: _word,
    CHAR: lambda ctx, node: evalExpr(node, ctx),
    RG: _gClass,
}


def evalExpr(node, ctx: EvalContext):
    kind = node[0]
    if kind == "add":
        return evalExpr(node[1], ctx) + evalExpr(node[2], ctx)
    if kind == "sub":
        return evalExpr(node[1], ctx) - evalExpr(node[2], ctx)
    if kind == "mul":
        return evalExpr(node[1], ctx) * evalExpr(node[2], ctx)
    if kind == "neg":
        return -evalExpr(node[1], ctx)
    entry = FUNCS.get(kind)
    if entry is None:
        raise ValueError(f"cannot evaluate node kind {kind!r}")
    argkinds, _, fn = entry
    return fn(ctx, *[_RESOLVE[k](ctx, a) for k, a in zip(argkinds, node[1:])])
