"""A tiny expression language for characters.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := func | '(' expr ')' | '-' factor
    func   := IDENT '(' args ')'

Two tables hold the grammar.  One regular expression (_TOKEN) reads every
token kind; identifiers start with a letter or '_', integers are ASCII
digits, and any whitespace separates tokens.  One infix table (_INFIX)
gives each operator its token, printed symbol and binding level: expr and
term are one parser rule over it, and printExpr parenthesises from it, so
parse(printExpr(node)) == node.

Weights are bracketed integer lists like [1,-1]; Weyl words are written
's1 s2 s1' (or 'e' for the identity) in the argument slots that expect a
word.  Argument counts and kinds are checked while parsing, so an
ill-formed call never reaches evaluation; so is the nesting depth
(MAX_DEPTH).

The argument of decomposeG is evaluated in R(G) coordinates (dominant
multiplicities) when it is built from chi, euler and pair by + - * and
dualOf: such a value is in R(G) by construction, and a product of
irreducibles is decomposed by Brauer-Klimyk without being formed.  Any
other argument is evaluated as a character and then decomposed.

>>> printExpr(parse("pair(P([-1,-1]), Q([0,0]))"))
'pair(P([-1,-1]), Q([0,0]))'
>>> printExpr(parse("(e([1,0])*e([0,1]))*(e([1,1])*e([0,0]))"))
'e([1,0])*e([0,1])*(e([1,1])*e([0,0]))'
"""
from __future__ import annotations

import re
from collections import namedtuple
from functools import reduce

from . import demazure as _dz
from . import ktheory as _kt
from .characters import (
    Character,
    GClassExpansion,
    addMul,
    alternantCoeffs,
    clip,
    decomposeWeylBasis,
    dual,
    gDual,
    gSorted,
)

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
    "Qhat": ((WEIGHT,), CHAR, lambda ctx, lam: _dz.charQhat(ctx.W, lam, _qhatPiP(ctx))),
    "dualOf": ((CHAR,), CHAR, lambda ctx, f: dual(f)),
    # demWord, not demElt: D on a non-reduced word is not D of its product
    "D": ((WORD, CHAR), CHAR, lambda ctx, word, f: _dz.demWord(ctx.W, word, f)),
    "pair": ((CHAR, CHAR), CHAR, lambda ctx, f, g: _kt.eulerPair(ctx.W, f, g)),
    "euler": ((CHAR,), CHAR, lambda ctx, f: _dz.eulerChar(ctx.W, f)),
    "decomposeG": ((RG,), GEXP, lambda ctx, h: gSorted(ctx.W, h)),
    "steinberg": ((WORD,), CHAR, lambda ctx, word: Character.monomial(
        ctx.W.steinbergWeight(reduce(ctx.W.rmul, word, 0)))),
    # with a nonempty piP, the G/P class: a word that is not a minimal coset
    # representative is refused
    "xclass": ((WORD,), CHAR, lambda ctx, word: _kt.xClass(
        ctx.W, reduce(ctx.W.rmul, word, 0), ctx.order, ctx.piP)),
}


def _qhatPiP(ctx) -> tuple[int, ...]:
    """ctx.piP, refused when empty: Qhat over the Borel would be Q itself."""
    if not ctx.piP:
        raise ValueError("Qhat needs --parabolic with at least one index")
    return ctx.piP


def asciiInt(text: str) -> int | None:
    """The value of a nonempty string of ASCII digits; None for any other
    string, and for one longer than int() converts."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:   # more digits than sys.get_int_max_str_digits()
        return None


# node kind -> (token kind, printed symbol, binding level): a higher level
# binds tighter, and every infix operator is left-associative.  The parser
# (_Parser.binary) and printExpr both read precedence from here alone.
_INFIX = {
    "add": ("PLUS", " + ", 1),
    "sub": ("MINUS", " - ", 1),
    "mul": ("STAR", "*", 2),
}
_INFIX_TOKENS = {tok: (kind, level) for kind, (tok, _, level) in _INFIX.items()}
_TIGHTEST = max(level for _, _, level in _INFIX.values())


# The deepest parse tree parse accepts: each call, operator, negation and
# parenthesised group is one level above its operands, a weight or word one
# level.  The parser, printExpr and evalExpr recurse a few frames a level, so
# this keeps them inside the default recursion limit, which is left as it is.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} at line {line}, column {col}")
        self.line = line
        self.col = col


_Tok = namedtuple("_Tok", "kind text line col")


# One named group per token kind, tried in this order: WS is a run of
# whitespace other than a newline (one column a character), BAD any other
# single character.  \w also matches a digit or numeral outside ASCII,
# which no identifier may start with.
_TOKEN = re.compile(r"""
    (?P<NL>\n) | (?P<WS>[^\S\n]+) | (?P<INT>[0-9]+) | (?P<IDENT>\w+)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<LBRACK>\[) | (?P<RBRACK>\])
  | (?P<COMMA>,) | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, start = 1, 0   # start: the index where the current line begins
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        col = m.start() - start + 1
        if kind == "NL":
            line, start = line + 1, m.end()
        elif kind == "BAD" or kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        elif kind != "WS":
            toks.append(_Tok(kind, text, line, col))
    toks.append(_Tok("EOF", "", line, len(src) - start + 1))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0
        self.open = 0   # groups the parser is inside: parentheses, negations, call arguments

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

    def capped(self, tok: _Tok, depth: int) -> int:
        """depth, refused at tok when it is more than MAX_DEPTH levels."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep",
                             tok.line, tok.col)
        return depth

    def nested(self, tok: _Tok, parse):
        """parse() inside one more group, opened at tok; a group more than
        MAX_DEPTH deep is refused before the parser descends into it."""
        self.open += 1
        self.capped(tok, self.open)
        got = parse()
        self.open -= 1
        return got

    # Each rule returns (node, kind, depth), depth counted as MAX_DEPTH says.

    # expr is binary(1) and term binary(2): factors joined by infix operators
    # of at least this binding level, left-associative (precedence climbing)
    def binary(self, level: int = 1):
        node, kind, depth = self.factor()
        while (infix := _INFIX_TOKENS.get(self.peek().kind)) and infix[1] >= level:
            op = self.next()
            right, rkind, rdepth = self.binary(infix[1] + 1)
            if kind != CHAR or rkind != CHAR:
                raise ParseError("arithmetic needs character operands", op.line, op.col)
            node = (infix[0], node, right)
            depth = self.capped(op, 1 + max(depth, rdepth))
        return node, kind, depth

    # factor := func | '(' expr ')' | '-' factor
    def factor(self):
        t = self.peek()
        if t.kind == "MINUS":
            self.next()
            node, kind, depth = self.nested(t, self.factor)
            if kind != CHAR:
                raise ParseError("negation needs a character operand", t.line, t.col)
            return ("neg", node), CHAR, self.capped(t, depth + 1)
        if t.kind == "LPAREN":
            self.next()
            node, kind, depth = self.nested(t, self.binary)
            self.expect("RPAREN", "')'")
            return node, kind, self.capped(t, depth + 1)
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
        args, depth = [], 1   # a weight or word literal is one level
        for k, want in enumerate(argkinds):
            if k > 0:
                self.expect("COMMA", "','")
            if want == WEIGHT:
                args.append(self.weightLit())
            elif want == WORD:
                args.append(self.wordLit())
            else:
                node, kind, argDepth = self.nested(name_tok, self.binary)
                if kind != CHAR:
                    t = self.peek()
                    raise ParseError(
                        f"argument {k + 1} of {name_tok.text} must be a character",
                        t.line, t.col)
                args.append(node)
                depth = max(depth, argDepth)
        self.expect("RPAREN", "')'")
        return (name_tok.text, *args), result, self.capped(name_tok, depth + 1)

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
    node, _, _ = p.binary()
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
    if kind in _INFIX:
        _, symbol, level = _INFIX[kind]
        return _operand(node[1], level) + symbol + _operand(node[2], level + 1)
    if kind == "neg":   # negation binds tighter than every infix operator
        return "-" + _operand(node[1], _TIGHTEST + 1)
    return f"{kind}(" + ", ".join(printExpr(a) for a in node[1:]) + ")"


def _operand(node, level: int) -> str:
    """printExpr(node), in parentheses when node is an infix operation that
    binds looser than level: the left operand of an operator is printed at
    its level and the right one a level tighter, so parse reads the tree
    back as it was."""
    text = printExpr(node)
    infix = _INFIX.get(node[0])
    return f"({text})" if infix and infix[2] < level else text


# W: WeylGroup, piP: tuple[int, ...], order: list[int] | None
EvalContext = namedtuple("EvalContext", "W piP order", defaults=((), None))


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
        _dz.gAddMul(W, acc, a, b)
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
