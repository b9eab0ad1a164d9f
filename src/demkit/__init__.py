"""Exact-arithmetic characters for split semisimple groups of small rank.

The package computes formal characters over the weight lattice with plain
integer coefficients: Demazure operators, section characters of Schubert
varieties and their boundary-twisted variants, decompositions over the
Steinberg basis of the representation ring, and the Euler-pairing matrices
that make a family of exceptional classes triangular.  Everything is exact;
no floats appear anywhere.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .rootsystem import (
    RootSystem,
    Weight,
    dominanceLeq,
    fundamental,
    isDominant,
    rootSystem,
    rho,
)
from .weyl import WeylGroup, weylGroup
from .characters import (
    Character,
    augment,
    compact,
    decomposeWeylBasis,
    dual,
    pretty,
)
from .demazure import (
    charNabla,
    charP,
    charQ,
    charQhat,
    charQviaTwist,
    charSections,
    demElt,
    demStep,
    demWord,
    eulerChar,
    expandGClass,
)
from .steinberg import (
    PSTAR,
    Q,
    QHAT,
    UNIT,
    basisCharacter,
    excellentLeq,
    isSteinbergWeight,
    steinbergDecompose,
    steinbergDecomposeChar,
    uniformChoices,
)
from .ktheory import (
    alphaEntry,
    betaEntry,
    eulerPair,
    gramCheck,
    indPQMatrix,
    orthogonalityCheck,
    parabolicChecks,
    xClass,
)
from .exprlang import EvalContext, ParseError, evalExpr, parse, printExpr

__all__ = [
    "__version__",
    "RootSystem", "Weight", "dominanceLeq", "fundamental", "isDominant",
    "rootSystem", "rho",
    "WeylGroup", "weylGroup",
    "Character", "augment", "compact", "decomposeWeylBasis", "dual",
    "expandGClass", "pretty",
    "charNabla", "charP", "charQ", "charQhat", "charQviaTwist", "charSections",
    "demElt", "demStep", "demWord", "eulerChar",
    "PSTAR", "Q", "QHAT", "UNIT", "basisCharacter", "excellentLeq",
    "isSteinbergWeight", "steinbergDecompose", "steinbergDecomposeChar",
    "uniformChoices",
    "alphaEntry", "betaEntry", "eulerPair", "gramCheck", "indPQMatrix",
    "orthogonalityCheck", "parabolicChecks", "xClass",
    "EvalContext", "ParseError", "evalExpr", "parse", "printExpr",
]
