"""Steinberg-basis machinery.

The weight lattice carries two orders beyond dominance: the excellent order
(norm first, then Bruhat position of the minimal orbit witness) and its
antipodal twin.  One distinguished weight per Weyl element (its Steinberg
weight) heads a basis of the Borel representation ring over the group one;
this module recognizes those weights and expands arbitrary characters over
mixed families of head-1 basis characters, with coefficients that are
honest invariant characters.
"""
from __future__ import annotations

import sys as _sys

from .characters import (
    Character,
    GClassExpansion,
    decomposeWeylBasis,
    dual,
)
from .demazure import charNabla, charP, charQ, charQhat
from .rootsystem import Weight, fundamental, negW, norm2Scaled, zero
from .weyl import WeylGroup

UNIT = "UNIT"
Q = "Q"
PSTAR = "PSTAR"
QHAT = "QHAT"

_CHOICES = (UNIT, Q, PSTAR, QHAT)


def excellentLeq(W: WeylGroup, lam: Weight, mu: Weight) -> bool:
    """Shorter weights come first; within one orbit, Bruhat position of the
    minimal witness decides."""
    if lam == mu:
        return True
    a = norm2Scaled(W.sys, lam)
    b = norm2Scaled(W.sys, mu)
    if a != b:
        return a < b
    dl, wl = W.toDominant(lam)
    dm, wm = W.toDominant(mu)
    return dl == dm and W.bruhatLeq(wl, wm)


def antipodalLeq(W: WeylGroup, lam: Weight, mu: Weight) -> bool:
    return excellentLeq(W, negW(lam), negW(mu))


def isSteinbergWeight(W: WeylGroup, lam: Weight) -> int | None:
    """The Weyl element v whose Steinberg weight is lam, if there is one."""
    dom, w = W.toDominant(lam)
    v = W.inverse(w)
    return v if W.steinbergWeight(v) == lam else None


def basisCharacter(
    W: WeylGroup, v: int, choice: str, piP: tuple[int, ...] | None = None
) -> Character:
    """One head-1 basis character at v.  Every non-head weight lies strictly
    below the head in the antipodal order, which is what drives the
    decomposition recursion."""
    ev = W.steinbergWeight(v)
    if choice == UNIT:
        return Character.monomial(ev)
    if choice == Q:
        return charQ(W, ev)
    if choice == PSTAR:
        return dual(charP(W, negW(ev)))
    if choice == QHAT:
        if piP is None:
            raise ValueError("QHAT basis characters need a parabolic subset")
        return charQhat(W, ev, piP)
    raise ValueError(f"unknown basis choice {choice!r}")


def _expandTable(
    W: WeylGroup, choices: dict[int, str], piP: tuple[int, ...] | None
) -> dict:
    fp = (tuple(choices[v] for v in W.elements()), piP)
    key = ("stx", fp)
    table = W.memo.get(key)
    if table is None:
        table = {}
        W.memo[key] = table
    return table


def _expand(
    W: WeylGroup,
    lam: Weight,
    choices: dict[int, str],
    piP: tuple[int, ...] | None,
    table: dict,
) -> dict[int, Character]:
    """e^lam as a combination of basis characters with invariant coefficients."""
    got = table.get(lam)
    if got is not None:
        return got
    out: dict[int, Character] = {}

    def take(v: int, c: Character) -> None:
        cur = out.get(v)
        cur = c if cur is None else cur + c
        if cur:
            out[v] = cur
        else:
            out.pop(v, None)

    v = isSteinbergWeight(W, lam)
    if v is not None:
        B = basisCharacter(W, v, choices[v], piP)
        if B.coeff(lam) != 1:
            raise AssertionError(f"basis character at {v} has head {B.coeff(lam)} at {lam}")
        take(v, Character.monomial(zero(W.sys)))
        for mu, c in sorted(B.terms.items()):
            if mu == lam:
                continue
            if not antipodalLeq(W, mu, lam):
                raise AssertionError(f"basis term {mu} not below its head {lam}")
            for u, coef in _expand(W, mu, choices, piP, table).items():
                take(u, coef * (-c))
    else:
        dom, w = W.toDominant(lam)
        n = W.sys.rank
        if all(x <= 1 for x in dom):
            rd = set(W.rightDescents(w))
            j = next(j for j in range(n) if dom[j] == 1 and j not in rd)
        else:
            j = next(j for j in range(n) if dom[j] > 1)
        omega = fundamental(W.sys, j)
        tau = tuple(dom[k] - omega[k] for k in range(n))
        wtau = W.act(w, tau)
        N = charNabla(W, omega) * Character.monomial(wtau)
        if N.coeff(lam) != 1:
            raise AssertionError(f"pivot coefficient at {lam} is {N.coeff(lam)}")
        if wtau == lam or not antipodalLeq(W, wtau, lam):
            raise AssertionError(f"pivot shift {wtau} not strictly below {lam}")
        chi = charNabla(W, omega)
        for u, coef in _expand(W, wtau, choices, piP, table).items():
            take(u, coef * chi)
        for mu, c in sorted(N.terms.items()):
            if mu == lam:
                continue
            if not antipodalLeq(W, mu, lam):
                raise AssertionError(f"pivot term {mu} not below {lam}")
            for u, coef in _expand(W, mu, choices, piP, table).items():
                take(u, coef * (-c))
    table[lam] = out
    return out


def steinbergDecomposeChar(
    W: WeylGroup,
    f: Character,
    choices: dict[int, str],
    piP: tuple[int, ...] | None = None,
) -> dict[int, Character]:
    """Expansion of f over the chosen basis, coefficients as invariant
    characters (not yet split into irreducibles)."""
    for v in W.elements():
        if choices.get(v) not in _CHOICES:
            raise ValueError(f"missing or bad basis choice for element {v}")
    table = _expandTable(W, choices, piP)
    total: dict[int, Character] = {}
    # the expansion recurses once per antipodal step; the caller's limit is
    # restored on the way out
    limit = _sys.getrecursionlimit()
    if limit < 50000:
        _sys.setrecursionlimit(50000)
    try:
        for lam, c in sorted(f.terms.items()):
            for v, coef in _expand(W, lam, choices, piP, table).items():
                cur = total.get(v)
                add = coef * c
                cur = add if cur is None else cur + add
                if cur:
                    total[v] = cur
                else:
                    total.pop(v, None)
    finally:
        _sys.setrecursionlimit(limit)
    return total


def steinbergDecompose(
    W: WeylGroup,
    f: Character,
    choices: dict[int, str],
    piP: tuple[int, ...] | None = None,
) -> dict[int, GClassExpansion]:
    """Full decomposition: each invariant coefficient split over irreducibles."""
    raw = steinbergDecomposeChar(W, f, choices, piP)
    return {v: decomposeWeylBasis(W, coef) for v, coef in sorted(raw.items())}


def uniformChoices(W: WeylGroup, choice: str) -> dict[int, str]:
    return {v: choice for v in W.elements()}
