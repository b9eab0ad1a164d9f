"""Steinberg-basis machinery.

The weight lattice carries two orders beyond dominance: the excellent order
(norm first, then Bruhat position of the minimal orbit witness) and its
antipodal twin.  One distinguished weight per Weyl element (its Steinberg
weight e_v) heads a basis of the Borel representation ring over the group
one (R. Steinberg, "On a theorem of Pittie", Topology 14, 1975); this module
recognizes those weights and expands arbitrary characters over mixed
families of head-1 basis characters, with coefficients that are honest
invariant characters.

The expansion has three parts, none of which depends on the choice map:

* the UNIT table, one per group in ``W.memo``: e^lam over the Steinberg
  exponentials e^{e_v}, cached by lam alone.  A Steinberg weight is its own
  leaf; any other weight is rewritten through the pivot chi(omega_j) e^{w tau},
  whose other terms lie strictly below it in the antipodal order, and an
  explicit worklist builds the entries bottom-up;
* basis rows, one per (v, choice, parabolic): the UNIT coordinates of the
  basis character at v minus its head, stored with the sign the solve adds
  them with.  Every row reaches only indices strictly below v in the
  antipodal order, so each mixed family is unitriangular;
* a per-call solve: sum the UNIT vectors of f's terms, then back-substitute
  through the rows over the |W| indices in one fixed linear extension of the
  antipodal order.

Coefficients accumulate in place in plain terms dicts; only the outputs are
built as Characters.
"""
from __future__ import annotations

from .characters import (
    Character,
    GClassExpansion,
    addMul,
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
    below the head in the antipodal order, which makes each mixed family
    unitriangular over the Steinberg exponentials."""
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


def _addVec(acc: dict, vec: dict, m) -> None:
    """acc += vec * m in place, on vectors {index: terms dict}."""
    for u, coef in vec.items():
        a = acc.get(u)
        if a is None:
            a = acc[u] = {}
        addMul(a, coef, m)
        if not a:
            del acc[u]


def _pivotPlan(W: WeylGroup, lam: Weight) -> list[tuple[Weight, object]]:
    """e^lam = chi(omega_j) e^{w tau} - (other terms of that product), as
    (weight, multiplier) pairs; every weight lies strictly below lam in the
    antipodal order."""
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
    chi = charNabla(W, omega)
    N = chi * Character.monomial(wtau)
    if N.coeff(lam) != 1:
        raise AssertionError(f"pivot coefficient at {lam} is {N.coeff(lam)}")
    if wtau == lam or not antipodalLeq(W, wtau, lam):
        raise AssertionError(f"pivot shift {wtau} not strictly below {lam}")
    plan: list[tuple[Weight, object]] = [(wtau, chi.terms)]
    for mu, c in sorted(N.terms.items()):
        if mu == lam:
            continue
        if not antipodalLeq(W, mu, lam):
            raise AssertionError(f"pivot term {mu} not below {lam}")
        plan.append((mu, -c))
    return plan


def _unitVector(W: WeylGroup, lam: Weight) -> dict:
    """e^lam over the Steinberg exponentials: {v: terms of the invariant
    coefficient of e^{e_v}}.  Cached by lam in the group's UNIT table and
    built bottom-up from a worklist; entries are shared, never mutated."""
    table = W.memo.get(("stx",))
    if table is None:
        table = W.memo[("stx",)] = {}
    got = table.get(lam)
    if got is not None:
        return got
    zeroW = zero(W.sys)
    plans: dict[Weight, list] = {}
    stack = [lam]
    while stack:
        mu = stack[-1]
        if mu in table:
            stack.pop()
            continue
        plan = plans.get(mu)
        if plan is None:
            v = isSteinbergWeight(W, mu)
            if v is not None:
                table[mu] = {v: {zeroW: 1}}
                stack.pop()
                continue
            plan = plans[mu] = _pivotPlan(W, mu)
        # a plan's weights lie strictly below mu, so this never cycles
        missing = [nu for nu, _ in plan if nu not in table]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        vec: dict = {}
        for nu, m in plan:
            _addVec(vec, table[nu], m)
        table[mu] = vec
        del plans[mu]
    return table[lam]


def _basisRow(
    W: WeylGroup, v: int, choice: str, piP: tuple[int, ...] | None
) -> dict:
    """UNIT coordinates of e^{e_v} minus the basis character at v: what the
    solve adds, times the coefficient at v, to the indices below v."""
    rows = W.memo.get(("stxrow",))
    if rows is None:
        rows = W.memo[("stxrow",)] = {}
    key = (v, choice, piP if choice == QHAT else None)
    row = rows.get(key)
    if row is None:
        ev = W.steinbergWeight(v)
        B = basisCharacter(W, v, choice, piP)
        if B.coeff(ev) != 1:
            raise AssertionError(f"basis character at {v} has head {B.coeff(ev)} at {ev}")
        row = {}
        for mu, c in sorted(B.terms.items()):
            if mu == ev:
                continue
            if not antipodalLeq(W, mu, ev):
                raise AssertionError(f"basis term {mu} not below its head {ev}")
            _addVec(row, _unitVector(W, mu), -c)
        rows[key] = row
    return row


def _antipodalOrder(W: WeylGroup) -> dict[int, int]:
    """Position of each element in one fixed linear extension of the antipodal
    order on Steinberg weights, highest first: descending norm of -e_v, then
    length of its orbit witness (Bruhat-below witnesses are shorter)."""
    pos = W.memo.get(("stxorder",))
    if pos is None:
        def key(v: int) -> tuple:
            lam = negW(W.steinbergWeight(v))
            return norm2Scaled(W.sys, lam), W.length[W.toDominant(lam)[1]], v

        order = sorted(W.elements(), key=key, reverse=True)
        pos = W.memo[("stxorder",)] = {v: k for k, v in enumerate(order)}
    return pos


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
    x: dict = {}
    for lam, c in f.terms.items():
        _addVec(x, _unitVector(W, lam), c)
    pos = _antipodalOrder(W)
    out: dict[int, Character] = {}
    for v, k in pos.items():
        y = x.pop(v, None)
        if y is None:
            continue
        out[v] = Character(y)
        row = _basisRow(W, v, choices[v], piP)
        for u in row:
            if pos[u] <= k:
                raise AssertionError(f"basis row at {v} reaches {u}, which is already solved")
        _addVec(x, row, y)
    if x:
        raise AssertionError(f"residual left at {sorted(x)} after the solve")
    return dict(sorted(out.items()))


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
