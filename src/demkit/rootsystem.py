"""Root system data for the simple types of rank at most 4.

Weights are tuples of integers: the coordinates of a weight on the basis of
fundamental weights.  Column j of the Cartan matrix is then the coordinate
vector of the simple root alpha_j, and the pairing of a weight with the simple
coroot alpha_i^vee is just coordinate i.  All length computations go through
the gram matrix of the fundamental weights, stored as integers scaled by the
lcm of its denominators (likewise the inverse Cartan matrix); no floats
anywhere.  Lengths, heights and the dominance order are read off those
scaled integers; rationals appear only while the scaled matrices are built.

>>> sys = rootSystem("A2")
>>> sys.cartan[0]
(2, -1)
>>> norm2Scaled(sys, (1, 1)), sys.gramScale
(6, 3)
>>> dominanceLeq(sys, (0, 0), (1, 1)), dominanceLeq(sys, (0, 0), (1, 0))
(True, False)
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from operator import mul

Weight = tuple[int, ...]

# caps the Weyl group size accepted by the toolkit (largest supported type F4)
WEYL_SIZE_CAP = 1152


def _path(n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _cartan_and_d(name: str) -> tuple[list[list[int]], tuple[int, ...]]:
    fam, rank = name[0], int(name[1:])
    if fam == "A" and 1 <= rank <= 4:
        return _path(rank), (1,) * rank
    if fam == "B" and 2 <= rank <= 4:
        # short simple root placed first, matching the rank-2 convention
        c = _path(rank)
        c[0][1] = -2
        return c, (1,) + (2,) * (rank - 1)
    if fam == "C" and 2 <= rank <= 4:
        c = _path(rank)
        c[1][0] = -2
        return c, (2,) + (1,) * (rank - 1)
    if fam == "D" and rank == 4:
        c = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
        for i, j in ((0, 1), (1, 2), (1, 3)):
            c[i][j] = -1
            c[j][i] = -1
        return c, (1, 1, 1, 1)
    if fam == "G" and rank == 2:
        return [[2, -3], [-1, 2]], (1, 3)
    if fam == "F" and rank == 4:
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]], (2, 2, 1, 1)
    raise ValueError(f"unsupported type {name!r}")


def _inverse(mat: list[list[Q]]) -> list[list[Q]]:
    # Gauss-Jordan over exact rationals; fine at rank <= 4
    n = len(mat)
    a = [row[:] + [Q(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = Q(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _scaled(mat: list[list[Q]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(s * mat, s) with s the lcm of the denominators, so s * mat is integral."""
    s = lcm(*(x.denominator for row in mat for x in row))
    return tuple(tuple(int(x * s) for x in row) for row in mat), s


@dataclass(frozen=True)
class RootSystem:
    name: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]      # cartan[i][j] = <alpha_j, alpha_i^vee>
    d: tuple[int, ...]                       # d[i] = (alpha_i, alpha_i)/2, short roots have d=1
    gramInt: tuple[tuple[int, ...], ...]     # gramScale * (omega_i, omega_j)
    gramScale: int
    cartanInvInt: tuple[tuple[int, ...], ...]  # cartanInvScale * simple-root coordinates
    cartanInvScale: int


def rootSystem(name: str) -> RootSystem:
    cart, d = _cartan_and_d(name)
    n = len(cart)
    cinv = _inverse([[Q(x) for x in row] for row in cart])
    gram, gs = _scaled([[d[i] * cinv[i][j] for j in range(n)] for i in range(n)])
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        raise AssertionError(f"symmetrizer mismatch for {name}")
    cinvInt, cs = _scaled(cinv)
    return RootSystem(
        name=name,
        rank=n,
        cartan=tuple(tuple(row) for row in cart),
        d=d,
        gramInt=gram,
        gramScale=gs,
        cartanInvInt=cinvInt,
        cartanInvScale=cs,
    )


def rho(sys: RootSystem) -> Weight:
    return (1,) * sys.rank


def zero(sys: RootSystem) -> Weight:
    return (0,) * sys.rank


def fundamental(sys: RootSystem, i: int) -> Weight:
    return tuple(1 if k == i else 0 for k in range(sys.rank))


def subW(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def negW(a: Weight) -> Weight:
    return tuple(-x for x in a)


def isDominant(lam: Weight) -> bool:
    return all(x >= 0 for x in lam)


def innerProductScaled(sys: RootSystem, lam: Weight, mu: Weight) -> int:
    """sys.gramScale * (lam, mu): an exact integer with the same order."""
    return sum(map(mul, lam, [sum(map(mul, row, mu)) for row in sys.gramInt]))


def norm2Scaled(sys: RootSystem, lam: Weight) -> int:
    return innerProductScaled(sys, lam, lam)


def norm2(sys: RootSystem, lam: Weight) -> Q:
    # kept as a name the benchmark's layer tracer wraps; the package uses norm2Scaled
    return Q(norm2Scaled(sys, lam), sys.gramScale)


def _rootCoordsScaled(sys: RootSystem, lam: Weight) -> list[int]:
    cinv = sys.cartanInvInt
    n = sys.rank
    return [sum(cinv[i][j] * lam[j] for j in range(n)) for i in range(n)]


def heightScaled(sys: RootSystem, lam: Weight) -> int:
    """sys.cartanInvScale * height(lam): an exact integer with the same order."""
    return sum(_rootCoordsScaled(sys, lam))


def dominanceLeq(sys: RootSystem, lam: Weight, mu: Weight) -> bool:
    """lam <= mu iff mu - lam is a nonnegative integer combination of simple roots."""
    s = sys.cartanInvScale
    return all(c >= 0 and c % s == 0 for c in _rootCoordsScaled(sys, subW(mu, lam)))
