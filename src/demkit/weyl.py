"""Weyl group combinatorics: enumeration, words, Bruhat order, cosets.

Elements are dense integer ids.  The group acts on weight coordinate vectors
by simple reflections only, s_i lam = lam - lam_i alpha_i, and w acts by
folding them along its canonical word.  During enumeration an element w is
identified by the regular weight w^-1 rho (Stembridge, "Computational aspects
of root systems, Coxeter groups, and Weyl characters", 2001), whose key
under w s_i is s_i applied to it.  The canonical reduced word of an element
is the ShortLex-least one, which is what a FIFO breadth-first search with
ascending generator indices produces; ids follow that search, so they are in
(length, canonical word) order, which refines Bruhat order, and the longest
element is the last id.  A lower set in Bruhat order is a bitmask over ids.
The search finds w = u s_i with i a right descent of w, and the lifting
property (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.2.7) then
gives the elements w covers: u and each c s_i > c for c covered by u.  Each
is shorter than w, so already found, and [e, w] is w together with their
lower intervals.

The orbit of a weight is listed by id with one reflection per element:
dropping the first letter i of u's canonical word leaves the canonical word
of s_i u, an earlier id, and u lam = s_i (s_i u) lam.  The Steinberg
weights e_v = v^-1 theta_v of every id are summed from the orbits of the
fundamental weights on first use.  Here theta_v is the sum of the omega_i
over the left descents i of v (Steinberg, "On a theorem of Pittie", 1975),
dominant with 0/1 coordinates; theta reads it from the descents directly.
"""
from __future__ import annotations

from .rootsystem import (
    RootSystem,
    Weight,
    WEYL_SIZE_CAP,
    fundamental,
    negW,
    rho,
    rootSystem,
)


class WeylGroup:
    """The full Weyl group of a root system, enumerated eagerly.

    Immutable after construction.  Memo tables hang off the instance, so
    distinct groups never share state; only cached reads or builds them.  A
    key is a tuple headed by its family's name, a one-item key a whole table:

    ("stw",)            [e_v for each id v]              steinbergWeight
    ("dem", lam)        chi(lam)                         demazure.charNabla
    ("Q", lam)          the layer character of lam       demazure.charQ
    ("Qhat", lam, piP)  that layer pushed to piP         demazure.charQhat
    ("orbit", lam)      sorted [(u lam, mask of the u)]  demazure.charSections
    ("stxprod",)        {(lam, mu): chi(lam) chi(mu)}    demazure.gAddMul
    ("stx",)            {lam: UNIT vector of e^lam}      steinberg._unitVector
    ("stxrow",)         {(v, choice, piP or None): row}  steinberg._basisRow
    ("stxorder",)       {v: antipodal position}          steinberg._solve
    """

    def __init__(self, sys: RootSystem):
        self.sys = sys
        n = sys.rank
        # column i of the Cartan matrix: alpha_i in fundamental-weight coordinates
        self.cartanCols: tuple[tuple[int, ...], ...] = tuple(
            tuple(sys.cartan[k][i] for k in range(n)) for i in range(n)
        )
        # the positive roots from the simple ones: a positive root beta that is
        # not simple has <beta, alpha_i^vee> > 0 for some i, and s_i beta is
        # then a positive root of lower height that pairs negatively with alpha_i
        roots = list(self.cartanCols)
        for beta in roots:
            for i in range(n):
                if beta[i] < 0 and (r := self.reflect(beta, i)) not in roots:
                    roots.append(r)
        self.positiveRoots: tuple[Weight, ...] = tuple(roots)

        # keys[w] = w^-1 rho, and (w s_i)^-1 rho = s_i (w^-1 rho)
        keys: list[Weight] = [rho(sys)]
        words: list[tuple[int, ...]] = [()]
        length, covers, bits = [0], [()], [1]
        index: dict[Weight, int] = {keys[0]: 0}
        rmul: list[list[int]] = []
        head = 0
        while head < len(keys):
            key = keys[head]
            row = []
            for i in range(n):
                prod = self.reflect(key, i)
                j = index.get(prod)
                if j is None:
                    j = len(keys)
                    if j >= WEYL_SIZE_CAP + 1:
                        raise ValueError("Weyl group larger than the supported cap")
                    index[prod] = j
                    keys.append(prod)
                    words.append(words[head] + (i,))
                    length.append(length[head] + 1)
                    # every c here is shorter than head, so its row of rmul is built
                    cov = [head, *[d for c in covers[head]
                                   if length[d := rmul[c][i]] > length[c]]]
                    covers.append(tuple(sorted(cov)))
                    b = 1 << j
                    for c in cov:
                        b |= bits[c]
                    bits.append(b)
                row.append(j)
            rmul.append(row)
            head += 1

        self.size = len(keys)
        self.words = words
        self.length = length
        self.bruhatBits = bits
        self.coversOf = covers
        self.rmulTable = rmul
        # inverse by reversing the canonical word
        inv = []
        for w in range(self.size):
            x = 0
            for i in reversed(words[w]):
                x = rmul[x][i]
            inv.append(x)
        self.inv = inv
        # s_i w = (w^-1 s_i)^-1
        self.lmulTable = [[inv[j] for j in rmul[inv[w]]] for w in range(self.size)]
        self.w0 = self.size - 1
        # -w0 omega_i = omega_sigma(i), sigma an involution (w0 squares to e)
        self.sigma = tuple(negW(self.act(self.w0, fundamental(sys, i))).index(1)
                           for i in range(n))

        self.memo: dict = {}   # shared scratch for the character layers

    # -- memo ------------------------------------------------------------------

    def cached(self, key: tuple, build, *args):
        """The memo entry under key, on a miss built by build(*args) and
        stored; None counts as missing, and a build that raises stores nothing."""
        r = self.memo.get(key)
        if r is None:
            r = self.memo[key] = build(*args)
        return r

    def memoSizes(self) -> dict[str, int]:
        """Entries per memo family, families in name order."""
        sizes: dict[str, int] = {}
        for key, val in self.memo.items():
            fam = key[0]
            sizes[fam] = sizes.get(fam, 0) + (len(val) if len(key) == 1 else 1)
        return dict(sorted(sizes.items()))

    def clearMemo(self) -> None:
        """Drop every memoised character and table; later calls rebuild them."""
        self.memo.clear()

    # -- queries ---------------------------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    def canonicalWord(self, w: int) -> tuple[int, ...]:
        return self.words[w]

    def bruhatLeq(self, u: int, w: int) -> bool:
        return bool(self.bruhatBits[w] >> u & 1)

    def covers(self, w: int) -> tuple[int, ...]:
        """Elements covered by w: below it with length exactly one less."""
        return self.coversOf[w]

    def reflect(self, lam: Weight, i: int) -> Weight:
        """s_i lam = lam - <lam, alpha_i^vee> alpha_i."""
        k = lam[i]
        if not k:
            return lam
        return tuple([x - k * a for x, a in zip(lam, self.cartanCols[i])])

    def act(self, w: int, lam: Weight) -> Weight:
        """w lam, reflecting by the letters of w's canonical word, rightmost first."""
        for i in reversed(self.words[w]):
            lam = self.reflect(lam, i)
        return lam

    def negW0(self, lam: Weight) -> Weight:
        """-w0 lam: lam with its coordinates permuted by sigma."""
        return tuple([lam[i] for i in self.sigma])

    def rmul(self, w: int, i: int) -> int:
        return self.rmulTable[w][i]

    def inverse(self, w: int) -> int:
        return self.inv[w]

    def mul(self, v: int, w: int) -> int:
        x = v
        for i in self.words[w]:
            x = self.rmulTable[x][i]
        return x

    def rightDescents(self, w: int) -> list[int]:
        return [
            i for i in range(self.sys.rank)
            if self.length[self.rmulTable[w][i]] < self.length[w]
        ]

    def leftDescents(self, w: int) -> list[int]:
        return [
            i for i in range(self.sys.rank)
            if self.length[self.lmulTable[w][i]] < self.length[w]
        ]

    def demazureProduct(self, v: int, w: int) -> int:
        """Monoid product: fold w's word into v, keeping the longer element."""
        x = v
        for i in self.words[w]:
            y = self.rmulTable[x][i]
            if self.length[y] > self.length[x]:
                x = y
        return x

    def toDominant(self, lam: Weight) -> tuple[Weight, int]:
        """Dominant representative and the minimal w with lam = w(lam_plus)."""
        cols = self.cartanCols
        rmul = self.rmulTable
        n = len(cols)
        cur = list(lam)
        w = 0
        i = 0
        # reflect by the first negative coordinate, then rescan from the start
        while i < n:
            c = cur[i]
            if c < 0:
                col = cols[i]
                for k in range(n):
                    cur[k] -= c * col[k]
                w = rmul[w][i]
                i = 0
            else:
                i += 1
        return tuple(cur), w

    def orbit(self, lam: Weight) -> list[Weight]:
        """u lam for every id u, one reflection each: u = s_i u' with i the
        first letter of u's canonical word, and u' = s_i u has a smaller id."""
        out = [lam]
        lm, words, reflect = self.lmulTable, self.words, self.reflect
        for u in range(1, self.size):
            i = words[u][0]
            out.append(reflect(out[lm[u][i]], i))
        return out

    def theta(self, v: int) -> Weight:
        """theta_v = v e_v, the sum of the omega_i over the left descents i of
        v: coordinate i is 1 when s_i v is shorter than v, else 0."""
        lv, length = self.length[v], self.length
        return tuple([int(length[u] < lv) for u in self.lmulTable[v]])

    def steinbergWeight(self, v: int) -> Weight:
        """e_v = v^-1 theta_v (theta), read from the ("stw",) table (module
        docstring)."""
        return self.cached(("stw",), self._steinbergWeights)[v]

    def _steinbergWeights(self) -> list[Weight]:
        n, inv = self.sys.rank, self.inv
        orbits = [self.orbit(fundamental(self.sys, i)) for i in range(n)]
        return [tuple(map(sum, zip((0,) * n, *[orbits[i][inv[u]] for i in self.leftDescents(u)])))
                for u in range(self.size)]

    def parabolicData(self, piP: tuple[int, ...]) -> tuple[list[int], list[int], int]:
        """Subgroup elements and minimal coset representatives, both in id
        order, and the longest subgroup element (the largest id).  w lies in
        W_P exactly when its reduced words use only letters of P."""
        piP = set(piP)
        sub = [w for w in self.elements() if piP.issuperset(self.words[w])]
        minimal = [
            w for w in self.elements()
            if all(self.length[self.rmulTable[w][i]] > self.length[w] for i in piP)
        ]
        return sub, minimal, sub[-1]

    def reducedWords(self, w: int) -> list[tuple[int, ...]]:
        """Every reduced word of w (exponential; meant for small groups/tests)."""
        if w == 0:
            return [()]
        out = []
        for i in self.rightDescents(w):
            for sub in self.reducedWords(self.rmulTable[w][i]):
                out.append(sub + (i,))
        return out

    def randomReducedWord(self, w: int, rng) -> tuple[int, ...]:
        word: list[int] = []
        while w != 0:
            i = rng.choice(self.rightDescents(w))
            word.append(i)
            w = self.rmulTable[w][i]
        word.reverse()
        return tuple(word)


_groups: dict[str, WeylGroup] = {}


def weylGroup(name: str) -> WeylGroup:
    """Shared per-type instance; enumeration and memo caches are reused."""
    g = _groups.get(name)
    if g is None:
        g = _groups[name] = WeylGroup(rootSystem(name))
    return g
