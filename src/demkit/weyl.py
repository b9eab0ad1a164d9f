"""Weyl group combinatorics: enumeration, words, Bruhat order, cosets.

Elements are dense integer ids.  The group acts on weight coordinate vectors
by simple reflections only, s_i lam = lam - lam_i alpha_i, and w acts by
folding them along its canonical word.  During enumeration an element w is
identified by the regular weight w^-1 rho (Stembridge, "Computational aspects
of root systems, Coxeter groups, and Weyl characters", 2001), whose key
under w s_i is s_i applied to it.  The canonical reduced word of an element
is the ShortLex-least one, which is what a FIFO breadth-first search with
ascending generator indices produces.
"""
from __future__ import annotations

from .rootsystem import (
    RootSystem,
    Weight,
    WEYL_SIZE_CAP,
    rho,
    rootSystem,
)


class WeylGroup:
    """The full Weyl group of a root system, enumerated eagerly.

    Immutable after construction; memo caches used by the character layers
    hang off instances so distinct groups never share state.
    """

    def __init__(self, sys: RootSystem):
        self.sys = sys
        n = sys.rank
        # column i of the Cartan matrix: alpha_i in fundamental-weight coordinates
        self.cartanCols: tuple[tuple[int, ...], ...] = tuple(
            tuple(sys.cartan[k][i] for k in range(n)) for i in range(n)
        )

        # keys[w] = w^-1 rho, and (w s_i)^-1 rho = s_i (w^-1 rho)
        keys: list[Weight] = [rho(sys)]
        words: list[tuple[int, ...]] = [()]
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
                row.append(j)
            rmul.append(row)
            head += 1

        self.size = len(keys)
        self.words = words
        self.length = [len(w) for w in words]
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
        self.w0 = max(range(self.size), key=lambda w: self.length[w])

        self._buildBruhat()
        self.coversOf = [
            tuple(
                u
                for u in range(self.size)
                if self.length[u] == self.length[w] - 1 and self.bruhatBits[w] >> u & 1
            )
            for w in range(self.size)
        ]
        self._order = sorted(range(self.size), key=lambda w: (self.length[w], words[w]))
        self._pos = {w: k for k, w in enumerate(self._order)}
        self.memo: dict = {}   # shared scratch for the character layers

    # -- construction helpers -------------------------------------------------

    def _buildBruhat(self) -> None:
        # u <= w iff, for a left descent s of w: su <= sw when su < u, else u <= sw
        size = self.size
        bits = [0] * size
        bits[0] = 1
        byLength = sorted(range(size), key=lambda w: self.length[w])
        for w in byLength:
            if w == 0:
                continue
            s = next(
                i for i in range(self.sys.rank)
                if self.length[self.lmulTable[w][i]] < self.length[w]
            )
            sw = self.lmulTable[w][s]
            lm = self.lmulTable
            row = 0
            base = bits[sw]
            for u in range(size):
                su = lm[u][s]
                if base >> (su if self.length[su] < self.length[u] else u) & 1:
                    row |= 1 << u
            bits[w] = row
        self.bruhatBits = bits

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

    def steinbergWeight(self, v: int) -> Weight:
        theta = [0] * self.sys.rank
        for i in self.leftDescents(v):
            theta[i] = 1
        return self.act(self.inv[v], tuple(theta))

    def parabolicData(self, piP: tuple[int, ...]) -> tuple[list[int], list[int], int]:
        """Subgroup elements, minimal coset representatives, longest subgroup element."""
        piP = tuple(sorted(set(piP)))
        sub = {0}
        queue = [0]
        while queue:
            w = queue.pop()
            for i in piP:
                x = self.rmulTable[w][i]
                if x not in sub:
                    sub.add(x)
                    queue.append(x)
        wp = sorted(sub, key=lambda w: (self.length[w], self.words[w]))
        minimal = [
            w for w in self.elements()
            if all(self.length[self.rmulTable[w][i]] > self.length[w] for i in piP)
        ]
        minimal.sort(key=lambda w: (self.length[w], self.words[w]))
        w0p = max(sub, key=lambda w: self.length[w])
        return wp, minimal, w0p

    def totalOrderBuild(self) -> list[int]:
        """Element ids sorted by (length, canonical word); refines Bruhat order."""
        return list(self._order)

    def orderPos(self, w: int) -> int:
        return self._pos[w]

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
        g = WeylGroup(rootSystem(name))
        _groups[name] = g
    return g
