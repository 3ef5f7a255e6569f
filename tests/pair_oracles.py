"""Reference implementations of the all-pairs metrics, for the oracles.

The package decides its metric claims by certificates over edges; these
routines compare every pair instead, in vectorized blocks: binary lifting
over a parent array, the realized distance of whole pair arrays read off
the anchor tree, and the pair blocks both loops walk.
"""

import numpy as np

from treesubst.algnum import ExactLength, _int64
from treesubst.words import distinct


class Lifting:
    """Binary lifting over a parent array whose roots are their own parents
    (M. A. Bender and M. Farach-Colton, "The LCA problem revisited", 2000):
    `jumps[k][v]` is the 2^k-th ancestor of v, or its root past that, up to
    the level that maps every vertex to its root."""

    def __init__(self, parent: np.ndarray):
        self.jumps = [parent]
        while (parent[self.jumps[-1]] != self.jumps[-1]).any():
            self.jumps.append(self.jumps[-1][self.jumps[-1]])
        self.depth = self.sums((parent != np.arange(len(parent))).astype(np.int64))

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """Per vertex, the sum of `rows` (zero at the roots) over it and its
        ancestors, by pointer doubling: after level k a row holds 2^(k+1)."""
        for up in self.jumps:
            rows = rows + rows[up]
        return rows

    def meet(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair by pair, the lowest common ancestor m of x and y, and x and y
        lifted to the two children of m toward them; both ends are m where
        x or y is m."""
        parent, depth = self.jumps[0], self.depth
        swap = depth[x] < depth[y]
        x, y = np.where(swap, y, x), np.where(swap, x, y)   # x no shallower than y
        steps = depth[x] - depth[y]
        for k, up in enumerate(self.jumps):   # x level with y
            x = np.where(steps >> k & 1, up[x], x)
        at = np.flatnonzero(x != y)   # these rise to just below m
        a, b = x[at], y[at]
        for up in reversed(self.jumps):
            ua, ub = up[a], up[b]
            a, b = np.where(ua != ub, ua, a), np.where(ua != ub, ub, b)
        x[at], y[at] = a, b
        return np.where(x == y, x, parent[x]), np.where(swap, y, x), np.where(swap, x, y)


def pair_blocks(count: int):
    """Index pairs i < j of range(count) in row order, as two arrays per
    block of whole rows, about 2^14 pairs (at least one row)."""
    start = 0
    while start < count - 1:
        rows = np.arange(start, min(count - 1, start + max(1, (1 << 14) // (count - 1 - start))))
        i, j = np.nonzero(np.arange(count) > rows[:, None])
        yield rows[i], j
        start = int(rows[-1]) + 1


class AnchorMetric:
    """Int64 coefficient rows of d(p_x, p_y) for whole pair arrays, read
    off a realization's rows as they stand when it is built.

    The free product of lines is an R-tree: d = |P_x| + |P_y| - 2(x|y).
    The two syllable words share the anchor path to m, where x and y meet,
    and the shorter of the next two syllables if those run along one copy
    with one sign: (x|y) is the norm of m or of that child.  Two children
    sharing a row (anchor, copy, coef) would sit at one point: ValueError.
    """

    def __init__(self, real):
        self.copy = real.copy
        self.lift = Lifting(np.where(real.anchor >= 0, real.anchor, np.arange(len(real.anchor))))
        self.sign = real._signs(real.coef)
        # a distance sums four norms (x, y, twice the meeting one), each at
        # most one |syllable| per vertex
        size = _int64(real.coef * self.sign[:, None], 4 * len(self.sign))
        values, _, which = distinct(size)
        lengths = [ExactLength(real.d, tuple(r)) for r in values.tolist()]
        self.rank = np.argsort(sorted(range(len(lengths)), key=lengths.__getitem__))[which]
        self.norm = self.lift.sums(size)

    def __call__(self, xs, ys) -> np.ndarray:
        sign, rank, norm = self.sign, self.rank, self.norm
        m, x, y = self.lift.meet(xs, ys)
        along = (x != y) & (self.copy[x] == self.copy[y]) & (sign[x] == sign[y])
        if (along & (rank[x] == rank[y])).any():
            raise ValueError("two vertices share a row (anchor, copy, coef), so one point")
        return norm[xs] + norm[ys] - 2 * norm[np.where(along, np.where(rank[x] < rank[y], x, y), m)]
