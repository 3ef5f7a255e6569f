"""Isometric realization of the stage trees in a free product of d lines.

A point of the free product is a reduced syllable word
x_0^(t_0) ... x_q^(t_q) with copies x_i in 0..d-1, adjacent copies
distinct and exponents nonzero; the distance to the origin is the sum of
the |t_i| and the metric is left invariant.  Exponents are ExactLength
values, so all of the geometry below is exact.

The stage-0 star is placed by

    x_0 -> origin,  x_1 -> 0^1,  x_j -> (j-1)^(rho^(d-j+1))  (2 <= j <= d)

and each later branch center goes on the segment between its color-1 and
color-d neighbors, at distance rho^-n from the color-1 one, with the
d-2 fresh leaves hanging off it.

So each point is an older point times one syllable, and the realization
is three columns by vertex id: `anchor`, the vertex whose point is this
one less its last syllable (-1 at the origin), that syllable's `copy`, and
`coef`, its exponent's int64 coefficient row.  The checks decide on the
rows alone (the lemma at `_between`); `points[v]` builds a point, and
`quotient` and `distance` on points serve single pair queries and witness
texts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from .algnum import ExactLength, _int64, edge_length_vector, trinomial_powers, trinomial_step
from .trees import TreeIteration, ancestor_sums
from .words import distinct

Syllable = tuple[int, ExactLength]


@dataclass(frozen=True)
class FreePoint:
    d: int
    syllables: tuple[Syllable, ...]

    @staticmethod
    def origin(d: int) -> "FreePoint":
        return FreePoint(d, ())

    @staticmethod
    def syllable(d: int, copy: int, t: ExactLength) -> "FreePoint":
        if not 0 <= copy < d:
            raise ValueError(f"copy {copy} outside 0..{d - 1}")
        if t.is_zero():
            return FreePoint(d, ())
        return FreePoint(d, ((copy, t),))

    def __mul__(self, other: "FreePoint") -> "FreePoint":
        """Concatenate and reduce: merge touching syllables of one copy."""
        if self.d != other.d:
            raise ValueError(f"points of d={self.d} and d={other.d} do not mix")
        a, b = self.syllables, other.syllables
        i, m = 0, min(len(a), len(b))
        while i < m and a[-1 - i][0] == b[i][0]:
            t = a[-1 - i][1] + b[i][1]
            if not t.is_zero():
                return FreePoint(self.d, a[: len(a) - 1 - i] + ((b[i][0], t),) + b[i + 1 :])
            i += 1
        return FreePoint(self.d, a[: len(a) - i] + b[i:])

    def norm(self) -> ExactLength:
        return sum((abs(t) for _, t in self.syllables), ExactLength.zero(self.d))


def quotient(p: FreePoint, q: FreePoint) -> tuple[Syllable, ...]:
    """Syllables of the reduced p^-1 q: the common prefix cancels unseen,
    and only the junction after it is reduced."""
    if p.d != q.d:
        raise ValueError(f"points of d={p.d} and d={q.d} do not mix")
    a, b = p.syllables, q.syllables
    i, m = 0, min(len(a), len(b))
    while i < m and a[i] == b[i]:
        i += 1
    if i == len(a):
        return b[i:]
    back = tuple((c, -t) for c, t in reversed(a[i + 1:]))
    if i < len(b) and a[i][0] == b[i][0]:
        return back + ((b[i][0], b[i][1] - a[i][1]),) + b[i + 1:]
    return back + ((a[i][0], -a[i][1]),) + b[i:]


def distance(p: FreePoint, q: FreePoint) -> ExactLength:
    return FreePoint(p.d, quotient(p, q)).norm()


# ---------------------------------------------------------------------------
# stage embedding


class _Points(Mapping):
    """Read-only view vertex -> FreePoint of a realization's rows: [v]
    climbs the anchors and multiplies the syllables out."""

    def __init__(self, real: "Realization"):
        self.real = real

    def __len__(self) -> int:
        return len(self.real.anchor)

    def __iter__(self):
        return iter(range(len(self)))

    def __getitem__(self, v: int) -> FreePoint:
        r, d, word = self.real, self.real.d, []
        if not 0 <= v < len(r.anchor):
            raise KeyError(v)
        while (up := r.anchor.item(v)) >= 0:
            t = ExactLength(d, tuple(r.coef[v].tolist()))
            word.append(FreePoint.syllable(d, r.copy.item(v), t))
            v = up
        return reduce(mul, reversed(word[:-1]), word[-1]) if word else FreePoint.origin(d)


class Realization:
    """Embedding of the iterated trees, extended stage by stage."""

    def __init__(self, iteration: TreeIteration):
        self.it = iteration
        self.d = d = iteration.d
        self.base_lengths = edge_length_vector(d)
        if self.it.tree_at(0).root != 0:
            raise ValueError("the initial star must be rooted at vertex 0")
        # vertex 0 is the origin; the color-j edge of the star runs along copy j-1
        self.anchor, self.copy = np.array([-1] + [0] * d), np.arange(-1, d)
        self.coef = self._base_rows(d)
        self.points = _Points(self)
        self.stage_done = 0
        self._tables: list[np.ndarray] = []   # per stage n, the rows rho^-n * base(c)

    def _base_rows(self, top: int) -> np.ndarray:
        """Rows 0..top: zero, then the base lengths of colors 1..top."""
        lengths = [ExactLength.zero(self.d)] + [self.base_lengths[c] for c in range(1, top + 1)]
        # a stored row is below half the bound, so a sum or difference of two cannot wrap
        return _int64([x.coeffs for x in lengths], 2)

    def length_table(self, n: int) -> np.ndarray:
        """The stage-n length table: row c holds rho^-n * base(c) for each
        color c (row 0 is zero).  Stage 0 is read from `base_lengths` on
        first use, and stage n is stage n - 1 times rho^-1, a `trinomial_step`
        per row; ValueError where a row would pass the int64 bound."""
        if not self._tables:
            self._tables.append(self._base_rows(2 * self.d - 2))
        while len(self._tables) <= n:
            rows = self._tables[-1].tolist()
            self._tables.append(_int64([trinomial_step(r, 1, -1) for r in rows], 2))
        return self._tables[n]

    def _between(self, s, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copy and coefficient rows of the one syllable p^-1 q, p and q the
        points of s and t, where the rows show it: t anchored at s, s at t,
        or both on one anchor and copy.  `ok` is False elsewhere and where
        the syllable is zero.

        Lemma: the rows show every stage edge, so `ok` False is a failure.
        By induction over `_put`, a vertex's copy differs from its anchor's,
        and a center goes onto the end dst of its replaced edge as its child
        or, merged, sibling: so it is src's sibling, child or sibling where
        src is dst's child, anchor or sibling.  A leaf is its center's child."""
        a, k, c = self.anchor, self.copy, self.coef
        down, up = a[t] == s, a[s] == t
        side = (a[s] == a[t]) & (k[s] == k[t]) & (a[s] >= 0)
        coef = c[t] - c[s]
        coef[up], coef[down] = -c[s[up]], c[t[down]]
        return np.where(up, k[s], k[t]), coef, (down | up | side) & coef.any(axis=1)

    def _put(self, ids, base, copy, coef) -> None:
        """Place ids[i] at the point of base[i] times the syllable (copy[i],
        coef[i]), merged into base's last syllable on the same copy.  If the
        two cancel, ids[i] would sit at the point of base's anchor, whose
        row another vertex holds: ValueError naming ids[i]."""
        merge = self.copy[base] == copy   # never at the origin, whose copy is -1
        coef = np.where(merge[:, None], self.coef[base] + coef, coef)
        if (gone := merge & ~coef.any(axis=1)).any():
            raise ValueError(f"vertex {ids[gone][0]} cancels its base's last syllable")
        self.anchor[ids] = np.where(merge, self.anchor[base], base)
        self.copy[ids] = copy
        self.coef[ids] = _int64(coef, 2)

    def extend_to(self, n: int) -> None:
        while self.stage_done < n:
            self._extend_once()

    def _extend_once(self) -> None:
        """Place stage n: each center rho^-n from its color-1 neighbour
        along the replaced 2-edge, its leaves off it on the next copies."""
        d, n = self.d, self.stage_done + 1
        self.it.extend_to(n)
        v, _, src, dst = self.it.centers[n].columns
        grow = self.it.sizes[n] - len(self.anchor)
        self.anchor = np.append(self.anchor, np.full(grow, -2))   # -2: not placed
        self.copy = np.append(self.copy, np.zeros(grow, dtype=np.int64))
        self.coef = np.append(self.coef, np.zeros((grow, d), dtype=np.int64), axis=0)
        # rho^-n and the legs rho^-(n+h), h = 1..d-2, from rho's power list
        step, *leaf = _int64(trinomial_powers(d, 1, -(n + d - 2))[n:n + d - 1], 2)
        copy, sign = self.edge_syllables(n - 1, dst, src, 2)
        if not (good := sign != 0).all():
            ok = self._between(dst, src)[2]
            raise ValueError("replaced edge was not a single syllable" if not ok[np.argmin(good)]
                             else "replaced 2-edge has the wrong length")
        self._put(v, dst, copy, sign[:, None] * step)
        for h in range(1, d - 1):
            self._put(v + h, v, (copy + h) % d, leaf[h - 1])
        if len(missing := np.flatnonzero(self.anchor == -2)):
            raise ValueError(f"unplaced vertices {missing.tolist()}")
        self.stage_done = n

    def point(self, v: int) -> FreePoint:
        return self.points[v]

    def edge_syllables(self, n: int, s, t, color) -> tuple[np.ndarray, np.ndarray]:
        """Per stage-n edge (s, t, color), the copy of the syllable p^-1 q, p
        and q the points of s and t, and its sign where the rows show one
        syllable of length rho^-n * base(color); the sign is 0 elsewhere."""
        copy, coef, ok = self._between(s, t)
        w = self.length_table(n)[color]
        sign = (coef == w).all(axis=1).astype(np.int64) - (coef == -w).all(axis=1)
        return copy, np.where(ok, sign, 0)

    def edge_length_check(self, n: int) -> None:
        """Every stage-n edge realizes as one syllable of length rho^-n * base(color).

        Raises ValueError naming the first edge that does not.
        """
        self.extend_to(n)
        tree = self.it.tree_at(n)
        _, sign = self.edge_syllables(n, tree.src, tree.dst, tree.color)
        if (bad := np.flatnonzero(sign == 0)).size:
            i = int(bad[0])
            s, t, c = tree.edges[i]
            _, coef, ok = self._between(tree.src[i:i + 1], tree.dst[i:i + 1])
            if not ok[0]:
                raise ValueError((n, (s, t, c), "not a single syllable"))
            raise ValueError((n, (s, t, c), abs(ExactLength(self.d, tuple(coef[0].tolist()))),
                              ExactLength(self.d, tuple(self.length_table(n)[c].tolist()))))

    def _signs(self, rows: np.ndarray) -> np.ndarray:
        """Exact sign of each row's value, decided once per distinct row."""
        values, _, inverse = distinct(rows)
        signs = [ExactLength(self.d, tuple(r)).sign() for r in values.tolist()]
        return np.array(signs, dtype=np.int64)[inverse]

    def hausdorff_gap(self, n: int) -> ExactLength:
        """Largest distance from a stage-n vertex to the realized T_(n-1).

        Only the new stars leave T_(n-1).  Each center must be one syllable
        from both ends of the 2-edge it replaced, on one copy with one sign,
        so inside that edge; each fresh leaf must be one syllable off its
        center on another copy, so its distance to T_(n-1) is that
        syllable's length.  Raises ValueError naming the first new vertex
        placed otherwise.
        """
        if n < 1:
            raise ValueError(f"stage must be >= 1, got {n}")
        self.extend_to(n)
        d, (v, _, src, dst) = self.d, self.it.centers[n].columns
        k, off, ok = self._between(dst, v)
        k_on, on, ok_on = self._between(v, src)
        ok &= ok_on & (k == k_on) & (self._signs(off) == self._signs(on))
        leaves = np.add.outer(np.arange(1, d - 1), v)   # row h - 1: each center's leaf h
        k_leg, legs, ok_leg = self._between(np.tile(v, d - 2), leaves.ravel())
        on_leg = (ok_leg & (k_leg != np.tile(k, d - 2))).reshape(leaves.shape)
        if (bad := ~(ok & on_leg.all(axis=0))).any():
            i = int(np.argmax(bad))   # the first center that fails, itself before its leaves
            if not ok[i]:
                raise ValueError((n, int(v[i]), "center off its replaced edge"))
            raise ValueError((n, int(leaves[np.argmin(on_leg[:, i]), i]),
                              "leaf not one syllable off its edge"))
        lengths = [abs(ExactLength(d, tuple(r))) for r in distinct(legs)[0].tolist()]
        return max(lengths, default=ExactLength.zero(d))

    def _norms(self) -> np.ndarray:
        """Per vertex the norm |P_v| as int64 rows: its anchor's plus |syllable|,
        summed along the anchors by `ancestor_sums` (the origin's is zero)."""
        # a norm sums at most one |syllable| per vertex on its anchor path
        rows = _int64(self.coef * self._signs(self.coef)[:, None], len(self.anchor))
        return ancestor_sums(np.where(self.anchor >= 0, self.anchor, 0), rows)[0]

    def coordinates(self) -> tuple[list[float], list[str]]:
        """Per vertex, the value of its point's norm and its text c^t.c^t...
        ("O" at the origin): a norm is its anchor's plus |syllable|, and a
        text is its anchor's joined with the syllable's.  Each distinct
        syllable gets its text once, and each distinct norm its value()."""
        d = self.d
        syllables, _, which = distinct(np.column_stack([self.copy, self.coef]))
        words = [f"{r[0]}^{ExactLength(d, tuple(r[1:])).value():.6g}" for r in syllables.tolist()]
        values, _, at = distinct(self._norms())
        norms = [ExactLength(d, tuple(r)).value() for r in values.tolist()]
        texts = ["O"] * len(self.anchor)
        for v, (a, w) in enumerate(zip(self.anchor.tolist(), which.tolist())):
            if a >= 0:   # anchors come first
                texts[v] = words[w] if texts[a] == "O" else f"{texts[a]}.{words[w]}"
        return [norms[i] for i in at.tolist()], texts
