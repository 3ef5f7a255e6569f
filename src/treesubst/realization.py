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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algnum import ExactLength, edge_length_vector
from .trees import TreeIteration

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

    def inverse(self) -> "FreePoint":
        return FreePoint(self.d, tuple((c, -t) for c, t in reversed(self.syllables)))

    def norm(self) -> ExactLength:
        """Sum of the |t|, as one coefficient sum over the syllables."""
        mags = [_syllable(s)[0] for s in self.syllables]
        return ExactLength(self.d, tuple(map(sum, zip((0,) * self.d, *mags))))

    def text(self) -> str:
        if not self.syllables:
            return "O"
        return ".".join([_syllable(s)[1] for s in self.syllables])


@lru_cache(maxsize=1 << 16)
def _syllable(s: Syllable) -> tuple[tuple[int, ...], str]:
    """Coefficients of |t| and the text c^t of a syllable (c, t), made once
    per distinct syllable: the points of a stage share few (3,801 among the
    47,394 points of stage 25 for d = 3, 11,443 among 218,646 at stage 29)."""
    c, t = s
    return abs(t).coeffs, f"{c}^{t.value():.6g}"


def quotient(p: FreePoint, q: FreePoint) -> tuple[Syllable, ...]:
    """Syllables of the reduced p^-1 q: the common prefix cancels unseen
    (compared by identity first, as points built from one another share
    syllables), and only the junction after it is reduced."""
    if p.d != q.d:
        raise ValueError(f"points of d={p.d} and d={q.d} do not mix")
    a, b = p.syllables, q.syllables
    i, m = 0, min(len(a), len(b))
    while i < m and (a[i] is b[i] or a[i] == b[i]):
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


class Realization:
    """Embedding of the iterated trees, extended stage by stage."""

    def __init__(self, iteration: TreeIteration):
        self.it = iteration
        self.d = iteration.d
        self.base_lengths = edge_length_vector(self.d)
        self.points: dict[int, FreePoint] = {}
        self.stage_done = -1
        self._place_initial()

    def _place_initial(self) -> None:
        d = self.d
        if self.it.tree_at(0).root != 0:
            raise ValueError("the initial star must be rooted at vertex 0")
        self.points[0] = FreePoint.origin(d)
        self.points[1] = FreePoint.syllable(d, 0, ExactLength.one(d))
        # the color-j edge of the initial star runs along copy j-1
        for j in range(2, d + 1):
            self.points[j] = FreePoint.syllable(d, j - 1, ExactLength.rho_power(d, d - j + 1))
        self.stage_done = 0

    def extend_to(self, n: int) -> None:
        while self.stage_done < n:
            self._extend_once()

    def _extend_once(self) -> None:
        d, pts = self.d, self.points
        n = self.stage_done + 1
        tree = self.it.tree_at(n)
        step = ExactLength.rho_power(d, -n)
        # the replaced 2-edge's syllable -> the center's syllable off dst
        replaced = self.base_lengths[2].scaled(-(n - 1))
        toward = {replaced: step, -replaced: -step}
        leaf_ts = [ExactLength.rho_power(d, -(n + h)) for h in range(1, d - 1)]
        for c in self.it.centers[n]:
            start = pts[c.dst]       # the color-1 neighbor
            diff = quotient(start, pts[c.src])
            if len(diff) != 1:
                raise ValueError("replaced edge was not a single syllable")
            copy, p = diff[0]
            if p not in toward:
                raise ValueError("replaced 2-edge has the wrong length")
            center = pts[c.vertex] = start * FreePoint(d, ((copy, toward[p]),))
            for h, z in enumerate(c.leaves, start=1):
                pts[z] = center * FreePoint(d, (((copy + h) % d, leaf_ts[h - 1]),))
        missing = [v for v in tree.vertices if v not in pts]
        if missing:
            raise ValueError(f"unplaced vertices {missing}")
        self.stage_done = n

    def point(self, v: int) -> FreePoint:
        return self.points[v]

    def edge_length_check(self, n: int) -> None:
        """Every stage-n edge realizes as one syllable of length rho^-n * base(color).

        Raises ValueError naming the first edge that does not.
        """
        self.extend_to(n)
        signed = {c: (b.scaled(-n), -b.scaled(-n)) for c, b in self.base_lengths.items()}
        for s, t, c in self.it.tree_at(n).edges:
            diff = quotient(self.points[s], self.points[t])
            if len(diff) != 1:
                raise ValueError((n, (s, t, c), "not a single syllable"))
            if diff[0][1] not in signed[c]:
                raise ValueError((n, (s, t, c), abs(diff[0][1]), signed[c][0]))

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
        pts = self.points
        legs: set[ExactLength] = set()
        for c in self.it.centers[n]:
            off, on = quotient(pts[c.dst], pts[c.vertex]), quotient(pts[c.vertex], pts[c.src])
            if len(off) != 1 or [(k, t.sign()) for k, t in off] != [(k, t.sign()) for k, t in on]:
                raise ValueError((n, c.vertex, "center off its replaced edge"))
            for z in c.leaves:
                leg = quotient(pts[c.vertex], pts[z])
                if len(leg) != 1 or leg[0][0] == off[0][0]:
                    raise ValueError((n, z, "leaf not one syllable off its edge"))
                legs.add(leg[0][1])
        return max(map(abs, legs), default=ExactLength.zero(self.d))
