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
        left = list(self.syllables)
        right = list(other.syllables)
        while left and right and left[-1][0] == right[0][0]:
            copy = left[-1][0]
            t = left[-1][1] + right[0][1]
            left.pop()
            right.pop(0)
            if not t.is_zero():
                left.append((copy, t))
                break
        return FreePoint(self.d, tuple(left) + tuple(right))

    def inverse(self) -> "FreePoint":
        return FreePoint(self.d, tuple((c, -t) for c, t in reversed(self.syllables)))

    def norm(self) -> ExactLength:
        total = ExactLength.zero(self.d)
        for _, t in self.syllables:
            total = total + abs(t)
        return total

    def text(self) -> str:
        if not self.syllables:
            return "O"
        return ".".join(f"{c}^{t.value():.6g}" for c, t in self.syllables)


def distance(p: FreePoint, q: FreePoint) -> ExactLength:
    return (p.inverse() * q).norm()


def common_prefix(p: FreePoint, q: FreePoint) -> FreePoint:
    """Longest common initial segment of two reduced syllable words."""
    if p.d != q.d:
        raise ValueError(f"points of d={p.d} and d={q.d} do not mix")
    out: list[Syllable] = []
    for (c1, t1), (c2, t2) in zip(p.syllables, q.syllables):
        if c1 != c2:
            break
        if t1 == t2:
            out.append((c1, t1))
            continue
        if t1.sign() == t2.sign():
            shorter = t1 if abs(t1) < abs(t2) else t2
            out.append((c1, shorter))
        break
    return FreePoint(p.d, tuple(out))


def median(a: FreePoint, b: FreePoint, c: FreePoint) -> FreePoint:
    """The unique point on all three pairwise segments."""
    ab = a.inverse() * b
    ac = a.inverse() * c
    return a * common_prefix(ab, ac)


def point_segment_distance(x: FreePoint, a: FreePoint, b: FreePoint) -> ExactLength:
    return distance(x, median(a, b, x))


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
        d = self.d
        n = self.stage_done + 1
        tree = self.it.tree_at(n)
        step = ExactLength.rho_power(d, -n)
        for c in self.it.centers[n]:
            if c.dst not in self.points or c.src not in self.points:
                raise ValueError("anchors must be old")
            start = self.points[c.dst]       # the color-1 neighbor
            diff = start.inverse() * self.points[c.src]
            if len(diff.syllables) != 1:
                raise ValueError("replaced edge was not a single syllable")
            copy, p = diff.syllables[0]
            if abs(p) != self.base_lengths[2].scaled(-(n - 1)):
                raise ValueError("replaced 2-edge has the wrong length")
            alpha = p.sign()
            t = step if alpha > 0 else -step
            center = self.points[c.vertex] = start * FreePoint.syllable(d, copy, t)
            for h, z in enumerate(c.leaves, start=1):
                leaf_t = ExactLength.rho_power(d, -(n + h))
                self.points[z] = center * FreePoint.syllable(d, (copy + h) % d, leaf_t)
        missing = [v for v in tree.vertices if v not in self.points]
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
        tree = self.it.tree_at(n)
        for s, t, c in tree.edges:
            diff = self.points[s].inverse() * self.points[t]
            if len(diff.syllables) != 1:
                raise ValueError((n, (s, t, c), "not a single syllable"))
            got = abs(diff.syllables[0][1])
            want = self.base_lengths[c].scaled(-n)
            if got != want:
                raise ValueError((n, (s, t, c), got, want))

    def hausdorff_gap(self, n: int) -> ExactLength:
        """Largest distance from a stage-n vertex to the realized T_(n-1).

        New centers sit on an old segment, so only the fresh leaves
        contribute; the bound is rho^-(n+1) exactly.
        """
        if n < 1:
            raise ValueError(f"stage must be >= 1, got {n}")
        self.extend_to(n)
        gap = ExactLength.zero(self.d)
        for c in self.it.centers[n]:
            a, b = self.points[c.dst], self.points[c.src]
            for v in (c.vertex, *c.leaves):
                dist = point_segment_distance(self.points[v], a, b)
                if gap < dist:
                    gap = dist
        return gap
