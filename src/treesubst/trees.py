"""Colored directed trees and edge substitutions on them.

An edge (x, y, c) points from x to y and carries a color in 1..2d-2.  A
tree substitution replaces every edge by a finite pattern glued along two
anchor vertices; the family used throughout the package sends color 2 to
a star of d fresh edges and merely recolors every other edge:

    1 -> d,   2 -> star,   i -> i-1 (3 <= i <= d),
    d+1 -> 1, i -> i-1 (d+2 <= i <= 2d-2).

Placeholder vertices of a pattern get fresh ids from a monotone counter,
edges being processed in sorted (src, dst, color) order, so iteration is
fully deterministic and vertex sets are nested along the stages.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .words import growth_root


class _Rows(Sequence):
    """Read-only sequence over equal-length int columns: row i is the tuple
    of their i-th entries, or `make` of it, built when it is read."""

    def __init__(self, columns: tuple[np.ndarray, ...], make=None):
        self.columns, self._make = columns, make

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        row = tuple(int(c[i]) for c in self.columns)
        return row if self._make is None else self._make(*row)

    def __iter__(self):
        rows = zip(*(c.tolist() for c in self.columns))
        return rows if self._make is None else (self._make(*r) for r in rows)


class ColoredTree:
    """Finite directed colored tree, kept as three int32 columns (src, dst,
    color) sorted by (src, dst), which `edges` reads as (s, t, c) tuples.
    Vertices, adjacency and the rooted index are built on first use."""

    def __init__(self, d: int, edges, root: int | None = None):
        self.d = d
        self.root = root
        cols = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        if (cols != cols.astype(np.int32)).any():
            raise ValueError("vertex ids and colors must fit in int32")
        if len(bad := cols[(cols[:, 2] < 1) | (cols[:, 2] > 2 * d - 2), 2]):
            raise ValueError(f"color {bad[0]} outside 1..{2*d-2}")
        if (cols[:, 0] == cols[:, 1]).any():
            raise ValueError("loop edge")
        # sorted by (src, dst) as one key; a tie is a double edge, which the union-find rejects
        order = np.argsort(cols[:, 0] * (1 << 32) + (cols[:, 1] + (1 << 31)))
        self.src, self.dst, self.color = (cols[order, k].astype(np.int32) for k in range(3))
        self.edges = _Rows((self.src, self.dst, self.color))
        self._adj: dict[int, list[tuple[int, int, int]]] | None = None
        self._rooted = None
        self._check_tree()

    def _degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct vertex ids in increasing order, and the degree of each."""
        ends = np.sort(np.concatenate([self.src, self.dst]))
        first = np.flatnonzero(np.diff(ends, prepend=ends[:1] - 1))
        return ends[first], np.diff(np.append(first, len(ends)))

    def _check_tree(self) -> None:
        """|V| - 1 edges and no cycle, which together force connectedness.

        Union-find with path halving over the ranks of the ids (the id less
        the least one when they are contiguous, as in every stage tree).
        """
        ids, _ = self._degrees()
        if len(ids) and len(self.src) != len(ids) - 1:
            raise ValueError("edge count is not vertex count - 1")
        dense = not len(ids) or ids[-1] - ids[0] == len(ids) - 1
        rank = (lambda c: c - ids[0]) if dense else (lambda c: np.searchsorted(ids, c))
        parent, step = list(range(len(ids))), 1 << 16   # int lists of bounded size
        pairs = (zip(rank(self.src[i : i + step]).tolist(), rank(self.dst[i : i + step]).tolist())
                 for i in range(0, len(self.src), step))
        for s, t in chain.from_iterable(pairs):
            while parent[s] != s:
                parent[s] = s = parent[parent[s]]
            while parent[t] != t:
                parent[t] = t = parent[parent[t]]
            if s == t:
                raise ValueError("tree is not connected")
            parent[t] = s

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._degrees()[0].tolist())

    def adjacency(self) -> dict[int, list[tuple[int, int, int]]]:
        """v -> list of (neighbor, signed color, edge index); sign -1 on incoming."""
        if self._adj is None:
            adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in self.vertices}
            for i, (s, t, c) in enumerate(self.edges):
                adj[s].append((t, c, i))
                adj[t].append((s, -c, i))
            self._adj = adj
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def branch_points(self) -> list[int]:
        ids, deg = self._degrees()
        return ids[deg >= 3].tolist()

    def slot(self, v: int) -> int:
        """Position of vertex v in `vertices`; the rooted index is kept by it."""
        i = bisect_left(self.vertices, v)
        if i == len(self.vertices) or self.vertices[i] != v:
            raise ValueError(f"{v!r} is not a vertex")
        return i

    def rooted_index(self) -> tuple[list[int], list[int], list[int]]:
        """(parent, signed color of the step to the parent, depth) per slot.

        Rooted at `root`, or at the least vertex when there is none; the
        root is its own parent with color 0, and parents are slots too.
        Built by one breadth-first pass on first use and kept on the tree
        as three flat lists.
        """
        if self._rooted is None:
            verts, adj = self.vertices, self.adjacency()
            parent, up, depth = [0] * len(verts), [0] * len(verts), [-1] * len(verts)
            root = self.slot(self.root) if self.root is not None else 0
            parent[root], depth[root] = root, 0
            order = [root]
            for i in order:
                for w, sc, _ in adj[verts[i]]:
                    j = bisect_left(verts, w)
                    if depth[j] < 0:
                        parent[j], up[j], depth[j] = i, -sc, depth[i] + 1
                        order.append(j)
            self._rooted = parent, up, depth
        return self._rooted

    def path(self, x: int, y: int) -> list[tuple[int, int]]:
        """(vertex, signed color) steps along the unique path x -> y.

        The steps exclude x and end with y; a color is negative against the
        arrow.  Both ends climb the rooted index to the vertex where they
        meet, so the cost is the length of the path.
        """
        parent, up, depth = self.rooted_index()
        verts = self.vertices
        x, y = self.slot(x), self.slot(y)
        rise, fall = [], []
        while x != y:   # an end no shallower than the other lies below where they meet
            if depth[x] >= depth[y]:
                sc, x = up[x], parent[x]
                rise.append((verts[x], sc))
            else:
                fall.append((verts[y], -up[y]))
                y = parent[y]
        return rise + fall[::-1]

    def path_word(self, x: int, y: int) -> tuple[int, ...]:
        """Signed colors along the unique path x -> y (negative = against the arrow)."""
        return tuple(sc for _, sc in self.path(x, y))

    def is_discerned(self) -> bool:
        """No path word contains a barred color next to its unbarred twin.

        Equivalent local test: at every vertex the outgoing colors are
        pairwise distinct and the incoming colors are pairwise distinct.
        (An incoming and an outgoing edge may share a color: that spells
        c.c along a path, which is allowed.)
        """
        span = 2 * self.d - 1   # (vertex, color) as one key, colors being 1..2d-2
        keys = [np.sort(end.astype(np.int64) * span + self.color) for end in (self.src, self.dst)]
        return not any((k[1:] == k[:-1]).any() for k in keys)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "root": self.root,
            "vertices": list(self.vertices),
            "edges": np.column_stack(self.edges.columns).tolist(),
        }

    def to_dot(self) -> str:
        palette = ["black", "red", "blue", "green3", "orange", "purple",
                   "brown", "cyan3", "magenta", "gray40"]
        lines = [f"digraph stage_tree {{  // d={self.d}"]
        if self.root is not None:
            lines.append(f"  v{self.root} [shape=doublecircle];")
        lines += [f'  v{s} -> v{t} [label="{c}", color={palette[c % len(palette)]}];'
                  for s, t, c in self.edges]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredTree) and self.d == other.d
                and self.root == other.root
                and all(map(np.array_equal, self.edges.columns, other.edges.columns)))


# ---------------------------------------------------------------------------
# substitution rules

ANCHOR_SRC = "X"
ANCHOR_DST = "Y"


@dataclass(frozen=True)
class RulePattern:
    """Replacement pattern for one color, over symbols X, Y, P1, P2, ...

    X and Y are glued to the endpoints of the replaced edge; the Pk get
    fresh vertex ids in increasing k order at instantiation time.
    """

    color: int
    edges: tuple[tuple[str, str, int], ...]

    def symbols(self) -> list[str]:
        return sorted({v for s, t, _ in self.edges for v in (s, t)})

    def placeholders(self) -> list[str]:
        ps = [s for s in self.symbols() if s not in (ANCHOR_SRC, ANCHOR_DST)]
        if bad := [p for p in ps if not (p.startswith("P") and p[1:].isdigit())]:
            raise ValueError(f"bad placeholder symbol {bad[0]!r}")
        return sorted(ps, key=lambda p: int(p[1:]))

    def anchor_degrees(self) -> tuple[int, int]:
        ends = [v for s, t, _ in self.edges for v in (s, t)]
        return ends.count(ANCHOR_SRC), ends.count(ANCHOR_DST)


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class ApplyResult:
    tree: ColoredTree
    born: np.ndarray    # old edge index per fresh vertex, fresh ids in increasing order


class TreeSubstitution:
    def __init__(self, d: int, rules: dict[int, RulePattern]):
        self.d = d
        self.rules = dict(rules)

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the four defining constraints of an edge substitution."""
        failures: list[str] = []
        ncolors = 2 * self.d - 2
        missing = [c for c in range(1, ncolors + 1) if c not in self.rules]
        if missing:
            failures.append(f"condition 1: no pattern for colors {missing}")
        for c, pat in sorted(self.rules.items()):
            syms = pat.symbols()
            if ANCHOR_SRC not in syms or ANCHOR_DST not in syms:
                failures.append(f"condition 1: pattern for color {c} misses an anchor")
                continue
            try:
                self._pattern_tree(pat)
            except ValueError as exc:
                failures.append(f"condition 2: pattern for color {c} is not a tree ({exc})")
                continue
            try:
                pat.placeholders()
            except ValueError as exc:
                failures.append(f"condition 3: pattern for color {c}: {exc}")
        if not failures:
            failures.extend(self._check_color_cycles())
        return ValidationReport(not failures, failures)

    def _pattern_tree(self, pat: RulePattern) -> tuple[ColoredTree, dict[str, int]]:
        """The pattern as a tree on the positions of its sorted symbols, and
        that symbol -> vertex map."""
        index = {sym: i for i, sym in enumerate(pat.symbols())}
        return ColoredTree(self.d, [(index[s], index[t], c) for s, t, c in pat.edges]), index

    def _direct_anchor_color(self, pat: RulePattern) -> int | None:
        """Color of an X-Y edge of the pattern if there is one (either direction)."""
        return next((c for s, t, c in pat.edges if {s, t} == {ANCHOR_SRC, ANCHOR_DST}), None)

    def _check_color_cycles(self) -> list[str]:
        """Condition 4: on any cycle of direct anchor edges, anchors have degree 1."""
        succ = {c: b for c, pat in self.rules.items()
                if (b := self._direct_anchor_color(pat)) is not None}
        on_cycle: set[int] = set()
        for start in succ:
            seen: list[int] = []
            c = start
            while c in succ and c not in seen:
                seen.append(c)
                c = succ[c]
            if c in seen:
                on_cycle.update(seen[seen.index(c):])
        degrees = {c: self.rules[c].anchor_degrees() for c in sorted(on_cycle)}
        return [f"condition 4: color cycle through {c} but anchors have degree {dx},{dy}"
                for c, (dx, dy) in degrees.items() if (dx, dy) != (1, 1)]

    # -- application --------------------------------------------------------

    def apply(self, tree: ColoredTree) -> ApplyResult:
        """Replace every edge by its pattern; placeholders get fresh ids.

        Fresh ids count up from the largest vertex + 1 along the sorted
        edges, each edge taking one per placeholder of its pattern, in
        placeholder order.  So an edge's first fresh id is that start plus
        the placeholder count of the edges before it, and each pattern edge
        is one gather over the edges of its color.
        """
        src, dst, color = tree.edges.columns
        of_color = {c: np.flatnonzero(color == c) for c in np.flatnonzero(np.bincount(color))}
        if missing := of_color.keys() - self.rules.keys():
            raise ValueError(f"no rule for color {min(missing)}")
        places = {c: pat.placeholders() for c, pat in self.rules.items()}
        count = np.zeros(len(color), dtype=np.int64)
        for c, idx in of_color.items():
            count[idx] = len(places[c])
        first = (int(max(src.max(), dst.max())) + 1 if len(src) else 0) + np.cumsum(count) - count
        edges = [np.zeros((0, 3), dtype=np.int32)]
        for c, idx in of_color.items():
            at = {ANCHOR_SRC: src[idx], ANCHOR_DST: dst[idx]}
            at.update((p, first[idx] + k) for k, p in enumerate(places[c]))
            edges += [np.column_stack([at[ps], at[pt], np.full(len(idx), pc)])
                      for ps, pt, pc in self.rules[c].edges]
        edges = np.concatenate(edges)
        born = np.repeat(np.arange(len(color)), count)
        return ApplyResult(ColoredTree(self.d, edges, root=tree.root), born)

    def trunk_word(self, color: int) -> tuple[int, ...]:
        """Signed colors along the X -> Y path inside the pattern for `color`."""
        tree, index = self._pattern_tree(self.rules[color])
        if ANCHOR_SRC not in index or ANCHOR_DST not in index:
            raise ValueError(f"pattern for color {color} misses an anchor")
        return tree.path_word(index[ANCHOR_SRC], index[ANCHOR_DST])

    def trunk_matrix(self) -> np.ndarray:
        """t[i,j] = edges of color i+1 on the anchor path of the pattern for j+1."""
        n = 2 * self.d - 2
        m = np.zeros((n, n), dtype=np.int64)
        for c in self.rules:
            for sc in self.trunk_word(c):
                m[abs(sc) - 1, c - 1] += 1
        return m

    def incidence_matrix(self) -> np.ndarray:
        """m[i,j] = total edges of color i+1 in the pattern for color j+1."""
        n = 2 * self.d - 2
        m = np.zeros((n, n), dtype=np.int64)
        for c, pat in self.rules.items():
            for _, _, pc in pat.edges:
                m[pc - 1, c - 1] += 1
        return m


@lru_cache(maxsize=None)
def family_tree_substitution(d: int) -> TreeSubstitution:
    """The rule set paired with the d-letter word substitution."""
    if d < 3:
        raise ValueError("family needs d >= 3")
    leaves = tuple(("P1", f"P{h + 1}", d + h) for h in range(1, d - 1))
    rules = {i: RulePattern(i, (("X", "Y", i - 1),)) for i in range(3, 2 * d - 1)}
    rules[1] = RulePattern(1, (("X", "Y", d),))
    rules[2] = RulePattern(2, (("P1", "X", d), ("P1", "Y", 1)) + leaves)
    rules[d + 1] = RulePattern(d + 1, (("X", "Y", 1),))
    return TreeSubstitution(d, rules)


@lru_cache(maxsize=None)
def initial_tree(d: int) -> ColoredTree:
    """T_0^s: iterate the rules d-1 times on a single 2-colored edge.

    The result is a star of d edges out of one center, colored 1..d; it
    is relabelled canonically so the root is vertex 0 and the color-j
    neighbor is vertex j.
    """
    ts = family_tree_substitution(d)
    t = ColoredTree(d, [(0, 1, 2)])
    for _ in range(d - 1):
        t = ts.apply(t).tree
    if len(set(t.src.tolist())) != 1 or sorted(t.color.tolist()) != list(range(1, d + 1)):
        raise ValueError("seed iteration did not produce a star of colors 1..d out of one center")
    return ColoredTree(d, [(0, c, c) for c in range(1, d + 1)], root=0)


class NewCenter(NamedTuple):
    """A branch point born at one stage on the 2-edge src -> dst it replaced."""

    vertex: int
    edge: int                  # index of the replaced edge one stage earlier
    src: int                   # the center's color-d neighbor
    dst: int                   # the center's color-1 neighbor
    leaves: tuple[int, ...]    # its fresh leaves, on colors d+1, ..., 2d-2


EDGE_BUDGET = 1_000_000   # edges a requested stage may hold, by the estimate below


def check_budget(d: int, n: int) -> None:
    """Refuse stage n when d * lambda^n, the stage-0 edge count grown by the
    Perron root per stage, exceeds EDGE_BUDGET."""
    if (estimate := d * growth_root(d) ** n) > EDGE_BUDGET:
        raise ValueError(f"stage {n} would hold about {estimate:,.0f} edges "
                         f"(d * lambda^n), over the budget of {EDGE_BUDGET:,}")


class TreeIteration:
    """Stage-indexed iteration T_0^s, T_1^s, ... with a record of births.

    Per stage it keeps the tree, the vertex count |V_n| and the new centers
    as columns (vertex, replaced edge, src, dst), which `centers[n]` reads
    as `NewCenter`s.  Fresh ids count up from the previous maximum, so the
    vertices of T_n are 0, ..., |V_n| - 1.
    """

    def __init__(self, d: int):
        self.d = d
        self.subst = family_tree_substitution(d)
        self.trees: list[ColoredTree] = [initial_tree(d)]
        self.sizes = [d + 1]
        self._center = lambda v, e, s, t: NewCenter(v, e, s, t, tuple(range(v + 1, v + d - 1)))
        self.centers = [_Rows((np.zeros(0, dtype=np.int64),) * 4, self._center)]

    def tree_at(self, n: int) -> ColoredTree:
        if n < 0:
            raise ValueError(f"stage must be >= 0, got {n}")
        check_budget(self.d, n)
        while len(self.trees) <= n:
            prev = self.trees[-1]
            res = self.subst.apply(prev)
            # the 2-rule numbers its center P1 first, then its leaves P2, ..., P(d-1)
            e = res.born[:: self.d - 1]
            if (prev.color[e] != 2).any() or not np.array_equal(res.born, e.repeat(self.d - 1)):
                raise ValueError("centers can only replace 2-colored edges")
            v = self.sizes[-1] + (self.d - 1) * np.arange(len(e))
            self.centers.append(_Rows((v, e, prev.src[e], prev.dst[e]), self._center))
            self.sizes.append(self.sizes[-1] + len(res.born))
            self.trees.append(res.tree)
        return self.trees[n]

    def birth_stage(self, v: int) -> int:
        """Stage at which vertex v was born: the first built stage n with v < |V_n|."""
        n = bisect_left(self.sizes, v + 1)
        if v < 0 or n == len(self.sizes):
            raise ValueError(f"{v!r} is not a vertex of a stage built so far")
        return n

    def descent(self, base: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex of T_upto^s: the T_base^s edge it was born inside, and
        whether it lies on the embedded T_base^s.

        The edge is -1 for the vertices of T_base^s, which all lie on it.
        One gather per stage over the new centers: an edge that a later-born
        vertex touches descends from the base edge that vertex was born
        inside, and an edge between two base vertices is a base edge
        recolored.  A center lies on the embedded base tree iff both ends of
        the edge it split do; fresh leaves never do.
        """
        if base < 0:
            raise ValueError(f"base stage must be >= 0, got {base}")
        if base > upto:
            raise ValueError(f"base stage {base} is after stage {upto}")
        self.tree_at(upto)
        old, bt = self.sizes[base], self.trees[base]
        keys = bt.src.astype(np.int64) * old + bt.dst   # increasing, as the edges are sorted
        arc = np.full(self.sizes[upto], -1, dtype=np.int64)
        on = np.arange(self.sizes[upto]) < old
        for stage in range(base + 1, upto + 1):
            v, _, s, t = self.centers[stage].columns
            e = np.maximum(arc[s], arc[t])
            fresh = e < 0
            e[fresh] = np.searchsorted(keys, s[fresh].astype(np.int64) * old + t[fresh])
            for h in range(self.d - 1):   # the center and its leaves
                arc[v + h] = e
            on[v] = on[s] & on[t]
        return arc, on
