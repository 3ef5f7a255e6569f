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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

Edge = tuple[int, int, int]


class ColoredTree:
    """Finite directed colored tree; edges are stored sorted."""

    def __init__(self, d: int, edges, root: int | None = None):
        self.d = d
        self.edges: tuple[Edge, ...] = tuple(sorted(tuple(e) for e in edges))
        self.root = root
        self._adj: dict[int, list[tuple[int, int, int]]] | None = None
        self._rooted = None
        verts: set[int] = set()
        for s, t, c in self.edges:
            if not 1 <= c <= 2 * d - 2:
                raise ValueError(f"color {c} outside 1..{2*d-2}")
            if s == t:
                raise ValueError("loop edge")
            verts.add(s)
            verts.add(t)
        self.vertices: tuple[int, ...] = tuple(sorted(verts))
        self._check_tree()

    def _check_tree(self) -> None:
        """|V| - 1 edges and no cycle, which together force connectedness.

        Cycles are found by union-find with path halving, so checking keeps
        no adjacency on the tree.
        """
        if self.vertices and len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count is not vertex count - 1")
        parent = {v: v for v in self.vertices}
        for s, t, _ in self.edges:
            while parent[s] != s:
                parent[s] = s = parent[parent[s]]
            while parent[t] != t:
                parent[t] = t = parent[parent[t]]
            if s == t:
                raise ValueError("tree is not connected")
            parent[s] = t

    def adjacency(self) -> dict[int, list[tuple[int, int, int]]]:
        """v -> list of (neighbor, signed color, edge index); sign -1 on incoming.

        Built on first use and kept on the tree.
        """
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
        return [v for v in self.vertices if self.degree(v) >= 3]

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
        for v in self.vertices:
            outs = [c for _, c, _ in self.adjacency()[v] if c > 0]
            ins = [c for _, c, _ in self.adjacency()[v] if c < 0]
            if len(set(outs)) != len(outs) or len(set(ins)) != len(ins):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "root": self.root,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        palette = ["black", "red", "blue", "green3", "orange", "purple",
                   "brown", "cyan3", "magenta", "gray40"]
        lines = [f"digraph stage_tree {{  // d={self.d}"]
        if self.root is not None:
            lines.append(f"  v{self.root} [shape=doublecircle];")
        for s, t, c in self.edges:
            col = palette[c % len(palette)]
            lines.append(f'  v{s} -> v{t} [label="{c}", color={col}];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredTree) and self.d == other.d
                and self.edges == other.edges and self.root == other.root)

    def __hash__(self):
        return hash((self.d, self.edges, self.root))


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
        syms: set[str] = set()
        for s, t, _ in self.edges:
            syms.add(s)
            syms.add(t)
        return sorted(syms)

    def placeholders(self) -> list[str]:
        ps = [s for s in self.symbols() if s not in (ANCHOR_SRC, ANCHOR_DST)]
        for p in ps:
            if not (p.startswith("P") and p[1:].isdigit()):
                raise ValueError(f"bad placeholder symbol {p!r}")
        return sorted(ps, key=lambda p: int(p[1:]))

    def anchor_degrees(self) -> tuple[int, int]:
        deg = {ANCHOR_SRC: 0, ANCHOR_DST: 0}
        for s, t, _ in self.edges:
            for v in (s, t):
                if v in deg:
                    deg[v] += 1
        return deg[ANCHOR_SRC], deg[ANCHOR_DST]


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class ApplyResult:
    tree: ColoredTree
    born: dict[int, int]              # fresh vertex -> old edge index it replaces


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
        for s, t, c in pat.edges:
            if {s, t} == {ANCHOR_SRC, ANCHOR_DST}:
                return c
        return None

    def _check_color_cycles(self) -> list[str]:
        """Condition 4: on any cycle of direct anchor edges, anchors have degree 1."""
        succ: dict[int, int] = {}
        for c, pat in self.rules.items():
            b = self._direct_anchor_color(pat)
            if b is not None:
                succ[c] = b
        on_cycle: set[int] = set()
        for start in succ:
            seen: list[int] = []
            c = start
            while c in succ and c not in seen:
                seen.append(c)
                c = succ[c]
            if c in seen:
                on_cycle.update(seen[seen.index(c):])
        failures = []
        for c in sorted(on_cycle):
            dx, dy = self.rules[c].anchor_degrees()
            if dx != 1 or dy != 1:
                failures.append(
                    f"condition 4: color cycle through {c} but anchors have degree {dx},{dy}"
                )
        return failures

    # -- application --------------------------------------------------------

    def apply(self, tree: ColoredTree) -> ApplyResult:
        """Replace every edge by its pattern; placeholders get fresh ids."""
        next_id = max(tree.vertices) + 1 if tree.vertices else 0
        patterns = {c: (pat.placeholders(), pat.edges) for c, pat in self.rules.items()}
        new_edges: list[Edge] = []
        born: dict[int, int] = {}
        for idx, (s, t, c) in enumerate(tree.edges):
            if c not in patterns:
                raise ValueError(f"no rule for color {c}")
            places, edges = patterns[c]
            assign = {ANCHOR_SRC: s, ANCHOR_DST: t}
            for p in places:
                assign[p] = next_id
                born[next_id] = idx
                next_id += 1
            for ps, pt, pc in edges:
                new_edges.append((assign[ps], assign[pt], pc))
        return ApplyResult(ColoredTree(self.d, new_edges, root=tree.root), born)

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
    rules: dict[int, RulePattern] = {}
    rules[1] = RulePattern(1, (("X", "Y", d),))
    star = [("P1", "X", d), ("P1", "Y", 1)]
    for h in range(1, d - 1):
        star.append(("P1", f"P{h + 1}", d + h))
    rules[2] = RulePattern(2, tuple(star))
    for i in range(3, d + 1):
        rules[i] = RulePattern(i, (("X", "Y", i - 1),))
    rules[d + 1] = RulePattern(d + 1, (("X", "Y", 1),))
    for i in range(d + 2, 2 * d - 1):
        rules[i] = RulePattern(i, (("X", "Y", i - 1),))
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
    centers = [v for v in t.vertices if t.degree(v) == d]
    if len(centers) != 1:
        raise ValueError("seed iteration did not produce a star")
    center = centers[0]
    colors = sorted(c for _, c, _ in t.adjacency()[center])
    if colors != list(range(1, d + 1)):
        raise ValueError("star colors are not 1..d")
    relabel = {center: 0}
    for w, sc, _ in t.adjacency()[center]:
        if sc < 0:
            raise ValueError("star edge pointing at the center")
        relabel[w] = sc
    edges = [(relabel[s], relabel[t_], c) for s, t_, c in t.edges]
    return ColoredTree(d, edges, root=0)


class NewCenter(NamedTuple):
    """A branch point born at one stage on the 2-edge src -> dst it replaced."""

    vertex: int
    edge: int                  # index of the replaced edge one stage earlier
    src: int                   # the center's color-d neighbor
    dst: int                   # the center's color-1 neighbor
    leaves: tuple[int, ...]    # its fresh leaves, on colors d+1, ..., 2d-2


class TreeIteration:
    """Stage-indexed iteration T_0^s, T_1^s, ... with a record of births.

    Besides the trees it records, per stage, the births grouped into new
    centers (`centers`), so stage loops need no adjacency to find them.
    Fresh ids count up from the previous maximum, so the vertices of T_n
    are 0, ..., |V_n| - 1 and a vertex's birth stage follows from the stage
    sizes.
    """

    def __init__(self, d: int):
        self.d = d
        self.subst = family_tree_substitution(d)
        self.trees: list[ColoredTree] = [initial_tree(d)]
        self.centers: list[tuple[NewCenter, ...]] = [()]

    def tree_at(self, n: int) -> ColoredTree:
        if n < 0:
            raise ValueError(f"stage must be >= 0, got {n}")
        while len(self.trees) <= n:
            prev = self.trees[-1]
            res = self.subst.apply(prev)
            self.trees.append(res.tree)
            self.centers.append(self._new_centers(prev, res.born))
        return self.trees[n]

    def birth_stage(self, v: int) -> int:
        """Stage at which vertex v was born, among the stages built so far.

        Fresh ids count up, so that is the first stage n with v < |V_n|.
        """
        n = bisect_left(self.trees, v + 1, key=lambda t: len(t.vertices))
        if v < 0 or n == len(self.trees):
            raise ValueError(f"{v!r} is not a vertex of a stage built so far")
        return n

    def _new_centers(self, prev: ColoredTree, born: dict[int, int]) -> tuple[NewCenter, ...]:
        """Group the births of one stage into the stars grown on 2-edges.

        The 2-rule gives its fresh ids first to P1, the center (X on color
        d, Y on color 1), then to its leaves P2, ..., P(d-1); `born` lists
        them in that order, d - 1 per replaced edge.
        """
        fresh = list(born.items())
        out = []
        for i in range(0, len(fresh), self.d - 1):
            (v, e), *leaves = fresh[i : i + self.d - 1]
            src, dst, color = prev.edges[e]
            if color != 2 or any(f != e for _, f in leaves):
                raise ValueError("centers can only replace 2-colored edges")
            out.append(NewCenter(v, e, src, dst, tuple(w for w, _ in leaves)))
        return tuple(out)

    def descent(self, base: int, upto: int) -> tuple[list[int], list[bool]]:
        """Per vertex of T_upto^s: the T_base^s edge it was born inside, and
        whether it lies on the embedded T_base^s.

        The edge is -1 for the vertices of T_base^s, which all lie on it.
        One forward pass over the new centers: every edge that a later-born
        vertex touches descends from the base edge that vertex was born
        inside, and an edge between two base vertices is a base edge
        recolored.  A center lies on the embedded base tree iff both ends
        of the edge it split do; fresh leaves never do.
        """
        if base < 0:
            raise ValueError(f"base stage must be >= 0, got {base}")
        if base > upto:
            raise ValueError(f"base stage {base} is after stage {upto}")
        size = len(self.tree_at(upto).vertices)
        base_tree = self.trees[base]
        old = len(base_tree.vertices)
        edge_of = {(s, t): i for i, (s, t, _) in enumerate(base_tree.edges)}
        arc = [-1] * size
        on = [True] * old + [False] * (size - old)
        for stage in range(base + 1, upto + 1):
            for c in self.centers[stage]:
                e = max(arc[c.src], arc[c.dst])
                if e < 0:
                    e = edge_of[c.src, c.dst]
                arc[c.vertex] = e
                for z in c.leaves:
                    arc[z] = e
                on[c.vertex] = on[c.src] and on[c.dst]
        return arc, on
