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

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import islice
from operator import neg
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


def _key(s, t) -> np.ndarray:
    """(src, dst) as one int64 that orders like the pair."""
    return np.asarray(s, dtype=np.int64) * (1 << 32) + (np.asarray(t, dtype=np.int64) + (1 << 31))


def _sorted(cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """The int32 (src, dst, color) columns of an (E, 3) edge block, sorted by
    (src, dst) as one key; a tie would be a double edge, which the tree
    check rejects and `TreeSubstitution.apply`'s lemma rules out."""
    order = np.argsort(_key(cols[:, 0], cols[:, 1]))
    return tuple(cols[order, k].astype(np.int32) for k in range(3))


def ancestor_sums(parent: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer doubling (J. C. Wyllie, Cornell TR 79-387, 1979): per slot, the
    sum of `rows` over it and its ancestors below the slot its climb ends
    at, and that end.  Each round a slot adds the row of the slot it has
    reached and takes over its reach; the climb stops at a fixed point or
    after len(parent).bit_length() + 1 rounds, when every climb in a tree
    has reached the root (whose row should be zero).  A slot on a cycle
    ends on it, a self-loop where the cycle's length is a power of 2."""
    up = parent
    for _ in range(len(parent).bit_length() + 1):
        jump = up[up]
        if np.array_equal(jump, up):
            break
        rows, up = rows + rows[up], jump
    return rows, up


@dataclass(frozen=True, eq=False)
class RootedIndex:
    """A tree hung from its root, as int32 columns by vertex: `parent` (the
    root is its own), `up`, the signed color of the step to the parent (0 at
    the root), and `depth`, the number of steps to the root."""

    parent: np.ndarray
    up: np.ndarray
    depth: np.ndarray

    @cached_property
    def climb(self) -> tuple[list[int], list[int]]:
        """`parent` and `up` as flat lists, which `path_word` reads step by step."""
        return self.parent.tolist(), self.up.tolist()


class ColoredTree:
    """Finite directed colored tree on the vertices 0..|E|, kept as three
    int32 columns (src, dst, color) sorted by (src, dst), which `edges`
    reads as (s, t, c) tuples.  A vertex is its own row of `degrees` and
    of the rooted index, which is built on first use.

    A tree built from an edge list is checked by `_check_tree`, which keeps its
    rooted index; a tree grown by `TreeSubstitution.apply` is one by the lemma there,
    and a stage `TreeIteration` reads from its edge log is the one `apply` grows."""

    def __init__(self, d: int, edges, root: int | None = None):
        cols = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        if (cols != cols.astype(np.int32)).any():
            raise ValueError("vertex ids and colors must fit in int32")
        if len(bad := cols[(cols[:, 2] < 1) | (cols[:, 2] > 2 * d - 2), 2]):
            raise ValueError(f"color {bad[0]} outside 1..{2*d-2}")
        if (cols[:, 0] == cols[:, 1]).any():
            raise ValueError("loop edge")
        if len(bad := cols[:, :2][(cols[:, :2] < 0) | (cols[:, :2] > len(cols))]):
            raise ValueError(f"vertex {bad[0]} outside 0..{len(cols)}")
        self._store(d, _sorted(cols), root)
        self._check_tree()

    @classmethod
    def _proven(cls, d: int, columns: tuple[np.ndarray, ...], root: int | None) -> "ColoredTree":
        """A tree by `TreeSubstitution.apply`'s lemma, from its int32 (src, dst,
        color) columns in (src, dst) order, stored with no search."""
        tree = cls.__new__(cls)
        tree._store(d, columns, root)
        return tree

    def _store(self, d: int, columns: tuple[np.ndarray, ...], root: int | None) -> None:
        self.d = d
        self.root = root
        self.src, self.dst, self.color = columns
        self.edges = _Rows(columns)
        self._rooted = None
        self._prior = None   # set by `TreeIteration`: the parents carried up from the stage before

    @property
    def vertices(self) -> range:
        """0..|E|, and none in the empty tree."""
        return range(len(self.src) + 1 if len(self.src) else 0)

    def degrees(self) -> np.ndarray:
        """The edge count at each vertex, by id (a tree has no id past |E|)."""
        return np.bincount(np.concatenate([self.src, self.dst]), minlength=len(self.vertices))

    def _check_tree(self) -> None:
        """A breadth-first pass from the root that reaches every one of the
        |E| + 1 vertices (`_search`): a connected graph with |V| - 1 edges
        is a tree.  The pass is kept as the rooted index."""
        if len(self.src):
            self._rooted = self._search()

    def branch_points(self) -> list[int]:
        return np.flatnonzero(self.degrees() >= 3).tolist()

    def _vertex(self, v) -> int:
        """v, once it is known to be a vertex."""
        if not (isinstance(v, (int, np.integer)) and 0 <= v < len(self.vertices)):
            raise ValueError(f"{v!r} is not a vertex")
        return int(v)

    def rooted_index(self) -> RootedIndex:
        """The tree hung from `root`, or from vertex 0 when there is none,
        indexed by vertex; built on first use and kept on the tree.

        A stage of `TreeIteration` carries the parent column up from the
        stage before (`_prior`), and `_index_of` reads the steps' colors
        from this tree's own columns, where it proves the parents a rooted
        index of them.  A tree built from an edge list keeps the pass of its
        tree check, and a stage whose carried parents fail the proof gets
        one: a breadth-first pass, one numpy step per level over the
        adjacency in CSR form (the edge ends sorted by vertex).  In a tree
        each vertex has one parent, so the index does not depend on the
        order in which a level's neighbours are visited.
        """
        if self._rooted is None:
            index = self._index_of(self._prior()) if self._prior is not None else None
            self._rooted = index if index is not None else self._search()
        return self._rooted

    def _root_vertex(self) -> int:
        return self._vertex(self.root) if self.root is not None else 0

    def _search(self) -> RootedIndex:
        """The rooted index by a breadth-first pass from the root, one step into
        each new vertex per level; a vertex it does not reach raises ValueError."""
        size = len(self.vertices)
        ends = np.concatenate([self.src, self.dst])
        order = np.argsort(ends, kind="stable")
        near = ends[order]
        other = np.concatenate([self.dst, self.src])[order]
        step = np.concatenate([self.color, -self.color])[order]
        first = np.searchsorted(near, np.arange(size + 1))
        parent, up, depth = (np.zeros(size, dtype=np.int32) for _ in range(3))
        entry = np.full(size, -1)   # per vertex, the edge end that reached it; -1 unseen
        root = self._root_vertex()
        parent[root], entry[root] = root, len(near)
        level = np.array([root])
        while len(level):
            count = first[level + 1] - first[level]
            at = np.repeat(first[level] - np.cumsum(count) + count, count) + np.arange(count.sum())
            at = at[entry[other[at]] < 0]
            entry[other[at]] = at
            at = at[entry[other[at]] == at]   # a cycle may reach a vertex twice
            level = other[at]
            parent[level], up[level], depth[level] = near[at], -step[at], depth[near[at]] + 1
        if (entry < 0).any():
            raise ValueError("tree is not connected")
        return RootedIndex(parent, up, depth)

    def _index_of(self, parent: np.ndarray) -> RootedIndex | None:
        """The rooted index with this parent column, each step's color read
        from this tree's columns, or None when `parent` hangs no tree on them.

        It does when |V| = |E| + 1, the root is its own parent, every other
        vertex has an edge to its parent, and every climb ends at the root
        (`ancestor_sums`, whose sums are the depths).  So the steps make no
        cycle: they are |V| - 1 distinct edges of the tree, so all of them.
        """
        root = self._root_vertex()
        if len(parent) != len(self.src) + 1 or parent[root] != root:
            return None
        v = np.arange(len(parent))
        up = self.edge_colors(v, parent).astype(np.int32)
        back = up == 0   # no edge out to the parent: read the edge in from it
        up[back] = -self.edge_colors(parent[back], v[back])
        depth, end = ancestor_sums(parent, (up != 0).astype(np.int32))
        if np.count_nonzero(up) != len(parent) - 1 or not (end == root).all():
            return None
        return RootedIndex(parent, up, depth)

    def path_word(self, x: int, y: int) -> tuple[int, ...]:
        """Signed colors along the unique path x -> y (negative = against the
        arrow): the deeper end climbs the rooted index to the other's depth,
        then both climb in step until they meet."""
        index = self.rooted_index()
        parent, up = index.climb
        x, y = self._vertex(x), self._vertex(y)
        gap = int(index.depth[x]) - int(index.depth[y])
        rise, fall = [], []
        for _ in range(gap):
            rise.append(up[x])
            x = parent[x]
        for _ in range(-gap):
            fall.append(up[y])
            y = parent[y]
        while x != y:
            rise.append(up[x])
            x = parent[x]
            fall.append(up[y])
            y = parent[y]
        return (*rise, *map(neg, reversed(fall)))

    def edge_colors(self, s, t) -> np.ndarray:
        """Per pair, the color of the edge s -> t, or 0 where there is none:
        a search of the sorted keys, its index clipped to the last edge."""
        keys, want = _key(self.src, self.dst), _key(s, t)
        if not len(keys):
            return np.zeros(want.shape, dtype=self.color.dtype)
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[at] == want, self.color[at], 0)

    def spans(self, marks: np.ndarray) -> np.ndarray:
        """Per vertex and column of `marks` (bool, by vertex), whether the edge
        to the vertex's parent lies on the least subtree holding the column's
        marked vertices: iff some, not all, lie under it (summed by level)."""
        index = self.rooted_index()
        parent, depth = index.parent, index.depth
        under = marks.astype(np.int64)
        order = np.argsort(depth, kind="stable")[::-1]   # deepest first, the root last
        for level in np.split(order, np.flatnonzero(np.diff(depth[order])) + 1)[:-1]:
            np.add.at(under, parent[level], under[level])
        return (under > 0) & (under < marks.sum(axis=0))

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


@lru_cache(maxsize=None)
def _pattern_tree(d: int, pat: RulePattern) -> tuple[ColoredTree, dict[str, int]]:
    """The pattern as a tree on the positions of its sorted symbols, and
    that symbol -> vertex map; built once per pattern."""
    index = {sym: i for i, sym in enumerate(pat.symbols())}
    return ColoredTree(d, [(index[s], index[t], c) for s, t, c in pat.edges]), index


def _anchored_tree(d: int, pat: RulePattern) -> bool:
    """The premise of `TreeSubstitution.apply`'s lemma for one pattern: a
    tree (by the tree check) that holds both anchors."""
    try:
        return {ANCHOR_SRC, ANCHOR_DST} <= _pattern_tree(d, pat)[1].keys()
    except ValueError:
        return False


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class ApplyResult:
    tree: ColoredTree


class TreeSubstitution:
    def __init__(self, d: int, rules: dict[int, RulePattern]):
        self.d = d
        self.rules = dict(rules)

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the four defining constraints of an edge substitution."""
        failures: list[str] = []
        ncolors = 2 * self.d - 2
        present = {c for c in self.rules if 1 <= c <= ncolors}
        if missing := ncolors - len(present):
            # the first five by name, found in O(len(rules)) steps however large d is
            shown = list(islice((c for c in range(1, ncolors + 1) if c not in present), 5))
            more = f" and {missing - len(shown)} more" if missing > len(shown) else ""
            failures.append(f"condition 1: no pattern for colors {shown}{more}")
        if strays := sorted(c for c in self.rules if not 1 <= c <= ncolors):
            more = f" and {len(strays) - 5} more" if len(strays) > 5 else ""
            which = "pattern for color" if len(strays) == 1 else "patterns for colors"
            failures.append(f"condition 1: {which} {', '.join(map(str, strays[:5]))}{more} "
                            f"outside 1..{ncolors}")
        for c, pat in sorted(self.rules.items()):
            syms = pat.symbols()
            if ANCHOR_SRC not in syms or ANCHOR_DST not in syms:
                failures.append(f"condition 1: pattern for color {c} misses an anchor")
                continue
            try:
                _pattern_tree(self.d, pat)
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

        The result is a tree by a lemma, with no search: if the pattern
        of every color present is a tree holding both anchors, and each old
        edge gets its own fresh ids, then substituting into a tree gives a
        tree.  Each pattern joins its edge's two ends and its own fresh
        vertices, so the result is connected; a pattern on k placeholders
        has k + 1 edges, so |E| grows by exactly the fresh count, as |V|
        does, and |E| = |V| - 1 still holds.  A present pattern that fails
        the premise is refused, and the result is checked by the counts: its
        |V| is the old one plus the fresh count, and every id 0..|E| has an
        edge.
        """
        src, dst, color = tree.edges.columns
        of_color = {c: np.flatnonzero(color == c) for c in np.flatnonzero(np.bincount(color))}
        if missing := of_color.keys() - self.rules.keys():
            raise ValueError(f"no rule for color {min(missing)}")
        if bad := [c for c in of_color if not _anchored_tree(self.d, self.rules[c])]:
            raise ValueError(f"rule {min(bad)} is not a tree holding both anchors")
        places = {c: pat.placeholders() for c, pat in self.rules.items()}
        count = np.zeros(len(color), dtype=np.int64)
        for c, idx in of_color.items():
            count[idx] = len(places[c])
        start = len(tree.vertices)
        first = start + np.cumsum(count) - count
        edges = [np.zeros((0, 3), dtype=np.int32)]
        for c, idx in of_color.items():
            at = {ANCHOR_SRC: src[idx], ANCHOR_DST: dst[idx]}
            at.update((p, first[idx] + k) for k, p in enumerate(places[c]))
            edges += [np.column_stack([at[ps], at[pt], np.full(len(idx), pc)])
                      for ps, pt, pc in self.rules[c].edges]
        out = ColoredTree._proven(self.d, _sorted(np.concatenate(edges)), tree.root)
        deg = out.degrees()
        if not len(out.vertices) == len(deg) == start + count.sum() or not deg.all():
            raise ValueError("substituted tree breaks |E| = |V| - 1 or the fresh ids")
        return ApplyResult(out)

    def trunk_word(self, color: int) -> tuple[int, ...]:
        """Signed colors along the X -> Y path inside the pattern for `color`."""
        tree, index = _pattern_tree(self.d, self.rules[color])
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


def initial_tree(d: int) -> ColoredTree:
    """T_0^s, the star of d edges colored 1..d out of the root, vertex 0,
    with the color-j neighbor vertex j.  That d - 1 rule applications to a
    single 2-colored edge give this star is the claim `verify.initial_star`
    checks."""
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


def _edge_life(subst: TreeSubstitution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the rules do to one edge, for rules that recolor every color
    but 2 and send 2 to a star on a fresh hub.

    An edge born with color c lives `span[c]` stages and then splits, and
    `life[c, j]` is its color j stages before it splits: 2 at j = 1, c at
    j = span[c], and 0 past it.  `star` holds the colors of the hub's
    edges to X, to Y and to each leaf, the hub being the first placeholder
    and the leaves the other d - 2.  A rule set of another shape raises
    ValueError.
    """
    d, colors = subst.d, range(1, 2 * subst.d - 1)
    step = {c: pat.edges[0][2] for c, pat in subst.rules.items()
            if len(pat.edges) == 1 and pat.edges[0][:2] == (ANCHOR_SRC, ANCHOR_DST)}
    pat = subst.rules.get(2, RulePattern(2, ()))
    hub, *leaves = pat.placeholders() or [None]
    color = {t: c for s, t, c in pat.edges if s == hub}
    ends = [ANCHOR_SRC, ANCHOR_DST, *leaves]
    if (step.keys() != set(colors) - {2} or len(leaves) != d - 2 or len(color) != len(pat.edges)
            or sorted(color) != sorted(ends) or not set(color.values()) <= set(colors)):
        raise ValueError("the edge log needs every color but 2 recolored, "
                         "and 2 sent to a star on its first placeholder")
    lives = {c: [c] for c in colors}
    for c, chain in lives.items():
        while chain[-1] != 2:
            if len(chain) == len(colors) or chain[-1] not in step:
                raise ValueError(f"color {c} never turns 2")
            chain.append(step[chain[-1]])
    span = np.array([0] + [len(lives[c]) for c in colors], dtype=np.int32)
    life = np.zeros((len(span), span.max() + 1), dtype=np.int32)
    for c, chain in lives.items():
        life[c, len(chain):0:-1] = chain
    return life, span, np.array([color[t] for t in ends], dtype=np.int32)


class TreeIteration:
    """Stage-indexed iteration T_0^s, T_1^s, ... kept as an append-only edge log.

    The family's rules recolor every edge but the 2-edges, and each
    2-edge becomes a star on a fresh center.  So an edge is logged once,
    as (src, dst, color at birth) in the batch of the stage it is born
    at, and `_edge_life` gives its color at each later stage until it
    splits.  A stage's new edges all leave its new centers, whose ids are
    above every old one, and each center's edges are logged in dst order:
    so the log, and each stage read from it, are in (src, dst) order, the
    order `TreeSubstitution.apply` sorts a stage into, with no sort.  An
    edge lives at most 2d - 2 stages, so stage n lies in the last 2d - 2
    batches up to n.

    Per stage it keeps the vertex count |V_n| and the new centers as
    columns (vertex, replaced edge, src, dst), which `centers[n]` reads as
    `NewCenter`s; `extend_to` grows them.  `trees` holds, by stage, the
    trees that `tree_at` was asked for.  Fresh ids count up from the
    previous maximum, so the vertices of T_n are 0, ..., |V_n| - 1.
    """

    def __init__(self, d: int):
        self.d = d
        self.subst = family_tree_substitution(d)
        self._life, self._span, self._star = _edge_life(self.subst)
        self.trees: dict[int, ColoredTree] = {0: initial_tree(d)}
        # the log, one column per edge: (src, dst, color at birth, stage it splits at)
        self._log = np.empty((4, 1024), dtype=np.int32)
        self._batch = [0]   # stage n's edges are the columns _batch[n]:_batch[n + 1]
        self._room(d)[:] = [*self.trees[0].edges.columns, self._span[self.trees[0].color]]
        self.sizes = [d + 1]
        self._center = lambda v, e, s, t: NewCenter(v, e, s, t, tuple(range(v + 1, v + d - 1)))
        self.centers = [_Rows((np.zeros(0, dtype=np.int64),) * 4, self._center)]

    def _room(self, size: int) -> np.ndarray:
        """The log's columns for the next stage's `size` edges, to be filled;
        the log's room doubles when it is full."""
        start, end = self._batch[-1], self._batch[-1] + size
        if end > self._log.shape[1]:
            grown = np.empty((4, 2 * end), dtype=np.int32)
            grown[:, :start] = self._log[:, :start]
            self._log = grown
        self._batch.append(end)
        return self._log[:, start:end]

    def _window(self, n: int) -> np.ndarray:
        """The log's batches that can hold a stage-n edge: the last 2d - 2 up to n."""
        return self._log[:, self._batch[max(0, n - 2 * self.d + 3)]:self._batch[n + 1]]

    def extend_to(self, n: int) -> None:
        """Grow the log, the sizes and the new centers through stage n."""
        if n < 0:
            raise ValueError(f"stage must be >= 0, got {n}")
        check_budget(self.d, n)
        while len(self.sizes) <= n:
            self._grow()

    def _grow(self) -> None:
        """Log stage n = len(sizes).  Its centers split the stage-(n-1)
        edges whose life ends at n, the 2-edges there, in log order: the
        k-th takes the ids from |V_(n-1)| + (d-1)k on, itself first (the
        2-rule numbers its hub P1 first, then its leaves)."""
        d, n = self.d, len(self.sizes)
        src, dst, _, death = self._window(n - 1)
        at = np.flatnonzero(death == n)
        e = np.flatnonzero(death[death >= n] == n)   # their ranks among the stage-(n-1) edges
        s, t = src[at], dst[at]
        v = self.sizes[-1] + (d - 1) * np.arange(len(e))
        # each center's d edges in dst order: to the lower, then the higher end of
        # its split edge (X, Y; swapped where Y's is the lower id), then to its leaves
        swap = (s > t).astype(np.int32)
        colors, spans = self._star, self._span[self._star]
        rows = self._room(d * len(v)).reshape(4, -1, d)
        for j, end in enumerate([np.minimum(s, t), np.maximum(s, t), *(v + h for h in range(1, d - 1))]):
            k = 1 - j if j < 2 else j   # the slot whose color this one takes where swapped
            rows[0, :, j], rows[1, :, j] = v, end
            rows[2, :, j] = colors[j] + (colors[k] - colors[j]) * swap
            rows[3, :, j] = n + spans[j] + (spans[k] - spans[j]) * swap
        self.centers.append(_Rows((v, e, s, t), self._center))
        self.sizes.append(self.sizes[-1] + (d - 1) * len(e))

    def tree_at(self, n: int) -> ColoredTree:
        """Stage n, built from the log on the first request and kept."""
        self.extend_to(n)
        if n not in self.trees:
            src, dst, born, death = self._window(n)
            alive = death > n
            columns = src[alive], dst[alive], self._life[born[alive], death[alive] - n]
            tree = ColoredTree._proven(self.d, columns, 0)
            tree._prior = partial(self._induced_index, n)
            self.trees[n] = tree
        return self.trees[n]

    def _induced_index(self, n: int) -> np.ndarray:
        """The parent column of stage n's rooted index, carried up stage by
        stage from the nearest one below that has an index (stage 0 at
        worst).

        Per stage, an old vertex keeps its parent, save the end of each
        split edge that hung from the other end (its child end): each center
        hangs from the old parent of that end, the end hangs from the
        center, and the center's leaves hang from it.
        `ColoredTree._index_of` reads the steps' colors from the stage's
        columns, where it proves the result a rooted index, before it is used.
        """
        below = max(m for m, tree in self.trees.items() if m < n and tree._rooted is not None)
        parent = self.trees[below].rooted_index().parent
        for stage in range(below + 1, n + 1):
            v, _, s, t = self.centers[stage].columns   # the center's new vertices are v, v + 1, ...
            child = np.where(parent[t] == s, t, s)
            hubs = np.repeat(v.astype(np.int32), self.d - 1).reshape(-1, self.d - 1)
            hubs[:, 0] = parent[child]
            parent = np.concatenate([parent, hubs.ravel()])
            parent[child] = v
        return parent

    def birth_stage(self, v):
        """Stage at which vertex v was born, the first built stage n with v < |V_n|;
        for an array of ids, an array of stages."""
        ids = np.asarray(v)
        n = np.searchsorted(self.sizes, ids, side="right")
        if (bad := (ids < 0) | (n == len(self.sizes))).any():
            raise ValueError(f"{ids[bad].flat[0].item()!r} is not a vertex of a stage built so far")
        return n if n.ndim else int(n)

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
        self.extend_to(upto)
        old, bt = self.sizes[base], self.tree_at(base)
        keys = _key(bt.src, bt.dst)   # increasing, as the edges are sorted
        arc = np.full(self.sizes[upto], -1, dtype=np.int64)
        on = np.arange(self.sizes[upto]) < old
        for stage in range(base + 1, upto + 1):
            v, _, s, t = self.centers[stage].columns
            e = np.maximum(arc[s], arc[t])
            fresh = e < 0
            e[fresh] = np.searchsorted(keys, _key(s[fresh], t[fresh]))
            for h in range(self.d - 1):   # the center and its leaves
                arc[v + h] = e
            on[v] = on[s] & on[t]
        return arc, on
