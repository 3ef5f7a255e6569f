"""Branch-point labels of the iterated trees and the structures built on them.

Every branch point of a stage-n tree carries a group-word label: the inverse
of a prefix of the fixed point.  A label is stored as its length, which
fixes the prefix, and so is the arc of an edge, by its center's label; the
words are built only where a check compares one or a witness prints one.
This module scans the labels stage by stage, certifies them against the
root-path codes (the address map), derives the stage inventories, the
simple arcs and the cylinders their words end in, the partitions the trees
determine, the partial-isometry system on realized branch points, and the
exact path-length cross-check of realized distances.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, ValuesView
from functools import cached_property, lru_cache
from operator import mul

import numpy as np

from .algnum import ExactLength, letter_length_exact
from .freegroup import GroupWord, family_auto, from_positive, invert, p_star, word_text
from .realization import Realization, distance
from .trees import TreeIteration
from .words import (
    Word,
    _power_lengths,
    bispecials_by_generation,
    distinct,
    fixed_point_letters,
    fixed_point_prefix,
    power_image,
    shift_overlap,
    window_classes,
    word_str,
)


def apparition_of_empty(d: int) -> int:
    """Stage at which the empty label is counted as having appeared."""
    return -(d - 2)


def _label_text(word: Word) -> str:
    """The group-word label that inverts `word`, as `word_text` renders it."""
    return word_text(invert(from_positive(word)))


def l_word(d: int, m: int) -> Word:
    """The word inverted by the longest branch label present after m steps.

    The label is the product of sigma^a(1^-1) over exponents a = a0,
    a0+(d-1), ..., m-1 with a0 = (m-1) mod (d-1), so the word is the
    product of the sigma^a(1) in the reverse order: the m-th bispecial
    factor of the fixed point.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    a0 = (m - 1) % (d - 1)
    return b"".join(power_image(d, a) for a in reversed(range(a0, m, d - 1)))


def determined_partition(d: int, n: int) -> int:
    """Cylinder length m whose partition the stage-n tree determines:
    |l_word(d, n)| + 1, summed over the table of |sigma^a(1)|."""
    lengths = _power_lengths(d)
    return 1 + sum(lengths[a] for a in range((n - 1) % (d - 1), n, d - 1))


def stage_lengths(it: TreeIteration, length: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stage-n centers v of `it` and their label lengths L(v) = |sigma^(n-1)(1)|
    + L(src), by one gather over `length`, the lengths by vertex id (-1: no label).

    sigma^(n-1)(1) is a fixed-point prefix, so the label word is one iff
    L(src) <= z, the overlap of the fixed point with its tail from
    |sigma^(n-1)(1)|.  One compare on one letter more than the longest
    source finds z where z is at most that source's length, as at every
    stage checked (z equals it for d = 3..6, n <= 16), and shows every
    source fits otherwise.  A source without a label fits no prefix.
    """
    v, _, src, _ = it.centers[n]
    step = _power_lengths(it.d)[n - 1]
    tails = length[src]
    upto = int(tails.max(initial=0)) + 1
    if (tails < 0).any() or (tails > shift_overlap(it.d, step, upto)).any():
        raise ValueError("label is not a prefix inverse")
    return v, step + tails


@lru_cache(maxsize=None)
def _letter_columns(d: int) -> tuple[tuple[int, ...], ...]:
    """The letters' length coefficient vectors, one tuple per coefficient."""
    lengths = letter_length_exact(d)
    return tuple(zip(*(lengths[k].coeffs for k in range(1, d + 1))))


def legal_path_distance(d: int, w: GroupWord) -> ExactLength:
    """Sum of per-letter lengths of a reduced word over the first d letters:
    its letter counts (one `Counter` pass) times the letters' length
    coefficient vectors."""
    seen = Counter(w)
    counts = [seen[k] + seen[-k] for k in range(1, d + 1)]
    if sum(counts) != len(w):
        bad = next(x for x in w if not 1 <= abs(x) <= d)
        raise ValueError(f"letter {bad} outside 1..{d}")
    return ExactLength(d, tuple(sum(map(mul, counts, col)) for col in _letter_columns(d)))


def _top_exponents(d: int, lengths: np.ndarray) -> np.ndarray:
    """Per label length k >= 1, the top exponent of its writing (the first
    peel of `length_writing`): the largest a with |sigma^a(1)| <= k."""
    return np.searchsorted(_power_lengths(d)[:-1], lengths, side="right") - 1


class _Labels(Mapping):
    """Read-only view vertex -> label word of a scan's lengths: [v] builds
    the fixed-point prefix of length `length[v]` on each read.  Keys, values
    and items go in vertex-id order, and `values()` also in reverse."""

    def __init__(self, scan: "CoreScan"):
        self.scan = scan

    def _keys(self) -> list[int]:
        return np.flatnonzero(self.scan.length >= 0).tolist()

    def __len__(self) -> int:
        return int(np.count_nonzero(self.scan.length >= 0))

    def __iter__(self):
        return iter(self._keys())

    def __contains__(self, v) -> bool:
        return 0 <= v < len(self.scan.length) and self.scan.length[v] >= 0

    def __getitem__(self, v: int) -> Word:
        if v not in self:
            raise KeyError(v)
        return fixed_point_prefix(self.scan.d, int(self.scan.length[v]))

    def values(self) -> "_LabelValues":
        return _LabelValues(self)


class _LabelValues(ValuesView):
    def __reversed__(self):
        return map(self._mapping.__getitem__, reversed(self._mapping._keys()))


class CoreScan:
    """Stage-by-stage labeling of branch points with realization on demand.

    The label of a stage-n center is the label of the source anchor of the
    replaced edge extended by sigma^(n-1)(1^-1); no cancellation occurs, and
    the result is always the inverse of a fixed-point prefix.  So each label
    is stored as its length: `length` is an int64 array by vertex id (-1 on
    the leaves), `by_length` its inverse (-1 where no label has that
    length), and `labels` is a read-only view that builds the words.  The
    rest of the record (birth stage, parent, neighbours) is read from the
    columns of the shared tree iteration.
    """

    def __init__(self, d: int):
        self.d = d
        self.it = TreeIteration(d)
        self.length = np.array([0] + [-1] * d, dtype=np.int64)   # T_0: the root, d leaves
        self.by_length = np.zeros(1, dtype=np.int64)
        self.labels = _Labels(self)
        self.scanned = 0
        self._decided: dict[tuple[str, int], list[str]] = {}
        self._branch: dict[int, np.ndarray] = {}   # stage -> its branch points

    @cached_property
    def real(self) -> Realization:
        """The realization of the shared tree iteration, built on first use."""
        return Realization(self.it)

    # -- label scan ---------------------------------------------------------

    def extend_to(self, n: int) -> None:
        while self.scanned < n:
            self._scan_stage(self.scanned + 1)

    def _scan_stage(self, n: int) -> None:
        """Label the stage-n centers, refusing a length already taken."""
        self.it.extend_to(n)
        v, k = stage_lengths(self.it, self.length, n)
        grow = max(0, int(k.max(initial=0)) + 1 - len(self.by_length))
        by_length = np.pad(self.by_length, (0, grow), constant_values=-1)
        taken = (by_length[k] >= 0).any()
        by_length[k] = v
        if taken or (by_length[k] != v).any():   # a length seen before, or twice now
            raise ValueError("duplicate label length")
        length = np.pad(self.length, (0, self.it.sizes[n] - len(self.length)), constant_values=-1)
        length[v] = k
        self.length, self.by_length, self.scanned = length, by_length, n

    def _vertex_of_length(self, k):
        """The vertex whose label has length k, or -1, for each k of an array."""
        k = np.asarray(k, dtype=np.int64)
        held = (0 <= k) & (k < len(self.by_length))
        return np.where(held, self.by_length[np.where(held, k, 0)], -1)

    def vertex_of_label(self, word: Word) -> int:
        v = int(self._vertex_of_length(len(word)))
        if v < 0 or word != fixed_point_prefix(self.d, len(word)):
            raise ValueError(
                f"label {_label_text(word)} not seen up to stage {self.scanned}"
            )
        return v

    def decided(self, check, n: int) -> list[str]:
        """check(n), a staged check, run once: a built stage does not change."""
        key = check.__name__, n
        if key not in self._decided:
            self._decided[key] = check(n)
        return self._decided[key]

    # -- the address map ---------------------------------------------------

    @cached_property
    def _trunks(self) -> tuple[dict[int, tuple[int, ...]], np.ndarray]:
        """Each color's trunk word, and the words as rows by color padded with 0s."""
        colors = range(2 * self.d - 1)
        trunks = {c: self.it.subst.trunk_word(c) for c in colors[1:]}
        width = max(2, *map(len, trunks.values()))
        return trunks, np.array([(*trunks.get(c, ()), *[0] * width)[:width] for c in colors])

    def check_address_map(self, n: int) -> list[str]:
        """Stage n's part of sigma^m(g_m(v)) = label(v) for each branch point v
        of T_m, g_m(v) = p*(root -> v in T_m), proved over the stages from three facts:
        (1) sigma(p*(trunk_word(c))) = p*(c) for each color c, and sigma(p*(t))
            = 1^-1 for t = trunk_word(2)[0], the step from a source to its center;
        (2) each T_m edge (s, t, c) spells trunk_word(c) in T_(m+1):
            recolored, or through its center in `centers[m + 1]`;
        (3) the stored length of the root is 0, of each center what `stage_lengths` gives.
        By (2) a root path of T_m spells a walk of T_(m+1) with the path's code,
        so by (1) sigma(g_(m+1)(v)) = g_m(v); at v's birth stage b from src,
        sigma^b(g_b(src).p*(t)) = label(src).sigma^(b-1)(1)^-1, as (3) says.
        Stage 0 checks (1), (2) for T_0 and the root; stage n >= 1, (2) for
        T_n and (3) for the stage-n centers.  The facts of stages 0..n prove
        the map for every branch point of T_n.
        """
        self.extend_to(n)
        d, (trunks, table) = self.d, self._trunks
        failures = []
        if n == 0:
            auto = family_auto(d)
            codes = [(f"trunk of color {c}", w, p_star(d, (c,))) for c, w in trunks.items()]
            codes.append(("step source -> center", trunks[2][:1], (-1,)))
            failures = [f"{what}: sigma of its code is {word_text(got)}, want {word_text(want)}"
                        for what, w, want in codes if (got := auto(p_star(d, w))) != want]
        tree, nxt = self.it.tree_at(n), self.it.tree_at(n + 1)
        v, e, _, _ = self.it.centers[n + 1]
        spelled = np.zeros((len(tree.src), table.shape[1]), dtype=np.int64)
        spelled[:, 0] = nxt.edge_colors(tree.src, tree.dst)
        spelled[e, 0] = -nxt.edge_colors(v, tree.src[e])
        spelled[e, 1] = nxt.edge_colors(v, tree.dst[e])
        bad = np.flatnonzero((spelled != table[tree.color]).any(axis=1))
        failures += [f"stage {n} edge ({s},{t},{c}): trunk is not {trunks[c]} in stage {n + 1}"
                     for s, t, c in map(tree.edges.__getitem__, bad.tolist())]
        return failures + self._length_fact(n)

    def _length_fact(self, n: int) -> list[str]:
        """Fact (3) of the address map at stage n: the stored length of the
        root (n = 0) or of each stage-n center is what `stage_lengths` gives."""
        try:   # stage 0 has the root, of length 0, for its centers
            v, want = stage_lengths(self.it, self.length, n) if n else (np.zeros(1, np.int64),) * 2
        except ValueError as exc:
            return [f"stage {n}: {exc}"]
        bad = np.flatnonzero(self.length[v] != want)
        return [
            f"stage {n} vertex {x}: label length {k}, want {w}"
            for x, k, w in zip(v[bad].tolist(), self.length[v[bad]].tolist(), want[bad].tolist())
        ]

    # -- inventories --------------------------------------------------------

    def branch_points(self, n: int) -> np.ndarray:
        """T_n's branch points, kept, as the tree's sort their edge ends."""
        if n not in self._branch:
            self._branch[n] = np.array(self.it.tree_at(n).branch_points(), dtype=np.int64)
        return self._branch[n]

    def inventory_lengths(self, m: int) -> set[int]:
        """Label lengths of the stage-m branch points."""
        self.extend_to(m)
        return set(self.length[self.branch_points(m)].tolist())

    def check_inventory(self, m: int) -> list[str]:
        """Stage-m labels are exactly the suffixes of the longest one.

        Kept as the words they invert, those are the prefixes of l_word: as
        lengths, 0..|l_word|, with l_word itself a fixed-point prefix.
        """
        failures = []
        got = self.inventory_lengths(m)
        lm = l_word(self.d, m)
        if got != set(range(len(lm) + 1)) or lm != fixed_point_prefix(self.d, len(lm)):
            failures.append(f"m={m}: inventory is not the suffix set")
        if len(got) != len(lm) + 1:
            failures.append(f"m={m}: expected {len(lm) + 1} labels, got {len(got)}")
        if 1 <= m <= self.d - 1:
            new = got - self.inventory_lengths(m - 1)
            if new != {_power_lengths(self.d)[m - 1]}:
                failures.append(f"m={m}: early stage should add exactly one label")
        return failures

    def check_bispecial_match(self, max_m: int) -> list[str]:
        """Inverted labels coincide with the bispecial chain, suffix-ordered."""
        failures = []
        longest = l_word(self.d, max_m)
        bis = [b for b in bispecials_by_generation(self.d, len(longest)) if b]
        words = [l_word(self.d, m) for m in range(1, max_m + 1)]
        if words != bis[: len(words)]:
            failures.append("label chain disagrees with bispecial generation")
        # suffix order on the inverses = prefix order on the positive words
        for a, b in zip(words, words[1:]):
            if b[: len(a)] != a:
                failures.append(f"{word_str(a)} does not begin {word_str(b)}")
        return failures

    # -- apparition structure ----------------------------------------------

    def check_apparition_chain(self, n: int) -> list[str]:
        """Each stage-n label extends a label from d-1 to 2d-2 stages back: its
        parent `src` was born at the first stage whose size exceeds it."""
        self.extend_to(n)
        lo, hi = n - (2 * self.d - 2), n - (self.d - 1)
        v, _, src, _ = self.it.centers[n]
        prev = self.it.birth_stage(src)
        prev[src == 0] = apparition_of_empty(self.d)
        bad = (prev < lo) | (prev > hi)
        return [f"vertex {x}: parent step {p} outside [{lo}, {hi}]"
                for x, p in zip(v[bad].tolist(), prev[bad].tolist())]

    def check_writing_exponents(self, n: int) -> list[str]:
        """Max writing exponent of a stage-n label is n-1 or n."""
        self.extend_to(n)
        v = self.it.centers[n][0]
        top = _top_exponents(self.d, self.length[v])
        bad = (top != n - 1) & (top != n)
        return [f"vertex {x}: max exponent {t} at step {n}"
                for x, t in zip(v[bad].tolist(), top[bad].tolist())]

    def check_branching_neighbor(self, n: int) -> list[str]:
        """When the max exponent of a stage-n label reaches n, the 1-neighbor y
        (the head of v's color-1 out-edge) branches and has the label less sigma^n(1)."""
        self.extend_to(n)
        v = self.it.centers[n][0]
        v = v[_top_exponents(self.d, self.length[v]) == n]
        tree = self.it.tree_at(n)
        one = tree.color == 1
        src, dst = tree.src[one], tree.dst[one]
        at = np.searchsorted(src, v, side="right") - 1
        if (src[at] != v).any():   # at = -1 reads src[-1] > v
            raise ValueError(f"stage {n}: a center has no color-1 out-edge")
        y = dst[at]
        flat = tree.degrees()[y] != self.d
        want = self.length[v] - _power_lengths(self.d)[n]
        bad = flat | (self.length[y] != want)
        return [f"vertex {x}: 1-neighbor {w} does not branch" if out
                else f"vertex {x}: 1-neighbor label mismatch"
                for x, w, out in zip(v[bad].tolist(), y[bad].tolist(), flat[bad])]

    # -- realized branch points --------------------------------------------

    def approx_points(self, exponents: list[int]) -> list[int]:
        """Vertices realizing the truncations of an ascending writing."""
        for a, b in zip(exponents, exponents[1:]):
            if b - a < self.d:
                raise ValueError("exponent gaps must be at least d")
        self.extend_to(max(exponents) + 1)
        self.real.extend_to(max(exponents) + 1)
        out = []
        lab = b""
        for a in exponents:
            lab = power_image(self.d, a) + lab
            out.append(self.vertex_of_label(lab))
        return out

    def check_approx_steps(self, exponents: list[int]) -> list[str]:
        """Appending sigma^a(1^-1) moves the point by exactly rho^-a * V(1)."""
        vs = self.approx_points(exponents)
        failures = []
        base = self.real.base_lengths[1]
        pts = [self.real.point(v) for v in vs]
        for a, p, q in zip(exponents[1:], pts, pts[1:]):
            got, want = distance(p, q), base.scaled(-a)
            if got != want:
                failures.append(f"step {a}: moved {got.value():.6f}, want {want.value():.6f}")
        return failures

    # -- simple arcs --------------------------------------------------------

    def _arcs(self, n: int, upto: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The simple arcs of stage n as columns (edge, src, dst, color, k,
        center, length), and per vertex to stage upto >= n + 2d - 2 the
        stage-n edge it was born inside (`descent`).  Iterating the
        substitution k more times puts one branch point, `center`, strictly
        inside the path of edge src -> dst, and its label `length` fixes the
        word that determines the arc's cylinder: the centers born inside the
        edge on the embedded stage-n tree, whose first stage n+k one gather
        over stages n+1..n+2d-2 finds."""
        d, tree = self.d, self.it.tree_at(n)
        self.extend_to(upto)
        arc, on = self.it.descent(n, upto)
        born = [self.it.centers[n + k][0] for k in range(1, 2 * d - 1)]
        v = np.concatenate(born)
        k = np.repeat(np.arange(1, 2 * d - 1), [len(b) for b in born])
        v, k = v[on[v]], k[on[v]]
        first = np.full(len(tree.src), 2 * d - 1)
        np.minimum.at(first, arc[v], k)
        v = v[k == first[arc[v]]]
        single = np.bincount(arc[v], minlength=len(first)) == 1
        if not single.all():
            raise RuntimeError(f"edge {int(np.argmin(single))} at stage {n}: no single branch")
        center = np.empty(len(first), dtype=np.int64)
        center[arc[v]] = v
        edge = np.arange(len(first))
        return (edge, tree.src, tree.dst, tree.color, first, center, self.length[center]), arc

    def check_initial_arcs(self) -> list[str]:
        """Stage-0 arc words around the star are sigma^(d-1)(1) for color 1,
        sigma^(j-2)(1) for color j >= 2: fixed-point prefixes, so lengths decide."""
        d = self.d
        _, _, _, color, _, _, length = self._arcs(0, 2 * d - 2)[0]
        want = np.array(_power_lengths(d)[:d])[np.where(color == 1, d - 1, color - 2)]
        return [f"color {j}: arc label {_label_text(fixed_point_prefix(d, k))}, "
                f"want {_label_text(fixed_point_prefix(d, w))}"
                for j, k, w in zip(color.tolist(), length.tolist(), want.tolist()) if k != w]

    def check_arc_overlaps(self, n: int) -> list[str]:
        """Deep shadows of distinct arcs meet in at most one vertex.

        Shared vertices must be labeled branch points: the only points lying
        in two arc closures are realized orbit points.  A shadow is its
        edge's two ends and the vertices born inside the edge, and `descent`
        gives each later-born vertex one edge and none to a vertex of T_n.
        So only an end can lie in two shadows, those of the arcs it ends;
        the sorted (end, arc) rows pair up at each end.
        """
        edge, src, dst, *_ = self._arcs(n, n + 2 * self.d - 2)[0]
        deg = self.it.tree_at(n + 2 * self.d - 2).degrees()
        ends = np.concatenate([src, dst]).astype(np.int64)
        end, arc = np.divmod(distinct(ends * len(edge) + np.tile(edge, 2))[0], len(edge))
        shared = [(np.zeros(0, dtype=np.int64),) * 2]   # (i * |E| + j, v): arcs i < j share v
        for g in range(1, len(end)):
            if not (same := end[g:] == end[:-g]).any():
                break
            shared.append((arc[:-g][same] * len(edge) + arc[g:][same], end[g:][same]))
        pair, v = (np.concatenate(c) for c in zip(*shared))
        pairs, _, which = distinct(pair)
        many = np.bincount(which)[which] > 1
        flat = (self.length[v] < 0) | (deg[v] != self.d)
        failures = []
        for p in sorted(set(which[many | flat].tolist())):
            (i, j), at = divmod(int(pairs[p]), len(edge)), which == p
            if many[at].any():
                failures.append(f"arcs {i},{j} share {sorted(v[at].tolist())}")
            failures += [f"arcs {i},{j}: shared {x} not a branch"
                         for x in sorted(v[at & flat].tolist())]
        return failures

    def _off_chain(self, n: int, deep: int, born_in: np.ndarray, center: np.ndarray) -> np.ndarray:
        """The centers born after stage n up to deep that the src chain does
        not certify to end with the word of the arc they are born in: one
        is certified if it is its edge's arc center (the first center born
        inside the edge), or the address map holds at its birth stage and
        its src is a certified center born inside the same edge, as fact
        (3) there makes its label sigma^(b-1)(1) label(src) as a word."""
        certified = np.zeros(len(self.length), dtype=bool)
        certified[center] = True
        off = [np.zeros(0, dtype=np.int64)]
        for stage in range(n + 1, deep + 1):
            v, _, src, _ = self.it.centers[stage]
            if not self.decided(self.check_address_map, stage):
                certified[v] |= (born_in[src] == born_in[v]) & certified[src]
            off.append(v[~certified[v]])
        return np.concatenate(off)

    def check_arc_cylinders(self, n: int, deep: int) -> list[str]:
        """Arcs match length-m cylinders and absorb the labels born after n, up to deep.

        The arc words' last m letters are windows of the fixed point, so they
        are its length-m factors when `window_classes` finds them distinct and
        as many.  A label born inside an arc's edge ends with the arc's word
        by the src-chain certificate; a center off the chain is compared.
        """
        d = self.d
        m = determined_partition(d, n)
        (*_, center, length), born_in = self._arcs(n, max(deep, n + 2 * d - 2))
        failures = []
        if len(length) != (d - 1) * m + 1:
            failures.append(f"stage {n}: {len(length)} arcs, want {(d - 1) * m + 1}")
        short = length < m
        failures += [f"arc {e}: word shorter than {m}" for e in np.flatnonzero(short).tolist()]
        factor_at, tags = window_classes(d, m, np.maximum(length - m, 0))
        tags[short] = -1   # a shorter word is no length-m factor
        seen = distinct(tags)[0]
        if len(seen) != len(length):
            failures.append(f"stage {n}: arc suffixes of length {m} collide")
        if not np.array_equal(seen, factor_at):
            failures.append(f"stage {n}: suffixes miss some length-{m} factors")
        off = self._off_chain(n, deep, born_in, center)
        text = fixed_point_prefix(d, int(self.length.max())) if len(off) else b""
        for x, ex in zip(off.tolist(), born_in[off].tolist()):
            k, word = int(self.length[x]), text[: int(length[ex])]
            if k < len(word) or text[k - len(word):k] != word:
                failures.append(f"vertex {x}: label does not extend arc {ex}")
        return failures

    # -- partial isometries -------------------------------------------------

    def shift_domains(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The stage-n branch points, and per point the letter whose shift
        domain holds it: the next letter of its coded tail, the fixed
        point's letter at its label length."""
        self.extend_to(n)
        branch = self.branch_points(n)
        return branch, fixed_point_letters(self.d, self.length[branch])

    def check_shift_isometry(self, n: int) -> list[str]:
        """Each letter's shift keeps realized distances on its stage-n
        domain, as a certificate over two facts shared by every letter.

        Lemma: let g(v) = p*(root -> v in T_(n+1)).  The address map gives
        sigma^(n+1)(g(v)) = label(v) for every branch point of T_(n+1).  A
        point v of the domain of a has its image f(v) of label
        a^-1.label(v), one letter longer with a at position length[v]; so
        g(f(v)) = h_a.g(v), h_a = sigma^-(n+1)(a^-1) one element per letter,
        and g(f(x))^-1 g(f(y)) = g(x)^-1 g(y).  Path distances at stage n+1
        make the realized distance of two branch points of T_(n+1), which
        domain points and images are, rho^-(n+1) times the legal length of
        that reduced word.  So every shift is an isometry when (a) each
        image is realized and its stored length is its point's plus one,
        (b) the address-map facts hold through stage n+1, and (c) path
        distances hold at stage n+1.  The failures of (a) come by letter,
        then those of (b) and (c), once, in their own texts.  The
        certificate reads the stored lengths, and the pairs do not: a wrong
        length fails it though every distance survives.
        """
        self.extend_to(n + 1)
        self.real.extend_to(n + 1)
        # (b) and (c) first, so that the columns of (a) are not held meanwhile
        premises = [f for m in range(n + 1) for f in self.decided(self.check_address_map, m)]
        # fact (3) alone at stage n+1: fact (2) there would read T_(n+2)
        premises += self.decided(self._length_fact, n + 1)
        premises += self.decided(self.check_path_distances, n + 1)
        dom, letter = self.shift_domains(n)
        order = np.argsort(letter, kind="stable")
        dom, letter = dom[order], letter[order]
        want = self.length[dom] + 1
        img = self._vertex_of_length(want)
        got = np.where(img < 0, -1, self.length[img])
        bad = got != want
        failures = [f"vertex {v}: image label unrealized" if w < 0
                    else f"letter {a}: image {w} of vertex {v} has label length {k}, want {kv}"
                    for a, v, w, k, kv in zip(*(c[bad].tolist()
                                                for c in (letter, dom, img, got, want)))]
        return failures + premises

    def check_domain_overlaps(self, n: int) -> list[str]:
        """Spanned domains of distinct letters share at most one vertex.

        Two subtrees sharing two vertices share the path between them, so
        the claim is that no edge spans two domains.  The edge from v to its
        parent spans a domain iff some but not all of its points lie under
        v (`ColoredTree.spans`, every letter in one pass).
        """
        dom, letter = self.shift_domains(n)
        marks = np.zeros((self.it.sizes[n], self.d), dtype=bool)   # by vertex, as `spans` reads them
        marks[dom, letter - 1] = True
        span = self.it.tree_at(n).spans(marks).astype(np.int64)
        shared = np.triu(span.T @ span, 1)   # per letter pair, the edges spanning both
        return [f"letters {a + 1},{b + 1}: domains share edges" for a, b in np.argwhere(shared)]

    # -- distances ----------------------------------------------------------

    def check_path_distances(self, n: int) -> list[str]:
        """Realized distance = rho^-n * coded path length, for all branch pairs.

        Lemma: in a discerned tree no path word holds a color next to its
        barred twin, so a path word over colors 1..d is reduced: p* keeps
        it, and its legal length is the sum over its edges.  A branch path
        runs in the span, the least subtree holding the branch points, and
        in an R-tree such as the free product of lines a local geodesic is
        a geodesic (Chiswell, Introduction to Lambda-trees, ch. 2).  So the
        claim holds when each span edge has a color <= d and realizes as one
        syllable of length rho^-n * base(color), and no two span edges leave
        one vertex in one direction (copy, sign).  A tree that is not
        discerned fails.  Each witness is a failing pair, from `distance`
        and `legal_path_distance`: a bad span edge's ends, or the far ends
        of two span edges leaving a vertex alike.
        """
        self.extend_to(n)
        self.real.extend_to(n)
        d, tree = self.d, self.it.tree_at(n)
        if not tree.is_discerned():
            return [f"stage {n}: tree not discerned, so its path words may cancel"]
        index = tree.rooted_index()   # the vertices 0..|V_n|-1 are their own slots
        marks = np.zeros((len(index.parent), 1), dtype=bool)
        marks[self.branch_points(n)] = True
        v = np.flatnonzero(tree.spans(marks)[:, 0])
        out, color, parent = index.up[v] > 0, np.abs(index.up[v]), index.parent[v]
        s, t = np.where(out, v, parent), np.where(out, parent, v)
        copy, sign = self.real.edge_syllables(n, s, t, color)
        good = (color <= d) & (sign != 0)
        pairs = [*zip(s[~good].tolist(), t[~good].tolist())]
        # a good edge leaves s along (copy, sign) and t along (copy, -sign)
        s, t, copy, up = s[good], t[good], copy[good], sign[good] > 0
        key = np.concatenate([(s * d + copy) * 2 + up, (t * d + copy) * 2 + ~up])
        order = np.argsort(key, kind="stable")
        far, alike = np.concatenate([t, s])[order], np.flatnonzero(np.diff(key[order]) == 0)
        pairs += zip(far[alike].tolist(), far[alike + 1].tolist())
        failures = []
        for x, y in sorted({(min(p), max(p)) for p in pairs}):
            word = tree.path_word(x, y)
            if any(abs(c) > d for c in word):
                failures.append(f"pair ({x},{y}): path leaves the core colors")
                continue
            want = legal_path_distance(d, p_star(d, word)).scaled(-n)
            got = distance(self.real.point(x), self.real.point(y))
            failures.append(f"pair ({x},{y}): {got.value():.6f} != {want.value():.6f}")
        return failures


@lru_cache(maxsize=None)
def shared_scan(d: int) -> CoreScan:
    """Process-wide scan reused by audits and the command line."""
    return CoreScan(d)
