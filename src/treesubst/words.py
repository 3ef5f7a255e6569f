"""Word combinatorics of the substitution family 1 -> 12, k -> k+1, d -> 1.

Words over the alphabet {1, .., d} are stored as ``bytes`` whose entries are
the letters themselves (so b"\\x01\\x02" is the word 12).  The module knows
how to iterate the substitution, rank the factors of the fixed point with
certified stabilization, find its bispecial factors, and decide the
cylinder measures exactly: each is a power lambda^-j, proposed by the float
Perron vector of the induced substitution sigma_m on the length-m factors
and proved an eigenvector of its integer matrix in integer coefficients on
1, lambda, .., lambda^(d-1) (`measure_spectrum`).

Every read of the fixed point slices one buffer per d, grown by copying its
own prefix: sigma^(a+1)(1) = sigma^a(1) sigma^(a-d+1)(1) for a >= d - 1, as
sigma^a(2) = sigma^(a-d+1)(1).  Every read of its factors, of any length,
slices one factor index per d (`FactorIndex`), grown the same way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .algnum import _int64, trinomial_powers, trinomial_root

Word = bytes


def distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique of a 1-D array, or of the rows of a 2-D one, with the first
    index and the inverse, from one sort and a compare of neighbours;
    np.unique would import numpy.ma on its first call."""
    order = np.argsort(a) if a.ndim == 1 else np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = s[1:] != s[:-1] if a.ndim == 1 else (s[1:] != s[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, starts) if len(a) else starts   # the sort is not stable
    return s[starts], first, inverse


_DIGITS = [str(c) for c in range(256)]


def word_str(w: Word) -> str:
    """Digit string for reports, e.g. b"\\x01\\x02" -> "12"."""
    return "".join(map(_DIGITS.__getitem__, w))


class Substitution:
    """A non-erasing substitution letter -> word on letters 1..d.

    sigma(w) is one ``bytes.translate`` that maps every letter with a
    one-letter image to that image and every letter with a longer image to a
    marker byte outside 1..d, followed by one ``bytes.replace`` per marker.
    """

    def __init__(self, images: dict[int, Word]):
        self.d = d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError("letters must be 1..d")
        self._letters = bytes(range(1, d + 1))
        for a, img in images.items():
            if len(img) == 0:
                raise ValueError(f"empty image for letter {a}")
            if img.translate(None, self._letters):
                raise ValueError(f"image of {a} leaves alphabet")
        self.images = dict(images)
        long = [a for a in sorted(images) if len(images[a]) > 1]
        markers = [b for b in range(256) if not 1 <= b <= d]
        if len(long) > len(markers):
            raise ValueError(
                f"{len(long)} images longer than one letter, at most {len(markers)} fit"
            )
        table = bytearray(range(256))
        for a, img in images.items():
            if len(img) == 1:
                table[a] = img[0]
        for a, marker in zip(long, markers):
            table[a] = marker
        self._table = bytes(table)
        self._expand = [(bytes([marker]), images[a]) for a, marker in zip(long, markers)]

    def __call__(self, w: Word) -> Word:
        self._check_word(w)
        out = w.translate(self._table)
        for marker, img in self._expand:
            out = out.replace(marker, img)
        return out

    def iterate(self, w: Word, n: int) -> Word:
        for _ in range(n):
            w = self(w)
        return w

    def _check_word(self, w: Word) -> None:
        bad = w.translate(None, self._letters)
        if bad:
            raise ValueError(f"letter {bad[0]} outside alphabet 1..{self.d}")

    def incidence_matrix(self) -> np.ndarray:
        """M[i,j] = number of occurrences of letter i+1 in the image of j+1."""
        m = np.zeros((self.d, self.d), dtype=np.int64)
        for j in range(1, self.d + 1):
            for c in self.images[j]:
                m[c - 1, j - 1] += 1
        return m


@lru_cache(maxsize=None)
def family_substitution(d: int) -> Substitution:
    """The d-letter member: 1 -> 12, k -> k+1 for 2 <= k <= d-1, d -> 1."""
    if d < 3:
        raise ValueError("family needs d >= 3")
    images = {1: bytes([1, 2]), d: bytes([1])}
    for k in range(2, d):
        images[k] = bytes([k + 1])
    return Substitution(images)


@lru_cache(maxsize=None)
def _power_lengths(d: int) -> tuple[int, ...]:
    """|sigma^a(1)| for a = 0, 1, .. up to the first one past 2^63: a + 1
    up to a = d - 1, then |sigma^(a+1)(1)| = |sigma^a(1)| + |sigma^(a-d+1)(1)|."""
    out = list(range(1, d + 1))
    while out[-1] <= 1 << 63:
        out.append(out[-1] + out[-d])
    return tuple(out)


# d -> (a, sigma^a(1)): the buffer every read of the fixed point slices
_fixed_points: dict[int, tuple[int, Word]] = {}


def _fixed_point(d: int, length: int) -> Word:
    """sigma^a(1) for the least a >= d - 1 that covers every request so far
    of d, so at most about lambda times the longest; it grows by appending
    its own prefix of |sigma^(a-d+1)(1)| letters."""
    if length < 0:
        raise ValueError(f"prefix length must be >= 0, got {length}")
    if d not in _fixed_points:
        family_substitution(d)   # refuses d < 3
        _fixed_points[d] = d - 1, bytes(range(1, d + 1))
    a, w = _fixed_points[d]
    if len(w) < length:
        lengths = _power_lengths(d)
        grown = bytearray(w)
        while len(grown) < length:
            grown += grown[: lengths[a - d + 1]]
            a += 1
        w = bytes(grown)
        _fixed_points[d] = a, w
    return w


def power_image(d: int, k: int) -> Word:
    """sigma^k(1), the building block of fixed-point prefixes and branch labels."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    n = _power_lengths(d)[k]
    return _fixed_point(d, n)[:n]


def fixed_point_prefix(d: int, length: int) -> Word:
    """Prefix of the fixed point lim sigma^n(1); 1 is a prefix of sigma(1)."""
    return _fixed_point(d, length)[:length]


def fixed_point_letters(d: int, at: np.ndarray) -> np.ndarray:
    """The fixed point's letters at the indices `at` (from 0), read without
    copying a prefix."""
    if (at < 0).any():
        raise ValueError(f"letter index must be >= 0, got {at.min()}")
    return np.frombuffer(_fixed_point(d, int(at.max(initial=-1)) + 1), dtype=np.uint8)[at]


def shift_overlap(d: int, shift: int, upto: int) -> int:
    """Length of the common prefix of the fixed point and of its tail from
    `shift`, read on at most `upto` letters (so exact when below `upto`):
    the Z-value at `shift`, by one compare and an argmax past a sentinel."""
    text = np.frombuffer(_fixed_point(d, shift + upto), dtype=np.uint8)
    differ = np.append(text[shift:shift + upto] != text[:upto], True)
    return int(differ.argmax())


@lru_cache(maxsize=None)
def growth_root(d: int) -> float:
    """Real root > 1 of x^d = x^(d-1) + 1, the Perron value of the substitution."""
    return trinomial_root(d, d - 1)


# ---------------------------------------------------------------------------
# factors


def _packed(text: np.ndarray, span: int, bits: int) -> np.ndarray:
    """The `span` letters from each position of `text`, zeros past its end,
    as one int64 with the first letter highest, so that code order is word
    order; built by doubling the windows packed so far.  span * bits < 63."""
    code, have = text.astype(np.int64), 1
    while have < span:
        step = min(have, span - have)
        tail = code[step:] & ((1 << bits * step) - 1)
        code <<= bits * step
        code[: len(tail)] |= tail
        have += step
    return code


def _rank_rounds(text: np.ndarray, m: int, n: int, kept: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rank doubling (Karp, Miller and Rosenberg, STOC 1972) of the length-m
    windows at positions 0..n-1 of `text`, the text read as followed by zeros.

    Returns (order, ranks) of its last round: the ranks of the n windows,
    dense from 1 in word order, with ranks[n] = 0 for the empty window, and
    the order that sorts the positions by them.  With a list `kept`, each
    round's (span, ranks) is appended to it, the ranks in the narrowest
    dtype that holds them; the rounds before the last rank every position.
    The first 62 // bits letters are packed into an int64 (`_packed`); a
    window of length s + t, t <= s, is then the pair of the ranks of its
    s-blocks at 0 and t, ranked by one sort.  Each round's keys, order and
    ranks go before the next sort.
    """
    bits = int(text.max()).bit_length()
    span = min(m, 62 // bits)   # 62 // bits letters fit in an int64
    key = _packed(text, span, bits)
    while True:
        if span == m:
            key = key[:n]
        order = np.argsort(key)
        s = key[order]
        del key
        new = np.ones(len(s), dtype=bool)
        new[1:] = s[1:] != s[:-1]
        del s
        ranks = np.zeros(len(new) + 1, dtype=np.intp)
        ranks[order] = np.cumsum(new)
        del new
        if kept is not None:
            kept.append((span, ranks.astype(np.min_scalar_type(int(ranks.max())))))
        if span == m:
            return order, ranks
        del order
        step = min(span, m - span)
        key, tail = ranks[:-1] * np.int64(ranks.max() + 1), ranks[step:-1]
        key[: len(tail)] += tail
        del ranks, tail
        span += step


def _window_firsts(text: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (first, inverse) of `distinct` on the length-m windows of `text`,
    m >= 1, from `_rank_rounds`: window i's word first occurs at
    first[inverse[i]]."""
    order, ranks = _rank_rounds(text, m, len(text) - m + 1)
    inverse = ranks[:-1] - 1
    return np.minimum.reduceat(order, np.flatnonzero(np.diff(inverse[order], prepend=-1))), inverse


_MIN_CAP = 64   # the least cap of a factor index: the words suite reads lengths up to 61


@dataclass(frozen=True, eq=False)
class FactorIndex:
    """The first `size` letters of the fixed point, as their suffixes sorted
    by their first `cap` letters (a suffix that ends sorts before any of its
    extensions): `order` holds the positions in that order, `rank` the slot
    of each position, and lcp[k] the length of the longest common prefix of
    the suffixes in slots k - 1 and k, at most `cap` (lcp[0] = -1: none
    comes before).  So the length-m windows, m <= cap, fall into the runs of
    lcp >= m, one run per word (U. Manber and G. Myers, SIAM J. Comput.
    22(5), 1993)."""

    size: int
    cap: int
    order: np.ndarray
    rank: np.ndarray
    lcp: np.ndarray

    def classes(self, m: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least position in each run of lcp >= m, where its length-m
        word first occurs, and that of the run of each position in `at`.  A
        run whose least position is past size - m is one suffix shorter than m."""
        heads = np.flatnonzero(self.lcp < m)
        first = np.minimum.reduceat(self.order, heads)
        return first, first[np.searchsorted(heads, self.rank[at], side="right") - 1]


def _leading_letters(x: np.ndarray, span: int, bits: int) -> np.ndarray:
    """The number of leading letters two `span`-letter codes share, from
    their xor x: span less the letters from its highest set bit down.  The
    bit length is read off two exact float halves of 31 bits."""
    high, low = x >> 31, x & ((1 << 31) - 1)
    length = np.where(high > 0, 31 + np.frexp(high.astype(float))[1],
                      np.frexp(low.astype(float))[1])
    return span - (length + bits - 1) // bits


def _build_index(d: int, size: int, cap: int) -> FactorIndex:
    """The factor index of the first `size` letters, `cap` a power of two.

    The suffixes are sorted by `_rank_rounds` to length `cap`, keeping each
    round's ranks until the lift reads them.  The lcp of each suffix i and
    the one sorted just before it, p, is lifted over the kept rounds from
    the longest span down: a block is taken whenever both share it, as each
    span is at most twice the next one down, and the last letters come from
    the packed codes of the shortest span.  T. Kasai et al. (CPM 2001,
    LNCS 2089) find the same column in one sequential pass; taken by
    position i, half of the reads here are sequential too.  Two suffixes
    share no block past their ends, which differ, and the smallest suffix
    is paired with the empty one.
    """
    text = np.frombuffer(_fixed_point(d, size), dtype=np.uint8)[:size]
    kept: list = []
    order = _rank_rounds(text, cap, size, kept)[0].astype(np.int32)
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    i = np.arange(size, dtype=np.int32)
    p = np.append(np.int32(size), order[:-1])[rank]   # the empty suffix before the smallest
    lcp = np.zeros(size, dtype=np.int32)
    bits, span = int(text.max()).bit_length(), kept[0][0]
    while kept:   # each round's ranks are freed once read
        step, ranks = kept.pop()
        np.add(lcp, step, out=lcp, where=ranks[i + lcp] == ranks[p + lcp])
    code = np.append(_packed(text, span, bits), 0)
    lcp += _leading_letters(code[i + lcp] ^ code[p + lcp], span, bits).astype(np.int32)
    lcp = np.minimum(lcp[order], cap)
    lcp[0] = -1
    return FactorIndex(size, cap, order, rank, lcp)


# d -> the factor index every read of the factors of d slices
_indexes: dict[int, FactorIndex] = {}


def factor_index(d: int, m: int, size: int) -> FactorIndex:
    """The factor index of d, rebuilt over `size` letters or more, and a cap
    of m or more, when the one kept falls short: the cap is the least power
    of two from `_MIN_CAP` on that holds m, and neither the cap nor the
    prefix ever shrinks."""
    index = _indexes.get(d)
    if index is None or index.cap < m or index.size < size:
        cap = max(_MIN_CAP, 1 << (m - 1).bit_length())
        if index is not None:
            cap, size = max(cap, index.cap), max(size, index.size)
        index = _indexes[d] = _build_index(d, size, cap)
    return index


def window_classes(d: int, m: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each length-m factor of the fixed point first occurs, ascending,
    and where the window at each position in `at` does.

    The windows of sigma^a(1) are read from the factor index until those
    before |sigma^a(1)| - m + 1 show no factor that those before
    |sigma^(a-1)(1)| - m + 1 do not.  The index reads at least one past the
    least sigma^a(1) that holds `at`, where the rule stops if `at` shows
    every factor, or with no `at`, b + 2d - 1 for the least |sigma^b(1)| >=
    max(m, _MIN_CAP), where it stopped for d = 3..13, m <= 3000.  A longer
    prefix stops the rule at the same a.
    """
    _fixed_point(d, 0)   # refuses d < 3
    lengths = _power_lengths(d)
    lo = max(bisect_left(lengths, m), 1)
    hi = (max(lo + 1, bisect_left(lengths, int(at.max()) + m) + 1) if len(at)
          else bisect_left(lengths, max(m, _MIN_CAP)) + 2 * d - 1)
    while True:
        index = factor_index(d, m, lengths[hi])
        first, at_first = index.classes(m, at)
        starts = np.sort(first[first <= index.size - m])
        top = bisect_right(lengths, index.size) - 1
        found = np.searchsorted(starts, [lengths[a] - m + 1 for a in range(lo, top + 1)])
        stable = np.flatnonzero(found[1:] == found[:-1])
        if len(stable):
            return starts[: found[stable[0]]], at_first
        hi = bisect_left(lengths, 2 * lengths[top])


@lru_cache(maxsize=None)
def _factor_starts(d: int, n: int) -> tuple[int, ...]:
    return tuple(window_classes(d, n, np.zeros(0, dtype=np.int64))[0].tolist())


def complexity(d: int, n: int) -> int:
    return len(_factor_starts(d, n))


def bispecials(d: int, n: int) -> list[Word]:
    """The bispecial factors of length n, in increasing order.

    The length-n windows at the starts S of the length-(n+1) factors, and
    at S + 1, are classed by the factor index: a class begins as many
    length-(n+1) factors as it has right extensions, and ends as many as
    it has left ones.  Only a class with two of each is spelled out.
    """
    starts = np.array(_factor_starts(d, n + 1))
    index = factor_index(d, n, int(starts[-1]) + n + 1)
    _, cls = index.classes(n, np.concatenate([starts, starts + 1]))
    right, left = (np.bincount(c, minlength=int(cls.max()) + 1) for c in np.split(cls, 2))
    text = _fixed_point(d, int(starts[-1]) + n + 1)
    return sorted(text[c : c + n] for c in np.flatnonzero((right >= 2) & (left >= 2)).tolist())


def bispecials_by_generation(d: int, max_len: int) -> list[Word]:
    """Bispecial factors up to max_len, grown by the substitution step.

    Each bispecial v yields the next one as sigma(v), extended by the
    letter 1 exactly when v ends with d-1.  Seeded with the word 1.
    """
    sub = family_substitution(d)
    out: list[Word] = []
    u = bytes([1])
    while len(u) <= max_len:
        out.append(u)
        nxt = sub(u)
        if u[-1] == d - 1:
            nxt += bytes([1])
        if len(nxt) == len(u):  # safety: would loop forever
            raise RuntimeError("bispecial generation stalled")
        u = nxt
    return out


# ---------------------------------------------------------------------------
# cylinder measures


def _induced_matrix(d: int, m: int) -> tuple[list[Word], np.ndarray]:
    """The length-m factors, sorted, and the matrix of the induced
    substitution sigma_m on them: column w counts the length-m factors of
    sigma(w) that start inside sigma(w[0])."""
    starts = _factor_starts(d, m)
    text = _fixed_point(d, starts[-1] + m)
    factors = sorted(text[i : i + m] for i in starts)
    index = {w: k for k, w in enumerate(factors)}
    sub = family_substitution(d)
    matrix = np.zeros((len(factors), len(factors)), dtype=np.int64)
    for k, w in enumerate(factors):
        image = sub(w)
        for i in range(len(sub.images[w[0]])):
            matrix[index[image[i : i + m]], k] += 1
    return factors, matrix


@lru_cache(maxsize=None)
def measure_spectrum(d: int, m: int) -> tuple[MappingProxyType, tuple[str, ...]]:
    """The exponent j with mu(C_u) = lambda^-j of each length-m factor u,
    in word order and read-only (every caller shares the cached result),
    and the texts of the certificate's failures.

    The frequencies of the length-m factors are the Perron vector of
    sigma_m (M. Queffelec, Substitution Dynamical Systems, LNM 1294, ch. 5).
    numpy's Perron vector only proposes each j.  With J the largest and
    P[k] the row of lambda^k, the proof is in integers: M P[J - j] =
    P[J + 1 - j] is M v = lambda v for v = lambda^-j, and the rows P[J - j]
    summing to P[J] is sum v = 1.  Both hold modulo x^d - x^(d-1) - 1, so
    at lambda, even where that trinomial is reducible (d = 5 mod 6).  A
    positive eigenvector of a nonnegative matrix belongs to its spectral
    radius, and sigma_m is primitive, so a pass proves that the lambda^-j
    are the measures.
    """
    factors, matrix = _induced_matrix(d, m)
    vals, vecs = np.linalg.eig(matrix.astype(float))
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    j = np.rint(np.log(v.sum() / v) / np.log(growth_root(d))).astype(np.int64)
    top = int(j.max())
    powers = _int64(trinomial_powers(d, d - 1, top + 1)[:top + 2], int(matrix.sum()))
    wrong = (matrix @ powers[top - j] != powers[top + 1 - j]).any(axis=1)
    failures = [f"m={m}: (M v)_u != lambda v_u at u = {word_str(factors[k])}"
                for k in np.flatnonzero(wrong).tolist()]
    if (powers[top - j].sum(axis=0) != powers[top]).any():
        failures.append(f"m={m}: the {len(factors)} measures lambda^-j do not sum to 1")
    return MappingProxyType(dict(zip(factors, j.tolist()))), tuple(failures)


def expected_class_count(d: int, m: int) -> int:
    """d for m = 1, 2d-2 when a bispecial factor of length m-1 exists, else 2d-1."""
    if m == 1:
        return d
    lens = {len(b) for b in bispecials_by_generation(d, m - 1)}
    return 2 * d - 2 if (m - 1) in lens else 2 * d - 1
