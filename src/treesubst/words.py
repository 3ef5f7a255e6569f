"""Word combinatorics of the substitution family 1 -> 12, k -> k+1, d -> 1.

Words over the alphabet {1, .., d} are stored as ``bytes`` whose entries are
the letters themselves (so b"\\x01\\x02" is the word 12).  The module knows
how to iterate the substitution, enumerate the language of the fixed point
with certified stabilization, classify special factors, and estimate
cylinder measures by sliding-window frequencies.

The estimates count the windows of a long fixed-point prefix at numpy
speed: a window of length m is read as an m-digit integer in base d+1,
so equal windows get equal codes and code order is word order, and
``np.unique`` counts the codes block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algnum import trinomial_root

Word = bytes


def word_str(w: Word) -> str:
    """Digit string for reports, e.g. b"\\x01\\x02" -> "12"."""
    return "".join(str(c) for c in w)


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
def power_image(d: int, k: int) -> Word:
    """sigma^k(1), the building block of fixed-point prefixes and branch labels."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    return family_substitution(d)(power_image(d, k - 1)) if k else bytes([1])


@lru_cache(maxsize=8)
def _fixed_point_cache(d: int, min_len: int) -> Word:
    sub = family_substitution(d)
    w = bytes([1])
    while len(w) < min_len:
        w = sub(w)
    return w


def fixed_point_prefix(d: int, length: int) -> Word:
    """Prefix of the fixed point lim sigma^n(1); 1 is a prefix of sigma(1)."""
    if length < 0:
        raise ValueError(f"prefix length must be >= 0, got {length}")
    # round the cache key up so repeated close requests share one expansion
    min_len = 1
    while min_len < length:
        min_len *= 4
    return _fixed_point_cache(d, min_len)[:length]


@lru_cache(maxsize=None)
def growth_root(d: int) -> float:
    """Real root > 1 of x^d = x^(d-1) + 1, the Perron value of the substitution."""
    return trinomial_root(d, d - 1)


# ---------------------------------------------------------------------------
# language enumeration


@lru_cache(maxsize=None)
def _stable_factors(d: int, n: int) -> frozenset[Word]:
    """All length-n factors of the fixed point, by double stabilization.

    Iterate sigma^N(1) until the window set of length n agrees for two
    consecutive N; factors of shorter length are prefixes of these.
    """
    sub = family_substitution(d)
    w = bytes([1])
    prev: set[Word] | None = None
    while True:
        w = sub(w)
        if len(w) < n:
            continue
        cur = {w[i : i + n] for i in range(len(w) - n + 1)}
        if cur == prev:
            return frozenset(cur)
        prev = cur


def factors(d: int, n: int) -> set[Word]:
    if n == 0:
        return {b""}
    return set(_stable_factors(d, n))


def complexity(d: int, n: int) -> int:
    return len(factors(d, n))


@dataclass
class LanguageTable:
    """Length-n slice of the language with its special factors."""

    d: int
    n: int
    factors: list[Word]
    left_special: list[Word]
    right_special: list[Word]
    bispecial: list[Word]


def language(d: int, n: int) -> LanguageTable:
    """Factors of length n classified by extendability inside the language."""
    if n < 1:
        raise ValueError("n >= 1 required")
    fac = sorted(factors(d, n))
    ext = factors(d, n + 1)
    left, right = [], []
    for u in fac:
        if sum(1 for a in range(1, d + 1) if bytes([a]) + u in ext) >= 2:
            left.append(u)
        if sum(1 for b in range(1, d + 1) if u + bytes([b]) in ext) >= 2:
            right.append(u)
    bis = [u for u in left if u in set(right)]
    return LanguageTable(d, n, fac, left, right, bis)


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

DEFAULT_PREFIX_LEN = 10**6


_BLOCK = 1 << 16   # window positions coded per np.unique call
_CODE_MAX = np.iinfo(np.int64).max


@lru_cache(maxsize=None)
def _window_counts(d: int, m: int, prefix_len: int) -> tuple[tuple[Word, int], ...]:
    """(window, count) over the length-m windows at positions < prefix_len, sorted.

    Each block of positions reads its windows as base-(d+1) integers, one
    digit per letter, so equal windows get equal codes and code order is
    word order.  Before a code could overflow int64 it is replaced by its
    rank among the block's codes, which keeps both.
    """
    text = fixed_point_prefix(d, prefix_len + m)
    arr = np.frombuffer(text, dtype=np.uint8)
    base = d + 1
    counts: dict[Word, int] = {}
    for start in range(0, prefix_len, _BLOCK):
        n = min(_BLOCK, prefix_len - start)
        codes = np.zeros(n, dtype=np.int64)
        bound = 1   # codes < bound
        for k in range(start, start + m):
            if bound > _CODE_MAX // base:
                codes[:] = np.unique(codes, return_inverse=True)[1]
                bound = n
            codes *= base
            codes += arr[k : k + n]
            bound *= base
        uniq, hits = np.unique(codes, return_counts=True)
        # any position of each code will do; the first ones need a slower stable sort
        where = np.empty(len(uniq), dtype=np.intp)
        where[np.searchsorted(uniq, codes)] = np.arange(start, start + n)
        for i, c in zip(where.tolist(), hits.tolist()):
            key = text[i : i + m]
            counts[key] = counts.get(key, 0) + c
    return tuple(sorted(counts.items()))


@dataclass
class MeasureSpectrum:
    d: int
    m: int
    values: list[float]          # distinct snapped measures, descending
    class_count: int
    snapped_exponents: dict[Word, int]   # cylinder word -> j with measure ~ lambda^-j
    max_residual: float          # worst |estimate - lambda^-j|

    def ok(self, tol: float) -> bool:
        return self.max_residual < tol


def measure_spectrum(d: int, m: int, prefix_len: int = DEFAULT_PREFIX_LEN,
                     max_exponent: int = 40) -> MeasureSpectrum:
    """Estimated measures of all length-m cylinders, snapped to powers of lambda.

    Snapping picks the nearest lambda^-j with j <= max_exponent; the worst
    residual is reported so callers can reject a failed snap.
    """
    lam = growth_root(d)
    powers = [lam**-j for j in range(max_exponent + 1)]
    snapped: dict[Word, int] = {}
    worst = 0.0
    for u, count in _window_counts(d, m, prefix_len):
        est = count / prefix_len
        j = min(range(max_exponent + 1), key=lambda k: abs(powers[k] - est))
        snapped[u] = j
        worst = max(worst, abs(powers[j] - est))
    values = sorted({powers[j] for j in snapped.values()}, reverse=True)
    return MeasureSpectrum(d, m, values, len(values), snapped, worst)


def expected_class_count(d: int, m: int) -> int:
    """d for m = 1, 2d-2 when a bispecial factor of length m-1 exists, else 2d-1."""
    if m == 1:
        return d
    lens = {len(b) for b in bispecials_by_generation(d, m - 1)}
    return 2 * d - 2 if (m - 1) in lens else 2 * d - 1


def measure_recursion_gap(d: int, max_len: int = 4,
                          prefix_len: int = DEFAULT_PREFIX_LEN) -> float:
    """Worst |mu(C_u) - lambda * mu(C_sigma(u))| over short cylinders.

    Only factors whose last letter is not d qualify: sigma maps exactly the
    occurrences of u onto the occurrences of sigma(u) in that case.
    """
    sub = family_substitution(d)
    lam = growth_root(d)
    worst = 0.0
    for m in range(1, max_len + 1):
        counts = dict(_window_counts(d, m, prefix_len))
        for u in sorted(counts):
            if u[-1] == d:
                continue
            v = sub(u)
            image_counts = dict(_window_counts(d, len(v), prefix_len))
            a = counts[u] / prefix_len
            b = image_counts.get(v, 0) / prefix_len
            worst = max(worst, abs(a - lam * b))
    return worst
