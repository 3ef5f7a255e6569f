"""Word-level facts: fixed point, language, bispecials, cylinder measures."""

import hashlib
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesubst import verify, words
from treesubst.words import (
    Substitution,
    _factor_starts,
    _fixed_point,
    _induced_matrix,
    _power_lengths,
    bispecials,
    bispecials_by_generation,
    complexity,
    distinct,
    expected_class_count,
    family_substitution,
    fixed_point_letters,
    fixed_point_prefix,
    growth_root,
    measure_spectrum,
    power_image,
    window_classes,
    word_str,
)

_BLOCK = 1 << 16   # window positions coded and sorted at once by _block_scan
_CODE_MAX = np.iinfo(np.int64).max


def factors(d, n):
    """The length-n factors spelled out from the first occurrences that
    `window_classes` ranks."""
    starts = _factor_starts(d, n)
    text = _fixed_point(d, starts[-1] + n)
    return {text[i : i + n] for i in starts}


def _block_scan(d, m, prefix_len):
    """(window, count) over the length-m windows at positions < prefix_len,
    sorted, by a numpy scan: the counts of the prefix estimate that the
    measure certificate replaced, kept as its oracle.  Each block of
    positions reads its windows as base-(d+1) integers, one digit per
    letter, so equal windows get equal codes and code order is word order.
    Before a code could overflow int64 it is replaced by its rank among the
    block's codes."""
    text = fixed_point_prefix(d, prefix_len + m)
    arr = np.frombuffer(text, dtype=np.uint8)
    base = d + 1
    counts = Counter()
    for start in range(0, prefix_len, _BLOCK):
        n = min(_BLOCK, prefix_len - start)
        codes = np.zeros(n, dtype=np.int64)
        bound = 1   # codes < bound
        for k in range(start, start + m):
            if bound > _CODE_MAX // base:
                codes[:] = distinct(codes)[2]
                bound = n
            codes *= base
            codes += arr[k : k + n]
            bound *= base
        _, first, inverse = distinct(codes)
        for i, c in zip(first.tolist(), np.bincount(inverse).tolist()):
            counts[text[start + i : start + i + m]] += c
    return tuple(sorted(counts.items()))


def test_family_images():
    sub = family_substitution(3)
    assert sub.images == {1: b"\x01\x02", 2: b"\x03", 3: b"\x01"}
    sub4 = family_substitution(4)
    assert sub4.images == {1: b"\x01\x02", 2: b"\x03", 3: b"\x04", 4: b"\x01"}


def test_power_image_iterates_the_substitution():
    for d in (3, 4, 5):
        sub = family_substitution(d)
        for k in range(13):
            assert power_image(d, k) == sub.iterate(b"\x01", k)
    with pytest.raises(ValueError):
        power_image(3, -1)


def test_fixed_point_letters_read_the_prefix():
    for d in (3, 4):
        text = fixed_point_prefix(d, 500)
        at = np.array([0, 7, 499, 3, 3], dtype=np.int64)
        assert fixed_point_letters(d, at).tolist() == [text[i] for i in at.tolist()]
        assert fixed_point_letters(d, at[:0]).tolist() == []
    with pytest.raises(ValueError, match="letter index must be >= 0, got -1"):
        fixed_point_letters(3, np.array([4, -1]))


def test_family_rejects_small_d():
    with pytest.raises(ValueError):
        family_substitution(2)


def test_substitution_application():
    sub = family_substitution(3)
    assert word_str(sub(b"\x01")) == "12"
    assert word_str(sub.iterate(b"\x01", 4)) == "1231121231"[:6]
    assert sub.iterate(b"\x01", 0) == b"\x01"


def test_fixed_point_prefix_is_fixed():
    for d in (3, 4):
        sub = family_substitution(d)
        w = fixed_point_prefix(d, 300)
        assert sub(w)[:300] == w
    assert word_str(fixed_point_prefix(3, 15)) == "123112123123112"


def test_incidence_matrix():
    m = family_substitution(3).incidence_matrix()
    assert m.tolist() == [[1, 0, 1], [1, 0, 0], [0, 1, 0]]
    for mat in (m, m.T):   # right, then left Perron vector
        vals, vecs = np.linalg.eig(mat.astype(float))
        top = int(np.argmax(vals.real))
        assert abs(vals[top] - growth_root(3)) < 1e-12
        vec = vecs[:, top].real
        assert np.all(vec / vec.sum() > 0)


def test_factor_counts():
    for d in (3, 4):
        for n in (1, 2, 5, 9):
            assert len(factors(d, n)) == (d - 1) * n + 1
            assert complexity(d, n) == (d - 1) * n + 1


def test_factors_are_closed_under_subwords():
    fs = factors(3, 6)
    shorter = factors(3, 5)
    for w in fs:
        assert w[1:] in shorter and w[:-1] in shorter


def test_bispecial_generations():
    bs = bispecials_by_generation(3, 60)
    assert [len(b) for b in bs[:5]] == [1, 2, 4, 6, 10]
    assert word_str(bs[0]) == "1"
    assert word_str(bs[2]) == "1231"
    # each bispecial extends the previous one on the right
    for a, b in zip(bs, bs[1:]):
        assert b[: len(a)] == a


def test_bispecials_are_actually_bispecial():
    for w in bispecials_by_generation(3, 20):
        longer = factors(3, len(w) + 1)
        lefts = {v[0] for v in longer if v[1:] == w}
        rights = {v[-1] for v in longer if v[:-1] == w}
        assert len(lefts) >= 2 and len(rights) >= 2, word_str(w)


def test_cylinder_measures_sum_to_one():
    lam = growth_root(3)
    for m in (1, 2, 3):
        exponents, failures = measure_spectrum(3, m)
        assert failures == () and set(exponents) == factors(3, m)
        assert abs(sum(lam ** -j for j in exponents.values()) - 1.0) < 1e-12


def test_measure_spectrum_snaps():
    exponents, failures = measure_spectrum(3, 2)
    assert failures == ()
    # the five cylinders fall in four classes, lambda^-3 .. lambda^-6
    assert sorted(set(exponents.values())) == [3, 4, 5, 6] and expected_class_count(3, 2) == 4
    assert list(exponents) == sorted(exponents)   # word order


def test_class_count_m4_not_determined():
    assert len(set(measure_spectrum(3, 4)[0].values())) == 5 == expected_class_count(3, 4)


def test_measure_recursion():
    assert verify.measure_recursion(3, 3) == []
    sub = family_substitution(3)
    exponents, images = measure_spectrum(3, 2)[0], measure_spectrum(3, 3)[0]
    assert images[sub(b"\x01\x02")] == exponents[b"\x01\x02"] + 1


@pytest.mark.parametrize("d, m", [(d, m) for d in (3, 4, 5) for m in range(1, 6)]
                         + [(3, 7), (3, 11)])
def test_certified_exponents_are_the_nearest_prefix_estimates(d, m):
    # the float estimate the certificate replaced, kept as its oracle: the
    # window frequency over a 10^6-letter prefix is nearest lambda^-j
    lam, n = growth_root(d), 10**6
    exponents, failures = measure_spectrum(d, m)
    assert failures == ()
    top = max(exponents.values()) + 5
    nearest = {u: min(range(top), key=lambda j: abs(lam**-j - c / n))
               for u, c in _block_scan(d, m, n)}
    assert nearest == exponents


@pytest.mark.parametrize("d", range(3, 25))
def test_words_suite_passes_across_the_family(d):
    # 23 (and 5, 11, 17) make x^d - x^(d-1) - 1 reducible, and from 14 on the
    # exponents pass the old snap's cap of 40
    assert [r.name for r in verify.run_suite("words", d) if r.status != "pass"] == []


def test_word_round_trip():
    assert word_str(bytes(int(c) for c in "1231")) == "1231"


def test_substitution_rejects_bad_letters():
    sub = family_substitution(3)
    with pytest.raises(ValueError):
        sub(b"\x05")
    with pytest.raises(ValueError):
        Substitution({1: b"\x01", 2: b""})


def test_substitution_validates_with_value_error():
    with pytest.raises(ValueError, match="letters must be 1..d"):
        Substitution({1: b"\x01", 3: b"\x01"})
    with pytest.raises(ValueError, match="leaves alphabet"):
        Substitution({1: b"\x01\x03", 2: b"\x01"})
    with pytest.raises(ValueError, match="at most 1 fit"):
        Substitution({a: bytes([1, a]) for a in range(1, 256)})
    with pytest.raises(ValueError, match="letter 7 outside alphabet 1..3"):
        family_substitution(3)(b"\x01\x07\x00")


@settings(max_examples=60, deadline=None)
@example(d=3, m=40, prefix_len=2 * _BLOCK)
@example(d=6, m=30, prefix_len=_BLOCK + 1)
# both sides of where the block scan rounded m up to a multiple of 16
@example(d=3, m=15, prefix_len=_BLOCK + 5)
@example(d=4, m=16, prefix_len=2 * _BLOCK - 1)
@example(d=5, m=17, prefix_len=_BLOCK)
@example(d=3, m=33, prefix_len=3 * _BLOCK)
# prefix_len + 5 stays below 4^8 letters, where the expansion used to round
# up, and prefix_len + 16 does not
@example(d=3, m=5, prefix_len=4**8 - 10)
@given(
    d=st.integers(3, 6),
    m=st.integers(1, 40),
    prefix_len=st.integers(1, 3 * _BLOCK),
)
def test_window_counts_match_counter(d, m, prefix_len):
    # the block scan is the prefix-estimate oracle of the measure tests
    text = fixed_point_prefix(d, prefix_len + m)
    want = Counter(text[i : i + m] for i in range(prefix_len))
    assert _block_scan(d, m, prefix_len) == tuple(sorted(want.items()))


@pytest.mark.parametrize("d", range(3, 9))
def test_window_counts_at_the_seams(d):
    # the windows starting in sigma^a(1) = sigma^a(x[0]) are sigma_m^a of the
    # fixed point's first length-m factor, so at each seam l_a = |sigma^a(1)|
    # their counts are M_m^a applied to that factor's column
    top = 2 * 10**5
    for m in (1, 11, 16, 17, 40):
        facs, matrix = _induced_matrix(d, m)
        text = fixed_point_prefix(d, top + m)
        col = np.zeros(len(facs), dtype=np.int64)
        col[facs.index(text[:m])] = 1
        want, at = Counter(), 0   # the windows at positions < at
        for n in _power_lengths(d):
            if n > top:
                break
            want.update(text[i : i + m] for i in range(at, n))
            at = n
            assert dict(zip(facs, col.tolist())) == {u: want[u] for u in facs}, (d, m, n)
            col = matrix @ col


def test_fixed_point_buffer_holds_every_power_image():
    for d in range(3, 11):
        sub = family_substitution(d)
        w = b"\x01"
        for a, n in enumerate(_power_lengths(d)):
            if n > 10**5:
                break
            assert fixed_point_prefix(d, n) == power_image(d, a) == w, (d, a)
            w = sub(w)
    with pytest.raises(ValueError, match="family needs d >= 3"):
        fixed_point_prefix(2, 5)


def _language_by_membership(d, n):
    """The special factors of length n by testing each letter extension."""
    fac = sorted(factors(d, n))
    ext = factors(d, n + 1)
    left = [u for u in fac if sum(bytes([a]) + u in ext for a in range(1, d + 1)) >= 2]
    right = [u for u in fac if sum(u + bytes([b]) in ext for b in range(1, d + 1)) >= 2]
    return fac, left, right, [u for u in left if u in set(right)]


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 8), n=st.integers(0, 60))
@example(d=3, n=60)
@example(d=8, n=1)
def test_bispecials_match_membership_tests(d, n):
    assert bispecials(d, n) == _language_by_membership(d, n)[3]


@st.composite
def _substitutions(draw):
    """Non-erasing substitutions with at least two images longer than one letter."""
    d = draw(st.integers(2, 8))
    long = draw(st.sets(st.integers(1, d), min_size=2))
    letters = st.integers(1, d)
    images = {}
    for a in range(1, d + 1):
        size = draw(st.integers(2, 5)) if a in long else 1
        images[a] = bytes(draw(st.lists(letters, min_size=size, max_size=size)))
    return Substitution(images)


@given(sub=_substitutions(), data=st.data())
def test_substitution_matches_letterwise_join(sub, data):
    w = data.draw(st.lists(st.integers(1, sub.d), max_size=50).map(bytes))
    assert sub(w) == b"".join(sub.images[c] for c in w)
    assert sub.iterate(w, 3) == sub(sub(sub(w)))


# SHA-256 of fixed_point_prefix(d, 10**6 + 11) and of the repr of the
# (window, count) pairs of its length-11 windows at positions < 10**6, as
# produced by the letter-by-letter expansion and the pure-Python window count
# that the buffer and the block scan replaced
_PINNED = {
    3: ("7adfb710e0bcc9fbf1b20c9a1777ced7e701b362b2e163eab281d869ac74b0fa",
        "832e35ae1740005d91e7def9baf383659949b645df306379c78954c8a99ceb92"),
    4: ("9fa1fb3bf85c0cfb0d1bc5e2e605b636ad90234f96d8ff6ca82b94801069ee19",
        "1109b891216d29a10a6409a2c5f468c5f8ac9ef937dc7e2f55f88c5503a0dd18"),
    5: ("db23b960871e1fd3821b4f7765c61ef9c9b5092920a16bd15bdcfa78f24fc348",
        "9e1cdb8fb5b5b927a53dc0e21d882a45bfa49ed2f9b8689df08a7cc9a93f2d13"),
}


@pytest.mark.parametrize("d", sorted(_PINNED))
def test_prefix_and_window_counts_are_pinned(d):
    prefix_sha, counts_sha = _PINNED[d]
    assert hashlib.sha256(fixed_point_prefix(d, 10**6 + 11)).hexdigest() == prefix_sha
    counts = repr(_block_scan(d, 11, 10**6)).encode()
    assert hashlib.sha256(counts).hexdigest() == counts_sha


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=30),
       st.sampled_from(["ints", "rows", "strings", "bytes"]))
def test_distinct_is_np_unique(pairs, kind):
    rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    a = {"ints": rows[:, 0], "rows": rows,
         "strings": np.array([f"s{x}" for x in rows[:, 0]], dtype=str),
         "bytes": np.ascontiguousarray(rows.astype(np.uint8)).view("V2").ravel()}[kind]
    values, first, inverse = distinct(a)
    want = np.unique(a, axis=0 if kind == "rows" else None,
                     return_index=True, return_inverse=True)
    assert np.array_equal(values, want[0]) and np.array_equal(first, want[1])
    assert np.array_equal(inverse, want[2].ravel())


def stable_factors(d, n):
    """The length-n factors by the set-of-slices enumeration that
    `window_classes` replaced: read sigma^a(1) for growing a until the window
    set agrees for two consecutive a (only windows past sigma^(a-1)(1)'s
    can be new)."""
    lengths = _power_lengths(d)
    found, start = set(), 0
    for a in range(max(bisect_left(lengths, n), 1), len(lengths)):
        end = lengths[a] - n + 1
        w = fixed_point_prefix(d, lengths[a])
        before = len(found)
        found.update(w[i : i + n] for i in range(start, end))
        if len(found) == before:
            return found
        start = end


@pytest.mark.parametrize("d", range(3, 14))
def test_factors_match_the_set_of_slices(d):
    # every length bispecial-oracle reads, up to 61 for bispecials(d, 60)
    for n in range(62):
        assert factors(d, n) == stable_factors(d, n)
        assert complexity(d, n) == len(stable_factors(d, n))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(3, 6), m=st.integers(1, 80),
       at=st.lists(st.integers(0, 3000), min_size=1, max_size=40))
def test_window_classes_group_windows_as_their_bytes(d, m, at):
    starts, firsts = window_classes(d, m, np.array(at, dtype=np.int64))
    text = fixed_point_prefix(d, max(at + starts.tolist()) + m)
    words = [text[i : i + m] for i in at]
    # each window's class is where its word first occurs, so classes are
    # equal iff the words are, and the factors' first occurrences hold them
    assert firsts.tolist() == [text.find(w) for w in words]
    assert starts.tolist() == sorted(text.find(w) for w in stable_factors(d, m))


def _extensions(text, m):
    """The length-m windows of `text` by slicing, and how many letters
    extend each on the left and on the right inside `text`."""
    windows = {text[i : i + m] for i in range(len(text) - m + 1)}
    left, right = Counter(), Counter()
    for u in {text[i : i + m + 1] for i in range(len(text) - m)}:
        left[u[1:]] += 1
        right[u[:-1]] += 1
    return windows, left, right


@settings(max_examples=60, deadline=None)
@given(d=st.integers(3, 9), m=st.integers(1, 80),
       at=st.lists(st.integers(0, 3000), max_size=40))
@example(d=3, m=64, at=[])    # the longest length of the first index
@example(d=9, m=65, at=[0])   # past it: the cap doubles
@example(d=4, m=80, at=[3000])
def test_index_reads_match_every_window_of_its_prefix(d, m, at):
    starts, firsts = window_classes(d, m, np.array(at, dtype=np.int64))
    count, special = complexity(d, m), bispecials(d, m)
    # the index only grows, so its prefix holds every prefix read above
    text = fixed_point_prefix(d, words._indexes[d].size)
    windows, left, right = _extensions(text, m)
    assert starts.tolist() == sorted(text.find(u) for u in windows)
    assert count == len(windows)
    assert firsts.tolist() == [text.find(text[i : i + m]) for i in at]
    assert special == sorted(u for u in windows if left[u] >= 2 and right[u] >= 2)


def test_words_suite_ranks_once_per_index_build(monkeypatch):
    # every length the suite reads (up to 61) comes from one index per d,
    # each built by one rank doubling, where one doubling per length ran
    calls = Counter()

    def counted(name):
        real = getattr(words, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in ("_rank_rounds", "_build_index"):
        monkeypatch.setattr(words, name, counted(name))
    monkeypatch.setattr(words, "_indexes", {})
    _factor_starts.cache_clear()
    measure_spectrum.cache_clear()
    for d in (3, 4, 5):
        assert all(r.status == "pass" for r in verify.run_suite("words", d))
    assert calls["_rank_rounds"] == calls["_build_index"] == 3


def test_window_classes_refuse_a_prefix_past_the_limit(monkeypatch):
    # classes split at lcp <= m, one too many: at m = 64, the index's cap,
    # every position is a class of its own, so no two counts are equal and
    # the stopping rule doubles the prefix until it passes the limit, where
    # it is refused rather than grown until memory runs out
    monkeypatch.setattr(words, "MAX_PREFIX_LEN", 20_000)
    monkeypatch.setattr(words, "_indexes", {})
    none = np.zeros(0, dtype=np.int64)
    assert len(window_classes(3, 64, none)[0]) == 2 * 64 + 1   # the true classes settle below it

    def split(self, m, at):
        heads = np.flatnonzero(self.lcp <= m)
        first = np.minimum.reduceat(self.order, heads)
        return first, first[np.searchsorted(heads, self.rank[at], side="right") - 1]

    monkeypatch.setattr(words.FactorIndex, "classes", split)
    with pytest.raises(ValueError, match=r"^length-64 windows would read [0-9,]+ letters, "
                                         r"over the limit of 20,000$"):
        window_classes(3, 64, none)
    assert words._indexes[3].size <= 20_000
