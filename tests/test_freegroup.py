"""Reduced words, automorphisms, the p* projection, cancellation probes."""

from itertools import chain
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesubst.algnum import ExactLength, stretch_root
from treesubst.core import _letter_columns, legal_path_distance
from treesubst.freegroup import (
    _color_images,
    cancellation_report,
    family_auto,
    family_inverse,
    from_positive,
    invert,
    nielsen_probe,
    p_star,
    reduce_word,
    tribonacci_inverse,
    word_text,
)


def iterate(auto, w, n):
    """The automorphism applied n times: the direct route of the address
    map's oracle."""
    for _ in range(n):
        w = auto(w)
    return w


def test_reduction():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([1, 2, -2, -1]) == ()
    assert reduce_word([1, 2, -2, 3]) == (1, 3)
    assert reduce_word([2, -3, 3, -2, 1]) == (1,)


def test_reduction_keeps_a_reduced_word_and_rejects_0():
    assert reduce_word((1, 2, -3, 1)) == (1, 2, -3, 1)
    assert reduce_word(iter([2, 2, -1])) == (2, 2, -1)
    assert reduce_word(()) == ()
    for w in ([0], [1, 0, 2], [1, -1, 0], [2, 0, -2]):
        with pytest.raises(ValueError, match="0 is not a letter"):
            reduce_word(w)


def test_invert_and_concat():
    w = (1, -2, 3)
    assert invert(w) == (-3, 2, -1)
    assert reduce_word(w + invert(w)) == ()
    assert reduce_word((1, 2) + (-2, 3)) == (1, 3)


def test_positive_round_trip():
    assert from_positive(b"\x01\x02") == (1, 2)


def test_word_text():
    assert word_text(()) == "e"
    assert word_text((-1, 2)) == "1⁻.2"


def test_family_auto_matches_substitution():
    auto = family_auto(3)
    assert auto.images == {1: (1, 2), 2: (3,), 3: (1,)}
    # sigma and its inverse compose to the identity on generators
    inv = family_inverse(3)
    for a in (1, 2, 3):
        assert inv(auto((a,))) == (a,)
        assert auto(inv((a,))) == (a,)


def test_automorphism_on_inverses():
    auto = family_auto(3)
    assert auto((-1,)) == (-2, -1)
    assert iterate(auto, (1,), 3) == (1, 2, 3, 1)


def test_p_star_letters():
    # colors up to d are generators, d+k expands to the image of sigma^k(1)
    assert p_star(3, (1,)) == (1,)
    assert p_star(3, (3,)) == (3,)
    assert p_star(3, (4,)) == (1, 2)
    assert p_star(3, (-4,)) == (-2, -1)
    assert p_star(4, (5,)) == (1, 2)
    assert p_star(4, (6,)) == (1, 2, 3)
    with pytest.raises(ValueError):
        p_star(3, (5,))


def _stack_reduce(letters):
    """The plain stack reduction, letter by letter."""
    stack = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _plain_p_star(d, tree_word):
    """p* by its definition: the images of the colors, stack-reduced."""
    images = _color_images(d)
    if bad := [c for c in tree_word if c not in images]:
        raise ValueError(f"color {abs(bad[0])} outside 1..{2 * d - 2}")
    return _stack_reduce(chain.from_iterable(images[c] for c in tree_word))


def _count_sums(d, w):
    """The legal length by two `tuple.count`s per letter."""
    counts = [w.count(k) + w.count(-k) for k in range(1, d + 1)]
    if sum(counts) != len(w):
        bad = next(x for x in w if not 1 <= abs(x) <= d)
        raise ValueError(f"letter {bad} outside 1..{d}")
    return ExactLength(d, tuple(sum(map(mul, counts, col)) for col in _letter_columns(d)))


def _outcome(f, *args):
    """f's value, or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# words over colors -6..6, 0 included, with cancelling pairs planted
_words = st.lists(st.one_of(st.tuples(st.integers(-6, 6)),
                            st.integers(1, 6).map(lambda x: (x, -x)),
                            st.integers(1, 6).map(lambda x: (-x, x))),
                  max_size=12).map(lambda parts: tuple(chain.from_iterable(parts)))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(3, 5), w=_words)
def test_fast_routes_agree_with_the_plain_ones(d, w):
    assert _outcome(reduce_word, w) == _outcome(reduce_word, iter(w)) == _outcome(_stack_reduce, w)
    assert _outcome(p_star, d, w) == _outcome(_plain_p_star, d, w)
    assert _outcome(legal_path_distance, d, w) == _outcome(_count_sums, d, w)
    core = tuple(x for x in w if 0 < abs(x) <= d)   # the words p* reads as their own images
    assert _outcome(p_star, d, core) == _outcome(_plain_p_star, d, core)


def test_fast_routes_keep_their_error_texts():
    with pytest.raises(ValueError, match="^0 is not a letter$"):
        reduce_word((1, 2, 0))
    with pytest.raises(ValueError, match=r"^color 0 outside 1\.\.4$"):
        p_star(3, (1, 0, 2))
    with pytest.raises(ValueError, match=r"^color 5 outside 1\.\.4$"):
        p_star(3, (1, -5))
    with pytest.raises(ValueError, match=r"^letter -4 outside 1\.\.3$"):
        legal_path_distance(3, (1, 2, -4))
    with pytest.raises(ValueError, match=r"^letter 0 outside 1\.\.3$"):
        legal_path_distance(3, (0,))


def test_inverse_growth_root():
    eta = stretch_root(3)
    assert abs(eta**3 - eta - 1) < 1e-12
    assert abs(eta - 1.3247179572) < 1e-9


def test_tribonacci_inverse_cancels_at_two():
    flags = cancellation_report(tribonacci_inverse(), [(3,)], 6)[(3,)]
    assert flags[0] is False and flags[1] is True


def test_nielsen_probe_persists():
    flags = cancellation_report(nielsen_probe(), [(1, 3)], 10)[(1, 3)]
    assert flags == [True] * 10


def test_family_inverse_never_cancels():
    for d in (3, 4, 5):
        inv = family_inverse(d)
        for a in range(1, d + 1):
            flags = cancellation_report(inv, [(a,)], 12)[(a,)]
            assert not any(flags), (d, a)
