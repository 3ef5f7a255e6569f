"""Reduced words, automorphisms, the p* projection, cancellation probes."""

import pytest

from treesubst.algnum import stretch_root
from treesubst.freegroup import (
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
