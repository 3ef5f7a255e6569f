"""Prefix-suffix automaton, developments, and automatic writings."""

import pytest

from treesubst import verify
from treesubst.core import shared_scan
from treesubst.words import (
    _power_lengths, family_substitution, fixed_point_prefix, power_image, word_str,
)
from treesubst.prefix_suffix import (
    _targets,
    development_tail_word,
    is_admissible,
    length_writing,
    shift_development,
)


def test_automaton_states_and_transitions():
    targets = _targets(3)
    # one transition per (letter, position in its image)
    total = sum(len(img) for img in family_substitution(3).images.values())
    assert len(targets) == total == 4


def test_transition_labels_decompose_images():
    sub = family_substitution(3)
    for (p, a, s), b in _targets(3).items():
        # the label's middle letter is its source state, the target b the
        # letter whose image it decomposes
        assert p + bytes([a]) + s == sub.images[b]


def test_admissible_path_counts():
    # the admissible label sequences of length k are the k-step walks in the
    # automaton graph, a transition of source a following one of target a;
    # every other sequence of labels is rejected
    targets = _targets(3)
    labels = list(targets)
    walks = [[lab] for lab in labels]
    for k in range(1, 6):
        admissible = {tuple(w) for w in walks}
        every = [()]
        for _ in range(k):
            every = [seq + (lab,) for seq in every for lab in labels]
        assert {seq for seq in every if is_admissible(3, seq)} == admissible
        walks = [w + [lab] for w in walks for lab in labels if lab[1] == targets[w[-1]]]


def test_shift_development_tail():
    text = fixed_point_prefix(3, 120)
    for k in (0, 1, 5, 17, 40):
        dev = shift_development(3, k, 15)
        assert development_tail_word(3, dev, 60) == text[k : k + 60]


def automatic_writing(d, u):
    """The writing of `length_writing` read off the letters of u: peel from
    the left the largest sigma^a(1) no longer than what remains, refusing u
    at the first factor it does not start with, as not a prefix."""
    if u.translate(None, bytes(range(1, d + 1))):   # what is left after deleting 1..d
        raise ValueError("letters outside 1..d")
    exps = []
    pos, a = 0, 0
    while len(power_image(d, a + 1)) <= len(u):
        a += 1
    while pos < len(u):
        # what remains only shrinks, so the next exponent is at most this one
        while len(power_image(d, a)) > len(u) - pos:
            a -= 1
        top = power_image(d, a)
        if not u.startswith(top, pos):
            raise ValueError(f"{word_str(u)} is not a prefix of the fixed point")
        exps.append(a)
        pos += len(top)
    exps.reverse()
    return exps


@pytest.mark.parametrize("d", [3, 10, 14, 16, 20])
def test_development_tails_for_large_d(d):
    # a fixed depth of 20 levels spelled too few letters from d = 10 and
    # held no writing past sigma^19(1) from d = 15
    assert verify.development_tails(d, 40) == []


def test_automatic_writing_round_trip():
    for d in (3, 4):
        text = fixed_point_prefix(d, 250)
        for n in range(251):
            exps = automatic_writing(d, text[:n])
            assert b"".join(power_image(d, a) for a in reversed(exps)) == text[:n]
            # ascending with gaps at least d
            for a, b in zip(exps, exps[1:]):
                assert b - a >= d


def test_automatic_writing_prefers_long_factors():
    # the unique gap-3 writing of this prefix is [0, 5]; the greedy
    # right-to-left peel would produce [3, 4], which breaks the gap rule
    u = bytes([1, 2, 3, 1, 1, 2, 1, 2, 3, 1])
    assert automatic_writing(3, u) == [0, 5]


def test_automatic_writing_rejects_non_prefixes():
    with pytest.raises(ValueError):
        automatic_writing(3, bytes([2, 1]))
    with pytest.raises(ValueError):
        automatic_writing(3, bytes([1, 1]))


def test_writing_word_of_empty():
    assert automatic_writing(3, b"") == []
    assert automatic_writing(3, bytes([1, 2, 3])) == [2]


def _automatic_writing_oracle(d, u):
    """The writing by the first peel: every letter checked by a generator,
    a fresh slice of the rest per factor, the exponent searched up from 0."""
    if any(not 1 <= c <= d for c in u):
        raise ValueError("letters outside 1..d")
    exps = []
    rest = u
    while rest:
        a = 0
        while len(power_image(d, a + 1)) <= len(rest):
            a += 1
        top = power_image(d, a)
        if not rest.startswith(top):
            raise ValueError(f"{word_str(u)} is not a prefix of the fixed point")
        if exps and not exps[-1] - a >= d:
            raise ValueError(f"{word_str(u)} breaks the exponent-gap rule")
        exps.append(a)
        rest = rest[len(top):]
    exps.reverse()
    return exps


def _writing_or_error(writing, d, u):
    try:
        return writing(d, u)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("d", [3, 4, 5])
def test_automatic_writing_matches_the_first_peel(d):
    scan = shared_scan(d)
    scan.extend_to(14)
    labels = set(scan.labels.values())
    # words that are not prefixes or hold a letter outside 1..d (each prefix
    # with one letter set to each of 0..d+1), and two powers side by side
    # with any gap, which the peel regroups into a writing or refuses
    text = fixed_point_prefix(d, 80)
    broken = {text[:k] + bytes([c]) + text[k + 1 : n] for n in range(1, 81)
              for k in range(n) for c in range(d + 2)}
    broken |= {power_image(d, a) + power_image(d, b) for a in range(12) for b in range(12)}
    for u in sorted(labels | broken):
        assert (_writing_or_error(automatic_writing, d, u)
                == _writing_or_error(_automatic_writing_oracle, d, u)), word_str(u)
    assert {type(_writing_or_error(automatic_writing, d, u)) for u in broken} == {list, str}


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_length_writing_matches_the_first_peel(d):
    # the greedy expansion of each length over the table of |sigma^a(1)|,
    # against the peel of the prefix's letters
    assert _power_lengths(d)[:25] == tuple(len(power_image(d, a)) for a in range(25))
    text = fixed_point_prefix(d, 2000)
    for k in range(2001):
        assert length_writing(d, k) == _automatic_writing_oracle(d, text[:k])
    with pytest.raises(ValueError):
        length_writing(d, -1)
