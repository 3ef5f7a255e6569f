"""Prefix-suffix automaton of the substitution and orbit developments.

States are the letters 1..d.  There is a transition a -> b labelled
(p, a, s) whenever sigma(b) = p.a.s, so walking the automaton spells out
how a letter sits inside iterated images.  A development is a finite
admissible label sequence; the development of a shifted fixed point
spells out its tail.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .words import Word, _power_lengths, family_substitution

EMPTY: Word = b""

Development = tuple[tuple[Word, int, Word], ...]


@lru_cache(maxsize=None)
def _targets(d: int) -> dict[tuple[Word, int, Word], int]:
    """The automaton's transitions as one map: each label (p, a, s) to its
    target state, the letter b with sigma(b) = p.a.s (a label names one
    transition, as the source state is its middle letter a)."""
    images = family_substitution(d).images
    return {(img[:i], a, img[i + 1:]): b for b, img in images.items() for i, a in enumerate(img)}


def is_admissible(d: int, dev: Development) -> bool:
    """Labels chain when each target state equals the next middle letter;
    the targets are the automaton's map, built once per d."""
    target = _targets(d)
    return (all(lab in target for lab in dev)
            and all(target[cur] == nxt[1] for cur, nxt in zip(dev, dev[1:])))


# ---------------------------------------------------------------------------
# automatic writing of fixed-point prefixes


def length_writing(d: int, k: int) -> list[int]:
    """Exponents (ascending) of the unique writing
    u = sigma^(a_p)(1)...sigma^(a_0)(1) of the length-k fixed-point prefix u.

    Consecutive exponents differ by at least d.  The writing is the greedy
    expansion of k over the lengths |sigma^a(1)| (Dumont and Thomas, TCS 65,
    1989): peeling the largest sigma^a(1) that fits off the front of u
    leaves again a fixed-point prefix, so only its length matters.  The
    recursion |sigma^(a+1)(1)| - |sigma^a(1)| = |sigma^(a-d+1)(1)| makes the
    gap automatic: what remains is shorter than that, so the next exponent
    is at most a - d (and for a < d - 1 nothing remains).
    """
    lengths = _power_lengths(d)
    if not 0 <= k < lengths[-1]:
        raise ValueError(f"prefix length must be in 0..{lengths[-1] - 1}, got {k}")
    exps: list[int] = []
    a = len(lengths)
    while k:
        a = bisect_right(lengths, k, 0, a) - 1   # what remains only shrinks
        exps.append(a)
        k -= lengths[a]
    exps.reverse()
    return exps


def shift_development(d: int, k: int, depth: int) -> Development:
    """First `depth` labels of the development of the k-shifted fixed point.

    The prefix entry p_i is the letter 1 exactly at the exponents of the
    automatic writing of the length-k prefix and empty elsewhere; the
    states are then forced, ending in the loop (e,1,2) at state 1.
    """
    sub = family_substitution(d)
    exps = set(length_writing(d, k))
    if exps and max(exps) >= depth:
        raise ValueError("depth too small for the requested shift")
    # fill states top-down: above the largest exponent the path loops at 1
    states = [0] * (depth + 1)
    states[depth] = 1
    labels: list[tuple[Word, int, Word]] = [None] * depth  # type: ignore
    for i in range(depth - 1, -1, -1):
        img = sub.images[states[i + 1]]
        if i in exps:
            if img[:1] != b"\x01":
                raise ValueError("prefix letter 1 forces target sigma-image 1...")
            states[i] = img[1]
            labels[i] = (b"\x01", img[1], img[2:])
        else:
            states[i] = img[0]
            labels[i] = (EMPTY, img[0], img[1:])
    dev = tuple(labels)
    if not is_admissible(d, dev):
        raise ValueError("development is not an admissible path")
    return dev


def development_tail_word(d: int, dev: Development, length: int) -> Word:
    """a_0 s_0 sigma(s_1) sigma^2(s_2)... truncated to `length` letters."""
    sub = family_substitution(d)
    out = bytes([dev[0][1]])
    for i, (_, _, s) in enumerate(dev):
        if len(out) >= length:
            break
        out += sub.iterate(s, i)
    return out[:length]
