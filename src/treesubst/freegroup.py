"""Reduced words in the free group F_d and automorphisms acting on them.

A group word is a tuple of nonzero ints: +k is the generator k, -k its
inverse.  Reduction cancels adjacent x, -x pairs.  The module carries the
family substitution as an automorphism, its inverse

    1 -> d,  2 -> d^-1 1,  k -> k-1  (3 <= k <= d),

the projection p* from tree path words to group words, and cancellation
probes for iterated inverse automorphisms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, indexOf, neg

from .words import Word, family_substitution, power_image

GroupWord = tuple[int, ...]


def reduce_word(letters) -> GroupWord:
    """Cancel adjacent x, -x pairs by a stack, which starts past the
    longest prefix that holds no such pair (found by one C-level pass)."""
    word = tuple(letters)
    if 0 in word:
        raise ValueError("0 is not a letter")
    try:
        cut = indexOf(map(add, word, word[1:]), 0)   # the first x, -x pair
    except ValueError:
        return word
    stack = list(word[:cut])
    for x in word[cut:]:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def invert(w: GroupWord) -> GroupWord:
    return tuple(map(neg, reversed(w)))


def from_positive(w: Word) -> GroupWord:
    """Embed a word over 1..d letterwise."""
    return tuple(w)   # bytes iterate as ints


def word_text(w: GroupWord) -> str:
    """Render like 1.2⁻.3 (dot separated, superscript minus for inverses)."""
    if not w:
        return "e"
    return ".".join(f"{abs(x)}⁻" if x < 0 else str(x) for x in w)


class Automorphism:
    """Map on F_d given by the images of the positive generators."""

    def __init__(self, d: int, images: dict[int, GroupWord]):
        self.d = d
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"images must be given for the letters 1..{d}")
        self.images = {k: reduce_word(v) for k, v in images.items()}
        self._signed = {**self.images, **{-k: invert(v) for k, v in self.images.items()}}

    def apply(self, w: GroupWord) -> tuple[GroupWord, bool]:
        """Image of w, plus a flag telling whether reduction cancelled anything."""
        parts = tuple(chain.from_iterable(map(self._signed.__getitem__, w)))
        out = reduce_word(parts)
        return out, len(out) < len(parts)

    def __call__(self, w: GroupWord) -> GroupWord:
        return self.apply(w)[0]


@lru_cache(maxsize=None)
def family_auto(d: int) -> Automorphism:
    sub = family_substitution(d)
    return Automorphism(d, {k: from_positive(img) for k, img in sub.images.items()})


@lru_cache(maxsize=None)
def family_inverse(d: int) -> Automorphism:
    if d < 3:
        raise ValueError("family needs d >= 3")
    images: dict[int, GroupWord] = {1: (d,), 2: (-d, 1)}
    for k in range(3, d + 1):
        images[k] = (k - 1,)
    return Automorphism(d, images)


# ---------------------------------------------------------------------------
# tree letters and the projection p*

@lru_cache(maxsize=None)
def _color_images(d: int) -> dict[int, GroupWord]:
    """p* of each signed tree color."""
    table: dict[int, GroupWord] = {}
    for c in range(1, 2 * d - 1):
        img = (c,) if c <= d else from_positive(power_image(d, c - d))
        table[c], table[-c] = img, invert(img)
    return table


@lru_cache(maxsize=None)
def _core_letters(d: int) -> frozenset[int]:
    return frozenset(range(-d, d + 1)) - {0}


def p_star(d: int, tree_word) -> GroupWord:
    """Project a tree path word (signed colors 1..2d-2) into F_d.

    Colors k <= d map to the generator k, color d+k to sigma^k(1), and a
    barred color (negative sign) to the inverse of its image.  A core color
    is its own image, so a word over the core colors only is reduced as it
    stands (and kept whole when it has no x, -x pair).
    """
    tree_word = tuple(tree_word)
    if _core_letters(d).issuperset(tree_word):
        return reduce_word(tree_word)
    images = _color_images(d)
    try:
        parts = tuple(chain.from_iterable(map(images.__getitem__, tree_word)))
    except KeyError as exc:
        raise ValueError(f"color {abs(exc.args[0])} outside 1..{2*d-2}") from None
    return reduce_word(parts)


# ---------------------------------------------------------------------------
# cancellation probes


def cancellation_report(auto: Automorphism, seeds: list[GroupWord], depth: int) -> dict:
    """Iterate the automorphism on each reduced seed, recording cancellations.

    Step n applies the map to the reduced image of step n-1; the entry is
    True when that application shortened the concatenated images.
    """
    report: dict[GroupWord, list[bool]] = {}
    for seed in seeds:
        w = reduce_word(seed)
        flags: list[bool] = []
        for _ in range(depth):
            w, cancelled = auto.apply(w)
            flags.append(cancelled)
        report[seed] = flags
    return report


def tribonacci_inverse() -> Automorphism:
    """Inverse of the tribonacci substitution on 3 letters: 1->3, 2->3^-1 1, 3->3^-1 2."""
    return Automorphism(3, {1: (3,), 2: (-3, 1), 3: (-3, 2)})


def nielsen_probe() -> Automorphism:
    """3-letter automorphism 1->3^-1 1, 2->3, 3->1^-1 1^-1 2 with a persistent
    cancellation: the image of 1.3 contains (1.3)^-1 again."""
    return Automorphism(3, {1: (-3, 1), 2: (3,), 3: (-1, -1, 2)})
