"""Exact lengths in Z[rho] where rho is the real root of x^d = x + 1.

Every metric quantity in the realized trees is an integer polynomial in
rho and rho^-1.  rho is a unit of Z[rho] (rho^-1 = rho^(d-1) - 1), so each
such number has exactly one coefficient vector

    sum coeffs[i] * rho^i,   0 <= i < d,

and equality and hashing are those of the vector.  Signs and values are
exact: the vector is evaluated in integers at floor(rho * 2^p) / 2^p, with
rho's bits found by exact bisection, and p doubles until the error bound
fixes the sign or the leading bits (x^d - x - 1 is irreducible, so a
nonzero vector never vanishes at rho).  Powers of rho (x^d = x + 1) and of
lambda (x^d = x^(d-1) + 1) come from one routine, `trinomial_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np


# every int64 row of exact coefficients stays below this bound, and a caller
# adds at most `terms` of them, so no sum it forms can wrap
INT64_BOUND = 1 << 60


def _int64(rows, terms: int) -> np.ndarray:
    """Integer rows as an int64 array whose sums of `terms` entries stay below
    INT64_BOUND; raises ValueError rather than wrap."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:   # a Python int beyond int64
        raise ValueError("coefficient beyond int64") from None
    top = max(abs(int(a.max())), abs(int(a.min()))) if a.size else 0
    if top * terms >= INT64_BOUND:
        raise ValueError(f"int64 operand {top} times {terms} reaches the bound 2^60")
    return a


def trinomial_root(d: int, k: int) -> float:
    """Real root > 1 of x^d = x^k + 1, 1 <= k < d, in double precision.

    f(x) = x^d - x^k - 1 is increasing and convex past 1, with f(1) < 0 <
    f(2), so t is halved from 1 while f(1 + t/2) > 0 and Newton starts at
    the upper bound 1 + t, from where it falls monotonically to the root.
    """

    def f(x: float) -> float:
        return x**d - x**k - 1.0

    try:
        t = 1.0
        while f(1.0 + t / 2) > 0:
            t /= 2
        x = 1.0 + t
        for _ in range(80):
            step = f(x) / (d * x ** (d - 1) - k * x ** (k - 1))
            x -= step
            if abs(step) < 1e-16:
                break
    except OverflowError:   # 1.5^d leaves double range from d = 1751
        raise ValueError(f"Newton for x^{d} = x^{k} + 1 overflows at d = {d}") from None
    if not abs(f(x)) < 1e-12:
        raise ValueError(f"Newton did not converge for x^{d} = x^{k} + 1")
    return x


@lru_cache(maxsize=None)
def stretch_root(d: int) -> float:
    """Real root > 1 of x^d = x + 1, the Perron value of the inverse family."""
    return trinomial_root(d, 1)


@lru_cache(maxsize=None)
def _rho_floor(d: int, p: int) -> int:
    """floor(rho * 2^p), exactly: bisection on x^d - x - 1 from the floor at p // 2."""
    q = p // 2   # at p = 0 the floor is 1: x^d - x - 1 is -1 at 1 and positive at 2
    m = _rho_floor(d, q) << (p - q) if p else 1
    for b in reversed(range(p - q)):   # the remaining bits, highest first
        t = m | 1 << b
        if t**d - (t << p * (d - 1)) - (1 << p * d) < 0:
            m = t
    return m


@lru_cache(maxsize=None)
def _rho_weights(d: int, p: int) -> tuple[int, ...]:
    """lo^i * 2^(p(d-1)) for i < d, where lo = floor(rho * 2^p) / 2^p."""
    m = _rho_floor(d, p)
    return tuple(m**i << p * (d - 1 - i) for i in range(d))


def trinomial_step(c: tuple[int, ...], k: int, sign: int) -> tuple[int, ...]:
    """Coefficients on 1, x, .., x^(d-1) times x^sign, sign = +1 or -1,
    modulo x^d - x^k - 1, in Python ints."""
    if sign > 0:   # x^d = x^k + 1 folds the top coefficient up
        out = [c[-1], *c[:-1]]
        out[k] += c[-1]
    else:          # x^-1 = x^(d-1) - x^(k-1) folds the bottom one down
        out = [*c[1:], c[0]]
        out[k - 1] -= c[0]
    return tuple(out)


# (d, k, sign) -> coefficient tuples of x^0, x^sign, x^2sign, .. modulo x^d - x^k - 1
_powers: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}


def trinomial_powers(d: int, k: int, e: int) -> list[tuple[int, ...]]:
    """The kept coefficient list of x^0, x^s, .., x^e modulo x^d - x^k - 1,
    s the sign of e, each entry one `trinomial_step` from the one before
    (grown in a loop rather than by recursion).  Item j is x^(s j); the
    list may run past x^e, and callers must not change it."""
    s = -1 if e < 0 else 1
    seq = _powers.setdefault((d, k, s), [(1,) + (0,) * (d - 1)])
    while len(seq) <= abs(e):
        seq.append(trinomial_step(seq[-1], k, s))
    return seq


@dataclass(frozen=True)
class ExactLength:
    """Element of Z[rho] by its coefficients on 1, rho, .., rho^(d-1)."""

    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.d:
            raise ValueError(f"{len(self.coeffs)} coefficients for d = {self.d}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(d: int) -> "ExactLength":
        return ExactLength(d, (0,) * d)

    @staticmethod
    def one(d: int) -> "ExactLength":
        return ExactLength.rho_power(d, 0)

    @staticmethod
    def rho_power(d: int, k: int) -> "ExactLength":
        """rho^k for any integer k."""
        return ExactLength(d, trinomial_powers(d, 1, k)[abs(k)])

    # -- ring operations ----------------------------------------------------

    def _same_ring(self, other: "ExactLength") -> None:
        if self.d != other.d:
            raise ValueError(f"mixed rings: d = {self.d} and d = {other.d}")

    def __add__(self, other: "ExactLength") -> "ExactLength":
        self._same_ring(other)
        return ExactLength(self.d, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ExactLength") -> "ExactLength":
        self._same_ring(other)
        return ExactLength(self.d, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ExactLength":
        return ExactLength(self.d, tuple(-x for x in self.coeffs))

    def scaled(self, k: int) -> "ExactLength":
        """self * rho^k: the sum of a_i * rho^(i + k), read from the kept power lists."""
        powers = [ExactLength.rho_power(self.d, i + k).coeffs for i in range(self.d)]
        return ExactLength(self.d, tuple(sum(map(mul, self.coeffs, col)) for col in zip(*powers)))

    # -- comparisons --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _fixed(self, bits: int) -> tuple[int, int]:
        """(num, e) with |num / 2^e - self| < 2^-bits |num / 2^e|, or (0, 0) for zero."""
        d, cs = self.d, self.coeffs
        # rho < 2, so on [lo, rho] alpha moves by less than
        # 2^-p sum i |c_i| 2^(i-1) <= 2^-p (d-1) 2^(d-2) sum |c_i|
        slope = sum(map(abs, cs)) * (d - 1) << (d - 2)
        p = 64 + bits
        while slope:   # alpha(lo) = num / 2^(p(d-1)); double p until it is certain
            num = sum(map(mul, cs, _rho_weights(d, p)))
            if abs(num) > slope << (p * (d - 2) + bits):
                return num, p * (d - 1)
            p *= 2
        return 0, 0

    def value(self) -> float:
        """The double nearest self (or its neighbour, if self is 2^-60-close to a midpoint)."""
        num, e = self._fixed(60)
        return num / (1 << e)

    def sign(self) -> int:
        num = self._fixed(0)[0]
        return (num > 0) - (num < 0)

    def __abs__(self) -> "ExactLength":
        return self if self.sign() >= 0 else -self

    def __lt__(self, other: "ExactLength") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "ExactLength") -> bool:
        return (self - other).sign() <= 0

    def __repr__(self) -> str:
        return f"ExactLength(d={self.d}, {self.coeffs}, ~{self.value():.9g})"


def edge_length_vector(d: int) -> dict[int, ExactLength]:
    """Base length per color: 1, rho^(d-1), .., rho for colors 1..d, then
    rho^-1, .., rho^-(d-2) for the branch colors d+1..2d-2.

    An edge of color k in the stage-n tree realizes with length
    rho^-n * vector[k].
    """
    vec = {1: ExactLength.one(d)}
    for k in range(2, d + 1):
        vec[k] = ExactLength.rho_power(d, d - k + 1)
    for h in range(1, d - 1):
        vec[d + h] = ExactLength.rho_power(d, -h)
    return vec


def letter_length_exact(d: int) -> dict[int, ExactLength]:
    """Exact version of the letter length vector (colors 1..d only)."""
    return {k: v for k, v in edge_length_vector(d).items() if k <= d}
