"""Exact lengths in Z[rho, rho^-1] where rho is the real root of x^d = x + 1.

Every metric quantity in the realized trees is an integer polynomial in
rho divided by a power of rho, so equality of lengths is decidable
exactly.  A value is stored as (coeffs, scale) meaning

    rho^-scale * sum coeffs[i] * rho^i,   0 <= i < d.

rho is a unit of Z[rho] (rho^-1 = rho^(d-1) - 1), hence the scale is
only a convenience; hashing goes through a scale-0 canonical form.
Order comparisons use the certified double value of rho, with an exact
short-circuit for equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def trinomial_root(d: int, k: int) -> float:
    """Real root > 1 of x^d = x^k + 1, 1 <= k < d (Newton from 1.5, double precision)."""
    x = 1.5
    for _ in range(80):
        f = x**d - x**k - 1.0
        fp = d * x ** (d - 1) - k * x ** (k - 1)
        step = f / fp
        x -= step
        if abs(step) < 1e-16:
            break
    assert abs(x**d - x**k - 1.0) < 1e-12
    return x


@lru_cache(maxsize=None)
def stretch_root(d: int) -> float:
    """Real root > 1 of x^d = x + 1, the Perron value of the inverse family."""
    return trinomial_root(d, 1)


def _reduce_poly(d: int, coeffs: list[int]) -> tuple[int, ...]:
    """Fold powers >= d with x^d = x + 1."""
    cs = list(coeffs) + [0] * max(0, d - len(coeffs))
    for i in range(len(cs) - 1, d - 1, -1):
        c = cs[i]
        if c:
            cs[i] = 0
            cs[i - d + 1] += c
            cs[i - d] += c
    return tuple(cs[:d])


def _mul_inv_rho(d: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Multiply by rho^-1 = rho^(d-1) - 1 inside Z[rho]."""
    shifted = [0] * (d - 1) + list(coeffs)     # coeffs * rho^(d-1)
    out = list(_reduce_poly(d, shifted))
    for i in range(d):
        out[i] -= coeffs[i]
    return tuple(out)


@dataclass(frozen=True)
class ExactLength:
    """Element of Z[rho][rho^-1]; exact equality, float-backed ordering."""

    d: int
    coeffs: tuple[int, ...]
    scale: int = 0

    def __post_init__(self):
        assert len(self.coeffs) == self.d

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(d: int) -> "ExactLength":
        return ExactLength(d, (0,) * d)

    @staticmethod
    def one(d: int) -> "ExactLength":
        return ExactLength(d, (1,) + (0,) * (d - 1))

    @staticmethod
    def rho_power(d: int, k: int) -> "ExactLength":
        """rho^k for any integer k."""
        if k >= 0:
            return ExactLength(d, _reduce_poly(d, [0] * k + [1]))
        return ExactLength(d, (1,) + (0,) * (d - 1), scale=-k)

    # -- ring operations ----------------------------------------------------

    def _aligned(self, other: "ExactLength") -> tuple[tuple[int, ...], tuple[int, ...], int]:
        assert self.d == other.d, "mixed rings"
        e = max(self.scale, other.scale)
        a = self.coeffs
        for _ in range(e - self.scale):        # multiply by rho to raise the scale
            a = _reduce_poly(self.d, [0] + list(a))
        b = other.coeffs
        for _ in range(e - other.scale):
            b = _reduce_poly(self.d, [0] + list(b))
        return a, b, e

    def __add__(self, other: "ExactLength") -> "ExactLength":
        a, b, e = self._aligned(other)
        return ExactLength(self.d, tuple(x + y for x, y in zip(a, b)), e)

    def __sub__(self, other: "ExactLength") -> "ExactLength":
        a, b, e = self._aligned(other)
        return ExactLength(self.d, tuple(x - y for x, y in zip(a, b)), e)

    def __neg__(self) -> "ExactLength":
        return ExactLength(self.d, tuple(-x for x in self.coeffs), self.scale)

    def __mul__(self, other: "ExactLength") -> "ExactLength":
        assert self.d == other.d
        prod = [0] * (2 * self.d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return ExactLength(self.d, _reduce_poly(self.d, prod), self.scale + other.scale)

    def scaled(self, k: int) -> "ExactLength":
        """self * rho^k."""
        return ExactLength(self.d, self.coeffs, self.scale - k)

    # -- comparisons --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def canonical(self) -> tuple[int, ...]:
        """Scale-0 coefficient vector (rho is a unit, so always integral)."""
        cs = self.coeffs
        if self.scale >= 0:
            for _ in range(self.scale):
                cs = _mul_inv_rho(self.d, cs)
        else:
            for _ in range(-self.scale):
                cs = _reduce_poly(self.d, [0] + list(cs))
        return cs

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactLength):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a == b

    def __hash__(self):
        return hash((self.d, self.canonical()))

    def value(self) -> float:
        rho = stretch_root(self.d)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * rho + c
        return acc * rho**-self.scale

    def sign(self) -> int:
        if self.is_zero():
            return 0
        v = self.value()
        assert v != 0.0, "numeric underflow in sign"
        return 1 if v > 0 else -1

    def __abs__(self) -> "ExactLength":
        return self if self.sign() >= 0 else -self

    def __lt__(self, other: "ExactLength") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "ExactLength") -> bool:
        return (self - other).sign() <= 0

    def __repr__(self) -> str:
        return f"ExactLength(d={self.d}, {self.coeffs}, scale={self.scale}, ~{self.value():.9g})"


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
