"""Exact arithmetic in Z[rho] with rho^d = rho + 1, and powers modulo x^d - x^k - 1."""

from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesubst import algnum, verify
from treesubst.algnum import (
    ExactLength,
    edge_length_vector,
    letter_length_exact,
    stretch_root,
    trinomial_powers,
    trinomial_root,
    trinomial_step,
)


def _rem(poly, d, k):
    """Python-int remainder of sum poly[i] x^i modulo x^d - x^k - 1, from the top
    down by x^i = x^(i-d+k) + x^(i-d): the test's oracle, independent of algnum."""
    c = list(poly) + [0] * max(0, d - len(poly))
    for i in reversed(range(d, len(c))):
        top, c[i] = c[i], 0
        c[i - d + k] += top
        c[i - d] += top
    return tuple(c[:d])


def _product(a, b, d, k=1):
    """Python-int product of two coefficient vectors modulo x^d - x^k - 1."""
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return _rem(c, d, k)


def _shifted(coeffs, j):
    """The coefficient list of x^j times sum coeffs[i] x^i, j >= 0, unreduced."""
    return [0] * j + list(coeffs)


_TRINOMIALS = [(3, 1), (4, 1), (5, 1), (40, 1), (3, 2), (4, 3), (5, 4), (40, 39)]


@pytest.mark.parametrize("d,k", _TRINOMIALS)
def test_trinomial_powers_match_the_polynomial_remainder(d, k):
    one = (1,) + (0,) * (d - 1)
    for j in range(61):
        assert trinomial_powers(d, k, j)[j] == _rem(_shifted(one, j), d, k)
        # x^-j is the row r with x^j r = 1
        assert _rem(_shifted(trinomial_powers(d, k, -j)[j], j), d, k) == one
    # across x^0 too: each step undoes the other
    rows = [trinomial_powers(d, k, j)[abs(j)] for j in range(-60, 61)]
    for a, b in zip(rows, rows[1:]):
        assert trinomial_step(a, k, 1) == b and trinomial_step(b, k, -1) == a


def test_stretch_root_matches_newton():
    for d in (3, 4, 5, 6):
        roots = np.roots([1] + [0] * (d - 2) + [-1, -1])
        real = max(r.real for r in roots if abs(r.imag) < 1e-12)
        assert abs(stretch_root(d) - real) < 1e-12


def test_trinomial_root_past_double_range_is_a_value_error():
    for d, k in ((1751, 1750), (1751, 1), (5000, 4999)):
        with pytest.raises(ValueError, match=f"x\\^{d} = x\\^{k} \\+ 1 overflows at d = {d}"):
            trinomial_root(d, k)


@pytest.mark.parametrize("d", [189, 191, 200, 1000, 1750])
def test_trinomial_root_converges_at_large_d(d):
    # Newton from 1.5 stopped converging at d = 189 (k = 1) and d = 191 (k = d - 1)
    for k in (1, d - 1):
        x = trinomial_root(d, k)
        assert 1 < x < 2 and abs(x**d - x**k - 1) < 1e-12
    assert verify.growth_roots(d) == []


def test_defining_relation():
    for d in (3, 4):
        rho = ExactLength.rho_power(d, 1)
        lhs = rho.scaled(d - 1)          # rho^d
        rhs = rho + ExactLength.one(d)
        assert lhs == rhs
        assert (lhs - rhs).is_zero()


def test_arithmetic_matches_floats():
    d = 3
    eta = stretch_root(d)
    a = ExactLength.rho_power(d, 2)
    b = ExactLength.rho_power(d, -3)
    product = ExactLength(d, _product(a.coeffs, b.coeffs, d))
    assert abs((a + b).value() - (eta**2 + eta**-3)) < 1e-12
    assert abs(product.value() - eta**-1) < 1e-12
    assert abs((a - b).value() - (eta**2 - eta**-3)) < 1e-12
    assert product == ExactLength.rho_power(d, -1)


def test_scaling_shifts_exponents():
    d = 3
    x = ExactLength.one(d) + ExactLength.rho_power(d, 2)
    assert x.scaled(5).scaled(-5) == x
    assert x.scaled(-2) == ExactLength.rho_power(d, -2) + ExactLength.one(d)


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([3, 4, 5, 40]), data=st.data(), k=st.integers(-60, 60))
def test_scaled_is_the_product_with_a_power(d, data, k):
    x = ExactLength(d, tuple(data.draw(st.lists(st.integers(-10**12, 10**12) | st.just(0),
                                                min_size=d, max_size=d))))
    y = x.scaled(k)
    if k >= 0:
        assert y.coeffs == _rem(_shifted(x.coeffs, k), d, 1)
    else:   # x is a unit modulo x^d - x - 1, so x^|k| y = x pins y
        assert _rem(_shifted(y.coeffs, -k), d, 1) == x.coeffs


def test_ordering_and_sign():
    d = 3
    zero = ExactLength.zero(d)
    one = ExactLength.one(d)
    rho = ExactLength.rho_power(d, 1)
    assert zero < one < rho
    assert (one - rho).sign() == -1
    assert abs(one - rho) == rho - one
    assert not (rho < rho)


def test_exact_equality_is_not_float_equality():
    d = 3
    # rho^3 and rho + 1 are equal exactly, not merely close
    assert ExactLength.rho_power(d, 3) == ExactLength.rho_power(d, 1) + ExactLength.one(d)
    assert hash(ExactLength.rho_power(d, 3)) == hash(
        ExactLength.rho_power(d, 1) + ExactLength.one(d)
    )


def test_mixed_d_rejected():
    with pytest.raises(ValueError, match="mixed rings"):
        ExactLength.one(3) + ExactLength.one(4)


@pytest.mark.parametrize("k", [100, 140])
def test_negative_power_from_unscaled_arithmetic_is_positive(k):
    # rho^-k as k products with rho^-1 = rho^2 - 1: coefficients near 1e6
    # (k = 100) and 3e8 (k = 140) whose double value cancels to noise
    d = 3
    inv_rho = (-1, 0, 1)
    x = ExactLength.one(d)
    for _ in range(k):
        x = ExactLength(d, _product(x.coeffs, inv_rho, d))
    assert x == ExactLength.rho_power(d, -k)
    assert x.sign() == 1 and (-x).sign() == -1
    assert ExactLength.zero(d) < x < ExactLength.rho_power(d, -k + 1)
    # and its double value is accurate to the last bit, though the coefficients cancel
    assert abs(Decimal(x.value()) / _decimal_value(d, [1], -k) - 1) < Decimal(2) ** -52


# A nonzero alpha in Z[rho] has a nonzero integer norm, so |alpha(rho)| is at least
# 1 / prod |alpha(rho_j)| over the other conjugates; for the differences below
# (heights up to 1e12 rho^1000) that is above 10^-410 of their size, so a
# threshold of 10^-450 at 520 digits separates zero from nonzero exactly.
DIGITS = 520


@lru_cache(maxsize=None)
def _decimal_root(d):
    """rho to DIGITS digits by Newton's method in decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 20
        x = Decimal(stretch_root(d))
        for _ in range(12):
            x -= (x**d - x - 1) / (d * x ** (d - 1) - 1)
        return x


def _decimal_value(d, coeffs, k):
    """sum coeffs[i] * rho^(i + k) in DIGITS-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rho = _decimal_root(d)
        return sum(Decimal(c) * rho ** (i + k) for i, c in enumerate(coeffs))


def _decimal_sign(value, scale):
    """Sign of a reference value, 0 when it is zero to 450 digits of scale."""
    if abs(value) <= scale * Decimal(10) ** -450:
        return 0
    return 1 if value > 0 else -1


_coeffs = st.lists(st.integers(-10**12, 10**12), min_size=5, max_size=5)
_exponent = st.integers(-500, 500)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([3, 4, 5]), a=_coeffs, ka=_exponent, b=_coeffs, kb=_exponent,
       shift=_exponent)
@example(d=3, a=[1, 0, 0, 0, 0], ka=-500, b=[0] * 5, kb=0, shift=500)
@example(d=5, a=[1, 0, 0, 0, 0], ka=-500, b=[1, 0, 0, 0, 0], kb=-499, shift=-500)
@example(d=4, a=[10**12, -10**12, 1, 0, 0], ka=500, b=[10**12, -10**12, 1, 0, 0], kb=500,
         shift=1)
def test_order_matches_decimal_reference(d, a, ka, b, kb, shift):
    x = ExactLength(d, tuple(a[:d])).scaled(ka)
    y = ExactLength(d, tuple(b[:d])).scaled(kb)
    rx, ry = _decimal_value(d, a[:d], ka), _decimal_value(d, b[:d], kb)
    sx = _decimal_value(d, [abs(c) for c in a[:d]], ka)
    sy = _decimal_value(d, [abs(c) for c in b[:d]], kb)
    assert x.sign() == _decimal_sign(rx, sx)
    assert abs(Decimal(x.value()) - rx) <= abs(rx) * Decimal(2) ** -52
    assert (-x).sign() == -_decimal_sign(rx, sx)
    diff = _decimal_sign(rx - ry, sx + sy)
    assert (x < y) == (diff < 0)
    assert (x <= y) == (diff <= 0)
    assert (x == y) == (diff == 0)
    if x == y:
        assert hash(x) == hash(y)
    back = x.scaled(shift).scaled(-shift)
    assert back == x and hash(back) == hash(x)
    assert not back < x and back <= x


def test_edge_length_vector():
    for d in (3, 4):
        eta = stretch_root(d)
        lengths = edge_length_vector(d)
        assert lengths[1] == ExactLength.one(d)
        for k in range(2, d + 1):
            assert abs(lengths[k].value() - eta ** (d - k + 1)) < 1e-12
        for h in range(1, d - 1):
            assert abs(lengths[d + h].value() - eta**-h) < 1e-12


def test_powers_grow_from_an_empty_list_at_the_largest_d():
    # d reaches 1,750: rho^1749 and rho^-1748 are asked for first, so a
    # recursion down to rho^0 would pass the interpreter's limit
    d = 1750
    algnum._powers.pop((d, 1, 1), None)
    algnum._powers.pop((d, 1, -1), None)
    assert ExactLength.rho_power(d, 1749).coeffs == (0,) * 1749 + (1,)
    assert len(ExactLength.rho_power(d, -1748).coeffs) == d
    rows = [ExactLength.rho_power(d, k).coeffs for k in range(-1748, 1750)]
    for a, b in zip(rows, rows[1:]):   # each one rho step from the next, by rho^d = rho + 1
        assert b == (a[-1], a[0] + a[-1]) + a[1:-1]


def test_letter_lengths_agree_with_edges():
    d = 3
    edge = edge_length_vector(d)
    letter = letter_length_exact(d)
    for k in range(1, d + 1):
        assert letter[k] == edge[k]
