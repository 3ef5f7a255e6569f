"""Exact arithmetic in Z[rho] with rho^d = rho + 1."""

import numpy as np
import pytest

from treesubst.algnum import (
    ExactLength,
    edge_length_vector,
    letter_length_exact,
    stretch_root,
)


def test_stretch_root_matches_newton():
    for d in (3, 4, 5, 6):
        roots = np.roots([1] + [0] * (d - 2) + [-1, -1])
        real = max(r.real for r in roots if abs(r.imag) < 1e-12)
        assert abs(stretch_root(d) - real) < 1e-12


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
    assert abs((a + b).value() - (eta**2 + eta**-3)) < 1e-12
    assert abs((a * b).value() - eta**-1) < 1e-12
    assert abs((a - b).value() - (eta**2 - eta**-3)) < 1e-12
    assert (a * b) == ExactLength.rho_power(d, -1)


def test_scaling_shifts_exponents():
    d = 3
    x = ExactLength.one(d) + ExactLength.rho_power(d, 2)
    assert x.scaled(5).scaled(-5) == x
    assert x.scaled(-2) == ExactLength.rho_power(d, -2) + ExactLength.one(d)


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
    with pytest.raises(AssertionError):
        ExactLength.one(3) + ExactLength.one(4)


def test_edge_length_vector():
    for d in (3, 4):
        eta = stretch_root(d)
        lengths = edge_length_vector(d)
        assert lengths[1] == ExactLength.one(d)
        for k in range(2, d + 1):
            assert abs(lengths[k].value() - eta ** (d - k + 1)) < 1e-12
        for h in range(1, d - 1):
            assert abs(lengths[d + h].value() - eta**-h) < 1e-12


def test_letter_lengths_agree_with_edges():
    d = 3
    edge = edge_length_vector(d)
    letter = letter_length_exact(d)
    for k in range(1, d + 1):
        assert letter[k] == edge[k]
