"""Tests for the truncated-precision p-adic arithmetic core.

Expected digit vectors are frozen from the long-division oracle in
bruteforce.py; structural laws (ring axioms, ultrametric inequality)
run as hypothesis properties over random values.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from padicroots import PAdic, PrecisionError, parse_value
from padicroots.cli import PRECISION_CAP
from padicroots.padic_core import _LEAF

PRIMES = [2, 3, 5, 7, 11, 13]


# ---------------------------------------------------------------------------
# construction


def test_from_rational_one_third_base5():
    x = PAdic.from_rational(1, 3, 5, 4)
    assert x.gamma == 0
    assert x.digits == (2, 3, 1, 3)
    assert x.digits == bf.unit_digits_of_rational(1, 3, 5, 4)
    # 3 * (2 + 3*5 + 1*25 + 3*125) = 1 mod 5^4
    assert 3 * x.unit % 5**4 == 1


def test_from_rational_fifty_base5():
    x = PAdic.from_rational(50, 1, 5, 3)
    assert (x.gamma, x.digits) == (2, (2, 0, 0))


def test_from_rational_minus_one_base7():
    x = PAdic.from_rational(-1, 1, 7, 3)
    assert (x.gamma, x.digits) == (0, (6, 6, 6))


def test_from_rational_strips_denominator_valuation():
    # 7/50 in Q_5: gamma = -2, unit part 7/2
    x = PAdic.from_rational(7, 50, 5, 6)
    assert x.gamma == -2
    assert x.digits == bf.unit_digits_of_rational(7, 2, 5, 6)


def test_from_rational_rejects_bad_input():
    with pytest.raises(ZeroDivisionError):
        PAdic.from_rational(1, 0, 5, 4)
    with pytest.raises(ValueError):
        PAdic.from_rational(1, 3, 6, 4)


def test_from_digits_carry_normalization():
    # 7 + 4*5 = 27 = 2 + 0*5 + 1*25, truncated to the two known digits
    x = PAdic.from_digits(5, 0, (7, 4))
    assert (x.gamma, x.digits) == (0, (2, 0))
    again = PAdic.from_digits(5, x.gamma, x.digits)
    assert (again.gamma, again.digits, again.precision) == (0, (2, 0), 2)


def test_from_digits_leading_zeros_move_to_gamma():
    x = PAdic.from_digits(3, 1, (0, 0, 2, 1))
    assert (x.gamma, x.digits) == (3, (2, 1))


def test_from_digits_total_cancellation_is_zero():
    assert PAdic.from_digits(3, 0, (0, 0, 0)).is_zero


def test_zero_shape():
    z = PAdic.zero(5, 4)
    assert z.is_zero and z.norm() == Fraction(0)
    with pytest.raises(ValueError):
        z.valuation()
    with pytest.raises(ValueError):
        z.unit_part()


# ---------------------------------------------------------------------------
# arithmetic on pinned values


def test_mul_small_integers():
    two = PAdic.from_int(2, 5, 4)
    three = PAdic.from_int(3, 5, 4)
    six = two.mul(three)
    assert (six.gamma, six.digits) == (0, (1, 1, 0, 0))


def test_mul_identity():
    x = PAdic.from_rational(7, 3, 5, 6)
    assert x.mul(PAdic.one(5, 6)) == x


def test_mul_truncation_inverse_pair():
    third = PAdic.from_rational(1, 3, 5, 4)
    prod = third.mul(PAdic.from_int(3, 5, 4))
    assert prod.digits == (1, 0, 0, 0)


def test_mul_mixed_primes_rejected():
    with pytest.raises(ValueError):
        PAdic.from_int(2, 5, 3).mul(PAdic.from_int(2, 7, 3))


def test_add_with_carry_into_gamma():
    s = PAdic.from_int(3, 5, 16).add(PAdic.from_int(2, 5, 16))
    assert (s.gamma, s.digits[0]) == (1, 1)
    # one digit of cancellation costs one digit of precision
    assert s.precision == 15


def test_add_total_cancellation():
    x = PAdic.from_rational(7, 3, 5, 6)
    assert x.add(x.neg()).is_zero


def test_add_ultrametric_equality_case():
    # |x| = 1, |y| = 7^-2: the sum keeps norm 1
    x = PAdic.from_int(3, 7, 5)
    y = PAdic.from_int(49, 7, 5)
    assert x.add(y).norm() == Fraction(1)


def test_inv_matches_rational():
    got = PAdic.from_int(3, 5, 4).inv()
    assert got.digits == (2, 3, 1, 3)
    assert got == PAdic.from_rational(1, 3, 5, 4)


def test_inv_prime_power():
    x = PAdic.from_int(125, 5, 3).inv()
    assert (x.gamma, x.digits) == (-3, (1, 0, 0))


def test_inv_minus_one_self_inverse():
    m1 = PAdic.from_int(-1, 7, 3)
    assert m1.inv() == m1


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PAdic.zero(5, 2).inv()


def test_pow_small_cube():
    eight = PAdic.from_int(2, 5, 4).pow_nat(3)
    assert (eight.gamma, eight.digits[:2]) == (0, (3, 1))


def test_pow_of_p_scales_gamma():
    p = PAdic.from_int(3, 3, 4)
    assert p.pow_nat(5).gamma == 5


def test_pow_gains_derivative_valuation():
    # (1 + 3)^3 = 64; exponent divisible by p buys one extra digit
    x = PAdic.from_digits(3, 0, (1, 1, 0, 0, 0))
    cube = x.pow_nat(3)
    assert cube.precision == 6
    assert cube == PAdic.from_int(64, 3, 6)


def test_pow_rejects_bad_exponent():
    with pytest.raises(ValueError):
        PAdic.from_int(2, 5, 3).pow_nat(0)


# ---------------------------------------------------------------------------
# views and comparisons


def test_norm_and_valuation():
    x = PAdic.from_int(50, 5, 3)
    assert x.norm() == Fraction(1, 25)
    assert x.valuation() == 2


def test_unit_part_strips_gamma():
    u = PAdic.from_rational(4, 3, 7, 5)
    shifted = u.shift(3)
    assert shifted.gamma == 3
    assert shifted.unit_part() == u


def test_eq_mod_rational_vs_truncation():
    third = PAdic.from_rational(1, 3, 5, 4)
    approx = PAdic.from_int(17, 5, 4)  # 2 + 3*5
    assert third.eq_mod(approx, 2)
    assert not third.eq_mod(approx, 3)


def test_eq_mod_beyond_precision_raises():
    x = PAdic.from_int(7, 5, 3)
    y = PAdic.from_int(7, 5, 3)
    with pytest.raises(PrecisionError):
        x.eq_mod(y, 4)


def test_eq_mod_zero_cases():
    z = PAdic.zero(5, 4)
    small = PAdic.from_int(125, 5, 2)
    assert z.eq_mod(small, 3)  # both are 0 mod 5^3
    assert not small.eq_mod(z, 4)


def test_digits_to_prefix_and_overrun():
    x = PAdic.from_rational(1, 3, 5, 6)
    assert x.digits_to(2) == (2, 3)
    with pytest.raises(PrecisionError):
        x.digits_to(7)


def test_str_round_trip_through_parser():
    x = PAdic.from_rational(9, 14, 7, 5)
    assert parse_value(str(x), 7, 5) == x


def test_digit_conversion_matches_plain_loops():
    # lengths on both sides of the split threshold and up to the CLI cap,
    # against one divmod per digit and Horner's rule
    rng = random.Random(41)
    for p in (2, 5, 1009):
        for k in (1, _LEAF - 1, _LEAF, _LEAF + 1, 4000, PRECISION_CAP):
            digits = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k - 1)]
            unit = 0
            for d in reversed(digits):
                unit = unit * p + d
            x = parse_value("3;" + ",".join(map(str, digits)), p, k)
            assert (x.gamma, x.unit, x.precision) == (3, unit, k)
            want, u = [], unit
            for _ in range(k):
                u, d = divmod(u, p)
                want.append(d)
            assert want == digits
            for j in (1, k // 3 + 1, k):
                assert x.digits_to(j) == tuple(want[:j]), (p, k, j)
            assert str(x) == "3;" + ",".join(map(str, want))


def test_parse_value_forms():
    assert parse_value("50", 5, 3) == PAdic.from_int(50, 5, 3)
    assert parse_value("1/3", 5, 4).digits == (2, 3, 1, 3)
    explicit = parse_value("-1;2,3", 5, 2)
    assert (explicit.gamma, explicit.digits) == (-1, (2, 3))
    with pytest.raises(ValueError):
        parse_value("0;0,1", 5, 2)  # leading digit must be nonzero
    with pytest.raises(ValueError):
        parse_value("0;2,7", 5, 2)  # digit out of range
    with pytest.raises(ValueError):
        parse_value("abc", 5, 2)


# ---------------------------------------------------------------------------
# structural laws


def padics(p: int, precision: int = 8):
    units = st.integers(min_value=1, max_value=p**precision - 1).filter(
        lambda u: u % p != 0
    )
    return st.builds(
        lambda g, u: PAdic(p, g, u, precision),
        st.integers(min_value=-4, max_value=4),
        units,
    )


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=150, deadline=None)
def test_ring_laws_to_precision(p, data):
    x = data.draw(padics(p))
    y = data.draw(padics(p))
    z = data.draw(padics(p))
    k = 3  # compare low digits; cancellation may shrink guarantees above
    lhs = x.mul(y.add(z))
    rhs = x.mul(y).add(x.mul(z))
    cap = min(lhs.gamma + lhs.precision, rhs.gamma + rhs.precision, k)
    if not lhs.is_zero and not rhs.is_zero:
        assert lhs.eq_mod(rhs, cap)
    assert x.mul(y) == y.mul(x)
    a = x.add(y)
    b = y.add(x)
    assert a == b


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=150, deadline=None)
def test_ultrametric_inequality(p, data):
    x = data.draw(padics(p))
    y = data.draw(padics(p))
    s = x.add(y)
    assert s.norm() <= max(x.norm(), y.norm())
    if x.norm() != y.norm():
        assert s.norm() == max(x.norm(), y.norm())


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=150, deadline=None)
def test_norm_multiplicativity(p, data):
    x = data.draw(padics(p))
    y = data.draw(padics(p))
    assert x.mul(y).norm() == x.norm() * y.norm()


@given(st.sampled_from([3, 5, 7]), st.data())
@settings(max_examples=100, deadline=None)
def test_rational_round_trip(p, data):
    n = data.draw(st.integers(min_value=-400, max_value=400).filter(lambda v: v != 0))
    d = data.draw(
        st.integers(min_value=1, max_value=400).filter(lambda v: v % p != 0)
    )
    lhs = PAdic.from_rational(n, d, p, 8).mul(PAdic.from_rational(d, 1, p, 8))
    assert lhs.eq_mod(PAdic.from_rational(n, 1, p, 8), bf.int_valuation(n, p) + 8)


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_round_trip(p, data):
    x = data.draw(padics(p))
    prod = x.mul(x.inv())
    assert prod.eq_mod(PAdic.one(p, prod.precision), prod.precision)
