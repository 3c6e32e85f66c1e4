"""Tests for the truncated-precision p-adic arithmetic core.

Expected digit vectors are frozen from the long-division oracle in
bruteforce.py; structural laws (ring axioms, ultrametric inequality)
run as hypothesis properties over random values.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import padicroots
from padicroots import PAdic, PrecisionError, parse_value
from padicroots.cli import PRECISION_CAP
from padicroots.padic_core import _BLOCK, _CHUNK, _LEAF, _from_digits

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


@pytest.mark.parametrize(
    "call, message",
    [
        ("int_valuation(5, 1)", "valuation base must be at least 2, got 1"),
        ("PAdic.from_int(3, 1, 5)", "p must be prime, got 1"),
        ("parse_value('7/2', 1, 4)", "p must be prime, got 1"),
        ("PAdic.from_digits(1, 0, [1, 2])", "p must be prime, got 1"),
        ("PAdic.from_int(3, 0, 5)", "p must be prime, got 0"),
        ("PAdic.from_unit(0, 2, 3, 5)", "p must be prime, got 0"),
    ],
)
def test_base_below_two_is_refused(call, message):
    # dividing by p = 1 never ends, so each call runs in a child process
    # that the timeout stops if it hangs
    code = (
        "from padicroots import PAdic, int_valuation, parse_value\n"
        f"try:\n    {call}\nexcept ValueError as e:\n    print(e)\n"
    )
    src = str(Path(padicroots.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, message + "\n", "")


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


def test_value_is_immutable_and_hashable():
    x = PAdic.from_int(27, 5, 4)
    for name in ("p", "gamma", "unit", "precision", "other"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(x, name, 1)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(x, name)
    assert (x.p, x.gamma, x.unit, x.precision) == (5, 0, 27, 4)
    # equal values built by different routes hash alike
    groups = [
        [x, parse_value("0;2,0,1", 5, 4), PAdic.from_digits(5, 0, (2, 0, 1, 0))],
        [PAdic.zero(5, 4), PAdic.from_digits(5, 0, (0, 0, 0, 0)), x.sub(27)],
    ]
    for group in groups:
        assert all(a == b and hash(a) == hash(b) for a in group for b in group)
    assert x != PAdic.from_int(27, 5, 5) and x != PAdic.from_int(27, 7, 4)
    # a value is no tuple: not iterable, and unequal to its four fields
    with pytest.raises(TypeError):
        iter(x)
    assert x != (5, 0, 27, 4) and (5, 0, 27, 4) != x


@pytest.mark.parametrize(
    "value",
    [PAdic.from_int(27, 5, 4), PAdic.zero(3, 2), parse_value("-2;1,2", 3, 6)],
)
def test_value_copies_and_pickles_through_the_constructor(value):
    for again in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(again) is PAdic and again == value
    fields = (value.p, value.gamma, value.unit, value.precision)
    assert value.__reduce__() == (PAdic, fields)


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


def test_operands_int_type_and_prime():
    x = PAdic.from_int(5, 7, 4)
    assert x * 2 == 2 * x == x.mul(PAdic.from_int(2, 7, 4))
    assert x + 1 == 1 + x == PAdic.from_int(6, 7, 4)
    assert x.eq_mod(12, 1) and not x.eq_mod(12, 2)
    with pytest.raises(TypeError, match="^cannot combine PAdic with float$"):
        x * 1.5
    y = PAdic.from_int(5, 5, 4)
    for op in (PAdic.mul, PAdic.add, PAdic.sub, PAdic.div, lambda a, b: a.eq_mod(b, 1)):
        with pytest.raises(ValueError, match="^mixed primes 7 and 5$"):
            op(x, y)
    # the operands are checked before anything is computed: a zero over
    # another prime is refused as mixed, not as a zero divisor
    with pytest.raises(ValueError, match="^mixed primes 7 and 5$"):
        x.div(PAdic.zero(5, 4))


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


def block_digits(p: int) -> int:
    """Digits per rendered block: the largest e with p**e <= _BLOCK, and 1
    for p above it."""
    e = 1
    while p ** (e + 1) <= _BLOCK:
        e += 1
    return e


def test_digit_conversion_matches_plain_loops():
    # lengths on both sides of the split threshold, of the rendering
    # blocks and up to the CLI cap, for p on both sides of the block
    # table's bound, against one divmod per digit and Horner's rule
    rng = random.Random(41)
    for p in (2, 3, 5, 31, 37, 1009, 1031, 1_000_003):
        e = block_digits(p)
        lengths = {1, e - 1, e, e + 1, 64 * e - 1, 64 * e + 1}
        lengths |= {_LEAF - 1, _LEAF, _LEAF + 1, 4000, PRECISION_CAP}
        for k in sorted(lengths - {0}):
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


def reference_parse_value(text: str, p: int, precision: int) -> PAdic:
    """parse_value as it read every literal before single-digit numerals
    were read by int(): one int() and one range test per digit entry."""
    t = text.strip()
    if ";" in t:
        head, _, tail = t.partition(";")
        try:
            gamma = int(head)
            digs = [int(x) for x in tail.split(",")]
        except ValueError:
            raise ValueError(f"malformed digit literal {text!r}") from None
        if not digs:
            raise ValueError("digit literal needs at least one digit")
        for d in digs:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} out of range for p={p}")
        if digs[0] == 0:
            raise ValueError("first digit must be nonzero (canonical form)")
        return PAdic.from_unit(p, gamma, _from_digits(digs, p, {}), precision)
    num, slash, den = t.partition("/")
    try:
        n = int(num)
        d = int(den) if slash else 1
    except ValueError:
        raise ValueError(f"malformed rational literal {text!r}") from None
    return PAdic.from_rational(n, d, p, precision)


def outcome(parse, text: str, p: int, precision: int):
    """The parsed value's fields, or the exception's type and message."""
    try:
        x = parse(text, p, precision)
    except Exception as e:
        return type(e), str(e)
    return x.gamma, x.unit, x.precision, x.is_zero


# entries that keep a literal off the single-digit numeral route, or put
# a zero or an out-of-range digit on it
AWKWARD = [
    " ", "+", "-", "_", "", " 1", "1 ", "+1", "-0", "1_0", "01", "00", "10",
    "12", "a", ";", "\u0661", "\u0663", "\u00b2", "\uff11", "0", "7", "9",
]
LENGTHS = [
    st.integers(1, 12),
    st.integers(_CHUNK - 3, _CHUNK + 3),
    st.integers(2 * _CHUNK - 2, 2 * _CHUNK + 2),
    st.integers(4297, 4303),
    st.integers(PRECISION_CAP - 3, PRECISION_CAP),
]


@st.composite
def digit_literals(draw):
    """(text, p, precision): a random digit list with up to three entries
    replaced by awkward ones, an optional trailing comma, and a valuation
    that may itself be malformed."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 101]))
    k = draw(st.one_of(LENGTHS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    digits = [str(rng.randrange(1, p))] + [str(rng.randrange(p)) for _ in range(k - 1)]
    for _ in range(draw(st.integers(0, 3))):
        digits[draw(st.integers(0, k - 1))] = draw(st.sampled_from(AWKWARD))
    if draw(st.booleans()):
        digits[0] = draw(st.sampled_from(AWKWARD))
    gamma = draw(st.sampled_from(["0", "-3", "7", " 2", "x", "+1", "1_0", ""]))
    text = f"{gamma};" + ",".join(digits) + draw(st.sampled_from(["", ",", " "]))
    precision = draw(st.sampled_from([1, k, k + 2, max(1, k // 2)]))
    return text, p, precision


@given(digit_literals())
@settings(max_examples=300, deadline=None)
def test_parse_value_matches_per_digit_reference(case):
    assert outcome(parse_value, *case) == outcome(reference_parse_value, *case)


@pytest.mark.parametrize("p", [-3, 1, 2, 3, 5, 7, 11, 101])
def test_parse_value_edge_literals_match_reference(p):
    edge = [
        "0;1", "0;0", "0;0,1", "0;1,", "0;,1", "0;1,,0", "0; 1,0", "0;1 ,0",
        "0;+1,0", "0;-1,0", "0;1_0", "0;\u0661", "0;1,\u0661", "x;1,0",
        " 3;1,0 ", "3 ;1,0", "-2;1,1,1", "0;01", "0;1,2", "0;1,1;1", "0;",
        ";1", "1e3;1", "0;1.0", "0;10", "0;1,10", "0;9,9", "0;1,0,0,0,0",
        "0;6,0,9", "0;1,0,2", "0;" + ",".join("1" * 4301),
        # one entry off the numeral's shape: a non-ASCII digit, a space, a
        # sign or an underscore at an even place, or no comma at an odd one;
        # \udcff is how a command line decodes the byte 0xff (surrogateescape)
        "0;\u00b2", "0;1,\u00b2", "0;\u0663", "0;1,\u0663,1", "0;1,\udcff",
        "0;\udcff,1", "0;1, ", "0;1,_",
        "0;_,1", "0;1,-", "0;1,+,1", "0;1;0", "0;1 0", "0;1,0,1,0,9",
    ]
    for text in edge:
        for precision in (1, 4, 4301):
            want = outcome(reference_parse_value, text, p, precision)
            assert outcome(parse_value, text, p, precision) == want, (text, p)


def test_parse_value_at_the_least_int_digit_limit():
    # the lowest limit sys.set_int_max_str_digits accepts; the numeral
    # route reads at most that many digits per int() call
    rng = random.Random(7)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
    try:
        for p in (2, 3, 5, 7):
            for k in (640, 641, 1281, 4301, PRECISION_CAP):
                digits = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k - 1)]
                text = "-2;" + ",".join(map(str, digits))
                x = parse_value(text, p, k)
                assert outcome(parse_value, text, p, k) == outcome(
                    reference_parse_value, text, p, k
                )
                assert x.digits == tuple(digits)
    finally:
        sys.set_int_max_str_digits(old)


def test_binary_text_matches_one_divmod_per_digit():
    # p = 2 prints format(unit, "b") padded and reversed; units with zero
    # top digits need the padding
    rng = random.Random(2)
    for k in [1, 2, 3, 63, 64, 65, 1000, 4299, 4300, 4301, PRECISION_CAP]:
        for unit in {1, 2**k - 1, rng.randrange(1, 2**k, 2), rng.randrange(1, 2 ** max(1, k // 3), 2)}:
            want, u = [], unit
            for _ in range(k):
                u, d = divmod(u, 2)
                want.append(d)
            assert str(PAdic(2, -1, unit, k)) == "-1;" + ",".join(map(str, want))


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
    # both operands carry 8 digits, so x - y is known mod p^(min gamma + 8)
    assert (x - y + y).eq_mod(x, min(x.gamma, y.gamma) + 8)
    assert 3 - x == -(x - 3)


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


# ---------------------------------------------------------------------------
# precision soundness: a result claims only what its operands determine


def frac_valuation(x: Fraction, p: int) -> float:
    """v_p(x) for a Fraction, infinite at 0."""
    if x == 0:
        return math.inf
    return bf.int_valuation(x.numerator, p) - bf.int_valuation(x.denominator, p)


def representative(x: PAdic, w: int) -> Fraction:
    """unit * p^gamma + w * p^(gamma + precision), from the fields alone:
    every such number is a value x may stand for."""
    p = Fraction(x.p)
    return x.unit * p**x.gamma + w * p ** (x.gamma + x.precision)


def stands_for(r: PAdic, value: Fraction) -> bool:
    """Whether value agrees with r to r's own claimed bound."""
    centre = Fraction(r.unit) * Fraction(r.p) ** r.gamma
    return frac_valuation(value - centre, r.p) >= r.gamma + r.precision


@st.composite
def operands(draw, p: int) -> PAdic:
    """A random value, a zero, an exact cancellation x + (-x), or a near
    cancellation: x plus a value that agrees with -x in j digits."""
    n = draw(st.integers(1, 6))
    g = draw(st.integers(-4, 4))
    u = draw(st.integers(1, p**n - 1).filter(lambda u: u % p))
    x = PAdic(p, g, u, n)
    kind = draw(st.sampled_from(["unit", "zero", "cancel", "near"]))
    if kind == "unit":
        return x
    if kind == "zero":
        return PAdic.zero(p, n)
    if kind == "cancel":
        return x + (-x)
    j = draw(st.integers(1, 6))
    t = draw(st.integers(0, p**4))
    return x + PAdic.from_unit(p, g, -u + p**j * t, draw(st.integers(1, 8)))


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=400, deadline=None)
def test_results_claim_only_what_their_operands_determine(p, data):
    x = data.draw(operands(p), "x")
    y = data.draw(operands(p), "y")
    n = data.draw(st.sampled_from([0, 1, -1, p, -(p**2), 2 * p**3]) | st.integers(-50, 50), "n")
    q = data.draw(st.integers(1, 6), "q")
    k = data.draw(st.integers(-3, 3), "k")
    big = p**4
    ws = [(0, 0)] + [
        (data.draw(st.integers(-big, big)), data.draw(st.integers(-big, big)))
        for _ in range(3)
    ]
    reps = [(representative(x, wx), representative(y, wy)) for wx, wy in ws]
    P = Fraction(p)
    results = [
        (x + y, lambda X, Y: X + Y),
        (x - y, lambda X, Y: X - Y),
        (x * y, lambda X, Y: X * Y),
        (-x, lambda X, Y: -X),
        (x.pow_nat(q), lambda X, Y: X**q),
        (x.shift(k), lambda X, Y: X * P**k),
        (x + n, lambda X, Y: X + n),
        (x - n, lambda X, Y: X - n),
        (n - x, lambda X, Y: n - X),
        (x * n, lambda X, Y: X * n),
    ]
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.div(y)
    else:
        results.append((x.div(y), lambda X, Y: X / Y))
    if n:
        results.append((x.div(n), lambda X, Y: X / n))
    for r, exact in results:
        for X, Y in reps:
            assert stands_for(r, exact(X, Y)), (r, x, y, n, q, k)
    # an int is exact: it narrows neither a sum nor a product
    assert (x + n).gamma + (x + n).precision == x.gamma + x.precision
    assert (x * n).precision == x.precision
    for kk in range(-6, 13):
        for other, exact in ((y, lambda X, Y: Y), (n, lambda X, Y: Fraction(n))):
            try:
                answer = x.eq_mod(other, kk)
            except PrecisionError:
                continue
            for X, Y in reps:
                assert answer == (frac_valuation(X - exact(X, Y), p) >= kk), (x, other, kk)


@pytest.mark.parametrize(
    "make, bound",
    [
        (
            lambda: (PAdic.from_int(1, 5, 3) + PAdic.from_int(-1, 5, 3)).eq_mod(
                PAdic.from_int(5**10, 5, 4), 10
            ),
            None,
        ),
        (lambda: PAdic.from_unit(5, -2, 1, 3) + PAdic.from_unit(5, -2, -1, 3), 1),
        (lambda: PAdic.zero(5, 2) + PAdic.from_int(1, 5, 8), 2),
        (lambda: PAdic.from_unit(5, -3, 1, 1) * PAdic.zero(5, 1), -2),
    ],
    ids=["eq-mod-cancelled-sum", "cancel-at-negative-gamma", "zero-plus-long", "tiny-times-zero"],
)
def test_zero_operands_and_results_claim_what_is_known(make, bound):
    # each value is known modulo 5^bound and no further; None: the
    # comparison asks past what is known and must raise
    if bound is None:
        with pytest.raises(PrecisionError):
            make()
    else:
        r = make()
        assert r.gamma + r.precision == bound
