"""Tests for the multinomial / carry-combinatorics engine.

The central object is the correction term N_k in the raw base-p
expansion of (d0 + d1 p + ...)^q: coefficient k equals
q*d0^(q-1)*dk + N_k before carries.  The oracle recomputes those raw
coefficients by polynomial convolution over plain integers, and lists
the terms of N_k from the partitions of k (bruteforce.nk_terms).
"""

from __future__ import annotations

import gc
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from padicroots import (
    binom_valuation_kummer,
    compute_Nk,
    nk_sequence,
    ntilde_pk,
)
from padicroots.multinomial import nk_term_count, nk_walk


# ---------------------------------------------------------------------------
# N_k terms and values


def oracle_terms(q, k, digits):
    """bf.nk_terms in nk_walk's form: (exponent text, coefficient, value
    at the digits)."""
    return [
        (",".join(map(str, e)), c, c * math.prod(map(pow, digits, e)))
        for e, c in bf.nk_terms(q, k)
    ]


def test_nk_terms_constraints_hold():
    # the small grid plus the (q, k) shapes the benchmark expands
    shapes = [(q, k) for q in range(2, 8) for k in range(1, 12)]
    shapes += [(7, 25), (6, 22), (5, 25), (7, 18), (4, 25), (3, 25)]
    for q, k in shapes:
        walk = nk_walk(q, k, [1] * k)
        assert walk == oracle_terms(q, k, [1] * k)
        for text, _, _ in walk:
            exponents = tuple(map(int, text.split(",")))
            assert sum(exponents) == q
            assert sum(i * m for i, m in enumerate(exponents)) == k
            # the leading term q*d0^(q-1)*dk is excluded by construction
            assert len(exponents) == k


def test_nk_terms_are_every_tuple_in_reverse_lexicographic_order():
    # the order expand prints: by (m_{k-1}, ..., m_1)
    for q in range(1, 5):
        for k in range(1, 8):
            want = sorted(
                (
                    t
                    for t in itertools.product(range(q + 1), repeat=k)
                    if sum(t) == q and sum(i * m for i, m in enumerate(t)) == k
                ),
                key=lambda t: t[:0:-1],
            )
            assert [e for e, _ in bf.nk_terms(q, k)] == want
            walk = nk_walk(q, k, [1] * k)
            assert [tuple(map(int, e.split(","))) for e, _, _ in walk] == want


def test_nk_terms_at_large_k():
    # q = 2: the pairs 900 = a + b with 1 <= a <= b
    digits = [(7 * i + 3) % 13 for i in range(900)]
    walk = nk_walk(2, 900, digits)
    assert len(walk) == 450
    assert walk == oracle_terms(2, 900, digits)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=30),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_walk_values_are_the_terms_evaluated(q, k, data):
    # the values built along the walk against the terms listed from the
    # partitions of k and evaluated afresh, and against the power route
    digits = data.draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=k, max_size=k)
    )
    walk = nk_walk(q, k, digits)
    assert walk == oracle_terms(q, k, digits)
    assert sum(value for _, _, value in walk) == nk_sequence(q, digits + [0], k)[k - 1]


def test_walk_leaves_no_reference_cycle():
    # the terms are freed as soon as the caller drops them, not at the next
    # run of the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        nk_walk(7, 25, [1] * 25)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_term_count_is_the_number_of_terms():
    for q in range(1, 9):
        for k in range(1, 21):
            n = len(bf.nk_terms(q, k))
            assert len(nk_walk(q, k, [1] * k)) == n
            assert nk_term_count(q, k, 10**9) == n
            assert nk_term_count(q, k, n) == n
            # at a cap below the count it stops at some number above the cap
            if n:
                assert nk_term_count(q, k, n - 1) > n - 1
    assert nk_term_count(10, 100, 10**7) == 6_292_068
    assert nk_term_count(3, 600, 10**6) == 30_300
    # a k past every cap is refused without a table of k entries
    assert nk_term_count(2, 10**15, 10) > 10
    assert nk_term_count(1, 10**15, 0) == 0


def test_nk_is_zero_at_k1():
    assert bf.nk_terms(5, 1) == []
    assert nk_walk(5, 1, [3]) == []
    assert compute_Nk(7, (4, 2), 1) == 0


def test_nk_pinned_small_cases():
    # (d0 + d1 p)^2: coefficient of p^2 is d1^2, so N_2 = d1^2
    assert compute_Nk(2, (1, 1), 2) == 1
    # (d0 + d1 p)^3: coefficient of p^2 is 3 d0 d1^2
    assert compute_Nk(3, (1, 2), 2) == 12
    # (d0 + d1 p)^3: coefficient of p^3 is d1^3; zero-pad to k digits
    assert compute_Nk(3, (1, 2, 0), 3) == 8


def test_nk_matches_convolution_exhaustively_small():
    # all base-3 digit vectors of length 3, exponents up to 4
    p = 3
    for q in (2, 3, 4):
        for d0 in range(1, p):
            for d1 in range(p):
                for d2 in range(p):
                    digits = (d0, d1, d2)
                    k_max = (len(digits) - 1) * q
                    coeffs = bf.int_power_coefficients(digits, p, q, k_max)
                    padded = digits + (0,) * (k_max - len(digits) + 1)
                    assert coeffs[0] == d0**q
                    for k in range(1, k_max + 1):
                        lead = q * d0 ** (q - 1) * padded[k]
                        assert compute_Nk(q, padded[:k], k) == coeffs[k] - lead


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=2, max_value=7),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_generating_identity(p, q, data):
    digits = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=6
            ).map(tuple)
        )
    )
    if digits[0] == 0:
        digits = (1,) + digits[1:]
    k_max = (len(digits) - 1) * q
    coeffs = bf.int_power_coefficients(digits, p, q, k_max)
    # the reassembled polynomial value is the integer power itself
    value = sum(d * p**i for i, d in enumerate(digits))
    assert sum(c * p**k for k, c in enumerate(coeffs)) == value**q
    padded = digits + (0,) * (k_max + 1 - len(digits))
    seq = nk_sequence(q, padded, k_max)
    for k in range(1, k_max + 1):
        lead = q * digits[0] ** (q - 1) * padded[k]
        assert seq[k - 1] == coeffs[k] - lead


@given(
    st.sampled_from([3, 5, 7]),
    st.integers(min_value=2, max_value=6),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_nk_sequence_agrees_with_enumeration(p, q, data):
    digits = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=p - 1), min_size=2, max_size=5
            ).map(tuple)
        )
    )
    if digits[0] == 0:
        digits = (1,) + digits[1:]
    k_max = len(digits) - 1
    seq = nk_sequence(q, digits, k_max)
    for k in range(1, k_max + 1):
        assert seq[k - 1] == compute_Nk(q, digits, k)


# ---------------------------------------------------------------------------
# the divisibility dichotomy


def test_dichotomy_pinned():
    assert nk_sequence(3, (1, 2), 2)[1] % 3 == 0  # N_2 = 12, 3 does not divide 2
    assert nk_sequence(3, (1, 1, 1), 3)[2] % 3 != 0  # N_3 = 7, 3 divides 3
    assert nk_sequence(5, (1,), 1)[0] % 5 == 0  # N_1 = 0, 5 does not divide 1


def test_dichotomy_iff_nonzero_digits():
    # p | N_k exactly when p does not divide k, for digits in [1, p-1]
    import random

    rng = random.Random(20260817)
    for p in (3, 5, 7):
        for _ in range(40):
            length = rng.randrange(2, 9)
            digits = tuple(rng.randrange(1, p) for _ in range(length))
            for k in range(1, length):
                div_nk = nk_sequence(p, digits, k)[k - 1] % p == 0
                assert div_nk == (k % p != 0), (p, k, digits)


def test_dichotomy_can_fail_on_zero_digits():
    # with zero digits allowed the forward direction can break; the
    # restriction to nonzero digits in the property above is deliberate
    found = False
    p = 3
    for digits in ((1, 0, 0, 1), (2, 0, 1), (1, 0, 2, 0, 1)):
        for k in range(1, len(digits)):
            div_nk = nk_sequence(p, digits, k)[k - 1] % p == 0
            if div_nk == (k % p == 0):
                found = True
    assert found


# ---------------------------------------------------------------------------
# Kummer carries


def test_kummer_pinned():
    assert binom_valuation_kummer(3, 3, 2) == 2  # C(6,3) = 20 = 4*5
    assert binom_valuation_kummer(2, 2, 2) == 1  # C(4,2) = 6
    assert binom_valuation_kummer(0, 9, 5) == 0


def test_kummer_refuses_a_base_below_2():
    # the carry loop never ends in base 1 or below
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match=f"base must be at least 2, got {p}"):
            binom_valuation_kummer(1, 1, p)


def test_kummer_refuses_a_composite_base():
    # carries count the valuation only in a prime base: C(4,2) = 6 has
    # 4-adic valuation 0 but one carry, C(10,5) = 252 = 36*7 valuation 2
    # but one carry
    for m, n, p in ((2, 2, 4), (5, 5, 6)):
        with pytest.raises(ValueError, match=f"needs a prime base, got {p}$"):
            binom_valuation_kummer(m, n, p)


def test_kummer_prime_row():
    for p in (3, 5, 7, 11):
        for k in range(1, p):
            assert binom_valuation_kummer(k, p - k, p) == 1


def test_kummer_matches_comb_valuation_medium():
    for p in (2, 3, 5, 7):
        for total in range(0, 121):
            for m in range(0, total + 1):
                assert binom_valuation_kummer(m, total - m, p) == bf.comb_valuation(
                    m, total - m, p
                )


def test_binomial_divisible_by_n_over_gcd():
    # C(n,k) is always divisible by n / gcd(n,k)
    for n in range(1, 201):
        for k in range(1, n):
            assert math.comb(n, k) % (n // math.gcd(n, k)) == 0


# ---------------------------------------------------------------------------
# the reduced term at position pk


def test_ntilde_pinned():
    # p=3, digits (1,1,1), k=1: N_3 = 7, correction 3*2*1*1*1 = 6
    assert ntilde_pk(3, (1, 1, 1), 1) == 1


def test_ntilde_independent_of_last_digit():
    # a polynomial identity: a composite p holds it too
    for p in (3, 4, 5, 6, 9):
        for k in (1, 2):
            base = tuple(((i * 3) % (p - 1)) + 1 for i in range(p * k - 1))
            # base itself stops at position p*k - 2
            seen = {ntilde_pk(p, base, k)} | {
                ntilde_pk(p, base[: p * k - 1] + (d,), k) for d in range(p)
            }
            assert len(seen) == 1


def test_ntilde_requires_enough_digits():
    with pytest.raises(ValueError):
        ntilde_pk(3, (1,), 1)


def test_ntilde_refuses_p_below_2():
    for p in (1, 0):
        with pytest.raises(ValueError, match=f"p must be at least 2, got {p}$"):
            ntilde_pk(p, [1], 1)


def test_nk_sequence_refuses_an_empty_digit_list():
    for k_max in (0, 1, 3):
        with pytest.raises(ValueError, match="digit list is empty"):
            nk_sequence(3, [], k_max)
