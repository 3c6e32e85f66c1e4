"""Tests for the canonical epsilon * delta * y^q decompositions.

Golden rows of the no-solution-j table are pinned both against an
exhaustive scan oracle and against the library's own index machinery;
round-trip checks recompose every decomposition back to the input.
"""

from __future__ import annotations

import random

import pytest

import bruteforce as bf
import padicroots.representation
from padicroots import (
    PAdic,
    check_qp,
    classify,
    classify_coprime,
    classify_p,
    decide,
    derived_epsilon_set,
    epsilon_set,
    find_nonresidue_unit,
    index,
    j_no_solution_table,
    lift_root,
    verify_c1,
)
from padicroots.congruence import LIST_CAP
from padicroots.representation import _j_row, _second_digits

# frozen from the literal big-integer scan of i^p = i + jp mod p^2
GOLDEN_J_TABLE = {
    3: (1,),
    5: (2,),
    7: (1, 3, 5),
    11: (1, 4, 5, 6, 9),
    13: (2, 3, 4, 8, 9, 10),
    17: (1, 5, 8, 11, 15),
    19: (4, 7, 8, 9, 10, 11, 14),
    23: (3, 4, 6, 9, 10, 12, 13, 16, 18, 19),
    29: (3, 5, 10, 11, 13, 15, 17, 18, 23, 25),
    31: (1, 2, 5, 6, 8, 9, 11, 15, 19, 21, 22, 24, 25, 28, 29),
    37: (1, 4, 5, 6, 7, 10, 14, 16, 20, 22, 26, 29, 30, 31, 32, 35),
    41: (2, 4, 6, 8, 10, 14, 16, 24, 26, 30, 32, 34, 36, 38),
}


# ---------------------------------------------------------------------------
# the j table and epsilon sets


def test_j_table_matches_golden_rows():
    assert j_no_solution_table(41) == GOLDEN_J_TABLE


def test_j_table_matches_exhaustive_scan():
    table = j_no_solution_table(23)
    for p, js in table.items():
        pp = p * p
        solvable_j = {(pow(i, p, pp) - i) // p % p for i in range(1, p)}
        assert js == tuple(sorted(set(range(p)) - solvable_j))


def test_j_table_complement_via_digit_map():
    # j admits a solution exactly when some i maps to it under (i^p - i)/p
    for p in (3, 5, 7, 11, 13):
        js = set(j_no_solution_table(p)[p])
        for j in range(p):
            hit = any(pow(i, p, p * p) == (i + j * p) % (p * p) for i in range(1, p))
            assert (j in js) == (not hit)


def test_epsilon_set_base3():
    assert epsilon_set(3) == (1, 2, 4, 5, 7)


def test_epsilon_set_base5_contains_remark_row():
    s = epsilon_set(5)
    assert {11, 12, 13, 14}.issubset(s)
    assert 1 in s


def test_epsilon_set_membership_definition():
    for p in (3, 5, 7):
        s = set(epsilon_set(p))
        for i in range(1, p):
            for j in range(p):
                member = pow(i, p, p * p) != (i + j * p) % (p * p)
                assert ((i + j * p) in s) == member or (i + j * p) == 1


def epsilon_set_by_pow_compare(p):
    """The definition, one digit test per two-digit unit, as a sorted set."""
    out = {1}
    for i in range(1, p):
        for j in range(p):
            if pow(i, p, p * p) != (i + j * p) % (p * p):
                out.add(i + j * p)
    return tuple(sorted(out))


def test_epsilon_set_matches_pow_compare():
    for p in bf.primes_upto(150)[1:] + [211, 401]:
        want = epsilon_set_by_pow_compare(p)
        assert epsilon_set(p) == want
        assert len(want) == 1 + (p - 1) ** 2
    for p in (1, 2, 4, 9):
        with pytest.raises(ValueError):
            epsilon_set(p)


def test_second_digits_and_rows_match_the_definition():
    # the walk through the Teichmueller powers against one pow per i, for
    # every odd prime below 2000 and for 9973, the largest under 10^4
    for p in bf.primes_upto(2000)[1:] + [9973]:
        pp = p * p
        want = [(pow(i, p, pp) - i) % pp // p for i in range(1, p)]
        assert _second_digits(p) == want, p
        assert _j_row(p) == tuple(sorted(set(range(p)) - set(want))), p


def test_epsilon_set_is_refused_above_the_table_bound(monkeypatch):
    # the bound is checked before the (p-1)^2 entries are built
    monkeypatch.setattr(padicroots.representation, "TABLE_BOUND", 100)
    with pytest.raises(ValueError, match="^table bound capped at 100$"):
        epsilon_set(101)
    assert len(epsilon_set(97)) == 1 + 96**2


def test_epsilon_set_is_refused_over_the_list_cap(monkeypatch):
    # 1 + (p-1)^2 entries, refused before any is built: 1 + 1008^2 at 1009
    message = r"^epsilon_set\(1009\) has 1016065 entries, more than 1000000$"
    with pytest.raises(ValueError, match=message):
        epsilon_set(1009)
    monkeypatch.setattr(padicroots.representation, "LIST_CAP", 1 + 96**2)
    assert len(epsilon_set(97)) == 1 + 96**2
    with pytest.raises(ValueError, match="more than 9217$"):
        epsilon_set(101)


def test_derived_epsilon_sets():
    assert derived_epsilon_set(3) == (1, 4, 5)
    assert derived_epsilon_set(5) == (1, 11, 12, 13, 14)
    # every derived entry also satisfies the defining digit test
    for p in (3, 5, 7, 11):
        assert set(derived_epsilon_set(p)) <= set(epsilon_set(p))


def derived_epsilon_set_by_set(p, js):
    """The definition, built as a set: {1} plus i + j*p for every j of p's
    no-solution row and i in [1, p-1], in increasing order."""
    out = {1}
    for j in js:
        for i in range(1, p):
            out.add(i + j * p)
    return tuple(sorted(out))


def test_derived_epsilon_set_matches_set_construction():
    # every odd prime below 500, and 1669, the largest whose set is within
    # LIST_CAP (all of them would build 132 million entries)
    table = j_no_solution_table(499)
    table[1669] = j_no_solution_table(1669)[1669]
    for p, js in table.items():
        want = derived_epsilon_set_by_set(p, js)
        assert derived_epsilon_set(p) == want
        assert len(want) == 1 + len(js) * (p - 1)
    # no table row outside the odd primes
    for p in (1, 2, 4, 9, 15):
        assert derived_epsilon_set(p) == (1,)
    with pytest.raises(ValueError):
        derived_epsilon_set(10_007)
    # more than LIST_CAP entries, counted from the row before any is built
    assert len(derived_epsilon_set(1009)) == 346_753
    for p, n in ((1657, 1_001_881), (2003, 1_499_499), (9973, 37_245_421)):
        with pytest.raises(ValueError) as err:
            derived_epsilon_set(p)
        assert str(err.value) == (
            f"derived_epsilon_set({p}) has {n} entries, more than {LIST_CAP}"
        )


# ---------------------------------------------------------------------------
# nonresidue units and their product certification


def test_find_nonresidue_unit_pinned():
    assert find_nonresidue_unit(7, 3).digits[0] == 3
    assert find_nonresidue_unit(13, 3).digits[0] == 2
    assert find_nonresidue_unit(7, 2).digits[0] == 3


def test_find_nonresidue_unit_requires_qk_plus_1():
    with pytest.raises(ValueError):
        find_nonresidue_unit(5, 3)  # 5 != 1 mod 3: every unit is a cube


def test_find_nonresidue_is_not_a_power():
    for p, q in ((7, 3), (13, 3), (11, 5), (31, 5)):
        eta = find_nonresidue_unit(p, q)
        assert not decide(eta, q).solvable


@pytest.mark.parametrize("p,q", [(7, 3), (13, 3), (11, 5), (7, 2), (11, 2)])
def test_verify_c1_pinned(p, q):
    assert verify_c1(p, q)


# ---------------------------------------------------------------------------
# coprime-case classification


def test_classify_coprime_two_base7():
    x = PAdic.from_int(2, 7, 8)
    d = classify_coprime(x, 3)
    assert d.form == "coprime_with_eta"
    assert d.eta_exponent == 2
    assert d.delta_exponent == 0
    assert d.recompose().eq_mod(x, 8)


def test_classify_coprime_six_base7():
    x = PAdic.from_int(6, 7, 8)
    d = classify_coprime(x, 3)
    assert d.eta_exponent == 0
    assert d.epsilon_int == 1
    assert d.recompose().eq_mod(x, 8)


def test_classify_coprime_plain_base5():
    x = PAdic.from_int(5 * 8, 5, 8)  # valuation 1, unit part a cube
    d = classify_coprime(x, 3)
    assert d.form == "coprime_plain"
    assert d.epsilon_int == 1 and d.delta_exponent == 1
    assert d.recompose().eq_mod(x, x.gamma + 8)


def test_classify_coprime_negative_valuation():
    x = PAdic.from_rational(2, 7**4, 7, 8)
    d = classify_coprime(x, 3)
    assert d.delta_exponent == (-4) % 3
    assert d.recompose().eq_mod(x, x.gamma + 8)


def test_classify_coprime_epsilon_is_eta_power():
    rng = random.Random(3)
    for p, q in ((7, 3), (13, 3), (11, 5), (13, 2)):
        eta = find_nonresidue_unit(p, q)
        for _ in range(25):
            u = rng.randrange(1, p**8)
            if u % p == 0:
                continue
            x = PAdic.from_unit(p, rng.randrange(-6, 7), u, 8)
            d = classify_coprime(x, q)
            assert 0 <= d.eta_exponent < q
            assert d.epsilon.eq_mod(eta.pow_nat(d.eta_exponent) if d.eta_exponent else PAdic.one(p, 8), 8)
            assert d.recompose().eq_mod(x, x.gamma + 8)


def test_classify_coprime_rejects_bad_exponent():
    with pytest.raises(ValueError):
        classify_coprime(PAdic.from_int(2, 5, 6), 4)  # composite
    with pytest.raises(ValueError):
        classify_coprime(PAdic.from_int(2, 5, 6), 5)  # q = p
    with pytest.raises(ValueError):
        classify_coprime(PAdic.zero(5, 4), 3)


# ---------------------------------------------------------------------------
# q = p classification


def test_classify_p_perfect_cube():
    d = classify_p(PAdic.from_int(8, 3, 8))
    assert (d.epsilon_int, d.delta_exponent) == (1, 0)
    assert d.y.eq_mod(PAdic.from_int(2, 3, 7), 7)


def test_classify_p_four_base3():
    d = classify_p(PAdic.from_int(4, 3, 8))
    assert (d.epsilon_int, d.delta_exponent) == (4, 0)
    assert d.y.eq_mod(PAdic.one(3, 7), 7)


def test_classify_p_fifteen_base3():
    x = PAdic.from_int(15, 3, 8)
    d = classify_p(x)
    assert (d.epsilon_int, d.delta_exponent) == (5, 1)
    assert d.recompose().eq_mod(x, x.gamma + 8)


def test_classify_p_three_base3():
    d = classify_p(PAdic.from_int(3, 3, 8))
    assert (d.epsilon_int, d.delta_exponent) == (1, 1)
    assert d.y.eq_mod(PAdic.one(3, 7), 7)


def test_classify_p_epsilon_in_epsilon_set():
    rng = random.Random(5)
    for p in (3, 5, 7):
        allowed = set(epsilon_set(p))
        for _ in range(40):
            u = rng.randrange(1, p**8)
            if u % p == 0:
                continue
            x = PAdic.from_unit(p, rng.randrange(-6, 7), u, 8)
            d = classify_p(x)
            assert d.epsilon_int in allowed
            assert d.recompose().eq_mod(x, x.gamma + 8)


def test_classify_p_certifies_nonpower_pairs():
    # whenever (epsilon, delta) != (1, 1) the product must not be a p-th power
    rng = random.Random(9)
    for p in (3, 5, 7):
        for _ in range(30):
            u = rng.randrange(1, p**6)
            if u % p == 0:
                continue
            x = PAdic.from_unit(p, rng.randrange(-4, 5), u, 6)
            d = classify_p(x)
            if d.epsilon_int == 1 and d.delta_exponent == 0:
                continue
            eps_delta = PAdic.from_int(d.epsilon_int, p, 6).shift(d.delta_exponent)
            assert not check_qp(eps_delta).solvable


def test_classify_p_rejects_p2_and_zero():
    with pytest.raises(ValueError):
        classify_p(PAdic.from_int(3, 2, 6))
    with pytest.raises(ValueError):
        classify_p(PAdic.zero(3, 4))


def test_classify_p_needs_two_digits():
    from padicroots import PrecisionError

    with pytest.raises(PrecisionError):
        classify_p(PAdic.from_int(4, 3, 1))


# ---------------------------------------------------------------------------
# one classifier: classify picks the case, the two old names are its views


def reference_decomposition(x, q):
    """The fields the two per-case classifiers returned before classify
    held both cases: (form, epsilon, i, y, epsilon_int, eta, eta_exponent)."""
    p, n = x.p, x.precision
    i = x.gamma % q
    if q == p:
        eps_int = 1 if decide(x.unit_part(), p).solvable else x.unit % (p * p)
        eps = PAdic.from_int(eps_int, p, n)
        y = lift_root(x.shift(-i).div(eps), p, n - 1)
        return ("q_equals_p", eps, i, y, eps_int, None, None)
    if (p - 1) % q != 0:
        y = lift_root(x.shift(-i), q, n)
        return ("coprime_plain", PAdic.one(p, n), i, y, 1, None, None)
    eta = find_nonresidue_unit(p, q, n)
    j = index(eta.unit, x.unit % p, p) % q
    eps = eta.pow_nat(j) if j else PAdic.one(p, n)
    y = lift_root(x.shift(-i).div(eps), q, n)
    return ("coprime_with_eta", eps, i, y, 1 if j == 0 else None, eta, j)


def test_classify_matches_the_per_case_classifiers():
    rng = random.Random(12)
    pairs = ((3, 3), (5, 5), (101, 101), (3, 2), (7, 3), (13, 3), (31, 5),
             (5, 3), (11, 7), (101, 3))
    for p, q in pairs:
        for _ in range(25):
            u = rng.randrange(1, p**12)
            if u % p == 0:
                u += 1
            x = PAdic.from_unit(p, rng.randrange(-2 * q, 2 * q), u, 12)
            d = classify(x, q)
            got = (d.form, d.epsilon, d.delta_exponent, d.y, d.epsilon_int,
                   d.eta, d.eta_exponent)
            assert got == reference_decomposition(x, q), (p, q, x)
            assert d.q == q
            view = classify_p(x) if q == p else classify_coprime(x, q)
            assert view == d


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classify(PAdic.from_int(7, 5, 6), 10),
         "classify needs q = p or prime q < p, got q=10, p=5"),
        (lambda: classify(PAdic.from_int(7, 5, 6), 6),
         "classify needs q = p or prime q < p, got q=6, p=5"),
        (lambda: classify(PAdic.from_int(7, 5, 6), 4),
         "classifier needs a prime exponent q < p"),
        (lambda: classify(PAdic.from_int(3, 2, 6), 2),
         "the q = p classifier is only defined for odd p"),
        (lambda: classify(PAdic.zero(5, 4), 10), "cannot decompose zero"),
        (lambda: classify_coprime(PAdic.from_int(7, 5, 6), 7),
         "classifier needs a prime exponent q < p"),
        (lambda: classify_coprime(PAdic.from_int(7, 5, 6), 5),
         "classifier needs a prime exponent q < p"),
        (lambda: classify_coprime(PAdic.zero(5, 4), 7), "cannot decompose zero"),
        (lambda: classify_p(PAdic.zero(2, 4)), "cannot decompose zero"),
    ],
    ids=["q-above-p", "q-next-above-p", "q-composite", "p2", "zero", "view-q-above-p",
         "view-q-equals-p", "view-zero", "p-view-zero"],
)
def test_classify_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# round trips across mixed configurations


def test_round_trip_mixed_configurations():
    rng = random.Random(17)
    for p, q in ((3, 3), (5, 5), (7, 3), (13, 3), (5, 3)):
        for _ in range(40):
            u = rng.randrange(1, p**10)
            if u % p == 0:
                continue
            x = PAdic.from_unit(p, rng.randrange(-8, 9), u, 10)
            d = classify_p(x) if q == p else classify_coprime(x, q)
            back = d.recompose()
            assert back.eq_mod(x, x.gamma + 10)
            assert back.gamma == x.gamma
