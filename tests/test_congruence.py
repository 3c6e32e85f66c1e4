"""Tests for the modular-arithmetic toolkit.

The heavyweight check here is solver-vs-enumeration over every cyclic
modulus up to 2000; expected values for the small cases were frozen by
hand against the exhaustive oracles in bruteforce.py.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import padicroots.congruence as congruence
from padicroots import (
    CongruenceSolution,
    euler_phi,
    find_primitive_root,
    index,
    is_prime,
    is_qth_residue,
    power_residue_solve,
    solve_linear,
)


def cyclic_moduli(bound: int) -> list[int]:
    """All m <= bound whose unit group is cyclic: 1, 2, 4, p^a, 2p^a (p odd)."""
    out = [m for m in (1, 2, 4) if m <= bound]
    for p in range(3, bound + 1, 2):
        if not bf.is_prime_slow(p):
            continue
        pk = p
        while pk <= bound:
            out.append(pk)
            if 2 * pk <= bound:
                out.append(2 * pk)
            pk *= p
    return sorted(out)


# ---------------------------------------------------------------------------
# totient and primitive roots


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (9, 6), (10, 4), (97, 96)])
def test_euler_phi_pinned(n, expected):
    assert euler_phi(n) == expected


def test_euler_phi_matches_count():
    for n in range(1, 200):
        direct = sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)
        assert euler_phi(n) == direct


@pytest.mark.parametrize(
    "m,expected",
    [(7, 3), (8, None), (9, 2), (2, 1), (4, 3), (12, None), (22, 7)],
)
def test_find_primitive_root_pinned(m, expected):
    assert find_primitive_root(m) == expected


def test_find_primitive_root_matches_bruteforce():
    for m in range(2, 150):
        assert find_primitive_root(m) == bf.smallest_primitive_root(m)


def test_primitive_root_has_full_order():
    for m in cyclic_moduli(300):
        if m < 2:
            continue
        r = find_primitive_root(m)
        assert r is not None
        phi = euler_phi(m)
        assert pow(r, phi, m) == 1
        for d in range(1, phi):
            if phi % d == 0 and pow(r, d, m) == 1:
                pytest.fail(f"order of {r} mod {m} divides {d} < {phi}")


# ---------------------------------------------------------------------------
# indices


def test_index_pinned_values():
    assert index(3, 2, 7).value == 2  # 3^2 = 9 = 2 mod 7
    assert index(3, 6, 7).value == 3  # 3^3 = 27 = 6 mod 7
    assert index(3, 1, 7).value == 0
    assert index(2, 7, 9).value == 4  # 2^4 = 16 = 7 mod 9


def test_index_rejects_non_unit_and_non_root():
    with pytest.raises(ValueError):
        index(3, 7, 7)
    with pytest.raises(ValueError):
        index(2, 3, 7)  # 2 has order 3 mod 7, not primitive


def test_index_value_range():
    for m in (7, 9, 11, 22, 27):
        r = find_primitive_root(m)
        phi = euler_phi(m)
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            iv = index(r, a, m)
            assert 0 <= iv.value < phi
            assert pow(r, iv.value, m) == a


def test_index_uses_giant_steps_above_threshold():
    # moduli whose logs take several giant steps still give correct logs
    for m in (101, 243, 686, 1458):
        r = find_primitive_root(m)
        for a in (2, 3, find_primitive_root(m)):
            if math.gcd(a, m) != 1:
                continue
            iv = index(r, a, m)
            assert pow(r, iv.value, m) == a % m


def test_group_structure_is_worked_out_once_per_modulus(monkeypatch):
    calls = []
    real = congruence.factorize

    def counting_factorize(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(congruence, "factorize", counting_factorize)
    m = 2 * 31**4  # no other test uses it, so nothing about it is cached yet
    power_residue_solve(3, 3, m)
    assert calls, "the first call must work out the group"
    first = len(calls)
    g = find_primitive_root(m)
    for a in (3, 5, 11):
        power_residue_solve(6, a, m)
        index(g, a, m)
        index(pow(g, 7, m), a, m)
        find_primitive_root(m)
    assert len(calls) == first


def test_group_cache_is_bounded_by_table_entries(monkeypatch):
    calls = []
    real = congruence.factorize

    def counting_factorize(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(congruence, "factorize", counting_factorize)
    # safe primes 2*ell + 1: parts of 2 and ell, tables of 2 + 1352 and 2 + 1662
    # baby steps; no other test uses these moduli
    first, second = 2 * 1825331 + 1, 2 * 2759063 + 1
    monkeypatch.setattr(congruence, "_UNIT_GROUP_TABLE_ENTRIES", 2000)
    power_residue_solve(3, 3, first)
    assert first in calls
    assert congruence._UNIT_GROUPS.records[first][1] == 2 + 1352
    calls.clear()
    power_residue_solve(3, 5, first)
    assert not calls, "a record within the bound stays cached"
    power_residue_solve(3, 3, second)
    assert congruence._UNIT_GROUPS.entries <= 2000
    calls.clear()
    power_residue_solve(3, 5, first)
    assert first in calls, "the second modulus must evict the first"
    # a table over the whole bound is built for its call and not kept
    monkeypatch.setattr(congruence, "_UNIT_GROUP_TABLE_ENTRIES", 1000)
    calls.clear()
    power_residue_solve(3, 3, second)
    power_residue_solve(3, 5, second)
    assert calls.count(second) == 2
    assert congruence._UNIT_GROUPS.entries <= 2000


def test_group_cache_counts_each_part_table_once():
    # 5^10: parts 2^2 and 5^9, whose 2 and 9 digits share tables of 2 and 3
    m = 5**10
    assert len(congruence._unit_group(m).digits) == 2 + 9
    assert congruence._UNIT_GROUPS.records[m][1] == 2 + 3


def test_split_log_matches_the_one_part_walk(monkeypatch):
    # every group split into its Sylow parts, even those the bound keeps
    # whole, against one walk over the whole group: every unit mod m < 3000
    for m in cyclic_moduli(2999)[1:]:
        monkeypatch.setattr(congruence, "_SPLIT_BOUND", 0)
        split = congruence._build_unit_group(m)
        monkeypatch.setattr(congruence, "_SPLIT_BOUND", m)
        whole = congruence._build_unit_group(m)
        assert len(whole.digits) == 1
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        assert [split.log(a) for a in units] == [whole.log(a) for a in units], m


@pytest.mark.parametrize("m, a", [(7, 0), (9765625, 5), (16649, 0), (2 * 43**3, 86)])
def test_log_of_a_non_unit_exhausts_the_group(m, a):
    # one part, and groups split into two and more parts
    with pytest.raises(ValueError, match="^index search exhausted the group$"):
        congruence._unit_group(m).log(a)


@given(st.sampled_from([7, 9, 11, 13, 23, 27, 49, 101, 121]), st.data())
@settings(max_examples=200, deadline=None)
def test_index_laws(m, data):
    r = find_primitive_root(m)
    phi = euler_phi(m)
    units = [x for x in range(1, m) if math.gcd(x, m) == 1]
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.sampled_from(units))
    k = data.draw(st.integers(min_value=0, max_value=20))
    assert (
        index(r, a * b % m, m).value
        == (index(r, a, m).value + index(r, b, m).value) % phi
    )
    assert index(r, pow(a, k, m), m).value == k * index(r, a, m).value % phi


# ---------------------------------------------------------------------------
# linear congruences


def test_solve_linear_pinned():
    s = solve_linear(6, 9, 15)
    assert s.representatives == (4, 9, 14)
    assert s.count == 3 and s.solvable
    assert solve_linear(2, 1, 4).representatives == ()
    assert solve_linear(1, 11, 7).representatives == (4,)


def test_solve_linear_zero_coefficient():
    assert solve_linear(0, 0, 6).count == 6
    assert not solve_linear(0, 3, 6).solvable


@given(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=300, deadline=None)
def test_solve_linear_matches_enumeration(a, b, n):
    got = solve_linear(a, b, n)
    expected = bf.enumerate_linear_solutions(a, b, n)
    assert list(got.representatives) == expected
    if expected:
        assert got.count == math.gcd(a, n) or a % n == 0


# ---------------------------------------------------------------------------
# power residues


def test_power_residue_pinned():
    assert power_residue_solve(3, 6, 7).representatives == (3, 5, 6)
    assert power_residue_solve(3, 2, 7).representatives == ()
    assert power_residue_solve(2, 7, 9).representatives == (4, 5)


def test_power_residue_count_is_gcd_when_solvable():
    # power_residue_root gives one of the solutions, or None for none
    for m in (7, 9, 11, 27, 31):
        phi = euler_phi(m)
        for n in range(1, 13):
            for a in range(1, m):
                if math.gcd(a, m) != 1:
                    continue
                sol = power_residue_solve(n, a, m)
                root = congruence.power_residue_root(n, a, m)
                if sol.solvable:
                    assert sol.count == math.gcd(n, phi)
                    assert root in sol.representatives
                else:
                    assert root is None


def test_power_residue_rejects_non_cyclic_modulus():
    for solver in (power_residue_solve, congruence.power_residue_root):
        with pytest.raises(ValueError):
            solver(2, 1, 8)
        with pytest.raises(ValueError):
            solver(2, 1, 12)


def test_power_residue_rejects_non_unit():
    for solver in (power_residue_solve, congruence.power_residue_root):
        with pytest.raises(ValueError):
            solver(2, 7, 7)


def test_power_residue_exhaustive_all_cyclic_moduli():
    # every cyclic modulus up to 2000, every exponent up to 12, every unit
    for m in cyclic_moduli(2000):
        if m == 1:
            continue
        units = [x for x in range(1, m) if math.gcd(x, m) == 1]
        for n in range(1, 13):
            image: dict[int, list[int]] = {}
            for x in units:
                image.setdefault(pow(x, n, m), []).append(x)
            for a in units:
                got = power_residue_solve(n, a, m)
                assert list(got.representatives) == image.get(a, []), (n, a, m)


def test_is_qth_residue_pinned():
    assert is_qth_residue(2, 3, 5)  # 3^3 = 27 = 2 mod 5
    assert not is_qth_residue(2, 3, 7)
    assert is_qth_residue(1, 9, 11)
    assert is_qth_residue(1, 4, 2)  # only unit mod 2
    with pytest.raises(ValueError, match=r"^digit 0 is not a unit in \[1, 4\] for p=5$"):
        is_qth_residue(0, 3, 5)


def test_is_qth_residue_matches_enumeration():
    for p in (2, 3, 5, 7, 11, 13):
        for q in range(2, 11):
            for a0 in range(1, p):
                expected = bool(bf.enumerate_power_solutions(q, a0, p))
                assert is_qth_residue(a0, q, p) == expected


# ---------------------------------------------------------------------------
# primality and result records


def test_is_prime_small():
    expected = set(bf.primes_upto(500))
    for n in range(500 + 1):
        assert is_prime(n) == (n in expected)


def test_is_prime_refuses_past_its_proven_bound():
    # the least strong pseudoprime to the bases 2..41 is the bound itself;
    # trial division from there up to sqrt(n) once ran without end
    bound = congruence._MR_PROVEN_BOUND
    assert bound == 3317044064679887385961981
    for n in (bound, bound + 2, 10**30):
        with pytest.raises(ValueError, match=r"only below 3\.317\*10\^24, got "):
            is_prime(n)
    assert is_prime(bound - 168)  # the prime 3317044064679887385961813
    with pytest.raises(ValueError, match=r"only below 3\.317\*10\^24"):
        is_qth_residue(1, 3, bound)


def test_is_prime_cache_is_bounded():
    # an unbounded cache held every n ever asked about for the life of the
    # process: 81 MiB more after the 10^6 odd n below 2*10^6
    bound = is_prime.cache_info().maxsize
    assert bound is not None
    for n in range(bound + 100):
        is_prime(n)
    assert is_prime.cache_info().currsize <= bound


def test_congruence_solution_shape():
    sol = CongruenceSolution(representatives=(1, 5), modulus=6)
    assert sol.count == 2 and sol.solvable
    empty = CongruenceSolution(representatives=(), modulus=6)
    assert empty.count == 0 and not empty.solvable
