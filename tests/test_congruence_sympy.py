"""Differential tests of the congruence layer against sympy 1.14.

sympy's `isprime` and `factorint` are a second, independent route to the
answers of `is_prime` (trial division, and Miller-Rabin up to 2^80 here)
and `factorize`, and its `primitive_root`,
`discrete_log` and `nthroot_mod` to those of `find_primitive_root`, `index`
and `power_residue_solve`.  The moduli reach well past the exhaustive tests'
bound of 2000, up to about 10^7, where the unit group is split into its
Sylow parts, and straddle the bound on isqrt(phi) above which it is split.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime
from sympy.ntheory import discrete_log, nthroot_mod, primitive_root

from padicroots import euler_phi, find_primitive_root, index, is_prime, power_residue_solve
import padicroots.congruence as congruence
from padicroots.congruence import factorize

PRIMES = [101, 1009, 7919, 65537, 104729, 524287, 999983, 1000003]
PRIME_POWERS = [
    # the ten moduli of the benchmark's offline-tables workload
    9765625,  # 5^10
    4782969,  # 3^14
    2 * 3**13,
    7**8,
    11**6,
    2 * 13**6,
    101**3,
    2 * 1009**2,
    8388593,  # prime
    # more p^k and 2p^k
    2 * 999983,
    997**2,
    2 * 3**14,
    17**5,
    2 * 23**5,
]
# isqrt(phi) = 128 (one part) and 129 (parts of 2^3 and 2081), the two
# smallest moduli, and a safe prime: phi = 2 * 100043
EDGES = [16633, 16649, 2, 4, 200087]
MODULI = PRIMES + PRIME_POWERS + EDGES


def test_edge_moduli_straddle_the_split_bound():
    assert congruence._SPLIT_BOUND == 128
    assert [len(congruence._unit_group(m).digits) for m in EDGES] == [1, 4, 1, 1, 2]


def test_is_prime_and_factorize_match_sympy():
    for n in range(-5, 20_001):
        assert is_prime(n) == isprime(n), n
    for n in range(1, 20_001):
        assert factorize(n) == factorint(n), n
    rng = random.Random(12)
    drawn = [rng.randrange(1, 10**12) for _ in range(40)]
    # products of two primes near 10^6, of the forms 6k - 1 and 6k + 1:
    # trial division runs up to the smaller one.  Then two primes and the
    # square of one.
    semiprimes = [999_983 * 1_000_003, 999_979 * 999_983, 1_000_003 * 1_000_033]
    more = [999_999_999_989, 1_000_000_007, 999_983**2]
    for n in drawn + semiprimes + more:
        assert factorize(n) == factorint(n), n
        assert is_prime(n) == isprime(n), n


# three primes past trial division; 3215031751, the least strong
# pseudoprime to bases 2, 3, 5 and 7; 3825123056546413051, one to bases 2
# to 23; 318665857834031151167461, the least to the first 12 prime bases,
# 2 to 37, which the 13th, 41, exposes; Carmichael numbers, which trial
# division answers; the two ends of its range, 2^20
MILLER_RABIN_CASES = [
    2**61 - 1,
    2**64 - 59,
    10**18 + 3,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    561,
    41041,
    825265,
    2**20 - 3,
    2**20 + 7,
]


def test_is_prime_matches_sympy_past_trial_division():
    for n in MILLER_RABIN_CASES:
        for m in (n - 2, n, n + 2):
            assert is_prime(m) == isprime(m), m


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**79 - 1).map(lambda k: 2 * k + 1)
    | st.integers(2**20, 2**79).map(nextprime)
)
def test_is_prime_matches_sympy_on_odd_n_below_2_80(n):
    assert is_prime(n) == isprime(n)


def _units(m: int, rng: random.Random, count: int) -> list[int]:
    out = []
    while len(out) < count:
        x = rng.randrange(1, m)
        if math.gcd(x, m) == 1:
            out.append(x)
    return out


@pytest.mark.parametrize("m", MODULI)
def test_primitive_root_matches_sympy(m):
    assert find_primitive_root(m) == primitive_root(m)


@pytest.mark.parametrize("m", MODULI)
def test_index_matches_sympy_discrete_log(m):
    rng = random.Random(m)
    g = find_primitive_root(m)
    phi = euler_phi(m)
    # a primitive root other than g, g^k with k prime to phi(m), when
    # phi(m) > 2; mod 2 and 4 there is no other
    k = next((k for k in range(2, phi) if math.gcd(k, phi) == 1), 1)
    r = pow(g, k, m)
    assert (r != g) == (phi > 2)
    for a in _units(m, rng, 12) + [1, g, r, m - 1]:
        assert index(g, a, m).value == discrete_log(m, a, g)
        iv = index(r, a, m)
        assert iv.value == discrete_log(m, a, r)
        assert (iv.base_r, iv.modulus_phi) == (r, phi)
    # g^k with gcd(k, phi) > 1 is no primitive root
    if phi > 1:
        with pytest.raises(ValueError, match="is not a primitive root"):
            index(pow(g, 2, m), 1, m)


def test_index_matches_sympy_at_the_congr_anchor():
    # m = 10^12 + 39 (tests/anchors.py): phi = 2 * 3 * 13 * 17 * 29 * 26005097,
    # and the part of 26005097 has a table of 5,100 baby steps
    m = 10**12 + 39
    assert factorize(m - 1) == {2: 1, 3: 1, 13: 1, 17: 1, 29: 1, 26005097: 1}
    g = find_primitive_root(m)
    assert g == primitive_root(m) == 3
    for a in (2, 5, m - 2):
        assert index(g, a, m).value == discrete_log(m, a, g)


@pytest.mark.parametrize("m", MODULI)
def test_power_residue_matches_sympy_nthroot(m):
    rng = random.Random(m + 1)
    for n in (2, 3, 4, 5, 6, 8, 12):
        xs = _units(m, rng, 4)
        # half n-th powers by construction, half arbitrary units
        for a in [pow(x, n, m) for x in xs[:2]] + xs[2:]:
            got = power_residue_solve(n, a, m).representatives
            assert list(got) == sorted(nthroot_mod(a, n, m, all_roots=True)), (n, a, m)
