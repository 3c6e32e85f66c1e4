"""Independent brute-force oracles used to pin expected test values.

Nothing in this module imports the library under test.  Every helper
recomputes its answer from first principles (exhaustive search, integer
long division, big-integer arithmetic) so that test expectations come
from a second, unrelated route.
"""

from __future__ import annotations

import math
from functools import lru_cache


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_upto(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime_slow(n)]


def unit_digits_of_rational(num: int, den: int, p: int, count: int) -> tuple[int, ...]:
    """Base-p digits of the unit num/den, both prime to p, num/den > 0 allowed negative.

    Computed as the residue num * den^(-1) mod p^count, then peeled digit
    by digit.  Long-division oracle for from_rational and inv.
    """
    if num % p == 0 or den % p == 0:
        raise ValueError("num and den must be prime to p")
    modulus = p ** count
    r = num * pow(den, -1, modulus) % modulus
    digits = []
    for _ in range(count):
        digits.append(r % p)
        r //= p
    return tuple(digits)


@lru_cache(maxsize=None)
def power_image(q: int, modulus: int, p: int) -> frozenset[int]:
    """The set {x^q mod modulus : x a unit mod modulus}.

    Every member is the reduction of an exact q-th power of an ordinary
    integer, so membership certifies q-th-power-ness of the whole residue
    class once the image has stabilized at this depth.
    """
    return frozenset(
        pow(x, q, modulus) for x in range(1, modulus) if x % p != 0
    )


def unit_root_exists(u: int, q: int, p: int) -> bool:
    """Does x^q = u have a unit solution in the p-adic integers?

    Decided by exhaustive search modulo p^(2c+1), c = v_p(q): a solution
    at that depth lifts to an exact one because the derivative q*x^(q-1)
    has valuation exactly c there.
    """
    if u % p == 0:
        return False
    c = int_valuation(q, p)
    modulus = p ** (2 * c + 1)
    return u % modulus in power_image(q, modulus, p)


def power_image_stabilized(q: int, p: int) -> bool:
    """Certificate that the q-th-power image stopped splitting at depth 2c+1.

    Compares image sizes one level up: once the subgroup index is final,
    the image must grow by exactly a factor of p per extra digit.
    """
    c = int_valuation(q, p)
    k = 2 * c + 1
    small = power_image(q, p ** k, p)
    big = power_image(q, p ** (k + 1), p)
    if len(big) != p * len(small):
        return False
    return {x % p ** k for x in big} == small


def enumerate_power_solutions(n: int, a: int, m: int) -> list[int]:
    """All x in [0, m) with gcd(x, m) = 1 and x^n = a mod m, by full scan."""
    return [x for x in range(m) if math.gcd(x, m) == 1 and pow(x, n, m) == a % m]


def enumerate_linear_solutions(a: int, b: int, n: int) -> list[int]:
    n = abs(n)
    return [x for x in range(n) if (a * x - b) % n == 0]


def smallest_primitive_root(m: int) -> int | None:
    """Ascending scan with a literal order check. None when no generator exists."""
    phi = sum(1 for x in range(1, m) if math.gcd(x, m) == 1)
    if m == 2:
        return 1
    for g in range(2, m):
        if math.gcd(g, m) != 1:
            continue
        seen = 1
        acc = g % m
        while acc != 1:
            acc = acc * g % m
            seen += 1
        if seen == phi:
            return g
    return None


def comb_valuation(m: int, n: int, p: int) -> int:
    return int_valuation(math.comb(m + n, m), p)


def digit_bfs_roots(p: int, q: int, target_unit: int, n_digits: int, slack: int) -> list[int]:
    """Residues r mod p^n_digits, r unit, with r^q = target_unit mod p^(n_digits+slack).

    Level-by-level search trying every digit, one digit of headroom kept
    per level.  Independent reimplementation of digit lifting used only
    to cross-check the library's frontier.
    """
    frontier = [r for r in range(1, p) if pow(r, q, p ** (1 + slack)) == target_unit % p ** (1 + slack)]
    for k in range(1, n_digits):
        modulus = p ** (k + 1 + slack)
        nxt = []
        for r in frontier:
            for d in range(p):
                cand = r + d * p ** k
                if pow(cand, q, modulus) == target_unit % modulus:
                    nxt.append(cand)
        frontier = nxt
    return sorted(frontier)


def int_power_coefficients(digits: tuple[int, ...], p: int, q: int, k_max: int) -> list[int]:
    """Raw base-p coefficients of (sum digits[i] p^i)^q up to index k_max.

    Collected by symbolic convolution over the integer polynomial, no
    carry propagation, so entry k is exactly q*d0^(q-1)*dk + N_k.
    """
    poly = {i: d for i, d in enumerate(digits)}
    acc = {0: 1}
    for _ in range(q):
        nxt: dict[int, int] = {}
        for i, ci in acc.items():
            for j, cj in poly.items():
                if i + j > k_max:
                    continue
                nxt[i + j] = nxt.get(i + j, 0) + ci * cj
        acc = nxt
    return [acc.get(k, 0) for k in range(k_max + 1)]


def nk_terms(q: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """Every term of N_k as (exponents (m_0, ..., m_{k-1}), coefficient),
    sorted by (m_{k-1}, ..., m_1).

    A term is a partition of k into at most q parts, each below k: part i
    taken m_i times, m_0 = q minus the number of parts, and coefficient
    q!/(m_0! ... m_{k-1}!) from factorials.  Partitions are listed with
    their parts in non-increasing order, largest part first.
    """

    def partitions(n: int, largest: int, count: int):
        if n == 0:
            yield ()
            return
        for part in range(min(n, largest), 0, -1):
            if part * count >= n:
                for rest in partitions(n - part, part, count - 1):
                    yield (part, *rest)

    terms = []
    for parts in partitions(k, k - 1, q):
        exponents = [0] * k
        exponents[0] = q - len(parts)
        for part in parts:
            exponents[part] += 1
        coefficient = math.factorial(q)
        for m in exponents:
            coefficient //= math.factorial(m)
        terms.append((tuple(exponents), coefficient))
    return sorted(terms, key=lambda term: term[0][:0:-1])
