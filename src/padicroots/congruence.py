"""Modular arithmetic helpers: totients, primitive roots, discrete logs,
linear congruences and n-th power residues on cyclic unit groups.

Everything here works on plain integers at desk scale (moduli up to a few
million); algorithms are chosen for clarity plus exactness, not asymptotics.
"""

import math
from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def int_valuation(n: int, p: int) -> int:
    """Exponent of the largest power of p dividing n (n must be nonzero)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def euler_phi(n: int) -> int:
    """Euler totient, multiplicative over the factorization."""
    if n < 1:
        raise ValueError("euler_phi expects a positive integer")
    phi = 1
    for p, k in factorize(n).items():
        phi *= p ** (k - 1) * (p - 1)
    return phi


def _unit_group_is_cyclic(m: int) -> bool:
    # cyclic unit groups: 1, 2, 4, p^k and 2p^k for odd primes p
    if m in (1, 2, 4):
        return True
    fac = factorize(m)
    odd = {p: k for p, k in fac.items() if p != 2}
    if len(odd) != 1:
        return False
    return fac.get(2, 0) <= 1


@lru_cache(maxsize=None)
def find_primitive_root(m: int) -> int | None:
    """Smallest primitive root mod m, or None when the units are not cyclic.

    By convention the primitive root mod 2 is 1 (the unit group is trivial).
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if not _unit_group_is_cyclic(m):
        return None
    phi = euler_phi(m)
    checks = [phi // f for f in factorize(phi)] if phi > 1 else []
    for r in range(1, m + 1):
        if math.gcd(r, m) != 1:
            continue
        if all(pow(r, e, m) != 1 for e in checks):
            return r
    return None  # not reached for cyclic m


@dataclass(frozen=True)
class IndexValue:
    """Discrete logarithm of a to the base of a primitive root r mod m."""

    base_r: int
    value: int
    modulus_phi: int


@lru_cache(maxsize=None)
def _is_primitive_root(r: int, m: int) -> bool:
    if math.gcd(r, m) != 1:
        return False
    phi = euler_phi(m)
    if phi == 1:
        return r % m == 1 % m
    return all(pow(r, phi // f, m) != 1 for f in factorize(phi))


_BSGS_THRESHOLD = 64


def index(r: int, a: int, m: int) -> IndexValue:
    """Index (discrete log) of a base r mod m: the x in [0, phi(m)) with
    r^x = a.  Uses baby-step giant-step, falling back to an exhaustive scan
    for tiny groups.  index of 1 is 0.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a %= m
    r %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}, no index exists")
    if not _is_primitive_root(r, m):
        raise ValueError(f"{r} is not a primitive root mod {m}")
    phi = euler_phi(m)
    if phi <= _BSGS_THRESHOLD:
        x, cur = 0, 1 % m
        while cur != a:
            cur = cur * r % m
            x += 1
            if x >= phi:
                raise ValueError("index search exhausted the group")
        return IndexValue(r, x, phi)
    step = math.isqrt(phi) + 1
    baby = {}
    cur = 1 % m
    for j in range(step):
        baby.setdefault(cur, j)
        cur = cur * r % m
    giant = pow(pow(r, -1, m), step, m)
    cur = a
    for i in range(step + 1):
        if cur in baby:
            return IndexValue(r, (i * step + baby[cur]) % phi, phi)
        cur = cur * giant % m
    raise ValueError("index search exhausted the group")


@dataclass(frozen=True)
class CongruenceSolution:
    """Solution set of a congruence: representatives mod `modulus`."""

    representatives: tuple[int, ...]
    modulus: int

    @property
    def count(self) -> int:
        return len(self.representatives)

    @property
    def solvable(self) -> bool:
        return bool(self.representatives)


def solve_linear(a: int, b: int, n: int) -> CongruenceSolution:
    """All solutions of a*x = b (mod n).

    Solvable exactly when gcd(a, n) divides b, in which case there are
    gcd(a, n) solutions mod n.
    """
    if n == 0:
        raise ValueError("modulus must be nonzero")
    n = abs(n)
    a %= n
    b %= n
    g = math.gcd(a, n)
    if b % g != 0:
        return CongruenceSolution((), n)
    if a == 0:
        # every residue solves 0 = 0
        return CongruenceSolution(tuple(range(n)), n)
    n1 = n // g
    x0 = (b // g) * pow(a // g, -1, n1) % n1
    return CongruenceSolution(tuple(x0 + t * n1 for t in range(g)), n)


def power_residue_solve(n: int, a: int, m: int) -> CongruenceSolution:
    """All solutions of x^n = a (mod m) for m with a cyclic unit group.

    Writing a = r^t for a primitive root r, the congruence reduces to the
    linear one n*s = t (mod phi(m)); it is solvable iff gcd(n, phi(m))
    divides the index of a, and then has exactly gcd(n, phi(m)) solutions.
    """
    if n < 1:
        raise ValueError("exponent must be at least 1")
    r = find_primitive_root(m)
    if r is None:
        raise ValueError(f"unit group mod {m} is not cyclic")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    phi = euler_phi(m)
    t = index(r, a, m).value
    d = math.gcd(n, phi)
    if t % d != 0:
        return CongruenceSolution((), m)
    exps = solve_linear(n, t, phi)
    sols = sorted(pow(r, s, m) for s in exps.representatives)
    return CongruenceSolution(tuple(sols), m)


def is_qth_residue(a0: int, q: int, p: int) -> bool:
    """Whether a0 in [1, p-1] is a q-th power residue mod the prime p, by
    Euler's criterion a0^((p-1)/gcd(q, p-1)) = 1 (mod p): one modular
    power, no discrete log."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= a0 <= p - 1:
        raise ValueError(f"digit {a0} out of range for p={p}")
    if q < 1:
        raise ValueError("exponent must be at least 1")
    return pow(a0, (p - 1) // math.gcd(q, p - 1), p) == 1


def mod_pow(b: int, e: int, m: int) -> int:
    """b^e mod m via square and multiply (non-negative result)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if e < 0:
        raise ValueError("exponent must be non-negative")
    return pow(b, e, m)
