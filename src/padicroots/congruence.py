"""Modular arithmetic helpers: totients, primitive roots, discrete logs,
linear congruences and n-th power residues on cyclic unit groups.

The unit group mod m is worked out once per modulus. `_unit_group(m)`
factors m, finds phi(m) and the smallest generator g, and splits the
group into its Sylow parts, one per prime power ell^e of phi(m), each
with a baby-step table of isqrt(ell) + 1 entries for the Pohlig-Hellman
discrete log (one table of isqrt(phi) + 1 entries when isqrt(phi) is at
most _SPLIT_BOUND); `find_primitive_root`, `index`, `power_residue_root`
and `power_residue_solve` all read that one record. The records are
cached, least recently used first out, up to a total of
_UNIT_GROUP_TABLE_ENTRIES baby-step entries: at m = 10^12 + 39 the parts
hold 5,119 entries, but a safe prime m = 2*ell + 1 near 10^12 needs about
7 * 10^5, some 70 MiB, so a cache bounded by record count alone could
hold gigabytes. A record whose tables alone are over the bound is built
for its call and not kept. Factoring m and phi(m) by trial division is
what the command line's isqrt(m) <= LIST_CAP bound pays for.
"""

import math
from collections import Counter, OrderedDict, namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, repeat

# baby-step entries kept in all by `_unit_group` (a record without a table
# counts as one); about 100 bytes each
_UNIT_GROUP_TABLE_ENTRIES = 1 << 17
# a unit group with isqrt(phi) above this takes its logs one prime factor of
# phi at a time; at and below it one walk of isqrt(phi) + 1 steps is faster
_SPLIT_BOUND = 128
# the most integers a command-line request or epsilon_set lists or steps through
LIST_CAP = 10**6


def _prime_factors(n: int) -> Iterator[int]:
    """The prime factors of n >= 1 in increasing order, each as often as it
    divides n: 2 and 3, then trial division by 6k - 1 and 6k + 1."""
    for f in (2, 3):
        while n % f == 0:
            yield f
            n //= f
    f = 5
    while f * f <= n:
        for d in (f, f + 2):
            while n % d == 0:
                yield d
                n //= d
        f += 6
    if n > 1:
        yield n


# Miller-Rabin to the first 13 prime bases, 2 to 41, has no strong
# pseudoprime below _MR_PROVEN_BOUND (Sorenson and Webster, Math. Comp.
# 2017); the first 12, 2 to 37, are proven only below 3.186 * 10^23.
# Below _TRIAL_BOUND trial division is as fast; at and above
# _MR_PROVEN_BOUND no test here is both proven and bounded, so none is run.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_TRIAL_BOUND = 1 << 20


# bounded, so that a process asking about many n does not keep them all;
# 2^14 holds every n the largest table (p_max = 10^4) asks about
@lru_cache(maxsize=1 << 14)
def is_prime(n: int) -> bool:
    """Whether n > 1 is prime: below _TRIAL_BOUND by whether n is its own
    least prime factor, then below _MR_PROVEN_BOUND by the deterministic
    Miller-Rabin test.  A larger n raises ValueError."""
    if n < _TRIAL_BOUND:
        return n > 1 and next(_prime_factors(n)) == n
    if n >= _MR_PROVEN_BOUND:
        raise ValueError(f"primality is decided only below 3.317*10^24, got {n}")
    if n % 2 == 0:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    return dict(Counter(_prime_factors(n)))


def int_valuation(n: int, p: int) -> int:
    """Exponent of the largest power of p >= 2 dividing n (n must be
    nonzero)."""
    if p < 2:
        raise ValueError(f"valuation base must be at least 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _phi(fac: dict[int, int]) -> int:
    return math.prod(p ** (k - 1) * (p - 1) for p, k in fac.items())


def euler_phi(n: int) -> int:
    """Euler totient, multiplicative over the factorization."""
    if n < 1:
        raise ValueError("euler_phi expects a positive integer")
    return _phi(factorize(n))


class _UnitGroup(namedtuple("_UnitGroup", "m phi g digits")):
    """The cyclic unit group mod m: its order phi, its smallest generator g
    and the digits its logs are read in (Pohlig-Hellman).  Each prime power
    ell^e of phi is a part, whose e digits, the least first, give log_g(a)
    mod ell^e in base ell; CRT joins the parts.  A digit is a tuple (ell,
    top, weight, step, baby, giant).  With x the log read so far,
    (a * g^-x)^top = gamma^d for the digit d and gamma = g^(phi/ell), as
    the other parts add only multiples of ell^e to x.  A walk finds d in
    the subgroup of order ell from the baby steps {gamma^j: j} for j <
    step (a dict) and the giant step gamma^-step, and x gains d * weight.
    The e digits of a part share its table.  A group with isqrt(phi) at
    most _SPLIT_BOUND is one part, ell^e = phi^1, whose one digit is a
    walk of isqrt(phi) + 1 giant steps at most."""

    __slots__ = ()

    def log(self, a: int) -> int:
        """The x in [0, phi) with g^x = a, for a unit a in [0, m)."""
        m, phi, g, digits = self  # locals: the loop reads them often
        x = 0
        for ell, top, weight, step, baby, giant in digits:
            cur = pow(a * pow(g, phi - x, m) % m if x else a, top, m)
            for i in range(step + 1):
                j = baby.get(cur)
                if j is not None:
                    break
                cur = cur * giant % m
            else:
                raise ValueError("index search exhausted the group")
            x = (x + (i * step + j) % ell * weight) % phi
        return x


class _GroupCache:
    """Unit-group records by modulus, least recently used first, each with
    its baby-step entry count (one for a record without a table), and the
    total of those counts."""

    def __init__(self):
        self.records: OrderedDict = OrderedDict()  # m -> (record, entries)
        self.entries = 0

    def get(self, m: int) -> "_UnitGroup | None":
        if m in self.records:
            self.records.move_to_end(m)
            return self.records[m][0]
        group = _build_unit_group(m)
        # the digits of one part share its table: count each table once
        size = 1 if group is None else sum({d[0]: d[3] for d in group.digits}.values())
        if size <= _UNIT_GROUP_TABLE_ENTRIES:
            while self.entries + size > _UNIT_GROUP_TABLE_ENTRIES:
                _, (_, old) = self.records.popitem(last=False)
                self.entries -= old
            self.records[m] = (group, size)
            self.entries += size
        return group


_UNIT_GROUPS = _GroupCache()
# the unit group record mod m, or None when the units are not cyclic
_unit_group = _UNIT_GROUPS.get


def _build_unit_group(m: int) -> _UnitGroup | None:
    """The record for m >= 2; the units are cyclic exactly for m = 2, 4, p^k
    and 2p^k with p an odd prime."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    fac = factorize(m)
    odd = [p for p in fac if p != 2]
    if m not in (2, 4) and (len(odd) != 1 or fac.get(2, 0) > 1):
        return None
    phi = _phi(fac)
    ells = factorize(phi)
    g = next(
        r
        for r in range(1, m)
        if math.gcd(r, m) == 1 and all(pow(r, phi // f, m) != 1 for f in ells)
    )
    if math.isqrt(phi) <= _SPLIT_BOUND:
        ells = {phi: 1}
    digits = tuple(d for f, e in ells.items() for d in _part(m, phi, g, f, e))
    return _UnitGroup(m, phi, g, digits)


def _part(m: int, phi: int, g: int, ell: int, e: int) -> list[tuple]:
    """The e digits of the part ell^e of the unit group mod m, generated by
    g, as _UnitGroup lays them out."""
    cofactor = phi // ell**e
    gamma = pow(g, phi // ell, m)
    step = math.isqrt(ell) + 1
    baby: dict[int, int] = {}
    cur = 1
    for j in range(step):
        baby.setdefault(cur, j)
        cur = cur * gamma % m
    giant = pow(gamma, -step, m)
    crt = cofactor * pow(cofactor, -1, ell**e)  # 1 mod ell^e, 0 mod phi/ell^e
    return [
        (ell, cofactor * ell ** (e - 1 - k), ell**k * crt % phi, step, baby, giant)
        for k in range(e)
    ]


def find_primitive_root(m: int) -> int | None:
    """Smallest primitive root mod m, or None when the units are not cyclic.

    By convention the primitive root mod 2 is 1 (the unit group is trivial).
    """
    group = _unit_group(m)
    return None if group is None else group.g


def _least_solution(a: int, b: int, n: int) -> int | None:
    """The least x >= 0 with a*x = b (mod n) for n >= 1, or None when
    g = gcd(a, n) does not divide b.  The g solutions mod n are then
    x + t*n/g for t < g."""
    g = math.gcd(a, n)
    if b % g != 0:
        return None
    n1 = n // g
    return b // g * pow(a // g, -1, n1) % n1


def index(r: int, a: int, m: int) -> int:
    """Index (discrete log) of a base r mod m: the x in [0, phi(m)) with
    r^x = a.  With g the cached generator, x = log_g(a) / log_g(r) mod
    phi(m), and r is a primitive root exactly when log_g(r) is prime to
    phi(m).  index of 1 is 0.
    """
    group = _unit_group(m)
    a %= m
    r %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}, no index exists")
    if (
        group is None
        or math.gcd(r, m) != 1
        or math.gcd(log_r := group.log(r), group.phi) != 1
    ):
        raise ValueError(f"{r} is not a primitive root mod {m}")
    return _least_solution(log_r, group.log(a), group.phi)


class CongruenceSolution(namedtuple("CongruenceSolution", "representatives modulus")):
    """Solution set of a congruence: representatives (a tuple of ints) mod
    `modulus`."""

    __slots__ = ()

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
    x = _least_solution(a, b, n)
    if x is None:
        return CongruenceSolution((), n)
    return CongruenceSolution(tuple(range(x, n, n // math.gcd(a, n))), n)


def _root_exponent(n: int, a: int, m: int) -> tuple[_UnitGroup, int | None]:
    """The unit group record mod m and the least s >= 0 with n*s = log_g(a)
    (mod phi), so that g^s solves x^n = a (mod m), or s = None when no s
    does.  n must be at least 1, the group cyclic and a a unit."""
    if n < 1:
        raise ValueError("exponent must be at least 1")
    group = _unit_group(m)
    if group is None:
        raise ValueError(f"unit group mod {m} is not cyclic")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    return group, _least_solution(n, group.log(a), group.phi)


def power_residue_root(n: int, a: int, m: int) -> int | None:
    """One solution of x^n = a (mod m) for m with a cyclic unit group, or
    None when there is none: g^s for the generator g and the least s of
    _root_exponent.  One discrete log and one modular power."""
    group, s = _root_exponent(n, a, m)
    return None if s is None else pow(group.g, s, m)


def _coset(x: int, h: int, d: int, m: int) -> Iterator[int]:
    """x * h**i (mod m) for i < d, in that order, one product each."""
    return accumulate(repeat(h, d - 1), lambda r, z: r * z % m, initial=x)


def power_residue_solve(n: int, a: int, m: int) -> CongruenceSolution:
    """All solutions of x^n = a (mod m) for m with a cyclic unit group.

    Writing a = g^t for the generator g, the congruence reduces to the
    linear one n*s = t (mod phi(m)); it is solvable iff d = gcd(n, phi(m))
    divides t, and then its solutions are g^s for the least such s times
    the d powers of g^(phi(m)/d).
    """
    group, s = _root_exponent(n, a, m)
    if s is None:
        return CongruenceSolution((), m)
    d = math.gcd(n, group.phi)
    h = pow(group.g, group.phi // d, m)
    return CongruenceSolution(tuple(sorted(_coset(pow(group.g, s, m), h, d, m))), m)


def is_qth_residue(a0: int, q: int, p: int) -> bool:
    """Whether a0 in [1, p-1] is a q-th power residue mod the prime p, by
    Euler's criterion a0^((p-1)/gcd(q, p-1)) = 1 (mod p): one modular
    power, no discrete log."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= a0 <= p - 1:
        raise ValueError(f"digit {a0} is not a unit in [1, {p - 1}] for p={p}")
    if q < 1:
        raise ValueError("exponent must be at least 1")
    return pow(a0, (p - 1) // math.gcd(q, p - 1), p) == 1
