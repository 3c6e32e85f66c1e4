"""Modular arithmetic helpers: totients, primitive roots, discrete logs,
linear congruences and n-th power residues on cyclic unit groups.

The unit group mod m is worked out once per modulus. `_unit_group(m)`
factors m, finds phi(m) and the smallest generator g, and builds g's
baby-step table for baby-step giant-step discrete logs;
`find_primitive_root`, `index`, `power_residue_root` and
`power_residue_solve` all read that one record. The records are cached,
least recently used first out, up to a total of _UNIT_GROUP_TABLE_ENTRIES
baby-step entries: a table has isqrt(phi(m)) + 1 entries, about 100 MiB
near m = 10^12, so a cache bounded by record count alone could hold
gigabytes. A record whose table alone is over the bound is built for its
call and not kept.
"""

import math
from collections import Counter, OrderedDict, namedtuple
from collections.abc import Iterator
from functools import lru_cache

# baby-step entries kept in all by `_unit_group` (a record without a table
# counts as one); about 100 bytes each
_UNIT_GROUP_TABLE_ENTRIES = 1 << 17


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


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Whether n > 1 is its own least prime factor; the search for that
    factor stops at the first one found."""
    return n > 1 and next(_prime_factors(n)) == n


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


class _UnitGroup(namedtuple("_UnitGroup", "m phi g step baby giant")):
    """The cyclic unit group mod m: its order phi, its smallest generator g,
    the baby steps {g^j: j} for j < step (a dict) and the giant step
    g^-step."""

    __slots__ = ()

    def log(self, a: int) -> int:
        """The x in [0, phi) with g^x = a, for a unit a in [0, m)."""
        m, phi, _, step, baby, giant = self  # locals: the loop reads them often
        cur = a
        for i in range(step + 1):
            j = baby.get(cur)
            if j is not None:
                return (i * step + j) % phi
            cur = cur * giant % m
        raise ValueError("index search exhausted the group")


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
        size = group.step if group is not None else 1
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
    checks = [phi // f for f in factorize(phi)]
    g = next(
        r
        for r in range(1, m)
        if math.gcd(r, m) == 1 and all(pow(r, e, m) != 1 for e in checks)
    )
    step = math.isqrt(phi) + 1
    baby: dict[int, int] = {}
    cur = 1
    for j in range(step):
        baby.setdefault(cur, j)
        cur = cur * g % m
    return _UnitGroup(m, phi, g, step, baby, pow(g, -step, m))


def find_primitive_root(m: int) -> int | None:
    """Smallest primitive root mod m, or None when the units are not cyclic.

    By convention the primitive root mod 2 is 1 (the unit group is trivial).
    """
    group = _unit_group(m)
    return None if group is None else group.g


class IndexValue(namedtuple("IndexValue", "base_r value modulus_phi")):
    """Discrete logarithm of a to the base of a primitive root r mod m."""

    __slots__ = ()


def index(r: int, a: int, m: int) -> IndexValue:
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
    x = group.log(a) * pow(log_r, -1, group.phi) % group.phi
    return IndexValue(r, x, group.phi)


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
    t = group.log(a)
    d = math.gcd(n, group.phi)
    if t % d != 0:
        return group, None
    step = group.phi // d
    return group, t // d * pow(n // d, -1, step) % step


def power_residue_root(n: int, a: int, m: int) -> int | None:
    """One solution of x^n = a (mod m) for m with a cyclic unit group, or
    None when there is none: g^s for the generator g and the least s of
    _root_exponent.  One discrete log and one modular power."""
    group, s = _root_exponent(n, a, m)
    return None if s is None else pow(group.g, s, m)


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
    x = pow(group.g, s, m)
    sols = []
    for _ in range(d):
        sols.append(x)
        x = x * h % m
    return CongruenceSolution(tuple(sorted(sols)), m)


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
