"""Seeded request lists for the three benchmark workloads.

Plain integer code only: nothing here imports the program.  A workload is
a fixed skeleton of request slots (command, p, q, case, precision, output
form); the seed fills in the values (units, valuations, digits, moduli)
inside each slot.  Keeping the skeleton fixed keeps the cost of one pass
nearly independent of the seed, so different seeds give comparable runs.

Each workload returns a `Workload`: `warmup` requests (one cheap request
per modulus the pass touches, run once before timing to fill the
program's own caches), `requests` (one pass, repeated in a closed loop)
and `probes` (fixed requests, the same for every seed, each run once per
pass under a short deadline).
"""

import math
import random
from dataclasses import dataclass, field

BIG_P = 1_000_003

# Requests known to exceed any short deadline at the parent commit:
# `check` runs the full digit lift although it prints no root, and that
# lift scans range(1, p) and then tries all p digits at each position.
PROBES = (
    ["check", "--p", "1000000007", "--q", "3", "--val", "2"],
    ["check", "--p", str(BIG_P), "--q", "2", "--val", "4", "--precision", "25"],
)
PROBE_DEADLINE_S = 0.1


@dataclass
class Workload:
    warmup: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    probes: list = field(default_factory=list)


# ----------------------------------------------------------------------
# integer helpers


def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_qth_power_unit(u: int, q: int, p: int) -> bool:
    """Whether the p-adic unit u (known mod p^(2c+1), c = v_p(q)) is a
    q-th power, from the structure Z_p^* = mu_(p-1) x (1 + pZ_p)."""
    c = vp(q, p)
    if p == 2:
        return c == 0 or u % 2 ** (c + 2) == 1
    g = math.gcd(q, p - 1)
    return pow(u, (p - 1) // g, p) == 1 and pow(u, p - 1, p ** (c + 1)) == 1


def random_unit(rng: random.Random, p: int, k: int) -> int:
    while True:
        u = rng.randrange(1, p**k)
        if u % p:
            return u


def digit_literal(gamma: int, unit: int, p: int, n: int) -> str:
    """'g;d0,...' with the n low base-p digits of unit."""
    digits = []
    for _ in range(n):
        unit, d = divmod(unit, p)
        digits.append(d)
    return f"{gamma};" + ",".join(map(str, digits))


def rational_literal(num: int, den: int, gamma: int, p: int) -> str:
    if gamma >= 0:
        num *= p**gamma
    else:
        den *= p**-gamma
    return f"{num}/{den}" if den != 1 else str(num)


def small_unit(rng: random.Random, p: int, bound: int = 1000) -> int:
    while True:
        x = rng.randrange(1, bound)
        if x % p:
            return x


# ----------------------------------------------------------------------
# targets for x^q = a


def solvable_target(rng, p, q, n_digits, form, k):
    """a = x^q * p^(q*k) for a random unit x; solvable by construction."""
    c = vp(q, p)
    if form == "rational":
        num, den = small_unit(rng, p), small_unit(rng, p)
        return rational_literal(num**q, den**q, q * k, p)
    mod = p ** (n_digits + c)
    return digit_literal(q * k, pow(random_unit(rng, p, n_digits), q, mod), p, n_digits + c)


def unsolvable_target(rng, p, q, n_digits, form, k, how):
    """A target that is not a q-th power.  how='valuation' puts v_p one off
    a multiple of q, so that even a chain fails at its first link;
    how='unit' takes a unit that fails the q-th power test; how='digit0'
    also makes the first digit a quadratic non-residue, so that a chain
    q = 2*p^s fails at its first link without lifting anything.

    The failing unit residue mod p^(2c+1) is the smallest one of its kind,
    not a seeded one: it decides at which link of a chain the verdict
    fails, and so how much lifting comes first, and that cost must not
    change with the seed.  The seed picks the digits above it.
    """
    c = vp(q, p)
    top = 2 * c + 1
    if how == "valuation":
        gamma = q * k + rng.choice((-1, 1))
        u0 = random_unit(rng, p, top)
    else:
        gamma = q * k
        u0 = next(
            u for u in range(1, p**top)
            if u % p
            and not is_qth_power_unit(u, q, p)
            and (how != "digit0" or pow(u % p, (p - 1) // 2, p) != 1)
        )
    if form == "rational":
        den = small_unit(rng, p, 10**4)
        num = (u0 * den) % p**top + p**top * rng.randrange(0, 10**4)
        return rational_literal(num, den, gamma, p)
    unit = u0 + p**top * rng.randrange(p ** (n_digits + c - top))
    return digit_literal(gamma, unit, p, n_digits + c)


def _xq_argv(cmd, p, q, val, n_digits):
    # a negative valuation literal would read as an option without the '='
    return [cmd, "--p", str(p), "--q", str(q), f"--val={val}", "--precision", str(n_digits)]


# ----------------------------------------------------------------------
# verdict-grid

# (p, q, precisions).  Each precision gets one solvable and one unsolvable
# slot.  Solvable slots at p = 10^6+3 would lift for tens of seconds at
# the parent commit; the one such request is a probe instead, and the
# prime has one unsolvable slot per q.
_VERDICT_GRID = [
    (2, 2, (25, 100)), (2, 3, (50,)), (2, 4, (50, 100)), (2, 12, (25,)),
    (5, 2, (25, 100)), (5, 4, (50, 100)), (5, 5, (25, 100)), (5, 10, (50,)), (5, 20, (25,)),
    (101, 2, (25, 50)), (101, 5, (25,)), (101, 101, (25,)), (101, 202, (25,)),
    (1009, 2, (25,)), (1009, 3, (25,)), (1009, 1009, (25,)), (1009, 2018, (25,)),
    (BIG_P, 2, ()), (BIG_P, 3, ()), (BIG_P, BIG_P, ()), (BIG_P, 2 * BIG_P, ()),
]


def verdict_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload(probes=[list(a) for a in PROBES])
    for p, q, precisions in _VERDICT_GRID:
        form = "rational" if q <= 20 else "digits"
        for n in precisions:
            val = solvable_target(rng, p, q, n, form, rng.choice((-1, 0, 1)))
            w.requests.append(_xq_argv("check", p, q, val, n))
        for n in precisions or (100,):
            # At p = 10^6+3 an unsolvable chain must fail at its first
            # (square) link, or it would lift; a non-residue first digit
            # does that in every case.
            if p == BIG_P:
                how = "digit0"
            elif math.gcd(q, p - 1) == 1 and vp(q, p) == 0:
                how = "valuation"  # every unit is a q-th power here
            else:
                how = ("valuation", "unit")[len(w.requests) % 2]
            # valuations of size q = 10^6+3 would make parse_value build
            # p^(10^6), which is a cost of its own; keep them at 0 there
            k = 0 if p == BIG_P else rng.choice((-1, 0, 1))
            val = unsolvable_target(rng, p, q, n, form, k, how)
            w.requests.append(_xq_argv("check", p, q, val, n))
    rng.shuffle(w.requests)
    for p in sorted({p for p, _, _ in _VERDICT_GRID}):
        # a quadratic non-residue digit: the verdict needs the primitive
        # root of p but no lift
        d = next(d for d in range(1, p) if p == 2 or pow(d, (p - 1) // 2, p) != 1)
        w.warmup.append(_xq_argv("check", p, 2, f"0;{d},1", 2))
    return w


# ----------------------------------------------------------------------
# root-deep

# (command, p, q, precision).  Sized so that each request takes 0.05 to
# 0.4 s at the parent commit; the 10^4 digit cap at p = 2 takes 3.5 s
# there and would leave too few whole passes in one run.
_ROOT_DEEP = [
    ("root", 2, 2, 4000),
    ("root", 2, 3, 4000),
    ("root", 2, 4, 3000),
    ("root", 5, 4, 800),
    ("root", 5, 5, 1000),
    ("root", 5, 10, 600),
    ("root", 101, 10, 80),
    ("root", 101, 101, 150),
    ("root", 101, 202, 60),
    ("root", 1009, 2, 80),
    ("root", 1009, 3, 40),
    ("classify", 5, 5, 1000),
    ("classify", 101, 5, 120),
    ("classify", 101, 101, 150),
    ("classify", 1009, 3, 60),
]


def classify_target(rng, p, q, n_digits, slot):
    """Any nonzero value decomposes; alternate the shapes so that both
    epsilon = 1 and epsilon != 1 occur."""
    gamma = rng.randrange(-q, 2 * q)
    unit = random_unit(rng, p, n_digits + 1)
    if q == p:
        d0 = unit % p
        d1 = (pow(d0, p, p * p) - d0) // p % p
        if slot % 2 == 0:  # passes d0^p = d0 + d1*p
            unit = unit - (unit // p % p) * p + d1 * p
        elif (unit // p) % p == d1:
            unit += p if d1 + 1 < p else -p
    return digit_literal(gamma, unit, p, n_digits + (1 if q == p else 0))


def root_deep(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    for slot, (cmd, p, q, n) in enumerate(_ROOT_DEEP):
        if cmd == "root":
            form = "rational" if q <= 10 and slot % 2 else "digits"
            val = solvable_target(rng, p, q, n, form, rng.choice((-1, 0, 1)))
        else:
            val = classify_target(rng, p, q, n, slot)
        w.requests.append(_xq_argv(cmd, p, q, val, n))
    for p in sorted({p for _, p, _, _ in _ROOT_DEEP}):
        w.warmup.append(_xq_argv("root", p, 2, "4", 4))
    return w


# ----------------------------------------------------------------------
# offline-tables

# Cyclic moduli p^k and 2*p^k up to about 10^7.
_CYCLIC_MODULI = [
    9765625,        # 5^10
    4782969,        # 3^14
    2 * 3**13,      # 3188646
    7**8,           # 5764801
    11**6,          # 1771561
    2 * 13**6,      # 9653618
    101**3,         # 1030301
    BIG_P,
    2 * 1009**2,    # 2036162
    8388593,        # prime
]
_EXPAND_PRIMES = (3, 5, 7, 11, 13)
# (q, k): the number of N_k terms depends only on these.  Each shape has
# a fixed prime (the term values grow with it); the seed picks the digits.
_EXPAND_SHAPES = [(7, 25), (6, 22), (5, 25), (7, 18), (4, 25), (3, 25)]


def _phi_cyclic(m: int) -> int:
    odd = m // 2 if m % 2 == 0 else m
    for p in (3, 5, 7, 11, 13, 101, 1009):
        if odd % p == 0:
            return odd // p * (p - 1)
    return odd - 1  # prime


def offline_tables(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    # table sizes are fixed: the cost of `table` grows with the cube of
    # p_max, so a seeded p_max would make passes of different seeds
    # incomparable
    w.requests.append(["table", "--p-max", "240"])
    w.requests.append(["table", "--p-max", "150", "--format", "structured"])
    for i, m in enumerate(_CYCLIC_MODULI):
        phi = _phi_cyclic(m)
        for j in range(2):
            # n shares a factor with phi(m) so the residue test is not
            # trivial; keep gcd(n, phi) small so answers stay short
            n = rng.choice([d for d in (2, 3, 4, 5, 6, 8, 10, 12) if phi % d == 0])
            x = rng.randrange(2, m)
            while math.gcd(x, m) != 1:
                x += 1
            a = pow(x, n, m) if j == 0 else x  # half are n-th powers by construction
            fmt = ["--format", "structured"] if (i + j) % 2 else []
            w.requests.append(["congr", "pow-residue", "--a", str(a), "--n", str(n), "--m", str(m)] + fmt)
    for i in range(8):
        n = rng.randrange(10**6, 10**7)
        g = rng.choice((1, 2, 6, 12, 30, 60, 90))
        n -= n % g
        a = g * rng.randrange(1, n // g)
        while math.gcd(a, n) != g:
            a = g * rng.randrange(1, n // g)
        b = a * rng.randrange(n) % n if i % 2 == 0 else rng.randrange(n)
        fmt = ["--format", "structured"] if i % 2 else []
        w.requests.append(["congr", "linear", "--a", str(a), "--b", str(b), "--n", str(n)] + fmt)
    for i, ((q, k), p) in enumerate(zip(_EXPAND_SHAPES, _EXPAND_PRIMES * 2)):
        digits = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k)]
        fmt = ["--format", "structured"] if i % 2 else []
        w.requests.append(
            ["expand", "--p", str(p), "--q", str(q), "--digits", ",".join(map(str, digits)), "--k", str(k)] + fmt
        )
    rng.shuffle(w.requests)
    w.warmup.append(["table", "--p-max", "13"])
    for m in _CYCLIC_MODULI:
        w.warmup.append(["congr", "pow-residue", "--a", "1", "--n", "2", "--m", str(m)])
    for p in _EXPAND_PRIMES:
        w.warmup.append(["expand", "--p", str(p), "--q", "2", "--digits", "1", "--k", "2"])
    return w


WORKLOADS = {
    "verdict-grid": verdict_grid,
    "root-deep": root_deep,
    "offline-tables": offline_tables,
}
