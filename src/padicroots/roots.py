"""Solvability verdicts and Newton root lifting for x^q = a over the
p-adic numbers.

decide(a, q) is the one verdict entry point, and it holds the one
criterion that Z_p^* = mu_(p-1) x (1 + pZ_p) gives for every q.  Write
q = m * p**c with p not dividing m and a = p**gamma * u; x^q = a is then
a chain of links, y**m = a followed by c successive p-th roots, each
decided in closed form:

  x^m link      (m > 1)  m divides gamma and the first digit of u is an
                m-th power residue mod p.  For p = 2, m is odd and odd
                powers reach every unit, so only the valuation counts.
  p-th root     (link i = 1..c)  p divides gamma / (m * p**(i-1)), and
  link i        u**(p-1) = 1 (mod p**(i+1)) for odd p, or u = 1
                (mod 2**(i+2)) for p = 2.

The verdict reports the first link that fails.  The paper's three
criteria are the one-link cases, and each keeps its own wording:

  square        q = 2.  For odd p: the valuation must be even and the first
                digit a quadratic residue mod p.  For p = 2: the valuation
                must be even and the digits at positions 1 and 2 must both
                vanish (u = 1 mod 8).
  coprime       gcd(q, p) = 1.  The valuation must be divisible by q and
                the first digit must be a q-th power residue mod p (for
                p = 2 the residue condition is vacuous: odd q-th powers hit
                every unit digit).
  q_equals_p    q = p odd.  The valuation must be divisible by p and the
                digit condition d0**p = d0 + d1*p (mod p**2) must hold,
                which is u**(p-1) = 1 (mod p**2).  check_qp is this case
                alone, and refuses p = 2, where the digit test would
                wrongly accept values such as 5.
  general_chain every other q.  A failure names its link as chain_step k.

lift_roots then lifts one root by one run of Newton steps at doubling
precision and multiplies it by the roots of unity of Q_p (Z_p^* =
mu_(p-1) x (1 + pZ_p), so every other root is that one times a root of
unity); lift_root returns the least of those roots alone.  Each returned
root is checked against a once, and the lifted root of unity once.  solve
is decide followed by lift_roots.  If the criteria say solvable and the
lift then fails, the two halves of the theory disagree, which is a fatal
internal error raised as LiftContradictionError (never swallowed).
"""

import math
from collections import namedtuple
from collections.abc import Iterator

from .congruence import (
    _coset,
    find_primitive_root,
    int_valuation,
    is_qth_residue,
    power_residue_root,
)
from .padic_core import PAdic, PrecisionError

CASE_SQUARE = "square"
CASE_COPRIME = "coprime"
CASE_QP = "q_equals_p"
CASE_CHAIN = "general_chain"

COND_VALUATION = "valuation_not_divisible"
COND_RESIDUE = "residue_condition"
COND_DIGITS = "digit_condition_p2"


class LiftContradictionError(RuntimeError):
    """Digit lifting contradicted a solvability verdict (or was invoked on
    input whose verdict was never established).  Always a bug or a misuse,
    never a routine outcome."""


class Verdict(
    namedtuple(
        "Verdict",
        "solvable case_used failed_condition details",
        defaults=(None, ""),
    )
):
    """solvable (bool), the case_used (a CASE_* name), the failed_condition
    (a COND_* name or chain_step k, None when solvable) and the details
    naming the witness that decided."""

    __slots__ = ()


class RootSet(namedtuple("RootSet", "roots expected_count verify_k")):
    """All roots found (a tuple of PAdic), sorted by unit residue;
    expected_count is the number d = #mu_q(Q_p) of q-th roots of unity in
    Q_p, gcd(q, p-1) for odd p and gcd(q, 2) for p = 2, for every q.  The
    roots are distinct to any precision except one digit at p = 2, where r
    and -r print alike and observed_count is 1.  Every root was checked
    once to satisfy r^q = a (mod p^verify_k) before it was returned."""

    __slots__ = ()

    @property
    def observed_count(self) -> int:
        return len(self.roots)


def _split(a: PAdic, q: int) -> tuple[int, int]:
    """(c, m) with q = m * p**c and p not dividing m, for a != 0, q >= 2."""
    if a.is_zero:
        raise ValueError("zero input: x^q = 0 has only the zero root")
    if q < 2:
        raise ValueError("exponent must be at least 2")
    c = int_valuation(q, a.p)
    return c, q // a.p**c


def _require_digits(a: PAdic, need: int, doing: str) -> None:
    if a.precision < need:
        raise PrecisionError(
            f"{doing} needs the value known to {need} digits, have {a.precision}"
        )


def check_qp(a: PAdic) -> Verdict:
    """Solvability of x^p = a for odd p: decide(a, p).  Refuses p = 2,
    where the paper's q = p digit test would wrongly accept 5 and x^2 is
    decided by the square criterion instead."""
    _split(a, a.p)
    if a.p == 2:
        raise ValueError("the q = p criterion is only valid for odd p")
    return decide(a, a.p)


def _power_depth(p: int, c: int) -> int:
    """Digits of a unit u that decide whether it is a p**c-th power
    (c >= 1): it is one exactly when u**(p-1) = 1 (mod p**(c+1)) for odd
    p, or u = 1 (mod 2**(c+2)) for p = 2."""
    return c + 2 if p == 2 else c + 1


def _valuation_witness(g: int, e: int, odd: bool) -> str:
    return f"valuation {g} is {'odd' if odd else f'not divisible by {e}'}"


def _refusal(case: str, step: int, e: int, condition: str, witness: str) -> Verdict:
    """A failed x^e link: in the paper's words when it is the only link,
    named by its place when it is link `step` of a chain."""
    if case == CASE_CHAIN:
        return Verdict(False, case, f"chain_step {step}", f"x^{e} link: {witness}")
    return Verdict(False, case, condition, witness)


def decide(a: PAdic, q: int) -> Verdict:
    """Decide x^q = a without constructing any root.

    Write q = m * p**c with p not dividing m, and a = p**gamma * u.  The
    verdict walks the links of q in order: an x^m link when m > 1, which
    needs m to divide gamma and the first digit d0 of u to be an m-th
    power residue mod p (vacuous at p = 2, where m is odd); then p-th
    root link i = 1..c, which needs gamma / (m * p**(i-1)) divisible by p
    and u**(p-1) = 1 (mod p**(i+1)) for odd p, or u = 1 (mod 2**(i+2))
    for p = 2.  The first link that fails decides.

    q = 2, gcd(q, p) = 1 and q = p are the one-link cases, the paper's
    square, coprime and q = p criteria, and report in their own words;
    q = p reads its two digits only once the valuation test has passed.
    Any other q is a chain: it first needs the value known to the digits
    its last link reads, and a failure names its link as chain_step k.
    """
    c, m = _split(a, q)
    p, g, u = a.p, a.gamma, a.unit
    if q == 2:
        case = CASE_SQUARE
    elif c == 0:
        case = CASE_COPRIME
    elif q == p:
        case = CASE_QP
    else:
        case = CASE_CHAIN
    chain = case == CASE_CHAIN
    need = _power_depth(p, c)
    what = f"deciding x^{q} over the {p}-adics"
    if chain:
        _require_digits(a, need, what)

    d0 = u % p
    if m > 1:
        if g % m != 0:
            witness = _valuation_witness(g, m, m == 2)
            return _refusal(case, 1, m, COND_VALUATION, witness)
        residue = "quadratic residue" if m == 2 else f"{m}-th power residue"
        if p != 2 and not is_qth_residue(d0, m, p):
            witness = f"first digit {d0} is not a {residue} mod {p}"
            return _refusal(case, 1, m, COND_RESIDUE, witness)
        if c == 0:
            if p == 2:
                witness = "odd exponent powers reach every 2-adic unit"
            else:
                witness = f"{d0} is a {residue} mod {p}"
            return Verdict(True, case, None, witness)
    for i in range(1, c + 1):
        step = i + (m > 1)
        gi = g // (m * p ** (i - 1))
        if gi % p != 0:
            witness = _valuation_witness(gi, p, q == 2)
            return _refusal(case, step, p, COND_VALUATION, witness)
        _require_digits(a, need, what)  # the one-link case reads digits from here
        k = _power_depth(p, i)
        r = pow(u, p - 1, p**k)  # u itself when p = 2
        if r == 1:
            continue
        if chain:
            power = "u" if p == 2 else f"u^{p - 1}"
            witness = f"{power} = {r} (mod {p}^{k}), must be 1"
        elif p == 2:
            witness = (
                f"digits at positions 1,2 are {u >> 1 & 1},{u >> 2 & 1}; "
                "both must be 0"
            )
        else:
            witness = (
                f"{d0}^{p} = {pow(d0, p, p * p)} (mod {p * p}) but the first two "
                f"digits give {u % (p * p)}"
            )
        return _refusal(case, step, p, COND_DIGITS, witness)
    if chain:
        return Verdict(True, case, None, f"all {c + (m > 1)} links solvable")
    if p == 2:
        return Verdict(True, case, None, "unit part is 1 mod 8")
    witness = f"{d0}^{p} = {d0} + {u // p % p}*{p} (mod {p * p})"
    return Verdict(True, case, None, witness)


def _newton(x: int, q: int, u: int, p: int, n_digits: int, c: int) -> int:
    """Lift x to the root of x^q = u it approximates, mod p**n_digits,
    where c = v_p(q).

    x must agree with that root in its first digit (first two at p = 2).
    Newton's step x <- x - (x^q - u)/(q*x^(q-1)) then doubles the digits
    that agree (2k - 1 of k at p = 2), so step i works modulo p**(k_i + c)
    with k_i doubling up to n_digits; u must be known to n_digits + c
    digits.  The schedule runs once and the lift returns: it checks
    nothing, and the callers check what it returns.

    The step divides by the derivative q*x^(q-1) = p**c * m*y through w,
    an inverse of m*y computed once at the seed's precision and refined by
    one Newton step of its own, w <- w*(2 - m*y*w), per step.  If x agreed
    with the root in j digits at the previous step, w was left exact mod
    p**j there and y has moved by O(p**j) since, so the refinement makes w
    exact mod p**(2j), at least the i digits x agrees in now.  f/p**c is
    O(p**i), so w's error moves x by O(p**(2i)): x moves exactly as with
    the true inverse mod p**k.
    """
    pc = p**c
    m = q // pc
    k = 2 if p == 2 else 1
    w = pow(m * pow(x, q - 1, p**k), -1, p**k)
    while k < n_digits:
        k = min(n_digits, 2 * k - (p == 2))
        mod = p**k
        y = pow(x, q - 1, mod * pc)
        f = (y * x - u) % (mod * pc)
        w = w * (2 - m * y * w) % mod
        x = (x - f // pc * w) % mod
    return x % p**n_digits


def root_count(p: int, q: int) -> int:
    """d = #mu_q(Q_p), the number of roots of x^q = a when there are any:
    mu(Q_p) is mu_(p-1) for odd p and {1, -1} for p = 2."""
    return math.gcd(q, 2 if p == 2 else p - 1)


def _unit_roots(a: PAdic, q: int, n_digits: int) -> tuple[Iterator[int], int, int]:
    """The unit parts of every root of x^q = a, mod p**n_digits, with the
    c = v_p(q) and the root count d they were built with: one Newton lift
    r0 of one seed, and an iterator over r0 * zeta**k for k < d, the
    d-th roots of unity of Q_p that x^q cannot tell apart.  The lifted
    root of unity zeta is checked once, zeta^d = 1 (mod p**n_digits); the
    roots are left to _checked."""
    c, m = _split(a, q)
    if n_digits < 1:
        raise ValueError("need at least one digit")
    p = a.p
    if a.gamma % q != 0:
        raise LiftContradictionError(
            f"lift invoked with valuation {a.gamma} not divisible by {q}"
        )
    _require_digits(a, n_digits + c, f"lifting {n_digits} digits")
    if p == 2:
        seed = 1 if q % 2 == 0 else a.unit % 4
    elif m == 1:
        seed = a.unit % p
    else:
        seed = power_residue_root(m, a.unit % p, p)
        if seed is None:
            raise LiftContradictionError(
                f"{a.unit % p} has no {m}-th root mod {p}; "
                "criteria and lifting disagree"
            )
    seed_mod = p ** min(_power_depth(p, c), a.precision)
    if pow(seed, q, seed_mod) != a.unit % seed_mod:
        raise LiftContradictionError(
            f"seed {seed} fails x^{q} = {a.unit % seed_mod} (mod {seed_mod}); "
            "criteria and lifting disagree"
        )
    mod = p**n_digits
    x = _newton(seed, q, a.unit % (mod * p**c), p, n_digits, c)
    # the d-th roots of unity of Q_p are the powers of zeta
    d = root_count(p, q)
    if d > 2:
        z = pow(find_primitive_root(p), (p - 1) // d, p)
        zeta = _newton(z, d, 1, p, n_digits, 0)
        if pow(zeta, d, mod) != 1:
            raise LiftContradictionError(
                f"lifted root of unity {zeta} fails x^{d} = 1 (mod {p}^{n_digits})"
            )
    else:
        zeta = mod - 1
    return _coset(x, zeta, d, mod), c, d


def _checked(a: PAdic, q: int, n_digits: int, units, c: int, d: int) -> RootSet:
    """The roots p**(gamma/q) * r for the unit residues r, each checked
    against a with one power: the only check of a returned root.

    Both sides of (p**(gamma/q) * r)^q = p**gamma * u have valuation
    gamma, so the check is r^q = u on the residues, mod p**(k - gamma)."""
    verify_k = a.gamma + n_digits + c
    mod = a.p ** (n_digits + c)
    u = a.unit % mod
    roots = tuple(PAdic(a.p, a.gamma // q, r, n_digits) for r in units)
    for r in roots:
        if pow(r.unit, q, mod) != u:
            raise LiftContradictionError(
                f"lifted value {r} fails r^{q} = a mod p^{verify_k}"
            )
    return RootSet(roots, d, verify_k)


def lift_roots(a: PAdic, q: int, n_digits: int) -> RootSet:
    """Every root of x^q = a to n_digits unit digits: one root lifted by
    Newton iteration, times the roots of unity.

    Write a = p**gamma * u and q = m * p**c with p not dividing m.  Every
    root is p**(gamma/q) times a unit root of x^q = u, and by
    Z_p^* = mu_(p-1) x (1 + pZ_p) the unit roots are r0 * zeta**k for one
    unit root r0 and zeta a primitive d-th root of unity, where
    d = gcd(q, p-1) for odd p and d = gcd(q, 2) for p = 2 (zeta = -1).
    d is the expected_count of the result, for every q.  r0 is lifted from
    one seed: for odd p, the m-th root g**s of d0 = u mod p that one
    discrete log gives (power_residue_root; d0 itself when m = 1); 1 for
    even q and u mod 4 for odd q at p = 2.  The seed must satisfy
    x^q = u (mod p**(c+1)), or mod 2**(c+2) at p = 2.  One run of Newton
    steps at doubling precision then lifts it to n_digits.  zeta is
    g**((p-1)/d) mod p, for g the smallest primitive root, Newton-lifted
    on x^d = 1 and checked once.  The roots are the distinct residues
    r0 * zeta**k, sorted, and each is checked once against a with one
    power, x^q = u (mod p**(n_digits+c)), before any is returned.

    Callers must have established a solvable verdict first (see decide):
    a missing or failing seed, a failing root of unity or a failing root
    means the criteria and the lifting disagree and raises
    LiftContradictionError.
    """
    units, c, d = _unit_roots(a, q, n_digits)
    return _checked(a, q, n_digits, sorted(set(units)), c, d)


def lift_root(a: PAdic, q: int, n_digits: int) -> PAdic:
    """The first root lift_roots(a, q, n_digits) returns, the one with the
    least unit residue, with only that root checked against a: the least
    r0 * zeta**k is kept as the powers go by, and no other is stored."""
    units, c, d = _unit_roots(a, q, n_digits)
    return _checked(a, q, n_digits, (min(units),), c, d).roots[0]


def solve(a: PAdic, q: int, n_digits: int):
    """Decide x^q = a and, when solvable, construct all roots to n_digits
    unit digits.  Returns (Verdict, RootSet or None).

    The target must be known to n_digits + v_p(q) digits: the lift reads
    v_p(q) digits beyond those of the roots.
    """
    c, _ = _split(a, q)
    _require_digits(a, n_digits + c, f"solving to {n_digits} digits")
    verdict = decide(a, q)
    if not verdict.solvable:
        return verdict, None
    return verdict, lift_roots(a, q, n_digits)
