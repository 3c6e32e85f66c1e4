"""Solvability verdicts and Newton root lifting for x^q = a over the
p-adic numbers.

decide(a, q) is the one verdict entry point.  It splits by the shape of q
relative to p, and the first three cases are the paper's digit criteria:

  square        q = 2.  For odd p: the valuation must be even and the first
                digit a quadratic residue mod p.  For p = 2: the valuation
                must be even and the digits at positions 1 and 2 must both
                vanish.
  coprime       gcd(q, p) = 1.  The valuation must be divisible by q and
                the first digit must be a q-th power residue mod p (for
                p = 2 the residue condition is vacuous: odd q-th powers hit
                every unit digit).
  q_equals_p    q = p odd.  The valuation must be divisible by p and the
                digit condition d0**p = d0 + d1*p (mod p**2) must hold;
                necessity also forces the root's first digit to equal d0.
                Deliberately not used at p = 2, where it would wrongly
                accept values such as 5; the square criterion is used
                instead.
  general_chain q = m * p**c with c >= 1 and q not in the cases above.
                Writing y = x**(p**c) reduces to y**m = a followed by c
                successive p-th root links.  Z_p^* = mu_(p-1) x (1 + pZ_p)
                decides every link in closed form from a = p**gamma * u:
                link i needs gamma / (m * p**(i-1)) divisible by p and
                u**(p-1) = 1 (mod p**(i+1)) for odd p, or u = 1
                (mod 2**(i+2)) for p = 2.  For i = 1 and m = 1 these are
                the q_equals_p and square digit conditions.  The verdict
                reports the first link that fails.

lift_roots then lifts one root by Newton iteration at doubling precision
and multiplies it by the roots of unity of Q_p (Z_p^* = mu_(p-1) x
(1 + pZ_p), so every other root is that one times a root of unity);
lift_root returns the least of those roots alone.  solve is decide
followed by lift_roots.  If the criteria say solvable and the lift then
fails, the two halves of the theory disagree, which is a fatal internal
error raised as LiftContradictionError (never swallowed).
"""

import math
from dataclasses import dataclass

from .congruence import (
    find_primitive_root,
    int_valuation,
    is_qth_residue,
    power_residue_solve,
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


@dataclass(frozen=True)
class Verdict:
    solvable: bool
    case_used: str
    failed_condition: str | None = None
    details: str = ""


@dataclass(frozen=True)
class RootSet:
    """All roots found, sorted by unit residue; expected_count is the
    group-theoretic count gcd(q, p-1) when that applies (units, gcd(q,p)=1)
    and None when no count is claimed.  Every root was checked to satisfy
    r^q = a (mod p^verify_k) before it was returned."""

    roots: tuple[PAdic, ...]
    expected_count: int | None
    verify_k: int

    @property
    def observed_count(self) -> int:
        return len(self.roots)


def _require_nonzero(a: PAdic) -> None:
    if a.is_zero:
        raise ValueError("zero input: x^q = 0 has only the zero root")


def _qp_digit_condition(p: int, d0: int, d1: int) -> bool:
    return pow(d0, p, p * p) == (d0 + d1 * p) % (p * p)


def check_square(a: PAdic) -> Verdict:
    """Solvability of x^2 = a."""
    _require_nonzero(a)
    p = a.p
    if a.gamma % 2 != 0:
        return Verdict(
            False, CASE_SQUARE, COND_VALUATION, f"valuation {a.gamma} is odd"
        )
    if p == 2:
        d = a.digits_to(3)
        if d[1] != 0 or d[2] != 0:
            return Verdict(
                False,
                CASE_SQUARE,
                COND_DIGITS,
                f"digits at positions 1,2 are {d[1]},{d[2]}; both must be 0",
            )
        return Verdict(True, CASE_SQUARE, None, "unit part is 1 mod 8")
    d0 = a.unit % p
    if not is_qth_residue(d0, 2, p):
        return Verdict(
            False,
            CASE_SQUARE,
            COND_RESIDUE,
            f"first digit {d0} is not a quadratic residue mod {p}",
        )
    return Verdict(True, CASE_SQUARE, None, f"{d0} is a quadratic residue mod {p}")


def check_coprime(a: PAdic, q: int) -> Verdict:
    """Solvability of x^q = a when gcd(q, p) = 1."""
    _require_nonzero(a)
    p = a.p
    if q < 2:
        raise ValueError("exponent must be at least 2")
    if math.gcd(q, p) != 1:
        raise ValueError(f"exponent {q} is not coprime to p={p}")
    if a.gamma % q != 0:
        return Verdict(
            False,
            CASE_COPRIME,
            COND_VALUATION,
            f"valuation {a.gamma} is not divisible by {q}",
        )
    if p == 2:
        return Verdict(
            True, CASE_COPRIME, None, "odd exponent powers reach every 2-adic unit"
        )
    d0 = a.unit % p
    if not is_qth_residue(d0, q, p):
        return Verdict(
            False,
            CASE_COPRIME,
            COND_RESIDUE,
            f"first digit {d0} is not a {q}-th power residue mod {p}",
        )
    return Verdict(
        True, CASE_COPRIME, None, f"{d0} is a {q}-th power residue mod {p}"
    )


def check_qp(a: PAdic) -> Verdict:
    """Solvability of x^p = a for odd p.  Refuses p = 2: the digit test
    below is wrong there (it would accept 5), so 2-adic callers must take
    the square route."""
    _require_nonzero(a)
    p = a.p
    if p == 2:
        raise ValueError("the q = p criterion is only valid for odd p")
    if a.gamma % p != 0:
        return Verdict(
            False,
            CASE_QP,
            COND_VALUATION,
            f"valuation {a.gamma} is not divisible by {p}",
        )
    d = a.digits_to(2)
    if not _qp_digit_condition(p, d[0], d[1]):
        return Verdict(
            False,
            CASE_QP,
            COND_DIGITS,
            f"{d[0]}^{p} = {pow(d[0], p, p * p)} (mod {p * p}) but the first two "
            f"digits give {d[0] + d[1] * p}",
        )
    return Verdict(
        True, CASE_QP, None, f"{d[0]}^{p} = {d[0]} + {d[1]}*{p} (mod {p * p})"
    )


def _power_depth(p: int, c: int) -> int:
    """Digits of a unit u that decide whether it is a p**c-th power
    (c >= 1): it is one exactly when u**(p-1) = 1 (mod p**(c+1)) for odd
    p, or u = 1 (mod 2**(c+2)) for p = 2."""
    return c + 2 if p == 2 else c + 1


def decide(a: PAdic, q: int) -> Verdict:
    """Decide x^q = a without constructing any root.

    q = 2, gcd(q, p) = 1 and q = p (odd p) are the paper's digit criteria
    check_square, check_coprime and check_qp.  Any other q = m * p**c
    with c >= 1 is a chain of links, decided in closed form from
    a = p**gamma * u: link 1, present when m > 1, is the check for
    x^m = a; p-th root link i (i = 1..c) then needs gamma / (m * p**(i-1))
    divisible by p and u**(p-1) = 1 (mod p**(i+1)) for odd p, or
    u = 1 (mod 2**(i+2)) for p = 2.  A failure reports its link as
    chain_step k and names the failing quantity in details.
    """
    _require_nonzero(a)
    if q < 2:
        raise ValueError("exponent must be at least 2")
    p = a.p
    c = int_valuation(q, p)
    if q == 2:
        return check_square(a)
    if c == 0:
        return check_coprime(a, q)
    if q == p:
        return check_qp(a)
    m = q // p**c
    need = _power_depth(p, c)
    if a.precision < need:
        raise PrecisionError(
            f"deciding x^{q} over the {p}-adics needs the value known to "
            f"{need} digits, have {a.precision}"
        )
    step = 0
    if m > 1:
        step = 1
        first = check_square(a) if m == 2 else check_coprime(a, m)
        if not first.solvable:
            return Verdict(
                False, CASE_CHAIN, "chain_step 1", f"x^{m} link: {first.details}"
            )
    for i in range(1, c + 1):
        step += 1
        g = a.gamma // (m * p ** (i - 1))
        k = _power_depth(p, i)
        r = pow(a.unit, p - 1, p**k)  # u itself when p = 2
        if g % p != 0:
            witness = f"valuation {g} is not divisible by {p}"
        elif r != 1:
            power = "u" if p == 2 else f"u^{p - 1}"
            witness = f"{power} = {r} (mod {p}^{k}), must be 1"
        else:
            continue
        return Verdict(
            False, CASE_CHAIN, f"chain_step {step}", f"x^{p} link: {witness}"
        )
    return Verdict(True, CASE_CHAIN, None, f"all {step} links solvable")


# Each Newton step at least about doubles the digits known, so this many
# steps cover any precision that fits in memory.
_NEWTON_STEPS = 64


def _newton(x: int, q: int, u: int, p: int, n_digits: int) -> int:
    """Lift x to the root of x^q = u it approximates, mod p**n_digits.

    x must agree with that root in its first digit (first two at p = 2).
    Newton's step x <- x - (x^q - u)/(q*x^(q-1)) then doubles the digits
    that agree (2k - 1 of k at p = 2), so step i works modulo p**(k_i + c),
    c = v_p(q), with k_i doubling up to n_digits; u must be known to
    n_digits + c digits.  The loop ends once x^q = u (mod p**(n_digits+c))
    holds at full precision, and raises LiftContradictionError if that
    does not happen within _NEWTON_STEPS steps.
    """
    pc = p ** int_valuation(q, p)
    m = q // pc
    k = 2 if p == 2 else 1
    for _ in range(_NEWTON_STEPS):
        k = min(n_digits, 2 * k - (p == 2))
        mod = p**k
        y = pow(x, q - 1, mod * pc)
        f = (y * x - u) % (mod * pc)
        if f == 0 and k == n_digits:
            return x % mod
        x = (x - f // pc * pow(m * y, -1, mod)) % mod
    raise LiftContradictionError(
        f"Newton lift of x^{q} = a did not settle in {_NEWTON_STEPS} steps"
    )


def _unit_roots(a: PAdic, q: int, n_digits: int) -> list[int]:
    """The unit parts of every root of x^q = a, mod p**n_digits, sorted:
    one Newton lift of one seed, times the roots of unity of Q_p that
    x^q cannot tell apart."""
    _require_nonzero(a)
    if q < 2:
        raise ValueError("exponent must be at least 2")
    if n_digits < 1:
        raise ValueError("need at least one digit")
    p = a.p
    c = int_valuation(q, p)
    if a.gamma % q != 0:
        raise LiftContradictionError(
            f"lift invoked with valuation {a.gamma} not divisible by {q}"
        )
    if a.precision < n_digits + c:
        raise PrecisionError(
            f"lifting {n_digits} digits needs the target known to "
            f"{n_digits + c} digits, have {a.precision}"
        )
    m = q // p**c
    if p == 2:
        seed = 1 if q % 2 == 0 else a.unit % 4
    elif m == 1:
        seed = a.unit % p
    else:
        seeds = power_residue_solve(m, a.unit % p, p).representatives
        if not seeds:
            raise LiftContradictionError(
                f"{a.unit % p} has no {m}-th root mod {p}; "
                "criteria and lifting disagree"
            )
        seed = seeds[0]
    seed_mod = p ** min(_power_depth(p, c), a.precision)
    if pow(seed, q, seed_mod) != a.unit % seed_mod:
        raise LiftContradictionError(
            f"seed {seed} fails x^{q} = {a.unit % seed_mod} (mod {seed_mod}); "
            "criteria and lifting disagree"
        )
    mod = p**n_digits
    x = _newton(seed, q, a.unit % (mod * p**c), p, n_digits)
    # mu(Q_p) is mu_(p-1) for odd p and {1, -1} for p = 2; its d-th roots
    # of unity are the powers of zeta
    d = math.gcd(q, 2 if p == 2 else p - 1)
    if d > 2:
        z = pow(find_primitive_root(p), (p - 1) // d, p)
        zeta = _newton(z, d, 1, p, n_digits)
    else:
        zeta = mod - 1
    units = {x}
    for _ in range(d - 1):
        x = x * zeta % mod
        units.add(x)
    return sorted(units)


def _checked(a: PAdic, q: int, n_digits: int, units) -> tuple[tuple, int]:
    """The roots p**(gamma/q) * r for the unit residues r, each checked
    against a with one power, and the exponent k of r^q = a (mod p**k)."""
    verify_k = a.gamma + n_digits + int_valuation(q, a.p)
    roots = tuple(PAdic.from_unit(a.p, a.gamma // q, r, n_digits) for r in units)
    for r in roots:
        if not r.pow_nat(q).eq_mod(a, verify_k):
            raise LiftContradictionError(
                f"lifted value {r} fails r^{q} = a mod p^{verify_k}"
            )
    return roots, verify_k


def lift_roots(a: PAdic, q: int, n_digits: int) -> RootSet:
    """Every root of x^q = a to n_digits unit digits: one root lifted by
    Newton iteration, times the roots of unity.

    Write a = p**gamma * u and q = m * p**c with p not dividing m.  Every
    root is p**(gamma/q) times a unit root of x^q = u, and by
    Z_p^* = mu_(p-1) x (1 + pZ_p) the unit roots are r0 * zeta**k for one
    unit root r0 and zeta a primitive d-th root of unity, where
    d = gcd(q, p-1) for odd p and d = gcd(q, 2) for p = 2 (zeta = -1).
    r0 is lifted from one seed: an m-th root of d0 = u mod p for odd p
    (d0 itself when m = 1); 1 for even q and u mod 4 for odd q at p = 2.
    The seed must satisfy x^q = u (mod p**(c+1)), or mod 2**(c+2) at
    p = 2.  Newton steps at doubling precision then lift it until
    x^q = u (mod p**(n_digits+c)).  zeta is g**((p-1)/d) mod p, for g the
    smallest primitive root, Newton-lifted on x^d = 1.  The roots are the
    distinct residues r0 * zeta**k, sorted, and each is checked against a
    with one power before any is returned.

    Callers must have established a solvable verdict first (see decide):
    a missing or failing seed, or a Newton loop that does not settle,
    means the criteria and the lifting disagree and raises
    LiftContradictionError.
    """
    roots, verify_k = _checked(a, q, n_digits, _unit_roots(a, q, n_digits))
    c = int_valuation(q, a.p)
    expected = math.gcd(q, a.p - 1) if c == 0 else None
    return RootSet(roots, expected, verify_k)


def lift_root(a: PAdic, q: int, n_digits: int) -> PAdic:
    """The first root lift_roots(a, q, n_digits) returns, the one with the
    least unit residue, with only that root checked against a."""
    roots, _ = _checked(a, q, n_digits, _unit_roots(a, q, n_digits)[:1])
    return roots[0]


def solve(a: PAdic, q: int, n_digits: int):
    """Decide x^q = a and, when solvable, construct all roots to n_digits
    unit digits.  Returns (Verdict, RootSet or None).

    The target must be known to n_digits + v_p(q) digits: the lift reads
    v_p(q) digits beyond those of the roots.
    """
    _require_nonzero(a)
    if q < 2:
        raise ValueError("exponent must be at least 2")
    c = int_valuation(q, a.p)
    if a.precision < n_digits + c:
        raise PrecisionError(
            f"solving to {n_digits} digits needs the value known to "
            f"{n_digits + c} digits, have {a.precision}"
        )
    verdict = decide(a, q)
    if not verdict.solvable:
        return verdict, None
    return verdict, lift_roots(a, q, n_digits)
