"""Canonical decompositions x = epsilon * delta * y^q and the tables of
unit classes behind them.

Every nonzero p-adic x can be funneled into a product of a small unit
factor epsilon, a power-of-p factor delta = p^j with j in [0, q-1], and a
q-th power.  Which epsilons are needed depends on the relationship between
q and p:

  q = p (odd)       epsilon is 1 when the unit part already passes the
                    p-th power digit test, else the two-digit integer
                    d0 + d1*p, which then always lies in the set returned
                    by epsilon_set(p).
  q prime, q < p    if p != 1 (mod q) every unit is a q-th power and
                    epsilon = 1; if p = 1 (mod q) a fixed non-q-th-power
                    unit eta (the smallest primitive root mod p) is used
                    and epsilon = eta^j for the unique j in [0, q-1] that
                    makes the remaining unit a q-th power: j is the
                    discrete log of the first digit to the base eta,
                    reduced mod q.

j_no_solution_table lists, per odd prime, the second digits j for which
d0 + j*p can never match d0^p mod p^2, i.e. the j that force a nontrivial
epsilon no matter what the first digit is.

Under Z_p^* = mu_(p-1) x (1 + pZ_p) the units passing the digit test are
the Teichmueller representatives omega(i) = i^p mod p^2: the one d0 + j*p
that passes for d0 = i has j = j_i, the second base-p digit of omega(i).
The p-1 representatives are the powers of omega(g) for a primitive root g,
so the table rows, epsilon_set and derived_epsilon_set all read j_i from
one walk through those powers, one product mod p^2 per entry.
"""

from collections import namedtuple
from itertools import chain, compress, filterfalse

from .congruence import LIST_CAP, find_primitive_root, index, int_valuation, is_prime
from .padic_core import PAdic, PrecisionError
from .roots import LiftContradictionError, decide, lift_root

FORM_QP = "q_equals_p"
FORM_PLAIN = "coprime_plain"
FORM_ETA = "coprime_with_eta"

_PRIME_BELOW_P = "classifier needs a prime exponent q < p"
# the largest p that the table functions take: j_no_solution_table,
# epsilon_set and derived_epsilon_set
TABLE_BOUND = 10_000


class Decomposition(
    namedtuple(
        "Decomposition",
        "form epsilon delta_exponent y q epsilon_int eta eta_exponent",
        defaults=(None, None, None),
    )
):
    """x = epsilon * p^delta_exponent * y^q, exact to y's precision: form
    is a FORM_* name, epsilon, y and eta are PAdic, and epsilon_int,
    eta and eta_exponent may be None."""

    __slots__ = ()

    def recompose(self) -> PAdic:
        return self.epsilon.mul(self.y.pow_nat(self.q)).shift(self.delta_exponent)


def find_nonresidue_unit(p: int, q: int, precision: int = 16) -> PAdic:
    """The smallest primitive root mod p, embedded as a p-adic unit.  Only
    meaningful when p = 1 (mod q), where it is guaranteed not to be a q-th
    power (its discrete log is 1, which gcd(q, p-1) > 1 cannot divide)."""
    if not is_prime(p) or not is_prime(q):
        raise ValueError("both p and q must be prime")
    if (p - 1) % q != 0:
        raise ValueError(
            f"p={p} is not 1 mod q={q}; every unit is a q-th power there"
        )
    r = find_primitive_root(p)
    eta = PAdic.from_int(r, p, precision)
    if decide(eta, q).solvable:
        raise LiftContradictionError(
            f"primitive root {r} mod {p} tested as a {q}-th power"
        )
    return eta


def verify_c1(p: int, q: int) -> bool:
    """Check that p^i * eta^j is never a q-th power for (i, j) in
    [0, q-1]^2 other than (0, 0).  True means the q^2 classes
    {p^i eta^j y^q} are genuinely distinct."""
    eta = find_nonresidue_unit(p, q, precision=8)
    for i in range(q):
        for j in range(q):
            if i == 0 and j == 0:
                continue
            val = eta.pow_nat(j).shift(i) if j else PAdic.one(p, 8).shift(i)
            if decide(val, q).solvable:
                return False
    return True


def classify(x: PAdic, q: int) -> Decomposition:
    """Decompose x as epsilon * p^i * y^q, i = v_p(x) mod q, for odd q = p
    or prime q < p, in the form the module docstring gives for that case:
    the one place that picks it.  y gets precision - v_p(q) digits: the
    lift reads v_p(q) digits beyond those of the root.  At q = p the digit
    test is decide's.  At p = 1 (mod q),
    j = log_eta(d0) mod q: the q-th powers mod p are the powers of eta
    whose exponent q divides, so d0 * eta^-j is one exactly for that j.
    """
    if x.is_zero:
        raise ValueError("cannot decompose zero")
    p, n_digits = x.p, x.precision
    eta = j = None
    if q == p:
        if p == 2:
            raise ValueError("the q = p classifier is only defined for odd p")
        if n_digits < 2:
            raise PrecisionError("decomposition reads two digits; need precision >= 2")
        form = FORM_QP
        eps_int = 1 if decide(x.unit_part(), p).solvable else x.unit % (p * p)
        eps = PAdic.from_int(eps_int, p, n_digits)
    elif q > p:
        raise ValueError(f"classify needs q = p or prime q < p, got q={q}, p={p}")
    elif not is_prime(q):
        raise ValueError(_PRIME_BELOW_P)
    elif (p - 1) % q != 0:
        form, eps_int, eps = FORM_PLAIN, 1, PAdic.one(p, n_digits)
    else:
        form = FORM_ETA
        eta = find_nonresidue_unit(p, q, n_digits)
        j = index(eta.unit, x.unit % p, p) % q
        eps = eta.pow_nat(j) if j else PAdic.one(p, n_digits)
        eps_int = 1 if j == 0 else None
    i = x.gamma % q
    y = lift_root(x.shift(-i).div(eps), q, n_digits - int_valuation(q, p))
    return Decomposition(form, eps, i, y, q, eps_int, eta, j)


def classify_coprime(x: PAdic, q: int) -> Decomposition:
    """classify for prime q < p; q >= p is refused here as well."""
    if not x.is_zero and q >= x.p:
        raise ValueError(_PRIME_BELOW_P)
    return classify(x, q)


def classify_p(x: PAdic) -> Decomposition:
    """classify for q = p (odd p)."""
    return classify(x, x.p)


def _second_digits(p: int) -> list[int]:
    """j_i = ((i^p - i) mod p^2) / p for i in [1, p-1], odd prime p: i + j*p
    passes the digit test i^p = i + j*p (mod p^2) exactly at j = j_i.

    i^p mod p^2 = i + j_i*p is the Teichmueller representative omega(i)
    mod p^2, and these are the powers of t = omega(g) = g^p for the
    smallest primitive root g.  One product mod p^2 per step walks them:
    w = omega(i) is i mod p and j_i above it."""
    pp = p * p
    t = pow(find_primitive_root(p), p, pp)
    row = [0] * p
    w = 1
    for _ in range(1, p):
        row[w % p] = w // p
        w = w * t % pp
    del row[0]
    return row


def epsilon_set(p: int) -> tuple[int, ...]:
    """The unit classes needed to absorb non-p-th-power unit parts:
    {1} together with every two-digit integer i + j*p (i in [1, p-1],
    j in [0, p-1]) failing the digit test i^p = i + j*p (mod p^2).

    That is 1, then each run j*p+1 .. j*p+p-1 with every i whose j_i = j
    left out (1 is always left out of the j = 0 run: j_1 = 0).  A set of
    more than LIST_CAP entries is refused before any is built."""
    _check_table_bound(p)
    if not is_prime(p) or p == 2:
        raise ValueError("epsilon_set is defined for odd primes")
    if (n := 1 + (p - 1) ** 2) > LIST_CAP:
        raise ValueError(f"epsilon_set({p}) has {n} entries, more than {LIST_CAP}")
    keep = bytearray([0] + [1] * (p - 1)) * p
    for i, j in enumerate(_second_digits(p), 1):
        keep[i + j * p] = 0
    return (1, *compress(range(p * p), keep))


def _check_table_bound(p: int) -> None:
    if p > TABLE_BOUND:
        raise ValueError(f"table bound capped at {TABLE_BOUND}")


def j_no_solution_table(p_max: int) -> dict[int, tuple[int, ...]]:
    """For each odd prime p <= p_max, the second digits j in [0, p-1] such
    that i^p = i + j*p (mod p^2) has no solution i in [1, p-1]."""
    _check_table_bound(p_max)
    return {p: _j_row(p) for p in range(3, p_max + 1) if is_prime(p)}


def _j_row(p: int) -> tuple[int, ...]:
    """The j_no_solution_table row of one odd prime p: the j no j_i hits.

    The tuple is built from a list, of known length.  tuple() of an iterator
    guesses a size and resizes the tuple once full, and CPython then keeps
    it on the free list of its new size until the next full collection."""
    return tuple(list(filterfalse(set(_second_digits(p)).__contains__, range(p))))


def derived_epsilon_set(p: int) -> tuple[int, ...]:
    """{1} plus every i + j*p (i in [1, p-1]) with j drawn from the
    no-solution table: the epsilon classes forced purely by the second
    digit.  More than LIST_CAP of them are refused before any is built."""
    _check_table_bound(p)
    js = _j_row(p) if p >= 3 and is_prime(p) else ()
    if (n := 1 + len(js) * (p - 1)) > LIST_CAP:
        raise ValueError(
            f"derived_epsilon_set({p}) has {n} entries, more than {LIST_CAP}"
        )
    return tuple(chain.from_iterable(_epsilon_runs(p, js)))


def _epsilon_runs(p: int, row) -> list[range]:
    """1, then i + j*p for i in [1, p-1] and each j of a table row, as runs
    of consecutive integers.  The classes of one j are the run j*p+1 ..
    j*p+p-1, and j = 0 is never in a row (i = 1 solves it), so for a row in
    increasing order 1 and then the runs in row order are already in
    increasing order.  A list, so that the command line holds the runs
    without building a tuple of them."""
    return [range(1, 2), *(range(j * p + 1, j * p + p) for j in row)]
