"""Carry bookkeeping for powers of digit expansions.

Raising d0 + d1*p + d2*p**2 + ... to the q-th power and collecting the
coefficient of p**k (as a polynomial identity, before any digit carrying)
gives

    q * d0**(q-1) * dk  +  N_k,

where N_k sums, over all exponent tuples (m_0, ..., m_{k-1}) with
m_0 + ... + m_{k-1} = q and 1*m_1 + 2*m_2 + ... + (k-1)*m_{k-1} = k, the
terms  q!/(m_0! ... m_{k-1}!) * d0**m_0 * ... * d_{k-1}**m_{k-1}.  N_1 = 0
since no tuple meets the weight constraint.

For q = p the numbers N_k control which digit positions of a p-th power are
forced: when every digit is nonzero, p divides N_k exactly when p does not
divide k.  N_k comes from nk_walk, the one enumeration of the terms, or
from the generating polynomial of nk_sequence; the module also counts
binomial carries and gives ntilde_pk, which does not depend on the last
digit it nominally involves.  nk_walk builds each term's exponents as the
text that expand prints, so no term holds a tuple of k ints.
"""

import math

from .congruence import is_prime


def nk_walk(q: int, k: int, digits) -> list[tuple[str, int, int]]:
    """Every term of N_k as (exponents, coefficient, value), in
    lexicographic order of (m_{k-1}, ..., m_1).  The exponents are the
    text "m_0,m_1,...,m_{k-1}", and the value is the term at the digits
    d0..d_{k-1}, the first k of digits.

    The text is built along the walk, one choice at a time: ",m" for the
    choice, then ",0" for each position between it and the choice above,
    then the text of the positions already chosen.  A leaf puts str(m_0)
    and the zeros below its lowest position in front."""
    if q < 1:
        raise ValueError("exponent q must be at least 1")
    if k < 1:
        raise ValueError("digit position k must be at least 1")
    out: list[tuple[str, int, int]] = []
    append = out.append
    d0 = digits[0]
    # a choice has m <= min(q, k), and leaves count_left >= q - min(q, k):
    # per-call tables of the ",m" texts and of binom(count_left, m) by
    # count_left - base, measured faster than a format and a comb per choice
    r = min(q, k)
    base = q - r
    marks = [f",{m}" for m in range(r + 1)]
    zeros = [",0" * n for n in range(k)]
    binom = [
        [math.comb(c, m) for m in range(min(c, r) + 1)] for c in range(base, q + 1)
    ]

    def rec(
        top: int,
        count_left: int,
        weight_left: int,
        coeff: int,
        value: int,
        text: str,
    ) -> None:
        # Positions below top are all 0 here, and weight is left.  Pick the
        # highest nonzero one (lowest pos first, then smallest m), keeping
        # only choices whose rest fits: weight w fits in c parts below pos
        # iff w <= c*(pos-1), so pos itself needs w <= c*pos (c > 0 while
        # weight is left).  coeff is q! / (count_left! * the chosen m!): one
        # binomial per choice makes it the multinomial coefficient once m_0
        # is placed; value is the product of the chosen digits[pos]**m, and
        # text the exponents of positions top..k-1.
        first = -(-weight_left // count_left)
        row = binom[count_left - base]
        for pos in range(first, min(top, weight_left + 1)):
            low = max(1, weight_left - count_left * (pos - 1))
            d = digits[pos]
            above = zeros[top - pos - 1] + text
            for m in range(low, min(count_left, weight_left // pos) + 1):
                c = coeff * row[m]
                if weight_left > pos * m:
                    rec(
                        pos,
                        count_left - m,
                        weight_left - pos * m,
                        c,
                        value * d**m,
                        marks[m] + above,
                    )
                else:  # a leaf: m_0 takes the count left
                    n = count_left - m
                    e = f"{n}{zeros[pos - 1]}{marks[m]}{above}"
                    append((e, c, c * value * d**m * d0**n))

    rec(k, q, k, 1, 1, "")
    # rec's closure holds rec itself: empty that cell, or the cycle keeps
    # out alive until the garbage collector next runs
    del rec
    return out


def nk_term_count(q: int, k: int, cap: int) -> int:
    """The number of N_k terms, or a number above cap once it passes cap.

    The terms are the partitions of k into at most q parts, each below k;
    by conjugation, the partitions of k into parts of size at most q, less
    the one into k ones.  The dynamic program adds one part size at a time,
    and the count only grows as sizes are added.  At q, k >= 2 the k // 2
    splits k = a + b (1 <= a <= b) are terms, so a k that large needs no
    table of k entries."""
    if q < 2 or k < 2:
        return 0
    if k // 2 > cap:
        return k // 2
    ways = [1] + [0] * k  # ways[n]: partitions of n into the sizes so far
    for size in range(1, min(q, k) + 1):
        for n in range(size, k + 1):
            ways[n] += ways[n - size]
        if ways[k] - 1 > cap:
            break
    return ways[k] - 1


def compute_Nk(q: int, digits, k: int) -> int:
    """Exact N_k by enumerating every admissible exponent tuple."""
    digits = list(digits)
    if len(digits) < k:
        raise ValueError(f"need at least {k} digits d0..d{k-1}")
    return sum(value for _, _, value in nk_walk(q, k, digits))


def nk_sequence(q: int, digits, k_max: int) -> list[int]:
    """[N_1, ..., N_kmax], exactly, via one big-integer exponentiation.

    The digit polynomial is packed into an integer in a base wide enough
    that no coefficient of its q-th power can spill into a neighbour, so
    the polynomial coefficients can be read straight back off the power.
    """
    digits = [int(d) for d in digits]
    if q < 1:
        raise ValueError("exponent q must be at least 1")
    if not digits:
        raise ValueError("the digit list is empty: need at least d0")
    if any(d < 0 for d in digits):
        raise ValueError("digits must be non-negative")
    # every coefficient of the power is at most (sum of digits)^q
    total = max(sum(digits), 1)
    bits = max(total.bit_length() * q + 4, 8)
    packed = 0
    for i, d in enumerate(digits):
        packed |= d << (bits * i)
    power = packed**q
    mask = (1 << bits) - 1
    d0 = digits[0]
    lead = q * d0 ** (q - 1)
    out = []
    for k in range(1, k_max + 1):
        ck = (power >> (bits * k)) & mask
        dk = digits[k] if k < len(digits) else 0
        out.append(ck - lead * dk)
    return out


def binom_valuation_kummer(m: int, n: int, p: int) -> int:
    """Exponent of the prime p in binomial(m+n, m): the number of carries
    when adding m and n in base p.  The count is the valuation only for a
    prime base, so any other p is refused."""
    if p < 2:
        raise ValueError(f"valuation base must be at least 2, got {p}")
    if not is_prime(p):
        raise ValueError(f"Kummer's theorem needs a prime base, got {p}")
    if m < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    carries = 0
    carry = 0
    while m or n or carry:
        s = m % p + n % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        m //= p
        n //= p
    return carries


def ntilde_pk(p: int, digits, k: int) -> int:
    """N_{pk} with its single d_{pk-1} term removed:

        ntilde = N_{pk} - p*(p-1) * d0**(p-2) * d1 * d_{pk-1}.

    The value does not depend on d_{pk-1}, so the digit vector may stop at
    position pk-2; a missing d_{pk-1} is treated as 0.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    digits = list(digits)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(digits) < p * k - 1:
        raise ValueError(f"need at least {p * k - 1} digits")
    if len(digits) < p * k:
        digits = digits + [0]
    n_pk = nk_sequence(p, digits, p * k)[p * k - 1]
    d_last = digits[p * k - 1]
    return n_pk - p * (p - 1) * digits[0] ** (p - 2) * digits[1] * d_last
