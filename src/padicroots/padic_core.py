"""Truncated-precision arithmetic on p-adic numbers in canonical digit form.

A nonzero p-adic number is written p**gamma * (d0 + d1*p + d2*p**2 + ...)
with digits in [0, p-1] and d0 != 0.  A value here carries exactly
`precision` unit-part digits, stored as one exact integer residue modulo
p**precision; the digit vector is a view of that residue.  gamma (the
valuation) is always exact, so the absolute error of a value is
O(p**(gamma + precision)).

A value offers products, quotients, powers, shifts and eq_mod; an int
operand is exact and never narrows a result.  Values are immutable: a
PAdic refuses to set or delete any attribute, and copies and pickles are
rebuilt through its checked constructor.  A zero is unit 0 known modulo
p**(gamma + precision), gamma then being no valuation; a product with a
zero is such a zero, by the same formula as for nonzeros.
"""

import sys
from functools import lru_cache
from itertools import product

from .congruence import int_valuation, is_prime


class PrecisionError(ValueError):
    """An operation needed more digits than the value carries."""


# Digit conversion splits a number of more than _LEAF digits at p**h, h
# about half its digits, and converts the halves alike: big-int work goes
# into a few large divisions or products instead of one per digit.
_LEAF = 64


def _to_digits(x: int, p: int, k: int, out: list, powers: dict) -> None:
    """Append the k low base-p digits of x, least significant first.
    powers caches p**h by h across the recursion."""
    if k <= _LEAF:
        for _ in range(k):
            x, d = divmod(x, p)
            out.append(d)
        return
    h = k // 2
    if h not in powers:
        powers[h] = p**h
    hi, lo = divmod(x, powers[h])
    _to_digits(lo, p, h, out, powers)
    _to_digits(hi, p, k - h, out, powers)


def _from_digits(digits, p: int, powers: dict) -> int:
    """sum(d * p**i) over the digits, least significant first.  powers
    caches p**h by h."""
    k = len(digits)
    if k <= _LEAF:
        value = 0
        for d in reversed(digits):
            value = value * p + d
        return value
    h = k // 2
    if h not in powers:
        powers[h] = p**h
    return _from_digits(digits[:h], p, powers) + powers[h] * _from_digits(
        digits[h:], p, powers
    )


# Rendering converts to base p**e, the largest power of p not above
# _BLOCK, and looks each block's e digits up as text.  p = 2 needs no
# table: format(x, "b") writes its digits.
_BLOCK = 1 << 10


@lru_cache(maxsize=None)
def _block_texts(p: int) -> tuple[int, tuple[str, ...]]:
    """(e, texts) for 2 < p <= _BLOCK: e is the largest exponent with
    p**e <= _BLOCK, and texts[v] is the e base-p digits of v < p**e, least
    significant first, joined by commas."""
    e = 1
    while p ** (e + 1) <= _BLOCK:
        e += 1
    digits = [str(d) for d in range(p)]
    return e, tuple(",".join(t[::-1]) for t in product(digits, repeat=e))


def _digit_text(x: int, p: int, k: int) -> str:
    """The k base-p digits of x < p**k, least significant first, joined by
    commas: at p = 2 the binary text of x padded to k digits and reversed;
    e digits per block of base p**e for 2 < p <= _BLOCK, the last partial
    block and every digit of a larger p one at a time."""
    if p == 2:  # the digits in the even places of a string of commas
        text = bytearray(b",") * (2 * k - 1)
        text[::2] = format(x, "b").zfill(k)[::-1].encode()
        return text.decode()
    if p > _BLOCK:
        out: list = []
        _to_digits(x, p, k, out, {})
        return ",".join(map(str, out))
    e, texts = _block_texts(p)
    whole, rest = divmod(k, e)
    blocks: list = []
    _to_digits(x, p**e, whole + (rest > 0), blocks, {})
    top = blocks.pop() if rest else 0
    parts = [texts[v] for v in blocks]
    for _ in range(rest):
        top, d = divmod(top, p)
        parts.append(str(d))
    return ",".join(parts)


# A literal of single-character digits is read by int() in chunks of this
# many digits: the least limit PYTHONINTMAXSTRDIGITS or
# sys.set_int_max_str_digits can set, so the read holds under any setting.
_CHUNK = sys.int_info.str_digits_check_threshold


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _check_digits(digits, p: int) -> None:
    for d in digits:
        if not 0 <= d < p:
            raise ValueError(f"digit {d} out of range for p={p}")


class PAdic:
    __slots__ = __match_args__ = ("p", "gamma", "unit", "precision")

    def __init__(self, p: int, gamma: int, unit: int, precision: int):
        _require_prime(p)
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if not 0 <= unit < p**precision:
            raise ValueError("unit residue out of range for the precision")
        if unit and unit % p == 0:
            raise ValueError("unit part must have a nonzero first digit")
        _set_p(self, p)
        _set_gamma(self, gamma)
        _set_unit(self, unit)
        _set_precision(self, precision)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple[int, int, int, int]:
        return self.p, self.gamma, self.unit, self.precision

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, p: int, precision: int = 1) -> "PAdic":
        return cls(p, 0, 0, precision)

    @classmethod
    def one(cls, p: int, precision: int) -> "PAdic":
        return cls(p, 0, 1, precision)

    @classmethod
    def from_unit(cls, p: int, gamma: int, unit: int, precision: int) -> "PAdic":
        """Value p**gamma * unit where unit is coprime to p; the residue is
        reduced mod p**precision."""
        _require_prime(p)
        return cls(p, gamma, unit % p**precision, precision)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int, precision: int) -> "PAdic":
        """Expansion of the rational num/den to `precision` unit digits."""
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        _require_prime(p)
        if num == 0:
            return cls.zero(p, precision)
        vn = int_valuation(num, p)
        vd = int_valuation(den, p)
        mod = p**precision
        n = num // p**vn
        d = den // p**vd
        return cls(p, vn - vd, n * pow(d, -1, mod) % mod, precision)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int) -> "PAdic":
        return cls.from_rational(n, 1, p, precision)

    # ------------------------------------------------------------------
    # views

    @property
    def digits(self) -> tuple[int, ...]:
        """All `precision` unit-part digits, least significant first."""
        return self.digits_to(self.precision)

    def digits_to(self, k: int) -> tuple[int, ...]:
        """First k unit-part digits."""
        self._require_nonzero("digits of")
        if k < 1:
            raise ValueError("need at least one digit")
        if k > self.precision:
            raise PrecisionError(
                f"requested {k} digits but only {self.precision} are known"
            )
        out: list[int] = []
        _to_digits(self.unit, self.p, k, out, {})
        return tuple(out)

    def unit_part(self) -> "PAdic":
        """The value with gamma stripped: same digits, valuation 0."""
        self._require_nonzero("unit part of")
        return PAdic(self.p, 0, self.unit, self.precision)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "PAdic":
        """other as a PAdic over self's prime: an exact int is expanded to
        self's precision and down to p**(gamma + precision), and a PAdic
        over another prime is refused."""
        if isinstance(other, int):
            v = int_valuation(other, self.p) if other else 0
            n = self.precision + max(0, self.gamma - v)
            return PAdic.from_int(other, self.p, n)
        if not isinstance(other, PAdic):
            raise TypeError(f"cannot combine PAdic with {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")
        return other

    def _scaled(self, g: int) -> int:
        """The integer self / p**g for g <= gamma: the unit residue times
        p**(gamma - g)."""
        return self.unit * self.p ** (self.gamma - g)

    def mul(self, other) -> "PAdic":
        """Product; unit precision is the minimum of the operands'."""
        other = self._coerce(other)
        n = min(self.precision, other.precision)
        mod = self.p**n
        return PAdic(
            self.p, self.gamma + other.gamma, self.unit * other.unit % mod, n
        )

    def inv(self) -> "PAdic":
        """Multiplicative inverse, same relative precision."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        mod = self.p**self.precision
        return PAdic(self.p, -self.gamma, pow(self.unit, -1, mod), self.precision)

    def div(self, other) -> "PAdic":
        return self.mul(self._coerce(other).inv())

    def pow_nat(self, q: int) -> "PAdic":
        """q-th power for natural q >= 1.

        Raising to the q-th power sharpens the unit precision by v_p(q):
        perturbing the unit by O(p**N) moves the power by
        q*u**(q-1)*O(p**N) + O(p**(2N)), so the result is determined modulo
        p**(N + v_p(q)) and is computed at that precision.
        """
        if not isinstance(q, int) or q < 1:
            raise ValueError("exponent must be a natural number >= 1")
        gain = int_valuation(q, self.p)
        n = self.precision + gain
        mod = self.p**n
        return PAdic(self.p, self.gamma * q, pow(self.unit, q, mod), n)

    def shift(self, k: int) -> "PAdic":
        """Multiply by p**k (shift the valuation)."""
        return PAdic(self.p, self.gamma + k, self.unit, self.precision)

    # ------------------------------------------------------------------
    # comparisons

    def eq_mod(self, other, k: int) -> bool:
        """Whether self = other (mod p**k), i.e. the difference has
        valuation at least k.  Raises PrecisionError when the operands are
        not known that far."""
        other = self._coerce(other)
        g = min(self.gamma, other.gamma)
        if k <= g:
            return True
        cap = min(self.gamma + self.precision, other.gamma + other.precision)
        if k > cap:
            raise PrecisionError(
                f"comparison mod p^{k} exceeds the known precision p^{cap}"
            )
        return (self._scaled(g) - other._scaled(g)) % self.p ** (k - g) == 0

    # ------------------------------------------------------------------
    # misc

    def _require_nonzero(self, what: str) -> None:
        if self.is_zero:
            raise ValueError(f"{what} zero is undefined")

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.gamma};" + _digit_text(self.unit, self.p, self.precision)

    def __repr__(self) -> str:
        if self.is_zero:
            known = f"unit=0, precision={self.precision}"
        else:
            known = f"digits={list(self.digits)}"
        return f"PAdic(p={self.p}, gamma={self.gamma}, {known})"

    __mul__ = mul
    __rmul__ = mul
    __pow__ = pow_nat


# the slots' own setters fill a new PAdic: its __setattr__ refuses all
_set_p, _set_gamma, _set_unit, _set_precision = (
    getattr(PAdic, name).__set__ for name in PAdic.__slots__
)


def parse_value(text: str, p: int, precision: int) -> PAdic:
    """Parse the two textual value forms.

    `n` or `n/d`        rational literal, expanded to `precision` digits
    `g;d0,d1,...`       explicit valuation and digit list; digits must lie
                        in [0, p-1] and d0 must be nonzero.  The finite sum
                        is the unit part, reduced to `precision` digits.

    For p <= 10, a digit list of single ASCII digits below p, each
    separated by one comma, is one base-p numeral written backwards: its
    shape is tested by comparing the odd places with a string of commas and
    deleting the digits below p from the even places' bytes, and int(s, p)
    reads the reversed digits in chunks of _CHUNK, within any int() digit
    limit, which _from_digits joins as digits base p**_CHUNK.  Every other
    digit list (spaces, signs, underscores, non-ASCII digits, empty
    entries, p > 10) is read entry by entry, and that loop raises every
    error a digit list can raise.
    """
    t = text.strip()
    if ";" in t:
        head, _, tail = t.partition(";")
        evens = tail[::2]
        numeral = (
            2 <= p <= 10
            and len(tail) % 2 == 1
            and tail[1::2] == "," * (len(tail) // 2)
            and evens.isascii()
            and not evens.encode().translate(None, b"0123456789"[:p])
        )
        try:
            gamma = int(head)
            digs = () if numeral else [int(x) for x in tail.split(",")]
        except ValueError:
            raise ValueError(f"malformed digit literal {text!r}") from None
        _check_digits(digs, p)
        if (tail[0] == "0") if numeral else (digs[0] == 0):
            raise ValueError("first digit must be nonzero (canonical form)")
        # the numeral's digits sit at the even places, d0 first: read
        # backwards they are d_(k-1) ... d1 d0.  d0 != 0 makes the digit
        # sum a unit, so gamma is the valuation.
        if numeral:
            s = tail[::-2]
            ends = range(len(s), 0, -_CHUNK)  # the low chunk first
            digs = [int(s[max(i - _CHUNK, 0) : i], p) for i in ends]
        unit = _from_digits(digs, p**_CHUNK if numeral else p, {})
        return PAdic.from_unit(p, gamma, unit, precision)
    num, slash, den = t.partition("/")
    try:
        n = int(num)
        d = int(den) if slash else 1
    except ValueError:
        raise ValueError(f"malformed rational literal {text!r}") from None
    return PAdic.from_rational(n, d, p, precision)
