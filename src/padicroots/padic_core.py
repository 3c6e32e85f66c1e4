"""Truncated-precision arithmetic on p-adic numbers in canonical digit form.

A nonzero p-adic number is written p**gamma * (d0 + d1*p + d2*p**2 + ...)
with digits in [0, p-1] and d0 != 0.  A value here carries exactly
`precision` unit-part digits, stored as one exact integer residue modulo
p**precision; the digit vector is a view of that residue.  gamma (the
valuation) is always exact, so the absolute error of a value is
O(p**(gamma + precision)).

Values are immutable.  Zero is a distinct value with norm 0; an addition
whose operands cancel beyond the guaranteed precision also returns zero,
meaning "indistinguishable from zero at that precision".
"""

from dataclasses import dataclass
from fractions import Fraction
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
    """sum(d * p**i) over the digits, least significant first (digits
    may lie outside [0, p-1]).  powers caches p**h by h."""
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
# _BLOCK, and looks each block's e digits up as text.
_BLOCK = 1 << 10


@lru_cache(maxsize=None)
def _block_texts(p: int) -> tuple[int, tuple[str, ...]]:
    """(e, texts) for p <= _BLOCK: e is the largest exponent with
    p**e <= _BLOCK, and texts[v] is the e base-p digits of v < p**e, least
    significant first, joined by commas."""
    e = 1
    while p ** (e + 1) <= _BLOCK:
        e += 1
    digits = [str(d) for d in range(p)]
    return e, tuple(",".join(t[::-1]) for t in product(digits, repeat=e))


def _digit_text(x: int, p: int, k: int) -> str:
    """The k low base-p digits of x, least significant first, joined by
    commas: e digits per block of base p**e for p <= _BLOCK, the last
    partial block and every digit of a larger p one at a time."""
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


@dataclass(frozen=True)
class PAdic:
    p: int
    gamma: int
    unit: int
    precision: int
    is_zero: bool = False

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.precision < 1:
            raise ValueError("precision must be at least 1")
        if self.is_zero:
            if self.unit != 0 or self.gamma != 0:
                raise ValueError("the zero value must have unit=0 and gamma=0")
            return
        if not 0 < self.unit < self.p**self.precision:
            raise ValueError("unit residue out of range for the precision")
        if self.unit % self.p == 0:
            raise ValueError("unit part must have a nonzero first digit")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, p: int, precision: int = 1) -> "PAdic":
        return cls(p, 0, 0, precision, True)

    @classmethod
    def one(cls, p: int, precision: int) -> "PAdic":
        return cls(p, 0, 1, precision)

    @classmethod
    def from_unit(cls, p: int, gamma: int, unit: int, precision: int) -> "PAdic":
        """Value p**gamma * unit where unit is coprime to p; the residue is
        reduced mod p**precision."""
        return cls(p, gamma, unit % p**precision, precision)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int, precision: int) -> "PAdic":
        """Expansion of the rational num/den to `precision` unit digits."""
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
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

    @classmethod
    def from_digits(cls, p: int, gamma: int, digits) -> "PAdic":
        """Canonicalize a digit vector whose entries may fall outside
        [0, p-1]: carries are propagated, leading zero digits move into
        gamma.  Normalizing a canonical vector returns it unchanged, so the
        map is idempotent.
        """
        digits = [int(d) for d in digits]
        if not digits:
            raise ValueError("empty digit vector")
        value = _from_digits(digits, p, {})
        if value == 0:
            return cls.zero(p, len(digits))
        v = int_valuation(value, p)
        if v >= len(digits):
            # all known digits cancelled; nothing survives the truncation
            return cls.zero(p, len(digits))
        kept = len(digits) - v
        return cls(p, gamma + v, (value // p**v) % p**kept, kept)

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

    def valuation(self) -> int:
        self._require_nonzero("valuation of")
        return self.gamma

    def norm(self) -> Fraction:
        """The p-adic absolute value p**(-gamma); norm of zero is 0."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.p) ** (-self.gamma)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "PAdic":
        if isinstance(other, PAdic):
            return other
        if isinstance(other, int):
            return PAdic.from_int(other, self.p, self.precision)
        raise TypeError(f"cannot combine PAdic with {type(other).__name__}")

    def _same_p(self, other: "PAdic") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def mul(self, other) -> "PAdic":
        """Product; unit precision is the minimum of the operands'."""
        other = self._coerce(other)
        self._same_p(other)
        n = min(self.precision, other.precision)
        if self.is_zero or other.is_zero:
            return PAdic.zero(self.p, n)
        mod = self.p**n
        return PAdic(
            self.p, self.gamma + other.gamma, self.unit * other.unit % mod, n
        )

    def add(self, other) -> "PAdic":
        """Sum.  Both operands are known modulo some p**K; the result keeps
        every digit below the smaller K.  If everything below K cancels the
        result is indistinguishable from zero at that precision and the zero
        value is returned.
        """
        other = self._coerce(other)
        self._same_p(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = min(self.gamma, other.gamma)
        cap = min(self.gamma + self.precision, other.gamma + other.precision)
        rel = cap - g
        mod = self.p**rel
        s = (
            self.unit * self.p ** (self.gamma - g)
            + other.unit * self.p ** (other.gamma - g)
        ) % mod
        if s == 0:
            return PAdic.zero(self.p, rel)
        v = int_valuation(s, self.p)
        return PAdic(self.p, g + v, s // self.p**v, rel - v)

    def neg(self) -> "PAdic":
        if self.is_zero:
            return self
        mod = self.p**self.precision
        return PAdic(self.p, self.gamma, mod - self.unit, self.precision)

    def sub(self, other) -> "PAdic":
        return self.add(self._coerce(other).neg())

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
        if self.is_zero:
            return self
        gain = int_valuation(q, self.p)
        n = self.precision + gain
        mod = self.p**n
        return PAdic(self.p, self.gamma * q, pow(self.unit, q, mod), n)

    def shift(self, k: int) -> "PAdic":
        """Multiply by p**k (shift the valuation)."""
        if self.is_zero:
            return self
        return PAdic(self.p, self.gamma + k, self.unit, self.precision)

    # ------------------------------------------------------------------
    # comparisons

    def eq_mod(self, other, k: int) -> bool:
        """Whether self = other (mod p**k), i.e. the difference has
        valuation at least k.  Raises PrecisionError when the operands are
        not known that far."""
        other = self._coerce(other)
        self._same_p(other)
        if self.is_zero and other.is_zero:
            return True
        if self.is_zero or other.is_zero:
            nz = other if self.is_zero else self
            return nz.gamma >= k
        g = min(self.gamma, other.gamma)
        if k <= g:
            return True
        cap = min(self.gamma + self.precision, other.gamma + other.precision)
        if k > cap:
            raise PrecisionError(
                f"comparison mod p^{k} exceeds the known precision p^{cap}"
            )
        mod = self.p ** (k - g)
        d = (
            self.unit * self.p ** (self.gamma - g)
            - other.unit * self.p ** (other.gamma - g)
        )
        return d % mod == 0

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
            return f"PAdic.zero({self.p}, {self.precision})"
        return (
            f"PAdic(p={self.p}, gamma={self.gamma}, digits={list(self.digits)})"
        )

    __mul__ = mul
    __rmul__ = mul
    __add__ = add
    __radd__ = add
    __sub__ = sub
    __neg__ = neg
    __pow__ = pow_nat

    def __rsub__(self, other):
        return self._coerce(other).sub(self)


def parse_value(text: str, p: int, precision: int) -> PAdic:
    """Parse the two textual value forms.

    `n` or `n/d`        rational literal, expanded to `precision` digits
    `g;d0,d1,...`       explicit valuation and digit list; digits must lie
                        in [0, p-1] and d0 must be nonzero.  The finite sum
                        is the unit part, reduced to `precision` digits.
    """
    t = text.strip()
    if ";" in t:
        head, _, tail = t.partition(";")
        try:
            gamma = int(head)
            digs = [int(x) for x in tail.split(",")]
        except ValueError:
            raise ValueError(f"malformed digit literal {text!r}") from None
        if not digs:
            raise ValueError("digit literal needs at least one digit")
        for d in digs:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} out of range for p={p}")
        if digs[0] == 0:
            raise ValueError("first digit must be nonzero (canonical form)")
        # d0 != 0 makes the digit sum a unit, so gamma is the valuation
        return PAdic.from_unit(p, gamma, _from_digits(digs, p, {}), precision)
    num, slash, den = t.partition("/")
    try:
        n = int(num)
        d = int(den) if slash else 1
    except ValueError:
        raise ValueError(f"malformed rational literal {text!r}") from None
    return PAdic.from_rational(n, d, p, precision)
