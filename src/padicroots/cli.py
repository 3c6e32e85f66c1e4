"""Command line front end.

Subcommands map onto the library one-to-one: check (verdict only), root
(verdict plus digit expansion of every root), classify (epsilon/delta/y^q
decomposition), table (no-solution second digits per prime), congr (linear
and power-residue congruences) and expand (carry terms of a digit power).
classify and table import the representation module, and expand the
multinomial one, when they run: check and root never load them.

Exit codes: 0 for any computed result, including unsolvable verdicts and
empty congruence solution sets; 2 for unusable input, including every
request that _admit refuses before any work; 3 when internal cross-checks
disagree, which indicates a bug rather than bad input.
"""

import argparse
import math
import sys
from functools import lru_cache
from itertools import accumulate

# the C string escaper json.encoder re-exports, without loading json
from _json import encode_basestring_ascii as _quote

from .congruence import (
    LIST_CAP,
    euler_phi,
    int_valuation,
    power_residue_solve,
    solve_linear,
)
from .padic_core import PAdic, _check_digits, _require_prime, parse_value
from .roots import LiftContradictionError, decide, root_count, solve

PRECISION_CAP = 10_000
# root prints d * precision digits for its d = root_count(p, q) roots; a
# request for more than this many is refused before any work
ROOT_DIGIT_BUDGET = 10**5
# root and classify: the most bit^2 a lift takes, at bits^2 per product (the
# schoolbook reduction CPython runs at these sizes); see _admit
LIFT_WORK_BUDGET = 4 * 10**11


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicroots",
        description="solvability, roots and unit decompositions of x^q = a "
        "over the p-adic numbers",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    lift_rules = (
        f" A p with isqrt(p) above {LIST_CAP}, or a lift of more than "
        f"{LIFT_WORK_BUDGET:.0e} bit^2 (d * bitlen(q) products at (precision "
        "+ v_p(q)) * bitlen(p-1) bits), exits 2 before any work."
    )

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="prime p of Q_p")
        sp.add_argument("--q", type=int, required=True, help="exponent q")
        sp.add_argument(
            "--val",
            required=True,
            help="target value: rational 'n/d' or explicit 'g;d0,d1,...'",
        )
        sp.add_argument(
            "--precision",
            type=int,
            default=16,
            help="unit digits to carry (default 16)",
        )

    common(sub.add_parser("check", help="decide solvability of x^q = val"))
    common(
        sub.add_parser(
            "root",
            help="construct all roots of x^q = val",
            description="Construct all roots of x^q = val. The d roots, "
            "d = gcd(q, p-1) (gcd(q, 2) at p = 2), print d * precision "
            f"digits; a request for more than {ROOT_DIGIT_BUDGET} exits 2 "
            "before any work." + lift_rules,
        )
    )
    about = "decompose val as eps * p^j * y^q"
    common(sub.add_parser("classify", help=about, description=about + "." + lift_rules))

    table = sub.add_parser(
        "table",
        help="second digits j with no unit solving d0^p = d0 + j*p mod p^2",
        description="List, for each odd prime p <= p-max, the second digits j "
        "with no unit solving d0^p = d0 + j*p mod p^2. Structured output also "
        "lists each row's epsilon classes, 1 + |row|*(p-1) integers; a table "
        f"of more than {LIST_CAP} exits 2.",
    )
    table.add_argument("--p-max", type=int, default=41, dest="p_max")

    congr = sub.add_parser(
        "congr",
        help="congruence solvers",
        description="Solve a*x = b (mod n) or x^n = a (mod m) and list every "
        f"solution. A congruence that may have more than {LIST_CAP} "
        "solutions exits 2: linear when gcd(a, n) divides b and exceeds the "
        "bound, pow-residue when gcd(n, phi(m)) does, or when isqrt(m), the "
        f"largest trial divisor that factors m, is above {LIST_CAP}.",
    )
    congr.add_argument("which", choices=("linear", "pow-residue"))
    congr.add_argument("--a", type=int, required=True)
    congr.add_argument("--b", type=int, help="linear: right-hand side")
    congr.add_argument(
        "--n", type=int, required=True, help="linear: modulus; pow-residue: exponent"
    )
    congr.add_argument("--m", type=int, help="pow-residue: modulus")

    expand = sub.add_parser(
        "expand",
        help="terms making up the p^k coefficient of a digit power",
        description="List the terms of N_k, the p^k coefficient of "
        "(d0 + d1*p + ...)^q less q*d0^(q-1)*d_k, each with its k exponents. "
        f"A request whose terms list more than {LIST_CAP} exponents exits 2 "
        "before any term is built.",
    )
    expand.add_argument("--p", type=int, required=True)
    expand.add_argument("--q", type=int, required=True)
    expand.add_argument(
        "--digits", required=True, help="comma separated digits d0,d1,..."
    )
    expand.add_argument("--k", type=int, required=True)

    for sp in sub.choices.values():
        sp.allow_abbrev = False  # --prec is not --precision
        sp.add_argument(
            "--format",
            choices=("plain", "structured"),
            default="plain",
            help="plain text or JSON",
        )
    return ap


_PARSER = build_parser()


class _Runs(list):
    """A list of positive ints held as runs: a list of ranges of step 1,
    the first of them not empty, whose concatenation is the list (every
    _Runs a command builds starts with the run [1]).  Not a tuple: CPython
    3.11 frees a tuple of 20 items to a free list that no later tuple is
    taken from, and it stays there until a full collection (a table row
    with 19 j's has 20 runs)."""


# A run's ints are written from block text.  From 1000 up,
# n = 1000*P + r is str(P) then r in three digits, so the ints of block P,
# each followed by the separator, are one template with str(P) put in for
# every "@".  The last 256 blocks used are kept, of 1000 * (8 + len(sep))
# characters each at a table row's depth (18 KB); the largest table under
# LIST_CAP touches 125.


@lru_cache(maxsize=8)
def _run_template(sep: str) -> str:
    return "".join([f"@{r:03d}{sep}" for r in range(1000)])


@lru_cache(maxsize=256)
def _run_block(sep: str, block: int) -> tuple[str, list[int] | range]:
    """The ints 1000*block .. 1000*block + 999, each followed by sep, and
    where each one starts in that text (1001 offsets, the last its length):
    a list for block 0, whose ints differ in width, a range for the rest."""
    if block:
        text = _run_template(sep).replace("@", str(block))
        return text, range(0, len(text) + 1, len(text) // 1000)
    parts = [f"{n}{sep}" for n in range(1000)]
    return "".join(parts), list(accumulate(map(len, parts), initial=0))


def _runs_text(runs, sep: str, out: list) -> None:
    """Append to out the ints of the runs, each followed by sep: one slice
    of block text per block a run touches."""
    for r in runs:
        a, b = r.start, r.stop
        while a < b:
            block, lo = divmod(a, 1000)
            hi = min(b - 1000 * block, 1000)
            text, at = _run_block(sep, block)
            out.append(text[at[lo] : at[hi]])
            a += hi - lo


class _Terms(tuple):
    """A list of N_k terms held as (exponents, coefficient, value) triples:
    the exponents as nk_walk's text "m_0,...,m_{k-1}", of the same k >= 2
    in every term (expand lists terms only for k >= 2), and the others
    plain ints; written as the list of {"exponents": [...], "coefficient":
    c, "value": v}."""


def _json(x) -> str:
    """x as JSON, byte for byte as json.dumps(x, indent=2) writes it, for
    the types the commands emit: dict with str keys, list and tuple (both
    written as arrays), _Runs, _Terms, str, int, bool and None.  _write
    puts the text in one list, joined once, so no part of the answer is
    copied once per nesting level."""
    out: list[str] = []
    _write(x, "\n", out)
    return "".join(out)


def _write(x, indent: str, out: list) -> None:
    """Append the JSON text of x, at the nesting whose newline and
    indentation is indent, to out.  Strings go through the stdlib's C
    escaper; a list or tuple of plain ints (no bools) is written by one
    format, a tuple with no copy of it; each term of a _Terms (k >= 2
    exponents) by one format over its exponent text with the commas
    widened, and a _Runs (positive ints, the first run not empty) from
    block text (_runs_text)."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif x is None:
        out.append("null")
    elif t is bool:
        out.append("true" if x else "false")
    elif t not in (list, tuple, _Runs, _Terms, dict):
        raise TypeError(f"cannot write {t.__name__} as JSON")
    elif not x:
        out.append("{}" if t is dict else "[]")
    else:
        inner = indent + "  "
        sep = "," + inner
        if t is dict:
            out.append("{" + inner)
            for k, v in x.items():
                out.append(_quote(k) + ": ")
                _write(v, inner, out)
                out.append(sep)
            out[-1] = indent + "}"
            return
        out.append("[" + inner)
        if t is _Runs:
            _runs_text(x, sep, out)
            out[-1] = out[-1][: -len(sep)]
        elif t is _Terms:
            key = inner + "  "  # a term's keys
            deep = key + "  "  # its exponents
            term = (
                f'{{{key}"exponents": [{deep}%s{key}],'
                f'{key}"coefficient": %d,{key}"value": %d{inner}}}'
            )
            wide = "," + deep
            out.append(sep.join([term % (e.replace(",", wide), c, v) for e, c, v in x]))
        elif set(map(type, x)) == {int}:
            # tuple() of a tuple is the tuple itself
            out.append(sep.join(["%d"] * len(x)) % tuple(x))
        else:
            for v in x:
                _write(v, inner, out)
                out.append(sep)
            out.pop()
        out.append(indent + "]")


def _emit(args, plain_lines, payload) -> str:
    if args.format == "structured":
        return _json(payload)
    return "\n".join(plain_lines)


def _admit(args) -> None:
    """Refuse a malformed request, or one over a bound, before any work: one
    rule per command (README, Bounds), called once by main.  The one bound
    checked later is structured table's entry count, which needs the rows.
    expand's digit list is parsed here, once, into args.digits."""
    cmd = args.command
    if cmd in ("check", "root", "classify"):
        if args.q < 2:
            raise ValueError("exponent q must be at least 2")
        _require_prime(args.p)
        if not 1 <= args.precision <= PRECISION_CAP:
            raise ValueError(f"precision must be in [1, {PRECISION_CAP}]")
        if cmd == "check":
            return
        d = root_count(args.p, args.q)
        if cmd == "root" and d * args.precision > ROOT_DIGIT_BUDGET:
            raise ValueError(
                f"{d} roots at precision {args.precision} are "
                f"{d * args.precision} digits, more than the "
                f"{ROOT_DIGIT_BUDGET} root prints"
            )
        _admit_steps("p", args.p, cmd)
        # d roots checked by powers of bitlen(q) products, at this many bits
        c = int_valuation(args.q, args.p)  # the lift reads c digits more
        bits = (args.precision + c) * (args.p - 1).bit_length()
        if (work := d * args.q.bit_length() * bits**2) > LIFT_WORK_BUDGET:
            raise ValueError(
                f"{d} roots of {bits} bits and {args.q.bit_length()}-bit powers are "
                f"{work:.2e} bit^2 of lift work, more than the {LIFT_WORK_BUDGET:.0e} "
                f"{cmd} takes"
            )
    elif cmd == "table":
        from .representation import _check_table_bound

        if args.p_max < 3:
            raise ValueError("--p-max must be at least 3")
        _check_table_bound(args.p_max)
    elif cmd == "congr" and args.which == "linear":
        if args.b is None:
            raise ValueError("linear congruence needs --b")
        if args.n != 0:  # solve_linear names a zero modulus
            g = math.gcd(args.a % args.n, args.n)
            if g > LIST_CAP and args.b % g == 0:
                raise ValueError(f"{g} solutions, more than the {LIST_CAP} congr lists")
    elif cmd == "congr":
        if args.m is None:
            raise ValueError("power residue congruence needs --m")
        _admit_steps("m", args.m, cmd)
        # gcd(n, phi(m)) bounds the count; it can pass the cap only when n does
        if args.n > LIST_CAP and args.m >= 2:
            d = math.gcd(args.n, euler_phi(args.m))
            if d > LIST_CAP:
                raise ValueError(
                    f"up to {d} solutions, more than the {LIST_CAP} congr lists"
                )
    else:
        from .multinomial import nk_term_count

        _require_prime(args.p)
        if args.q < 1 or args.k < 1:
            raise ValueError("q and k must be at least 1")
        try:
            digits = [int(x) for x in args.digits.split(",")]
        except ValueError:
            raise ValueError(f"malformed digit list {args.digits!r}") from None
        _check_digits(digits, args.p)
        # every integer printed (terms, N_k, lead, coefficients summing to k^q)
        # is at most base^q, of q * log10(base) digits: an exact product, as q
        # may be past the float range
        base = max(args.k, sum(digits[: args.k + 1]))
        size = (args.q * int(math.log10(base) * 2**64) >> 64) + 1
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if size > limit:
            raise ValueError(
                f"integers up to {base}^{args.q} ({size} digits) exceed the "
                f"{limit}-digit limit"
            )
        # every term lists k exponents: count the terms before building any
        count = nk_term_count(args.q, args.k, LIST_CAP // args.k)
        if count and args.k > LIST_CAP:
            raise ValueError(
                f"one term of N_{args.k} lists {args.k} exponents, more than the "
                f"{LIST_CAP} expand lists"
            )
        if count * args.k > LIST_CAP:
            raise ValueError(
                f"N_{args.k} has more than {LIST_CAP // args.k} terms of {args.k} "
                f"exponents each, more than the {LIST_CAP} expand lists"
            )
        args.digits = digits


def _admit_steps(name: str, n: int, cmd: str) -> None:
    """Refuse a modulus n whose unit group needs trial divisors past
    LIST_CAP: factoring n, and for a prime n also n - 1, tries them up to
    isqrt(n)."""
    if n > 0 and math.isqrt(n) > LIST_CAP:
        steps = f"{name} = {n} takes trial divisors up to {math.isqrt(n)}"
        raise ValueError(f"{steps}, more than the {LIST_CAP} {cmd} takes")


def _parse_equation(args) -> PAdic:
    """The value of x^q = val, read to precision + v_p(q) digits: the lift
    reads v_p(q) digits beyond those of the roots."""
    extra_digits = int_valuation(args.q, args.p)
    a = parse_value(args.val, args.p, args.precision + extra_digits)
    if a.is_zero:
        raise ValueError("zero target: x^q = 0 has only the zero root")
    return a


def _equation_payload(args, value: str, **rest) -> dict:
    """The structured output of check, root and classify: the equation and
    its parsed value, then rest in order."""
    return dict(
        command=args.command, p=args.p, q=args.q, input=args.val, value=value, **rest
    )


def _verdict_report(args, a: PAdic, verdict) -> tuple[list[str], dict]:
    """The plain lines and the payload head that check and root share."""
    value = str(a)
    lines = [
        f"equation: x^{args.q} = {args.val} in Q_{args.p}",
        f"value: {value}",
        f"verdict: {'solvable' if verdict.solvable else 'unsolvable'}",
        f"case: {verdict.case_used}",
    ]
    if verdict.failed_condition:
        lines.append(f"failed: {verdict.failed_condition}")
    if verdict.details:
        lines.append(f"details: {verdict.details}")
    return lines, _equation_payload(
        args, value, precision=args.precision, verdict=verdict._asdict()
    )


def cmd_check(args) -> str:
    a = _parse_equation(args)
    lines, payload = _verdict_report(args, a, decide(a, args.q))
    return _emit(args, lines, payload)


def cmd_root(args) -> str:
    a = _parse_equation(args)
    verdict, roots = solve(a, args.q, args.precision)
    lines, payload = _verdict_report(args, a, verdict)
    if roots is None:
        lines.append("roots (0):")
        payload.update(roots=[], expected_count=None, observed_count=0)
        return _emit(args, lines, payload)
    modulus = f"{args.p}^{roots.verify_k}"
    rendered = [str(r) for r in roots.roots]
    lines.append(f"expected_count: {roots.expected_count}")
    lines.append(f"roots ({roots.observed_count}):")
    lines += [f"  {r}" for r in rendered]
    lines.append(
        f"self-check: r^{args.q} = a (mod {modulus}) "
        f"for all {roots.observed_count} root(s): ok"
    )
    payload.update(
        roots=rendered,
        expected_count=roots.expected_count,
        observed_count=roots.observed_count,
        self_check_modulus=modulus,
    )
    return _emit(args, lines, payload)


def cmd_classify(args) -> str:
    from .representation import classify

    a = _parse_equation(args)
    dec = classify(a, args.q)
    recomposed = dec.recompose()
    check_k = a.gamma + min(a.precision, recomposed.precision)
    ok = recomposed.eq_mod(a, check_k)
    if not ok:
        raise LiftContradictionError("decomposition failed to recompose")
    value, epsilon, y = str(a), str(dec.epsilon), str(dec.y)
    eta = str(dec.eta) if dec.eta is not None else None
    lines = [
        f"value: {value} in Q_{args.p} (q={args.q})",
        f"form: {dec.form}",
        f"epsilon: {dec.epsilon_int if dec.epsilon_int is not None else epsilon}",
        f"delta: {args.p}^{dec.delta_exponent}",
        f"y: {y}",
    ]
    if eta is not None:
        lines.append(f"eta: {eta} (epsilon = eta^{dec.eta_exponent})")
    lines.append(
        f"check: epsilon * {args.p}^{dec.delta_exponent} * y^{args.q} "
        f"= value (mod {args.p}^{check_k}): ok"
    )
    payload = _equation_payload(
        args,
        value,
        form=dec.form,
        epsilon=epsilon,
        epsilon_int=dec.epsilon_int,
        delta_exponent=dec.delta_exponent,
        y=y,
        eta=eta,
        eta_exponent=dec.eta_exponent,
        check_modulus=f"{args.p}^{check_k}",
        check_ok=True,
    )
    return _emit(args, lines, payload)


def cmd_table(args) -> str:
    from .representation import _epsilon_runs, j_no_solution_table

    table = j_no_solution_table(args.p_max)
    if args.format == "plain":  # plain output never shows the epsilon sets
        return "\n".join(
            f"p={p}: " + ", ".join(map(str, js)) for p, js in table.items()
        )
    entries = sum(1 + len(js) * (p - 1) for p, js in table.items())
    if entries > LIST_CAP:
        raise ValueError(
            f"{entries} epsilon entries, more than the {LIST_CAP} table lists"
        )
    rows = [
        {"p": p, "j_no_solution": js, "epsilon_derived": _Runs(_epsilon_runs(p, js))}
        for p, js in table.items()
    ]
    return _json({"command": "table", "p_max": args.p_max, "rows": rows})


def cmd_congr(args) -> str:
    if args.which == "linear":
        sol = solve_linear(args.a, args.b, args.n)
        desc = f"{args.a}*x = {args.b} (mod {args.n})"
        payload = {
            "command": "congr",
            "which": "linear",
            "a": args.a,
            "b": args.b,
            "n": args.n,
        }
    else:
        sol = power_residue_solve(args.n, args.a, args.m)
        desc = f"x^{args.n} = {args.a} (mod {args.m})"
        payload = {
            "command": "congr",
            "which": "pow-residue",
            "m": args.m,
            "n": args.n,
            "a": args.a,
        }
    lines = [
        f"congruence: {desc}",
        f"solvable: {'yes' if sol.solvable else 'no'}",
        f"solutions mod {sol.modulus}: "
        + (", ".join(map(str, sol.representatives)) if sol.solvable else "none"),
        f"count: {sol.count}",
    ]
    payload.update(
        {
            "modulus": sol.modulus,
            "representatives": sol.representatives,
            "count": sol.count,
        }
    )
    return _emit(args, lines, payload)


def cmd_expand(args) -> str:
    from .multinomial import nk_walk

    digits = args.digits  # parsed and checked by _admit
    d_k = digits[args.k] if args.k < len(digits) else 0
    lead = args.q * digits[0] ** (args.q - 1) * d_k
    # with no terms (q = 1 or k = 1) any k is admitted: pad no digits to it
    terms = []
    if args.q > 1 and args.k > 1:
        terms = nk_walk(args.q, args.k, digits + [0] * (args.k - len(digits)))
    nk = sum(value for _, _, value in terms)
    if args.format == "structured":
        payload = {
            "command": "expand",
            "p": args.p,
            "q": args.q,
            "k": args.k,
            "digits": digits,
            "terms": _Terms(terms),
            "n_k": nk,
            "leading_term": lead,
            "coefficient_total": lead + nk,
        }
        return _json(payload)
    lines = [
        f"exponent q={args.q}, prime p={args.p}, digit position k={args.k}, "
        f"digits: {','.join(map(str, digits))}",
        f"leading term q*d0^(q-1)*d_k = {lead}",
        f"N_{args.k} terms (m_0,...,m_{args.k - 1}):",
    ]
    if terms:
        lines += [f"  ({e})  coeff {c}  value {v}" for e, c, v in terms]
    else:
        lines.append("  (none)")
    lines.append(f"N_{args.k} = {nk}")
    lines.append(f"coefficient of p^{args.k} = {lead + nk}")
    return "\n".join(lines)


_DISPATCH = {
    "check": cmd_check,
    "root": cmd_root,
    "classify": cmd_classify,
    "table": cmd_table,
    "congr": cmd_congr,
    "expand": cmd_expand,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _admit(args)
        out = _DISPATCH[args.command](args)
    except LiftContradictionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(out)
    return 0
