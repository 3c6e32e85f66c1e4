"""Command line front end.

Subcommands map onto the library one-to-one: check (verdict only), root
(verdict plus digit expansion of every root), classify (epsilon/delta/y^q
decomposition), table (no-solution second digits per prime), congr (linear
and power-residue congruences) and expand (carry terms of a digit power).
classify and table import the representation module, and expand the
multinomial one, when they run: check and root never load them.

Exit codes: 0 for any computed result, including unsolvable verdicts and
empty congruence solution sets; 2 for unusable input; 3 when internal
cross-checks disagree, which indicates a bug rather than bad input.
"""

import argparse
import math
import sys

# the C string escaper json.encoder re-exports, without loading json
from _json import encode_basestring_ascii as _quote

from .congruence import (
    euler_phi,
    int_valuation,
    power_residue_solve,
    solve_linear,
)
from .padic_core import PAdic, _require_prime, parse_value
from .roots import LiftContradictionError, decide, root_count, solve

PRECISION_CAP = 10_000
# root prints d * precision digits for its d = root_count(p, q) roots; a
# request for more than this many is refused before any work
ROOT_DIGIT_BUDGET = 10**5
# the most integers one request lists: congr refuses a congruence that may
# have more solutions and expand terms with more exponents before any work,
# structured table more epsilon entries once its rows are known
LIST_CAP = 10**6


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicroots",
        description="solvability, roots and unit decompositions of x^q = a "
        "over the p-adic numbers",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

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
            "before any work.",
        )
    )
    common(sub.add_parser("classify", help="decompose val as eps * p^j * y^q"))

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
        "bound, pow-residue when gcd(n, phi(m)) does.",
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
        sp.add_argument(
            "--format",
            choices=("plain", "structured"),
            default="plain",
            help="plain text or JSON",
        )
    return ap


_PARSER = build_parser()


class _Runs(tuple):
    """A list of ints held as runs: a tuple of ranges of step 1, whose
    concatenation is the list."""


def _json(x, indent: str = "\n") -> str:
    """x as JSON, byte for byte as json.dumps(x, indent=2) writes it, for
    the types the commands emit: dict with str keys, list, _Runs, str, int,
    bool and None.  Strings go through the stdlib's C escaper, and a list of
    plain ints (no bools), or each run of a _Runs, is written by one
    format."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    inner = indent + "  "
    sep = "," + inner
    if t is list:
        if not x:
            return "[]"
        if set(map(type, x)) == {int}:
            body = sep.join(["%d"] * len(x)) % tuple(x)
        else:
            body = sep.join([_json(v, inner) for v in x])
        return f"[{inner}{body}{indent}]"
    if t is _Runs:
        body = sep.join([sep.join(["%d"] * len(r)) % tuple(r) for r in x if r])
        return f"[{inner}{body}{indent}]" if body else "[]"
    if t is dict:
        if not x:
            return "{}"
        body = sep.join([_quote(k) + ": " + _json(v, inner) for k, v in x.items()])
        return f"{{{inner}{body}{indent}}}"
    raise TypeError(f"cannot write {t.__name__} as JSON")


def _emit(args, plain_lines, payload) -> str:
    if args.format == "structured":
        return _json(payload)
    return "\n".join(plain_lines)


def _parse_equation(args) -> PAdic:
    """The value of x^q = val, read to precision + v_p(q) digits: the lift
    reads v_p(q) digits beyond those of the roots."""
    if args.q < 2:
        raise ValueError("exponent q must be at least 2")
    _require_prime(args.p)
    if not 1 <= args.precision <= PRECISION_CAP:
        raise ValueError(f"precision must be in [1, {PRECISION_CAP}]")
    if args.command == "root":
        d = root_count(args.p, args.q)
        if d * args.precision > ROOT_DIGIT_BUDGET:
            raise ValueError(
                f"{d} roots at precision {args.precision} are "
                f"{d * args.precision} digits, more than the "
                f"{ROOT_DIGIT_BUDGET} root prints"
            )
    extra_digits = int_valuation(args.q, args.p)
    a = parse_value(args.val, args.p, args.precision + extra_digits)
    if a.is_zero:
        raise ValueError("zero target: x^q = 0 has only the zero root")
    return a


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
    payload = {
        "command": args.command,
        "p": args.p,
        "q": args.q,
        "input": args.val,
        "value": value,
        "precision": args.precision,
        "verdict": verdict._asdict(),
    }
    return lines, payload


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
    payload = {
        "command": "classify",
        "p": args.p,
        "q": args.q,
        "input": args.val,
        "value": value,
        "form": dec.form,
        "epsilon": epsilon,
        "epsilon_int": dec.epsilon_int,
        "delta_exponent": dec.delta_exponent,
        "y": y,
        "eta": eta,
        "eta_exponent": dec.eta_exponent,
        "check_modulus": f"{args.p}^{check_k}",
        "check_ok": True,
    }
    return _emit(args, lines, payload)


def cmd_table(args) -> str:
    from .representation import _epsilon_runs, j_no_solution_table

    if args.p_max < 3:
        raise ValueError("--p-max must be at least 3")
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
        {
            "p": p,
            "j_no_solution": list(js),
            "epsilon_derived": _Runs(_epsilon_runs(p, js)),
        }
        for p, js in table.items()
    ]
    return _json({"command": "table", "p_max": args.p_max, "rows": rows})


def cmd_congr(args) -> str:
    if args.which == "linear":
        if args.b is None:
            raise ValueError("linear congruence needs --b")
        if args.n != 0:  # solve_linear names a zero modulus
            g = math.gcd(args.a % args.n, args.n)
            if g > LIST_CAP and args.b % g == 0:
                raise ValueError(f"{g} solutions, more than the {LIST_CAP} congr lists")
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
        if args.m is None:
            raise ValueError("power residue congruence needs --m")
        # gcd(n, phi(m)) bounds the count; it can pass the cap only when n does
        if args.n > LIST_CAP and args.m >= 2:
            d = math.gcd(args.n, euler_phi(args.m))
            if d > LIST_CAP:
                raise ValueError(
                    f"up to {d} solutions, more than the {LIST_CAP} congr lists"
                )
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
            "representatives": list(sol.representatives),
            "count": sol.count,
        }
    )
    return _emit(args, lines, payload)


def cmd_expand(args) -> str:
    from .multinomial import nk_term_count, nk_walk

    _require_prime(args.p)
    if args.q < 1 or args.k < 1:
        raise ValueError("q and k must be at least 1")
    try:
        digits = [int(x) for x in args.digits.split(",")]
    except ValueError:
        raise ValueError(f"malformed digit list {args.digits!r}") from None
    for d in digits:
        if not 0 <= d < args.p:
            raise ValueError(f"digit {d} out of range for p={args.p}")
    # every integer printed (the terms, N_k, the lead, and the coefficients,
    # which sum to k^q) is at most base^q; its digit count comes from a log,
    # so nothing is raised to the q-th power before the request is admitted
    base = max(args.k, sum(digits[: args.k + 1]))
    size = int(args.q * math.log10(base)) + 1
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if size > limit:
        raise ValueError(
            f"integers up to {base}^{args.q} ({size} digits) exceed the "
            f"{limit}-digit limit"
        )
    # every term lists k exponents: count the terms before building any
    count = nk_term_count(args.q, args.k, LIST_CAP // args.k)
    if count * args.k > LIST_CAP:
        raise ValueError(
            f"N_{args.k} has more than {LIST_CAP // args.k} terms of {args.k} "
            f"exponents each, more than the {LIST_CAP} expand lists"
        )
    d_k = digits[args.k] if args.k < len(digits) else 0
    lead = args.q * digits[0] ** (args.q - 1) * d_k
    # with no terms (q = 1 or k = 1) any k is admitted: pad no digits to it
    terms = []
    if count:
        terms = nk_walk(args.q, args.k, digits + [0] * (args.k - len(digits)))
    nk = sum(value for _, _, value in terms)
    if args.format == "structured":
        payload = {
            "command": "expand",
            "p": args.p,
            "q": args.q,
            "k": args.k,
            "digits": digits,
            "terms": [
                {"exponents": list(e), "coefficient": c, "value": value}
                for e, c, value in terms
            ],
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
        row = ",".join(["%d"] * args.k)  # one format writes a term's exponents
        lines += [f"  ({row % e})  coeff {c}  value {value}" for e, c, value in terms]
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
        out = _DISPATCH[args.command](args)
    except LiftContradictionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(out)
    return 0
