"""Command line front end.

Subcommands map onto the library one-to-one: check (verdict only), root
(verdict plus digit expansion of every root), classify (epsilon/delta/y^q
decomposition), table (no-solution second digits per prime), congr (linear
and power-residue congruences) and expand (carry terms of a digit power).

Exit codes: 0 for any computed result, including unsolvable verdicts and
empty congruence solution sets; 2 for unusable input; 3 when internal
cross-checks disagree, which indicates a bug rather than bad input.
"""

import argparse
import json
import sys

from .congruence import (
    int_valuation,
    is_prime,
    power_residue_solve,
    solve_linear,
)
from .multinomial import nk_terms
from .padic_core import PAdic, parse_value
from .representation import (
    classify_coprime,
    classify_p,
    derived_epsilon_set,
    j_no_solution_table,
)
from .roots import LiftContradictionError, decide, solve

PRECISION_CAP = 10_000


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
    common(sub.add_parser("root", help="construct all roots of x^q = val"))
    common(sub.add_parser("classify", help="decompose val as eps * p^j * y^q"))

    table = sub.add_parser(
        "table", help="second digits j with no unit solving d0^p = d0 + j*p mod p^2"
    )
    table.add_argument("--p-max", type=int, default=41, dest="p_max")

    congr = sub.add_parser("congr", help="congruence solvers")
    congr.add_argument("which", choices=("linear", "pow-residue"))
    congr.add_argument("--a", type=int, required=True)
    congr.add_argument("--b", type=int, help="linear: right-hand side")
    congr.add_argument(
        "--n", type=int, required=True, help="linear: modulus; pow-residue: exponent"
    )
    congr.add_argument("--m", type=int, help="pow-residue: modulus")

    expand = sub.add_parser(
        "expand", help="terms making up the p^k coefficient of a digit power"
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


def _emit(args, plain_lines, payload) -> str:
    if args.format == "structured":
        return json.dumps(payload, indent=2)
    return "\n".join(plain_lines)


def _parse_equation(args) -> PAdic:
    """The value of x^q = val, read to precision + v_p(q) digits: the lift
    reads v_p(q) digits beyond those of the roots."""
    if args.q < 2:
        raise ValueError("exponent q must be at least 2")
    if not is_prime(args.p):
        raise ValueError(f"p must be prime, got {args.p}")
    if not 1 <= args.precision <= PRECISION_CAP:
        raise ValueError(f"precision must be in [1, {PRECISION_CAP}]")
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
        # the Verdict fields in order; asdict would deep-copy each one
        "verdict": dict(vars(verdict)),
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
    a = _parse_equation(args)
    if args.q == args.p:
        dec = classify_p(a)
    elif args.q < args.p:
        dec = classify_coprime(a, args.q)
    else:
        raise ValueError(
            f"classify needs q = p or prime q < p, got q={args.q}, p={args.p}"
        )
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
    if args.p_max < 3:
        raise ValueError("--p-max must be at least 3")
    table = j_no_solution_table(args.p_max)
    lines = [f"p={p}: " + ", ".join(str(j) for j in js) for p, js in table.items()]
    rows = []
    if args.format == "structured":  # plain output never shows the epsilon sets
        rows = [
            {
                "p": p,
                "j_no_solution": list(js),
                "epsilon_derived": list(derived_epsilon_set(p)),
            }
            for p, js in table.items()
        ]
    payload = {"command": "table", "p_max": args.p_max, "rows": rows}
    return _emit(args, lines, payload)


def cmd_congr(args) -> str:
    if args.which == "linear":
        if args.b is None:
            raise ValueError("linear congruence needs --b")
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
        + (", ".join(str(x) for x in sol.representatives) if sol.solvable else "none"),
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
    if not is_prime(args.p):
        raise ValueError(f"p must be prime, got {args.p}")
    if args.q < 1 or args.k < 1:
        raise ValueError("q and k must be at least 1")
    try:
        digits = [int(x) for x in args.digits.split(",")]
    except ValueError:
        raise ValueError(f"malformed digit list {args.digits!r}") from None
    for d in digits:
        if not 0 <= d < args.p:
            raise ValueError(f"digit {d} out of range for p={args.p}")
    padded = digits + [0] * max(0, args.k - len(digits) + 1)
    terms = nk_terms(args.q, args.k)
    values = [t.evaluate(padded) for t in terms]
    nk = sum(values)
    lead = args.q * padded[0] ** (args.q - 1) * padded[args.k]
    lines = [
        f"exponent q={args.q}, prime p={args.p}, digit position k={args.k}, "
        f"digits: {','.join(str(d) for d in digits)}",
        f"leading term q*d0^(q-1)*d_k = {lead}",
        f"N_{args.k} terms (m_0,...,m_{args.k - 1}):",
    ]
    term_payload = []
    for t, val in zip(terms, values):
        lines.append(
            f"  ({','.join(str(m) for m in t.exponents)})  "
            f"coeff {t.coefficient}  value {val}"
        )
        term_payload.append(
            {
                "exponents": list(t.exponents),
                "coefficient": t.coefficient,
                "value": val,
            }
        )
    if not terms:
        lines.append("  (none)")
    lines.append(f"N_{args.k} = {nk}")
    lines.append(f"coefficient of p^{args.k} = {lead + nk}")
    payload = {
        "command": "expand",
        "p": args.p,
        "q": args.q,
        "k": args.k,
        "digits": digits,
        "terms": term_payload,
        "n_k": nk,
        "leading_term": lead,
        "coefficient_total": lead + nk,
    }
    return _emit(args, lines, payload)


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
