"""Output checks that never import the program.

Each check recomputes what an answer must satisfy from the request alone,
with plain integer arithmetic and sympy's number theory, and compares the
program's printed output against it.  `check_output(argv, out)` returns
None for a correct answer and a one-line reason otherwise.
"""

import json
import math

from sympy import is_primitive_root, primerange, totient
from sympy.ntheory import is_nthpow_residue


class Wrong(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Wrong(msg)


def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def args_of(argv):
    """{'cmd': ..., 'which': ..., 'p': ..., ...} from a generated argv."""
    out = {"cmd": argv[0], "format": "plain"}
    i = 1
    if argv[0] == "congr":
        out["which"] = argv[1]
        i = 2
    while i < len(argv):
        key, eq, value = argv[i].partition("=")
        if not eq:
            i += 1
            value = argv[i]
        out[key.lstrip("-").replace("-", "_")] = value
        i += 1
    return out


# ----------------------------------------------------------------------
# p-adic values as (gamma, unit residue, digit count)


def expand_input(text: str, p: int, n: int):
    """(gamma, unit mod p^n) of a rational 'a/b' or a literal 'g;d0,...'."""
    if ";" in text:
        head, _, tail = text.partition(";")
        digits = [int(d) for d in tail.split(",")]
        value = sum(d * p**i for i, d in enumerate(digits))
        gamma = int(head) + vp(value, p)
        return gamma, (value // p ** vp(value, p)) % p**n
    num, _, den = text.partition("/")
    num, den = int(num), int(den or 1)
    vn, vd = vp(num, p), vp(den, p)
    mod = p**n
    return vn - vd, (num // p**vn) * pow(den // p**vd, -1, mod) % mod


def parse_padic(text: str, p: int):
    """(gamma, unit, digit count) of a printed 'g;d0,d1,...'."""
    head, sep, tail = text.strip().partition(";")
    expect(sep == ";", f"not a p-adic expansion: {text[:40]!r}")
    digits = [int(d) for d in tail.split(",")]
    expect(all(0 <= d < p for d in digits), "digit out of range")
    expect(digits[0] != 0, "leading digit is zero")
    return int(head), sum(d * p**i for i, d in enumerate(digits)), len(digits)


def render_padic(gamma: int, unit: int, p: int, n: int) -> str:
    digits = []
    for _ in range(n):
        unit, d = divmod(unit, p)
        digits.append(str(d))
    return f"{gamma};" + ",".join(digits)


def is_qth_power(gamma: int, unit: int, p: int, q: int) -> bool:
    """Hensel: a unit is a q-th power in Z_p exactly when it is one mod
    p^(2c+1), c = v_p(q)."""
    m = p ** (2 * vp(q, p) + 1)
    return gamma % q == 0 and bool(is_nthpow_residue(unit % m, q, m))


def roots_of_unity(p: int, q: int) -> int:
    if p == 2:
        return 2 if q % 2 == 0 else 1
    return math.gcd(q, p - 1)


def case_of(p: int, q: int) -> str:
    if q == 2:
        return "square"
    if math.gcd(q, p) == 1:
        return "coprime"
    if q == p:
        return "q_equals_p"
    return "general_chain"


def field(lines, key):
    for line in lines:
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    raise Wrong(f"missing line {key!r}")


# ----------------------------------------------------------------------
# per-command checks


def _target(a):
    p, q, n = int(a["p"]), int(a["q"]), int(a.get("precision", 16))
    return p, q, n


def _check_head(a, lines, p, q, n_digits):
    gamma, unit = expand_input(a["val"], p, n_digits)
    expect(lines[0] == f"equation: x^{q} = {a['val']} in Q_{p}", "equation line")
    expect(field(lines, "value") == render_padic(gamma, unit, p, n_digits), "value digits")
    expect(field(lines, "case") == case_of(p, q), "case label")
    solvable = is_qth_power(gamma, unit, p, q)
    verdict = field(lines, "verdict")
    expect(verdict == ("solvable" if solvable else "unsolvable"), f"verdict {verdict}")
    return gamma, unit, solvable


def check_check(a, out):
    p, q, n = _target(a)
    _check_head(a, out.splitlines(), p, q, n + vp(q, p))


def check_root(a, out):
    p, q, n = _target(a)
    c = vp(q, p)
    lines = out.splitlines()
    gamma, unit, solvable = _check_head(a, lines, p, q, n + c)
    start = next(i for i, line in enumerate(lines) if line.startswith("roots ("))
    if not solvable:
        expect(lines[start:] == ["roots (0):"], "roots of an unsolvable equation")
        return
    roots = [line.strip() for line in lines[start + 1:-1]]
    expect(lines[start] == f"roots ({len(roots)}):", "root count line")
    expect(lines[-1].startswith("self-check: ") and lines[-1].endswith(": ok"), "self-check line")
    expect(len(roots) == roots_of_unity(p, q), f"{len(roots)} roots, want {roots_of_unity(p, q)}")
    expect(len(set(roots)) == len(roots), "repeated root")
    mod = p ** (n + c)
    for text in roots:
        g, u, k = parse_padic(text, p)
        expect(k == n, f"root carries {k} digits, want {n}")
        expect(g * q == gamma, "root valuation")
        expect(pow(u, q, mod) == unit % mod, "r^q != a")


def check_classify(a, out):
    p, q, n = _target(a)
    n_val = n + (1 if q == p else 0)
    lines = out.splitlines()
    gamma, unit = expand_input(a["val"], p, n_val)
    expect(lines[0] == f"value: {render_padic(gamma, unit, p, n_val)} in Q_{p} (q={q})", "value line")
    j = int(field(lines, "delta").split("^")[1])
    expect(0 <= j < q and (gamma - j) % q == 0, f"delta exponent {j}")
    gy, y, ky = parse_padic(field(lines, "y"), p)
    expect(ky == n, f"y carries {ky} digits, want {n}")
    eps_text = field(lines, "epsilon")
    if ";" in eps_text:
        ge, eps, _ = parse_padic(eps_text, p)
        expect(ge == 0, "epsilon is not a unit")
        eta_text, _, power = field(lines, "eta").partition(" (epsilon = eta^")
        ga, eta, ka = parse_padic(eta_text, p)
        k = int(power.rstrip(")"))
        expect(ga == 0 and is_primitive_root(eta % p, p), "eta is not a primitive root mod p")
        expect(0 <= k < q and eps % p**ka == pow(eta, k, p**ka), "epsilon != eta^k")
    else:
        eps = int(eps_text)
        if eps != 1:
            d0, d1 = unit % p, unit // p % p
            expect(q == p and eps == d0 + d1 * p, "epsilon is not d0 + d1*p")
            expect(pow(d0, p, p * p) != eps, "epsilon passes the digit test")
    k = min(n_val, n + vp(q, p))
    expect(gy * q + j == gamma, "valuations do not recompose")
    expect(eps * pow(y, q, p**k) % p**k == unit % p**k, "epsilon * p^j * y^q != value")


def _table_rows(p_max):
    rows = {}
    for p in primerange(3, p_max + 1):
        hit = {(pow(d0, p, p * p) - d0) % (p * p) // p for d0 in range(1, p)}
        rows[p] = [j for j in range(p) if j not in hit]
    return rows


def check_table(a, out):
    rows = _table_rows(int(a["p_max"]))
    if a["format"] == "structured":
        got = json.loads(out)["rows"]
        expect([r["p"] for r in got] == list(rows), "table primes")
        for r in got:
            js = rows[r["p"]]
            expect(r["j_no_solution"] == js, f"row p={r['p']}")
            eps = {1} | {i + j * r["p"] for j in js for i in range(1, r["p"])}
            expect(r["epsilon_derived"] == sorted(eps), f"epsilon row p={r['p']}")
        return
    want = [f"p={p}: " + ", ".join(map(str, js)) for p, js in rows.items()]
    expect(out.splitlines() == want, "table rows")


def _congr_answer(a, out):
    if a["format"] == "structured":
        d = json.loads(out)
        return d["representatives"], d["count"], d["modulus"]
    lines = out.splitlines()
    line = next(line for line in lines if line.startswith("solutions mod "))
    head, _, reps = line.removeprefix("solutions mod ").partition(": ")
    got = [] if reps == "none" else [int(x) for x in reps.split(", ")]
    expect(field(lines, "solvable") == ("yes" if got else "no"), "solvable flag")
    return got, int(field(lines, "count")), int(head)


def check_congr(a, out):
    reps, count, modulus = _congr_answer(a, out)
    expect(count == len(reps) and len(set(reps)) == len(reps), "count / repeats")
    if a["which"] == "linear":
        x, b, m = int(a["a"]), int(a["b"]), int(a["n"])
        ok = lambda r: (x * r - b) % m == 0
        g = math.gcd(x, m)
        want = g if b % g == 0 else 0
    else:
        x, e, m = int(a["a"]), int(a["n"]), int(a["m"])
        ok = lambda r: pow(r, e, m) == x % m
        want = math.gcd(e, int(totient(m))) if is_nthpow_residue(x, e, m) else 0
    expect(modulus == m, "modulus")
    expect(all(0 <= r < m and ok(r) for r in reps), "a representative fails")
    expect(count == want, f"count {count}, want {want}")


def _poly_power_coeff(digits, q, k):
    """Coefficient of t^k in (sum d_i t^i)^q, by repeated truncated
    multiplication."""
    base = digits[: k + 1]
    acc = [1] + [0] * k
    for _ in range(q):
        acc = [sum(acc[i] * base[s - i] for i in range(s + 1) if s - i < len(base)) for s in range(k + 1)]
    return acc[k]


def check_expand(a, out):
    q, k = int(a["q"]), int(a["k"])
    digits = [int(d) for d in a["digits"].split(",")]
    digits += [0] * (k + 1 - len(digits))
    total = _poly_power_coeff(digits, q, k)
    lead = q * digits[0] ** (q - 1) * digits[k]
    if a["format"] == "structured":
        d = json.loads(out)
        terms = [(tuple(t["exponents"]), t["coefficient"], t["value"]) for t in d["terms"]]
        nk, got_lead, got_total = d["n_k"], d["leading_term"], d["coefficient_total"]
    else:
        lines = out.splitlines()
        terms = []
        for line in lines[3:-2]:
            if line.strip() == "(none)":
                continue
            exps, _, rest = line.strip().partition("  coeff ")
            coeff, _, value = rest.partition("  value ")
            terms.append((tuple(int(m) for m in exps.strip("()").split(",")), int(coeff), int(value)))
        nk = int(lines[-2].split(" = ")[1])
        got_lead = int(lines[1].split(" = ")[1])
        got_total = int(lines[-1].split(" = ")[1])
    expect(got_lead == lead and nk == total - lead and got_total == total, "N_k")
    expect(len(set(t[0] for t in terms)) == len(terms), "repeated term")
    for exps, coeff, value in terms:
        expect(sum(exps) == q and sum(i * m for i, m in enumerate(exps)) == k, "term shape")
        want = math.factorial(q)
        for m in exps:
            want //= math.factorial(m)
        expect(coeff == want, "multinomial coefficient")
        expect(value == coeff * math.prod(d**m for d, m in zip(digits, exps)), "term value")
    expect(sum(t[2] for t in terms) == nk, "terms do not sum to N_k")


CHECKS = {
    "check": check_check,
    "root": check_root,
    "classify": check_classify,
    "table": check_table,
    "congr": check_congr,
    "expand": check_expand,
}


def check_output(argv, out):
    """None when `out` is a correct answer to `argv`, else the reason."""
    a = args_of(argv)
    try:
        CHECKS[a["cmd"]](a, out)
    except Wrong as e:
        return str(e)
    except (ValueError, TypeError, AttributeError, KeyError, IndexError, StopIteration) as e:
        return f"unparsable output ({type(e).__name__}: {e})"
    return None
