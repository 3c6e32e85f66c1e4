"""Tests for solvability verdicts and Newton root lifting.

Expected roots were frozen against the independent level-by-level search
in bruteforce.digit_bfs_roots, which re-derives every digit from integer
congruences without touching the library's lifting code.
"""

from __future__ import annotations

import ast
import io
import math
import os
import random
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import padicroots
import padicroots.congruence
import padicroots.multinomial
import padicroots.representation
import padicroots.roots
from padicroots import (
    LiftContradictionError,
    PAdic,
    PrecisionError,
    Verdict,
    check_qp,
    decide,
    lift_root,
    lift_roots,
    solve,
)
from padicroots.cli import main as cli_main


def unit_value(p: int, gamma: int, unit: int, precision: int) -> PAdic:
    return PAdic.from_unit(p, gamma, unit, precision)


def test_package_exports_resolve_once():
    names = padicroots.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(padicroots, n)] == []
    # a name is read from its submodule once and then kept on the package
    for name, module in padicroots._SOURCES.items():
        assert vars(padicroots)[name] is vars(sys.modules[f"padicroots.{module}"])[name]
    star: dict = {}
    exec("from padicroots import *", star)
    assert [n for n in names if n not in star] == []
    assert set(names) <= set(dir(padicroots))
    with pytest.raises(AttributeError) as err:
        getattr(padicroots, "no_such_name")
    assert str(err.value) == "module 'padicroots' has no attribute 'no_such_name'"


def test_every_exported_function_has_a_caller():
    # an exported function is called somewhere in the package, imported by
    # the acceptance gates, or named in README; one that is none of these
    # is dead code
    called = set()
    for source in Path(padicroots.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(getattr(func, "id", None) or getattr(func, "attr", None))
    tests = Path(__file__).resolve().parent
    gates = ast.parse((tests / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in gates.body
        if isinstance(node, ast.ImportFrom) and node.module == "padicroots"
        for alias in node.names
    }
    readme = (tests.parent / "README.md").read_text()
    named = set(re.findall(r"`([A-Za-z_]\w*)[`(]", readme))
    functions = [
        name
        for name in padicroots._SOURCES
        if not isinstance(getattr(padicroots, name), type)
    ]
    assert [n for n in functions if n not in called | imported | named] == []


def test_every_public_method_and_field_has_a_reader():
    # a public attribute of an exported class, namedtuple fields included,
    # is read as an attribute in the package or by the acceptance gates
    # outside the class's own body, or named in README, or read by a method
    # of the class that is itself reached: a public attribute so read, a
    # private method a reached method reads, or an object-protocol dunder.
    # Operator dunders and their aliases (__mul__ = mul) reach nothing, so
    # methods read only by each other are dead code.  Reads are matched by
    # bare name: PAdic.add outlived this rule only because the gates call
    # add on a set.
    tests = Path(__file__).resolve().parent
    package = Path(padicroots.__file__).resolve().parent
    trees = [
        ast.parse(source.read_text())
        for source in [*package.glob("*.py"), tests / "test_acceptance.py"]
    ]
    readme = (tests.parent / "README.md").read_text()
    named = set(re.findall(r"`\.?([A-Za-z_]\w*)[`(]", readme))
    protocol = {
        "__init__", "__eq__", "__hash__", "__reduce__",
        "__str__", "__repr__", "__setattr__", "__delattr__",
    }

    def reads(nodes) -> set:
        return {
            node.attr
            for top in nodes
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }

    unread = []
    for name in padicroots._SOURCES:
        cls = getattr(padicroots, name)
        if not isinstance(cls, type) or issubclass(cls, BaseException):
            continue
        body = next(
            n for t in trees for n in t.body if isinstance(n, ast.ClassDef) and n.name == name
        )
        methods = {f.name: reads([f]) for f in body.body if isinstance(f, ast.FunctionDef)}
        reached = named | reads(n for t in trees for n in t.body if n is not body)
        live: set = set()
        while grown := {m for m in methods if m in reached | protocol} - live:
            live |= grown
            reached |= set().union(*(methods[m] for m in grown))
        unread += [
            f"{name}.{attr}"
            for attr in [*vars(cls), *getattr(cls, "_fields", ())]
            if not attr.startswith("_") and attr not in reached
        ]
    assert unread == []


def _leading_literal(text: str):
    """The longest prefix of text that is a Python literal."""
    for end in range(len(text), 0, -1):
        try:
            return ast.literal_eval(text[:end])
        except (SyntaxError, ValueError):
            continue
    raise ValueError(f"no literal opens {text!r}")


def test_readme_library_tour_values_hold():
    # README's python block runs as written, and each expression line
    # evaluates to the literal its trailing comment opens with
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    scope: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            got = eval(compile(ast.Expression(node.value), "README", "eval"), scope)
            expected = _leading_literal(comments[node.end_lineno])
            assert got == expected, ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    assert checked == 10


@pytest.mark.parametrize(
    "call, message",
    [
        ("factorize(0)", "factorize expects a positive integer"),
        ("int_valuation(8, 1)", "valuation base must be at least 2, got 1"),
        ("int_valuation(0, 5)", "valuation of 0 is undefined"),
        ("euler_phi(0)", "euler_phi expects a positive integer"),
        ("is_qth_residue(1, 2, 9)", "9 is not prime"),
        ("is_qth_residue(1, 0, 5)", "exponent must be at least 1"),
        ("nk_walk(0, 2, [1])", "exponent q must be at least 1"),
        ("nk_walk(2, 0, [1])", "digit position k must be at least 1"),
        ("compute_Nk(2, [1], 3)", "need at least 3 digits d0..d2"),
        ("nk_sequence(0, [1], 2)", "exponent q must be at least 1"),
        ("nk_sequence(2, [1, -1], 2)", "digits must be non-negative"),
        ("binom_valuation_kummer(-1, 2, 3)", "arguments must be non-negative"),
        ("ntilde_pk(3, [1, 1], 0)", "k must be at least 1"),
        ("PAdic(5, 0, 1, 0)", "precision must be at least 1"),
        ("PAdic(5, 0, 125, 3)", "unit residue out of range for the precision"),
        ("PAdic(5, 0, 10, 3)", "unit part must have a nonzero first digit"),
        ("PAdic.from_int(2, 5, 4).digits_to(0)", "need at least one digit"),
        ("find_nonresidue_unit(9, 2)", "both p and q must be prime"),
        ("lift_roots(PAdic.from_int(4, 5, 6), 2, 0)", "need at least one digit"),
    ],
)
def test_library_refusals(call, message):
    scope = {
        **vars(padicroots.congruence),
        **vars(padicroots.multinomial),
        **vars(padicroots.representation),
        **vars(padicroots.roots),
    }
    with pytest.raises(ValueError) as err:
        eval(call, scope)
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_bare_package_import_loads_no_submodule():
    probe = (
        "import sys, padicroots\n"
        "print(sorted(m for m in sys.modules if m.startswith('padicroots')))\n"
    )
    src = str(Path(padicroots.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "['padicroots']\n", "")


@pytest.mark.parametrize(
    "record, fields, defaults, example, text",
    [
        (
            Verdict,
            "solvable case_used failed_condition details",
            {"failed_condition": None, "details": ""},
            lambda: Verdict(False, "square"),
            "Verdict(solvable=False, case_used='square', failed_condition=None, "
            "details='')",
        ),
        (
            padicroots.RootSet,
            "roots expected_count verify_k",
            {},
            lambda: lift_roots(PAdic.from_int(2, 7, 3), 2, 2),
            "RootSet(roots=(PAdic(p=7, gamma=0, digits=[3, 1]), PAdic(p=7, "
            "gamma=0, digits=[4, 5])), expected_count=2, verify_k=2)",
        ),
        (
            padicroots.congruence._UnitGroup,
            "m phi g digits",
            {},
            lambda: padicroots.congruence._unit_group(7),
            "_UnitGroup(m=7, phi=6, g=3, "
            "digits=((6, 1, 1, 3, {1: 0, 3: 1, 2: 2}, 6),))",
        ),
        (
            padicroots.CongruenceSolution,
            "representatives modulus",
            {},
            lambda: padicroots.solve_linear(2, 4, 6),
            "CongruenceSolution(representatives=(2, 5), modulus=6)",
        ),
        (
            padicroots.Decomposition,
            "form epsilon delta_exponent y q epsilon_int eta eta_exponent",
            {"epsilon_int": None, "eta": None, "eta_exponent": None},
            lambda: padicroots.classify(PAdic.from_int(2, 7, 3), 3),
            "Decomposition(form='coprime_with_eta', epsilon=PAdic(p=7, gamma=0, "
            "digits=[2, 1, 0]), delta_exponent=0, y=PAdic(p=7, gamma=0, "
            "digits=[4, 6, 0]), q=3, epsilon_int=None, eta=PAdic(p=7, gamma=0, "
            "digits=[3, 0, 0]), eta_exponent=2)",
        ),
    ],
)
def test_records_keep_their_fields_defaults_and_repr(
    record, fields, defaults, example, text
):
    # pinned to what the records held and printed as frozen dataclasses
    assert record._fields == tuple(fields.split())
    assert record._field_defaults == defaults
    value = example()
    assert type(value) is record and repr(value) == text
    assert list(value._asdict()) == list(record._fields)
    with pytest.raises(AttributeError):
        value.no_such_field = 1


# ---------------------------------------------------------------------------
# square criterion


def test_square_solvable_quadratic_residue():
    v = decide(PAdic.from_int(2, 7, 6), 2)
    assert v.solvable and v.case_used == "square" and v.failed_condition is None


def test_square_odd_valuation_fails():
    v = decide(PAdic.from_int(5, 5, 6), 2)
    assert not v.solvable
    assert v.failed_condition == "valuation_not_divisible"


def test_square_nonresidue_fails():
    v = decide(PAdic.from_int(3, 7, 6), 2)  # squares mod 7: 1, 2, 4
    assert not v.solvable
    assert v.failed_condition == "residue_condition"


def test_square_q2_seventeen_solvable():
    # 17 = 1 + 0*2 + 0*4 + 0*8 + 16: both low digits above the unit vanish
    v = decide(PAdic.from_int(17, 2, 6), 2)
    assert v.solvable


def test_square_q2_five_fails_digit_condition():
    v = decide(PAdic.from_int(5, 2, 6), 2)
    assert not v.solvable
    assert v.failed_condition == "digit_condition_p2"


def test_square_zero_rejected():
    with pytest.raises(ValueError):
        decide(PAdic.zero(5, 3), 2)


def test_square_matches_enumeration_all_units():
    # verdicts for every unit residue, odd primes
    for p in (3, 5, 7, 11, 13):
        squares = {pow(x, 2, p) for x in range(1, p)}
        for u in range(1, p):
            v = decide(unit_value(p, 0, u, 4), 2)
            assert v.solvable == (u in squares)


# ---------------------------------------------------------------------------
# coprime criterion


def test_coprime_pinned_cases():
    assert decide(PAdic.from_int(2, 5, 6), 3).solvable
    v = decide(PAdic.from_int(2, 7, 6), 3)
    assert not v.solvable and v.failed_condition == "residue_condition"
    v = decide(PAdic.from_int(7 * 3, 7, 6), 3)
    assert not v.solvable and v.failed_condition == "valuation_not_divisible"


def test_coprime_q2_base2_always_unit_solvable():
    # odd exponent in the 2-adics: the residue condition is vacuous
    rng = random.Random(7)
    for q in (3, 5, 7, 9):
        for _ in range(20):
            u = rng.randrange(1, 2**8, 2)
            a = unit_value(2, q * rng.randrange(-2, 3), u, 8)
            assert decide(a, q).solvable


# ---------------------------------------------------------------------------
# q = p criterion


def test_qp_pinned_cases():
    assert check_qp(PAdic.from_int(7, 5, 6)).solvable  # 2^5 = 32 = 7 mod 25
    v = check_qp(PAdic.from_int(12, 5, 6))
    assert not v.solvable and v.failed_condition == "digit_condition_p2"
    assert not check_qp(PAdic.from_int(4, 3, 6)).solvable


def test_qp_valuation_condition():
    v = check_qp(unit_value(5, 2, 7, 4))
    assert not v.solvable and v.failed_condition == "valuation_not_divisible"


def test_qp_rejects_p2():
    with pytest.raises(ValueError):
        check_qp(PAdic.from_int(5, 2, 6))


def test_qp_matches_exhaustive_fifth_powers():
    # criterion reads two digits; compare with the true image mod 5^3
    image = {pow(x, 5, 125) for x in range(1, 125) if x % 5}
    for u in range(1, 125):
        if u % 5 == 0:
            continue
        v = check_qp(unit_value(5, 0, u, 3))
        assert v.solvable == (u in image), u


# ---------------------------------------------------------------------------
# lifting


def test_lift_cube_root_of_two_base5():
    a = PAdic.from_int(2, 5, 6)
    rs = lift_roots(a, 3, 6)
    assert rs.observed_count == 1 and rs.expected_count == 1
    root = rs.roots[0]
    assert root.digits == (3, 0, 2, 2, 3, 1)
    assert [root.unit] == bf.digit_bfs_roots(5, 3, 2, 6, 0)


def test_lift_square_roots_of_two_base7():
    a = PAdic.from_int(2, 7, 6)
    rs = lift_roots(a, 2, 6)
    assert rs.observed_count == 2 == rs.expected_count
    assert {r.digits[0] for r in rs.roots} == {3, 4}
    assert (rs.roots[0].unit + rs.roots[1].unit) % 7**6 == 0  # the two roots are negatives
    assert [r.unit for r in rs.roots] == bf.digit_bfs_roots(7, 2, 2, 6, 0)


def test_lift_one_has_gcd_many_roots():
    for p, q in ((7, 3), (13, 4), (11, 5), (13, 6)):
        rs = lift_roots(PAdic.one(p, 8), q, 8)
        assert rs.observed_count == math.gcd(q, p - 1)
        assert any(r == PAdic.one(p, 8) for r in rs.roots)


def test_lift_fifth_root_of_seven_base5():
    a = PAdic.from_int(7, 5, 6)
    rs = lift_roots(a, 5, 5)
    assert rs.observed_count == 1
    root = rs.roots[0]
    assert root.digits[0] == 2  # first digit equals the target's first digit
    assert [root.unit] == bf.digit_bfs_roots(5, 5, 7, 5, 1)
    assert rs.expected_count == 1  # gcd(5, 5 - 1): mu(Q_5) has no 5th roots but 1


def test_lift_count_when_p_divides_q():
    # d = gcd(q, p - 1), gcd(q, 2) at p = 2, counts the roots for every q
    rng = random.Random(41)
    for p in (2, 3, 5, 7):
        for q in (p, 2 * p, 3 * p, p * p):
            c = bf.int_valuation(q, p)
            n = 4
            for _ in range(3):
                r = rng.randrange(1, p ** (n + c))
                r += r % p == 0
                u = pow(r, q, p ** (n + c))
                rs = lift_roots(PAdic.from_unit(p, 0, u, n + c), q, n)
                want = bf.digit_bfs_roots(p, q, u, n, c)
                assert rs.expected_count == rs.observed_count == len(want), (p, q, u)


def test_lift_contradiction_on_nonresidue():
    with pytest.raises(LiftContradictionError):
        lift_roots(PAdic.from_int(2, 7, 6), 3, 6)  # 2 is not a cube mod 7


def test_lift_contradiction_on_bad_valuation():
    with pytest.raises(LiftContradictionError):
        lift_roots(PAdic.from_int(7, 7, 6), 3, 6)


def test_lift_needs_precision_headroom():
    a = PAdic.from_int(7, 5, 5)
    with pytest.raises(PrecisionError):
        lift_roots(a, 5, 5)  # v_5(5) = 1 digit of slack missing


def test_lift_root_valuation_is_quotient():
    a = PAdic.from_int(2 * 5**6, 5, 6)
    rs = lift_roots(a, 3, 6)
    assert all(r.gamma == 2 for r in rs.roots)
    cube = rs.roots[0].pow_nat(3)
    assert cube.eq_mod(a, a.gamma + 6)


def test_lift_roots_sorted_and_verified():
    rs = lift_roots(PAdic.from_int(2, 7, 8), 2, 8)
    units = [r.unit for r in rs.roots]
    assert units == sorted(units)
    for r in rs.roots:
        assert r.pow_nat(2).eq_mod(PAdic.from_int(2, 7, 8), 8)


# ---------------------------------------------------------------------------
# the full solver


def test_solve_dispatch_square():
    verdict, rs = solve(PAdic.from_int(2, 7, 8), 2, 6)
    assert verdict.case_used == "square" and rs.observed_count == 2


def test_solve_dispatch_coprime():
    verdict, rs = solve(PAdic.from_int(2, 5, 8), 3, 6)
    assert verdict.case_used == "coprime"
    assert rs.roots[0].digits == (3, 0, 2, 2, 3, 1)


def test_solve_dispatch_qp():
    verdict, rs = solve(PAdic.from_int(7, 5, 8), 5, 6)
    assert verdict.case_used == "q_equals_p"
    assert rs.observed_count == 1


def test_solve_chain_sixth_root():
    verdict, rs = solve(PAdic.from_int(64, 3, 10), 6, 5)
    assert verdict.solvable and verdict.case_used == "general_chain"
    two = PAdic.from_int(2, 3, 5)
    minus_two = PAdic.from_int(-2, 3, 5)
    assert any(r.eq_mod(two, 5) for r in rs.roots)
    assert any(r.eq_mod(minus_two, 5) for r in rs.roots)
    assert rs.observed_count == 2


def test_solve_chain_ninth_root():
    verdict, rs = solve(PAdic.from_int(512, 3, 10), 9, 5)
    assert verdict.solvable
    assert rs.observed_count == 1
    assert rs.roots[0].eq_mod(PAdic.from_int(2, 3, 5), 5)


def test_solve_chain_fails_at_first_link():
    verdict, rs = solve(PAdic.from_int(12, 5, 8), 10, 5)
    assert not verdict.solvable and rs is None
    assert verdict.case_used == "general_chain"
    assert verdict.failed_condition == "chain_step 1"


def test_solve_chain_fourth_roots_of_sixteen():
    verdict, rs = solve(PAdic.from_int(16, 2, 10), 4, 5)
    assert verdict.solvable
    two = PAdic.from_int(2, 2, 5)
    assert rs.observed_count == 2
    assert any(r.eq_mod(two, 6) for r in rs.roots)
    assert any(r.eq_mod(PAdic.from_int(-2, 2, 5), 6) for r in rs.roots)


def test_solve_rejects_zero_and_tiny_exponent():
    with pytest.raises(ValueError):
        solve(PAdic.zero(5, 4), 3, 2)
    with pytest.raises(ValueError):
        solve(PAdic.from_int(2, 5, 4), 1, 2)


def test_solve_needs_chain_headroom():
    with pytest.raises(PrecisionError):
        solve(PAdic.from_int(16, 2, 4), 4, 4)  # needs 4 + v_2(4) digits


def test_solve_verdict_shape_invariants():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        q = rng.randrange(2, 11)
        u = rng.randrange(1, p**6)
        if u % p == 0:
            u += 1
        a = unit_value(p, rng.randrange(-3, 4), u % p**6 or 1, 6)
        verdict, rs = solve(a, q, 2)
        if verdict.solvable:
            assert verdict.failed_condition is None and rs is not None
        else:
            assert rs is None and verdict.failed_condition


def _verdict_row(p, q, gamma, unit, expected):
    """One row of test_verdict_text_pinned: x^q = p**gamma * unit, known
    to 6 digits, and its whole expected Verdict."""
    return pytest.param(p, q, gamma, unit, Verdict(*expected), id=f"p{p}-q{q}-{unit}")


def _digit(u, p, i):
    return u // p**i % p


# Every expected string is built from plain integers: the residues are the
# values of the row's unit, the digits are peeled off by division.
VERDICT_TEXT_ROWS = [
    # square, odd p
    _verdict_row(5, 2, 1, 1, (False, "square", "valuation_not_divisible",
                              "valuation 1 is odd")),
    _verdict_row(7, 2, 0, 3, (False, "square", "residue_condition",
                              "first digit 3 is not a quadratic residue mod 7")),
    _verdict_row(7, 2, 0, 2 + 5 * 7, (True, "square", None,
                                      "2 is a quadratic residue mod 7")),
    # square, p = 2
    _verdict_row(2, 2, 3, 1, (False, "square", "valuation_not_divisible",
                              "valuation 3 is odd")),
    _verdict_row(2, 2, 0, 13, (False, "square", "digit_condition_p2",
                               f"digits at positions 1,2 are {_digit(13, 2, 1)},"
                               f"{_digit(13, 2, 2)}; both must be 0")),
    _verdict_row(2, 2, 2, 17 + 32, (True, "square", None, "unit part is 1 mod 8")),
    # coprime
    _verdict_row(7, 3, 1, 3, (False, "coprime", "valuation_not_divisible",
                              "valuation 1 is not divisible by 3")),
    _verdict_row(7, 3, 0, 2, (False, "coprime", "residue_condition",
                              "first digit 2 is not a 3-th power residue mod 7")),
    _verdict_row(7, 3, 3, pow(3, 3, 7**6), (True, "coprime", None,
                                            f"{pow(3, 3, 7)} is a 3-th power "
                                            "residue mod 7")),
    _verdict_row(2, 3, -3, 5, (True, "coprime", None,
                               "odd exponent powers reach every 2-adic unit")),
    # q = p
    _verdict_row(5, 5, 2, 7, (False, "q_equals_p", "valuation_not_divisible",
                              "valuation 2 is not divisible by 5")),
    _verdict_row(5, 5, 0, 12, (False, "q_equals_p", "digit_condition_p2",
                               f"2^5 = {pow(2, 5, 25)} (mod 25) but the first two "
                               f"digits give {12 % 25}")),
    _verdict_row(7, 7, 7, pow(3, 7, 7**6), (True, "q_equals_p", None,
                                            f"3^7 = 3 + "
                                            f"{_digit(pow(3, 7, 7**6), 7, 1)}*7 "
                                            "(mod 49)")),
    # chain: the wrapped x^m link, a p-th root link, and success
    _verdict_row(5, 10, 3, 1, (False, "general_chain", "chain_step 1",
                               "x^2 link: valuation 3 is odd")),
    _verdict_row(7, 14, 0, 3, (False, "general_chain", "chain_step 1",
                               "x^2 link: first digit 3 is not a quadratic "
                               "residue mod 7")),
    _verdict_row(2, 12, 0, 5, (False, "general_chain", "chain_step 2",
                               f"x^2 link: u = {5 % 8} (mod 2^3), must be 1")),
    _verdict_row(5, 20, 0, 6, (False, "general_chain", "chain_step 2",
                               f"x^5 link: u^4 = {pow(6, 4, 25)} (mod 5^2), "
                               "must be 1")),
    _verdict_row(7, 98, 98, pow(3, 98, 7**6), (True, "general_chain", None,
                                               "all 3 links solvable")),
]


@pytest.mark.parametrize("p,q,gamma,unit,expected", VERDICT_TEXT_ROWS)
def test_verdict_text_pinned(p, q, gamma, unit, expected):
    assert decide(PAdic.from_unit(p, gamma, unit, 6), q) == expected


def test_decide_chain_names_witness():
    v = decide(PAdic.from_int(6, 5, 4), 10)  # 6^4 = 21 (mod 25)
    assert v.failed_condition == "chain_step 2"
    assert v.details == "x^5 link: u^4 = 21 (mod 5^2), must be 1"
    v = decide(PAdic.from_int(17, 2, 8), 8)
    assert v.failed_condition == "chain_step 3"
    assert v.details == "x^2 link: u = 17 (mod 2^5), must be 1"
    v = decide(PAdic.from_unit(3, 6, 1, 4), 9)
    assert v.failed_condition == "chain_step 2"
    assert v.details == "x^3 link: valuation 2 is not divisible by 3"


def test_check_never_lifts(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("check must not lift roots")

    monkeypatch.setattr(padicroots.roots, "lift_roots", refuse)
    assert cli_main(["check", "--p", "3", "--q", "6", "--val", "64"]) == 0
    out = capsys.readouterr().out
    assert "verdict: solvable" in out and "general_chain" in out


def test_newton_inverts_only_at_the_seed_precision(monkeypatch):
    # the derivative's inverse is refined by multiplications: every
    # pow(., -1, M) the lift makes is at the seed's precision, M <= p^2
    for p, q, root in ((2, 3, 3), (5, 4, 3)):
        moduli = []

        def counting_pow(base, exp, mod=None):
            if exp == -1:
                moduli.append(mod)
            return pow(base, exp, mod)

        monkeypatch.setattr(padicroots.roots, "pow", counting_pow, raising=False)
        a = PAdic.from_int(root**q, p, 4000 + bf.int_valuation(q, p))
        rs = lift_roots(a, q, 4000)
        monkeypatch.undo()
        assert rs.observed_count == math.gcd(q, 2 if p == 2 else p - 1)
        assert moduli and max(moduli) <= p**2, (p, q, moduli)


def test_lift_checks_each_returned_root_once(monkeypatch):
    # one Newton schedule, one pow per returned root at p^(n+c), and for
    # d > 2 the lifted zeta's last step and its one check (c = 0 here)
    n = 500
    for p, q in ((2, 2), (2, 3), (5, 5), (101, 2), (5, 4), (1009, 3)):
        c = bf.int_valuation(q, p)
        d = math.gcd(q, 2 if p == 2 else p - 1)
        a = PAdic.from_int(3**q, p, n + c)
        for lift, want in ((lift_roots, 1 + d), (lift_root, 2)):
            calls = []

            def counting_pow(base, exp, mod=None):
                if mod == p ** (n + c):
                    calls.append(exp)
                return pow(base, exp, mod)

            monkeypatch.setattr(padicroots.roots, "pow", counting_pow, raising=False)
            lift(a, q, n)
            monkeypatch.undo()
            assert len(calls) == want + 2 * (d > 2), (p, q, lift.__name__, calls)


def test_lift_refuses_a_wrong_root_of_unity(monkeypatch):
    newton = padicroots.roots._newton

    def perturbed(x, q, u, p, n_digits, c):
        root = newton(x, q, u, p, n_digits, c)
        return root + p ** (n_digits - 1) if u == 1 else root

    monkeypatch.setattr(padicroots.roots, "_newton", perturbed)
    for p, q in ((7, 3), (13, 4), (101, 5)):
        a = PAdic.from_int(2**q, p, 6)
        for lift in (lift_roots, lift_root):
            with pytest.raises(LiftContradictionError, match="root of unity"):
                lift(a, q, 6)


def test_lift_root_is_the_least_of_lift_roots(monkeypatch):
    # lift_root keeps a running minimum of r0 * zeta^k and sorts nothing
    def refuse(*args, **kwargs):
        raise AssertionError("lift_root must not sort the roots")

    rng = random.Random(5)
    cases = [(2, 2), (2, 3), (2, 4), (5, 4), (7, 3), (13, 12), (101, 10), (101, 202)]
    for p, q in cases:
        c = bf.int_valuation(q, p)
        for _ in range(5):
            x = rng.randrange(1, p**6)
            while x % p == 0:
                x = rng.randrange(1, p**6)
            a = PAdic.from_int(x**q, p, 6 + c)
            want = lift_roots(a, q, 6).roots[0]
            monkeypatch.setattr(padicroots.roots, "sorted", refuse, raising=False)
            assert lift_root(a, q, 6) == want, (p, q, x)
            monkeypatch.undo()


def test_lift_seed_takes_one_discrete_log(monkeypatch, capsys):
    # q = 166667 divides p - 1: the seed is g^s from one discrete log, not
    # the first of the 166,667 solutions power_residue_solve would list
    def refuse(*args, **kwargs):
        raise AssertionError("the lift must not list every m-th root")

    monkeypatch.setattr(padicroots.congruence, "power_residue_solve", refuse)
    monkeypatch.setattr(padicroots.roots, "power_residue_solve", refuse, raising=False)
    argv = ["classify", "--p", "1000003", "--q", "166667", "--val", "5"]
    assert cli_main([*argv, "--precision", "4"]) == 0
    assert "y: 0;981639,523728,136694,2" in capsys.readouterr().out
    rs = lift_roots(PAdic.from_int(1, 1000003, 4), 166667, 4)
    assert rs.observed_count == 166667 and rs.roots[0].unit == 1


# ---------------------------------------------------------------------------
# cross-checks against the brute-force oracles


def chain_exponents(p: int, q: int) -> list[int]:
    """Exponent reached after each link of the chain for q = m * p^c: m
    (when m > 1), then m*p, m*p^2, ..., q."""
    c = bf.int_valuation(q, p)
    m = q // p**c
    return ([m] if m > 1 else []) + [m * p**i for i in range(1, c + 1)]


def test_lift_matches_digit_search_on_solvable_targets():
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for q in range(2, 13):
            c = bf.int_valuation(q, p)
            for n in range(1, 6):
                for _ in range(3):
                    r = rng.randrange(1, p ** (n + c))
                    r += r % p == 0
                    u = pow(r, q, p ** (n + c))
                    g = q * rng.randrange(-2, 3)
                    rs = lift_roots(PAdic.from_unit(p, g, u, n + c), q, n)
                    want = bf.digit_bfs_roots(p, q, u, n, c)
                    assert [x.unit for x in rs.roots] == want, (p, q, n, u)
                    assert all(x.gamma == g // q for x in rs.roots)


def test_lift_at_large_precision_against_plain_integers():
    # coprime q, q = p and q = m * p^c with d = gcd(q, p-1) > 1, checked
    # with integer arithmetic only
    cases = [
        (2, 2), (2, 3), (2, 12), (3, 2), (3, 3), (3, 6), (5, 4), (5, 5),
        (5, 20), (101, 2), (101, 25), (101, 101), (101, 1010), (1009, 3),
        (1009, 1009), (1009, 2018),
    ]
    rng = random.Random(35)
    for p, q in cases:
        c = bf.int_valuation(q, p)
        for n in (1, 2, 37, 500, 2000):
            r = rng.randrange(1, p ** (n + c))
            r += r % p == 0
            u = pow(r, q, p ** (n + c))
            g = q * rng.randrange(-2, 3)
            rs = lift_roots(PAdic.from_unit(p, g, u, n + c), q, n)
            k = rs.verify_k - g
            assert k == n + c, (p, q, n)
            for x in rs.roots:
                assert x.gamma == g // q
                assert pow(x.unit, q, p**k) == u % p**k, (p, q, n)
            units = {x.unit % p**n for x in rs.roots}
            assert len(units) == rs.observed_count
            assert r % p**n in units
            if p == 2:
                want = 2 if q % 2 == 0 and n > 1 else 1
            else:
                want = math.gcd(q, p - 1)
            assert rs.observed_count == want, (p, q, n)


def test_chain_step_is_first_failing_link():
    rng = random.Random(32)
    for p in (2, 3, 5):
        for q in range(4, 28):
            c = bf.int_valuation(q, p)
            if c == 0 or q == p or q == 2:
                continue
            exps = chain_exponents(p, q)
            prec = 2 * c + 2
            for g in range(-4, 5):
                for _ in range(6):
                    r = rng.randrange(1, p**prec)
                    r += r % p == 0
                    # powers of r reach the deeper links, plain r the first
                    u = pow(r, rng.choice(exps + [1]), p**prec)
                    verdict, _ = solve(PAdic.from_unit(p, g, u, prec), q, 1)
                    first = next(
                        (
                            k
                            for k, e in enumerate(exps, 1)
                            if g % e or not bf.unit_root_exists(u, e, p)
                        ),
                        None,
                    )
                    assert verdict.case_used == "general_chain"
                    if first is None:
                        assert verdict.solvable, (p, q, g, u)
                    else:
                        assert verdict.failed_condition == f"chain_step {first}", (
                            p, q, g, u,
                        )


def test_solve_precision_need_is_exact():
    rng = random.Random(33)
    for p in (2, 3, 5):
        for q in range(2, 13):
            c = bf.int_valuation(q, p)
            for n in range(1, 5):
                for prec in range(1, n + c + 3):
                    for g in (0, 1, q):
                        u = rng.randrange(1, p**prec)
                        u += u % p == 0
                        a = PAdic.from_unit(p, g, u, prec)
                        need = prec < n + c or (p == 2 and c >= 1 and prec < c + 2)
                        if q == 2 and g % 2:
                            # the square criterion rejects an odd valuation
                            # before it reads a digit
                            need = prec < n + c
                        if need:
                            with pytest.raises(PrecisionError):
                                solve(a, q, n)
                        else:
                            solve(a, q, n)


# ---------------------------------------------------------------------------
# constructed-instance properties


@given(
    st.sampled_from([(3, 3), (5, 3), (7, 2), (5, 5), (2, 3), (13, 6)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_solve_finds_constructed_root(cfg, data):
    p, q = cfg
    prec = 8
    unit = data.draw(
        st.integers(min_value=1, max_value=p**prec - 1).filter(lambda u: u % p != 0)
    )
    g = data.draw(st.integers(min_value=-2, max_value=2))
    r = PAdic.from_unit(p, g, unit, prec)
    a = r.pow_nat(q)
    verdict, rs = solve(a, q, 6)
    assert verdict.solvable
    # returned roots carry 6 digits starting at valuation g
    assert any(root.eq_mod(r, g + 6) for root in rs.roots)


@given(st.sampled_from([3, 5, 7, 11, 13]), st.data())
@settings(max_examples=80, deadline=None)
def test_every_root_satisfies_equation(p, data):
    q = data.draw(st.integers(min_value=2, max_value=10))
    unit = data.draw(
        st.integers(min_value=1, max_value=p**9 - 1).filter(lambda u: u % p != 0)
    )
    a = PAdic.from_unit(p, 0, unit, 9)
    verdict, rs = solve(a, q, 5)
    if verdict.solvable:
        for r in rs.roots:
            assert r.pow_nat(q).eq_mod(a, 5)
