"""End-to-end tests of the command-line surface.

Most cases drive main() in process and inspect captured output; a few
run the installed module through a real interpreter to pin process exit
codes.  Structured output must carry the same data as the plain text.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shlex
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import padicroots.cli
import padicroots.representation
import padicroots.roots
from padicroots.cli import LIST_CAP, ROOT_DIGIT_BUDGET, _json, _Runs, main
from padicroots.representation import derived_epsilon_set, j_no_solution_table
from padicroots.roots import Verdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# check


def test_check_solvable_square(capsys):
    code, out = run_cli(capsys, "check", "--p", "7", "--q", "2", "--val", "2")
    assert code == 0
    assert "verdict: solvable" in out
    assert "case: square" in out


def test_check_unsolvable_is_still_success(capsys):
    code, out = run_cli(capsys, "check", "--p", "5", "--q", "5", "--val", "12")
    assert code == 0
    assert "verdict: unsolvable" in out
    assert "digit_condition_p2" in out


def test_check_chain_case(capsys):
    code, out = run_cli(capsys, "check", "--p", "3", "--q", "6", "--val", "64")
    assert code == 0
    assert "verdict: solvable" in out and "general_chain" in out


# ---------------------------------------------------------------------------
# root


def test_root_cube_root_of_two(capsys):
    code, out = run_cli(
        capsys, "root", "--p", "5", "--q", "3", "--val", "2", "--precision", "6"
    )
    assert code == 0
    assert "0;3,0,2,2,3,1" in out
    assert "expected_count: 1" in out
    assert "self-check" in out and "ok" in out


def test_root_two_square_roots(capsys):
    code, out = run_cli(
        capsys, "root", "--p", "7", "--q", "2", "--val", "2", "--precision", "5"
    )
    assert code == 0
    roots = [ln.strip() for ln in out.splitlines() if ln.strip().startswith("0;")]
    assert len(roots) == 2
    assert roots == sorted(roots)
    assert {r.split(";")[1].split(",")[0] for r in roots} == {"3", "4"}


def test_root_trivial_one(capsys):
    code, out = run_cli(capsys, "root", "--p", "3", "--q", "3", "--val", "1")
    assert code == 0
    assert "0;1,0" in out


def test_root_unsolvable_empty_list(capsys):
    code, out = run_cli(capsys, "root", "--p", "7", "--q", "3", "--val", "2")
    assert code == 0
    assert "roots (0):" in out and "unsolvable" in out


def test_root_structured_mirrors_plain(capsys):
    code, plain = run_cli(
        capsys, "root", "--p", "5", "--q", "3", "--val", "2", "--precision", "6"
    )
    code2, structured = run_cli(
        capsys,
        "root", "--p", "5", "--q", "3", "--val", "2", "--precision", "6",
        "--format", "structured",
    )
    assert code == code2 == 0
    doc = json.loads(structured)
    for root in doc["roots"]:
        assert root in plain
    assert doc["verdict"]["solvable"] is True
    assert doc["expected_count"] == 1
    assert str(doc["p"]) == "5"[:1] or doc["p"] == 5


# Full structured output, byte for byte: a solvable q = p case with a
# nonzero valuation, and a chain case whose p-th root link fails.
CHECK_SOLVABLE_JSON = """\
{
  "command": "check",
  "p": 3,
  "q": 3,
  "input": "216",
  "value": "3;2,2,0,0,0",
  "precision": 4,
  "verdict": {
    "solvable": true,
    "case_used": "q_equals_p",
    "failed_condition": null,
    "details": "2^3 = 2 + 2*3 (mod 9)"
  }
}
"""

ROOT_SOLVABLE_JSON = """\
{
  "command": "root",
  "p": 3,
  "q": 3,
  "input": "216",
  "value": "3;2,2,0,0,0",
  "precision": 4,
  "verdict": {
    "solvable": true,
    "case_used": "q_equals_p",
    "failed_condition": null,
    "details": "2^3 = 2 + 2*3 (mod 9)"
  },
  "roots": [
    "1;2,0,0,0"
  ],
  "expected_count": 1,
  "observed_count": 1,
  "self_check_modulus": "3^8"
}
"""

CHECK_CHAIN_JSON = """\
{
  "command": "check",
  "p": 3,
  "q": 6,
  "input": "7",
  "value": "0;1,2,0,0,0",
  "precision": 4,
  "verdict": {
    "solvable": false,
    "case_used": "general_chain",
    "failed_condition": "chain_step 2",
    "details": "x^3 link: u^2 = 4 (mod 3^2), must be 1"
  }
}
"""

ROOT_CHAIN_JSON = """\
{
  "command": "root",
  "p": 3,
  "q": 6,
  "input": "7",
  "value": "0;1,2,0,0,0",
  "precision": 4,
  "verdict": {
    "solvable": false,
    "case_used": "general_chain",
    "failed_condition": "chain_step 2",
    "details": "x^3 link: u^2 = 4 (mod 3^2), must be 1"
  },
  "roots": [],
  "expected_count": null,
  "observed_count": 0
}
"""


@pytest.mark.parametrize(
    "command, q, val, golden",
    [
        ("check", "3", "216", CHECK_SOLVABLE_JSON),
        ("root", "3", "216", ROOT_SOLVABLE_JSON),
        ("check", "6", "7", CHECK_CHAIN_JSON),
        ("root", "6", "7", ROOT_CHAIN_JSON),
    ],
    ids=["check-solvable", "root-solvable", "check-chain", "root-chain"],
)
def test_structured_output_golden(capsys, command, q, val, golden):
    code, out = run_cli(
        capsys, command, "--p", "3", "--q", q, "--val", val, "--precision", "4",
        "--format", "structured",
    )
    assert code == 0
    assert out == golden


@pytest.mark.parametrize(
    "argv",
    [
        "check --p 3 --q 6 --val 7 --precision 4",
        "root --p 5 --q 2 --val 11/4 --precision 6",
        "root --p 3 --q 3 --val 15",
        "classify --p 7 --q 3 --val 6",
        "classify --p 3 --q 3 --val 15",
        "table --p-max 41",
        "congr linear --a 6 --b 9 --n 15",
        "congr linear --a 2 --b 1 --n 4",
        "congr pow-residue --m 7 --n 3 --a 6",
        "expand --p 5 --q 4 --digits 1,2,3,4 --k 6",
        "expand --p 3 --q 3 --digits 1,1 --k 1",
    ],
)
def test_structured_output_is_stdlib_json(capsys, argv):
    # every command's JSON is what json.dumps(..., indent=2) writes
    code, out = run_cli(capsys, *argv.split(), "--format", "structured")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_json_leaves = st.none() | st.booleans() | st.integers(-(10**40), 10**40) | st.text()
# runs of consecutive ints, empty ones among them
_json_runs = st.lists(
    st.builds(
        lambda start, n: range(start, start + n),
        st.integers(-(10**30), 10**30),
        st.integers(0, 6),
    ),
    max_size=5,
).map(_Runs)
_json_values = st.recursive(
    _json_leaves
    | st.lists(st.integers(-(10**30), 10**30) | st.booleans())
    | _json_runs,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)


def _built_out(x):
    """x with every _Runs replaced by the list of its ints."""
    if type(x) is _Runs:
        return list(chain(*x))
    if type(x) is list:
        return [_built_out(v) for v in x]
    if type(x) is dict:
        return {k: _built_out(v) for k, v in x.items()}
    return x


@settings(max_examples=100, deadline=None)
@given(_json_values)
def test_json_writer_matches_stdlib(x):
    # non-ASCII and escaped strings, big negative ints, int lists with a
    # bool among them, runs (empty ones too), empty and nested containers
    assert _json(x) == json.dumps(_built_out(x), indent=2)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_line_examples_verbatim(capsys):
    # each '$ padicroots ...' example in the Command line block, with the
    # output printed under it
    block = README.read_text().split("## Command line", 1)[1].split("```\n")[1]
    examples = [chunk.splitlines() for chunk in block.strip().split("\n\n")]
    assert [lines[0].split()[2] for lines in examples] == [
        "check", "root", "classify", "table",
    ]
    for command, *want in examples:
        argv = shlex.split(command.removeprefix("$ padicroots "))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == "\n".join(want) + "\n", argv


# ---------------------------------------------------------------------------
# classify


def test_classify_fifteen_base3(capsys):
    code, out = run_cli(capsys, "classify", "--p", "3", "--q", "3", "--val", "15")
    assert code == 0
    assert "epsilon: 5" in out
    assert "delta: 3^1" in out
    assert "check:" in out and "ok" in out


def test_classify_six_base7_eta_exponent_zero(capsys):
    code, out = run_cli(
        capsys, "classify", "--p", "7", "--q", "3", "--val", "6",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "coprime_with_eta"
    assert doc["eta_exponent"] == 0
    assert doc["check_ok"] is True


def test_classify_eight_base3_trivial(capsys):
    code, out = run_cli(
        capsys, "classify", "--p", "3", "--q", "3", "--val", "8",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon_int"] == 1
    assert doc["delta_exponent"] == 0
    assert doc["y"].startswith("0;2,")


def test_classify_structured_plain_same_data(capsys):
    _, plain = run_cli(capsys, "classify", "--p", "7", "--q", "3", "--val", "2")
    _, structured = run_cli(
        capsys, "classify", "--p", "7", "--q", "3", "--val", "2",
        "--format", "structured",
    )
    doc = json.loads(structured)
    assert f"form: {doc['form']}" in plain
    assert f"epsilon: {doc['epsilon']}" in plain
    assert f"y: {doc['y']}" in plain


@pytest.mark.parametrize(
    "q, p, message",
    [
        ("1", "5", "error: exponent q must be at least 2"),
        ("4", "5", "error: classifier needs a prime exponent q < p"),
        ("10", "5", "error: classify needs q = p or prime q < p, got q=10, p=5"),
    ],
    ids=["q1-p5", "q4-p5", "q10-p5"],
)
def test_classify_argument_errors(capsys, q, p, message):
    code = main(["classify", "--p", p, "--q", q, "--val", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


# ---------------------------------------------------------------------------
# table


TABLE_13 = (
    "p=3: 1\n"
    "p=5: 2\n"
    "p=7: 1, 3, 5\n"
    "p=11: 1, 4, 5, 6, 9\n"
    "p=13: 2, 3, 4, 8, 9, 10\n"
)


def test_table_small_golden(capsys):
    code, out = run_cli(capsys, "table", "--p-max", "13")
    assert code == 0
    assert out == TABLE_13


def test_table_byte_stable(capsys):
    _, first = run_cli(capsys, "table", "--p-max", "41")
    _, second = run_cli(capsys, "table", "--p-max", "41")
    assert first == second


def test_table_rows_match_power_image_oracle(capsys):
    # j is listed when no p-th power of a unit mod p^2 has second digit j
    _, out = run_cli(capsys, "table", "--p-max", "41")
    want = []
    for p in bf.primes_upto(41)[1:]:
        seen = {y // p for y in bf.power_image(p, p * p, p)}
        want.append(f"p={p}: " + ", ".join(str(j) for j in range(p) if j not in seen))
    assert out.splitlines() == want


def test_table_structured_fields(capsys):
    code, out = run_cli(capsys, "table", "--p-max", "7", "--format", "structured")
    doc = json.loads(out)
    rows = {row["p"]: row for row in doc["rows"]}
    assert rows[3]["j_no_solution"] == [1]
    assert rows[3]["epsilon_derived"] == [1, 4, 5]
    assert rows[5]["epsilon_derived"] == [1, 11, 12, 13, 14]


# ---------------------------------------------------------------------------
# congr and expand


def test_congr_pow_residue(capsys):
    code, out = run_cli(
        capsys, "congr", "pow-residue", "--m", "7", "--n", "3", "--a", "6"
    )
    assert code == 0
    assert "3, 5, 6" in out


def test_congr_linear(capsys):
    code, out = run_cli(capsys, "congr", "linear", "--a", "6", "--b", "9", "--n", "15")
    assert code == 0
    assert "4, 9, 14" in out


def test_congr_unsolvable(capsys):
    code, out = run_cli(capsys, "congr", "linear", "--a", "2", "--b", "1", "--n", "4")
    assert code == 0
    assert "solvable: no" in out


@pytest.mark.parametrize(
    "argv",
    [
        "linear --a 0 --b 0 --n 100000000000",
        f"linear --a 0 --b 0 --n {LIST_CAP + 1}",
        "pow-residue --a 1 --n 1000002 --m 1000003",
        "pow-residue --a 1 --n 2000004 --m 1000003",
    ],
)
def test_congr_refuses_too_many_solutions(capsys, argv):
    # refused before any solution is built: 0*x = 0 (mod 10^11) alone
    # would list 10^11 residues
    code = main(["congr", *argv.split()])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"more than the {LIST_CAP} congr lists" in captured.err


def test_congr_at_the_solution_cap_answers(capsys):
    code, out = run_cli(
        capsys, "congr", "linear", "--a", "0", "--b", "1", "--n", "100000000000"
    )
    assert code == 0 and "solvable: no" in out
    code, out = run_cli(
        capsys, "congr", "linear", "--a", "0", "--b", "0",
        "--n", str(LIST_CAP),
    )
    assert code == 0 and f"count: {LIST_CAP}" in out


def test_root_refuses_more_digits_than_the_budget(capsys):
    # d = gcd(q, p-1) roots of `precision` digits each, worked out before
    # the value is read: the malformed value is never looked at
    for p, q, val, precision in (
        (1000003, 166667, "1", 40),
        (1000003, 166667, "0;x", 40),
        (101, 100, "1", 1001),
        (101, 200, "1", 1001),
    ):
        argv = ["--p", p, "--q", q, "--val", val, "--precision", precision]
        code = main(["root", *map(str, argv)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        d = math.gcd(q, p - 1)
        assert captured.err == (
            f"error: {d} roots at precision {precision} are {d * precision} "
            f"digits, more than the {ROOT_DIGIT_BUDGET} root prints\n"
        )
    # check prints no root, so the budget does not bound it
    code, out = run_cli(
        capsys, "check", "--p", "1000003", "--q", "166667", "--val", "1",
        "--precision", "40",
    )
    assert code == 0 and "verdict: solvable" in out


def test_root_at_the_digit_budget_answers(capsys):
    # 100 roots of 1000 digits, and 10 roots at the precision cap, are
    # exactly the budget
    for p, q, precision in (("101", "100", "1000"), ("11", "10", "10000")):
        assert int(q) * int(precision) == ROOT_DIGIT_BUDGET
        code, out = run_cli(
            capsys, "root", "--p", p, "--q", q, "--val", "1",
            "--precision", precision,
        )
        assert code == 0 and f"roots ({q}):" in out
    with pytest.raises(SystemExit):
        main(["root", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"more than {ROOT_DIGIT_BUDGET} exits 2" in help_text


@pytest.mark.parametrize("p_max", [3, 5, 13, 41, 150, 358])
def test_table_structured_is_stdlib_json_of_the_built_out_rows(capsys, p_max):
    # the epsilon runs are written without a list of their ints; the text
    # must be what json.dumps writes for the lists themselves (358 is the
    # largest p_max under LIST_CAP)
    code, out = run_cli(
        capsys, "table", "--p-max", str(p_max), "--format", "structured"
    )
    assert code == 0
    rows = [
        {
            "p": p,
            "j_no_solution": list(js),
            "epsilon_derived": list(derived_epsilon_set(p)),
        }
        for p, js in j_no_solution_table(p_max).items()
    ]
    payload = {"command": "table", "p_max": p_max, "rows": rows}
    assert out == json.dumps(payload, indent=2) + "\n"


def test_table_structured_builds_each_row_once(capsys, monkeypatch):
    j_row = padicroots.representation._j_row
    calls = []

    def counting(p):
        calls.append(p)
        return j_row(p)

    monkeypatch.setattr(padicroots.representation, "_j_row", counting)
    code, out = run_cli(capsys, "table", "--p-max", "41", "--format", "structured")
    assert code == 0
    assert calls == bf.primes_upto(41)[1:]


def test_table_structured_at_the_list_cap_answers(capsys, monkeypatch):
    # the rows up to 41 hold 1 + |row|*(p-1) = 2450 epsilon entries in all;
    # plain output lists none of them, so the cap never bounds it
    argv = ["table", "--p-max", "41", "--format", "structured"]
    monkeypatch.setattr(padicroots.cli, "LIST_CAP", 2450)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert sum(len(row["epsilon_derived"]) for row in rows) == 2450
    monkeypatch.setattr(padicroots.cli, "LIST_CAP", 2449)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 2450 epsilon entries, more than the 2449 table lists\n"
    )
    code, out = run_cli(capsys, "table", "--p-max", "41")
    assert code == 0 and out.startswith("p=3: ")
    with pytest.raises(SystemExit):
        main(["table", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "a table of more than 1000000 exits 2" in help_text


def test_expand_n2_terms(capsys):
    code, out = run_cli(
        capsys, "expand", "--p", "3", "--q", "3", "--digits", "1,1", "--k", "2"
    )
    assert code == 0
    assert "N_2 = 3" in out
    assert "(1,2)" in out  # the single exponent tuple


def test_expand_answers_at_large_k(capsys):
    # one term per split 1000 = a + b with 1 <= a <= b; no recursion limit
    code, out = run_cli(
        capsys, "expand", "--p", "3", "--q", "2", "--digits", "1", "--k", "1000"
    )
    assert code == 0
    assert sum(line.startswith("  (") for line in out.splitlines()) == 500
    assert "N_1000 = 0" in out


def test_expand_with_no_terms_says_none(capsys):
    # x^1 has no cross terms, so N_k has nothing to list
    code, out = run_cli(
        capsys, "expand", "--p", "3", "--q", "1", "--digits", "1,2", "--k", "2"
    )
    assert code == 0
    assert out == (
        "exponent q=1, prime p=3, digit position k=2, digits: 1,2\n"
        "leading term q*d0^(q-1)*d_k = 0\n"
        "N_2 terms (m_0,...,m_1):\n"
        "  (none)\n"
        "N_2 = 0\n"
        "coefficient of p^2 = 0\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        ("expand --p 4 --q 2 --digits 1 --k 1", "p must be prime, got 4"),
        ("expand --p 3 --q 0 --digits 1 --k 1", "q and k must be at least 1"),
        ("expand --p 3 --q 2 --digits 1 --k 0", "q and k must be at least 1"),
        ("expand --p 3 --q 2 --digits 1,,2 --k 1", "malformed digit list '1,,2'"),
        ("expand --p 3 --q 2 --digits 1,3 --k 1", "digit 3 out of range for p=3"),
        (
            "expand --p 1000003 --q 20000000 --digits 5,0 --k 1",
            "integers up to 5^20000000 (13979401 digits) exceed the 4300-digit limit",
        ),
        (
            "expand --p 1000003 --q 2000 --digits 1000002,1 --k 1",
            "integers up to 1000003^2000 (12001 digits) exceed the 4300-digit limit",
        ),
        (
            "expand --p 3 --q 10 --digits 1 --k 100",
            "N_100 has more than 10000 terms of 100 exponents each, more than "
            "the 1000000 expand lists",
        ),
        (
            "expand --p 3 --q 3 --digits 1 --k 600",
            "N_600 has more than 1666 terms of 600 exponents each, more than "
            "the 1000000 expand lists",
        ),
        ("table --p-max 2", "--p-max must be at least 3"),
        (
            "table --p-max 359 --format structured",
            "1000487 epsilon entries, more than the 1000000 table lists",
        ),
        ("congr linear --a 2 --n 5", "linear congruence needs --b"),
        ("congr pow-residue --a 2 --n 3", "power residue congruence needs --m"),
        ("congr linear --a 1 --b 1 --n 0", "modulus must be nonzero"),
        ("congr pow-residue --a 2 --n 0 --m 7", "exponent must be at least 1"),
        ("congr pow-residue --a 2 --n 2 --m 1", "modulus must be at least 2"),
    ],
    ids=[
        "expand-p4", "expand-q0", "expand-k0", "expand-empty-digit",
        "expand-digit3-p3", "expand-huge-q", "expand-huge-digits",
        "expand-terms-over-cap", "expand-exponents-over-cap", "table-pmax2",
        "table-structured-over-cap", "linear-no-b", "pow-residue-no-m",
        "linear-n0", "pow-residue-n0", "pow-residue-m1",
    ],
)
def test_offline_argument_errors(capsys, argv, message):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: " + message + "\n"


# ---------------------------------------------------------------------------
# internal errors: one computation made wrong on purpose must exit 3


def wrong_seed(monkeypatch):
    real = padicroots.roots.power_residue_root
    monkeypatch.setattr(
        padicroots.roots, "power_residue_root", lambda m, a, p: real(m, a, p) + 1
    )


def wrong_last_digit(monkeypatch):
    # at q = 2 and odd p the root of unity is -1, which _newton never lifts,
    # so the check of each root is the one that fails
    real = padicroots.roots._newton

    def newton(x, q, u, p, n_digits, c):
        return (real(x, q, u, p, n_digits, c) + p ** (n_digits - 1)) % p**n_digits

    monkeypatch.setattr(padicroots.roots, "_newton", newton)


def wrong_recomposition(monkeypatch):
    real = padicroots.representation.Decomposition.recompose
    monkeypatch.setattr(
        padicroots.representation.Decomposition, "recompose", lambda d: real(d).mul(2)
    )


def eta_a_power(monkeypatch):
    monkeypatch.setattr(
        padicroots.representation, "decide", lambda a, q: Verdict(True, "coprime")
    )


@pytest.mark.parametrize(
    "fault, argv, message",
    [
        (
            wrong_seed,
            "root --p 13 --q 2 --val 3",
            "seed 5 fails x^2 = 3 (mod 13); criteria and lifting disagree",
        ),
        (
            wrong_last_digit,
            "root --p 7 --q 2 --val 2 --precision 4",
            "lifted value 0;3,1,2,0 fails r^2 = a mod p^4",
        ),
        (
            wrong_recomposition,
            "classify --p 5 --q 2 --val 6",
            "decomposition failed to recompose",
        ),
        (
            eta_a_power,
            "classify --p 7 --q 3 --val 2",
            "primitive root 3 mod 7 tested as a 3-th power",
        ),
    ],
    ids=["seed", "root", "recomposition", "nonresidue"],
)
def test_internal_error_exits_3(capsys, monkeypatch, fault, argv, message):
    fault(monkeypatch)
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: " + message + "\n"


# ---------------------------------------------------------------------------
# error handling


def test_error_nonprime_p(capsys):
    code = main(["check", "--p", "4", "--q", "2", "--val", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "prime" in captured.err


def test_error_zero_value(capsys):
    code, out = run_cli(capsys, "root", "--p", "5", "--q", "2", "--val", "0")
    assert code == 2


def test_error_malformed_value(capsys):
    code, out = run_cli(capsys, "root", "--p", "5", "--q", "2", "--val", "0;0,1")
    assert code == 2


def test_error_digit_out_of_range(capsys):
    code, out = run_cli(capsys, "check", "--p", "5", "--q", "2", "--val", "0;2,9")
    assert code == 2


def test_error_precision_cap(capsys):
    code, out = run_cli(
        capsys, "root", "--p", "5", "--q", "2", "--val", "2",
        "--precision", "20000",
    )
    assert code == 2


def test_error_square_digits_share_the_chain_message(capsys):
    # x^2 and x^4 over the 2-adics read their digits under one rule and
    # say so in one wording
    for q, need in (("2", 3), ("4", 4)):
        code = main(["check", "--p", "2", "--q", q, "--val", "5", "--precision", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: deciding x^{q} over the 2-adics needs the value known to "
            f"{need} digits, have {need - 1}\n"
        )


def test_error_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# process-level checks through a real interpreter


def run_process(*argv, timeout=120, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "padicroots", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        **kwargs,
    )


# what a verdict never uses: the decomposition and carry-term modules, and
# stdlib modules that only norm(), a dataclass or the json package load
UNUSED_BY_VERDICTS = {
    "padicroots.representation",
    "padicroots.multinomial",
    "fractions",
    "decimal",
    "dataclasses",
    "json",
}


def test_process_check_and_root_import_only_what_they_run():
    # the modules a bare interpreter already holds (a site .pth may preload
    # some) are left out, so that they neither pass nor fail the test
    probe = """
import sys
from padicroots.cli import main
codes = [
    main(["check", "--p", "5", "--q", "3", "--val", "2"]),
    main(["root", "--p", "7", "--q", "2", "--val", "2", "--format", "structured"]),
]
print("modules:", *sys.modules)
codes += [
    main(["classify", "--p", "7", "--q", "3", "--val", "2"]),
    main(["table", "--p-max", "13", "--format", "structured"]),
    main(["expand", "--p", "3", "--q", "3", "--digits", "1,2", "--k", "3"]),
]
print(codes)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(padicroots.cli.__file__).parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env=env, check=True,
        ).stdout.splitlines()
        for code in ('import sys; print("modules:", *sys.modules)', probe)
    ]
    baseline, loaded = (
        {m for line in out if line.startswith("modules:") for m in line.split()[1:]}
        for out in runs
    )
    assert "padicroots.roots" in loaded - baseline
    assert (loaded - baseline) & UNUSED_BY_VERDICTS == set()
    out = runs[1]
    assert out[-1] == "[0, 0, 0, 0, 0]"
    assert "form: coprime_with_eta" in out and "N_3 = 8" in out
    assert '  "command": "table",' in out


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_process_expand_over_the_list_cap_exits_quickly():
    # 6,292,068 terms of 100 exponents once took gigabytes and died with
    # MemoryError; the count is refused before any term is built.  The
    # process gets 1 GiB of address space, so that a lost bound fails here
    # instead of exhausting the machine's memory.
    for q, k in (("10", "100"), ("3", "600")):
        done = run_process(
            "expand", "--p", "3", "--q", q, "--digits", "1", "--k", k,
            timeout=5, preexec_fn=_cap_address_space,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert "more than the 1000000 expand lists" in done.stderr


def test_process_expand_without_terms_answers_at_any_k():
    # q = 1 has no terms at any k, so nothing of length k is built; the
    # same 1 GiB cap holds the process
    done = run_process(
        "expand", "--p", "3", "--q", "1", "--digits", "1", "--k", "1000000000",
        timeout=5, preexec_fn=_cap_address_space,
    )
    assert done.returncode == 0
    assert done.stdout.endswith(
        "  (none)\nN_1000000000 = 0\ncoefficient of p^1000000000 = 0\n"
    )


def test_process_root_exit_codes():
    ok = run_process("root", "--p", "5", "--q", "3", "--val", "2")
    assert ok.returncode == 0 and "0;3," in ok.stdout
    bad = run_process("check", "--p", "6", "--q", "2", "--val", "5")
    assert bad.returncode == 2


def test_process_console_script_equivalence():
    a = run_process("table", "--p-max", "13")
    assert a.returncode == 0
    assert a.stdout == TABLE_13


def test_process_digit_literal_with_huge_valuation_answers():
    # a valuation near 10^6 is kept as it is, never expanded as p^|g|
    done = run_process(
        "check", "--p", "1000003", "--q", "1000003", "--val=-1000003;5,1,2",
        "--precision", "5", timeout=20,
    )
    assert done.returncode == 0
    assert "value: -1000003;5,1,2,0,0,0" in done.stdout
    assert "case: q_equals_p" in done.stdout


def test_process_classify_with_many_roots_answers_quickly():
    # q | p - 1 with 166,667 roots of unity: classify lifts one root
    done = run_process(
        "classify", "--p", "1000003", "--q", "166667", "--val", "5",
        "--precision", "4", timeout=2,
    )
    assert done.returncode == 0
    assert "form: coprime_with_eta" in done.stdout
    assert "y: 0;981639,523728,136694,2" in done.stdout
