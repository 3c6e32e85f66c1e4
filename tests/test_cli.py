"""End-to-end tests of the command-line surface.

Most cases drive main() in process and inspect captured output; a few
run the installed module through a real interpreter to pin process exit
codes.  Structured output must carry the same data as the plain text.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from datetime import timedelta
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import bruteforce as bf
import padicroots.cli
import padicroots.representation
import padicroots.roots
from anchors import ADMITTED_ANCHORS, REFUSED_ANCHORS
from padicroots.cli import (
    LIFT_WORK_BUDGET,
    LIST_CAP,
    PRECISION_CAP,
    ROOT_DIGIT_BUDGET,
    _json,
    _Runs,
    _Terms,
    main,
)
from padicroots.congruence import _MR_PROVEN_BOUND
from padicroots.multinomial import nk_sequence
from padicroots.representation import (
    TABLE_BOUND,
    derived_epsilon_set,
    j_no_solution_table,
)
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
        "congr pow-residue --a 1 --n 20 --m 41",
        "congr linear --a 3 --b 0 --n -6",
        "expand --p 5 --q 4 --digits 1,2,3,4 --k 6",
        "expand --p 3 --q 3 --digits 1,1 --k 1",
    ],
)
def test_structured_output_is_stdlib_json(capsys, argv):
    # every command's JSON is what json.dumps(..., indent=2) writes
    code, out = run_cli(capsys, *argv.split(), "--format", "structured")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("length", [1, 2, 999, 1000, 1001, 2500])
@pytest.mark.parametrize(
    "start", [0, 998, 999, 1000, 9_998, 99_999, 10**6 - 2, 10**30]
)
def test_json_runs_across_blocks(start, length):
    # a run written from block text: below 1000, into a block, over one or
    # two block edges, into more digits, and far past the table's blocks
    runs = _Runs([range(start, start + length)])
    flat = list(chain(*runs))
    assert _json(runs) == json.dumps(flat, indent=2)
    nested = {"rows": [{"runs": runs}, runs]}
    assert _json(nested) == json.dumps({"rows": [{"runs": flat}, flat]}, indent=2)


_json_leaves = st.none() | st.booleans() | st.integers(-(10**40), 10**40) | st.text()
# runs of consecutive non-negative ints, one or more each, and some that
# span a block of 1000 or more
_json_runs = st.lists(
    st.builds(
        lambda start, n: range(start, start + n),
        st.integers(0, 10**30) | st.integers(0, 10**6),
        st.integers(1, 6) | st.integers(1, 2500),
    ),
    max_size=5,
).map(_Runs)
# N_k terms with 2 or 3 exponents each, as nk_walk's text, empty lists of
# them too
_json_ints = st.integers(-(10**30), 10**30)
_json_terms = st.integers(2, 3).flatmap(
    lambda k: st.lists(
        st.tuples(
            st.lists(_json_ints, min_size=k, max_size=k).map(
                lambda e: ",".join(map(str, e))
            ),
            _json_ints,
            _json_ints,
        ),
        max_size=4,
    )
).map(_Terms)
_json_values = st.recursive(
    _json_leaves
    | st.lists(_json_ints | st.booleans())
    | st.lists(_json_ints).map(tuple)
    | _json_runs
    | _json_terms,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)


def _built_out(x):
    """x with every _Runs replaced by the list of its ints, and every
    _Terms by a list of one dict per term."""
    if type(x) is _Runs:
        return list(chain(*x))
    if type(x) is _Terms:
        return [
            {
                "exponents": list(map(int, e.split(","))),
                "coefficient": c,
                "value": v,
            }
            for e, c, v in x
        ]
    if type(x) is list:
        return [_built_out(v) for v in x]
    if type(x) is dict:
        return {k: _built_out(v) for k, v in x.items()}
    return x


@settings(max_examples=100, deadline=None)
@given(_json_values)
def test_json_writer_matches_stdlib(x):
    # non-ASCII and escaped strings, big negative ints, int lists with a
    # bool among them, int tuples, runs, terms (empty lists too), empty and
    # nested containers
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


def test_snapshot_requests_outside_the_benchmark_print_pinned_bytes():
    # tools/cli_snapshot.py's requests that no benchmark workload makes,
    # less the slow ADMITTED_ANCHORS, written as the tool writes them: any
    # change to what the command line prints to them changes the md5.
    # expand's size refusal prints the int-string limit, so the requests
    # run under the default one.
    path = README.parent / "tools" / "cli_snapshot.py"
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    argvs = [a for a in snapshot.fixed_requests() if " ".join(a) not in ADMITTED_ANCHORS]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        records = [snapshot.run(main, argv) for argv in argvs]
    finally:
        sys.set_int_max_str_digits(limit)
    data = (json.dumps(records, indent=1) + "\n").encode()
    assert (len(records), hashlib.md5(data).hexdigest()) == (
        787, "d23fcd84c4e03286825d7def578e63ae",
    )


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


def _blocks_grown(argv, calls):
    """How many more blocks are allocated after calls answers to argv, with
    the collector off, after a warm-up."""

    def answer(n):
        for _ in range(n):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0

    answer(3)
    gc.collect()
    gc.disable()
    try:
        answer(3)
        before = sys.getallocatedblocks()
        answer(calls)
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()


def test_structured_table_strands_no_tuples():
    # a table answer leaves nothing behind: under CPython 3.11 a tuple of
    # 20 items, or one resized after it was built, goes to a free list that
    # no later tuple is taken from, and stays there until a full collection
    # (without the collector, for good).  Warm up, then the blocks allocated
    # must not grow with the number of answers.
    calls = 200
    grown = _blocks_grown(["table", "--p-max", "150", "--format", "structured"], calls)
    assert grown < calls // 8, grown


def test_structured_congr_strands_no_more_than_plain():
    # a 20-solution answer: the solver's own 20-tuple is stranded under
    # CPython 3.11 in either form, but the structured form writes that
    # tuple as it is and builds no 20-item tuple of its own
    argv = ["congr", "pow-residue", "--a", "1", "--n", "20", "--m", "41"]
    calls = 200
    plain = _blocks_grown(argv, calls)
    structured = _blocks_grown(argv + ["--format", "structured"], calls)
    assert structured <= plain + calls // 8, (structured, plain)


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


def test_lift_work_rule_admits_exactly_the_budget(capsys, monkeypatch):
    # at p = 101 and 40 digits a lift runs at 40 * bitlen(100) = 280 bits:
    # d = gcd(q, 100) roots, each checked by a power to the bitlen(q)-bit q
    for cmd, q, d, b in (("root", "10", 10, 4), ("classify", "5", 5, 3)):
        argv = [cmd, "--p", "101", "--q", q, "--val", "1", "--precision", "40"]
        work = d * b * 280**2
        monkeypatch.setattr(padicroots.cli, "LIFT_WORK_BUDGET", work)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(padicroots.cli, "LIFT_WORK_BUDGET", work - 1)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {d} roots of 280 bits and {b}-bit powers are {work:.2e} "
            f"bit^2 of lift work, more than the {work - 1:.0e} {cmd} takes\n"
        )
    # check lifts nothing, so the rule does not bound it
    assert main(["check", "--p", "101", "--q", "10", "--val", "1"]) == 0


def test_modulus_rule_is_isqrt_against_the_list_cap(capsys, monkeypatch):
    # isqrt(113) = 10 is admitted and isqrt(127) = 11 refused, before the
    # value is read and before any unit group is built
    monkeypatch.setattr(padicroots.cli, "LIST_CAP", 10)
    for argv, name in (
        ("root --p {} --q 2 --val 4", "p"),
        ("classify --p {} --q 3 --val 2", "p"),
        ("congr pow-residue --a 2 --n 1 --m {}", "m"),
    ):
        assert main(argv.format(113).split()) == 0
        capsys.readouterr()
        assert main(argv.format(127).split()) == 2
        cmd = argv.split()[0]
        assert capsys.readouterr().err == (
            f"error: {name} = 127 takes trial divisors up to 11, more than the 10 "
            f"{cmd} takes\n"
        )
    # a modulus below 2 keeps the solver's own message
    assert main("congr pow-residue --a 2 --n 1 --m=-200".split()) == 2
    assert capsys.readouterr().err == "error: modulus must be at least 2\n"


def test_admit_refuses_before_any_work(capsys, monkeypatch):
    # every bound is checked before the command body runs: a body that
    # would fail the test is never reached
    def untouched(args):
        raise AssertionError(f"{args.command} ran past its admission rule")

    for cmd in padicroots.cli._DISPATCH:
        monkeypatch.setitem(padicroots.cli._DISPATCH, cmd, untouched)
    for argv in (
        "check --p 5 --q 2 --val 1 --precision 10001",
        "root --p 1000003 --q 166667 --val 1 --precision 40",
        "root --p 1000000000000000003 --q 2 --val 4",
        "classify --p 2147483647 --q 7 --val 5 --precision 10000",
        f"table --p-max {TABLE_BOUND + 1}",
        "congr linear --a 0 --b 0 --n 100000000000",
        "congr pow-residue --a 2 --n 3 --m 1000000000000000003",
        "congr pow-residue --a 1 --n 2000004 --m 1000003",
        "expand --p 3 --q 3 --digits 1 --k 600",
    ):
        assert main(argv.split()) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


def test_expand_at_a_huge_q(capsys):
    # q * log10(base) is taken exactly, so a q past the float range neither
    # overflows nor is admitted when its integers are large
    q = str(10**400)
    argv = ["expand", "--p", "3", "--q", q, "--k", "1", "--digits"]
    code, out = run_cli(capsys, *argv, "1")
    assert code == 0 and out.endswith("coefficient of p^1 = 0\n")
    assert main(argv + ["1,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: integers up to 2^{q} (30102999566398")
    assert err.endswith(" digits) exceed the 4300-digit limit\n")


def test_readme_bounds_table_names_the_constants():
    # every `NAME` = value in the table is the constant's value
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n### Bounds\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == "| Command | Rule | Constant | At the bound |"
    found = re.findall(r"`(\w+)` = ([\d,]+)", "\n".join(rows))
    constants = {
        "PRECISION_CAP": PRECISION_CAP,
        "ROOT_DIGIT_BUDGET": ROOT_DIGIT_BUDGET,
        "LIFT_WORK_BUDGET": LIFT_WORK_BUDGET,
        "LIST_CAP": LIST_CAP,
        "TABLE_BOUND": TABLE_BOUND,
        "_MR_PROVEN_BOUND": _MR_PROVEN_BOUND,
    }
    assert {name for name, _ in found} == set(constants)
    for name, value in found:
        assert int(value.replace(",", "")) == constants[name], name


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
    "q, k",
    [(7, 25), (6, 22), (5, 25), (7, 18), (4, 25), (3, 25)]
    + [(q, k) for q in range(1, 6) for k in range(1, 9)],
)
def test_plain_expand_terms_match_the_term_tuples(capsys, q, k):
    # the term lines come from the walk's exponent text; render them again
    # from the terms listed by the partitions of k, at the benchmark's
    # shapes and the small ones
    p = 13
    digits = [(7 * i + 3) % p for i in range(k + 1)]
    code, out = run_cli(
        capsys, "expand", "--p", str(p), "--q", str(q), "--k", str(k),
        "--digits", ",".join(map(str, digits)),
    )
    assert code == 0
    lines = out.splitlines()
    head = lines.index(f"N_{k} terms (m_0,...,m_{k - 1}):")
    tail = lines.index(f"N_{k} = {nk_sequence(q, digits, k)[k - 1]}")
    want = [
        "  (" + ",".join(map(str, e)) + ")"
        + f"  coeff {c}  value {c * math.prod(map(pow, digits, e))}"
        for e, c in bf.nk_terms(q, k)
    ]
    assert lines[head + 1 : tail] == (want or ["  (none)"])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 13]),
    st.integers(1, 7),
    st.integers(1, 12),
    st.lists(st.integers(0, 12), min_size=1, max_size=14),
)
@example(p=3, q=1, k=4, digits=[1, 2])  # x^1 has no terms
@example(p=5, q=3, k=1, digits=[4])  # neither has N_1
def test_structured_expand_is_stdlib_json_of_dict_terms(p, q, k, digits):
    # the terms are written without a dict per term; the text must be what
    # json.dumps writes for those dicts, with the terms listed by the
    # partitions of k and N_k taken from the generating polynomial
    digits = [d % p for d in digits]
    argv = ["expand", "--p", str(p), "--q", str(q), "--k", str(k)]
    argv += ["--digits", ",".join(map(str, digits)), "--format", "structured"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    padded = digits + [0] * (k + 1 - len(digits))
    terms = [
        {
            "exponents": list(e),
            "coefficient": c,
            "value": c * math.prod(map(pow, padded, e)),
        }
        for e, c in bf.nk_terms(q, k)
    ]
    nk = nk_sequence(q, padded, k)[k - 1]
    lead = q * padded[0] ** (q - 1) * padded[k]
    payload = {
        "command": "expand",
        "p": p,
        "q": q,
        "k": k,
        "digits": digits,
        "terms": terms,
        "n_k": nk,
        "leading_term": lead,
        "coefficient_total": lead + nk,
    }
    assert sum(t["value"] for t in terms) == nk
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


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
        (
            "expand --p 3 --q 2 --digits 1 --k 1000000000",
            "one term of N_1000000000 lists 1000000000 exponents, more than "
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
        "expand-terms-over-cap", "expand-exponents-over-cap",
        "expand-one-term-over-cap", "table-pmax2",
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
    # and an option given by a prefix of its name
    for argv in (
        "frobnicate",
        "check --p 5 --q 3 --val 2 --prec 3",
        "check --p 5 --q 3 --val 2 --form structured",
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2, argv


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


def test_process_check_at_a_64_bit_prime_answers_quickly():
    # is_prime of 10^18 + 3 once trial-divided up to 10^9
    done = run_process(
        "check", "--p", "1000000000000000003", "--q", "2", "--val", "3", timeout=5
    )
    assert done.returncode == 0
    assert "verdict: unsolvable" in done.stdout


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


@pytest.mark.parametrize("argv", REFUSED_ANCHORS)
def test_process_refused_anchor_exits_2_at_once(argv):
    start = time.monotonic()
    done = run_process(*argv.split(), timeout=5, preexec_fn=_cap_address_space)
    elapsed = time.monotonic() - start
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert elapsed < 1, elapsed


def test_process_admitted_anchors_answer():
    # all at once, each in 1 GiB of address space
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "padicroots", *argv.split()],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=_cap_address_space,
        )
        for argv in ADMITTED_ANCHORS
    ]
    for argv, proc in zip(ADMITTED_ANCHORS, procs):
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, ""), argv
        assert out


# ---------------------------------------------------------------------------
# argv fuzz: every request exits 0 or 2


FUZZ_PRIMES = [
    0, 1, 4, 2, 5, 101, 1009, 10**6 + 3, 2**31 - 1, 10**12 + 39, 10**18 + 3,
    3317044064679887385961813, 3317044064679887385961981,
]


def _join(ds):
    return ",".join(map(str, ds))


def _digit_list(draw, p):
    """A digit list for p: in range (half the draws), out of range,
    overlong or malformed."""
    top = max(min(p, 1000) - 1, 0)
    in_range = st.lists(st.integers(0, top), min_size=1, max_size=12).map(_join)
    return draw(
        in_range
        | in_range
        | st.lists(st.integers(-1, top + 2), max_size=12).map(_join)
        | st.integers(1, 3000).map(lambda n: _join([1] * n))
        | st.text(alphabet=" ,;/-+_x0123456789", max_size=12)
    )


@st.composite
def fuzz_argv(draw):
    cmd = draw(st.sampled_from(list(padicroots.cli._DISPATCH)))
    # the listed values, and the primes a request can lift at more often
    p = draw(st.sampled_from(FUZZ_PRIMES) | st.sampled_from([2, 5, 101, 1009, 1000003]))
    q = draw(
        st.integers(-1, 12)
        | st.integers(2, 12)
        | st.just(p)
        | st.integers(1, 10**6).map(lambda m: m * p)  # multiples of p
        | st.integers(0, 12_000).map(lambda e: 2**e)  # up to 3,613 digits
    )
    big = st.integers(-(10**40), 10**40)
    if cmd in ("check", "root", "classify"):
        gamma = st.integers(-40, 40) | st.sampled_from([-(10**4000), 10**4000])
        val = draw(
            st.tuples(big, big).map(lambda nd: f"{nd[0]}/{nd[1]}")
            | big.map(str)
            | gamma.map(lambda g: f"{g};" + _digit_list(draw, p))
            | st.text(alphabet=" ,;/-0123456789x", max_size=12)
        )
        precision = draw(
            st.integers(-2, 40)
            | st.sampled_from([PRECISION_CAP - 1, PRECISION_CAP, PRECISION_CAP + 1])
        )
        argv = [cmd, f"--p={p}", f"--q={q}", f"--val={val}", f"--precision={precision}"]
    elif cmd == "table":
        p_max = draw(st.integers(-5, 400) | st.sampled_from([TABLE_BOUND + 1, 10**30]))
        argv = [cmd, f"--p-max={p_max}"]
    elif cmd == "congr":
        big = st.integers(-(10**20), 10**20)
        a, n = draw(big | st.integers(-3, 12)), draw(big | st.integers(-3, 12))
        if draw(st.booleans()):
            argv = [cmd, "linear", f"--a={a}", f"--n={n}"]
            b = draw(st.none() | big | st.integers(-3, 12))
            argv += [] if b is None else [f"--b={b}"]
        else:
            m = draw(
                st.none()
                | st.integers(-3, 200)
                | st.sampled_from(FUZZ_PRIMES + [10**6 + 1, (10**6 + 1) ** 2])
                | st.integers(10**12, 10**19)
            )
            argv = [cmd, "pow-residue", f"--a={a}", f"--n={n}"]
            argv += [] if m is None else [f"--m={m}"]
    else:
        k = draw(st.integers(-1, 40) | st.integers(1, 40) | st.integers(0, 10**9))
        digits = _digit_list(draw, p)
        argv = [cmd, f"--p={p}", f"--q={q}", f"--digits={digits}", f"--k={k}"]
    if draw(st.booleans()):
        argv += ["--format", "structured"]
    return argv


@seed(19)
@settings(max_examples=100, deadline=timedelta(seconds=5), database=None)
@given(fuzz_argv())
def test_fuzzed_argv_exits_0_or_2(argv):
    # argparse refusals raise SystemExit(2); any other exception, exit 1
    # or exit 3 fails the test, and so does a draw past the deadline
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 2), (argv, err.getvalue())
