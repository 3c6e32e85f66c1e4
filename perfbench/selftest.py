"""Self-test of the output checks: they must accept the program's genuine
answers and reject deliberately corrupted ones, which shows that they are
not vacuous.

    python3 perfbench/selftest.py

Exits 0 when every genuine answer passes and every corruption is
rejected, 1 otherwise.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from padicroots.cli import main  # noqa: E402


def answer(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"program failed on {argv}")
    return buf.getvalue()


def replace_line(out, prefix, new):
    lines = out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = new(lines[i])
    return "\n".join(lines)


def flip_digit(line, index, p):
    head, _, tail = line.partition(";")
    digits = tail.split(",")
    digits[index] = str((int(digits[index]) + 1) % p)
    return f"{head};{','.join(digits)}"


def drop_root(out):
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("roots ("))
    n = int(lines[start][7:-2])
    del lines[start + 1]
    lines[start] = f"roots ({n - 1}):"
    return "\n".join(lines)


def swap_verdict(line):
    return line.replace("unsolvable", "X").replace("solvable", "unsolvable").replace("X", "solvable")


def add_table_entry(line):
    # p=29 with j=12 listed, as a reference copy of the table has it;
    # 26^29 = 26 + 12*29 (mod 29^2) shows that row is wrong
    return line + ", 12" if line.startswith("p=29:") else line


def json_edit(out, edit):
    d = json.loads(out)
    edit(d)
    return json.dumps(d)


ROOT5 = ["root", "--p", "5", "--q", "4", "--val", "16", "--precision", "20"]
ROOT2 = ["root", "--p", "2", "--q", "2", "--val=-2;1,0,0,1,1", "--precision", "30"]
CHECK_YES = ["check", "--p", "101", "--q", "2", "--val", "4/9", "--precision", "25"]
CHECK_NO = ["check", "--p", "5", "--q", "5", "--val", "2", "--precision", "25"]
CLASSIFY_QP = ["classify", "--p", "5", "--q", "5", "--val", "3", "--precision", "20"]
CLASSIFY_ETA = ["classify", "--p", "101", "--q", "5", "--val", "3", "--precision", "20"]
TABLE = ["table", "--p-max", "41"]
TABLE_JSON = ["table", "--p-max", "41", "--format", "structured"]
CONGR = ["congr", "pow-residue", "--a", "4", "--n", "2", "--m", "9765625"]
LINEAR = ["congr", "linear", "--a", "6", "--b", "12", "--n", "90", "--format", "structured"]
EXPAND = ["expand", "--p", "5", "--q", "5", "--digits", "1,2,3,4", "--k", "6"]

CORRUPTIONS = [
    ("flipped root digit", ROOT5, lambda o: replace_line(o, "  0;", lambda l: "  " + flip_digit(l.strip(), -1, 5))),
    ("flipped 2-adic root digit", ROOT2, lambda o: replace_line(o, "  -1;", lambda l: "  " + flip_digit(l.strip(), 3, 2))),
    ("dropped root", ROOT5, drop_root),
    ("dropped 2-adic root", ROOT2, drop_root),
    ("swapped verdict (solvable)", CHECK_YES, lambda o: replace_line(o, "verdict:", swap_verdict)),
    ("swapped verdict (unsolvable)", CHECK_NO, lambda o: replace_line(o, "verdict:", swap_verdict)),
    ("changed value digit", CHECK_YES, lambda o: replace_line(o, "value:", lambda l: "value: " + flip_digit(l[7:], 2, 101))),
    ("wrong table row", TABLE, lambda o: "\n".join(add_table_entry(l) for l in o.splitlines())),
    ("wrong structured table row", TABLE_JSON,
     lambda o: json_edit(o, lambda d: d["rows"][-1]["j_no_solution"].pop())),
    ("wrong epsilon", CLASSIFY_QP, lambda o: replace_line(o, "epsilon:", lambda l: "epsilon: 1")),
    ("wrong y digit", CLASSIFY_ETA, lambda o: replace_line(o, "y:", lambda l: "y: " + flip_digit(l[3:], 4, 101))),
    ("extra congruence solution", CONGR,
     lambda o: replace_line(replace_line(o, "solutions mod", lambda l: l + ", 3"),
                            "count:", lambda l: f"count: {int(l[7:]) + 1}")),
    ("dropped linear solution", LINEAR,
     lambda o: json_edit(o, lambda d: (d["representatives"].pop(), d.update(count=d["count"] - 1)))),
    ("wrong N_k", EXPAND, lambda o: replace_line(o, "N_6 =", lambda l: l + "1")),
]


def run():
    bad = []
    genuine = {tuple(argv) for _, argv, _ in CORRUPTIONS}
    answers = {argv: answer(list(argv)) for argv in genuine}
    for argv, out in answers.items():
        reason = checks.check_output(list(argv), out)
        if reason:
            bad.append(f"genuine answer rejected: {' '.join(argv)}: {reason}")
    for what, argv, corrupt in CORRUPTIONS:
        out = answers[tuple(argv)]
        forged = corrupt(out)
        if forged == out:
            bad.append(f"{what}: corruption left the answer unchanged")
            continue
        reason = checks.check_output(argv, forged)
        print(f"{what:32s} -> {'rejected: ' + reason if reason else 'ACCEPTED'}")
        if not reason:
            bad.append(f"{what}: corrupted answer accepted")
    for line in bad:
        print("FAIL " + line)
    print(f"selftest: {len(answers)} genuine answers, {len(CORRUPTIONS)} corruptions, "
          f"{len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run())
