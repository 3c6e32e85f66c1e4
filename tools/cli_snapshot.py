"""Record what the command line answers to a fixed set of requests.

    python3 tools/cli_snapshot.py OUT.json [--src DIR]

Runs padicroots.cli.main in process for each request and writes a JSON
list of [argv, exit code, stdout, stderr].  Two snapshots of the same
requests diff to nothing when two versions of the program print the same
bytes.  The requests are:

* every warm-up and regular request of the benchmark workloads
  (perfbench/workloads.py, imported read-only) at seeds 1-5, each in plain
  and in structured form;
* every `$ padicroots ...` command in README.md, in both forms;
* a classify grid: p in {2, 3, 5, 7, 11, 13, 31, 101}, q in
  (2, 3, 4, 5, 7, 10, p, p+1), six values each, which reaches all three
  forms and every classify refusal;
* a congr grid in both forms: linear with a in {0, 3, -4}, b in
  {0, 2, -5} and n in {-6, 1, 12, 35}, and pow-residue with n in
  {1, 2, 3, 6}, a in {1, 2, 7} and m in {7, 12, 27, 50}, which reaches
  a = 0 (mod n), a negative modulus and moduli whose units are not cyclic;
* an expand grid in both forms: p in {3, 13, 1000003}, q in
  {1, 2, 7, 2000}, k in {1, 2, 25} and digits 1, 2,1,1 and p-1,1, which
  reaches the size refusal (1000003^2000 has 12,001 digits) without
  requests that run for seconds;
* expand at (q, k) in {(2, 1000), (3, 200), (7, 25)} in both forms, at
  p = 13 with digits d_i = (7i + 3) mod 13 up to d_k; (3, 200) lists
  686,600 exponents (3,433 terms of 200), under the 1,000,000-integer
  list bound, and `expand --q 3 --k 600` (30,300 terms of 600
  exponents) is over it;
* structured `table` at --p-max 150 (the benchmark's) and 358, the largest
  table under the list bound, and `table --p-max 359 --format
  structured`, the least table over it (1,000,487 epsilon entries);
* plain `table --p-max 2000`, the rows of every odd prime below 2000;
* ADMITTED_ANCHORS (tests/anchors.py), plain requests near the command
  line's bounds, 0.1 to 1.0 s each as a process: lifts at p up to
  10^12 + 39 and 10^4 digits, classify with 166,667 roots of unity, a
  pow-residue modulus near 10^12, and check at a 25-digit prime.  The
  requests those bounds refuse are left out: before the bounds, some of
  them ran for minutes.

--src picks the directory padicroots is imported from (default: this
checkout's src), so one checkout's requests can run against another's
program.  It prints the record count and the md5 of the file it wrote,
so two snapshots compare by one line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 6)
CLASSIFY_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101)
CLASSIFY_VALUES = ("1", "2", "15", "-7/9", "2;1,0,2", "-1;1,1")


def both_forms(argv: list[str]) -> list[list[str]]:
    """argv without any --format, then with --format structured."""
    plain = list(argv)
    if "--format" in plain:
        k = plain.index("--format")
        del plain[k : k + 2]
    return [plain, plain + ["--format", "structured"]]


def requests() -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from anchors import ADMITTED_ANCHORS
    from workloads import WORKLOADS

    out = []
    for name, build in WORKLOADS.items():
        for seed in SEEDS:
            w = build(seed)
            for argv in w.warmup + w.requests:
                out += both_forms(argv)
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("$ padicroots "):
            out += both_forms(shlex.split(line)[2:])
    for p in CLASSIFY_PRIMES:
        for q in (2, 3, 4, 5, 7, 10, p, p + 1):
            for val in CLASSIFY_VALUES:
                out.append(["classify", "--p", str(p), "--q", str(q), f"--val={val}"])
    for a, b, n in product((0, 3, -4), (0, 2, -5), (-6, 1, 12, 35)):
        out += both_forms(["congr", "linear", f"--a={a}", f"--b={b}", f"--n={n}"])
    for n, a, m in product((1, 2, 3, 6), (1, 2, 7), (7, 12, 27, 50)):
        out += both_forms(["congr", "pow-residue", f"--a={a}", f"--n={n}", f"--m={m}"])
    for p, q, k in product((3, 13, 1000003), (1, 2, 7, 2000), (1, 2, 25)):
        for digits in ("1", "2,1,1", f"{p - 1},1"):
            out += both_forms(
                ["expand", "--p", str(p), "--q", str(q), "--digits", digits, "--k", str(k)]
            )
    for q, k in ((2, 1000), (3, 200), (7, 25)):
        digits = ",".join(str((7 * i + 3) % 13) for i in range(k + 1))
        out += both_forms(
            ["expand", "--p", "13", "--q", str(q), "--digits", digits, "--k", str(k)]
        )
    out.append(["expand", "--p", "3", "--q", "3", "--digits", "1", "--k", "600"])
    for p_max in (150, 358, 359):
        out.append(["table", "--p-max", str(p_max), "--format", "structured"])
    out.append(["table", "--p-max", "2000"])
    out += [line.split() for line in ADMITTED_ANCHORS]
    return out


def run(main, argv: list[str]) -> list:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusals and --help
            code = e.code
    return [argv, code, stdout.getvalue(), stderr.getvalue()]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding padicroots")
    args = ap.parse_args()
    reqs = requests()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from padicroots.cli import main as cli_main

    records = [run(cli_main, argv) for argv in reqs]
    data = (json.dumps(records, indent=1) + "\n").encode()
    Path(args.out).write_bytes(data)
    print(f"{len(records)} requests -> {args.out} (md5 {hashlib.md5(data).hexdigest()})")


if __name__ == "__main__":
    main()
