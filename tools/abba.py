"""Run the benchmark on a parent revision and on HEAD in A B B A order.

    python3 tools/abba.py PARENT OUT.json [--blocks 5] [--seed 1] [--seconds 30]
        [--claim TEXT]

Extracts PARENT (A) and HEAD (B), their committed files only, with `git
archive` into temporary directories, and runs `perfbench/run.py
--workload all --seed S --seconds T` in each, one run at a time, in the
order A B B A repeated --blocks times, with the interpreter running this
script and PYTHONDONTWRITEBYTECODE=1, so that no run reads bytecode an
earlier one wrote.  Writes OUT.json with the order, every run's results,
and per workload and end-to-end metric each side's median and quartiles,
the pairs the change wins and the change's medians over the parent's.
Which way a metric is better comes from BENCHMARK.json.  Neither the
program nor the benchmark is imported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = ("parent", "change", "change", "parent")


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, and how
    often and by how much the change beats the parent.  parent[k] and
    change[k] are the k-th runs of each side, in the order they ran, and
    form pair k: in A B B A, the first A with the first B and the second B
    with the second A.  better maps a metric to "higher" or "lower"; a tie
    counts for neither side."""
    out = {}
    for workload in parent[0]:
        out[workload] = {}
        for metric, way in better.items():
            a = [run[workload]["metrics"][metric]["value"] for run in parent]
            b = [run[workload]["metrics"][metric]["value"] for run in change]
            won = sum(y > x if way == "higher" else y < x for x, y in zip(a, b))
            out[workload][metric] = {
                "parent": _spread(a),
                "change": _spread(b),
                "change_better_in_pairs": f"{won} of {len(a)}",
                "median_change_over_parent": statistics.median(b) / statistics.median(a),
                "median_change_over_parent_per_pair": statistics.median(
                    [y / x for x, y in zip(a, b)]
                ),
            }
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def extract(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def bench(checkout: Path, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, *argv], cwd=checkout, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(res.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision to compare HEAD against")
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--blocks", type=int, default=5, help="A B B A blocks (default 5)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--claim", default="none", help="the gain the change claims")
    args = ap.parse_args()
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    argv = ["perfbench/run.py", "--workload", "all", "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}"]
    order = list(ORDER) * args.blocks
    runs: dict[str, list] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            dirs[side].mkdir()
            extract(rev, dirs[side])
        for k, side in enumerate(order, 1):
            runs[side].append(bench(dirs[side], argv))
            print(f"run {k} of {len(order)} ({side}) done", file=sys.stderr)
    parent_commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    record = {
        "parent_commit": parent_commit,
        "machine": f"Python {sys.version.split()[0]}, PYTHONDONTWRITEBYTECODE=1, "
        f"one run at a time, order A B B A repeated {args.blocks} times (A parent "
        f"{parent_commit}, B change), each side run from its own copy of the "
        "committed files",
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive') over "
        f"the {2 * args.blocks} runs of each side",
        "pairs": "each A B B A block gives two pairs, (A, B) and (B, A); a pair is "
        "better when the change's value is better, ties count for neither",
        "claim": args.claim,
        "runs": [{"command": "python3 " + " ".join(argv), "order": order, **runs}],
        "summary": {
            f"seed {args.seed}, all workloads": summarize(
                runs["parent"], runs["change"], better
            )
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(order)} runs -> {args.out}")


if __name__ == "__main__":
    main()
