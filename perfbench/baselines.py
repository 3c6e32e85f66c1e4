"""Re-measure the single-request baselines recorded in ROADMAP.md through
the same in-process CLI call the benchmark uses, and check each answer.

    python3 perfbench/baselines.py

Each request runs once in this process, under a deadline of DEADLINE_S
seconds; one that misses it is reported as not finished.  Takes several
minutes at the parent commit.
"""

import signal
import sys
import time

import run as bench

BASELINES = [
    ["root", "--p", "101", "--q", "2", "--val", "4", "--precision", "1600"],
    ["root", "--p", "1009", "--q", "3", "--val", "8", "--precision", "400"],
    ["check", "--p", "5", "--q", "3", "--val", "2", "--precision", "10000"],
    ["table", "--p-max", "2000"],
    ["check", "--p", "1000000007", "--q", "3", "--val", "2"],
]
DEADLINE_S = 120.0


def main():
    sys.path.insert(0, str(bench.SRC))
    from padicroots.cli import main as cli_main

    import checks

    signal.signal(signal.SIGALRM, bench._on_alarm)
    for argv in BASELINES:
        t0 = time.perf_counter()
        ok, out = bench.call(cli_main, argv, DEADLINE_S)
        dt = time.perf_counter() - t0
        if not ok:
            print(f"{' '.join(argv)}: > {DEADLINE_S:g} s (did not finish)")
            continue
        reason = checks.check_output(argv, out)
        print(f"{' '.join(argv)}: {dt:.2f} s, {'correct' if reason is None else 'WRONG: ' + reason}")


if __name__ == "__main__":
    main()
