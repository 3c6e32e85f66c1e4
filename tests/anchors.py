"""Requests at the edges of the command line's admission rules, shared by
tests/test_cli.py and tools/cli_snapshot.py.

Before the rules the refused ones ran for seconds, or past 25 s until
killed; the admitted ones answer in 0.1 to 1.0 s each as a process on a
shared 2-vCPU VM, and under 20 MiB of peak RSS each.  The two at
p = m = 10^12 + 39 took 1.7 and 1.0 s at 121 MiB while their unit group
kept one baby-step table for the whole group.
"""

REFUSED_ANCHORS = [
    "classify --p 1000003 --q 166667 --val 5 --precision 100",
    "classify --p 2147483647 --q 7 --val 5 --precision 10000",
    "root --p 2147483647 --q 7 --val 2187 --precision 10000",
    "congr pow-residue --a 2 --n 3 --m 100000000000031",
    "root --p 1000000000000000003 --q 2 --val 4",
    "congr pow-residue --a 2 --n 3 --m 1000000000000000003",
    "check --p 3317044064679887385961981 --q 2 --val 3",
]
ADMITTED_ANCHORS = [
    "classify --p 1000003 --q 166667 --val 5 --precision 4",
    "classify --p 1000003 --q 166667 --val 5",
    "root --p 2147483647 --q 2 --val 4 --precision 10000",
    "root --p 1000003 --q 2 --val 4 --precision 10000",
    "classify --p 1009 --q 3 --val 5 --precision 10000",
    "classify --p 1000003 --q 3 --val 5 --precision 7000",
    "root --p 1000000000039 --q 2 --val 4 --precision 7000",
    "congr pow-residue --a 2 --n 3 --m 1000000000039",
    "check --p 3317044064679887385961813 --q 3 --val 3/7 --precision 10000",
]
