"""Set-up time of one fresh process: import padicroots.cli, then run the
workload's warm-up requests, which fill the program's own caches.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken.  run.py takes the median over several of these,
spread over the measured run.
"""

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
from padicroots.cli import main  # noqa: E402  (the import is what is timed)

for argv in wl.warmup:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(argv)
print(time.perf_counter() - t0)
