"""padicroots benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  NAME is one of the workloads in
workloads.py, or `all` to run each in turn.  One client drives the
program through its CLI entry point, `padicroots.cli.main(argv)`,
in-process, in a closed loop: one request at a time, the next sent when
the previous returns.  A pass is the workload's seeded request list plus
its deadline probes; passes repeat until S seconds have gone by, and every
run makes whole passes.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced passes with passes under the per-layer wrappers of
tracing.py, and reports per-layer metrics per traced pass plus the
tracing overhead.  Every distinct output is checked by checks.py, which does not
import the program.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 21
# Regular requests get a generous deadline so that a run always ends; a
# request that misses it counts as failed.
REQUEST_DEADLINE_S = 30.0
# The highest latency percentile reported needs ten samples beyond it.
P95_MIN_SAMPLES = 200

END_TO_END = {
    "requests_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class Deadline(BaseException):
    """Raised from SIGALRM inside a request that ran past its deadline.
    A BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise Deadline


def call(main, argv, deadline):
    """(ok, stdout text) of one CLI request."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except Deadline:
        rc = "deadline"
    except SystemExit as e:  # argparse rejects the argv
        rc = e.code
    except Exception as e:  # an uncaught program error fails this request only
        rc = repr(e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc == 0, out.getvalue()


def setup_sample(workload, seed):
    """Seconds one fresh process takes to import padicroots.cli and run
    the warm-up."""
    res = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.split()[-1])


class Run:
    """State of one workload run: outputs of the first pass, per-request
    failures, latencies and pass times."""

    def __init__(self, wl, main):
        self.main = main
        self.items = [(argv, REQUEST_DEADLINE_S, False) for argv in wl.requests]
        self.items += [(argv, workloads.PROBE_DEADLINE_S, True) for argv in wl.probes]
        self.first = [None] * len(self.items)  # first successful output
        self.fails = [0] * len(self.items)
        self.latencies = []
        self.pass_times = []  # seconds per pass, probes excluded
        self.passes = 0
        self.failed_s = 0.0  # seconds in failed calls, such as a probe's deadline wait

    def one_pass(self, tracer=None):
        busy = 0.0
        for i, (argv, deadline, probe) in enumerate(self.items):
            fn = self.main
            if tracer is not None:
                fn = lambda a, i=i: tracer.request(i, a, lambda: self.main(a))
            t0 = time.perf_counter()
            ok, out = call(fn, argv, deadline)
            dt = time.perf_counter() - t0
            if ok and self.first[i] is None:
                self.first[i] = out
            elif ok and out != self.first[i]:
                ok = False  # an answer that changes between passes
            if not ok:
                self.fails[i] += 1
                self.failed_s += dt
            elif not probe:
                self.latencies.append(dt)
            if not probe:
                busy += dt
            if tracer is not None:
                tracer.counts["cli.render.bytes"] += len(out.encode())
        self.pass_times.append(busy)
        self.passes += 1

    def loop(self, seconds, take_setup_sample):
        """Repeat whole passes until `seconds` of pass time have gone by.
        Between passes take the set-up samples that are due, spread evenly
        over the run so that their median sees the same machine load as
        the passes; their own time is left out.  Returns the pass time less
        the time of failed calls, and the set-up samples."""
        samples, elapsed = [], 0.0
        while self.passes == 0 or elapsed < seconds:
            while len(samples) < SETUP_SAMPLES and len(samples) * seconds / SETUP_SAMPLES <= elapsed:
                samples.append(take_setup_sample())
            t0 = time.perf_counter()
            self.one_pass()
            elapsed += time.perf_counter() - t0
        while len(samples) < SETUP_SAMPLES:
            samples.append(take_setup_sample())
        return elapsed - self.failed_s, samples


def root_digits(out):
    """Digits of every root a `root` answer prints."""
    lines = out.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("roots (")), len(lines))
    return sum(len(line.split(";")[1].split(",")) for line in lines[start + 1:] if ";" in line)


def check_all(run, warm_outputs):
    """(correct, wrong request indices, report lines)."""
    import checks  # sympy is imported only after the timed part

    wrong, lines = set(), []
    for i, (argv, _, _) in enumerate(run.items):
        if run.first[i] is None:
            continue
        reason = checks.check_output(argv, run.first[i])
        if reason:
            wrong.add(i)
            lines.append(f"WRONG {' '.join(argv)[:120]}: {reason}")
    for argv, (ok, out) in warm_outputs:
        reason = checks.check_output(argv, out) if ok else "request failed"
        if reason:
            lines.append(f"WRONG (warm-up) {' '.join(argv)[:120]}: {reason}")
    return not lines, wrong, lines


def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name](seed)

    from padicroots.cli import main

    signal.signal(signal.SIGALRM, _on_alarm)
    warm = [(argv, call(main, argv, REQUEST_DEADLINE_S)) for argv in wl.warmup]
    run = Run(wl, main)
    if trace:
        import tracing

        # untraced and traced passes alternate (in ABBA order), so that the
        # overhead compares passes made under the same load on a shared machine
        tracer = tracing.Tracer()
        ratios = []
        t0 = time.perf_counter()
        while not ratios or time.perf_counter() - t0 < seconds:
            traced_first = len(ratios) % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.install()
                    try:
                        run.one_pass(tracer)
                    finally:
                        tracer.uninstall()
                    t_traced = run.pass_times[-1]
                else:
                    run.one_pass()
                    t_plain = run.pass_times[-1]
            ratios.append(t_traced / t_plain)
    else:
        elapsed, setup_samples = run.loop(seconds, lambda: setup_sample(name, seed))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct, wrong, report = check_all(run, warm)
    for i in wrong:
        run.fails[i] = run.passes
    attempted = run.passes * len(run.items)
    failed = sum(run.fails)
    print(f"workload {name}: seed {seed}, {run.passes} passes of {len(wl.requests)} requests "
          f"+ {len(wl.probes)} probes, attempted {attempted}, failed {failed}")
    for i, n in enumerate(run.fails):
        if n:
            print(f"  failed x{n}: {' '.join(run.items[i][0])[:120]}")
    for line in report:
        print("  " + line)

    lat_ms = sorted(x * 1000 for x in run.latencies)
    if trace:
        metrics = tracer.summary(len(ratios))
        metrics["trace.overhead_pct"] = (statistics.median(ratios) - 1) * 100
        units = tracing.METRICS
        print(f"  traced {len(ratios)} of {run.passes} passes; wrapped: {', '.join(tracer.found)}")
        print(f"  not found: {', '.join(tracer.missing) or 'none'}; "
              f"caches read: {', '.join(tracer.cache_names()) or 'none'}")
    else:
        completed = attempted - failed
        metrics = {
            "requests_per_s": completed / elapsed,
            "peak_rss_mib": peak_rss_mib,
            "setup_s": statistics.median(setup_samples),
        }
        units = END_TO_END
        # latencies are printed for people but are not BENCHMARK.json
        # metrics: the median of cheap, interpreter-bound requests moves by
        # up to a quarter between runs on a shared machine
        if lat_ms:
            print(f"  latency_p50_ms = {statistics.median(lat_ms):.4f} ms ({len(lat_ms)} samples)")
        if len(lat_ms) >= P95_MIN_SAMPLES:
            p95 = statistics.quantiles(lat_ms, n=20)[-1]
            print(f"  latency_p95_ms = {p95:.4f} ms ({len(lat_ms)} samples)")
        else:
            print(f"  latency_p95_ms: not reported, {len(lat_ms)} samples < {P95_MIN_SAMPLES}")
        digits = sum(root_digits(run.first[i]) for i, (argv, _, _) in enumerate(run.items)
                     if argv[0] == "root" and run.first[i] is not None and i not in wrong)
        if digits:
            print(f"  root_digits_per_s = {digits * run.passes / elapsed:.1f} digits/s")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "padicroots" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a padicroots checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # each workload in a fresh process, so that none inherits another's
    # warm caches or peak memory
    results = {}
    for name in sorted(workloads.WORKLOADS):
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        print(res.stdout, end="")
        results[name] = json.loads(res.stdout.splitlines()[-1])
    print("summary:")
    for name, r in results.items():
        figures = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"  {name}: correct {r['correct']}, attempted {r['attempted']}, failed {r['failed']}; {figures}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
