"""One workload in one fresh interpreter; prints one JSON line and exits.

Started by run.py, one worker at a time.  Set-up is everything from
interpreter start to `ready`: importing chmv from the checkout's `src/`
and generating the seeded inputs.  Modes:

  setup    stop once the inputs exist (a set-up time sample)
  measure  repeat passes over the inputs until --seconds have elapsed
  pass     run exactly --passes passes (fixed work, so traced counts repeat)

With --trace-out the chmv modules are wrapped by tracer.install before the
first pass, and the span log is written to that path at the end.

Machine speed.  On shared 2-vCPU x86-64 hosts (CPython 3.11.7) the same
pass ran up to 1.5 times slower for minutes at a time, and the first second
of a process up to 1.7 times slower.  So before the first pass the worker
spins for WARMUP_S on reference_unit, plain Fraction arithmetic that never
touches chmv (the program stays cold).  On algebra-eval and cli-queries a
timer signal then times reference_unit every SAMPLE_PERIOD_S while the
worker measures; the sampling time is taken out of every measured interval,
and each pass, with its ops, is scaled by REFERENCE_UNIT_S over the
reference time measured during it, so the figures are seconds at nominal
speed.  Over five seeds on such a host drifting by 20-25 %, this brought
the spread of pass_s from about 20 % to 3 %.  The set-up time is scaled by
a sample taken right after set-up.  Selftest passes and traced runs are not
scaled (see run_selftest).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_chmv():
    if not (SRC / "chmv" / "__init__.py").is_file():
        sys.exit(f"no chmv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chmv
    import chmv.cli  # also imports chmv.verify

    if Path(chmv.__file__).resolve().parent != (SRC / "chmv").resolve():
        sys.exit(f"imported chmv from {chmv.__file__}, not from {SRC}")
    return chmv


WARMUP_S = 1.0
SAMPLE_PERIOD_S = 0.1
# Nominal time of reference_unit (CPython 3.11.7 on a warm x86-64 core).
REFERENCE_UNIT_S = 0.00065
LOG_CAPACITY = 500_000  # op latencies kept per worker; later ops are counted only


def reference_unit() -> int:
    """Fixed pure-Python work (Fraction arithmetic, tuples, a dict)."""
    one, zero = Fraction(1), Fraction(0)
    total, seen = zero, {}
    for i in range(1, 200):
        q = Fraction(i % 11, 10)
        total = min(total + q, one) if i % 3 else max(total - q, zero)
        seen[(i % 7, total)] = i
    return len(seen)


def reference_time(budget_s: float) -> float:
    """Median time of reference_unit over at least three runs and budget_s.

    The collector is off meanwhile, so the workload's heap does not leak
    into a figure meant to measure only the machine's speed.
    """
    clock = time.perf_counter
    start, samples = clock(), []
    gc.disable()
    try:
        while len(samples) < 3 or clock() - start < budget_s:
            t0 = clock()
            reference_unit()
            samples.append(clock() - t0)
    finally:
        gc.enable()
    return statistics.median(samples)


class Speedometer:
    """Warms the CPU up, then times reference_unit on a timer signal.

    `spent` is the time sampling has taken so far; callers subtract its
    growth from every interval they measure.  Disabled, it only warms up.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.stamps: list[float] = []
        self.refs: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_time(0.0))
        self.stamps.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        end = time.perf_counter() + WARMUP_S
        while time.perf_counter() < end:
            reference_unit()
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_UNIT_S over the median reference timed in [start, end]
        (or at the three samples nearest to it); 1 without samples."""
        if not self.refs:
            return 1.0
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.refs), mid + 1)
        return REFERENCE_UNIT_S / statistics.median(self.refs[lo:hi])

    def median_reference(self) -> float | None:
        return statistics.median(self.refs) if self.refs else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Log:
    """Op latencies (and the pass of each) in arrays sized up front, so the
    log does not grow the peak memory the worker reports; per-kind totals;
    the first failures."""

    def __init__(self) -> None:
        self.latency = array("d", [0.0]) * LOG_CAPACITY
        self.pass_of = array("I", [0]) * LOG_CAPACITY
        self.n = self.attempted = self.failed = 0
        self.kinds: dict[str, list] = {}  # kind -> [ops, calls, busy s, ops over 10^3 maps]
        self.failures: list[str] = []

    def record(self, op, dt: float, pass_index: int, problem: str | None) -> None:
        if self.n < LOG_CAPACITY:
            self.latency[self.n] = dt
            self.pass_of[self.n] = pass_index
            self.n += 1
        totals = self.kinds.setdefault(op.kind, [0, 0, 0.0, 0])
        totals[0] += 1
        totals[1] += op.calls
        totals[2] += dt
        totals[3] += op.maps > 1000
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)

    def report(self, pass_times: list[float], scale: list[float], speed: Speedometer) -> dict:
        """Pass and op times, scaled by the reference timed during each pass."""
        return {
            "maxrss_mb": peak_rss_mb(),  # before the lists below are built
            "passes": [t * k for t, k in zip(pass_times, scale)],
            "latencies": [self.latency[j] * scale[self.pass_of[j]] for j in range(self.n)],
            "raw_passes": pass_times,
            "reference_s": speed.median_reference(),
            "kinds": self.kinds, "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures,
        }


def run_passes(passes, seconds: float | None, count: int | None, speed: Speedometer) -> dict:
    """Closed loop over the ops of each pass: call, time, then check."""
    clock = time.perf_counter
    log, pass_times, scale = Log(), [], []
    deadline = None if seconds is None else clock() + seconds
    i = 0
    while True:
        busy, start = 0.0, clock()
        for op in passes[i % len(passes)]:
            spent, t0 = speed.spent, clock()
            try:
                result = op.call()
            except Exception as exc:  # a failed op is counted, the loop goes on
                problem = f"{op.kind} raised {exc!r}"
            else:
                problem = None
            dt = clock() - t0 - (speed.spent - spent)
            if problem is None:
                try:
                    problem = op.check(result)
                except Exception as exc:
                    problem = f"checking {op.kind} raised {exc!r}"
            busy += dt
            log.record(op, dt, i, problem)
        pass_times.append(busy)
        scale.append(speed.scale(start, clock()))
        i += 1
        if (count is not None and i >= count) or (deadline is not None and clock() >= deadline):
            break
    return log.report(pass_times, scale, speed)


def run_selftest(chmv, plan) -> dict:
    """One cold `run_all`: the whole selftest is the op a user waits for.

    Each suite's output is checked, so `attempted` counts suites; a thin
    wrapper times each suite for the report.  The pass is not scaled: in
    the selftest's large heap the reference slowed with the heap rather than
    with the machine, and timed beside the pass (by the timer, in bursts
    around it, or once before it) it widened the spread instead of
    narrowing it.
    """
    from workloads import SUITE_NAMES, selftest_pass

    verify = chmv.verify
    clock = time.perf_counter
    times: dict[str, float] = {}
    for fn_name, suite in SUITE_NAMES.items():
        def timed(*args, _fn=getattr(verify, fn_name), _suite=suite, **kwargs):
            t0 = clock()
            try:
                return _fn(*args, **kwargs)
            finally:
                times[_suite] = clock() - t0
        setattr(verify, fn_name, timed)
    results, failures = selftest_pass(verify, *plan)
    wall = sum(times.values())
    return {"maxrss_mb": peak_rss_mb(), "passes": [wall], "latencies": [wall],
            "raw_passes": [wall], "reference_s": None,
            "kinds": {"selftest": [1, sum(r.checks for r in results), wall, 0]},
            "suite_times": times, "attempted": len(results), "failed": len(failures),
            "failures": failures[:5]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "pass"), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    chmv = import_chmv()
    import workloads  # the script's own directory is on sys.path

    if args.workload == "selftest-full":
        inputs = workloads.selftest_plan(args.seed, args.smoke)
    elif args.workload == "algebra-eval":
        inputs = workloads.algebra_eval_ops(chmv, args.seed, args.smoke)
    else:
        inputs = workloads.cli_queries_ops(chmv, args.seed, args.smoke)
    report = {"ready": time.monotonic(), "setup_reference_s": reference_time(0.03)}

    if args.mode != "setup":
        tracer = None
        if args.trace_out:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer, chmv)
        sampled = tracer is None and args.workload != "selftest-full"
        with Speedometer(enabled=sampled) as speed:
            if args.workload == "selftest-full":
                report.update(run_selftest(chmv, inputs))
            elif args.mode == "measure":
                report.update(run_passes(inputs, args.seconds, None, speed))
            else:
                report.update(run_passes(inputs, None, args.passes, speed))
        if tracer is not None:
            from tracer import layer_metrics

            spans = tracer.aggregate()
            report["layers"] = layer_metrics(spans, tracer.counts)
            report["span_names"] = sorted(spans)
            report["spans"] = len(tracer.start)
            tracer.dump(Path(args.trace_out))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
