"""The chmv benchmark: three workloads, end-to-end metrics and a traced layer table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload runs in fresh single-threaded interpreters (perfbench/worker.py),
one at a time, as a closed loop with one caller.  The seed fixes the inputs;
chmv receives only the generated inputs.  Every output is checked against a
reference kept in perfbench/workloads.py.

Workloads (the reasons are recorded in BENCHMARK.json):
  selftest-full  cold `verify.run_all("full")`, one fresh interpreter per pass
  algebra-eval   eval_term and apply_hom over all-finite products of L2..L7
  cli-queries    `chmv.cli.main([...])` with --format json, stdout captured

With --trace 0 the last stdout line carries these end-to-end metrics, the
same five on every workload.  An op is what one caller waits for: a whole
cold selftest, one eval_term call or one apply_hom batch, one CLI query.
  setup_s      median set-up time (interpreter start -> import chmv -> inputs
               generated) over several fresh interpreters
  peak_rss_mb  peak resident memory of a workload process (getrusage)
  pass_s       median time of one pass over the seeded inputs; on
               selftest-full this is the wall time of the ten suites
  op_p50_ms    median op latency
  op_p99_ms    99th-percentile op latency (the sample count is printed)
Times are time.perf_counter wall times.  On algebra-eval and cli-queries,
and for setup_s, they are scaled to a nominal machine speed by a reference
computation timed beside them (see worker.py); the unscaled median pass is
printed too.  The lines before the result
give the ROADMAP's names (selftest_s, evals_per_s, apply_per_s,
queries_per_s, query_p50_ms, query_p99_ms, failed_ratio) with their bases,
and the environment.

With --trace 1 a fixed amount of work runs once untraced and once traced,
and the last line carries the per-layer metrics of tracer.LAYERS; the span
log and a full report are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_UNIT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"

WORKLOADS = ("selftest-full", "algebra-eval", "cli-queries")
SETUP_SPAWNS = 5  # set-up-only interpreters per run, besides the measuring ones
TRACE_PASSES = {"selftest-full": 1, "algebra-eval": 8, "cli-queries": 2}
RUN_BUDGET_S = 170  # every run must end within 180 s
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s",
             "op_p50_ms": "ms", "op_p99_ms": "ms"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong output of chmv)."""


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Runner:
    """Spawns workers one at a time within the run's time budget."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, *extra]
        if self.smoke:
            cmd.append("--smoke")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} exceeded the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        report["setup_s"] = (report["ready"] - t0) * REFERENCE_UNIT_S / report["setup_reference_s"]
        return report


def measure(runner: Runner, seconds: float, setup_spawns: int) -> tuple[dict, list[dict]]:
    setups = [runner.spawn("setup") for _ in range(setup_spawns)]
    if runner.workload == "selftest-full":
        # every pass in a fresh interpreter: users always run the selftest cold
        workers: list[dict] = []
        start = time.monotonic()
        while True:
            workers.append(runner.spawn("pass"))
            elapsed = time.monotonic() - start
            last = workers[-1]["raw_passes"][0]
            if elapsed >= seconds or time.monotonic() + 1.5 * last > runner.deadline:
                break
    else:
        workers = [runner.spawn("measure", "--seconds", str(seconds))]
    passes = [t for w in workers for t in w["passes"]]
    latencies = [t for w in workers for t in w["latencies"]]
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in setups + workers),
        "peak_rss_mb": max(w["maxrss_mb"] for w in workers),
        "pass_s": statistics.median(passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
    }
    return metrics, setups + workers


def named_metrics(workload: str, metrics: dict, workers: list[dict]) -> list[str]:
    """The ROADMAP's per-workload metric names, each with its base."""
    measured = [w for w in workers if "kinds" in w]
    kinds: dict[str, list] = {}
    for w in measured:
        for kind, totals in w["kinds"].items():
            kinds[kind] = [a + b for a, b in zip(kinds.get(kind, [0, 0, 0.0, 0]), totals)]
    n = sum(len(w["latencies"]) for w in measured)
    raw = statistics.median(t for w in measured for t in w["raw_passes"])
    lines = [f"op latency: n={n} ops timed; p99 has {n - 1 - int(0.99 * (n - 1))} ops beyond it"]
    if measured[0]["reference_s"] is not None:
        reference = statistics.median(w["reference_s"] for w in measured)
        lines.append(f"speed: reference unit {reference * 1e3:.4f} ms (nominal "
                     f"{REFERENCE_UNIT_S * 1e3:.4f} ms); unscaled median pass {raw:.6f} s")
    if workload == "selftest-full":
        lines.append(f"selftest_s = {metrics['pass_s']:.4f} s (median of {n} cold passes, "
                     f"one interpreter each; {kinds['selftest'][1]} checks run)")
        for suite in measured[0]["suite_times"]:
            t = statistics.median(w["suite_times"][suite] for w in measured)
            lines.append(f"  {suite:<14} {t:10.4f} s ({t / raw:.1%})")
    elif workload == "algebra-eval":
        for kind, name in (("eval", "evals_per_s"), ("apply", "apply_per_s")):
            _, calls, busy, _ = kinds[kind]
            lines.append(f"{name} = {calls / busy:.1f} 1/s ({calls} calls in {busy:.3f} s busy, "
                         "unscaled)")
    else:
        queries = sum(k[0] for k in kinds.values())
        busy = sum(k[2] for k in kinds.values())
        big = sum(k[3] for k in kinds.values())
        lines += [
            f"queries_per_s = {queries / busy:.1f} 1/s ({queries} queries in {busy:.3f} s busy, "
            "unscaled)",
            f"query_p50_ms = {metrics['op_p50_ms']:.4f} ms, "
            f"query_p99_ms = {metrics['op_p99_ms']:.4f} ms (n={n})",
            f"queries with more than 10^3 maps: {big}/{queries} = {big / queries:.3f} "
            f"({big}/{kinds['homs'][0]} of homs queries)",
            "mix: " + ", ".join(f"{k} {v[0]}" for k, v in sorted(kinds.items())),
        ]
    return lines


def trace(runner: Runner) -> tuple[dict, list[dict], list[str], list[str]]:
    from tracer import LAYERS

    passes = str(TRACE_PASSES[runner.workload])
    untraced = runner.spawn("pass", "--passes", passes)
    spans_path = OUT / f"spans-{runner.workload}.bin"  # one per workload: ~60 MB for selftest
    traced = runner.spawn("pass", "--passes", passes, "--trace-out", str(spans_path))
    layers = dict(traced["layers"])
    layers["trace.untraced_s"] = sum(untraced["raw_passes"])
    layers["trace.traced_s"] = sum(traced["raw_passes"])
    layers["trace.overhead_s"] = layers["trace.traced_s"] - layers["trace.untraced_s"]
    layers["trace.spans"] = traced["spans"]

    base = layers["trace.traced_s"]
    lines = [f"per-layer table (traced pass: {base:.4f} s, untraced: "
             f"{layers['trace.untraced_s']:.4f} s, overhead {layers['trace.overhead_s']:.4f} s "
             f"= {layers['trace.overhead_s'] / layers['trace.untraced_s']:.1%} of untraced; "
             f"{traced['spans']} spans written to {spans_path.relative_to(ROOT)})"]
    for layer, names, moves in LAYERS:
        lines.append(f"  [{layer}] should move: {moves}")
        for name in names:
            value = layers[name]
            if name.endswith(("_s", ".s")) and not name.startswith("trace."):
                share = f"  ({value / base:.1%} of {base:.4f} s traced)" if base else ""
                lines.append(f"    {name:<44} {value:14.6f} s{share}")
            else:
                lines.append(f"    {name:<44} {value:14.6f}" if isinstance(value, float)
                             else f"    {name:<44} {value:14d}")
    problems = shape_problems(runner.workload, layers, traced["span_names"], runner.smoke)
    lines += [f"  shape check failed: {p}" for p in problems] or ["  workload shape checks hold"]
    return layers, [untraced, traced], problems, lines


def shape_problems(workload: str, layers: dict, span_names: list[str], smoke: bool) -> list[str]:
    """Evidence that the workload does the work it is meant to stress."""
    from tracer import SUITES

    if workload == "selftest-full":
        total = sum(layers[f"verify.{s}.s"] for s in SUITES)
        share = layers["verify.duality.s"] / total if total else 0.0
        if not smoke and share < 0.8:
            return [f"verify.duality.s is {share:.1%} of {total:.4f} s in the suites, not >= 80%"]
    elif workload == "algebra-eval":
        if layers["duality.check_naturality_eq2.calls"] != 0:
            return ["algebra-eval called check_naturality_eq2"]
    elif any(name.startswith("verify.") for name in span_names):
        return ["cli-queries entered a verify suite"]
    return []


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": "unknown (not a git checkout)",
        "uncommitted_changes": None,
    }
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired) as exc:
            env["commit"] = f"unknown ({exc})"
        else:
            env["commit"] = head.stdout.strip() or "unknown"
            env["uncommitted_changes"] = bool(status.stdout.strip())
    return env


def run_one(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload, print its report and return the result object."""
    runner = Runner(workload, seed, smoke)
    env = environment()
    if traced:
        from tracer import METRICS, unit_of

        values, workers, problems, lines = trace(runner)
        metrics = {m: {"value": values[m], "unit": unit_of(m)} for m in METRICS}
    else:
        values, workers = measure(runner, seconds, 1 if smoke else SETUP_SPAWNS)
        problems = []
        metrics = {m: {"value": values[m], "unit": u} for m, u in E2E_UNITS.items()}
        lines = [f"{m} = {values[m]:.6f} {u}" for m, u in E2E_UNITS.items()]
        lines += named_metrics(workload, values, workers)
    attempted = sum(w.get("attempted", 0) for w in workers)
    failed = sum(w.get("failed", 0) for w in workers)
    lines.append(f"failed_ratio = {failed / max(attempted, 1):.6f} ({failed} of {attempted} ops)")
    lines += [f"  failure: {f}" for w in workers for f in w.get("failures", [])][:5]
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps({"environment": env, "report": lines, "result": result}, indent=1) + "\n")
    print(f"== {workload} seed={seed} seconds={seconds} trace={int(traced)}")
    print("environment: " + json.dumps(env))
    print("\n".join(lines))
    return result


def smoke() -> bool:
    """Every workload at tiny scale, untraced and traced, with all output checks."""
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            result = run_one(workload, 0, 0.2, traced, smoke=True)
            ok = ok and result["correct"] and result["attempted"] > 0
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny scale and check its outputs")
    args = parser.parse_args()
    # on SIGTERM unwind, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "chmv" / "__init__.py").is_file():
        print(f"perfbench: no chmv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
