"""spectral-ops benchmark: four closed-loop workloads, end to end or traced.

    python3 perfbench/run.py --workload vit_base --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
One caller sends each request only after the previous one returned (there is
no arrival schedule: this is a library, not a server).  Every output is
checked against an independent reference; any failure makes the exit code 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same requests
with wrappers around each module's public functions and prints per-layer
metrics instead.  The last stdout line is the JSON result; the line before it
is a JSON ``detail`` record (environment, sample counts, tail percentile,
error rate).  Results and span files are also written to ``perfbench/out/``.

Processes run one at a time with BLAS/OpenMP pinned to one thread.
setup_s is the median of SETUP_SAMPLES fresh processes, each timed from
spawn until its workload is ready for the first request.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("vit_base", "conv_grid", "long_seq", "cli_demo")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def tail_latency(samples):
    """The highest percentile that still has TAIL_BEYOND samples above it.

    That is the (TAIL_BEYOND+1)-th largest sample, at percentile
    100 * (n - TAIL_BEYOND) / n.  With too few samples it is the largest one.
    Returns (value, percentile, samples beyond).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def spans_path(args) -> Path:
    return OUT / f"trace-{args.workload}-seed{args.seed}.json"


class Runner:
    """Starts child processes one at a time and stops them all on the way out."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.children = 0

    def _remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
        return remaining

    def run(self, argv) -> tuple[float, list[str]]:
        """Run argv to completion; return (spawn monotonic time, stdout lines)."""
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[1]} did not finish within the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:4])} exited with code {proc.returncode}")
        return spawned, stdout.splitlines()

    def worker(self, mode: str) -> tuple[float, dict]:
        """One worker process; returns (set-up seconds, JSON result or {})."""
        a = self.args
        self.children += 1
        workdir = OUT / f"work-{os.getpid()}-{self.children}"
        workdir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--seconds", repr(a.seconds), "--mode", mode,
                "--workdir", str(workdir),
                "--trace-out", str(spans_path(a))]
        try:
            spawned, lines = self.run(argv)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ready = [line for line in lines if line.startswith("READY ")]
        if len(ready) != 1:
            raise BenchError(f"worker ({mode}) did not report READY once")
        setup_s = float(ready[0].split()[1]) - spawned
        result = json.loads(lines[-1]) if mode != "setup" else {}
        return setup_s, result

    def import_seconds(self) -> float:
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import spectral_ops; print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_SAMPLES):
            _, lines = self.run([sys.executable, "-c", code, str(ROOT / "src")])
            samples.append(float(lines[-1]))
        return statistics.median(samples)


def end_to_end(runner) -> tuple[dict, dict, dict]:
    setups = [runner.worker("setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = runner.worker("run")
    setups.append(setup_s)
    latencies = result["latencies_ms"]
    tail, percentile, beyond = tail_latency(latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "requests_per_s": (len(latencies) / (sum(latencies) / 1e3), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    detail = {"setup_samples_s": setups, "tail_percentile": percentile,
              "tail_samples_beyond": beyond, "requests": len(latencies)}
    return metrics, detail, result


def traced(runner) -> tuple[dict, dict, dict]:
    import_s = runner.import_seconds()
    _, result = runner.worker("trace")
    metrics = {name: tuple(v) for name, v in result["per_layer"].items()}
    metrics["import.spectral_ops_s"] = (import_s, "s")
    detail = {"untraced_requests": len(result["latencies_ms"]),
              "traced_requests": len(result["traced_latencies_ms"]),
              "spans": str(spans_path(runner.args).relative_to(ROOT))}
    return metrics, detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "spectral_ops" / "__init__.py").is_file():
        print(f"error: no spectral_ops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        metrics, detail, result = (traced if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    error_rate = failed / attempted
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=attempted, failed=failed,
                  error_rate=error_rate, failures=result["failures"],
                  env=dict(result["env"], git_commit=git_commit(), seed=args.seed))
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": final}, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(f"{'error_rate':<36} {error_rate:>14.6g} ratio")
    for message in result["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
