"""One benchmark process: set up one workload, then (unless only set-up is
being measured) run its requests in a closed loop and check every output.

run.py starts this script; it is not meant to be run by hand.  Set-up starts
at process start and ends when the line ``READY <time.monotonic()>`` is
printed.  In ``run`` and ``trace`` modes the last stdout line is a JSON
result.

Modes:
  setup  set up, print READY, exit (one set-up sample for setup_s).
  run    set up, compute references, then time requests for --seconds.
  trace  set up under the tracer, compute references, time requests
         untraced for half of --seconds, then traced for the other half.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from run import ROOT, THREAD_VARS

MAX_FAILURE_MESSAGES = 5


def closed_loop(workload, seconds, first_index, tracer=None):
    """Send request i+1 only after request i returns; check each output."""
    latencies, failures, index = [], [], first_index
    deadline = time.perf_counter() + seconds
    while True:
        inputs = workload.make_input(index)
        if tracer is not None:
            tracer.phase = index
        start = time.perf_counter()
        try:
            outputs = workload.request(inputs)
        except Exception as exc:  # a request that raises is a failed request
            outputs, problems = None, [f"request raised {exc!r}"]
        latencies.append((time.perf_counter() - start) * 1e3)
        if tracer is not None:
            tracer.phase = "between"
        if outputs is not None:
            try:
                problems = workload.check(inputs, outputs, index)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(f"request {index}: " + "; ".join(problems))
        index += 1
        if time.perf_counter() >= deadline:
            return latencies, failures


def layer_metrics(tracer, request_ids, latencies_ms) -> dict:
    """Per-request span totals and counters from the traced requests."""
    from tracer import LAYER_TARGETS

    names = [f"{m}.{f}" for m, fs in LAYER_TARGETS.items() for f in fs] + ["fft"]
    setup_names = ("fit.init_fit_model", "fit.save_model", "fit.load_model",
                   "tensor.randn", "tensor.read_tensor", "tensor.write_tensor")
    totals = {name: [0, 0.0, 0.0] for name in names}
    setup = {name: [0, 0.0] for name in setup_names}
    requests = set(request_ids)
    covered_s = fft_points = nonsmooth = conv_out = conv_padded = 0
    for span in tracer.spans:
        if span.phase in requests:
            t = totals[span.name]
            t[0] += 1
            t[1] += span.duration_s
            t[2] += span.self_s
            if span.parent < 0:
                covered_s += span.duration_s
            if span.name == "fft":
                fft_points += span.points
                nonsmooth += span.nonsmooth
            elif span.name == "fftconv.fft_xcorr2d":
                conv_out += span.outputs
                conv_padded += span.points
        elif span.phase == "setup" and span.name in setup:
            setup[span.name][0] += 1
            setup[span.name][1] += span.duration_s
    n = len(request_ids)
    metrics = {}
    for name, (calls, dur, self_dur) in totals.items():
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.ms"] = (dur * 1e3 / n, "ms")
        metrics[f"{name}.self_ms"] = (self_dur * 1e3 / n, "ms")
    for name, (calls, dur) in setup.items():
        metrics[f"setup.{name}.calls"] = (calls, "count")
        metrics[f"setup.{name}.ms"] = (dur * 1e3, "ms")
    request_bytes = {"read": 0, "written": 0}
    for (phase, kind), count in tracer.bytes.items():
        if phase in requests:
            request_bytes[kind] += count
    for kind in ("read", "written"):
        metrics[f"tensor.bytes_{kind}"] = (request_bytes[kind] / n, "B")
        metrics[f"setup.tensor.bytes_{kind}"] = (tracer.bytes[("setup", kind)], "B")
    metrics["fft.points"] = (fft_points / n, "count")
    metrics["fft.nonsmooth_calls"] = (nonsmooth / n, "count")
    metrics["fftconv.pad_ratio"] = (conv_out / conv_padded if conv_padded else 0.0, "ratio")
    metrics["trace.uncovered_share"] = (1.0 - covered_s * 1e3 / sum(latencies_ms), "ratio")
    return metrics


def write_spans(tracer, path: Path) -> None:
    origin = tracer.spans[0].start if tracer.spans else 0.0
    rows = [[s.name, s.detail, s.phase, s.parent, round((s.start - origin) * 1e3, 6),
             round(s.duration_s * 1e3, 6), round(s.self_s * 1e3, 6), s.points]
            for s in tracer.spans]
    columns = ["name", "detail", "phase", "parent", "start_ms", "ms", "self_ms", "points"]
    path.write_text(json.dumps({"columns": columns, "spans": rows}))


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import spectral_ops

    if Path(spectral_ops.__file__).resolve().parent != ROOT / "src" / "spectral_ops":
        raise SystemExit(f"spectral_ops imported from {spectral_ops.__file__}, not {ROOT / 'src'}")
    import workloads

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0
    if tracer is not None:
        tracer.uninstall()

    workload.references()
    result = {}
    if args.mode == "run":
        latencies, failures = closed_loop(workload, args.seconds, 0)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "cli_demo":
            peak_kb = workload.child_peak_kb
        result.update(latencies_ms=latencies, peak_rss_kb=peak_kb)
    else:
        if args.workload == "cli_demo":
            workload.in_process = True
        plain, failures = closed_loop(workload, args.seconds / 2, 0)
        tracer.phase = "between"
        tracer.install()
        traced, traced_failures = closed_loop(workload, args.seconds / 2, len(plain), tracer)
        tracer.uninstall()
        failures += traced_failures
        ids = range(len(plain), len(plain) + len(traced))
        metrics = layer_metrics(tracer, list(ids), traced)
        metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain), "ms")
        write_spans(tracer, args.trace_out)
        result.update(latencies_ms=plain, traced_latencies_ms=traced, per_layer=metrics)
    attempted = len(result["latencies_ms"]) + len(result.get("traced_latencies_ms", []))
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures[:MAX_FAILURE_MESSAGES], env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
