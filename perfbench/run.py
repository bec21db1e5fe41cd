"""geonull benchmark: drives ``geonull.cli.main(argv)`` in-process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {scan,flow,query} --seed N --seconds S --trace {0,1}

One client sends one request at a time (closed loop); the scan thread pool
keeps the program's default size.  Every request's output is checked against
the catalog's closed forms.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Times are scaled to a reference machine speed (see refclock.py), set-up
time to a reference process start; raw figures go to stderr.  NOTES.md says
what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from refclock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PAIRS = 11
# the reference start: a fresh interpreter that imports numpy, geonull's one
# dependency, and never touches geonull.  REFERENCE_START_S is its time on an
# uncontended core of the VM that refclock.REFERENCE_S describes.
REFERENCE_START = ["-c", "import numpy; print('ready')"]
REFERENCE_START_S = 0.12
PROBE_TIMEOUT_S = 60
QUERY_MIN_REQUESTS = 200  # p90 then has at least 20 samples beyond it
# requests per traced run, per second of --seconds: the count depends on the
# run length only, so per-call counts repeat exactly for a seed
TRACED_CALLS_PER_S = {"scan": 0.25, "flow": 0.12, "query": 15.0}
MAX_ERRORS_SHOWN = 5


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "geonull", "cli.py")):
        print(f"perfbench: no geonull sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import geonull.cli

    return geonull.cli


def _call(main, argv):
    """Run one CLI request; returns (exit code, stdout text, start, end)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            rc = -1
            print(traceback.format_exc(), file=sys.__stderr__)
        end = time.perf_counter()
    return rc, out.getvalue(), start, end


class Outcome:
    """Per-run tally of attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, rc, out) -> None:
        self.attempted += 1
        try:
            problem = op.check(rc, out)
        except Exception as exc:  # malformed output is a failed operation
            problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            if self.failed <= MAX_ERRORS_SHOWN:
                print(f"perfbench: FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)


def _setup_probe(workload: str) -> None:
    """Child mode: import the program, run the warm-up request, say ready."""
    from workloads import WARMUP

    cli = _load_program()
    _call(cli.main, WARMUP[workload])
    print("ready", flush=True)


def _time_to_ready(args) -> float:
    """Seconds from spawning ``python3 <args>`` until it prints ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        end = time.perf_counter()
        child.stdout.read()
        child.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or child.returncode != 0:
        print("perfbench: setup probe failed", file=sys.stderr)
        sys.exit(2)
    return end - start


def _setup_seconds(workload: str):
    """Raw and scaled set-up time: medians over probe pairs.

    Each pair starts the program's set-up probe and the reference start back
    to back.  Process start and imports do not follow the reference kernel
    of refclock.py, but they follow another process start closely, so the
    scaled figure is ``REFERENCE_START_S`` times the median ratio of the two.
    """
    pairs = [(_time_to_ready([os.path.abspath(__file__), "--setup-probe", workload]),
              _time_to_ready(REFERENCE_START)) for _ in range(SETUP_PAIRS)]
    raw = statistics.median(probe for probe, _ in pairs)
    return raw, REFERENCE_START_S * statistics.median(probe / ref for probe, ref in pairs)


def _quantile(values, q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _pass(cli, ops, outcome, clock, deadline=None, minimum=0) -> list:
    """Run requests in order, sampling the clock between them.

    Stops after the last op, or once ``deadline`` has passed and at least
    ``minimum`` requests ran.  Returns each request's (start, end, items).
    """
    calls = []
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline and len(calls) >= minimum:
            break
        clock.tick()
        rc, out, start, end = _call(cli.main, op.argv)
        outcome.record(op, rc, out)
        calls.append((start, end, op.items))
    clock.sample()
    return calls


def run_timed(cli, workload, ops, seconds):
    clock = RefClock()
    outcome = Outcome()
    minimum = QUERY_MIN_REQUESTS if workload == "query" else 1
    calls = _pass(cli, ops, outcome, clock, time.perf_counter() + seconds, minimum)
    scaled = [clock.scaled(s, e) for s, e, _ in calls]
    raw = [e - s for s, e, _ in calls]
    items = sum(n for _, _, n in calls)
    raw_setup, setup = _setup_seconds(workload)
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "correct_ratio": ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"),
        "call_p50_s": (statistics.median(scaled), "s"),
        "call_p90_s": (_quantile(scaled, 90), "s"),
        "items_per_s": (items / sum(scaled), "1/s"),
    }
    print(f"perfbench: {workload}: {len(calls)} calls, {items} items; raw p50 "
          f"{statistics.median(raw):.4g}s p90 {_quantile(raw, 90):.4g}s, "
          f"{items / sum(raw):.4g} items/s, setup {raw_setup:.4g}s; reference kernel median "
          f"{clock.raw_median_s * 1e3:.3f} ms",
          file=sys.stderr)
    return outcome, metrics


def run_traced(cli, workload, ops, seconds, seed):
    import numpy
    import geonull
    from tracer import LAYERS, Tracer, layer_counts, self_times

    batch = [next(ops) for _ in range(max(2, round(seconds * TRACED_CALLS_PER_S[workload])))]
    clock = RefClock()
    outcome = Outcome()
    modules = {layer: sys.modules[f"geonull.{layer}"] for layer in LAYERS}
    modules["package"] = geonull
    tracer = Tracer(modules, numpy.linalg)
    # each request runs untraced, traced and (scan) single-threaded back to
    # back, so the ratios between the passes see the same machine speed
    untraced_calls, traced_calls, single_calls = [], [], []
    for op in batch:
        untraced_calls += _pass(cli, [op], outcome, clock)
        tracer.install()
        try:
            traced_calls += _pass(cli, [op], outcome, clock)
        finally:
            tracer.uninstall()
        if workload == "scan":
            os.environ["GEONULL_THREADS"] = "1"
            try:
                single_calls += _pass(cli, [op], outcome, clock)
            finally:
                del os.environ["GEONULL_THREADS"]

    def scaled_total(calls):
        return sum(clock.scaled(s, e) for s, e, _ in calls)

    untraced = scaled_total(untraced_calls)
    traced = scaled_total(traced_calls)
    traced_raw = sum(e - s for s, e, _ in traced_calls)
    efficiency = 0.0
    if single_calls:
        workers = max(1, min(8, os.cpu_count() or 1, batch[0].items))
        efficiency = scaled_total(single_calls) / (workers * untraced)

    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, f"spans-{workload}-seed{seed}.jsonl"))

    calls = len(batch)
    scale = traced / traced_raw / calls  # raw span seconds -> scaled seconds per call
    selfs = self_times(tracer.spans)
    counts = layer_counts(tracer.spans)
    named = counts["calls"]
    scan_points = sum(op.items for op in batch) if workload == "scan" else 0
    steps = tracer.counts["geodesic_steps"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{layer}.self_s": (selfs[layer] * scale, "s/call") for layer in LAYERS}
    per_call = {
        "exprcalc.eval_calls": counts["eval_calls"],
        "exprcalc.parse_calls": named["parse"],
        "metricspace.jet_calls": named["MetricField.jet"],
        "numcore.kernel_calls": named["kernel"],
        "numcore.invert_calls": named["invert"],
        "numcore.eigenvalues_calls": named["eigenvalues"],
        "numcore.svd_calls": tracer.counts["svd"],
        "curvature.nullity_calls": named["nullity"],
        "flows.geodesic_steps": steps,
        "splitting.tensor_calls": named["splitting_tensor"],
    }
    metrics.update({name: (n / calls, "count/call") for name, n in per_call.items()})
    metrics.update({
        "metricspace.expr_evals_per_jet": (ratio(counts["eval_calls"], named["MetricField.jet"]), "count"),
        "metricspace.repeat_jet_share": (
            ratio(tracer.counts["jet_repeats"], tracer.counts["jet_evals"]), "ratio"),
        "curvature.nullity_per_scan_point": (ratio(named["nullity"], scan_points), "count"),
        "flows.jets_per_step": (ratio(counts["jets_under_flows"], steps), "count"),
        "splitting.field_evals_per_tensor": (
            ratio(counts["nullity_under_tensor"], named["splitting_tensor"]), "count"),
        "cli.scan_parallel_efficiency": (efficiency, "ratio"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
    })
    print(f"perfbench: {workload}: traced {calls} calls, {len(tracer.spans)} spans; scaled "
          f"untraced {untraced:.3f}s, traced {traced:.3f}s", file=sys.stderr)
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scan", "flow", "query"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from workloads import GENERATORS, WARMUP

    os.environ.pop("GEONULL_THREADS", None)  # the program's default pool size
    cli = _load_program()
    _call(cli.main, WARMUP[args.workload])
    ops = GENERATORS[args.workload](args.seed)
    if args.trace:
        outcome, metrics = run_traced(cli, args.workload, ops, args.seconds, args.seed)
    else:
        outcome, metrics = run_timed(cli, args.workload, ops, args.seconds)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
