#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

With ``--trace 0`` the run reports the end-to-end metrics of untraced
iterations, with every time normalised to the reference host speed
(see ``hostspeed.py``).  With ``--trace 1`` it alternates untraced and
traced iterations, samples no host speed, and reports the per-layer
metrics (spans from wrappers the benchmark installs around public
``repro`` calls, see ``layers.py``) plus the tracing overhead.  Every
iteration's output is checked against ``reference.json``; any
mismatch makes ``correct`` false and the exit code 1.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import BRACKET_SAMPLES, HostClock, PlainClock, bracket_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Benchmark state inside the checkout (work dirs, reports, traces).
STATE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("suite_cold", "suite_warm", "variant_sweep", "service_mix")
#: Untraced iterations every run measures, however short ``--seconds``.
MIN_ITERATIONS = 3
#: Fresh-interpreter imports timed per run (median reported).
IMPORT_SAMPLES = 3

#: End-to-end metric -> unit (``--trace 0``).  Times are normalised to
#: the reference host speed.
END_TO_END = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "norm_ops_per_s": "1/s",
}

#: Per-layer metric names beyond ``<layer>.calls`` / ``<layer>.self_s``.
LAYER_EXTRAS = {
    "timing.replay.pattern_corners": "count",
    "timing.fold.factor": "ratio",
    "timing.plane_cache.hit_ratio": "ratio",
    "timing.delta.cone_fraction": "frac",
    "timing.delta.fallbacks": "count",
    "experiments.store.hit_ratio": "ratio",
    "experiments.other_s": "s",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
    "op_latency.p50_ms": "ms",
    "op_latency.p99_ms": "ms",
}
SERVICE_SOURCES = ("lru", "backend", "coalesced")
SERVICE_LAYERS = dict(
    [
        ("service.%s.%s.p%d" % (kind, source, q), "ms")
        for kind in ("server_ms", "transport_ms")
        for source in SERVICE_SOURCES
        for q in (50, 99)
    ]
    + [
        ("service.backend_builds", "count"),
        ("service.coalesced", "count"),
        ("service.lru_hit_ratio", "ratio"),
    ]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "optional": {
            name: importlib.util.find_spec(name) is not None
            for name in ("numba", "pytest", "hypothesis", "pytest_benchmark")
        },
    }


def not_measured(host: dict) -> dict:
    """What this benchmark cannot measure here, with the reason.  None
    of these is ever a metric or a gate."""
    return {
        "distrib": "multi-host worker pools need more than one host;"
        " every workload runs on one",
        "jobs_speedup": "suites run with jobs=1; a --jobs speedup needs"
        " more CPUs than this host's %s" % host["cpu_count"],
        "numba_kernel": "numba is not installed"
        if not host["optional"]["numba"]
        else "workloads run the soa kernel only",
    }


def import_seconds(modules) -> float:
    """Median time a fresh interpreter takes to import ``modules``,
    normalised by host-speed samples the same interpreter takes just
    before and after the import."""
    code = (
        "import time; from hostspeed import calibrate;"
        " before = [calibrate() for _ in range({n})];"
        " t = time.perf_counter(); import {modules};"
        " seconds = time.perf_counter() - t;"
        " after = [calibrate() for _ in range({n})];"
        " print(seconds, *before, *after)"
    ).format(n=BRACKET_SAMPLES, modules=", ".join(modules))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        fields = out.stdout.split()[-1 - 2 * BRACKET_SAMPLES:]
        seconds, *calibration = [float(x) for x in fields]
        before = calibration[:BRACKET_SAMPLES]
        after = calibration[BRACKET_SAMPLES:]
        samples.append(seconds * bracket_factor(before, after))
    return statistics.median(samples)


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def measure(workload, seconds: float, tracer, layers):
    """Iterate until ``seconds`` have passed and at least
    :data:`MIN_ITERATIONS` untraced iterations ran.  Without a tracer
    each iteration runs under a sampling :class:`HostClock`.  With a
    tracer, iterations alternate untraced / traced and sample nothing,
    so that no span holds a calibration sample."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(untraced) > len(traced):
            with layers.installed(tracer):
                traced.append(workload.iteration(PlainClock()))
            tracer.merge_workers()
        elif tracer is not None:
            untraced.append(workload.iteration(PlainClock()))
        else:
            with HostClock(workload.clock_period_s) as clock:
                iteration = workload.iteration(clock)
            iteration.host_speed = clock.speed()
            untraced.append(iteration)
        if (
            time.perf_counter() - start >= seconds
            and len(untraced) >= MIN_ITERATIONS
            and (tracer is None or traced)
        ):
            return untraced, traced


def latencies(iterations):
    """Pooled per-op latencies; a failed op (``inf``) counts as
    taking its whole iteration, i.e. it misses every limit."""
    return [
        min(seconds, it.wall_s) for it in iterations for seconds in it.op_s
    ]


def end_to_end_metrics(workload, setup_s, untraced) -> dict:
    return {
        "norm_wall_s": statistics.median(it.norm_wall_s for it in untraced),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload.counts_children_rss),
        "norm_ops_per_s": statistics.median(
            (it.attempted - it.failed) / it.norm_busy_s for it in untraced
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, layer_names, untraced, traced) -> dict:
    n = len(traced)
    wall = sum(it.wall_s for it in traced)
    calls, counters = tracer.calls, tracer.counters
    metrics = {}
    for layer in layer_names:
        metrics[layer + ".calls"] = calls.get(layer, 0) / n
        metrics[layer + ".self_s"] = tracer.self_s.get(layer, 0.0) / n
    covered = sum(tracer.self_s.values())
    metrics.update(
        {
            "timing.replay.pattern_corners":
                counters.get("timing.replay.pattern_corners", 0) / n,
            "timing.fold.factor": _ratio(
                counters.get("timing.fold.factor_sum", 0.0),
                counters.get("timing.fold.plans", 0),
            ),
            "timing.plane_cache.hit_ratio": _ratio(
                counters.get("timing.plane_cache.hits", 0),
                calls.get("timing.plane_cache", 0),
            ),
            "timing.delta.cone_fraction": _ratio(
                counters.get("timing.delta.cone_fraction_sum", 0.0),
                counters.get("timing.delta.cones", 0),
            ),
            "timing.delta.fallbacks":
                counters.get("timing.delta.fallbacks", 0) / n,
            "experiments.store.hit_ratio": _ratio(
                counters.get("experiments.store.hits", 0),
                calls.get("experiments.store.load", 0),
            ),
            "experiments.other_s": (wall - covered) / n,
            "trace.coverage": _ratio(covered, wall),
            "trace.overhead_frac": statistics.median(
                it.wall_s for it in traced
            ) / statistics.median(it.wall_s for it in untraced) - 1.0,
        }
    )
    # Latencies, response fields and the stats op are not spans, so
    # they are read from the untraced passes.
    from workloads import percentile

    ops = latencies(untraced)
    metrics["op_latency.p50_ms"] = percentile(ops, 50) * 1e3
    metrics["op_latency.p99_ms"] = percentile(ops, 99) * 1e3
    for name in SERVICE_LAYERS:
        values = [it.layers[name] for it in untraced if name in it.layers]
        metrics[name] = statistics.median(values) if values else 0.0
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def metric_units(layer_names) -> dict:
    units = dict(END_TO_END)
    for layer in layer_names:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update(LAYER_EXTRAS)
    units.update(SERVICE_LAYERS)
    return units


def print_table(metrics: dict, units: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print("  %-*s %14.6g %s" % (width, name, value, units[name]))


def print_layer_report(metrics, layer_names, untraced, traced) -> None:
    traced_wall = statistics.median(it.wall_s for it in traced)
    untraced_wall = statistics.median(it.wall_s for it in untraced)
    print("tracing overhead: %+.3f s per iteration (traced %.3f s,"
          " untraced %.3f s)" % (traced_wall - untraced_wall, traced_wall,
                                 untraced_wall))
    mean_wall = sum(it.wall_s for it in traced) / len(traced)
    print("  %-24s %10s %10s %7s" % ("layer", "calls", "self_s", "share"))
    for layer in layer_names:
        self_s = metrics[layer + ".self_s"]
        print("  %-24s %10.1f %10.4f %6.1f%%" % (
            layer, metrics[layer + ".calls"], self_s,
            100.0 * self_s / mean_wall))
    print("  coverage %.1f%%, unattributed %.4f s per iteration" % (
        100.0 * metrics["trace.coverage"], metrics["experiments.other_s"]))


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    # Value planes must stay inside the benchmark's own stores.
    os.environ.pop("REPRO_VALUE_PLANE_DIR", None)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print("perfbench: imported repro from %s, not %s"
              % (repro.__file__, SRC), file=sys.stderr)
        return 2
    import layers
    import workloads

    host = host_fingerprint()
    os.makedirs(STATE_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=STATE_DIR)
    tracer = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setup_s = import_seconds(workload.entry_modules) + workload.setup()
        if args.trace:
            worker_dir = os.path.join(work, "trace-workers")
            os.makedirs(worker_dir)
            tracer = layers.Tracer(worker_dir=worker_dir)
        untraced, traced = measure(workload, args.seconds, tracer, layers)
        workload.close()
    finally:
        workloads.wait_for_children()
        shutil.rmtree(work, ignore_errors=True)

    in_iteration_setup = [it.setup_s for it in untraced if it.setup_s]
    if in_iteration_setup:
        setup_s += statistics.median(in_iteration_setup)
    iterations = untraced + traced
    if workload.setup_checks is not None:
        iterations.append(workload.setup_checks)
    problems = [p for it in iterations for p in it.problems]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    units = metric_units(layers.LAYER_NAMES)
    if args.trace:
        metrics = layer_metrics(tracer, layers.LAYER_NAMES, untraced, traced)
    else:
        metrics = end_to_end_metrics(workload, setup_s, untraced)

    print("perfbench %s seed=%d trace=%d" % (
        workload.name, args.seed, args.trace))
    print("host: %s" % json.dumps(host, sort_keys=True))
    for name, reason in not_measured(host).items():
        print("not measured: %s -- %s" % (name, reason))
    print("iterations: %d untraced (wall %s s), %d traced" % (
        len(untraced), ", ".join("%.3f" % it.wall_s for it in untraced),
        len(traced)))
    if not args.trace:
        print("normalised wall %s s at host speed %s" % (
            ", ".join("%.3f" % it.norm_wall_s for it in untraced),
            ", ".join("%.3f" % it.host_speed for it in untraced)))
    print("ops: %d attempted, %d failed (failed_frac %.4g)" % (
        attempted, failed, _ratio(failed, attempted)))
    for line in workload.summary():
        print(line)
    if args.trace:
        print_layer_report(metrics, layers.LAYER_NAMES, untraced, traced)
    for problem in problems:
        print("MISMATCH: %s" % problem)
    print_table(metrics, units)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "not_measured": not_measured(host),
        "iterations": {
            "untraced_wall_s": [it.wall_s for it in untraced],
            "untraced_norm_wall_s": [it.norm_wall_s for it in untraced],
            "traced_wall_s": [it.wall_s for it in traced],
        },
        "problems": problems,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    reports = os.path.join(STATE_DIR, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    with open(os.path.join(reports, stem + ".json"), "w") as handle:
        json.dump(report, handle, indent=2)
    if tracer is not None and tracer.spans:
        with open(os.path.join(reports, stem + ".spans.jsonl"), "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process; exit 1 on any mismatch."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except ValueError:
            results[name] = None
        if proc.returncode != 0 or results[name] is None:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
