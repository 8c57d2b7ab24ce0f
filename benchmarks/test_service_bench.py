"""Reliability-service benchmark: cold vs warm latency, coalescing,
and both degraded paths.

Wraps :func:`repro.service.bench.run_service_bench` -- the same harness
``python -m repro service bench`` runs -- against a private server, and
records the result in ``benchmarks/results/BENCH_service.json``.

Gates (also returned as ``invariant_failures`` by the harness):

* warm (hot-LRU) queries >= ``MIN_WARM_SPEEDUP`` x faster than the
  cold build;
* N identical concurrent cold queries trigger exactly ONE backend
  build (single-flight coalescing);
* a missed deadline and a killed backend worker both degrade to typed
  responses (stale-if-available, error record otherwise) and the
  service recovers afterwards.
"""

import json
import os

from repro.service.bench import MIN_WARM_SPEEDUP, run_service_bench

RESULTS = os.path.join(os.path.dirname(__file__), "results")

_RECORD = {}


def test_service_cold_warm_and_degraded(benchmark):
    record, failures = benchmark.pedantic(
        run_service_bench,
        kwargs={"characterize_patterns": 300},
        rounds=1,
        iterations=1,
    )

    _RECORD["service"] = record
    _flush()
    print()
    print(
        "service: cold %.1fms | warm %.3fms (%.0fx) | %d dups -> %d build"
        % (
            record["cold_ms"],
            record["warm_mean_ms"],
            record["warm_speedup"],
            record["duplicates"],
            record["duplicate_backend_builds"],
        )
    )

    assert failures == [], "\n".join(failures)
    assert record["warm_speedup"] >= MIN_WARM_SPEEDUP
    assert record["duplicate_backend_builds"] == 1
    assert record["deadline_status"] == "degraded"
    assert record["crash_status"] == "degraded"
    assert record["error_type_without_stale"] == "BackendCrashError"
    assert record["recovered_after_crash"] is True


def _flush():
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "BENCH_service.json"), "w") as fh:
        json.dump(_RECORD, fh, indent=2, sort_keys=True)
        fh.write("\n")
