"""Service benchmark + invariant harness.

One function, two callers: ``python -m repro service bench`` and
``benchmarks/test_service_bench.py`` both run this end-to-end pass
against a private server and record the same JSON
(``benchmarks/results/BENCH_service.json``):

* **cold** -- first query of a design (backend characterizes + builds);
* **warm** -- repeated identical queries (hot LRU tier);
* **coalescing** -- N identical concurrent cold queries must trigger
  exactly ONE backend build;
* **degraded paths** -- a deadline miss and a killed backend worker
  must both come back as *typed* responses (stale-if-available,
  error record otherwise), never connection failures.

Invariant violations are returned as a list of strings (the CLI exits
3 on any; the pytest wrapper asserts the list is empty).
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, List, Optional, Tuple

from .client import ServiceClient, run_concurrent_queries
from .server import ServiceConfig, serve_in_background

#: Warm queries must beat the cold build by at least this factor.
MIN_WARM_SPEEDUP = 5.0


def run_service_bench(
    store_dir: Optional[str] = None,
    characterize_patterns: int = 300,
    width: int = 8,
    kind: str = "column",
    num_patterns: int = 200,
    warm_repeats: int = 20,
    duplicates: int = 8,
) -> Tuple[Dict, List[str]]:
    """Run the bench pass; returns ``(record, invariant_failures)``."""
    failures: List[str] = []
    temp = None
    if store_dir is None:
        temp = tempfile.TemporaryDirectory(prefix="repro-service-bench-")
        store_dir = temp.name
    config = ServiceConfig(
        port=0,
        store_dir=store_dir,
        workers=1,
        characterize_patterns=characterize_patterns,
        testing_hooks=True,
    )
    base = {
        "width": width,
        "kind": kind,
        "num_patterns": num_patterns,
        "cycle_ns": 8.0,
    }
    try:
        with serve_in_background(config) as handle:
            client = ServiceClient(port=handle.port)
            with client:
                record = _run_pass(
                    client, handle, base, warm_repeats, duplicates,
                    failures,
                )
    finally:
        if temp is not None:
            temp.cleanup()
    record["invariant_failures"] = list(failures)
    return record, failures


def _timed_query(client: ServiceClient, base: Dict, **kwargs):
    t0 = time.perf_counter()
    response = client.query(
        base["width"], base["kind"], kwargs.pop("years"),
        num_patterns=base["num_patterns"],
        cycle_ns=base["cycle_ns"],
        **kwargs,
    )
    return response, (time.perf_counter() - t0) * 1e3


def _run_pass(
    client: ServiceClient,
    handle,
    base: Dict,
    warm_repeats: int,
    duplicates: int,
    failures: List[str],
) -> Dict:
    # -- cold: characterize + first build ------------------------------
    cold, cold_ms = _timed_query(client, base, years=0.0)
    if cold.get("status") != "ok":
        failures.append("cold query not ok: %r" % (cold.get("status"),))

    # -- warm: hot LRU tier --------------------------------------------
    warm_ms = []
    for _ in range(warm_repeats):
        warm, ms = _timed_query(client, base, years=0.0)
        warm_ms.append(ms)
        if warm.get("source") != "lru":
            failures.append(
                "warm query served from %r, expected lru"
                % (warm.get("source"),)
            )
            break
    warm_mean_ms = sum(warm_ms) / max(1, len(warm_ms))
    warm_speedup = cold_ms / warm_mean_ms if warm_mean_ms else 0.0
    if warm_speedup < MIN_WARM_SPEEDUP:
        failures.append(
            "warm queries only %.1fx faster than cold (need >= %.1fx)"
            % (warm_speedup, MIN_WARM_SPEEDUP)
        )

    # -- coalescing: N identical concurrent cold queries ---------------
    before = client.stats()["counters"]
    request = dict(base, years=7.0, seed=1)
    responses = run_concurrent_queries(
        handle.port, [request] * duplicates
    )
    after = client.stats()["counters"]
    builds = after["backend_calls"] - before["backend_calls"]
    coalesced = after["coalesced"] - before["coalesced"]
    shared_hits = coalesced + (after["lru_hits"] - before["lru_hits"])
    if builds != 1:
        failures.append(
            "%d identical concurrent cold queries triggered %d backend"
            " builds (expected exactly 1)" % (duplicates, builds)
        )
    if shared_hits != duplicates - 1:
        failures.append(
            "coalesced+lru served %d of %d duplicate queries"
            " (expected %d)"
            % (shared_hits, duplicates, duplicates - 1)
        )
    bad = [r for r in responses if r.get("status") != "ok"]
    if bad:
        failures.append(
            "%d duplicate queries degraded: %r"
            % (len(bad), bad[0].get("status"))
        )

    # -- degraded: deadline (stale available) --------------------------
    deadline, _ = _timed_query(
        client, base, years=11.0, inject="sleep:1.0", deadline_ms=150,
    )
    if deadline.get("status") != "degraded" or (
        deadline.get("degraded", {}).get("reason") != "deadline"
    ):
        failures.append(
            "deadline miss returned %r, expected degraded/deadline"
            % (deadline.get("status"),)
        )
    if not deadline.get("results"):
        failures.append("deadline degradation served no stale results")

    # -- degraded: killed backend worker (stale available) -------------
    crash, _ = _timed_query(client, base, years=13.0, inject="crash")
    if crash.get("status") != "degraded" or (
        crash.get("degraded", {}).get("reason") != "backend-crash"
    ):
        failures.append(
            "worker crash returned %r, expected degraded/backend-crash"
            % (crash.get("status"),)
        )

    # -- typed error record when nothing stale exists ------------------
    fresh = dict(base, num_patterns=base["num_patterns"] + 1)
    t0 = time.perf_counter()
    error = client.query(
        fresh["width"], fresh["kind"], 0.0,
        num_patterns=fresh["num_patterns"],
        cycle_ns=fresh["cycle_ns"],
        inject="crash",
    )
    error_ms = (time.perf_counter() - t0) * 1e3
    if error.get("status") != "error" or (
        error.get("error", {}).get("type") != "BackendCrashError"
    ):
        failures.append(
            "crash without stale data returned %r, expected typed"
            " error record" % (error.get("status"),)
        )

    # -- recovery: the pool was rebuilt, normal service resumed --------
    recovered, _ = _timed_query(client, base, years=3.0)
    if recovered.get("status") != "ok":
        failures.append(
            "service did not recover after worker crash: %r"
            % (recovered.get("status"),)
        )

    stats = client.stats()
    return {
        "experiment": "reliability service: %dx%d %s, %d patterns"
        % (base["width"], base["width"], base["kind"],
           base["num_patterns"]),
        "cold_ms": round(cold_ms, 3),
        "warm_mean_ms": round(warm_mean_ms, 3),
        "warm_speedup": round(warm_speedup, 2),
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "duplicates": duplicates,
        "duplicate_backend_builds": builds,
        "duplicate_coalesced": coalesced,
        "deadline_status": deadline.get("status"),
        "deadline_reason": deadline.get("degraded", {}).get("reason"),
        "crash_status": crash.get("status"),
        "crash_reason": crash.get("degraded", {}).get("reason"),
        "error_type_without_stale": error.get("error", {}).get("type"),
        "error_response_ms": round(error_ms, 3),
        "recovered_after_crash": recovered.get("status") == "ok",
        "counters": stats["counters"],
    }
