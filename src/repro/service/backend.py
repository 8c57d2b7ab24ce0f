"""Compute backend of the reliability service.

A query "design X, workload Y, year t" bottoms out in the same
machinery the experiment suite uses: an
:class:`~repro.experiments.context.ExperimentContext` (store-backed,
so netlists / stress profiles / stream results persist across queries
*and* server restarts) whose ``stream_results`` prices every requested
aging point of one design in a single batched arrival replay.

The backend submits each computation as a JSON ``query`` job (see
:mod:`repro.distrib.jobs`) to a :class:`~repro.distrib.pool.LocalPool`,
whose workers cache one context per context spec -- so a crashing
worker kills a process, not the server.  The pool rebuilds itself after
a worker death and answers with a crash envelope, which the backend
surfaces as a typed :class:`~repro.errors.BackendCrashError`; the
serving layer turns that into a degraded response instead of a dropped
connection.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..config import DEFAULT_SIM_CONFIG, DEFAULT_TECHNOLOGY
from ..errors import BackendCrashError, ServiceError
from ..experiments.context import ExperimentContext
from ..experiments.store import ArtifactStore
from .protocol import QuerySpec

#: Delay percentiles reported per aging point.
PERCENTILES = (50.0, 99.0)


def compute_batch(context: ExperimentContext, spec: QuerySpec) -> List[Dict]:
    """Price one query spec: one record per requested year.

    Every year shares a single value plane; the arrival replay prices
    all years in one vectorized pass (the two-plane engine), so a
    coalesced multi-year build costs barely more than a single year.
    """
    results = context.stream_results(
        spec.width,
        spec.kind,
        list(spec.years),
        spec.num_patterns,
        seed=spec.seed,
    )
    records = []
    for year, result in zip(spec.years, results):
        delays = result.delays
        p50, p99 = (
            float(np.percentile(delays, q)) for q in PERCENTILES
        )
        record = {
            "width": spec.width,
            "kind": spec.kind,
            "year": float(year),
            "num_patterns": spec.num_patterns,
            "seed": spec.seed,
            "cycle_ns": spec.cycle_ns,
            "mean_delay_ns": float(np.mean(delays)),
            "max_delay_ns": float(np.max(delays)),
            "p50_delay_ns": p50,
            "p99_delay_ns": p99,
            "mean_switched_cap": float(np.mean(result.switched_caps)),
            "error_rate": (
                None
                if spec.cycle_ns is None
                else float(np.mean(delays > spec.cycle_ns))
            ),
        }
        records.append(record)
    return records


def build_context(
    store_dir: Optional[str],
    characterize_patterns: int = 2000,
    technology=DEFAULT_TECHNOLOGY,
    config=DEFAULT_SIM_CONFIG,
) -> ExperimentContext:
    """A service-flavored experiment context (store-backed when a
    store directory is configured)."""
    return ExperimentContext(
        technology=technology,
        config=config,
        characterize_patterns=characterize_patterns,
        store=None if store_dir is None else ArtifactStore(store_dir),
    )


def compute_direct(
    spec: QuerySpec,
    store_dir: Optional[str] = None,
    characterize_patterns: int = 2000,
    context: Optional[ExperimentContext] = None,
) -> List[Dict]:
    """The exact records the service would serve, computed in-process.

    This is the identity oracle: CI compares served responses byte-wise
    against this function's output (``python -m repro service direct``).
    """
    ctx = context or build_context(store_dir, characterize_patterns)
    return compute_batch(ctx, spec)


class Backend:
    """The service's compute pool: ``query`` jobs on a
    :class:`~repro.distrib.pool.LocalPool`, which rebuilds itself when a
    worker dies.

    Attributes:
        crashes: Worker deaths survived so far (each one rebuilt the
            pool).
    """

    def __init__(
        self,
        store_dir: Optional[str] = None,
        workers: int = 1,
        characterize_patterns: int = 2000,
        technology=DEFAULT_TECHNOLOGY,
        config=DEFAULT_SIM_CONFIG,
        testing_hooks: bool = False,
    ):
        # Local import: repro.distrib.pool imports this package's
        # protocol module, so the edge must stay lazy.
        from ..distrib.pool import LocalPool

        self.context = build_context(
            store_dir, characterize_patterns, technology, config
        ).to_spec()
        self.pool = LocalPool(max(1, int(workers)), testing_hooks)

    @property
    def crashes(self) -> int:
        return self.pool.crashes

    def close(self) -> None:
        self.pool.close()

    async def run(
        self, spec: QuerySpec, inject: Optional[str] = None
    ) -> List[Dict]:
        """Price ``spec`` in a worker; typed errors on failure.

        Raises:
            BackendCrashError: A worker died (killed / segfault); the
                pool has been rebuilt for subsequent queries.
            ServiceError: The computation itself raised.
        """
        import asyncio

        request = {
            "job": "query",
            "query": spec.to_payload(),
            "context": self.context,
            "inject": inject,
        }
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(
            None, self.pool.submit, request
        )
        if response.get("crash"):
            raise BackendCrashError(
                "backend worker died pricing %s (pool rebuilt): %s"
                % (spec.group_key(), response["error"])
            )
        if not response["ok"]:
            raise ServiceError(
                "backend failed pricing %s: %s"
                % (spec.group_key(), response["error"])
            )
        return response["result"]["records"]
