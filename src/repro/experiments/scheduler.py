"""Dependency-aware parallel suite runner.

``python -m repro.experiments all`` used to execute ~30 experiments
strictly serially, and every experiment implicitly (re)characterized
whatever designs it touched.  This module turns the implicit resource
usage into an explicit schedule:

1. **Plan** -- :func:`plan_suite` merges the specs' declared
   :class:`~repro.experiments.registry.Resources` into the set of
   unique ``(width, kind)`` designs and netlists the suite needs.
   Experiments themselves are mutually independent; the only shared
   edges in the dependency graph are these characterization artifacts,
   so the topological order collapses to exactly two stages.
2. **Warm-up** -- each unique design is characterized exactly once
   (widest first: the 32-bit designs dominate) and persisted to the
   shared :class:`~repro.experiments.store.ArtifactStore`.
3. **Fan-out** -- the experiments run over a
   :class:`~concurrent.futures.ProcessPoolExecutor` whose workers each
   hold an :class:`~repro.experiments.context.ExperimentContext` backed
   by the same store, so no worker ever recomputes a warm artifact.

Rendered experiment outputs are byte-identical to the serial run: every
random draw is seeded, the store round-trips arrays losslessly, and the
two-plane replay is bit-identical to direct simulation, so only the
wall-clock attribution changes.  Workers return rendered strings (plus
timing and cache accounting), not result objects, which keeps the
transport picklable and the parent deterministic: entries are emitted
in request order regardless of completion order.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..config import DEFAULT_SIM_CONFIG, DEFAULT_TECHNOLOGY
from ..errors import ConfigError
from .context import ExperimentContext
from .registry import get_experiment, list_experiments
from .store import ArtifactStore, counter_delta, delta_totals


@dataclasses.dataclass(frozen=True)
class SuitePlan:
    """The two-stage schedule of one suite invocation.

    Attributes:
        names: Experiment ids in emission order.
        warmup_designs: Unique ``(width, kind)`` designs to
            characterize up front, widest first.
        warmup_netlists: Unique netlist-only builds not implied by a
            design.
    """

    names: Tuple[str, ...]
    warmup_designs: Tuple[Tuple[int, str], ...]
    warmup_netlists: Tuple[Tuple[int, str], ...]


def shard_ranges(total: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous,
    near-equal ``(lo, hi)`` ranges (first shards one longer when the
    split is uneven).  Shared by the Monte Carlo runner
    (:mod:`repro.montecarlo.runner`): concatenating the per-range
    results in order reproduces the unsharded computation exactly.
    """
    if total < 0:
        raise ConfigError("total must be >= 0, got %r" % (total,))
    if shards < 1:
        raise ConfigError("shards must be >= 1, got %r" % (shards,))
    if total == 0:
        return []
    shards = min(shards, total)
    base, extra = divmod(total, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def plan_suite(names: Sequence[str]) -> SuitePlan:
    """Merge the named specs' resource declarations into a plan."""
    specs = [get_experiment(name) for name in names]
    designs: List[Tuple[int, str]] = []
    netlists: List[Tuple[int, str]] = []
    for spec in specs:
        for pair in spec.resources.designs:
            if pair not in designs:
                designs.append(pair)
        for pair in spec.resources.netlists:
            if pair not in netlists:
                netlists.append(pair)
    netlists = [pair for pair in netlists if pair not in designs]
    # Widest-first: characterizing a 32-bit design dominates warm-up,
    # so it must start before the cheap 8/16-bit ones, not after.
    designs.sort(key=lambda pair: (-pair[0], pair[1]))
    netlists.sort(key=lambda pair: (-pair[0], pair[1]))
    return SuitePlan(
        names=tuple(names),
        warmup_designs=tuple(designs),
        warmup_netlists=tuple(netlists),
    )


@dataclasses.dataclass
class SuiteEntry:
    """One experiment's outcome inside a suite run."""

    name: str
    title: str
    rendered: str
    elapsed: float
    #: Store counter delta attributable to this experiment
    #: (``kind -> {hits, misses, writes}``); empty without a store.
    store_delta: Dict[str, Dict[str, int]]
    #: The result object (serial runs only; parallel workers return
    #: rendered text, so this is None).
    result: object = None
    #: Failure description when the experiment raised or its worker
    #: died -- a degraded-but-typed record instead of an aborted suite.
    error: Optional[str] = None

    def cache_hits(self) -> int:
        return delta_totals(self.store_delta)["hits"]


@dataclasses.dataclass
class SuiteResult:
    """Outcome + accounting of one :func:`run_suite` invocation."""

    entries: List[SuiteEntry]
    plan: SuitePlan
    jobs: int
    wall_s: float
    warmup_s: float
    store_dir: Optional[str]
    #: Merged store counters over parent + all workers (None: no store).
    store_counters: Optional[Dict[str, Dict[str, int]]]

    def entry(self, name: str) -> SuiteEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise ConfigError("no suite entry %r" % (name,))

    def rendered_by_name(self) -> Dict[str, str]:
        """Experiment id -> rendered output (the byte-identity surface
        compared across serial / parallel / warm runs)."""
        return {entry.name: entry.rendered for entry in self.entries}

    def total_hits(self) -> int:
        if self.store_counters is None:
            return 0
        return sum(
            stats.get("hits", 0) for stats in self.store_counters.values()
        )

    def failures(self) -> List[SuiteEntry]:
        """Entries whose experiment raised or whose worker died."""
        return [entry for entry in self.entries if entry.error is not None]

    def render(self) -> str:
        """Per-experiment wall-clock / cache-hit accounting table."""
        rows = []
        for entry in self.entries:
            totals = delta_totals(entry.store_delta)
            rows.append(
                [
                    entry.name,
                    entry.elapsed,
                    float(totals["hits"]),
                    float(totals["misses"]),
                    float(totals["writes"]),
                ]
            )
        lines = [
            "suite: %d experiments, jobs=%d, wall %.1f s"
            " (warm-up %.1f s)"
            % (len(self.entries), self.jobs, self.wall_s, self.warmup_s)
        ]
        if self.store_dir is not None:
            lines.append("store: %s" % self.store_dir)
        lines.append(
            format_table(
                ["experiment", "seconds", "hits", "misses", "writes"],
                rows,
            )
        )
        failed = self.failures()
        if failed:
            lines.append("failed: %d of %d experiments"
                         % (len(failed), len(self.entries)))
            for entry in failed:
                lines.append("  %s -- %s" % (entry.name, entry.error))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker-process side.  State ships once through the pool initializer
# (the faults.parallel idiom); tasks then reference it by module global.
# ----------------------------------------------------------------------

_WORKER_CONTEXT: Optional[ExperimentContext] = None


def _init_worker(technology, config, scale, characterize_patterns,
                 store_dir) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ExperimentContext(
        technology=technology,
        config=config,
        scale=scale,
        characterize_patterns=characterize_patterns,
        store=ArtifactStore(store_dir),
    )


def _snapshot(context: ExperimentContext):
    return context.store.snapshot() if context.store is not None else {}


def _delta(context: ExperimentContext, before):
    if context.store is None:
        return {}
    return counter_delta(before, context.store.snapshot())


def _warmup_design(pair: Tuple[int, str]):
    width, kind = pair
    before = _snapshot(_WORKER_CONTEXT)
    start = time.perf_counter()
    _WORKER_CONTEXT.factory(width, kind)
    return (
        time.perf_counter() - start,
        _delta(_WORKER_CONTEXT, before),
    )


def _warmup_netlist(pair: Tuple[int, str]):
    width, kind = pair
    before = _snapshot(_WORKER_CONTEXT)
    start = time.perf_counter()
    _WORKER_CONTEXT.netlist(width, kind)
    return (
        time.perf_counter() - start,
        _delta(_WORKER_CONTEXT, before),
    )


def _run_spec(name: str):
    spec = get_experiment(name)
    before = _snapshot(_WORKER_CONTEXT)
    start = time.perf_counter()
    result = spec.run(_WORKER_CONTEXT)
    elapsed = time.perf_counter() - start
    return (
        name,
        spec.title,
        result.render(),
        elapsed,
        _delta(_WORKER_CONTEXT, before),
    )


# ----------------------------------------------------------------------


def _resolve_names(
    names: Optional[Sequence[str]], tag: Optional[str]
) -> List[str]:
    if names:
        resolved = []
        for name in names:
            get_experiment(name)  # validate (did-you-mean on typos)
            if name not in resolved:
                resolved.append(name)
        return resolved
    return [spec.id for spec in list_experiments(tag=tag)]


def _spec_weight(name: str) -> Tuple[int, str]:
    """Submission priority: widest declared design first (the 32-bit
    sweeps dominate the makespan), stable by id."""
    spec = get_experiment(name)
    widths = [width for width, _ in spec.resources.designs]
    return (-max(widths) if widths else 0, name)


def run_suite(
    names: Optional[Sequence[str]] = None,
    tag: Optional[str] = None,
    scale: float = 1.0,
    jobs: int = 1,
    store=None,
    technology=DEFAULT_TECHNOLOGY,
    config=DEFAULT_SIM_CONFIG,
    characterize_patterns: int = 2000,
    context: Optional[ExperimentContext] = None,
    on_result: Optional[Callable[[SuiteEntry], None]] = None,
    pool=None,
) -> SuiteResult:
    """Run a set of experiments, optionally in parallel over a store.

    Args:
        names: Experiment ids (None: every registered experiment,
            filtered by ``tag``).
        scale: Pattern-count multiplier forwarded to every context.
        jobs: Worker processes.  1 runs serially in this process;
            N > 1 fans out over a ``ProcessPoolExecutor`` after the
            warm-up stage.
        store: :class:`ArtifactStore`, directory path, or None.  With
            ``jobs > 1`` and no store, a temporary store is created for
            the run (the workers need a sharing medium) and removed
            afterwards.
        context: Serial runs only -- reuse an existing context (its
            technology/config/scale win over the other arguments).
        on_result: Called with each :class:`SuiteEntry` as soon as it
            is finalized, always in request order.
        pool: Optional :class:`~repro.distrib.pool.WorkerPool`;
            experiments run on its workers (default technology/config
            only -- job specs travel as JSON) and return rendered text,
            byte-identical to the serial run.

    Returns:
        A :class:`SuiteResult`; entry order matches the request order,
        and rendered outputs are byte-identical for any ``jobs``.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1, got %r" % (jobs,))
    names = _resolve_names(names, tag)
    plan = plan_suite(names)
    if isinstance(store, str):
        store = ArtifactStore(store)
    if context is not None and jobs > 1:
        raise ConfigError("an explicit context forces a serial run")

    start = time.perf_counter()
    if pool is not None:
        if (technology is not DEFAULT_TECHNOLOGY
                or config is not DEFAULT_SIM_CONFIG):
            raise ConfigError(
                "pooled suites rebuild state from JSON job specs,"
                " which only carry the default technology/config"
            )
        result = _run_pooled(
            plan, scale, characterize_patterns, pool, on_result,
        )
    elif jobs == 1 or len(names) <= 1:
        result = _run_serial(
            plan, scale, store, technology, config,
            characterize_patterns, context, on_result,
        )
    else:
        result = _run_parallel(
            plan, scale, jobs, store, technology, config,
            characterize_patterns, on_result,
        )
    result.wall_s = time.perf_counter() - start
    return result


def _run_pooled(
    plan, scale, characterize_patterns, pool, on_result,
) -> SuiteResult:
    """Fan the experiments out over a :class:`WorkerPool`.

    Workers rebuild an :class:`ExperimentContext` from the job spec and
    return rendered text -- the same transport as the process pool, so
    outputs stay byte-identical to the serial run.
    """
    from ..distrib.pool import run_suite_pooled

    requests = [
        {
            "job": "experiment",
            "name": name,
            "scale": scale,
            "characterize_patterns": characterize_patterns,
        }
        for name in plan.names
    ]
    responses = run_suite_pooled(pool, requests)
    entries: List[SuiteEntry] = []
    for name, response in zip(plan.names, responses):
        if response.get("error"):
            entry = _error_entry(name, response["error"])
        else:
            entry = SuiteEntry(
                name=name,
                title=response["title"],
                rendered=response["rendered"],
                elapsed=float(response.get("elapsed", 0.0)),
                store_delta={},
            )
        entries.append(entry)
        if on_result is not None:
            on_result(entry)
    return SuiteResult(
        entries=entries,
        plan=plan,
        jobs=pool.size,
        wall_s=0.0,
        warmup_s=0.0,
        store_dir=None,
        store_counters=None,
    )


def _run_serial(
    plan, scale, store, technology, config, characterize_patterns,
    context, on_result,
) -> SuiteResult:
    ctx = context or ExperimentContext(
        technology=technology,
        config=config,
        scale=scale,
        characterize_patterns=characterize_patterns,
        store=store,
    )
    warmup_start = time.perf_counter()
    for width, kind in plan.warmup_designs:
        ctx.factory(width, kind)
    for width, kind in plan.warmup_netlists:
        ctx.netlist(width, kind)
    warmup_s = time.perf_counter() - warmup_start

    entries: List[SuiteEntry] = []
    for name in plan.names:
        spec = get_experiment(name)
        before = _snapshot(ctx)
        t0 = time.perf_counter()
        result = spec.run(ctx)
        entry = SuiteEntry(
            name=name,
            title=spec.title,
            rendered=result.render(),
            elapsed=time.perf_counter() - t0,
            store_delta=_delta(ctx, before),
            result=result,
        )
        entries.append(entry)
        if on_result is not None:
            on_result(entry)
    return SuiteResult(
        entries=entries,
        plan=plan,
        jobs=1,
        wall_s=0.0,
        warmup_s=warmup_s,
        store_dir=ctx.store.directory if ctx.store else None,
        store_counters=ctx.store.snapshot() if ctx.store else None,
    )


def _make_executor(
    jobs, technology, config, scale, characterize_patterns, store_dir,
) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
        initargs=(
            technology, config, scale, characterize_patterns, store_dir,
        ),
    )


def _error_entry(name: str, error) -> SuiteEntry:
    """A degraded-but-typed record for a failed experiment."""
    spec = get_experiment(name)
    if isinstance(error, BaseException):
        message = "%s: %s" % (type(error).__name__, error)
    else:
        message = str(error)
    return SuiteEntry(
        name=name,
        title=spec.title,
        rendered="ERROR: %s" % message,
        elapsed=0.0,
        store_delta={},
        error=message,
    )


def _run_parallel(
    plan, scale, jobs, store, technology, config,
    characterize_patterns, on_result,
) -> SuiteResult:
    temp_dir = None
    if store is None:
        temp_dir = tempfile.mkdtemp(prefix="repro-suite-store-")
        store = ArtifactStore(temp_dir)
    jobs = min(jobs, len(plan.names))
    executor = _make_executor(
        jobs, technology, config, scale, characterize_patterns,
        store.directory,
    )
    try:
        warmup_start = time.perf_counter()
        warmups = [
            executor.submit(_warmup_design, pair)
            for pair in plan.warmup_designs
        ]
        warmups += [
            executor.submit(_warmup_netlist, pair)
            for pair in plan.warmup_netlists
        ]
        for future in warmups:
            _, delta = future.result()  # re-raises worker failures
            store.merge_counters(delta)
        warmup_s = time.perf_counter() - warmup_start

        order = {name: i for i, name in enumerate(plan.names)}
        entries: List[SuiteEntry] = [None] * len(plan.names)
        done_entries: Dict[int, SuiteEntry] = {}
        flush = [0]  # next request-order index to emit

        def finalize(entry: SuiteEntry) -> None:
            index = order[entry.name]
            entries[index] = entry
            done_entries[index] = entry
            # Flush finalized entries strictly in request order.
            while flush[0] in done_entries:
                if on_result is not None:
                    on_result(done_entries[flush[0]])
                flush[0] += 1

        def harvest(future, name) -> bool:
            """Finalize one completed future.  Returns True when the
            future died with the pool (caller must rebuild + retry)."""
            try:
                _, title, rendered, elapsed, delta = future.result()
            except BrokenProcessPool:
                return True
            except Exception as exc:
                # Deterministic in-worker failure: record, no retry.
                finalize(_error_entry(name, exc))
                return False
            store.merge_counters(delta)
            finalize(SuiteEntry(
                name=name,
                title=title,
                rendered=rendered,
                elapsed=elapsed,
                store_delta=delta,
            ))
            return False

        # A worker calling os._exit (or being OOM-killed) breaks the
        # whole pool: every unfinished future raises BrokenProcessPool,
        # innocents included.  First breakage: rebuild the pool and
        # resubmit every survivor in parallel.  Second breakage: the
        # crasher is among the survivors, so isolate -- run them one at
        # a time so a repeat crash implicates exactly one experiment,
        # which becomes an error record while the rest complete.
        remaining = sorted(plan.names, key=_spec_weight)
        pool_broke_before = False
        while remaining:
            futures = {
                executor.submit(_run_spec, name): name
                for name in remaining
            }
            remaining = []
            pending = set(futures)
            broke = False
            while pending:
                completed, pending = wait(
                    pending, return_when=FIRST_COMPLETED
                )
                for future in completed:
                    name = futures[future]
                    if harvest(future, name):
                        broke = True
                        remaining.append(name)
            if not broke:
                break
            executor.shutdown(wait=False, cancel_futures=True)
            executor = _make_executor(
                jobs, technology, config, scale,
                characterize_patterns, store.directory,
            )
            remaining.sort(key=_spec_weight)
            if pool_broke_before:
                # Isolation pass: one in-flight experiment at a time.
                for name in remaining:
                    if harvest(executor.submit(_run_spec, name), name):
                        finalize(_error_entry(
                            name, "worker process died while running"
                            " this experiment",
                        ))
                        executor.shutdown(
                            wait=False, cancel_futures=True
                        )
                        executor = _make_executor(
                            jobs, technology, config, scale,
                            characterize_patterns, store.directory,
                        )
                remaining = []
            pool_broke_before = True
        return SuiteResult(
            entries=entries,
            plan=plan,
            jobs=jobs,
            wall_s=0.0,
            warmup_s=warmup_s,
            store_dir=None if temp_dir else store.directory,
            store_counters=store.snapshot(),
        )
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
