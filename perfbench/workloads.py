"""The four benchmark workloads.

Each workload is set up once per process, then run as repeated
*iterations* (one suite run, one variant sweep, one service trace)
until the measuring time is used up.  An iteration reports its wall
time, raw and normalised to the reference host speed by the
``hostspeed`` clock it runs under, per-operation latencies, failure
accounting and any mismatch against the recorded references in
``reference.json``.

Load comes only from the ``--seed`` argument: the variant sweep sees
only its operand-stream seed and the service sees only queries.  The suites
take no seed at all (``run_suite`` is deterministic), so their seed
only names the run.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import socket
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeltaError, ServiceError
from repro.experiments.scheduler import run_suite
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import (
    SweepSpec,
    VariantSweep,
    render_payload,
    sweep_payload,
)
from repro.service import (
    AsyncServiceClient,
    QuerySpec,
    ServiceClient,
    ServiceConfig,
    serve_in_background,
)
from repro.service.protocol import decode, encode

from hostspeed import PERIOD_S, HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Suite size: every registered experiment at a pattern scale small
#: enough for several cold runs per measurement.
SUITE = {"scale": 0.02, "characterize_patterns": 300}

#: Variant sweep: a 16x16 column-bypass parent and a fixed family of
#: mutants.  The seed picks the operand stream (``stream_seed = seed %
#: SWEEP_SEEDS``), not the family: the cost of a cone replay follows the
#: mutated cell's cone, so families drawn by different variant seeds
#: differ in cost by about 25% and would drown any change in noise.
SWEEP_VARIANTS = 48
SWEEP_VARIANT_SEED = 0
SWEEP_SEEDS = 10


def sweep_spec(stream_seed: int) -> SweepSpec:
    return SweepSpec(
        width=16,
        kind="column",
        num_patterns=2000,
        seed=stream_seed,
        characterize_patterns=600,
        num_variants=SWEEP_VARIANTS,
        variant_seed=SWEEP_VARIANT_SEED,
    )


#: Service query space: every (width, kind, year, seed) key.  Each
#: trace asks every key once as a first-seen query, so all seeds cost
#: the same backend work and differ only in order and repeats.
SERVICE_WIDTHS = (8, 16)
SERVICE_KINDS = ("am", "column", "row")
SERVICE_YEARS = (0.0, 1.0, 2.0, 4.0, 7.0)
SERVICE_SEEDS = (1, 2, 3, 4)
SERVICE_PATTERNS = 400
SERVICE_CHARACTERIZE = 300
#: Clock budget per width, near the fresh p99 path delay, so the
#: error rate moves with aging.
SERVICE_CYCLE_NS = {8: 0.45, 16: 0.8}
#: Trace shape: lock-step steps of one query per client (1200 queries,
#: 120 of them first-seen), 12 steps of which send one first-seen key
#: from both clients at once.
SERVICE_STEPS = 600
SERVICE_CLIENTS = 2
SERVICE_DUPLICATES = 12
#: Steps between two host-speed samples.  Samples are taken between
#: steps, when no query is in flight and the backend worker is idle.
SERVICE_SAMPLE_STEPS = 20
#: Query that starts the server's backend pool during set-up; its key
#: lies outside the traced query space.
SERVICE_PROBE = {"width": 4, "kind": "am", "years": [0.0], "num_patterns": 16}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_reference() -> Dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


@dataclasses.dataclass
class Iteration:
    """One measured pass of a workload."""

    #: Wall seconds, calibration samples left out.
    wall_s: float
    #: The same at the reference host speed.
    norm_wall_s: float
    #: Per-operation latencies (experiment / variant / query), seconds;
    #: ``inf`` marks a failed operation.  Reported from traced runs
    #: only, whose clocks take no samples.
    op_s: List[float]
    #: Normalised time the operations took (``norm_ops_per_s``
    #: denominator).
    norm_busy_s: float
    attempted: int
    failed: int
    problems: List[str]
    #: Normalised set-up time paid inside this iteration (service
    #: start).
    setup_s: Optional[float] = None
    #: Median host speed while it ran (1.0 = reference; set by the
    #: caller from its clock).
    host_speed: float = 1.0
    #: Extra per-layer figures only this workload can see.
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    """Base: ``setup()`` once, ``iteration(clock)`` repeatedly,
    ``close()``.  ``clock`` is a running ``hostspeed`` clock."""

    name = ""
    #: Modules whose import a user of this entry point pays.
    entry_modules: Tuple[str, ...] = ()
    #: Whether child processes (backend workers) hold part of the
    #: workload's memory.
    counts_children_rss = False
    #: Host-speed sampling period of the iteration's clock; ``None``:
    #: the iteration calls ``clock.sample()`` itself.
    clock_period_s: Optional[float] = PERIOD_S

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.reference = load_reference()
        #: Accounting of work done during set-up (the warm suite's
        #: store fill), checked like an iteration but not timed as one.
        self.setup_checks: Optional[Iteration] = None

    def setup(self) -> float:
        """Workload-specific set-up; returns its normalised seconds."""
        return 0.0

    def iteration(self, clock) -> Iteration:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def summary(self) -> List[str]:
        """Extra lines for the human-readable report."""
        return []

    def _tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.work_dir)


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------


def suite_digests(result) -> List[List[str]]:
    """Ordered ``[name, sha256(rendered)]`` pairs of a suite run."""
    return [
        [name, sha256_text(text)]
        for name, text in result.rendered_by_name().items()
    ]


def compare_suite(digests, reference, label: str) -> List[str]:
    if digests == reference:
        return []
    expected = dict(reference)
    wrong = [
        name for name, digest in digests if expected.get(name) != digest
    ]
    order = [name for name, _ in digests] != [n for n, _ in reference]
    return [
        "%s rendered output differs from the reference: %s%s"
        % (label, ", ".join(wrong) or "-", " (order differs)" if order else "")
    ]


class _Suite(Workload):
    entry_modules = ("repro.experiments.scheduler",)

    def _run(self, store: ArtifactStore, reference, label: str, clock):
        start = time.perf_counter()
        try:
            result = run_suite(names=None, jobs=1, store=store, **SUITE)
        except Exception as exc:  # a failed suite is a counted result
            end = time.perf_counter()
            norm = clock.normalised(start, end)
            count = len(reference)
            return None, Iteration(
                clock.raw(start, end), norm, [float("inf")] * count, norm,
                count, count,
                ["%s suite raised %s: %s" % (label, type(exc).__name__, exc)],
            )
        end = time.perf_counter()
        problems = compare_suite(suite_digests(result), reference, label)
        norm = clock.normalised(start, end)
        iteration = Iteration(
            wall_s=clock.raw(start, end),
            norm_wall_s=norm,
            op_s=[entry.elapsed for entry in result.entries],
            norm_busy_s=norm,
            attempted=len(result.entries),
            failed=len(result.failures()),
            problems=problems,
        )
        return result, iteration


class SuiteCold(_Suite):
    """``run_suite`` into an empty store: every artifact is simulated
    and written."""

    name = "suite_cold"

    def iteration(self, clock) -> Iteration:
        directory = self._tempdir("cold-")
        try:
            _, iteration = self._run(
                ArtifactStore(directory), self.reference["suite_cold"],
                "cold", clock,
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return iteration


class SuiteWarm(_Suite):
    """``run_suite`` against a store filled during set-up: artifacts
    are read back instead of simulated."""

    name = "suite_warm"

    def setup(self) -> float:
        self.store_dir = self._tempdir("warm-")
        with HostClock() as clock:
            _, self.setup_checks = self._run(
                ArtifactStore(self.store_dir), self.reference["suite_cold"],
                "store fill", clock,
            )
        return self.setup_checks.norm_wall_s

    def iteration(self, clock) -> Iteration:
        store = ArtifactStore(self.store_dir)
        result, iteration = self._run(
            store, self.reference["suite_warm"], "warm", clock
        )
        if result is not None:
            misses = sum(
                counts.get("misses", 0)
                for counts in (result.store_counters or {}).values()
            )
            if misses:
                iteration.problems.append(
                    "warm suite missed the store %d times" % misses
                )
        return iteration

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Variant sweep
# ----------------------------------------------------------------------


def sweep_digest(spec: SweepSpec, records) -> str:
    return sha256_text(render_payload(sweep_payload(spec, records)))


class VariantSweepWorkload(Workload):
    """A cone-delta mutant sweep: one parent base, many cone replays."""

    name = "variant_sweep"
    entry_modules = ("repro.experiments.sweep",)

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.stream_seed = seed % SWEEP_SEEDS
        self.spec = sweep_spec(self.stream_seed)
        self.expected = self.reference["variant_sweep"][str(self.stream_seed)]
        self.fallbacks = 0

    def iteration(self, clock) -> Iteration:
        start = time.perf_counter()
        sweep = VariantSweep(self.spec)
        sweep.base()
        base_end = time.perf_counter()
        records, op_s, failed, problems = [], [], 0, []
        for index in range(self.spec.num_variants):
            t0 = time.perf_counter()
            try:
                record, method = sweep.evaluate(index)
            except DeltaError as exc:
                failed += 1
                op_s.append(float("inf"))
                problems.append("variant %d raised %s" % (index, exc))
                continue
            op_s.append(time.perf_counter() - t0)
            records.append(record)
            self.fallbacks += method == "full"
        end = time.perf_counter()
        if not failed and sweep_digest(self.spec, records) != self.expected:
            problems.append(
                "sweep payload (stream seed %d) differs from the reference"
                % self.stream_seed
            )
        return Iteration(
            wall_s=clock.raw(start, end),
            norm_wall_s=clock.normalised(start, end),
            op_s=op_s,
            norm_busy_s=clock.normalised(base_end, end),
            attempted=self.spec.num_variants,
            failed=failed,
            problems=problems,
        )

    def summary(self) -> List[str]:
        return ["delta fallbacks to a full evaluation: %d" % self.fallbacks]


# ----------------------------------------------------------------------
# Service mix
# ----------------------------------------------------------------------

Key = Tuple[int, str, float, int]


def service_keys() -> List[Key]:
    return [
        (width, kind, year, seed)
        for width in SERVICE_WIDTHS
        for kind in SERVICE_KINDS
        for year in SERVICE_YEARS
        for seed in SERVICE_SEEDS
    ]


def key_name(key: Key) -> str:
    width, kind, year, seed = key
    return "%d/%s/%g/%d" % (width, kind, year, seed)


def query_spec(key: Key) -> QuerySpec:
    """The :class:`QuerySpec` the service parses from ``key``'s query."""
    return QuerySpec.from_request(query_kwargs(key))


def query_kwargs(key: Key) -> Dict:
    width, kind, year, seed = key
    return {
        "width": width,
        "kind": kind,
        "years": [year],
        "num_patterns": SERVICE_PATTERNS,
        "seed": seed,
        "cycle_ns": SERVICE_CYCLE_NS[width],
    }


def service_trace(seed: int) -> List[Tuple[Key, ...]]:
    """Lock-step steps of one query per client.

    Every key of :func:`service_keys` is asked once as a first-seen
    query, in a seeded order at seeded slots; every other query repeats
    a key asked in an earlier step.  In :data:`SERVICE_DUPLICATES`
    steps both clients send the same first-seen key, so the second
    request coalesces onto the first one's backend build.
    """
    rng = np.random.default_rng(seed)
    keys = service_keys()
    fresh = [keys[i] for i in rng.permutation(len(keys))]
    duplicate_steps = set(
        int(i) + 1
        for i in rng.choice(
            SERVICE_STEPS - 1, SERVICE_DUPLICATES, replace=False
        )
    )
    slots = [
        (step, client)
        for step in range(SERVICE_STEPS)
        if step not in duplicate_steps
        for client in range(SERVICE_CLIENTS)
    ]
    singles = len(keys) - SERVICE_DUPLICATES
    # The first step asks only first-seen keys: nothing to repeat yet.
    first = SERVICE_CLIENTS
    new_slots = set(slots[:first]) | {
        slots[int(i) + first]
        for i in rng.choice(len(slots) - first, singles - first, replace=False)
    }
    seen: List[Key] = []
    trace = []
    for step in range(SERVICE_STEPS):
        earlier = len(seen)
        if step in duplicate_steps:
            seen.append(fresh.pop())
            trace.append((seen[-1],) * SERVICE_CLIENTS)
            continue
        queries = []
        for client in range(SERVICE_CLIENTS):
            if (step, client) in new_slots:
                seen.append(fresh.pop())
                queries.append(seen[-1])
            else:
                queries.append(seen[int(rng.integers(earlier))])
        trace.append(tuple(queries))
    return trace


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class ServiceMix(Workload):
    """A closed loop of two clients over a private service."""

    name = "service_mix"
    entry_modules = ("repro.service",)
    counts_children_rss = True
    clock_period_s = None

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.trace = service_trace(seed)
        self.expected = self.reference["service_mix"]

    def iteration(self, clock) -> Iteration:
        store_dir = self._tempdir("service-")
        try:
            return self._iteration(store_dir, clock)
        finally:
            wait_for_children()
            shutil.rmtree(store_dir, ignore_errors=True)

    def _iteration(self, store_dir: str, clock) -> Iteration:
        start = time.perf_counter()
        handle = serve_in_background(
            ServiceConfig(
                store_dir=store_dir,
                workers=1,
                characterize_patterns=SERVICE_CHARACTERIZE,
            )
        )
        try:
            probe = probe_query(handle.port)
            clock.sample()
            t0 = time.perf_counter()
            samples = asyncio.run(self._drive(handle.port, clock))
            t1 = time.perf_counter()
            clock.sample()
            with ServiceClient(port=handle.port) as client:
                stats = client.stats()["counters"]
        finally:
            handle.stop()
        problems = []
        if probe.get("status") != "ok":
            problems.append("set-up probe query failed: %r" % probe)
        failed = 0
        by_source: Dict[str, Tuple[List[float], List[float]]] = {}
        op_s = []
        for key, seconds, response in samples:
            if response is None or response.get("status") != "ok":
                failed += 1
                op_s.append(float("inf"))
                continue
            op_s.append(seconds)
            digest = sha256_text(canonical(response["results"]))
            if digest != self.expected[key_name(key)]:
                problems.append("query %s differs from the reference"
                                % key_name(key))
            server_ms = float(response["elapsed_ms"])
            server, transport = by_source.setdefault(
                response["source"], ([], [])
            )
            server.append(server_ms)
            transport.append(seconds * 1e3 - server_ms)
        layers = {
            "service.backend_builds": stats["backend_builds"],
            "service.coalesced": stats["coalesced"],
            "service.lru_hit_ratio": stats["lru_hits"] / max(1, stats["queries"]),
        }
        for source in ("lru", "backend", "coalesced"):
            server, transport = by_source.get(source, ([], []))
            for q in (50, 99):
                layers["service.server_ms.%s.p%d" % (source, q)] = (
                    percentile(server, q)
                )
                layers["service.transport_ms.%s.p%d" % (source, q)] = (
                    percentile(transport, q)
                )
        norm = clock.normalised(t0, t1)
        return Iteration(
            wall_s=clock.raw(t0, t1),
            norm_wall_s=norm,
            op_s=op_s,
            norm_busy_s=norm,
            attempted=len(samples),
            failed=failed,
            problems=problems[:5] + (
                ["... and %d more" % (len(problems) - 5)]
                if len(problems) > 5 else []
            ),
            setup_s=clock.normalised(start, t0),
            layers=layers,
        )

    async def _drive(self, port: int, clock):
        clients = [AsyncServiceClient(port=port) for _ in range(SERVICE_CLIENTS)]
        samples = []
        try:
            for index, step in enumerate(self.trace):
                if index and index % SERVICE_SAMPLE_STEPS == 0:
                    clock.sample()
                samples.extend(
                    await asyncio.gather(
                        *(
                            self._query(client, key)
                            for client, key in zip(clients, step)
                        )
                    )
                )
        finally:
            for client in clients:
                await client.close()
        return samples

    @staticmethod
    async def _query(client: AsyncServiceClient, key: Key):
        start = time.perf_counter()
        try:
            response = await client.query(**query_kwargs(key))
        except (ServiceError, OSError):
            response = None
        return key, time.perf_counter() - start, response


def probe_query(port: int) -> Dict:
    """Send :data:`SERVICE_PROBE` on a connection of its own.

    The backend worker is forked while this query is in flight and
    inherits the socket, so ``close()`` alone would leave the
    connection open until the worker exits; ``shutdown()`` ends it.
    """
    request = dict(SERVICE_PROBE, op="query", id=0)
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(encode(request))
        with sock.makefile("rb") as reader:
            line = reader.readline()
        sock.shutdown(socket.SHUT_RDWR)
    return decode(line)


def wait_for_children(timeout_s: float = 30.0) -> None:
    """Join every child process this one started (backend workers)."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)


WORKLOADS = {
    cls.name: cls
    for cls in (SuiteCold, SuiteWarm, VariantSweepWorkload, ServiceMix)
}
