"""Asyncio serving layer: LRU tier, coalescing, deadlines, degradation.

The ROADMAP's "reliability-as-a-service" oracle: clients ask
"design X, workload Y, year t" and get latency / error-rate /
switching stats.  Three tiers answer a query:

1. **Hot LRU** -- an in-memory map of ``(design, workload, year)`` to
   result records, bounded by ``lru_size`` (evictions fall through to
   the stale tier, which only ever serves degraded responses).
2. **On-disk store** -- backend workers run store-backed experiment
   contexts, so anything ever priced by this or a previous server
   process is a cheap disk hit.
3. **Backend build** -- a single-flight, batched dispatch: concurrent
   misses on the same ``(spec, year)`` share ONE in-flight future, and
   a multi-year query prices all its missing years in one batched
   arrival replay.

Failure is data, not disconnection: a missed deadline or a crashed
backend worker produces a typed ``degraded`` response (stale data when
any is available) or a typed ``error`` record.  The TCP connection --
and the server -- always survive; counters make every degradation
observable via the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..errors import BackendCrashError, ReproError, ServiceError
from .backend import Backend
from .protocol import (
    QuerySpec,
    decode,
    degraded_response,
    encode,
    error_response,
    ok_response,
)

#: Counter names exposed by the ``stats`` op (all start at zero).
COUNTERS = (
    "connections",
    "requests",
    "queries",
    "lru_hits",
    "coalesced",
    "backend_calls",
    "backend_builds",
    "deadline_exceeded",
    "degraded_stale",
    "backend_crashes",
    "error_responses",
    "protocol_errors",
)


@dataclasses.dataclass
class ServiceConfig:
    """Tunables of one :class:`ReliabilityService` instance."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``service.port``).
    port: int = 0
    store_dir: Optional[str] = None
    lru_size: int = 1024
    stale_size: int = 4096
    workers: int = 1
    characterize_patterns: int = 2000
    #: Applied when a request carries no ``deadline_ms`` (None: wait).
    default_deadline_ms: Optional[float] = None
    #: Enables the ``inject`` request field (deterministic crash/sleep
    #: used by tests and the CI degraded-path checks).
    testing_hooks: bool = False


class ReliabilityService:
    """The asyncio TCP JSON-lines reliability oracle."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.backend = Backend(
            store_dir=config.store_dir,
            workers=config.workers,
            characterize_patterns=config.characterize_patterns,
            testing_hooks=config.testing_hooks,
        )
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._lru: "OrderedDict[Tuple, Dict]" = OrderedDict()
        self._stale: "OrderedDict[Tuple, Dict]" = OrderedDict()
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        #: Strong refs to in-flight build tasks (asyncio only keeps
        #: weak ones; an unreferenced task can be collected mid-build).
        self._build_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.backend.close()
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) is called."""
        await self._stopped.wait()

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.counters["connections"] += 1
        write_lock = asyncio.Lock()
        tasks = []
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.append(task)
                tasks = [t for t in tasks if not t.done()]
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_line(self, line, writer, write_lock) -> None:
        self.counters["requests"] += 1
        request_id = None
        try:
            request = decode(line)
            request_id = request.get("id")
            response = await self._dispatch_op(request)
        except ServiceError as exc:
            self.counters["protocol_errors"] += 1
            response = error_response(
                request_id, "backend-error", type(exc).__name__, str(exc)
            )
        except Exception as exc:  # never let a request kill the server
            self.counters["error_responses"] += 1
            response = error_response(
                request_id, "backend-error", type(exc).__name__, str(exc)
            )
        async with write_lock:
            writer.write(encode(response))
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _dispatch_op(self, request: Dict) -> Dict:
        op = request.get("op")
        request_id = request.get("id")
        if op == "ping":
            return ok_response(request_id, [], "service", 0.0)
        if op == "stats":
            return ok_response(
                request_id, [self.stats()], "service", 0.0
            )
        if op == "shutdown":
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop())
            )
            return ok_response(request_id, [], "service", 0.0)
        if op == "query":
            return await self._serve_query(request)
        raise ServiceError(
            "unknown op %r (known: query, ping, stats, shutdown)" % (op,)
        )

    def stats(self) -> Dict:
        counters = dict(self.counters)
        counters["backend_pool_crashes"] = self.backend.crashes
        return {
            "counters": counters,
            "lru_entries": len(self._lru),
            "stale_entries": len(self._stale),
            "inflight": len(self._inflight),
        }

    # -- the query path -------------------------------------------------

    async def _serve_query(self, request: Dict) -> Dict:
        start = time.perf_counter()
        request_id = request.get("id")
        spec = QuerySpec.from_request(request)
        inject = (
            request.get("inject") if self.config.testing_hooks else None
        )
        self.counters["queries"] += 1
        deadline_ms = request.get(
            "deadline_ms", self.config.default_deadline_ms
        )
        timeout = None if deadline_ms is None else float(deadline_ms) / 1e3
        try:
            results, source = await asyncio.wait_for(
                self._results_for(spec, inject), timeout
            )
            return ok_response(
                request_id,
                results,
                source,
                (time.perf_counter() - start) * 1e3,
            )
        except asyncio.TimeoutError:
            self.counters["deadline_exceeded"] += 1
            return self._degrade(
                request_id, spec, "deadline", start,
                "deadline of %.1f ms exceeded" % float(deadline_ms),
            )
        except BackendCrashError as exc:
            self.counters["backend_crashes"] += 1
            return self._degrade(
                request_id, spec, "backend-crash", start, str(exc)
            )
        except ReproError as exc:
            self.counters["error_responses"] += 1
            return error_response(
                request_id,
                "backend-error",
                type(exc).__name__,
                str(exc),
                (time.perf_counter() - start) * 1e3,
            )

    async def _results_for(
        self, spec: QuerySpec, inject: Optional[str]
    ) -> Tuple[List[Dict], str]:
        """The per-year records for ``spec`` -- LRU hits, coalesced
        waits and at most one backend dispatch for the missing years."""
        keys = [spec.cache_key(year) for year in spec.years]
        ready: Dict[Tuple, Dict] = {}
        waiting: Dict[Tuple, asyncio.Future] = {}
        build_years: List[float] = []
        for year, key in zip(spec.years, keys):
            if key in ready or key in waiting:
                continue
            cached = None if inject else self._lru_get(key)
            if cached is not None:
                self.counters["lru_hits"] += 1
                ready[key] = cached
            elif key in self._inflight:
                self.counters["coalesced"] += 1
                waiting[key] = self._inflight[key]
            else:
                future = asyncio.get_running_loop().create_future()
                # Mark handled so an abandoned future (every waiter
                # timed out) never logs "exception was never retrieved".
                future.add_done_callback(
                    lambda f: f.cancelled() or f.exception()
                )
                self._inflight[key] = future
                waiting[key] = future
                build_years.append(year)
        if build_years:
            self.counters["backend_calls"] += 1
            self.counters["backend_builds"] += len(build_years)
            task = asyncio.ensure_future(
                self._build(spec.with_years(build_years), inject)
            )
            self._build_tasks.add(task)
            task.add_done_callback(self._build_tasks.discard)
        for key, future in waiting.items():
            # shield: a deadline cancels THIS waiter, not the shared
            # in-flight computation other clients are waiting on.
            ready[key] = await asyncio.shield(future)
        source = "backend" if build_years else (
            "coalesced" if waiting else "lru"
        )
        return [ready[key] for key in keys], source

    async def _build(
        self, spec: QuerySpec, inject: Optional[str]
    ) -> None:
        """Run one backend dispatch and settle its in-flight futures."""
        keys = [spec.cache_key(year) for year in spec.years]
        try:
            records = await self.backend.run(spec, inject)
        except Exception as exc:
            for key in keys:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
            return
        for key, record in zip(keys, records):
            self._lru_put(key, record)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(record)

    # -- degradation ----------------------------------------------------

    def _degrade(
        self, request_id, spec: QuerySpec, reason: str, start: float,
        message: str,
    ) -> Dict:
        """Stale-if-available, typed error record otherwise."""
        stale, stale_years = self._stale_lookup(spec)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        if stale:
            self.counters["degraded_stale"] += 1
            return degraded_response(
                request_id, reason, stale, stale_years, elapsed_ms
            )
        self.counters["error_responses"] += 1
        return error_response(
            request_id,
            reason,
            "DeadlineExceededError"
            if reason == "deadline"
            else "BackendCrashError",
            message,
            elapsed_ms,
        )

    def _stale_lookup(
        self, spec: QuerySpec
    ) -> Tuple[List[Dict], List[float]]:
        """Freshest previously computed records for ``spec``: exact
        ``(group, year)`` matches first, else the nearest year priced
        for the same group."""
        stale: List[Dict] = []
        stale_years: List[float] = []
        group = spec.group_key()
        available = [
            (key[-1], record)
            for key, record in self._stale.items()
            if key[:-1] == group
        ]
        if not available:
            return [], []
        for year in spec.years:
            exact = self._stale.get(spec.cache_key(year))
            if exact is not None:
                stale.append(exact)
                stale_years.append(float(year))
                continue
            nearest_year, record = min(
                available, key=lambda pair: abs(pair[0] - year)
            )
            stale.append(record)
            stale_years.append(float(nearest_year))
        return stale, stale_years

    # -- cache tiers ----------------------------------------------------

    def _lru_get(self, key: Tuple) -> Optional[Dict]:
        record = self._lru.get(key)
        if record is not None:
            self._lru.move_to_end(key)
        return record

    def _lru_put(self, key: Tuple, record: Dict) -> None:
        self._lru[key] = record
        self._lru.move_to_end(key)
        while len(self._lru) > self.config.lru_size:
            self._lru.popitem(last=False)
        self._stale[key] = record
        self._stale.move_to_end(key)
        while len(self._stale) > self.config.stale_size:
            self._stale.popitem(last=False)


# ----------------------------------------------------------------------
# Background serving (tests, the bench harness, the CLI).
# ----------------------------------------------------------------------


class ServiceHandle:
    """A service running on a daemon thread with its own event loop."""

    def __init__(self, service: ReliabilityService, thread, loop):
        self.service = service
        self.port: int = service.port
        self._thread = thread
        self._loop = loop

    def stop(self, timeout_s: float = 10.0) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.service.stop(), self._loop
            )
            self._thread.join(timeout_s)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_background(
    config: ServiceConfig, startup_timeout_s: float = 30.0
) -> ServiceHandle:
    """Start a :class:`ReliabilityService` on a daemon thread and wait
    until it is accepting connections.  The handle is a context
    manager; ``stop()`` shuts the loop down cleanly."""
    service = ReliabilityService(config)
    started = threading.Event()
    box: Dict[str, object] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def _main() -> None:
            await service.start()
            started.set()
            await service.serve_until_stopped()

        try:
            loop.run_until_complete(_main())
        finally:
            # Idle connection handlers may still be parked on readline;
            # cancel and drain them so loop.close() is clean.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(
        target=_run, name="repro-service", daemon=True
    )
    thread.start()
    if not started.wait(startup_timeout_s):
        raise ServiceError(
            "service did not start within %.1f s" % startup_timeout_s
        )
    return ServiceHandle(service, thread, box["loop"])
