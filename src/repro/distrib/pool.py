"""Worker pools: one JSON job protocol, three transports.

Every pool takes JSON job requests (see :mod:`repro.distrib.jobs`) and
returns response envelopes ``{"ok": true, "result": {...}}`` /
``{"ok": false, "error": "..."}``.  The envelope is produced by the
worker side (:func:`local_worker` in-process, the TCP daemon, or the
manifest executor), so driver-side handling is transport-agnostic.

Pools are selected from one CLI string by :func:`parse_pool_spec`:

* ``local:4`` -- four local worker processes;
* ``tcp:hostA:9100,hostB:9100`` -- round-robin over running
  ``python -m repro distrib worker`` daemons;
* ``manifest:/shared/dir`` (optionally ``manifest:/shared/dir:N`` for
  ``N`` logical shards) -- stage request files and merge results
  produced by ``python -m repro distrib exec`` runs.

:class:`LocalPool` is the only place in the package that builds a
process pool, and it owns worker-crash degradation for every caller.
The driver-facing helpers at the bottom (:func:`run_campaign_pooled` /
:func:`run_mc_pooled` / :func:`run_sweep_pooled` /
:func:`run_suite_pooled`) adapt the orchestrators' native shapes onto
the job protocol.
"""

from __future__ import annotations

import os
import socket
import threading
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterator, List, Optional
from typing import Sequence, Tuple

from ..errors import ConfigError, DistribError, FaultError
from ..errors import ManifestPending
from ..service.protocol import decode, encode
from ..util.atomic import atomic_write
from .jobs import run_job

#: Pool schemes :func:`parse_pool_spec` understands.
POOL_SCHEMES = ("local", "tcp", "manifest")

#: Seconds to wait for a TCP connect (job execution itself is
#: unbounded -- characterizing a wide design legitimately takes long).
CONNECT_TIMEOUT_S = 10.0


#: What :class:`LocalPool` returns for a job whose worker process died.
CRASH_ENVELOPE = {
    "ok": False,
    "crash": True,
    "error": "worker process died while running this job",
}


def local_worker(request: Dict, testing_hooks: bool = False) -> Dict:
    """Process-pool entry point: run one job, envelope the outcome.

    Module-level (picklable) and exception-free: failures become
    ``ok: false`` envelopes so one bad site cannot kill the pool.
    ``testing_hooks`` is set only by a :class:`LocalPool` built with it.
    """
    try:
        return {"ok": True, "result": run_job(request, testing_hooks)}
    except BaseException as exc:  # envelope *everything*, incl. SystemExit
        return {
            "ok": False,
            "error": "%s: %s" % (type(exc).__name__, exc),
        }


def _unwrap(response: Dict) -> Dict:
    """Driver-side envelope check; remote failures raise typed errors."""
    if not isinstance(response, dict) or "ok" not in response:
        raise DistribError(
            "malformed worker response (no 'ok' field): %r" % (response,)
        )
    if not response["ok"]:
        raise DistribError(
            "worker job failed: %s" % response.get("error", "unknown error")
        )
    result = response.get("result")
    if not isinstance(result, dict):
        raise DistribError(
            "malformed worker response (non-dict result): %r" % (result,)
        )
    return result


class WorkerPool:
    """Transport-agnostic pool interface.

    Attributes:
        size: Worker parallelism -- drives sharding decisions
            (``shard_ranges(num_dies, pool.size)``, campaign batch
            sizing), so every transport must report an honest value.
    """

    size: int = 1

    def map(self, requests: Sequence[Dict]) -> List[Dict]:
        """Run every request; responses in request order."""
        responses: List[Optional[Dict]] = [None] * len(requests)
        for index, response in self.imap_unordered(requests):
            responses[index] = response
        return responses

    def imap_unordered(
        self, requests: Sequence[Dict]
    ) -> Iterator[Tuple[int, Dict]]:
        """Yield ``(request index, response envelope)`` pairs as jobs
        complete (default: the ordered :meth:`map`; transports override
        for real streaming).  Transports implement at least one of the
        two."""
        yield from enumerate(self.map(requests))

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalPool(WorkerPool):
    """A :class:`ProcessPoolExecutor` speaking the JSON job protocol.

    The one local process pool: ``--jobs N`` / ``workers=N`` on the
    suite, Monte Carlo and campaign drivers and the service backend all
    run through it.  Jobs carry their state as JSON, exactly as on the
    remote transports, so a local run exercises the cluster path.

    A worker that dies (``os._exit``, OOM kill, segfault) breaks the
    whole executor, and every unfinished future fails with it, innocents
    included.  The pool degrades instead of raising:

    * first breakage -- rebuild the executor, resubmit the survivors;
    * second breakage -- rebuild again and run the survivors one at a
      time, so a repeat crash implicates exactly one job, which becomes
      a crash envelope (``ok: false``, ``crash: true``) while the rest
      complete;
    * :meth:`submit` of a single job that crashes returns the crash
      envelope, and the next call starts a fresh executor.

    Args:
        workers: Worker processes.
        testing_hooks: Honour the ``inject`` field of ``query`` jobs
            (deterministic crash/sleep for the service's degraded-path
            tests).  Only this pool's workers ever act on it.

    Attributes:
        crashes: Worker deaths survived so far (each one rebuilt the
            executor).
    """

    def __init__(self, workers: int, testing_hooks: bool = False):
        if workers < 1:
            raise ConfigError(
                "local pool needs >= 1 worker, got %d" % workers
            )
        self.size = int(workers)
        self.testing_hooks = bool(testing_hooks)
        self.crashes = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.size)
            return self._executor

    def _discard(self, broken: ProcessPoolExecutor) -> None:
        """Drop a broken executor (once, however many callers saw it
        break); the next call builds a fresh one."""
        with self._lock:
            if self._executor is not broken:
                return
            self._executor = None
            self.crashes += 1
        broken.shutdown(wait=True, cancel_futures=True)

    def _start(self, executor: ProcessPoolExecutor, request: Dict):
        return executor.submit(local_worker, request, self.testing_hooks)

    def submit(self, request: Dict) -> Dict:
        """Run one job; a worker death becomes a crash envelope."""
        executor = self._ensure()
        try:
            future = self._start(executor, request)
        except BrokenProcessPool:  # broke while idle: the job never ran
            self._discard(executor)
            executor = self._ensure()
            future = self._start(executor, request)
        try:
            return future.result()
        except BrokenProcessPool:
            self._discard(executor)
            return dict(CRASH_ENVELOPE)

    def imap_unordered(
        self, requests: Sequence[Dict]
    ) -> Iterator[Tuple[int, Dict]]:
        remaining = list(range(len(requests)))
        for _ in range(2):
            executor = self._ensure()
            futures = {}
            try:
                for i in remaining:
                    futures[self._start(executor, requests[i])] = i
            except BrokenProcessPool:
                pass  # unsubmitted jobs survive to the next attempt
            survivors = set(remaining) - set(futures.values())
            try:
                for future in as_completed(futures):
                    try:
                        response = future.result()
                    except BrokenProcessPool:
                        survivors.add(futures[future])
                        continue
                    yield futures[future], response
            finally:
                # An abandoned stream (consumer error, interrupt) leaves
                # no queued job behind.
                for future in futures:
                    future.cancel()
            if not survivors:
                return
            self._discard(executor)
            remaining = sorted(survivors)  # the caller's submission order
        for i in remaining:  # isolation pass: one job in flight
            yield i, self.submit(requests[i])

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


class TcpPool(WorkerPool):
    """Round-robin dispatch to ``distrib worker`` TCP daemons.

    One connection per request (the protocol is newline-delimited JSON,
    identical framing to :mod:`repro.service.protocol`), requests
    assigned ``i -> address[i % n]`` so a deterministic request list
    lands deterministically on workers.
    """

    def __init__(self, addresses: Sequence[Tuple[str, int]]):
        if not addresses:
            raise ConfigError("tcp pool needs at least one host:port")
        self.addresses = [(host, int(port)) for host, port in addresses]
        self.size = len(self.addresses)

    @staticmethod
    def call(address: Tuple[str, int], request: Dict) -> Dict:
        """One request/response round trip to one worker."""
        host, port = address
        try:
            with socket.create_connection(
                (host, port), timeout=CONNECT_TIMEOUT_S
            ) as conn:
                conn.settimeout(None)
                conn.sendall(encode(request))
                with conn.makefile("rb") as stream:
                    line = stream.readline()
        except OSError as exc:
            raise DistribError(
                "worker %s:%d unreachable: %s" % (host, port, exc)
            ) from None
        if not line:
            raise DistribError(
                "worker %s:%d closed the connection without a response"
                % (host, port)
            )
        return decode(line)

    def _assignments(
        self, requests: Sequence[Dict]
    ) -> List[Tuple[int, Tuple[str, int], Dict]]:
        return [
            (i, self.addresses[i % self.size], request)
            for i, request in enumerate(requests)
        ]

    def imap_unordered(
        self, requests: Sequence[Dict]
    ) -> Iterator[Tuple[int, Dict]]:
        with ThreadPoolExecutor(max_workers=self.size) as executor:
            futures = {
                executor.submit(self.call, address, request): i
                for i, address, request in self._assignments(requests)
            }
            for future in as_completed(futures):
                yield futures[future], future.result()

    def shutdown_workers(self) -> int:
        """Send every daemon a shutdown op; returns how many answered."""
        answered = 0
        for address in self.addresses:
            try:
                self.call(address, {"op": "shutdown"})
                answered += 1
            except DistribError:
                pass
        return answered


class ManifestPool(WorkerPool):
    """Two-phase execution through a shared directory.

    Phase 1 (driver): :meth:`map` stages every request as
    ``DIR/requests/job-NNNN.json`` and raises
    :class:`~repro.errors.ManifestPending` while results are missing.
    Phase 2 (any hosts): ``python -m repro distrib exec --manifest DIR``
    claims requests (atomic ``O_EXCL`` claim files) and writes
    ``DIR/results/job-NNNN.json`` envelopes.  Re-running the driver
    command then finds every result and completes the merge.

    Staging is idempotent: the request files are a pure function of the
    (deterministic) job list, so re-runs overwrite identical bytes.
    """

    def __init__(self, directory: str, size: int = 2):
        if size < 1:
            raise ConfigError(
                "manifest pool needs >= 1 shard, got %d" % size
            )
        self.directory = directory
        self.size = int(size)

    def _subdir(self, name: str) -> str:
        path = os.path.join(self.directory, name)
        os.makedirs(path, exist_ok=True)
        return path

    @staticmethod
    def _job_name(index: int) -> str:
        return "job-%04d.json" % index

    def map(self, requests: Sequence[Dict]) -> List[Dict]:
        requests_dir = self._subdir("requests")
        results_dir = self._subdir("results")
        for i, request in enumerate(requests):
            path = os.path.join(requests_dir, self._job_name(i))
            with atomic_write(path) as stream:
                stream.write(encode(request))
        responses: List[Dict] = []
        missing: List[str] = []
        for i in range(len(requests)):
            path = os.path.join(results_dir, self._job_name(i))
            if os.path.exists(path):
                with open(path, "rb") as stream:
                    responses.append(decode(stream.readline()))
            else:
                missing.append(self._job_name(i))
        if missing:
            raise ManifestPending(
                "%d/%d manifest results missing under %s -- run"
                " 'python -m repro distrib exec --manifest %s' on the"
                " worker hosts, then re-run this command"
                % (
                    len(missing),
                    len(requests),
                    self.directory,
                    self.directory,
                ),
                directory=self.directory,
                missing=len(missing),
            )
        return responses


def execute_manifest(
    directory: str,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Claim and execute staged manifest requests (worker side).

    Multiple concurrent executors -- on the same or different hosts
    sharing ``directory`` -- coordinate through ``O_CREAT | O_EXCL``
    claim files, so every request runs exactly once.  Returns the
    number of jobs this call executed.
    """
    requests_dir = os.path.join(directory, "requests")
    if not os.path.isdir(requests_dir):
        raise ConfigError(
            "no manifest requests under %s (expected %s)"
            % (directory, requests_dir)
        )
    results_dir = os.path.join(directory, "results")
    claims_dir = os.path.join(directory, "claims")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(claims_dir, exist_ok=True)
    executed = 0
    for name in sorted(os.listdir(requests_dir)):
        if not name.endswith(".json"):
            continue
        if os.path.exists(os.path.join(results_dir, name)):
            continue
        claim = os.path.join(claims_dir, name + ".claim")
        try:
            fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        with open(os.path.join(requests_dir, name), "rb") as stream:
            request = decode(stream.readline())
        if progress is not None:
            progress(name)
        envelope = local_worker(request)
        with atomic_write(os.path.join(results_dir, name)) as stream:
            stream.write(encode(envelope))
        executed += 1
    return executed


def parse_pool_spec(text: str) -> WorkerPool:
    """Build a pool from one CLI string (``--pool SPEC``).

    * ``local:N``
    * ``tcp:host:port[,host:port...]``
    * ``manifest:DIR`` or ``manifest:DIR:N`` (N logical shards)
    """
    scheme, _, rest = str(text).partition(":")
    if scheme == "local":
        try:
            workers = int(rest)
        except ValueError:
            raise ConfigError(
                "local pool spec must be 'local:N', got %r" % (text,)
            ) from None
        return LocalPool(workers)
    if scheme == "tcp":
        addresses: List[Tuple[str, int]] = []
        for part in filter(None, rest.split(",")):
            host, sep, port = part.rpartition(":")
            if not sep or not host:
                raise ConfigError(
                    "tcp pool entries must be host:port, got %r" % (part,)
                )
            try:
                addresses.append((host, int(port)))
            except ValueError:
                raise ConfigError(
                    "tcp pool port must be an int, got %r" % (port,)
                ) from None
        return TcpPool(addresses)
    if scheme == "manifest":
        if not rest:
            raise ConfigError(
                "manifest pool spec must be 'manifest:DIR[:N]', got %r"
                % (text,)
            )
        directory, sep, tail = rest.rpartition(":")
        if sep and tail.isdigit():
            return ManifestPool(directory, size=int(tail))
        return ManifestPool(rest)
    import difflib

    hints = difflib.get_close_matches(scheme, POOL_SCHEMES, n=1)
    hint = " (did you mean %r?)" % hints[0] if hints else ""
    raise ConfigError(
        "unknown pool scheme %r%s; known schemes: %s"
        % (scheme, hint, ", ".join(POOL_SCHEMES))
    )


# -- driver-side adapters ----------------------------------------------


def make_batches(
    pending: Sequence[int], workers: int, chunk_size: Optional[int] = None
) -> List[List[int]]:
    """Split pending site / variant indices into per-worker batches.

    Defaults to ~4 batches per worker so a slow site (one fault can cost
    many recovery cycles) does not straggle the whole shard, while a
    batch still amortizes the dispatch overhead over several sites.
    """
    if not pending:
        return []
    if chunk_size is None:
        chunk_size = max(1, -(-len(pending) // (workers * 4)))
    if chunk_size < 1:
        raise FaultError("chunk_size must be >= 1, got %d" % chunk_size)
    return [
        list(pending[start:start + chunk_size])
        for start in range(0, len(pending), chunk_size)
    ]


def run_campaign_pooled(
    pool: WorkerPool,
    spec: Dict,
    pending: Sequence[int],
    chunk_size: Optional[int] = None,
    on_result: Optional[Callable] = None,
) -> int:
    """Fan pending campaign site indices out over ``pool``.

    ``on_result`` fires per site as batches stream back, so checkpoint
    and progress behave as in a serial run.  A batch whose worker died
    is retried one site per job; failed sites never stop the others, and
    once every other site is recorded they raise :class:`DistribError`.
    """
    from ..faults.campaign import SiteReport

    batches = make_batches(pending, pool.size, chunk_size)
    completed = 0
    failures: List[str] = []
    while batches:
        requests = [
            {"job": "fault_sites", "spec": dict(spec), "sites": batch}
            for batch in batches
        ]
        retry: List[List[int]] = []
        with closing(pool.imap_unordered(requests)) as responses:
            for i, response in responses:
                crashed = isinstance(response, dict) and response.get("crash")
                if crashed and len(batches[i]) > 1:
                    retry.extend([index] for index in batches[i])
                    continue
                try:
                    result = _unwrap(response)
                except DistribError as exc:
                    failures.append("sites %s: %s" % (batches[i], exc))
                    continue
                for index, data in result.get("reports", []):
                    if on_result is not None:
                        on_result(int(index), SiteReport.from_dict(data))
                    completed += 1
        batches = sorted(retry)
    if failures:
        raise DistribError(
            "%d campaign job(s) failed: %s"
            % (len(failures), "; ".join(failures))
        )
    return completed


def run_mc_pooled(
    pool: WorkerPool,
    job: Dict,
    ranges: Sequence[Tuple[int, int]],
    context: Optional[Dict] = None,
) -> List[Dict]:
    """Price every die range through ``pool``; shard payloads in range
    order (concatenation order is the merge invariant).  ``context`` is
    the :meth:`~repro.experiments.context.ExperimentContext.to_spec`
    the workers price under (None: the default context)."""
    requests = [
        {
            "job": "mc_shard",
            "mc": dict(job),
            "context": context,
            "die_range": [lo, hi],
        }
        for lo, hi in ranges
    ]
    return [_unwrap(response) for response in pool.map(requests)]


def run_sweep_pooled(
    pool: WorkerPool,
    sweep_spec: Dict,
    pending: Sequence[int],
    engine: str = "delta",
    chunk_size: Optional[int] = None,
):
    """Fan pending variant indices of one sweep out over ``pool``.

    Workers rebuild the sweep (parent base included) deterministically
    from ``sweep_spec`` and evaluate their index batches, so request
    payloads stay tiny.  Yields ``(index, record)`` pairs as batches
    stream back (unordered; the caller owns index placement).
    """
    batches = make_batches(pending, pool.size, chunk_size)
    requests = [
        {
            "job": "variant_shard",
            "sweep": dict(sweep_spec),
            "engine": engine,
            "variants": batch,
        }
        for batch in batches
    ]
    with closing(pool.imap_unordered(requests)) as responses:
        for _, response in responses:
            result = _unwrap(response)
            for index, record in result.get("records", []):
                yield int(index), record


def run_suite_pooled(
    pool: WorkerPool, requests: Sequence[Dict]
) -> Iterator[Tuple[int, Dict]]:
    """Stream experiment jobs through ``pool`` as ``(request index,
    result)`` pairs in completion order.  A failed job comes back as
    ``{"error": ...}`` carrying the worker's own message (degraded, not
    fatal: the rest of the suite still runs)."""
    with closing(pool.imap_unordered(requests)) as responses:
        for index, response in responses:
            try:
                result = _unwrap(response)
            except DistribError as exc:
                error = isinstance(response, dict) and response.get("error")
                result = {"error": error or str(exc)}
            yield index, result
