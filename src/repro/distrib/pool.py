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

The driver-facing helpers at the bottom
(:func:`run_campaign_pooled` / :func:`run_mc_pooled` /
:func:`run_suite_pooled`) adapt the three orchestrators' native shapes
onto the job protocol.
"""

from __future__ import annotations

import os
import socket
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import as_completed
from typing import Callable, Dict, Iterator, List, Optional
from typing import Sequence, Tuple

from ..errors import ConfigError, DistribError, ManifestPending
from ..service.protocol import decode, encode
from ..util.atomic import atomic_write
from .jobs import run_job

#: Pool schemes :func:`parse_pool_spec` understands.
POOL_SCHEMES = ("local", "tcp", "manifest")

#: Seconds to wait for a TCP connect (job execution itself is
#: unbounded -- characterizing a wide design legitimately takes long).
CONNECT_TIMEOUT_S = 10.0


def local_worker(request: Dict) -> Dict:
    """Process-pool entry point: run one job, envelope the outcome.

    Module-level (picklable) and exception-free: failures become
    ``ok: false`` envelopes so one bad site cannot kill the pool.
    """
    try:
        return {"ok": True, "result": run_job(request)}
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
        raise NotImplementedError

    def imap_unordered(self, requests: Sequence[Dict]) -> Iterator[Dict]:
        """Yield response envelopes as they complete (default: the
        ordered :meth:`map`; transports override for real streaming)."""
        for response in self.map(requests):
            yield response

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalPool(WorkerPool):
    """A :class:`ProcessPoolExecutor` speaking the JSON job protocol.

    Functionally redundant with the orchestrators' built-in ``workers=N``
    paths -- deliberately so: it exercises the exact spec-rebuild
    transport the remote pools use, making it the CI stand-in for a
    cluster and the reference for byte-identity checks.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigError(
                "local pool needs >= 1 worker, got %d" % workers
            )
        self.size = int(workers)
        self._executor: Optional[ProcessPoolExecutor] = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.size)
        return self._executor

    def map(self, requests: Sequence[Dict]) -> List[Dict]:
        executor = self._ensure()
        return list(executor.map(local_worker, requests))

    def imap_unordered(self, requests: Sequence[Dict]) -> Iterator[Dict]:
        executor = self._ensure()
        futures = [executor.submit(local_worker, req) for req in requests]
        for future in as_completed(futures):
            yield future.result()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


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

    def map(self, requests: Sequence[Dict]) -> List[Dict]:
        responses: List[Optional[Dict]] = [None] * len(requests)
        with ThreadPoolExecutor(max_workers=self.size) as executor:
            futures = {
                executor.submit(self.call, address, request): i
                for i, address, request in self._assignments(requests)
            }
            for future in as_completed(futures):
                responses[futures[future]] = future.result()
        return [r for r in responses if r is not None]

    def imap_unordered(self, requests: Sequence[Dict]) -> Iterator[Dict]:
        with ThreadPoolExecutor(max_workers=self.size) as executor:
            futures = [
                executor.submit(self.call, address, request)
                for _, address, request in self._assignments(requests)
            ]
            for future in as_completed(futures):
                yield future.result()

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


def run_campaign_pooled(
    pool: WorkerPool,
    pool_spec: Dict,
    pending: Sequence[int],
    chunk_size: Optional[int] = None,
    on_result: Optional[Callable] = None,
) -> int:
    """Fan pending campaign site indices out over ``pool``.

    Batching mirrors the local process pool
    (:func:`repro.faults.parallel.make_batches`), and ``on_result``
    fires per site as batches stream back -- checkpoint/progress
    behaviour is identical to a local parallel run.
    """
    from ..faults.campaign import SiteReport
    from ..faults.parallel import make_batches

    batches = make_batches(pending, pool.size, chunk_size)
    requests = [
        {"job": "fault_sites", "spec": dict(pool_spec), "sites": batch}
        for batch in batches
    ]
    completed = 0
    for response in pool.imap_unordered(requests):
        result = _unwrap(response)
        for index, data in result.get("reports", []):
            if on_result is not None:
                on_result(int(index), SiteReport.from_dict(data))
            completed += 1
    return completed


def run_mc_pooled(
    pool: WorkerPool,
    job: Dict,
    ranges: Sequence[Tuple[int, int]],
) -> List[Dict]:
    """Price every die range through ``pool``; shard payloads in range
    order (concatenation order is the merge invariant)."""
    requests = [
        {"job": "mc_shard", "mc": dict(job), "die_range": [lo, hi]}
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
    from ..faults.parallel import make_batches

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
    for response in pool.imap_unordered(requests):
        result = _unwrap(response)
        for index, record in result.get("records", []):
            yield int(index), record


def run_suite_pooled(
    pool: WorkerPool, requests: Sequence[Dict]
) -> List[Dict]:
    """Run experiment jobs through ``pool``; per-job failures come back
    as ``{"error": ...}`` entries (degraded, not fatal -- matching the
    local scheduler's worker-death handling)."""
    responses = pool.map(requests)
    out: List[Dict] = []
    for response in responses:
        try:
            out.append(_unwrap(response))
        except DistribError as exc:
            out.append({"error": str(exc)})
    return out
