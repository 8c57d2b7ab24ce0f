"""Persistent, fingerprint-keyed experiment artifact store.

Reproducing the paper means running ~30 experiments, and every fresh
process used to pay netlist construction, ``AgedCircuitFactory
.characterize`` and the circuit stream simulations again from zero.
The :class:`ArtifactStore` persists those three artifact classes on
disk so they are computed once -- across experiments, across worker
processes of a parallel suite run (:mod:`repro.experiments.scheduler`),
and across invocations:

* ``netlist`` -- generated :class:`~repro.nets.netlist.Netlist` objects,
  keyed by their builder arguments (pickled; the netlist is this
  library's own internal format);
* ``stress``  -- characterized :class:`~repro.aging.stress
  .StressProfile` s (the expensive ``characterize`` output), keyed by
  the netlist's structural hash x technology x characterization
  workload;
* ``stream``  -- :class:`~repro.timing.engine.StreamResult` payloads,
  keyed by netlist hash x technology x characterization x aging point x
  stimulus.

Every entry is a single file written atomically (a unique staging file
+ ``os.replace``, see :func:`repro.util.atomic.atomic_write`)
with its full key embedded; on read the embedded key must match the
requested key exactly, so a stale, corrupt or truncated file is ignored
and rebuilt, never trusted -- the fingerprint-guard idiom proven in
:mod:`repro.faults.store` and :mod:`repro.timing.value_cache`.

The manifest recording every write is **sharded by digest prefix** into
:data:`NUM_MANIFEST_SHARDS` JSONL files, each guarded by an advisory
:class:`~repro.util.locking.FileLock` (``fcntl`` + bounded backoff, see
:mod:`repro.util.retry`), so many concurrent writer processes append
without interleaving and :meth:`ArtifactStore.compact` can never drop a
record a writer appended mid-compaction.  Every shard is torn-line
tolerant (a killed writer loses at most its last line) and an entirely
unreadable shard is treated as empty -- counted in
:attr:`ArtifactStore.corruption`, never raised.  A legacy unsharded
``manifest.jsonl`` is still read, and folded into the shards by the
next ``compact()``.

Concurrent writers are safe by construction: two processes building the
same artifact race to ``os.replace`` the same content-addressed path,
and either result is valid for every reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..config import SimulationConfig, Technology
from ..errors import ConfigError
from ..nets.netlist import Netlist
from ..timing.engine import StreamResult
from ..util.atomic import atomic_write
from ..util.locking import FileLock
from ..util.retry import Backoff, retry_call

#: Format tag embedded in every artifact and manifest header.
FORMAT = "repro-artifact"
#: Current artifact schema version; bump to invalidate every store.
VERSION = 1
#: Artifact kinds the store accepts.  ``population`` holds the compact
#: per-(die, year) reductions of a priced Monte Carlo population
#: (:class:`repro.montecarlo.population.PopulationReductions` payload,
#: fingerprint-keyed on the sampler config); ``surface`` holds the
#: derived analytics dict (:class:`repro.montecarlo.analytics
#: .MonteCarloResult`); ``delta`` holds per-variant sweep records
#: (:mod:`repro.experiments.sweep` evaluation dicts, fingerprint-keyed
#: on the parent base x mutation site), so re-running a variant sweep
#: only evaluates mutants the store has not seen.
KINDS = ("netlist", "stress", "stream", "population", "surface", "delta")
#: Legacy (pre-sharding) manifest file name, still read if present.
MANIFEST = "manifest.jsonl"
#: Manifest shard count; shard = first hex nibble of the digest.
NUM_MANIFEST_SHARDS = 16

_EXT = {
    "netlist": ".pkl",
    "stress": ".npz",
    "stream": ".npz",
    "population": ".npz",
    "surface": ".pkl",
    "delta": ".pkl",
}


def _canonical(key: Dict) -> str:
    """Canonical JSON of a key dict (one JSON round-trip semantics)."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def artifact_digest(kind: str, key: Dict) -> str:
    """sha256 fingerprint of ``(format, version, kind, key)``."""
    if kind not in KINDS:
        raise ConfigError(
            "unknown artifact kind %r (known: %s)" % (kind, KINDS)
        )
    h = hashlib.sha256()
    h.update(
        _canonical(
            {
                "format": FORMAT,
                "version": VERSION,
                "kind": kind,
                "key": key,
            }
        ).encode()
    )
    return h.hexdigest()


def technology_fingerprint(technology: Technology) -> str:
    """Stable sha256 of every technology constant."""
    h = hashlib.sha256()
    h.update(_canonical(dataclasses.asdict(technology)).encode())
    return h.hexdigest()


def config_fingerprint(config: SimulationConfig) -> str:
    """Stable sha256 of the architecture-simulation configuration."""
    h = hashlib.sha256()
    h.update(_canonical(dataclasses.asdict(config)).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Per-kind (de)serialization
# ----------------------------------------------------------------------


def _save_pickle(path: str, key: Dict, payload) -> None:
    with atomic_write(path) as fp:
        pickle.dump(
            {
                "format": FORMAT,
                "version": VERSION,
                "key": _canonical(key),
                "payload": payload,
            },
            fp,
            protocol=pickle.HIGHEST_PROTOCOL,
        )


def _load_pickle(path: str, key: Dict):
    with open(path, "rb") as fp:
        record = pickle.load(fp)
    if (
        not isinstance(record, dict)
        or record.get("format") != FORMAT
        or record.get("version") != VERSION
        or record.get("key") != _canonical(key)
    ):
        return None
    return record["payload"]


def _save_npz(path: str, key: Dict, arrays: Dict, meta: Dict) -> None:
    meta = dict(meta)
    meta.update(
        {"format": FORMAT, "version": VERSION, "key": _canonical(key)}
    )
    payload = {
        "meta": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ).copy()
    }
    payload.update(arrays)
    with atomic_write(path) as fp:
        np.savez(fp, **payload)


def _load_npz(path: str, key: Dict):
    """Returns ``(meta, arrays)`` or None on any mismatch/corruption."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if (
            meta.get("format") != FORMAT
            or meta.get("version") != VERSION
            or meta.get("key") != _canonical(key)
        ):
            return None
        arrays = {name: data[name] for name in data.files if name != "meta"}
    return meta, arrays


def _stress_arrays(stress) -> Dict:
    return {
        "pmos_stress": stress.pmos_stress,
        "nmos_stress": stress.nmos_stress,
    }


def _stress_payload(meta: Dict, arrays: Dict):
    from ..aging.stress import StressProfile

    return StressProfile(
        netlist_name=meta["netlist_name"],
        pmos_stress=arrays["pmos_stress"],
        nmos_stress=arrays["nmos_stress"],
    )


def _population_payload(meta: Dict, arrays: Dict) -> Dict:
    """Reassemble a Monte Carlo population's ``{"meta", "arrays"}``
    payload (see :class:`repro.montecarlo.population
    .PopulationReductions`)."""
    return {
        "meta": meta["population"],
        "arrays": {
            name[len("pop__"):]: arr
            for name, arr in arrays.items()
            if name.startswith("pop__")
        },
    }


def _stream_arrays(result: StreamResult) -> "tuple[Dict, Dict]":
    meta = {
        "num_patterns": result.num_patterns,
        "outputs": sorted(result.outputs),
        "bit_arrivals": sorted(result.bit_arrivals or {}),
        "has_stats": result.signal_prob is not None,
    }
    arrays = {
        "delays": result.delays,
        "switched_caps": result.switched_caps,
    }
    for name, arr in result.outputs.items():
        arrays["out__" + name] = arr
    for name, arr in (result.bit_arrivals or {}).items():
        arrays["arr__" + name] = arr
    if result.signal_prob is not None:
        arrays["signal_prob"] = result.signal_prob
        arrays["toggle_counts"] = result.toggle_counts
    return meta, arrays


def _stream_payload(meta: Dict, arrays: Dict) -> StreamResult:
    bit_arrivals = {
        name: arrays["arr__" + name] for name in meta["bit_arrivals"]
    }
    return StreamResult(
        outputs={
            name: arrays["out__" + name] for name in meta["outputs"]
        },
        delays=arrays["delays"],
        switched_caps=arrays["switched_caps"],
        num_patterns=int(meta["num_patterns"]),
        bit_arrivals=bit_arrivals or None,
        signal_prob=arrays["signal_prob"] if meta["has_stats"] else None,
        toggle_counts=(
            arrays["toggle_counts"] if meta["has_stats"] else None
        ),
    )


# ----------------------------------------------------------------------


class ArtifactStore:
    """On-disk artifact cache shared by contexts, workers and runs.

    Args:
        directory: Store root (created on first write).  Value planes
            cached by store-backed factories live under
            ``<directory>/planes``; fault-campaign checkpoints under
            ``<directory>/campaigns``.

    Attributes:
        counters: ``kind -> {"hits": n, "misses": n, "writes": n}``,
            cumulative for this process (a parallel suite run merges the
            workers' counters into the parent's accounting).
        corruption: Robustness accounting -- ``{"artifacts": n,
            "manifest_lines": n, "manifest_shards": n}``.  Torn or
            corrupt state is always degraded to a cache miss and
            rebuilt; these counters are how the degradation stays
            observable instead of silent.
    """

    #: Acquisition budget for every internal shard lock.
    LOCK_TIMEOUT_S = 10.0

    def __init__(self, directory: str, lock_timeout_s: Optional[float] = None):
        if not directory:
            raise ConfigError("artifact store needs a directory")
        self.directory = str(directory)
        self.lock_timeout_s = (
            self.LOCK_TIMEOUT_S if lock_timeout_s is None else lock_timeout_s
        )
        self.counters: Dict[str, Dict[str, int]] = {
            kind: {"hits": 0, "misses": 0, "writes": 0} for kind in KINDS
        }
        self.corruption: Dict[str, int] = {
            "artifacts": 0,
            "manifest_lines": 0,
            "manifest_shards": 0,
        }

    # -- paths ----------------------------------------------------------

    def _path(self, kind: str, key: Dict) -> str:
        return self._digest_path(kind, artifact_digest(kind, key))

    def _digest_path(self, kind: str, digest: str) -> str:
        return os.path.join(
            self.directory, "%s-%s%s" % (kind, digest[:32], _EXT[kind])
        )

    def planes_dir(self) -> str:
        """Directory for :class:`~repro.timing.value_cache
        .ValuePlaneCache` entries of store-backed factories."""
        return os.path.join(self.directory, "planes")

    def campaigns_dir(self) -> str:
        """Directory for fault-campaign JSONL checkpoints."""
        path = os.path.join(self.directory, "campaigns")
        os.makedirs(path, exist_ok=True)
        return path

    def _ensure_dir(self) -> None:
        os.makedirs(self.directory, exist_ok=True)

    # -- generic load/save ---------------------------------------------

    def load(self, kind: str, key: Dict):
        """The stored artifact for ``key``, or None (miss counts).

        A file that exists but fails validation (torn write, foreign
        bytes, stale embedded key) degrades to a miss *and* increments
        ``corruption["artifacts"]`` -- corruption is never an exception
        here, only an observable rebuild.
        """
        path = self._path(kind, key)
        if os.path.exists(path):
            try:
                if kind in ("netlist", "surface", "delta"):
                    payload = _load_pickle(path, key)
                else:
                    loaded = _load_npz(path, key)
                    if loaded is None:
                        payload = None
                    elif kind == "stress":
                        payload = _stress_payload(*loaded)
                    elif kind == "population":
                        payload = _population_payload(*loaded)
                    else:
                        payload = _stream_payload(*loaded)
            except Exception:
                payload = None  # corrupt/foreign file: treat as miss
            if payload is not None:
                self.counters[kind]["hits"] += 1
                return payload
            self.corruption["artifacts"] += 1
        self.counters[kind]["misses"] += 1
        return None

    def save(self, kind: str, key: Dict, payload) -> None:
        """Atomically persist one artifact and log it to the manifest."""
        if kind not in KINDS:
            raise ConfigError(
                "unknown artifact kind %r (known: %s)" % (kind, KINDS)
            )
        self._ensure_dir()
        digest = artifact_digest(kind, key)
        path = self._digest_path(kind, digest)
        if kind == "netlist":
            if not isinstance(payload, Netlist):
                raise ConfigError("netlist artifact must be a Netlist")
            _save_pickle(path, key, payload)
        elif kind == "surface":
            if not isinstance(payload, dict):
                raise ConfigError("surface artifact must be a dict")
            _save_pickle(path, key, payload)
        elif kind == "delta":
            if not isinstance(payload, dict):
                raise ConfigError("delta artifact must be a dict")
            _save_pickle(path, key, payload)
        elif kind == "stress":
            _save_npz(
                path,
                key,
                _stress_arrays(payload),
                {"netlist_name": payload.netlist_name},
            )
        elif kind == "population":
            if (
                not isinstance(payload, dict)
                or "meta" not in payload
                or "arrays" not in payload
            ):
                raise ConfigError(
                    'population artifact must be a {"meta", "arrays"} dict'
                )
            _save_npz(
                path,
                key,
                {
                    "pop__" + name: np.asarray(arr)
                    for name, arr in payload["arrays"].items()
                },
                {"population": payload["meta"]},
            )
        else:
            meta, arrays = _stream_arrays(payload)
            _save_npz(path, key, arrays, meta)
        self.counters[kind]["writes"] += 1
        self._log(
            {
                "kind": kind,
                "key": key,
                "file": os.path.basename(path),
            },
            digest,
        )

    def get_or_build(self, kind: str, key: Dict, build):
        """Load ``key`` or build-and-persist it (built at most once per
        store; concurrent builders race benignly on the atomic rename)."""
        payload = self.load(kind, key)
        if payload is None:
            payload = build()
            self.save(kind, key, payload)
        return payload

    # -- manifest -------------------------------------------------------

    def _manifest_path(self) -> str:
        """The legacy unsharded manifest (read-only compatibility)."""
        return os.path.join(self.directory, MANIFEST)

    def _shard_path(self, shard: int) -> str:
        return os.path.join(self.directory, "manifest-%x.jsonl" % shard)

    def _shard_lock(self, shard: int) -> FileLock:
        return FileLock(
            self._shard_path(shard) + ".lock",
            timeout_s=self.lock_timeout_s,
        )

    @staticmethod
    def _shard_of_digest(digest: str) -> int:
        return int(digest[0], 16) % NUM_MANIFEST_SHARDS

    @staticmethod
    def _shard_of_file(filename: str) -> int:
        """Shard owning a manifest record, recovered from its artifact
        file name (``<kind>-<digest32><ext>``)."""
        _, _, digest = filename.partition("-")
        try:
            return int(digest[0], 16) % NUM_MANIFEST_SHARDS
        except (IndexError, ValueError):
            return 0

    def shard_paths(self) -> List[str]:
        """Existing manifest shard files (diagnostics and tests)."""
        return [
            self._shard_path(shard)
            for shard in range(NUM_MANIFEST_SHARDS)
            if os.path.exists(self._shard_path(shard))
        ]

    def _log(self, record: Dict, digest: str) -> None:
        self._ensure_dir()
        shard = self._shard_of_digest(digest)
        line = _canonical(record) + "\n"
        with self._shard_lock(shard):
            with open(
                self._shard_path(shard), "a", encoding="utf-8"
            ) as fp:
                fp.write(line)

    def _read_jsonl(self, path: str) -> List[Dict]:
        """One manifest file's complete records.  Torn/corrupt lines
        are skipped and counted; a wholly unreadable file is an empty
        shard (counted), never an exception."""
        if not os.path.exists(path):
            return []
        try:
            with open(path, "r", encoding="utf-8") as fp:
                lines = [line for line in fp.read().split("\n") if line]
        except (OSError, UnicodeError):
            self.corruption["manifest_shards"] += 1
            return []
        records = []
        for number, line in enumerate(lines):
            try:
                record = json.loads(line)
            except ValueError:
                self.corruption["manifest_lines"] += 1
                if number == len(lines) - 1:
                    break  # torn trailing write of a killed process
                continue  # interleaved writers: skip, keep the rest
            if isinstance(record, dict):
                records.append(record)
            else:
                self.corruption["manifest_lines"] += 1
        return records

    def manifest(self) -> List[Dict]:
        """All complete manifest records over every shard (plus a
        legacy unsharded manifest when present)."""
        records = self._read_jsonl(self._manifest_path())
        for shard in range(NUM_MANIFEST_SHARDS):
            records.extend(self._read_jsonl(self._shard_path(shard)))
        return records

    def _rewrite_shard(self, shard: int, records: List[Dict]) -> None:
        """Atomically replace one shard's contents (caller holds the
        shard lock)."""
        self._ensure_dir()
        with atomic_write(
            self._shard_path(shard), "w", encoding="utf-8"
        ) as fp:
            for record in records:
                fp.write(_canonical(record) + "\n")

    def _fold_legacy_manifest(self) -> None:
        """Distribute a pre-sharding ``manifest.jsonl`` into the shards
        (idempotent; the legacy file is removed afterwards)."""
        legacy_path = self._manifest_path()
        if not os.path.exists(legacy_path):
            return
        legacy = self._read_jsonl(legacy_path)
        by_shard: Dict[int, List[Dict]] = {}
        for record in legacy:
            shard = self._shard_of_file(record.get("file", ""))
            by_shard.setdefault(shard, []).append(record)
        for shard, records in sorted(by_shard.items()):
            with self._shard_lock(shard):
                with open(
                    self._shard_path(shard), "a", encoding="utf-8"
                ) as fp:
                    for record in records:
                        fp.write(_canonical(record) + "\n")
        try:
            os.remove(legacy_path)
        except OSError:
            pass

    def compact(self) -> int:
        """Rewrite every manifest shard from its valid lines,
        de-duplicated by file name (last record wins), dropping records
        whose artifact no longer exists.  Returns the number of
        surviving records.

        Each shard is read and rewritten while holding that shard's
        lock -- the same lock :meth:`save` appends under -- so a record
        appended by a concurrent writer can never fall between
        compaction's read and its rewrite (the PR-5 store lost exactly
        that race).  At most one shard lock is held at a time.
        """
        self._fold_legacy_manifest()
        total = 0
        for shard in range(NUM_MANIFEST_SHARDS):
            with self._shard_lock(shard):
                records = self._read_jsonl(self._shard_path(shard))
                if not records and not os.path.exists(
                    self._shard_path(shard)
                ):
                    continue
                by_file: Dict[str, Dict] = {}
                for record in records:
                    by_file[record.get("file", "")] = record
                survivors = [
                    record
                    for record in by_file.values()
                    if os.path.exists(
                        os.path.join(
                            self.directory, record.get("file", "")
                        )
                    )
                ]
                self._rewrite_shard(shard, survivors)
                total += len(survivors)
        return total

    # -- maintenance ----------------------------------------------------

    def clear(self) -> None:
        """Delete every artifact, plane and checkpoint (cold start).

        Safe to call while other processes write: deletion races
        (a writer re-creating files mid-``rmtree``) are retried with
        bounded backoff instead of surfacing ``OSError``.  Anything a
        concurrent writer creates *after* the final sweep survives --
        clear removes the state present when it ran, it does not fence
        future writers.
        """

        def _sweep() -> None:
            if os.path.isdir(self.directory):
                shutil.rmtree(self.directory)

        retry_call(
            _sweep,
            retry_on=(OSError,),
            backoff=Backoff(
                initial_s=0.01, max_delay_s=0.2, max_elapsed_s=5.0
            ),
            description="clearing store %s" % self.directory,
        )
        for kind in self.counters:
            self.counters[kind] = {"hits": 0, "misses": 0, "writes": 0}
        for name in self.corruption:
            self.corruption[name] = 0

    def merge_counters(self, counters: Dict[str, Dict[str, int]]) -> None:
        """Fold another process's counter snapshot into this one."""
        for kind, stats in counters.items():
            mine = self.counters.setdefault(
                kind, {"hits": 0, "misses": 0, "writes": 0}
            )
            for name, value in stats.items():
                mine[name] = mine.get(name, 0) + int(value)

    def counter_totals(self) -> Dict[str, int]:
        """Summed ``{"hits": n, "misses": n, "writes": n}`` over kinds."""
        totals = {"hits": 0, "misses": 0, "writes": 0}
        for stats in self.counters.values():
            for name in totals:
                totals[name] += stats.get(name, 0)
        return totals

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A deep copy of :attr:`counters` (for before/after deltas)."""
        return {kind: dict(stats) for kind, stats in self.counters.items()}


def counter_delta(
    before: Dict[str, Dict[str, int]],
    after: Dict[str, Dict[str, int]],
) -> Dict[str, Dict[str, int]]:
    """Per-kind counter difference ``after - before``."""
    delta: Dict[str, Dict[str, int]] = {}
    for kind, stats in after.items():
        base = before.get(kind, {})
        diff = {
            name: value - base.get(name, 0)
            for name, value in stats.items()
        }
        if any(diff.values()):
            delta[kind] = diff
    return delta


def delta_totals(delta: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Summed hits/misses/writes over a :func:`counter_delta`."""
    totals = {"hits": 0, "misses": 0, "writes": 0}
    for stats in delta.values():
        for name in totals:
            totals[name] += stats.get(name, 0)
    return totals
