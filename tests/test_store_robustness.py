"""Crash/corruption fuzz and concurrency soak for the stores.

The robustness contract under test:

* a killed writer (torn artifact bytes, torn manifest line, leftover
  ``.tmp``) degrades to a counted cache miss and a rebuild -- never an
  exception;
* concurrent writers and a concurrent compactor lose no manifest
  records (the shard locks close the PR-5 read/rewrite race);
* ``compact()`` genuinely takes the same lock ``save()`` appends under;
* processes writing the same key at once never trip over each other's
  temporary files.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.arith import column_bypass_multiplier
from repro.errors import LockTimeoutError
from repro.experiments.store import (
    NUM_MANIFEST_SHARDS,
    ArtifactStore,
    _load_pickle,
    _save_pickle,
    artifact_digest,
)
from repro.faults.campaign import SiteReport
from repro.faults.store import CheckpointStore


@pytest.fixture(scope="module")
def netlist4():
    return column_bypass_multiplier(4)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _key(index, tag="soak"):
    return {"width": 4, "kind": "column", "tag": tag, "index": index}


def _rewrite_same_keys(directory, rounds, num_keys, start, results):
    """Worker: ``rounds`` pickle saves cycling over ``num_keys`` paths;
    reports how many raised."""
    start.wait()
    failures = 0
    for step in range(rounds):
        index = step % num_keys
        path = os.path.join(directory, "same-%d.pkl" % index)
        try:
            _save_pickle(path, _key(index), step)
        except OSError:
            failures += 1
    results.put(failures)


class TestConcurrencySoak:
    def test_writers_plus_compactor_lose_no_records(self, store, netlist4):
        """Acceptance: >= 8 concurrent writers + 1 compactor; every
        record survives and every artifact stays loadable."""
        writers, per_writer = 8, 12
        errors = []
        stop = threading.Event()

        def write(worker):
            try:
                local = ArtifactStore(store.directory)
                for index in range(per_writer):
                    local.save(
                        "netlist", _key(worker * per_writer + index),
                        netlist4,
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def compact_loop():
            try:
                local = ArtifactStore(store.directory)
                while not stop.is_set():
                    local.compact()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(worker,))
            for worker in range(writers)
        ]
        compactor = threading.Thread(target=compact_loop)
        compactor.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        stop.set()
        compactor.join(timeout=120.0)
        assert not errors

        total = writers * per_writer
        store.compact()
        files = {record["file"] for record in store.manifest()}
        assert len(files) == total
        for index in range(total):
            digest = artifact_digest("netlist", _key(index))
            assert "netlist-%s.pkl" % digest[:32] in files
            assert store.load("netlist", _key(index)) is not None

    def test_same_key_writers_across_processes(self, tmp_path):
        """4 processes x 300 saves over 5 keys: every save succeeds and
        every file holds one complete record (a shared ``path + .tmp``
        made writers replace or lose each other's temporary files)."""
        writers, rounds, num_keys = 4, 300, 5
        ctx = multiprocessing.get_context("fork")
        start = ctx.Event()
        results = ctx.Queue()
        procs = [
            ctx.Process(
                target=_rewrite_same_keys,
                args=(str(tmp_path), rounds, num_keys, start, results),
            )
            for _ in range(writers)
        ]
        for proc in procs:
            proc.start()
        start.set()
        failures = [results.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert failures == [0] * writers
        for index in range(num_keys):
            path = str(tmp_path / ("same-%d.pkl" % index))
            assert _load_pickle(path, _key(index)) is not None
        assert sorted(os.listdir(tmp_path)) == sorted(
            "same-%d.pkl" % index for index in range(num_keys)
        )

    def test_record_saved_during_compact_survives(self, store, netlist4):
        """A save landing between compaction passes is never dropped."""
        store.save("netlist", _key(0, "pre"), netlist4)
        store.compact()
        store.save("netlist", _key(1, "post"), netlist4)
        assert store.compact() == 2
        assert len(store.manifest()) == 2


class TestArtifactCorruption:
    def test_truncated_artifact_is_counted_miss_then_rebuilt(
        self, store, netlist4
    ):
        key = _key(0, "torn")
        store.save("netlist", key, netlist4)
        path = store._path("netlist", key)
        data = open(path, "rb").read()
        with open(path, "wb") as fp:
            fp.write(data[: len(data) // 2])  # kill mid-save
        assert store.load("netlist", key) is None
        assert store.corruption["artifacts"] == 1
        # Rebuild: the normal get_or_build path recovers.
        rebuilt = store.get_or_build(
            "netlist", key, lambda: netlist4
        )
        assert rebuilt is not None
        assert store.load("netlist", key) is not None

    def test_leftover_tmp_file_is_harmless(self, store, netlist4):
        key = _key(0, "tmp")
        store.save("netlist", key, netlist4)
        path = store._path("netlist", key)
        with open(path + ".tmp", "wb") as fp:
            fp.write(b"partial write of a killed process")
        assert store.load("netlist", key) is not None
        assert store.corruption["artifacts"] == 0

    def test_torn_manifest_line_skipped_and_counted(self, store, netlist4):
        store.save("netlist", _key(0, "line"), netlist4)
        store.save("netlist", _key(1, "line"), netlist4)
        shard_path = store.shard_paths()[0]
        with open(shard_path, "a", encoding="utf-8") as fp:
            fp.write('{"kind": "netlist", "key": {"tr')  # torn append
        fresh = ArtifactStore(store.directory)
        records = fresh.manifest()
        assert len(records) == 2
        assert fresh.corruption["manifest_lines"] == 1
        # compact() rewrites the shard clean.
        fresh.compact()
        for path in fresh.shard_paths():
            for line in open(path, encoding="utf-8").read().splitlines():
                json.loads(line)

    def test_mid_file_garbage_skipped_not_fatal(self, store, netlist4):
        store.save("netlist", _key(0, "mid"), netlist4)
        shard_path = store.shard_paths()[0]
        original = open(shard_path, encoding="utf-8").read()
        with open(shard_path, "w", encoding="utf-8") as fp:
            fp.write("!!not json!!\n" + original)
        fresh = ArtifactStore(store.directory)
        assert len(fresh.manifest()) == 1
        assert fresh.corruption["manifest_lines"] == 1

    def test_unreadable_shard_is_empty_and_counted(self, store, netlist4):
        store.save("netlist", _key(0, "bin"), netlist4)
        shard_path = store.shard_paths()[0]
        with open(shard_path, "wb") as fp:
            fp.write(b"\xff\xfe\x00\x80 binary garbage \x00")
        fresh = ArtifactStore(store.directory)
        assert fresh.manifest() == []
        assert fresh.corruption["manifest_shards"] == 1
        # The artifact itself is untouched -- only its manifest record
        # was lost, and a later save/compact rebuilds the shard.
        assert fresh.load("netlist", _key(0, "bin")) is not None


class TestShardingAndLocking:
    def test_compact_blocks_on_a_held_shard_lock(self, store, netlist4):
        """Regression for the PR-5 race: compaction takes the same
        per-shard lock save() appends under, so it cannot interleave
        with a writer -- observable as a timeout when the lock is
        already held."""
        store.save("netlist", _key(0, "lock"), netlist4)
        shard_path = store.shard_paths()[0]
        shard = int(os.path.basename(shard_path)[len("manifest-"):][0], 16)
        contender = ArtifactStore(store.directory, lock_timeout_s=0.2)
        with store._shard_lock(shard):
            with pytest.raises(LockTimeoutError):
                contender.compact()
        # Lock released: compaction proceeds.
        assert contender.compact() == 1

    def test_save_blocks_on_a_held_shard_lock(self, store, netlist4):
        key = _key(0, "savelock")
        digest = artifact_digest("netlist", key)
        shard = store._shard_of_digest(digest)
        contender = ArtifactStore(store.directory, lock_timeout_s=0.2)
        with store._shard_lock(shard):
            with pytest.raises(LockTimeoutError):
                contender.save("netlist", key, netlist4)

    def test_records_land_on_the_digest_shard(self, store, netlist4):
        for index in range(24):
            store.save("netlist", _key(index, "shard"), netlist4)
        for path in store.shard_paths():
            name = os.path.basename(path)
            shard = int(name[len("manifest-"):][0], 16)
            for line in open(path, encoding="utf-8").read().splitlines():
                record = json.loads(line)
                assert store._shard_of_file(record["file"]) == shard
        assert len(store.manifest()) == 24

    def test_legacy_manifest_folded_by_compact(self, store, netlist4):
        store.save("netlist", _key(0, "legacy"), netlist4)
        [record] = store.manifest()
        # Rewind history: move the record into an unsharded manifest.
        for path in store.shard_paths():
            os.remove(path)
        with open(store._manifest_path(), "w", encoding="utf-8") as fp:
            fp.write(json.dumps(record) + "\n")
        assert store.compact() == 1
        assert not os.path.exists(store._manifest_path())
        assert len(store.manifest()) == 1


def _report(site_id):
    return SiteReport(
        label="site %s" % site_id, kind="stuck-at-0",
        corrupted_ops=4, detected_ops=4, silent_ops=0, razor_errors=4,
        undetectable_ops=0, recovered_ops=0, exhausted_ops=0,
        avg_latency_ns=5.0, indicator_aged_at=-1, site_id=site_id,
    )


class TestCheckpointCrashFuzz:
    FP = {"design": "fuzz", "seed": 7}

    def _write(self, path, count=3):
        store = CheckpointStore(str(path))
        store.open(self.FP)
        for index in range(count):
            store.append("s%d" % index, _report("s%d" % index))
        store.close()

    def test_killed_writer_resumes_from_last_complete_report(
        self, tmp_path
    ):
        path = tmp_path / "cp.jsonl"
        self._write(path)
        data = path.read_bytes()
        path.write_bytes(data[:-17])  # SIGKILL mid-append
        store = CheckpointStore(str(path))
        reports = store.open(self.FP)
        assert store.dropped_lines == 1
        assert sorted(reports) == ["s0", "s1"]
        # The append stream starts clean after the compacting open.
        store.append("s2", _report("s2"))
        store.close()
        assert sorted(CheckpointStore(str(path)).load(self.FP)) == [
            "s0", "s1", "s2",
        ]

    def test_killed_writer_tmp_leftover_ignored(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        self._write(path)
        with open(str(path) + ".tmp", "w", encoding="utf-8") as fp:
            fp.write('{"torn": tr')  # killed mid-compaction rewrite
        reports = CheckpointStore(str(path)).open(self.FP)
        assert sorted(reports) == ["s0", "s1", "s2"]

    def test_open_serializes_across_lock_holders(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        self._write(path)
        entered = threading.Event()
        release = threading.Event()
        opened = []

        def holder():
            from repro.util import FileLock

            with FileLock(str(path) + ".lock", timeout_s=5.0):
                entered.set()
                release.wait(timeout=10.0)

        def opener():
            entered.wait(timeout=10.0)
            store = CheckpointStore(str(path))
            store.open(self.FP)
            store.close()
            opened.append(True)

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=opener)]
        for t in threads:
            t.start()
        entered.wait(timeout=10.0)
        assert not opened  # opener is parked on the lock
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert opened == [True]
