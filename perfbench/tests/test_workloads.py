"""Load generation and the command's contract."""

import collections
import json
import os
import shutil
import subprocess
import sys

import workloads
from conftest import BENCH, ROOT


def test_service_trace_is_seeded_and_shaped():
    trace = workloads.service_trace(3)
    assert trace == workloads.service_trace(3)
    assert trace != workloads.service_trace(4)
    assert len(trace) == workloads.SERVICE_STEPS
    keys = workloads.service_keys()
    queries = [key for step in trace for key in step]
    assert set(queries) == set(keys)
    assert len(set(keys)) / len(queries) == 0.1
    seen = set()
    first_seen_duplicates = 0
    for step in trace:
        fresh = [key for key in step if key not in seen]
        if len(step) == len(fresh) and len(set(step)) == 1:
            first_seen_duplicates += 1
        else:
            # at most one first-seen key per non-duplicate query
            assert len(fresh) == len(set(fresh))
        seen.update(step)
    assert first_seen_duplicates == workloads.SERVICE_DUPLICATES
    assert collections.Counter(queries).most_common(1)[0][1] > 1


def test_sweep_sees_only_a_stream_seed_from_the_seed(tmp_path):
    workload = workloads.VariantSweepWorkload(12, str(tmp_path))
    assert workload.stream_seed == 12 % workloads.SWEEP_SEEDS
    assert workload.spec == workloads.sweep_spec(workload.stream_seed)
    assert workload.spec.variant_seed == workloads.SWEEP_VARIANT_SEED
    assert len(workloads.load_reference()["variant_sweep"]) == (
        workloads.SWEEP_SEEDS
    )


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_fails_without_repository_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "suite_cold", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_mismatch_fails_the_command(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["variant_sweep"] = {
        seed: "0" * 64 for seed in reference["variant_sweep"]
    }
    path.write_text(json.dumps(reference))
    proc = _run(tmp_path, "--workload", "variant_sweep", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "MISMATCH" in proc.stdout
