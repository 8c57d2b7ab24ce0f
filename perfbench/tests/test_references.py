"""The recorded references are the oracles' outputs.

* sweep references equal ``VariantSweep.run(engine="full")``, the
  from-scratch evaluation the cone-delta engine must reproduce;
* service references equal ``compute_direct``, the in-process oracle
  of every served record;
* suite references equal a cold run without a store, and the warm
  reference differs from the cold one only in ``ext_faults``.

These are slow (minutes): they re-run the oracles over the whole
reference set.
"""

import tempfile

import pytest

import workloads
from repro.experiments.scheduler import run_suite
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import VariantSweep, render_payload
from repro.service import compute_direct

REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("stream_seed", range(workloads.SWEEP_SEEDS))
def test_sweep_reference_equals_full_engine(stream_seed):
    spec = workloads.sweep_spec(stream_seed)
    payload, stats = VariantSweep(spec).run(engine="full")
    assert stats["methods"] == {"full": spec.num_variants}
    digest = workloads.sha256_text(render_payload(payload))
    assert digest == REFERENCE["variant_sweep"][str(stream_seed)]


def test_service_references_equal_compute_direct():
    keys = workloads.service_keys()
    assert sorted(REFERENCE["service_mix"]) == sorted(
        workloads.key_name(key) for key in keys
    )
    for key in keys:
        records = compute_direct(
            workloads.query_spec(key),
            characterize_patterns=workloads.SERVICE_CHARACTERIZE,
        )
        digest = workloads.sha256_text(workloads.canonical(records))
        assert digest == REFERENCE["service_mix"][workloads.key_name(key)]


def test_suite_references_cold_without_store_and_warm():
    storeless = run_suite(names=None, jobs=1, **workloads.SUITE)
    assert workloads.suite_digests(storeless) == REFERENCE["suite_cold"]
    with tempfile.TemporaryDirectory() as directory:
        run_suite(
            names=None, jobs=1, store=ArtifactStore(directory),
            **workloads.SUITE
        )
        warm = run_suite(
            names=None, jobs=1, store=ArtifactStore(directory),
            **workloads.SUITE
        )
    assert workloads.suite_digests(warm) == REFERENCE["suite_warm"]
    assert "resumed 60, simulated 0" in warm.entry("ext_faults").rendered
    assert "resumed 0, simulated 60" in storeless.entry("ext_faults").rendered
    cold, hot = dict(REFERENCE["suite_cold"]), dict(REFERENCE["suite_warm"])
    assert [name for name in cold if cold[name] != hot[name]] == ["ext_faults"]
