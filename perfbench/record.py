#!/usr/bin/env python3
"""Record ``reference.json``: the expected outputs every benchmark run
is checked against.

Usage (from the repository root)::

    python3 perfbench/record.py

* ``suite_cold`` / ``suite_warm``: ordered ``[name, sha256(rendered)]``
  of a cold suite run into an empty store and of a warm re-run on it
  (they differ only in ``ext_faults``, which reports the resumed and
  simulated campaign sites);
* ``variant_sweep``: sha256 of the canonical sweep payload for every
  operand-stream seed the benchmark maps seeds onto;
* ``service_mix``: sha256 of the canonical records of every query key
  of the service trace space, computed in-process by
  ``compute_direct``.

``tests/test_references.py`` proves the sweep references equal the
``engine="full"`` oracle and the service references equal
``compute_direct``; re-record only when a deliberate change alters
simulated results.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from repro.experiments.scheduler import run_suite  # noqa: E402
from repro.experiments.store import ArtifactStore  # noqa: E402
from repro.experiments.sweep import VariantSweep  # noqa: E402
from repro.service import compute_direct  # noqa: E402
from repro.service.backend import build_context  # noqa: E402


def suite_references():
    with tempfile.TemporaryDirectory() as directory:
        cold = run_suite(
            names=None, jobs=1, store=ArtifactStore(directory),
            **workloads.SUITE
        )
        warm = run_suite(
            names=None, jobs=1, store=ArtifactStore(directory),
            **workloads.SUITE
        )
    return workloads.suite_digests(cold), workloads.suite_digests(warm)


def sweep_references():
    references = {}
    for stream_seed in range(workloads.SWEEP_SEEDS):
        spec = workloads.sweep_spec(stream_seed)
        sweep = VariantSweep(spec)
        records = [
            sweep.evaluate(index)[0] for index in range(spec.num_variants)
        ]
        references[str(stream_seed)] = workloads.sweep_digest(spec, records)
    return references


def service_references():
    context = build_context(None, workloads.SERVICE_CHARACTERIZE)
    return {
        workloads.key_name(key): workloads.sha256_text(
            workloads.canonical(
                compute_direct(workloads.query_spec(key), context=context)
            )
        )
        for key in workloads.service_keys()
    }


def main():
    cold, warm = suite_references()
    reference = {
        "suite_cold": cold,
        "suite_warm": warm,
        "variant_sweep": sweep_references(),
        "service_mix": service_references(),
    }
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % workloads.REFERENCE_PATH)


if __name__ == "__main__":
    main()
