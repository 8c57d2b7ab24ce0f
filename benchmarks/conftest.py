"""Benchmark fixtures.

Each benchmark regenerates one paper table/figure through the experiment
registry and reports its wall-clock via pytest-benchmark.  Pattern counts
are scaled down (see ``SCALE``) so the whole suite runs in minutes; the
full-scale numbers live in EXPERIMENTS.md and can be regenerated with
``python -m repro experiments all``.

Every benchmark also *asserts the paper's qualitative claim* for its
figure, so the suite doubles as an end-to-end reproduction check.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import ExperimentContext

#: Pattern-count multiplier vs the paper's counts.
SCALE = 0.08


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext(scale=SCALE, characterize_patterns=600)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
