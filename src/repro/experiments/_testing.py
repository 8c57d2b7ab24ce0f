"""Fault-injection experiment specs for scheduler degradation tests.

These specs are NOT part of the normal registry: they only exist when
the ``REPRO_TEST_EXPERIMENTS`` environment variable is set (see the
hook at the bottom of :mod:`repro.experiments.registry`).  Because the
environment propagates to :class:`~repro.distrib.pool.LocalPool`
workers, the injected ids resolve inside worker processes too -- which
is exactly what the worker-crash degradation tests need: a spec that
raises in-worker and a spec that kills its worker process outright.
"""

from __future__ import annotations

import os
import time


class _Rendered:
    """Minimal result object satisfying the ``render()`` protocol."""

    def __init__(self, text: str):
        self._text = text

    def render(self) -> str:
        return self._text


def run_ok(context, delay_s: float = 0.0):
    """A well-behaved experiment (optionally slow, to order crashes)."""
    if delay_s:
        time.sleep(delay_s)
    return _Rendered("test experiment ok")


def run_raise(context):
    """Deterministic in-worker failure: must become an error record
    without a retry and without touching other experiments."""
    raise RuntimeError("injected failure")


def run_crash(context):
    """Kill the worker process outright (no exception, no cleanup) --
    the pool sees its executor break."""
    os._exit(3)


def register_test_experiments(registry=None) -> None:
    from .registry import REGISTRY, Resources, _spec

    target = REGISTRY if registry is None else registry
    for spec in (
        _spec("_test_ok", "Injected no-op (testing)",
              run_ok, ("testing",), Resources()),
        _spec("_test_slow", "Injected slow no-op (testing)",
              run_ok, ("testing",), Resources(), delay_s=0.5),
        _spec("_test_raise", "Injected raising spec (testing)",
              run_raise, ("testing",), Resources()),
        _spec("_test_crash", "Injected crashing spec (testing)",
              run_crash, ("testing",), Resources()),
    ):
        target[spec.id] = spec
