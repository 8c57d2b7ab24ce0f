"""Outside-in layer tracing: spans from wrappers around public calls.

Nothing inside ``repro`` knows it is being traced.  :func:`installed`
rebinds the public functions and methods named in :data:`LAYERS` to
thin wrappers that open a span on a :class:`Tracer`, and restores the
originals on exit.

A module-level function is rebound at *every* ``repro`` module
attribute that holds the original object, because several modules
import by name (``from .baselines import build_multiplier``) and keep
their own reference.  Methods are wrapped on the class.

Self time of a span is its duration minus the time covered by the
wrapped spans nested in it, so the self times of one call tree sum to
the duration of its root.  A span nested directly in a span of the
same layer (``build_value_plane`` -> ``CompiledCircuit.run``) is one
call of that layer, not two.

Backend workers forked from a traced process inherit the wrappers.  A
tracer that finds itself in a forked child drops the inherited totals
and, whenever a root span closes, writes its own totals to
``<worker_dir>/<pid>.json``; :meth:`Tracer.merge_workers` folds those
files back in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy


class Tracer:
    """Per-layer call counts, self times and counters.

    Spans closed in this process are kept in :attr:`spans` as
    ``(id, layer, start, end, parent_id)`` tuples.

    Args:
        clock: Monotonic clock in seconds (tests pass a fake one).
        worker_dir: Where forked children write their totals (None:
            children record nothing).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        worker_dir: Optional[str] = None,
    ):
        self.clock = clock
        self.worker_dir = worker_dir
        self._pid = os.getpid()
        self._child = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._reset()

    def _reset(self) -> None:
        with self._lock:
            self.calls: Dict[str, int] = {}
            self.self_s: Dict[str, float] = {}
            self.counters: Dict[str, float] = {}
            self.spans: List[tuple] = []

    def _stack(self) -> list:
        if os.getpid() != self._pid:
            self._become_child()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _become_child(self) -> None:
        self._pid = os.getpid()
        self._child = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._reset()

    def enter(self, layer: str) -> None:
        stack = self._stack()
        # frame: [layer, start, time covered by nested spans, span id]
        stack.append([layer, self.clock(), 0.0, next(self._ids)])

    def exit(self) -> None:
        stack = self._stack()
        layer, start, nested, span_id = stack.pop()
        end = self.clock()
        duration = end - start
        parent = stack[-1] if stack else None
        with self._lock:
            self.self_s[layer] = (
                self.self_s.get(layer, 0.0) + duration - nested
            )
            if parent is None or parent[0] != layer:
                self.calls[layer] = self.calls.get(layer, 0) + 1
            if not self._child:
                self.spans.append(
                    (span_id, layer, start, end,
                     parent[3] if parent else None)
                )
        if parent is not None:
            parent[2] += duration
        elif self._child and self.worker_dir is not None:
            self._flush_child()

    @contextlib.contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # -- forked workers ---------------------------------------------------

    def _snapshot(self) -> Dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "counters": dict(self.counters),
            }

    def _flush_child(self) -> None:
        path = os.path.join(self.worker_dir, "%d.json" % self._pid)
        with open(path + ".tmp", "w") as handle:
            json.dump(self._snapshot(), handle)
        os.replace(path + ".tmp", path)

    def merge_workers(self) -> int:
        """Fold (and delete) the totals forked children wrote; returns
        the number of worker files merged."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return 0
        merged = 0
        for name in sorted(os.listdir(self.worker_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.worker_dir, name)
            with open(path) as handle:
                data = json.load(handle)
            os.remove(path)
            with self._lock:
                for table, totals in (
                    (self.calls, data["calls"]),
                    (self.self_s, data["self_s"]),
                    (self.counters, data["counters"]),
                ):
                    for key, value in totals.items():
                        table[key] = table.get(key, 0) + value
            merged += 1
        return merged


# ----------------------------------------------------------------------
# The wrapped public surface.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Layer:
    """One wrapped call: ``target`` is ``"module:function"`` or
    ``"module:Class.method"``.  ``before(args)`` returns a token that
    ``after(tracer, token, args, result)`` turns into counters."""

    name: str
    target: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _fold_after(tracer, token, args, plan):
    tracer.count("timing.fold.plans")
    tracer.count("timing.fold.factor_sum", plan.fold_factor)


def _replay_after(tracer, token, args, result):
    replay, scales = args[0], args[1]
    corners = len(scales) if numpy.ndim(scales) == 2 else 1
    tracer.count(
        "timing.replay.pattern_corners",
        replay.plane.num_patterns * corners,
    )


def _plane_cache_before(args):
    cache = args[0]
    return cache.hits + cache.disk_hits


def _plane_cache_after(tracer, hits_before, args, result):
    cache = args[0]
    tracer.count(
        "timing.plane_cache.hits",
        cache.hits + cache.disk_hits - hits_before,
    )


def _delta_replay_after(tracer, token, args, result):
    if result.delta is not None:
        tracer.count("timing.delta.cones")
        tracer.count(
            "timing.delta.cone_fraction_sum", result.delta.cone_fraction
        )
    if result.method == "full":
        tracer.count("timing.delta.fallbacks")


def _store_load_after(tracer, token, args, result):
    if result is not None:
        tracer.count("experiments.store.hits")


LAYERS = (
    Layer("nets.build", "repro.core.baselines:build_multiplier"),
    Layer("nets.mutate", "repro.nets.mutate:apply_mutations"),
    Layer(
        "aging.characterize",
        "repro.aging.degradation:AgedCircuitFactory.characterize_stress",
    ),
    Layer("timing.compile", "repro.timing.engine:CompiledCircuit.__init__"),
    Layer(
        "timing.fold", "repro.timing.fold:fold_stimulus",
        after=_fold_after,
    ),
    Layer("timing.value_pass", "repro.timing.engine:CompiledCircuit.run"),
    Layer("timing.value_pass", "repro.timing.replay:build_value_plane"),
    Layer(
        "timing.plane_cache",
        "repro.timing.value_cache:ValuePlaneCache.get_or_build",
        before=_plane_cache_before,
        after=_plane_cache_after,
    ),
    Layer(
        "timing.replay", "repro.timing.replay:ArrivalReplay.replay",
        after=_replay_after,
    ),
    Layer("timing.delta.base", "repro.timing.delta:DeltaBase.__init__"),
    Layer("timing.delta.diff", "repro.timing.delta:diff_netlists"),
    Layer("timing.delta.patch", "repro.timing.delta:patch_compiled"),
    Layer(
        "timing.delta.replay", "repro.timing.delta:replay_delta",
        after=_delta_replay_after,
    ),
    Layer("timing.sta", "repro.timing.sta:StaticTiming.__post_init__"),
    Layer("timing.sta", "repro.timing.sta:critical_delays"),
    Layer(
        "core.ahl",
        "repro.core.architecture:AgingAwareMultiplier.run_patterns",
    ),
    Layer("montecarlo.price", "repro.montecarlo.population:price_population"),
    Layer("faults.campaign", "repro.faults.campaign:InjectionCampaign.run"),
    Layer(
        "experiments.store.load",
        "repro.experiments.store:ArtifactStore.load",
        after=_store_load_after,
    ),
    Layer(
        "experiments.store.save",
        "repro.experiments.store:ArtifactStore.save",
    ),
)

#: Distinct layer names, in report order.
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))


def _wrap(tracer: Tracer, layer: Layer, func: Callable) -> Callable:
    name, before, after = layer.name, layer.before, layer.after

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, token, args, result)
        return result

    return wrapper


def _rebind_everywhere(original, replacement, package: str) -> List[tuple]:
    """Point every ``package`` module attribute that holds ``original``
    at ``replacement``; returns ``(module, attr, original)`` undo
    records."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == package or module_name.startswith(package + ".")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


@contextlib.contextmanager
def installed(tracer: Tracer, layers=LAYERS, package: str = "repro"):
    """Wrap every layer target for the duration of the block, then
    restore the originals."""
    undo: List[tuple] = []
    try:
        for layer in layers:
            module_name, _, path = layer.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(_wrap(tracer, layer, raw.__func__))
                else:
                    wrapped = _wrap(tracer, layer, raw)
                setattr(cls, attr, wrapped)
                undo.append((cls, attr, raw))
            else:
                original = getattr(module, path)
                undo.extend(
                    _rebind_everywhere(
                        original, _wrap(tracer, layer, original), package
                    )
                )
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
