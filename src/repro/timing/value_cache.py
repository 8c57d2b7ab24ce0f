"""Keyed in-memory + on-disk cache of value planes.

A :class:`~repro.timing.replay.ValuePlane` is a pure function of

* the netlist **structure** (cells, wiring, ports, bypass groups),
* the **stimulus** (and optional ``initial`` settling state),
* the delay-semantics **mode** (may-masks differ between ``inertial``
  and ``floating``),
* the technology's ``glitch_damping`` (switched-capacitance stream).

:func:`plane_cache_key` folds all of those into one sha256 hex digest.

On-disk entries follow the fingerprint-guard idiom of
:mod:`repro.faults.store`: each entry is a single ``.npz`` written
atomically (:func:`repro.util.atomic.atomic_write`) whose embedded key must match the requested
key exactly -- a stale or corrupt file is ignored and rebuilt, never
trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Sequence

import numpy as np

from ..nets.netlist import Netlist
from ..util.atomic import atomic_write
from .engine import CompiledCircuit
from .replay import ValuePlane, build_value_plane

#: Format tag embedded in every cache entry.
FORMAT = "repro-value-plane"
#: Current plane cache schema version.  Version 2: planes are produced
#: by the levelized SoA kernel, whose cross-cell switched-capacitance
#: accumulation order differs from the version-1 per-cell interpreter
#: (same values to float association); keying the version keeps the two
#: provenances from mixing through the on-disk cache.
VERSION = 2

#: Environment variable naming a default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_VALUE_PLANE_DIR"


def netlist_fingerprint(netlist: Netlist) -> str:
    """Structural sha256 of a netlist (wiring, ports, groups -- no
    delays: planes are delay-independent by construction).

    Memoized on the netlist instance keyed by its mutation counter
    (``Netlist.version``), so a netlist grown after fingerprinting is
    re-hashed.
    """
    cached = getattr(netlist, "_structural_fp", None)
    if cached is not None and cached[0] == netlist.version:
        return cached[1]
    h = hashlib.sha256()
    h.update(repr((netlist.name, netlist.num_nets)).encode())
    for cell in netlist.cells:
        h.update(
            repr(
                (
                    cell.cell_type.name,
                    cell.inputs,
                    cell.output,
                    cell.group,
                )
            ).encode()
        )
    for ports in (netlist.input_ports, netlist.output_ports):
        for name, port in ports.items():
            h.update(repr((name, port.nets, port.is_input)).encode())
    h.update(repr(sorted(netlist.group_enables.items())).encode())
    digest = h.hexdigest()
    netlist._structural_fp = (netlist.version, digest)
    return digest


def stimulus_digest(stimulus: Dict[str, Sequence[int]]) -> str:
    """sha256 over the stimulus arrays (order-independent)."""
    h = hashlib.sha256()
    for name in sorted(stimulus):
        arr = np.ascontiguousarray(
            np.asarray(stimulus[name], dtype=np.uint64)
        )
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def plane_cache_key(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
    collect_net_stats: bool = False,
) -> str:
    """The cache key for a plane build."""
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {
                "format": FORMAT,
                "version": VERSION,
                "netlist": netlist_fingerprint(circuit.netlist),
                "mode": circuit.mode,
                "glitch_damping": circuit.technology.glitch_damping,
                "stimulus": stimulus_digest(stimulus),
                "initial": sorted((initial or {}).items()),
                "net_stats": bool(collect_net_stats),
                # Always empty since circuits carry no fault hooks;
                # kept so keys of planes already on disk stay valid.
                "hooks": "",
                # Patched circuits (repro.timing.delta.patch_compiled)
                # share the child's structural fingerprint with a
                # from-scratch compile, but their plans were derived
                # through a delta chain; the lineage keeps a patched
                # plan's plane from ever colliding with its parent's
                # (or an unrelated chain's) cached entry.
                "lineage": list(
                    getattr(circuit, "delta_lineage", ())
                ),
            },
            sort_keys=True,
        ).encode()
    )
    return h.hexdigest()


def save_plane(plane: ValuePlane, path: str) -> None:
    """Atomically persist a plane as one ``.npz`` file."""
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "num_patterns": plane.num_patterns,
        "num_nets": plane.num_nets,
        "num_cells": plane.num_cells,
        "mode": plane.mode,
        "key": plane.key,
        "outputs": list(plane.outputs),
        "has_stats": plane.signal_prob is not None,
    }
    arrays = {
        "meta": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ).copy(),
        "may_packed": plane.may_packed,
        "aux_packed": plane.aux_packed,
        "aux_offsets": plane.aux_offsets,
        "switched_caps": plane.switched_caps,
    }
    for name, arr in plane.outputs.items():
        arrays["out__" + name] = arr
    if plane.signal_prob is not None:
        arrays["signal_prob"] = plane.signal_prob
        arrays["toggle_counts"] = plane.toggle_counts
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with atomic_write(path) as fp:
        np.savez(fp, **arrays)


def load_plane(path: str) -> ValuePlane:
    """Load a plane written by :func:`save_plane` (raises on mismatch)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != FORMAT or meta.get("version") != VERSION:
            raise ValueError(
                "%s is not a version-%d value-plane file" % (path, VERSION)
            )
        return ValuePlane(
            num_patterns=int(meta["num_patterns"]),
            num_nets=int(meta["num_nets"]),
            num_cells=int(meta["num_cells"]),
            mode=meta["mode"],
            may_packed=data["may_packed"],
            aux_packed=data["aux_packed"],
            aux_offsets=data["aux_offsets"],
            outputs={
                name: data["out__" + name] for name in meta["outputs"]
            },
            switched_caps=data["switched_caps"],
            signal_prob=(
                data["signal_prob"] if meta["has_stats"] else None
            ),
            toggle_counts=(
                data["toggle_counts"] if meta["has_stats"] else None
            ),
            key=meta["key"],
        )


class ValuePlaneCache:
    """LRU in-memory + optional on-disk value-plane cache.

    Args:
        directory: On-disk cache directory.  Defaults to the
            ``REPRO_VALUE_PLANE_DIR`` environment variable; None (and
            the variable unset) keeps the cache memory-only.
        max_entries: In-memory LRU capacity (planes are a few MB each).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_entries: int = 8,
    ):
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or None
        self.directory = directory
        self.max_entries = max_entries
        self._memory: "Dict[str, ValuePlane]" = {}
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, "plane-%s.npz" % key[:32])

    def counters(self) -> Dict[str, int]:
        """Snapshot of the hit/miss accounting (suite observability)."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
        }

    def get_or_build(
        self,
        circuit: CompiledCircuit,
        stimulus: Dict[str, Sequence[int]],
        initial: Optional[Dict[str, int]] = None,
        collect_net_stats: bool = False,
        chunk_size="auto",
    ) -> ValuePlane:
        """Return the plane for (circuit, stimulus), building at most
        once per key."""
        key = plane_cache_key(
            circuit, stimulus, initial, collect_net_stats
        )
        plane = self._memory.pop(key, None)
        if plane is not None:
            self._memory[key] = plane  # refresh LRU position
            self.hits += 1
            return plane
        if self.directory is not None:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    plane = load_plane(path)
                except Exception:
                    plane = None  # corrupt/stale: rebuild below
                if plane is not None and plane.key == key:
                    self.disk_hits += 1
                    self._remember(key, plane)
                    return plane
        self.misses += 1
        plane = build_value_plane(
            circuit,
            stimulus,
            initial=initial,
            collect_net_stats=collect_net_stats,
            chunk_size=chunk_size,
            key=key,
        )
        self._remember(key, plane)
        if self.directory is not None:
            save_plane(plane, self._path(key))
        return plane

    def _remember(self, key: str, plane: ValuePlane) -> None:
        self._memory[key] = plane
        while len(self._memory) > self.max_entries:
            self._memory.pop(next(iter(self._memory)))

    def clear(self) -> None:
        """Drop the in-memory entries (disk files are left in place)."""
        self._memory.clear()
