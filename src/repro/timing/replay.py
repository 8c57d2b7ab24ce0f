"""Two-plane stream simulation: value plane + batched arrival replay.

Aging (NBTI/PBTI drift) and process variation only rescale per-cell
*delays*: the settled values, toggle streams, bypass-group holds and
signal probabilities of a pattern stream are bit-identical at every
aging timestep and variation corner.  This module exploits that split:

* :func:`build_value_plane` runs the levelized cell loop **once** per
  stimulus (delay-free), recording everything the arrival rules consume
  -- per-net may-change flags and per-cell value-derived aux masks
  (controlling-input hits, mux selects, tri-state enables), bit-packed
  via :func:`repro.timing.logic.pack_bits` semantics -- plus all the
  delay-independent :class:`~repro.timing.engine.StreamResult` fields
  (outputs, switched capacitance, optional net stats).

* :class:`ArrivalReplay` then recomputes per-pattern path delays for one
  or *many* per-cell delay-scale vectors.  ``replay(scales)`` with a
  ``(k, num_cells)`` matrix evaluates all ``k`` aging timesteps /
  variation corners in a single numpy pass per cell: every cell's
  arrival update broadcasts over a leading corner axis, so an
  O(timesteps x full-sim) lifetime sweep becomes O(1 value pass +
  timesteps x cheap replay).

Both :class:`ArrivalReplay` and the cone-delta base
(:class:`repro.timing.delta.DeltaBase`) run the same bucketed loop,
:func:`replay_buckets`, each over its own pattern windows and window
rows: ``ArrivalReplay`` keeps one row per *live* net (the circuit's
:meth:`~repro.timing.engine.CompiledCircuit.replay_schedule`), the delta
base one row per net.

Bit-identity contract: for any scale vector ``s``,
``ArrivalReplay(circuit, plane).replay(s)`` reproduces
``CompiledCircuit(netlist, tech, s, mode).run(stimulus)`` bit for
bit -- the same elementwise float ops as
:func:`repro.timing.logic.arrival_masks`, same quiet-zero invariant,
regardless of how the plane build was chunked.  This is asserted by
``tests/test_replay.py``, with :mod:`repro.timing.reference` as the
per-cell oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from . import logic
from .engine import CompiledCircuit, StreamResult


def _aux_count(opcode: int, num_inputs: int) -> int:
    """How many aux masks :func:`logic.aux_masks` yields for a cell."""
    if logic.CONTROLLING_VALUE.get(opcode) is not None:
        return num_inputs
    if opcode in (logic.OP_MUX2, logic.OP_TRIBUF):
        return 1
    return 0


#: Memory target that sizes the replay chunk *length*: the length at
#: which a ``(num_nets, c, k)`` window, one row per net, would fill it.
#: The window actually allocated has one row per *live* net
#: (:class:`~repro.timing.soa.ReplaySchedule`), so it takes only
#: ``num_rows / num_nets`` of this target (12-22% on the multipliers).
REPLAY_CHUNK_TARGET_BYTES = 128 * 1024 * 1024


def _replay_chunk_size(num_nets: int, k: int) -> int:
    """Patterns per replay chunk: a multiple of 8 (byte-aligned plane
    unpacking), at least 8, sized so a window of ``num_nets`` rows
    would fill :data:`REPLAY_CHUNK_TARGET_BYTES`.

    The length is sized from the net count, not from the schedule's
    (smaller) row count, on purpose: longer chunks over the live-row
    window measured slower for wide corner batches (k = 600), so the
    liveness schedule only shrinks the window's rows."""
    per_pattern = max(1, num_nets) * max(1, k) * 8
    chunk = REPLAY_CHUNK_TARGET_BYTES // per_pattern
    return max(8, chunk - chunk % 8)


@dataclasses.dataclass
class ValuePlane:
    """Delay-independent record of one stimulus through one circuit.

    All boolean streams are bit-packed (8 patterns per byte, big-endian
    bit order, matching :func:`numpy.packbits`); a 16x16 multiplier's
    plane for 10k patterns is a few MB.

    Attributes:
        num_patterns: Reported stream length ``n``.
        num_nets: Net count of the owning netlist.
        num_cells: Compiled (levelized) cell count.
        mode: Delay semantics the may-masks encode (``inertial`` /
            ``floating``).
        may_packed: ``(num_nets, ceil(n / 8))`` packed per-net may-change
            masks (settled-change flags in inertial mode, may-glitch
            masks in floating mode).
        aux_packed: Packed aux-mask rows for all cells, concatenated.
        aux_offsets: ``(num_cells + 1,)`` row ranges into ``aux_packed``
            per cell position.
        outputs / switched_caps / signal_prob / toggle_counts: The
            delay-independent :class:`StreamResult` fields, shared by
            every replayed corner.
        key: Optional cache key (see :mod:`repro.timing.value_cache`).
    """

    num_patterns: int
    num_nets: int
    num_cells: int
    mode: str
    may_packed: np.ndarray
    aux_packed: np.ndarray
    aux_offsets: np.ndarray
    outputs: Dict[str, np.ndarray]
    switched_caps: np.ndarray
    signal_prob: Optional[np.ndarray] = None
    toggle_counts: Optional[np.ndarray] = None
    key: Optional[str] = None

    def may(self, net: int) -> np.ndarray:
        """Unpacked boolean may-change mask for one net."""
        return np.unpackbits(
            self.may_packed[net], count=self.num_patterns
        ).view(bool)

    def aux(self, position: int) -> "tuple[np.ndarray, ...]":
        """Unpacked aux masks for the cell at levelized ``position``."""
        lo, hi = self.aux_offsets[position], self.aux_offsets[position + 1]
        return tuple(
            np.unpackbits(self.aux_packed[row], count=self.num_patterns)
            .view(bool)
            for row in range(lo, hi)
        )

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint of the packed planes."""
        total = self.may_packed.nbytes + self.aux_packed.nbytes
        total += self.switched_caps.nbytes
        total += sum(arr.nbytes for arr in self.outputs.values())
        return total


class _PlaneRecorder:
    """Engine-side hook capturing the value plane during ``run``.

    The engine calls :meth:`begin` once per chunk with the chunk's first
    *reported* pattern index (always a multiple of 8 -- ``run`` enforces
    byte-aligned chunk sizes when recording), then :meth:`net_may` once
    per primary input and :meth:`cell_bucket` once per bucket; masks
    are packed straight into their byte range, so chunked and unchunked
    builds produce identical planes.
    """

    def __init__(self, circuit: CompiledCircuit, num_patterns: int):
        nbytes = (num_patterns + 7) // 8
        self.may = np.zeros((circuit.num_nets, nbytes), dtype=np.uint8)
        counts = [
            _aux_count(c.opcode, len(c.inputs)) for c in circuit._cells
        ]
        self.aux_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.aux_offsets[1:])
        self.aux = np.zeros(
            (int(self.aux_offsets[-1]), nbytes), dtype=np.uint8
        )
        self._byte = 0
        self._lo = 0

    def begin(self, reported_start: int, lo: int) -> None:
        self._byte = reported_start // 8
        self._lo = lo

    def _pack_into(self, row: np.ndarray, mask: np.ndarray) -> None:
        packed = np.packbits(mask[self._lo:])
        row[self._byte:self._byte + packed.shape[0]] = packed

    def net_may(self, net: int, flags: np.ndarray) -> None:
        self._pack_into(self.may[net], flags)

    def cell_bucket(self, positions, nets, out_may, aux) -> None:
        """Record one SoA bucket: ``out_may`` is ``(B, n)`` and each aux
        mask ``(B, n)``; rows pack straight into their byte ranges."""
        packed = np.packbits(out_may[:, self._lo:], axis=1)
        width = packed.shape[1]
        self.may[nets, self._byte:self._byte + width] = packed
        if aux:
            rows = self.aux_offsets[positions]
            for lane, mask in enumerate(aux):
                packed = np.packbits(mask[:, self._lo:], axis=1)
                self.aux[rows + lane, self._byte:self._byte + width] = (
                    packed
                )


def build_value_plane(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
    collect_net_stats: bool = False,
    chunk_size: "Optional[int | str]" = "auto",
    key: Optional[str] = None,
) -> ValuePlane:
    """Run the value pass once and capture a :class:`ValuePlane`.

    ``chunk_size``
    bounds peak memory as in :meth:`CompiledCircuit.run`; integer sizes
    are rounded up to a multiple of 8 so packed chunks stay
    byte-aligned.
    """
    lengths = {np.asarray(v).shape[0] for v in stimulus.values()}
    if len(lengths) != 1:
        raise SimulationError("stimulus arrays must be equally long")
    (n,) = lengths
    if isinstance(chunk_size, int) and chunk_size % 8:
        chunk_size += 8 - chunk_size % 8
    recorder = _PlaneRecorder(circuit, n)
    result = circuit.run(
        stimulus,
        initial=initial,
        collect_net_stats=collect_net_stats,
        chunk_size=chunk_size,
        _recorder=recorder,
    )
    return ValuePlane(
        num_patterns=result.num_patterns,
        num_nets=circuit.num_nets,
        num_cells=len(circuit._cells),
        mode=circuit.mode,
        may_packed=recorder.may,
        aux_packed=recorder.aux,
        aux_offsets=recorder.aux_offsets,
        outputs=result.outputs,
        switched_caps=result.switched_caps,
        signal_prob=result.signal_prob,
        toggle_counts=result.toggle_counts,
        key=key,
    )


@dataclasses.dataclass
class ReplayResult:
    """Arrivals for ``k`` delay corners replayed over one value plane.

    Attributes:
        plane: The value plane all corners share.
        delay_scales: The ``(k, num_cells)`` scale matrix replayed.
        delays: ``(k, n)`` per-corner, per-pattern path delays (ns).
        bit_arrivals: Optional port -> ``(width, k, n)`` per-bit arrival
            matrices.
    """

    plane: ValuePlane
    delay_scales: np.ndarray
    delays: np.ndarray
    bit_arrivals: Optional[Dict[str, np.ndarray]] = None

    @property
    def num_corners(self) -> int:
        return self.delays.shape[0]

    def max_delays(self) -> np.ndarray:
        """Per-corner worst path delay (ns), shape ``(k,)``."""
        return self.delays.max(axis=1)

    def stream_result(self, corner: int = 0) -> StreamResult:
        """One corner as a :class:`StreamResult`, bit-identical to the
        full engine run at that corner's delay scale."""
        bit_arrivals = None
        if self.bit_arrivals is not None:
            bit_arrivals = {
                name: matrix[:, corner, :]
                for name, matrix in self.bit_arrivals.items()
            }
        return StreamResult(
            outputs=self.plane.outputs,
            delays=self.delays[corner],
            switched_caps=self.plane.switched_caps,
            num_patterns=self.plane.num_patterns,
            bit_arrivals=bit_arrivals,
            signal_prob=self.plane.signal_prob,
            toggle_counts=self.plane.toggle_counts,
        )

    def stream_results(self) -> List[StreamResult]:
        """All corners as :class:`StreamResult` s, in scale-row order."""
        return [self.stream_result(k) for k in range(self.num_corners)]


class ArrivalReplay:
    """Replays the arrival plane of a circuit over a value plane.

    ``delay_scales`` rows are *absolute* per-cell scale vectors relative
    to the fresh (unaged) library delays -- exactly the ``delay_scale``
    argument of :class:`CompiledCircuit` -- independent of whatever
    scale the bound circuit itself was compiled with (only its
    structure and mode matter; values are delay-free).
    """

    def __init__(self, circuit: CompiledCircuit, plane: ValuePlane):
        if plane.num_nets != circuit.num_nets:
            raise SimulationError(
                "value plane has %d nets, circuit has %d"
                % (plane.num_nets, circuit.num_nets)
            )
        if plane.num_cells != len(circuit._cells):
            raise SimulationError(
                "value plane has %d cells, circuit has %d"
                % (plane.num_cells, len(circuit._cells))
            )
        if plane.mode != circuit.mode:
            raise SimulationError(
                "value plane was built in %r mode, circuit is %r"
                % (plane.mode, circuit.mode)
            )
        self.circuit = circuit
        self.plane = plane
        self.num_cells = len(circuit.netlist.cells)

    def replay(
        self,
        delay_scales: np.ndarray,
        collect_bit_arrivals: bool = False,
    ) -> ReplayResult:
        """Compute path delays for one or many delay-scale vectors.

        Args:
            delay_scales: ``(num_cells,)`` for a single corner or
                ``(k, num_cells)`` for a batch; entries must be
                positive.  Rows are indexed by netlist cell index (the
                :class:`CompiledCircuit` ``delay_scale`` axis).
            collect_bit_arrivals: Keep port -> ``(width, k, n)`` per-bit
                arrival matrices.
        """
        scales = np.asarray(delay_scales, dtype=float)
        if scales.ndim == 1:
            scales = scales[None, :]
        if scales.ndim != 2 or scales.shape[1] != self.num_cells:
            raise SimulationError(
                "delay_scales must be (num_cells,) or (k, num_cells) "
                "with num_cells=%d, got %r"
                % (self.num_cells, np.shape(delay_scales))
            )
        if np.any(scales <= 0):
            raise SimulationError("delay_scale entries must be positive")
        delays, bit_arrivals = self._replay_soa(scales, collect_bit_arrivals)
        return ReplayResult(
            plane=self.plane,
            delay_scales=scales,
            delays=delays,
            bit_arrivals=bit_arrivals,
        )

    def _replay_soa(self, scales: np.ndarray, collect_bit_arrivals: bool):
        """Port delays via :func:`replay_buckets`, one pattern chunk at
        a time.

        The pattern axis is chunked (multiples of 8, so the bit-packed
        plane unpacks byte-aligned) to bound the dense
        ``(num_rows, c, k)`` arrival window; replay carries no
        cross-pattern state, so chunking is exact.  The window has one
        row per live net (the circuit's cached
        :meth:`~CompiledCircuit.replay_schedule`); output-port rows are
        never reused, so they are read once the chunk is done.
        """
        circuit = self.circuit
        plan = circuit.soa_plan()
        schedule = circuit.replay_schedule()
        k = scales.shape[0]
        n = self.plane.num_patterns
        num_rows = schedule.num_rows
        chunk = _replay_chunk_size(circuit.num_nets, k)
        delays = np.zeros((k, n))
        port_rows = {
            name: schedule.row_of_net[list(port.nets)]
            for name, port in circuit.netlist.output_ports.items()
        }
        bit_arrivals: Optional[Dict[str, np.ndarray]] = None
        if collect_bit_arrivals:
            bit_arrivals = {
                name: np.zeros((rows.shape[0], k, n))
                for name, rows in port_rows.items()
            }
        buf = np.zeros(num_rows * min(chunk, n) * k)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            c = stop - start
            # A C-contiguous (num_rows, c, k) window over the front of
            # the buffer, so a ragged last chunk still flattens in place.
            sub = buf[:num_rows * c * k].reshape(num_rows, c, k)
            if start:
                sub[...] = 0.0  # quiet entries / the zero row stay 0
            replay_buckets(
                plan, schedule, self.plane, scales, sub, start, stop
            )
            for name, rows in port_rows.items():
                port_arr = sub[rows]
                if collect_bit_arrivals:
                    bit_arrivals[name][:, :, start:stop] = (
                        port_arr.transpose(0, 2, 1)
                    )
                delays[:, start:stop] = np.maximum(
                    delays[:, start:stop], port_arr.max(axis=0).T
                )
        return delays, bit_arrivals

    def stream(
        self,
        delay_scale: Optional[np.ndarray] = None,
        collect_bit_arrivals: bool = False,
    ) -> StreamResult:
        """Single-corner convenience: a :class:`StreamResult` for one
        scale vector (fresh delays when ``delay_scale`` is None)."""
        if delay_scale is None:
            delay_scale = np.ones(self.num_cells)
        return self.replay(
            delay_scale, collect_bit_arrivals=collect_bit_arrivals
        ).stream_result(0)


def replay_buckets(plan, schedule, plane, scales, out, start,
                   stop) -> None:
    """Bucketed sparse arrival replay of patterns ``[start, stop)``.

    ``out`` is a pre-zeroed, C-contiguous ``(schedule.num_rows, stop -
    start, k)`` window; ``start`` must be a multiple of 8 (the plane
    unpacks byte-aligned).  ``schedule``
    (:class:`~repro.timing.soa.ReplaySchedule`) maps nets to window
    rows: masks are read by *net* and ``scales`` by *cell index*, while
    every gather and scatter goes through the schedule's *rows*, and
    each level first zeroes the rows it reuses.  The liveness schedule
    (:meth:`CompiledCircuit.replay_schedule`) keeps only live nets; the
    identity schedule (:func:`~repro.timing.soa.identity_schedule`)
    keeps every net's row.

    Every (level, opcode) bucket of ``plan`` prices all ``k`` rows of
    ``scales`` at once, touching only *active* entries: the flat
    indices of a bucket's ``(B, c)`` may-mask select (cell, pattern)
    entries, arrivals are computed as a flat ``(nnz, k)`` workspace
    over the entries whose output may change, and every gather and
    scatter is a 1-D ``take`` / assignment on the ``(num_rows * c, k)``
    view of ``out``.  Inactive entries are exactly the
    ``where(may, .., 0.0)`` zeros of
    :func:`repro.timing.logic.arrival_masks`, so the result stays
    bit-identical while arithmetic and memory traffic scale with the
    active fraction (~1/3 on a bypass multiplier under uniform
    operands, since bypassed columns sit quiet).  Rows of quiet
    entries, primary inputs and constant rails stay 0.0.
    """
    if not out.flags.c_contiguous:
        raise SimulationError("replay window must be C-contiguous")
    num_rows, c, k = out.shape
    if num_rows != schedule.num_rows:
        raise SimulationError(
            "replay window has %d rows, schedule needs %d"
            % (num_rows, schedule.num_rows)
        )
    flat = out.reshape(num_rows * c, k)
    byte0 = start // 8
    byte1 = (stop + 7) // 8
    for bucket_list, level_pins, level_outs, clear in zip(
        plan.levels, schedule.pin_rows, schedule.out_rows,
        schedule.clear_rows,
    ):
        if clear.size:
            out[clear] = 0.0
        for bucket, pin_rows, out_rows in zip(
            bucket_list, level_pins, level_outs
        ):
            may = np.unpackbits(
                plane.may_packed[bucket.outputs, byte0:byte1],
                axis=1,
                count=c,
            ).view(bool)
            idx = np.flatnonzero(may)
            if not idx.size:
                continue
            members, cols = np.divmod(idx, c)
            count = _aux_count(bucket.opcode, pin_rows.shape[0])
            if count:
                aux_rows = plane.aux_offsets[bucket.positions]
                aux = tuple(
                    np.unpackbits(
                        plane.aux_packed[aux_rows + lane, byte0:byte1],
                        axis=1,
                        count=c,
                    ).view(bool).ravel()[idx]
                    for lane in range(count)
                )
            else:
                aux = ()
            arrs = [
                flat.take(pin_rows[j].take(members) * c + cols, axis=0)
                for j in range(pin_rows.shape[0])
            ]
            # fresh_delay_ns * scale per (cell, corner), exactly the
            # engine's per-cell delay at every corner.
            delay = (
                bucket.fresh_delays[:, None]
                * scales[:, bucket.cell_indices].T
            )
            flat[out_rows.take(members) * c + cols] = _active_arrival(
                bucket.opcode, aux, arrs, delay.take(members, axis=0)
            )


def _active_arrival(opcode, aux, arrs, delay):
    """Arrival kernel over flat *active* entries.

    Operands are ``(nnz, k)`` arrays (one row per (cell, pattern) entry
    whose output may change, all corners side by side) with ``(nnz,)``
    aux masks.  Bit-identical to :func:`repro.timing.logic
    .arrival_masks` restricted to those entries: the selection masks
    depend only on values, and every identity used is float-exact
    (arrivals are always >= 0.0, min/max/select never round).  The
    quiet-zero pass is absent -- callers scatter into pre-zeroed
    storage, which IS the ``where(may, .., 0.0)`` branch.
    """
    if opcode in (logic.OP_BUF, logic.OP_INV):
        return arrs[0] + delay
    if opcode in (logic.OP_XOR2, logic.OP_XNOR2):
        out = np.maximum(arrs[0], arrs[1])
        out += delay
        return out
    if (
        logic.CONTROLLING_VALUE.get(opcode) is not None
        and len(arrs) == 2
    ):
        c0, c1 = aux
        a0, a1 = arrs
        out = np.maximum(a0, a1)
        both = np.nonzero(c0 & c1)[0]
        if both.size:
            out[both] = np.minimum(a0[both], a1[both])
        only0 = np.nonzero(c0 & ~c1)[0]
        if only0.size:
            out[only0] = a0[only0]
        only1 = np.nonzero(c1 & ~c0)[0]
        if only1.size:
            out[only1] = a1[only1]
        out += delay
        return out
    if opcode == logic.OP_MUX2:
        (sel,) = aux
        out = arrs[0].copy()
        chosen = np.nonzero(sel)[0]
        if chosen.size:
            out[chosen] = arrs[1][chosen]
        np.maximum(out, arrs[2], out=out)
        out += delay
        return out
    if opcode == logic.OP_TRIBUF:
        (enabled,) = aux
        out = arrs[0].copy()
        disabled = np.nonzero(~enabled)[0]
        if disabled.size:
            out[disabled] = 0.0
        np.maximum(out, arrs[1], out=out)
        out += delay
        return out
    # Rare shapes (3-input controlled gates): generic reference kernel
    # with an all-True may -- every row here is active by construction.
    out_may = np.ones(arrs[0].shape, dtype=bool)
    return logic.arrival_masks(
        opcode, tuple(a[:, None] for a in aux), arrs, delay, out_may
    )
