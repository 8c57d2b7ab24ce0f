"""Levelized structure-of-arrays (SoA) execution plan.

The per-cell stream loop in :mod:`repro.timing.engine` pays a fixed
Python + numpy-dispatch cost per *cell*; for a 16x16 bypassing array
that is thousands of tiny allocations per chunk.  This module compiles
the levelized cell list into a **bucketed SoA plan** evaluated a whole
(level, opcode) bucket at a time:

* cells are grouped into topological **levels** (a cell's level is one
  more than the deepest level among its driver cells; primary inputs
  and constant rails sit below level 0), so every bucket's inputs were
  fully produced by earlier levels and all cells inside a bucket are
  independent;
* within a level, cells are **bucketed by opcode** into flat index
  arrays -- a ``(num_pins, B)`` input-net gather matrix, a ``(B,)``
  output-net scatter vector, and per-cell delay / capacitance / cell-
  index columns -- so one batched ``gather -> logic kernel -> scatter``
  evaluates all ``B`` cells against a single ``(num_nets, num_words)``
  value matrix.

All cells sharing an opcode have the same pin count (opcodes encode the
cell arity), which is what makes the rectangular gather matrix valid.

Bucket evaluation reuses the exact elementwise kernels of
:mod:`repro.timing.logic` on stacked ``(B, n)`` rows, so every per-cell
float/int op sequence is identical to the per-cell reference
(:mod:`repro.timing.reference`) -- bucketing
changes the iteration order, not the arithmetic.  (The only aggregate
that sums *across* cells, switched capacitance, is accumulated
per-bucket and may therefore differ from the per-cell path by float
association; everything per-net/per-pattern is bit-identical.)
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "LevelBucket",
    "ReplaySchedule",
    "SoAPlan",
    "build_replay_schedule",
    "build_soa_plan",
    "identity_schedule",
    "pack_level",
]


@dataclasses.dataclass
class LevelBucket:
    """All same-opcode cells of one topological level.

    Attributes:
        opcode: The shared cell opcode.
        positions: ``(B,)`` levelized cell positions (aux-offset axis).
        pins: ``(num_pins, B)`` input-net gather indices.
        outputs: ``(B,)`` output-net scatter indices (each net has one
            driver, so scatters never collide).
        cell_indices: ``(B,)`` netlist cell indices (delay-scale axis).
        fresh_delays: ``(B,)`` unscaled cell delays (ns).
        delays: ``(B,)`` compiled (delay-scaled) cell delays (ns).
        caps: ``(B,)`` per-cell load capacitances.
    """

    opcode: int
    positions: np.ndarray
    pins: np.ndarray
    outputs: np.ndarray
    cell_indices: np.ndarray
    fresh_delays: np.ndarray
    delays: np.ndarray
    caps: np.ndarray

    @property
    def size(self) -> int:
        return int(self.outputs.shape[0])


@dataclasses.dataclass
class SoAPlan:
    """Bucketed levels of one circuit.

    ``levels[d]`` holds the opcode buckets of level ``d`` (insertion
    order: first-seen opcode first, cells inside a bucket in levelized
    order).  ``grouped`` lists ``(output net, enable net)`` pairs of
    bypass-group cells, for the tri-state-hold toggle fixup.
    """

    levels: List[List[LevelBucket]]
    grouped: List[Tuple[int, int]]
    num_levels: int


def pack_level(members) -> List[LevelBucket]:
    """Bucket one level's compiled cells by opcode: first-seen opcode
    first, members kept in the given (levelized position) order."""
    per_opcode: Dict[int, List] = {}
    for compiled in members:
        per_opcode.setdefault(compiled.opcode, []).append(compiled)
    return [
        LevelBucket(
            opcode=opcode,
            positions=np.array([c.position for c in group], dtype=np.intp),
            pins=np.array([c.inputs for c in group], dtype=np.intp).T.copy(),
            outputs=np.array([c.output for c in group], dtype=np.intp),
            cell_indices=np.array([c.index for c in group], dtype=np.intp),
            fresh_delays=np.array(
                [c.fresh_delay_ns for c in group], dtype=float
            ),
            delays=np.array([c.delay_ns for c in group], dtype=float),
            caps=np.array([c.cap for c in group], dtype=float),
        )
        for opcode, group in per_opcode.items()
    ]


def build_soa_plan(cells, netlist) -> SoAPlan:
    """Compile levelized ``_CompiledCell`` s into an :class:`SoAPlan`.

    Args:
        cells: The circuit's levelized compiled cells (topological
            order -- every driver precedes its consumers).
        netlist: The owning netlist (supplies bypass-group enables).
    """
    level_of_net: Dict[int, int] = {}
    cell_levels = []
    num_levels = 0
    for compiled in cells:
        level = 0
        for pin in compiled.inputs:
            depth = level_of_net.get(pin, -1)
            if depth >= level:
                level = depth + 1
        level_of_net[compiled.output] = level
        cell_levels.append(level)
        if level + 1 > num_levels:
            num_levels = level + 1

    members: List[List] = [[] for _ in range(num_levels)]
    grouped: List[Tuple[int, int]] = []
    group_enable = netlist.group_enables
    for compiled, level in zip(cells, cell_levels):
        members[level].append(compiled)
        if compiled.group is not None and compiled.group in group_enable:
            grouped.append(
                (compiled.output, group_enable[compiled.group])
            )
    levels = [pack_level(level_cells) for level_cells in members]
    return SoAPlan(levels=levels, grouped=grouped, num_levels=num_levels)


@dataclasses.dataclass
class ReplaySchedule:
    """Row layout of an arrival-replay window for one :class:`SoAPlan`.

    A replay window stacks ``(c, k)`` arrival slabs, one per *row*; a
    row holds one net's arrivals while that net is live.
    :func:`repro.timing.replay.replay_buckets` gathers and scatters
    through these row indices while reading masks by net.

    Attributes:
        pin_rows: ``pin_rows[d][b]`` is the ``(num_pins, B)`` window-row
            matrix of bucket ``b`` of level ``d`` (mirrors its
            ``pins``).
        out_rows: ``out_rows[d][b]`` the ``(B,)`` rows its outputs are
            scattered to.
        clear_rows: ``clear_rows[d]`` the rows level ``d`` reuses; they
            are zeroed before the level runs so its sparse scatter lands
            on quiet zeros.
        row_of_net: ``(num_nets,)`` window row of every net.
        num_rows: Rows a window must have.
    """

    pin_rows: List[List[np.ndarray]]
    out_rows: List[List[np.ndarray]]
    clear_rows: List[np.ndarray]
    row_of_net: np.ndarray
    num_rows: int


def build_replay_schedule(plan: SoAPlan, netlist) -> ReplaySchedule:
    """Allocate one window row per *live* net, reusing rows level by
    level the way a register allocator reuses registers.

    * Row 0 is a shared zero row that is never written: primary inputs,
      both rails and any net no bucket drives read from it.
    * Output-port nets keep their row for the whole replay.
    * Every other net frees its row after the level of its last read
      (after its own level if nothing reads it); a freed row is handed
      out again no earlier than the next level, lowest row first, and
      listed in that level's ``clear_rows``.

    Liveness comes from the plan's own levels, so patched plans (whose
    cells keep their parent level) schedule correctly too.
    """
    num_nets = netlist.num_nets
    num_levels = len(plan.levels)
    free_level = np.full(num_nets, -1, dtype=np.intp)
    for level, buckets in enumerate(plan.levels):
        for bucket in buckets:
            free_level[bucket.outputs] = level
            free_level[bucket.pins.ravel()] = level
    for port in netlist.output_ports.values():
        free_level[list(port.nets)] = num_levels

    free_level = free_level.tolist()
    row_of_net = np.zeros(num_nets, dtype=np.intp)
    freed_after: List[List[int]] = [[] for _ in range(num_levels)]
    free: List[int] = []
    num_rows = 1
    clear_rows: List[np.ndarray] = []
    for level, buckets in enumerate(plan.levels):
        if level:
            for row in freed_after[level - 1]:
                heapq.heappush(free, row)
        reused = []
        for bucket in buckets:
            for net in bucket.outputs.tolist():
                if free:
                    row = heapq.heappop(free)
                    reused.append(row)
                else:
                    row = num_rows
                    num_rows += 1
                row_of_net[net] = row
                if free_level[net] < num_levels:
                    freed_after[free_level[net]].append(row)
        clear_rows.append(np.array(reused, dtype=np.intp))

    return ReplaySchedule(
        pin_rows=[
            [row_of_net[bucket.pins] for bucket in buckets]
            for buckets in plan.levels
        ],
        out_rows=[
            [row_of_net[bucket.outputs] for bucket in buckets]
            for buckets in plan.levels
        ],
        clear_rows=clear_rows,
        row_of_net=row_of_net,
        num_rows=num_rows,
    )


def identity_schedule(plan: SoAPlan, num_nets: int) -> ReplaySchedule:
    """The schedule with row = net and no reuse: the window keeps every
    net's arrivals, as a caller that later reads arbitrary nets needs."""
    empty = np.zeros(0, dtype=np.intp)
    return ReplaySchedule(
        pin_rows=[[bucket.pins for bucket in buckets]
                  for buckets in plan.levels],
        out_rows=[[bucket.outputs for bucket in buckets]
                  for buckets in plan.levels],
        clear_rows=[empty] * len(plan.levels),
        row_of_net=np.arange(num_nets, dtype=np.intp),
        num_rows=num_nets,
    )
