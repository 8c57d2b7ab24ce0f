"""Per-cell reference interpreter: the test oracle of the fast paths.

The engine evaluates whole (level, opcode) buckets (see
:mod:`repro.timing.soa`) and replays arrivals over flat active entries
(see :mod:`repro.timing.replay`).  This module keeps the plain per-cell
form of both passes -- one :mod:`repro.timing.logic` call per cell, in
levelized order, no chunking, no plan -- so the equivalence suites can
check the bucketed code against the cell semantics directly:

* :func:`reference_run` reproduces :meth:`CompiledCircuit.run` (values,
  delays, bit arrivals, net stats; switched capacitance up to float
  association, since the engine sums it per bucket).  It alone still
  takes value-fault hooks: it is the oracle the fault campaign's cone
  replays (:func:`repro.timing.delta.replay_delta` overrides) are
  checked against;
* :func:`reference_replay` reproduces :meth:`ArrivalReplay.replay` bit
  for bit, through :func:`repro.timing.logic.arrival_masks`.

Nothing outside the tests and benchmark baselines calls these; they
trade speed for being obviously right.  Memory stays bounded by
dropping each net's streams after its last consumer ran.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..nets.netlist import CONST0, CONST1
from . import logic
from .engine import CompiledCircuit, StreamResult, _prefix_settling
from .replay import ReplayResult, ValuePlane

__all__ = ["FaultHook", "reference_replay", "reference_run"]

#: A value-fault hook: maps a net's per-pattern bit stream to the faulted
#: stream.  ``start_index`` is the *global* index of the first element
#: (-1 for the prepended settling pattern).  Hooks must be pure
#: functions of their arguments.
FaultHook = Callable[[np.ndarray, int], np.ndarray]


def _dead_after(circuit: CompiledCircuit) -> Dict[int, int]:
    """Net -> levelized position of its last consumer, for every net
    whose streams may be dropped then (ports, constant rails and bypass
    enables are read after the cell loop and are never dropped)."""
    netlist = circuit.netlist
    keep = {CONST0, CONST1}
    for port in netlist.input_ports.values():
        keep.update(port.nets)
    for port in netlist.output_ports.values():
        keep.update(port.nets)
    keep.update(netlist.group_enables.values())
    last_use: Dict[int, int] = {}
    for compiled in circuit._cells:
        for net in compiled.inputs:
            last_use[net] = compiled.position
    return {
        net: position
        for net, position in last_use.items()
        if net not in keep
    }


def _drop_dead(compiled, dead_after, *tables) -> None:
    for net in compiled.inputs:
        if dead_after.get(net) == compiled.position:
            for table in tables:
                table.pop(net, None)


def reference_run(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
    collect_bit_arrivals: bool = False,
    collect_net_stats: bool = False,
    fault_hooks: Optional[Dict[int, FaultHook]] = None,
) -> StreamResult:
    """The value pass of :meth:`CompiledCircuit.run`, one cell at a time.

    ``fault_hooks`` (net id -> :data:`FaultHook`, see
    :func:`repro.faults.injector.build_fault_hooks`) rewrite a net's
    settled-value stream before change detection, over the whole stream
    at once (start index -1, the settling pattern), so arrivals,
    switching activity and downstream logic all see the faulted values.
    Bypass-group cells hold their value while their enable is low when
    counting toggles.
    """
    arrays = _prefix_settling(
        circuit._check_stimulus(stimulus, initial), initial
    )
    fault_hooks = fault_hooks or {}
    netlist = circuit.netlist
    n = next(iter(arrays.values())).shape[0]
    zeros_f = np.zeros(n)
    inertial = circuit.mode == "inertial"
    damping = circuit.technology.glitch_damping

    values: Dict[int, np.ndarray] = {
        CONST0: np.zeros(n, dtype=np.uint8),
        CONST1: np.ones(n, dtype=np.uint8),
    }
    mays: Dict[int, np.ndarray] = {
        CONST0: np.zeros(n, dtype=bool),
        CONST1: np.zeros(n, dtype=bool),
    }
    arrs: Dict[int, np.ndarray] = {CONST0: zeros_f, CONST1: zeros_f}
    trans: Dict[int, np.ndarray] = {CONST0: zeros_f, CONST1: zeros_f}
    switched = np.zeros(n)
    sig_sum = np.zeros(circuit.num_nets)
    tog_sum = np.zeros(circuit.num_nets)
    sig_sum[CONST1] = n

    for name, port in netlist.input_ports.items():
        bits = logic.unpack_bits(arrays[name], port.width)
        for lane, net in enumerate(port.nets):
            cur = bits[lane]
            if net in fault_hooks:
                cur = np.asarray(fault_hooks[net](cur, -1), dtype=np.uint8)
            flags = logic.changed_matrix(cur, None)
            values[net] = cur
            mays[net] = flags
            arrs[net] = zeros_f
            trans[net] = flags.astype(float)
            sig_sum[net] = cur.sum()
            tog_sum[net] = flags.sum()

    group_enable_net = netlist.group_enables
    dead_after = _dead_after(circuit)
    for compiled in circuit._cells:
        ins = compiled.inputs
        in_vals = [values[net] for net in ins]
        out_val = logic.eval_vector(compiled.opcode, in_vals)
        net = compiled.output
        if net in fault_hooks:
            out_val = np.asarray(
                fault_hooks[net](out_val, -1), dtype=np.uint8
            )
        changed = logic.changed_matrix(out_val, None)
        aux = logic.aux_masks(compiled.opcode, in_vals)
        if inertial:
            out_may = changed
        else:
            out_may = logic.may_vector(
                compiled.opcode, in_vals, [mays[p] for p in ins], aux
            )
        arrs[net] = logic.arrival_masks(
            compiled.opcode, aux, [arrs[p] for p in ins],
            compiled.delay_ns, out_may,
        )
        values[net] = out_val
        mays[net] = out_may
        out_trans = logic.transition_vector(
            compiled.opcode, in_vals, [trans[p] for p in ins], changed,
            damping=damping,
        )
        trans[net] = out_trans
        switched += out_trans * compiled.cap
        toggles = changed
        if compiled.group in group_enable_net:
            enable = values[group_enable_net[compiled.group]]
            toggles, _ = logic.tribuf_masked_toggles(out_val, enable, None)
        sig_sum[net] = out_val.sum()
        tog_sum[net] = toggles.sum()
        _drop_dead(compiled, dead_after, values, mays, arrs, trans)

    outputs: Dict[str, np.ndarray] = {}
    bit_arrivals: Dict[str, np.ndarray] = {}
    delays = np.zeros(n)
    for name, port in netlist.output_ports.items():
        outputs[name] = logic.pack_bits(
            np.vstack([values[net] for net in port.nets])
        )[1:]
        port_arr = np.vstack([arrs[net] for net in port.nets])
        bit_arrivals[name] = port_arr[:, 1:]
        delays = np.maximum(delays, port_arr.max(axis=0))

    return StreamResult(
        outputs=outputs,
        delays=delays[1:],
        switched_caps=switched[1:],
        num_patterns=n - 1,
        bit_arrivals=bit_arrivals if collect_bit_arrivals else None,
        signal_prob=(sig_sum / n) if collect_net_stats else None,
        toggle_counts=tog_sum if collect_net_stats else None,
    )


def reference_replay(
    circuit: CompiledCircuit,
    plane: ValuePlane,
    scales: np.ndarray,
    collect_bit_arrivals: bool = False,
) -> ReplayResult:
    """:meth:`ArrivalReplay.replay` as one :func:`logic.arrival_masks`
    call per cell, all ``k`` corners broadcast down a leading axis.

    ``scales`` is ``(num_cells,)`` or ``(k, num_cells)``, indexed by
    netlist cell index like the engine's ``delay_scale``.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.ndim == 1:
        scales = scales[None, :]
    k = scales.shape[0]
    n = plane.num_patterns
    zeros_f = np.zeros(n)
    arrs: Dict[int, np.ndarray] = {CONST0: zeros_f, CONST1: zeros_f}
    for port in circuit.netlist.input_ports.values():
        for net in port.nets:
            arrs[net] = zeros_f
    dead_after = _dead_after(circuit)
    for compiled in circuit._cells:
        # fresh_delay_ns * scale: the engine's per-cell delay, per corner.
        delay = compiled.fresh_delay_ns * scales[:, compiled.index]
        arrs[compiled.output] = logic.arrival_masks(
            compiled.opcode,
            plane.aux(compiled.position),
            [arrs[net] for net in compiled.inputs],
            delay[:, None],
            plane.may(compiled.output),
        )
        _drop_dead(compiled, dead_after, arrs)

    delays = np.zeros((k, n))
    bit_arrivals: Optional[Dict[str, np.ndarray]] = (
        {} if collect_bit_arrivals else None
    )
    for name, port in circuit.netlist.output_ports.items():
        port_arr = np.stack(
            [np.broadcast_to(arrs[net], (k, n)) for net in port.nets]
        )
        if collect_bit_arrivals:
            bit_arrivals[name] = port_arr
        delays = np.maximum(delays, port_arr.max(axis=0))
    return ReplayResult(
        plane=plane,
        delay_scales=scales,
        delays=delays,
        bit_arrivals=bit_arrivals,
    )
