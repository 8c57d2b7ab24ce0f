"""The two ways of simulating a faulty circuit, for the equivalence tests.

* :func:`delta_stream` -- the production path: one pristine
  :class:`~repro.timing.delta.DeltaBase`, then a cone replay of the
  faults' override rows and delay-scale row
  (:func:`~repro.timing.delta.replay_delta`).
* :func:`oracle_stream` -- the per-cell reference interpreter with the
  faults' value hooks (:func:`~repro.timing.reference.reference_run`).
"""

import numpy as np

from repro.config import DEFAULT_TECHNOLOGY
from repro.faults.injector import (
    build_fault_hooks,
    fault_delay_scale,
    fault_delay_scales,
    value_overrides,
)
from repro.timing import CompiledCircuit
from repro.timing.delta import DeltaBase, replay_delta
from repro.timing.reference import reference_run


def delta_result(netlist, faults, stimulus, mode="inertial",
                 base_scale=None, technology=DEFAULT_TECHNOLOGY,
                 collect_bit_arrivals=False, chunk_size="auto"):
    """The :class:`~repro.timing.delta.DeltaResult` of ``faults``
    replayed against a pristine base at ``base_scale``."""
    if base_scale is None:
        base_scale = np.ones(len(netlist.cells))
    base = DeltaBase(
        CompiledCircuit(netlist, technology, mode=mode),
        stimulus, base_scale, chunk_size=chunk_size, transitions=True,
    )
    return replay_delta(
        base,
        delay_scales=fault_delay_scales(
            netlist, faults, base.scales, technology
        ),
        overrides=value_overrides(base, faults),
        collect_bit_arrivals=collect_bit_arrivals,
    )


def delta_stream(netlist, faults, stimulus, **kwargs):
    """:func:`delta_result` as a :class:`~repro.timing.engine.StreamResult`."""
    return delta_result(netlist, faults, stimulus, **kwargs).stream_result()


def oracle_stream(netlist, faults, stimulus, mode="inertial",
                  base_scale=None, technology=DEFAULT_TECHNOLOGY,
                  collect_bit_arrivals=False, collect_net_stats=False):
    """``faults`` simulated by the per-cell reference under hooks."""
    circuit = CompiledCircuit(
        netlist, technology,
        fault_delay_scale(netlist, faults, technology, base_scale),
        mode=mode,
    )
    return reference_run(
        circuit, stimulus,
        collect_bit_arrivals=collect_bit_arrivals,
        collect_net_stats=collect_net_stats,
        fault_hooks=build_fault_hooks(netlist, faults),
    )
