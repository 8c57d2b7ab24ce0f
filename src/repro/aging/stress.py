"""Per-cell stress extraction from workload signal probabilities.

A pMOS transistor is under NBTI stress while its gate is low
(``V_gs = -V_dd``); an nMOS transistor is under PBTI stress while its
gate is high.  For a static-CMOS cell the gates of the pull-up/pull-down
transistors are the cell's *inputs*, so we approximate the cell-level
stress duty factors by averaging over its input nets:

    S_pmos(cell) = mean_i P(input_i = 0)
    S_nmos(cell) = mean_i P(input_i = 1)

Signal probabilities come straight from the vectorized logic simulation
of the target workload (``collect_net_stats=True``), so a bypassing
multiplier's mostly-idle cells genuinely accumulate different stress
than its always-active mux spines.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..errors import SimulationError
from ..nets.netlist import Netlist


@dataclasses.dataclass(frozen=True)
class StressProfile:
    """Per-cell stress duty factors, index-aligned with netlist cells."""

    netlist_name: str
    pmos_stress: np.ndarray
    nmos_stress: np.ndarray

    def __post_init__(self):
        if self.pmos_stress.shape != self.nmos_stress.shape:
            raise SimulationError("stress arrays must be equally shaped")

    @property
    def num_cells(self) -> int:
        return self.pmos_stress.shape[0]

    def mean_pmos(self) -> float:
        return float(self.pmos_stress.mean()) if self.num_cells else 0.0

    def mean_nmos(self) -> float:
        return float(self.nmos_stress.mean()) if self.num_cells else 0.0


def extract_stress(
    netlist: Netlist,
    signal_prob: Optional[np.ndarray],
) -> StressProfile:
    """Build a :class:`StressProfile` from per-net one-probabilities.

    Args:
        netlist: The design the probabilities were measured on.
        signal_prob: Per-net P(net = 1), as produced by
            :meth:`repro.timing.CompiledCircuit.run` with
            ``collect_net_stats=True``.  ``None`` falls back to the
            random-input default P = 0.5 everywhere.
    """
    cells = netlist.cells
    if signal_prob is None:
        half = np.full(len(cells), 0.5)
        return StressProfile(netlist.name, half, half.copy())
    probs = np.asarray(signal_prob, dtype=float)
    if probs.shape[0] < netlist.num_nets:
        raise SimulationError(
            "signal_prob covers %d nets, netlist has %d"
            % (probs.shape[0], netlist.num_nets)
        )
    if np.any(probs < -1e-9) or np.any(probs > 1 + 1e-9):
        raise SimulationError("signal probabilities must lie in [0, 1]")
    # One gather-and-mean per input arity: the axis-0 mean adds the pin
    # rows in pin order and divides by the arity, the same float ops as
    # a per-cell mean over the cell's input nets.
    by_arity: Dict[int, List[int]] = {}
    for k, cell in enumerate(cells):
        by_arity.setdefault(len(cell.inputs), []).append(k)
    nmos = np.empty(len(cells))
    for members in by_arity.values():
        pins = np.array([cells[k].inputs for k in members], dtype=np.intp)
        nmos[members] = probs[pins.T].mean(axis=0)
    return StressProfile(netlist.name, 1.0 - nmos, nmos)
