"""Applying fault models to a pristine simulation.

Faults are priced against one fault-free
:class:`~repro.timing.delta.DeltaBase` (see
:class:`repro.faults.campaign.InjectionCampaign`):

* value faults (stuck-at, transient flips) become net override rows
  for :func:`~repro.timing.delta.replay_delta` via
  :func:`value_overrides`;
* delay faults become a perturbed per-cell delay-scale row via
  :func:`fault_delay_scales` (composing with aging/EM scales).

:func:`build_fault_hooks` gives the same value faults as hooks for the
per-cell oracle (:func:`repro.timing.reference.reference_run`), which
is what the override path is checked against.

:func:`enumerate_fault_sites` produces a deterministic, seeded sweep of
candidate fault sites over a netlist's cell outputs, used by
:class:`repro.faults.campaign.InjectionCampaign`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import FaultError
from ..nets.netlist import Netlist
from ..timing.reference import FaultHook
from .models import DelayFault, FaultModel, StuckAtFault, TransientBitFlip

#: Fault-kind tags accepted by :func:`enumerate_fault_sites`.
SITE_KINDS = ("sa0", "sa1", "transient", "delay")


def _chain_hooks(first: FaultHook, second: FaultHook) -> FaultHook:
    def chained(values: np.ndarray, start_index: int) -> np.ndarray:
        return second(first(values, start_index), start_index)

    return chained


def build_fault_hooks(
    netlist: Netlist, faults: Sequence[FaultModel]
) -> Dict[int, FaultHook]:
    """Collect the value-fault hooks of ``faults`` keyed by net id.

    Multiple value faults on the same net compose in listed order (e.g.
    a transient flip on top of a stuck net is absorbed by the stuck-at
    applied last).  The hooks drive the per-cell oracle and derive
    :func:`value_overrides` rows.
    """
    hooks: Dict[int, FaultHook] = {}
    for fault in faults:
        if not isinstance(fault, FaultModel):
            raise FaultError("not a fault model: %r" % (fault,))
        fault.validate(netlist)
        hook = fault.value_hook()
        if hook is None:
            continue
        net = fault.net
        hooks[net] = (
            _chain_hooks(hooks[net], hook) if net in hooks else hook
        )
    return hooks


def fault_delay_scale(
    netlist: Netlist,
    faults: Sequence[FaultModel],
    technology: Technology = DEFAULT_TECHNOLOGY,
    base_scale: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Fold :class:`DelayFault` extras into a per-cell delay-scale vector.

    The compiled delay of cell ``i`` is ``delay_units * time_unit_ns *
    scale[i]``, so an additive ``extra_ns`` becomes an additive
    delay-scale term.  Returns ``base_scale`` (possibly None) untouched
    when no delay faults are present.
    """
    delay_faults = [f for f in faults if isinstance(f, DelayFault)]
    if not delay_faults:
        return base_scale
    num_cells = len(netlist.cells)
    if base_scale is None:
        scale = np.ones(num_cells)
    else:
        scale = np.asarray(base_scale, dtype=float).copy()
        if scale.shape != (num_cells,):
            raise FaultError(
                "base delay scale must have one entry per cell (%d), got %r"
                % (num_cells, scale.shape)
            )
    unit = technology.time_unit_ns
    for fault in delay_faults:
        fault.validate(netlist)
        cell = netlist.cells[fault.cell]
        scale[fault.cell] += fault.extra_ns / (
            cell.cell_type.delay_units * unit
        )
    return scale


def fault_delay_scales(
    netlist: Netlist,
    faults: Sequence[FaultModel],
    base_scales: np.ndarray,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> np.ndarray:
    """Fold :class:`DelayFault` extras into a ``(k, num_cells)`` scale
    *matrix* -- every corner row gets the same additive term, mirroring
    :func:`fault_delay_scale` per row.

    This is the multi-corner form variant sweeps price through
    :func:`repro.timing.delta.replay_delta`: the perturbed columns are
    exactly the fault's cells, so the arrival cone stays the fault's
    forward cone.  Returns ``base_scales`` itself (not a copy) when no
    delay faults are present.
    """
    scales = np.asarray(base_scales, dtype=float)
    if scales.ndim == 1:
        scales = scales[None, :]
    num_cells = len(netlist.cells)
    if scales.ndim != 2 or scales.shape[1] != num_cells:
        raise FaultError(
            "base delay scales must be (k, num_cells) with"
            " num_cells=%d, got %r" % (num_cells, np.shape(base_scales))
        )
    delay_faults = [f for f in faults if isinstance(f, DelayFault)]
    if not delay_faults:
        return scales
    scales = scales.copy()
    unit = technology.time_unit_ns
    for fault in delay_faults:
        fault.validate(netlist)
        cell = netlist.cells[fault.cell]
        scales[:, fault.cell] += fault.extra_ns / (
            cell.cell_type.delay_units * unit
        )
    return scales


def value_overrides(
    base, faults: Sequence[FaultModel]
) -> Dict[int, np.ndarray]:
    """Override rows pricing the value faults of ``faults`` against a
    pristine :class:`~repro.timing.delta.DeltaBase`.

    Each faulted net's row is its hook applied to the net's pristine
    stream with the settling pattern prepended (start index -1), which
    is what the hook sees in the oracle when nothing upstream of the
    net is faulted.  Faulted nets inside another faulted net's forward
    cone would see faulted inputs there, so they are rejected.

    Raises:
        FaultError: A faulted net lies in another faulted net's cone.
    """
    hooks = build_fault_hooks(base.circuit.netlist, faults)
    nested = len(hooks) > 1 and sorted(
        set(hooks) & base.downstream_nets(hooks)
    )
    if nested:
        raise FaultError(
            "faulted net %d lies downstream of another faulted net;"
            " price such faults one at a time" % nested[0]
        )
    rows: Dict[int, np.ndarray] = {}
    for net, hook in hooks.items():
        pristine = base.plane.value(net)
        rows[net] = np.asarray(
            hook(np.concatenate((pristine[:1], pristine)), -1),
            dtype=np.uint8,
        )
    return rows


def em_fault_sites(
    netlist: Netlist,
    toggle_rates: np.ndarray,
    years: float = 10.0,
    em_model=None,
    limit: Optional[int] = None,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> List[DelayFault]:
    """Delay-fault sites derived from the electromigration model.

    Instead of spreading sites uniformly over the netlist
    (:func:`enumerate_fault_sites`), this targets the cells whose output
    wires electromigration ages fastest under the measured workload: the
    EM current-density model (:class:`~repro.aging.electromigration
    .ElectromigrationModel`) converts per-cell ``toggle_rates`` into
    delay-scale factors after ``years``, cells are ranked by the
    *absolute* delay they gain (scale excess x the cell's own delay),
    and each of the top ``limit`` cells gets a :class:`DelayFault` of
    exactly that magnitude.  Fully deterministic -- no sampling.
    """
    from ..aging.electromigration import ElectromigrationModel

    if em_model is None:
        em_model = ElectromigrationModel(technology)
    cells = netlist.cells
    if not cells:
        return []
    scale = em_model.delay_scale(netlist, toggle_rates, years)
    unit = technology.time_unit_ns
    extra_ns = np.array(
        [
            (scale[cell.index] - 1.0)
            * cell.cell_type.delay_units
            * unit
            for cell in cells
        ]
    )
    order = np.argsort(-extra_ns, kind="stable")
    if limit is not None:
        order = order[:limit]
    return [
        DelayFault(int(index), float(extra_ns[index])) for index in order
    ]


def enumerate_fault_sites(
    netlist: Netlist,
    kinds: Sequence[str] = SITE_KINDS,
    limit: Optional[int] = None,
    seed: int = 0,
    transient_rate: float = 1e-3,
    delay_extra_ns: float = 0.25,
) -> List[FaultModel]:
    """A deterministic sweep of single-fault sites over cell outputs.

    Cycles through ``kinds`` across a seeded shuffle of the netlist's
    cells, one fault per site, ``limit`` sites in total (all
    ``len(cells) * len(kinds)`` combinations when None).  Stuck-at and
    transient faults target the cell's output net; delay faults target
    the cell itself.
    """
    for kind in kinds:
        if kind not in SITE_KINDS:
            raise FaultError(
                "unknown fault site kind %r (known: %s)"
                % (kind, SITE_KINDS)
            )
    if not netlist.cells:
        return []
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(netlist.cells))
    total = len(order) * len(kinds)
    count = total if limit is None else min(limit, total)
    sites: List[FaultModel] = []
    for i in range(count):
        cell = netlist.cells[int(order[i % len(order)])]
        kind = kinds[i % len(kinds)]
        if kind == "sa0":
            sites.append(StuckAtFault(cell.output, 0))
        elif kind == "sa1":
            sites.append(StuckAtFault(cell.output, 1))
        elif kind == "transient":
            sites.append(
                TransientBitFlip(cell.output, transient_rate, seed=seed + i)
            )
        else:
            sites.append(DelayFault(cell.index, delay_extra_ns))
    return sites
