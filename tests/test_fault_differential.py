"""Differential test: campaign cone replays vs the hooked reference.

A campaign prices every fault site as a cone replay against one
pristine :class:`~repro.timing.delta.DeltaBase` (override rows for
value faults, a perturbed scale row for delay faults).  The oracle is
the per-cell reference interpreter running the faults' value hooks
(:func:`~repro.timing.reference.reference_run`) and, for delay sites,
:func:`~repro.timing.reference.reference_replay` over the pristine
plane.  Products, delays and bit arrivals must be byte-equal; switched
capacitance is the documented float-association exception and must
match within ``rtol=1e-12``.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import AgingAwareMultiplier
from repro.faults import DelayFault, StuckAtFault, TransientBitFlip
from repro.faults.injector import fault_delay_scale, value_overrides
from repro.timing import CompiledCircuit, build_value_plane
from repro.timing.delta import DeltaBase
from repro.timing.reference import reference_replay
from repro.workloads import uniform_operands

from faultpaths import delta_result, oracle_stream

NUM_PATTERNS = 96
KINDS = ("sa0", "sa1", "transient", "delay")


@functools.lru_cache(maxsize=None)
def design():
    """The 8x8 column-bypass multiplier, characterized for aging."""
    return AgingAwareMultiplier.build(
        8, "column", skip=3, cycle_ns=0.5, characterize_patterns=300
    )


@functools.lru_cache(maxsize=None)
def stimulus():
    md, mr = uniform_operands(8, NUM_PATTERNS, seed=5)
    return {"md": md, "mr": mr}


def full_adder_carry(netlist):
    """The carry net of the first full adder: an OR2 of two AND2s."""
    drivers = {cell.output: cell for cell in netlist.cells}
    for cell in netlist.cells:
        if cell.cell_type.name == "OR2" and all(
            net in drivers and drivers[net].cell_type.name == "AND2"
            for net in cell.inputs
        ):
            return cell.output
    raise AssertionError("no full adder in the netlist")


def make_fault(netlist, kind, where, pick, rate, seed):
    if kind == "delay":
        return DelayFault(pick % len(netlist.cells), 0.05 + rate)
    if where == "pi":
        nets = [
            net for port in netlist.input_ports.values()
            for net in port.nets
        ]
        net = nets[pick % len(nets)]
    elif where == "fa":
        net = full_adder_carry(netlist)
    else:
        net = netlist.cells[pick % len(netlist.cells)].output
    if kind == "transient":
        return TransientBitFlip(net, rate, seed=seed)
    return StuckAtFault(net, 0 if kind == "sa0" else 1)


def check_site(fault, years, mode):
    arch = design()
    netlist, technology = arch.netlist, arch.technology
    stim = stimulus()
    scale = arch.factory.delay_scale(years) if years else None
    kwargs = dict(
        mode=mode, base_scale=scale, technology=technology,
        collect_bit_arrivals=True,
    )
    replayed = delta_result(netlist, [fault], stim, **kwargs)
    got = replayed.stream_result()
    want = oracle_stream(netlist, [fault], stim, **kwargs)

    assert got.outputs["p"].tobytes() == want.outputs["p"].tobytes()
    assert got.delays.tobytes() == want.delays.tobytes()
    assert got.bit_arrivals["p"].tobytes() == (
        want.bit_arrivals["p"].tobytes()
    )
    assert got.mean_switched_caps() == pytest.approx(
        want.mean_switched_caps(), rel=1e-12
    )
    assert np.allclose(
        got.switched_caps, want.switched_caps, rtol=1e-12, atol=1e-9
    )
    if isinstance(fault, DelayFault):
        # A delay site moves no value: the pristine plane re-priced at
        # the faulty scale row is the oracle too.
        circuit = CompiledCircuit(netlist, technology, mode=mode)
        plane = build_value_plane(circuit, stim)
        ref = reference_replay(
            circuit, plane,
            fault_delay_scale(netlist, [fault], technology, scale),
        )
        assert got.delays.tobytes() == ref.delays[0].tobytes()
    return replayed


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    where=st.sampled_from(["cell", "pi", "fa"]),
    pick=st.integers(0, 10**6),
    rate=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 97),
    years=st.sampled_from([0.0, 4.0]),
    mode=st.sampled_from(["inertial", "floating"]),
)
@example(kind="transient", where="cell", pick=40, rate=1.0, seed=3,
         years=0.0, mode="inertial")
@example(kind="sa1", where="pi", pick=2, rate=0.3, seed=0,
         years=0.0, mode="inertial")
@example(kind="sa0", where="fa", pick=0, rate=0.3, seed=0,
         years=0.0, mode="inertial")
@example(kind="transient", where="cell", pick=123, rate=0.3, seed=9,
         years=4.0, mode="inertial")
@example(kind="sa1", where="cell", pick=77, rate=0.3, seed=0,
         years=0.0, mode="floating")
@example(kind="delay", where="cell", pick=200, rate=0.3, seed=0,
         years=4.0, mode="floating")
def test_replay_matches_hooked_reference(
    kind, where, pick, rate, seed, years, mode
):
    fault = make_fault(design().netlist, kind, where, pick, rate, seed)
    check_site(fault, years, mode)


@pytest.mark.parametrize("where", ["cell", "pi"])
def test_pattern_zero_flip_is_a_transition(where):
    # The settling pattern never flips, so a rate-1 flip opens the
    # stream with a transition on pattern 0 that the base lacks.
    arch = design()
    fault = make_fault(arch.netlist, "transient", where, 40, 1.0, 3)
    base = DeltaBase(
        CompiledCircuit(arch.netlist, arch.technology), stimulus(),
        np.ones(len(arch.netlist.cells)),
    )
    row = value_overrides(base, [fault])[fault.net]
    assert row.shape == (NUM_PATTERNS + 1,)
    assert row[0] != row[1]
    check_site(fault, 0.0, "inertial")
