"""Cross-engine fuzzing on randomized netlists.

Hypothesis builds random combinational DAGs over the full gate set
(minus TRIBUF, whose hold semantics are only defined under the bypass
masking discipline) and checks the engine-agreement invariants:

* all engines agree on settled output values;
* the event-driven transport-delay settle time never exceeds the
  floating-mode arrival bound;
* inertial-mode delays never exceed floating-mode delays;
* chunked streaming is exact;
* a dump/parse round trip simulates identically;
* the bucketed engine and the per-cell reference interpreter
  (:mod:`repro.timing.reference`) are bit-identical on values, delays
  and bit arrivals, with and without folding;
* a fault's cone replay against a pristine base and the reference
  under the fault's hook are bit-identical on the same observables;
* the values-only signal-probability pass equals the full run's and
  the reference's ``signal_prob`` byte for byte.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults.models import StuckAtFault, TransientBitFlip
from repro.nets.export import dump_netlist, parse_netlist
from repro.nets.netlist import Netlist
from repro.timing import CompiledCircuit, EventSimulator
from repro.timing.reference import reference_run

from faultpaths import delta_stream, oracle_stream

GATES_1 = ["INV", "BUF"]
GATES_2 = ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"]
GATES_3 = ["MUX2", "AND3", "OR3"]


@st.composite
def random_netlists(draw):
    """A random combinational DAG with 2-5 inputs and 5-25 gates."""
    num_inputs = draw(st.integers(2, 5))
    num_gates = draw(st.integers(5, 25))
    nl = Netlist("fuzz")
    nets = list(nl.add_input_port("x", num_inputs))
    rng_choices = st.integers(0, 10**9)
    for k in range(num_gates):
        arity_pick = draw(st.integers(0, 9))
        if arity_pick < 2:
            gate = GATES_1[draw(st.integers(0, len(GATES_1) - 1))]
            arity = 1
        elif arity_pick < 8:
            gate = GATES_2[draw(st.integers(0, len(GATES_2) - 1))]
            arity = 2
        else:
            gate = GATES_3[draw(st.integers(0, len(GATES_3) - 1))]
            arity = 3
        picks = [
            nets[draw(rng_choices) % len(nets)] for _ in range(arity)
        ]
        nets.append(nl.add_cell(gate, picks))
    # Outputs: the last few nets (guaranteed driven).
    out_count = draw(st.integers(1, min(4, len(nets))))
    nl.add_output_port("o", nets[-out_count:])
    nl.validate()

    num_patterns = draw(st.integers(2, 8))
    stimulus = [
        draw(st.integers(0, (1 << num_inputs) - 1))
        for _ in range(num_patterns)
    ]
    return nl, np.array(stimulus, dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(random_netlists())
def test_engines_agree_on_values(case):
    nl, stimulus = case
    floating = CompiledCircuit(nl, mode="floating").run({"x": stimulus})
    inertial = CompiledCircuit(nl, mode="inertial").run({"x": stimulus})
    assert np.array_equal(floating.outputs["o"], inertial.outputs["o"])

    event = EventSimulator(nl)
    for k in range(1, stimulus.shape[0]):
        result = event.run_pair(
            {"x": int(stimulus[k - 1])}, {"x": int(stimulus[k])}
        )
        assert result.outputs["o"] == int(floating.outputs["o"][k])


@settings(max_examples=60, deadline=None)
@given(random_netlists())
def test_event_settle_bounded_by_floating(case):
    nl, stimulus = case
    floating = CompiledCircuit(nl, mode="floating").run({"x": stimulus})
    event = EventSimulator(nl)
    for k in range(1, stimulus.shape[0]):
        result = event.run_pair(
            {"x": int(stimulus[k - 1])}, {"x": int(stimulus[k])}
        )
        assert result.settle_time <= floating.delays[k] + 1e-9


@settings(max_examples=60, deadline=None)
@given(random_netlists())
def test_inertial_below_floating(case):
    nl, stimulus = case
    floating = CompiledCircuit(nl, mode="floating").run({"x": stimulus})
    inertial = CompiledCircuit(nl, mode="inertial").run({"x": stimulus})
    assert np.all(inertial.delays <= floating.delays + 1e-9)


@settings(max_examples=40, deadline=None)
@given(random_netlists(), st.integers(1, 5))
def test_chunked_streaming_exact(case, chunk_size):
    nl, stimulus = case
    circuit = CompiledCircuit(nl)
    whole = circuit.run({"x": stimulus})
    chunked = circuit.run({"x": stimulus}, chunk_size=chunk_size)
    assert np.array_equal(whole.outputs["o"], chunked.outputs["o"])
    assert np.allclose(whole.delays, chunked.delays)
    assert np.allclose(whole.switched_caps, chunked.switched_caps)


@settings(max_examples=40, deadline=None)
@given(random_netlists(), st.sampled_from(["inertial", "floating"]),
       st.booleans(), st.booleans())
def test_kernels_bit_identical(case, mode, fold, bit_arrivals):
    nl, stimulus = case
    circuit = CompiledCircuit(nl, mode=mode)
    want = reference_run(
        circuit, {"x": stimulus}, collect_bit_arrivals=bit_arrivals
    )
    got = circuit.run(
        {"x": stimulus}, fold=fold, collect_bit_arrivals=bit_arrivals
    )
    assert np.array_equal(got.outputs["o"], want.outputs["o"])
    assert np.array_equal(got.delays, want.delays)
    assert np.allclose(got.switched_caps, want.switched_caps,
                       rtol=1e-12, atol=1e-9)
    if bit_arrivals:
        assert np.array_equal(got.bit_arrivals["o"],
                              want.bit_arrivals["o"])


@settings(max_examples=30, deadline=None)
@given(random_netlists(), st.integers(0, 10**9), st.booleans())
def test_kernels_bit_identical_with_fault_hooks(case, pick, seu):
    nl, stimulus = case
    cells = nl.cells
    target = cells[pick % len(cells)].output
    if seu:
        faults = [TransientBitFlip(net=target, rate=0.3,
                                   seed=pick % 97)]
    else:
        faults = [StuckAtFault(net=target, value=pick % 2)]
    stim = {"x": stimulus}
    want = oracle_stream(nl, faults, stim, collect_bit_arrivals=True)
    got = delta_stream(nl, faults, stim, collect_bit_arrivals=True)
    assert np.array_equal(got.outputs["o"], want.outputs["o"])
    assert np.array_equal(got.delays, want.delays)
    assert np.array_equal(got.bit_arrivals["o"], want.bit_arrivals["o"])


@settings(max_examples=40, deadline=None)
@given(random_netlists(), st.booleans())
def test_signal_probabilities_bit_identical(case, initial):
    nl, stimulus = case
    circuit = CompiledCircuit(nl)
    start = {"x": int(stimulus[-1])} if initial else None
    stim = {"x": stimulus}
    got = circuit.signal_probabilities(stim, initial=start)
    run = circuit.run(stim, initial=start, collect_net_stats=True)
    ref = reference_run(circuit, stim, initial=start, collect_net_stats=True)
    assert got.tobytes() == run.signal_prob.tobytes()
    assert got.tobytes() == ref.signal_prob.tobytes()


@settings(max_examples=40, deadline=None)
@given(random_netlists())
def test_export_roundtrip_simulates_identically(case):
    nl, stimulus = case
    parsed = parse_netlist(dump_netlist(nl))
    original = CompiledCircuit(nl).run({"x": stimulus})
    roundtrip = CompiledCircuit(parsed).run({"x": stimulus})
    assert np.array_equal(original.outputs["o"], roundtrip.outputs["o"])
    assert np.allclose(original.delays, roundtrip.delays)
