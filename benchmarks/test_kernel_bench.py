"""Levelized SoA kernel + unique-stimulus folding benchmarks.

Two gates, both on the 16x16 column-bypass multiplier:

* **Lifetime sweep** (the PR 3 engine's flagship path): value plane +
  batched 12-corner arrival replay over a zero-heavy FIR operand stream
  -- the workload class the paper's lifetime experiments run (pause
  frames / silent samples, Figs. 9-10 zero distributions).  The
  baseline is the per-cell reference interpreter
  (:mod:`repro.timing.reference`) end to end; the default stack is
  fold -> SoA value plane -> sparse SoA replay, exactly what
  ``AgingAwareMultiplier.run_lifetime`` does.  Must be >= 2x.
  The raw kernel (folding disabled) is timed and recorded too, with a
  looser anti-regression gate: its sparse replay only touches active
  (cell, pattern) entries, which is where bypassed columns pay off.
* **DSP single-pass** (fig09/10 workload): one full engine run on a
  long sparse FIR stream, per-cell reference vs ``run(fold=True)``.
  Folding collapses the stream to its unique transitions, so this must
  be >= 5x.

Every comparison asserts bit-identical outputs and delays before
timing claims are recorded in ``benchmarks/results/BENCH_kernel.json``.
"""

import json
import os
import time

import numpy as np

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.timing import ArrivalReplay, CompiledCircuit, build_value_plane
from repro.timing.fold import fold_stimulus, unfold_stream
from repro.timing.reference import reference_replay, reference_run
from repro.workloads import sparse_fir_stream

SWEEP_PATTERNS = 6_000
DSP_PATTERNS = 20_000
TIMESTEPS = 12
LIFETIME_YEARS = 7.0
RESULTS = os.path.join(os.path.dirname(__file__), "results")
#: The default stack (fold + SoA kernel) vs the per-cell reference.
MIN_SPEEDUP_SWEEP = 2.0
#: Anti-regression canary for the raw kernel with folding disabled.
MIN_SPEEDUP_KERNEL = 1.1
#: Folding gate on the fig09/10 DSP workload.
MIN_SPEEDUP_DSP = 5.0

_RECORD = {}


def _best_of_two(func):
    """(fastest of two timed calls, last result)."""
    rounds = []
    result = None
    for _ in range(2):
        t0 = time.perf_counter()
        result = func()
        rounds.append(time.perf_counter() - t0)
    return min(rounds), result


def test_lifetime_sweep_kernel_speedup(benchmark):
    netlist = column_bypass_multiplier(16)
    factory = AgedCircuitFactory.characterize(netlist, num_patterns=400)
    md, mr = sparse_fir_stream(16, SWEEP_PATTERNS, seed=1)
    stimulus = {"md": md, "mr": mr}
    years = [
        LIFETIME_YEARS * i / (TIMESTEPS - 1) for i in range(TIMESTEPS)
    ]
    scales = factory.lifetime_delay_scales(years)
    technology = factory.technology

    circuit = CompiledCircuit(netlist, technology)
    # Raw levelized kernel, folding disabled.
    t0 = time.perf_counter()
    plane = build_value_plane(circuit, stimulus)
    soa_value = time.perf_counter() - t0
    replayer = ArrivalReplay(circuit, plane)
    soa_replay, soa_result = _best_of_two(lambda: replayer.replay(scales))
    # Baseline: per-cell reference value pass + per-cell replay over
    # the same plane.
    t0 = time.perf_counter()
    reference_run(circuit, stimulus)
    pc_value = time.perf_counter() - t0
    pc_replay, pc_result = _best_of_two(
        lambda: reference_replay(circuit, plane, scales)
    )

    # The default stack (what run_lifetime does): fold the stream,
    # plane + replay the unique transitions, scatter every corner back.
    timings = {}

    def folded_sweep():
        t0 = time.perf_counter()
        plan = fold_stimulus(stimulus)
        plane = build_value_plane(circuit, plan.folded)
        replayed = ArrivalReplay(circuit, plane).replay(scales)
        streams = [
            unfold_stream(replayed.stream_result(j), plan)
            for j in range(len(years))
        ]
        timings["stack"] = time.perf_counter() - t0
        timings["fold_factor"] = plan.fold_factor
        return streams

    folded = benchmark.pedantic(folded_sweep, rounds=1, iterations=1)

    for j in range(len(years)):
        want = pc_result.stream_result(j)
        for got in (soa_result.stream_result(j), folded[j]):
            assert np.array_equal(got.delays, want.delays)
            assert np.array_equal(got.outputs["p"], want.outputs["p"])

    reference_s = pc_value + pc_replay
    kernel_s = soa_value + soa_replay
    stack_s = timings["stack"]
    kernel_speedup = reference_s / kernel_s
    stack_speedup = reference_s / stack_s
    _RECORD["sweep"] = {
        "experiment": (
            "16x16 column-bypass lifetime sweep, zero-heavy FIR stream"
        ),
        "num_patterns": SWEEP_PATTERNS,
        "timesteps": TIMESTEPS,
        "lifetime_years": LIFETIME_YEARS,
        "bit_identical": True,
        "percell_value_seconds": round(pc_value, 4),
        "percell_replay_seconds": round(pc_replay, 4),
        "percell_seconds": round(reference_s, 4),
        "soa_value_seconds": round(soa_value, 4),
        "soa_replay_seconds": round(soa_replay, 4),
        "soa_seconds": round(kernel_s, 4),
        "stack_seconds": round(stack_s, 4),
        "fold_factor": round(timings["fold_factor"], 2),
        "kernel_speedup": round(kernel_speedup, 2),
        "stack_speedup": round(stack_speedup, 2),
    }
    _flush()
    print()
    print(
        "sweep: reference %.3fs | soa %.3fs (%.2fx) | fold+soa %.3fs"
        " (%.2fx)"
        % (reference_s, kernel_s, kernel_speedup, stack_s, stack_speedup)
    )
    assert kernel_speedup >= MIN_SPEEDUP_KERNEL, (
        "raw SoA kernel regressed to %.2fx of the per-cell reference"
        % kernel_speedup
    )
    assert stack_speedup >= MIN_SPEEDUP_SWEEP, (
        "fold+SoA lifetime sweep only %.2fx faster than the per-cell"
        " reference"
        % stack_speedup
    )


def test_dsp_fold_speedup(benchmark):
    netlist = column_bypass_multiplier(16)
    circuit_soa = CompiledCircuit(netlist)
    md, mr = sparse_fir_stream(16, DSP_PATTERNS, seed=5)
    stimulus = {"md": md, "mr": mr}

    t0 = time.perf_counter()
    want = reference_run(circuit_soa, stimulus)
    percell_s = time.perf_counter() - t0

    timings = {}

    def folded_run():
        rounds = []
        out = None
        for _ in range(2):
            t0 = time.perf_counter()
            out = circuit_soa.run(stimulus, fold=True)
            rounds.append(time.perf_counter() - t0)
        timings["fold"] = min(rounds)
        return out

    got = benchmark.pedantic(folded_run, rounds=1, iterations=1)
    fold_s = timings["fold"]

    assert np.array_equal(got.outputs["p"], want.outputs["p"])
    assert np.array_equal(got.delays, want.delays)

    speedup = percell_s / fold_s
    plan = fold_stimulus(stimulus)
    _RECORD["dsp"] = {
        "experiment": "fig09/10 sparse FIR stream, single-pass run",
        "num_patterns": DSP_PATTERNS,
        "unique_transitions": int(plan.num_unique),
        "fold_factor": round(plan.fold_factor, 2),
        "bit_identical": True,
        "percell_seconds": round(percell_s, 4),
        "fold_soa_seconds": round(fold_s, 4),
        "fold_speedup": round(speedup, 2),
    }
    _flush()
    print()
    print(
        "dsp: reference %.3fs | fold+soa %.3fs = %.2fx (fold factor"
        " %.1f)"
        % (percell_s, fold_s, speedup, plan.fold_factor)
    )
    assert speedup >= MIN_SPEEDUP_DSP, (
        "folded DSP run only %.2fx faster than the per-cell reference"
        % speedup
    )


def _flush():
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "BENCH_kernel.json"), "w") as fh:
        json.dump(_RECORD, fh, indent=2, sort_keys=True)
        fh.write("\n")
