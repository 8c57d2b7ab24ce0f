"""Per-phase profiling harness for the gate-level engine.

Breaks an end-to-end lifetime sweep into its four phases and times each
with ``time.perf_counter``:

* **compile** -- netlist -> :class:`CompiledCircuit` (levelization,
  opcode bucketing, delay characterization);
* **fold**    -- unique-stimulus folding of the operand stream;
* **value**   -- the delay-independent value plane (logic values,
  switching activity, may-transition flags);
* **replay**  -- the batched multi-corner arrival replay.

Use it to see where a workload actually spends its time before tuning:
zero-heavy DSP streams fold well (the value/replay phases collapse),
while uniform-random streams do not and lean on the sparse replay
instead.  Pass ``--cprofile`` for a function-level cProfile of the
hot phases on top of the wall-clock split.

It also prints the replay window -- the rows the liveness schedule
keeps against the circuit's net count, and the MB one pattern chunk
takes -- and the process peak RSS.

Run:  python examples/profile_engine.py --width 16 --workload fir
      python examples/profile_engine.py --workload uniform --no-fold
      python examples/profile_engine.py --cprofile
      python examples/profile_engine.py --width 8 --patterns 800 --timesteps 4
"""

import argparse
import cProfile
import pstats
import resource
import sys
import time

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.timing import ArrivalReplay, CompiledCircuit, build_value_plane
from repro.timing import replay as replay_mod
from repro.timing.fold import fold_stimulus, unfold_stream
from repro.workloads import sparse_fir_stream, uniform_operands


def parse_args():
    parser = argparse.ArgumentParser(
        description="Per-phase wall-clock profile of the stream engine."
    )
    parser.add_argument("--width", type=int, default=16,
                        help="multiplier operand width (default 16)")
    parser.add_argument("--patterns", type=int, default=6000,
                        help="operand stream length (default 6000)")
    parser.add_argument("--timesteps", type=int, default=12,
                        help="aging corners to replay (default 12)")
    parser.add_argument("--years", type=float, default=7.0,
                        help="lifetime horizon in years (default 7)")
    parser.add_argument("--workload", choices=("fir", "uniform"),
                        default="fir",
                        help="operand stream: zero-heavy FIR or "
                             "uniform random (default fir)")
    parser.add_argument("--no-fold", action="store_true",
                        help="disable unique-stimulus folding")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cprofile", action="store_true",
                        help="also print a cProfile of value+replay")
    return parser.parse_args()


def main():
    args = parse_args()
    if args.workload == "fir":
        md, mr = sparse_fir_stream(args.width, args.patterns,
                                   seed=args.seed)
    else:
        md, mr = uniform_operands(args.width, args.patterns,
                                  seed=args.seed)
    stimulus = {"md": md, "mr": mr}
    years = [
        args.years * i / (args.timesteps - 1)
        for i in range(args.timesteps)
    ]

    netlist = column_bypass_multiplier(args.width)
    phases = {}

    t0 = time.perf_counter()
    circuit = CompiledCircuit(netlist)
    factory = AgedCircuitFactory.characterize(netlist, num_patterns=400)
    phases["compile"] = time.perf_counter() - t0
    scales = factory.lifetime_delay_scales(years)

    plan = None
    run_stimulus = stimulus
    t0 = time.perf_counter()
    if not args.no_fold:
        plan = fold_stimulus(stimulus)
        if plan.profitable:
            run_stimulus = plan.folded
        else:
            plan = None
    phases["fold"] = time.perf_counter() - t0

    def value_phase():
        return build_value_plane(circuit, run_stimulus)

    def replay_phase(plane):
        return ArrivalReplay(circuit, plane).replay(scales)

    if args.cprofile:
        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    plane = value_phase()
    phases["value"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    replayed = replay_phase(plane)
    phases["replay"] = time.perf_counter() - t0
    if args.cprofile:
        profiler.disable()

    # Scatter folded results back so the sweep is complete either way.
    if plan is not None:
        streams = [
            unfold_stream(replayed.stream_result(j), plan)
            for j in range(len(years))
        ]
    else:
        streams = replayed.stream_results()

    print(
        "%dx%d column-bypass | %d patterns (%s) | %d corners"
        % (args.width, args.width, args.patterns, args.workload,
           args.timesteps)
    )
    if plan is not None:
        print(
            "folded %d patterns -> %d unique transitions (%.1fx)"
            % (args.patterns, plan.num_unique, plan.fold_factor)
        )
    elif not args.no_fold:
        print("folding skipped: stream not repetitive enough to pay")
    total = sum(phases.values())
    for name in ("compile", "fold", "value", "replay"):
        seconds = phases[name]
        print(
            "  %-8s %8.4f s  (%5.1f%%)"
            % (name, seconds, 100.0 * seconds / total)
        )
    print("  %-8s %8.4f s" % ("total", total))
    worst = max(
        float(streams[j].delays.max()) for j in range(len(years))
    )
    print("worst-case path over the sweep: %.3f ns" % worst)

    schedule = circuit.replay_schedule()
    chunk = min(
        replay_mod._replay_chunk_size(circuit.num_nets, args.timesteps),
        plane.num_patterns,
    )
    row_mb = chunk * args.timesteps * 8 / 2.0 ** 20
    print(
        "replay window: %d rows for %d nets (%.1f%%), %.1f MB per "
        "chunk of %d patterns (%.1f MB at one row per net)"
        % (schedule.num_rows, circuit.num_nets,
           100.0 * schedule.num_rows / circuit.num_nets,
           schedule.num_rows * row_mb, chunk, circuit.num_nets * row_mb)
    )
    # ru_maxrss is KiB on Linux, bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak /= 2.0 ** 20 if sys.platform == "darwin" else 2.0 ** 10
    print("peak RSS: %.1f MB" % peak)

    if args.cprofile:
        print()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(18)


if __name__ == "__main__":
    main()
