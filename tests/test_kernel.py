"""Levelized SoA kernel + unique-stimulus folding equivalence suite.

The structure-of-arrays engine and the per-cell reference interpreter
(:mod:`repro.timing.reference`) must be bit-identical for every
observable: output values, per-pattern delays, bit arrivals, toggle
counts / signal probabilities, across chunk sizes, initial conditions
and every recovery policy; faulty circuits, priced as cone replays
against a pristine base, match the reference under the faults' value
hooks for every fault model.  ``switched_caps`` is
the one deliberate exception *against the reference*: the engine sums
capacitance per bucket, a different float association (values
identical to ~1 ulp, asserted with ``allclose``); within the engine it
stays exact, which the folding and chunking tests assert.
"""

import numpy as np
import pytest

from repro.aging import extract_stress
from repro.aging.degradation import (
    AgedCircuitFactory,
    characterization_stimulus,
)
from repro.arith import column_bypass_multiplier
from repro.core.architecture import AgingAwareMultiplier
from repro.errors import SimulationError
from repro.faults.injector import value_overrides
from repro.faults.models import DelayFault, StuckAtFault, TransientBitFlip
from repro.nets import Netlist
from repro.timing import (
    ArrivalReplay,
    CompiledCircuit,
    ValuePlaneCache,
    auto_chunk_size,
    DeltaBase,
    build_value_plane,
    fold_stimulus,
    unfold_stream,
)
from repro.timing import replay as replay_mod
from repro.timing.delta import replay_delta
from repro.timing.fold import MIN_FOLD_PATTERNS
from repro.timing.reference import reference_replay, reference_run
from repro.workloads import sparse_fir_stream, uniform_operands

from faultpaths import delta_stream, oracle_stream


@pytest.fixture(scope="module")
def cb8():
    return column_bypass_multiplier(8)


@pytest.fixture(scope="module")
def stream8():
    md, mr = uniform_operands(8, 600, seed=3)
    return {"md": md, "mr": mr}


@pytest.fixture(scope="module")
def foldable8():
    md, mr = sparse_fir_stream(8, 600, seed=1)
    return {"md": md, "mr": mr}


def assert_same(got, want, bit_arrivals=False, stats=False,
                caps_exact=True):
    assert got.num_patterns == want.num_patterns
    for name, values in want.outputs.items():
        assert np.array_equal(got.outputs[name], values)
    assert np.array_equal(got.delays, want.delays)
    if caps_exact:
        assert np.array_equal(got.switched_caps, want.switched_caps)
    else:
        assert np.allclose(
            got.switched_caps, want.switched_caps, rtol=1e-12, atol=1e-9
        )
    if bit_arrivals:
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix)
    if stats:
        assert np.array_equal(got.signal_prob, want.signal_prob)
        assert np.array_equal(got.toggle_counts, want.toggle_counts)


class TestKernelEquivalence:
    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_engine_matches_reference_all_observables(
        self, cb8, stream8, mode
    ):
        kwargs = dict(collect_bit_arrivals=True, collect_net_stats=True)
        circuit = CompiledCircuit(cb8, mode=mode)
        want = reference_run(circuit, stream8, **kwargs)
        got = circuit.run(stream8, **kwargs)
        assert_same(got, want, bit_arrivals=True, stats=True,
                    caps_exact=False)

    @pytest.mark.parametrize("chunk", [64, 136, 10_000])
    def test_chunked_matches_unchunked(self, cb8, stream8, chunk):
        circuit = CompiledCircuit(cb8)
        want = circuit.run(stream8, collect_bit_arrivals=True,
                           collect_net_stats=True)
        got = circuit.run(stream8, collect_bit_arrivals=True,
                          collect_net_stats=True, chunk_size=chunk)
        assert_same(got, want, bit_arrivals=True, stats=True)

    def test_initial_condition(self, cb8):
        stim = {"md": [7, 7, 3, 3], "mr": [5, 5, 9, 9]}
        initial = {"md": 0, "mr": 255}
        circuit = CompiledCircuit(cb8)
        want = reference_run(
            circuit, stim, initial=initial, collect_bit_arrivals=True
        )
        got = circuit.run(stim, initial=initial, collect_bit_arrivals=True)
        assert_same(got, want, bit_arrivals=True, caps_exact=False)

    def test_cell_delays_cached_and_frozen(self, cb8):
        circuit = CompiledCircuit(cb8)
        delays = circuit.cell_delays_ns()
        assert circuit.cell_delays_ns() is delays
        with pytest.raises(ValueError):
            delays[0] = 1.0

    def test_default_reach_mask_cached(self, cb8):
        circuit = CompiledCircuit(cb8)
        first = circuit.output_reach_mask()
        assert circuit.output_reach_mask() is first


class TestFaultKernelEquivalence:
    def faults_for(self, cb8, kind):
        if kind == "sa0":
            return [StuckAtFault(net=cb8.cells[10].output, value=0)]
        if kind == "sa1":
            return [StuckAtFault(net=cb8.cells[21].output, value=1)]
        if kind == "seu":
            return [TransientBitFlip(net=cb8.cells[40].output,
                                     rate=0.1, seed=2)]
        return [DelayFault(cell=12, extra_ns=0.4)]

    @pytest.mark.parametrize("kind", ["sa0", "sa1", "seu", "delay"])
    def test_every_fault_model_matches_reference(self, cb8, stream8, kind):
        faults = self.faults_for(cb8, kind)
        want = oracle_stream(cb8, faults, stream8, collect_bit_arrivals=True)
        got = delta_stream(cb8, faults, stream8, collect_bit_arrivals=True)
        assert_same(got, want, bit_arrivals=True, caps_exact=False)

    def test_multi_fault_chunked(self, cb8, stream8):
        faults = self.faults_for(cb8, "sa1") + self.faults_for(cb8, "seu")
        want = oracle_stream(cb8, faults, stream8)
        got = delta_stream(cb8, faults, stream8, chunk_size=96)
        assert_same(got, want, caps_exact=False)

    @pytest.mark.parametrize(
        "policy", ["strict", "degrade", "detect-only"]
    )
    def test_recovery_policies_see_identical_streams(self, policy):
        arch = AgingAwareMultiplier.build(8)
        md, mr = uniform_operands(8, 300, seed=9)
        circuit = CompiledCircuit(arch.netlist, arch.technology)
        streams = [
            circuit.run({"md": md, "mr": mr}),
            reference_run(circuit, {"md": md, "mr": mr}),
        ]
        a, b = (
            arch.run_patterns(md, mr, stream=stream, policy=policy)
            for stream in streams
        )
        assert np.array_equal(a.products, b.products)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.delays, b.delays)
        assert a.report == b.report


class TestSignalProbabilities:
    """The values-only pass behind stress characterization must give
    the run's ``signal_prob`` byte for byte."""

    def check(self, circuit, stim, initial=None):
        got = circuit.signal_probabilities(stim, initial=initial)
        run = circuit.run(stim, initial=initial, collect_net_stats=True)
        ref = reference_run(
            circuit, stim, initial=initial, collect_net_stats=True
        )
        assert got.dtype == run.signal_prob.dtype
        assert got.tobytes() == run.signal_prob.tobytes()
        assert got.tobytes() == ref.signal_prob.tobytes()

    @pytest.mark.parametrize("name", ["am4", "cb4", "rb4", "cb8"])
    @pytest.mark.parametrize("with_initial", [False, True])
    def test_matches_run_and_reference(self, request, name, with_initial):
        netlist = request.getfixturevalue(name)
        width = netlist.input_ports["md"].width
        md, mr = uniform_operands(width, 300, seed=23)
        initial = {"md": 0, "mr": (1 << width) - 1} if with_initial else None
        self.check(CompiledCircuit(netlist), {"md": md, "mr": mr}, initial)

    def test_characterize_stress_matches_full_run(self, cb8):
        stim = characterization_stimulus(cb8.input_ports, 400, seed=7)
        want = extract_stress(
            cb8,
            CompiledCircuit(cb8).run(stim, collect_net_stats=True)
            .signal_prob,
        )
        got = AgedCircuitFactory.characterize_stress(cb8, stimulus=stim)
        assert got.pmos_stress.tobytes() == want.pmos_stress.tobytes()
        assert got.nmos_stress.tobytes() == want.nmos_stress.tobytes()


class TestFolding:
    def test_fold_plan_round_trip(self, foldable8):
        plan = fold_stimulus(foldable8)
        assert plan.num_unique < plan.num_patterns
        assert plan.profitable
        assert plan.fold_factor > 1.0
        # Scattering the folded settled halves back must reproduce the
        # stream: pattern k equals unique pattern inverse[k].
        for name in foldable8:
            folded = np.asarray(plan.folded[name])
            full = np.asarray(foldable8[name], dtype=np.uint64)
            assert np.array_equal(folded[1::2][plan.inverse], full)

    def test_run_fold_bit_identical(self, cb8, foldable8):
        circuit = CompiledCircuit(cb8)
        want = circuit.run(foldable8, collect_bit_arrivals=True)
        got = circuit.run(foldable8, collect_bit_arrivals=True, fold=True)
        assert_same(got, want, bit_arrivals=True)

    def test_fold_with_initial(self, cb8, foldable8):
        circuit = CompiledCircuit(cb8)
        initial = {"md": 170, "mr": 85}
        want = circuit.run(foldable8, initial=initial)
        got = circuit.run(foldable8, initial=initial, fold=True)
        assert_same(got, want)

    def test_fold_unprofitable_stream_still_exact(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        plan = fold_stimulus(stream8)
        assert not plan.profitable  # uniform noise barely repeats
        got = circuit.run(stream8, fold=True)
        assert_same(got, circuit.run(stream8))

    def test_fold_bypassed_for_fault_hooks(self, cb8, foldable8):
        # TransientBitFlip keys off the *global* pattern index, which
        # folding renumbers: fault sites replay against an unfolded base,
        # so flips land exactly where the unfolded oracle puts them.
        faults = [TransientBitFlip(net=cb8.cells[40].output,
                                   rate=0.2, seed=7)]
        got = delta_stream(cb8, faults, foldable8)
        assert_same(got, oracle_stream(cb8, faults, foldable8),
                    caps_exact=False)

    def test_fold_bypassed_for_net_stats(self, cb8, foldable8):
        # Per-net stats need per-pattern multiplicity; folding would
        # weight each unique pattern once.
        circuit = CompiledCircuit(cb8)
        got = circuit.run(foldable8, fold=True, collect_net_stats=True)
        want = circuit.run(foldable8, collect_net_stats=True)
        assert_same(got, want, stats=True)

    def test_short_streams_never_fold(self):
        md = np.zeros(MIN_FOLD_PATTERNS - 1, dtype=np.uint64)
        plan = fold_stimulus({"md": md, "mr": md})
        assert not plan.profitable

    def test_unfold_rejects_foreign_result(self, cb8, foldable8):
        circuit = CompiledCircuit(cb8)
        plan = fold_stimulus(foldable8)
        bad = circuit.run(foldable8)  # wrong length: not 2 * num_unique
        with pytest.raises(SimulationError):
            unfold_stream(bad, plan)


SCHEDULE_CASES = (
    "pi_output", "const1_output", "dangling", "output_read", "hooked",
)


def schedule_case(case):
    """A small ripple adder plus the one feature ``case`` names, and the
    faults to compile it with."""
    nl = Netlist("schedule_" + case)
    a = nl.add_input_port("a", 3)
    b = nl.add_input_port("b", 3)
    s0 = nl.xor2(a[0], b[0])
    c0 = nl.and2(a[0], b[0])
    t1 = nl.xor2(a[1], b[1])
    g1 = nl.and2(a[1], b[1])
    t2 = nl.xor2(a[2], b[2])
    g2 = nl.and2(a[2], b[2])
    s1 = nl.xor2(t1, c0)
    c1 = nl.or2(g1, nl.and2(t1, c0))
    s2 = nl.xor2(t2, c1)
    c2 = nl.or2(g2, nl.and2(t2, c1))
    outputs = [s0, s1, s2, c2, nl.mux2(s2, c2, a[0])]
    faults = []
    if case == "pi_output":
        outputs.append(a[1])
    elif case == "const1_output":
        outputs.append(nl.const1)
    elif case == "dangling":
        # Read by nothing: their rows free after their own level and
        # the next levels' nets take them over.
        nl.inv(a[2])
        nl.nand2(a[1], b[2])
    elif case == "output_read":
        outputs.append(nl.and2(s0, c2))
    elif case == "hooked":
        # Two independent sites (neither lies in the other's cone).
        faults = [
            StuckAtFault(net=c0, value=1),
            TransientBitFlip(net=t2, rate=0.2, seed=4),
        ]
    nl.add_output_port("p", outputs)
    return nl, faults


def assert_schedule_sound(circuit):
    """Replay the liveness of the circuit's replay plan and check its
    schedule against it: no two simultaneously live nets share a row,
    exactly the reused rows are cleared, and every read finds its net's
    row intact."""
    plan = circuit.soa_plan()
    schedule = circuit.replay_schedule()
    row_of = schedule.row_of_net.tolist()
    end = len(plan.levels)
    outputs = {
        net
        for port in circuit.netlist.output_ports.values()
        for net in port.nets
    }
    def_level, last_read = {}, {}
    for level, buckets in enumerate(plan.levels):
        for bucket in buckets:
            for net in bucket.outputs.tolist():
                def_level[net] = level
            for net in bucket.pins.ravel().tolist():
                last_read[net] = level
    live_until = {
        net: end if net in outputs else last_read.get(net, level)
        for net, level in def_level.items()
    }
    owner = {}
    for level, buckets in enumerate(plan.levels):
        for bucket, pin_rows, out_rows in zip(
            buckets, schedule.pin_rows[level], schedule.out_rows[level]
        ):
            assert np.array_equal(pin_rows, schedule.row_of_net[bucket.pins])
            assert np.array_equal(
                out_rows, schedule.row_of_net[bucket.outputs]
            )
            for net in bucket.pins.ravel().tolist():
                if net in def_level:
                    assert owner[row_of[net]] == net
                else:
                    assert row_of[net] == 0
        reused = set()
        for bucket in buckets:
            for net in bucket.outputs.tolist():
                row = row_of[net]
                assert 0 < row < schedule.num_rows
                previous = owner.get(row)
                if previous is not None:
                    assert live_until[previous] < level
                    reused.add(row)
                owner[row] = net
        assert sorted(reused) == schedule.clear_rows[level].tolist()
    for net in outputs:
        if net in def_level:
            assert owner[row_of[net]] == net
        else:
            assert row_of[net] == 0
    return schedule


class TestReplayKernels:
    def scales_for(self, circuit, k, seed=5):
        rng = np.random.default_rng(seed)
        num_cells = len(circuit.netlist.cells)
        return 1.0 + rng.uniform(0.0, 0.4, (k, num_cells))

    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_replay_kernels_all_match(self, cb8, stream8, mode):
        circuit = CompiledCircuit(cb8, mode=mode)
        plane = build_value_plane(circuit, stream8)
        scales = self.scales_for(circuit, 3)
        a = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        b = reference_replay(
            circuit, plane, scales, collect_bit_arrivals=True
        )
        assert np.array_equal(a.delays, b.delays)
        for name in a.bit_arrivals:
            assert np.array_equal(a.bit_arrivals[name],
                                  b.bit_arrivals[name])

    def test_soa_replay_chunking_exact(self, cb8, stream8, monkeypatch):
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        scales = self.scales_for(circuit, 2)
        whole = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        # Shrink the memory target so the 600-pattern replay must run
        # in many byte-aligned chunks, down to the floor of 8.
        monkeypatch.setattr(
            replay_mod, "REPLAY_CHUNK_TARGET_BYTES", 1
        )
        assert replay_mod._replay_chunk_size(plane.num_nets, 2) == 8
        chunked = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        # The delta base runs the same bucket loop over one [0, n)
        # window; its port rows must agree with both windowings.
        base = DeltaBase(circuit, stream8, scales).result(
            collect_bit_arrivals=True
        )
        for got in (chunked, base):
            assert np.array_equal(whole.delays, got.delays)
            for name in whole.bit_arrivals:
                assert np.array_equal(whole.bit_arrivals[name],
                                      got.bit_arrivals[name])

    def test_ragged_last_chunk_exact(self, cb8, monkeypatch):
        # 603 patterns in chunks of 8 leave a 3-pattern last chunk,
        # whose window must still be replayed in place.
        md, mr = uniform_operands(8, 603, seed=17)
        stim = {"md": md, "mr": mr}
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stim)
        scales = self.scales_for(circuit, 3)
        whole = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        monkeypatch.setattr(
            replay_mod, "REPLAY_CHUNK_TARGET_BYTES", 1
        )
        assert plane.num_patterns % replay_mod._replay_chunk_size(
            plane.num_nets, 3
        ) == 3
        chunked = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        base = DeltaBase(circuit, stim, scales).result(
            collect_bit_arrivals=True
        )
        ref = reference_replay(
            circuit, plane, scales, collect_bit_arrivals=True
        )
        for got in (chunked, base, ref):
            assert np.array_equal(whole.delays, got.delays)
            for name in whole.bit_arrivals:
                assert np.array_equal(whole.bit_arrivals[name],
                                      got.bit_arrivals[name])

    def test_zero_corner_replay(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        empty = np.empty((0, len(cb8.cells)))
        result = ArrivalReplay(circuit, plane).replay(
            empty, collect_bit_arrivals=True
        )
        assert result.delays.shape == (0, plane.num_patterns)
        assert result.num_corners == 0
        for name, port in cb8.output_ports.items():
            assert result.bit_arrivals[name].shape == (
                port.width, 0, plane.num_patterns
            )

    def test_non_contiguous_window_rejected(self, cb8, stream8):
        # The loop writes through a flat view of the window; a strided
        # window would flatten to a copy and silently drop every write.
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        scales = self.scales_for(circuit, 2)
        schedule = circuit.replay_schedule()
        window = np.zeros((schedule.num_rows, 16, 2))[:, :8, :]
        with pytest.raises(SimulationError, match="contiguous"):
            replay_mod.replay_buckets(
                circuit.soa_plan(), schedule, plane, scales,
                window, 0, 8,
            )

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("case", SCHEDULE_CASES)
    def test_slot_window_matches_reference_and_base(
        self, case, chunked, monkeypatch
    ):
        netlist, faults = schedule_case(case)
        circuit = CompiledCircuit(netlist)
        rng = np.random.default_rng(11)
        stim = {name: rng.integers(0, 8, 203) for name in ("a", "b")}
        if chunked:
            monkeypatch.setattr(
                replay_mod, "REPLAY_CHUNK_TARGET_BYTES", 1
            )
        plane = build_value_plane(circuit, stim)
        scales = self.scales_for(circuit, 3)
        got = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        base = DeltaBase(circuit, stim, scales)
        wants = [
            reference_replay(
                circuit, plane, scales, collect_bit_arrivals=True
            ),
            base.result(collect_bit_arrivals=True),
        ]
        assert got.delays.any()
        for want in wants:
            assert np.array_equal(got.delays, want.delays)
            assert np.array_equal(got.bit_arrivals["p"],
                                  want.bit_arrivals["p"])
        if faults:
            # The faults replayed against the window-checked base match
            # the reference under their hooks, corner by corner.
            faulty = replay_delta(
                base, overrides=value_overrides(base, faults),
                collect_bit_arrivals=True,
            )
            for corner in range(scales.shape[0]):
                want = oracle_stream(
                    netlist, faults, stim, base_scale=scales[corner],
                    collect_bit_arrivals=True,
                )
                assert np.array_equal(faulty.delays[corner], want.delays)
                assert np.array_equal(
                    faulty.bit_arrivals["p"][:, corner, :],
                    want.bit_arrivals["p"],
                )
        schedule = assert_schedule_sound(circuit)
        assert schedule.num_rows < circuit.num_nets
        if case == "dangling":
            for cell in netlist.cells[-2:]:
                row = schedule.row_of_net[cell.output]
                assert np.count_nonzero(schedule.row_of_net == row) > 1
        if case in ("pi_output", "const1_output"):
            last_bit = netlist.output_ports["p"].nets[-1]
            assert schedule.row_of_net[last_bit] == 0

    def test_schedule_rows_column_16(self):
        circuit = CompiledCircuit(column_bypass_multiplier(16))
        schedule = assert_schedule_sound(circuit)
        assert schedule.num_rows == 344
        assert circuit.replay_schedule() is schedule  # cached

    def test_window_rows_must_match_schedule(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        scales = self.scales_for(circuit, 2)
        window = np.zeros((circuit.num_nets, 8, 2))
        with pytest.raises(SimulationError, match="rows"):
            replay_mod.replay_buckets(
                circuit.soa_plan(), circuit.replay_schedule(),
                plane, scales, window, 0, 8,
            )

    def test_replay_chunk_size_properties(self):
        assert replay_mod._replay_chunk_size(1, 1) % 8 == 0
        assert replay_mod._replay_chunk_size(10**9, 10**3) == 8
        big = replay_mod._replay_chunk_size(100, 1)
        assert big >= 8 and big % 8 == 0

    def test_folded_lifetime_sweep_matches_full_runs(self, cb8, foldable8):
        factory = AgedCircuitFactory.characterize(cb8, num_patterns=400)
        years = [0.0, 3.0, 7.0]
        folded = factory.stream_results(years, foldable8, fold=True)
        plain = factory.stream_results(years, foldable8, fold=False)
        for year, got, want in zip(years, folded, plain):
            assert_same(got, want)
            direct = factory.circuit(year).run(foldable8)
            assert_same(got, direct)


class TestAutoChunkBoundaries:
    def test_tiny_netlist_gets_huge_chunk(self):
        chunk = auto_chunk_size(1, 10**9)
        assert chunk % 8 == 0
        assert chunk >= 64

    def test_huge_netlist_hits_floor(self):
        assert auto_chunk_size(10**9, 100) == 64

    def test_always_byte_aligned(self):
        for nets in (1, 7, 64, 1023, 50_000):
            assert auto_chunk_size(nets, 1000) % 8 == 0

    def test_chunk_larger_than_stream_means_unchunked(self, cb8):
        # A chunk above num_patterns is valid and equals the unchunked
        # result (the engine simply runs one chunk).
        circuit = CompiledCircuit(cb8)
        stim = {"md": [1, 2, 3], "mr": [4, 5, 6]}
        chunk = auto_chunk_size(circuit.netlist.num_nets, 3)
        assert chunk > 3
        assert_same(circuit.run(stim, chunk_size=chunk),
                    circuit.run(stim))


class TestValuePlaneCacheFolded:
    def test_lru_eviction(self, cb8):
        circuit = CompiledCircuit(cb8)
        cache = ValuePlaneCache(max_entries=2)
        streams = []
        for seed in (1, 2, 3):
            md, mr = uniform_operands(8, 72, seed=seed)
            streams.append({"md": md, "mr": mr})
        for stim in streams:
            cache.get_or_build(circuit, stim)
        assert len(cache._memory) == 2
        assert cache.misses == 3
        # Oldest entry (seed 1) was evicted: rebuilding it is a miss,
        # while the newest two still hit.
        cache.get_or_build(circuit, streams[2])
        cache.get_or_build(circuit, streams[1])
        assert cache.hits == 2
        cache.get_or_build(circuit, streams[0])
        assert cache.misses == 4

    def test_disk_round_trip_with_folded_stimulus(
        self, cb8, foldable8, tmp_path
    ):
        circuit = CompiledCircuit(cb8)
        plan = fold_stimulus(foldable8)
        assert plan.profitable
        writer = ValuePlaneCache(directory=str(tmp_path))
        writer.get_or_build(circuit, plan.folded)
        assert writer.misses == 1

        reader = ValuePlaneCache(directory=str(tmp_path))
        loaded = reader.get_or_build(circuit, plan.folded)
        assert reader.disk_hits == 1
        folded_result = ArrivalReplay(circuit, loaded).stream()
        got = unfold_stream(folded_result, plan)
        assert_same(got, circuit.run(foldable8))
