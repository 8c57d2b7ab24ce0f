"""Two-plane engine: value plane + arrival replay must be bit-identical
to the single-pass :meth:`CompiledCircuit.run` for every mode, chunking
and corner combination, and a fault cone replay over a multi-corner base
must match the reference under the faults' hooks at every corner."""

import numpy as np
import pytest

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.errors import SimulationError
from repro.faults.injector import value_overrides
from repro.faults.models import StuckAtFault, TransientBitFlip
from repro.timing import (
    ArrivalReplay,
    CompiledCircuit,
    StaticTiming,
    ValuePlaneCache,
    build_value_plane,
)
from repro.timing.delta import DeltaBase, replay_delta
from repro.timing.sta import critical_delays
from repro.workloads import uniform_operands

from faultpaths import oracle_stream


@pytest.fixture(scope="module")
def cb8():
    return column_bypass_multiplier(8)


@pytest.fixture(scope="module")
def stream8():
    md, mr = uniform_operands(8, 600, seed=3)
    return {"md": md, "mr": mr}


def assert_streams_identical(got, want, bit_arrivals=False, stats=False):
    assert got.num_patterns == want.num_patterns
    for name, values in want.outputs.items():
        assert np.array_equal(got.outputs[name], values)
    assert np.array_equal(got.delays, want.delays)
    assert np.array_equal(got.switched_caps, want.switched_caps)
    if bit_arrivals:
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix)
    if stats:
        assert np.array_equal(got.signal_prob, want.signal_prob)
        assert np.array_equal(got.toggle_counts, want.toggle_counts)


def scales_for(circuit, k, seed=5):
    rng = np.random.default_rng(seed)
    num_cells = len(circuit.netlist.cells)
    return 1.0 + rng.uniform(0.0, 0.4, (k, num_cells))


class TestReplayEquivalence:
    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_batched_replay_matches_serial_runs(self, cb8, stream8, mode):
        circuit = CompiledCircuit(cb8, mode=mode)
        plane = build_value_plane(circuit, stream8, collect_net_stats=True)
        scales = scales_for(circuit, 3)
        replayed = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        for k in range(3):
            want = circuit.with_delay_scale(scales[k]).run(
                stream8,
                collect_bit_arrivals=True,
                collect_net_stats=True,
            )
            assert_streams_identical(
                replayed.stream_result(k),
                want,
                bit_arrivals=True,
                stats=True,
            )

    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_unit_scale_replay_matches_plain_run(self, cb8, stream8, mode):
        circuit = CompiledCircuit(cb8, mode=mode)
        plane = build_value_plane(circuit, stream8)
        got = ArrivalReplay(circuit, plane).stream(
            collect_bit_arrivals=True
        )
        want = circuit.run(stream8, collect_bit_arrivals=True)
        assert_streams_identical(got, want, bit_arrivals=True)

    def test_chunked_plane_matches_unchunked(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        scales = scales_for(circuit, 2)
        whole = build_value_plane(circuit, stream8, chunk_size=10_000)
        chunked = build_value_plane(circuit, stream8, chunk_size=128)
        assert np.array_equal(whole.may_packed, chunked.may_packed)
        assert np.array_equal(whole.aux_packed, chunked.aux_packed)
        a = ArrivalReplay(circuit, whole).replay(scales)
        b = ArrivalReplay(circuit, chunked).replay(scales)
        assert np.array_equal(a.delays, b.delays)

    def test_replay_matches_chunked_reference_run(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        scales = scales_for(circuit, 2)
        plane = build_value_plane(circuit, stream8)
        replayed = ArrivalReplay(circuit, plane).replay(scales)
        for k in range(2):
            want = circuit.with_delay_scale(scales[k]).run(
                stream8, chunk_size=96
            )
            assert_streams_identical(replayed.stream_result(k), want)

    def test_replay_with_fault_hooks(self, cb8, stream8):
        faults = [
            StuckAtFault(net=cb8.cells[10].output, value=1),
            TransientBitFlip(net=cb8.cells[40].output, rate=0.1, seed=2),
        ]
        circuit = CompiledCircuit(cb8)
        scales = scales_for(circuit, 2)
        base = DeltaBase(circuit, stream8, scales, transitions=True)
        replayed = replay_delta(
            base, overrides=value_overrides(base, faults),
            collect_bit_arrivals=True,
        )
        for k in range(2):
            want = oracle_stream(
                cb8, faults, stream8, base_scale=scales[k],
                collect_bit_arrivals=True,
            )
            got = replayed.stream_result(k)
            assert np.array_equal(got.outputs["p"], want.outputs["p"])
            assert np.array_equal(got.delays, want.delays)
            assert np.array_equal(
                got.bit_arrivals["p"], want.bit_arrivals["p"]
            )
            assert np.allclose(
                got.switched_caps, want.switched_caps,
                rtol=1e-12, atol=1e-9,
            )

    def test_initial_condition_respected(self, cb8):
        circuit = CompiledCircuit(cb8)
        stim = {"md": [7, 7, 3], "mr": [5, 5, 9]}
        initial = {"md": 0, "mr": 255}
        plane = build_value_plane(circuit, stim, initial=initial)
        got = ArrivalReplay(circuit, plane).stream()
        want = circuit.run(stim, initial=initial)
        assert_streams_identical(got, want)

    def test_mismatched_plane_rejected(self, cb8, stream8):
        inertial = CompiledCircuit(cb8, mode="inertial")
        floating = CompiledCircuit(cb8, mode="floating")
        plane = build_value_plane(inertial, stream8)
        with pytest.raises(SimulationError):
            ArrivalReplay(floating, plane)

    def test_bad_delay_scales_rejected(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        replay = ArrivalReplay(circuit, plane)
        num_cells = len(cb8.cells)
        with pytest.raises(SimulationError):
            replay.replay(np.ones((2, num_cells + 1)))
        with pytest.raises(SimulationError):
            replay.replay(np.zeros((1, num_cells)))


class TestValuePlaneCache:
    def test_memory_hit(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        cache = ValuePlaneCache()
        first = cache.get_or_build(circuit, stream8)
        second = cache.get_or_build(circuit, stream8)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_disk_round_trip(self, cb8, stream8, tmp_path):
        circuit = CompiledCircuit(cb8)
        writer = ValuePlaneCache(directory=str(tmp_path))
        plane = writer.get_or_build(circuit, stream8)
        reader = ValuePlaneCache(directory=str(tmp_path))
        loaded = reader.get_or_build(circuit, stream8)
        assert reader.disk_hits == 1
        assert np.array_equal(plane.may_packed, loaded.may_packed)
        assert np.array_equal(plane.aux_packed, loaded.aux_packed)
        got = ArrivalReplay(circuit, loaded).stream()
        assert_streams_identical(got, circuit.run(stream8))

    def test_corrupt_file_rebuilds(self, cb8, stream8, tmp_path):
        circuit = CompiledCircuit(cb8)
        writer = ValuePlaneCache(directory=str(tmp_path))
        writer.get_or_build(circuit, stream8)
        for path in tmp_path.iterdir():
            path.write_bytes(b"junk")
        reader = ValuePlaneCache(directory=str(tmp_path))
        plane = reader.get_or_build(circuit, stream8)
        assert reader.disk_hits == 0 and reader.misses == 1
        got = ArrivalReplay(circuit, plane).stream()
        assert_streams_identical(got, circuit.run(stream8))


class TestAgingIntegration:
    @pytest.fixture(scope="class")
    def factory(self, cb8):
        return AgedCircuitFactory.characterize(cb8, num_patterns=400)

    def test_factory_stream_results_match_full_runs(
        self, factory, stream8
    ):
        years = [0.0, 3.0, 7.0]
        batched = factory.stream_results(years, stream8)
        for year, got in zip(years, batched):
            want = factory.circuit(year).run(stream8)
            assert_streams_identical(got, want)

    def test_lifetime_delay_scales_shape(self, factory, cb8):
        scales = factory.lifetime_delay_scales([0.0, 7.0])
        assert scales.shape == (2, len(cb8.cells))
        assert np.array_equal(scales[0], np.ones(len(cb8.cells)))

    def test_critical_delays_match_static_timing(self, factory, cb8):
        scales = factory.lifetime_delay_scales([0.0, 2.0, 7.0])
        batched = critical_delays(cb8, delay_scales=scales)
        for j in range(scales.shape[0]):
            sta = StaticTiming(cb8, delay_scale=scales[j])
            assert batched[j] == sta.critical_delay
