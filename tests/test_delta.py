"""Cone-delta incremental evaluation equivalence suite.

Mirrors ``test_kernel.py``'s role for the delta machinery: every
observable on the byte-identity surface (``outputs``, ``delays``,
``bit_arrivals``) produced by :func:`repro.timing.delta.replay_delta`
must be bit-identical to a from-scratch
:func:`repro.timing.delta.evaluate_full` of the mutated child -- across
multiplier architectures, delay modes, mutation families (retype,
constant tie, rewire, delay nudge) and their combinations.  The suite
also pins the failure modes: misaligned pairs, hooked circuits, bad
scale shapes and unpatchable rewires must raise typed
:class:`~repro.errors.DeltaError`, never silently fall back.
"""

import dataclasses

import numpy as np
import pytest

from repro.arith import (
    array_multiplier,
    column_bypass_multiplier,
    row_bypass_multiplier,
)
from repro.distrib.jobs import clear_state_cache, run_job
from repro.errors import ConfigError, DeltaError, NetlistError
from repro.experiments import ArtifactStore
from repro.experiments.sweep import (
    RETYPE_SWAPS,
    SweepSpec,
    VariantSweep,
    enumerate_variants,
    render_payload,
)
from repro.faults.injector import fault_delay_scale, fault_delay_scales
from repro.faults.models import DelayFault
from repro.nets import Mutation, apply_mutations, retype, tie_high, tie_low
from repro.nets.netlist import CONST0
from repro.timing import ArrivalReplay, CompiledCircuit, build_value_plane
from repro.timing.delta import (
    DeltaBase,
    build_delta_plane,
    diff_netlists,
    evaluate_full,
    patch_compiled,
    replay_delta,
)
from repro.timing.value_cache import plane_cache_key
from repro.workloads import uniform_operands

WIDTH = 6
NUM_PATTERNS = 192
CORNERS = 2

GENERATORS = {
    "am": array_multiplier,
    "cb": column_bypass_multiplier,
    "rb": row_bypass_multiplier,
}


def scales_for(netlist, k=CORNERS, seed=5):
    rng = np.random.default_rng(seed)
    return 1.0 + rng.uniform(0.0, 0.4, (k, len(netlist.cells)))


def retypable_cells(netlist):
    return [
        cell.index
        for cell in netlist.cells
        if cell.group is None and cell.cell_type.name in RETYPE_SWAPS
    ]


def swap_of(netlist, index):
    return Mutation(index, RETYPE_SWAPS[netlist.cells[index].cell_type.name])


def assert_result_same(got, want, bit_arrivals=False):
    assert got.num_patterns == want.num_patterns
    assert sorted(got.outputs) == sorted(want.outputs)
    for name, values in want.outputs.items():
        assert np.array_equal(got.outputs[name], values), name
    assert np.array_equal(got.delays, want.delays)
    if bit_arrivals:
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix), name


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def design(request):
    netlist = GENERATORS[request.param](WIDTH)
    md, mr = uniform_operands(WIDTH, NUM_PATTERNS, seed=7)
    return {
        "netlist": netlist,
        "stimulus": {"md": md, "mr": mr},
        "scales": scales_for(netlist),
    }


@pytest.fixture(scope="module", params=["inertial", "floating"])
def base(request, design):
    circuit = CompiledCircuit(design["netlist"], mode=request.param)
    return DeltaBase(circuit, design["stimulus"], design["scales"])


class TestDiff:
    def test_identical_pair_is_empty(self, design):
        netlist = design["netlist"]
        delta = diff_netlists(netlist, apply_mutations(netlist, []))
        assert delta.is_empty
        assert delta.cone_fraction == 0.0
        assert delta.changed_cells == ()
        assert delta.cone_cells == ()
        assert delta.parent_fingerprint == delta.child_fingerprint

    def test_retype_cone_contains_consumers(self, design):
        netlist = design["netlist"]
        index = retypable_cells(netlist)[0]
        child = apply_mutations(netlist, [swap_of(netlist, index)])
        delta = diff_netlists(netlist, child)
        assert delta.changed_cells == (index,)
        assert index in delta.cone_cells
        assert netlist.cells[index].output in delta.affected_nets
        assert 0.0 < delta.cone_fraction <= 1.0
        # The cone is forward-closed: every consumer of an affected net
        # is itself in the cone.
        cone = set(delta.cone_cells)
        for cell in child.cells:
            if any(net in delta.affected_nets for net in cell.inputs):
                assert cell.index in cone

    def test_fingerprint_separates_children(self, design):
        netlist = design["netlist"]
        sites = retypable_cells(netlist)[:2]
        deltas = [
            diff_netlists(
                netlist, apply_mutations(netlist, [swap_of(netlist, s)])
            )
            for s in sites
        ]
        assert deltas[0].fingerprint() != deltas[1].fingerprint()

    def test_misaligned_pair_rejected(self):
        with pytest.raises(DeltaError):
            diff_netlists(array_multiplier(4), array_multiplier(5))

    def test_mutation_validation(self, design):
        netlist = design["netlist"]
        with pytest.raises(NetlistError):
            apply_mutations(netlist, [retype(10 ** 6, "OR2")])
        index = retypable_cells(netlist)[0]
        with pytest.raises(NetlistError):
            apply_mutations(
                netlist, [swap_of(netlist, index), tie_low(index)]
            )
        with pytest.raises(NetlistError):  # arity mismatch
            apply_mutations(netlist, [Mutation(index, "INV")])

    def test_site_ids_distinguish_families(self):
        assert retype(3, "OR2").site_id() == "retype:c3:OR2"
        assert tie_low(3).site_id() != tie_high(3).site_id()
        assert tie_low(3).inputs == (CONST0,)


class TestPatchCompiled:
    def test_patched_run_matches_scratch_compile(self, design):
        netlist = design["netlist"]
        parent = CompiledCircuit(netlist)
        index = retypable_cells(netlist)[1]
        child = apply_mutations(netlist, [swap_of(netlist, index)])
        patched = patch_compiled(parent, child)
        want = CompiledCircuit(child).run(
            design["stimulus"], collect_bit_arrivals=True
        )
        got = patched.run(design["stimulus"], collect_bit_arrivals=True)
        for name, values in want.outputs.items():
            assert np.array_equal(got.outputs[name], values)
        assert np.array_equal(got.delays, want.delays)
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix)
        # Re-bucketing one level permutes the switched-cap accumulation
        # order: identical up to float association.
        assert np.allclose(
            got.switched_caps, want.switched_caps, rtol=1e-12, atol=1e-9
        )

    def test_patched_replay_matches_scratch_compile(self, design):
        # A patched circuit builds its own liveness schedule from the
        # patched plan rather than inheriting the parent's.
        netlist = design["netlist"]
        index = retypable_cells(netlist)[1]
        child = apply_mutations(netlist, [swap_of(netlist, index)])
        scales = scales_for(child)
        got, want = (
            ArrivalReplay(
                circuit, build_value_plane(circuit, design["stimulus"])
            ).replay(scales, collect_bit_arrivals=True)
            for circuit in (
                patch_compiled(CompiledCircuit(netlist), child),
                CompiledCircuit(child),
            )
        )
        assert np.array_equal(got.delays, want.delays)
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix)

    def test_lineage_separates_cache_keys(self, design):
        netlist = design["netlist"]
        parent = CompiledCircuit(netlist)
        index = retypable_cells(netlist)[0]
        child = apply_mutations(netlist, [swap_of(netlist, index)])
        patched = patch_compiled(parent, child)
        fresh = CompiledCircuit(child)
        assert len(patched.delta_lineage) == 1
        stim = design["stimulus"]
        assert plane_cache_key(patched, stim) != plane_cache_key(fresh, stim)
        assert plane_cache_key(parent, stim) != plane_cache_key(patched, stim)
        # A second structural step extends the lineage chain.
        other = retypable_cells(netlist)[1]
        grandchild = apply_mutations(
            child, [swap_of(child, other)]
        )
        twice = patch_compiled(patched, grandchild)
        assert len(twice.delta_lineage) == 2
        assert twice.delta_lineage[0] == patched.delta_lineage[0]

    def test_foreign_delta_rejected(self, design):
        netlist = design["netlist"]
        parent = CompiledCircuit(netlist)
        sites = retypable_cells(netlist)[:2]
        children = [
            apply_mutations(netlist, [swap_of(netlist, s)]) for s in sites
        ]
        delta = diff_netlists(netlist, children[0])
        with pytest.raises(DeltaError):
            patch_compiled(parent, children[1], delta)

    def test_same_level_rewire_unpatchable(self, design):
        # Rewiring a cell to consume a net produced at its own kept
        # level breaks levelization (no cycle, so the child still
        # validates); the patcher must refuse rather than compute
        # garbage.
        netlist = design["netlist"]
        parent = CompiledCircuit(netlist)
        plan = parent.soa_plan()
        cells = parent._cells
        victim = other = None
        for buckets in plan.levels:
            positions = [
                int(p) for bucket in buckets for p in bucket.positions
            ]
            if len(positions) >= 2:
                victim, other = cells[positions[0]], cells[positions[1]]
                break
        assert victim is not None
        mutation = Mutation(
            victim.index,
            netlist.cells[victim.index].cell_type.name,
            (other.output,) + tuple(victim.inputs[1:]),
        )
        child = apply_mutations(netlist, [mutation])
        with pytest.raises(DeltaError):
            patch_compiled(parent, child)


class TestReplayDelta:
    def children_for(self, netlist):
        swaps = retypable_cells(netlist)
        ties = [c.index for c in netlist.cells if c.group is None]
        return {
            "retype": [swap_of(netlist, swaps[0])],
            "retype-deep": [swap_of(netlist, swaps[len(swaps) // 2])],
            "tie-low": [tie_low(ties[len(ties) // 3])],
            "tie-high": [tie_high(ties[-1])],
            "multi": [swap_of(netlist, swaps[0]),
                      swap_of(netlist, swaps[-1])],
        }

    def test_every_mutation_family_bit_identical(self, design, base):
        netlist = design["netlist"]
        stim = design["stimulus"]
        mode = base.circuit.mode
        for label, mutations in self.children_for(netlist).items():
            child = apply_mutations(netlist, mutations)
            got = replay_delta(base, child, collect_bit_arrivals=True)
            want = evaluate_full(
                child, stim, design["scales"],
                mode=mode, collect_bit_arrivals=True,
            )
            assert got.method == "delta", label
            assert got.value_cone_cells
            assert_result_same(got, want, bit_arrivals=True)

    def test_delay_only_variant_bit_identical(self, design, base):
        netlist = design["netlist"]
        perturbed = fault_delay_scales(
            netlist,
            [DelayFault(cell=len(netlist.cells) // 2, extra_ns=0.6)],
            design["scales"],
        )
        got = replay_delta(
            base, netlist, delay_scales=perturbed,
            collect_bit_arrivals=True,
        )
        want = evaluate_full(
            netlist, design["stimulus"], perturbed,
            mode=base.circuit.mode, collect_bit_arrivals=True,
        )
        assert got.method == "delta"
        assert got.value_cone_cells == ()  # structure untouched
        assert got.arrival_cone_cells
        assert_result_same(got, want, bit_arrivals=True)

    def test_mixed_structural_and_scale_change(self, design, base):
        netlist = design["netlist"]
        child = apply_mutations(
            netlist, [swap_of(netlist, retypable_cells(netlist)[2])]
        )
        perturbed = fault_delay_scales(
            netlist, [DelayFault(cell=3, extra_ns=0.2)], design["scales"]
        )
        got = replay_delta(
            base, child, delay_scales=perturbed,
            collect_bit_arrivals=True,
        )
        want = evaluate_full(
            child, design["stimulus"], perturbed,
            mode=base.circuit.mode, collect_bit_arrivals=True,
        )
        # The arrival cone covers both seeds, the value cone only the
        # structural one.
        assert set(got.value_cone_cells) < set(got.arrival_cone_cells)
        assert_result_same(got, want, bit_arrivals=True)

    def test_empty_delta_returns_base(self, design, base):
        got = replay_delta(
            base, design["netlist"], collect_bit_arrivals=True
        )
        assert got.method == "base"
        assert got.delta is not None and got.delta.is_empty
        want = base.result(collect_bit_arrivals=True)
        assert_result_same(got, want, bit_arrivals=True)

    def test_base_result_matches_full(self, design, base):
        want = evaluate_full(
            design["netlist"], design["stimulus"], design["scales"],
            mode=base.circuit.mode, collect_bit_arrivals=True,
        )
        assert_result_same(
            base.result(collect_bit_arrivals=True), want,
            bit_arrivals=True,
        )
        assert base.nbytes > 0

    def test_base_nbytes_counts_value_capture(self, base):
        plane = base.plane
        packed = (
            plane.may_packed.nbytes
            + plane.aux_packed.nbytes
            + plane.val_packed.nbytes
            + plane.switched_caps.nbytes
            + sum(arr.nbytes for arr in plane.outputs.values())
        )
        assert plane.nbytes == packed
        assert base.nbytes == base.arrivals.nbytes + packed

    def test_cone_fraction_fallback_same_bytes(self, design, base):
        netlist = design["netlist"]
        child = apply_mutations(
            netlist, [swap_of(netlist, retypable_cells(netlist)[0])]
        )
        fast = replay_delta(base, child, collect_bit_arrivals=True)
        slow = replay_delta(
            base, child, collect_bit_arrivals=True,
            max_cone_fraction=0.0,
        )
        assert fast.method == "delta" and slow.method == "full"
        assert_result_same(slow, fast, bit_arrivals=True)

    def test_result_summaries(self, base):
        result = base.result()
        assert result.num_corners == CORNERS
        assert result.max_delays().shape == (CORNERS,)
        assert np.all(result.mean_delays() <= result.max_delays())


class TestDeltaErrors:
    def test_scale_shape_rejected(self, design):
        circuit = CompiledCircuit(design["netlist"])
        with pytest.raises(DeltaError):
            DeltaBase(circuit, design["stimulus"], np.ones((2, 3)))
        with pytest.raises(DeltaError):
            DeltaBase(
                circuit,
                design["stimulus"],
                np.zeros((1, len(design["netlist"].cells))),
            )

    def test_replay_scale_shape_must_match_base(self, design, base):
        with pytest.raises(DeltaError):
            replay_delta(
                base,
                design["netlist"],
                delay_scales=np.ones(
                    (CORNERS + 1, len(design["netlist"].cells))
                ),
            )

    def test_ragged_stimulus_rejected(self, design):
        circuit = CompiledCircuit(design["netlist"])
        with pytest.raises(DeltaError):
            build_delta_plane(
                circuit, {"md": [1, 2, 3], "mr": [1, 2]}
            )

    def test_malformed_overrides_rejected(self, design, base):
        netlist = design["netlist"]
        net = netlist.cells[0].output
        row = np.zeros(base.num_patterns + 1, dtype=np.uint8)
        child = apply_mutations(
            netlist, [swap_of(netlist, retypable_cells(netlist)[0])]
        )
        bad = [
            dict(overrides={net: row[1:]}),  # no settling entry
            dict(overrides={net: row + 2}),  # not bits
            dict(overrides={CONST0: row}),  # a rail
            dict(overrides={netlist.num_nets: row}),  # out of range
            dict(overrides={net: row}, child=child),
            dict(overrides={net: row}, max_cone_fraction=0.5),
        ]
        for kwargs in bad:
            with pytest.raises(DeltaError):
                replay_delta(base, **kwargs)

    def test_value_cone_needs_transitions_for_a_stream(self, base):
        net = base.circuit.netlist.cells[0].output
        row = np.ones(base.num_patterns + 1, dtype=np.uint8)
        result = replay_delta(base, overrides={net: row})
        assert result.switched_caps is None
        with pytest.raises(DeltaError, match="transitions"):
            result.stream_result()


class TestFaultDelayScales:
    def test_matrix_matches_vector_form_per_row(self, design):
        netlist = design["netlist"]
        faults = [
            DelayFault(cell=2, extra_ns=0.3),
            DelayFault(cell=7, extra_ns=0.1),
        ]
        base = scales_for(netlist, k=3, seed=9)
        got = fault_delay_scales(netlist, faults, base)
        for row in range(3):
            want = fault_delay_scale(
                netlist, faults, base_scale=base[row]
            )
            assert np.array_equal(got[row], want)

    def test_no_faults_returns_base_unchanged(self, design):
        base = scales_for(design["netlist"])
        assert fault_delay_scales(design["netlist"], [], base) is base


SWEEP_SPEC = SweepSpec(
    width=WIDTH,
    kind="am",
    years=(0.0, 6.0),
    num_patterns=128,
    seed=3,
    characterize_patterns=150,
    num_variants=9,
    variant_seed=4,
)


class TestVariantSweep:
    def test_enumeration_deterministic_and_distinct(self, design):
        netlist = design["netlist"]
        spec = dataclasses.replace(SWEEP_SPEC, num_variants=12)
        first = enumerate_variants(netlist, spec)
        second = enumerate_variants(netlist, spec)
        assert first == second
        sites = [v.site for v in first]
        assert len(set(sites)) == len(sites)
        families = {site.split(":", 1)[0] for site in sites}
        assert families == {"retype", "rewire", "delay"}

    def test_enumeration_capacity_bounded(self, design):
        spec = dataclasses.replace(SWEEP_SPEC, num_variants=10 ** 6)
        with pytest.raises(ConfigError):
            enumerate_variants(design["netlist"], spec)

    def test_spec_round_trip_rejects_unknown_fields(self):
        assert SweepSpec.from_dict(SWEEP_SPEC.to_dict()) == SWEEP_SPEC
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"widht": 8})

    def test_delta_and_full_engines_byte_identical(self):
        sweep = VariantSweep(SWEEP_SPEC)
        fast, fast_stats = sweep.run(engine="delta")
        slow, slow_stats = sweep.run(engine="full")
        assert render_payload(fast) == render_payload(slow)
        assert set(fast_stats["methods"]) <= {"delta", "base", "full"}
        assert slow_stats["methods"] == {"full": 9}

    def test_store_caches_records(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        first, stats = VariantSweep(SWEEP_SPEC, store=store).run()
        assert stats["store_hits"] == 0
        again, stats = VariantSweep(SWEEP_SPEC, store=store).run(
            engine="full"
        )
        assert stats["store_hits"] == 9
        assert stats["methods"] == {}
        assert render_payload(again) == render_payload(first)

    def test_store_delta_kind_validates(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = {"site": "retype:c1:OR2"}
        store.save("delta", key, {"site": "retype:c1:OR2"})
        assert store.load("delta", key) == {"site": "retype:c1:OR2"}
        with pytest.raises(ConfigError):
            store.save("delta", key, ["not", "a", "dict"])

    def test_variant_shard_job_matches_inline(self):
        clear_state_cache()
        try:
            sweep = VariantSweep(SWEEP_SPEC)
            response = run_job({
                "job": "variant_shard",
                "sweep": SWEEP_SPEC.to_dict(),
                "engine": "delta",
                "variants": [0, 4],
            })
            records = dict(
                (index, record)
                for index, record in response["records"]
            )
            for index in (0, 4):
                want, _ = sweep.evaluate(index, engine="full")
                assert records[index] == want
        finally:
            clear_state_cache()

    def test_variant_shard_rejects_bad_requests(self):
        with pytest.raises(ConfigError):
            run_job({"job": "variant_shard", "sweep": [], "variants": []})
        with pytest.raises(ConfigError):
            run_job({
                "job": "variant_shard",
                "sweep": SWEEP_SPEC.to_dict(),
                "variants": [99],
            })
