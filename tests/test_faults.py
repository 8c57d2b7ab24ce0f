"""Fault models, injection (override rows, hooks) and campaign sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import column_bypass_multiplier, row_bypass_multiplier
from repro.core import AgingAwareMultiplier
from repro.errors import FaultError, SimulationError
from repro.faults import (
    DelayFault,
    InjectionCampaign,
    StuckAtFault,
    TransientBitFlip,
    build_fault_hooks,
    enumerate_fault_sites,
    fault_delay_scale,
    value_overrides,
)
from repro.timing import CompiledCircuit
from repro.timing.delta import DeltaBase
from repro.workloads import uniform_operands

from faultpaths import delta_stream


@pytest.fixture(scope="module")
def arch8():
    return AgingAwareMultiplier.build(
        8, "column", skip=3, cycle_ns=0.5, characterize_patterns=300
    )


class TestFaultModelValidation:
    def test_stuck_at_value_checked(self):
        with pytest.raises(FaultError):
            StuckAtFault(5, 2)

    def test_constant_rails_rejected(self):
        with pytest.raises(FaultError):
            StuckAtFault(0, 1)
        with pytest.raises(FaultError):
            TransientBitFlip(1, 0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(FaultError):
            TransientBitFlip(5, -0.1)
        with pytest.raises(FaultError):
            TransientBitFlip(5, 1.5)

    def test_negative_extra_delay_rejected(self):
        with pytest.raises(FaultError):
            DelayFault(3, -0.5)

    def test_out_of_range_targets_rejected(self, cb4):
        with pytest.raises(FaultError):
            build_fault_hooks(cb4, [StuckAtFault(10 ** 6, 0)])
        with pytest.raises(FaultError):
            fault_delay_scale(cb4, [DelayFault(10 ** 6, 0.1)])

    def test_fault_error_is_simulation_error(self):
        assert issubclass(FaultError, SimulationError)


class TestInjection:
    def test_stuck_at_forces_output(self, cb4):
        # Stick the LSB product bit at 1: odd products unchanged, even
        # products gain bit 0.
        lsb = cb4.output_ports["p"].nets[0]
        md, mr = uniform_operands(4, 200, seed=3)
        result = delta_stream(
            cb4, [StuckAtFault(lsb, 1)], {"md": md, "mr": mr}
        )
        assert np.array_equal(
            result.outputs["p"], (md * mr) | np.uint64(1)
        )

    def test_transient_flip_rate_and_determinism(self, cb4):
        lsb = cb4.output_ports["p"].nets[0]
        fault = TransientBitFlip(lsb, 0.25, seed=11)
        md, mr = uniform_operands(4, 4000, seed=5)
        stim = {"md": md, "mr": mr}
        flipped = delta_stream(cb4, [fault], stim).outputs["p"]
        corrupted = flipped != (md * mr)
        assert 0.15 < corrupted.mean() < 0.35
        again = delta_stream(cb4, [fault], stim).outputs["p"]
        assert np.array_equal(flipped, again)

    def test_transient_flip_chunking_independent(self, cb4):
        lsb = cb4.output_ports["p"].nets[0]
        faults = [TransientBitFlip(lsb, 0.3, seed=7)]
        md, mr = uniform_operands(4, 500, seed=9)
        stim = {"md": md, "mr": mr}
        whole = delta_stream(cb4, faults, stim, chunk_size=None)
        chunked = delta_stream(cb4, faults, stim, chunk_size=64)
        assert np.array_equal(whole.outputs["p"], chunked.outputs["p"])
        assert np.allclose(whole.delays, chunked.delays)

    def test_delay_fault_slows_only_its_cell(self, cb4):
        pristine = CompiledCircuit(cb4)
        md, mr = uniform_operands(4, 300, seed=13)
        base = pristine.run({"md": md, "mr": mr})
        victim = len(cb4.cells) // 2
        slow = delta_stream(
            cb4, [DelayFault(victim, 0.8)], {"md": md, "mr": mr}
        )
        assert np.array_equal(base.outputs["p"], slow.outputs["p"])
        assert slow.delays.max() >= base.delays.max()
        assert np.all(slow.delays >= base.delays - 1e-12)

    def test_delay_scale_composition(self, cb4):
        base = np.full(len(cb4.cells), 1.5)
        scale = fault_delay_scale(cb4, [DelayFault(0, 0.2)], base_scale=base)
        assert scale[0] > 1.5
        assert np.all(scale[1:] == 1.5)
        # No delay faults: base scale passes through untouched.
        assert fault_delay_scale(cb4, [StuckAtFault(5, 0)]) is None

    def test_hooks_compose_on_one_net(self, cb4):
        lsb = cb4.output_ports["p"].nets[0]
        hooks = build_fault_hooks(
            cb4, [TransientBitFlip(lsb, 1.0, seed=1), StuckAtFault(lsb, 0)]
        )
        values = np.ones(5, dtype=np.uint8)
        # Stuck-at applied last wins over the flip.
        assert np.all(hooks[lsb](values, 0) == 0)

    def test_nested_value_faults_rejected(self, cb4):
        # An override row is derived from the pristine stream, which a
        # faulted net downstream of another faulted net never sees.
        md, mr = uniform_operands(4, 64, seed=3)
        base = DeltaBase(
            CompiledCircuit(cb4), {"md": md, "mr": mr},
            np.ones(len(cb4.cells)),
        )
        upstream = cb4.input_ports["md"].nets[0]
        downstream = cb4.output_ports["p"].nets[0]
        assert downstream in base.downstream_nets([upstream])
        with pytest.raises(FaultError, match="downstream"):
            value_overrides(
                base,
                [StuckAtFault(upstream, 1),
                 TransientBitFlip(downstream, 0.5)],
            )

    def test_enumerate_sites_deterministic(self, cb4):
        a = enumerate_fault_sites(cb4, limit=20, seed=4)
        b = enumerate_fault_sites(cb4, limit=20, seed=4)
        assert a == b
        assert len(a) == 20
        with pytest.raises(FaultError):
            enumerate_fault_sites(cb4, kinds=("bogus",))


class TestZeroFaultEquivalence:
    """An empty campaign is bit-identical to the pristine simulation."""

    @pytest.mark.parametrize("builder", [
        column_bypass_multiplier, row_bypass_multiplier,
    ])
    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_engine_identity(self, builder, mode):
        netlist = builder(4)
        md, mr = uniform_operands(4, 250, seed=17)
        pristine = CompiledCircuit(netlist, mode=mode).run(
            {"md": md, "mr": mr}
        )
        hooked = delta_stream(netlist, [], {"md": md, "mr": mr}, mode=mode)
        assert np.array_equal(pristine.outputs["p"], hooked.outputs["p"])
        assert np.array_equal(pristine.delays, hooked.delays)
        assert np.array_equal(
            pristine.switched_caps, hooked.switched_caps
        )

    def test_campaign_identity(self, arch8):
        campaign = InjectionCampaign(arch8, [], num_patterns=400, seed=19)
        baseline = campaign.run_pristine()
        direct = arch8.run_patterns(campaign.md, campaign.mr)
        assert np.array_equal(baseline.products, direct.products)
        assert np.array_equal(baseline.delays, direct.delays)
        assert baseline.report == direct.report

    def test_campaign_identity_aged(self, arch8):
        campaign = InjectionCampaign(
            arch8, [], num_patterns=300, seed=21, years=5.0
        )
        baseline = campaign.run_pristine()
        direct = arch8.run_patterns(campaign.md, campaign.mr, years=5.0)
        assert np.array_equal(baseline.products, direct.products)
        assert np.allclose(baseline.delays, direct.delays)
        assert baseline.report == direct.report


class TestDegradeNeverCorrupts:
    """The degrade policy trades latency, never correctness."""

    @settings(max_examples=15, deadline=None)
    @given(
        cycle_fraction=st.floats(0.1, 1.2),
        seed=st.integers(0, 10 ** 6),
    )
    def test_fuzz_products_exact(self, arch8, cycle_fraction, seed):
        tight = arch8.with_cycle(
            cycle_fraction * arch8.critical_path_ns()
        )
        result = tight.run_random(
            200, seed=seed, check_golden=True, policy="degrade"
        )
        assert result.golden_ok is True

    def test_latency_only_grows_under_pressure(self, arch8):
        relaxed = arch8.with_cycle(2.0 * arch8.critical_path_ns())
        tight = arch8.with_cycle(0.15 * arch8.critical_path_ns())
        fast = relaxed.run_random(300, seed=23, policy="degrade").report
        slow = tight.run_random(300, seed=23, policy="degrade").report
        assert slow.average_cycles_per_op > fast.average_cycles_per_op


class TestCampaignSweep:
    def test_50_site_campaign_completes_under_degrade(self, arch8):
        """Acceptance: >= 50 sites on the 8-bit adaptive column-bypass
        design complete without raising and report per-site stats."""
        campaign = InjectionCampaign.sweep(
            arch8, num_sites=52, num_patterns=300, seed=2
        )
        result = campaign.run()
        assert result.num_sites == 52
        assert result.baseline.report.policy == "degrade"
        for site in result.sites:
            assert site.corrupted_ops >= 0
            assert site.detected_ops + site.silent_ops == site.corrupted_ops
            assert 0.0 <= site.detection_fraction <= 1.0
            assert site.avg_latency_ns > 0
        assert result.corrupting_sites > 0
        assert "fault kind" in result.render()

    def test_razor_covers_delay_not_stuck(self, arch8):
        tight = arch8.with_cycle(0.6 * arch8.critical_path_ns())
        campaign = InjectionCampaign.sweep(
            tight, num_sites=40, num_patterns=300, seed=6
        )
        result = campaign.run()
        assert result.detection_coverage("delay") == 1.0
        stuck = [
            s for s in result.sites
            if s.kind.startswith("stuck-at") and s.corrupted_ops > 0
        ]
        assert stuck, "sweep found no corrupting stuck-at sites"
        assert result.detection_coverage("stuck-at-0") < 1.0 or (
            result.detection_coverage("stuck-at-1") < 1.0
        )

    def test_bad_campaign_rejected(self, arch8):
        with pytest.raises(FaultError):
            InjectionCampaign(arch8, [], num_patterns=0)
        with pytest.raises(FaultError):
            InjectionCampaign(arch8, ["not-a-fault"], num_patterns=10)

    def test_delay_hotspot_elevates_latency(self, arch8):
        tight = arch8.with_cycle(0.6 * arch8.critical_path_ns())
        campaign = InjectionCampaign(
            tight,
            [DelayFault(len(arch8.netlist.cells) // 2, tight.cycle_ns)],
            num_patterns=400,
            seed=8,
        )
        result = campaign.run()
        site = result.sites[0]
        assert site.kind == "delay"
        assert (
            site.avg_latency_ns
            >= result.baseline.report.average_latency_ns
        )


class TestEmFaultSites:
    """EM-coupled delay-fault sites (``sites="em"`` campaigns)."""

    @pytest.fixture(scope="class")
    def rates8(self, arch8):
        from repro.aging import cell_toggle_rates

        md, mr = uniform_operands(8, 400, seed=13)
        stats = arch8.factory.stream_result(
            0.0, {"md": md, "mr": mr}, collect_net_stats=True
        )
        return cell_toggle_rates(
            arch8.netlist, stats.toggle_counts, 400
        )

    def test_ranked_by_absolute_delay_gain(self, arch8, rates8):
        from repro.faults import em_fault_sites

        faults = em_fault_sites(arch8.netlist, rates8, years=10.0)
        assert len(faults) == len(arch8.netlist.cells)
        assert all(isinstance(f, DelayFault) for f in faults)
        extras = [f.extra_ns for f in faults]
        assert extras == sorted(extras, reverse=True)
        assert extras[0] > 0
        assert all(extra >= 0 for extra in extras)

    def test_limit_takes_worst_cells(self, arch8, rates8):
        from repro.faults import em_fault_sites

        full = em_fault_sites(arch8.netlist, rates8)
        top = em_fault_sites(arch8.netlist, rates8, limit=10)
        assert [(f.cell, f.extra_ns) for f in top] == [
            (f.cell, f.extra_ns) for f in full[:10]
        ]

    def test_deterministic(self, arch8, rates8):
        from repro.faults import em_fault_sites

        first = em_fault_sites(arch8.netlist, rates8, years=10.0)
        second = em_fault_sites(arch8.netlist, rates8, years=10.0)
        assert [(f.cell, f.extra_ns) for f in first] == [
            (f.cell, f.extra_ns) for f in second
        ]

    def test_more_years_more_delay(self, arch8, rates8):
        from repro.faults import em_fault_sites

        early = em_fault_sites(arch8.netlist, rates8, years=2.0)
        late = em_fault_sites(arch8.netlist, rates8, years=10.0)
        assert late[0].extra_ns > early[0].extra_ns

    def test_em_campaign_sweep(self, arch8):
        campaign = InjectionCampaign.sweep(
            arch8, num_sites=12, num_patterns=200, seed=4, sites="em"
        )
        assert len(campaign.faults) == 12
        assert all(isinstance(f, DelayFault) for f in campaign.faults)
        result = campaign.run()
        assert len(result.sites) == 12
        assert all(site.kind == "delay" for site in result.sites)

    def test_em_sweep_deterministic(self, arch8):
        first = InjectionCampaign.sweep(
            arch8, num_sites=8, num_patterns=200, seed=4, sites="em"
        )
        second = InjectionCampaign.sweep(
            arch8, num_sites=8, num_patterns=200, seed=4, sites="em"
        )
        assert [
            (f.cell, f.extra_ns) for f in first.faults
        ] == [(f.cell, f.extra_ns) for f in second.faults]

    def test_unknown_sites_rejected(self, arch8):
        with pytest.raises(FaultError):
            InjectionCampaign.sweep(
                arch8, num_sites=8, num_patterns=200, sites="thermal"
            )
