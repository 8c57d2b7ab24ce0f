"""Campaign execution: sharding, checkpoint/resume, cone pruning.

The contracts under test (DESIGN.md section 9, "campaign execution"):

* ``run(workers=N)`` is bit-identical to the serial sweep;
* an interrupted campaign flushes its checkpoint, reports partial
  coverage, and resumes without re-simulating completed sites -- even
  from a checkpoint whose trailing line was torn by a kill;
* logic-cone pruning synthesizes *exactly* the report a full simulation
  would have produced, and never touches a site that can corrupt an
  observed output bit.
"""

import dataclasses
import json
import os

import pytest

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.config import DEFAULT_TECHNOLOGY
from repro.core import AgingAwareMultiplier
from repro.distrib.pool import make_batches
from repro.errors import CampaignInterrupted, CheckpointError, FaultError
from repro.faults import (
    CheckpointStore,
    DelayFault,
    InjectionCampaign,
    StuckAtFault,
    TransientBitFlip,
    campaign_from_spec,
    unique_site_ids,
)

#: The shared campaign: 16 sites x 150 patterns on the 8-bit
#: column-bypass design, clocked at 0.6x its critical path.
CAMPAIGN_SPEC = {
    "width": 8,
    "kind": "column",
    "skip": 3,
    "cycle_fraction": 0.6,
    "sites": 16,
    "patterns": 150,
    "seed": 2,
    "years": 0.0,
    "characterize_patterns": 300,
}


@pytest.fixture(scope="module")
def arch8():
    arch = AgingAwareMultiplier.build(
        8, "column", skip=3, cycle_ns=0.5, characterize_patterns=300
    )
    return arch.with_cycle(0.6 * arch.critical_path_ns())


@pytest.fixture(scope="module")
def campaign():
    """Built from a spec, so parallel runs can rebuild it in workers."""
    return campaign_from_spec(CAMPAIGN_SPEC)


@pytest.fixture(scope="module")
def serial_result(campaign):
    return campaign.run(workers=1, prune=False)


class TestSiteIds:
    def test_stable_and_parameter_derived(self):
        assert StuckAtFault(5, 1).site_id() == "sa1:n5"
        assert TransientBitFlip(5, 0.25, seed=3).site_id() == (
            TransientBitFlip(5, 0.25, seed=3).site_id()
        )
        assert DelayFault(2, 0.5).site_id() != DelayFault(2, 0.6).site_id()

    def test_duplicates_suffixed_in_order(self):
        fault = StuckAtFault(5, 0)
        ids = unique_site_ids([fault, StuckAtFault(6, 0), fault, fault])
        assert ids == ["sa0:n5", "sa0:n6", "sa0:n5#1", "sa0:n5#2"]
        assert len(set(ids)) == len(ids)

    def test_spec_campaign_equals_direct_sweep(self, campaign, arch8):
        """The spec-built fixture is the same campaign as a direct
        sweep over the same architecture."""
        direct = InjectionCampaign.sweep(
            arch8, num_sites=16, num_patterns=150, seed=2
        )
        assert campaign.fingerprint() == direct.fingerprint()
        assert campaign.site_ids == direct.site_ids
        assert direct.spec is None

    def test_campaign_ids_match_faults(self, campaign):
        assert len(campaign.site_ids) == len(campaign.faults)
        assert len(set(campaign.site_ids)) == len(campaign.site_ids)


class TestShardedIdentity:
    def test_sharded_bit_identical_to_serial(self, campaign, serial_result):
        """Acceptance: workers=2 reproduces the serial sweep exactly."""
        sharded = campaign.run(workers=2, prune=False)
        assert sharded.sites == serial_result.sites
        assert sharded.summary() == {
            **serial_result.summary(),
            "sites_simulated": sharded.summary()["sites_simulated"],
        }

    def test_sharded_identical_with_odd_chunking(self, campaign,
                                                 serial_result):
        sharded = campaign.run(workers=2, chunk_size=3, prune=False)
        assert sharded.sites == serial_result.sites

    def test_make_batches_covers_everything_once(self):
        pending = list(range(17))
        batches = make_batches(pending, workers=4)
        flat = [i for b in batches for i in b]
        assert sorted(flat) == pending
        assert all(batches)
        assert make_batches([], workers=4) == []
        with pytest.raises(FaultError):
            make_batches(pending, workers=4, chunk_size=0)

    def test_bad_worker_count_rejected(self, campaign):
        with pytest.raises(FaultError):
            campaign.run(workers=0)


class TestCheckpointStore:
    def _fingerprint(self, n=1):
        return {"design": "test", "seed": n}

    def _store_with_reports(self, path, campaign, count=3):
        store = CheckpointStore(str(path))
        store.open(self._fingerprint())
        reports = []
        for index in range(count):
            site, _ = campaign.run_site(
                campaign.faults[index], campaign.site_ids[index]
            )
            store.append(campaign.site_ids[index], site)
            reports.append(site)
        store.close()
        return reports

    def test_round_trip(self, tmp_path, campaign):
        path = tmp_path / "cp.jsonl"
        written = self._store_with_reports(path, campaign)
        loaded = CheckpointStore(str(path)).load(self._fingerprint())
        assert [loaded[r.site_id] for r in written] == written

    def test_missing_file_is_empty(self, tmp_path):
        assert CheckpointStore(str(tmp_path / "nope.jsonl")).load() == {}

    def test_fingerprint_mismatch_rejected(self, tmp_path, campaign):
        path = tmp_path / "cp.jsonl"
        self._store_with_reports(path, campaign)
        with pytest.raises(CheckpointError):
            CheckpointStore(str(path)).load(self._fingerprint(2))

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(CheckpointError):
            CheckpointStore(str(path)).load()

    def test_torn_trailing_line_dropped(self, tmp_path, campaign):
        path = tmp_path / "cp.jsonl"
        written = self._store_with_reports(path, campaign)
        # Chop the last line mid-JSON, as a kill mid-write would.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 25])
        store = CheckpointStore(str(path))
        loaded = store.load(self._fingerprint())
        assert store.dropped_lines == 1
        assert [loaded[r.site_id] for r in written[:-1]] == written[:-1]
        assert written[-1].site_id not in loaded

    def test_mid_file_corruption_refused(self, tmp_path, campaign):
        path = tmp_path / "cp.jsonl"
        self._store_with_reports(path, campaign)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-trailing line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            CheckpointStore(str(path)).load()

    def test_append_requires_open(self, tmp_path, campaign):
        store = CheckpointStore(str(tmp_path / "cp.jsonl"))
        site, _ = campaign.run_site(campaign.faults[0])
        with pytest.raises(CheckpointError):
            store.append("x", site)

    def test_open_compacts_torn_bytes(self, tmp_path, campaign):
        path = tmp_path / "cp.jsonl"
        self._store_with_reports(path, campaign)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 25])
        with CheckpointStore(str(path)) as store:
            store.open(self._fingerprint())
        # After compaction every line parses again.
        for line in path.read_text().splitlines():
            json.loads(line)


class TestResume:
    def test_second_run_simulates_nothing(self, tmp_path, campaign,
                                          serial_result):
        path = str(tmp_path / "cp.jsonl")
        first = campaign.run(checkpoint=path, prune=False)
        second = campaign.run(checkpoint=path, prune=False)
        assert second.resumed_sites == len(campaign.faults)
        assert second.simulated_sites == 0
        assert second.sites == first.sites == serial_result.sites

    def test_resume_after_kill_mid_write(self, tmp_path, campaign,
                                         serial_result):
        """Acceptance: truncate the JSONL mid-line and resume."""
        path = tmp_path / "cp.jsonl"
        campaign.run(checkpoint=str(path), prune=False)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])  # torn trailing write
        resumed = campaign.run(checkpoint=str(path), prune=False)
        # Only the torn site re-simulates; everything else resumes.
        assert resumed.resumed_sites == len(campaign.faults) - 1
        assert resumed.simulated_sites == 1
        assert resumed.sites == serial_result.sites

    def test_resume_false_starts_over(self, tmp_path, campaign):
        path = str(tmp_path / "cp.jsonl")
        campaign.run(checkpoint=path, prune=False)
        fresh = campaign.run(checkpoint=path, resume=False, prune=False)
        assert fresh.resumed_sites == 0
        assert fresh.simulated_sites == len(campaign.faults)

    def test_resume_rejects_other_campaign(self, tmp_path, arch8, campaign):
        path = str(tmp_path / "cp.jsonl")
        campaign.run(checkpoint=path, prune=False)
        other = InjectionCampaign.sweep(
            arch8, num_sites=16, num_patterns=150, seed=99
        )
        with pytest.raises(CheckpointError):
            other.run(checkpoint=path)

    def test_sharded_resume_matches_serial(self, tmp_path, campaign,
                                           serial_result):
        path = tmp_path / "cp.jsonl"
        campaign.run(checkpoint=str(path), prune=False)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        resumed = campaign.run(
            checkpoint=str(path), workers=2, prune=False
        )
        assert resumed.sites == serial_result.sites


class TestInterruption:
    def test_partial_result_flushed_and_resumable(self, tmp_path, campaign,
                                                  serial_result):
        path = str(tmp_path / "cp.jsonl")

        def bomb(report, completed, total):
            if completed >= 5:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            campaign.run(checkpoint=path, prune=False, progress=bomb)
        exc = info.value
        assert exc.completed == 5
        assert exc.total == len(campaign.faults)
        assert exc.partial is not None
        assert not exc.partial.complete
        assert exc.partial.num_sites == 5
        assert "[PARTIAL -- interrupted]" in exc.partial.render()

        resumed = campaign.run(checkpoint=path, prune=False)
        assert resumed.complete
        assert resumed.resumed_sites == 5
        assert resumed.simulated_sites == len(campaign.faults) - 5
        assert resumed.sites == serial_result.sites

    def test_interrupt_without_checkpoint_still_partial(self, campaign):
        def bomb(report, completed, total):
            if completed >= 3:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            campaign.run(prune=False, progress=bomb)
        assert info.value.partial.num_sites == 3


class TestConePruning:
    """Pruning must be *exact*: synthesized == simulated, and no site
    that can corrupt an observed bit is ever pruned."""

    @pytest.fixture(scope="class")
    def dangling_arch(self):
        netlist = column_bypass_multiplier(4)
        md = netlist.input_ports["md"].nets
        mr = netlist.input_ports["mr"].nets
        # Two cells whose outputs feed nothing: faults here cannot reach
        # any product bit, so the campaign must prune them.
        first = netlist.and2(md[0], mr[1], name="dangle1")
        netlist.inv(first, name="dangle2")
        factory = AgedCircuitFactory.characterize(
            netlist, DEFAULT_TECHNOLOGY, num_patterns=200
        )
        arch = AgingAwareMultiplier(
            netlist=netlist, kind="column", width=4, skip=1,
            cycle_ns=0.5, factory=factory,
        )
        dangle1 = netlist.cells[-2].output
        dangle2_cell = len(netlist.cells) - 1
        return arch, dangle1, dangle2_cell

    def _faults(self, arch, dangle1, dangle2_cell):
        lsb = arch.netlist.output_ports["p"].nets[0]
        return [
            StuckAtFault(dangle1, 1),
            TransientBitFlip(dangle1, 0.5, seed=4),
            DelayFault(dangle2_cell, 0.7),
            StuckAtFault(lsb, 1),
            DelayFault(len(arch.netlist.cells) // 2, 0.4),
        ]

    def test_prunable_sites_found(self, dangling_arch):
        arch, dangle1, dangle2_cell = dangling_arch
        faults = self._faults(arch, dangle1, dangle2_cell)
        campaign = InjectionCampaign(arch, faults, num_patterns=150, seed=3)
        assert campaign.prunable_site_indices() == [0, 1, 2]

    def test_pruned_reports_equal_simulated(self, dangling_arch):
        """Property: for every site, the pruned sweep's report equals
        the fully simulated one modulo the ``pruned`` flag."""
        arch, dangle1, dangle2_cell = dangling_arch
        faults = self._faults(arch, dangle1, dangle2_cell)
        campaign = InjectionCampaign(arch, faults, num_patterns=150, seed=3)
        pruned = campaign.run(prune=True)
        simulated = campaign.run(prune=False)
        assert pruned.pruned_sites == 3
        assert simulated.pruned_sites == 0
        for fast, slow in zip(pruned.sites, simulated.sites):
            fast_d = dataclasses.asdict(fast)
            slow_d = dataclasses.asdict(slow)
            fast_d.pop("pruned")
            slow_d.pop("pruned")
            assert fast_d == slow_d

    def test_never_prunes_a_corrupting_site(self, campaign):
        """On the real sweep every fault reaches the product, so pruning
        must not drop anything -- and in general a pruned site can never
        be one the full simulation shows corrupting products."""
        pruned = campaign.run(prune=True)
        for site in pruned.sites:
            if site.pruned:
                assert site.corrupted_ops == 0

    def test_reach_mask_respects_port_subset(self, dangling_arch):
        from repro.timing import CompiledCircuit

        arch, dangle1, dangle2_cell = dangling_arch
        circuit = CompiledCircuit(arch.netlist)
        masks = circuit.output_reach_mask()
        lsb = arch.netlist.output_ports["p"].nets[0]
        assert masks[lsb] != 0
        assert masks[dangle1] == 0
        assert circuit.reaches_outputs(lsb)
        assert not circuit.reaches_outputs(dangle1)


class TestSerialization:
    def test_site_report_round_trip(self, serial_result):
        for site in serial_result.sites:
            clone = type(site).from_dict(site.to_dict())
            assert clone == site

    def test_malformed_payload_rejected(self):
        from repro.faults.campaign import SiteReport

        with pytest.raises(FaultError):
            SiteReport.from_dict({"label": "x"})

    def test_campaign_result_serializes(self, serial_result):
        from repro.analysis.serialize import to_json

        data = serial_result.to_dict()
        assert data["sites_total"] == serial_result.num_sites
        assert len(data["sites"]) == serial_result.num_sites
        json.loads(to_json(serial_result))
        json.loads(to_json(serial_result, summary_only=True))


class TestCli:
    def test_run_and_resume(self, tmp_path, capsys):
        from repro.faults.cli import main

        path = str(tmp_path / "cp.jsonl")
        args = [
            "run", "--width", "4", "--sites", "8", "--patterns", "80",
            "--characterize-patterns", "200", "--quiet",
            "--checkpoint", path,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "8/8 sites" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "resumed 8" in second
        assert os.path.exists(path)

    def test_listing_without_command(self, capsys):
        from repro.faults.cli import main

        assert main([]) == 0
        assert "run" in capsys.readouterr().out
