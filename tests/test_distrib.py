"""Distributed campaign execution (repro.distrib).

The contract under test is byte-identity: any pool transport (local
process pool, TCP workers) and any sharding must merge
to exactly the serial result -- sorted JSON and rendered text alike.
The suite exercises both transports end-to-end (TCP against real
in-process servers), the JSON job protocol, and the merge validators
(fingerprint mismatch, incomplete coverage, non-contiguous tiling).
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.distrib.jobs import JOB_KINDS, clear_state_cache, run_job
from repro.distrib.pool import (
    LocalPool,
    TcpPool,
    WorkerPool,
    local_worker,
    parse_pool_spec,
    run_campaign_pooled,
    run_mc_pooled,
    run_suite_pooled,
)
from repro.distrib.worker import WorkerServer
from repro.errors import ConfigError, DistribError, FaultError
from repro.experiments.scheduler import shard_ranges
from repro.faults.campaign import (
    campaign_from_spec,
    merge_campaign_shards,
)
from repro.montecarlo.runner import (
    mc_job_spec,
    merge_mc_shards,
    run_mc_shard,
)
from repro.montecarlo.spec import MonteCarloSpec

#: One small campaign every test shares (6 sites x 80 patterns on the
#: 4-bit column-bypass design keeps each full sweep around a second).
CAMPAIGN_SPEC = {
    "width": 4,
    "kind": "column",
    "sites": 6,
    "patterns": 80,
    "characterize_patterns": 80,
    "seed": 7,
    "years": 0.0,
}

MC_SPEC = MonteCarloSpec(
    num_dies=12,
    num_patterns=48,
    die_chunk=6,
    years=(0.0, 3.0),
    clock_fractions=(0.9, 1.0),
)


def _campaign_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def serial_campaign():
    """The single-host reference result (and its sorted JSON)."""
    result = campaign_from_spec(CAMPAIGN_SPEC).run()
    return result, _campaign_json(result)


@pytest.fixture(scope="module")
def mc_job():
    return mc_job_spec(MC_SPEC, 4, "column", None, characterize_patterns=80)


@pytest.fixture(scope="module")
def mc_serial_shard(mc_job):
    """The whole population priced as one shard -- the merge reference."""
    return run_mc_shard(mc_job, (0, MC_SPEC.num_dies))


class TestParsePoolSpec:
    def test_local(self):
        pool = parse_pool_spec("local:3")
        assert isinstance(pool, LocalPool) and pool.size == 3

    def test_tcp(self):
        pool = parse_pool_spec("tcp:hostA:9100,hostB:9101")
        assert isinstance(pool, TcpPool)
        assert pool.addresses == [("hostA", 9100), ("hostB", 9101)]
        assert pool.size == 2

    def test_manifest(self, tmp_path):
        # The two-phase manifest pool is gone: its spec is a typed
        # configuration error, not a pool.
        with pytest.raises(ConfigError, match="unknown pool scheme"):
            parse_pool_spec("manifest:%s" % tmp_path)
        assert not os.listdir(str(tmp_path))

    def test_manifest_with_shards(self, tmp_path):
        with pytest.raises(ConfigError, match="known schemes: local, tcp"):
            parse_pool_spec("manifest:%s:5" % tmp_path)

    def test_unknown_scheme_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'local'"):
            parse_pool_spec("locl:4")

    @pytest.mark.parametrize(
        "bad", ["local:abc", "tcp:hostonly", "tcp:h:xyz", "manifest:"]
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_pool_spec(bad)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError):
            parse_pool_spec("local:0")


class TestRunJob:
    def test_ping(self):
        assert run_job({"job": "ping"}) == {"pong": True}

    def test_unknown_kind_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'mc_shard'"):
            run_job({"job": "mc_sard"})
        with pytest.raises(ConfigError, match=", ".join(JOB_KINDS)):
            run_job({"job": "bogus"})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            run_job(["not", "a", "dict"])

    def test_fault_sites_validation(self):
        with pytest.raises(ConfigError, match="'spec' dict"):
            run_job({"job": "fault_sites", "sites": [0]})
        with pytest.raises(ConfigError, match="'sites' list"):
            run_job({"job": "fault_sites", "spec": dict(CAMPAIGN_SPEC)})
        with pytest.raises(ConfigError, match="outside"):
            run_job(
                {
                    "job": "fault_sites",
                    "spec": dict(CAMPAIGN_SPEC),
                    "sites": [999],
                }
            )

    def test_fault_sites_reports(self, serial_campaign):
        serial, _ = serial_campaign
        result = run_job(
            {
                "job": "fault_sites",
                "spec": dict(CAMPAIGN_SPEC),
                "sites": [0, 2],
            }
        )
        reports = {index: data for index, data in result["reports"]}
        assert set(reports) == {0, 2}
        # Checkpoint-compatible payloads, identical to the serial run's.
        assert reports[0] == serial.sites[0].to_dict()
        assert reports[2] == serial.sites[2].to_dict()

    def test_state_cached_per_spec(self):
        clear_state_cache()
        run_job(
            {
                "job": "fault_sites",
                "spec": dict(CAMPAIGN_SPEC),
                "sites": [0],
            }
        )
        from repro.distrib import jobs

        before = len(jobs._STATE_CACHE)
        run_job(
            {
                "job": "fault_sites",
                "spec": dict(CAMPAIGN_SPEC),
                "sites": [1],
            }
        )
        assert len(jobs._STATE_CACHE) == before

    def test_local_worker_envelopes_errors(self):
        envelope = local_worker({"job": "bogus"})
        assert envelope["ok"] is False
        assert "bogus" in envelope["error"]
        ok = local_worker({"job": "ping"})
        assert ok == {"ok": True, "result": {"pong": True}}


class TestCampaignSharding:
    def test_site_range_scopes_result(self):
        campaign = campaign_from_spec(CAMPAIGN_SPEC)
        partial = campaign.run(site_range=(2, 5))
        assert partial.requested_sites == 3
        assert partial.num_sites == 3

    def test_bad_site_range_rejected(self):
        campaign = campaign_from_spec(CAMPAIGN_SPEC)
        with pytest.raises(FaultError, match="site_range"):
            campaign.run(site_range=(4, 99))

    def test_shard_merge_byte_identical(self, tmp_path, serial_campaign):
        _, expected = serial_campaign
        total = len(campaign_from_spec(CAMPAIGN_SPEC).faults)
        paths = []
        for i, rng in enumerate(shard_ranges(total, 2)):
            path = str(tmp_path / ("shard%d.jsonl" % i))
            campaign_from_spec(CAMPAIGN_SPEC).run(
                site_range=rng, checkpoint=path
            )
            paths.append(path)
        merged = merge_campaign_shards(
            campaign_from_spec(CAMPAIGN_SPEC), paths
        )
        assert _campaign_json(merged) == expected

    def test_merge_missing_shard_rejected(self, tmp_path):
        campaign = campaign_from_spec(CAMPAIGN_SPEC)
        path = str(tmp_path / "only.jsonl")
        campaign_from_spec(CAMPAIGN_SPEC).run(
            site_range=(0, 2), checkpoint=path
        )
        with pytest.raises(FaultError, match="incomplete"):
            merge_campaign_shards(campaign, [path])
        with pytest.raises(FaultError, match="no shard checkpoints"):
            merge_campaign_shards(campaign, [])

    def test_merge_foreign_checkpoint_rejected(self, tmp_path):
        from repro.errors import CheckpointError

        other = dict(CAMPAIGN_SPEC, seed=8)
        path = str(tmp_path / "foreign.jsonl")
        campaign_from_spec(other).run(site_range=(0, 2), checkpoint=path)
        with pytest.raises(CheckpointError):
            merge_campaign_shards(campaign_from_spec(CAMPAIGN_SPEC), [path])

    def test_pool_requires_spec(self):
        from repro.faults.campaign import InjectionCampaign

        built = campaign_from_spec(CAMPAIGN_SPEC)
        campaign = InjectionCampaign(
            built.architecture, built.faults, num_patterns=80, seed=7
        )
        with pytest.raises(FaultError, match="spec"):
            campaign.run(pool=LocalPool(1))

    def test_local_pool_byte_identical(self, serial_campaign):
        _, expected = serial_campaign
        with LocalPool(2) as pool:
            pooled = campaign_from_spec(CAMPAIGN_SPEC).run(pool=pool)
        assert _campaign_json(pooled) == expected


class TestMonteCarloSharding:
    def test_shard_merge_byte_identical(self, mc_job, mc_serial_shard):
        from repro.analysis.serialize import to_json
        from repro.montecarlo.runner import run_montecarlo

        serial = run_montecarlo(
            MC_SPEC, width=4, kind="column", characterize_patterns=80
        )
        shards = [
            run_mc_shard(mc_job, rng)
            for rng in shard_ranges(MC_SPEC.num_dies, 3)
        ]
        # JSON round trip (what --shard-json files go through).
        shards = json.loads(json.dumps(shards))
        merged = merge_mc_shards(mc_job, list(reversed(shards)))
        assert to_json(merged, indent=2) == to_json(serial, indent=2)

    def test_single_shard_merges(self, mc_job, mc_serial_shard):
        merged = merge_mc_shards(mc_job, [mc_serial_shard])
        assert merged.num_dies == MC_SPEC.num_dies

    def test_fingerprint_mismatch_rejected(self, mc_job, mc_serial_shard):
        other = dict(mc_job, width=8)
        with pytest.raises(ConfigError, match="fingerprint"):
            merge_mc_shards(other, [mc_serial_shard])

    def test_gap_in_tiling_rejected(self, mc_job):
        shards = [
            run_mc_shard(mc_job, (0, 4)),
            run_mc_shard(mc_job, (8, MC_SPEC.num_dies)),
        ]
        with pytest.raises(ConfigError):
            merge_mc_shards(mc_job, shards)

    def test_bad_die_range_rejected(self, mc_job):
        with pytest.raises(ConfigError, match="die_range"):
            run_mc_shard(mc_job, (5, 400))

    def test_local_pool_matches_shards(self, mc_job, mc_serial_shard):
        with LocalPool(2) as pool:
            payloads = run_mc_pooled(
                pool, mc_job, shard_ranges(MC_SPEC.num_dies, 2)
            )
        merged = merge_mc_shards(mc_job, payloads)
        reference = merge_mc_shards(mc_job, [mc_serial_shard])
        from repro.analysis.serialize import to_json

        assert to_json(merged, indent=2) == to_json(reference, indent=2)


@pytest.fixture()
def tcp_servers():
    """Two real WorkerServers on ephemeral ports, in-process."""
    servers, threads = [], []
    for _ in range(2):
        server = WorkerServer("127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_until_shutdown, daemon=True
        )
        thread.start()
        servers.append(server)
        threads.append(thread)
    yield [("127.0.0.1", server.port) for server in servers]
    for server in servers:
        server.shutdown()
        server.server_close()
    for thread in threads:
        thread.join(timeout=5)


class TestTcpTransport:
    def test_ping_round_trip(self, tcp_servers):
        response = TcpPool.call(tcp_servers[0], {"op": "ping"})
        assert response["ok"] and response["result"] == {"pong": True}
        assert response["protocol"] == "repro-distrib"

    def test_job_error_comes_back_enveloped(self, tcp_servers):
        response = TcpPool.call(tcp_servers[0], {"job": "bogus"})
        assert response["ok"] is False and "bogus" in response["error"]

    def test_malformed_line_survives_connection(self, tcp_servers):
        import socket

        host, port = tcp_servers[0]
        with socket.create_connection((host, port), timeout=10) as conn:
            conn.sendall(b"this is not json\n")
            with conn.makefile("rb") as stream:
                first = json.loads(stream.readline())
                assert first["ok"] is False
                # The connection is still serviceable afterwards.
                conn.sendall(b'{"op": "ping"}\n')
                second = json.loads(stream.readline())
                assert second["ok"] is True

    def test_campaign_byte_identical(self, tcp_servers, serial_campaign):
        _, expected = serial_campaign
        pool = TcpPool(tcp_servers)
        pooled = campaign_from_spec(CAMPAIGN_SPEC).run(pool=pool)
        assert _campaign_json(pooled) == expected

    def test_unreachable_worker_is_typed(self):
        pool = TcpPool([("127.0.0.1", 1)])  # nothing listens on port 1
        with pytest.raises(DistribError, match="unreachable"):
            pool.map([{"op": "ping"}])


class TestSuitePooled:
    def test_errors_degrade_not_raise(self):
        class OneShotPool(WorkerPool):
            size = 1

            def map(self, requests):
                return [local_worker(request) for request in requests]

        responses = dict(run_suite_pooled(
            OneShotPool(),
            [
                {"job": "ping"},
                {"job": "experiment", "name": "no-such-experiment"},
            ],
        ))
        assert responses[0] == {"pong": True}
        assert "error" in responses[1]


class TestLegacyKernelKey:
    def test_soa_accepted_everything_else_rejected(self):
        """Specs from before the single gate kernel carry
        ``"kernel": "soa"``: sweep payloads keep emitting it (their
        digests depend on the bytes), every JSON entry point accepts
        it, and any other kernel name is a ConfigError."""
        from repro.experiments.sweep import (
            SweepSpec,
            render_payload,
            sweep_payload,
        )
        from repro.faults.campaign import campaign_from_spec
        from repro.montecarlo.runner import merge_mc_shards, run_mc_shard

        spec = SweepSpec(num_variants=3)
        data = spec.to_dict()
        assert data["kernel"] == "soa"
        assert '"kernel": "soa"' in render_payload(sweep_payload(spec, []))
        assert SweepSpec.from_dict(data) == spec
        assert run_job({"job": "ping", "kernel": "soa"}) == {"pong": True}

        for kernel in ("numba", "percell"):
            with pytest.raises(ConfigError):
                SweepSpec.from_dict(dict(data, kernel=kernel))
            with pytest.raises(ConfigError):
                campaign_from_spec({"width": 4, "kernel": kernel})
            with pytest.raises(ConfigError):
                run_mc_shard({"kernel": kernel}, (0, 1))
            with pytest.raises(ConfigError):
                merge_mc_shards({"kernel": kernel}, [])
            with pytest.raises(ConfigError):
                run_job({"job": "ping", "kernel": kernel})


class TestCliPlumbing:
    def test_faults_parser_accepts_distrib_flags(self):
        from repro.faults.cli import make_parser

        args = make_parser().parse_args(
            ["run", "--shard", "2/4", "--pool", "local:2"]
        )
        assert args.shard == (2, 4)
        assert args.pool == "local:2"

    def test_faults_parser_rejects_bad_shard(self, capsys):
        from repro.faults.cli import make_parser

        with pytest.raises(SystemExit):
            make_parser().parse_args(["run", "--shard", "3/2"])
        assert "shard must be I/N" in capsys.readouterr().err

    def test_mc_parser_accepts_distrib_flags(self):
        from repro.montecarlo.cli import make_parser

        args = make_parser().parse_args(
            ["--shard", "1/2", "--shard-json", "x.json",
             "--pool", "tcp:hostA:9100"]
        )
        assert args.shard == (1, 2)
        assert args.shard_json == "x.json"

    def test_mc_shard_needs_output_path(self):
        from repro.montecarlo import cli

        assert cli.main(["--shard", "1/2", "--dies", "4"]) == 2

    @pytest.mark.parametrize("argv", [
        ["experiments", "fig7"],
        ["faults", "run"],
        ["service", "serve", "--port", "0"],
        ["mc"],
        ["sweep"],
    ])
    def test_no_cli_takes_a_kernel_flag(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as err:
            main(argv + ["--kernel", "soa"])
        assert err.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_distrib_registered_in_top_level_cli(self):
        from repro.__main__ import COMMANDS

        assert "distrib" in COMMANDS
