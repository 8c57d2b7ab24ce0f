"""Worker-crash degradation of the one local process pool.

:class:`~repro.distrib.pool.LocalPool` runs every local parallel path
(suites, campaigns, Monte Carlo, the service backend).  A worker that
calls ``os._exit`` breaks the whole executor; the pool rebuilds it,
resubmits the survivors, isolates a repeat crasher and hands it back as
a crash envelope.  The drivers then turn that envelope into a typed
error after every other unit of work is recorded, and no worker process
outlives the run.

Crashes are injected by monkeypatching before the pool forks, so the
workers inherit the patched function.
"""

import multiprocessing
import os

import pytest

from repro.distrib.pool import LocalPool, local_worker
from repro.distrib.worker import handle_request
from repro.errors import CampaignInterrupted, DistribError, FaultError
from repro.faults import CheckpointStore, InjectionCampaign
from repro.faults.campaign import campaign_from_spec
from repro.montecarlo import runner
from repro.montecarlo.spec import MonteCarloSpec

CAMPAIGN_SPEC = {
    "width": 4,
    "kind": "column",
    "sites": 6,
    "patterns": 80,
    "characterize_patterns": 80,
    "seed": 7,
    "years": 0.0,
}

#: A query job that asks its worker to die.
CRASH_QUERY = {
    "job": "query",
    "inject": "crash",
    "query": {
        "width": 4,
        "kind": "column",
        "years": [0.0],
        "num_patterns": 40,
        "seed": 1,
        "cycle_ns": None,
    },
    "context": {"characterize_patterns": 80},
}


def _no_children() -> bool:
    return not multiprocessing.active_children()


class TestLocalPool:
    def test_submit_crash_returns_envelope_and_rebuilds(self):
        with LocalPool(1, testing_hooks=True) as pool:
            crashed = pool.submit(CRASH_QUERY)
            assert crashed["ok"] is False and crashed["crash"] is True
            assert "worker process died" in crashed["error"]
            assert pool.submit({"job": "ping"})["ok"] is True
            assert pool.crashes == 1
        assert _no_children()

    def test_map_isolates_the_crasher(self):
        requests = [{"job": "ping"}, CRASH_QUERY, {"job": "ping"}]
        with LocalPool(2, testing_hooks=True) as pool:
            responses = pool.map(requests)
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["crash"] is True
        assert _no_children()


class TestInjectStaysLocal:
    """Only a LocalPool built with testing hooks honours ``inject``."""

    def test_local_worker_without_hooks_ignores_crash(self):
        envelope = local_worker(CRASH_QUERY)
        assert envelope["ok"] is True
        assert len(envelope["result"]["records"]) == 1

    def test_tcp_daemon_ignores_crash(self):
        response, keep_serving = handle_request(dict(CRASH_QUERY))
        assert response["ok"] is True and keep_serving


class TestCampaignDegradation:
    def test_crashing_site_is_typed_and_others_checkpointed(
        self, tmp_path, monkeypatch
    ):
        campaign = campaign_from_spec(CAMPAIGN_SPEC)
        victim = campaign.site_ids[2]
        original = InjectionCampaign.run_site

        def crashing(self, fault, site_id=""):
            if site_id == victim:
                os._exit(3)
            return original(self, fault, site_id)

        monkeypatch.setattr(InjectionCampaign, "run_site", crashing)
        path = str(tmp_path / "cp.jsonl")
        with pytest.raises((DistribError, FaultError)) as info:
            campaign.run(workers=2, checkpoint=path, prune=False)
        assert "worker process died" in str(info.value)
        saved = CheckpointStore(path).load(campaign.fingerprint())
        assert set(saved) == set(campaign.site_ids) - {victim}
        assert _no_children()

    def test_interrupt_flushes_checkpoint_without_orphans(self, tmp_path):
        campaign = campaign_from_spec(CAMPAIGN_SPEC)
        path = str(tmp_path / "cp.jsonl")

        def bomb(report, completed, total):
            if completed >= 3:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as info:
            campaign.run(
                workers=2, checkpoint=path, prune=False, progress=bomb
            )
        assert info.value.completed == 3
        saved = CheckpointStore(path).load(campaign.fingerprint())
        assert len(saved) == 3
        assert _no_children()


class TestMonteCarloDegradation:
    def test_crashing_shard_is_typed(self, monkeypatch):
        spec = MonteCarloSpec(
            num_dies=12,
            num_patterns=48,
            die_chunk=6,
            years=(0.0, 3.0),
            clock_fractions=(0.9, 1.0),
        )
        original = runner.price_population

        def crashing(*args, die_range=None, **kwargs):
            if die_range is not None and die_range[0] == 6:
                os._exit(3)
            return original(*args, die_range=die_range, **kwargs)

        monkeypatch.setattr(runner, "price_population", crashing)
        with pytest.raises(DistribError, match="worker process died"):
            runner.run_montecarlo(
                spec, width=4, kind="column", jobs=2,
                characterize_patterns=80,
            )
        assert _no_children()
