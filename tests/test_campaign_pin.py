"""Campaign bytes pinned across execution-path changes.

``tests/data/campaign_pin*`` were recorded by the per-site
compile-and-run campaign path (each site compiled with its fault and
simulated in full): an 8x8 column-bypass campaign of 24 sites over all
four fault kinds, 400 patterns, seed 3.  Whatever path prices the sites
now must write the same checkpoint bytes and keep the same campaign
fingerprint, so checkpoints written before the change stay valid and
resume without simulating anything.
"""

import json
import os
import shutil

import pytest

from repro.analysis.serialize import to_json
from repro.faults import InjectionCampaign, campaign_from_spec

DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(name, mode="r"):
    with open(os.path.join(DATA, name), mode) as stream:
        return stream.read()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(_read("campaign_pin_fingerprint.json"))


@pytest.fixture
def campaign(pinned):
    return campaign_from_spec(pinned["spec"])


def test_pinned_campaign_covers_every_fault_kind(campaign):
    kinds = {fault.kind for fault in campaign.faults}
    assert kinds == {"stuck-at-0", "stuck-at-1", "transient", "delay"}


def test_fingerprint_unchanged(campaign, pinned):
    assert json.loads(to_json(campaign.fingerprint())) == (
        pinned["fingerprint"]
    )


def test_checkpoint_bytes_unchanged(campaign, tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    result = campaign.run(checkpoint=path)
    assert result.simulated_sites == len(campaign.faults)
    with open(path, "rb") as stream:
        assert stream.read() == _read("campaign_pin.jsonl", "rb")
    assert to_json(result.to_dict()) + "\n" == _read(
        "campaign_pin_result.json"
    )


def test_resuming_recorded_checkpoint_simulates_nothing(
    campaign, tmp_path, monkeypatch
):
    path = str(tmp_path / "campaign.jsonl")
    shutil.copy(os.path.join(DATA, "campaign_pin.jsonl"), path)

    def no_site(*args, **kwargs):
        raise AssertionError("a recorded site was simulated again")

    monkeypatch.setattr(InjectionCampaign, "site_stream", no_site)
    result = campaign.run(checkpoint=path)
    assert result.resumed_sites == len(campaign.faults)
    assert result.simulated_sites == 0
    recorded = json.loads(_read("campaign_pin_result.json"))
    assert json.loads(to_json(result.to_dict()))["sites"] == (
        recorded["sites"]
    )
    with open(path, "rb") as stream:
        assert stream.read() == _read("campaign_pin.jsonl", "rb")
