"""Suite scheduler degradation: failed workers become error records.

A raising experiment or a worker killed mid-run used to abort the whole
parallel suite; now it degrades to a per-experiment error entry while
every other experiment completes, and the CLI surfaces the failures in
the accounting table and its exit status.

The injected specs live in :mod:`repro.experiments._testing`; setting
``REPRO_TEST_EXPERIMENTS`` makes worker processes register them too
(the registry hook fires on import in each spawned worker).
"""

import pytest

from repro.experiments import cli as experiments_cli
from repro.experiments._testing import register_test_experiments
from repro.experiments.scheduler import run_suite


@pytest.fixture(autouse=True)
def test_specs(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_EXPERIMENTS", "1")
    register_test_experiments()


class TestRaisingSpec:
    def test_error_recorded_others_complete(self):
        suite = run_suite(
            names=["_test_ok", "_test_raise", "_test_slow"], jobs=2,
        )
        assert [e.name for e in suite.failures()] == ["_test_raise"]
        entry = suite.entry("_test_raise")
        assert entry.error == "RuntimeError: injected failure"
        assert entry.rendered.startswith("ERROR:")
        assert suite.entry("_test_ok").error is None
        assert suite.entry("_test_ok").rendered == "test experiment ok"
        assert suite.entry("_test_slow").error is None

    def test_failures_surface_in_accounting_table(self):
        suite = run_suite(names=["_test_ok", "_test_raise"], jobs=2)
        rendered = suite.render()
        assert "failed: 1 of 2 experiments" in rendered
        assert "_test_raise -- RuntimeError: injected failure" in rendered

    def test_on_result_emits_error_entries_in_request_order(self):
        seen = []
        run_suite(
            names=["_test_slow", "_test_raise", "_test_ok"], jobs=2,
            on_result=lambda entry: seen.append(entry.name),
        )
        assert seen == ["_test_slow", "_test_raise", "_test_ok"]


class TestCrashingSpec:
    def test_killed_worker_degrades_to_error_record(self):
        """Acceptance: an os._exit worker breaks the pool; the pool is
        rebuilt, innocents complete, the crasher becomes a typed error
        record."""
        suite = run_suite(
            names=["_test_slow", "_test_crash", "_test_ok"], jobs=2,
        )
        assert [e.name for e in suite.failures()] == ["_test_crash"]
        assert "worker process died" in suite.entry("_test_crash").error
        assert suite.entry("_test_slow").rendered == "test experiment ok"
        assert suite.entry("_test_ok").rendered == "test experiment ok"

    def test_all_entries_present_and_ordered(self):
        names = ["_test_ok", "_test_crash", "_test_slow"]
        suite = run_suite(names=names, jobs=2)
        assert [e.name for e in suite.entries] == names
        assert all(e is not None for e in suite.entries)


class TestCliExitCodes:
    def test_failed_suite_exits_1(self, capsys):
        rc = experiments_cli.main(["_test_ok,_test_raise", "--jobs", "2"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "failed: 1 of 2 experiments" in out

    def test_clean_suite_exits_0(self, capsys):
        rc = experiments_cli.main(["_test_ok,_test_slow", "--jobs", "2"])
        assert rc == 0
        assert "failed:" not in capsys.readouterr().out
