"""``python -m repro experiments`` command-line surface."""

import glob
import json
import os

import pytest

from repro.experiments.cli import main

#: Cheap flags shared by every run test (16-bit experiments, few
#: patterns).  The CLI has no characterize-patterns knob, so runs here
#: still pay one 2000-pattern characterization per design -- keep the
#: touched designs small and few.
RUN = ["--scale", "0.02"]


class TestListing:
    def test_no_args_lists_everything(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "available experiments:" in out
        for name in ("fig05", "fig27", "ext_faults", "claims"):
            assert name in out

    def test_tag_filters_listing(self, capsys):
        assert main(["--tag", "extension"]) == 0
        out = capsys.readouterr().out
        assert "ext_em" in out
        assert "fig05" not in out


class TestErrors:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_typo_gets_did_you_mean(self, capsys):
        assert main(["ext_fault"]) == 2
        assert "did you mean 'ext_faults'" in capsys.readouterr().err

    def test_typo_in_comma_list_fails_fast(self, capsys):
        assert main(["fig06,fig98"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, capsys):
        assert main(["fig06", "--jobs", "0"] + RUN) == 2
        assert "jobs" in capsys.readouterr().err


class TestSingleRun:
    def test_run_one_experiment(self, capsys):
        assert main(["fig06"] + RUN) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "=" * 72 in out
        # Suite accounting trailer.
        assert "suite: 1 experiments, jobs=1" in out

    def test_comma_separated_runs_both(self, capsys):
        assert main(["fig06,fig07"] + RUN) == 0
        out = capsys.readouterr().out
        assert out.index("fig06") < out.index("fig07")
        assert "suite: 2 experiments" in out


class TestArtifacts:
    def test_report_written(self, tmp_path, capsys):
        report = str(tmp_path / "report.md")
        assert main(["fig06", "--report", report] + RUN) == 0
        text = open(report, encoding="utf-8").read()
        assert "fig06" in text
        assert "suite accounting" in text

    def test_dump_rendered_is_canonical_json(self, tmp_path, capsys):
        dump = str(tmp_path / "rendered.json")
        assert main(["fig06", "--dump-rendered", dump] + RUN) == 0
        rendered = json.load(open(dump, encoding="utf-8"))
        assert set(rendered) == {"fig06"}
        assert rendered["fig06"].strip()


class TestStoreFlags:
    def test_warm_rerun_matches_and_hits(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        cold_dump = str(tmp_path / "cold.json")
        warm_dump = str(tmp_path / "warm.json")
        assert (
            main(["fig06", "--store", store, "--dump-rendered", cold_dump]
                 + RUN) == 0
        )
        capsys.readouterr()
        assert (
            main(["fig06", "--store", store, "--dump-rendered", warm_dump]
                 + RUN) == 0
        )
        out = capsys.readouterr().out
        assert json.load(open(cold_dump)) == json.load(open(warm_dump))
        assert "store: %s" % store in out
        assert glob.glob(os.path.join(store, "manifest-*.jsonl"))

    def test_cold_clears_the_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["fig06", "--store", store] + RUN) == 0
        shards = sorted(glob.glob(os.path.join(store, "manifest-*.jsonl")))
        assert shards
        before = max(os.path.getmtime(path) for path in shards)
        assert main(["fig06", "--store", store, "--cold"] + RUN) == 0
        # The manifest was rebuilt from scratch, not appended.
        shards = sorted(glob.glob(os.path.join(store, "manifest-*.jsonl")))
        records = [
            json.loads(line)
            for path in shards
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert max(os.path.getmtime(path) for path in shards) >= before
        assert all(r["kind"] in ("netlist", "stress", "stream")
                   for r in records)


class TestParallelFlag:
    def test_jobs_matches_serial_bytes(self, tmp_path, capsys):
        serial_dump = str(tmp_path / "serial.json")
        parallel_dump = str(tmp_path / "parallel.json")
        assert (
            main(["fig06,fig07", "--dump-rendered", serial_dump] + RUN)
            == 0
        )
        assert (
            main(
                ["fig06,fig07", "--jobs", "2", "--store",
                 str(tmp_path / "store"), "--dump-rendered",
                 parallel_dump] + RUN
            ) == 0
        )
        out = capsys.readouterr().out
        assert json.load(open(serial_dump)) == json.load(open(parallel_dump))
        assert "jobs=2" in out
