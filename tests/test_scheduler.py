"""Suite planner/runner: plans, parallel identity, warm-store reuse."""

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    REGISTRY,
    ArtifactStore,
    Resources,
    plan_suite,
    run_suite,
)
from repro.experiments.context import ExperimentContext
from repro.experiments.scheduler import _spec_weight

#: Cheap experiment subset used by the run_suite tests (16-bit designs,
#: modest pattern counts).
SUBSET = ("fig06", "fig07")
SCALE = 0.05
CHAR_PATTERNS = 300


class TestResources:
    def test_every_spec_declares_coherent_resources(self):
        for spec in REGISTRY.values():
            resources = spec.resources
            assert isinstance(resources, Resources)
            for width, kind in resources.designs + resources.netlists:
                assert width in (8, 16, 32)
                assert kind in ("am", "column", "row")
            for width in resources.streams:
                assert width in (8, 16, 32)
            # Designs imply their netlists exactly once.
            all_nets = resources.all_netlists()
            assert len(set(all_nets)) == len(all_nets)
            assert set(resources.designs) <= set(all_nets)

    def test_validation_rejects_bad_pairs(self):
        with pytest.raises(ConfigError):
            Resources(designs=((0, "column"),))
        with pytest.raises(ConfigError):
            Resources(designs=((16, 3),))


class TestPlanSuite:
    def test_dedup_and_widest_first(self):
        plan = plan_suite(["fig26", "fig27", "fig07"])
        # Each design appears once, 32-bit designs lead.
        assert len(set(plan.warmup_designs)) == len(plan.warmup_designs)
        widths = [width for width, _ in plan.warmup_designs]
        assert widths == sorted(widths, reverse=True)
        assert plan.names == ("fig26", "fig27", "fig07")

    def test_netlists_not_duplicated_as_designs(self):
        plan = plan_suite(list(REGISTRY))
        overlap = set(plan.warmup_designs) & set(plan.warmup_netlists)
        assert not overlap

    def test_unknown_name_rejected_with_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean"):
            plan_suite(["fig06", "ext_fault"])

    def test_spec_weight_prefers_wide_designs(self):
        assert _spec_weight("fig27") < _spec_weight("fig06")


class TestRunSuiteSerial:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
        )

    def test_entries_in_request_order(self, serial):
        assert [entry.name for entry in serial.entries] == list(SUBSET)
        for entry in serial.entries:
            assert entry.rendered
            assert entry.elapsed >= 0
            assert entry.result is not None

    def test_render_accounting(self, serial):
        text = serial.render()
        assert "suite: 2 experiments, jobs=1" in text
        for name in SUBSET:
            assert name in text

    def test_rendered_by_name(self, serial):
        rendered = serial.rendered_by_name()
        assert set(rendered) == set(SUBSET)

    def test_entry_lookup(self, serial):
        assert serial.entry("fig06").name == "fig06"
        with pytest.raises(ConfigError):
            serial.entry("fig99")

    def test_explicit_context_reused(self):
        ctx = ExperimentContext(
            scale=SCALE, characterize_patterns=CHAR_PATTERNS
        )
        result = run_suite(names=["fig07"], context=ctx)
        assert result.entries[0].rendered
        # The context kept its caches (the suite ran inside it).
        assert ctx._factories

    def test_on_result_streams_in_order(self):
        seen = []
        run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            on_result=lambda entry: seen.append(entry.name),
        )
        assert seen == list(SUBSET)


class TestRunSuiteValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_suite(names=["fig06"], jobs=0)

    def test_context_forces_serial(self):
        ctx = ExperimentContext(scale=SCALE)
        with pytest.raises(ConfigError):
            run_suite(names=SUBSET, jobs=2, context=ctx)


class TestStoreBackedRuns:
    def test_warm_rerun_hits_store_and_matches(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            store=ArtifactStore(store_dir),
        )
        warm = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            store=ArtifactStore(store_dir),
        )
        assert cold.rendered_by_name() == warm.rendered_by_name()
        totals = {"hits": 0, "misses": 0, "writes": 0}
        for kind, stats in warm.store_counters.items():
            for name in totals:
                totals[name] += stats.get(name, 0)
        assert totals["hits"] > 0
        assert totals["misses"] == 0
        assert totals["writes"] == 0
        # Cold run wrote everything the warm run hit.
        assert cold.store_counters["stress"]["writes"] > 0

    def test_store_accepts_path_string(self, tmp_path):
        result = run_suite(
            names=["fig07"],
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            store=str(tmp_path / "store"),
        )
        assert result.store_dir == str(tmp_path / "store")
        assert result.total_hits() >= 0


class TestRunSuiteParallel:
    def test_parallel_matches_serial_bytes(self, tmp_path):
        serial = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
        )
        parallel = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            jobs=2,
            store=ArtifactStore(str(tmp_path / "store")),
        )
        assert parallel.jobs == 2
        assert serial.rendered_by_name() == parallel.rendered_by_name()
        assert [e.name for e in parallel.entries] == list(SUBSET)
        # Workers return rendered text only.
        assert all(e.result is None for e in parallel.entries)

    def test_parallel_without_store_uses_temp(self):
        seen = []
        result = run_suite(
            names=SUBSET,
            scale=SCALE,
            characterize_patterns=CHAR_PATTERNS,
            jobs=2,
            on_result=lambda entry: seen.append(entry.name),
        )
        assert result.store_dir is None  # no store was given
        assert seen == list(SUBSET)  # emission stays in request order

    def test_jobs_and_pool_together_rejected(self):
        from repro.distrib.pool import LocalPool

        with LocalPool(1) as pool, pytest.raises(ConfigError):
            run_suite(names=SUBSET, jobs=2, pool=pool)

    def test_pooled_runs_share_the_store(self, tmp_path):
        """Pooled workers open the run's store and report their counter
        deltas back: a second pooled run is served from the store."""
        from repro.distrib.pool import LocalPool
        from repro.experiments.store import delta_totals

        store_dir = str(tmp_path / "store")
        runs = []
        for _ in range(2):
            with LocalPool(2) as pool:
                runs.append(run_suite(
                    names=SUBSET,
                    scale=SCALE,
                    characterize_patterns=CHAR_PATTERNS,
                    store=ArtifactStore(store_dir),
                    pool=pool,
                ))
        cold, warm = runs
        assert cold.store_dir == warm.store_dir == store_dir
        assert delta_totals(cold.store_counters)["writes"] > 0
        totals = delta_totals(warm.store_counters)
        assert totals["misses"] == 0 and totals["hits"] > 0
        assert cold.rendered_by_name() == warm.rendered_by_name()
