"""repro.montecarlo: spec validation, sampler determinism, batched vs
naive pricing identity, shard/jobs/store byte-identity, analytics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.serialize import Summarizable, to_json
from repro.arith.reference import count_zeros
from repro.core.ahl import skip_candidates
from repro.errors import ConfigError
from repro.experiments.scheduler import shard_ranges
from repro.experiments.store import ArtifactStore
from repro.montecarlo import (
    CorrelatedVthSampler,
    MonteCarloResult,
    MonteCarloSpec,
    PopulationReductions,
    analyze_population,
    price_population,
    price_population_naive,
    run_montecarlo,
    suffix_max,
    tune_guardband,
    yield_for_skip,
)
from repro.timing.variation import (
    ProcessVariation,
    YieldReport,
    yield_analysis,
)
from repro.workloads.generators import uniform_operands

WIDTH = 4
SKIP = 1


@pytest.fixture(scope="module")
def spec():
    return MonteCarloSpec.from_overrides(
        num_dies=6,
        years=(0.0, 5.0),
        clock_fractions=(0.8, 1.0, 1.2),
        num_patterns=64,
        die_chunk=4,
        seed=7,
    )


@pytest.fixture(scope="module")
def priced(ctx, spec):
    """Factory + stream + batched reductions shared by the module."""
    factory = ctx.factory(WIDTH, "column")
    md, mr = uniform_operands(WIDTH, spec.num_patterns, spec.stream_seed)
    stimulus = {"md": md, "mr": mr}
    zeros = count_zeros(md, WIDTH)
    clock_ns = (0.6, 0.8, 1.0)
    sampler = CorrelatedVthSampler(len(factory.netlist.cells), spec)
    reductions = price_population(
        factory, sampler, spec, stimulus, zeros, WIDTH, SKIP, clock_ns
    )
    return {
        "factory": factory,
        "stimulus": stimulus,
        "zeros": zeros,
        "clock_ns": clock_ns,
        "sampler": sampler,
        "reductions": reductions,
    }


def _arrays_equal(a: PopulationReductions, b: PopulationReductions):
    for field in (
        "crit_ns", "bucket_max_ns", "one_violations", "one_deep",
        "deep_ops", "deep_cycles",
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestSpec:
    def test_unknown_field_did_you_mean(self):
        with pytest.raises(ConfigError, match="num_dies"):
            MonteCarloSpec.from_overrides(num_dise=5)

    def test_replace_validates_names(self, spec):
        with pytest.raises(ConfigError, match="seed"):
            spec.replace(sead=1)

    def test_replace_revalidates_values(self, spec):
        with pytest.raises(ConfigError):
            spec.replace(num_dies=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"num_dies": 0},
            {"sigma_global_v": -0.1},
            {"correlation_length": 0.0},
            {"max_shift_v": 0.0},
            {"years": ()},
            {"years": (5.0, 0.0)},
            {"years": (-1.0,)},
            {"clock_fractions": (1.0, 0.5)},
            {"clock_fractions": (0.0,)},
            {"num_patterns": 0},
            {"die_chunk": 0},
            {"target_yield": 0.0},
            {"target_yield": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            MonteCarloSpec.from_overrides(**bad)

    def test_fingerprint_ignores_die_chunk(self, spec):
        assert (
            spec.replace(die_chunk=1).fingerprint() == spec.fingerprint()
        )
        assert spec.replace(seed=8).fingerprint() != spec.fingerprint()
        json.dumps(spec.fingerprint())  # JSON-ready

    def test_stream_seed_offset(self, spec):
        assert spec.stream_seed != spec.seed


class TestSampler:
    def test_deterministic(self, spec):
        a = CorrelatedVthSampler(40, spec).sample(0, spec.num_dies)
        b = CorrelatedVthSampler(40, spec).sample(0, spec.num_dies)
        assert np.array_equal(a, b)

    def test_shard_invariant(self, spec):
        """Die d's shifts never depend on which shard samples it."""
        sampler = CorrelatedVthSampler(40, spec)
        whole = sampler.sample(0, spec.num_dies)
        parts = [
            sampler.sample(lo, hi)
            for lo, hi in shard_ranges(spec.num_dies, 3)
        ]
        assert np.array_equal(whole, np.concatenate(parts))
        assert np.array_equal(whole[2], sampler.sample_die(2))

    def test_seed_changes_population(self, spec):
        a = CorrelatedVthSampler(40, spec).sample(0, 4)
        b = CorrelatedVthSampler(40, spec.replace(seed=99)).sample(0, 4)
        assert not np.array_equal(a, b)

    def test_clipped_and_shaped(self, spec):
        shifts = CorrelatedVthSampler(40, spec).sample(0, 4)
        assert shifts.shape == (4, 40)
        assert np.all(np.abs(shifts) <= spec.max_shift_v)

    def test_dies_differ(self, spec):
        sampler = CorrelatedVthSampler(40, spec)
        assert not np.array_equal(
            sampler.sample_die(0), sampler.sample_die(1)
        )


class TestPricing:
    def test_batched_matches_naive(self, priced, spec):
        naive = price_population_naive(
            priced["factory"],
            priced["sampler"],
            spec,
            priced["stimulus"],
            priced["zeros"],
            WIDTH,
            SKIP,
            priced["clock_ns"],
        )
        _arrays_equal(priced["reductions"], naive)

    def test_chunking_invariant(self, priced, spec):
        """die_chunk batches work without changing a single bit."""
        rechunked = price_population(
            priced["factory"],
            priced["sampler"],
            spec.replace(die_chunk=1),
            priced["stimulus"],
            priced["zeros"],
            WIDTH,
            SKIP,
            priced["clock_ns"],
        )
        _arrays_equal(priced["reductions"], rechunked)

    def test_shard_concat_identity(self, priced, spec):
        shards = [
            price_population(
                priced["factory"],
                priced["sampler"],
                spec,
                priced["stimulus"],
                priced["zeros"],
                WIDTH,
                SKIP,
                priced["clock_ns"],
                die_range=(lo, hi),
            )
            for lo, hi in shard_ranges(spec.num_dies, 3)
        ]
        merged = PopulationReductions.concat(shards)
        _arrays_equal(priced["reductions"], merged)

    def test_bad_die_range_rejected(self, priced, spec):
        with pytest.raises(ConfigError):
            price_population(
                priced["factory"],
                priced["sampler"],
                spec,
                priced["stimulus"],
                priced["zeros"],
                WIDTH,
                SKIP,
                priced["clock_ns"],
                die_range=(0, spec.num_dies + 1),
            )

    def test_payload_round_trip(self, priced):
        red = priced["reductions"]
        back = PopulationReductions.from_payload(red.to_payload())
        assert back._meta() == red._meta()
        _arrays_equal(red, back)

    def test_store_round_trip(self, priced, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        red = priced["reductions"]
        key = {"probe": "population"}
        store.save("population", key, red.to_payload())
        back = PopulationReductions.from_payload(
            store.load("population", key)
        )
        assert back._meta() == red._meta()
        _arrays_equal(red, back)

    def test_concat_rejects_grid_mismatch(self, priced):
        red = priced["reductions"]
        other = PopulationReductions.from_payload(red.to_payload())
        other.__dict__["skip"] = SKIP + 1
        with pytest.raises(ConfigError):
            PopulationReductions.concat([red, other])


class TestAnalytics:
    def test_suffix_max(self):
        bucket = np.array([[[1.0, 3.0, 2.0, 0.0]]])
        assert np.array_equal(
            suffix_max(bucket), np.array([[[3.0, 3.0, 2.0, 0.0]]])
        )

    def test_yield_monotone_in_clock(self, priced, spec):
        """A longer period can only help timing yield."""
        surf = yield_for_skip(priced["reductions"], SKIP)
        assert surf.shape == (spec.num_years, len(priced["clock_ns"]))
        assert np.all(np.diff(surf, axis=1) >= 0.0)
        assert np.all((0.0 <= surf) & (surf <= 1.0))

    def test_yield_monotone_in_skip(self, priced):
        """Raising Skip-n only moves patterns from one to two cycles,
        so timing yield is non-decreasing in the skip threshold."""
        prev = yield_for_skip(priced["reductions"], 0)
        for skip in skip_candidates(WIDTH):
            cur = yield_for_skip(priced["reductions"], skip)
            assert np.all(cur >= prev)
            prev = cur

    def test_guardband_minimality(self, priced):
        red = priced["reductions"]
        skip_grid, yield_grid = tune_guardband(red, target_yield=0.5)
        for (j, c), skip in np.ndenumerate(skip_grid):
            if skip < 0:
                assert yield_grid[j, c] < 0.5
                continue
            assert yield_for_skip(red, int(skip))[j, c] >= 0.5
            if skip > 0:
                assert yield_for_skip(red, int(skip) - 1)[j, c] < 0.5

    def test_result_round_trip(self, priced, spec):
        result = analyze_population(priced["reductions"], spec, 1.0)
        assert isinstance(result, Summarizable)
        back = MonteCarloResult.from_dict(result.to_dict())
        assert back.to_dict() == result.to_dict()
        assert to_json(back) == to_json(result)
        summary = result.summary()
        assert summary["num_dies"] == spec.num_dies
        json.dumps(summary)


class TestRunner:
    def test_jobs_bit_identical(self, ctx):
        spec_kw = dict(width=WIDTH, kind="column", context=ctx)
        spec = MonteCarloSpec.from_overrides(
            num_dies=6,
            years=(0.0, 4.0),
            clock_fractions=(0.9, 1.1),
            num_patterns=48,
            die_chunk=2,
            seed=3,
        )
        serial = run_montecarlo(spec, jobs=1, **spec_kw)
        sharded = run_montecarlo(spec, jobs=2, **spec_kw)
        assert to_json(sharded) == to_json(serial)

    def test_store_warm_byte_identical(self, ctx, tmp_path):
        spec = MonteCarloSpec.from_overrides(
            num_dies=4,
            years=(0.0, 6.0),
            clock_fractions=(0.9, 1.1),
            num_patterns=48,
            die_chunk=3,
            seed=5,
        )
        kw = dict(
            width=WIDTH,
            kind="column",
            technology=ctx.technology,
            config=ctx.config,
            characterize_patterns=ctx.characterize_patterns,
        )
        cold = run_montecarlo(
            spec, store=str(tmp_path / "store"), **kw
        )
        store = ArtifactStore(str(tmp_path / "store"))
        warm = run_montecarlo(spec, store=store, **kw)
        assert to_json(warm) == to_json(cold)
        assert store.counters["population"]["hits"] == 1
        assert store.counters["population"]["writes"] == 0

    def test_rejects_bad_kind_and_jobs(self, ctx, spec):
        with pytest.raises(ConfigError):
            run_montecarlo(spec, kind="diagonal", context=ctx)
        with pytest.raises(ConfigError):
            run_montecarlo(spec, jobs=0, context=ctx)
        with pytest.raises(ConfigError):
            run_montecarlo(spec, width=WIDTH, skip=WIDTH, context=ctx)


class TestSkipCandidates:
    def test_legal_range(self):
        assert list(skip_candidates(4)) == [0, 1, 2, 3]

    def test_rejects_degenerate_width(self):
        with pytest.raises(ConfigError):
            skip_candidates(0)


class TestShardRanges:
    def test_partition(self):
        ranges = shard_ranges(10, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        assert sum(hi - lo for lo, hi in ranges) == 10
        assert all(
            ranges[i][1] == ranges[i + 1][0]
            for i in range(len(ranges) - 1)
        )

    def test_more_shards_than_items(self):
        assert shard_ranges(2, 5) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert shard_ranges(0, 4) == []


class TestUnifiedCLI:
    """python -m repro dispatch (the montecarlo-facing paths; the
    sub-CLIs have their own suites)."""

    def test_help_lists_commands(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        for command in ("experiments", "faults", "service", "mc"):
            assert command in out

    def test_unknown_command_did_you_mean(self, capsys):
        from repro.__main__ import main

        assert main(["experimets"]) == 2
        assert "'experiments'" in capsys.readouterr().err

    def test_mc_config_error_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["mc", "--dies", "0"]) == 2
        assert "num_dies" in capsys.readouterr().err

    def test_mc_end_to_end_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out_path = str(tmp_path / "mc.json")
        code = main([
            "mc", "--dies", "3", "--width", "4", "--years", "0,5",
            "--clocks", "0.9,1.1", "--patterns", "32", "--json", out_path,
        ])
        assert code == 0
        assert "Monte Carlo population" in capsys.readouterr().out
        with open(out_path) as fh:
            data = json.load(fh)
        assert data["num_dies"] == 3

    def test_legacy_shim_importable(self):
        """The sub-CLI modules the dispatcher imports keep their main()
        callables."""
        from repro.experiments.cli import main as experiments_main
        from repro.faults.cli import main as faults_main

        assert callable(experiments_main)
        assert callable(faults_main)


class TestYieldAnalysisSpec:
    """yield_analysis takes a MonteCarloSpec."""

    @pytest.fixture(scope="class")
    def arch(self):
        from repro.core.architecture import AgingAwareMultiplier

        return AgingAwareMultiplier.build(
            width=4, kind="column", characterize_patterns=300
        )

    def test_spec_path(self, arch):
        spec = MonteCarloSpec.from_overrides(
            num_dies=5, num_patterns=200, seed=31
        )
        report = yield_analysis(arch, spec)
        assert isinstance(report, YieldReport)
        assert report.num_dies == 5

    def test_from_spec_scales_sigmas(self):
        spec = MonteCarloSpec.from_overrides(
            sigma_global_v=0.02, sigma_spatial_v=0.0, sigma_random_v=0.0
        )
        variation = ProcessVariation.from_spec(spec)
        assert variation.sigma_global > 0.0
        assert variation.sigma_local == 0.0

    def test_yield_report_round_trip(self, arch):
        spec = MonteCarloSpec.from_overrides(
            num_dies=4, num_patterns=200, seed=31
        )
        report = yield_analysis(arch, spec)
        assert isinstance(report, Summarizable)
        back = YieldReport.from_dict(report.to_dict())
        assert to_json(back) == to_json(report)
        json.dumps(report.summary())
