"""Process-variation sampling and yield analysis."""

import numpy as np
import pytest

from repro.core import AgingAwareMultiplier
from repro.errors import ConfigError
from repro.montecarlo.spec import MonteCarloSpec
from repro.timing.variation import (
    ProcessVariation,
    YieldReport,
    sample_dies,
    yield_analysis,
)


@pytest.fixture(scope="module")
def arch():
    return AgingAwareMultiplier.build(
        8, "column", skip=3, cycle_ns=0.55, characterize_patterns=300
    )


class TestSampling:
    def test_reproducible(self, cb4):
        variation = ProcessVariation()
        first = list(sample_dies(cb4, variation, 3, seed=5))
        second = list(sample_dies(cb4, variation, 3, seed=5))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_shape_and_positivity(self, cb4):
        variation = ProcessVariation(0.1, 0.05)
        for die in sample_dies(cb4, variation, 5):
            assert die.shape == (len(cb4.cells),)
            assert np.all(die > 0)

    def test_zero_sigma_is_nominal(self, cb4):
        variation = ProcessVariation(0.0, 0.0)
        die = next(iter(sample_dies(cb4, variation, 1)))
        assert np.allclose(die, 1.0)

    def test_global_sigma_moves_dies_together(self, cb4):
        variation = ProcessVariation(sigma_global=0.3, sigma_local=0.0)
        dies = list(sample_dies(cb4, variation, 8, seed=9))
        # Each die is internally uniform; dies differ from each other.
        for die in dies:
            assert np.allclose(die, die[0])
        firsts = [die[0] for die in dies]
        assert max(firsts) / min(firsts) > 1.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProcessVariation(sigma_global=-0.1)

    def test_num_dies_validated(self, cb4):
        with pytest.raises(ConfigError):
            list(sample_dies(cb4, ProcessVariation(), 0))


def mc_spec(arch, variation=None, **fields):
    """A :class:`MonteCarloSpec` whose Vth sigma split maps back onto
    ``variation`` (default: ``ProcessVariation()``) through
    :meth:`ProcessVariation.from_spec` -- the global sigma carries the
    inter-die part, the per-cell random sigma the local part."""
    variation = variation or ProcessVariation()
    tech = arch.technology
    slope = tech.alpha_sat / (
        0.5 * (tech.gate_overdrive_p + tech.gate_overdrive_n)
    )
    spec = MonteCarloSpec.from_overrides(
        sigma_global_v=variation.sigma_global / slope,
        sigma_spatial_v=0.0,
        sigma_random_v=variation.sigma_local / slope,
        **fields,
    )
    mapped = ProcessVariation.from_spec(spec, tech)
    assert mapped.sigma_global == pytest.approx(variation.sigma_global)
    assert mapped.sigma_local == pytest.approx(variation.sigma_local)
    return spec


class TestYieldAnalysis:
    @pytest.fixture(scope="class")
    def report(self, arch):
        return yield_analysis(
            arch, mc_spec(arch, num_dies=10, num_patterns=600, seed=13)
        )

    def test_report_shape(self, report):
        assert isinstance(report, YieldReport)
        assert report.num_dies == 10
        assert report.latencies_ns.shape == (10,)
        assert 0.0 <= report.yield_fraction <= 1.0

    def test_latency_statistics(self, report):
        assert report.worst_latency_ns >= report.mean_latency_ns
        assert report.latency_spread >= 0.0

    def test_variation_spreads_latency(self, arch):
        calm = yield_analysis(
            arch,
            mc_spec(
                arch,
                ProcessVariation(0.0, 0.0),
                num_dies=8,
                num_patterns=400,
                seed=17,
            ),
        )
        wild = yield_analysis(
            arch,
            mc_spec(
                arch,
                ProcessVariation(0.15, 0.05),
                num_dies=8,
                num_patterns=400,
                seed=17,
            ),
        )
        assert calm.latency_spread <= 1e-9
        assert wild.latency_spread > calm.latency_spread

    def test_variable_latency_dampens_corners(self, arch):
        """The architectural claim from [19]: elastic clocking converts
        die-to-die delay spread into occasional re-executions, so the
        *latency* spread across dies is far below the raw delay spread
        (2-sigma global of 0.15 ~ 35% die-to-die)."""
        wild = yield_analysis(
            arch,
            mc_spec(
                arch,
                ProcessVariation(0.15, 0.0),
                num_dies=12,
                num_patterns=500,
                seed=19,
            ),
        )
        assert wild.latency_spread < 0.35

    def test_aged_dies_slower(self, arch):
        spec = mc_spec(arch, num_dies=6, num_patterns=400, seed=23)
        fresh = yield_analysis(arch, spec)
        aged = yield_analysis(arch, spec, years=7.0)
        assert aged.mean_latency_ns >= fresh.mean_latency_ns
