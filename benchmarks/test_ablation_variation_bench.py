"""Ablation bench: process-variation tolerance (related work [19]).

Samples process corners and shows the elastic (variable-latency)
architecture converting die-to-die delay spread into a much smaller
latency spread, with high parametric yield at the nominal clock.
"""

from conftest import run_once

from repro.montecarlo.spec import MonteCarloSpec
from repro.timing.variation import yield_analysis


def test_yield_across_corners(benchmark, ctx):
    arch = ctx.variable_design(16, "column", 7, 0.9)
    # Vth sigmas whose ProcessVariation.from_spec mapping is a 0.1
    # global / 0.03 per-cell log-delay sigma.
    tech = arch.technology
    slope = tech.alpha_sat / (
        0.5 * (tech.gate_overdrive_p + tech.gate_overdrive_n)
    )
    spec = MonteCarloSpec.from_overrides(
        num_dies=12,
        num_patterns=800,
        seed=3,
        sigma_global_v=0.1 / slope,
        sigma_spatial_v=0.0,
        sigma_random_v=0.03 / slope,
    )

    def analyze():
        return yield_analysis(arch, spec)

    report = run_once(benchmark, analyze)
    # A 2-sigma ~ +-20% corner spread stays a bounded latency spread
    # (slow dies pay Razor penalties instead of failing), and the dies
    # stay inside the two-cycle safety envelope.
    assert report.latency_spread < 0.40
    assert report.yield_fraction >= 0.75
    print()
    print(
        "dies=%d yield=%.2f mean=%.3f worst=%.3f spread=%.3f"
        % (
            report.num_dies,
            report.yield_fraction,
            report.mean_latency_ns,
            report.worst_latency_ns,
            report.latency_spread,
        )
    )
