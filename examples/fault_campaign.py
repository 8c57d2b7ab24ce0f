"""Fault-injection campaign over the aging-aware multiplier.

Sweeps stuck-at / transient (SEU) / localized-delay fault sites over an
8x8 adaptive column-bypassing multiplier and reports, per fault kind,
how much of the resulting corruption the Razor bank detects.  The split
is the headline: Razor is a *timing* monitor, so delay hot-spots are
fully covered while stuck-at and SEU corruption mostly latches cleanly
before the main clock edge -- silent data corruption.

The campaign runs under the ``degrade`` recovery policy: sites whose
fault pushes arrivals past the two-cycle budget fall back to a bounded
multi-cycle retry (recorded in the per-site stats) instead of aborting
the sweep.  A second run shows the ``strict`` policy doing exactly
that -- refusing to continue past the first unrecoverable overrun.

The sweep itself runs as a *campaign job*: sharded over two worker
processes (bit-identical to serial), checkpointed to a JSONL file after
every site, and pruned of sites whose logic cone cannot reach any
product bit.  Re-running the script resumes from the checkpoint instead
of re-simulating -- delete the file to start fresh.

Run:  python examples/fault_campaign.py
"""

import os
import tempfile

from repro import RecoveryExhaustedError
from repro.faults import DelayFault, InjectionCampaign, campaign_from_spec

WIDTH = 8
SITES = 60
PATTERNS = 2_000
CHECKPOINT = os.path.join(tempfile.gettempdir(), "repro_campaign.jsonl")


def main():
    print("Building the %dx%d A-VLCB..." % (WIDTH, WIDTH))
    # Run at 60% of the critical path: tight enough that Razor has real
    # work to do, the operating region the paper's sweeps prefer.  A
    # campaign built from a spec can be rebuilt in worker processes,
    # which is what lets it run in parallel.
    campaign = campaign_from_spec(
        {
            "width": WIDTH,
            "kind": "column",
            "skip": WIDTH // 2 - 1,
            "cycle_fraction": 0.6,
            "sites": SITES,
            "patterns": PATTERNS,
            "seed": 7,
            "characterize_patterns": 2000,
        }
    )
    mult = campaign.architecture

    print(
        "Sweeping %d fault sites x %d patterns (degrade policy,"
        " 2 workers, checkpoint %s)..." % (SITES, PATTERNS, CHECKPOINT)
    )
    result = campaign.run(workers=2, checkpoint=CHECKPOINT)
    print()
    print(result.render())
    if result.resumed_sites:
        print(
            "(resumed %d already-simulated sites from the checkpoint)"
            % result.resumed_sites
        )
    print()
    print(
        "silent corruption rate: %.4f corrupted-and-unflagged products"
        " per pattern per site" % result.silent_corruption_rate()
    )

    # The worst single site, in detail.
    worst = max(result.sites, key=lambda s: s.silent_ops)
    print(
        "worst site %s: %d corrupted, %d detected, %d silent"
        % (worst.label, worst.corrupted_ops, worst.detected_ops,
           worst.silent_ops)
    )

    # A hot-spot the AHL *can* answer: extra delay on one cell raises
    # the error rate, the indicator trips, Skip-(n+1) sheds the errors.
    hot = DelayFault(len(mult.netlist.cells) // 2, 0.9 * mult.cycle_ns)
    hot_campaign = InjectionCampaign(
        mult, [hot], num_patterns=PATTERNS, seed=7
    )
    site, _ = hot_campaign.run_site(hot)
    switch = (
        "op %d" % site.indicator_aged_at
        if site.indicator_aged_at >= 0
        else "never"
    )
    print()
    print(
        "delay hot-spot %s: %d Razor errors, AHL switched at %s,"
        " %d ops recovered by multi-cycle fallback"
        % (site.label, site.razor_errors, switch, site.recovered_ops)
    )

    # Under the strict policy the same hot-spot is a hard stop as soon
    # as an arrival overruns what Razor + two-cycle execution can fix.
    stream = hot_campaign.site_stream(hot)
    try:
        mult.run_patterns(
            hot_campaign.md, hot_campaign.mr, stream=stream,
            policy="strict",
        )
        print("strict policy: clean (no unrecoverable overruns)")
    except RecoveryExhaustedError as exc:
        print("strict policy refused: %s" % exc)


if __name__ == "__main__":
    main()
