"""Parallel and multi-host execution over one JSON job protocol.

The fault-injection campaigns, the Monte Carlo pricer, the
experiment-suite scheduler and the reliability service's backend all
fan work out through this package -- locally and across machines that
do not share a Python process, or even a filesystem -- while preserving
the repo's bit-identity contract: a parallel run merges to
byte-identical rendered/JSON output versus the serial run.

The design rests on one rule: **jobs travel as JSON specs, never as
pickles.**  Every worker rebuilds heavy state (characterized factories,
compiled circuits) deterministically from a handful of CLI-level
parameters (:func:`repro.faults.campaign.campaign_from_spec`,
:func:`repro.montecarlo.runner.mc_job_spec`,
:meth:`repro.experiments.context.ExperimentContext.to_spec`), and
caches it per process, so any host with this repo checked out can serve
jobs.

Two pool flavours, selected by ``--pool SPEC``:

* ``local:N`` -- :class:`~.pool.LocalPool`, the package's only process
  pool (``--jobs N`` / ``workers=N`` everywhere mean ``local:N``); it
  rebuilds itself and isolates a crashing job when a worker dies;
* ``tcp:host:port,host:port`` -- :class:`~.pool.TcpPool`, newline-
  delimited JSON over sockets to ``python -m repro distrib worker``
  daemons (framing shared with :mod:`repro.service.protocol`).

See DESIGN.md section 15 for the protocol and merge invariants.
"""

from .pool import (
    LocalPool,
    TcpPool,
    WorkerPool,
    parse_pool_spec,
    run_campaign_pooled,
    run_mc_pooled,
    run_suite_pooled,
)

__all__ = [
    "LocalPool",
    "TcpPool",
    "WorkerPool",
    "parse_pool_spec",
    "run_campaign_pooled",
    "run_mc_pooled",
    "run_suite_pooled",
]
