"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still distinguishing the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a netlist (bad net id, dangling pin, ...)."""


class CombinationalLoopError(NetlistError):
    """The netlist contains a combinational cycle and cannot be levelized."""

    def __init__(self, cycle_members):
        self.cycle_members = list(cycle_members)
        super().__init__(
            "combinational loop through cells: %s" % (self.cycle_members,)
        )


class UnknownCellError(NetlistError):
    """A cell type name is not present in the cell library."""


class SimulationError(ReproError):
    """A simulation was configured or driven inconsistently."""


class FaultError(SimulationError):
    """Invalid fault specification or injection target (bad net/cell id,
    out-of-range rate, conflicting faults on one site, ...)."""


class DeltaError(SimulationError):
    """A netlist delta cannot be diffed, patched or replayed
    incrementally (misaligned parent/child structure, unsupported cell
    change, patched-plan precondition violated, ...).  Callers fall
    back to a from-scratch compile + run."""


class CheckpointError(FaultError):
    """A campaign checkpoint file cannot be used (fingerprint mismatch,
    mid-file corruption, unsupported version, ...)."""


class CampaignInterrupted(SimulationError):
    """A fault-injection campaign was interrupted before completion.

    Raised by :meth:`repro.faults.InjectionCampaign.run` when a SIGINT /
    :class:`KeyboardInterrupt` lands mid-sweep.  The checkpoint (when one
    is configured) has already been flushed; :attr:`partial` carries the
    reports completed so far so callers can still print coverage.

    Attributes:
        partial: The partial :class:`~repro.faults.CampaignResult`.
        completed: Sites finished before the interrupt.
        total: Sites the campaign was asked to run.
    """

    def __init__(self, message, partial=None, completed=0, total=0):
        self.partial = partial
        self.completed = completed
        self.total = total
        super().__init__(message)


class RecoveryExhaustedError(SimulationError):
    """A timing overrun the active recovery policy refuses to absorb.

    Raised by the ``strict`` policy when an operation overruns the shadow
    window (undetectable violation) or needs more fallback cycles than
    :attr:`repro.config.SimulationConfig.max_fallback_cycles` allows.
    The ``degrade`` and ``detect-only`` policies record such events in
    the run statistics instead of raising.
    """

    def __init__(self, message, op_index=None, delay_ns=None):
        self.op_index = op_index
        self.delay_ns = delay_ns
        super().__init__(message)


class RetryExhaustedError(ReproError):
    """A retried operation ran out of attempts or time budget.

    Raised by :func:`repro.util.retry.retry_call` when every attempt of
    the wrapped callable failed within the configured budget.  The last
    underlying exception is chained as ``__cause__``.

    Attributes:
        attempts: Attempts made before giving up.
        elapsed_s: Wall-clock seconds spent across all attempts.
    """

    def __init__(self, message, attempts=0, elapsed_s=0.0):
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        super().__init__(message)


class LockTimeoutError(RetryExhaustedError):
    """An advisory file lock could not be acquired within its timeout.

    Raised by :class:`repro.util.locking.FileLock`; carries the lock
    path so contention diagnostics can name the resource.
    """

    def __init__(self, message, path=None, attempts=0, elapsed_s=0.0):
        self.path = path
        super().__init__(message, attempts=attempts, elapsed_s=elapsed_s)


class ServiceError(ReproError):
    """A reliability-service request could not be served normally."""


class BackendCrashError(ServiceError):
    """The service's compute backend died (killed worker / broken
    process pool).  The pool is rebuilt; in-flight queries receive a
    typed degraded response instead of a dropped connection."""


class DeadlineExceededError(ServiceError):
    """A query's deadline elapsed before its result was ready."""


class CalibrationError(ReproError):
    """A calibration target could not be met."""


class ConfigError(ReproError):
    """Invalid configuration value."""


class WorkloadError(ReproError):
    """Invalid workload specification (bad width, zero count, ...)."""


class DistribError(ReproError):
    """A distributed worker-pool operation failed (unreachable worker,
    malformed response, job raised remotely, ...)."""
