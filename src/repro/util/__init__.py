"""Cross-cutting infrastructure helpers shared by every subsystem.

The packages above this one (stores, scheduler, service) all need the
same primitives when they go concurrent:

* :mod:`repro.util.atomic` -- ``atomic_write``, the one way every
  store replaces a file (unique staging file + ``os.replace``);
* :mod:`repro.util.retry` -- a deterministic bounded-exponential
  backoff schedule and a ``retry_call`` driver with a typed
  :class:`~repro.errors.RetryExhaustedError`;
* :mod:`repro.util.locking` -- an advisory per-path
  :class:`~repro.util.locking.FileLock` (``fcntl`` across processes,
  a registry of ``threading.Lock`` s within one) acquired with a
  timeout through the same backoff schedule.
"""

from .atomic import atomic_write
from .locking import FileLock
from .retry import Backoff, retry_call

__all__ = ["Backoff", "FileLock", "atomic_write", "retry_call"]
