"""Atomic file replacement shared by every on-disk store.

Writers stage their bytes in a temporary file that is unique to the
call (``tempfile.mkstemp`` in the target's directory, so the final
``os.replace`` stays on one filesystem and is atomic), then rename it
over the target.  Readers therefore see either the old file or the new
one, never a torn write, and concurrent writers of the same path each
own their staging file -- the last rename wins and nobody loses or
replaces another writer's temporary file.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb", encoding=None):
    """Open a staging file for writing; on a clean exit it replaces
    ``path``, on an exception it is removed and ``path`` is untouched.

    ``mode`` is ``"wb"`` (bytes) or ``"w"`` (text, with ``encoding``).
    The target's directory must already exist.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
