"""Atomic file output: readers see the old file or the whole new one."""

from __future__ import annotations

import contextlib
import os
import uuid


@contextlib.contextmanager
def atomic_write(path):
    """Open a new temporary file beside `path` for writing text.

    On a clean exit the file replaces `path` in one os.replace; if the
    block raises, the temporary file is deleted and `path` is untouched.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
