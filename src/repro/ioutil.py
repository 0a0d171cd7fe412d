"""Crash-safe file I/O helpers.

Long-running tools (sweeps, fault campaigns) checkpoint partial results
to disk; a plain ``open(...).write(...)`` interrupted by a crash or a
SIGKILL can leave a truncated file that poisons the next resume.  These
helpers follow the standard atomic-replace protocol:

1. write the full payload to a temporary file in the *same directory*
   (``os.replace`` is only atomic within one filesystem);
2. flush and ``fsync`` so the bytes are durable before the rename;
3. ``os.replace`` onto the destination — readers see either the old
   complete file or the new complete file, never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def atomic_write_bytes(path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    Binary core of :func:`atomic_write_text` and
    :func:`atomic_write_json`.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, payload: Any, indent: int = 2) -> None:
    """Atomically replace ``path`` with ``payload`` serialized as JSON."""
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")
