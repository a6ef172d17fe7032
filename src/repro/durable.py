"""Durable writes: the only code in ``repro`` that makes bytes survive a crash.

Three operations back every crash-safe file the package keeps (the
sweep checkpoint journal, the service's job journal and its result
cache; docs/robustness.md "Durable writes"):

* :func:`append` adds one record's bytes to the end of a file and
  ``fsync``\\ s it before returning, so a record the caller goes on to
  act on is on disk first;
* :func:`replace` swaps a file's whole content atomically: the bytes go
  to :func:`temp_path` first, are ``fsync``\\ ed, then ``os.replace``
  moves them over the target and the directory is ``fsync``\\ ed on a
  best-effort basis.  A reader sees the old bytes or the new, never a
  mix;
* :func:`load_jsonl_tolerant` reads a JSONL file back, dropping the
  torn or corrupt lines a crash can leave.

The temp name is a function of the target path, so a crash that leaves
a temp file behind leaves one that the next :func:`replace` of the same
target overwrites and renames away.  One writer per target is assumed.

Callers reach these functions through the module
(``durable.append(...)``), so a test can swap in a fake that crashes at
any write.  ``OSError`` propagates; each caller wraps it in its own
error.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple


def append(path: str, data: bytes) -> None:
    """Append ``data`` to ``path`` (created if missing), then ``fsync``.

    A file that does not end in a newline holds a record torn by a
    crash; a newline is written first, so the torn record stays alone
    on its line and never swallows ``data``.
    """
    with open(path, "a+b") as handle:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def temp_path(path: str) -> str:
    """The hidden sibling :func:`replace` stages ``path``'s bytes in."""
    folder, name = os.path.split(path)
    return os.path.join(folder, f".{name}.tmp")


def replace(path: str, data: bytes) -> None:
    """Atomically make ``data`` the content of ``path``."""
    tmp = temp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:  # best-effort directory durability
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def load_jsonl_tolerant(path: str) -> Tuple[List[Dict[str, object]], int]:
    """Read a JSONL file, tolerating torn and corrupt lines.

    Returns ``(records, dropped)``: every line that parses as a JSON
    object, in file order, plus the count of lines that did not.  The
    file is read as *bytes* and each line decoded independently, so a
    crash that tears a record anywhere — including mid-way through a
    multi-byte UTF-8 character — costs exactly that record, never the
    readable ones around it.  A journal whose very first record is torn
    (zero-length file, truncated line) simply loads as empty.

    ``OSError`` propagates: an unreadable *file* is the caller's
    policy decision, an unreadable *line* is this function's.
    """
    records: List[Dict[str, object]] = []
    dropped = 0
    with open(path, "rb") as handle:
        data = handle.read()
    for raw_line in data.split(b"\n"):
        if not raw_line.strip():
            continue
        try:
            entry = json.loads(raw_line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            dropped += 1
            continue
        if not isinstance(entry, dict):
            dropped += 1
            continue
        records.append(entry)
    return records, dropped
