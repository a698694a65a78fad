"""JSON input that refuses a repeated key, and atomic file output (JSON
documents by `write_json`, CSV tables by `write_csv`): readers see the old
file or the whole new one."""

from __future__ import annotations

import contextlib
import json
import os
import uuid


def _unique_keys(pairs: list) -> dict:
    """A json object_pairs_hook: json.load would keep the last of two equal keys."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is repeated")
    return doc


def read_json(path, error, flag: str = ""):
    """The JSON document in the file at `path`, else `error` naming the file
    (after `flag`): it cannot be read, is not JSON, or repeats a key."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise error(f"{flag}{path}: cannot read ({e.strerror})")
    except ValueError as e:   # a JSON or text decode error, or a repeated key
        raise error(f"{path}: invalid JSON ({e})")


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


def write_json(path, doc) -> None:
    """Write `doc` atomically to `path` as JSON, indent 1, keys sorted, then a newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(path, rows) -> None:
    """Write `rows` atomically to `path`, one comma-joined line per row.  One cell
    rule: None is empty, an int or str is str(v), anything else repr(float(v)).
    Cells are not quoted, so none may hold a comma or a newline."""
    def cell(v):
        return "" if v is None else str(v) if isinstance(v, (int, str)) else repr(float(v))
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")
