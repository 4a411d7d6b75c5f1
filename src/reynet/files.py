"""Atomic file writes and checked JSON reads for the files the package keeps."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A file object whose contents replace `path` only if the block ends
    without an exception; until then they sit in a temp file beside it, which
    a failure removes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_json(path):
    """The JSON document in `path`; malformed text, nesting too deep for the
    decoder included, is a one-line ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:
            raise ValueError(f"{path}: not valid JSON: {err}") from None
