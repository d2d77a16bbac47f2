"""The one write path for every file raredapt produces.

A file is written to a temporary file beside its target, which ``os.replace``
moves over the target once it is complete, so a killed process or a failing
write leaves the previous file or none, never a partial one.

It also owns the file layouts: ``write_json`` (indented, key-sorted, no NaN)
and the CSV lines of ``write_csv`` and ``csv_block``, whose one cell rule
writes None as an empty cell and any other value with ``str``: a float or
numpy float64 in its shortest round-trip form (NaN as ``nan``).

A killed writer leaves its ``<target>.<pid>.tmp`` behind; ``remove_stale_temps``
deletes those of named targets before they are written again.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Yield a file for ``path`` in mode "w" (UTF-8, ``\\n`` line ends) or "wb"
    that replaces ``path`` on a clean exit; parent directories are created.
    A ``path`` that is a directory, or names none (``""``, ``.``, ``..``), raises
    IsADirectoryError naming it before anything is made."""
    if mode not in ("w", "wb"):
        raise ValueError(f"mode must be 'w' or 'wb', got {mode!r}")
    path = Path(path)
    if path.name in ("", "..") or path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    # beside the target, so os.replace stays on one filesystem; a plain open()
    # lets the umask set the file mode, as writing in place would
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    text = {"encoding": "utf-8", "newline": "\n"} if mode == "w" else {}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    """Indented, key-sorted JSON; a NaN or Inf raises ValueError before any write."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def remove_stale_temps(directory, names) -> None:
    """Delete each ``<name>.<digits>.tmp`` in ``directory`` that ``atomic_open``
    left for one of ``names`` when its process was killed, and no other file.
    A directory that does not exist holds none."""
    directory = Path(directory)
    names = [name for name in names if name not in ("", "..")]  # no file has these
    if not names or not directory.is_dir():
        return
    stale = re.compile("(?:" + "|".join(map(re.escape, names)) + r")\.[0-9]+\.tmp")
    for path in directory.iterdir():
        if stale.fullmatch(path.name):
            path.unlink(missing_ok=True)


def _csv_line(cells) -> str:
    return ",".join(["" if v is None else str(v) for v in cells]) + "\n"


def csv_lines(header, rows):
    """Yield the header line and one line per row, each ending in ``\\n``."""
    yield _csv_line(header)
    yield from map(_csv_line, rows)


def csv_block(rows) -> bytes:
    """The UTF-8 bytes of one line per row, as ``csv_lines`` writes them."""
    return "".join(map(_csv_line, rows)).encode("utf-8")


def write_csv(path, header, rows) -> None:
    """Stream ``rows`` (any iterable, a generator too) to ``path`` as CSV."""
    with atomic_open(path) as fh:
        fh.writelines(csv_lines(header, rows))
