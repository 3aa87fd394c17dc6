"""The two ways a node's state reaches its disk: a whole file, or a line log.

Every record a node keeps, its tuple store and the dealer file it starts
from included, is written through these helpers and read back through
`_read_file` or `_read_lines`, so each piece of state is appended, cut back
and read one way, and a file or line that does not decode raises one
`RecordError` naming it.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, TypeVar

from .algebra import AlgebraError
from .sharing import SharingError

T = TypeVar("T")


def _write_file(path: Path, data: str | bytes) -> None:
    """Replace a whole file through a temp file beside it, so a crash leaves
    the old or the new content.  The temp name is unique per writing thread
    and matches no name a load reads."""
    tmp = path.with_name(f"{path.name}.{threading.get_ident()}.tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)


def _append_line(path: Path, record: dict | str) -> None:
    """Append one line to a line-oriented file: a record as JSON, or text.
    The line goes out in one write; if that fails, on a full disk say, the
    file is cut back to its old size and the error re-raised."""
    line = record if isinstance(record, str) else json.dumps(record, sort_keys=True)
    try:
        size = os.stat(path).st_size
    except FileNotFoundError:
        size = 0
    try:
        with open(path, "ab") as out:
            out.write((line + "\n").encode())
    except OSError:
        if path.exists():
            os.truncate(path, size)
        raise


def _read_lines(path: Path,
                decode: Callable[[int, bytes], T] = lambda number, line: line) -> list[T]:
    """`decode(number, line)` of each whole line of a line-oriented file, in
    file order.  A final line without its newline is an append torn by a
    crash: once every whole line has decoded, it is cut off the file, so the
    next append starts a line of its own.  A file with a line `decode`
    raises on is left as it is."""
    if not path.exists():
        return []
    data = path.read_bytes()
    whole = data.rfind(b"\n") + 1
    lines = [decode(number, line) for number, line in enumerate(data[:whole].splitlines(), 1)]
    if whole < len(data):
        os.truncate(path, whole)
    return lines


class RecordError(Exception):
    """A node file, or a whole line of a node's line log, that does not
    decode."""


# what a decoder raises on a record it cannot take
_UNDECODABLE = (AttributeError, KeyError, TypeError, ValueError, AlgebraError, SharingError)


def _read_file(path: Path, decode: Callable[[dict], T]) -> T | None:
    """`decode` of a whole JSON file, or None when there is none.  A file
    that is not UTF-8 JSON, or that `decode` cannot take, raises
    `RecordError` naming the file, and is left as it is."""
    if not path.exists():
        return None
    try:
        return decode(json.loads(path.read_bytes().decode()))
    except _UNDECODABLE as exc:
        raise RecordError(f"{path} does not decode: {exc!r}") from exc


def _read_text(path: Path) -> list[str]:
    """The whole lines of a line log as text, in file order.  A line that is
    not UTF-8 raises `RecordError` naming the file and the line, and leaves
    the file as it is."""
    def text(number: int, line: bytes) -> str:
        try:
            return line.decode()
        except UnicodeDecodeError as exc:
            raise RecordError(f"{path} line {number} does not decode: {exc!r}") from exc

    return _read_lines(path, text)


def _read_records(path: Path, decode: Callable[[dict], T],
                  header: Callable[[dict], object] | None = None) -> list[T]:
    """`decode` of each whole line of a JSON-lines log, in file order.  A log
    that opens with a header line passes `header`, which takes the first
    line in `decode`'s place, and whose result leads the list; an empty log
    has no header line.  A line that is not UTF-8 JSON, or that `decode` or
    `header` cannot take, raises `RecordError` naming the file and the line;
    that, or anything else `header` raises, leaves the file as it is."""
    def record(number: int, line: bytes):
        take = header if number == 1 and header is not None else decode
        try:
            return take(json.loads(line.decode()))
        except _UNDECODABLE as exc:
            raise RecordError(f"{path} line {number} does not decode: {exc!r}") from exc

    return _read_lines(path, record)
