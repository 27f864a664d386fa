"""Small shared helpers."""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .errors import DomainError, TraceFormatError


def is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for an int or a finite float (bools are not numbers here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_array_shape(shape: tuple[int, ...], itemsize: int, what: str) -> None:
    """Raise DomainError for an array of `itemsize`-byte items that numpy cannot shape.

    numpy refuses, with a ValueError, any shape whose size in bytes passes
    the largest index; a smaller one too large for memory is a MemoryError.
    """
    if math.prod(max(d, 1) for d in shape) * itemsize > sys.maxsize:
        raise DomainError(f"{what} is too large: numpy cannot make an array of shape {shape}")


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file + rename so interrupted runs never leave partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def decode_utf8(content: bytes | str, what: str) -> str:
    """`content` as text; bytes that are not UTF-8 raise TraceFormatError naming `what`."""
    if isinstance(content, str):
        return content
    try:
        return content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{what} is not UTF-8 text (byte {content[exc.start]:#04x} at offset {exc.start})"
        ) from None


def parse_json(content: bytes | str, what: str):
    """The JSON document in `content`; malformed input raises TraceFormatError naming `what`."""
    text = decode_utf8(content, what)
    try:
        return json.loads(text)
    # JSONDecodeError and an integer literal over Python's digit limit are
    # ValueErrors; deep nesting exhausts the decoder's recursion.
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"invalid {what}: {exc}") from None


def parse_file(path, parse):
    """`parse` applied to the bytes of the file at `path`; its format errors name the file."""
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        return parse(content)
    except TraceFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
