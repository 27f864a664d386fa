"""Small shared helpers."""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path


def is_finite_number(value) -> bool:
    """True for an int or a finite float (bools are not numbers here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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
