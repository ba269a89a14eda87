"""Small shared helpers: deterministic seed derivation and atomic
artifact writes."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np


def derived_seed(*parts: int) -> int:
    """Mix integer labels into one reproducible non-negative seed."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def write_atomic(path: str | Path, write: Callable[[BinaryIO], None]) -> None:
    """Call ``write`` on a temp file next to ``path``, then rename it onto
    ``path``. A writer that raises, or a process killed mid-write, leaves
    the previous file (or none) at ``path``; if ``write`` raises, the temp
    file is removed. No fsync: this guards against a killed process, not
    against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
