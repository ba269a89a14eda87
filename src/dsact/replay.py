"""Bounded FIFO experience store with uniform sampling.

Transitions live in one ring array per field. The arrays are allocated
with `np.empty` on the first push, sized from that push's state and
action, and a row is written only when a transition lands in it, so an
unfilled buffer costs address space but no resident memory. One
counter, the number of pushes, places every row: the buffer holds
min(pushes, capacity) rows, and push k (from 0) lands in slot
k mod capacity, so once full each push overwrites the oldest row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Batch:
    """Transitions as row-aligned arrays: float64 s, a, r, s_next and
    bool done."""

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray

    def __len__(self) -> int:
        return len(self.r)


class ReplayBuffer:
    """Ring buffer: once full, every push evicts the oldest element."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rows: Batch | None = None
        self._pushes = 0

    @property
    def count(self) -> int:
        return min(self._pushes, self.capacity)

    def _allocate(self, s_shape, a_shape) -> Batch:
        c = self.capacity
        return Batch(
            s=np.empty((c, *s_shape)),
            a=np.empty((c, *a_shape)),
            r=np.empty(c),
            s_next=np.empty((c, *s_shape)),
            done=np.empty(c, dtype=bool),
        )

    def push(self, s, a, r: float, s_next, done: bool) -> "ReplayBuffer":
        """Store one environment step; done marks true termination. A
        time-limit cut is not stored: it still bootstraps, so it is an
        ordinary row."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._allocate(np.shape(s), np.shape(a))
        elif np.shape(s) != rows.s.shape[1:] or np.shape(a) != rows.a.shape[1:]:
            raise ValueError("transition dimensions do not match buffer contents")
        i = self._pushes % self.capacity
        self._pushes += 1
        rows.s[i] = s
        rows.a[i] = a
        rows.r[i] = r
        rows.s_next[i] = s_next
        rows.done[i] = done
        return self

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """n uniform draws with replacement, one `rng.integers` call;
        refuses when empty. Each field is gathered with `take`: the same
        rows as a fancy index, at about a third of its cost on a 2-d field."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self._pushes == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.count, size=n)
        rows = self._rows
        return Batch(
            rows.s.take(idx, axis=0),
            rows.a.take(idx, axis=0),
            rows.r.take(idx, axis=0),
            rows.s_next.take(idx, axis=0),
            rows.done.take(idx, axis=0),
        )

    def contents(self) -> Batch:
        """Views of the filled rows in slot order (not insertion order)."""
        if self._rows is None:
            raise ValueError("the buffer is empty")
        k = self.count
        rows = self._rows
        return Batch(rows.s[:k], rows.a[:k], rows.r[:k], rows.s_next[:k], rows.done[:k])
