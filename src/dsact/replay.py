"""Bounded FIFO experience store with uniform sampling.

Transitions live in one ring array per field. The arrays are allocated
with `np.empty` on the first push, sized from that transition, and a row
is written only when a transition lands in it, so an unfilled buffer
costs address space but no resident memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Transition:
    """One environment step; done marks true termination. A time-limit
    cut is not stored: it still bootstraps, so it is an ordinary row."""

    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    done: bool


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
        self._count = 0
        self._cursor = 0

    @property
    def count(self) -> int:
        return self._count

    def _allocate(self, t: Transition) -> Batch:
        c = self.capacity
        s_shape, a_shape = np.shape(t.s), np.shape(t.a)
        return Batch(
            s=np.empty((c, *s_shape)),
            a=np.empty((c, *a_shape)),
            r=np.empty(c),
            s_next=np.empty((c, *s_shape)),
            done=np.empty(c, dtype=bool),
        )

    def push(self, t: Transition) -> "ReplayBuffer":
        rows = self._rows
        if rows is None:
            rows = self._rows = self._allocate(t)
        elif np.shape(t.s) != rows.s.shape[1:] or np.shape(t.a) != rows.a.shape[1:]:
            raise ValueError("transition dimensions do not match buffer contents")
        if self._count < self.capacity:
            i = self._count
            self._count += 1
        else:
            i = self._cursor
            self._cursor = (self._cursor + 1) % self.capacity
        rows.s[i] = t.s
        rows.a[i] = t.a
        rows.r[i] = t.r
        rows.s_next[i] = t.s_next
        rows.done[i] = t.done
        return self

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """n uniform draws with replacement, one `rng.integers` call;
        refuses when empty."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self._count == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._count, size=n)
        rows = self._rows
        return Batch(rows.s[idx], rows.a[idx], rows.r[idx], rows.s_next[idx], rows.done[idx])

    def contents(self) -> Batch:
        """Views of the filled rows in slot order (not insertion order)."""
        if self._rows is None:
            raise ValueError("the buffer is empty")
        k = self._count
        rows = self._rows
        return Batch(rows.s[:k], rows.a[:k], rows.r[:k], rows.s_next[:k], rows.done[:k])
