"""Program time counted at the speed of a reference workload.

The benchmark's machines are shared virtual machines whose speed swings
by a third or more for seconds at a time: the same single-threaded
numpy loop takes 0.12 s in one second and 0.20 s a few seconds later,
in CPU time as much as in wall time, so neither longer runs nor CPU
clocks remove it. A `RefClock` measures the machine's speed alongside
the program instead. Every `PERIOD_S` a SIGALRM handler runs `probe`, a
fixed mix of small numpy kernels and interpreter work like the
engine's, in the measured process itself, and logs when it ran. Time is
then read in reference seconds: each stretch of program time between
two probes counts

    raw seconds * NOMINAL_PROBE_S / (mean duration of the probes around it)

so a stretch run while the machine was slow counts for less, and the
probes' own time counts for nothing. A program that gets faster gets
faster in reference seconds by the same share; the machine's own
swings cancel, because probe and program slow down together.

Raw readings come from `time.monotonic`, the clock the parent process
reads when it spawns a repeat, and are converted after the fact, so
the probe log on both sides of a reading is known.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.025  # program time between probes
# about the probe's duration on a 2.1 GHz Xeon VM core in its fast
# state, so a reference second is about a second of that machine
NOMINAL_PROBE_S = 2.2e-3
WINDOW = 11  # probes whose mean duration sets a stretch's speed

_RNG = np.random.default_rng(20231009)
_V = _RNG.standard_normal(32)
_X = _RNG.standard_normal((128, 64))
_W = _RNG.standard_normal((64, 64)) * 0.1
_TABLE = _RNG.standard_normal(1 << 20)  # 8 MiB, twice a core's L2
_GATHER = _RNG.integers(0, _TABLE.size, 20_000)


def probe() -> float:
    """The fixed reference work. The engine's workloads differ in how
    much of their time goes to the interpreter, to numpy's per-call
    overhead, to batched kernels and to memory (replay sampling), and
    a slow spell of the machine slows each of these by a different
    share, so the probe does some of each."""
    table, acc = {}, 0.0
    for i in range(3000):  # interpreter: dict stores and float arithmetic
        table[i & 63] = acc
        acc += (i * 0.5) % 7.0
    v = _V
    for _ in range(300):  # per-call overhead: ufuncs on a 32-vector
        v = np.exp(-np.abs(v)) * 0.5 + v[::-1]
    x = _X
    for _ in range(40):  # batched kernels: batch-128 64x64 matmuls and tanh
        x = np.tanh(x @ _W)
    gathered = _TABLE[_GATHER].sum()  # memory: random reads beyond the L2 cache
    return acc + float(v[0]) + float(x[0, 0]) + float(gathered)


class RefClock:
    """Interleaves probes into this process from `start` to `stop`.

    Not re-entrant and only for the main thread, where Python runs
    signal handlers."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end), monotonic s
        self._previous = None
        self._table = None

    def _probe(self):
        t0 = time.monotonic()
        probe()
        self.probes.append((t0, time.monotonic()))

    def _tick(self, signum, frame):
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)  # one shot: a full period of program time

    def start(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()  # so the last stretch has probes on both sides

    def _build(self):
        """Per stretch between probes: raw start, reference start, speed."""
        durations = [end - start for start, end in self.probes]
        n = len(durations)
        starts, refs, speeds = [], [], []
        ref = 0.0
        prev_end = float("-inf")
        for i, (start, end) in enumerate(self.probes):
            # stretch i runs from probe i-1's end to probe i's start
            lo, hi = max(0, i - WINDOW // 2), min(n, i + WINDOW // 2 + 1)
            speed = NOMINAL_PROBE_S * (hi - lo) / sum(durations[lo:hi])
            starts.append(prev_end)
            refs.append(ref)
            speeds.append(speed)
            if prev_end != float("-inf"):
                ref += (start - prev_end) * speed
            prev_end = end
        self._table = (starts, refs, speeds, [s for s, _ in self.probes])

    def ref(self, t: float) -> float:
        """Reference seconds at monotonic time `t`, from an origin that
        only differences make meaningful. Call after `stop`, for a `t`
        no later than the last probe; time before the first probe
        counts at the speed of the first probes."""
        if self._table is None:
            self._build()
        starts, refs, speeds, probe_starts = self._table
        if t > probe_starts[-1]:
            raise ValueError("reading taken after the clock stopped")
        i = bisect.bisect_left(probe_starts, t)  # t lies in stretch i, before probe i
        if i == 0:
            return (t - probe_starts[0]) * speeds[0]
        return refs[i] + (min(max(t, starts[i]), probe_starts[i]) - starts[i]) * speeds[i]

    def ref_ns(self, t_ns: int) -> int:
        return round(self.ref(t_ns / 1e9) * 1e9)
