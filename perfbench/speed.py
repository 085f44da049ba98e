"""The machine's speed during a run, for scaling the run's timings.

The benchmark's box is a virtual machine on a shared host, and its speed
moves between a fast and a slow state about 1.6x apart, for minutes at a
time (README.md, "Machine noise"). Two sets of runs of the same code can
then differ by more than any useful bound. ``SpeedMeter`` times a small
fixed computation, written here and independent of vecoff, at many
points of a run: before and after every episode and before every
training episode. Each tick is filed under the phase of the run it was
taken in (timed passes or decision probe) and, around an episode, also
under the phase and the episode's algorithm. A timing is reported
scaled by ``REF_TICK_S`` over the mean of the ticks taken beside it,
that is, as seconds at the speed at which one tick takes
``REF_TICK_S``. A change to vecoff cannot change the tick, so it moves
the scaled timings as it moves the raw ones; the raw values are printed
on the ``# unscaled timings`` line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the mean tick on a 2-core x86_64 box in its fast state. Any
# fixed value would do: it only sets the scale.
REF_TICK_S = 0.45e-3


class SpeedMeter:
    """Times the reference computation, filed under ``phase`` and, given
    a key, under ``phase.key`` too; no tick is taken while ``phase`` is
    None."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # a policy's first layer at the default encoder (66 features,
        # 128 units), then a small output layer
        self.x = rng.standard_normal((1, 66))
        self.w1 = rng.standard_normal((66, 128)) * 0.1
        self.w2 = rng.standard_normal((128, 9)) * 0.1
        self.phase: str | None = None
        self.ticks: dict[str, list[float]] = {}
        self.total = 0.0  # seconds of all ticks, to take out of timed spans

    def tick(self, key: str | None = None) -> None:
        if self.phase is None:
            return
        t0 = time.perf_counter()
        reference(self.x, self.w1, self.w2)
        dt = time.perf_counter() - t0
        self.ticks.setdefault(self.phase, []).append(dt)
        if key is not None:
            self.ticks.setdefault(f"{self.phase}.{key}", []).append(dt)
        self.total += dt

    def scale(self, where: str) -> float:
        """Factor that turns seconds spent where the ticks filed under
        ``where`` were taken into reference seconds."""
        return REF_TICK_S / statistics.fmean(self.ticks[where])


def reference(x: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    """Interpreter work and small matrix products, as vecoff mixes them."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(1000):
        acc += (i * 1.0000001) % 3.0
        table[i & 31] = acc
    acc += min(sorted(table.values()))
    for _ in range(40):
        acc += float((np.tanh(x @ w1) @ w2).max())
    return acc
