"""Host-speed calibration: a fixed computation timed next to the program's ops.

The benchmark runs on shared virtual machines whose speed changes by up to
1.6x in phases of seconds to minutes (other tenants on the same cores and
memory).  Such a change slows everything that runs -- the program, a
pure-Python loop and numpy alike -- so raw wall times of the same code
differ by more between two runs than a change to the program should be
allowed to move them.

``Calibrator`` times a fixed mix of the kinds of work an op does, picked
from ``PARTS``: an interpreter loop, in-cache numpy arithmetic, random
draws into a fixed buffer, and the page faults of a fresh 1 MiB mapping.
The mix uses no ``coexist`` code and allocates nothing through the
program's heap, so no change to the program alters it.  A time ``t``
measured when the mix took ``c`` seconds is reported as ``t * r / c``,
where ``r`` is the sum of the parts' ``PARTS`` times: the time ``t`` would
take on a host where the mix takes ``r``.  Each part takes about 1 ms, so
each weighs about equally.
"""

from __future__ import annotations

import bisect
import mmap
import statistics
import time

import numpy as np

# part -> its time in seconds on an uncontended 2-vCPU Xeon VM, roughly
PARTS = {
    "interpreter": 0.0008,
    "numpy": 0.0006,
    "draws": 0.0006,
    "page_faults": 0.0008,
}
INTERVAL_S = 0.25  # at most one sample per interval; host phases last 3 s and more
NEAREST = 5  # a time is scaled by the median of this many samples nearest to it
MAPPING_BYTES = 1 << 20


class Calibrator:
    """Samples the reference mix's time and scales measured times by it."""

    def __init__(self, parts: tuple[str, ...] = tuple(PARTS)) -> None:
        unknown = set(parts) - set(PARTS)
        if unknown or not parts:
            raise ValueError(f"calibration parts must be drawn from {sorted(PARTS)}: {parts}")
        self.parts = [getattr(self, f"_{part}") for part in parts]
        self.reference_s = sum(PARTS[part] for part in parts)
        self.rng = np.random.default_rng(1)
        self.values = np.linspace(0.1, 1.0, 50_000)
        self.scratch = np.empty_like(self.values)
        self.draws = np.empty(200_000)
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def _interpreter(self) -> None:
        counts: dict[int, float] = {}
        for i in range(6000):
            counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5

    def _numpy(self) -> None:
        for _ in range(8):
            np.exp(np.negative(self.values, out=self.scratch), out=self.scratch).sum()

    def _draws(self) -> None:
        self.rng.random(out=self.draws)

    def _page_faults(self) -> None:
        with mmap.mmap(-1, MAPPING_BYTES) as buffer:
            pages = np.frombuffer(buffer, dtype=np.float64)
            pages.fill(1.0)
            pages.sum()
            del pages

    def sample(self) -> float:
        """Time the mix once and keep the sample; returns its seconds."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.samples.append(t1 - t0)
        return t1 - t0

    def tick(self) -> None:
        """Take a sample unless one was taken within the last ``INTERVAL_S``."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, stamp: float) -> float:
        """Reference time over the median of the samples nearest to ``stamp``."""
        if not self.samples:
            raise ValueError("no calibration samples")
        at = bisect.bisect_left(self.stamps, stamp)
        lo = max(0, min(at - NEAREST // 2, len(self.samples) - NEAREST))
        return self.reference_s / statistics.median(self.samples[lo:lo + NEAREST])
