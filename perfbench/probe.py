"""Machine-speed probe: fixed work, independent of recliff, timed between requests.

The benchmark machine is shared: over a few minutes its speed moved by up
to 2x while nothing in the program changed, and request times moved with a
probe of fixed work run in the same process.  Scaling each request's time by
``REF_S / probe`` cancels most of that drift: a 150 s random_batch loop, cut
into 15 s blocks, spread 60% in raw time and 7% in scaled time.  Scaled
times are seconds on a machine where the probe takes ``REF_S``; raw times
are in the readable report.

The work mixes what the program spends its time on: gathers and scatters on
strided columns of a large uint8 array (the d = 25 tableau update), the same
on a small array (per-call numpy overhead at small n), and small-object
Python (everything around it).  Each workload sets the mix (``PROFILES``).
On random_batch and verify_mix the small-array part helps: the random_batch
spread over eight 15 s runs fell from 7.7% to 5.5%.  surface_d25 moves with
the large array alone: its compile median spread 6.5-7% over ten runs with
the "large" mix and 24% over eight with the "mixed" one, whose readings swung
more than d = 25 compiles did.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.005
INTERVAL_S = 0.25
# Iterations of (large-array columns, small-array columns, dict inserts).
PROFILES = {"large": (100, 0, 20000), "mixed": (50, 250, 10000)}


class SpeedProbe:
    def __init__(self, profile: str) -> None:
        self._large, self._small_n, self._objects = PROFILES[profile]
        self._cols = np.zeros((2500, 1250), dtype=np.uint8)
        self._small = np.zeros((48, 24), dtype=np.uint8)
        self._lut = np.array([1, 0, 0, 1, 1, 0, 0, 1, 1, 0], dtype=np.uint8)
        self._at = -INTERVAL_S
        self.factor = 1.0
        self.samples: list[float] = []

    def _once(self) -> float:
        cols, small, lut = self._cols, self._small, self._lut
        start = time.perf_counter()
        for q in range(self._large):
            cols[:, q] = lut[2 * cols[:, q] + cols[:, q + 1]]
        for q in range(self._small_n):
            w = q % 16
            small[:, w] = lut[2 * small[:, w] + small[:, w + 1]]
        table = {}
        for i in range(self._objects):
            table[i, i & 7] = i
        return time.perf_counter() - start

    def read(self, repeats: int = 3) -> float:
        """Seconds for the fixed work, the fastest of ``repeats`` tries."""
        return min(self._once() for _ in range(repeats))

    def refresh(self) -> float:
        """The current scale factor, re-probed if the last reading is stale.

        A reading is the fastest of three, so one interrupt does not count.
        """
        if time.perf_counter() - self._at >= INTERVAL_S:
            self.samples.append(self.read())
            self.factor = REF_S / self.samples[-1]
            self._at = time.perf_counter()
        return self.factor
