"""Frozen calibration kernel: converts host seconds into reference seconds.

The host this benchmark runs on changes speed by up to ~2x on timescales
from 100 ms to minutes (shared vCPUs, neighbours evicting the shared L3).
Process CPU time tracks wall time, so it is no cure. Instead, a fixed
pure-Python workload is timed on the same thread between slices of the
simulation; a slice that took ``w`` host seconds while the kernel took
``c`` seconds counts as ``w * C_REF / c`` reference seconds.

The kernel has three parts, chosen so that its slowdown tracks the
simulator's. Over repeated runs of one testbed cell, each part alone
tracked the simulator poorly, and the parts erred in opposite directions:

- a DES-shaped loop (heap push/pop, bound-method dispatch, dict updates,
  float ``10 ** x`` and ``random.random``) on an L1-resident working set;
- a dependent chase through a 32 MiB ``array`` (a golden-ratio stride
  permutation: every load lands megabytes from the last), which reads
  memory but touches no Python object;
- a dependent chase through a shuffled list of 1 Mi tuples, which touches
  (and reference-counts) scattered Python objects across ~130 MiB, as the
  simulator's heap does.

Which mix tracks best changes with what the neighbours are doing. Four
sets of ten to fourteen runs (testbed and city-1k cells, taken at
different times) were re-scored offline for every mix of the three parts
in steps of a tenth. Time shares of about 7 : 2 : 1 had the smallest
worst-case run-to-run range (7.7 %, against 36-40 % raw), and their rank
correlation between calibrated time and calibration speed fell on both
sides of zero.

Nothing here imports ``repro``: a change to the program cannot change the
yardstick. ``C_REF`` and the kernel sizes are frozen; changing either
rescales every reference-second figure and needs a fresh baseline.
"""

from __future__ import annotations

import heapq
import random
import time
from array import array
from typing import List

#: Median duration (seconds) of one :meth:`Calibrator.measure` call on the
#: reference host (2-vCPU Xeon VM, CPython 3.11) at its usual speed.
C_REF = 0.00050

_DES_STEPS = 250
_ARRAY_STEPS = 400
_ARRAY_BITS = 23  # 8 Mi entries of 4 bytes: 32 MiB, far past L2.
_OBJECT_STEPS = 50
_OBJECT_BITS = 20  # 1 Mi shuffled tuples


class _Node:
    __slots__ = ("nid", "gain", "count")

    def __init__(self, nid: int, gain: float) -> None:
        self.nid = nid
        self.gain = gain
        self.count = 0

    def fire(self, power: float, table: dict) -> float:
        self.count += 1
        rx = power + self.gain
        best = table.get(self.nid)
        if best is None or rx > best:
            table[self.nid] = rx
        return 10.0 ** (rx / 10.0)


class Calibrator:
    """The frozen kernel plus the record of every measurement taken."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._nodes = [_Node(i, -rng.uniform(40.0, 90.0)) for i in range(64)]
        # Successor table i -> (i + stride) mod N with an odd golden-ratio
        # stride: one cycle through every entry, each step a dependent load
        # megabytes away from the last. Built from two ranges at C speed.
        size = 1 << _ARRAY_BITS
        stride = int(size * 0.6180339887) | 1
        self._array = array("I", range(stride, size))
        self._array.extend(range(0, stride))
        self._array_pos = 0
        # A seeded shuffle: the cycle through entry 0 visits 203 070 tuples
        # scattered over the whole ~130 MiB allocation.
        size = 1 << _OBJECT_BITS
        self._perm = list(range(size))
        random.Random(11).shuffle(self._perm)
        self._objects = [(i, float(i)) for i in range(size)]
        self._object_pos = 0
        #: Every measured kernel duration, in seconds, in order.
        self.samples: List[float] = []

    def _run_kernel(self) -> float:
        nodes = self._nodes
        n = len(nodes)
        rng = random.Random(1)
        heap: list = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = 0
        for i in range(32):
            push(heap, (i, seq, nodes[i % n].fire))
            seq += 1
        table: dict = {}
        acc = 0.0
        for _ in range(_DES_STEPS):
            t, _seq, fire = pop(heap)
            acc += fire(rng.random() * 3.0, table)
            push(heap, (t + 1 + (seq & 7), seq, nodes[int(rng.random() * n)].fire))
            seq += 1
        chase = self._array
        pos = self._array_pos
        for _ in range(_ARRAY_STEPS):
            pos = chase[pos]
        self._array_pos = pos
        perm = self._perm
        objects = self._objects
        pos = self._object_pos
        for _ in range(_OBJECT_STEPS):
            pos = perm[pos]
            acc += objects[pos][1]
        self._object_pos = pos
        return acc

    def measure(self) -> float:
        """Run the kernel once; return (and record) its duration in seconds."""
        clock = time.perf_counter
        start = clock()
        self._run_kernel()
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed

    def warm_up(self, seconds: float = 0.3) -> None:
        """Run the kernel until ``seconds`` pass; the samples are discarded."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self._run_kernel()
