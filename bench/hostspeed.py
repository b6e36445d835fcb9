"""Host-speed normalization: a fixed reference kernel timed next to the work.

The benchmark host changes speed by up to 2x within seconds, and CPU time
moves with wall time, so a raw wall time mixes the program's cost with the
host's state.  While a ``HostSpeed`` block runs, a SIGALRM handler times a
fixed numpy and Python kernel that does not use pengeo every ``INTERVAL_S``
seconds; the handler's own time is excluded from the block's net wall
time.  ``to_reference`` rescales that wall time to a host on which the
kernel takes ``REF_KERNEL_S``: each stretch of wall time is weighted by
``REF_KERNEL_S`` over the kernel time sampled there, so slow stretches
count for less.  ``REF_KERNEL_S`` is about the kernel's time on the 2-core
x86-64 machine the benchmark was calibrated on, so rescaled figures read
close to wall seconds there.

The handler only reads the clock and computes on its own arrays, so the
program's results are unchanged.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25
REF_KERNEL_S = 0.003


class HostSpeed:
    """Context manager that samples the reference kernel during a block."""

    def __init__(self):
        self.kernel_s: list = []
        self.paused = 0.0
        rng = np.random.default_rng(0)
        self._blocks = np.linspace(1.0, 2.0, 48 * 9).reshape(48, 3, 3) + 3.0 * np.eye(3)
        self._rhs = np.ones((48, 3, 1))
        self._stack = rng.random((2000, 4, 4))
        self._vectors = rng.random((2000, 4))
        keys = rng.random(16384).tolist()
        shared = (self._stack[0], self._vectors[0])
        self._table = dict.fromkeys(keys, shared)
        self._probes = [keys[i] for i in rng.integers(0, len(keys), 3000)]
        for _ in range(3):
            self.kernel()  # the first passes pay for lazy set-up in numpy

    def kernel(self) -> float:
        """Time one pass of the reference kernel (a few ms).

        It mixes what the solver's hot paths do: batched small solves and
        products, a Python loop of 3x3 solves like a block recursion, and
        per-row dictionary lookups and batched products over a working set
        larger than the first-level caches, like the flow transport.  Timed
        next to pengeo's gradient code on the calibration machine, rescaling
        by it cut the spread of 8-chunk medians from 8 % to about 2 %; a
        pure-Python kernel only got to 4 %.
        """
        started = time.perf_counter()
        blocks, rhs = self._blocks, self._rhs
        for _ in range(8):
            sol = np.linalg.solve(blocks, rhs)
            np.einsum("mij,mjk->mik", blocks, sol)
            np.matmul(blocks.transpose(0, 2, 1), blocks)
        carry = rhs[0, :, 0]
        for j in range(96):
            carry = np.linalg.solve(blocks[j % 48], carry) + rhs[j % 48, :, 0]
        acc = 0.0
        for key in self._probes:
            matrix, offset = self._table[key]
            acc += key
        np.einsum("mij,mj->mi", self._stack, self._vectors)
        np.matmul(self._stack, self._stack)
        return time.perf_counter() - started

    def to_reference(self, wall: float) -> float:
        """``wall`` rescaled by the kernel times sampled in the last block.

        The samples are evenly spaced over the wall time, so the mean of
        ``REF_KERNEL_S / k`` weights every stretch equally.
        """
        samples = self.kernel_s or [self.kernel()]
        return wall * REF_KERNEL_S * sum(1.0 / k for k in samples) / len(samples)

    def _handler(self, signum, frame):
        entered = time.perf_counter()
        self.kernel_s.append(self.kernel())
        self.paused += time.perf_counter() - entered

    def __enter__(self):
        self.kernel_s = []
        self.paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
