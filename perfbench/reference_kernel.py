"""A fixed numpy job that gauges how fast the machine runs at the moment.

The benchmark runs it after every timed request, in the same process, and
divides the request's wall time by the mean of the two kernel runs around it.
On a VM whose host also runs other tenants, the speed drifts by several
percent over tens of seconds; a request measured in kernel units moves much
less than one measured in milliseconds (see NOTES.md).

The kernel does the three kinds of work the workloads do: a dense FFT along
both axes of a 1024 x 256 complex array (the sensing operator), a stable
argsort of its magnitudes (thresholding), and many 4 x 4 Hermitian eigvalsh
calls from a Python loop (isometry enumeration). It uses numpy alone, never
hisparse, so no change to the program can change its cost.
"""

from __future__ import annotations

import time

import numpy as np


class ReferenceKernel:
    """One ``run()`` takes about 25 ms on a 2-vCPU Xeon VM."""

    def __init__(self):
        rng = np.random.default_rng(20180602)
        self.X = rng.standard_normal((1024, 256)) + 1j * rng.standard_normal((1024, 256))
        B = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self.grams = list(B @ B.conj().transpose(0, 2, 1)) * 4

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        Y = np.fft.ifft(np.fft.fft(self.X, axis=0), axis=1)
        np.argsort(np.abs(Y[:, :64]).ravel(), kind="stable")
        for G in self.grams:
            np.linalg.eigvalsh(G)
        return time.perf_counter() - start
