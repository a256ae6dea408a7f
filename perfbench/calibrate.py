"""A fixed reference kernel that measures how fast the host runs right now.

The hosts the benchmark runs on are shared: they switch between speed
levels 30-50 % apart for seconds to minutes at a time, and process CPU
time slows with wall time, so the slowdown is the host's, not the
program's.  The kernel below does the same kinds of work as a job, on
arrays of the same sizes, but calls nothing of ``elastic_networks``: a
Python loop of small NumPy stencils and norms on 129-node curves, sparse
LU factorizations and solves of a small banded matrix, as a 128-node
network's system has, and one of a large one, as a 2048-node network's
system has.  Its time
therefore follows the host's speed and never the program's.  Timing it
right before and right after each job gives a speed reading for that
job; see ``run.py`` and "Method" in README.md.
"""

import gc
import time

import numpy as np
import scipy.sparse as sparse
# bound at import, before a traced run can wrap the module attribute
from scipy.sparse.linalg import splu

# Median time of one run of the kernel on the reference host (2-core
# Intel Xeon VM, one BLAS thread), in seconds.  Times are reported at
# this speed: a measured time times REFERENCE_S / (the kernel time
# around it).
REFERENCE_S = 0.019

_NODES = 129
_LU_SIZES = (400, 8000)


def _banded(n):
    """A pentadiagonal, diagonally dominant sparse matrix of order n."""
    return sparse.diags(
        [np.full(n - 2, 1.0), np.full(n - 1, -4.0), np.full(n, 6.0 + 1e-3),
         np.full(n - 1, -4.0), np.full(n - 2, 1.0)],
        [-2, -1, 0, 1, 2], format="csc")


class Kernel:
    """The fixed inputs of the reference kernel, built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.curve = rng.normal(size=(3, _NODES))
        self.small, self.large = (_banded(n) for n in _LU_SIZES)

    def __call__(self):
        """Run the kernel once; returns a number so the work is not skipped."""
        x = self.curve
        acc = 0.0
        for _ in range(400):
            lengths = np.linalg.norm(np.diff(x, axis=1), axis=0)
            acc += float(lengths.sum())
            second = x[:, 2:] - 2.0 * x[:, 1:-1] + x[:, :-2]
            acc += float(np.abs(second).max())
            s = 0
            for j in range(60):
                s += j * j
            acc += s
        for _ in range(20):
            acc += float(splu(self.small).solve(np.ones(_LU_SIZES[0]))[0])
        acc += float(splu(self.large).solve(np.ones(_LU_SIZES[1]))[0])
        return acc

    def seconds(self):
        """Wall time of one run of the kernel.

        The cyclic garbage collector is off meanwhile, so that the size of
        the program's heap cannot change the kernel's time.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
