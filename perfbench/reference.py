"""Times scaled by a reference kernel timed next to them.

The speed of a small shared virtual machine drifts.  On the machine this
benchmark was written on, whole minutes ran 20 to 40 % slower, with no
steal time or CPU pressure inside the machine.  The reference kernel
is fixed work that no change to slq can touch: a pure-Python loop, a
dense ``eigh`` and a pass of shifts and masks over a 4 MB array, the
three kinds of work the workloads do.  The benchmark
times it before, during and after each pass and reports each time t as

    t * REF_NOMINAL_S / (mean time of the two kernel runs that enclose t)

that is, in seconds at the kernel's nominal speed.  Slow phases stretch
the kernel and the workload alike, so they cancel.  A change to slq moves
the workload and not the kernel, so it shows in full.

Set-up is timed in fresh interpreters, whose start is bound by loading
files and libraries more than by compute, so the kernel above follows it
poorly.  Set-up has a reference of its own: a fresh interpreter that only
imports numpy, timed before and after each set-up probe.  Each probe is
reported the same way, against ``PROCESS_NOMINAL_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's fastest time on the machine the benchmark was written on
# (2 vCPUs at 2.1 GHz, one BLAS thread)
REF_NOMINAL_S = 0.052
# within a pass, a kernel run precedes a call once this long has passed
# since the last one
REF_SPACING_S = 0.5
# the reference process, started like a set-up probe: it prints "ready"
# once numpy is imported
PROCESS_REFERENCE = ("-c", "import numpy; print('ready', flush=True)")
# its fastest time to "ready" on the same machine
PROCESS_NOMINAL_S = 0.12


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((500, 500))
        self._matrix = m + m.T
        self._words = np.arange(1 << 19, dtype=np.uint64)
        self._a = np.empty_like(self._words)
        self._b = np.empty_like(self._words)

    def run(self) -> float:
        """Seconds one run of the kernel took."""
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        np.linalg.eigh(self._matrix)
        np.right_shift(self._words, np.uint64(3), out=self._a)
        np.right_shift(self._words, np.uint64(7), out=self._b)
        np.bitwise_xor(self._a, self._b, out=self._a)
        np.bitwise_and(self._a, np.uint64(1), out=self._a)
        return perf_counter() - t0


def scale(times, refs, nominal: float = REF_NOMINAL_S) -> list:
    """Times scaled by the mean of the reference runs made around them."""
    factor = nominal / (sum(refs) / len(refs))
    return [t * factor for t in times]
