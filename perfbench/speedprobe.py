"""A speed probe that shares the repetition's CPU and scales its CPU times
to a reference machine speed.

On a small shared host the speed of a CPU drifts by tens of percent over
tens of seconds to minutes: the instructions themselves run slower (the
process's CPU time grows with its wall time), most likely because other
tenants share the physical core, its caches or the memory bus.  The probe
is a thread in the benchmark's parent process, pinned to the same CPU as
the repetition.  Every ``GAP_S`` it wakes, times one fixed chunk of work in
its own CPU time, and sleeps again.  The chunk mixes the kinds of work the
pipeline does: interpreted arithmetic, small numpy calls, and reads of an
array too large for the core's own caches, which a neighbour's use of the
shared cache and memory bus slows.  The chunks run at the speed the
repetition's instructions run at, interleaved with them, and take about a
tenth of the CPU.  Each CPU time of a run's repetitions is scaled by::

    REFERENCE_CHUNK_S / (the probe's median chunk CPU time over the run)

which gives the time the work would have taken at the speed where one probe
chunk takes ``REFERENCE_CHUNK_S``.  The probe never touches the program
under test, so a change to the program moves the scaled times as it moves
the measured ones.
"""

import os
import statistics
import threading
import time

import numpy as np

# the reference speed: one chunk in 10 ms of CPU time beside a repetition.
# On the 2-vCPU Xeon (2.1 GHz) sandbox the benchmark was built on, a chunk
# takes 6 ms alone and 10-12 ms interleaved with a repetition (which evicts
# its data from the caches), so scaled times read close to measured ones.
REFERENCE_CHUNK_S = 1.0e-2
# sleep between chunks
GAP_S = 0.1

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(4096)
_BIG = _RNG.random(1 << 22)                          # 32 MB, past the L2 cache
_GATHER = _RNG.integers(0, _BIG.size, size=1 << 16)


def _chunk():
    """About 6 ms of work on the benchmark's machine: interpreted
    arithmetic, small cache-resident numpy calls, and random and streaming
    reads of a 32 MB array."""
    s = 0.0
    for i in range(6000):
        s += (i * 0.5) ** 0.5
    for _ in range(30):
        np.sort(_SMALL)
        s += float(_SMALL @ _SMALL)
    for _ in range(4):
        s += float(_BIG[_GATHER].sum())
    return s + float(_BIG.sum())


class SpeedProbe:
    """Times ``_chunk`` on a background thread between ``start`` and ``stop``
    (or over a ``with`` block); ``factor()`` turns a CPU time measured
    meanwhile on the same CPU into a reference-speed one."""

    def __init__(self, cpu=None):
        self.cpu = cpu
        self.durations = []
        self._stop = threading.Event()
        self._thread = None

    def _loop(self):
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})     # this thread only
        while not self._stop.wait(GAP_S):
            t = time.thread_time()
            _chunk()
            self.durations.append(time.thread_time() - t)

    def start(self):
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def factor(self):
        """REFERENCE_CHUNK_S over the median chunk CPU time so far; 1 before
        the first chunk."""
        durations = self.durations[:]
        return REFERENCE_CHUNK_S / statistics.median(durations) if durations else 1.0
