"""Measures how fast the host runs during a timed interval.

On the shared host this benchmark was built on, a process's CPU runs at
times up to twice as slow as its fast state, in bursts under a second and
for minutes at a time, without being taken away: process CPU time grows
exactly as wall time does. So a timed interval samples the speed itself.
Every INTERVAL_S of wall time a SIGALRM handler runs fixed kernels and
records how long they took. The kernels do not depend on kgalign, so no
change to the library moves them.

A speed-corrected time is the interval's time, less the probes' own, scaled
by a fixed reference probe time over the interval's mean probe: the time the
interval would have taken had the host run at the reference speed
throughout. An interval started with ``numpy=False`` leaves out the numpy
kernel, so the worker can start one before it imports anything heavy.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.004

# The probe's fastest time, with and without its numpy kernel, on the host
# the benchmark was built on (a 2-vCPU KVM guest, Xeon at 2.0 GHz), so that
# corrected times read as seconds on that host at its fast speed. Any fixed
# value would do for comparing runs on one machine; a value measured in the
# run itself would follow a slowdown that lasts the whole run.
REFERENCE_S = {True: 29.0e-6, False: 25.5e-6}

_samples: list[float] = []
_kernels: list = []
_numpy_args: list = []


# The probe's kernels, one per kind of work the pipeline does: interpreter
# arithmetic, strings and small lists (the string layer), containers, and
# small numpy calls (the A2C loop, GCN at these sizes). Their sum tracks the
# slowdown of all three workloads' passes with a slope near 1.
def _arithmetic() -> None:
    total = 0
    for i in range(50):
        total += i * i


def _strings() -> None:
    a, b = "kgalign", "kgailgn"
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur


def _containers() -> None:
    items = sorted((i * 7919) % 101 for i in range(20))
    {i: str(i) for i in items}


def _numpy() -> None:
    np, w, x = _numpy_args
    for _ in range(2):
        x = np.tanh(w @ x)


def _probe(signum, frame) -> None:
    for kernel in _kernels:
        kernel()  # untimed: refills the caches the interrupted code evicted
    start = time.perf_counter()
    for kernel in _kernels:
        kernel()
    _samples.append(time.perf_counter() - start)


class Interval:
    """Times a block and probes the host's speed while it runs.

    ``record()`` gives the wall seconds and the probes' count, sum and mean. Handlers run between bytecodes, so a long call into C delays the
    next probe but does not lose the interval's time.
    """

    def __init__(self, numpy: bool = True):
        self.numpy = numpy

    def start(self) -> "Interval":
        _kernels[:] = [_arithmetic, _strings, _containers]
        if self.numpy:
            import numpy as np

            _numpy_args[:] = [np, np.eye(32) * 0.5, np.ones(32)]
            _kernels.append(_numpy)
        _samples.clear()
        signal.signal(signal.SIGALRM, _probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> None:
        self.seconds = time.perf_counter() - self._t0
        off()
        self.probes = list(_samples)

    def record(self) -> dict:
        n = len(self.probes)
        return {"seconds": self.seconds, "numpy": self.numpy, "probes": n,
                "probe_sum": sum(self.probes),
                "probe_mean": sum(self.probes) / n if n else None}


def off() -> None:
    """Stop probing; a SIGALRM after the handler is gone would kill the process."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def corrected(record: dict) -> float:
    """The record's seconds at the reference speed (see the module docstring).

    An interval too short to hold a probe keeps its measured time.
    """
    if not record["probes"]:
        return record["seconds"]
    reference = REFERENCE_S[record["numpy"]]
    return (record["seconds"] - record["probe_sum"]) * reference / record["probe_mean"]
