"""Machine-speed probe: a fixed reference chunk timed while the program runs.

The benchmark shares its cores with other tenants, and their load slows
the same code by up to 2x from one minute to the next.  ``SpeedProbe``
times ``reference_chunk`` every ``PERIOD_S`` seconds from a SIGALRM handler,
so the samples fall inside the program's calls, uniformly in time; the
time spent in the handler is tracked so callers can take it out of their
latencies.  The mean sample around a call, against ``NOMINAL_CHUNK_S``, is
how much slower than nominal the machine ran during that call; dividing a
latency by it scales the latency to nominal speed.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# The unit of speed: scaled times are seconds on a machine where one
# reference chunk takes this long (about what a lightly loaded 2-core x86-64
# VM with Python 3.11 shows while the benchmark runs).
NOMINAL_CHUNK_S = 1.0e-3
PERIOD_S = 0.05       # seconds between probe samples
MARGIN_S = 0.5        # samples this close to a call count towards its slowdown
CHUNK_STEPS = 150
WARMUP_STEPS = 30
_COEFFS = np.array([1, -2j, 3, 0.5, -1, 2j, 1, 0.25], dtype=np.complex128)


def _mix(steps: int) -> complex:
    z, acc = 0.3 + 0.4j, 0j
    for _ in range(steps):
        v = _COEFFS[-1]
        for c in _COEFFS[-2::-1]:
            v = v * z + c
        acc += v + np.abs(_COEFFS * z).sum()
        z = z * 1.0001 + 1e-4j
    return acc


def reference_chunk() -> float:
    """Seconds taken by a fixed mix of Python complex arithmetic and small numpy calls.

    The mix resembles the program's own hot loops (Horner steps on complex
    scalars, elementwise numpy on short arrays) but shares no code with it,
    so no change to the program can change this chunk.  A short untimed
    warm-up first brings the chunk's code and data back into the caches,
    so that what the program left there does not change the timing.
    """
    _mix(WARMUP_STEPS)
    t0 = time.perf_counter()
    _mix(CHUNK_STEPS)
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager sampling ``reference_chunk`` on a wall-clock timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0            # seconds inside the handler so far
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(reference_chunk())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        return slowdown(self.samples)

    def slowdown_around(self, start: float, duration: float) -> float:
        """Slowdown from the samples taken within MARGIN_S seconds of an interval."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, start + duration + MARGIN_S)
        return slowdown(self.samples[lo:hi] or self.samples)


def slowdown(samples: list[float]) -> float:
    """Mean chunk time over the nominal one (about 1.0 on an unloaded machine)."""
    if not samples:
        raise RuntimeError("the speed probe took no samples")
    return float(np.mean(samples)) / NOMINAL_CHUNK_S
