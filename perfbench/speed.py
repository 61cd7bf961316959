"""The machine's current speed, from a fixed pure-Python loop.

On a shared machine the speed of a core drifts by 30 % and more, in
stretches from a fraction of a second to many minutes, as other tenants come
and go; a best-of-passes minimum does not remove a slow stretch that
outlasts a whole run. So the benchmark times a short fixed loop (a "tick")
around and during each timed interval, and ``adjust`` scales the interval to
reference seconds: the time it would take on a core whose ticks take
``REF_TICK_S``. The loop is benchmark code that no change to ``tywha`` can
touch, so the scaling removes the machine's drift, not the program's cost.
"""

from __future__ import annotations

import contextlib
import signal
import time

TICK_LOOP = 10_000
# Mean tick on the recorded machine (see README.md) in a quiet stretch: on
# that machine, reference seconds are about wall seconds.
REF_TICK_S = 0.00065
# Ticks taken right before and right after each timed interval.
BRACKET_TICKS = 5
# Period of the ticks taken while an interval runs. A tick costs about 1 %
# of the interval at this period; ``sampling`` reports the time it took.
PERIOD_S = 0.05


def tick() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(TICK_LOOP):
        s += i * i
    return time.perf_counter() - t0


def ticks(n: int = BRACKET_TICKS) -> list[float]:
    return [tick() for _ in range(n)]


@contextlib.contextmanager
def sampling(samples: list[float]):
    """Append a tick to ``samples`` every ``PERIOD_S`` while the block runs.

    The ticks run in a SIGALRM handler on the main thread, between bytecodes,
    so no thread is started; their time is inside the block's wall time and
    is ``sum(samples)``.
    """

    def on_alarm(signum, frame):
        samples.append(tick())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def adjust(seconds: float, mean_tick: float) -> float:
    """``seconds`` measured while ticks took ``mean_tick``, in reference seconds."""
    return seconds * REF_TICK_S / mean_tick
