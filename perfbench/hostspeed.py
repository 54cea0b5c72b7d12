"""Scale measured durations to a reference host speed.

The benchmark runs on machines whose cores are shared with other tenants.
Their speed drifts by about 20 % either way over tens of seconds, and CPU
time tracks wall time, so the drift is host speed rather than scheduling.
A fixed pure-Python probe (integer arithmetic, list indexing and dict
updates, the same kinds of work the program does) is timed next to the
measured work, at most ``PROBE_EVERY_S`` seconds of work apart, and each
duration is scaled by ``(REFERENCE_PROBE_S / probe) ** ELASTICITY``: the
time the work would have taken on a host where the probe takes
``REFERENCE_PROBE_S``.
``probe`` is the median of the last ``WINDOW`` probes, so one disturbed
probe cannot rescale the work around it.

The program's speed moves less than the probe's: regressing log operation
time on log probe time over interleaved pairs gave slopes of 0.41 to 0.75
across workloads on the 2-core x86-64 host the benchmark was defined on,
and scaling by the full ratio turned fast-host runs into slow-looking ones.
``ELASTICITY`` is the middle of that range.

The probe is the benchmark's own code, so a change to the program moves the
measured work and not the probe.  Raw durations are kept beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_PROBE_S = 0.0007  # about the probe time on the host the benchmark was defined on
ELASTICITY = 0.5
WINDOW = 15
PROBE_EVERY_S = 0.05


def _probe_work() -> int:
    parent = list(range(256))
    seen: dict[tuple[int, int], int] = {}
    x = 12345
    for _ in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x & 255, (x >> 8) & 255
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
        seen[a, b] = seen.get((a, b), 0) + 1
    return len(seen)


def probe() -> float:
    """Seconds for one probe: the fastest of three, so that a single
    preemption does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Tracks the host's speed through a run and scales durations by it."""

    def __init__(self):
        self.probes: list[float] = []
        self._since = PROBE_EVERY_S  # probe before the first measurement

    def scaled(self, seconds: float) -> float:
        """``seconds`` of work just measured, in reference-host seconds."""
        self._since += seconds
        ratio = REFERENCE_PROBE_S / statistics.median(self.probes[-WINDOW:])
        return seconds * ratio ** ELASTICITY

    def before_work(self) -> None:
        """Probe if enough work has been measured since the last probe."""
        if self._since >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._since = 0.0
