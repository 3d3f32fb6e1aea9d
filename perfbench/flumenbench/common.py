"""Pieces shared by the sweep and serve workloads."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field


@dataclass
class PassResult:
    """One pass over a workload's fixed, seed-derived work set.

    Host time is kept as ``perf_counter_ns`` intervals, so that the
    caller can normalise it (see :mod:`flumenbench.hostclock`).
    ``ops`` holds ``(key, start_ns, end_ns)`` for each operation (sweep
    point or serve session) that was run; ``pass_intervals`` the
    intervals whose total is the pass's time (the engine call for a
    sweep, the ``run()`` calls for a serve pass); ``work`` counts the
    units the throughput metric divides by.
    """

    ops: list[tuple[str, int, int]] = field(default_factory=list)
    pass_intervals: list[tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    work: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Raw host seconds of the pass."""
        return sum(end - start for start, end in self.pass_intervals) * 1e-9

    def timed(self, op: str, start_ns: int, end_ns: int) -> None:
        self.ops.append((op, start_ns, end_ns))

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{op}: {reason}")


def digest(text: str) -> str:
    """Short content digest of a canonical-JSON string."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
