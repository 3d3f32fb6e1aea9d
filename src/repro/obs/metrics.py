"""Unified metrics registry: counters, gauges, histograms with labels.

Every layer of the model reports through one of these registries instead
of ad-hoc attribute counters, so a run's complete quantitative state can
be snapshotted (:meth:`MetricsRegistry.to_dict`) and exported as JSONL
(:mod:`repro.obs.export`).

Two backends share one interface:

* :class:`MetricsRegistry` — the recording backend.  Instruments are
  created once (typically in a component's ``__init__``) and mutated on
  hot paths with plain attribute arithmetic.
* :class:`NullMetricsRegistry` — the default.  Every instrument request
  returns one shared no-op instrument, so uninstrumented runs pay a
  single virtual call per event at most; components that cache their
  instruments pay nothing per event beyond the no-op method.

Instruments are identified by ``(name, labels)``; requesting the same
identity twice returns the same instrument, so independent components
can safely accumulate into shared series.
"""

from __future__ import annotations

import bisect
import itertools
import time
from contextlib import contextmanager

#: Default histogram bucket upper bounds (cycles/latency-flavored).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                   500.0, 1000.0, 2000.0, 5000.0)


def _series_key(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Flat series name: ``name`` or ``name{k=v,k2=v2}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def interpolated_percentile(values, q: float) -> float:
    """Linear-interpolated percentile of raw samples (``q`` in [0, 100]).

    The one shared quantile implementation for *raw sample lists*
    (NumPy's default ``linear`` interpolation): the serve daemon's
    latency report, the NoC latency tracker, and the perf tables all
    route through here, so every quantile printed anywhere in the repo
    is computed the same way.  (:meth:`Histogram.quantile` is the
    separate *bucketed* estimator for pre-aggregated series.)
    """
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def percentile_summary(values) -> dict:
    """count/p50/p95/p99/max summary of raw latency samples.

    The canonical latency block of the serve daemon's session report
    and the cluster report; empty input yields the all-``None`` shape
    so JSON consumers need no special-casing.
    """
    import numpy as np

    if not len(values):
        return {"count": 0, "p50": None, "p95": None, "p99": None,
                "max": None}
    arr = np.asarray(values, dtype=np.int64)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {"count": int(arr.size), "p50": float(p50),
            "p95": float(p95), "p99": float(p99),
            "max": int(arr.max())}


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bound bucketed distribution with count/sum/min/max."""

    __slots__ = ("bounds", "bucket_labels", "bucket_counts", "count",
                 "total", "min_seen", "max_seen")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        #: Each bound's ``le`` label, formatted once, not per snapshot.
        self.bucket_labels = tuple(f"{bound:g}" for bound in self.bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_seen = float("inf")
        self.max_seen = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> dict[str, int]:
        """Prometheus-convention buckets: ``le`` upper bound -> count of
        observations at or below it, cumulative, ending at ``+Inf``."""
        out = dict(zip(self.bucket_labels,
                       itertools.accumulate(self.bucket_counts[:-1])))
        out["+Inf"] = self.count
        return out

    def quantile(self, q: float) -> float:
        """Estimated q-quantile by linear interpolation within buckets.

        Same estimator as PromQL's ``histogram_quantile``, tightened at
        the edges with the tracked ``min_seen``/``max_seen``: the first
        bucket interpolates from the observed minimum, and the open
        ``+Inf`` bucket from its lower bound to the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.bucket_counts):
            if not c:
                continue
            below = cumulative
            cumulative += c
            if cumulative >= rank:
                if i == 0:
                    lo = min(self.min_seen, self.bounds[0])
                else:
                    lo = self.bounds[i - 1]
                if i < len(self.bounds):
                    hi = min(self.bounds[i], self.max_seen)
                else:
                    hi = self.max_seen
                if hi <= lo:
                    return hi
                frac = (rank - below) / c
                return lo + (hi - lo) * frac
        return self.max_seen

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_seen if self.count else 0.0,
            "max": self.max_seen if self.count else 0.0,
            "buckets": self.cumulative_buckets(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Timer:
    """Wall-clock phase timer: observation count plus elapsed seconds.

    Wall-clock readings are machine-dependent, so the *default* registry
    snapshot (:meth:`MetricsRegistry.to_dict`) reports only the
    deterministic observation count — same-seed runs stay byte-identical.
    Pass ``wall_time=True`` to :meth:`to_dict` for the measured seconds
    (the ``repro perf`` harness does).
    """

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = float("-inf")

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @contextmanager
    def time(self):
        """Context manager timing its body with ``time.perf_counter``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self, wall_time: bool = False) -> dict:
        if not wall_time:
            return {"count": self.count}
        return {
            "count": self.count,
            "sum_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s if self.count else 0.0,
        }


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()
    value = 0
    count = 0
    total_s = 0.0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @contextmanager
    def time(self):
        yield self


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Create-once / mutate-often instrument store with labeled series."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timers: dict[str, Timer] = {}
        #: Flat key -> (name, labels) so series enumerate structurally.
        self._meta: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {}

    @staticmethod
    def _labels(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _key(self, name: str,
             labels: dict[str, object]) -> str:
        lbl = self._labels(labels)
        key = _series_key(name, lbl)
        if key not in self._meta:
            self._meta[key] = (name, lbl)
        return key

    def counter(self, name: str, **labels: object) -> Counter:
        key = self._key(name, labels)
        if key not in self._counters:
            self._counters[key] = Counter()
        return self._counters[key]

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = self._key(name, labels)
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        key = self._key(name, labels)
        if key not in self._histograms:
            self._histograms[key] = Histogram(bounds)
        return self._histograms[key]

    def timer(self, name: str, **labels: object) -> Timer:
        key = self._key(name, labels)
        if key not in self._timers:
            self._timers[key] = Timer()
        return self._timers[key]

    def iter_series(self):
        """Enumerate every series without touching private dicts.

        Yields ``(kind, key, name, labels, instrument)`` tuples in a
        deterministic order: kind (counter, gauge, histogram, timer),
        then sorted flat key.  ``labels`` is a plain dict copy.
        """
        stores = (("counter", self._counters), ("gauge", self._gauges),
                  ("histogram", self._histograms), ("timer", self._timers))
        for kind, store in stores:
            for key in sorted(store):
                name, labels = self._meta[key]
                yield kind, key, name, dict(labels), store[key]

    def to_dict(self, wall_time: bool = False) -> dict:
        """Deterministic deep snapshot of every series (sorted keys).

        Timers report only their observation count unless
        ``wall_time=True`` — wall-clock sums would break the
        byte-identity of same-seed snapshots.
        """
        counters, gauges = self._counters, self._gauges
        histograms, timers = self._histograms, self._timers
        return {
            "counters": {k: counters[k].value for k in sorted(counters)},
            "gauges": {k: gauges[k].value for k in sorted(gauges)},
            "histograms": {k: histograms[k].to_dict()
                           for k in sorted(histograms)},
            "timers": {k: timers[k].to_dict(wall_time)
                       for k in sorted(timers)},
        }


class NullMetricsRegistry(MetricsRegistry):
    """No-op backend: hands out one shared inert instrument."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: object):
        return NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object):
        return NULL_INSTRUMENT

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: object):
        return NULL_INSTRUMENT

    def timer(self, name: str, **labels: object):
        return NULL_INSTRUMENT


#: Process-wide default backend for uninstrumented runs.
NULL_REGISTRY = NullMetricsRegistry()
