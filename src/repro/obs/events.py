"""Schema-versioned structured event log for runtime decisions.

Counters say *how many* ladder transitions or cache misses a run saw;
the event log says *which*, *when*, and *why*.  Each record is a flat
JSON-serializable dict with a fixed envelope::

    {"v": 2, "seq": 0, "cycle": 120, "type": "ladder_transition",
     "tenant": "default", "request_id": 3, ...payload...}

``v`` is the schema version (:data:`EVENT_SCHEMA_VERSION`), ``seq`` a
contiguous emission index, ``cycle`` a monotone simulation-cycle
timestamp, and ``type`` one of :data:`EVENT_TYPES` whose entry names the
payload fields every record of that type must carry.  ``tenant`` and
``request_id`` are the accounting context and appear when the emitting
component has one.

Determinism: timestamps are simulation cycles (or a component's own
deterministic clock such as the sweep engine's point index), never wall
time, so same-seed runs emit byte-identical logs.  Components restart
their local cycle counters between runs; :class:`MonotoneClock` rebases
those local clocks onto one non-decreasing timeline so an appended log
always validates (see ``load_and_validate_events`` in
:mod:`repro.obs.export`).

The default backend is :data:`NULL_EVENTS` (a :class:`NullEventLog`):
``enabled`` is ``False`` and every emit is a no-op, so uninstrumented
runs pay nothing.
"""

from __future__ import annotations

from collections import deque

#: Version stamp carried by every record; bump on breaking layout change.
#: v2: ``partition_defer`` is emitted once per request, on its first
#: deferral (v1 repeated it on every evaluation that passed it over).
EVENT_SCHEMA_VERSION = 2

#: Event type -> required payload fields (beyond the envelope).
#: Emission validates against this table, so a written log is valid by
#: construction; loaders re-check it (defense against hand-edited or
#: truncated files).
EVENT_TYPES: dict[str, tuple[str, ...]] = {
    # faults/ladder.py — every DegradationLadder rung change.
    "ladder_transition": ("src", "dst", "reason"),
    # faults/injector.py — a scheduled fault fires.
    "fault_activation": ("kind",),
    # core/scheduler.py — Algorithm 1 repartition decisions.
    "partition_grant": ("lo_port", "hi_port", "beta", "wait_cycles"),
    "partition_defer": ("reason",),
    "partition_complete": ("duration",),
    "electrical_fallback": ("duration",),
    # core/control_unit.py — batched MVM dispatch.
    "mvm_flush": ("jobs", "nodes"),
    # analysis/engine.py — sweep-engine cache decisions and failures.
    "cache_hit": ("task", "key"),
    "cache_miss": ("task", "key"),
    "point_failed": ("task", "key", "error"),
    # serve/daemon.py — daemon lifecycle and admission decisions.
    "serve_transition": ("src", "dst", "reason"),
    "admission_reject": ("kind",),
}

#: Envelope keys; payload fields must not collide with them.
RESERVED_KEYS = frozenset({"v", "seq", "cycle", "type", "tenant",
                           "request_id"})

#: :data:`EVENT_TYPES` as sets, so an emit checks its payload with two
#: set operations; the ordered tuples stay the error-message source.
_REQUIRED_SETS: dict[str, frozenset[str]] = {
    event_type: frozenset(fields)
    for event_type, fields in EVENT_TYPES.items()}


def _schema_error(event_type: str, payload: dict) -> ValueError:
    """The exact complaint about a payload that failed validation."""
    required = EVENT_TYPES.get(event_type)
    if required is None:
        return ValueError(f"unknown event type {event_type!r}; "
                          f"known: {sorted(EVENT_TYPES)}")
    missing = [k for k in required if k not in payload]
    if missing:
        return ValueError(f"event {event_type!r} missing required "
                          f"payload fields {missing}")
    clash = RESERVED_KEYS.intersection(payload)
    return ValueError(f"payload keys {sorted(clash)} collide with "
                      "the event envelope")


class MonotoneClock:
    """Rebases restarting component-local cycle counters onto one
    non-decreasing timeline.

    Each simulated network starts its cycle counter at zero; a telemetry
    stream spanning several runs would be non-monotonic in raw local
    cycles.  ``advance(local)`` detects a counter restart (the local
    cycle went backwards) and shifts the epoch so global time never
    decreases.  The mapping depends only on the sequence of local cycles
    fed in, so it is deterministic for same-seed runs.
    """

    __slots__ = ("_epoch", "_last_local", "_last_global")

    def __init__(self) -> None:
        self._epoch = 0
        self._last_local = 0
        self._last_global = 0

    def advance(self, local_cycle: int) -> int:
        local = int(local_cycle)
        if local < self._last_local:
            self._epoch = self._last_global
        self._last_local = local
        global_cycle = self._epoch + local
        if global_cycle < self._last_global:
            global_cycle = self._last_global
        self._last_global = global_cycle
        return global_cycle

    @property
    def now(self) -> int:
        """Last global cycle handed out."""
        return self._last_global

    def first_reaching(self, global_target: int) -> int:
        """Smallest local cycle whose rebased time reaches the target.

        Pure query: assuming locals stay monotone (no further restarts),
        ``advance(local)`` returns at least ``global_target`` exactly
        for ``local >= first_reaching(global_target)``; returns 0 when
        the timeline is already there.  Idle fast-forward loops use
        this to translate a global deadline (e.g. a snapshot sampler's
        next due time) back into local cycles without mutating the
        clock.
        """
        if self._last_global >= global_target:
            return 0
        return int(global_target) - self._epoch


class EventLog:
    """Recording backend: append-only list of typed event records."""

    enabled = True

    def __init__(self, max_events: int | None = None) -> None:
        self.events: list[dict] | deque[dict]
        self._max_events = max_events
        if max_events is None:
            self.events = []
        else:
            self.events = deque(maxlen=max_events)
        #: Oldest-record evictions under ``max_events`` (bounded mode).
        self.dropped = 0
        self._seq = 0
        #: Shared with the snapshot sampler so events and snapshots sit
        #: on one timeline.
        self.clock = MonotoneClock()

    def emit(self, event_type: str, cycle: int, *,
             tenant: str | None = None,
             request_id: int | None = None,
             **payload: object) -> dict:
        """Append one record; returns it (tests inspect the envelope)."""
        required = _REQUIRED_SETS.get(event_type)
        if (required is None or not required <= payload.keys()
                or not RESERVED_KEYS.isdisjoint(payload)):
            raise _schema_error(event_type, payload)
        record: dict = {"v": EVENT_SCHEMA_VERSION, "seq": self._seq,
                        "cycle": self.clock.advance(cycle),
                        "type": event_type}
        if tenant is not None:
            record["tenant"] = str(tenant)
        if request_id is not None:
            record["request_id"] = int(request_id)
        record.update(payload)
        if (self._max_events is not None
                and len(self.events) == self._max_events):
            self.dropped += 1
        self.events.append(record)
        self._seq += 1
        return record

    def tail(self, n: int) -> list[dict]:
        """The most recent ``n`` records (oldest first)."""
        if n <= 0:
            return []
        return list(self.events)[-n:]

    def by_type(self, event_type: str) -> list[dict]:
        """Records of one type, in emission order."""
        return [e for e in self.events if e["type"] == event_type]

    def __len__(self) -> int:
        return len(self.events)


class NullEventLog:
    """No-op backend; ``enabled`` is False so hot paths skip emits."""

    enabled = False
    dropped = 0

    #: Shared empty list — never mutated (all emits are no-ops).
    events: list[dict] = []

    def emit(self, event_type: str, cycle: int, *,
             tenant: str | None = None,
             request_id: int | None = None,
             **payload: object) -> dict:
        return {}

    def tail(self, n: int) -> list[dict]:
        return []

    def by_type(self, event_type: str) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0


#: Process-wide default backend for uninstrumented runs.
NULL_EVENTS = NullEventLog()
