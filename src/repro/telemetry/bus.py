"""The telemetry spine: one bounded, subscribable event bus per kernel.

Every observability surface in the system — the kernel event log, the
monitor's counters, scheduler statistics, per-request latency, and the
dispatch pipeline's per-stage cycle attribution — feeds a single
:class:`TelemetryBus` instead of keeping its own collector.  Consumers
(`KernelEventLog`, `MonitorStats`, `SchedStats`, `LatencyStats`, the bench
reports) are *views* over the bus; adding a new metric is one
``bus.count``/``bus.emit`` call plus a query, not a cross-cutting edit.

Two paths, two costs:

- **counters** (:meth:`count` / :meth:`record_max`) are plain dict
  updates.  They are what the hot paths use — a scheduler at ``quantum=1``
  ticks millions of slices and must not allocate an event object per tick.
  Counter increments charge **no simulated cycles**: telemetry is free in
  the cost model, which is what lets the parity fixtures pin
  ``total_cycles`` across the pipeline refactor.
- **events** (:meth:`emit`) are structured :class:`TelemetryEvent` records
  kept in a bounded ring (newest ``capacity`` retained, sheds counted in
  ``dropped``) and pushed synchronously to subscribers.  Subscribers see
  every event regardless of ring eviction.

Stage cycle attribution uses the reserved counter prefix
``stage.cycles.<stage>`` (see :meth:`charge_stage` / :meth:`stage_cycles`);
the dispatch pipeline fills the top-level stages and the monitor adds
``verify.*`` sub-stages (unwind / call-type / control-flow / arg-integrity).
"""

from collections import deque
from dataclasses import dataclass, field

#: counter-key prefix reserved for per-stage cycle attribution
STAGE_CYCLES_PREFIX = "stage.cycles."


@dataclass
class TelemetryEvent:
    """One structured record on the bus.

    Attributes:
        kind: the emitting subsystem ('kernel' | 'dispatch' | 'monitor' |
            'sched' | 'latency' | ...).
        event: what happened ('mmap_exec', 'syscall', 'violation',
            'request', ...).
        pid: the process the event concerns (0 when not process-scoped).
        syscall: syscall name when the event is syscall-scoped.
        stage: dispatch-pipeline stage when stage-scoped.
        verdict: dispatch outcome ('allow' | 'errno' | 'kill' |
            'violation') when verdict-scoped.
        cycles: cycle cost attributed to the event (0 when not timed).
        data: free-form payload (the kernel event ``details`` dict).
    """

    kind: str
    event: str
    pid: int = 0
    syscall: str = None
    stage: str = None
    verdict: str = None
    cycles: int = 0
    data: dict = field(default_factory=dict)


class TelemetryBus:
    """Bounded ring of :class:`TelemetryEvent` + cheap aggregate counters."""

    def __init__(self, capacity=65536):
        if capacity < 1:
            raise ValueError("telemetry bus capacity must be >= 1")
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        #: events evicted by the cap (total emitted = len(ring) + dropped)
        self.dropped = 0
        self.total = 0
        #: additive counters — the hot-path (allocation-free) telemetry
        self.counters = {}
        #: max-merged gauges (e.g. deepest unwind seen)
        self.maxima = {}
        self._subscribers = []
        #: interned "stage.cycles.<stage>" keys — charge_stage runs on the
        #: monitor's per-hook path, so skip the string concat after the
        #: first attribution of each stage
        self._stage_keys = {}

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def emit(
        self,
        kind,
        event,
        pid=0,
        syscall=None,
        stage=None,
        verdict=None,
        cycles=0,
        data=None,
    ):
        """Publish one structured event; returns it."""
        record = TelemetryEvent(
            kind=kind,
            event=event,
            pid=pid,
            syscall=syscall,
            stage=stage,
            verdict=verdict,
            cycles=cycles,
            data=data if data is not None else {},
        )
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        self.total += 1
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def subscribe(self, callback):
        """Register ``callback(event)``; called synchronously on every emit."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback):
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def events(self):
        """The retained event window, oldest first."""
        return list(self._ring)

    def query(self, kind=None, event=None, pid=None, syscall=None):
        """Filter the retained window by any combination of fields."""
        out = []
        for record in self._ring:
            if kind is not None and record.kind != kind:
                continue
            if event is not None and record.event != event:
                continue
            if pid is not None and record.pid != pid:
                continue
            if syscall is not None and record.syscall != syscall:
                continue
            out.append(record)
        return out

    def __len__(self):
        return len(self._ring)

    # ------------------------------------------------------------------
    # counters (the allocation-free hot path)
    # ------------------------------------------------------------------

    def count(self, key, amount=1):
        """Add ``amount`` to counter ``key`` (creates it at 0)."""
        counters = self.counters
        counters[key] = counters.get(key, 0) + amount

    def get(self, key, default=0):
        return self.counters.get(key, default)

    def record_max(self, key, value):
        maxima = self.maxima
        if value > maxima.get(key, 0):
            maxima[key] = value

    def max_of(self, key, default=0):
        return self.maxima.get(key, default)

    def counters_with_prefix(self, prefix):
        """``{suffix: value}`` for every counter starting with ``prefix``."""
        start = len(prefix)
        return {
            key[start:]: value
            for key, value in self.counters.items()
            if key.startswith(prefix)
        }

    # ------------------------------------------------------------------
    # stage cycle attribution
    # ------------------------------------------------------------------

    def charge_stage(self, stage, cycles):
        """Attribute ``cycles`` of simulated time to a pipeline stage.

        Telemetry-only: nothing is charged to any ledger — the caller has
        already done that; this records *where* those cycles went.
        """
        if cycles:
            keys = self._stage_keys
            key = keys.get(stage)
            if key is None:
                key = keys[stage] = STAGE_CYCLES_PREFIX + stage
            counters = self.counters
            counters[key] = counters.get(key, 0) + cycles

    def stage_cycles(self):
        """``{stage: cycles}`` for every attributed stage and sub-stage."""
        return self.counters_with_prefix(STAGE_CYCLES_PREFIX)

    # ------------------------------------------------------------------
    # rebinding
    # ------------------------------------------------------------------

    def absorb(self, other):
        """Merge another bus's state into this one (counter add, maxima
        max, ring append) — used when a stats view created standalone is
        rebound to a kernel's bus at attach time."""
        if other is self:
            return self
        for key, value in other.counters.items():
            self.count(key, value)
        for key, value in other.maxima.items():
            self.record_max(key, value)
        for record in other._ring:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(record)
        self.total += other.total
        self.dropped += other.dropped
        return self
