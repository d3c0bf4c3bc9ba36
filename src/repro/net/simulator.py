"""A deterministic discrete-event scheduler.

The scheduler is the clock of the simulated WAN.  Components schedule
callbacks at absolute or relative simulated times; :meth:`EventScheduler.run`
drains the event queue in time order.

Ordering contract.  The heap holds plain tuples
``(time, phase, rank, seq, event)`` and pops them in ``(time, phase,
rank, seq)`` order:

* **phase 0** -- events scheduled without an explicit key (all
  construction-time scheduling: workload arrivals, heartbeat ticks,
  telemetry samples, fault edges).  ``rank`` is 0 and ``seq`` is the
  scheduler's insertion counter, so phase-0 ties fire in the order they
  were scheduled -- the historical behavior.
* **phase 1** -- events scheduled with an explicit ``key=(rank, seq)``
  from an :class:`EventKeySource`.  The rank identifies the scheduling
  *entity* (a node, a link) and the seq is that entity's own monotone
  counter, so the key is a pure function of the entity's local history.

No two queued entries share ``(phase, rank, seq)``, so tuple comparison
never reaches the :class:`Event` handle, which defines no ordering.
Phase-1 keys make the order of same-time events a pure function of
each entity's own history.  A key taken from global insertion order
would shift whenever an unrelated component scheduled one more or one
fewer event first (a link created lazily in a different order, a
feature switched on elsewhere), so same-time ties -- and with them the
recorded goldens -- would drift for reasons unrelated to the entity.

The design intentionally avoids coroutine-style processes: the node logic in
:mod:`repro.core.node` is reactive (it only acts when a tuple or message
arrives), so plain callbacks keep the control flow explicit and easy to
test.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional, Tuple

from repro.errors import SimulationError

EventKey = Tuple[int, int]
"""An entity-local ``(rank, seq)`` ordering key (see :class:`EventKeySource`)."""


class EventKeySource:
    """Deterministic ``(rank, seq)`` event keys for one scheduling entity.

    ``rank`` is the entity's canonical id in the run (node id for nodes;
    ``num_nodes + src * num_nodes + dst`` for links), ``seq`` a monotone
    per-entity counter.  Keys depend only on the entity's own scheduling
    history, never on global insertion order (see the module docstring).
    """

    __slots__ = ("rank", "_next")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._next = 0

    def next_key(self) -> EventKey:
        key = (self.rank, self._next)
        self._next += 1
        return key


class Event:
    """Handle of one scheduled callback (see :meth:`EventScheduler.schedule_at`).

    The ordering key lives in the heap entry, not here (see the module
    docstring); the handle only carries what firing and cancelling need.
    """

    __slots__ = ("time", "callback", "cancelled", "material", "owner")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        material: bool = True,
        owner: Optional["EventScheduler"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.material = material
        self.owner = owner

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()


class EventScheduler:
    """Priority-queue event loop with a monotone simulated clock.

    Cancelled events are not left to rot in the heap: the scheduler
    counts them, reports :attr:`pending` as *live* events only, and
    compacts the heap whenever cancelled entries outnumber live ones --
    a retransmit-heavy reliable-transport run would otherwise grow the
    queue without bound.
    """

    COMPACTION_MIN_QUEUE = 64
    """Skip compaction below this queue length; rebuilding tiny heaps
    costs more than the dead entries do."""

    def __init__(self) -> None:
        self._queue: list[Tuple[float, int, int, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._material_now = 0.0
        self._running = False
        self._events_processed = 0
        self._cancelled_pending = 0
        self.compactions = 0
        self.telemetry = None
        """Optional :class:`repro.telemetry.TelemetryHub`; when set,
        heap compactions are emitted as scheduler events."""

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def material_now(self) -> float:
        """Simulated time of the last *material* event processed.

        Observation-only events (telemetry sampling ticks, scheduled with
        ``material=False``) advance :attr:`now` but not this clock, so a
        run's reported duration is identical with telemetry on or off.
        """
        return self._material_now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_pending

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        if (
            len(self._queue) >= self.COMPACTION_MIN_QUEUE
            and self._cancelled_pending > len(self._queue) // 2
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors."""
        queue = self._queue
        before = len(queue)
        # In place: a running loop holds this list in a local.
        queue[:] = [entry for entry in queue if not entry[4].cancelled]
        heapq.heapify(queue)
        self._cancelled_pending = 0
        self.compactions += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "sched.compaction",
                category="scheduler",
                time=self._now,
                dropped=before - len(self._queue),
                remaining=len(self._queue),
            )

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        material: bool = True,
        key: Optional[EventKey] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Scheduling in the past is an error: the clock only moves forward.
        ``material=False`` marks an observation-only event (telemetry
        sampling) that must not advance :attr:`material_now`.  ``key``
        is an entity-local ``(rank, seq)`` from an
        :class:`EventKeySource` (phase 1); without one the event is
        phase 0 and ties break by insertion order.
        """
        if time < self._now:
            raise SimulationError(
                "cannot schedule at t=%g; clock is already at t=%g" % (time, self._now)
            )
        event = Event(time, callback, material, self)
        if key is None:
            entry = (time, 0, 0, next(self._sequence), event)
        else:
            entry = (time, 1, key[0], key[1], event)
        heapq.heappush(self._queue, entry)
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        material: bool = True,
        key: Optional[EventKey] = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError("delay must be non-negative, got %g" % delay)
        return self.schedule_at(
            self._now + delay, callback, material=material, key=key
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Runs until the queue is empty, the next event lies beyond ``until``
        (the clock is then advanced to ``until``), or ``max_events``
        callbacks have executed.  Returns the simulated time at exit.
        """
        if self._running:
            raise SimulationError("scheduler is not reentrant")
        self._running = True
        executed = 0
        limit = math.inf if max_events is None else max_events
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                if executed >= limit:
                    break
                if until is not None and queue[0][0] > until:
                    break
                event = heappop(queue)[4]
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = time = event.time
                if event.material:
                    self._material_now = time
                event.callback()
                self._events_processed += 1
                executed += 1
            if until is not None and self._now < until:
                self._now = until
                self._material_now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed > before
