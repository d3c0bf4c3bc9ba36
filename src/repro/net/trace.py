"""Optional message tracing.

A :class:`MessageTrace` attached to a :class:`~repro.net.topology.Network`
records every transmitted message into a bounded ring buffer -- the
debugging view a developer reaches for when a policy misroutes.  Tracing
is off by default; enabling it costs one record append per send.

Each record also carries the message's *outcome*: ``"sent"`` while in
flight, then ``"delivered"`` or ``"dropped"`` once the network learns its
fate -- so a trace distinguishes lost messages on its own instead of
requiring a cross-reference against ``TrafficStats.lost_by_kind``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.net.message import Message, MessageKind

OUTCOME_SENT = "sent"
OUTCOME_DELIVERED = "delivered"
OUTCOME_DROPPED = "dropped"


@dataclass
class TraceRecord:
    """One transmitted message, as seen at send time.

    ``outcome`` starts as ``"sent"`` and is resolved in place when the
    delivery (or drop) happens; a record still reading ``"sent"`` after
    the run drained belongs to a message swallowed with the run's end.
    """

    time: float
    source: int
    destination: int
    kind: str
    size_bytes: int
    summary_entries: int
    message_id: int
    outcome: str = OUTCOME_SENT


class MessageTrace:
    """Bounded ring buffer of :class:`TraceRecord`."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ConfigurationError("trace capacity must be >= 1")
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque()
        self._by_id: Dict[int, TraceRecord] = {}
        self.total_recorded = 0

    def record(self, time: float, message: Message) -> None:
        """Append one message (called by the network's send path)."""
        if len(self._records) == self.capacity:
            evicted = self._records.popleft()
            # Retransmissions reuse a message id; only forget the mapping
            # when it still points at the record being evicted.
            if self._by_id.get(evicted.message_id) is evicted:
                del self._by_id[evicted.message_id]
        record = TraceRecord(
            time=time,
            source=message.source,
            destination=message.destination,
            kind=message.kind.value,
            size_bytes=message.size,
            summary_entries=message.summary_entries,
            message_id=message.message_id,
        )
        self._records.append(record)
        self._by_id[message.message_id] = record
        self.total_recorded += 1

    def _resolve(self, message_id: int, outcome: str) -> None:
        record = self._by_id.get(message_id)
        if record is not None:
            record.outcome = outcome

    def mark_delivered(self, message_id: int) -> None:
        """Resolve a traced message as delivered (called at arrival time)."""
        self._resolve(message_id, OUTCOME_DELIVERED)

    def mark_dropped(self, message_id: int) -> None:
        """Resolve a traced message as lost in transit."""
        self._resolve(message_id, OUTCOME_DROPPED)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def dropped(self) -> int:
        """Records that fell off the ring buffer."""
        return self.total_recorded - len(self._records)

    def filter(
        self,
        source: Optional[int] = None,
        destination: Optional[int] = None,
        kind: Optional[MessageKind] = None,
        since: float = 0.0,
        outcome: Optional[str] = None,
    ) -> List[TraceRecord]:
        """Records matching every given criterion, in send order."""
        selected = []
        for record in self._records:
            if source is not None and record.source != source:
                continue
            if destination is not None and record.destination != destination:
                continue
            if kind is not None and record.kind != kind.value:
                continue
            if record.time < since:
                continue
            if outcome is not None and record.outcome != outcome:
                continue
            selected.append(record)
        return selected

    def counts_by_kind(self) -> Counter:
        """Message counts per kind over the retained window."""
        return Counter(record.kind for record in self._records)

    def counts_by_outcome(self) -> Counter:
        """Message counts per outcome (sent / delivered / dropped)."""
        return Counter(record.outcome for record in self._records)

    def tail(self, count: int = 20) -> List[TraceRecord]:
        """The most recent ``count`` records."""
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        return list(self._records)[-count:]
