"""Structural event hooks: typed events, subscriber bus, trace recorder.

The paper's §4.3 breakdown reports *end-of-run* counts of splits,
expansions, and remappings; these hooks surface the same operations as
they happen, carrying the context a trace needs (segment depth, keys
moved, duration), so tests can assert ordering, the ring-buffer
recorder can reconstruct recent history after an incident, and the
bench harness can correlate latency spikes with the structure operation
that caused them.

Emission is synchronous and ordered: each event gets a process-unique,
monotonically increasing ``seq`` under the bus lock, and subscribers
run inline in ``seq`` order.  Subscriber exceptions propagate --
observability code that throws should fail tests, not vanish.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class StructuralEvent:
    """Base class: one structure-maintaining operation on one segment.

    ``local_depth``/``global_depth`` locate the segment in the EH table
    at the moment the operation ran; ``keys_moved`` is the memory-copy
    cost (the paper's dominant overhead proxy); ``duration_ns`` is the
    wall-clock cost of the operation itself; ``seq`` is the global
    emission order.
    """

    kind: ClassVar[str] = "structural"

    local_depth: int
    global_depth: int
    keys_moved: int
    duration_ns: int
    seq: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class SplitEvent(StructuralEvent):
    """A segment split into two depth+1 children (paper §3.3 Split)."""

    kind: ClassVar[str] = "split"


@dataclass(frozen=True)
class ExpandEvent(StructuralEvent):
    """A segment doubled in size, remap scaled (paper §3.3 Expansion)."""

    kind: ClassVar[str] = "expand"


@dataclass(frozen=True)
class RemapEvent(StructuralEvent):
    """A segment re-learned its remapping functions (§3.3 Remapping)."""

    kind: ClassVar[str] = "remap"


@dataclass(frozen=True)
class DoublingEvent(StructuralEvent):
    """An EH table doubled its directory (local depth hit global)."""

    kind: ClassVar[str] = "doubling"


@dataclass(frozen=True)
class DirectoryResizeEvent(StructuralEvent):
    """An EH directory changed size (doubling, or a bulk-load build)."""

    kind: ClassVar[str] = "directory_resize"

    old_size: int = 0
    new_size: int = 0


@dataclass(frozen=True)
class MergeEvent(StructuralEvent):
    """Segments merged down after deletes (paper §3.3 Deletion)."""

    kind: ClassVar[str] = "merge"


@dataclass(frozen=True)
class FusedRebuildEvent(StructuralEvent):
    """``get_many`` took a fresh read-only snapshot of the index.

    Emitted once a read phase after writes has read enough keys to pay
    for the snapshot; ``keys_moved`` carries the number of live keys
    copied (the snapshot holds no slack slots).
    """

    kind: ClassVar[str] = "fused_rebuild"


@dataclass(frozen=True)
class MaintenanceEvent(StructuralEvent):
    """The maintenance controller re-bulkloaded a degraded key span.

    ``scope`` is ``"segment"`` (one segment re-learned its remapping in
    place) or ``"table"`` (a whole EH table re-planned bottom-up);
    ``span`` is the span-start key of the rebuilt region;
    ``segments_before``/``segments_after`` count the segments covering
    the span on each side of the swap; ``keys_moved`` carries the keys
    re-bulkloaded (the operation's memory-copy cost, like every other
    structural event).
    """

    kind: ClassVar[str] = "maintenance"

    scope: str = "segment"
    span: int = 0
    segments_before: int = 0
    segments_after: int = 0


EVENT_KINDS = (
    "split",
    "expand",
    "remap",
    "doubling",
    "directory_resize",
    "merge",
    "fused_rebuild",
    "maintenance",
)

Subscriber = Callable[[StructuralEvent], None]


class EventBus:
    """Synchronous pub/sub for structural events with per-kind hooks.

    ``subscribe(cb)`` receives every event; ``subscribe(cb, kinds=...)``
    or the ``on_<kind>`` conveniences filter.  Both return a zero-arg
    unsubscribe callable.  Per-kind counters are maintained whether or
    not anyone subscribes, so an exposition snapshot is always possible.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._subs: List[Tuple[Optional[frozenset], Subscriber]] = []
        self.counts: Dict[str, int] = {k: 0 for k in EVENT_KINDS}
        self.keys_moved: Dict[str, int] = {k: 0 for k in EVENT_KINDS}
        self.duration_ns: Dict[str, int] = {k: 0 for k in EVENT_KINDS}

    def subscribe(
        self, callback: Subscriber, kinds: Optional[Tuple[str, ...]] = None
    ) -> Callable[[], None]:
        if kinds is not None:
            unknown = set(kinds) - set(EVENT_KINDS)
            if unknown:
                raise ValueError(f"unknown event kinds {sorted(unknown)}")
        entry = (frozenset(kinds) if kinds is not None else None, callback)
        with self._lock:
            self._subs.append(entry)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subs.remove(entry)
                except ValueError:
                    pass

        return unsubscribe

    # Per-kind conveniences (the hooks named in the API).

    def on_split(self, cb: Subscriber) -> Callable[[], None]:
        return self.subscribe(cb, kinds=("split",))

    def on_expand(self, cb: Subscriber) -> Callable[[], None]:
        return self.subscribe(cb, kinds=("expand",))

    def on_remap(self, cb: Subscriber) -> Callable[[], None]:
        return self.subscribe(cb, kinds=("remap",))

    def on_doubling(self, cb: Subscriber) -> Callable[[], None]:
        return self.subscribe(cb, kinds=("doubling",))

    def on_directory_resize(self, cb: Subscriber) -> Callable[[], None]:
        return self.subscribe(cb, kinds=("directory_resize",))

    def on_merge(self, cb: Subscriber) -> Callable[[], None]:
        return self.subscribe(cb, kinds=("merge",))

    def emit(self, event: StructuralEvent) -> StructuralEvent:
        """Assign the next ``seq``, update counters, run subscribers.

        The whole emission runs under the bus lock so subscribers
        observe events in strict ``seq`` order even when structural
        operations race on different EH tables.
        """
        with self._lock:
            self._seq += 1
            object.__setattr__(event, "seq", self._seq)
            kind = event.kind
            self.counts[kind] += 1
            self.keys_moved[kind] += event.keys_moved
            self.duration_ns[kind] += event.duration_ns
            for kinds, cb in self._subs:
                if kinds is None or kind in kinds:
                    cb(event)
        return event

    def total_events(self) -> int:
        return sum(self.counts.values())


class RingBufferRecorder:
    """Keeps the last ``capacity`` events: a flight recorder for traces.

    Subscribe it to a bus (``recorder.attach(bus)``); ``events()``
    returns the retained window oldest-first.  ``dropped`` counts events
    that aged out, so a consumer can tell a complete trace from a
    truncated one.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buf: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.seen = 0

    def attach(self, bus: EventBus) -> Callable[[], None]:
        return bus.subscribe(self)

    def __call__(self, event: StructuralEvent) -> None:
        with self._lock:
            self._buf.append(event)
            self.seen += 1

    @property
    def dropped(self) -> int:
        return self.seen - len(self._buf)

    def events(self) -> List[StructuralEvent]:
        with self._lock:
            return list(self._buf)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events():
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def clear(self) -> None:
        with self._lock:
            self._buf.clear()
            self.seen = 0
