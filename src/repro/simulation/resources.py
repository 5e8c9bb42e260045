"""Shared-resource primitives: capacity-limited resources and FIFO stores.

These model contention in the cluster: a node's CPU cores, a disk's
request queue, a NIC.  Both follow the SimPy request/release idiom but
are deliberately small: requests are events, granted strictly FIFO
(deterministic), and cancellable (a process killed while queued must not
later wake up and hold the resource).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from repro.simulation.core import Environment, Event, SimulationError


class _Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_seq", "_abandoned")

    def __init__(self, env: Environment, resource: "Resource", priority: int = 0):
        super().__init__(env)
        self.resource = resource
        self.priority = priority
        self._seq = 0
        self._abandoned = False

    def cancel(self) -> None:
        """Withdraw the claim; releases the slot if already granted."""
        if self.triggered:
            self.resource.release(self)
        else:
            self.resource._abandon(self)


class Resource:
    """A counted resource with ``capacity`` identical slots.

    Grants are FIFO within a priority class; a lower ``priority`` value is
    served first (used e.g. to let small latency-sensitive disk writes
    overtake bulk checkpoint chunks between service quanta).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._queue: list[tuple[int, int, _Request]] = []  # heap
        self._seq = 0
        self._users: set[_Request] = set()
        self._cancelled = 0  # tombstoned (abandoned) entries still in _queue

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        return len(self._queue) - self._cancelled

    def request(self, priority: int = 0) -> _Request:
        req = _Request(self.env, self, priority=priority)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._seq += 1
            req._seq = self._seq
            heapq.heappush(self._queue, (priority, self._seq, req))
        return req

    def release(self, request: _Request) -> None:
        if request not in self._users:
            raise SimulationError("releasing a request that does not hold the resource")
        self._users.remove(request)
        self._grant_next()

    def _abandon(self, request: _Request) -> None:
        # Lazy tombstone instead of an O(n) scan + heapify per cancel
        # (interrupt storms — a rack failure killing dozens of queued
        # writers — made each cancel linear in the wait queue).  The
        # entry stays in the heap, flagged, and is discarded when it
        # surfaces in _grant_next; once tombstones outnumber live
        # entries the heap is compacted in one deterministic pass.
        if request._abandoned:
            return
        request._abandoned = True
        self._cancelled = cancelled = self._cancelled + 1
        if cancelled > len(self._queue) - cancelled:
            self._queue = [e for e in self._queue if not e[2]._abandoned]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def _grant_next(self) -> None:
        queue = self._queue
        users = self._users
        while queue and len(users) < self.capacity:
            _p, _s, nxt = heapq.heappop(queue)
            if nxt._abandoned:
                self._cancelled -= 1
                continue
            users.add(nxt)
            nxt.succeed()


class _Get(Event):
    __slots__ = ("store",)

    def __init__(self, env: Environment, store: "Store"):
        super().__init__(env)
        self.store = store

    def cancel(self) -> None:
        if not self.triggered:
            self.store._abandon_get(self)

    def _recycle(self) -> None:
        super()._recycle()
        self.store = None


class _Put(Event):
    __slots__ = ("store", "item")

    def __init__(self, env: Environment, store: "Store", item: Any):
        super().__init__(env)
        self.store = store
        self.item = item

    def cancel(self) -> None:
        if not self.triggered:
            self.store._abandon_put(self)

    def _recycle(self) -> None:
        super()._recycle()
        self.store = None
        self.item = None


class Store:
    """An unbounded-or-bounded FIFO queue of items.

    ``get()`` returns an event that fires with the next item; ``put(item)``
    returns an event that fires when the item is accepted (immediately if
    under capacity).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[_Get] = deque()
        self._putters: deque[_Put] = deque()
        # Get/put events are recycled through the environment's free
        # lists (shared across stores per class).
        env.register_pool(_Get)
        env.register_pool(_Put)

    def __len__(self) -> int:
        return len(self.items)

    def peek_all(self) -> tuple[Any, ...]:
        """Snapshot of queued items, head first (used by checkpointing)."""
        return tuple(self.items)

    def put(self, item: Any) -> _Put:
        ev = self.env.acquire(_Put)
        if ev is None:
            ev = _Put(self.env, self, item)
        else:
            ev.store = self
            ev.item = item
        self._putters.append(ev)
        self._drain()
        return ev

    def get(self) -> _Get:
        ev = self.env.acquire(_Get)
        if ev is None:
            ev = _Get(self.env, self)
        else:
            ev.store = self
        self._getters.append(ev)
        self._drain()
        return ev

    def _drain(self) -> None:
        """Settle every request that can be: puts while there is room, then
        gets while there are items, and again (a get frees the slot the
        next blocked put takes) until no get was served."""
        items = self.items
        getters = self._getters
        putters = self._putters
        while True:
            while putters and len(items) < self.capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed()
            if not (getters and items):
                return
            while getters and items:
                getters.popleft().succeed(items.popleft())

    def _abandon_get(self, ev: _Get) -> None:
        if ev in self._getters:
            self._getters.remove(ev)

    def _abandon_put(self, ev: _Put) -> None:
        if ev in self._putters:
            self._putters.remove(ev)


class Gate:
    """A reusable open/closed barrier.

    Processes wait on :meth:`wait`; :meth:`open` releases all current
    waiters and lets future waiters pass immediately until :meth:`close`.
    Used to pause an HAU's intake during synchronous checkpoints.
    """

    def __init__(self, env: Environment, opened: bool = True):
        self.env = env
        self._opened = opened
        self._waiters: list[Event] = []

    @property
    def is_open(self) -> bool:
        return self._opened

    def wait(self) -> Event:
        ev = self.env.event(name="gate")
        if self._opened:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self._opened = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    def close(self) -> None:
        self._opened = False
