"""Per-user session state for the multi-tenant serving runtime.

Each connected user owns a :class:`Session`: a smoothed
:class:`~repro.affect.stream.EmotionStream` inside an
:class:`~repro.core.controller.AffectDrivenSystemManager` (so every user
gets their own committed emotion state and decoder-mode policy), plus the
per-session rung of the degradation ladder — the last label served from a
live inference, used as the shed/degraded fallback before dropping to
neutral.

The :class:`SessionManager` bounds memory two ways, both required on an
edge-class host: an **idle TTL** (a user who stopped sending windows is
forgotten) and a **hard session cap** with least-recently-active
eviction, so a burst of new users cannot grow state without bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.controller import AffectDrivenSystemManager
from repro.errors import SessionEvictedError
from repro.hw.power import DeviceBattery
from repro.obs import get_registry, labeled

#: Hard cap on the session table; creating one more evicts the least
#: recently active session.
MAX_SESSIONS = 4096


@dataclass
class Session:
    """State the runtime keeps per connected user.

    The ``tier_*`` fields and the optional :class:`DeviceBattery` belong
    to the adaptive degradation controller
    (:class:`~repro.serve.adaptive.AdaptiveController`) but live *here*
    so their lifetime is the session's lifetime: eviction drops the tier
    state with the session, and a re-created session starts back at the
    best tier with no leak from its predecessor.
    """

    session_id: str
    manager: AffectDrivenSystemManager
    created_at: float
    last_active: float
    neutral_label: str = "neutral"
    windows: int = 0
    degraded_windows: int = 0
    shed_windows: int = 0
    last_good: str | None = field(default=None, repr=False)
    #: Index into the adaptive tier ladder (0 = best); meaningless (and
    #: untouched) when the runtime has no adaptive controller.
    tier_index: int = 0
    #: Workload time of the last demotion/promotion (hysteresis dwell).
    tier_changed_at: float = field(default=float("-inf"), repr=False)
    #: Start of the current uninterrupted calm stretch, or None while
    #: any demote signal is firing (promotion requires a full calm dwell).
    calm_since: float | None = field(default=None, repr=False)
    tier_demotions: int = 0
    tier_promotions: int = 0
    battery: DeviceBattery | None = field(default=None, repr=False)

    @property
    def fallback_label(self) -> str:
        """Shed/degraded result: last live label, else neutral."""
        return self.last_good if self.last_good is not None else self.neutral_label

    def deliver(self, label: str, now: float, degraded: bool) -> str | None:
        """Feed one served label into the session's smoothed stream.

        Degraded labels are *withheld* from the stream (stale evidence
        must not vote on mood changes, mirroring the chaos workload's
        contract) but still count toward activity.  Returns the committed
        emotion state after the push.
        """
        self.windows += 1
        self.last_active = max(self.last_active, now)
        if degraded:
            self.degraded_windows += 1
            return self.manager.effective_emotion(now)
        self.last_good = label
        return self.manager.observe(label, timestamp=now)


class SessionManager:
    """Owns the session table: lookup, touch, and two-sided eviction.

    Parameters
    ----------
    idle_ttl_s:
        Sessions inactive longer than this are dropped by
        :meth:`evict_idle` (workload time).
    stale_ttl_s:
        Freshness horizon handed to each session's system manager.

    The table holds at most :data:`MAX_SESSIONS` sessions.
    """

    def __init__(
        self,
        idle_ttl_s: float = 30.0,
        stale_ttl_s: float | None = 5.0,
        neutral_label: str = "neutral",
    ) -> None:
        if idle_ttl_s <= 0:
            raise ValueError("idle_ttl_s must be positive")
        self.idle_ttl_s = idle_ttl_s
        self.stale_ttl_s = stale_ttl_s
        self.neutral_label = neutral_label
        self.created = 0
        self.evicted_idle = 0
        self.evicted_lru = 0
        self.preempted = 0
        # Ordered least- to most-recently-active.
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self._lock = threading.Lock()
        # Workload time before which no session can possibly be idle
        # past the TTL.  Touches only ever *increase* ``last_active``,
        # so ``min(last_active) + idle_ttl_s`` observed at the last full
        # scan stays a valid lower bound and lets every poll in between
        # return in O(1) instead of scanning the whole table.
        self._next_expiry_bound = 0.0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def ids(self) -> list[str]:
        """Session ids, least recently active first."""
        return list(self._sessions)

    def get(self, session_id: str) -> Session:
        """The live session, or :class:`SessionEvictedError` if absent."""
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionEvictedError(session_id)
        return session

    def peek(self, session_id: str) -> Session | None:
        """The live session without touching recency, or ``None``.

        This is the fan-out path's check: completion of an in-flight
        window must *observe* the table, never mutate it, so a session
        evicted (or preempted by the daemon) while its window was in
        flight stays evicted.
        """
        with self._lock:
            return self._sessions.get(session_id)

    def evict(self, session_id: str, reason: str = "preempted") -> Session | None:
        """Forcibly drop one session; returns it, or ``None`` if absent.

        The public preemption API (the network daemon's LRU/idle gate,
        admin kill switches): removal happens under the lock, and the
        eviction is accounted per reason
        (``serve.sessions.preempted{reason=...}``) alongside the shared
        ``serve.sessions.evicted`` total.  An in-flight window of the
        evicted session still completes against the returned object,
        never back into the table.
        """
        obs = get_registry()
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                return None
            self.preempted += 1
            obs.inc(labeled("serve.sessions.preempted", reason=reason))
            obs.inc("serve.sessions.evicted")
            obs.set_gauge("serve.sessions.active", len(self._sessions))
        return session

    def get_or_create(self, session_id: str, now: float) -> Session:
        """Fetch-and-touch, creating (and possibly LRU-evicting) on miss."""
        obs = get_registry()
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                session.last_active = max(session.last_active, now)
                self._sessions.move_to_end(session_id)
                return session
            while len(self._sessions) >= MAX_SESSIONS:
                self._sessions.popitem(last=False)
                self.evicted_lru += 1
                obs.inc("serve.sessions.evicted_lru")
                obs.inc("serve.sessions.evicted")
            session = Session(
                session_id=session_id,
                manager=AffectDrivenSystemManager(stale_ttl_s=self.stale_ttl_s),
                created_at=now,
                last_active=now,
                neutral_label=self.neutral_label,
            )
            self._sessions[session_id] = session
            self._next_expiry_bound = min(
                self._next_expiry_bound, now + self.idle_ttl_s
            )
            self.created += 1
            obs.inc("serve.sessions.created")
            obs.set_gauge("serve.sessions.active", len(self._sessions))
            return session

    def evict_idle(self, now: float) -> int:
        """Drop every session idle past the TTL; returns how many.

        Polled once per workload tick, so the common no-op case must be
        cheap: if ``now`` has not yet reached the earliest time any
        session *could* expire, return without scanning.  Only when the
        bound passes does the O(n) scan run (the table is only
        approximately ordered by ``last_active`` — deliveries touch
        sessions without reordering — so the scan must be full), and the
        scan re-derives the next bound from the survivors.
        """
        obs = get_registry()
        evicted = 0
        with self._lock:
            if now <= self._next_expiry_bound:
                return 0
            for session_id in [
                sid for sid, s in self._sessions.items()
                if now - s.last_active > self.idle_ttl_s
            ]:
                del self._sessions[session_id]
                evicted += 1
            if self._sessions:
                earliest = min(s.last_active for s in self._sessions.values())
                self._next_expiry_bound = earliest + self.idle_ttl_s
            else:
                self._next_expiry_bound = float("inf")
            if evicted:
                self.evicted_idle += evicted
                obs.inc("serve.sessions.evicted_idle", evicted)
                obs.inc("serve.sessions.evicted", evicted)
                obs.set_gauge("serve.sessions.active", len(self._sessions))
        return evicted
