"""Multi-window burn-rate alerting over the metrics registry.

:mod:`repro.obs.slo` can say *how fast* an error budget is burning; this
module decides *when a human (or the control plane) should care*.  It
implements the SRE workbook's multi-window multi-burn-rate construction:
an :class:`AlertRule` pairs one :class:`~repro.obs.slo.SLObjective` with
a **fast** and a **slow** trailing window and fires only when **both**
burn above the rule's threshold — the slow window proves the problem is
sustained (no paging on a single bad second), the fast window proves it
is still happening (no paging an hour after recovery) and drives quick
resolution.

The canonical production pairs (budget assumed over 30 days):

- **page** — 5 m / 1 h at 14.4x burn: 2% of the monthly budget gone in
  an hour;
- **ticket** — 30 m / 6 h at 6x burn: 10% of the monthly budget gone in
  a day.

:func:`alert_rules` builds both pairs per serving objective; benchmark
workloads call it with the same geometry compressed to seconds.

An :class:`AlertManager` evaluates its rules against **one shared**
:class:`~repro.obs.slo.SnapshotHistory` (sized to the slowest window),
runs a pending→firing→resolved state machine per rule, deduplicates
notifications (one per firing episode), damps flapping via ``for_s``
dwell and ``resolve_after_s`` calm requirements, and publishes every
transition to sinks: any object with an ``emit(event)`` method
(:class:`StderrSink`, :class:`JsonlSink`; the flight recorder is just
another sink).

Evidence discipline: a window with no subtractable samples — startup,
or a registry reset racing the evaluator — yields the no-evidence
verdict from :mod:`repro.obs.slo` and **never** fires; it can, however,
let a firing alert resolve (silence after a storm is calm, not an
outage).  All timing is caller-supplied workload time.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import deque
from dataclasses import dataclass
from typing import TextIO

from repro.obs.registry import MetricsRegistry, labeled
from repro.obs.slo import DEFAULT_SLOS, SLObjective, SLOVerdict, SnapshotHistory

#: Severities, in escalation order.
SEVERITY_PAGE = "page"
SEVERITY_TICKET = "ticket"
_SEVERITIES = (SEVERITY_PAGE, SEVERITY_TICKET)

#: Rule states (``resolved`` is a transition event; the steady state
#: after resolution is ``inactive``).
STATE_INACTIVE = "inactive"
STATE_PENDING = "pending"
STATE_FIRING = "firing"
STATE_RESOLVED = "resolved"

#: Gauge values for ``alert_state{rule=...,severity=...}``.
_STATE_GAUGE = {STATE_INACTIVE: 0.0, STATE_PENDING: 1.0, STATE_FIRING: 2.0}


@dataclass(frozen=True)
class AlertRule:
    """One objective watched through a fast/slow burn-window pair.

    Parameters
    ----------
    name:
        Unique rule identifier (``shed-page``).
    objective:
        The :class:`~repro.obs.slo.SLObjective` whose budget burn is
        watched.
    severity:
        ``"page"`` or ``"ticket"``.
    fast_window_s / slow_window_s:
        Trailing window lengths in workload seconds; fast must be
        strictly shorter than slow.
    burn_threshold:
        Both windows must burn at or above this multiple of the error
        budget for the rule to be violating.
    for_s:
        Dwell: the condition must hold this long before pending
        escalates to firing (0 fires on first confirmation).
    resolve_after_s:
        Calm dwell: a firing rule resolves only after the condition has
        been false this long (flap damping).
    description:
        One line for reports and bundles.
    """

    name: str
    objective: SLObjective
    severity: str = SEVERITY_PAGE
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    burn_threshold: float = 14.4
    for_s: float = 0.0
    resolve_after_s: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")
        if self.fast_window_s <= 0:
            raise ValueError("fast_window_s must be positive")
        if self.slow_window_s <= self.fast_window_s:
            raise ValueError("slow_window_s must exceed fast_window_s")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")
        if self.for_s < 0 or self.resolve_after_s < 0:
            raise ValueError("dwell times must be non-negative")

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "objective": self.objective.name,
            "severity": self.severity,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "burn_threshold": self.burn_threshold,
            "for_s": self.for_s,
            "resolve_after_s": self.resolve_after_s,
            "description": self.description,
        }


@dataclass(frozen=True)
class AlertEvent:
    """One state transition, as published to sinks and the timeline."""

    rule: str
    severity: str
    state: str
    at: float
    burn_fast: float
    burn_slow: float
    threshold: float
    reason: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "at": self.at,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "threshold": self.threshold,
            "reason": self.reason,
        }

    def render(self) -> str:
        burn_fast = ("inf" if self.burn_fast == float("inf")
                     else f"{self.burn_fast:.1f}")
        burn_slow = ("inf" if self.burn_slow == float("inf")
                     else f"{self.burn_slow:.1f}")
        state = self.state.upper() if self.state == STATE_FIRING else self.state
        line = (f"t={self.at:8.2f}  {self.severity:<6} {self.rule:<24} "
                f"{state:<8} fast={burn_fast} slow={burn_slow} "
                f"thr={self.threshold:g}")
        if self.reason:
            line += f" ({self.reason})"
        return line


class StderrSink:
    """Render every transition as one line on a text stream."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream

    def emit(self, event: AlertEvent) -> None:
        stream = self.stream if self.stream is not None else sys.stderr
        print(f"ALERT {event.render()}", file=stream)


class JsonlSink:
    """Append every transition as one JSON object per line.

    Opens per emit so a crash mid-run loses at most the current line.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def emit(self, event: AlertEvent) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event.to_dict()) + "\n")


def alert_rules(
    objectives: tuple[SLObjective, ...] = DEFAULT_SLOS,
    fast_s: float = 300.0,
    slow_s: float = 3600.0,
    page_burn: float = 14.4,
    ticket_burn: float = 6.0,
    resolve_after_s: float = 300.0,
    ticket_scale: float = 6.0,
    windows: str = "production",
) -> tuple[AlertRule, ...]:
    """A page and a ticket rule for p95 latency and for shed rate.

    The page watches ``fast_s``/``slow_s`` at ``page_burn`` and resolves
    after ``resolve_after_s`` of calm; the ticket stretches all three
    timescales by ``ticket_scale`` and fires at ``ticket_burn``.  The
    defaults are the production pairs (5m/1h@14.4x pages, 30m/6h@6x
    tickets).  Chaos plans run tens
    of workload seconds, so ``repro monitor`` compresses the windows to
    seconds and lowers the thresholds to match the shorter dilution (an
    8x surge drives shed-rate burn past 15x within one fast window;
    calm traffic stays under 1x).  ``windows`` names the geometry in
    the rule descriptions.
    """
    by_name = {objective.name: objective for objective in objectives}
    rules: list[AlertRule] = []
    for key in ("serve-p95-latency", "shed-rate"):
        objective = by_name.get(key)
        if objective is None:
            continue
        short = "latency" if objective.kind == "latency" else "shed"
        rules.append(AlertRule(
            name=f"{short}-page",
            objective=objective,
            severity=SEVERITY_PAGE,
            fast_window_s=fast_s,
            slow_window_s=slow_s,
            burn_threshold=page_burn,
            resolve_after_s=resolve_after_s,
            description=f"{objective.name}: sustained fast burn ({windows} windows)",
        ))
        rules.append(AlertRule(
            name=f"{short}-ticket",
            objective=objective,
            severity=SEVERITY_TICKET,
            fast_window_s=ticket_scale * fast_s,
            slow_window_s=ticket_scale * slow_s,
            burn_threshold=ticket_burn,
            resolve_after_s=ticket_scale * resolve_after_s,
            description=f"{objective.name}: slow burn ({windows} windows)",
        ))
    return tuple(rules)


#: Production-geometry rules over the serving SLOs: 5m/1h@14.4x pages
#: and 30m/6h@6x tickets for p95 latency and shed rate.
DEFAULT_ALERT_RULES: tuple[AlertRule, ...] = alert_rules()


class _RuleState:
    __slots__ = ("state", "pending_since", "calm_since", "fired_at",
                 "resolved_at", "fires", "flaps")

    def __init__(self) -> None:
        self.state = STATE_INACTIVE
        self.pending_since: float | None = None
        self.calm_since: float | None = None
        self.fired_at: float | None = None
        self.resolved_at: float | None = None
        self.fires = 0
        self.flaps = 0


class AlertManager:
    """Evaluate alert rules against one shared snapshot history.

    ``observe(registry, now)`` samples the history (rate-limited by its
    ``min_interval_s``), runs every rule's state machine, updates the
    ``alert_state{rule=...,severity=...}`` gauges on ``registry``, and
    returns the transitions that happened this tick (also published to
    every sink).  Call it from the serving poll loop — it is cheap
    enough for every tick.

    Thread safety: state transitions happen under an internal lock;
    sinks are invoked *outside* it (a sink may legitimately call back
    into the manager, e.g. the flight recorder reading the timeline).
    Sink exceptions are swallowed and counted
    (``obs.alerts.sink_errors``) — alerting must never take down the
    workload it watches.
    """

    def __init__(
        self,
        rules: tuple[AlertRule, ...] = DEFAULT_ALERT_RULES,
        sinks: tuple[object, ...] = (),
        min_interval_s: float | None = None,
        flap_window_s: float | None = None,
        max_events: int = 1024,
    ) -> None:
        if not rules:
            raise ValueError("AlertManager needs at least one rule")
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("alert rule names must be unique")
        self.rules = tuple(rules)
        self.sinks: list[object] = list(sinks)
        slowest = max(rule.slow_window_s for rule in rules)
        fastest = min(rule.fast_window_s for rule in rules)
        if min_interval_s is None:
            min_interval_s = fastest / 4.0
        # Re-firing within this span of the last resolution counts as a
        # flap; default: two fast windows of the fastest rule.
        self.flap_window_s = (2.0 * fastest if flap_window_s is None
                              else flap_window_s)
        objectives = tuple(rule.objective for rule in rules)
        self.history = SnapshotHistory(
            objectives,
            max_horizon_s=slowest,
            min_interval_s=min_interval_s,
        )
        self._states = {rule.name: _RuleState() for rule in rules}
        self._events: deque[AlertEvent] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        # Verdicts only change when the history gains a snapshot, but
        # observe() runs every poll tick — cache per history version so
        # ticks between kept samples cost a dict lookup, not eight
        # histogram-delta evaluations.
        self._verdict_cache: dict[tuple[str, float], SLOVerdict] = {}
        self._verdict_version = -1
        # True while any rule is pending/firing: only then do ticks
        # without a fresh snapshot need the state machine (dwell and
        # calm clocks advance on time alone).
        self._any_active = False
        self._gauge_keys = {
            rule.name: labeled("alert_state",
                               rule=rule.name, severity=rule.severity)
            for rule in rules
        }

    # -- evaluation ----------------------------------------------------

    def _evaluate_locked(
        self, objective: SLObjective, horizon_s: float
    ) -> SLOVerdict:
        if self.history.version != self._verdict_version:
            self._verdict_cache.clear()
            self._verdict_version = self.history.version
        key = (objective.name, horizon_s)
        verdict = self._verdict_cache.get(key)
        if verdict is None:
            verdict = self.history.evaluate(objective, horizon_s)
            self._verdict_cache[key] = verdict
        return verdict

    def observe(
        self, registry: MetricsRegistry, now: float
    ) -> list[AlertEvent]:
        """Sample, run every rule's state machine, publish transitions."""
        events: list[AlertEvent] = []
        with self._lock:
            kept = self.history.sample(registry, now)
            if not kept and not self._any_active:
                # No new evidence and every rule inactive: verdicts are
                # cached and no dwell clock is running, so nothing can
                # transition.  This is the poll loop's common tick.
                return []
            active = False
            for rule in self.rules:
                state = self._states[rule.name]
                fast = self._evaluate_locked(
                    rule.objective, rule.fast_window_s)
                fast_violating = (fast.samples > 0
                                  and fast.burn_rate >= rule.burn_threshold)
                if state.state == STATE_INACTIVE and not fast_violating:
                    # Cannot leave inactive without a violating fast
                    # window; skip the slow-window evaluation.
                    continue
                slow = self._evaluate_locked(
                    rule.objective, rule.slow_window_s)
                evidence = fast.samples > 0 and slow.samples > 0
                violating = (fast_violating and evidence
                             and slow.burn_rate >= rule.burn_threshold)
                reason = "" if evidence else "no-evidence"
                events.extend(self._transition_locked(
                    rule, violating, reason, now,
                    fast.burn_rate, slow.burn_rate,
                ))
                if state.state != STATE_INACTIVE:
                    active = True
            self._any_active = active
            for event in events:
                self._events.append(event)
            self._export_locked(registry)
        if events:
            self._publish(registry, events)
        return events

    def _transition_locked(
        self,
        rule: AlertRule,
        violating: bool,
        reason: str,
        now: float,
        burn_fast: float,
        burn_slow: float,
    ) -> list[AlertEvent]:
        state = self._states[rule.name]
        events: list[AlertEvent] = []

        def emit(new_state: str, why: str = "") -> None:
            events.append(AlertEvent(
                rule=rule.name,
                severity=rule.severity,
                state=new_state,
                at=now,
                burn_fast=burn_fast,
                burn_slow=burn_slow,
                threshold=rule.burn_threshold,
                reason=why,
            ))

        if state.state == STATE_INACTIVE and violating:
            state.state = STATE_PENDING
            state.pending_since = now
            emit(STATE_PENDING, "both windows over threshold")
        if state.state == STATE_PENDING:
            if not violating:
                state.state = STATE_INACTIVE
                state.pending_since = None
                emit(STATE_INACTIVE, reason or "burn subsided before for_s")
            elif now - (state.pending_since or now) >= rule.for_s:
                state.state = STATE_FIRING
                if (state.resolved_at is not None
                        and now - state.resolved_at <= self.flap_window_s):
                    state.flaps += 1
                state.fired_at = now
                state.fires += 1
                state.calm_since = None
                emit(STATE_FIRING, f"held for_s={rule.for_s:g}")
        if state.state == STATE_FIRING:
            if violating:
                state.calm_since = None
            else:
                if state.calm_since is None:
                    state.calm_since = now
                # Resolution does NOT require evidence: silence after a
                # storm is calm.  Dedup: no events while still firing.
                if now - state.calm_since >= rule.resolve_after_s:
                    state.state = STATE_INACTIVE
                    state.resolved_at = now
                    state.pending_since = None
                    emit(STATE_RESOLVED,
                         reason or f"calm for {rule.resolve_after_s:g}s")
        return events

    # -- export / publication ------------------------------------------

    def _publish(
        self, registry: MetricsRegistry, events: list[AlertEvent]
    ) -> None:
        for event in events:
            if event.state == STATE_FIRING:
                registry.inc(labeled("obs.alerts.fired",
                                     severity=event.severity))
            elif event.state == STATE_RESOLVED:
                registry.inc(labeled("obs.alerts.resolved",
                                     severity=event.severity))
            for sink in self.sinks:
                try:
                    sink.emit(event)  # type: ignore[attr-defined]
                except Exception:
                    registry.inc("obs.alerts.sink_errors")

    def export_state(self, registry: MetricsRegistry) -> None:
        """Write ``alert_state{rule=...,severity=...}`` gauges.

        The gauge is named without the ``obs.`` prefix so the
        Prometheus exposition matches the scrape contract exactly:
        ``repro_alert_state{rule="...",severity="..."}``.
        """
        with self._lock:
            self._export_locked(registry)

    def _export_locked(self, registry: MetricsRegistry) -> None:
        for rule in self.rules:
            registry.set_gauge(
                self._gauge_keys[rule.name],
                _STATE_GAUGE[self._states[rule.name].state],
            )

    # -- introspection -------------------------------------------------

    def state(self, name: str) -> str:
        """Current state of the rule called ``name``."""
        with self._lock:
            return self._states[name].state

    def timeline(self) -> list[AlertEvent]:
        """Every retained transition, oldest first."""
        with self._lock:
            return list(self._events)

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "rules": [rule.to_dict() for rule in self.rules],
                "states": {name: st.state
                           for name, st in self._states.items()},
                "fires": {name: st.fires
                          for name, st in self._states.items()},
                "flaps": {name: st.flaps
                          for name, st in self._states.items()},
                "events": len(self._events),
                "history_samples": len(self.history),
            }


def render_alert_timeline(events: list[AlertEvent]) -> str:
    """Terminal-friendly transition log."""
    if not events:
        return "(no alert transitions)"
    lines = ["== alerts =="]
    lines.extend(event.render() for event in events)
    return "\n".join(lines)
