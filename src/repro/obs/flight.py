"""Incident flight recorder: pre-crash telemetry, dumped on page alerts.

An alert tells you *that* the SLO burned; the forensic question is what
the system looked like in the minutes before.  The flight recorder
keeps a bounded ring of periodic :class:`~repro.obs.registry`
snapshots (like an aircraft FDR, it always holds the recent past) and,
when a page-tier alert fires, dumps a **self-contained incident
bundle**:

- ``incident.json`` — why/when, the alert rules and full transition
  timeline, counter deltas across the retained window, and a summary of
  tail-retained traces by retention reason;
- ``snapshots.jsonl`` — every retained registry snapshot, one per line,
  for offline plotting;
- ``trace.json`` — the tail-retained spans as a Perfetto/Chrome trace
  (retained roots carry ``retained:<reason>`` instant events, so the
  bundle is self-explanatory in the viewer).

The recorder is itself an alert **sink** (:meth:`emit`): register it on
the :class:`~repro.obs.alerts.AlertManager` and every page-tier
``firing`` transition triggers one bundle (bounded by ``max_bundles``;
one bundle per firing episode — dedup comes free because the manager
only emits ``firing`` once per episode).

All timing is caller-supplied workload time; bundle names embed the
firing rule and workload timestamp, never wall clock, so runs are
reproducible byte-for-byte modulo perf-counter timestamps inside spans.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Any

from repro.obs.alerts import AlertEvent, AlertManager, SEVERITY_PAGE, STATE_FIRING
from repro.obs.export import chrome_trace_json
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer


class FlightRecorder:
    """Bounded snapshot ring + retained traces → incident bundles.

    Parameters
    ----------
    tracer:
        Source of tail-retained spans (defaults to the process tracer).
    manager:
        Optional :class:`~repro.obs.alerts.AlertManager` whose rule set
        and timeline go into ``incident.json``.
    capacity:
        Snapshot ring size (oldest evicted).
    min_interval_s:
        Minimum workload time between kept snapshots; ``record`` may be
        called every tick.  Defaults to 1 Hz — the cadence real flight
        data recorders sample most channels at — which keeps the
        capture cost off the serve budget while the 64-slot ring still
        covers a minute of history.
    bundle_dir:
        Directory bundles are written under (created on demand).
    max_bundles:
        Hard cap on auto-dumped bundles per recorder lifetime.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        manager: AlertManager | None = None,
        capacity: int = 64,
        min_interval_s: float = 1.0,
        bundle_dir: str = "incidents",
        max_bundles: int = 4,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if min_interval_s < 0:
            raise ValueError("min_interval_s must be non-negative")
        self.tracer = tracer if tracer is not None else get_tracer()
        self.manager = manager
        self.min_interval_s = min_interval_s
        self.bundle_dir = bundle_dir
        self.max_bundles = max_bundles
        self._snapshots: deque[tuple[float, dict[str, Any]]] = deque(
            maxlen=capacity)
        self._registry: MetricsRegistry | None = None
        self.bundles: list[str] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def record(self, registry: MetricsRegistry, now: float) -> bool:
        """Keep one registry snapshot at workload time ``now`` (rate-limited).

        The capture is deliberately cheap — counter/gauge values plus
        raw histogram bucket states; quantile summaries are rendered
        only when a bundle is dumped (:meth:`dump`), so recording on
        every serve poll tick stays within the monitoring budget.
        """
        with self._lock:
            if (self._snapshots
                    and now - self._snapshots[-1][0] < self.min_interval_s):
                return False
            snapshot = registry.snapshot(include_histograms=False)
            snapshot["hist_states"] = registry.histogram_states()
            self._snapshots.append((now, snapshot))
            self._registry = registry
            return True

    @property
    def snapshots(self) -> list[tuple[float, dict[str, Any]]]:
        with self._lock:
            return list(self._snapshots)

    # -- alert-sink protocol -------------------------------------------

    def emit(self, event: AlertEvent) -> None:
        """Auto-dump one bundle when a page-tier alert starts firing."""
        if event.state != STATE_FIRING or event.severity != SEVERITY_PAGE:
            return
        if len(self.bundles) >= self.max_bundles:
            return
        self.dump(reason=f"{event.rule} firing", at=event.at)

    # -- bundle dump ---------------------------------------------------

    @staticmethod
    def _render(when: float, snapshot: dict[str, Any]) -> dict[str, Any]:
        """One JSONL line: the cheap capture with summaries rendered."""
        out = {"at": when}
        for key, value in snapshot.items():
            if key == "hist_states":
                out["histograms"] = {
                    name: state.summary() for name, state in sorted(value.items())
                }
            else:
                out[key] = value
        return out

    def _counter_deltas(
        self, snapshots: list[tuple[float, dict[str, Any]]]
    ) -> dict[str, float]:
        if len(snapshots) < 2:
            return {}
        first = snapshots[0][1].get("counters", {})
        last = snapshots[-1][1].get("counters", {})
        deltas: dict[str, float] = {}
        for name, value in last.items():
            delta = value - first.get(name, 0.0)
            if delta:
                deltas[name] = delta
        return deltas

    def dump(self, reason: str = "manual", at: float = 0.0) -> str:
        """Write one bundle directory; returns its path."""
        snapshots = self.snapshots
        retained = self.tracer.retained
        slug = "".join(ch if ch.isalnum() or ch in "-_" else "-"
                       for ch in reason.split()[0]) or "incident"
        name = f"incident-{len(self.bundles) + 1:02d}-{slug}-t{at:08.2f}"
        path = os.path.join(self.bundle_dir, name)
        os.makedirs(path, exist_ok=True)

        by_reason: dict[str, int] = {}
        for span in retained:
            kept = span.attrs.get("retention_reason")
            if kept:
                by_reason[kept] = by_reason.get(kept, 0) + 1

        incident: dict[str, Any] = {
            "reason": reason,
            "at": at,
            "snapshots": len(snapshots),
            "snapshot_span_s": (snapshots[-1][0] - snapshots[0][0]
                                if len(snapshots) >= 2 else 0.0),
            "counter_deltas": self._counter_deltas(snapshots),
            "retained_spans": len(retained),
            "retained_roots_by_reason": by_reason,
            "retained_total": self.tracer.retained_total,
        }
        if self.manager is not None:
            stats = self.manager.stats()
            incident["alert_rules"] = stats["rules"]
            incident["alert_states"] = stats["states"]
            incident["alert_timeline"] = [
                event.to_dict() for event in self.manager.timeline()
            ]

        with open(os.path.join(path, "incident.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(incident, fh, indent=2, sort_keys=True)
        with open(os.path.join(path, "snapshots.jsonl"), "w",
                  encoding="utf-8") as fh:
            for when, snapshot in snapshots:
                fh.write(json.dumps(self._render(when, snapshot)) + "\n")
        with open(os.path.join(path, "trace.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(chrome_trace_json(retained))

        self.bundles.append(path)
        return path
