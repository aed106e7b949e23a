"""The monitoring stack: burn-rate alerts feeding a flight recorder.

:func:`make_monitor` wires an :class:`~repro.obs.alerts.AlertManager`
with bench-scaled fast/slow burn-window rules to a
:class:`~repro.obs.flight.FlightRecorder` registered as its sink, which
dumps an incident bundle the moment a page-tier rule fires.
:func:`monitor_tick` samples both once.  ``repro daemon`` ticks the
stack on its poll loop; ``repro monitor``
(:func:`repro.serve.adaptive_bench.run_monitored_surge`) ticks it on the
surge plan's poll ticks.
"""

from __future__ import annotations

from repro.obs.alerts import AlertManager, JsonlSink, alert_rules
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import get_tracer

#: Bench-scaled rule windows (workload seconds).  The surge plan's poll
#: period is 0.125 s; a 1 s fast window spans 8 ticks.
MONITOR_FAST_WINDOW_S = 1.0
MONITOR_SLOW_WINDOW_S = 3.0
#: Page when both windows burn at ≥ 8x budget.  During the 8x surge the
#: baseline arm sheds ~20% of windows against a 1% budget (burn ~20x);
#: calm traffic stays well under 1x, so the margin is wide on both
#: sides.
MONITOR_PAGE_BURN = 8.0
MONITOR_TICKET_BURN = 4.0
#: Calm dwell before a firing rule resolves (flap damping).
MONITOR_RESOLVE_AFTER_S = 0.5
#: The ticket tier doubles every page timescale.
MONITOR_TICKET_SCALE = 2.0


def make_monitor(
    bundle_dir: str = "incidents",
    alert_log: str | None = None,
    max_bundles: int = 4,
) -> tuple[AlertManager, FlightRecorder]:
    """One wired alerting stack: manager + flight recorder as its sink."""
    manager = AlertManager(
        alert_rules(
            fast_s=MONITOR_FAST_WINDOW_S,
            slow_s=MONITOR_SLOW_WINDOW_S,
            page_burn=MONITOR_PAGE_BURN,
            ticket_burn=MONITOR_TICKET_BURN,
            resolve_after_s=MONITOR_RESOLVE_AFTER_S,
            ticket_scale=MONITOR_TICKET_SCALE,
            windows="bench",
        ),
    )
    recorder = FlightRecorder(
        tracer=get_tracer(),
        manager=manager,
        bundle_dir=bundle_dir,
        max_bundles=max_bundles,
    )
    manager.sinks.append(recorder)
    if alert_log:
        manager.sinks.append(JsonlSink(alert_log))
    return manager, recorder


def monitor_tick(manager: AlertManager, recorder: FlightRecorder,
                 registry: MetricsRegistry, now: float) -> None:
    """One monitoring sample at workload time ``now``.

    The alert rules are evaluated first, so a page that fires on this
    tick has its bundle written before the recorder takes its snapshot.
    Both calls are internally rate-limited, so a per-poll tick costs one
    comparison each in the common case.
    """
    manager.observe(registry, now)
    recorder.record(registry, now)
