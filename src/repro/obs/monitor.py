"""Monitored workloads: alerts + tail retention + flight recorder, live.

``repro monitor`` answers the question the chaos plans leave open: when
the surge hits, does the *monitoring* stack see it?  The chaos A/B
proves the adaptive ladder absorbs what the binary runtime sheds; this
module runs the **baseline (shed-only) arm** of the same plan — the arm
where the fault is actually visible — with the full observability
pipeline attached:

- an :class:`~repro.obs.alerts.AlertManager` with bench-scaled
  fast/slow burn-window rules sampled every poll tick;
- tail-based trace retention at aggressive head sampling (default
  0.01), so the retained ring holds *every* SLO-violating trace while
  head sampling keeps ~1% of the healthy ones;
- a :class:`~repro.obs.flight.FlightRecorder` registered as an alert
  sink, dumping an incident bundle the moment a page-tier rule fires.

The run's acceptance gates (the CI ``monitor-smoke`` contract):

- the page-tier rule **fires within one fast window** (plus one sample
  interval of slack) of surge onset;
- it **resolves** once the post-surge calm has held ``resolve_after_s``;
- **100% of SLO-violating windows** (shed / degraded / over-latency)
  have their traces tail-retained despite head sampling;
- an incident bundle was written.

Serve imports stay function-local: ``repro.obs`` must remain importable
without numpy (the registry/alerts path is pure stdlib).
"""

from __future__ import annotations

from typing import Any

from repro.obs.alerts import (
    AlertManager,
    JsonlSink,
    StderrSink,
    alert_rules,
    render_alert_timeline,
)
from repro.obs.flight import FlightRecorder
from repro.obs.registry import get_registry
from repro.obs.trace import RetentionPolicy, get_tracer

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
    stderr: bool = False,
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
    if stderr:
        manager.sinks.append(StderrSink())
    return manager, recorder


def _retention_coverage(
    results: list[Any],
    slow_latency_s: float,
) -> dict[str, object]:
    """Did tail retention keep every SLO-violating window's trace?

    A served window violates when it was shed, answered degraded, or
    exceeded the latency SLO threshold — exactly the predicate
    :class:`~repro.obs.trace.RetentionPolicy` applies to root spans, so
    coverage below 1.0 means retention lost evidence.
    """
    tracer = get_tracer()
    violating = sum(
        1 for r in results
        if r.shed or r.degraded or r.latency_s > slow_latency_s
    )
    retained_roots = [
        span for span in tracer.retained
        if span.parent_id is None and span.name == "serve.window"
    ]
    reasons: dict[str, int] = {}
    for span in retained_roots:
        reason = span.attrs.get("retention_reason", "?")
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "violating_windows": violating,
        "retained_roots": len(retained_roots),
        "by_reason": reasons,
        "coverage": (len(retained_roots) / violating) if violating else 1.0,
        "head_sampled_out": int(
            get_registry().counter("obs.trace.sampled_out").value
        ),
    }


def run_monitored_surge(
    seed: int = 0,
    sessions: int = 64,
    seconds: float = 12.0,
    surge_scale: float = 8.0,
    plan: str = "surge",
    sample_rate: float = 0.01,
    bundle_dir: str = "incidents",
    alert_log: str | None = None,
    stderr: bool = False,
    cooldown_s: float = 3.0,
) -> dict[str, object]:
    """The surge chaos plan under full monitoring; returns report + gates.

    Runs the **baseline** (binary, shed-only) arm of
    :func:`repro.resilience.chaos.surge_plan_fixtures` — the arm where
    the 8x surge is lethal — while the alert manager and flight
    recorder observe every poll tick.  After the pump ends, observation
    continues for ``cooldown_s`` of workload time at the poll cadence
    (monitoring outlives traffic), which is what lets the page resolve.
    """
    from repro.resilience.chaos import surge_plan_fixtures
    from repro.serve.adaptive_bench import POLL_PERIOD_S, run_surge_arm

    fixtures = surge_plan_fixtures(seed, sessions, seconds, surge_scale, plan)
    surge_start_s = float(fixtures["surge_start_s"])  # type: ignore[arg-type]

    registry = get_registry()
    tracer = get_tracer()
    previous_rate = tracer.sample_rate
    previous_retention = tracer.retention
    slow_latency_s = 0.5  # the serve-p95-latency SLO threshold
    tracer.configure(
        sample_rate=sample_rate, seed=seed,
        retention=RetentionPolicy(slow_latency_s=slow_latency_s),
    )
    tracer.clear()
    manager, recorder = make_monitor(
        bundle_dir=bundle_dir, alert_log=alert_log, stderr=stderr,
    )

    def on_tick(server: Any, now: float) -> None:
        manager.observe(registry, now)
        recorder.record(registry, now)

    try:
        arm = run_surge_arm(
            fixtures["pipeline"], fixtures["events"], fixtures["pool"],
            fixtures["truths"], seconds, on_tick=on_tick, keep_results=True,
        )
        # Monitoring keeps sampling after traffic stops: the fast/slow
        # windows slide past the surge and the calm dwell elapses.
        ticks = int(cooldown_s / POLL_PERIOD_S) + 1
        for k in range(1, ticks + 1):
            now = seconds + k * POLL_PERIOD_S
            manager.observe(registry, now)
            recorder.record(registry, now)
        coverage = _retention_coverage(
            arm.pop("_results", []) or [], slow_latency_s,
        )
    finally:
        tracer.configure(sample_rate=previous_rate,
                         retention=previous_retention)

    timeline = manager.timeline()
    page_fired = [e for e in timeline
                  if e.severity == "page" and e.state == "firing"]
    page_resolved = [e for e in timeline
                     if e.severity == "page" and e.state == "resolved"]
    first_fire_at = page_fired[0].at if page_fired else None
    # "Within one fast window of fault onset", with one sample interval
    # of slack for the discretized history.
    fire_deadline = (surge_start_s + MONITOR_FAST_WINDOW_S
                     + manager.history.min_interval_s + POLL_PERIOD_S)
    gates = {
        "page_fired": bool(page_fired),
        "first_page_at": first_fire_at,
        "surge_start_s": surge_start_s,
        "fire_deadline_s": fire_deadline,
        "page_fired_in_time": (first_fire_at is not None
                               and first_fire_at <= fire_deadline),
        "page_resolved": bool(page_resolved),
        "retention_coverage": coverage["coverage"],
        "retention_complete": coverage["coverage"] >= 1.0,
        "bundle_written": bool(recorder.bundles),
        "no_drops": arm["dropped"] == 0,
    }
    gates["ok"] = all(bool(gates[k]) for k in (
        "page_fired", "page_fired_in_time", "page_resolved",
        "retention_complete", "bundle_written", "no_drops",
    ))
    return {
        "plan": plan,
        "seed": seed,
        "sessions": sessions,
        "seconds": seconds,
        "surge_scale": surge_scale,
        "sample_rate": sample_rate,
        "rules": [rule.to_dict() for rule in manager.rules],
        "arm": arm,
        "alerts": manager.stats(),
        "timeline": [event.to_dict() for event in timeline],
        "timeline_text": render_alert_timeline(timeline),
        "retention": coverage,
        "bundles": list(recorder.bundles),
        "gates": gates,
    }


def measure_monitor_overhead(
    pipeline: Any = None,
    sessions: int = 16,
    seconds: float = 4.0,
    seed: int = 0,
    max_batch: int = 32,
    repeats: int = 12,
) -> dict[str, float]:
    """Wall-clock cost of full monitoring on the serve bench.

    Three arms, measured with a **median-of-paired-ratios** protocol:

    - ``default`` — the serve bench exactly as shipped: full tracing
      (sample rate 1.0), no alerting.  This is what every other bench
      number in the repo is measured against, and what a user runs
      before switching ``repro monitor`` on.
    - ``untraced`` — tracing fully off (rate 0.0, no retention).  The
      floor; reported for transparency, not gated.
    - ``monitored`` — everything ``repro monitor`` attaches: head
      sampling dialed down to 0.01 with tail retention (every window
      still mints a provisional root so SLO violations keep their
      evidence), per-tick alert evaluation, and flight-recorder
      snapshots.

    Why paired medians and not best-of-N per arm: on a shared (often
    single-core) host the bench wall time drifts by several percent
    over the minutes a measurement takes, which is the same order as
    the effect being measured.  Taking the min of each arm
    independently compares one arm's luckiest slice of host time
    against another's — a single outlier run swings the verdict.
    Instead each iteration runs all three arms **back to back** (so
    they see the same slice of host drift), the arm order rotates every
    iteration (so no arm systematically enjoys the warmed caches of
    going second), and the per-iteration ratio ``monitored/default`` is
    what gets aggregated.  The median of those ratios discards outlier
    iterations entirely rather than letting them set the result.

    The gated figure, ``overhead_frac = median(monitored_i/default_i)
    - 1``, is the marginal cost of turning monitoring on — and it is
    normally around zero or *negative*: tail-based retention replaces
    ~99% of span traffic with provisional roots, which buys back what
    the alert engine and recorder spend.  ``vs_untraced_frac`` records
    how far the monitored bench sits above the no-observability floor.
    The acceptance bound is ``overhead_frac < 0.02``.
    """
    import statistics
    from repro.serve.bench import run_serve_bench, train_bench_pipeline

    if pipeline is None:
        pipeline = train_bench_pipeline(seed=seed)
    registry = get_registry()
    tracer = get_tracer()
    previous_rate = tracer.sample_rate
    previous_retention = tracer.retention

    def one_run(arm: str) -> float:
        registry.reset()
        tracer.clear()
        on_tick = None
        if arm == "monitored":
            tracer.configure(sample_rate=0.01, seed=seed,
                             retention=RetentionPolicy())
            manager, recorder = make_monitor(max_bundles=0)

            def on_tick(server: Any, now: float) -> None:
                manager.observe(registry, now)
                recorder.record(registry, now)
        elif arm == "default":
            tracer.configure(sample_rate=1.0, seed=seed, retention=None)
        else:
            tracer.configure(sample_rate=0.0, seed=seed, retention=None)
        report = run_serve_bench(
            sessions=sessions, seconds=seconds, seed=seed,
            max_batch=max_batch, pipeline=pipeline, baseline=False,
            parity=False, on_tick=on_tick,
        )
        return float(report["served"]["wall_s"])  # type: ignore[index]

    arms = ("default", "untraced", "monitored")
    orders = (
        ("default", "monitored", "untraced"),
        ("monitored", "untraced", "default"),
        ("untraced", "default", "monitored"),
    )
    best = dict.fromkeys(arms, float("inf"))
    vs_default: list[float] = []
    vs_untraced: list[float] = []
    try:
        for arm in arms:  # warm-up lap, discarded
            one_run(arm)
        for i in range(repeats):
            walls: dict[str, float] = {}
            for arm in orders[i % len(orders)]:
                wall = one_run(arm)
                walls[arm] = wall
                best[arm] = min(best[arm], wall)
            vs_default.append(walls["monitored"] / walls["default"])
            vs_untraced.append(walls["monitored"] / walls["untraced"])
    finally:
        tracer.configure(sample_rate=previous_rate,
                         retention=previous_retention)
        tracer.clear()
        registry.reset()
    return {
        "sessions": sessions,
        "seconds": seconds,
        "repeats": repeats,
        "default_wall_s": best["default"],
        "untraced_wall_s": best["untraced"],
        "monitored_wall_s": best["monitored"],
        "overhead_frac": statistics.median(vs_default) - 1.0,
        "vs_untraced_frac": statistics.median(vs_untraced) - 1.0,
    }
