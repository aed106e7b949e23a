"""Adaptive-degradation benchmark: tier ladders under surge and drain.

``repro adaptive-bench`` drives the same diurnal load surge
(:func:`~repro.datasets.phone_usage.surge_schedule`) through two arms of
the serve runtime:

- **baseline** — the pre-adaptive binary runtime: full service until the
  admission queue overflows, then shed-to-neutral;
- **adaptive** — the tier-laddered runtime
  (:class:`~repro.serve.adaptive.AdaptiveController`), which demotes
  sessions toward cheaper rungs as the queue and SLO burn rise and lets
  the terminal cached/neutral rung *absorb* what the baseline sheds.

The headline acceptance gates: a surge that sheds ≥ 20% of windows on
the baseline must shed < 2% on the adaptive arm while p95 latency stays
inside the serve SLO, and no degraded tier may answer worse than the
always-neutral strawman.  On top of the gates, a load × battery grid
sweeps the accuracy / throughput / energy frontier into
``BENCH_adaptive.json``.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.affect.pipeline import AffectClassifierPipeline
from repro.datasets.phone_usage import surge_schedule
from repro.obs import get_registry, get_tracer
from repro.obs.alerts import render_alert_timeline
from repro.obs.monitor import MONITOR_FAST_WINDOW_S, make_monitor, monitor_tick
from repro.obs.slo import DEFAULT_SLOS
from repro.obs.trace import RetentionPolicy
from repro.serve.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    TierLadder,
    build_default_ladder,
    ladder_from_pipeline,
)
from repro.serve.bench import _quantiles, make_pool, train_bench_pipeline
from repro.serve.runtime import AffectServer, ServeConfig

#: Distinct utterances in the surge pool — deliberately larger than the
#: arm's window cache, so most windows actually exercise the model path
#: (the throughput bench's tiny pool would turn a surge into cache hits).
POOL_SIZE = 192
#: Window cache capacity for surge arms (see :data:`POOL_SIZE`).
CACHE_CAPACITY = 48
#: Admission bound.  Must not exceed ``max_batch``: flush-on-full fires
#: at ``max_batch`` pending rows, so a larger queue would drain before
#: it could ever overflow and the surge would never shed.
MAX_QUEUE = 48
MAX_BATCH = 64
MAX_WAIT_S = 0.25
#: The bench pumps ``poll`` on this cadence between arrivals, so
#: deadline flushes land within ``MAX_WAIT_S + POLL_PERIOD_S`` of submit.
POLL_PERIOD_S = 0.125
#: Battery sized so a session serving its whole surge workload at the
#: top (LSTM float) tier spends most of a full charge.
BATTERY_CAPACITY = 15.0
#: Peak-over-base load of the headline surge every surge plan throws.
SURGE_SCALE = 8.0
#: The frontier's axes: surge scales at full charge, and initial charge
#: fractions at the headline surge.
LOAD_SCALES = (1.0, 4.0, 8.0)
BATTERY_FRACTIONS = (1.0, 0.15, 0.05)
#: Workload seconds ``repro monitor`` keeps sampling after traffic ends.
MONITOR_COOLDOWN_S = 3.0

#: The p95 objective the adaptive arm must hold during the surge.
LATENCY_SLO = next(o for o in DEFAULT_SLOS if o.name == "serve-p95-latency")


def make_surge_events(
    sessions: int, seconds: float, seed: int, pool_size: int,
    surge_scale: float,
) -> list[tuple[float, str, int]]:
    """Diurnal surge arrivals as ``(now, session_id, pool_index)``."""
    rng = np.random.default_rng(seed + 1)
    return [
        (now, f"user-{s:04d}", int(rng.integers(pool_size)))
        for now, s in surge_schedule(
            sessions, seconds, seed=seed, surge_scale=surge_scale,
        )
    ]


def tier_quality(
    ladder: TierLadder,
    pipeline: AffectClassifierPipeline,
    pool: list[np.ndarray],
    truths: list[str],
    neutral_label: str = "neutral",
) -> dict[str, object]:
    """Per-tier accuracy over the pool, against the always-neutral strawman.

    Every non-terminal rung classifies the full (DSP-prepared) pool; the
    strawman answers ``neutral`` for everything.  The smoke gate requires
    each rung to beat the strawman — a degradation ladder whose rungs are
    no better than a constant answer is not degrading, it is broken.
    """
    clf = pipeline.classifier
    assert clf is not None
    rows = pipeline.prepare_waveforms(pool)
    truth_array = np.array(truths)
    neutral_accuracy = float(np.mean(truth_array == neutral_label))
    tiers: dict[str, float] = {}
    for spec in ladder.tiers:
        if spec.terminal:
            continue
        labels = np.array([
            clf.label_names[int(i)] for i in np.asarray(spec.predict_batch(rows))
        ])
        tiers[spec.name] = float(np.mean(labels == truth_array))
    return {
        "windows": len(pool),
        "neutral_accuracy": neutral_accuracy,
        "tier_accuracy": tiers,
        "all_tiers_beat_neutral": all(
            acc >= neutral_accuracy for acc in tiers.values()
        ),
    }


def bench_adaptive_config(
    battery_fraction: float | None = None,
    promote_dwell_s: float = 1.0,
) -> AdaptiveConfig:
    """The controller tuning every bench arm shares.

    ``promote_dwell_s`` is shortened from the serving default so the
    post-surge *recovery* (promotions back up the ladder) is observable
    inside a seconds-long workload.  ``battery_fraction=None`` disables
    the battery axis.
    """
    return AdaptiveConfig(
        promote_dwell_s=promote_dwell_s,
        battery_capacity=None if battery_fraction is None else BATTERY_CAPACITY,
        initial_battery_fraction=(
            1.0 if battery_fraction is None else battery_fraction
        ),
    )


def run_surge_arm(
    pipeline: AffectClassifierPipeline,
    events: list[tuple[float, str, int]],
    pool: list[np.ndarray],
    truths: list[str],
    seconds: float,
    adaptive: AdaptiveController | None = None,
    on_tick=None,
    keep_results: bool = False,
) -> dict[str, object]:
    """One arm: pump the surge schedule through a fresh server.

    Shared verbatim between ``repro adaptive-bench``, the resilience
    surge plan (``repro chaos --plan surge``), and the benchmark suite,
    so "a surge" means exactly one thing across the repo.  Resets the
    process metrics registry (the controller's burn window reads it).

    ``on_tick(server, now)``, when given, runs once per poll tick after
    ``server.poll`` — the hook ``repro monitor`` uses to sample its
    alert manager and flight recorder in workload time.
    """
    get_registry().reset()
    config = ServeConfig(
        max_batch=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
        max_queue=MAX_QUEUE,
        cache_capacity=CACHE_CAPACITY,
        idle_ttl_s=max(seconds * 2, 30.0),
        stale_ttl_s=None,
    )
    server = AffectServer(pipeline, config, adaptive=adaptive)
    truth_by_seq: dict[int, str] = {}
    results = []
    submits = 0
    start = time.perf_counter()
    event_index = 0
    ticks = int(np.ceil(seconds / POLL_PERIOD_S)) + 1
    for k in range(ticks):
        now = k * POLL_PERIOD_S
        results.extend(server.poll(now))
        if on_tick is not None:
            on_tick(server, now)
        while event_index < len(events) and events[event_index][0] <= now:
            at, session_id, pool_index = events[event_index]
            # seq mirrors the server's per-submit counter, so results
            # that fan out of later flushes still find their truth.
            truth_by_seq[submits] = truths[pool_index]
            submits += 1
            results.extend(server.submit(session_id, pool[pool_index], at))
            event_index += 1
    results.extend(server.drain(seconds + MAX_WAIT_S))
    wall_s = time.perf_counter() - start

    windows = len(events)
    shed = [r for r in results if r.shed]
    served = [r for r in results if not r.shed]
    correct = sum(1 for r in results if r.label == truth_by_seq[r.seq])
    latencies = [r.latency_s for r in served]
    stats = server.stats()
    tier_mix: dict[str, int] = {}
    for r in results:
        if r.tier is not None:
            tier_mix[r.tier] = tier_mix.get(r.tier, 0) + 1
    arm: dict[str, object] = {
        "windows": windows,
        "wall_s": wall_s,
        "windows_per_s": windows / wall_s if wall_s > 0 else 0.0,
        "shed": len(shed),
        "shed_frac": len(shed) / windows if windows else 0.0,
        "absorbed": stats["absorbed"],
        "degraded": sum(1 for r in served if r.degraded),
        "accuracy": correct / windows if windows else 0.0,
        "latency_s": _quantiles(latencies),
        "dropped": stats["dropped"],
        "sessions_created": stats["sessions_created"],
        "sessions_evicted": (
            server.sessions.evicted_idle + server.sessions.evicted_lru
        ),
        "cache_hit_rate": stats["cache_hit_rate"],
    }
    if keep_results:
        # Non-JSON private payload for callers (``repro monitor``) that
        # need the per-window outcomes; they must pop it before dumping.
        arm["_results"] = results
    if adaptive is not None:
        arm["adaptive"] = adaptive.stats()
        arm["tier_mix"] = tier_mix
        # Recovery: sessions promoted back up once the surge passed, and
        # at least one session finished the run back at the top rung.
        top = adaptive.ladder[0].name
        arm["sessions_at_top_after"] = sum(
            1 for sid in server.sessions.ids()
            if server.sessions.get(sid).tier_index == 0
        )
        arm["top_tier"] = top
    return arm


#: Serve-layer chaos plans both ``repro chaos`` and ``repro monitor`` run.
SURGE_PLANS = ("surge", "battery-drain")


def surge_plan_fixtures(
    seed: int = 0,
    sessions: int = 96,
    seconds: float = 12.0,
    plan: str = "surge",
) -> dict[str, object]:
    """Everything one surge chaos plan needs: pipeline, pool, events.

    Shared between :func:`run_surge_workload` (the A/B chaos run) and
    ``repro monitor`` (the alerting/flight-recorder run), so both
    observe the *identical* fault: same trained pipeline, same truth
    pool, same arrival schedule.  ``battery_fraction`` is the initial
    per-session charge the plan mandates (``None`` disables the battery
    axis).
    """
    if plan not in SURGE_PLANS:
        raise ValueError(f"unknown surge plan {plan!r}")
    pipeline = train_bench_pipeline(seed=seed)
    clf = pipeline.classifier
    assert clf is not None
    pool, truths = make_pool(clf.label_names, POOL_SIZE, seed)
    events = make_surge_events(sessions, seconds, seed, POOL_SIZE, SURGE_SCALE)
    return {
        "pipeline": pipeline,
        "pool": pool,
        "truths": truths,
        "events": events,
        "battery_fraction": 0.05 if plan == "battery-drain" else None,
        "surge_start_s": 0.3 * seconds,
        "surge_end_s": 0.7 * seconds,
    }


def run_surge_workload(
    seed: int = 0,
    sessions: int = 96,
    seconds: float = 12.0,
    plan: str = "surge",
) -> dict[str, object]:
    """Serve-layer chaos: a diurnal load surge (or battery drain) A/B.

    Runs the *identical* surge schedule through the binary (shed-only)
    runtime and the adaptive tier ladder.  ``plan="battery-drain"``
    additionally starts every session at 5% charge, so the battery
    ceilings — not the queue — drive the degradation.  The contract
    mirrors :func:`~repro.resilience.chaos.run_chaos_workload`'s: zero
    unhandled exceptions, no dropped windows, no lost sessions, and the
    ladder must both absorb the surge (shed fraction strictly below the
    baseline's) and recover after it (promotions back up the ladder).

    Uses the fast single-architecture ladder
    (:func:`~repro.serve.adaptive.ladder_from_pipeline`); the full
    two-architecture ladder lives in ``repro adaptive-bench``.
    """
    fixtures = surge_plan_fixtures(seed, sessions, seconds, plan)
    pipeline = fixtures["pipeline"]
    ladder = ladder_from_pipeline(pipeline)
    pool = fixtures["pool"]
    truths = fixtures["truths"]
    events = fixtures["events"]

    baseline = run_surge_arm(pipeline, events, pool, truths, seconds)
    battery = fixtures["battery_fraction"]
    controller = AdaptiveController(ladder, bench_adaptive_config(battery))
    adaptive = run_surge_arm(pipeline, events, pool, truths, seconds,
                             adaptive=controller)

    if plan == "surge":
        # Recovery: once the surge passed, sessions climbed back up.
        plan_ok = adaptive["adaptive"]["promotions"] > 0  # type: ignore[index]
    else:
        # Budget: total drain can never exceed the fleet's 5% charge
        # (model windows stop drawing once a battery empties; only the
        # accounting-free baseline arm is unconstrained).
        budget = sessions * BATTERY_CAPACITY * 0.05
        plan_ok = (
            float(adaptive["adaptive"]["energy_drained"])  # type: ignore[index]
            <= budget + 1e-9
        )
    shed_ok = (
        adaptive["shed"] == 0
        or adaptive["shed_frac"] < baseline["shed_frac"]  # type: ignore[operator]
    )
    survived = (
        baseline["dropped"] == 0
        and adaptive["dropped"] == 0
        and adaptive["sessions_evicted"] == 0
        and shed_ok
        and plan_ok
    )
    return {
        "plan": plan,
        "seed": seed,
        "sessions": sessions,
        "seconds": seconds,
        "surge_scale": SURGE_SCALE,
        "windows": len(events),
        "ladder": list(ladder.names),
        "baseline": baseline,
        "adaptive": adaptive,
        "shed_reduction": (
            float(baseline["shed_frac"]) - float(adaptive["shed_frac"])  # type: ignore[arg-type]
        ),
        "survived": survived,
        "crashes": 0,  # any unhandled exception aborts the run itself
    }


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
    plan: str = "surge",
    sample_rate: float = 0.01,
    bundle_dir: str = "incidents",
    alert_log: str | None = None,
) -> dict[str, object]:
    """The surge chaos plan under full monitoring; returns report + gates.

    ``repro monitor`` runs the **baseline** (shed-only) arm of
    :func:`surge_plan_fixtures`, the arm where the
    8x surge is lethal, with the :func:`~repro.obs.monitor.make_monitor`
    stack ticked on every poll and tail retention under aggressive head
    sampling (default 0.01), so the retained ring holds *every*
    SLO-violating trace.  Observation goes on for
    :data:`MONITOR_COOLDOWN_S` of workload time after traffic ends, which
    lets the page resolve.  The gates (the CI ``monitor-smoke``
    contract): the page fires within one fast window (plus one sample
    interval of slack) of surge onset and then resolves, every
    SLO-violating window's trace is retained, and a bundle was written.
    """
    fixtures = surge_plan_fixtures(seed, sessions, seconds, plan)
    surge_start_s = float(fixtures["surge_start_s"])  # type: ignore[arg-type]

    registry = get_registry()
    tracer = get_tracer()
    slow_latency_s = LATENCY_SLO.threshold
    previous = tracer.configure(
        sample_rate=sample_rate, seed=seed,
        retention=RetentionPolicy(slow_latency_s=slow_latency_s),
    )
    tracer.clear()
    manager, recorder = make_monitor(bundle_dir=bundle_dir,
                                     alert_log=alert_log)

    def on_tick(server: Any, now: float) -> None:
        monitor_tick(manager, recorder, registry, now)

    try:
        arm = run_surge_arm(
            fixtures["pipeline"], fixtures["events"], fixtures["pool"],
            fixtures["truths"], seconds, on_tick=on_tick, keep_results=True,
        )
        # Monitoring keeps sampling after traffic stops: the fast/slow
        # windows slide past the surge and the calm dwell elapses.
        ticks = int(MONITOR_COOLDOWN_S / POLL_PERIOD_S) + 1
        for k in range(1, ticks + 1):
            monitor_tick(manager, recorder, registry,
                         seconds + k * POLL_PERIOD_S)
        coverage = _retention_coverage(
            arm.pop("_results", []) or [], slow_latency_s,
        )
    finally:
        tracer.configure(**previous)

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
        "surge_scale": SURGE_SCALE,
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


def run_adaptive_bench(
    seed: int = 0,
    sessions: int = 96,
    seconds: float = 12.0,
) -> dict[str, object]:
    """The full bench: headline gates plus the load × battery frontier.

    Returns the ``BENCH_adaptive.json`` payload.  ``gates.ok`` is the CI
    smoke contract:

    - the surge is *lethal* to the baseline (≥ 20% of windows shed);
    - the adaptive arm sheds < 2% of the identical schedule;
    - its p95 latency honours the serve SLO;
    - every ladder rung beats the always-neutral strawman's accuracy,
      and so does the adaptive arm end to end;
    - no windows dropped, no sessions lost, and the ladder recovered
      (promotions happened once the surge passed).
    """
    pipeline, ladder = build_default_ladder(seed=seed)
    clf = pipeline.classifier
    assert clf is not None
    pool, truths = make_pool(clf.label_names, POOL_SIZE, seed)
    quality = tier_quality(ladder, pipeline, pool, truths)

    def arm(scale: float, battery: float | None) -> dict[str, object]:
        events = make_surge_events(sessions, seconds, seed, POOL_SIZE, scale)
        controller = AdaptiveController(ladder, bench_adaptive_config(battery))
        return run_surge_arm(pipeline, events, pool, truths, seconds,
                             adaptive=controller)

    headline_events = make_surge_events(
        sessions, seconds, seed, POOL_SIZE, SURGE_SCALE
    )
    baseline = run_surge_arm(pipeline, headline_events, pool, truths, seconds)
    adaptive = arm(SURGE_SCALE, None)

    neutral_accuracy = float(quality["neutral_accuracy"])  # type: ignore[arg-type]
    p95 = float(adaptive["latency_s"]["p95"])  # type: ignore[index]
    gates = {
        "baseline_shed_frac": baseline["shed_frac"],
        "baseline_lethal": baseline["shed_frac"] >= 0.20,
        "adaptive_shed_frac": adaptive["shed_frac"],
        "adaptive_shed_ok": adaptive["shed_frac"] < 0.02,
        "adaptive_p95_s": p95,
        "latency_slo_s": LATENCY_SLO.threshold,
        "adaptive_p95_ok": p95 <= LATENCY_SLO.threshold,
        "neutral_accuracy": neutral_accuracy,
        "adaptive_accuracy": adaptive["accuracy"],
        "adaptive_accuracy_ok": adaptive["accuracy"] >= neutral_accuracy,
        "tiers_beat_neutral": quality["all_tiers_beat_neutral"],
        "no_drops": baseline["dropped"] == 0 and adaptive["dropped"] == 0,
        "no_session_loss": adaptive["sessions_evicted"] == 0,
        "recovered": (
            adaptive["adaptive"]["promotions"] > 0  # type: ignore[index]
            and adaptive["sessions_at_top_after"] > 0
        ),
    }
    gates["ok"] = all(
        bool(gates[k]) for k in (
            "baseline_lethal", "adaptive_shed_ok", "adaptive_p95_ok",
            "adaptive_accuracy_ok", "tiers_beat_neutral", "no_drops",
            "no_session_loss", "recovered",
        )
    )

    # The frontier: how accuracy, throughput, and energy trade as load
    # rises and the battery budget falls.
    frontier: list[dict[str, object]] = []
    for scale in LOAD_SCALES:
        cell = adaptive if scale == SURGE_SCALE else arm(scale, None)
        frontier.append(_frontier_row(cell, scale, battery_fraction=1.0))
    for fraction in BATTERY_FRACTIONS:
        if fraction == 1.0:
            continue  # full battery at headline load == the gates cell
        frontier.append(_frontier_row(
            arm(SURGE_SCALE, fraction), SURGE_SCALE, battery_fraction=fraction,
        ))

    return {
        "config": {
            "seed": seed,
            "sessions": sessions,
            "seconds": seconds,
            "surge_scale": SURGE_SCALE,
            "pool_size": POOL_SIZE,
            "cache_capacity": CACHE_CAPACITY,
            "max_batch": MAX_BATCH,
            "max_queue": MAX_QUEUE,
            "max_wait_s": MAX_WAIT_S,
            "battery_capacity": BATTERY_CAPACITY,
            "battery_fractions": list(BATTERY_FRACTIONS),
            "load_scales": list(LOAD_SCALES),
            "ladder": list(ladder.names),
        },
        "quality": quality,
        "baseline": baseline,
        "adaptive": adaptive,
        "gates": gates,
        "frontier": frontier,
    }


def _frontier_row(cell: dict[str, object], scale: float,
                  battery_fraction: float) -> dict[str, object]:
    """One frontier point: the axes a capacity-planning reader needs."""
    return {
        "surge_scale": scale,
        "battery_fraction": battery_fraction,
        "accuracy": cell["accuracy"],
        "windows_per_s": cell["windows_per_s"],
        "shed_frac": cell["shed_frac"],
        "p95_s": cell["latency_s"]["p95"],  # type: ignore[index]
        "energy_drained": cell["adaptive"]["energy_drained"],  # type: ignore[index]
        "tier_mix": cell.get("tier_mix", {}),
        "demotions": cell["adaptive"]["demotions"],  # type: ignore[index]
        "promotions": cell["adaptive"]["promotions"],  # type: ignore[index]
    }
