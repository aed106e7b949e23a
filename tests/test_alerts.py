"""Multi-window burn-rate alerting: rules, state machine, sinks, export."""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace

import pytest

from repro.obs.alerts import (
    DEFAULT_ALERT_RULES,
    AlertManager,
    AlertRule,
    JsonlSink,
    StderrSink,
    alert_rules,
    render_alert_timeline,
)
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLObjective


def shed_objective(threshold=0.1):
    return SLObjective(name="shed", kind="ratio", metric="bad",
                       denominator="total", threshold=threshold)


def shed_rule(**overrides):
    kwargs = dict(
        name="shed-page",
        objective=shed_objective(),
        severity="page",
        fast_window_s=1.0,
        slow_window_s=3.0,
        burn_threshold=2.0,
        for_s=0.0,
        resolve_after_s=1.0,
    )
    kwargs.update(overrides)
    return AlertRule(**kwargs)


class TestAlertRuleValidation:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            shed_rule(severity="carrier-pigeon")

    def test_slow_window_must_exceed_fast(self):
        with pytest.raises(ValueError, match="slow_window_s"):
            shed_rule(fast_window_s=3.0, slow_window_s=3.0)

    def test_fast_window_must_be_positive(self):
        with pytest.raises(ValueError, match="fast_window_s"):
            shed_rule(fast_window_s=0.0)

    def test_burn_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="burn_threshold"):
            shed_rule(burn_threshold=0.0)

    def test_dwell_times_must_be_non_negative(self):
        with pytest.raises(ValueError, match="dwell"):
            shed_rule(for_s=-1.0)
        with pytest.raises(ValueError, match="dwell"):
            shed_rule(resolve_after_s=-0.1)

    def test_to_dict_is_json_serializable(self):
        doc = json.loads(json.dumps(shed_rule().to_dict()))
        assert doc["name"] == "shed-page"
        assert doc["objective"] == "shed"
        assert doc["fast_window_s"] == 1.0

    def test_manager_rejects_duplicate_rule_names(self):
        with pytest.raises(ValueError, match="unique"):
            AlertManager((shed_rule(), shed_rule()))

    def test_manager_rejects_empty_rule_set(self):
        with pytest.raises(ValueError, match="at least one"):
            AlertManager(())


class TestDefaultGeometry:
    def test_default_rules_follow_the_sre_pairs(self):
        by_name = {rule.name: rule for rule in DEFAULT_ALERT_RULES}
        page = by_name["shed-page"]
        assert (page.fast_window_s, page.slow_window_s) == (300.0, 3600.0)
        assert page.burn_threshold == pytest.approx(14.4)
        ticket = by_name["shed-ticket"]
        assert (ticket.fast_window_s, ticket.slow_window_s) == (1800.0, 21600.0)
        assert ticket.burn_threshold == pytest.approx(6.0)

    def test_bench_rules_compress_the_same_geometry(self):
        rules = {r.name: r for r in alert_rules(
            fast_s=1.0, slow_s=3.0, page_burn=8.0, ticket_burn=4.0,
            resolve_after_s=0.5, ticket_scale=2.0, windows="bench",
        )}
        assert set(rules) == {"latency-page", "latency-ticket",
                              "shed-page", "shed-ticket"}
        assert rules["shed-page"].fast_window_s == 1.0
        assert rules["shed-page"].burn_threshold == 8.0
        # The ticket tier doubles every page timescale.
        assert rules["shed-ticket"].fast_window_s == 2.0
        assert rules["shed-ticket"].slow_window_s == 6.0
        assert rules["shed-ticket"].resolve_after_s == 1.0


class _Driver:
    """Feed a manager synthetic traffic one kept sample at a time."""

    def __init__(self, manager: AlertManager) -> None:
        self.manager = manager
        self.registry = MetricsRegistry()
        self.events = []

    def tick(self, now: float, total: int = 0, bad: int = 0):
        if total:
            self.registry.inc("total", total)
        if bad:
            self.registry.inc("bad", bad)
        events = self.manager.observe(self.registry, now)
        self.events.extend(events)
        return events


class TestStateMachine:
    def test_pending_then_firing_then_resolved(self):
        manager = AlertManager((shed_rule(),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)                 # baseline snapshot
        assert manager.state("shed-page") == "inactive"
        events = drv.tick(1.0, total=100, bad=50)  # 50% bad, burn 5x
        assert [e.state for e in events] == ["pending", "firing"]
        assert manager.state("shed-page") == "firing"
        drv.tick(2.0, total=100)                 # calm begins
        assert manager.state("shed-page") == "firing"  # dwell not met
        events = drv.tick(3.0, total=100)        # calm held 1.0s
        assert [e.state for e in events] == ["resolved"]
        assert manager.state("shed-page") == "inactive"

    def test_for_s_dwell_gates_firing(self):
        manager = AlertManager((shed_rule(for_s=0.6),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        events = drv.tick(1.0, total=100, bad=50)
        assert [e.state for e in events] == ["pending"]
        assert manager.state("shed-page") == "pending"
        drv.tick(1.5, total=50, bad=25)          # still violating, 0.5s < for_s
        assert manager.state("shed-page") == "pending"
        drv.tick(1.75, total=50, bad=25)         # 0.75s >= for_s
        assert manager.state("shed-page") == "firing"

    def test_pending_subsides_without_firing(self):
        manager = AlertManager((shed_rule(for_s=1.0),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=50)
        assert manager.state("shed-page") == "pending"
        drv.tick(1.5, total=2000)                # burn subsides before for_s
        assert manager.state("shed-page") == "inactive"
        assert manager.stats()["fires"]["shed-page"] == 0

    def test_firing_is_deduplicated_within_an_episode(self):
        manager = AlertManager((shed_rule(),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)
        for t in (1.5, 2.0, 2.5):                # keeps violating
            drv.tick(t, total=50, bad=30)
        firing = [e for e in drv.events if e.state == "firing"]
        assert len(firing) == 1
        assert manager.stats()["fires"]["shed-page"] == 1

    def test_refire_within_flap_window_counts_a_flap(self):
        manager = AlertManager((shed_rule(resolve_after_s=0.25),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)         # fire #1
        # Light calm traffic: the fast window goes quiet (resolving the
        # page) while the slow window still remembers the bad stretch.
        drv.tick(2.0, total=10)
        drv.tick(2.5, total=10)                  # resolves
        assert manager.state("shed-page") == "inactive"
        drv.tick(3.0, total=100, bad=60)         # re-fires 0.5s later
        stats = manager.stats()
        assert stats["fires"]["shed-page"] == 2
        assert stats["flaps"]["shed-page"] == 1

    def test_slow_window_vetoes_a_short_spike(self):
        """Fast-only violation must not page: the burn is not sustained."""
        manager = AlertManager((shed_rule(burn_threshold=3.0,
                                          slow_window_s=4.0),))
        drv = _Driver(manager)
        # Long healthy history fills the slow window.
        for t in (0.0, 1.0, 2.0, 3.0):
            drv.tick(t, total=1000)
        # One bad fast window: fast burn 5x, slow burn diluted to ~1.2x.
        events = drv.tick(4.0, total=100, bad=50)
        assert events == []
        assert manager.state("shed-page") == "inactive"


class TestNoEvidence:
    def test_empty_history_never_fires(self):
        manager = AlertManager((shed_rule(),))
        registry = MetricsRegistry()
        assert manager.observe(registry, 0.0) == []
        assert manager.observe(registry, 0.1) == []  # rate-limited tick
        assert manager.state("shed-page") == "inactive"

    def test_registry_reset_yields_no_evidence_not_a_page(self):
        """A reset mid-window makes deltas negative — silence, not alarm."""
        manager = AlertManager((shed_rule(),))
        registry = MetricsRegistry()
        registry.inc("total", 1000)
        registry.inc("bad", 500)                  # lifetime looks terrible
        manager.observe(registry, 0.0)
        registry.reset()                          # ops wiped the registry
        registry.inc("total", 10)                 # fresh healthy traffic
        events = manager.observe(registry, 1.0)
        assert events == []
        assert manager.state("shed-page") == "inactive"

    def test_reset_lets_a_firing_alert_resolve(self):
        manager = AlertManager((shed_rule(resolve_after_s=0.5),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)
        assert manager.state("shed-page") == "firing"
        drv.registry.reset()                      # evidence gone
        drv.tick(2.0)
        drv.tick(3.0)                             # calm dwell elapsed
        assert manager.state("shed-page") == "inactive"
        assert [e.state for e in drv.events][-1] == "resolved"

    def test_concurrent_reset_never_crashes_or_wedges(self):
        """Registry resets racing observe() must stay silent failures."""
        manager = AlertManager((shed_rule(),))
        registry = MetricsRegistry()
        stop = threading.Event()

        def resetter():
            while not stop.is_set():
                registry.reset()

        thread = threading.Thread(target=resetter)
        thread.start()
        try:
            now = 0.0
            for _ in range(200):
                registry.inc("total", 100)
                registry.inc("bad", 60)
                manager.observe(registry, now)
                now += 0.25
        finally:
            stop.set()
            thread.join()
        assert manager.state("shed-page") in (
            "inactive", "pending", "firing")
        for event in manager.timeline():
            assert event.state in ("pending", "firing", "resolved",
                                   "inactive")


class TestSinksAndExport:
    def test_callback_sink_sees_every_transition(self):
        seen = []
        manager = AlertManager((shed_rule(),),
                               sinks=(SimpleNamespace(emit=seen.append),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)
        assert [e.state for e in seen] == ["pending", "firing"]
        assert seen[0].rule == "shed-page"

    def test_sink_errors_are_swallowed_and_counted(self):
        def explode(_event):
            raise RuntimeError("sink down")

        manager = AlertManager((shed_rule(),),
                               sinks=(SimpleNamespace(emit=explode),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        events = drv.tick(1.0, total=100, bad=60)
        assert [e.state for e in events] == ["pending", "firing"]
        assert drv.registry.counter("obs.alerts.sink_errors").value == 2

    def test_jsonl_sink_appends_one_object_per_line(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        manager = AlertManager((shed_rule(),),
                               sinks=(JsonlSink(str(path)),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)
        lines = path.read_text().strip().split("\n")
        assert [json.loads(line)["state"] for line in lines] == [
            "pending", "firing"]

    def test_stderr_sink_renders_one_line(self, capsys):
        import sys

        manager = AlertManager((shed_rule(),),
                               sinks=(StderrSink(sys.stderr),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)
        err = capsys.readouterr().err
        assert "ALERT" in err and "shed-page" in err and "FIRING" in err

    def test_fired_and_resolved_counters(self):
        manager = AlertManager((shed_rule(),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)
        drv.tick(2.0, total=1000)
        drv.tick(3.0, total=1000)
        counters = drv.registry.snapshot()["counters"]
        assert counters['obs.alerts.fired{severity="page"}'] == 1
        assert counters['obs.alerts.resolved{severity="page"}'] == 1

    def test_alert_state_gauge_tracks_the_state_machine(self):
        manager = AlertManager((shed_rule(),))
        drv = _Driver(manager)
        gauge = 'alert_state{rule="shed-page",severity="page"}'
        drv.tick(0.0, total=100)
        assert drv.registry.gauge(gauge).value == 0.0
        drv.tick(1.0, total=100, bad=60)
        assert drv.registry.gauge(gauge).value == 2.0
        drv.tick(2.0, total=1000)
        drv.tick(3.0, total=1000)
        assert drv.registry.gauge(gauge).value == 0.0

    def test_export_state_reaches_prometheus_exposition(self):
        registry = MetricsRegistry()
        AlertManager((shed_rule(),)).export_state(registry)
        text = prometheus_text(registry)
        assert ('repro_alert_state{rule="shed-page",severity="page"} 0'
                in text)

    def test_render_alert_timeline(self):
        manager = AlertManager((shed_rule(),))
        drv = _Driver(manager)
        drv.tick(0.0, total=100)
        drv.tick(1.0, total=100, bad=60)
        text = render_alert_timeline(manager.timeline())
        assert text.startswith("== alerts ==")
        assert "shed-page" in text and "FIRING" in text
        assert render_alert_timeline([]) == "(no alert transitions)"


class TestSharedHistory:
    def test_rules_share_one_snapshot_deque(self):
        rules = (shed_rule(),
                 shed_rule(name="shed-ticket", severity="ticket",
                           fast_window_s=2.0, slow_window_s=6.0))
        manager = AlertManager(rules)
        registry = MetricsRegistry()
        registry.inc("total", 100)
        manager.observe(registry, 0.0)
        # One kept sample regardless of rule count.
        assert manager.stats()["history_samples"] == 1
        assert manager.history.max_horizon_s == 6.0

    def test_min_interval_defaults_to_quarter_fast_window(self):
        manager = AlertManager((shed_rule(fast_window_s=1.0),))
        assert manager.history.min_interval_s == pytest.approx(0.25)

    def test_verdict_cache_tracks_history_versions(self):
        rule = shed_rule(resolve_after_s=0.0)
        manager = AlertManager((rule,))
        registry = MetricsRegistry()
        registry.inc("total", 100)
        manager.observe(registry, 0.0)
        registry.inc("total", 100)
        registry.inc("bad", 50)
        (_, firing) = manager.observe(registry, 1.0)
        # Cached verdicts equal a fresh evaluation of the same history.
        assert firing.burn_fast == manager.history.evaluate(
            rule.objective, rule.fast_window_s).burn_rate
        assert firing.burn_fast == pytest.approx(5.0)
        # New evidence invalidates the cache: the calm window resolves.
        registry.inc("total", 1000)
        (resolved,) = manager.observe(registry, 2.0)
        assert resolved.state == "resolved"
        assert resolved.burn_fast < firing.burn_fast
