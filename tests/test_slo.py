"""SLO declaration, evaluation, and budget/burn math."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLObjective,
    SnapshotHistory,
    evaluate_slo,
    evaluate_slos,
    render_slo_report,
)


def latency_slo(threshold=0.5, target=0.95):
    return SLObjective(name="lat", kind="latency", metric="latency_s",
                       threshold=threshold, target=target)


def ratio_slo(threshold=0.05):
    return SLObjective(name="shed", kind="ratio", metric="bad",
                       denominator="total", threshold=threshold)


class TestSLObjectiveValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", metric="m",
                        threshold=0.1)

    def test_ratio_needs_denominator(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="ratio", metric="m", threshold=0.1)

    def test_latency_target_range(self):
        with pytest.raises(ValueError):
            latency_slo(target=0.0)
        with pytest.raises(ValueError):
            latency_slo(target=1.2)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            latency_slo(threshold=-1.0)


class TestLatencyObjectives:
    def test_pass_with_budget_math(self):
        reg = MetricsRegistry()
        # 99 fast samples, 1 slow: bad fraction 1%, budget 5% → burn 0.2
        for _ in range(99):
            reg.observe("latency_s", 0.01)
        reg.observe("latency_s", 2.0)
        verdict = evaluate_slo(reg, latency_slo(threshold=0.5, target=0.95))
        assert verdict.ok
        assert verdict.samples == 100
        assert verdict.bad_fraction == pytest.approx(0.01)
        assert verdict.error_budget == pytest.approx(0.05)
        assert verdict.burn_rate == pytest.approx(0.2)
        assert verdict.budget_remaining == pytest.approx(0.8)

    def test_fail_when_budget_overspent(self):
        reg = MetricsRegistry()
        for _ in range(80):
            reg.observe("latency_s", 0.01)
        for _ in range(20):
            reg.observe("latency_s", 2.0)
        verdict = evaluate_slo(reg, latency_slo(threshold=0.5, target=0.95))
        assert not verdict.ok
        assert verdict.bad_fraction == pytest.approx(0.2)
        assert verdict.burn_rate == pytest.approx(4.0)
        assert verdict.budget_remaining == 0.0

    def test_empty_histogram_passes(self):
        verdict = evaluate_slo(MetricsRegistry(), latency_slo())
        assert verdict.ok
        assert verdict.samples == 0
        assert verdict.bad_fraction == 0.0
        assert verdict.value == 0.0


class TestRatioObjectives:
    def test_pass_and_fail(self):
        reg = MetricsRegistry()
        reg.inc("bad", 2)
        reg.inc("total", 100)
        verdict = evaluate_slo(reg, ratio_slo(threshold=0.05))
        assert verdict.ok
        assert verdict.value == pytest.approx(0.02)
        assert verdict.burn_rate == pytest.approx(0.4)
        assert not evaluate_slo(reg, ratio_slo(threshold=0.01)).ok

    def test_zero_denominator_is_clean(self):
        reg = MetricsRegistry()
        reg.inc("bad", 5)  # numerator without traffic: nothing to judge
        verdict = evaluate_slo(reg, ratio_slo())
        assert verdict.ok
        assert verdict.bad_fraction == 0.0
        assert verdict.samples == 0

    def test_zero_budget_burn(self):
        reg = MetricsRegistry()
        reg.inc("total", 10)
        zero = SLObjective(name="never", kind="ratio", metric="bad",
                           denominator="total", threshold=0.0)
        assert evaluate_slo(reg, zero).burn_rate == 0.0
        reg.inc("bad", 1)
        verdict = evaluate_slo(reg, zero)
        assert verdict.burn_rate == float("inf")
        assert verdict.budget_remaining == 0.0
        assert not verdict.ok


class TestDefaultsAndReport:
    def test_defaults_evaluate_in_declared_order(self):
        verdicts = evaluate_slos(MetricsRegistry())
        assert [v.objective.name for v in verdicts] == [
            o.name for o in DEFAULT_SLOS
        ]

    def test_default_names_cover_the_stack(self):
        names = {o.name for o in DEFAULT_SLOS}
        assert names == {"serve-p95-latency", "emotion-staleness",
                         "shed-rate"}

    def test_to_dict_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.observe("latency_s", 0.1)
        d = evaluate_slo(reg, latency_slo()).to_dict()
        json.dumps(d)
        assert d["name"] == "lat"
        assert d["ok"] is True
        assert {"bad_fraction", "error_budget", "burn_rate",
                "budget_remaining", "samples"} <= set(d)

    def test_render_report(self):
        reg = MetricsRegistry()
        for _ in range(10):
            reg.observe("latency_s", 0.01)
        reg.inc("bad", 9)
        reg.inc("total", 10)
        verdicts = [
            evaluate_slo(reg, latency_slo()),
            evaluate_slo(reg, ratio_slo()),
        ]
        text = render_slo_report(verdicts)
        assert "PASS" in text and "FAIL" in text
        assert "burn=" in text and "remaining=" in text
        assert render_slo_report([]) == "(no objectives declared)"

    def test_render_report_inf_burn(self):
        reg = MetricsRegistry()
        reg.inc("bad", 1)
        reg.inc("total", 10)
        zero = SLObjective(name="never", kind="ratio", metric="bad",
                           denominator="total", threshold=0.0)
        assert "burn=inf" in render_slo_report([evaluate_slo(reg, zero)])


class TestBurnWindow:
    """Trailing-window burn: the control signal behind adaptive tiers."""

    def test_empty_window_is_no_evidence(self):
        history = SnapshotHistory((latency_slo(),), max_horizon_s=5.0)
        verdict = history.evaluate(latency_slo())
        assert verdict.ok is True
        assert verdict.burn_rate == 0.0
        assert verdict.samples == 0.0
        assert history.span_s() == 0.0

    def test_single_sample_window_is_still_partial(self):
        reg = MetricsRegistry()
        for _ in range(10):
            reg.observe("latency_s", 9.0)  # terrible, but only one snapshot
        history = SnapshotHistory((latency_slo(),), max_horizon_s=5.0)
        assert history.sample(reg, 0.0) is True
        verdict = history.evaluate(latency_slo())
        assert verdict.ok is True and verdict.burn_rate == 0.0
        assert history.span_s() == 0.0

    def test_min_interval_drops_rapid_samples(self):
        reg = MetricsRegistry()
        history = SnapshotHistory((latency_slo(),), max_horizon_s=5.0,
                                  min_interval_s=0.25)
        assert history.sample(reg, 0.0) is True
        assert history.sample(reg, 0.1) is False
        assert history.sample(reg, 0.24) is False
        assert history.sample(reg, 0.25) is True

    def test_window_forgets_the_lifetime(self):
        """A bad past must not keep burning once the window slides past it."""
        reg = MetricsRegistry()
        history = SnapshotHistory((latency_slo(),), max_horizon_s=2.0,
                                  min_interval_s=0.0)
        for _ in range(100):
            reg.observe("latency_s", 9.0)      # historical overload
        history.sample(reg, 0.0)
        for _ in range(100):
            reg.observe("latency_s", 0.01)     # now healthy
        history.sample(reg, 1.0)
        # Lifetime evaluation still sees 50% bad...
        assert evaluate_slo(reg, latency_slo()).ok is False
        # ...but samples past the bad stretch see only the healthy delta.
        history.sample(reg, 3.5)
        verdict = history.evaluate(latency_slo())
        assert verdict.ok is True
        assert verdict.burn_rate == 0.0

    def test_window_catches_a_fresh_spike(self):
        """The converse: a healthy lifetime must not hide a live spike."""
        reg = MetricsRegistry()
        history = SnapshotHistory((latency_slo(),), max_horizon_s=5.0,
                                  min_interval_s=0.0)
        for _ in range(10000):
            reg.observe("latency_s", 0.01)     # long healthy history
        history.sample(reg, 0.0)
        for _ in range(50):
            reg.observe("latency_s", 2.0)      # the spike
        history.sample(reg, 1.0)
        # Lifetime: 50/10050 bad is within the 5% budget.
        assert evaluate_slo(reg, latency_slo()).ok is True
        verdict = history.evaluate(latency_slo())
        assert verdict.ok is False
        assert verdict.burn_rate == pytest.approx(20.0)
        assert verdict.samples == 50.0

    def test_ratio_objective_uses_counter_deltas(self):
        reg = MetricsRegistry()
        history = SnapshotHistory((ratio_slo(threshold=0.1),),
                                  max_horizon_s=5.0, min_interval_s=0.0)
        reg.inc("bad", 100)
        reg.inc("total", 100)
        history.sample(reg, 0.0)
        reg.inc("total", 50)                    # 0 bad in the window
        history.sample(reg, 1.0)
        verdict = history.evaluate(ratio_slo(threshold=0.1))
        assert verdict.ok is True
        assert verdict.bad_fraction == 0.0
        assert verdict.samples == 50.0
        reg.inc("bad", 25)
        reg.inc("total", 50)
        history.sample(reg, 2.0)
        verdict = history.evaluate(ratio_slo(threshold=0.1))
        assert verdict.ok is False
        assert verdict.bad_fraction == pytest.approx(25 / 100)
        assert verdict.burn_rate == pytest.approx(2.5)

    def test_horizon_retires_old_samples_but_keeps_one_beyond(self):
        reg = MetricsRegistry()
        history = SnapshotHistory((latency_slo(),), max_horizon_s=5.0,
                                  min_interval_s=0.0)
        for t in (0.0, 2.0, 4.0, 6.0, 8.0):
            history.sample(reg, t)
        # 0.0 retired (its successor 2.0 is >= 5.0 behind 8.0), 2.0 kept
        # as the one sample beyond the horizon.
        assert len(history) == 4
        assert history.span_s() == pytest.approx(6.0)

    def test_registry_reset_reads_as_empty_window(self):
        """Counter resets must not produce negative deltas or panic."""
        reg = MetricsRegistry()
        history = SnapshotHistory((ratio_slo(),), max_horizon_s=5.0,
                                  min_interval_s=0.0)
        reg.inc("bad", 10)
        reg.inc("total", 100)
        history.sample(reg, 0.0)
        reg.reset()
        reg.inc("bad", 50)                      # outgrows the old counts
        reg.inc("total", 200)
        history.sample(reg, 1.0)
        verdict = history.evaluate(ratio_slo())
        assert verdict.ok is True
        assert verdict.bad_fraction == 0.0
        assert verdict.samples == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SnapshotHistory((latency_slo(),), max_horizon_s=0.0)
        with pytest.raises(ValueError):
            SnapshotHistory((latency_slo(),), min_interval_s=-1.0)


class TestSnapshotHistory:
    """One snapshot deque feeding any number of burn horizons."""

    def test_two_horizons_share_one_deque(self):
        reg = MetricsRegistry()
        history = SnapshotHistory((latency_slo(),), max_horizon_s=4.0,
                                  min_interval_s=0.0)
        history.sample(reg, 0.0)                    # one deque: sample once
        for _ in range(100):
            reg.observe("latency_s", 0.01)          # healthy early traffic
        for t in (1.0, 2.0, 3.0):
            history.sample(reg, t)
        for _ in range(50):
            reg.observe("latency_s", 2.0)           # fresh spike
        history.sample(reg, 4.0)
        assert len(history) == 5
        # Both windows see the spike; the fast one sees it undiluted.
        fast_verdict = history.evaluate(latency_slo(), horizon_s=1.0)
        slow_verdict = history.evaluate(latency_slo(), horizon_s=4.0)
        assert fast_verdict.samples == 50.0
        assert fast_verdict.burn_rate == pytest.approx(20.0)
        assert slow_verdict.samples == 150.0
        assert slow_verdict.burn_rate == pytest.approx(20.0 * 50 / 150)

    def test_shared_verdicts_match_private_windows(self):
        """Sharing a history must not change any verdict."""
        reg = MetricsRegistry()
        shared = SnapshotHistory((latency_slo(),), max_horizon_s=4.0,
                                 min_interval_s=0.0)
        private = SnapshotHistory((latency_slo(),), max_horizon_s=2.0,
                                  min_interval_s=0.0)
        for t, latency in ((0.0, 0.01), (1.0, 2.0), (2.0, 0.01),
                           (3.0, 2.0), (4.0, 0.01)):
            for _ in range(20):
                reg.observe("latency_s", latency)
            shared.sample(reg, t)
            private.sample(reg, t)
        a = shared.evaluate(latency_slo(), horizon_s=2.0)
        b = private.evaluate(latency_slo())
        assert (a.bad_fraction, a.samples) == (b.bad_fraction, b.samples)
        assert a.burn_rate == pytest.approx(b.burn_rate)

    def test_version_counts_kept_samples_and_clears(self):
        reg = MetricsRegistry()
        history = SnapshotHistory((latency_slo(),), max_horizon_s=4.0,
                                  min_interval_s=0.5)
        assert history.version == 0
        assert history.sample(reg, 0.0) is True
        assert history.version == 1
        assert history.sample(reg, 0.1) is False    # rate-limited
        assert history.version == 1
        assert history.sample(reg, 1.0) is True
        assert history.version == 2
        history.clear()
        assert history.version == 3
        assert len(history) == 0

    def test_track_adds_metrics_to_future_snapshots_only(self):
        reg = MetricsRegistry()
        history = SnapshotHistory((latency_slo(),), max_horizon_s=4.0,
                                  min_interval_s=0.0)
        reg.inc("bad", 10)
        reg.inc("total", 100)
        history.sample(reg, 0.0)                    # lacks the counters
        history.track((ratio_slo(),))
        reg.inc("total", 100)
        history.sample(reg, 1.0)
        # Window spans a snapshot without the metric: no evidence.
        verdict = history.evaluate(ratio_slo())
        assert verdict.samples == 0.0 and verdict.ok is True
        reg.inc("bad", 30)
        reg.inc("total", 100)
        history.sample(reg, 2.0)
        verdict = history.evaluate(ratio_slo(), horizon_s=1.0)
        assert verdict.samples == 100.0
        assert verdict.bad_fraction == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_horizon_s"):
            SnapshotHistory((latency_slo(),), max_horizon_s=0.0)
        with pytest.raises(ValueError, match="min_interval_s"):
            SnapshotHistory((latency_slo(),), min_interval_s=-0.1)


_LATENCY = latency_slo(threshold=0.5, target=0.95)
_RATIO = ratio_slo(threshold=0.1)
_GAUGE = SLObjective(name="heap", kind="gauge", metric="heap",
                     threshold=100.0)
_MAX_HORIZON_S = 2.0
_MIN_INTERVAL_S = 0.25

_steps = st.lists(st.one_of(
    # Mostly around the 0.5 s threshold: the bucket that holds it
    # (0.475-0.508 s) counts as good by its midpoint.
    st.tuples(st.just("observe"), st.one_of(
        st.sampled_from([-0.01, 0.0, 0.3, 0.49, 0.5, 0.505, 0.51, 2.0]),
        st.floats(0.47, 0.52),
        st.floats(-0.05, 5.0),
    )),
    st.tuples(st.just("inc"), st.integers(0, 5), st.integers(0, 20)),
    st.tuples(st.just("gauge"), st.floats(-50.0, 300.0)),
    # Some advances fall inside min_interval_s and are dropped.
    st.tuples(st.just("sample"),
              st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 1.0, 2.5])),
    st.tuples(st.just("reset")),
), max_size=40)


def _estimate(value):
    """The bucket-midpoint rule: geometric midpoint of the 7% bucket."""
    if value <= 0.0:
        return 0.0
    return 1.07 ** (math.floor(math.log(value) / math.log(1.07)) + 0.5)


class _Reference:
    """The history's contract, recomputed from the raw observations.

    Each capture freezes what was observed since the last registry
    reset.  A reset empties the retained captures at the next sample,
    so no window spans one: until two captures follow it, every verdict
    reports no evidence.
    """

    def __init__(self):
        self.generation = 0
        self.latencies = []
        self.bad = self.total = 0
        self.gauge = 0.0
        self.captures = []

    def reset(self):
        self.generation += 1
        self.latencies = []
        self.bad = self.total = 0
        self.gauge = 0.0

    def sample(self, now):
        if self.captures and self.captures[-1]["generation"] != self.generation:
            self.captures = []
        if self.captures and now - self.captures[-1]["t"] < _MIN_INTERVAL_S:
            return False
        self.captures.append({
            "t": now, "generation": self.generation,
            "latencies": tuple(self.latencies),
            "bad": self.bad, "total": self.total, "gauge": self.gauge,
        })
        while (len(self.captures) > 2
               and now - self.captures[1]["t"] >= _MAX_HORIZON_S):
            self.captures.pop(0)
        return True

    def pair(self, horizon_s):
        if len(self.captures) < 2:
            return None
        newest = self.captures[-1]
        older = [c for c in self.captures[:-1]
                 if newest["t"] - c["t"] >= horizon_s]
        return (older[-1] if older else self.captures[0]), newest

    def verdict(self, objective, horizon_s):
        """``(samples, bad_fraction, burn_rate, ok, value)``."""
        pair = self.pair(horizon_s)
        none = (0.0, 0.0, 0.0, True, 0.0)
        if pair is None:
            return none
        earlier, later = pair
        assert earlier["generation"] == later["generation"]
        if objective.kind == "gauge":
            value = later["gauge"]
            bad = max(0.0, value) / objective.threshold
            return 1.0, bad, bad, value <= objective.threshold, value
        if objective.kind == "ratio":
            den = float(later["total"]) - float(earlier["total"])
            if den <= 0:
                return none
            num = float(later["bad"]) - float(earlier["bad"])
            bad = max(0.0, num) / den
            return (den, bad, bad / objective.threshold,
                    bad <= objective.threshold, bad)
        window = later["latencies"][len(earlier["latencies"]):]
        if not window:
            return none
        good = sum(1 for v in window
                   if objective.threshold >= 0.0
                   and _estimate(v) <= objective.threshold)
        good_fraction = min(1.0, good / len(window))
        bad = 1.0 - good_fraction
        return (float(len(window)), bad, bad / (1.0 - objective.target),
                good_fraction >= objective.target, bad)


class TestVerdictsOnGeneratedSteps:
    @given(_steps)
    # Windows count by bucket midpoint even when every sample so far
    # lies above the threshold (the exact min would say none is good).
    @example([("sample", 0.0), ("observe", 0.505), ("sample", 0.5)])
    @settings(max_examples=150, deadline=None)
    def test_windowed_verdicts_match_brute_force(self, steps):
        registry = MetricsRegistry()
        objectives = (_LATENCY, _RATIO, _GAUGE)
        history = SnapshotHistory(objectives, max_horizon_s=_MAX_HORIZON_S,
                                  min_interval_s=_MIN_INTERVAL_S)
        ref = _Reference()
        now = 0.0
        for step in steps:
            kind = step[0]
            if kind == "observe":
                registry.observe("latency_s", step[1])
                ref.latencies.append(step[1])
            elif kind == "inc":
                registry.inc("bad", step[1])
                registry.inc("total", step[2])
                ref.bad += step[1]
                ref.total += step[2]
            elif kind == "gauge":
                registry.set_gauge("heap", step[1])
                ref.gauge = step[1]
            elif kind == "sample":
                now += step[1]
                assert history.sample(registry, now) == ref.sample(now)
            else:
                registry.reset()
                ref.reset()
            for horizon_s in (0.5, _MAX_HORIZON_S):
                pair = ref.pair(horizon_s)
                assert history.span_s(horizon_s) == (
                    pair[1]["t"] - pair[0]["t"] if pair else 0.0)
                for objective in objectives:
                    verdict = history.evaluate(objective, horizon_s)
                    assert (verdict.samples, verdict.bad_fraction,
                            verdict.burn_rate, verdict.ok,
                            verdict.value) == ref.verdict(objective,
                                                          horizon_s)
