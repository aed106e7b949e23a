"""Adaptive degradation: tier ladder, controller hysteresis, battery, runtime."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.affect.pipeline import AffectClassifierPipeline
from repro.datasets import emovo_like
from repro.datasets.speech import synthesize_utterance
from repro.hw.power import DeviceBattery
from repro.obs import get_registry
from repro.obs.slo import SLObjective
from repro.serve import adaptive
from repro.serve import (
    AdaptiveConfig,
    AdaptiveController,
    AffectServer,
    ServeConfig,
    SessionManager,
    TierLadder,
    TierSpec,
    ladder_from_pipeline,
    window_hash,
)


def fixed_predict(index: int):
    return lambda x: np.full(len(x), index, dtype=int)


def dummy_ladder() -> TierLadder:
    """Four rungs with constant predicts — no training required."""
    return TierLadder((
        TierSpec("full", fixed_predict(0), 1.0),
        TierSpec("small", fixed_predict(1), 0.3),
        TierSpec("tiny", fixed_predict(2), 0.05),
        TierSpec("neutral", None, 0.001),
    ))


def make_session(now: float = 0.0):
    mgr = SessionManager(idle_ttl_s=1000.0, stale_ttl_s=None)
    return mgr.get_or_create("u", now), mgr


@pytest.fixture(scope="module")
def pipeline():
    corpus = emovo_like(n_per_class=4, seed=0)
    p = AffectClassifierPipeline("mlp", seed=0)
    p.train(corpus, epochs=3)
    return p


class TestTierLadder:
    def test_needs_two_tiers(self):
        with pytest.raises(ValueError):
            TierLadder((TierSpec("neutral", None, 0.0),))

    def test_last_tier_must_be_terminal(self):
        with pytest.raises(ValueError):
            TierLadder((
                TierSpec("a", fixed_predict(0), 1.0),
                TierSpec("b", fixed_predict(1), 0.5),
            ))

    def test_terminal_only_last(self):
        with pytest.raises(ValueError):
            TierLadder((
                TierSpec("a", None, 1.0),
                TierSpec("b", None, 0.5),
            ))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TierLadder((
                TierSpec("a", fixed_predict(0), 1.0),
                TierSpec("a", fixed_predict(1), 0.5),
                TierSpec("neutral", None, 0.0),
            ))

    def test_lookup_and_predict_map(self):
        ladder = dummy_ladder()
        assert ladder.names == ("full", "small", "tiny", "neutral")
        assert ladder.terminal_index == 3
        assert ladder.spec("tiny").window_energy == 0.05
        assert set(ladder.predict_map()) == {"full", "small", "tiny"}


class TestAdaptiveConfigValidation:
    # The thresholds are module constants; these pin the dead band the
    # controller's hysteresis relies on.
    def test_promote_must_sit_below_demote(self):
        assert 0.0 < adaptive.PROMOTE_QUEUE_FRAC < adaptive.DEMOTE_QUEUE_FRAC
        assert adaptive.PROMOTE_BURN < adaptive.DEMOTE_BURN

    def test_emergency_above_demote(self):
        assert adaptive.DEMOTE_QUEUE_FRAC <= adaptive.EMERGENCY_QUEUE_FRAC

    def test_battery_fields(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(battery_capacity=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(initial_battery_fraction=0.0)


class TestControllerHysteresis:
    def test_calm_stays_at_top(self):
        ctrl = AdaptiveController(dummy_ladder())
        session, _ = make_session()
        for k in range(20):
            tier = ctrl.tier_for(session, k * 0.1, queue_depth=0, max_queue=48)
        assert tier.name == "full"
        assert ctrl.demotions == 0 and ctrl.promotions == 0

    def test_demotes_one_rung_per_dwell(self):
        ctrl = AdaptiveController(dummy_ladder())
        session, _ = make_session()
        assert ctrl.tier_for(session, 0.0, 30, 48).name == "small"
        # Same instant: dwell blocks the second step.
        assert ctrl.tier_for(session, 0.0, 30, 48).name == "small"
        assert ctrl.tier_for(session, 0.3, 30, 48).name == "tiny"
        assert ctrl.tier_for(session, 0.6, 30, 48).name == "neutral"
        assert session.tier_demotions == 3

    def test_emergency_jumps_to_terminal(self):
        ctrl = AdaptiveController(dummy_ladder())
        session, _ = make_session()
        tier = ctrl.tier_for(session, 0.0, 47, 48)
        assert tier.name == "neutral"
        assert session.tier_demotions == 1

    def test_promotion_needs_uninterrupted_calm(self):
        config = AdaptiveConfig(promote_dwell_s=2.0)
        ctrl = AdaptiveController(dummy_ladder(), config)
        session, _ = make_session()
        ctrl.tier_for(session, 0.0, 47, 48)          # -> neutral
        ctrl.tier_for(session, 1.0, 0, 48)           # calm starts
        assert session.calm_since == 1.0
        # Dead-band pressure interrupts the calm stretch.
        ctrl.tier_for(session, 2.0, 20, 48)
        assert session.calm_since is None
        ctrl.tier_for(session, 3.0, 0, 48)           # calm restarts
        assert ctrl.tier_for(session, 4.0, 0, 48).name == "neutral"
        tier = ctrl.tier_for(session, 5.1, 0, 48)    # 2.1 s of calm
        assert tier.name == "tiny"
        assert session.tier_promotions == 1
        # Each further rung needs its own full dwell.
        assert ctrl.tier_for(session, 5.2, 0, 48).name == "tiny"
        assert ctrl.tier_for(session, 7.3, 0, 48).name == "small"

    def test_steady_dead_band_never_flaps(self):
        ctrl = AdaptiveController(dummy_ladder())
        session, _ = make_session()
        ctrl.tier_for(session, 0.0, 30, 48)  # one demotion
        for k in range(50):
            ctrl.tier_for(session, 1.0 + k * 0.1, 15, 48)  # dead band
        assert session.tier_index == 1
        assert ctrl.demotions == 1 and ctrl.promotions == 0

    def test_burn_signal_demotes_without_queue_pressure(self):
        objective = SLObjective(
            name="lat", kind="latency", metric="serve.latency_s",
            threshold=0.5, target=0.95,
        )
        ctrl = AdaptiveController(dummy_ladder(), objectives=(objective,))
        session, _ = make_session()
        reg = get_registry()
        reg.reset()
        for _ in range(100):
            reg.observe("serve.latency_s", 0.01)
        ctrl.observe(reg, 0.0)
        assert ctrl.tier_for(session, 0.1, 0, 48).name == "full"
        for _ in range(50):
            reg.observe("serve.latency_s", 2.0)  # the spike
        ctrl.observe(reg, 1.0)
        tier = ctrl.tier_for(session, 1.1, 0, 48)
        assert tier.name == "small"
        assert session.tier_demotions == 1

    def test_tier_change_counters_labeled(self):
        get_registry().reset()
        ctrl = AdaptiveController(dummy_ladder())
        session, _ = make_session()
        ctrl.tier_for(session, 0.0, 47, 48)
        counters = get_registry().snapshot()["counters"]
        assert counters['serve.tier_changes{direction="demote"}'] == 1


class TestBatteryBudget:
    def test_battery_attached_on_first_evaluate(self):
        config = AdaptiveConfig(battery_capacity=10.0,
                                initial_battery_fraction=0.5)
        ctrl = AdaptiveController(dummy_ladder(), config)
        session, _ = make_session()
        ctrl.tier_for(session, 0.0, 0, 48)
        assert session.battery is not None
        assert session.battery.fraction == pytest.approx(0.5)

    def test_floor_forces_demotion_and_caps_promotion(self):
        config = AdaptiveConfig(battery_capacity=10.0,
                                initial_battery_fraction=0.2,
                                promote_dwell_s=1.0)
        ctrl = AdaptiveController(dummy_ladder(), config)
        session, _ = make_session()
        # 20% charge -> floor at tier 1, even in a calm queue.
        assert ctrl.tier_for(session, 0.0, 0, 48).name == "small"
        assert session.tier_demotions == 1
        # A long calm stretch must not promote above the floor.
        for k in range(40):
            tier = ctrl.tier_for(session, 1.0 + k * 0.2, 0, 48)
        assert tier.name == "small"
        assert ctrl.promotions == 0

    def test_drain_sinks_the_tier(self):
        config = AdaptiveConfig(battery_capacity=10.0)
        ctrl = AdaptiveController(dummy_ladder(), config)
        session, _ = make_session()
        now = 0.0
        names = []
        for k in range(40):
            tier = ctrl.tier_for(session, now, 0, 48)
            ctrl.charge(session, tier.name)
            names.append(tier.name)
            now += 0.1
        # 10 units at 1.0/window: ~8 full windows, then the floors bite.
        assert names[0] == "full"
        assert "small" in names and names[-1] in ("tiny", "neutral")
        assert session.battery.fraction < 0.1

    def test_charge_accounts_only_what_the_battery_held(self):
        config = AdaptiveConfig(battery_capacity=10.0,
                                initial_battery_fraction=0.05)
        ctrl = AdaptiveController(dummy_ladder(), config)
        session, _ = make_session()
        ctrl.tier_for(session, 0.0, 0, 48)
        for _ in range(100):
            ctrl.charge(session, "full")
        assert ctrl.energy_drained <= 0.5 + 1e-9
        assert session.battery.empty

    def test_degraded_window_pays_fallback_energy(self):
        ctrl = AdaptiveController(dummy_ladder())
        session, _ = make_session()
        ctrl.charge(session, "full", degraded=True)
        assert ctrl.energy_drained < 0.01
        assert ctrl.tier_windows["full"] == 1


class TestDeviceBattery:
    def test_drain_clamps_at_empty(self):
        battery = DeviceBattery(capacity=2.0, level=0.5)
        assert battery.drain(0.2) == pytest.approx(0.2)
        assert battery.drain(1.0) == pytest.approx(0.3)
        assert battery.empty
        assert battery.drain(1.0) == 0.0
        assert battery.drained == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceBattery(capacity=0.0)
        with pytest.raises(ValueError):
            DeviceBattery(capacity=1.0, level=2.0)


class TestEvictionTierRace:
    """Idle eviction racing a tier change must not resurrect the session."""

    def test_stale_reference_cannot_resurrect_session(self):
        config = AdaptiveConfig(battery_capacity=5.0)
        ctrl = AdaptiveController(dummy_ladder(), config)
        mgr = SessionManager(idle_ttl_s=1.0, stale_ttl_s=None)
        stale = mgr.get_or_create("u", 0.0)
        ctrl.tier_for(stale, 0.0, 47, 48)      # demote to terminal
        assert stale.tier_index == 3
        assert mgr.evict_idle(10.0) == 1
        assert "u" not in mgr
        # The racing tier change lands on the evicted object...
        ctrl.tier_for(stale, 10.0, 0, 48)
        assert "u" not in mgr                   # ...and resurrects nothing.
        fresh = mgr.get_or_create("u", 11.0)
        assert fresh is not stale
        assert fresh.tier_index == 0            # no tier-state leak
        assert fresh.battery is None
        assert fresh.calm_since is None

    def test_threaded_eviction_vs_tier_change(self):
        config = AdaptiveConfig(battery_capacity=5.0)
        ctrl = AdaptiveController(dummy_ladder(), config)
        mgr = SessionManager(idle_ttl_s=0.5, stale_ttl_s=None)
        stop = threading.Event()
        errors: list[Exception] = []
        clock = [0.0]

        def churn():
            try:
                while not stop.is_set():
                    t = clock[0]
                    session = mgr.get_or_create("u", t)
                    ctrl.tier_for(session, t, 47, 48)
                    clock[0] = t + 0.01
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def evict():
            try:
                while not stop.is_set():
                    mgr.evict_idle(clock[0] + 10.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn),
                   threading.Thread(target=evict)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert not errors
        # Post-race: a fresh session starts at the top with clean state.
        mgr.evict_idle(clock[0] + 100.0)
        fresh = mgr.get_or_create("u", clock[0] + 101.0)
        assert fresh.tier_index == 0
        assert fresh.battery is None
        assert fresh.tier_demotions == 0


class TestAdaptiveServer:
    def test_flood_absorbs_instead_of_shedding(self, pipeline):
        get_registry().reset()
        ladder = ladder_from_pipeline(pipeline)
        ctrl = AdaptiveController(ladder)
        config = ServeConfig(max_batch=64, max_wait_s=0.25, max_queue=16,
                             stale_ttl_s=None)
        server = AffectServer(pipeline, config, adaptive=ctrl)
        labels = pipeline.classifier.label_names
        results = []
        for i in range(48):
            wave = synthesize_utterance(labels[i % len(labels)],
                                        actor=i % 4, sentence=i % 3, take=i)
            results.extend(server.submit(f"u{i:03d}", wave, 0.0))
        results.extend(server.drain(0.5))
        assert server.shed == 0
        assert server.absorbed > 0
        assert server.dropped == 0
        assert len(results) == 48
        assert all(r.tier is not None for r in results)
        # Terminal-rung instant answers carry the structured outcome the
        # daemon serializes over the wire.
        assert sum(1 for r in results
                   if r.outcome == "absorbed") == server.absorbed
        counters = get_registry().snapshot()["counters"]
        tiered = {k: v for k, v in counters.items()
                  if k.startswith("serve.tier_windows")}
        assert sum(tiered.values()) == 48
        assert server.stats()["adaptive"]["demotions"] > 0

    def test_recovery_after_pressure(self, pipeline):
        get_registry().reset()
        ladder = ladder_from_pipeline(pipeline)
        ctrl = AdaptiveController(ladder, AdaptiveConfig(promote_dwell_s=0.5))
        config = ServeConfig(max_batch=64, max_wait_s=0.1, max_queue=16,
                             stale_ttl_s=None)
        server = AffectServer(pipeline, config, adaptive=ctrl)
        labels = pipeline.classifier.label_names
        for i in range(15):                      # pressure: demote
            wave = synthesize_utterance(labels[i % len(labels)], take=i)
            server.submit("u", wave, 0.0)
        session = server.sessions.get("u")
        assert session.tier_index > 0
        calm_wave = synthesize_utterance("neutral", take=99)
        now = 1.0
        for k in range(30):                      # calm windows
            server.poll(now)
            server.submit("u", calm_wave, now)
            now += 0.3
        server.drain(now)
        assert session.tier_promotions > 0
        assert session.tier_index < ladder.terminal_index

    def test_degraded_tier_never_backfills_cache_label(self, pipeline):
        get_registry().reset()
        ladder = ladder_from_pipeline(pipeline)
        ctrl = AdaptiveController(ladder)
        config = ServeConfig(max_batch=4, max_wait_s=0.1, max_queue=64,
                             stale_ttl_s=None)
        server = AffectServer(pipeline, config, adaptive=ctrl)
        wave = synthesize_utterance(pipeline.classifier.label_names[0],
                                    take=1)
        key = window_hash(wave)
        # Pin the session to the int8 rung: no signals change it within
        # one calm submit (promotion needs a dwell, demotion pressure).
        session = server.sessions.get_or_create("degraded", 0.0)
        session.tier_index = 1
        server.submit("degraded", wave, 0.0)
        server.drain(0.2)
        entry = server.cache.peek(key)
        assert entry.features is not None        # DSP backfill still on
        assert entry.label is None               # int8 answer not cached
        # A top-tier session classifies the same window: now it caches.
        server.submit("top", wave, 1.0)
        server.drain(1.2)
        assert server.cache.peek(key).label is not None

    def test_without_controller_results_carry_no_tier(self, pipeline):
        server = AffectServer(pipeline, ServeConfig(stale_ttl_s=None))
        wave = synthesize_utterance("neutral", take=2)
        server.submit("u", wave, 0.0)
        results = server.drain(0.5)
        assert all(r.tier is None for r in results)
        assert "adaptive" not in server.stats()
