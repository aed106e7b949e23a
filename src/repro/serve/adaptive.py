"""Adaptive degradation control plane: per-session model tiers.

The paper's claim is that emotion-aware management should trade quality
for resources *continuously*; the serve runtime, until this module, only
knew two qualities — full service or shed-to-neutral.  This control
plane inserts the missing rungs.  Each session serves from a **tier
ladder** (best first)::

    lstm  ->  lstm_int8  ->  mlp_int8  ->  cached/neutral

and a per-session controller walks sessions down (fast) or up (slow) the
ladder from three live signals:

- **queue pressure** — the micro-batcher's depth against the admission
  cap, the earliest-warning overload signal;
- **SLO burn** — trailing-window error-budget burn from a
  :class:`~repro.obs.slo.SnapshotHistory` (the same definition the SLO
  export and the alert rules use), so "we are violating the latency
  objective" demotes before the queue ever fills;
- **battery** — a simulated per-session :class:`~repro.hw.power.
  DeviceBattery` drained by each window's tier energy
  (:func:`~repro.hw.power.inference_energy` over the model's MAC
  estimate), imposing tier *ceilings* as the budget runs down — AHAR's
  energy-tiered variant switching, live.

Hysteresis keeps the ladder from flapping: demotions step one rung after
a short dwell (or jump straight to the terminal rung when the queue is
about to overflow), while promotions require an uninterrupted calm
stretch of ``promote_dwell_s`` *and* a full dwell since the last change.
The terminal rung answers immediately from the window cache or the
session's fallback label — absorbing load that the old runtime could
only shed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hw.power import DeviceBattery, FALLBACK_WINDOW_ENERGY, inference_energy
from repro.obs import get_registry, labeled
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import DEFAULT_SLOS, SLObjective, SnapshotHistory
from repro.obs.trace import get_tracer
from repro.serve.sessions import Session

#: Direction-labeled tier-change counters, built once (``labeled()``
#: sorts and joins per call, measurable on the submit path).
_TIER_DEMOTIONS = labeled("serve.tier_changes", direction="demote")
_TIER_PROMOTIONS = labeled("serve.tier_changes", direction="promote")


@dataclass(frozen=True)
class TierSpec:
    """One rung of the degradation ladder.

    ``predict_batch`` is ``None`` for the terminal cached/neutral rung —
    no model call at all; the runtime answers from the window cache or
    the session fallback.  ``window_energy`` is the battery draw of one
    served window at this tier, in :class:`DeviceBattery` units.
    """

    name: str
    predict_batch: Callable[[np.ndarray], np.ndarray] | None
    window_energy: float
    architecture: str | None = None
    quantized: bool = False

    @property
    def terminal(self) -> bool:
        """Whether this is the no-model cached/neutral rung."""
        return self.predict_batch is None


class TierLadder:
    """An ordered tier ladder, best tier first, terminal rung last."""

    def __init__(self, tiers: tuple[TierSpec, ...] | list[TierSpec]) -> None:
        tiers = tuple(tiers)
        if len(tiers) < 2:
            raise ValueError("a ladder needs at least two tiers")
        if not tiers[-1].terminal:
            raise ValueError("the last tier must be the terminal (no-model) rung")
        if any(t.terminal for t in tiers[:-1]):
            raise ValueError("only the last tier may be terminal")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.tiers = tiers
        self._by_name = {t.name: t for t in tiers}

    def __len__(self) -> int:
        return len(self.tiers)

    def __getitem__(self, index: int) -> TierSpec:
        return self.tiers[index]

    @property
    def names(self) -> tuple[str, ...]:
        """Tier names, best first."""
        return tuple(t.name for t in self.tiers)

    @property
    def terminal_index(self) -> int:
        """Index of the cached/neutral rung (always the last)."""
        return len(self.tiers) - 1

    def spec(self, name: str) -> TierSpec:
        """Look a tier up by name."""
        return self._by_name[name]

    def predict_map(self) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
        """``tier name -> predict`` for the micro-batcher's tier groups."""
        return {t.name: t.predict_batch for t in self.tiers if not t.terminal}


@dataclass(frozen=True)
class AdaptiveConfig:
    """Hysteresis constants and signal thresholds for the controller.

    The demote/promote pairs are deliberately asymmetric (demote fires
    earlier than promote re-arms) so the controller has a dead band to
    rest in; DESIGN.md §10 tabulates the reasoning per constant.
    """

    #: Queue fill fraction at which sessions start stepping down.
    demote_queue_frac: float = 0.5
    #: Queue fill fraction at which new submits jump straight to the
    #: terminal rung — the queue is about to overflow and one-rung steps
    #: would shed windows before reaching it.
    emergency_queue_frac: float = 0.85
    #: Queue fill fraction below which the queue counts as calm.
    promote_queue_frac: float = 0.2
    #: Trailing-window SLO burn at/above which sessions step down.
    demote_burn: float = 1.0
    #: Burn at/below which the SLOs count as calm.
    promote_burn: float = 0.5
    #: Minimum dwell between consecutive demotions of one session.
    demote_dwell_s: float = 0.25
    #: Calm time (uninterrupted) required before each promotion step.
    promote_dwell_s: float = 3.0
    #: Burn window geometry: the history's horizon and sample interval
    #: (see :class:`~repro.obs.slo.SnapshotHistory`).
    burn_horizon_s: float = 4.0
    burn_sample_interval_s: float = 0.5
    #: ``(battery fraction, minimum tier index)`` ceilings, evaluated
    #: top-down: below 25% charge at least tier 1, below 10% at least
    #: tier 2, below 3% only the terminal rung.  Indices past the end of
    #: a shorter ladder clamp to its terminal rung.
    battery_floors: tuple[tuple[float, int], ...] = (
        (0.25, 1), (0.10, 2), (0.03, 3),
    )
    #: Battery capacity per session in energy units; ``None`` disables
    #: the battery simulation entirely.
    battery_capacity: float | None = None
    #: Initial charge fraction for newly seen sessions.
    initial_battery_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.demote_queue_frac <= self.emergency_queue_frac:
            raise ValueError("need 0 < demote_queue_frac <= emergency_queue_frac")
        if self.promote_queue_frac >= self.demote_queue_frac:
            raise ValueError("promote_queue_frac must sit below demote_queue_frac")
        if self.promote_burn >= self.demote_burn:
            raise ValueError("promote_burn must sit below demote_burn")
        if self.demote_dwell_s < 0 or self.promote_dwell_s <= 0:
            raise ValueError("dwells must be non-negative (promote positive)")
        if self.battery_capacity is not None and self.battery_capacity <= 0:
            raise ValueError("battery_capacity must be positive")
        if not 0.0 < self.initial_battery_fraction <= 1.0:
            raise ValueError("initial_battery_fraction must be in (0, 1]")


class AdaptiveController:
    """Walks each session along the tier ladder from live signals.

    One controller serves one :class:`~repro.serve.runtime.AffectServer`;
    the runtime calls :meth:`observe` as workload time advances,
    :meth:`tier_for` per submitted window (under the server lock), and
    :meth:`charge` per completed window.  All per-session state lives on
    the :class:`~repro.serve.sessions.Session` itself, so session
    eviction is tier-state eviction — the controller keeps only
    aggregate counters.
    """

    def __init__(
        self,
        ladder: TierLadder,
        config: AdaptiveConfig | None = None,
        objectives: tuple[SLObjective, ...] | None = None,
    ) -> None:
        self.ladder = ladder
        self.config = config or AdaptiveConfig()
        if objectives is None:
            objectives = tuple(
                o for o in DEFAULT_SLOS
                if o.name in ("serve-p95-latency", "shed-rate")
            )
        self.objectives = tuple(objectives)
        self.history = SnapshotHistory(
            self.objectives,
            max_horizon_s=self.config.burn_horizon_s,
            min_interval_s=self.config.burn_sample_interval_s,
        )
        #: Highest trailing burn over the objectives; it only changes
        #: when the history keeps a sample.
        self.burn = 0.0
        self.demotions = 0
        self.promotions = 0
        self.energy_drained = 0.0
        self.tier_windows: dict[str, int] = {name: 0 for name in ladder.names}

    # -- signals -----------------------------------------------------------

    def observe(self, registry: MetricsRegistry, now: float) -> None:
        """Advance the trailing burn window (rate-limited internally)."""
        if self.history.sample(registry, now):
            self.burn = max((self.history.evaluate(o).burn_rate
                             for o in self.objectives), default=0.0)

    def _battery_floor(self, session: Session) -> int:
        """Lowest acceptable tier index given the session's charge."""
        battery = session.battery
        if battery is None:
            return 0
        floor = 0
        for fraction, min_index in self.config.battery_floors:
            if battery.fraction < fraction:
                floor = max(floor, min(min_index, self.ladder.terminal_index))
        return floor

    # -- the ladder walk ---------------------------------------------------

    def _change(self, session: Session, index: int, now: float,
                reason: str) -> None:
        obs = get_registry()
        direction = "demote" if index > session.tier_index else "promote"
        get_tracer().annotate("tier.change", {
            "session": session.session_id,
            "from": self.ladder[session.tier_index].name,
            "to": self.ladder[index].name,
            "reason": reason,
        })
        session.tier_index = index
        session.tier_changed_at = now
        session.calm_since = None
        if direction == "demote":
            session.tier_demotions += 1
            self.demotions += 1
            obs.inc(_TIER_DEMOTIONS)
        else:
            session.tier_promotions += 1
            self.promotions += 1
            obs.inc(_TIER_PROMOTIONS)

    def tier_for(self, session: Session, now: float, queue_depth: int,
                 max_queue: int) -> TierSpec:
        """Decide which tier serves this session's next window.

        Mutates only the session's own tier fields; never touches the
        session table (so a racing idle eviction can at worst waste the
        decision on an object about to be dropped — it cannot be
        resurrected).
        """
        config = self.config
        if (session.battery is None
                and config.battery_capacity is not None):
            session.battery = DeviceBattery(
                capacity=config.battery_capacity,
                level=config.battery_capacity * config.initial_battery_fraction,
            )
        queue_frac = queue_depth / max_queue if max_queue > 0 else 0.0
        burn = self.burn
        stressed = (queue_frac >= config.demote_queue_frac
                    or burn >= config.demote_burn)
        calm = (queue_frac <= config.promote_queue_frac
                and burn <= config.promote_burn)
        index = session.tier_index
        terminal = self.ladder.terminal_index
        # The battery ceiling bounds the walk on both sides: promotions
        # never climb above it (a drained battery in a calm queue must
        # not flap promote/clamp/promote), and a rung above it demotes
        # immediately, dwell or not — charge does not wait.
        floor = self._battery_floor(session)
        if stressed:
            session.calm_since = None
            if queue_frac >= config.emergency_queue_frac and index < terminal:
                self._change(session, terminal, now, "emergency-queue")
            elif (index < terminal
                    and now - session.tier_changed_at >= config.demote_dwell_s):
                self._change(session, index + 1, now,
                             "burn" if burn >= config.demote_burn else "queue")
        elif calm and index > floor:
            if session.calm_since is None:
                session.calm_since = now
            elif (now - session.calm_since >= config.promote_dwell_s
                    and now - session.tier_changed_at >= config.promote_dwell_s):
                self._change(session, index - 1, now, "calm")
        else:
            # The dead band between the thresholds: hold the rung and
            # restart the calm clock — promotion demands *uninterrupted*
            # calm, that is the anti-flap hysteresis.
            session.calm_since = None
        if session.tier_index < floor:
            self._change(session, floor, now, "battery")
        return self.ladder[session.tier_index]

    # -- accounting --------------------------------------------------------

    def charge(self, session: Session, tier_name: str,
               degraded: bool = False) -> None:
        """Drain the session's battery for one served window.

        A degraded window (failed flush, shed) never ran its tier's
        model, so it pays only the fallback floor.
        """
        spec = self.ladder.spec(tier_name)
        self.tier_windows[tier_name] = self.tier_windows.get(tier_name, 0) + 1
        energy = FALLBACK_WINDOW_ENERGY if degraded else spec.window_energy
        if session.battery is not None:
            # An empty battery cannot spend: account what was actually
            # drawn, so total drain never exceeds the fleet's budget.
            energy = session.battery.drain(energy)
        self.energy_drained += energy

    def stats(self) -> dict[str, object]:
        """JSON-able controller summary for reports and ``stats()``."""
        return {
            "tiers": list(self.ladder.names),
            "tier_windows": dict(self.tier_windows),
            "demotions": self.demotions,
            "promotions": self.promotions,
            "energy_drained": self.energy_drained,
            "burn_window_s": self.history.span_s(),
        }


# -- ladder builders -------------------------------------------------------


def ladder_from_pipeline(pipeline, neutral_energy: float = FALLBACK_WINDOW_ENERGY,
                         ) -> TierLadder:
    """A minimal 3-rung ladder over one trained pipeline.

    float -> int8 -> cached/neutral.  Used by tests and by deployments
    that only ship a single architecture; the full default ladder
    (:func:`build_default_ladder`) spans two architectures like the
    paper's model study.
    """
    from repro.affect.model_zoo import estimate_macs

    clf = pipeline.classifier
    if clf is None:
        raise ValueError("pipeline must be trained before building a ladder")
    macs = estimate_macs(clf.model, clf.n_frames)
    arch = pipeline.architecture
    return TierLadder((
        TierSpec(arch, clf.predict_labels, inference_energy(macs),
                 architecture=arch),
        TierSpec(f"{arch}_int8", pipeline.quantize().predict_batch,
                 inference_energy(macs, quantized=True),
                 architecture=arch, quantized=True),
        TierSpec("neutral", None, neutral_energy),
    ))


def build_default_ladder(seed: int = 0, corpus=None,
                         ) -> tuple["object", TierLadder]:
    """Train the paper-study ladder: LSTM -> LSTM int8 -> MLP int8 -> neutral.

    Returns ``(primary_pipeline, ladder)`` — the primary (best-tier)
    pipeline owns the DSP front end the batcher prepares features with.
    Both architectures train on the same corpus/seed, which makes their
    normalization statistics identical (asserted below), so one prepared
    feature row is valid input for every rung.
    """
    from repro.affect.model_zoo import DEFAULT_TIER_LADDER, default_training, estimate_macs
    from repro.affect.pipeline import AffectClassifierPipeline
    from repro.datasets import emovo_like

    if corpus is None:
        corpus = emovo_like(n_per_class=4, seed=seed)
    pipelines: dict[str, AffectClassifierPipeline] = {}
    specs: list[TierSpec] = []
    primary: AffectClassifierPipeline | None = None
    for architecture, quantized in DEFAULT_TIER_LADDER:
        if architecture is None:
            specs.append(TierSpec("neutral", None, FALLBACK_WINDOW_ENERGY))
            continue
        pipeline = pipelines.get(architecture)
        if pipeline is None:
            epochs, lr = default_training(architecture)
            pipeline = AffectClassifierPipeline(architecture, seed=seed)
            pipeline.train(corpus, epochs=epochs, lr=lr)
            pipelines[architecture] = pipeline
        clf = pipeline.classifier
        assert clf is not None
        if primary is None:
            primary = pipeline
        else:
            ref = primary.classifier
            assert ref is not None
            if not (np.allclose(ref.mean, clf.mean)
                    and np.allclose(ref.std, clf.std)
                    and ref.n_frames == clf.n_frames):
                raise ValueError(
                    f"{architecture} normalization diverges from the primary "
                    "pipeline; tiers must share one feature front end"
                )
        macs = estimate_macs(clf.model, clf.n_frames)
        name = f"{architecture}_int8" if quantized else architecture
        predict = (pipeline.quantize().predict_batch if quantized
                   else clf.predict_labels)
        specs.append(TierSpec(name, predict,
                              inference_energy(macs, quantized=quantized),
                              architecture=architecture, quantized=quantized))
    assert primary is not None
    return primary, TierLadder(tuple(specs))
