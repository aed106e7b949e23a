"""End-to-end chaos workload: the full affect→management chain under faults.

``repro chaos`` and ``benchmarks/test_resilience.py`` both run
:func:`run_chaos_workload`: train a classifier, then drive the
sensor → classifier → stream → controller loop, the video
encode → corrupt → conceal-decode path, and an emulator replay with
kill-storm bursts — all under one seeded :class:`FaultPlan` — and report
survival / degradation statistics.  The contract is *zero unhandled
exceptions at any fault rate* when resilience is enabled.

With ``resilience=False`` the same work runs bare (no breaker, no retry,
no concealment); stage failures are caught at the stage boundary and
counted as crashes — the comparison that justifies the wrappers.

The serving-side chaos plans (``repro chaos --plan surge`` /
``--plan battery-drain``) live beside the surge bench they drive, in
:func:`repro.serve.adaptive_bench.run_surge_workload`.
"""

from __future__ import annotations

import time

from repro.errors import (
    InferenceTimeoutError,
    InjectedFault,
    ReproError,
    SensorError,
)
from repro.obs import Timer, get_registry
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.wrappers import CircuitBreaker, ResilientClassifier, retry_with_backoff

#: Virtual seconds between classifier windows (the paper's real-time tick).
WINDOW_PERIOD_S = 1.0
#: Inference budget per window; injected latency spikes overrun it.
INFERENCE_DEADLINE_S = 0.2
#: Committed-emotion freshness horizon for the system manager.
STALE_TTL_S = 3.0


def run_chaos_workload(
    seed: int = 0,
    fault_rate: float = 0.2,
    windows: int = 24,
    clips: int = 3,
    resilience: bool = True,
) -> dict[str, object]:
    """Run the chain under a fault plan; returns survival/degradation stats.

    The plan is :meth:`FaultPlan.uniform` at ``fault_rate``.  All metrics
    additionally land in the process registry (``resilience.*``,
    ``core.controller.*``, ``video.decoder.*``); the caller exports them.
    Deterministic for a given ``(seed, fault_rate, windows, clips,
    resilience)``, except the loop's wall time ``loop_s``.
    """
    from repro.affect.pipeline import AffectClassifierPipeline
    from repro.android.app import build_app_catalog
    from repro.android.emulator import AndroidEmulator
    from repro.android.monkey import MonkeyScript, WorkloadPhase
    from repro.core.controller import AffectDrivenSystemManager
    from repro.datasets import emovo_like
    from repro.datasets.phone_usage import get_subject
    from repro.datasets.speech import synthesize_utterance
    from repro.video.decoder import DecodeError, Decoder, DecoderConfig
    from repro.video.encoder import Encoder, EncoderConfig
    from repro.video.frames import synthetic_video
    from repro.video.nal import START_CODE
    from repro.video.quality import sequence_psnr

    obs = get_registry()
    plan = FaultPlan.uniform(fault_rate)
    injector = FaultInjector(plan, seed=seed)
    crashes = 0

    # -- Train (fault-free: deployment faults start after provisioning) ----
    corpus = emovo_like(n_per_class=4, seed=seed)
    pipeline = AffectClassifierPipeline("mlp", seed=seed)
    accuracy = pipeline.train(corpus, epochs=3)
    labels = corpus.label_names
    neutral = "neutral" if "neutral" in labels else labels[0]

    loop_start = time.perf_counter()

    # -- Affect loop: sensor → classifier → stream → controller ------------
    manager = AffectDrivenSystemManager(stale_ttl_s=STALE_TTL_S)
    breaker = CircuitBreaker(failure_threshold=3, recovery_s=3 * WINDOW_PERIOD_S)
    # The wrapped callable receives each window's model invocation, so the
    # breaker/retry state persists across windows while the faulted call
    # itself is rebuilt per window.
    classifier = ResilientClassifier(
        lambda call: call(),
        breaker=breaker,
        retries=1,
        neutral_label=neutral,
    )
    degraded_windows = 0
    sensor_failures = 0
    mode_by_window = []
    with Timer("resilience.chaos.affect_s"):
        for k in range(windows):
            t = k * WINDOW_PERIOD_S
            # Ground truth dwells for several windows (real moods do);
            # per-window flicker would starve the majority-vote stream.
            emotion = labels[(k // 6) % len(labels)]

            def acquire() -> object:
                return injector.read_sensor(
                    lambda: synthesize_utterance(
                        emotion, actor=k % 4, sentence=k % 3, take=k
                    )
                )

            degraded = False
            try:
                if resilience:
                    wave = retry_with_backoff(
                        acquire, retries=2, exceptions=(SensorError,)
                    )
                else:
                    wave = acquire()
                wave = injector.corrupt_signal(wave)
            except SensorError:
                sensor_failures += 1
                degraded = True
                wave = None

            if wave is not None:
                # Draw this window's classifier fate *once*: a model crash
                # on a given input is deterministic, so a retry of the same
                # inference must hit the same fault (unlike a transient
                # sensor read, which retries can genuinely recover).
                fault: Exception | None = None
                extra_s = 0.0
                try:
                    extra_s = injector.classifier_fault()
                except InjectedFault as exc:
                    fault = exc
                miss_counted: list[int] = []

                def model_call() -> str:
                    if fault is not None:
                        raise fault
                    label = pipeline.classify_waveform(wave)
                    if extra_s >= INFERENCE_DEADLINE_S:
                        # A latency spike past the window budget is a
                        # (simulated) deadline miss — computed too late
                        # to use.
                        if not miss_counted:
                            miss_counted.append(1)
                            obs.inc("resilience.deadline_missed")
                        raise InferenceTimeoutError(
                            f"injected latency spike {extra_s:.2f}s "
                            f"> {INFERENCE_DEADLINE_S:.2f}s budget"
                        )
                    return label

                if resilience:
                    label, degraded = classifier.classify(model_call, now=t)
                else:
                    try:
                        label = model_call()
                    except (ReproError, ValueError, RuntimeError):
                        crashes += 1
                        obs.inc("resilience.chaos.crashes")
                        label, degraded = None, True

                if label is not None and not degraded:
                    manager.observe(label, timestamp=t)

            effective = manager.effective_emotion(now=t)
            if degraded or effective is None:
                degraded_windows += 1
                obs.inc("resilience.degraded_dwell_s", WINDOW_PERIOD_S)
            mode_by_window.append(manager.decoder_mode(now=t).value)

    # -- Video: encode → corrupt → (conceal-)decode ------------------------
    frames_expected = 0
    frames_delivered = 0
    units_corrupt = 0
    frames_concealed = 0
    psnr_sum = 0.0
    psnr_n = 0
    decoder = Decoder(DecoderConfig(error_concealment=resilience))
    with Timer("resilience.chaos.video_s"):
        for c in range(clips):
            frames = synthetic_video(6, height=32, width=48, seed=seed + c)
            stream = Encoder(EncoderConfig(gop_size=3)).encode(frames)
            # Protect the SPS (parameter sets travel out-of-band in real
            # deployments); corruption lands on slice data.
            second_unit = stream.find(START_CODE, len(START_CODE))
            prefix = second_unit if second_unit > 0 else len(START_CODE)
            corrupted = injector.corrupt_stream(stream, protect_prefix=prefix)
            frames_expected += len(frames)
            try:
                decoded = decoder.decode(corrupted)
            except DecodeError:
                crashes += 1
                obs.inc("resilience.chaos.crashes")
                continue
            frames_delivered += len(decoded.frames)
            units_corrupt += decoded.counters.units_corrupt
            frames_concealed += len(decoded.concealed_indices)
            if len(decoded.frames) == len(frames):
                psnr_sum += sequence_psnr(frames, decoded.frames)
                psnr_n += 1

    # -- Emulator: monkey replay with kill-storm bursts --------------------
    catalog = build_app_catalog(44, seed=seed)
    events = MonkeyScript(catalog, seed=seed).generate(
        [WorkloadPhase(get_subject(3), 180.0, "excited")]
    )
    events = injector.storm_events(events, catalog)
    emu_stats: dict[str, object] = {}
    with Timer("resilience.chaos.emulator_s"):
        try:
            result = AndroidEmulator(catalog=catalog).run(events)
            emu_stats = {
                "events": len(events),
                "cold_starts": result.cold_starts,
                "warm_starts": result.warm_starts,
                "kills": result.kills,
            }
        except (MemoryError, KeyError):
            crashes += 1
            obs.inc("resilience.chaos.crashes")
            emu_stats = {"events": len(events), "crashed": True}

    loop_s = time.perf_counter() - loop_start
    degraded_dwell_s = degraded_windows * WINDOW_PERIOD_S
    total_s = windows * WINDOW_PERIOD_S
    obs.set_gauge("resilience.chaos.survival",
                  frames_delivered / frames_expected if frames_expected else 1.0)
    return {
        "seed": seed,
        "fault_rate": fault_rate,
        "resilience": resilience,
        "plan": plan.describe(),
        "faults_injected": dict(sorted(injector.counts.items())),
        "total_faults_injected": injector.total_injected,
        "crashes": crashes,
        "loop_s": loop_s,
        "classifier": {
            "test_accuracy": accuracy["test_accuracy"],
            "windows": windows,
            "failures": classifier.failures,
            "fallbacks": classifier.fallbacks,
            "breaker_opened": breaker.times_opened,
            "sensor_failures": sensor_failures,
        },
        "degradation": {
            "degraded_windows": degraded_windows,
            "degraded_dwell_s": degraded_dwell_s,
            "dwell_fraction": degraded_dwell_s / total_s if total_s else 0.0,
            "committed_emotion": manager.current_emotion,
            "modes": mode_by_window,
        },
        "video": {
            "clips": clips,
            "frames_expected": frames_expected,
            "frames_delivered": frames_delivered,
            "units_corrupt": units_corrupt,
            "frames_concealed": frames_concealed,
            "mean_psnr_db": psnr_sum / psnr_n if psnr_n else 0.0,
        },
        "emulator": emu_stats,
    }
