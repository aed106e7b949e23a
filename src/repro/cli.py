"""Command-line experiment runner.

``repro <experiment>`` regenerates a paper figure's numbers from the
terminal::

    repro fig6-modes        # four decoder working modes (Fig. 6 middle)
    repro fig6-playback     # affect-driven playback energy (Fig. 6 bottom)
    repro fig7-usage        # app usage patterns by subject (Fig. 7 left)
    repro fig7-emulator     # emulator specification (Fig. 7 right)
    repro fig10-memory      # memory / loading-time savings (Fig. 10)
    repro fig3-models       # classifier study (Fig. 3; slow)
    repro stats             # end-to-end workload + metrics/SLO report
    repro chaos             # end-to-end workload under fault injection
    repro serve-bench       # multi-session serving runtime benchmark
    repro adaptive-bench    # tier-ladder degradation under surge/battery
    repro trace             # per-request trace capture (Perfetto JSON)
    repro monitor           # surge chaos plan under burn-rate alerting
    repro daemon            # network serving daemon (TCP ingest + admin)
    repro daemon-bench      # real-socket load generator against the daemon
"""

from __future__ import annotations

import argparse
import sys


def _fig6_modes(args: argparse.Namespace) -> None:
    from repro.core import DecoderMode, measure_mode_power
    from repro.core.casestudy import paper_clip_stream

    frames, stream = paper_clip_stream(seed=args.seed)
    table = measure_mode_power(stream, frames)
    print(f"DF share of standard-mode power: {table.df_share_standard * 100:.1f}% "
          "(paper: 31.4%)")
    print(f"{'mode':<10} {'power':>6} {'saving':>7} {'PSNR dB':>8} {'blockiness':>10}")
    for mode in DecoderMode:
        r = table.results[mode]
        print(
            f"{mode.value:<10} {r.power:6.3f} {r.saving * 100:6.1f}% "
            f"{r.psnr_db:8.2f} {r.blockiness:10.2f}"
        )


def _fig6_playback(args: argparse.Namespace) -> None:
    from repro.affect import segment_engagement
    from repro.core import measure_mode_power, simulate_playback
    from repro.core.casestudy import paper_clip_stream
    from repro.datasets import generate_sc_session

    frames, stream = paper_clip_stream(seed=args.seed)
    table = measure_mode_power(stream, frames)
    session = generate_sc_session(seed=args.seed)
    segments = segment_engagement(session)
    report = simulate_playback(segments, float(session.time_s[-1]), table)
    for seg in report.segments:
        print(
            f"{seg.start_s / 60:5.1f}-{seg.end_s / 60:5.1f} min  "
            f"{seg.state:<13} {seg.mode.value:<9} P={seg.power:.3f}"
        )
    print(f"energy saving vs standard: {report.energy_saving * 100:.1f}% "
          "(paper: 23.1%)")


def _fig7_usage(args: argparse.Namespace) -> None:
    from repro.datasets import SUBJECTS, usage_distribution

    for subject in SUBJECTS:
        dist = usage_distribution(subject)
        top = sorted(dist.items(), key=lambda kv: kv[1], reverse=True)[:6]
        share = dist["Messaging"] + dist["Internet_Browser"]
        print(f"Subject {subject.subject_id} ({subject.description}); "
              f"messaging+browsing = {share * 100:.0f}%")
        for category, p in top:
            print(f"    {category:<22} {p * 100:5.1f}%")


def _fig7_emulator(args: argparse.Namespace) -> None:
    from repro.android import PAPER_EMULATOR_CONFIG as cfg

    rows = [
        ("Platform", cfg.platform),
        ("Emulator Version", cfg.emulator_version),
        ("CPU CORE", cfg.cpu_cores),
        ("Ram Allocation", f"{cfg.ram_mb} MB"),
        ("Rom Allocation", f"{cfg.rom_gb}GB"),
        ("# of Total Apps", cfg.n_apps),
        ("Resolution", cfg.resolution),
    ]
    for key, value in rows:
        print(f"{key:<18} {value}")


def _fig10_memory(args: argparse.Namespace) -> None:
    from repro.core.appstudy import run_case_study

    result = run_case_study(seed=args.seed)
    base, emo = result.baseline, result.emotion
    print(f"{'':<18} {'emotion-driven':>16} {'baseline':>12}")
    print(f"{'loaded bytes':<18} {emo.total_loaded_bytes:>16,} "
          f"{base.total_loaded_bytes:>12,}")
    print(f"{'loading time (s)':<18} {emo.total_load_time_s:>16.1f} "
          f"{base.total_load_time_s:>12.1f}")
    print(f"memory saving: {result.memory_saving * 100:.1f}% (paper: 17%)")
    print(f"time saving:   {result.time_saving * 100:.1f}% (paper: 12%)")


def _fig3_models(args: argparse.Namespace) -> None:
    from repro.affect import AffectClassifierPipeline, default_training
    from repro.datasets import cremad_like, emovo_like, ravdess_like

    builders = {
        "RAVDESS": ravdess_like,
        "EMOVO": emovo_like,
        "CREMA-D": cremad_like,
    }
    print(f"{'corpus':<10} {'MLP':>6} {'CNN':>6} {'LSTM':>6}")
    for name, builder in builders.items():
        corpus = builder(n_per_class=args.per_class, seed=args.seed)
        row = []
        for arch in ("mlp", "cnn", "lstm"):
            epochs, lr = default_training(arch)
            pipeline = AffectClassifierPipeline(arch, seed=args.seed)
            metrics = pipeline.train(corpus, epochs=epochs, lr=lr)
            row.append(metrics["test_accuracy"])
        print(f"{name:<10} " + " ".join(f"{a * 100:5.1f}%" for a in row))


def _entropy(args: argparse.Namespace) -> None:
    from dataclasses import replace

    from repro.core.casestudy import PAPER_CLIP_ENCODER, paper_clip_frames
    from repro.video import Decoder, Encoder
    from repro.video.quality import sequence_psnr

    frames = paper_clip_frames(seed=args.seed)
    sizes = {}
    for mode in ("eg", "cavlc"):
        stream = Encoder(replace(PAPER_CLIP_ENCODER, entropy=mode)).encode(frames)
        decoded = Decoder().decode(stream)
        sizes[mode] = len(stream)
        print(f"{mode:<6} {len(stream):>7,} bytes  "
              f"PSNR {sequence_psnr(frames, decoded.frames):.2f} dB")
    saving = 1.0 - sizes["cavlc"] / sizes["eg"]
    print(f"CAVLC saves {saving * 100:.1f}% of the bitstream")


def _stats(args: argparse.Namespace) -> None:
    import json

    from repro.obs import get_registry
    from repro.obs.alerts import DEFAULT_ALERT_RULES, AlertManager
    from repro.obs.export import prometheus_text
    from repro.obs.slo import evaluate_slos, render_slo_report
    from repro.obs.workload import run_canned_workload

    registry = get_registry()
    registry.reset()
    summary = run_canned_workload(seed=args.seed)
    # Scrape-complete exposition: every alert rule exports its state
    # gauge (repro_alert_state{rule=...,severity=...}) even when no
    # manager is live — dashboards can build panels before incidents.
    AlertManager(DEFAULT_ALERT_RULES).export_state(registry)
    fmt = "json" if args.json else args.format
    if fmt == "prom":
        exposition = prometheus_text(registry)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(exposition)
            print(f"wrote Prometheus exposition to {args.output}")
        else:
            print(exposition, end="")
        return
    if fmt == "json" or args.output:
        report = json.dumps(
            {
                "workload": summary,
                "metrics": registry.snapshot(),
                "slos": [v.to_dict() for v in evaluate_slos(registry)],
            },
            indent=2, sort_keys=True,
        )
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(report + "\n")
            print(f"wrote metrics report to {args.output}")
        else:
            print(report)
        return
    print("== workload ==")
    for section, values in summary.items():
        print(f"{section}: {values}")
    print(registry.render_text())
    print(render_slo_report(evaluate_slos(registry)))


def _chaos(args: argparse.Namespace) -> None:
    import json

    from repro.obs import get_registry
    from repro.resilience.chaos import run_chaos_workload

    registry = get_registry()
    registry.reset()
    if args.plan in ("surge", "battery-drain"):
        from repro.resilience.chaos import run_surge_workload

        stats = run_surge_workload(
            seed=args.seed, sessions=args.sessions,
            seconds=args.seconds, plan=args.plan,
        )
        if args.json or args.output:
            report = json.dumps(stats, indent=2, sort_keys=True, default=str)
            if args.output:
                from pathlib import Path

                Path(args.output).write_text(report + "\n")
                print(f"wrote chaos report to {args.output}")
            else:
                print(report)
        else:
            base, adapt = stats["baseline"], stats["adaptive"]
            print(f"== chaos {args.plan} (seed={args.seed}, "
                  f"{args.sessions} sessions, {args.seconds:g} s) ==")
            print(f"windows: {stats['windows']}  ladder: "
                  f"{' -> '.join(stats['ladder'])}")
            print(f"baseline: shed {base['shed']} "
                  f"({base['shed_frac'] * 100:.1f}%), "
                  f"accuracy {base['accuracy'] * 100:.1f}%")
            print(f"adaptive: shed {adapt['shed']} "
                  f"({adapt['shed_frac'] * 100:.1f}%), absorbed "
                  f"{adapt['absorbed']}, accuracy "
                  f"{adapt['accuracy'] * 100:.1f}%")
            print(f"tier mix: {adapt['tier_mix']}")
            print(f"ladder moves: {adapt['adaptive']['demotions']} down, "
                  f"{adapt['adaptive']['promotions']} up; energy "
                  f"{adapt['adaptive']['energy_drained']:.1f}")
            print(f"survived: {stats['survived']}")
        if not stats["survived"]:
            raise SystemExit(1)
        return
    stats = run_chaos_workload(
        seed=args.seed, fault_rate=args.fault_rate, windows=args.windows
    )
    snapshot = registry.snapshot()
    if args.json or args.output:
        report = json.dumps(
            {"chaos": stats, "metrics": snapshot}, indent=2, sort_keys=True
        )
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(report + "\n")
            print(f"wrote chaos report to {args.output}")
        else:
            print(report)
    else:
        counters = snapshot["counters"]
        injected = {
            k.rsplit(".", 1)[-1]: int(v)
            for k, v in counters.items()
            if k.startswith("resilience.faults_injected.")
        }
        deg = stats["degradation"]
        vid = stats["video"]
        clf = stats["classifier"]
        print(f"== chaos run (seed={args.seed}, fault rate "
              f"{args.fault_rate * 100:.0f}%) ==")
        print(f"faults injected: {stats['total_faults_injected']} {injected}")
        print(f"classifier: {clf['windows']} windows, "
              f"{clf['failures']} failures, {clf['fallbacks']} fallbacks, "
              f"breaker opened {clf['breaker_opened']}x")
        print("degraded-mode dwell: "
              f"{counters.get('resilience.degraded_dwell_s', 0.0):.0f} s "
              f"({deg['dwell_fraction'] * 100:.0f}% of "
              f"{clf['windows']} windows)")
        print(f"video: {vid['frames_delivered']}/{vid['frames_expected']} "
              f"frames delivered, {vid['units_corrupt']} corrupt units "
              f"concealed, mean PSNR {vid['mean_psnr_db']:.1f} dB")
        print(f"emulator: {stats['emulator']}")
        print(f"unhandled crashes: {stats['crashes']}")
    if stats["crashes"]:
        raise SystemExit(1)


def _trace(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.obs import get_registry
    from repro.obs.export import (
        chrome_trace_events,
        render_trace_tree,
        spans_to_jsonl,
    )
    from repro.obs.slo import evaluate_slos, render_slo_report
    from repro.serve.bench import run_trace_workload, serve_chain_coverage

    registry = get_registry()
    registry.reset()
    report, spans = run_trace_workload(
        sessions=args.sessions, seconds=args.seconds, seed=args.seed,
        max_batch=args.batch, sample_rate=args.sample_rate,
    )
    path = Path(args.output or "trace.json")
    events = chrome_trace_events(spans)
    path.write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}
    ) + "\n")
    if args.jsonl:
        Path(args.jsonl).write_text(spans_to_jsonl(spans))
    coverage = serve_chain_coverage(spans)
    print(render_trace_tree(spans, max_traces=args.max_traces))
    print()
    acct = report["accounting"]
    print(f"== trace ({args.sessions} sessions, {args.seconds:g} s, "
          f"sample rate {args.sample_rate:g}) ==")
    print(f"windows: {acct['submitted']} submitted, {acct['completed']} "
          f"completed, {acct['shed']} shed")
    print(f"spans: {len(spans)} across "
          f"{len({s.trace_id for s in spans})} traces")
    print(f"chain coverage: {coverage['covered']}/{coverage['windows']} "
          f"completed windows ({coverage['coverage'] * 100:.1f}%)")
    print(render_slo_report(evaluate_slos(registry)))
    print(f"wrote {len(events)} trace events to {path}")
    if args.jsonl:
        print(f"wrote {len(spans)} spans to {args.jsonl}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    if coverage["coverage"] < 0.95:
        # The tracing contract: completed windows must be attributable.
        raise SystemExit(1)


def _serve_bench(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.serve.bench import run_serve_bench, run_serve_grid

    if args.full:
        payload = run_serve_grid(seconds=args.seconds, seed=args.seed)
        cells = []
        for sessions, row in payload["grid"].items():
            for batch, cell in row["batched"].items():
                cells.append((sessions, batch, row["sequential"], cell))
        print(f"{'sessions':>8} {'batch':>5} {'seq win/s':>10} "
              f"{'served win/s':>12} {'speedup':>8} {'hit rate':>8}")
        for sessions, batch, seq, cell in cells:
            served = cell["served"]
            print(f"{sessions:>8} {batch:>5} {seq['windows_per_s']:>10.0f} "
                  f"{served['windows_per_s']:>12.0f} {cell['speedup']:>7.2f}x "
                  f"{served['cache_hit_rate'] * 100:>7.1f}%")
        dropped = sum(
            cell["accounting"]["dropped"] for _, _, _, cell in cells
        )
        shed = sum(cell["accounting"]["shed"] for _, _, _, cell in cells)
        parity = payload["parity"]
    else:
        from repro.obs import get_registry
        from repro.serve.bench import measure_trace_overhead, train_bench_pipeline

        get_registry().reset()
        pipeline = train_bench_pipeline(seed=args.seed)
        payload = run_serve_bench(
            sessions=args.sessions, seconds=args.seconds, seed=args.seed,
            max_batch=args.batch, pipeline=pipeline,
        )
        if not args.no_trace_overhead:
            payload["trace_overhead"] = measure_trace_overhead(
                pipeline, sessions=args.sessions, seconds=args.seconds,
                seed=args.seed, max_batch=args.batch,
            )
        served = payload["served"]
        seq = payload["sequential"]
        acct = payload["accounting"]
        print(f"== serve-bench ({args.sessions} sessions, "
              f"{args.seconds:g} s, batch {args.batch}) ==")
        print(f"sequential: {seq['windows_per_s']:.0f} windows/s "
              f"({seq['windows']} windows in {seq['wall_s'] * 1e3:.0f} ms)")
        print(f"served:     {served['windows_per_s']:.0f} windows/s "
              f"({payload['speedup']:.2f}x), cache hit rate "
              f"{served['cache_hit_rate'] * 100:.1f}%, "
              f"mean batch {served['mean_batch']:.1f}")
        lat = served["latency_s"]
        print(f"latency (workload s): p50={lat['p50']:.3f} "
              f"p95={lat['p95']:.3f} p99={lat['p99']:.3f}")
        stages = served.get("stages", {})
        for stage in sorted(stages):
            s = stages[stage]
            print(f"stage {stage:<10} n={s['count']:<6,.0f} "
                  f"mean={s['mean'] * 1e3:.3f} ms p95={s['p95'] * 1e3:.3f} ms")
        overhead = payload.get("trace_overhead")
        if overhead:
            print(f"trace overhead: {overhead['overhead_frac'] * 100:+.2f}% "
                  f"(on {overhead['tracing_on_wall_s'] * 1e3:.0f} ms vs "
                  f"off {overhead['tracing_off_wall_s'] * 1e3:.0f} ms, "
                  f"best of {overhead['repeats']})")
        print(f"accounting: {acct['submitted']} submitted = "
              f"{acct['completed']} completed + {acct['shed']} shed "
              f"({acct['dropped']} dropped)")
        dropped = acct["dropped"]
        shed = acct["shed"]
        parity = payload["parity"]
    print(f"parity: dsp batch-vs-single "
          f"{'ok' if parity['dsp_batch_vs_single_ok'] else 'FAIL'} "
          f"(max |diff| {parity['dsp_max_abs_diff']:.2e}), "
          f"int8-vs-float labels "
          f"{'ok' if parity['int8_vs_float_ok'] else 'FAIL'} "
          f"(agreement {parity['int8_label_agreement'] * 100:.1f}%)")
    path = Path(args.output or "BENCH_serve.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    if shed:
        print(f"note: {shed} requests shed to degraded results (expected "
              "under overload; never silently dropped)")
    if dropped or not parity["ok"]:
        # The serving contract: every window completes or sheds
        # explicitly, and the batched int8 path answers like the
        # reference float single-window path.
        raise SystemExit(1)


def _adaptive_bench(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.obs import get_registry
    from repro.serve.adaptive_bench import run_adaptive_bench

    get_registry().reset()
    payload = run_adaptive_bench(
        seed=args.seed, sessions=args.sessions, seconds=args.seconds,
    )
    gates = payload["gates"]
    base, adapt = payload["baseline"], payload["adaptive"]
    print(f"== adaptive-bench ({args.sessions} sessions, "
          f"{args.seconds:g} s, surge x{payload['config']['surge_scale']:g}) ==")
    print(f"ladder: {' -> '.join(payload['config']['ladder'])}")
    print(f"baseline: shed {base['shed']}/{base['windows']} "
          f"({gates['baseline_shed_frac'] * 100:.1f}%), "
          f"p95 {base['latency_s']['p95']:.3f} s")
    print(f"adaptive: shed {adapt['shed']}/{adapt['windows']} "
          f"({gates['adaptive_shed_frac'] * 100:.2f}%), absorbed "
          f"{adapt['absorbed']}, p95 {gates['adaptive_p95_s']:.3f} s "
          f"(SLO {gates['latency_slo_s']:g} s)")
    print(f"accuracy: adaptive {gates['adaptive_accuracy'] * 100:.1f}% vs "
          f"always-neutral {gates['neutral_accuracy'] * 100:.1f}%")
    print(f"tier mix: {adapt['tier_mix']}")
    print(f"ladder moves: {adapt['adaptive']['demotions']} down, "
          f"{adapt['adaptive']['promotions']} up; "
          f"{adapt['sessions_at_top_after']} sessions back at "
          f"{adapt['top_tier']} after the surge")
    print(f"{'scale':>6} {'battery':>8} {'accuracy':>9} {'win/s':>8} "
          f"{'shed':>6} {'p95 s':>6} {'energy':>8}")
    for row in payload["frontier"]:
        print(f"{row['surge_scale']:>6g} {row['battery_fraction']:>8.2f} "
              f"{row['accuracy'] * 100:>8.1f}% {row['windows_per_s']:>8.0f} "
              f"{row['shed_frac'] * 100:>5.1f}% {row['p95_s']:>6.3f} "
              f"{row['energy_drained']:>8.1f}")
    print(f"gates ok: {gates['ok']}")
    path = Path(args.output or "BENCH_adaptive.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    if not gates["ok"]:
        # The degradation contract: a surge lethal to the binary runtime
        # must be absorbed — not shed — by the ladder, inside the SLO,
        # without answering worse than the always-neutral strawman.
        raise SystemExit(1)


def _monitor(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.obs.monitor import run_monitored_surge

    report = run_monitored_surge(
        seed=args.seed, sessions=args.sessions, seconds=args.seconds,
        plan=args.plan, sample_rate=args.sample_rate,
        bundle_dir=args.bundle_dir, alert_log=args.alert_log,
    )
    gates = report["gates"]
    if args.json:
        payload = {k: v for k, v in report.items() if k != "timeline_text"}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        arm = report["arm"]
        retention = report["retention"]
        print(f"== monitor ({args.plan} x{report['surge_scale']:g}, "
              f"{args.sessions} sessions, {args.seconds:g} s, "
              f"head sampling {report['sample_rate']:g}) ==")
        print(f"windows: {arm['windows']}, shed {arm['shed']} "
              f"({arm['shed_frac'] * 100:.1f}%), "
              f"p95 {arm['latency_s']['p95']:.3f} s")
        print(report["timeline_text"])
        print(f"retention: {retention['retained_roots']}/"
              f"{retention['violating_windows']} SLO-violating traces "
              f"retained ({retention['coverage'] * 100:.0f}%), "
              f"{retention['head_sampled_out']} head-sampled out, "
              f"reasons {retention['by_reason']}")
        print(f"page fired t={gates['first_page_at']} "
              f"(surge onset t={gates['surge_start_s']:g}, "
              f"deadline t={gates['fire_deadline_s']:g}), "
              f"resolved: {gates['page_resolved']}")
        for bundle in report["bundles"]:
            print(f"incident bundle: {bundle}/")
        print(f"gates ok: {gates['ok']}")
    if args.output:
        payload = {k: v for k, v in report.items() if k != "timeline_text"}
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote monitor report to {args.output}")
    if not gates["ok"]:
        # The monitoring contract: the page fires inside one fast
        # window of the fault, resolves after calm, and every
        # SLO-violating trace survives head sampling.
        raise SystemExit(1)


def _profile(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.obs.export import chrome_trace_json
    from repro.obs.prof import (
        profile_counter_events,
        render_flame_summary,
        run_profile_workload,
    )

    print(f"profiling serve workload ({args.sessions} sessions, "
          f"{args.seconds:g} s, seed {args.seed}, "
          f"heap {'off' if args.no_heap else 'on'})...")
    result = run_profile_workload(
        sessions=args.sessions, seconds=args.seconds, seed=args.seed,
        max_batch=args.batch, heap=not args.no_heap,
    )
    sampler = result.pop("_sampler")
    heap = result.pop("_heap")
    spans = result.pop("_spans")
    outdir = Path(args.output or "profile_out")
    outdir.mkdir(parents=True, exist_ok=True)
    collapsed_path = outdir / "profile.collapsed"
    collapsed_path.write_text(sampler.collapsed())
    perfetto_path = outdir / "profile.perfetto.json"
    perfetto_path.write_text(chrome_trace_json(
        spans, counter_events=profile_counter_events(sampler, heap),
    ))
    json_path = outdir / "profile.json"
    json_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(render_flame_summary(sampler, heap))
    print(f"wrote {collapsed_path}  (flamegraph.pl / speedscope)")
    print(f"wrote {perfetto_path}  (https://ui.perfetto.dev)")
    print(f"wrote {json_path}")
    fraction = result["attribution"]["fraction"]
    samples = result["attribution"]["samples"]
    print(f"attribution: {fraction * 100:.1f}% of {samples} samples "
          "carry a stage (gate: >= 90%)")
    if fraction < 0.90:
        # The attribution contract: continuous profiling is only useful
        # if nearly every sample maps to a named pipeline stage.
        raise SystemExit(1)


def _daemon(args: argparse.Namespace) -> None:
    import asyncio
    import signal

    from repro.daemon.server import DaemonConfig, ReproDaemon
    from repro.obs import get_registry
    from repro.serve.bench import train_bench_pipeline
    from repro.serve.runtime import AffectServer, ServeConfig

    get_registry().reset()
    print(f"training pipeline (seed={args.seed})...")
    pipeline = train_bench_pipeline(seed=args.seed)
    server = AffectServer(pipeline, ServeConfig(max_batch=args.batch))
    config = DaemonConfig(
        host=args.host, port=args.port, admin_port=args.admin_port,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight, bundle_dir=args.bundle_dir,
    )
    daemon = ReproDaemon(server, config)

    async def _serve() -> None:
        await daemon.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            # On the loop, not Python's default SIGINT handler: either
            # signal drains and stops the daemon, even one started with
            # SIGINT ignored (a background job of a non-interactive
            # shell).
            loop.add_signal_handler(signum, stop.set)
        print(f"ingest:  {config.host}:{daemon.port} "
              "(newline-delimited JSON, see repro.daemon.protocol)")
        print(f"admin:   http://{config.host}:{daemon.admin_port}"
              "  (/healthz /metrics /bundles)")
        print(f"gates:   {config.max_connections} connections, "
              f"{config.max_inflight} in-flight windows per session")
        try:
            await stop.wait()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("daemon stopped")


def _daemon_bench(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from repro.daemon.bench import run_daemon_bench
    from repro.obs import get_registry

    def _hostport(value: str | None) -> tuple[str, int] | None:
        if value is None:
            return None
        host, _, port = value.rpartition(":")
        return (host or "127.0.0.1", int(port))

    get_registry().reset()
    payload = run_daemon_bench(
        sessions=args.sessions, seconds=args.seconds, seed=args.seed,
        chaos_sessions=args.chaos_sessions,
        max_inflight=args.max_inflight, max_batch=args.batch,
        bundle_dir=args.bundle_dir,
        connect=_hostport(args.connect), admin=_hostport(args.admin),
    )
    traffic = payload["traffic"]
    chaos = payload["chaos"]
    preempt = payload["preemption"]
    gates = payload["gates"]
    rtt = traffic["rtt_s"]
    print(f"== daemon-bench ({args.sessions} sessions, {args.seconds:g} s, "
          f"{payload['config']['mode']} mode) ==")
    print(f"traffic: {traffic['windows_sent']} windows sent, "
          f"{traffic['replies']} replies ({traffic['windows_per_s']:.0f} "
          f"windows/s), {traffic['silent_drops']} silent drops")
    print(f"rtt: p50={rtt['p50'] * 1e3:.1f} ms p95={rtt['p95'] * 1e3:.1f} ms "
          f"p99={rtt['p99'] * 1e3:.1f} ms")
    print(f"outcomes: {traffic['outcomes']} "
          f"(shed {traffic['shed_frac'] * 100:.2f}%)")
    print(f"concurrency: peak {traffic['peak_concurrent']}, sustained "
          f"{traffic['sustained_sessions']}/"
          f"{args.sessions - args.chaos_sessions} clean sessions")
    print(f"chaos: {chaos['aborted']} aborted mid-stream, "
          f"{len(chaos['leaked_sessions'])} leaked sessions, "
          f"{len(chaos['leaked_routes'])} leaked routes")
    print(f"preemption: {preempt['preempted_frames']}/{preempt['extra']} "
          f"explicit preempted frames past capacity "
          f"({preempt['daemon_preemptions']} total)")
    print(f"admin: healthz {payload['admin']['healthz_status']}, "
          f"metrics {payload['admin']['metrics_status']} "
          f"({payload['admin']['metrics_bytes']} bytes)")
    print(f"gates ok: {gates['ok']}")
    path = Path(args.output or "BENCH_daemon.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    if not gates["ok"]:
        # The daemon contract: every window over the wire gets a reply
        # or an explicit preemption, chaos disconnects reap their
        # sessions, and the admin plane answers under load.
        raise SystemExit(1)


def _export_trace(args: argparse.Namespace) -> None:
    from repro.core.appstudy import run_case_study

    result = run_case_study(seed=args.seed)
    path = args.output or "emotion_trace.json"
    result.emotion.tracer.save_chrome_trace(path)
    print(f"wrote {len(result.emotion.tracer.events)} events to {path}")
    print("open in https://ui.perfetto.dev or chrome://tracing")


_COMMANDS = {
    "fig6-modes": _fig6_modes,
    "fig6-playback": _fig6_playback,
    "fig7-usage": _fig7_usage,
    "fig7-emulator": _fig7_emulator,
    "fig10-memory": _fig10_memory,
    "fig3-models": _fig3_models,
    "entropy": _entropy,
    "export-trace": _export_trace,
    "stats": _stats,
    "chaos": _chaos,
    "serve-bench": _serve_bench,
    "adaptive-bench": _adaptive_bench,
    "trace": _trace,
    "monitor": _monitor,
    "profile": _profile,
    "daemon": _daemon,
    "daemon-bench": _daemon_bench,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse the experiment name and run it."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's experiments."
    )
    parser.add_argument("experiment", choices=sorted(_COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--per-class", type=int, default=40,
        help="samples per emotion class for fig3-models",
    )
    parser.add_argument(
        "--output", "--out", type=str, default=None, dest="output",
        help="output path for export-trace / stats / trace, or the "
             "artifact directory for profile (default profile_out/)",
    )
    parser.add_argument(
        "--no-heap", action="store_true",
        help="profile: skip tracemalloc allocation tracking (CPU only)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the stats/chaos report as JSON on stdout",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="stats output format (prom = Prometheus text exposition)",
    )
    parser.add_argument(
        "--sample-rate", type=float, default=None,
        help="head-sampling probability (default 1.0 for trace, 0.01 "
             "for monitor — tail retention keeps the violating traces)",
    )
    parser.add_argument(
        "--bundle-dir", type=str, default="incidents",
        help="monitor: directory incident bundles are written under",
    )
    parser.add_argument(
        "--alert-log", type=str, default=None,
        help="monitor: also append every alert transition as JSONL here",
    )
    parser.add_argument(
        "--max-traces", type=int, default=3,
        help="trace trees to print before truncating (default 3)",
    )
    parser.add_argument(
        "--jsonl", type=str, default=None,
        help="also write the trace's spans as JSONL to this path",
    )
    parser.add_argument(
        "--no-trace-overhead", action="store_true",
        help="serve-bench: skip the tracing-on vs tracing-off overhead arm",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.2,
        help="per-kind fault probability for chaos (default 0.2)",
    )
    parser.add_argument(
        "--windows", type=int, default=24,
        help="classifier windows the chaos workload drives (default 24)",
    )
    parser.add_argument(
        "--plan", choices=("uniform", "surge", "battery-drain"),
        default="uniform",
        help="chaos plan: uniform fault injection (default), a diurnal "
             "load surge, or a battery drain through the tier ladder",
    )
    parser.add_argument(
        "--sessions", type=int, default=None,
        help="concurrent synthetic sessions (default 16 for serve-bench/"
             "trace, 64 for chaos surge plans, 96 for adaptive-bench)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="workload seconds per run (default 4 for serve-bench/trace, "
             "10 for chaos surge plans, 12 for adaptive-bench)",
    )
    parser.add_argument(
        "--batch", type=int, default=32,
        help="serve-bench micro-batch size (default 32)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="serve-bench: sweep the batch-size x session-count grid",
    )
    parser.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="daemon: interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=7861,
        help="daemon: ingest TCP port (0 = ephemeral; default 7861)",
    )
    parser.add_argument(
        "--admin-port", type=int, default=7862,
        help="daemon: admin HTTP port (0 = ephemeral; default 7862)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=64,
        help="daemon: connection cap before LRU preemption (default 64)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8,
        help="daemon: per-session in-flight window cap (default 8)",
    )
    parser.add_argument(
        "--chaos-sessions", type=int, default=None,
        help="daemon-bench: clients that abort mid-stream "
             "(default sessions // 8)",
    )
    parser.add_argument(
        "--connect", type=str, default=None,
        help="daemon-bench: drive an external daemon at HOST:PORT "
             "instead of spawning one in-process",
    )
    parser.add_argument(
        "--admin", type=str, default=None,
        help="daemon-bench: the external daemon's admin plane HOST:PORT",
    )
    args = parser.parse_args(argv)
    # Workload-size defaults differ per experiment: the serve bench and
    # trace smoke want seconds-long smoke runs, while the adaptive bench
    # and the surge chaos plans need a surge big enough for their gates
    # (a lethal baseline shed, visible recovery) to be meaningful.
    surge_chaos = args.experiment == "chaos" and args.plan != "uniform"
    if args.experiment == "monitor" and args.plan == "uniform":
        args.plan = "surge"  # monitor only runs the serve-layer plans
    if args.sessions is None:
        args.sessions = (96 if args.experiment == "adaptive-bench"
                         else 64 if surge_chaos or args.experiment
                         in ("monitor", "daemon-bench")
                         else 16)
    if args.chaos_sessions is None:
        args.chaos_sessions = args.sessions // 8
    if args.seconds is None:
        args.seconds = (12.0 if args.experiment in ("adaptive-bench", "monitor")
                        else 10.0 if surge_chaos else 4.0)
    if args.sample_rate is None:
        args.sample_rate = 0.01 if args.experiment == "monitor" else 1.0
    try:
        _COMMANDS[args.experiment](args)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
