"""Resilience benchmark: quality + latency under graduated fault rates.

Runs the chaos workload (the same one behind ``repro chaos``) at 0%, 5%
and 20% per-kind fault rates, measures the resilience wrappers' overhead
on the fault-free path (resilient vs bare loop), and writes
``BENCH_resilience.json`` at the repo root — the degradation curve every
future robustness PR compares against.  A second section runs the
serve-layer surge and battery-drain plans (``repro chaos --plan surge``)
and records the shed-only baseline against the adaptive tier ladder.

The headline assertions: the resilient chain survives every rate with
zero unhandled crashes, the wrappers cost < 2% of loop time when no
faults fire, and both surge plans survive with the ladder shedding no
more than the baseline.
"""

from __future__ import annotations

import json
import platform
import statistics
from pathlib import Path

from benchmarks.conftest import report

from repro.bench import PAIRS, paired_overhead, paired_walls
from repro.obs import get_registry
from repro.resilience.chaos import run_chaos_workload
from repro.serve.adaptive_bench import run_surge_workload

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_resilience.json"
FAULT_RATES = (0.0, 0.05, 0.2)
WINDOWS = 24
CLIPS = 3


def _run(fault_rate: float, resilience: bool = True) -> dict[str, object]:
    """One chaos run; deterministic for the seed except ``loop_s``."""
    get_registry().reset()
    return run_chaos_workload(seed=0, fault_rate=fault_rate, windows=WINDOWS,
                              clips=CLIPS, resilience=resilience)


def test_resilience_degradation_curve_and_overhead():
    curve = {f"{rate:.2f}": _run(rate) for rate in FAULT_RATES}
    clean = curve["0.00"]
    walls = paired_walls(
        lambda arm: _run(0.0, arm == "resilient")["loop_s"],
        ("bare", "resilient"))
    bare_s = statistics.median(walls["bare"])
    resilient_s = statistics.median(walls["resilient"])
    overhead = paired_overhead(walls, "resilient", "bare")

    payload = {
        "benchmark": "resilience",
        "workload": "repro.resilience.chaos.run_chaos_workload(seed=0)",
        "python": platform.python_version(),
        "repeats": PAIRS,
        "windows": WINDOWS,
        "clips": CLIPS,
        "fault_rates": list(FAULT_RATES),
        "curve": curve,
        "bare_loop_s": bare_s,
        "wrapper_overhead_fraction": overhead,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    rows = []
    for key, stats in curve.items():
        deg = stats["degradation"]
        vid = stats["video"]
        rows.append([
            key,
            stats["total_faults_injected"],
            stats["crashes"],
            f"{deg['dwell_fraction'] * 100:.0f}%",
            f"{vid['frames_delivered']}/{vid['frames_expected']}",
            f"{vid['mean_psnr_db']:.1f}",
            f"{stats['loop_s']:.3f}",
        ])
    report(
        "Resilience — degradation curve under fault injection",
        ["rate", "faults", "crashes", "degraded", "frames", "PSNR dB", "loop s"],
        rows,
    )
    report(
        "Resilience — wrapper overhead on the fault-free path",
        ["loop", f"median of {PAIRS} pairs (s)"],
        [
            ["bare", f"{bare_s:.3f}"],
            ["resilient", f"{resilient_s:.3f}"],
            ["overhead (median paired ratio)", f"{overhead * 100:.2f}%"],
        ],
    )

    # Survival: zero unhandled crashes at every rate, all frames delivered.
    for key, stats in curve.items():
        assert stats["crashes"] == 0, f"crashes at rate {key}: {stats['crashes']}"
        vid = stats["video"]
        assert vid["frames_delivered"] == vid["frames_expected"]

    # The fault-free run must be genuinely fault-free and non-degraded
    # past the majority-vote warmup.
    assert clean["total_faults_injected"] == 0
    assert clean["degradation"]["dwell_fraction"] < 0.25

    # Degradation is graceful, not catastrophic: heavier faulting may cost
    # quality (PSNR, degraded dwell) but never crashes (asserted above),
    # and the heavy-rate run visibly exercises the machinery.
    heavy = curve["0.20"]
    assert heavy["total_faults_injected"] > 0
    assert heavy["classifier"]["fallbacks"] > 0

    # The wrappers must be effectively free when no faults fire.
    assert overhead < 0.02, f"resilience wrapper overhead {overhead:.1%} >= 2%"


def test_surge_plans_survive_and_merge_into_bench():
    """Serve-layer chaos: shed-only baseline vs the adaptive tier ladder."""
    plans = {}
    for plan in ("surge", "battery-drain"):
        get_registry().reset()
        plans[plan] = run_surge_workload(
            seed=0, sessions=64, seconds=10.0, plan=plan,
        )

    rows = []
    for plan, stats in plans.items():
        baseline = stats["baseline"]
        adaptive = stats["adaptive"]
        rows.append([
            plan,
            stats["windows"],
            f"{baseline['shed_frac'] * 100:.1f}%",
            f"{adaptive['shed_frac'] * 100:.1f}%",
            adaptive["absorbed"],
            adaptive["adaptive"]["demotions"],
            adaptive["adaptive"]["promotions"],
            f"{adaptive['adaptive']['energy_drained']:.2f}",
            "yes" if stats["survived"] else "NO",
        ])
    report(
        "Resilience — surge plans: shed-only baseline vs adaptive ladder",
        ["plan", "windows", "base shed", "adpt shed", "absorbed",
         "demote", "promote", "energy", "survived"],
        rows,
    )

    # Merge the surge section into the bench file the fault-curve test
    # wrote (read-modify-write keeps the two tests runnable standalone).
    payload = (json.loads(BENCH_PATH.read_text())
               if BENCH_PATH.exists() else {"benchmark": "resilience"})
    payload["surge"] = plans
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for plan, stats in plans.items():
        assert stats["survived"], f"{plan} plan did not survive: {stats}"
        assert stats["crashes"] == 0
        assert stats["adaptive"]["dropped"] == 0
        assert stats["baseline"]["dropped"] == 0
    # The surge plan must show recovery; the drain plan must hold budget.
    assert plans["surge"]["adaptive"]["adaptive"]["promotions"] > 0
    assert plans["battery-drain"]["adaptive"]["adaptive"]["demotions"] > 0
