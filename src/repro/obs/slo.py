"""Service-level objectives over the metrics registry.

The paper's closed loop is only useful while it is *timely*: a window
answered late, an emotion decision made on stale evidence, or a request
shed under overload all consume the same thing — the service's error
budget.  This module declares those objectives as data, evaluates them
against a :class:`~repro.obs.registry.MetricsRegistry`, and renders
pass/fail verdicts with budget math, mirroring how latency-bound serving
benchmarks (MLPerf server scenarios, Clipper's SLO-driven adaptation)
report compliance instead of bare averages.

Two objective kinds cover the stack:

- ``latency`` — at least ``target`` of samples in histogram ``metric``
  must fall at or under ``threshold`` seconds (uses
  :meth:`~repro.obs.registry.HistogramState.count_below`);
- ``ratio`` — the ratio of counter ``metric`` over counter
  ``denominator`` must stay at or under ``threshold``.

Both express an **error budget**: the tolerated bad fraction
(``1 - target`` for latency, ``threshold`` for ratios).  ``burn_rate``
is the observed bad fraction divided by that budget — 1.0 means the
window exactly spent its budget, above 1.0 means the objective is being
violated.

One function computes every verdict, over the samples between two
snapshots of the registry: a :class:`SnapshotHistory` supplies trailing
windows (the control and alerting signal), and :func:`evaluate_slo`
judges the lifetime as the window that starts from an empty baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry

#: One capture of the series behind some objectives: ``(count, good)``
#: sample counts under ``(histogram, threshold)`` for each latency
#: objective, and counter values under their names.
Snapshot = dict[object, object]


@dataclass(frozen=True)
class SLObjective:
    """One declared objective, evaluated against the registry.

    Parameters
    ----------
    name:
        Short identifier (``serve-p95-latency``).
    kind:
        ``"latency"`` or ``"ratio"`` (see module docstring).
    metric:
        Histogram name (latency) or numerator counter name (ratio).
    threshold:
        Latency bound in seconds, or the ratio ceiling.
    target:
        Required good fraction for latency objectives (e.g. ``0.95``);
        unused for ratios (their budget *is* the threshold).
    denominator:
        Denominator counter for ratio objectives.
    description:
        One line for reports.
    """

    name: str
    kind: str
    metric: str
    threshold: float
    target: float = 0.95
    denominator: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown SLO kind: {self.kind!r}")
        if self.kind == "ratio" and self.denominator is None:
            raise ValueError("ratio objectives need a denominator counter")
        if self.kind == "latency" and not 0.0 < self.target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")


@dataclass(frozen=True)
class SLOVerdict:
    """The outcome of evaluating one objective.

    ``value`` is the observed statistic, the bad fraction.
    ``bad_fraction`` is the observed violation rate, ``error_budget``
    the tolerated one, ``burn_rate`` their ratio (``0.0`` when the
    budget itself is zero and nothing was bad), and ``budget_remaining``
    the unspent share of the budget clamped to ``[0, 1]``.
    """

    objective: SLObjective
    ok: bool
    value: float
    bad_fraction: float
    error_budget: float
    burn_rate: float
    budget_remaining: float
    samples: float

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (flat, objective fields inlined)."""
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "metric": self.objective.metric,
            "threshold": self.objective.threshold,
            "target": self.objective.target,
            "description": self.objective.description,
            "ok": self.ok,
            "value": self.value,
            "bad_fraction": self.bad_fraction,
            "error_budget": self.error_budget,
            "burn_rate": self.burn_rate,
            "budget_remaining": self.budget_remaining,
            "samples": self.samples,
        }


#: The serving stack's default objectives.  Thresholds describe the
#: canned CI workloads (workload-time latencies, synthetic traffic), not
#: a production promise — deployments declare their own tuple.
DEFAULT_SLOS: tuple[SLObjective, ...] = (
    SLObjective(
        name="serve-p95-latency",
        kind="latency",
        metric="serve.latency_s",
        threshold=0.5,
        target=0.95,
        description="95% of windows complete within 0.5 s end to end",
    ),
    SLObjective(
        name="emotion-staleness",
        kind="ratio",
        metric="core.controller.stale_decays",
        denominator="core.controller.observations",
        threshold=0.05,
        description="stale-decay episodes stay under 5% of observations",
    ),
    SLObjective(
        name="shed-rate",
        kind="ratio",
        metric="serve.shed",
        denominator="serve.requests",
        threshold=0.01,
        description="at most 1% of requests shed under overload",
    ),
)


def _series(
    objectives: tuple[SLObjective, ...],
) -> set[tuple[str, str, float | None]]:
    """The ``(kind, name, threshold)`` registry series behind ``objectives``."""
    series: set[tuple[str, str, float | None]] = set()
    for objective in objectives:
        if objective.kind == "latency":
            series.add(("latency", objective.metric, objective.threshold))
        else:
            series.add(("counter", objective.metric, None))
            series.add(("counter", objective.denominator or "", None))
    return series


def _capture(registry: MetricsRegistry,
             series: set[tuple[str, str, float | None]],
             exact: bool = False) -> Snapshot:
    values: Snapshot = {}
    for kind, name, threshold in series:
        if kind == "latency":
            state = registry.histogram(name).state()
            if not exact:
                # A count that uses the exact extremes does not
                # subtract: a later, larger max turns samples an earlier
                # capture judged good back into bad.  Window captures
                # count by bucket midpoints alone.
                state.min = state.max = None
            values[(name, threshold)] = (state.count, state.count_below(threshold))
        else:
            values[name] = registry.counter(name).value
    return values


def _verdict(objective: SLObjective, earlier: Snapshot,
             later: Snapshot) -> SLOVerdict:
    """Verdict for ``objective`` over the samples between two snapshots.

    A window without evidence — a series missing from either snapshot
    (captured before it was tracked) or no traffic in between — yields
    the no-evidence verdict: zero samples, zero burn, ``ok=True``.
    Controllers and alerting must not act on silence.
    """
    bad = samples = 0.0
    ok = True
    if objective.kind == "latency":
        budget = 1.0 - objective.target
        key = (objective.metric, objective.threshold)
        start, end = earlier.get(key), later.get(key)
        if start is not None and end is not None and end[0] > start[0]:  # type: ignore[index]
            samples = float(end[0] - start[0])  # type: ignore[index]
            good = min(1.0, (end[1] - start[1]) / samples)  # type: ignore[index]
            bad = 1.0 - good
            ok = good >= objective.target
    else:
        budget = objective.threshold
        counts = (earlier.get(objective.metric), later.get(objective.metric),
                  earlier.get(objective.denominator),
                  later.get(objective.denominator))
        if None not in counts:
            num0, num1, den0, den1 = counts
            den = float(den1) - float(den0)  # type: ignore[arg-type]
            if den > 0:
                num = float(num1) - float(num0)  # type: ignore[arg-type]
                bad = max(0.0, num) / den
                samples = den
        ok = bad <= objective.threshold
    if budget > 0:
        burn = bad / budget
    else:
        burn = 0.0 if bad == 0.0 else float("inf")
    return SLOVerdict(
        objective=objective,
        ok=ok,
        value=bad,
        bad_fraction=bad,
        error_budget=budget,
        burn_rate=burn,
        budget_remaining=max(0.0, min(1.0, 1.0 - burn)),
        samples=samples,
    )


def evaluate_slo(registry: MetricsRegistry,
                 objective: SLObjective) -> SLOVerdict:
    """Evaluate one objective over every sample the registry holds.

    The lifetime is the window from an empty baseline.  With nothing to
    subtract, a latency verdict also uses the histogram's exact min/max.
    """
    later = _capture(registry, _series((objective,)), exact=True)
    empty: Snapshot = {key: (0, 0) if isinstance(value, tuple) else 0.0
                       for key, value in later.items()}
    return _verdict(objective, empty, later)


def evaluate_slos(
    registry: MetricsRegistry,
    objectives: tuple[SLObjective, ...] = DEFAULT_SLOS,
) -> list[SLOVerdict]:
    """Evaluate every objective; order follows the declaration tuple."""
    return [evaluate_slo(registry, objective) for objective in objectives]


class SnapshotHistory:
    """Burn rate over trailing windows, not the lifetime of the registry.

    :func:`evaluate_slo` judges every sample the registry has ever seen,
    which is the right report for a benchmark run but useless as a
    *control signal*: an hour of healthy traffic dilutes a ten-second
    overload spike to invisibility.  A history keeps a deque of
    ``(workload_time, snapshot)`` captures of the series behind its
    objectives, retains enough of them for ``max_horizon_s``, and
    judges each objective over the **delta** between two captures — the
    multi-window burn-rate construction from the SRE workbook.  One
    history serves every horizon up to ``max_horizon_s``: the alerting
    engine's fast/slow pairs share one, and the adaptive controller
    reads its own over the full retained span, so "burning" means the
    same thing to the control loop, the pager and the dashboards.

    For a horizon ``h`` the window pair is the newest capture against
    the **latest capture at least ``h`` older** (falling back to the
    oldest retained when none is old enough yet).  ``horizon_s=None``
    pairs the oldest retained capture with the newest.

    All timing is caller-supplied workload time; ``sample`` drops calls
    that do not advance past ``min_interval_s``, so polling loops may
    call it every tick.  A registry reset (a new
    :attr:`~repro.obs.registry.MetricsRegistry.generation`) empties the
    history: counts captured before it do not subtract from counts after.
    """

    def __init__(
        self,
        objectives: tuple[SLObjective, ...] = DEFAULT_SLOS,
        max_horizon_s: float = 5.0,
        min_interval_s: float = 0.25,
    ) -> None:
        if max_horizon_s <= 0:
            raise ValueError("max_horizon_s must be positive")
        if min_interval_s < 0:
            raise ValueError("min_interval_s must be non-negative")
        self.max_horizon_s = max_horizon_s
        self.min_interval_s = min_interval_s
        #: Bumped whenever the retained samples change (kept sample or
        #: clear); lets callers cache derived verdicts per version.
        self.version = 0
        self._series: set[tuple[str, str, float | None]] = set()
        self._generation: int | None = None
        self._samples: deque[tuple[float, Snapshot]] = deque()
        # Horizon → pair resolution memo, valid for one version: rules
        # sharing a horizon (e.g. the latency and shed page rules) pay
        # the deque scan once per kept sample instead of once per rule.
        self._pair_cache: dict[
            float | None,
            tuple[tuple[float, Snapshot], tuple[float, Snapshot]] | None] = {}
        self._pair_version = -1
        self.track(objectives)

    def track(self, objectives: tuple[SLObjective, ...]) -> None:
        """Add the series behind ``objectives`` to future snapshots.

        Snapshots taken before a series was tracked simply lack its key;
        verdicts over such windows report no evidence until the window
        refills with complete snapshots.
        """
        self._series |= _series(objectives)

    def sample(self, registry: MetricsRegistry, now: float) -> bool:
        """Capture one snapshot at workload time ``now``; returns whether kept.

        Snapshots older than ``max_horizon_s`` behind the newest are
        retired, but one sample is always kept *beyond* the horizon so a
        full window of history stays subtractable (otherwise the window
        would shrink to nothing right after every retirement).
        """
        if registry.generation != self._generation:
            self._samples.clear()
            self._generation = registry.generation
        if self._samples and now - self._samples[-1][0] < self.min_interval_s:
            return False
        self._samples.append((now, _capture(registry, self._series)))
        while (len(self._samples) > 2
               and now - self._samples[1][0] >= self.max_horizon_s):
            self._samples.popleft()
        self.version += 1
        return True

    def __len__(self) -> int:
        return len(self._samples)

    def clear(self) -> None:
        self._samples.clear()
        self.version += 1

    def span_s(self, horizon_s: float | None = None) -> float:
        """Workload time covered by the window for ``horizon_s``.

        ``None`` means the full retained span.  0.0 when fewer than two
        samples exist.
        """
        pair = self._pair_samples(horizon_s)
        if pair is None:
            return 0.0
        return pair[1][0] - pair[0][0]

    def _pair_samples(
        self, horizon_s: float | None
    ) -> tuple[tuple[float, Snapshot], tuple[float, Snapshot]] | None:
        if self._pair_version != self.version:
            self._pair_cache.clear()
            self._pair_version = self.version
        elif horizon_s in self._pair_cache:
            return self._pair_cache[horizon_s]
        pair = self._resolve_pair(horizon_s)
        self._pair_cache[horizon_s] = pair
        return pair

    def _resolve_pair(
        self, horizon_s: float | None
    ) -> tuple[tuple[float, Snapshot], tuple[float, Snapshot]] | None:
        if len(self._samples) < 2:
            return None
        newest = self._samples[-1]
        if horizon_s is None:
            return self._samples[0], newest
        earlier = self._samples[0]
        for sample in self._samples:
            if newest[0] - sample[0] >= horizon_s:
                earlier = sample
            else:
                break
        if earlier is newest:
            earlier = self._samples[0]
        return earlier, newest

    def evaluate(
        self, objective: SLObjective, horizon_s: float | None = None
    ) -> SLOVerdict:
        """Verdict for ``objective`` over the trailing ``horizon_s`` window.

        An empty or single-sample window (startup, or a just-reset
        registry) yields the no-evidence verdict.
        """
        pair = self._pair_samples(horizon_s)
        if pair is None:
            return _verdict(objective, {}, {})
        return _verdict(objective, pair[0][1], pair[1][1])


def render_slo_report(verdicts: list[SLOVerdict]) -> str:
    """Terminal-friendly verdict table with budget math."""
    if not verdicts:
        return "(no objectives declared)"
    lines = ["== SLOs =="]
    width = max(len(v.objective.name) for v in verdicts)
    for verdict in verdicts:
        mark = "PASS" if verdict.ok else "FAIL"
        burn = ("inf" if verdict.burn_rate == float("inf")
                else f"{verdict.burn_rate:.2f}")
        lines.append(
            f"{mark}  {verdict.objective.name:<{width}}  "
            f"bad={verdict.bad_fraction * 100:.2f}% "
            f"budget={verdict.error_budget * 100:.2f}% "
            f"burn={burn} "
            f"remaining={verdict.budget_remaining * 100:.0f}% "
            f"(n={verdict.samples:g})"
        )
        if verdict.objective.description:
            lines.append(f"      {verdict.objective.description}")
    return "\n".join(lines)
