"""The paired-rounds overhead protocol of :mod:`repro.bench`.

A fake ``run`` returns ``cost[arm] * drift[round]``: every arm of a
round sees the same host drift, which is exactly what the protocol's
paired ratio must cancel, whatever the drift does between rounds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import PAIRS, paired_overhead, paired_walls


@given(
    costs=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4),
    drifts=st.lists(st.floats(0.5, 2.0), min_size=PAIRS + 1,
                    max_size=PAIRS + 1),
)
@settings(max_examples=60, deadline=None)
def test_rounds_rotate_and_paired_ratio_cancels_drift(costs, drifts):
    arms = [f"arm{i}" for i in range(len(costs))]
    calls: list[str] = []

    def run(arm: str) -> float:
        round_index = len(calls) // len(arms)
        calls.append(arm)
        return costs[arms.index(arm)] * drifts[round_index]

    walls = paired_walls(run, arms)

    n = len(arms)
    for i, arm in enumerate(arms):
        assert calls.count(arm) == PAIRS + 1
        # Round 0 is the warm-up: its wall is dropped.
        assert walls[arm] == [costs[i] * d for d in drifts[1:]]
    for r in range(PAIRS + 1):
        assert calls[r * n] == arms[r % n]
        assert sorted(calls[r * n:(r + 1) * n]) == arms
    for a, arm in enumerate(arms):
        for b, base in enumerate(arms):
            expected = costs[a] / costs[b] - 1.0
            assert abs(paired_overhead(walls, arm, base) - expected) <= 1e-12
