"""The per-workload summary that tools/bench_pairs.py writes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "realizations_per_s", "better": "higher", "bound": 0.25},
]
PARENT = [10.0, 11.0, 12.0, 10.0, 11.0, 12.0, 10.0, 11.0, 12.0, 10.0]  # IQR 1.75


def pairs(change, incorrect_change=0):
    """Runs whose rate is PARENT on the parent side and `change` on the
    change side; the first `incorrect_change` change runs are incorrect."""
    def side(rate, correct):
        return {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
                "metrics": {"wall_s": {"value": 100.0 / rate},
                            "realizations_per_s": {"value": rate}}}
    return [{"parent": side(p, True), "change": side(c, i >= incorrect_change)}
            for i, (p, c) in enumerate(zip(PARENT, change))]


@pytest.mark.parametrize(
    "change,incorrect,met",
    [
        ([p + 2.0 for p in PARENT], 0, True),
        ([p + 1.5 for p in PARENT], 0, False),  # wins all, median gap inside the IQR
        ([p + 2.0 for p in PARENT[:9]] + [9.0], 0, True),  # 9 of 10 pairs
        ([p + 2.0 for p in PARENT[:8]] + [9.0, 9.0], 0, False),  # 8 of 10 pairs
        ([p + 2.0 for p in PARENT], 1, False),
    ],
)
def test_claim_needs_nine_tenths_of_pairs_and_a_gap_past_the_parent_iqr(
    change, incorrect, met
):
    out = bench_pairs.summary(pairs(change, incorrect), END_TO_END, claimed=True)
    assert out["incorrect_runs"] == {"parent": 0, "change": incorrect}
    assert out["realizations_per_s"]["parent_quartiles"] == [10.0, 11.0, 11.75]
    assert out["realizations_per_s"]["claim_met"] is met


@pytest.mark.parametrize("factor,beyond", [(0.8, False), (0.7, True), (1.5, False)])
def test_bound_flags_a_median_worse_by_more_than_the_bound(factor, beyond):
    out = bench_pairs.summary(pairs([p * factor for p in PARENT]), END_TO_END, claimed=False)
    assert out["realizations_per_s"]["worse_by"] == pytest.approx(1 - factor)
    assert out["realizations_per_s"]["beyond_bound"] is beyond
    assert "claim_met" not in out["realizations_per_s"]
