"""The summary math of ``tools/ab_bench.py`` on synthetic runs: the
quartiles, the win count with ties for neither side, the ``resolved`` flag
and the 9-of-10 gain rule."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


@pytest.mark.parametrize("runs", [[3.0, 1.0, 2.0, 5.0, 4.0], list(range(10, 0, -1)),
                                  [0.2, 0.7, 0.1, 0.9, 0.4, 0.3, 0.8, 0.6]])
def test_quartiles_interpolate_between_order_statistics(runs):
    assert ab_bench.quartiles(runs) == pytest.approx(tuple(np.percentile(runs, [25, 50, 75])))


def test_quartiles_of_ten_runs_as_recorded_before():
    # BENCH_30's parent pipeline-2d total_s runs and the quartiles it recorded
    runs = [2.915805172000546, 2.920371255506325, 2.8101195659983205, 3.0732095400016988,
            3.4705015905019536, 2.799050740497478, 2.8200609079976857, 2.7842651559985825,
            2.8461049100005766, 2.6991271745027916]
    assert ab_bench.quartiles(runs) == pytest.approx(
        (2.8018179468726885, 2.833082908999131, 2.91922973462988), rel=1e-15)


def test_ties_count_for_neither_side():
    parent = [1.0, 1.0, 2.0, 2.0]
    change = [0.5, 1.0, 2.0, 3.0]
    assert ab_bench.wins(parent, change, "lower") == (1, 1)
    assert ab_bench.wins(parent, change, "higher") == (1, 1)
    assert ab_bench.summarize(parent, change, "lower", 0.25)["change_wins"] == "1/4"


def _summary(change_wins, gap, iqr=0.1):
    """Ten pairs around a parent median of 1 with interquartile range
    ``iqr``; the change is ``gap`` lower, and wins ``change_wins`` pairs:
    the rest are ties."""
    parent = list(1.0 + (np.arange(10) - 4.5) * iqr / 4.5)
    change = [p - gap if k < change_wins else p for k, p in enumerate(parent)]
    return ab_bench.summarize(parent, change, "lower", 0.25)


def test_claim_needs_nine_of_ten_pairs():
    assert _summary(9, 0.5)["change_wins"] == "9/10"
    assert ab_bench.claim_met(_summary(10, 0.5), "lower")
    assert ab_bench.claim_met(_summary(9, 0.5), "lower")
    assert not ab_bench.claim_met(_summary(8, 0.5), "lower")


def test_claim_needs_the_median_gap_beyond_the_parent_iqr():
    s = _summary(10, 0.04, iqr=0.1)
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    assert s["parent"]["median"] - s["change"]["median"] < iqr
    assert not ab_bench.claim_met(s, "lower")
    assert ab_bench.claim_met(_summary(10, 1.5 * iqr, iqr=0.1), "lower")


def test_a_higher_is_better_metric_is_won_upwards():
    parent = [1.0] * 9 + [1.1]
    change = [2.0] * 10
    s = ab_bench.summarize(parent, change, "higher", 0.25)
    assert s["change_wins"] == "10/10" and s["parent_wins"] == "0/10"
    assert ab_bench.claim_met(s, "higher")
    assert not ab_bench.claim_met(ab_bench.summarize(parent, change, "lower", 0.25), "lower")


def test_resolved_when_the_parent_iqr_is_narrower_than_the_bound():
    parent = [0.9, 1.0, 1.0, 1.1]  # q1 0.975, median 1.0, q3 1.025
    s = ab_bench.summarize(parent, parent, "lower", 0.1)
    assert s["parent_iqr_rel"] == pytest.approx(0.05)
    assert s["resolved"]
    assert not ab_bench.summarize(parent, parent, "lower", 0.04)["resolved"]
    assert s["pair_ratios"] == [1.0] * 4
    assert s["median_change_rel"] == 0.0
