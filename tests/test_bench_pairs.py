"""The per-metric verdicts of tools/bench_pairs.py, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
SETUP_S = next(m for m in END_TO_END if m["name"] == "setup_s")

# sweep setup_s of a refused change, 0.316 -> 0.438 s (+39%) in the median
CHANGE = [0.41, 0.42, 0.43, 0.432, 0.436, 0.44, 0.45, 0.46, 0.47, 0.48]
TIGHT = [0.30, 0.305, 0.31, 0.312, 0.314, 0.318, 0.32, 0.325, 0.33, 0.335]
# two populations, as sweep set-up falls into: IQR 43% of the median
BIMODAL = [0.29, 0.30, 0.305, 0.31, 0.314, 0.318, 0.33, 0.48, 0.49, 0.50]


def runs_of(parent, change, metric="setup_s"):
    side = lambda v: {"result": {"metrics": {metric: {"value": v}}}}
    return [{"seed": i, "parent": side(p), "change": side(c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def judge(parent, change, metric=SETUP_S):
    return bp.summarize(runs_of(parent, change, metric["name"]), [metric])[metric["name"]]


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return (q3 - q1) / median


def test_fixture_medians_and_spreads():
    assert np.median(TIGHT) == pytest.approx(0.316)
    assert np.median(BIMODAL) == pytest.approx(0.316)
    assert np.median(CHANGE) == pytest.approx(0.438)
    assert spread(TIGHT) < SETUP_S["bound"] < spread(BIMODAL)
    assert spread(BIMODAL) == pytest.approx(0.43, abs=0.005)


def test_regression_past_the_bound_is_worse_under_a_tight_spread():
    assert judge(TIGHT, CHANGE)["verdict"] == "worse"


def test_same_regression_is_unresolved_under_a_wide_spread():
    assert judge(BIMODAL, CHANGE)["verdict"] == "unresolved"


def test_wide_spread_resolves_when_every_change_run_beats_every_parent_run():
    change = [v - 0.2 for v in TIGHT]
    assert max(change) < min(BIMODAL)
    assert judge(BIMODAL, change)["verdict"] == "better"


def test_small_move_is_not_worse():
    change = [v * 1.05 for v in TIGHT]
    assert judge(TIGHT, change)["verdict"] == "not worse"


def test_better_needs_nine_of_ten_pairs_and_the_parent_iqr():
    assert judge(TIGHT, [v - 0.05 for v in TIGHT])["verdict"] == "better"
    # a median past the IQR but only 8 of 10 pairs won
    mixed = [v - 0.05 for v in TIGHT[:8]] + [v + 0.01 for v in TIGHT[8:]]
    assert judge(TIGHT, mixed)["change_better_pairs"] == 8
    assert judge(TIGHT, mixed)["verdict"] == "not worse"


def test_higher_is_better_metric():
    ok_frac = next(m for m in END_TO_END if m["name"] == "ok_frac")
    assert judge([1.0] * 10, [1.0] * 9 + [0.9], ok_frac)["verdict"] == "not worse"
    assert judge([1.0] * 10, [0.98] * 10, ok_frac)["verdict"] == "worse"


def test_no_successful_pair_is_unresolved():
    runs = runs_of(TIGHT, CHANGE)
    for r in runs:
        r["change"]["result"] = None
    result = bp.summarize(runs, [SETUP_S])
    assert result["setup_s"]["verdict"] == "unresolved"
    assert result["failed_runs"] == 10


def test_one_printed_line_per_metric():
    metrics = [SETUP_S, next(m for m in END_TO_END if m["name"] == "op_s")]
    runs = [{"seed": i, **{side: {"result": {"metrics": {"setup_s": {"value": s},
                                                         "op_s": {"value": 1.0}}}}
                           for side, s in (("parent", p), ("change", c))}}
            for i, (p, c) in enumerate(zip(TIGHT, CHANGE))]
    lines = bp.verdict_lines("sweep", bp.summarize(runs, metrics), metrics)
    assert len(lines) == 2
    assert lines[0].startswith("sweep setup_s: parent 0.316 ")
    assert lines[0].endswith("0/10 pairs better, median +38.6%: worse")
    assert lines[1].endswith(": not worse")
