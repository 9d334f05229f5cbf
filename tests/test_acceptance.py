"""Acceptance gate for the paper's claim, stage 1: ICASC must train as well
as the baseline on the trend's own set without its attention collapsing.

One default ``experiments.run_trend`` (seeds 0-4, the baseline and ICASC
variants, 12 epochs, 200 train and 100 test samples per class) runs once
for the module, into a temporary directory; the tests read its
``trend.csv``.  It takes about 27 s on 2 cores.

Bounds, per seed, fixed from the baseline rows alone (skip 0 on every
seed, at most 3 of 16 last-block channels dead, test accuracy 0.998-1.0):

- ``skip_final`` (the last epoch's training skip rate) <= 0.05;
- ``dead_last`` (fraction of last-block channels 0 on every test
  sample) <= 0.25;
- ``test_accuracy`` >= the same seed's baseline accuracy - 0.05.

The same gate at the second width, channels (16, 32), runs a second trend
of the same seeds with ``replace(TREND_TRAIN, channels=(16, 32))``.  Its
two tests are marked ``second_width``, which the tier-1 command deselects
(``pyproject.toml``'s ``addopts``); CI runs them in a step of their own,
``pytest -m second_width tests/test_acceptance.py``, in about 100 s on 2
cores.
"""

import csv
from dataclasses import replace

import pytest

from icasc import experiments

SEEDS = (0, 1, 2, 3, 4)
MAX_SKIP_FINAL = 0.05
MAX_DEAD_LAST = 0.25
ACCURACY_MARGIN = 0.05
SECOND_WIDTH = (16, 32)

ICASC_KILLS_UNITS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ICASC kills last-block units and skips samples on every seed; "
           "the fix is ROADMAP item 2 (stop the separation terms from "
           "killing units)")


def _run_trend(work, **train_changes):
    """``{(variant, seed): row}`` of a default trend's ``trend.csv``, run
    into ``work`` with ``train_changes`` made to ``TREND_TRAIN``."""
    experiments.run_trend(work, seeds=SEEDS, train=replace(
        experiments.TREND_TRAIN, **train_changes))
    with open(work / "trend.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(SEEDS)
    return {(row["variant"], int(row["seed"])): row for row in rows}


@pytest.fixture(scope="module")
def trend_rows(tmp_path_factory):
    """The rows of one default trend."""
    return _run_trend(tmp_path_factory.mktemp("trend"))


@pytest.fixture(scope="module")
def second_width_rows(tmp_path_factory):
    """The rows of one trend at channels (16, 32)."""
    return _run_trend(tmp_path_factory.mktemp("trend_wide"),
                      channels=SECOND_WIDTH)


def _gate_failures(row, baseline_accuracy: float) -> list[str]:
    """The stage-1 bounds that ``row`` misses, as readable clauses."""
    skip, dead = float(row["skip_final"]), float(row["dead_last"])
    accuracy = float(row["test_accuracy"])
    missed = []
    if skip > MAX_SKIP_FINAL:
        missed.append(f"skip_final {skip:.3f} > {MAX_SKIP_FINAL}")
    if dead > MAX_DEAD_LAST:
        missed.append(f"dead_last {dead:.3f} > {MAX_DEAD_LAST}")
    if accuracy < baseline_accuracy - ACCURACY_MARGIN:
        missed.append(f"test_accuracy {accuracy:.3f} < baseline "
                      f"{baseline_accuracy:.3f} - {ACCURACY_MARGIN}")
    return missed


def _assert_baseline_meets_the_gate(rows):
    """The skip and dead bounds can be met: every baseline seed meets them
    (the accuracy clause is the baseline against itself)."""
    for seed in SEEDS:
        row = rows["baseline", seed]
        assert _gate_failures(row, float(row["test_accuracy"])) == [], seed


def _assert_icasc_meets_the_gate(rows):
    failures = {}
    for seed in SEEDS:
        baseline = float(rows["baseline", seed]["test_accuracy"])
        missed = _gate_failures(rows["icasc", seed], baseline)
        if missed:
            failures[seed] = missed
    assert not failures, failures


def test_gate_bounds_hold_for_the_baseline(trend_rows):
    _assert_baseline_meets_the_gate(trend_rows)


@ICASC_KILLS_UNITS
def test_icasc_passes_the_stage1_gate(trend_rows):
    _assert_icasc_meets_the_gate(trend_rows)


@pytest.mark.second_width
def test_gate_bounds_hold_for_the_baseline_at_the_second_width(
        second_width_rows):
    _assert_baseline_meets_the_gate(second_width_rows)


@pytest.mark.second_width
@ICASC_KILLS_UNITS
def test_icasc_passes_the_stage1_gate_at_the_second_width(second_width_rows):
    _assert_icasc_meets_the_gate(second_width_rows)
