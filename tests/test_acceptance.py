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
"""

import csv

import pytest

from icasc import experiments

SEEDS = (0, 1, 2, 3, 4)
MAX_SKIP_FINAL = 0.05
MAX_DEAD_LAST = 0.25
ACCURACY_MARGIN = 0.05


@pytest.fixture(scope="module")
def trend_rows(tmp_path_factory):
    """``{(variant, seed): row}`` of one default trend's ``trend.csv``."""
    work = tmp_path_factory.mktemp("trend")
    experiments.run_trend(work, seeds=SEEDS)
    with open(work / "trend.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(SEEDS)
    return {(row["variant"], int(row["seed"])): row for row in rows}


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


def test_gate_bounds_hold_for_the_baseline(trend_rows):
    """The skip and dead bounds can be met: every baseline seed meets them
    (the accuracy clause is the baseline against itself)."""
    for seed in SEEDS:
        row = trend_rows["baseline", seed]
        assert _gate_failures(row, float(row["test_accuracy"])) == [], seed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ICASC's attention collapses on every seed; the "
                          "fix is ROADMAP item 2 (stop the separation terms "
                          "from killing units)")
def test_icasc_passes_the_stage1_gate(trend_rows):
    failures = {}
    for seed in SEEDS:
        baseline = float(trend_rows["baseline", seed]["test_accuracy"])
        missed = _gate_failures(trend_rows["icasc", seed], baseline)
        if missed:
            failures[seed] = missed
    assert not failures, failures
