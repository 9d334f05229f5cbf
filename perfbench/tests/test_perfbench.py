"""Tests of the benchmark itself, at a tiny input size.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(batch=4, canvas=24, channels=(2, 4), classes=4,
                       train_samples=8, train_epochs=1, test_samples=4,
                       eval_samples=8, attend_samples=4, setup_repeats=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name, trace, tmp_path):
    return workloads.run(name, seed=3, seconds=0.01, trace=trace,
                         work=tmp_path / name, sizes=TINY)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: _run(name, True, tmp) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_named_with_units(name, tmp_path):
    result = _run(name, False, tmp_path)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_named_with_units(name, traced):
    result = traced[name]["result"]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_span_self_times_non_negative(name, traced):
    records = traced[name]["spans"]
    assert records
    stats = spans.SpanStats([[r["name"], r["start"], r["end"], r["parent"],
                              r["step"]] for r in records],
                            workloads.ITERATION_SPAN, workloads.SETUP_SPAN)
    assert stats.iterations and stats.setups
    assert min(stats.self_time) >= 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_child_spans_inside_parent(name, traced):
    records = traced[name]["spans"]
    for r in records:
        assert r["end"] >= r["start"]
        if r["parent"] >= 0:
            parent = records[r["parent"]]
            assert parent["start"] <= r["start"] and r["end"] <= parent["end"]


def test_training_steps_are_traced(traced):
    records = traced["train_icasc"]["spans"]
    steps = [i for i, r in enumerate(records) if r["name"] == spans.STEP_SPAN]
    assert steps
    children = {records[i]["name"] for i, r in enumerate(records)
                if r["parent"] in steps}
    assert {"nn.Model.forward", "losses.icasc_objective",
            "autodiff.backward_final", "nn.SgdOptimizer.step"} <= children


def test_instrument_restores_originals():
    from icasc import autodiff, cli, nn
    before = (autodiff.backward, cli.compute_attention, nn.Model.forward,
              nn.Model.__dict__["build"])
    with spans.instrument(spans.Tracer()):
        assert autodiff.backward is not before[0]
        assert cli.compute_attention is not before[1]
    after = (autodiff.backward, cli.compute_attention, nn.Model.forward,
             nn.Model.__dict__["build"])
    assert after == before


def test_gradient_check_passes_at_tiny_size(tmp_path):
    wl = workloads.TrainIcasc(tmp_path, 5, TINY)
    wl.setup()
    model, _ = workloads.nn.load_checkpoint(wl.ckpt)
    check = workloads.double_backprop_check(model, wl.train_dir, TINY, 5)
    assert check["ok"], check
