import csv
import math
import os
from dataclasses import astuple, fields

import pytest

from icasc import cli, experiments
from icasc import data as dio
from icasc.losses import IcascConfig
from icasc.nn import save_checkpoint
from icasc.training import EpochStats

import helpers

# a two-epoch training log whose skip rates differ, for evaluate_model
LOG = [EpochStats(0, 0.1, 1.0, 0.5, 0.5, 0.1, 2.1, 0.5, 0.5, 0.25),
       EpochStats(1, 0.05, 0.9, 0.4, 0.4, 0.1, 1.8, 0.6, 0.6, 0.75)]


def test_evaluate_model_matches_cli_eval_and_ks(tmp_path, capsys):
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, seed=1,
                                     motif_size=3), 4, tmp_path / "d")
    dataset = dio.load_dataset(tmp_path / "d")
    model = helpers.tiny_model(5, channels=(4, 8), size=16, n_classes=3)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model)

    got = experiments.evaluate_model(model, dataset, 0, "icasc", LOG)
    common = ["--checkpoint", str(ckpt), "--data", str(tmp_path / "d")]
    assert cli.main(["eval", *common, "--out", str(tmp_path / "e"),
                     "--attention"]) == 0
    assert cli.main(["ks", *common, "--out", str(tmp_path / "k")]) == 0

    with open(tmp_path / "e" / "metrics.csv", newline="") as fh:
        rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert got.test_accuracy == rows["top1_accuracy"]
    assert got.mean_l_as_last == rows["mean_l_as_last"]
    assert got.skip_rate == rows["attention_skip_rate"]
    assert f"ks_exact = {got.ks_exact:.6f} at" in capsys.readouterr().out
    assert (got.skip_epoch0, got.skip_final) == (0.25, 0.75)


@pytest.mark.parametrize("batch_size", [5, 32])
def test_evaluate_model_counts_dead_channels(tmp_path, batch_size):
    """A channel with a zero kernel and a negative bias is 0 after its ReLU
    on every sample: one of 4 inner and one of 8 last channels is dead,
    whether the set runs as one batch or several.  Every other channel has
    a bias of 1, which keeps it alive where its input is near 0."""
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, seed=1,
                                     motif_size=3), 4, tmp_path / "d")
    dataset = dio.load_dataset(tmp_path / "d")
    model = helpers.tiny_model(5, channels=(4, 8), size=16, n_classes=3)
    model.params["block0.b"][:] = 1.0
    model.params["block1.b"][:] = 1.0
    model.params["block0.w"][1] = 0.0
    model.params["block0.b"][1] = -0.5
    model.params["block1.w"][6] = 0.0
    model.params["block1.b"][6] = -0.5
    got = experiments.evaluate_model(model, dataset, 0, "icasc", LOG,
                                     batch_size)
    assert (got.dead_inner, got.dead_last) == (0.25, 0.125)


@pytest.mark.parametrize("batch_size", [5, 50])
def test_evaluate_model_runs_one_pass_over_the_set(tmp_path, monkeypatch,
                                                   batch_size):
    """Accuracy and KS come from the overlap report's own forwards."""
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, seed=1,
                                     motif_size=3), 4, tmp_path / "d")
    dataset = dio.load_dataset(tmp_path / "d")
    model = helpers.tiny_model(5, channels=(4, 8), size=16, n_classes=3)
    calls = helpers.count_forwards(monkeypatch)
    experiments.evaluate_model(model, dataset, 0, "icasc", LOG, batch_size)
    assert calls == [True] * math.ceil(len(dataset) / batch_size)


def run_tiny_trend(work, **kwargs):
    """``run_trend`` for 2 epochs on 8 training and 4 test samples per
    class, which it reuses from ``make_datasets``."""
    experiments.make_datasets(work, n_train=8, n_test=4)
    return experiments.run_trend(work, epochs=2, **kwargs)


def test_run_trend_writes_one_row_per_seed_and_variant(tmp_path):
    rows = run_tiny_trend(tmp_path, seeds=(0, 1))
    with open(tmp_path / "trend.csv", newline="") as fh:
        header, *csv_rows = csv.reader(fh)
    assert header == [f.name for f in fields(experiments.VariantMetrics)]
    assert [(r.seed, r.variant) for r in rows] == [
        (0, "baseline"), (0, "icasc"), (1, "baseline"), (1, "icasc")]
    assert csv_rows == [[str(v) if isinstance(v, (int, str)) else repr(v)
                         for v in astuple(r)] for r in rows]


def test_run_trend_runs_each_named_variant_in_order(tmp_path):
    """Rows in the dict's order, one ``{name}_s{seed}`` run directory each,
    and the same CSV bytes from a second work directory."""
    variants = {"baseline": None, "icasc": IcascConfig(),
                "no_inner": IcascConfig(weight_as_inner=0.0)}
    rows = run_tiny_trend(tmp_path / "a", variants=variants, seeds=(0,))
    assert [(r.seed, r.variant) for r in rows] == [
        (0, "baseline"), (0, "icasc"), (0, "no_inner")]
    for name in variants:
        assert (tmp_path / "a" / f"{name}_s0" / "final.ckpt").is_file()
    assert (tmp_path / "a" / "trend.csv").read_text().splitlines()[0] == \
        "seed,variant,test_accuracy,mean_l_as_last,skip_rate,ks_exact," \
        "dead_inner,dead_last,skip_epoch0,skip_final"
    assert rows[1] != rows[2]      # each variant trains with its own config

    run_tiny_trend(tmp_path / "b", variants=variants, seeds=(0,))
    assert (tmp_path / "a" / "trend.csv").read_bytes() == \
        (tmp_path / "b" / "trend.csv").read_bytes()


def test_run_trend_seeds_in_parallel_equal_seeds_run_alone(tmp_path):
    """Two seeds in the worker pool give the bytes of each seed run alone,
    in seed order, and the caller's environment is left as it was."""
    env = dict(os.environ)
    rows = run_tiny_trend(tmp_path / "both", seeds=(0, 1))
    assert dict(os.environ) == env
    alone = [row for seed in (0, 1)
             for row in run_tiny_trend(tmp_path / f"s{seed}", seeds=(seed,))]
    assert rows == alone
    experiments.write_trend_csv(tmp_path / "alone.csv", alone)
    assert (tmp_path / "both" / "trend.csv").read_bytes() == \
        (tmp_path / "alone.csv").read_bytes()
