import csv
import math
import os
from dataclasses import astuple, fields, replace
from pathlib import Path

import pytest

from icasc import cli, experiments, training
from icasc import data as dio
from icasc.losses import IcascConfig
from icasc.nn import ConfigError, load_checkpoint, save_checkpoint
from icasc.training import EpochStats, TrainConfig

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


@pytest.mark.parametrize("n_samples", [12, 36])
def test_evaluate_model_counts_dead_channels(tmp_path, n_samples):
    """A channel with a zero kernel and a negative bias is 0 after its ReLU
    on every sample: one of 4 inner and one of 8 last channels is dead,
    whether the set runs as one batch (12 samples) or two (36, as 32 + 4).
    Every other channel has a bias of 1, which keeps it alive where its
    input is near 0."""
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, seed=1,
                                     motif_size=3), n_samples // 3,
                       tmp_path / "d")
    dataset = dio.load_dataset(tmp_path / "d")
    model = helpers.tiny_model(5, channels=(4, 8), size=16, n_classes=3)
    model.params["block0.b"][:] = 1.0
    model.params["block1.b"][:] = 1.0
    model.params["block0.w"][1] = 0.0
    model.params["block0.b"][1] = -0.5
    model.params["block1.w"][6] = 0.0
    model.params["block1.b"][6] = -0.5
    got = experiments.evaluate_model(model, dataset, 0, "icasc", LOG)
    assert (got.dead_inner, got.dead_last) == (0.25, 0.125)


@pytest.mark.parametrize("n_samples", [12, 36])
def test_evaluate_model_runs_one_pass_over_the_set(tmp_path, monkeypatch,
                                                   n_samples):
    """Accuracy and KS come from the overlap report's own forwards: one
    taped forward per evaluation batch, so one for 12 samples and two for
    36."""
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, seed=1,
                                     motif_size=3), n_samples // 3,
                       tmp_path / "d")
    dataset = dio.load_dataset(tmp_path / "d")
    model = helpers.tiny_model(5, channels=(4, 8), size=16, n_classes=3)
    calls = helpers.count_forwards(monkeypatch)
    experiments.evaluate_model(model, dataset, 0, "icasc", LOG)
    assert calls == [True] * math.ceil(n_samples / 32)


TINY_TRAIN = replace(experiments.TREND_TRAIN, epochs=2)


def run_tiny_trend(work, train=TINY_TRAIN, per_class=(8, 4), **kwargs):
    """``run_trend`` for 2 epochs on 8 training and 4 test samples per
    class."""
    return experiments.run_trend(work, train=train, per_class=per_class,
                                 **kwargs)


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


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


def test_run_trend_equals_direct_training_at_the_old_settings(tmp_path):
    """The trend's runs give the checkpoints and logs of ``training.train``
    with the trend's settings written out in full (batch 32, lr 0.08,
    channels (8, 16), the cosine schedule), so a change to ``TrainConfig``'s
    defaults cannot move the trend unseen."""
    work = tmp_path / "w"
    run_tiny_trend(work, seeds=(1,))
    for name, icasc in experiments.VARIANTS.items():
        direct = tmp_path / name
        training.train(TrainConfig(
            data_dir=str(work / "train"), test_dir=str(work / "test"),
            out_dir=str(direct), epochs=2, batch_size=32, lr=0.08, seed=1,
            channels=(8, 16), schedule="cosine", icasc=icasc))
        for file in ("final.ckpt", "best.ckpt", "train_log.csv"):
            assert (work / f"{name}_s1" / file).read_bytes() == \
                (direct / file).read_bytes()


def test_run_trend_templates_reach_every_run_and_set(tmp_path):
    """A non-default width reaches every run's checkpoint and a non-default
    noise the train set's bytes; a second call in the same work directory
    with the default data writes and trains on the default sets."""
    work = tmp_path / "w"
    noisy = replace(experiments.TREND_DATA, noise_std=0.3)
    run_tiny_trend(work, seeds=(0, 1), data=noisy,
                   train=replace(TINY_TRAIN, channels=(4, 8)))
    for seed in (0, 1):
        for name in experiments.VARIANTS:
            model, _ = load_checkpoint(work / f"{name}_s{seed}" / "final.ckpt")
            assert model.config.channels == (4, 8)
    dio.generate_synth(replace(noisy, seed=experiments.DATA_SEED_TRAIN), 8,
                       tmp_path / "noisy")
    assert tree_bytes(work / "train") == tree_bytes(tmp_path / "noisy")

    run_tiny_trend(work, seeds=(0,))
    fresh = tmp_path / "fresh"
    run_tiny_trend(fresh, seeds=(0,))
    assert tree_bytes(work / "train") != tree_bytes(tmp_path / "noisy")
    for part in ("train", "test"):
        assert tree_bytes(work / part) == tree_bytes(fresh / part)
    for file in ("trend.csv", "baseline_s0/final.ckpt", "icasc_s0/final.ckpt"):
        assert (work / file).read_bytes() == (fresh / file).read_bytes()


@pytest.mark.parametrize("kwargs, error, match", [
    ({"seeds": (0, 1, 0)}, ValueError, r"seeds \[0\]"),
    ({"seeds": (-1,)}, ConfigError, "seed must be >= 0"),
    ({"per_class": (8, 0)}, ValueError, "per_class"),
    ({"variants": {"zero": IcascConfig(weight_as_inner=0.0, weight_as_last=0.0,
                                       weight_ac=0.0)}},
     ConfigError, "use --baseline"),
    ({"seeds": ()}, ValueError, r"needs a seed and a variant, got seeds \(\)"),
    ({"variants": {}}, ValueError, r"needs a seed and a variant, .* variants \[\]"),
], ids=["repeated_seed", "negative_seed", "empty_test_set", "zero_weights",
        "no_seed", "no_variant"])
def test_run_trend_rejects_bad_settings_before_writing(tmp_path, kwargs,
                                                       error, match):
    """Two tasks of one seed would train into the same directories at once;
    every run's config, the set sizes and the presence of a seed and a
    variant are checked before any file is written."""
    with pytest.raises(error, match=match):
        run_tiny_trend(tmp_path / "w", **kwargs)
    assert not (tmp_path / "w").exists()
