import hashlib
import json
import math
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icasc import cli
from icasc import data as dio
from icasc import metrics as mx
from icasc.attention import LAYERS, MECHANISMS, class_gradients, compute_attention
from icasc.autodiff import Tape
from icasc.losses import IcascConfig
from icasc.nn import Model, ModelConfig, load_checkpoint, save_checkpoint
from icasc.training import LOG_COLUMNS, TrainConfig, read_log

import helpers


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rc = run("synth", "--classes", "3", "--per-class", "6", "--seed", "5",
             "--canvas", "16", "--motif-size", "3", "--out", str(root / "train"))
    assert rc == 0
    rc = run("synth", "--classes", "3", "--per-class", "4", "--seed", "6",
             "--canvas", "16", "--motif-size", "3", "--out", str(root / "test"))
    assert rc == 0
    return root


# --------------------------------------------------------------------------
# synth
# --------------------------------------------------------------------------


def test_synth_counts(tmp_path):
    rc = run("synth", "--classes", "4", "--per-class", "5", "--seed", "7",
             "--out", str(tmp_path / "d"))
    assert rc == 0
    files = list((tmp_path / "d").glob("*.pgm"))
    assert len(files) == 20
    assert (tmp_path / "d" / "labels.csv").is_file()


def test_synth_identical_bytes(tmp_path):
    for name in ("a", "b"):
        run("synth", "--classes", "2", "--per-class", "3", "--seed", "9",
            "--out", str(tmp_path / name))
    for f in sorted((tmp_path / "a").iterdir()):
        assert digest(f) == digest(tmp_path / "b" / f.name)


def test_synth_invalid_motif_size_names_field(tmp_path, capsys):
    rc = run("synth", "--classes", "2", "--per-class", "1", "--motif-size", "99",
             "--out", str(tmp_path / "d"))
    assert rc == 1
    assert "motif_size" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--motif-size", "-3", "motif_size"), ("--motif-size", "0", "motif_size"),
    ("--pair", "0,1,2", "confusable_pair"), ("--pair", "0", "confusable_pair"),
    ("--seed", "-1", "--seed"),
])
def test_synth_bad_motif_size_or_pair_is_usage_error(tmp_path, capsys, flag,
                                                     value, field):
    rc = run("synth", "--per-class", "1", flag, value,
             "--out", str(tmp_path / "d"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and field in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_synth_bad_noise_std_is_usage_error(tmp_path, capsys, value):
    rc = run("synth", "--per-class", "1", "--noise-std", value,
             "--out", str(tmp_path / "d"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and "noise_std" in err
    assert not (tmp_path / "d" / "labels.csv").exists()


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


def test_train_log_has_one_row_per_epoch(dataset, tmp_path):
    out = tmp_path / "run"
    rc = run("train", "--data", str(dataset / "train"), "--test-data",
             str(dataset / "test"), "--out", str(out), "--epochs", "3",
             "--batch-size", "8", "--channels", "4,8", "--baseline",
             "--seed", "1")
    assert rc == 0
    lines = (out / "train_log.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# seed=1")
    assert len(lines) == 2 + 3  # header comment + column row + 3 epochs
    assert (out / "final.ckpt").is_file()
    assert (out / "best.ckpt").is_file()
    assert (out / "run_config.txt").is_file()


def test_baseline_and_icasc_share_initial_weights(dataset, tmp_path):
    # lr 0 leaves parameters at their seeded initialization in both modes
    common = ["--data", str(dataset / "train"), "--epochs", "1",
              "--batch-size", "8", "--channels", "4,8", "--lr", "0.0",
              "--seed", "3"]
    run("train", *common, "--out", str(tmp_path / "b"), "--baseline")
    run("train", *common, "--out", str(tmp_path / "i"))
    mb, _ = load_checkpoint(tmp_path / "b" / "final.ckpt")
    mi, _ = load_checkpoint(tmp_path / "i" / "final.ckpt")
    for name in mb.params:
        assert np.array_equal(mb.params[name], mi.params[name])


def test_train_deterministic_and_resume_bit_exact(dataset, tmp_path, capsys):
    # step schedule: the lr at each epoch is independent of the horizon, so
    # a shorter run plus a resume walks the exact same trajectory
    common = ["--data", str(dataset / "train"), "--test-data",
              str(dataset / "test"), "--epochs", "3", "--batch-size", "8",
              "--channels", "4,8", "--seed", "2", "--baseline", "--flip",
              "--schedule", "step"]
    run("train", *common, "--out", str(tmp_path / "a"))
    run("train", *common, "--out", str(tmp_path / "b"))
    assert digest(tmp_path / "a" / "train_log.csv") == \
        digest(tmp_path / "b" / "train_log.csv")
    assert digest(tmp_path / "a" / "final.ckpt") == \
        digest(tmp_path / "b" / "final.ckpt")

    # stop after 2 epochs, resume for the third
    common_short = [a if a != "3" else "2" for a in common]
    run("train", *common_short, "--out", str(tmp_path / "c"))
    rc = run("train", *common, "--out", str(tmp_path / "c"), "--resume")
    assert rc == 0
    full_rows = (tmp_path / "a" / "train_log.csv").read_text().splitlines()
    resumed_rows = (tmp_path / "c" / "train_log.csv").read_text().splitlines()
    assert resumed_rows[-1] == full_rows[-1]
    assert digest(tmp_path / "c" / "final.ckpt") == \
        digest(tmp_path / "a" / "final.ckpt")

    # resuming to fewer epochs than final.ckpt holds is a usage error that
    # leaves the run as it was; resuming to as many is a no-op
    kept = {p.name: p.read_bytes() for p in (tmp_path / "c").iterdir()}
    capsys.readouterr()
    assert run("train", *common_short, "--out", str(tmp_path / "c"),
               "--resume") == 1
    err = capsys.readouterr().err
    assert "epochs = 2" in err and "3 trained epochs" in err
    assert {p.name: p.read_bytes() for p in (tmp_path / "c").iterdir()} == kept
    assert run("train", *common, "--out", str(tmp_path / "c"), "--resume") == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "c").iterdir()} == kept


def test_train_icasc_path_runs(dataset, tmp_path):
    out = tmp_path / "icasc_run"
    rc = run("train", "--data", str(dataset / "train"), "--out", str(out),
             "--epochs", "1", "--batch-size", "9", "--channels", "4,8",
             "--seed", "4", "--mechanism", "grad-cam", "--lr", "0.01")
    assert rc == 0
    log = (out / "train_log.csv").read_text()
    assert "epoch,lr,l_c,l_as_in,l_as_la,l_ac,total" in log


def test_train_missing_data_is_data_error(tmp_path, capsys):
    rc = run("train", "--data", str(tmp_path / "nope"), "--out",
             str(tmp_path / "o"))
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [(), ("--baseline",)],
                         ids=["icasc", "baseline"])
def test_train_on_one_class_set_is_data_error(dataset, tmp_path, capsys,
                                              flags):
    """Labels that name only class 0 leave no confusing class for the
    objective, nor for scoring the checkpoint with ks or eval --attention."""
    data = relabel(dataset / "train", tmp_path / "d",
                   {f"c0_000{i}": "0" for i in range(4)})
    out = tmp_path / "o"
    assert run("train", "--data", str(data), "--out", str(out), "--epochs",
               "1", "--channels", "4,8", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "at least 2" in err
    assert not out.exists()


@pytest.mark.parametrize("labels, missing", [
    (("1", "1"), 0), (("0", "2"), 1), (("0", "1000"), 1),
], ids=["only_1", "0_and_2", "typo_id"])
def test_train_labels_missing_a_class_id_is_data_error(dataset, tmp_path,
                                                       capsys, labels,
                                                       missing):
    """The largest label sets the class count, so every id below it needs
    a sample: a set labelled only 1 has no class 0 to confuse with, and a
    typo'd id would set the head's size."""
    data = relabel(dataset / "train", tmp_path / "d",
                   dict(zip(("c0_0000", "c1_0000"), labels)))
    out = tmp_path / "o"
    assert run("train", "--data", str(data), "--out", str(out), "--epochs",
               "1", "--channels", "4,8") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"no sample has class {missing};" in err
    assert not out.exists()


def test_train_defaults_come_from_train_config(dataset, tmp_path):
    out = tmp_path / "defaults"
    assert run("train", "--data", str(dataset / "train"), "--out", str(out)) == 0
    expected = TrainConfig(data_dir=str(dataset / "train"), out_dir=str(out))
    assert (out / "run_config.txt").read_text(encoding="utf-8") == expected.to_kv()


def test_negative_train_seed_is_usage_error(dataset, tmp_path, capsys):
    out = tmp_path / "o"
    assert run("train", "--data", str(dataset / "train"), "--out", str(out),
               "--seed", "-1") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--epochs", "--batch-size"])
def test_nonpositive_training_size_is_usage_error(dataset, tmp_path, capsys,
                                                  flag):
    rc = run("train", "--data", str(dataset / "train"), "--out",
             str(tmp_path / "o"), flag, "0")
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("flag, value", [
    ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"),
    ("--momentum", "1"), ("--momentum", "-0.1"),
    ("--weight-decay", "-0.001"), ("--weight-decay", "inf"),
    ("--weight-decay", "nan"),
])
def test_bad_optimizer_setting_is_usage_error(dataset, tmp_path, capsys,
                                              flag, value):
    out = tmp_path / "o"
    rc = run("train", "--data", str(dataset / "train"), "--out", str(out),
             "--epochs", "1", "--batch-size", "8", "--channels", "4,8",
             flag, value)
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert flag[2:].replace("-", "_") in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--milestones", "1"],
    ["--schedule", "cosine", "--milestones", "1,2"],
    ["--schedule", "step", "--milestones", "2,1"],
    ["--schedule", "step", "--milestones", "1,1"],
    ["--schedule", "step", "--milestones", "0,2"],
], ids=["cosine_default", "cosine", "decreasing", "repeated", "epoch_0"])
def test_bad_milestones_are_usage_error(dataset, tmp_path, capsys, args):
    """Milestones beside the cosine schedule, which reads none, or not
    strictly increasing epochs >= 1, exit 1 before ``--out`` exists."""
    out = tmp_path / "o"
    rc = run("train", "--data", str(dataset / "train"), "--out", str(out),
             "--epochs", "3", "--batch-size", "8", "--channels", "4,8", *args)
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and "milestones" in err
    assert not out.exists()


def test_config_file_mechanism_and_flag_precedence(dataset, tmp_path):
    cfg_file = tmp_path / "loss.cfg"
    cfg_file.write_text("mechanism = grad-cam\ntheta = 0.6\n", encoding="utf-8")
    out = tmp_path / "cfgrun"
    rc = run("train", "--data", str(dataset / "train"), "--out", str(out),
             "--epochs", "1", "--batch-size", "8", "--channels", "4,8",
             "--config", str(cfg_file), "--mechanism", "a-ch", "--lr", "0.01")
    assert rc == 0
    text = (out / "run_config.txt").read_text()
    assert "mechanism = a-ch" in text      # flag beats file
    assert "theta = 0.6" in text           # file beats default


@pytest.mark.parametrize("flag", ["--mechanism", "--config"])
def test_baseline_with_an_objective_setting_is_usage_error(dataset, tmp_path,
                                                           capsys, flag):
    """The baseline trains on L_C alone, so it has no objective to set."""
    cfg_file = tmp_path / "loss.cfg"
    cfg_file.write_text("theta = 0.6\n", encoding="utf-8")
    value = {"--mechanism": "grad-cam", "--config": str(cfg_file)}[flag]
    out = tmp_path / "o"
    assert run("train", "--data", str(dataset / "train"), "--out", str(out),
               "--baseline", flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--baseline" in err
    assert flag in err
    assert not out.exists()


# --------------------------------------------------------------------------
# eval / attend / ks
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = run("train", "--data", str(dataset / "train"), "--test-data",
             str(dataset / "test"), "--out", str(out), "--epochs", "2",
             "--batch-size", "8", "--channels", "4,8", "--seed", "0",
             "--baseline")
    assert rc == 0
    return out / "final.ckpt"


def test_eval_writes_metrics_and_is_deterministic(trained, dataset, tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    for out in (out1, out2):
        rc = run("eval", "--checkpoint", str(trained), "--data",
                 str(dataset / "test"), "--out", str(out), "--attention")
        assert rc == 0
    assert digest(out1 / "metrics.csv") == digest(out2 / "metrics.csv")
    text = (out1 / "metrics.csv").read_text()
    assert "top1_accuracy" in text
    assert "mean_l_as_last" in text


@pytest.mark.parametrize("flags, echoed", [
    ((), "topk = 3\n"),
    (("--topk", "2", "--attention", "--mechanism", "grad-cam"),
     "topk = 2\n" + IcascConfig(mechanism="grad-cam").to_text()),
], ids=["plain", "attention"])
def test_eval_echoes_resolved_config(trained, dataset, tmp_path, flags, echoed):
    out = tmp_path / "e"
    data = dataset / "test"
    assert run("eval", "--checkpoint", str(trained), "--data", str(data),
               "--out", str(out), *flags) == 0
    assert (out / "resolved_config.txt").read_text() == \
        f"checkpoint = {trained}\ndata = {data}\n" + echoed


def test_eval_topk_exceeding_classes_rejected(trained, dataset, tmp_path):
    rc = run("eval", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "e"),
             "--topk", "5")
    assert rc == 1


@pytest.mark.parametrize("flags", [(), ("--attention",)],
                         ids=["plain", "attention"])
def test_eval_runs_one_pass_over_the_set(trained, tmp_path, monkeypatch,
                                         flags):
    """``eval`` forwards each sample once, in batches of 32: untaped, or,
    with ``--attention``, only in the overlap report's taped batches."""
    data = tmp_path / "d"
    assert run("synth", "--classes", "3", "--per-class", "24", "--seed", "7",
               "--canvas", "16", "--motif-size", "3", "--out", str(data)) == 0
    calls = helpers.count_forwards(monkeypatch)
    assert run("eval", "--checkpoint", str(trained), "--data", str(data),
               "--out", str(tmp_path / "e"), *flags) == 0
    assert calls == [bool(flags)] * math.ceil(72 / 32)


@pytest.mark.parametrize("flags", [(), ("--attention",)],
                         ids=["plain", "attention"])
def test_eval_rejects_topk_before_any_forward(trained, dataset, tmp_path,
                                              monkeypatch, capsys, flags):
    def forward(*args, **kwargs):
        raise AssertionError("forward pass before --topk was checked")

    monkeypatch.setattr(Model, "forward", forward)
    assert run("eval", "--checkpoint", str(trained), "--data",
               str(dataset / "test"), "--out", str(tmp_path / "e"),
               "--topk", "99", *flags) == 1
    assert "topk 99 exceeds class count 3" in capsys.readouterr().err


def test_attend_topk_exceeding_classes_rejected(trained, dataset, tmp_path,
                                                capsys):
    rc = run("attend", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "a"),
             "--classes", "5")
    assert rc == 1
    assert "classes" in capsys.readouterr().err


def test_attend_writes_manifest_and_heatmaps(trained, dataset, tmp_path):
    out = tmp_path / "maps"
    rc = run("attend", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(out), "--classes", "2",
             "--samples", "c0_0000,c1_0001")
    assert rc == 0
    rows = (out / "manifest.csv").read_text().strip().splitlines()
    # 2 samples x 2 classes x 2 layers x 2 mechanisms + header
    assert len(rows) == 1 + 16
    files = list(out.glob("*.pgm"))
    assert len(files) == 16
    assert (out / "resolved_config.txt").read_text() == (
        f"checkpoint = {trained}\ndata = {dataset / 'test'}\n"
        "samples = c0_0000,c1_0001\nclasses = 2\ncolor = false\n")


def test_attend_default_classes_fit_the_model(dataset, tmp_path):
    cfg = ModelConfig(channels=(4, 8), input_size=16, input_channels=1,
                      n_classes=4)
    ckpt = tmp_path / "four.ckpt"
    save_checkpoint(ckpt, Model.build(cfg, seed=0))
    out = tmp_path / "maps"
    assert run("attend", "--checkpoint", str(ckpt), "--data",
               str(dataset / "test"), "--out", str(out)) == 0
    rows = (out / "manifest.csv").read_text().strip().splitlines()[1:]
    samples = {row.split(",")[0] for row in rows}
    # first 4 samples x 4 classes x 2 layers x 2 mechanisms
    assert len(samples) == 4
    assert len(rows) == len(list(out.glob("*.pgm"))) == 4 * 4 * 2 * 2
    assert "classes = 4\n" in (out / "resolved_config.txt").read_text()


def test_attend_unknown_sample_is_data_error(trained, dataset, tmp_path,
                                             monkeypatch):
    def forward(*args, **kwargs):
        raise AssertionError("forward pass before --samples was checked")

    monkeypatch.setattr(Model, "forward", forward)
    rc = run("attend", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "a"),
             "--classes", "1", "--samples", "c0_0000,ghost")
    assert rc == 2
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("samples, named", [
    ("c0_0000,", "unknown sample ids: ''\n"),
    ("c0_0000, c1_0000", "unknown sample ids: ' c1_0000'\n"),
], ids=["empty_id", "leading_space"])
def test_attend_unknown_sample_message_quotes_each_id(trained, dataset,
                                                      tmp_path, capsys,
                                                      samples, named):
    """An empty id and an id with a stray space are looked up as written,
    and the message quotes them, so it never names an invisible id."""
    rc = run("attend", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "a"),
             "--classes", "1", "--samples", samples)
    assert rc == 2
    assert capsys.readouterr().err.endswith(named)
    assert not (tmp_path / "a").exists()


def test_attend_empty_samples_is_usage_error(trained, dataset, tmp_path,
                                             capsys):
    """An explicit empty list names no sample; it does not fall back to the
    default of the first 4, as a missing flag does."""
    rc = run("attend", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "a"),
             "--samples", "")
    assert rc == 1
    assert "usage error: --samples is empty" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_attend_runs_one_forward_per_chunk_and_one_backward_per_rank(
        trained, dataset, tmp_path, monkeypatch):
    """9 samples run as 8 and 1, in 2 taped forwards; 2 ranks per chunk
    make 4 backwards (9 and 18 at batch 1)."""
    forwards = helpers.count_forwards(monkeypatch)
    backwards = []
    class_gradients = cli.class_gradients

    def spy(record, selector, layers, *args, **kwargs):
        backwards.append(len(selector))
        return class_gradients(record, selector, layers, *args, **kwargs)

    monkeypatch.setattr(cli, "class_gradients", spy)
    ids = [s.id for s in dio.load_dataset(dataset / "test").samples[:9]]
    assert run("attend", "--checkpoint", str(trained), "--data",
               str(dataset / "test"), "--out", str(tmp_path / "a"),
               "--classes", "2", "--samples", ",".join(ids)) == 0
    assert forwards == [True] * 2
    assert backwards == [8, 8, 1, 1]


def test_attend_makes_one_map_and_render_call_per_layer_and_mechanism(
        trained, dataset, tmp_path, monkeypatch):
    """9 samples as chunks of 8 and 1 at 2 ranks: each chunk makes one map
    call and one render call per (layer, mechanism) over all its ranks, on
    16 and 2 rows (16 calls of each, on 8 and 1 rows, one rank at a time)."""
    maps, renders = [], []
    compute_attention = cli.compute_attention
    render_heatmaps = mx.render_heatmaps

    def map_spy(mechanism, features, gradients):
        maps.append(len(gradients.data))
        return compute_attention(mechanism, features, gradients)

    def render_spy(values, *args, **kwargs):
        renders.append(len(values))
        return render_heatmaps(values, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_attention", map_spy)
    monkeypatch.setattr(mx, "render_heatmaps", render_spy)
    ids = [s.id for s in dio.load_dataset(dataset / "test").samples[:9]]
    assert run("attend", "--checkpoint", str(trained), "--data",
               str(dataset / "test"), "--out", str(tmp_path / "a"),
               "--classes", "2", "--samples", ",".join(ids)) == 0
    assert maps == renders == [16] * 4 + [2] * 4


@pytest.mark.parametrize("count, plan", [
    (1, [1]), (4, [4]), (5, [4, 1]), (8, [8]), (9, [8, 1]), (12, [8, 4]),
    (13, [8, 4, 1]), (17, [8, 8, 1]),
])
def test_attend_chunk_plan(trained, dataset, tmp_path, monkeypatch, count,
                           plan):
    """Chunks of 8, but a count 1 more than a multiple of 4 runs its last
    sample alone, as chunks of 4 ran it."""
    chunks = []
    attend_chunk = cli._attend_chunk

    def spy(model, samples, *args, **kwargs):
        chunks.append(len(samples))
        return attend_chunk(model, samples, *args, **kwargs)

    monkeypatch.setattr(cli, "_attend_chunk", spy)
    ids = [s.id for s in dio.load_dataset(dataset / "train").samples[:count]]
    assert run("attend", "--checkpoint", str(trained), "--data",
               str(dataset / "train"), "--out", str(tmp_path / "a"),
               "--classes", "2", "--samples", ",".join(ids)) == 0
    assert chunks == plan


@pytest.mark.parametrize("first, count, flags", [(1, 13, ("--color",)),
                                                 (0, 9, ())],
                         ids=["13-color", "9-gray"])
def test_attend_writes_the_same_bytes_as_chunks_of_4(trained, dataset,
                                                     tmp_path, monkeypatch,
                                                     first, count, flags):
    """Each row keeps its bits at any chunk of 2 or more rows (gemm), and a
    lone sample runs alone in both plans.  The 13th id, c2_0001, is one
    whose 1-row head (gemv) rounds differently on OpenBLAS x86-64, so a
    plan that ran it with others would show here."""
    samples = dio.load_dataset(dataset / "train").samples
    ids = [s.id for s in samples[first:first + count]]
    argv = ("attend", "--checkpoint", str(trained), "--data",
            str(dataset / "train"), "--classes", "3",
            "--samples", ",".join(ids), *flags)
    assert run(*argv, "--out", str(tmp_path / "module")) == 0
    monkeypatch.setattr(cli, "_ATTEND_CHUNK", 4)
    assert run(*argv, "--out", str(tmp_path / "four")) == 0
    names = sorted(f.name for f in (tmp_path / "module").iterdir())
    assert sorted(f.name for f in (tmp_path / "four").iterdir()) == names
    assert len(names) == count * 3 * 2 * 2 + 2
    for name in names:
        assert ((tmp_path / "module" / name).read_bytes()
                == (tmp_path / "four" / name).read_bytes()), name


def test_attend_probabilities_in_shared_chunks_equal_predict(
        trained, dataset, tmp_path):
    """A sample that runs in a chunk of 2 or more reads ``predict``'s
    probabilities bit for bit; 13 samples run as 8, 4 and 1, and the lone
    sample's 1-row head (gemv) may differ in the last bit."""
    data = dataset / "train"
    train_set = dio.load_dataset(data)
    ids = [s.id for s in train_set.samples[:13]]
    out = tmp_path / "a"
    assert run("attend", "--checkpoint", str(trained), "--data", str(data),
               "--out", str(out), "--classes", "3",
               "--samples", ",".join(ids)) == 0
    model, _ = load_checkpoint(trained)
    probs, _ = mx.predict(model, train_set)
    index = {s.id: i for i, s in enumerate(train_set.samples)}
    rows = [line.split(",") for line in
            (out / "manifest.csv").read_text().strip().splitlines()[1:]]
    shared = [row for row in rows if row[0] in ids[:12]]
    assert len(shared) == 12 * 3 * 2 * 2
    for sid, cls, *_, prob in shared:
        assert float(prob) == probs[index[sid], int(cls)]


def reference_attend(checkpoint, data, wanted, k: int, color: bool, out: Path):
    """``attend`` one sample at a time: a taped forward per sample and a
    backward per class.  Writes the heatmaps into ``out`` and returns the
    manifest rows without probabilities, and each written map in order."""
    model, _ = load_checkpoint(checkpoint)
    dataset = dio.load_dataset(data, n_classes=model.config.n_classes)
    by_id = {s.id: s for s in dataset.samples}
    size = model.config.input_size
    ext, write = ("ppm", dio.write_ppm) if color else ("pgm", dio.write_pgm)
    out.mkdir()
    rows, maps = [], []
    for sid in wanted:
        record = model.forward(by_id[sid].image[None], tape=Tape())
        for class_id in np.argsort(-record.probabilities[0], kind="stable")[:k]:
            grads = class_gradients(record, [class_id], LAYERS)
            for layer in LAYERS:
                for mech in MECHANISMS:
                    amap = compute_attention(mech, record.feats[layer].detach(),
                                             grads[layer]).data[0]
                    fname = f"{sid}_c{class_id}_{layer}_{mech}.{ext}"
                    write(out / fname,
                          mx.render_heatmaps(amap[None], (size, size), color)[0])
                    rows.append([sid, str(class_id), layer, mech, fname])
                    maps.append(amap)
    return rows, maps


@pytest.mark.parametrize("samples, flags", [
    ("c0_0000,c0_0001,c0_0002,c0_0003,c1_0000,c1_0001", ()),
    ("c0_0000,c0_0000", ()),
    ("c2_0003,c1_0002,c0_0001,c2_0000,c1_0003", ("--color",)),
], ids=["partial-chunk", "repeated-id", "color"])
def test_attend_matches_per_sample_reference(trained, dataset, tmp_path,
                                             monkeypatch, samples, flags):
    data = dataset / "test"
    wanted = samples.split(",")
    color = "--color" in flags
    ref_rows, ref_maps = reference_attend(trained, data, wanted, 3, color,
                                          tmp_path / "ref")

    stacks = []
    render_heatmaps = mx.render_heatmaps

    def spy(values, *args, **kwargs):
        stacks.append(np.array(values))
        return render_heatmaps(values, *args, **kwargs)

    monkeypatch.setattr(mx, "render_heatmaps", spy)
    out = tmp_path / "maps"
    assert run("attend", "--checkpoint", str(trained), "--data", str(data),
               "--out", str(out), "--classes", "3", "--samples", samples,
               *flags) == 0

    # a chunk renders one stack per (layer, mechanism), its rows rank-major;
    # unpack them into (sample, rank, layer, mechanism) order
    per_chunk = len(LAYERS) * len(MECHANISMS)
    written = [stack[rank * (len(stacks[c]) // 3) + i]
               for c in range(0, len(stacks), per_chunk)
               for i in range(len(stacks[c]) // 3)
               for rank in range(3)
               for stack in stacks[c:c + per_chunk]]
    # a repeated id is rendered once: compare with its first mention's maps
    ref_first = {}
    for row, amap in zip(ref_rows, ref_maps):
        ref_first.setdefault(row[4], amap)
    want_maps = list(ref_first.values())
    assert len(written) == len(want_maps) == len(set(wanted)) * 3 * 2 * 2
    for got, want in zip(written, want_maps):
        assert np.abs(got - want).max() <= 1e-12 * want.max()
    lines = (out / "manifest.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_id,class,layer,mechanism,file,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:5] for row in rows] == ref_rows
    for *_, fname in ref_rows:
        assert (out / fname).read_bytes() == (tmp_path / "ref" / fname).read_bytes()

    model, _ = load_checkpoint(trained)
    dataset = dio.load_dataset(data)
    probs, _ = mx.predict(model, dataset)
    index = {s.id: i for i, s in enumerate(dataset.samples)}
    for sid, cls, *_, prob in rows:
        assert abs(float(prob) - probs[index[sid], int(cls)]) <= 1e-15


def test_attend_renders_a_repeated_id_once(trained, dataset, tmp_path,
                                            monkeypatch):
    """A repeated id keeps its manifest rows but is written once: 3 mentions
    of 2 ids x 2 classes x 2 layers x 2 mechanisms are 24 rows, 16 files."""
    writes = []
    write_pgm = dio.write_pgm

    def spy(path, *args, **kwargs):
        writes.append(Path(path).name)
        return write_pgm(path, *args, **kwargs)

    monkeypatch.setattr(dio, "write_pgm", spy)
    out = tmp_path / "maps"
    assert run("attend", "--checkpoint", str(trained), "--data",
               str(dataset / "test"), "--out", str(out), "--classes", "2",
               "--samples", "c0_0000,c0_0000,c1_0003") == 0
    rows = [line.split(",") for line in
            (out / "manifest.csv").read_text().strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["c0_0000"] * 16 + ["c1_0003"] * 8
    assert rows[:8] == rows[8:16]
    assert len(writes) == len(set(writes)) == 16
    assert set(writes) == {row[4] for row in rows}


def test_attend_overwrites_longer_files_in_place(trained, dataset, tmp_path):
    """Heatmap files that already hold longer junk end up byte-equal to a
    run into a fresh directory."""
    argv = ("attend", "--checkpoint", str(trained), "--data",
            str(dataset / "test"), "--classes", "2",
            "--samples", "c0_0000,c2_0001,c1_0003")
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert run(*argv, "--out", str(fresh)) == 0
    names = sorted(f.name for f in fresh.iterdir())
    reused.mkdir()
    for name in names:
        if name.endswith(".pgm"):
            (reused / name).write_bytes(b"junk" * 4096)
    assert run(*argv, "--out", str(reused)) == 0
    assert sorted(f.name for f in reused.iterdir()) == names
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_ks_zero_for_uniform_model(dataset, tmp_path):
    cfg = ModelConfig(channels=(4, 8), input_size=16, input_channels=1,
                      n_classes=3)
    model = Model.build(cfg, seed=0)
    model.params["head.w"][:] = 0.0
    model.params["head.b"][:] = 0.0
    ckpt = tmp_path / "uniform.ckpt"
    save_checkpoint(ckpt, model)
    out = tmp_path / "ks"
    rc = run("ks", "--checkpoint", str(ckpt), "--data", str(dataset / "test"),
             "--out", str(out))
    assert rc == 0
    rows = (out / "ks_curve.csv").read_text().strip().splitlines()[1:]
    gaps = [float(r.split(",")[3]) for r in rows]
    assert max(gaps) == 0.0


def test_ks_deterministic(trained, dataset, tmp_path):
    out1, out2 = tmp_path / "k1", tmp_path / "k2"
    for out in (out1, out2):
        assert run("ks", "--checkpoint", str(trained), "--data",
                   str(dataset / "test"), "--out", str(out)) == 0
    assert digest(out1 / "ks_curve.csv") == digest(out2 / "ks_curve.csv")


# --------------------------------------------------------------------------
# a label is one class id: an a;b row is a data error
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_label_data(dataset, tmp_path_factory):
    """The test split with one sample relabelled ``2;0``."""
    root = tmp_path_factory.mktemp("two_label") / "d"
    root.mkdir()
    for f in (dataset / "test").glob("*.pgm"):
        (root / f.name).write_bytes(f.read_bytes())
    text = (dataset / "test" / "labels.csv").read_text()
    assert "c2_0001,c2_0001.pgm,2\n" in text
    (root / "labels.csv").write_text(
        text.replace("c2_0001,c2_0001.pgm,2\n", "c2_0001,c2_0001.pgm,2;0\n"))
    return root


@pytest.mark.parametrize("command, flags", [
    ("train", ()), ("eval", ()), ("eval", ("--attention",)), ("attend", ()),
    ("ks", ()),
], ids=["train", "eval", "eval-attention", "attend", "ks"])
def test_a_row_with_two_labels_is_data_error(trained, two_label_data, tmp_path,
                                             capsys, command, flags):
    out = tmp_path / "o"
    if command == "train":
        args = ("train", "--data", str(two_label_data), "--epochs", "1",
                "--channels", "4,8")
    else:
        args = (command, "--checkpoint", str(trained), "--data",
                str(two_label_data))
    assert run(*args, *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "sample 'c2_0001': label '2;0' is not one class id" in err
    assert not out.exists()


def test_multi_label_flag_is_unknown(dataset, tmp_path, capsys):
    assert run("train", "--data", str(dataset / "train"), "--out",
               str(tmp_path / "o"), "--multi-label") == 1
    assert "--multi-label" in capsys.readouterr().err


def test_single_label_run_with_multi_label_test_set_is_data_error(
        dataset, two_label_data, tmp_path, capsys):
    out = tmp_path / "o"
    assert run("train", "--data", str(dataset / "train"), "--test-data",
               str(two_label_data), "--out", str(out), "--epochs", "1",
               "--channels", "4,8") == 2
    assert "sample 'c2_0001'" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# malformed inputs exit 2 and name what is wrong
# --------------------------------------------------------------------------


def relabel(src: Path, dst: Path, labels: dict[str, str]) -> Path:
    """A set in ``dst`` holding the images of ``labels``' ids from ``src``,
    each id with the given label field."""
    dst.mkdir(parents=True)
    rows = ["id,filename,label"]
    for sid, label in labels.items():
        (dst / f"{sid}.pgm").write_bytes((src / f"{sid}.pgm").read_bytes())
        rows.append(f"{sid},{sid}.pgm,{label}")
    (dst / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return dst


@pytest.mark.parametrize("label", ["1_0", " +1 "],
                         ids=["underscore", "signed"])
def test_a_label_that_is_not_plain_digits_is_data_error(dataset, tmp_path,
                                                        capsys, label):
    """``int()`` would read ``1_0`` as class 10 and `` +1 `` as class 1."""
    data = relabel(dataset / "train", tmp_path / "d",
                   {"c0_0000": "0", "c1_0000": label})
    out = tmp_path / "o"
    assert run("train", "--data", str(data), "--out", str(out), "--epochs",
               "1", "--channels", "4,8") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"sample 'c1_0000': label '{label}' is not one class id" in err
    assert not out.exists()


def test_a_repeated_sample_id_is_data_error(trained, dataset, tmp_path,
                                            capsys):
    """``attend`` finds samples by id, so a second row under one id would
    render its image under the first row's name."""
    data = relabel(dataset / "test", tmp_path / "d",
                   {"c0_0000": "0", "c1_0000": "1"})
    with open(data / "labels.csv", "a", encoding="utf-8") as fh:
        fh.write("c0_0000,c1_0000.pgm,1\n")
    out = tmp_path / "a"
    assert run("attend", "--checkpoint", str(trained), "--data", str(data),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "sample 'c0_0000': id repeated at" in err and "labels.csv:4" in err
    assert not out.exists()


def test_eval_reads_a_header_with_padded_names(trained, dataset, tmp_path):
    """``id, filename, label`` passes the header check, so its rows are read
    by the same names: ``eval`` writes the plain header's metrics."""
    data = tmp_path / "d"
    data.mkdir()
    for src in (dataset / "test").glob("*.pgm"):
        (data / src.name).write_bytes(src.read_bytes())
    text = (dataset / "test" / "labels.csv").read_text(encoding="utf-8")
    assert text.startswith("id,filename,label\n")
    (data / "labels.csv").write_text(
        text.replace("id,filename,label", "id, filename, label", 1),
        encoding="utf-8")
    for name, src in (("padded", data), ("plain", dataset / "test")):
        assert run("eval", "--checkpoint", str(trained), "--data", str(src),
                   "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "padded" / "metrics.csv").read_bytes() == \
        (tmp_path / "plain" / "metrics.csv").read_bytes()


def test_eval_attention_on_a_row_covering_every_class_is_data_error(
        dataset, tmp_path, capsys):
    """A 2-class model and a ``0;1`` row: a label is one class id, so the
    row is refused before a confusing class is looked for."""
    model = helpers.tiny_model(1, channels=(4, 8), size=16, n_classes=2)
    save_checkpoint(tmp_path / "m.ckpt", model)
    data = relabel(dataset / "test", tmp_path / "d",
                   {"c0_0000": "0", "c0_0001": "0;1", "c1_0000": "1",
                    "c1_0001": "1"})
    assert run("eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--data",
               str(data), "--out", str(tmp_path / "e"), "--attention") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "not one class id" in err
    assert "c0_0001" in err
    assert not (tmp_path / "e").exists()


def test_ks_of_a_one_class_model_is_data_error(dataset, tmp_path, capsys):
    model = helpers.tiny_model(1, channels=(4, 8), size=16, n_classes=1)
    save_checkpoint(tmp_path / "m.ckpt", model)
    data = relabel(dataset / "test", tmp_path / "d",
                   {f"c0_000{i}": "0" for i in range(4)})
    assert run("ks", "--checkpoint", str(tmp_path / "m.ckpt"), "--data",
               str(data), "--out", str(tmp_path / "k")) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "at least 2 classes" in err
    assert str(tmp_path / "m.ckpt") in err and "1 class;" in err
    assert not (tmp_path / "k").exists()


def test_eval_attention_of_a_one_class_model_is_data_error(dataset, tmp_path,
                                                          capsys):
    model = helpers.tiny_model(1, channels=(4, 8), size=16, n_classes=1)
    save_checkpoint(tmp_path / "m.ckpt", model)
    data = relabel(dataset / "test", tmp_path / "d",
                   {f"c0_000{i}": "0" for i in range(4)})
    assert run("eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--data",
               str(data), "--out", str(tmp_path / "e"), "--attention") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "1 class;" in err
    assert not (tmp_path / "e").exists()


def test_mixed_image_sizes_is_data_error(trained, tmp_path, capsys):
    d = tmp_path / "mixed"
    d.mkdir()
    dio.write_pgm(d / "a.pgm", np.zeros((16, 16), dtype=np.uint8))
    dio.write_pgm(d / "b.pgm", np.zeros((8, 8), dtype=np.uint8))
    (d / "labels.csv").write_text("id,filename,label\nfirst,a.pgm,0\n"
                                  "odd_size,b.pgm,1\n", encoding="utf-8")
    rc = run("eval", "--checkpoint", str(trained), "--data", str(d),
             "--out", str(tmp_path / "e"))
    assert rc == 2
    assert "odd_size" in capsys.readouterr().err


def test_non_numeric_pgm_header_is_data_error(trained, tmp_path, capsys):
    d = tmp_path / "badheader"
    d.mkdir()
    (d / "garbled.pgm").write_bytes(b"P5\nxx 8\n255\n" + bytes(64))
    (d / "labels.csv").write_text("id,filename,label\ns1,garbled.pgm,0\n",
                                  encoding="utf-8")
    rc = run("eval", "--checkpoint", str(trained), "--data", str(d),
             "--out", str(tmp_path / "e"))
    assert rc == 2
    assert "garbled.pgm" in capsys.readouterr().err


def test_oversized_pgm_header_is_data_error(tmp_path, capsys):
    """A declared size past an index-sized integer is refused before the
    pixels are read, as for any size larger than the file."""
    d = tmp_path / "huge"
    d.mkdir()
    for name in ("a", "b"):
        (d / f"{name}.pgm").write_bytes(b"P5\n99999999999 99999999999\n255\n"
                                        + bytes(64))
    (d / "labels.csv").write_text("id,filename,label\nhuge_a,a.pgm,0\n"
                                  "huge_b,b.pgm,1\n", encoding="utf-8")
    rc = run("train", "--data", str(d), "--out", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "huge_a" in err and "truncated pixel data" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("row", ["c0,a.pgm", "c0,a.pgm,0,1"])
def test_labels_row_field_count_is_data_error(trained, tmp_path, capsys,
                                              command, row):
    d = tmp_path / "ragged"
    d.mkdir()
    dio.write_pgm(d / "a.pgm", np.zeros((16, 16), dtype=np.uint8))
    (d / "labels.csv").write_text(f"id,filename,label\nfirst,a.pgm,0\n{row}\n",
                                  encoding="utf-8")
    if command == "train":
        args = ("train", "--data", str(d), "--out", str(tmp_path / "o"))
    else:
        args = ("eval", "--checkpoint", str(trained), "--data", str(d),
                "--out", str(tmp_path / "o"))
    assert run(*args) == 2
    assert "labels.csv:3" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "bad_magic", "bad_json",
                                    "version_1"])
def test_damaged_checkpoint_is_data_error(trained, dataset, tmp_path, capsys,
                                          damage):
    blob = trained.read_bytes()
    if damage == "truncated":
        blob = blob[:len(blob) // 2]
    elif damage == "bad_magic":
        blob = b"NOTACKPT" + blob[8:]
    elif damage == "version_1":        # the format without velocities
        blob = blob[:8] + struct.pack("<I", 1) + blob[12:]
    else:
        blob = blob[:16] + b"#" + blob[17:]        # first JSON byte
    ckpt = tmp_path / f"{damage}.ckpt"
    ckpt.write_bytes(blob)
    rc = run("eval", "--checkpoint", str(ckpt), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "e"))
    assert rc == 2
    assert f"{damage}.ckpt" in capsys.readouterr().err


DROP = object()     # a _with_config change that deletes the key


def _with_config(blob: bytes, **changes) -> bytes:
    """A checkpoint's bytes with ``changes`` made to its header's config."""
    (hlen,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16:16 + hlen])
    config = header["config"]
    config.update(changes)
    for key in [k for k, v in changes.items() if v is DROP]:
        del config[key]
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + hlen:]


@pytest.mark.parametrize("changes", [
    {"kernel_size": -1}, {"kernel_size": 3.0}, {"input_channels": 1.0},
    {"n_classes": 3.0}, {"channels": [4.5, 8]}, {"kernel_size": DROP},
    {"stride": 1},
], ids=["kernel_-1", "kernel_float", "input_channels_float",
        "n_classes_float", "channels_float", "kernel_missing", "extra_key"])
def test_checkpoint_config_out_of_range_is_data_error(trained, dataset,
                                                      tmp_path, capsys,
                                                      changes):
    """The parameters still fit the config the header would give if its
    counts were truncated to integers, if a missing kernel size were 3, or
    if an unknown key were ignored, so only the config check stops it."""
    ckpt = tmp_path / "patched.ckpt"
    ckpt.write_bytes(_with_config(trained.read_bytes(), **changes))
    rc = run("eval", "--checkpoint", str(ckpt), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "e"))
    assert rc == 2
    assert "patched.ckpt" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.fixture(scope="module")
def wide_set(tmp_path_factory):
    """A 3-class set of 32x32 images, twice the size ``trained`` reads."""
    root = tmp_path_factory.mktemp("wide") / "d"
    assert run("synth", "--classes", "3", "--per-class", "2", "--canvas", "32",
               "--out", str(root)) == 0
    return root


@pytest.mark.parametrize("command", [("eval",), ("eval", "--attention"),
                                     ("ks",), ("attend",)],
                         ids=["eval", "eval_attention", "ks", "attend"])
def test_set_not_fitting_the_checkpoint_is_data_error(trained, wide_set,
                                                      tmp_path, capsys,
                                                      command):
    out = tmp_path / "o"
    rc = run(command[0], "--checkpoint", str(trained), "--data", str(wide_set),
             "--out", str(out), *command[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(wide_set) in err and "(1, 32, 32)" in err and "(1, 16, 16)" in err
    assert not out.exists()


def test_test_set_not_fitting_the_training_set_is_data_error(dataset, wide_set,
                                                             tmp_path, capsys):
    out = tmp_path / "r"
    rc = run("train", "--data", str(dataset / "train"), "--test-data",
             str(wide_set), "--out", str(out), "--epochs", "1",
             "--channels", "4,8", "--baseline")
    assert rc == 2
    assert str(wide_set) in capsys.readouterr().err
    assert not out.exists()


def test_non_square_training_set_is_data_error(tmp_path, capsys):
    d = tmp_path / "tall"
    d.mkdir()
    for name in ("a", "b"):
        dio.write_pgm(d / f"{name}.pgm", np.zeros((16, 8), dtype=np.uint8))
    (d / "labels.csv").write_text("id,filename,label\na,a.pgm,0\nb,b.pgm,1\n",
                                  encoding="utf-8")
    out = tmp_path / "r"
    assert run("train", "--data", str(d), "--out", str(out), "--baseline") == 2
    err = capsys.readouterr().err
    assert str(d) in err and "16x8" in err
    assert not out.exists()


@pytest.mark.parametrize("damage, name", [("wrong_shape", "head.w"),
                                          ("missing", "head.b"),
                                          ("extra", "head.extra")])
def test_checkpoint_params_disagreeing_with_config_is_data_error(
        dataset, tmp_path, capsys, damage, name):
    cfg = ModelConfig(channels=(4, 8), input_size=16, input_channels=1,
                      n_classes=3)
    model = Model.build(cfg, seed=0)
    if damage == "wrong_shape":
        model.params[name] = np.zeros((5, 3))
    elif damage == "missing":
        del model.params[name]
    else:
        model.params[name] = np.zeros(2)
    ckpt = tmp_path / f"{damage}.ckpt"
    save_checkpoint(ckpt, model)
    rc = run("eval", "--checkpoint", str(ckpt), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "e"))
    assert rc == 2
    err = capsys.readouterr().err
    assert ckpt.name in err and name in err


# The training state, the optimizer velocities, is the last section of
# final.ckpt, the resume point.

@pytest.fixture
def resumable(dataset, tmp_path):
    """The flags of a 1-epoch baseline run into ``tmp_path / "r"``, run."""
    flags = ["--data", str(dataset / "train"), "--batch-size", "8",
             "--channels", "4,8", "--baseline", "--out", str(tmp_path / "r")]
    assert run("train", *flags, "--epochs", "1") == 0
    return flags


def test_truncated_train_state_is_data_error(resumable, tmp_path, capsys):
    ckpt = tmp_path / "r" / "final.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    assert run("train", *resumable, "--epochs", "2", "--resume") == 2
    assert "final.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("damage, name", [("wrong_shape", "head.w"),
                                          ("broadcastable", "head.w"),
                                          ("missing", "head.b"),
                                          ("extra", "head.extra")])
def test_train_state_velocities_disagreeing_with_model_is_data_error(
        resumable, tmp_path, capsys, damage, name):
    ckpt = tmp_path / "r" / "final.ckpt"
    model, header = load_checkpoint(ckpt)
    velocity = header["velocity"]
    if damage == "wrong_shape":
        velocity[name] = np.zeros((5, 3))
    elif damage == "broadcastable":
        velocity[name] = np.zeros(1)
    elif damage == "missing":
        del velocity[name]
    else:
        velocity[name] = np.zeros(2)
    save_checkpoint(ckpt, model, {"epoch": header["epoch"]}, velocity)
    assert run("train", *resumable, "--epochs", "2", "--resume") == 2
    err = capsys.readouterr().err
    assert "final.ckpt" in err and name in err


def test_resume_from_a_checkpoint_without_train_state_is_data_error(
        resumable, tmp_path, capsys):
    """best.ckpt holds the weights but no optimizer velocities."""
    run_dir = tmp_path / "r"
    (run_dir / "final.ckpt").write_bytes((run_dir / "best.ckpt").read_bytes())
    assert run("train", *resumable, "--epochs", "2", "--resume") == 2
    err = capsys.readouterr().err
    assert "final.ckpt" in err and "not a resume point" in err


@pytest.mark.parametrize("epoch", ["2", 1.5, -3, None],
                         ids=["string", "float", "negative", "null"])
def test_resume_epoch_not_a_non_negative_int_is_data_error(resumable, tmp_path,
                                                           capsys, epoch):
    ckpt = tmp_path / "r" / "final.ckpt"
    model, header = load_checkpoint(ckpt)
    save_checkpoint(ckpt, model, {"epoch": epoch}, header["velocity"])
    assert run("train", *resumable, "--epochs", "2", "--resume") == 2
    err = capsys.readouterr().err
    assert "final.ckpt" in err and "epoch" in err


@pytest.mark.parametrize("row", ["0,0.05",
                                 "0,0.05,notanumber,0,0,0,1,0.5,nan,0"])
def test_malformed_train_log_row_is_data_error(resumable, tmp_path, capsys, row):
    log = tmp_path / "r" / "train_log.csv"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:2] + [row]) + "\n")
    assert run("train", *resumable, "--epochs", "2", "--resume") == 2
    assert "train_log.csv:3" in capsys.readouterr().err


def test_train_log_shorter_than_checkpoint_is_data_error(dataset, tmp_path,
                                                        capsys):
    common = ["--data", str(dataset / "train"), "--batch-size", "8",
              "--channels", "4,8", "--baseline", "--out", str(tmp_path / "r")]
    assert run("train", *common, "--epochs", "2") == 0
    log = tmp_path / "r" / "train_log.csv"
    log.write_text("\n".join(log.read_text().splitlines()[:-1]) + "\n")
    assert run("train", *common, "--epochs", "3", "--resume") == 2
    err = capsys.readouterr().err
    assert "train_log.csv" in err and "1 rows" in err


def test_resume_with_other_architecture_is_usage_error(dataset, tmp_path,
                                                       capsys):
    common = ["--data", str(dataset / "train"), "--batch-size", "8",
              "--baseline", "--out", str(tmp_path / "r")]
    assert run("train", *common, "--channels", "4,8", "--epochs", "1") == 0
    echoed = (tmp_path / "r" / "run_config.txt").read_text()
    assert run("train", *common, "--channels", "6,12", "--epochs", "2",
               "--resume") == 1
    err = capsys.readouterr().err
    assert "(4, 8)" in err and "(6, 12)" in err
    assert (tmp_path / "r" / "run_config.txt").read_text() == echoed


def array_fields(blob, start: int) -> dict:
    """(offset, format) of the length fields of the array stored at ``start``."""
    (nlen,) = struct.unpack_from("<I", blob, start)
    return {"name_length": (start, "<I"), "ndim": (start + 4 + nlen, "<I"),
            "dimension": (start + 8 + nlen, "<Q")}


def set_huge(blob: bytes, offset: int, fmt: str) -> bytes:
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, 2**62 if fmt == "<Q" else 2**32 - 1)
    return bytes(out)


@pytest.mark.parametrize("field", ["header_length", "name_length", "ndim",
                                   "dimension"])
def test_huge_checkpoint_length_field_is_data_error(trained, dataset, tmp_path,
                                                    capsys, field):
    blob = trained.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 12)
    fields = {"header_length": (12, "<I"), **array_fields(blob, 20 + hlen)}
    ckpt = tmp_path / f"huge_{field}.ckpt"
    ckpt.write_bytes(set_huge(blob, *fields[field]))
    rc = run("eval", "--checkpoint", str(ckpt), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "e"))
    assert rc == 2
    assert ckpt.name in capsys.readouterr().err


def velocity_start(blob: bytes) -> int:
    """Offset of the first velocity array: past the header, the parameter
    arrays and the u32 velocity count."""
    (hlen,) = struct.unpack_from("<I", blob, 12)
    offset = 16 + hlen
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", blob, offset)
        (ndim,) = struct.unpack_from("<I", blob, offset + 4 + nlen)
        dims = struct.unpack_from(f"<{ndim}Q", blob, offset + 8 + nlen)
        offset += 8 + nlen + 8 * ndim + 8 * int(np.prod(dims))
    return offset + 4


@pytest.mark.parametrize("field", ["name_length", "ndim", "dimension"])
def test_huge_train_state_length_field_is_data_error(resumable, tmp_path, capsys,
                                                     field):
    ckpt = tmp_path / "r" / "final.ckpt"
    blob = ckpt.read_bytes()
    ckpt.write_bytes(set_huge(blob, *array_fields(blob,
                                                  velocity_start(blob))[field]))
    assert run("train", *resumable, "--epochs", "2", "--resume") == 2
    assert "final.ckpt" in capsys.readouterr().err


# --------------------------------------------------------------------------
# bad config files, empty datasets and out-of-range counts exit cleanly
# --------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("line, code, message", [
    ("omega = abc", 2, "loss.cfg:1"), ("omega 3", 2, "loss.cfg:1"),
    ("omga = 3", 2, "loss.cfg:1"), ("clamp_lac = ture", 2, "loss.cfg:1"),
    ("clamp_lac = true", 2, "loss.cfg:1"), ("weight_lc = 1", 2, "loss.cfg:1"),
    ("omega = -1", 1, "usage error: omega"),
    ("theta = 1.5", 1, "usage error: theta"),
    ("mechanism = cam", 1, "usage error: mechanism"),
    ("omega = inf", 1, "usage error: omega"),
    # not keys at any value; the first two lines are in the run_config.txt
    # of ICASC runs trained while they were settings
    ("epsilon = 1e-08", 2, "loss.cfg:1"),
    ("skip_threshold = 1e-06", 2, "loss.cfg:1"),
    ("epsilon = -1", 2, "loss.cfg:1"),
    ("skip_threshold = -1e-6", 2, "loss.cfg:1"),
    ("epsilon = inf", 2, "loss.cfg:1"),
    ("skip_threshold = inf", 2, "loss.cfg:1"),
    ("weight_as_inner = -1", 1, "usage error: weight_as_inner"),
    ("weight_as_last = inf", 1, "usage error: weight_as_last"),
    ("weight_ac = -0.5", 1, "usage error: weight_ac"),
    ("theta = 0.5\ntheta = 0.9", 2, "loss.cfg:2"),
])
def test_bad_config_file_exits_cleanly(dataset, trained, tmp_path, capsys,
                                       command, line, code, message):
    """Malformed lines are data errors naming file:line; out-of-range
    values are usage errors."""
    cfg_file = tmp_path / "loss.cfg"
    cfg_file.write_text(f"{line}\n", encoding="utf-8")
    if command == "train":
        args = ("train", "--data", str(dataset / "train"), "--epochs", "1",
                "--batch-size", "8", "--channels", "4,8")
    else:
        args = ("eval", "--checkpoint", str(trained), "--data",
                str(dataset / "test"), "--attention")
    rc = run(*args, "--out", str(tmp_path / "o"), "--config", str(cfg_file))
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


ZERO_WEIGHTS = "weight_as_inner = 0\nweight_as_last = 0\nweight_ac = 0\n"


def test_train_with_all_attention_weights_zero_is_usage_error(
        dataset, tmp_path, capsys):
    """All three weights at 0 train on L_C alone, the baseline at the
    objective's cost under an ICASC label."""
    cfg_file = tmp_path / "loss.cfg"
    cfg_file.write_text(ZERO_WEIGHTS, encoding="utf-8")
    rc = run("train", "--data", str(dataset / "train"), "--epochs", "1",
             "--batch-size", "8", "--channels", "4,8",
             "--out", str(tmp_path / "o"), "--config", str(cfg_file))
    assert rc == 1
    assert "use --baseline" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_eval_attention_takes_a_config_with_all_weights_zero(
        trained, dataset, tmp_path):
    """The overlap report reads no weight, so the zero-weight rule is
    training's alone."""
    cfg_file = tmp_path / "loss.cfg"
    cfg_file.write_text(ZERO_WEIGHTS, encoding="utf-8")
    out = tmp_path / "o"
    assert run("eval", "--checkpoint", str(trained), "--data",
               str(dataset / "test"), "--attention", "--out", str(out),
               "--config", str(cfg_file)) == 0
    assert "weight_ac = 0.0" in (out / "resolved_config.txt").read_text()
    assert (out / "attention_overlap.csv").is_file()


@pytest.mark.parametrize("flag", ["--config", "--mechanism"])
def test_eval_loss_setting_without_attention_is_usage_error(trained, dataset,
                                                            tmp_path, capsys,
                                                            flag):
    """Only the attention report reads the loss settings; the file here
    does not even parse."""
    cfg_file = tmp_path / "loss.cfg"
    cfg_file.write_text("omega 3\n", encoding="utf-8")
    value = {"--mechanism": "grad-cam", "--config": str(cfg_file)}[flag]
    out = tmp_path / "o"
    assert run("eval", "--checkpoint", str(trained), "--data",
               str(dataset / "test"), "--out", str(out), flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--attention" in err
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("case", [
    "config_is_a_directory", "checkpoint_is_a_directory",
    "synth_out_is_a_file", "train_out_is_a_file", "eval_out_is_a_file",
    "attend_out_is_a_file", "ks_out_under_a_file", "config_not_utf8",
    "labels_not_utf8", "train_log_not_utf8"])
def test_unreadable_or_unwritable_path_is_data_error(dataset, trained,
                                                     tmp_path, capsys,
                                                     request, case):
    """An I/O error, or a text file that is not UTF-8, exits 2 naming the
    path, not with a traceback."""
    a_file = tmp_path / "a_file"
    a_file.write_text("x\n", encoding="utf-8")
    train = ("train", "--data", str(dataset / "train"), "--epochs", "1",
             "--batch-size", "8", "--channels", "4,8")
    scored = ("--checkpoint", str(trained), "--data", str(dataset / "test"))
    out = ("--out", str(tmp_path / "o"))
    to_file = ("--out", str(a_file))
    named = a_file
    if case == "config_is_a_directory":
        argv, named = (*train, *out, "--config", str(tmp_path)), tmp_path
    elif case == "checkpoint_is_a_directory":
        argv, named = ("ks", "--checkpoint", str(tmp_path), "--data",
                       str(dataset / "test"), *out), tmp_path
    elif case == "synth_out_is_a_file":
        argv = ("synth", "--per-class", "1", *to_file)
    elif case == "train_out_is_a_file":
        argv = (*train, *to_file)
    elif case == "eval_out_is_a_file":
        argv = ("eval", *scored, *to_file)
    elif case == "attend_out_is_a_file":
        argv = ("attend", *scored, *to_file)
    elif case == "ks_out_under_a_file":
        argv = ("ks", *scored, "--out", str(a_file / "o"))
    elif case == "config_not_utf8":
        named = tmp_path / "loss.cfg"
        named.write_bytes(b"theta = 0.6 # \xff\n")
        argv = (*train, *out, "--config", str(named))
    elif case == "labels_not_utf8":
        data = relabel(dataset / "test", tmp_path / "d", {"c0_0000": "0"})
        named = data / "labels.csv"
        named.write_bytes(named.read_bytes().replace(b"c0_0000,", b"c0_\xff,"))
        argv = ("eval", "--checkpoint", str(trained), "--data", str(data), *out)
    else:
        flags = request.getfixturevalue("resumable")
        named = tmp_path / "r" / "train_log.csv"
        named.write_bytes(named.read_bytes() + b"# \xff\n")
        argv = ("train", *flags, "--epochs", "2", "--resume")
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(named) in err


@pytest.mark.parametrize("flags, message", [
    ((), "non-finite loss term"), (("--baseline",), "non-finite gradient")],
    ids=["icasc", "baseline"])
def test_diverging_run_is_numerical_failure(dataset, tmp_path, capsys, flags,
                                            message):
    """At lr 1e100 the first update blows the weights up, and the next
    step's forward overflows: the objective's finite-loss check or the
    optimizer's finite-gradient check stops the run."""
    with pytest.warns(RuntimeWarning):
        rc = run("train", "--data", str(dataset / "train"), "--out",
                 str(tmp_path / "o"), "--epochs", "1", "--batch-size", "8",
                 "--channels", "4,8", "--lr", "1e100", *flags)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and message in err


def test_synth_without_samples_is_usage_error(tmp_path, capsys):
    rc = run("synth", "--per-class", "0", "--out", str(tmp_path / "d"))
    assert rc == 1
    assert "--per-class" in capsys.readouterr().err
    assert not (tmp_path / "d" / "labels.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_dataset_is_data_error(trained, tmp_path, capsys, command):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "labels.csv").write_text("id,filename,label\n", encoding="utf-8")
    if command == "train":
        args = ("train", "--data", str(empty), "--out", str(tmp_path / "o"))
    else:
        args = ("eval", "--checkpoint", str(trained), "--data", str(empty),
                "--out", str(tmp_path / "o"))
    assert run(*args) == 2
    assert "no samples" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("attend", "--classes", "-1"), ("attend", "--classes", "0"),
    ("eval", "--topk", "-1"), ("eval", "--topk", "0"),
    ("ks", "--grid", "1"),
])
def test_count_flag_below_its_floor_is_usage_error(trained, dataset, tmp_path,
                                                   capsys, command, flag,
                                                   value):
    out = tmp_path / "o"
    rc = run(command, "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(out), flag, value)
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# allocator policy
# --------------------------------------------------------------------------

# Minor page faults of four rounds that allocate, touch and free 12 arrays of
# 2 MiB, after the CLI has run once in the same process.  2 MiB is above
# glibc's default mmap threshold and below the 4 MiB from which NumPy asks
# for huge pages, so each faulted page is one 4 KiB page.
_FAULT_ROUNDS = """
import resource, sys
import numpy as np
from icasc import cli

cli.main(["synth", "--classes", "2", "--per-class", "1", "--out", sys.argv[1]])
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(2**18) for _ in range(12)]
    del arrays
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the CLI sets an allocator policy on glibc only")
def test_cli_process_reuses_freed_heap_pages(tmp_path):
    """A fresh process, so that what earlier tests allocated cannot move
    glibc's dynamic thresholds.  With glibc's defaults every round faults
    about 6,000 pages in again."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _FAULT_ROUNDS,
                           str(tmp_path / "d")], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    first, *later = (int(line) for line in done.stdout.split()[-4:])
    assert first > 3000           # the counter sees the first round's pages
    assert all(faults < 64 for faults in later), (first, later)


def test_usage_error_exit_code():
    assert run("train") == 1          # missing required flags
    assert run("frobnicate") == 1     # unknown command
