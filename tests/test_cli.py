import hashlib
from pathlib import Path

import numpy as np
import pytest

from icasc import cli
from icasc import data as dio
from icasc.nn import Model, ModelConfig, load_checkpoint, save_checkpoint


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


def test_train_deterministic_and_resume_bit_exact(dataset, tmp_path):
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


def test_eval_topk_exceeding_classes_rejected(trained, dataset, tmp_path):
    rc = run("eval", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "e"),
             "--topk", "5")
    assert rc == 1


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


def test_attend_unknown_sample_is_data_error(trained, dataset, tmp_path):
    rc = run("attend", "--checkpoint", str(trained), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "a"),
             "--classes", "1", "--samples", "ghost")
    assert rc == 2


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
# malformed inputs exit 2 and name what is wrong
# --------------------------------------------------------------------------


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


@pytest.mark.parametrize("damage", ["truncated", "bad_magic", "bad_json"])
def test_damaged_checkpoint_is_data_error(trained, dataset, tmp_path, capsys,
                                          damage):
    blob = trained.read_bytes()
    if damage == "truncated":
        blob = blob[:len(blob) // 2]
    elif damage == "bad_magic":
        blob = b"NOTACKPT" + blob[8:]
    else:
        blob = blob[:16] + b"#" + blob[17:]        # first JSON byte
    ckpt = tmp_path / f"{damage}.ckpt"
    ckpt.write_bytes(blob)
    rc = run("eval", "--checkpoint", str(ckpt), "--data",
             str(dataset / "test"), "--out", str(tmp_path / "e"))
    assert rc == 2
    assert f"{damage}.ckpt" in capsys.readouterr().err


def test_truncated_train_state_is_data_error(dataset, tmp_path, capsys):
    common = ["--data", str(dataset / "train"), "--batch-size", "8",
              "--channels", "4,8", "--baseline", "--out", str(tmp_path / "r")]
    assert run("train", *common, "--epochs", "1") == 0
    state = tmp_path / "r" / "train_state.bin"
    state.write_bytes(state.read_bytes()[:-5])
    assert run("train", *common, "--epochs", "2", "--resume") == 2
    assert "train_state.bin" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert run("train") == 1          # missing required flags
    assert run("frobnicate") == 1     # unknown command
