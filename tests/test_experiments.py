import csv

from icasc import cli, experiments
from icasc import data as dio
from icasc.losses import IcascConfig
from icasc.nn import save_checkpoint

import helpers


def test_evaluate_model_matches_cli_eval_and_ks(tmp_path, capsys):
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, seed=1,
                                     motif_size=3), 4, tmp_path / "d")
    dataset = dio.load_dataset(tmp_path / "d")
    model = helpers.tiny_model(5, channels=(4, 8), size=16, n_classes=3)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model)

    got = experiments.evaluate_model(model, dataset, 0, "icasc", IcascConfig())
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
