"""Trend experiment: ICASC versus a shared-initialization baseline.

Trains baseline and attention-supervised models from identical seeds on the
synthetic confusable dataset, then compares test accuracy, mean last-layer
attention separation, and the exact KS statistic between target-class and
confusing-class probability distributions.  Also produces the side-by-side
mechanism comparison (grad-cam vs the channel-weighted mechanism).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as dio
from . import metrics as mx
from .losses import IcascConfig
from .nn import Model
from .training import TrainConfig, train

DATA_SEED_TRAIN = 1234
DATA_SEED_TEST = 4321


@dataclass
class VariantMetrics:
    seed: int
    variant: str                  # "baseline" | "icasc"
    mechanism: str                # attention mechanism used for the L_AS metric
    test_accuracy: float
    mean_l_as_last: float
    skip_rate: float
    ks_exact: float


@dataclass
class TrendReport:
    mechanism: str
    rows: list[VariantMetrics]

    def per_seed(self, variant: str) -> dict[int, VariantMetrics]:
        return {r.seed: r for r in self.rows if r.variant == variant}

    def wins(self, key, direction: str) -> int:
        base = self.per_seed("baseline")
        ours = self.per_seed("icasc")
        count = 0
        for seed in ours:
            a, b = key(ours[seed]), key(base[seed])
            count += (a < b) if direction == "lower" else (a > b)
        return count

    def mean(self, variant: str, key) -> float:
        return float(np.mean([key(r) for r in self.rows if r.variant == variant]))


def make_datasets(work_dir, n_train: int = 200, n_test: int = 100,
                  n_classes: int = 4):
    """Synthesize the train/test pair once; reused across seeds."""
    work_dir = Path(work_dir)
    train_dir = work_dir / "train"
    test_dir = work_dir / "test"
    if not (train_dir / "labels.csv").exists():
        dio.generate_synth(dio.SynthSpec(n_classes=n_classes,
                                         seed=DATA_SEED_TRAIN), n_train, train_dir)
    if not (test_dir / "labels.csv").exists():
        dio.generate_synth(dio.SynthSpec(n_classes=n_classes,
                                         seed=DATA_SEED_TEST), n_test, test_dir)
    return train_dir, test_dir


def evaluate_model(model: Model, test_set: dio.Dataset, seed: int, variant: str,
                   icasc_cfg: IcascConfig, batch_size: int = 50) -> VariantMetrics:
    probs, labels = mx.predict(model, test_set)
    acc = mx.topk_accuracy(probs, labels, 1)
    overlap = mx.attention_overlap_report(model, test_set, icasc_cfg, batch_size)
    ks = mx.model_ks_chart(model, test_set).ks_exact
    return VariantMetrics(seed, variant, icasc_cfg.mechanism, acc,
                          overlap.mean_l_as_last, overlap.skip_rate, ks)


def run_trend(work_dir, mechanism: str = "a-ch", seeds=(0, 1, 2, 3, 4),
              epochs: int = 12, batch_size: int = 32, lr: float = 0.08,
              base_cfg: IcascConfig | None = None,
              baseline_models: dict[int, Model] | None = None) -> TrendReport:
    """Train baseline + ICASC per seed and collect the comparison metrics.

    ``baseline_models`` lets a second mechanism's run reuse the baselines
    (they do not depend on the mechanism).
    """
    work_dir = Path(work_dir)
    train_dir, test_dir = make_datasets(work_dir)
    test_set = dio.load_dataset(test_dir)
    icasc_cfg = replace(base_cfg or IcascConfig(), mechanism=mechanism)

    rows: list[VariantMetrics] = []
    if baseline_models is None:
        baseline_models = {}
    for seed in seeds:
        common = dict(data_dir=str(train_dir), test_dir=str(test_dir),
                      epochs=epochs, batch_size=batch_size, lr=lr, seed=seed,
                      channels=(8, 16), schedule="cosine", icasc=icasc_cfg)
        if seed not in baseline_models:
            cfg_b = TrainConfig(out_dir=str(work_dir / f"baseline_s{seed}"),
                                baseline=True, **common)
            baseline_models[seed] = train(cfg_b).model
        cfg_i = TrainConfig(out_dir=str(work_dir / f"icasc_{mechanism}_s{seed}"),
                            baseline=False, **common)
        icasc_model = train(cfg_i).model

        rows.append(evaluate_model(baseline_models[seed], test_set, seed,
                                   "baseline", icasc_cfg))
        rows.append(evaluate_model(icasc_model, test_set, seed, "icasc",
                                   icasc_cfg))
    report = TrendReport(mechanism, rows)
    write_trend_csv(work_dir / f"trend_{mechanism}.csv", report)
    return report


def write_trend_csv(path, report: TrendReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "variant", "mechanism", "test_accuracy",
                         "mean_l_as_last", "skip_rate", "ks_exact"])
        for r in report.rows:
            writer.writerow([r.seed, r.variant, r.mechanism,
                             repr(r.test_accuracy), repr(r.mean_l_as_last),
                             repr(r.skip_rate), repr(r.ks_exact)])


def write_side_by_side(path, reports: list[TrendReport]) -> None:
    """Mechanism comparison table over the shared baseline runs."""
    lines = ["mechanism comparison (means over seeds)",
             f"{'variant':<22}{'test_acc':>10}{'l_as_last':>11}{'ks_exact':>10}"]
    for report in reports:
        for variant in ("baseline", "icasc"):
            name = f"{variant}[{report.mechanism}]"
            lines.append(f"{name:<22}"
                         f"{report.mean(variant, lambda r: r.test_accuracy):>10.4f}"
                         f"{report.mean(variant, lambda r: r.mean_l_as_last):>11.4f}"
                         f"{report.mean(variant, lambda r: r.ks_exact):>10.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
