"""Trend experiment: ICASC versus a shared-initialization baseline.

Trains baseline and attention-supervised models from identical seeds on the
synthetic confusable dataset, then compares test accuracy, mean last-layer
attention separation, and the exact KS statistic between target-class and
confusing-class probability distributions.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

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
    """Score a model on a test set from one pass over it: the overlap
    report's forwards also give the accuracy and KS probabilities."""
    overlap = mx.attention_overlap_report(model, test_set, icasc_cfg, batch_size)
    probs, labels = overlap.probabilities, test_set.label_array()
    acc = mx.topk_accuracy(probs, labels, 1)
    ks = mx.model_ks_chart(probs, labels).ks_exact
    return VariantMetrics(seed, variant, icasc_cfg.mechanism, acc,
                          overlap.mean_l_as_last, overlap.skip_rate, ks)


def run_trend(work_dir, mechanism: str = "a-ch", seeds=(0, 1, 2, 3, 4),
              epochs: int = 12, batch_size: int = 32, lr: float = 0.08,
              base_cfg: IcascConfig | None = None) -> TrendReport:
    """Train baseline + ICASC per seed and collect the comparison metrics."""
    work_dir = Path(work_dir)
    train_dir, test_dir = make_datasets(work_dir)
    test_set = dio.load_dataset(test_dir)
    icasc_cfg = replace(base_cfg or IcascConfig(), mechanism=mechanism)

    rows: list[VariantMetrics] = []
    for seed in seeds:
        common = dict(data_dir=str(train_dir), test_dir=str(test_dir),
                      epochs=epochs, batch_size=batch_size, lr=lr, seed=seed,
                      channels=(8, 16), schedule="cosine", icasc=icasc_cfg)
        baseline_model = train(TrainConfig(
            out_dir=str(work_dir / f"baseline_s{seed}"), baseline=True,
            **common)).model
        icasc_model = train(TrainConfig(
            out_dir=str(work_dir / f"icasc_{mechanism}_s{seed}"),
            baseline=False, **common)).model

        rows.append(evaluate_model(baseline_model, test_set, seed,
                                   "baseline", icasc_cfg))
        rows.append(evaluate_model(icasc_model, test_set, seed, "icasc",
                                   icasc_cfg))
    report = TrendReport(mechanism, rows)
    write_trend_csv(work_dir / f"trend_{mechanism}.csv", report)
    return report


def write_trend_csv(path, report: TrendReport) -> None:
    """One row per (seed, variant); the columns are VariantMetrics' fields."""
    dio.write_csv(path, [f.name for f in fields(VariantMetrics)],
                  [astuple(r) for r in report.rows])
