"""Trend experiment: named training variants from shared initialisations.

Each variant is an :class:`IcascConfig`, or ``None`` for the baseline.  Per
seed every variant trains from the same initial weights on the synthetic
confusable dataset, and each model is scored with the default
``IcascConfig()`` for test accuracy, mean last-layer attention separation,
and the exact KS statistic between target-class and confusing-class
probability distributions.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from types import MappingProxyType

from . import data as dio
from . import metrics as mx
from .losses import IcascConfig
from .nn import Model
from .training import TrainConfig, train

DATA_SEED_TRAIN = 1234
DATA_SEED_TEST = 4321

# the paper's comparison; read-only, since it is run_trend's default
VARIANTS: Mapping[str, IcascConfig | None] = MappingProxyType(
    {"baseline": None, "icasc": IcascConfig()})


@dataclass
class VariantMetrics:
    seed: int
    variant: str                  # the variant's name in run_trend
    test_accuracy: float
    mean_l_as_last: float
    skip_rate: float
    ks_exact: float


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
                   batch_size: int = 50) -> VariantMetrics:
    """Score a model on a test set from one pass over it: the overlap
    report's forwards, under ``IcascConfig()``, also give the accuracy and
    KS probabilities."""
    overlap = mx.attention_overlap_report(model, test_set, IcascConfig(),
                                          batch_size)
    probs, labels = overlap.probabilities, test_set.label_array()
    acc = mx.topk_accuracy(probs, labels, 1)
    ks = mx.model_ks_chart(probs, labels).ks_exact
    return VariantMetrics(seed, variant, acc, overlap.mean_l_as_last,
                          overlap.skip_rate, ks)


def run_trend(work_dir, variants: Mapping[str, IcascConfig | None] = VARIANTS,
              seeds=(0, 1, 2, 3, 4), epochs: int = 12, batch_size: int = 32,
              lr: float = 0.08) -> list[VariantMetrics]:
    """Train every variant per seed into ``{name}_s{seed}``, seed-major in
    the order of ``variants``; score each model and write ``trend.csv``."""
    work_dir = Path(work_dir)
    train_dir, test_dir = make_datasets(work_dir)
    test_set = dio.load_dataset(test_dir)

    rows: list[VariantMetrics] = []
    for seed in seeds:
        for name, icasc in variants.items():
            model = train(TrainConfig(
                data_dir=str(train_dir), test_dir=str(test_dir),
                out_dir=str(work_dir / f"{name}_s{seed}"), epochs=epochs,
                batch_size=batch_size, lr=lr, seed=seed, channels=(8, 16),
                schedule="cosine", icasc=icasc)).model
            rows.append(evaluate_model(model, test_set, seed, name))
    write_trend_csv(work_dir / "trend.csv", rows)
    return rows


def write_trend_csv(path, rows: list[VariantMetrics]) -> None:
    """One row per (seed, variant); the columns are VariantMetrics' fields."""
    dio.write_csv(path, [f.name for f in fields(VariantMetrics)],
                  [astuple(r) for r in rows])
