"""Trend experiment: named training variants from shared initialisations.

Each variant is an :class:`IcascConfig`, or ``None`` for the baseline.  Per
seed every variant trains from the same initial weights on the synthetic
confusable dataset, and each model is scored with the default
``IcascConfig()`` for test accuracy, mean last-layer attention separation,
and the exact KS statistic between target-class and confusing-class
probability distributions.  The seeds train in parallel worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from types import MappingProxyType

from . import data as dio
from . import metrics as mx
from .losses import IcascConfig
from .nn import Model
from .training import EpochStats, TrainConfig, train

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
    dead_inner: float             # fraction of inner channels 0 on every test sample
    dead_last: float              # the same for the last block's channels
    skip_epoch0: float            # training skip rate of the first epoch
    skip_final: float             # training skip rate of the last epoch


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
                   log: list[EpochStats],
                   batch_size: int = mx.EVAL_BATCH) -> VariantMetrics:
    """Score a model on a test set from one pass over it: the overlap
    report's forwards, under ``IcascConfig()``, also give the accuracy, the
    KS probabilities and the dead channels.  The skip rates are read from
    the run's training ``log``."""
    overlap = mx.attention_overlap_report(model, test_set, IcascConfig(),
                                          batch_size)
    probs, labels = overlap.probabilities, test_set.label_array()
    acc = mx.topk_accuracy(probs, labels, 1)
    ks = mx.model_ks_chart(probs, labels).ks_exact
    dead = {layer: 1.0 - float(live.mean())
            for layer, live in overlap.live_channels.items()}
    return VariantMetrics(seed, variant, acc, overlap.mean_l_as_last,
                          overlap.skip_rate, ks, dead["inner"], dead["last"],
                          log[0].skip_rate, log[-1].skip_rate)


def _run_seed(work_dir: Path, train_dir: Path, test_dir: Path,
              variants: dict, seed: int, epochs: int, batch_size: int,
              lr: float) -> list[VariantMetrics]:
    """One seed's task: train every variant in order, then score each."""
    runs = {name: train(TrainConfig(
                data_dir=str(train_dir), test_dir=str(test_dir),
                out_dir=str(work_dir / f"{name}_s{seed}"), epochs=epochs,
                batch_size=batch_size, lr=lr, seed=seed, channels=(8, 16),
                schedule="cosine", icasc=icasc))
            for name, icasc in variants.items()}
    test_set = dio.load_dataset(test_dir)
    return [evaluate_model(run.model, test_set, seed, name, run.log)
            for name, run in runs.items()]


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_env():
    """Set BLAS to 1 thread in the environment that spawned workers copy
    before they load NumPy; the caller's own values are put back after."""
    saved = {key: os.environ.get(key) for key in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_trend(work_dir, variants: Mapping[str, IcascConfig | None] = VARIANTS,
              seeds=(0, 1, 2, 3, 4), epochs: int = 12, batch_size: int = 32,
              lr: float = 0.08) -> list[VariantMetrics]:
    """Train every variant per seed into ``{name}_s{seed}``, score each
    model and write ``trend.csv``, seed-major in the order of ``variants``.

    Each seed is one task in a pool of ``min(len(seeds), cpu count)``
    spawned worker processes, each with BLAS at 1 thread: two such
    processes beat one process on two cores, where threads did not.  The
    datasets are made before the pool starts, so no two workers write
    them, and rows come back in seed order, whatever order seeds finish in.
    """
    work_dir = Path(work_dir)
    train_dir, test_dir = make_datasets(work_dir)
    tasks = [(work_dir, train_dir, test_dir, dict(variants), seed, epochs,
              batch_size, lr) for seed in seeds]
    workers = max(1, min(len(tasks), os.cpu_count() or 1))
    with _one_blas_thread_env():
        pool = multiprocessing.get_context("spawn").Pool(workers)
    with pool:
        per_seed = pool.starmap(_run_seed, tasks)
    rows = [row for seed_rows in per_seed for row in seed_rows]
    write_trend_csv(work_dir / "trend.csv", rows)
    return rows


def write_trend_csv(path, rows: list[VariantMetrics]) -> None:
    """One row per (seed, variant); the columns are VariantMetrics' fields."""
    dio.write_csv(path, [f.name for f in fields(VariantMetrics)],
                  [astuple(r) for r in rows])
