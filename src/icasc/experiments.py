"""Trend experiment: named training variants from shared initialisations.

Each variant is an :class:`IcascConfig`, or ``None`` for the baseline.  A
trend takes its settings as two templates: a :class:`TrainConfig`
(``TREND_TRAIN``), which every run copies with its own directories, seed and
variant, and a :class:`SynthSpec` (``TREND_DATA``), which gives the train and
test sets at ``DATA_SEED_TRAIN`` and ``DATA_SEED_TEST``.  Per seed every
variant trains from the same initial weights, and each model is scored with
the default ``IcascConfig()`` for test accuracy, mean last-layer attention
separation, and the exact KS statistic between target-class and
confusing-class probability distributions.  The seeds train in parallel
worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from types import MappingProxyType

from . import data as dio
from . import metrics as mx
from . import training
from .losses import IcascConfig
from .nn import Model
from .training import EpochStats, TrainConfig

DATA_SEED_TRAIN = 1234
DATA_SEED_TEST = 4321

# run_trend's default templates; the trend's batch 32, channels and cosine
# schedule are TrainConfig's own defaults
TREND_TRAIN = TrainConfig(data_dir="", out_dir="", epochs=12, lr=0.08)
TREND_DATA = dio.SynthSpec()

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


def evaluate_model(model: Model, test_set: dio.Dataset, seed: int, variant: str,
                   log: list[EpochStats]) -> VariantMetrics:
    """Score a model on a test set from one pass over it: the overlap
    report's forwards, under ``IcascConfig()``, also give the accuracy, the
    KS probabilities and the dead channels.  The skip rates are read from
    the run's training ``log``."""
    overlap = mx.attention_overlap_report(model, test_set, IcascConfig())
    probs, labels = overlap.probabilities, test_set.label_array()
    acc = mx.topk_accuracy(probs, labels, 1)
    ks = mx.model_ks_chart(probs, labels).ks_exact
    dead = {layer: 1.0 - float(live.mean())
            for layer, live in overlap.live_channels.items()}
    return VariantMetrics(seed, variant, acc, overlap.mean_l_as_last,
                          overlap.skip_rate, ks, dead["inner"], dead["last"],
                          log[0].skip_rate, log[-1].skip_rate)


def _run_seed(runs: Mapping[str, TrainConfig],
              test_dir: Path) -> list[VariantMetrics]:
    """One seed's task: train every variant's run in order, then score each."""
    results = {name: training.train(cfg) for name, cfg in runs.items()}
    test_set = dio.load_dataset(test_dir)
    return [evaluate_model(result.model, test_set, runs[name].seed, name,
                           result.log)
            for name, result in results.items()]


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
              seeds=(0, 1, 2, 3, 4), train: TrainConfig = TREND_TRAIN,
              data: dio.SynthSpec = TREND_DATA,
              per_class=(200, 100)) -> list[VariantMetrics]:
    """Train every variant per seed into ``{name}_s{seed}``, score each
    model and write ``trend.csv``, seed-major in the order of ``variants``.

    Each run is ``train`` with its ``data_dir``, ``test_dir``, ``out_dir``,
    ``seed`` and ``icasc`` set.  The sets are ``data`` at
    ``DATA_SEED_TRAIN`` and ``DATA_SEED_TEST``, with ``per_class`` samples
    per class (train, test), written into ``work_dir/train`` and
    ``work_dir/test`` on every call.  Every run's config is built before
    any file is written, so a bad value or a repeated seed writes nothing.

    Each seed is one task in a pool of ``min(len(seeds), cpu count)``
    spawned worker processes, each with BLAS at 1 thread: two such
    processes beat one process on two cores, where threads did not.  The
    datasets are made before the pool starts, so no two workers write
    them, and rows come back in seed order, whatever order seeds finish in.
    """
    work_dir = Path(work_dir)
    seeds = tuple(seeds)
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        # two tasks of one seed would write the same run directories
        raise ValueError(f"seeds {repeated} appear more than once")
    n_train, n_test = per_class
    if min(n_train, n_test) < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    train_dir, test_dir = work_dir / "train", work_dir / "test"
    train_spec = replace(data, seed=DATA_SEED_TRAIN)
    test_spec = replace(data, seed=DATA_SEED_TEST)
    tasks = [({name: replace(train, data_dir=str(train_dir),
                             test_dir=str(test_dir),
                             out_dir=str(work_dir / f"{name}_s{seed}"),
                             seed=seed, icasc=icasc)
               for name, icasc in variants.items()}, test_dir)
             for seed in seeds]
    dio.generate_synth(train_spec, n_train, train_dir)
    dio.generate_synth(test_spec, n_test, test_dir)
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
