"""Training loop: per-epoch schedule, objective, SGD updates, CSV log,
checkpoints, and bit-exact resume."""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import data as dio
from .autodiff import Tape
from .losses import IcascConfig, classification_objective, icasc_objective
from .metrics import predict, topk_accuracy
from .nn import (SCHEDULES, ConfigError, Model, ModelConfig, SgdOptimizer,
                 load_checkpoint, lr_schedule, save_checkpoint)


@dataclass(frozen=True)
class TrainConfig:
    data_dir: str
    out_dir: str
    test_dir: Optional[str] = None
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    schedule: str = "cosine"
    milestones: tuple[int, ...] = ()
    seed: int = 0
    channels: tuple[int, ...] = (8, 16)
    flip: bool = False
    resume: bool = False
    # the attention objective; None trains the baseline on L_C alone
    icasc: Optional[IcascConfig] = field(default_factory=IcascConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # lr 0 is a frozen run: it keeps the seeded initial weights
        if not 0 <= self.lr < np.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr!r}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight_decay must be finite and >= 0, got "
                              f"{self.weight_decay!r}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}, "
                              f"got '{self.schedule}'")
        if self.milestones and self.schedule == "cosine":
            raise ConfigError("milestones apply to the step schedule only, "
                              "not to cosine")
        if any(m < 1 for m in self.milestones) or any(
                b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ConfigError("milestones must be strictly increasing epochs "
                              f">= 1, got {self.milestones}")

    def to_kv(self) -> str:
        lines = [
            f"data_dir = {self.data_dir}",
            f"test_dir = {self.test_dir or ''}",
            f"out_dir = {self.out_dir}",
            f"epochs = {self.epochs}",
            f"batch_size = {self.batch_size}",
            f"lr = {self.lr!r}",
            f"momentum = {self.momentum!r}",
            f"weight_decay = {self.weight_decay!r}",
            f"schedule = {self.schedule}",
            f"milestones = {','.join(str(m) for m in self.milestones)}",
            f"seed = {self.seed}",
            f"channels = {','.join(str(c) for c in self.channels)}",
            f"baseline = {'true' if self.icasc is None else 'false'}",
            f"flip = {'true' if self.flip else 'false'}",
        ]
        text = "\n".join(lines) + "\n"
        return text if self.icasc is None else text + self.icasc.to_text()


@dataclass
class EpochStats:
    """One epoch of ``train_log.csv``; the fields, in order, are its columns."""

    epoch: int
    lr: float
    l_c: float
    l_as_in: float
    l_as_la: float
    l_ac: float
    total: float
    train_acc: float
    test_acc: float
    skip_rate: float


LOG_COLUMNS = tuple(f.name for f in fields(EpochStats))


@dataclass
class TrainResult:
    model: Model
    log: list[EpochStats]
    best_epoch: int


def evaluate_accuracy(model: Model, dataset: dio.Dataset) -> float:
    """Top-1 accuracy of ``model`` on ``dataset``."""
    return topk_accuracy(*predict(model, dataset), 1)


def _train_step(model: Model, optimizer: SgdOptimizer, images: np.ndarray,
                labels: np.ndarray, icasc: Optional[IcascConfig],
                lr: float) -> np.ndarray:
    """One SGD step on a batch; returns its l_c, l_as_in, l_as_la, l_ac,
    total, train_acc and skip_rate.

    The step's tape, and the record, losses, leaves and gradients that
    reach it, are freed when this returns, before the next step records.
    """
    record = model.forward(images, tape=Tape())
    b = classification_objective(record, labels) if icasc is None \
        else icasc_objective(record, labels, icasc)
    leaves = record.param_leaves
    grads = ad.backward(b.total_tensor, list(leaves.values()))
    optimizer.step(model.params, {name: grads[leaf.node].data
                                  for name, leaf in leaves.items()}, lr)
    return np.array([b.l_c, b.l_as_inner, b.l_as_last, b.l_ac, b.total,
                     topk_accuracy(record.probabilities, labels, 1),
                     b.skip_rate])


def train(cfg: TrainConfig) -> TrainResult:
    """Run (or resume from final.ckpt) a training job; writes the log and
    checkpoints.

    Each step's tape is freed before the next step records its own, so the
    process holds one tape at a time.  The first call sets the process's
    allocator policy (``autodiff.keep_freed_heap``), which keeps the freed
    pages mapped for the next step instead of faulting them in again.
    """
    ad.keep_freed_heap()
    train_set = dio.load_dataset(cfg.data_dir)
    if train_set.n_classes < 2:
        # no confusing class, so neither the objective nor KS is defined
        raise dio.DataError(f"{cfg.data_dir}: the labels name "
                            f"{train_set.n_classes} class; training needs "
                            "at least 2")
    # n_classes is the largest id + 1: every id below it needs a sample, or
    # a typo'd id sizes the head and a class trains with no sample
    present = {s.label for s in train_set.samples}
    if len(present) < train_set.n_classes:
        missing = next(c for c in range(train_set.n_classes)
                       if c not in present)
        raise dio.DataError(f"{cfg.data_dir}: the labels name class ids up "
                            f"to {train_set.n_classes - 1}, but no sample "
                            f"has class {missing}; training needs a sample "
                            f"of every class 0..{train_set.n_classes - 1}")
    sample = train_set.samples[0]
    _, height, width = sample.image.shape
    if height != width:
        raise dio.DataError(f"{cfg.data_dir}: images are {height}x{width} "
                            "(HxW); the model takes square images")
    test_set = dio.load_dataset(cfg.test_dir, n_classes=train_set.n_classes,
                                image_shape=sample.image.shape) \
        if cfg.test_dir else None

    model_cfg = ModelConfig(channels=cfg.channels,
                            input_size=sample.image.shape[1],
                            input_channels=sample.image.shape[0],
                            n_classes=train_set.n_classes)

    out = Path(cfg.out_dir)
    optimizer = SgdOptimizer(cfg.momentum, cfg.weight_decay)
    start_epoch = 0
    log: list[EpochStats] = []
    if cfg.resume:
        # final.ckpt is each epoch's last write: rows past it are dropped
        model, header = load_checkpoint(out / "final.ckpt")
        if "epoch" not in header or not header["velocity"]:
            raise dio.DataError(f"{out / 'final.ckpt'}: not a resume point")
        if model.config != model_cfg:
            raise ConfigError(f"{out / 'final.ckpt'} holds {model.config}, "
                              f"but the flags and data give {model_cfg}")
        if type(header["epoch"]) is not int or header["epoch"] < 0:
            raise dio.DataError(f"{out / 'final.ckpt'}: epoch must be a "
                                f"non-negative integer, got {header['epoch']!r}")
        start_epoch = header["epoch"] + 1
        if cfg.epochs < start_epoch:
            # run_config.txt would echo fewer epochs than the log and
            # final.ckpt hold
            raise ConfigError(f"epochs = {cfg.epochs}, but {out / 'final.ckpt'} "
                              f"already holds {start_epoch} trained epochs")
        optimizer.velocity = header["velocity"]
        log = read_log(out / "train_log.csv")[:start_epoch]
        if len(log) < start_epoch:
            raise dio.DataError(f"{out / 'train_log.csv'}: {len(log)} rows, "
                                f"final.ckpt is at epoch {header['epoch']}")
    else:
        model = Model.build(model_cfg, cfg.seed)

    # created only once the data and any resume point have been checked
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.txt").write_text(cfg.to_kv(), encoding="utf-8")

    best_acc, best_epoch = -1.0, -1
    for stats in log:
        acc = stats.test_acc if test_set else stats.train_acc
        if not np.isnan(acc) and acc > best_acc:
            best_acc, best_epoch = acc, stats.epoch

    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_schedule(cfg.schedule, epoch, cfg.epochs, cfg.lr, cfg.milestones)
        # sample-weighted sums of each batch's l_c, l_as_in, l_as_la, l_ac,
        # total, train_acc and skip_rate
        sums = np.zeros(7)
        seen = 0
        for _, images, labels in dio.batch_iter(
                train_set, cfg.batch_size, cfg.seed, epoch, shuffle=True,
                flip=cfg.flip):
            n = len(images)
            seen += n
            sums += n * _train_step(model, optimizer, images, labels,
                                    cfg.icasc, lr)

        test_acc = evaluate_accuracy(model, test_set) if test_set \
            else float("nan")
        l_c, l_as_in, l_as_la, l_ac, total, train_acc, skip_rate = \
            (float(v) for v in sums / seen)
        stats = EpochStats(epoch, lr, l_c, l_as_in, l_as_la, l_ac, total,
                           train_acc, test_acc, skip_rate)
        log.append(stats)

        write_log(out / "train_log.csv", cfg.seed, log)
        select_acc = test_acc if test_set else stats.train_acc
        if select_acc > best_acc:
            best_acc, best_epoch = select_acc, epoch
            save_checkpoint(out / "best.ckpt", model, {"epoch": epoch})
        save_checkpoint(out / "final.ckpt", model, {"epoch": epoch},
                        optimizer.velocity)

    return TrainResult(model, log, best_epoch)


def write_log(path, seed: int, log: list[EpochStats]) -> None:
    dio.write_csv(path, LOG_COLUMNS, [astuple(stats) for stats in log],
                  comment=f"seed={seed}")


def read_log(path) -> list[EpochStats]:
    """Parse ``train_log.csv``; a row that does not hold one value per
    column raises DataError naming the file and line."""
    log = []
    with dio.open_text(path) as fh:
        reader = csv.reader(fh)
        for r in reader:
            if not r or r[0].startswith("#") or r[0] == "epoch":
                continue
            where = f"{path}:{reader.line_num}"
            if len(r) != len(LOG_COLUMNS):
                raise dio.DataError(f"{where}: {len(r)} fields, expected "
                                    f"{len(LOG_COLUMNS)}")
            try:
                log.append(EpochStats(int(r[0]), *[float(v) for v in r[1:]]))
            except ValueError as e:
                raise dio.DataError(f"{where}: {e}") from None
    return log
