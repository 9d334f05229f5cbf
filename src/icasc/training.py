"""Training loop: per-epoch schedule, objective, SGD updates, CSV log,
checkpoints, and bit-exact resume."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import data as dio
from .autodiff import Tape
from .losses import IcascConfig, icasc_objective
from .metrics import predict, topk_accuracy
from .nn import (Model, ModelConfig, SgdOptimizer, cross_entropy, lr_schedule,
                 load_checkpoint, load_train_state, multilabel_soft_margin,
                 save_checkpoint, save_train_state)

LOG_COLUMNS = ("epoch", "lr", "l_c", "l_as_in", "l_as_la", "l_ac", "total",
               "train_acc", "test_acc", "skip_rate")


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
    baseline: bool = False
    multi_label: bool = False
    flip: bool = False
    resume: bool = False
    icasc: IcascConfig = field(default_factory=IcascConfig)

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
            f"baseline = {'true' if self.baseline else 'false'}",
            f"multi_label = {'true' if self.multi_label else 'false'}",
            f"flip = {'true' if self.flip else 'false'}",
        ]
        return "\n".join(lines) + "\n" + self.icasc.to_text()


@dataclass
class EpochStats:
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

    def row(self) -> list[str]:
        return [str(self.epoch)] + [repr(float(v)) for v in
                (self.lr, self.l_c, self.l_as_in, self.l_as_la, self.l_ac,
                 self.total, self.train_acc, self.test_acc, self.skip_rate)]


@dataclass
class TrainResult:
    model: Model
    log: list[EpochStats]
    best_epoch: int
    best_acc: float


def _accuracy(probs: np.ndarray, labels: np.ndarray, multi_label: bool) -> float:
    if multi_label:
        pred = probs >= 0.5
        return float(np.mean(pred == labels.astype(bool)))
    return topk_accuracy(probs, labels, 1)


def evaluate_accuracy(model: Model, dataset: dio.Dataset, batch_size: int,
                      multi_label: bool) -> float:
    probs, labels = predict(model, dataset, multi_label, batch_size)
    return _accuracy(probs, labels, multi_label)


def train(cfg: TrainConfig) -> TrainResult:
    """Run (or resume) a training job; writes log, checkpoints, state."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    train_set = dio.load_dataset(cfg.data_dir)
    if train_set.multi_label and not cfg.multi_label:
        raise dio.DataError("labels file holds multi-label rows; "
                            "pass multi_label")
    test_set = dio.load_dataset(cfg.test_dir, n_classes=train_set.n_classes) \
        if cfg.test_dir else None

    sample = train_set.samples[0]
    model_cfg = ModelConfig(channels=cfg.channels,
                            input_size=sample.image.shape[1],
                            input_channels=sample.image.shape[0],
                            n_classes=train_set.n_classes)

    optimizer = SgdOptimizer(cfg.momentum, cfg.weight_decay)
    start_epoch = 0
    log: list[EpochStats] = []
    if cfg.resume:
        model, _ = load_checkpoint(out / "final.ckpt")
        start_epoch, velocity = load_train_state(out / "train_state.bin")
        optimizer.load_state(velocity)
        log = read_log(out / "train_log.csv")
    else:
        model = Model.build(model_cfg, cfg.seed)

    (out / "run_config.txt").write_text(cfg.to_kv(), encoding="utf-8")

    best_acc, best_epoch = -1.0, -1
    for stats in log:
        acc = stats.test_acc if test_set else stats.train_acc
        if not np.isnan(acc) and acc > best_acc:
            best_acc, best_epoch = acc, stats.epoch

    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_schedule(cfg.schedule, epoch, cfg.epochs, cfg.lr, cfg.milestones)
        sums = {"l_c": 0.0, "l_as_in": 0.0, "l_as_la": 0.0, "l_ac": 0.0,
                "total": 0.0, "acc": 0.0, "skip": 0.0}
        seen = 0
        for _, images, labels in dio.batch_iter(
                train_set, cfg.batch_size, cfg.seed, epoch, shuffle=True,
                flip=cfg.flip, multi_label=cfg.multi_label):
            tape = Tape()
            record = model.forward(images, tape=tape, multi_label=cfg.multi_label)
            if cfg.baseline:
                loss = multilabel_soft_margin(record.logits, labels) \
                    if cfg.multi_label else cross_entropy(record.logits, labels)
                parts = {"l_c": loss.item(), "l_as_in": 0.0, "l_as_la": 0.0,
                         "l_ac": 0.0, "total": loss.item(), "skip": 0.0}
            else:
                breakdown = icasc_objective(record, labels, cfg.icasc)
                loss = breakdown.total_tensor
                parts = {"l_c": breakdown.l_c, "l_as_in": breakdown.l_as_inner,
                         "l_as_la": breakdown.l_as_last, "l_ac": breakdown.l_ac,
                         "total": breakdown.total,
                         "skip": breakdown.skip_rate}
            leaves = record.param_leaves
            grads = ad.backward(loss, list(leaves.values()))
            grad_arrays = {name: grads[leaf.node].data
                           for name, leaf in leaves.items()}
            optimizer.step(model.params, grad_arrays, lr)

            n = len(images)
            seen += n
            for key in ("l_c", "l_as_in", "l_as_la", "l_ac", "total", "skip"):
                sums[key] += parts[key] * n
            sums["acc"] += _accuracy(record.probabilities, labels,
                                     cfg.multi_label) * n

        test_acc = evaluate_accuracy(model, test_set, cfg.batch_size,
                                     cfg.multi_label) if test_set else float("nan")
        stats = EpochStats(epoch, lr,
                           sums["l_c"] / seen, sums["l_as_in"] / seen,
                           sums["l_as_la"] / seen, sums["l_ac"] / seen,
                           sums["total"] / seen, sums["acc"] / seen,
                           test_acc, sums["skip"] / seen)
        log.append(stats)

        select_acc = test_acc if test_set else stats.train_acc
        if select_acc > best_acc:
            best_acc, best_epoch = select_acc, epoch
            save_checkpoint(out / "best.ckpt", model, {"epoch": epoch})
        save_checkpoint(out / "final.ckpt", model, {"epoch": epoch})
        save_train_state(out / "train_state.bin", epoch + 1, optimizer)
        write_log(out / "train_log.csv", cfg.seed, log)

    return TrainResult(model, log, best_epoch, best_acc)


def write_log(path, seed: int, log: list[EpochStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for stats in log:
            writer.writerow(stats.row())


def read_log(path) -> list[EpochStats]:
    log = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh)
                if r and not r[0].startswith("#") and r[0] != "epoch"]
    for r in rows:
        log.append(EpochStats(int(r[0]), *[float(v) for v in r[1:]]))
    return log
