"""Evaluation metrics: top-k accuracy, average precision, rank AUC,
Kolmogorov-Smirnov separation charts, attention-overlap statistics, and
heatmap export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as dio
from .attention import class_attention
from .autodiff import Tape, Tensor
from .losses import IcascConfig, confusing_class, label_rounds, per_sample_terms
from .nn import Model


# --------------------------------------------------------------------------
# predictions
# --------------------------------------------------------------------------


def predict(model: Model, dataset: dio.Dataset, multi_label: bool = False,
            batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Untaped forward passes over the dataset in order, ``batch_size``
    samples at a time; returns (probabilities, labels).

    The chunk size sets the peak memory of the pass, which is why the
    training loop's test pass keeps its own batch size.
    """
    probs = [model.forward(images, tape=None, multi_label=multi_label).probabilities
             for _, images, _ in dio.batch_iter(dataset, batch_size, seed=0,
                                                shuffle=False,
                                                multi_label=multi_label)]
    return np.concatenate(probs), dataset.label_array(multi_label)


# --------------------------------------------------------------------------
# classification metrics
# --------------------------------------------------------------------------


def topk_accuracy(probabilities: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of samples whose label is among the k most probable classes.

    Probability ties are broken toward the lowest class id.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if k < 1 or k > probs.shape[1]:
        raise ValueError(f"k={k} invalid for {probs.shape[1]} classes")
    order = np.argsort(-probs, axis=1, kind="stable")   # stable -> lowest id wins ties
    hits = (order[:, :k] == labels[:, None]).any(axis=1)
    return float(np.mean(hits))


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP for one class: mean of precision at each positive's rank.

    Scores sort descending; ties keep the lowest sample index first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.sum() == 0:
        raise ValueError("average precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order].astype(bool)
    cum_pos = np.cumsum(ranked)
    ranks = np.arange(1, len(ranked) + 1)
    precisions = cum_pos[ranked] / ranks[ranked]
    return float(precisions.mean())


def mean_average_precision(scores: np.ndarray, labels: np.ndarray
                           ) -> tuple[np.ndarray, float]:
    """Per-class AP plus the mean over classes (classes with no positive
    are an error, matching the per-class contract)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    aps = np.array([average_precision(scores[:, c], labels[:, c])
                    for c in range(scores.shape[1])])
    return aps, float(aps.mean())


def _rankdata(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) AUC for one class, ties averaged."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels).astype(bool)
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positives and negatives")
    ranks = _rankdata(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def macro_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Macro-averaged rank AUC over classes."""
    return float(np.mean([auc_score(scores[:, c], labels[:, c])
                          for c in range(scores.shape[1])]))


# --------------------------------------------------------------------------
# KS separation chart
# --------------------------------------------------------------------------


@dataclass
class KsCurve:
    thresholds: np.ndarray         # uniform grid over [0, 1]
    cdf_target: np.ndarray
    cdf_confusing: np.ndarray
    gaps: np.ndarray
    ks_grid: float                 # max gap on the grid
    ks_grid_threshold: float
    ks_exact: float                # canonical statistic (sample-point sweep)
    ks_exact_threshold: float


def _ecdf(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """P(X <= t) for each t, via a sorted-side search."""
    s = np.sort(values)
    return np.searchsorted(s, at, side="right") / len(s)


def ks_chart(target_probs, confusing_probs, grid_size: int = 101) -> KsCurve:
    """Empirical-CDF gap curve plus the exact KS statistic.

    The grid curve is what gets plotted; the exact statistic evaluates the
    gap at every sample point, where the supremum of the difference of two
    right-continuous empirical CDFs is attained.
    """
    t = np.asarray(target_probs, dtype=np.float64).ravel()
    c = np.asarray(confusing_probs, dtype=np.float64).ravel()
    if t.size == 0 or c.size == 0:
        raise ValueError("ks_chart: empty input sequence")
    if t.min() < 0 or t.max() > 1 or c.min() < 0 or c.max() > 1:
        raise ValueError("ks_chart: values must lie in [0, 1]")
    if grid_size < 2:
        raise ValueError("ks_chart: grid_size must be >= 2")
    thresholds = np.linspace(0.0, 1.0, grid_size)
    cdf_t = _ecdf(t, thresholds)
    cdf_c = _ecdf(c, thresholds)
    gaps = np.abs(cdf_t - cdf_c)
    gi = int(np.argmax(gaps))

    points = np.concatenate([t, c])
    exact_gaps = np.abs(_ecdf(t, points) - _ecdf(c, points))
    ei = int(np.argmax(exact_gaps))
    return KsCurve(thresholds, cdf_t, cdf_c, gaps,
                   float(gaps[gi]), float(thresholds[gi]),
                   float(exact_gaps[ei]), float(points[ei]))


def model_ks_chart(model: Model, dataset: dio.Dataset,
                   grid_size: int = 101) -> KsCurve:
    """KS chart between each sample's target-class probability and its
    confusing-class probability, on a single-label dataset."""
    probs, labels = predict(model, dataset)
    rows = np.arange(len(labels))
    conf = confusing_class(probs, labels)
    return ks_chart(probs[rows, labels], probs[rows, conf], grid_size)


def write_ks_csv(path, curve: KsCurve) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "cdf_target", "cdf_conf", "gap"])
        for row in zip(curve.thresholds, curve.cdf_target,
                       curve.cdf_confusing, curve.gaps):
            writer.writerow([repr(float(v)) for v in row])


# --------------------------------------------------------------------------
# attention overlap report
# --------------------------------------------------------------------------


@dataclass
class OverlapRow:
    sample_id: str
    l_as_last: float
    l_ac: float
    skipped: bool


@dataclass
class OverlapReport:
    rows: list[OverlapRow]
    mean_l_as_last: float
    mean_l_ac: float
    skip_rate: float


def _overlap_batch(model: Model, ids, images, labels,
                   config: IcascConfig) -> list[OverlapRow]:
    labels = np.asarray(labels)
    record = model.forward(images, tape=Tape(), multi_label=labels.ndim == 2)
    target = label_rounds(labels, record.logits.shape[1])[0]
    conf = confusing_class(record.probabilities, labels)
    a_tgt = class_attention(record, target, config.mechanism, create_graph=False)
    a_conf = class_attention(record, conf, config.mechanism, create_graph=False)
    las, _, lac, rc = per_sample_terms(a_tgt, a_conf, np.ones(len(ids), bool),
                                       config)
    return [OverlapRow(sid, float(las.data[i]), float(lac.data[i]),
                       not rc.keep[i])
            for i, sid in enumerate(ids)]


def attention_overlap_report(model: Model, dataset: dio.Dataset,
                             config: IcascConfig,
                             batch_size: int = 32) -> OverlapReport:
    """Per-sample last-layer separation and consistency on frozen weights.

    Each sample is scored with the training objective's terms for its first
    ground-truth class (its only one when single-label).  Skipped samples
    (degenerate target attention) are excluded from the means but counted
    in the skip rate.
    """
    rows = [row for ids, images, labels in
            dio.batch_iter(dataset, batch_size, seed=0, shuffle=False,
                           multi_label=dataset.multi_label)
            for row in _overlap_batch(model, ids, images, labels, config)]
    kept = [r for r in rows if not r.skipped]
    mean_las = float(np.mean([r.l_as_last for r in kept])) if kept else 0.0
    mean_lac = float(np.mean([r.l_ac for r in kept])) if kept else 0.0
    skip = float(np.mean([r.skipped for r in rows])) if rows else 0.0
    return OverlapReport(rows, mean_las, mean_lac, skip)


def write_overlap_csv(path, report: OverlapReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "l_as_last", "l_ac", "skipped"])
        for r in report.rows:
            writer.writerow([r.sample_id, repr(r.l_as_last), repr(r.l_ac),
                             int(r.skipped)])
        writer.writerow(["mean", repr(report.mean_l_as_last),
                         repr(report.mean_l_ac), repr(report.skip_rate)])


# --------------------------------------------------------------------------
# heatmap export
# --------------------------------------------------------------------------

def _blue_red_table() -> np.ndarray:
    """Fixed 256-entry blue-to-red colormap: for t in [0, 1],
    r = 255*t, b = 255*(1-t), g = 96*(1 - |2t - 1|)."""
    t = np.arange(256) / 255.0
    r = np.round(255 * t)
    b = np.round(255 * (1 - t))
    g = np.round(96 * (1 - np.abs(2 * t - 1)))
    return np.stack([r, g, b], axis=1).astype(np.uint8)


COLORMAP_BLUE_RED = _blue_red_table()


def export_heatmap(values, target_size: tuple[int, int], out_path,
                   color: bool = False) -> np.ndarray:
    """Normalize a non-negative map to [0, 1], upsample, write PGM/PPM.

    Returns the uint8 image that was written.  The input map is never
    modified.
    """
    if isinstance(values, Tensor):
        values = values.data
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"heatmap expects a 2-D map, got {values.shape}")
    if np.any(values < 0):
        raise ValueError("heatmap map must be non-negative")
    peak = values.max()
    norm = values / peak if peak > 0 else np.zeros_like(values)
    resized = ad.bilinear_resize_array(norm, target_size[0], target_size[1])
    gray = np.clip(np.round(resized * 255.0), 0, 255).astype(np.uint8)
    if color:
        rgb = COLORMAP_BLUE_RED[gray]
        dio.write_ppm(out_path, rgb)
        return rgb
    dio.write_pgm(out_path, gray)
    return gray


def write_metrics_csv(path, rows: list[tuple[str, str, float]]) -> None:
    """rows are (metric, class-or-"all", value)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "class", "value"])
        for metric, cls, value in rows:
            writer.writerow([metric, cls, repr(float(value))])
