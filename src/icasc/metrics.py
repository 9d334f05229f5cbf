"""Evaluation metrics: top-k accuracy, Kolmogorov-Smirnov separation
charts, attention-overlap statistics, and heatmap rendering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as dio
from .attention import LAYERS, class_attention
from .autodiff import Tape
from .losses import IcascConfig, confusing_class, per_sample_terms
from .nn import Model


# --------------------------------------------------------------------------
# predictions
# --------------------------------------------------------------------------


# samples per forward of every evaluation pass: ``predict``'s, which
# includes the training loop's test pass, and the overlap report's
EVAL_BATCH = 32


def predict(model: Model, dataset: dio.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Untaped forward passes over the dataset in order, ``EVAL_BATCH``
    samples at a time; returns (probabilities, labels).

    The probabilities are byte-equal to the overlap report's, which runs
    the same batches.
    """
    probs = [model.forward(images, tape=None).probabilities
             for _, images, _ in dio.batch_iter(dataset, EVAL_BATCH, seed=0,
                                                shuffle=False)]
    return np.concatenate(probs), dataset.label_array()


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


def model_ks_chart(probabilities: np.ndarray, labels: np.ndarray,
                   grid_size: int = 101) -> KsCurve:
    """KS chart between each sample's target-class probability and its
    confusing-class probability, from a model's (N, C) probabilities and
    the N class ids of a single-label dataset."""
    rows = np.arange(len(labels))
    conf = confusing_class(probabilities, labels)
    return ks_chart(probabilities[rows, labels], probabilities[rows, conf],
                    grid_size)


def write_ks_csv(path, curve: KsCurve) -> None:
    dio.write_csv(path, ("threshold", "cdf_target", "cdf_conf", "gap"),
                  zip(curve.thresholds, curve.cdf_target, curve.cdf_confusing,
                      curve.gaps))


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
    probabilities: np.ndarray      # (N, C), dataset order
    live_channels: dict            # layer -> (C,) bool: non-zero on some sample


def _overlap_batch(model: Model, ids, images, labels, config: IcascConfig
                   ) -> tuple[list[OverlapRow], np.ndarray, dict]:
    record = model.forward(images, tape=Tape(), from_inner=True)
    conf = confusing_class(record.probabilities, labels)
    a_tgt = class_attention(record, labels, create_graph=False)
    a_conf = class_attention(record, conf, create_graph=False, layers=("last",))
    las, lac, ctx = per_sample_terms(a_tgt, a_conf, conf, config)
    rows = [OverlapRow(sid, float(las["last"].data[i]), float(lac.data[i]),
                       not ctx.keep[i])
            for i, sid in enumerate(ids)]
    live = {layer: np.any(f.data != 0, axis=(0, 2, 3))
            for layer, f in record.feats.items()}
    return rows, record.probabilities, live


def attention_overlap_report(model: Model, dataset: dio.Dataset,
                             config: IcascConfig) -> OverlapReport:
    """Per-sample last-layer separation and consistency on frozen weights.

    Each sample is scored with the training objective's terms.  Skipped
    samples (degenerate target attention) are excluded from the means but
    counted in the skip rate.  The report prints no inner-layer separation,
    so the confusing class's map is taken at the last layer only: its
    backward stops at the head, so the target's is each batch's one
    backward through the inner conv block.  Each batch tapes only the
    graph those backwards read, from the inner features on
    (``Model.forward``'s ``from_inner``).

    The report also returns its forwards' class probabilities, so a caller
    that needs them makes no second pass.  Both run ``EVAL_BATCH`` samples
    per forward, so they are byte-equal to ``predict``'s.  It also
    returns, per tracked layer, which channels are non-zero on some
    sample: a channel that is not is dead on this set.
    """
    live = {layer: np.zeros(c, dtype=bool)
            for layer, c in zip(LAYERS, model.config.channels[-2:])}
    rows, probs = [], []
    for ids, images, labels in dio.batch_iter(dataset, EVAL_BATCH, seed=0,
                                              shuffle=False):
        batch_rows, batch_probs, batch_live = _overlap_batch(
            model, ids, images, labels, config)
        rows += batch_rows
        probs.append(batch_probs)
        for layer, alive in batch_live.items():
            live[layer] |= alive
    kept = [r for r in rows if not r.skipped]
    mean_las = float(np.mean([r.l_as_last for r in kept])) if kept else 0.0
    mean_lac = float(np.mean([r.l_ac for r in kept])) if kept else 0.0
    skip = float(np.mean([r.skipped for r in rows])) if rows else 0.0
    return OverlapReport(rows, mean_las, mean_lac, skip,
                         np.concatenate(probs) if probs
                         else np.empty((0, model.config.n_classes)), live)


def write_overlap_csv(path, report: OverlapReport) -> None:
    rows = [(r.sample_id, r.l_as_last, r.l_ac, r.skipped) for r in report.rows]
    rows.append(("mean", report.mean_l_as_last, report.mean_l_ac,
                 report.skip_rate))
    dio.write_csv(path, ("sample_id", "l_as_last", "l_ac", "skipped"), rows)


# --------------------------------------------------------------------------
# heatmap rendering
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


def render_heatmaps(values, target_size: tuple[int, int],
                    color: bool = False) -> np.ndarray:
    """Render an ``(N, h, w)`` stack of non-negative maps as uint8 images.

    Each map is divided by its own peak (an all-zero map renders black),
    upsampled bilinearly to ``target_size``, scaled to 0..255 and, with
    ``color``, looked up in ``COLORMAP_BLUE_RED``.  The whole stack goes
    through one resize, one round and one lookup; every pixel is computed
    as it would be for the map alone.  Returns ``(N, H, W)`` grey or
    ``(N, H, W, 3)`` RGB images.  The input is never modified.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(f"heatmaps expect an (N, h, w) stack, got {values.shape}")
    if np.any(values < 0):
        raise ValueError("heatmap map must be non-negative")
    peaks = values.max(axis=(1, 2), keepdims=True)
    norm = np.divide(values, peaks, out=np.zeros_like(values), where=peaks > 0)
    resized = ad.bilinear_resize_array(norm, target_size[0], target_size[1])
    gray = np.clip(np.round(resized * 255.0), 0, 255).astype(np.uint8)
    return COLORMAP_BLUE_RED[gray] if color else gray


def write_metrics_csv(path, rows: list[tuple[str, str, float]]) -> None:
    """rows are (metric, class-or-"all", value)."""
    dio.write_csv(path, ("metric", "class", "value"),
                  [(metric, cls, float(value)) for metric, cls, value in rows])
