"""Attention separation / consistency objective.

Per sample the objective adds three attention terms to the classification
loss:

* a soft region mask from the last-layer ground-truth attention:
  ``mask = sigmoid(omega * (A - sigma))`` with ``sigma = sigma_factor * max(A)``
  per sample (the mask is detached: it acts as a region label, so no
  gradient may flow through it and let the model shrink its own mask);
* separation at each tracked layer:
  ``L_AS = 2 * sum(min(A_T, A_Conf) * mask) / (sum(A_T + A_Conf) + eps)``;
* cross-layer consistency on the inner-layer ground-truth attention:
  ``L_AC = theta - sum(A_in * mask_in) / (sum(A_in) + eps)``.

Samples whose last-layer target attention carries almost no mass (total
below ``skip_threshold``) contribute only the classification loss; the
attention terms average over the remaining samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attention import AttentionMap, MECHANISMS, class_attention
from .nn import (ForwardRecord, NumericalError, cross_entropy,
                 multilabel_soft_margin, one_hot)


@dataclass(frozen=True)
class IcascConfig:
    mechanism: str = "a-ch"
    omega: float = 100.0
    sigma_factor: float = 0.55
    theta: float = 0.8
    epsilon: float = 1e-8
    skip_threshold: float = 1e-6
    clamp_lac: bool = False
    weight_lc: float = 1.0
    weight_as_inner: float = 1.0
    weight_as_last: float = 1.0
    weight_ac: float = 1.0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"mechanism must be one of {MECHANISMS}, "
                             f"got '{self.mechanism}'")
        if not self.omega > 0:
            raise ValueError("omega must be > 0")
        if not 0 < self.sigma_factor < 1:
            raise ValueError("sigma_factor must lie in (0, 1)")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")

    # -- key = value config file ------------------------------------------
    _FLOAT_KEYS = ("omega", "sigma_factor", "theta", "epsilon",
                   "skip_threshold", "weight_lc", "weight_as_inner",
                   "weight_as_last", "weight_ac")

    @staticmethod
    def from_file(path) -> "IcascConfig":
        return IcascConfig(**parse_kv_file(path))

    def apply_kv(self, kv: dict) -> "IcascConfig":
        return replace(self, **kv)

    def to_text(self) -> str:
        lines = [f"mechanism = {self.mechanism}"]
        for key in self._FLOAT_KEYS:
            lines.append(f"{key} = {getattr(self, key)!r}")
        lines.append(f"clamp_lac = {'true' if self.clamp_lac else 'false'}")
        return "\n".join(lines) + "\n"


def parse_kv_file(path) -> dict:
    """Parse a ``key = value`` text file into IcascConfig kwargs."""
    kv: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "mechanism":
                kv[key] = value
            elif key == "clamp_lac":
                kv[key] = value.lower() in ("1", "true", "yes")
            elif key in IcascConfig._FLOAT_KEYS:
                kv[key] = float(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
    return kv


@dataclass
class RegionMask:
    """Detached soft mask thresholded from last-layer target attention."""

    values: np.ndarray             # (N, H, W), sigmoid outputs
    degenerate: np.ndarray         # (N,) bool, True when source max == 0
    resolution: str                # "last" | "inner"
    source_mass: np.ndarray        # (N,) total mass of the source attention


@dataclass
class RoundContext:
    """Detached per-round quantities: masks and the keep selector."""

    mask_last: np.ndarray          # (N, Hl, Wl)
    mask_inner: np.ndarray         # (N, Hi, Wi)
    keep: np.ndarray               # (N,) 0/1


@dataclass
class ObjectiveContext:
    """Every detached decision the objective made.

    The mask, the confusing-class choice, and the skip selection carry no
    gradient by design; passing a context back into
    :func:`icasc_objective` re-evaluates the objective with those
    quantities held fixed, which is what a finite-difference check of the
    differentiable path needs.
    """

    conf: np.ndarray               # (N,) confusing class ids
    rounds: list[RoundContext]


@dataclass
class LossBreakdown:
    """The four scalar terms and their (weighted) sum."""

    l_c: float
    l_as_inner: float
    l_as_last: float
    l_ac: float
    total: float
    skip_flags: np.ndarray         # (N,) bool
    total_tensor: Tensor           # tape-live, for the training backward
    context: Optional["ObjectiveContext"] = None

    @property
    def skip_rate(self) -> float:
        return float(np.mean(self.skip_flags)) if self.skip_flags.size else 0.0


# --------------------------------------------------------------------------
# building blocks
# --------------------------------------------------------------------------


def confusing_class(probabilities: np.ndarray, labels) -> np.ndarray:
    """Most probable non-ground-truth class per sample; ties -> lowest id."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ValueError(f"need (N, C>=2) probabilities, got {probs.shape}")
    labels = np.asarray(labels)
    masked = probs.copy()
    if labels.ndim == 1:
        masked[np.arange(labels.size), labels] = -np.inf
    elif labels.shape == probs.shape:
        if np.any(labels.sum(axis=1) >= probs.shape[1]):
            raise ValueError("ground-truth set covers every class; "
                             "confusing class undefined")
        masked[labels.astype(bool)] = -np.inf
    else:
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"probabilities {probs.shape}")
    return np.argmax(masked, axis=1)   # first max = lowest class id


def mask_from_values(values: np.ndarray, config: IcascConfig) -> tuple[np.ndarray, np.ndarray]:
    """Apply the sigmoid threshold per sample; returns (mask, degenerate)."""
    peak = values.max(axis=(1, 2))
    sigma = config.sigma_factor * peak
    z = config.omega * (values - sigma[:, None, None])
    return ad.sigmoid_array(z), peak <= 0.0


def region_mask(target_attention: AttentionMap, config: IcascConfig,
                at_hw: Optional[tuple[int, int]] = None) -> RegionMask:
    """Detached region mask from last-layer target attention.

    With ``at_hw`` the attention is first bilinearly upsampled to that
    resolution and the threshold applied there, which preserves the sigmoid
    sharpness at the higher resolution.
    """
    values = target_attention.detached()
    if np.any(values < 0):
        raise ValueError("attention map must be non-negative")
    mass = values.sum(axis=(1, 2))
    resolution = "last"
    if at_hw is not None and tuple(at_hw) != values.shape[1:]:
        values = ad.bilinear_resize_array(values, at_hw[0], at_hw[1])
        resolution = "inner"
    mask, degenerate = mask_from_values(values, config)
    return RegionMask(mask, degenerate, resolution, mass)


def separation_per_sample(target: Tensor, confusing: Tensor,
                          mask: np.ndarray, eps: float) -> Tensor:
    """Eq.-style masked overlap ratio, one value per sample: (N,)."""
    if target.shape != confusing.shape or target.shape != mask.shape:
        raise ad.ShapeError(f"separation shapes differ: target {target.shape}, "
                            f"confusing {confusing.shape}, mask {mask.shape}")
    overlap = ad.mul(ad.minimum(target, confusing), Tensor(mask))
    num = ad.reduce_sum(overlap, (1, 2))
    den = ad.reduce_sum(ad.add(target, confusing), (1, 2))
    return ad.scale(ad.div(num, den, eps=eps), 2.0)


def consistency_per_sample(inner_target: Tensor, mask: np.ndarray,
                           theta: float, eps: float,
                           clamp: bool = False) -> Tensor:
    """theta minus the in-mask attention fraction, per sample: (N,)."""
    if inner_target.shape != mask.shape:
        raise ad.ShapeError(f"consistency shapes differ: attention "
                            f"{inner_target.shape}, mask {mask.shape}")
    num = ad.reduce_sum(ad.mul(inner_target, Tensor(mask)), (1, 2))
    den = ad.reduce_sum(inner_target, (1, 2))
    ratio = ad.div(num, den, eps=eps)
    out = ad.sub(theta, ratio)
    return ad.relu(out) if clamp else out


def per_sample_terms(a_tgt: dict[str, AttentionMap], a_conf: dict[str, AttentionMap],
                     active: np.ndarray, config: IcascConfig,
                     round_context: Optional[RoundContext] = None
                     ) -> tuple[Tensor, Tensor, Tensor, RoundContext]:
    """Last- and inner-layer separation and consistency, one value per sample.

    The region masks come from the last-layer target attention, and a
    sample is kept when it is ``active`` and that attention carries at least
    ``skip_threshold`` mass.  With ``round_context`` those detached
    quantities are reused instead.  The terms are not yet multiplied by the
    keep selector: ``(L_AS_last, L_AS_inner, L_AC, context)``.
    """
    rc = round_context
    if rc is None:
        mask_last = region_mask(a_tgt["last"], config)
        mask_inner = region_mask(a_tgt["last"], config,
                                 at_hw=a_tgt["inner"].shape[1:])
        keep = (active & (mask_last.source_mass >=
                          config.skip_threshold)).astype(np.float64)
        rc = RoundContext(mask_last.values, mask_inner.values, keep)
    las_la = separation_per_sample(a_tgt["last"].values, a_conf["last"].values,
                                   rc.mask_last, config.epsilon)
    las_in = separation_per_sample(a_tgt["inner"].values, a_conf["inner"].values,
                                   rc.mask_inner, config.epsilon)
    lac = consistency_per_sample(a_tgt["inner"].values, rc.mask_inner,
                                 config.theta, config.epsilon, config.clamp_lac)
    return las_la, las_in, lac, rc


# --------------------------------------------------------------------------
# the full objective
# --------------------------------------------------------------------------


def _masked_mean(vec: Tensor, keep: np.ndarray) -> Tensor:
    """Mean of vec over keep==1 entries; exact 0.0 when none are kept."""
    count = int(keep.sum())
    if count == 0:
        return Tensor(0.0)
    picked = ad.reduce_sum(ad.mul(vec, Tensor(keep)))
    return ad.scale(picked, 1.0 / count)


def label_rounds(labels: np.ndarray, n_classes: int) -> list[np.ndarray]:
    """Per-round one-hot selectors covering every ground-truth class.

    Single-label input (1-D ids) yields one round.  Multi-label input
    (binary matrix) yields max-positives rounds; inactive samples get a
    zero row, which makes their gradient slice exactly zero.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if labels.ndim == 1:
        return [one_hot(labels, n_classes)]
    rounds = []
    per_sample = [np.flatnonzero(row) for row in labels]
    max_pos = max((len(p) for p in per_sample), default=0)
    for r in range(max_pos):
        hot = np.zeros((n, n_classes))
        for i, pos in enumerate(per_sample):
            if r < len(pos):
                hot[i, pos[r]] = 1.0
        rounds.append(hot)
    return rounds


def icasc_objective(record: ForwardRecord, labels, config: IcascConfig,
                    context: Optional[ObjectiveContext] = None) -> LossBreakdown:
    """Classification loss plus the three attention terms.

    Attention for the ground-truth class(es) and the shared confusing class
    is computed at the inner and last tracked layers with gradients that
    stay on the tape, so the whole objective is differentiable end to end.
    Multi-label batches average the attention terms over each sample's
    ground-truth classes.

    With ``context`` the detached quantities (masks, confusing classes,
    skip selection) are reused instead of recomputed; the returned
    breakdown always carries the context it used.
    """
    labels = np.asarray(labels)
    n, n_classes = record.logits.shape
    multi = labels.ndim == 2
    if multi != record.multi_label:
        raise ValueError("label arity does not match the forward record mode")

    if multi:
        l_c = multilabel_soft_margin(record.logits, labels)
    else:
        l_c = cross_entropy(record.logits, labels)

    conf = context.conf if context else confusing_class(record.probabilities,
                                                        labels)
    a_conf = class_attention(record, conf, config.mechanism, create_graph=True)

    acc_las_in = None
    acc_las_la = None
    acc_lac = None
    counts = np.zeros(n)
    rounds_out: list[RoundContext] = []

    for round_no, hot in enumerate(label_rounds(labels, n_classes)):
        a_tgt = class_attention(record, hot, config.mechanism, create_graph=True)
        las_la, las_in, lac, rc = per_sample_terms(
            a_tgt, a_conf, hot.sum(axis=1) > 0, config,
            context.rounds[round_no] if context else None)
        rounds_out.append(rc)

        keep_t = Tensor(rc.keep)
        las_la = ad.mul(las_la, keep_t)
        las_in = ad.mul(las_in, keep_t)
        lac = ad.mul(lac, keep_t)
        acc_las_la = las_la if acc_las_la is None else ad.add(acc_las_la, las_la)
        acc_las_in = las_in if acc_las_in is None else ad.add(acc_las_in, las_in)
        acc_lac = lac if acc_lac is None else ad.add(acc_lac, lac)
        counts += rc.keep

    skip_flags = counts == 0
    kept = (~skip_flags).astype(np.float64)
    if acc_las_la is None or not kept.any():
        t_las_in = t_las_la = t_lac = Tensor(0.0)
    else:
        denom = Tensor(np.maximum(counts, 1.0))
        t_las_la = _masked_mean(ad.div(acc_las_la, denom, eps=0.0), kept)
        t_las_in = _masked_mean(ad.div(acc_las_in, denom, eps=0.0), kept)
        t_lac = _masked_mean(ad.div(acc_lac, denom, eps=0.0), kept)

    def weighted(term: Tensor, w: float) -> Tensor:
        return term if w == 1.0 else ad.scale(term, w)

    total = ad.add(ad.add(ad.add(weighted(l_c, config.weight_lc),
                                 weighted(t_las_in, config.weight_as_inner)),
                          weighted(t_las_la, config.weight_as_last)),
                   weighted(t_lac, config.weight_ac))

    items = {"L_C": l_c.item(), "L_AS_inner": t_las_in.item(),
             "L_AS_last": t_las_la.item(), "L_AC": t_lac.item(),
             "total": total.item()}
    for name, value in items.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite loss term {name}={value} "
                                 f"(all terms: {items})")

    return LossBreakdown(items["L_C"], items["L_AS_inner"], items["L_AS_last"],
                         items["L_AC"], items["total"], skip_flags, total,
                         ObjectiveContext(conf, rounds_out))
