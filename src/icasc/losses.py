"""Attention separation / consistency objective.

Per sample the objective adds three attention terms to the classification
loss.  Attention maps are (N, H, W) tensors from :mod:`icasc.attention`;
region masks are plain (N, H, W) arrays.

* a soft region mask from the last-layer ground-truth attention:
  ``mask = sigmoid(omega * (A - sigma))`` with ``sigma = sigma_factor * max(A)``
  per sample (the mask is detached: it acts as a region label, so no
  gradient may flow through it and let the model shrink its own mask);
* separation at each tracked layer (the objective tracks both; a report
  that prints only the last layer's asks for that one):
  ``L_AS = 2 * sum(min(A_T, A_Conf) * mask) / (sum(A_T + A_Conf) + EPSILON)``;
* cross-layer consistency on the inner-layer ground-truth attention:
  ``L_AC = theta - sum(A_in * mask_in) / (sum(A_in) + EPSILON)``.

Samples whose last-layer target attention carries almost no mass (total
below ``SKIP_THRESHOLD``) contribute only the classification loss; the
attention terms average over the remaining samples.  ``EPSILON`` and
``SKIP_THRESHOLD`` are constants, not settings: a large value of either
would switch the attention terms off.

:func:`icasc_objective` returns all four terms in a :class:`LossBreakdown`;
:func:`classification_objective` is the baseline's objective, the same
breakdown with zero attention terms, so one training step serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attention import MECHANISMS, class_attention
from .data import DataError, open_text
from .nn import ConfigError, ForwardRecord, NumericalError, cross_entropy

# the division guard of both attention ratios
EPSILON = 1e-8
# least last-layer target-attention mass that keeps a sample's attention terms
SKIP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class IcascConfig:
    mechanism: str = "a-ch"
    omega: float = 100.0
    sigma_factor: float = 0.55
    theta: float = 0.8
    weight_as_inner: float = 1.0
    weight_as_last: float = 1.0
    weight_ac: float = 1.0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}, "
                              f"got '{self.mechanism}'")
        if not 0 < self.omega < np.inf:
            raise ConfigError(f"omega must be finite and > 0, got {self.omega!r}")
        if not 0 < self.sigma_factor < 1:
            raise ConfigError("sigma_factor must lie in (0, 1)")
        if not 0 < self.theta <= 1:
            raise ConfigError("theta must lie in (0, 1]")
        for key in ("weight_as_inner", "weight_as_last", "weight_ac"):
            value = getattr(self, key)
            if not 0 <= value < np.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value!r}")

    # -- key = value config file ------------------------------------------
    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))


# every field but the mechanism holds a float, in the config file's order
_FLOAT_KEYS = tuple(f.name for f in fields(IcascConfig) if f.name != "mechanism")


def parse_kv_file(path) -> dict:
    """Parse a ``key = value`` text file into IcascConfig kwargs; a line
    that does not parse raises DataError naming file:line."""
    kv: dict = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise DataError(f"{where}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "mechanism":
                kv[key] = value
            elif key in _FLOAT_KEYS:
                try:
                    kv[key] = float(value)
                except ValueError:
                    raise DataError(f"{where}: {key} is not a number: "
                                    f"'{value}'") from None
            else:
                raise DataError(f"{where}: unknown key '{key}'")
    return kv


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
    mask_last: np.ndarray          # (N, Hl, Wl)
    mask_inner: np.ndarray         # (N, Hi, Wi)
    keep: np.ndarray               # (N,) 0/1


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
        raise DataError(f"need (N, C>=2) probabilities, got {probs.shape}: "
                        "a confusing class needs at least 2 classes")
    labels = np.asarray(labels)
    if labels.shape != probs.shape[:1]:
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"probabilities {probs.shape}")
    masked = probs.copy()
    masked[np.arange(labels.size), labels] = -np.inf
    return np.argmax(masked, axis=1)   # first max = lowest class id


def region_mask(attention: np.ndarray, config: IcascConfig,
                at_hw: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Detached (N, H, W) soft region mask from last-layer target attention.

    With ``at_hw`` the attention is first bilinearly upsampled to that
    resolution and the threshold applied there, which preserves the sigmoid
    sharpness at the higher resolution.
    """
    if np.any(attention < 0):
        raise ValueError("attention map must be non-negative")
    if at_hw is not None and tuple(at_hw) != attention.shape[1:]:
        attention = ad.bilinear_resize_array(attention, at_hw[0], at_hw[1])
    sigma = config.sigma_factor * attention.max(axis=(1, 2))
    return ad.sigmoid_array(config.omega * (attention - sigma[:, None, None]))


def separation_per_sample(target: Tensor, confusing: Tensor,
                          mask: np.ndarray) -> Tensor:
    """Eq.-style masked overlap ratio, one value per sample: (N,)."""
    if target.shape != confusing.shape or target.shape != mask.shape:
        raise ad.ShapeError(f"separation shapes differ: target {target.shape}, "
                            f"confusing {confusing.shape}, mask {mask.shape}")
    overlap = ad.mul(ad.minimum(target, confusing), Tensor(mask))
    num = ad.reduce_sum(overlap, (1, 2))
    den = ad.reduce_sum(ad.add(target, confusing), (1, 2))
    return ad.mul(ad.div(num, den, eps=EPSILON), 2.0)


def consistency_per_sample(inner_target: Tensor, mask: np.ndarray,
                           theta: float) -> Tensor:
    """theta minus the in-mask attention fraction, per sample: (N,)."""
    if inner_target.shape != mask.shape:
        raise ad.ShapeError(f"consistency shapes differ: attention "
                            f"{inner_target.shape}, mask {mask.shape}")
    num = ad.reduce_sum(ad.mul(inner_target, Tensor(mask)), (1, 2))
    den = ad.reduce_sum(inner_target, (1, 2))
    ratio = ad.div(num, den, eps=EPSILON)
    return ad.sub(theta, ratio)


def per_sample_terms(a_tgt: dict[str, Tensor], a_conf: dict[str, Tensor],
                     conf: np.ndarray, config: IcascConfig,
                     context: Optional[ObjectiveContext] = None
                     ) -> tuple[dict[str, Tensor], Tensor, ObjectiveContext]:
    """Separation at each layer of ``a_conf`` and consistency, per sample.

    ``a_tgt`` holds the target maps at both layers; ``a_conf`` the maps of
    the confusing classes ``conf`` at the layers whose separation is wanted.
    The region masks come from the last-layer target attention, and a
    sample is kept when that attention carries at least ``SKIP_THRESHOLD``
    mass.  With ``context`` those detached quantities are reused instead.
    The terms are not yet multiplied by the keep selector:
    ``({layer: L_AS}, L_AC, context)``.
    """
    if context is None:
        last = a_tgt["last"].data
        keep = last.sum(axis=(1, 2)) >= SKIP_THRESHOLD
        context = ObjectiveContext(
            conf, region_mask(last, config),
            region_mask(last, config, at_hw=a_tgt["inner"].shape[1:]),
            keep.astype(np.float64))
    masks = {"last": context.mask_last, "inner": context.mask_inner}
    las = {layer: separation_per_sample(a_tgt[layer], maps, masks[layer])
           for layer, maps in a_conf.items()}
    lac = consistency_per_sample(a_tgt["inner"], context.mask_inner,
                                 config.theta)
    return las, lac, context


# --------------------------------------------------------------------------
# the full objective
# --------------------------------------------------------------------------


def classification_objective(record: ForwardRecord, labels) -> LossBreakdown:
    """The classification loss alone: zero attention terms, no skipped
    sample."""
    l_c = cross_entropy(record.logits, labels)
    value = l_c.item()
    return LossBreakdown(value, 0.0, 0.0, 0.0, value,
                         np.zeros(len(labels), dtype=bool), l_c)


def icasc_objective(record: ForwardRecord, labels, config: IcascConfig,
                    context: Optional[ObjectiveContext] = None) -> LossBreakdown:
    """Classification loss plus the three attention terms, each times its
    ``weight_*``.

    Attention for the ground-truth and the confusing class is computed at
    the inner and last tracked layers with gradients that stay on the tape,
    so the whole objective is differentiable end to end.

    With ``context`` the detached quantities (masks, confusing classes,
    skip selection) are reused instead of recomputed; the returned
    breakdown always carries the context it used.
    """
    l_c = cross_entropy(record.logits, labels)
    conf = context.conf if context else confusing_class(record.probabilities,
                                                        labels)
    a_conf = class_attention(record, conf, config.mechanism, create_graph=True)
    a_tgt = class_attention(record, labels, config.mechanism, create_graph=True)
    las, lac, ctx = per_sample_terms(a_tgt, a_conf, conf, config, context)

    # per-sample (L_AS_last, L_AS_inner, L_AC); the keep selector zeroes the
    # terms of a sample it skips
    keep_t = Tensor(ctx.keep)
    terms = [ad.mul(term, keep_t) for term in (las["last"], las["inner"], lac)]
    kept = int(np.count_nonzero(ctx.keep))
    if kept == 0:
        # nothing kept: no attention graph for the final backward to walk
        t_las_la = t_las_in = t_lac = Tensor(0.0)
    else:
        t_las_la, t_las_in, t_lac = (ad.mul(ad.reduce_sum(term), 1.0 / kept)
                                     for term in terms)

    weighted = {"L_AS_inner": (t_las_in, config.weight_as_inner),
                "L_AS_last": (t_las_la, config.weight_as_last),
                "L_AC": (t_lac, config.weight_ac)}
    total = l_c
    for term, weight in weighted.values():
        term = term if weight == 1.0 else ad.mul(term, weight)
        total = ad.add(total, term)

    items = {"L_C": l_c.item(),
             **{name: term.item() for name, (term, _) in weighted.items()},
             "total": total.item()}
    for name, value in items.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite loss term {name}={value} "
                                 f"(all terms: {items})")

    return LossBreakdown(*items.values(), ctx.keep == 0, total, ctx)
