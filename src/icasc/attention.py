"""Gradient-based class-specific attention maps.

Two mechanisms over a feature map F (N, C, H, W) and the gradient G of a
class score with respect to F:

* ``grad_cam``: per-channel weight = spatial mean of G, map = ReLU of the
  weighted channel sum.
* ``a_ch`` (channel-weighted): per-channel weight = spatial sum of the
  positive part of G, map = ReLU of the weighted sum divided by the pixel
  count.  Ignoring negative gradient pixels is what keeps the map stable
  across layers.

Each map is an (N, H, W) :class:`Tensor`, one non-negative plane per
sample.  Both are built from differentiable ops, so with ``create_graph``
gradients the maps can sit inside a training objective (double
backpropagation).
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .nn import ForwardRecord, one_hot

MECHANISMS = ("grad-cam", "a-ch")
LAYERS = ("inner", "last")


def class_gradients(record: ForwardRecord, selector, layers,
                    create_graph: bool = False) -> dict[str, Tensor]:
    """Per-sample gradients of the selected logits w.r.t. tracked layers.

    ``selector`` holds one class id per sample.  Because the forward pass
    has no batch-coupling ops, the gradient of the summed selected logits
    equals the stack of per-sample single-logit gradients, so one backward
    pass serves the whole batch and every layer.
    """
    for layer in layers:
        if layer not in record.feats:
            raise KeyError(f"layer '{layer}' is not tracked in this record")
    hot = one_hot(selector, record.logits.shape[1])
    root = ad.reduce_sum(ad.mul(record.logits, Tensor(hot)))
    feats = [record.feats[layer] for layer in layers]
    grads = ad.backward(root, feats, create_graph=create_graph)
    return {layer: grads[f.node] for layer, f in zip(layers, feats)}


def _check_pair(features: Tensor, gradients: Tensor):
    if features.ndim != 4 or features.shape != gradients.shape:
        raise ad.ShapeError(f"features {features.shape} and gradients "
                            f"{gradients.shape} must both be (N, C, H, W)")


def grad_cam(features: Tensor, gradients: Tensor) -> Tensor:
    """ReLU(sum_k alpha_k F_k) with alpha_k the spatial mean of G_k."""
    _check_pair(features, gradients)
    alpha = ad.reduce_mean(gradients, (2, 3))                     # (N, C)
    weighted = ad.mul(ad.broadcast_axes(alpha, features.shape, (2, 3)), features)
    return ad.relu(ad.reduce_sum(weighted, (1,)))                 # (N, H, W)


def a_ch(features: Tensor, gradients: Tensor) -> Tensor:
    """Channel-weighted attention: weights are sums of positive gradients.

    The 1/Z pixel-count factor is applied outside the ReLU, matching the
    definition; since 1/Z > 0 the two placements agree.
    """
    _check_pair(features, gradients)
    h, w = features.shape[2:]
    pos = ad.reduce_sum(ad.relu(gradients), (2, 3))               # (N, C)
    weighted = ad.mul(ad.broadcast_axes(pos, features.shape, (2, 3)), features)
    pre = ad.reduce_sum(weighted, (1,))                           # (N, H, W)
    return ad.mul(ad.relu(pre), 1.0 / (h * w))


def compute_attention(mechanism: str, features: Tensor,
                      gradients: Tensor) -> Tensor:
    """The (N, H, W) map of ``mechanism`` for features and their gradients."""
    if mechanism == "grad-cam":
        return grad_cam(features, gradients)
    if mechanism == "a-ch":
        return a_ch(features, gradients)
    raise ValueError(f"unknown attention mechanism '{mechanism}' "
                     f"(expected one of {MECHANISMS})")


def class_attention(record: ForwardRecord, selector, mechanism: str,
                    create_graph: bool, layers=LAYERS) -> dict[str, Tensor]:
    """Attention maps of the selected classes at the tracked ``layers``.

    One backward serves every layer; asked for ``("last",)`` alone it stops
    at the head and never reaches a conv block.  With ``create_graph`` the
    maps stay on the tape, so a loss built from them is differentiable;
    without it the features are detached and the maps are plain values.
    """
    grads = class_gradients(record, selector, layers, create_graph)
    maps = {}
    for layer in layers:
        feats = record.feats[layer]
        maps[layer] = compute_attention(
            mechanism, feats if create_graph else feats.detach(), grads[layer])
    return maps
