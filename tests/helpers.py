"""Shared test fixtures: hand-built linear records and tiny models."""

from __future__ import annotations

import numpy as np

from icasc import autodiff as ad
from icasc.autodiff import Tape, Tensor, backward
from icasc.gradcheck import check_gradient
from icasc.nn import ForwardRecord, Model, ModelConfig, softmax


def linear_record(tape: Tape, feat_arrays: dict, weights: dict) -> ForwardRecord:
    """A toy record whose logits are sums of w . flatten(F) over layers.

    The per-class gradient w.r.t. each feature map is then the
    corresponding weight column, independent of the feature values, which
    makes hand evaluation trivial.
    """
    feats = {}
    logits = None
    n = next(iter(feat_arrays.values())).shape[0]
    for layer, arr in feat_arrays.items():
        f = tape.leaf(np.asarray(arr, dtype=np.float64))
        feats[layer] = f
        flat = ad.reshape(f, (n, arr[0].size))
        piece = ad.matmul(flat, Tensor(weights[layer]))
        logits = piece if logits is None else ad.add(logits, piece)
    return ForwardRecord(logits=logits, probabilities=softmax(logits.data),
                         feats=feats,
                         param_leaves={})


def tiny_model(seed: int = 0, channels=(4, 8), size: int = 8,
               n_classes: int = 3, kernel_size: int = 3) -> Model:
    cfg = ModelConfig(channels=channels, input_size=size, input_channels=1,
                      n_classes=n_classes, kernel_size=kernel_size)
    return Model.build(cfg, seed)


def count_forwards(monkeypatch) -> list[bool]:
    """Spy on ``Model.forward``: each call appends whether it was taped."""
    calls = []
    forward = Model.forward

    def spy(self, *args, **kwargs):
        calls.append(kwargs.get("tape") is not None)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", spy)
    return calls


def check_model_gradient(model: Model, images, scalar, rng, checks: int):
    """``check_gradient`` of ``scalar(record)`` over the parameters of
    ``model``, ``record`` being its taped forward of ``images``."""
    def value(params):
        t = Tape()
        return (scalar(Model(model.config, params).forward(images, tape=t)).item(),
                t.kink_signature())

    record = model.forward(images, tape=Tape())
    grads = backward(scalar(record), list(record.param_leaves.values()))
    return check_gradient(value, model.params, {
        name: grads[leaf.node].data for name, leaf in record.param_leaves.items()},
        rng, checks)


def plant_exp_fault(monkeypatch) -> None:
    """Scale the adjoint of ``exp`` by 1.001: a planted wrong gradient."""
    rule = ad._RULES["exp"]

    def faulty(node, g, inputs, out, need):
        return [ad.mul(adj, 1.001) for adj in rule(node, g, inputs, out, need)]

    monkeypatch.setitem(ad._RULES, "exp", faulty)
