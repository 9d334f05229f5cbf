"""Shared test fixtures: hand-built linear records and tiny models."""

from __future__ import annotations

import numpy as np

from icasc import autodiff as ad
from icasc.autodiff import Tape, Tensor
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
               n_classes: int = 3) -> Model:
    cfg = ModelConfig(channels=channels, input_size=size, input_channels=1,
                      n_classes=n_classes)
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
