import numpy as np
import pytest

from icasc import autodiff as ad
from icasc import gradcheck
from icasc.attention import (a_ch, class_attention, class_gradients,
                             compute_attention, grad_cam)
from icasc.autodiff import Tape, Tensor
from icasc.nn import Model

import oracles
from helpers import check_model_gradient, linear_record, tiny_model


# --------------------------------------------------------------------------
# class_gradients
# --------------------------------------------------------------------------


def test_linear_toy_gradient_equals_weights():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 3))
    for trial in range(3):
        tape = Tape()
        feats = {"last": rng.random((1, 2, 2, 2))}
        record = linear_record(tape, feats, {"last": w})
        g = class_gradients(record, [1], ("last",))["last"]
        assert np.allclose(g.data.reshape(-1), w[:, 1], atol=1e-12)


def test_batched_gradients_match_per_sample():
    model = tiny_model(1)
    rng = np.random.default_rng(2)
    images = rng.random((2, 1, 8, 8))
    classes = np.array([0, 2])

    tape = Tape()
    record = model.forward(images, tape=tape)
    batched = class_gradients(record, classes, ("last",))["last"].data

    for i in range(2):
        t = Tape()
        r = model.forward(images[i:i + 1], tape=t)
        single = class_gradients(r, classes[i:i + 1], ("last",))["last"].data
        assert np.allclose(batched[i], single[0], atol=1e-12)


def test_zero_head_row_zero_gradient():
    model = tiny_model(3)
    model.params["head.w"][:, 1] = 0.0
    model.params["head.b"][1] = 0.0
    tape = Tape()
    record = model.forward(np.random.default_rng(3).random((1, 1, 8, 8)),
                           tape=tape)
    g = class_gradients(record, [1], ("last",))["last"]
    assert np.allclose(g.data, 0.0, atol=0)


def test_untracked_layer_rejected():
    model = tiny_model()
    tape = Tape()
    record = model.forward(np.zeros((1, 1, 8, 8)), tape=tape)
    with pytest.raises(KeyError):
        class_gradients(record, [0], ("conv7",))


# --------------------------------------------------------------------------
# grad_cam
# --------------------------------------------------------------------------


def test_grad_cam_hand_example():
    f = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    g = np.array([[[[1.0, -1.0], [1.0, 1.0]]]])
    amap = grad_cam(Tensor(f), Tensor(g))
    assert np.allclose(amap.data[0], [[0.5, 1.0], [1.5, 2.0]])


def test_grad_cam_all_negative_gradients():
    f = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    g = -np.ones((1, 1, 2, 2))
    amap = grad_cam(Tensor(f), Tensor(g))
    assert np.array_equal(amap.data, np.zeros((1, 2, 2)))


def test_grad_cam_linear_in_gradients():
    rng = np.random.default_rng(4)
    f = np.abs(rng.random((1, 3, 4, 4)))
    g = np.abs(rng.random((1, 3, 4, 4)))  # positive so ReLU stays inactive
    m1 = grad_cam(Tensor(f), Tensor(g)).data
    m2 = grad_cam(Tensor(f), Tensor(3.0 * g)).data
    assert np.allclose(m2, 3.0 * m1, atol=1e-12)


# --------------------------------------------------------------------------
# a_ch
# --------------------------------------------------------------------------


def test_a_ch_hand_example():
    f = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    g = np.array([[[[1.0, -1.0], [1.0, 1.0]]]])
    amap = a_ch(Tensor(f), Tensor(g))
    assert np.allclose(amap.data[0], [[0.75, 1.5], [2.25, 3.0]])


def test_a_ch_all_negative_gradients_zero_map():
    f = np.random.default_rng(5).random((1, 2, 3, 3))
    g = -np.abs(np.random.default_rng(6).random((1, 2, 3, 3)))
    amap = a_ch(Tensor(f), Tensor(g))
    assert np.array_equal(amap.data, np.zeros((1, 3, 3)))


def test_a_ch_nonneg_features_weighted_sum_exact():
    rng = np.random.default_rng(7)
    f = np.abs(rng.random((2, 3, 4, 4)))
    g = rng.standard_normal((2, 3, 4, 4))
    amap = a_ch(Tensor(f), Tensor(g)).data
    w = np.maximum(g, 0.0).sum(axis=(2, 3))
    direct = (w[:, :, None, None] * f).sum(axis=1) / 16.0
    assert np.allclose(amap, direct, atol=1e-14)


def test_mechanisms_vs_formula_oracles():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = rng.random((1, 3, 3, 3))
        g = rng.standard_normal((1, 3, 3, 3))
        assert np.max(np.abs(grad_cam(Tensor(f), Tensor(g)).data[0]
                             - oracles.grad_cam_formula(f[0], g[0]))) < 1e-12
        assert np.max(np.abs(a_ch(Tensor(f), Tensor(g)).data[0]
                             - oracles.a_ch_formula(f[0], g[0]))) < 1e-12


# The head is global average pooling plus a linear layer, so the class
# gradient at the last layer is head.w[:, c] / (H*W) at every pixel and the
# last-layer maps are closed-form CAMs (Zhou et al. 2016).
CAM_CLOSED_FORMS = {
    "a-ch": lambda w, f: np.maximum(
        np.einsum("nk,nkhw->nhw", np.maximum(w, 0.0), f), 0.0),
    "grad-cam": lambda w, f: np.maximum(np.einsum("nk,nkhw->nhw", w, f), 0.0),
}


@pytest.mark.parametrize("mechanism", sorted(CAM_CLOSED_FORMS))
def test_last_layer_maps_are_closed_form_cams(mechanism):
    """Within 1e-12 of each sample's largest map value.  The a-ch map is
    the one training takes, from ``class_attention``; the grad-cam map is
    built as ``attend`` builds it, from the class gradients."""
    model = tiny_model(5, channels=(4, 8), size=8, n_classes=3)
    images = np.random.default_rng(5).random((6, 1, 8, 8))
    classes = np.array([0, 1, 2, 2, 1, 0])
    record = model.forward(images, tape=Tape())
    if mechanism == "a-ch":
        amap = class_attention(record, classes, create_graph=False)["last"]
    else:
        grads = class_gradients(record, classes, ("last",))["last"]
        amap = compute_attention(mechanism, record.feats["last"], grads)
    feats = record.feats["last"].data
    h, w = feats.shape[2:]
    weights = model.params["head.w"][:, classes].T               # (N, K)
    ref = CAM_CLOSED_FORMS[mechanism](weights, feats) / (h * w)
    assert ref.max(axis=(1, 2)).min() > 0.0
    scale = ref.max(axis=(1, 2), keepdims=True)
    assert np.max(np.abs(amap.data - ref) / scale) <= 1e-12


def test_unknown_mechanism():
    with pytest.raises(ValueError):
        compute_attention("cam", Tensor(np.zeros((1, 1, 2, 2))),
                          Tensor(np.zeros((1, 1, 2, 2))))


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------


def test_maps_always_non_negative():
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = rng.standard_normal((1, 2, 3, 3))
        g = rng.standard_normal((1, 2, 3, 3))
        assert grad_cam(Tensor(f), Tensor(g)).data.min() >= 0.0
        assert a_ch(Tensor(f), Tensor(g)).data.min() >= 0.0


def test_positive_homogeneity_in_logit():
    """Scaling the selected class's head row by c scales the a_ch map by c."""
    model = tiny_model(10)
    images = np.random.default_rng(10).random((1, 1, 8, 8))

    def map_for(scale):
        m = Model(model.config, {k: v.copy() for k, v in model.params.items()})
        m.params["head.w"][:, 0] *= scale
        m.params["head.b"][0] *= scale
        tape = Tape()
        record = m.forward(images, tape=tape)
        g = class_gradients(record, [0], ("last",))["last"]
        return a_ch(record.feats["last"], g).data

    base = map_for(1.0)
    assert np.allclose(map_for(3.0), 3.0 * base, rtol=1e-12, atol=1e-14)


def test_a_ch_ignores_negative_gradient_pixels():
    rng = np.random.default_rng(11)
    f = rng.random((1, 3, 4, 4))
    g = rng.standard_normal((1, 3, 4, 4))
    base = a_ch(Tensor(f), Tensor(g)).data
    neg = np.flatnonzero(g.ravel() < 0)
    zeroed = g.copy().ravel()
    zeroed[rng.choice(neg, size=len(neg) // 2, replace=False)] = 0.0
    assert np.array_equal(a_ch(Tensor(f), Tensor(zeroed.reshape(g.shape))).data,
                          base)


def test_grad_cam_a_ch_agree_single_channel_positive():
    rng = np.random.default_rng(12)
    f = rng.random((1, 1, 3, 3))
    g = np.abs(rng.random((1, 1, 3, 3)))
    gc = grad_cam(Tensor(f), Tensor(g)).data
    ac = a_ch(Tensor(f), Tensor(g)).data
    assert np.allclose(gc, ac, atol=1e-14)


def test_map_sum_differentiable_wrt_parameters():
    """End-to-end double-backprop: d(sum of a_ch map)/d(params) vs FD."""
    def map_sum(r):
        g = class_gradients(r, [0], ("last",), create_graph=True)["last"]
        return ad.reduce_sum(a_ch(r.feats["last"], g))

    result = check_model_gradient(
        tiny_model(13), np.random.default_rng(13).random((1, 1, 8, 8)), map_sum,
        np.random.default_rng(1), checks=8)
    assert result.outcome == gradcheck.OK, result
