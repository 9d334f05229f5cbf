import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icasc import autodiff as ad
from icasc import data as dio
from icasc import gradcheck, nn
from icasc.attention import LAYERS, class_gradients
from icasc.autodiff import Tape, Tensor, backward
from icasc.losses import IcascConfig, icasc_objective
from icasc.nn import (ConfigError, ForwardRecord, Model, ModelConfig,
                      NumericalError, SgdOptimizer, cross_entropy,
                      lr_schedule)
from icasc.training import TrainConfig, train

import oracles
from helpers import check_model_gradient, plant_exp_fault, tiny_model


# --------------------------------------------------------------------------
# build_model
# --------------------------------------------------------------------------


def test_parameter_count_closed_form():
    cfg = ModelConfig(channels=(16, 32, 64), input_size=32, input_channels=3,
                      n_classes=10)
    model = Model.build(cfg, seed=0)
    # conv blocks: (out*in*3*3 + out) each; head: 64*10 + 10
    expected = (16 * 3 * 9 + 16) + (32 * 16 * 9 + 32) + (64 * 32 * 9 + 64) \
        + (64 * 10 + 10)
    assert sum(p.size for p in model.params.values()) == expected


def test_same_seed_bit_identical():
    a = tiny_model(7)
    b = tiny_model(7)
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_one_block_config_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(channels=(16,), input_size=32, input_channels=1, n_classes=4)


@pytest.mark.parametrize("field", ["input_channels", "n_classes"])
def test_zero_input_channels_or_classes_rejected(field):
    with pytest.raises(ConfigError):
        ModelConfig(**{"channels": (4, 8), "input_size": 8, "input_channels": 1,
                       "n_classes": 3, field: 0})


def test_odd_spatial_size_at_a_pooling_stage_rejected():
    # 12 -> 6 -> 3: the third block's 2x2 pool gets an odd map
    with pytest.raises(ConfigError, match="spatial size 3 not divisible"):
        ModelConfig(channels=(4, 8, 16), input_size=12, input_channels=1,
                    n_classes=3)


def test_too_small_spatial_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(channels=(4, 8, 16), input_size=8, input_channels=1,
                    n_classes=3)


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------


def test_zero_head_uniform_softmax():
    model = tiny_model()
    model.params["head.w"][:] = 0.0
    model.params["head.b"][:] = 0.0
    record = model.forward(np.random.default_rng(0).random((2, 1, 8, 8)))
    assert np.allclose(record.logits.data, 0.0)
    assert np.allclose(record.probabilities, 1.0 / 3.0)


def test_identical_images_identical_rows():
    model = tiny_model()
    img = np.random.default_rng(1).random((1, 1, 8, 8))
    record = model.forward(np.concatenate([img, img]))
    assert np.array_equal(record.logits.data[0], record.logits.data[1])


def test_inner_spatial_is_twice_last():
    model = tiny_model()
    record = model.forward(np.zeros((1, 1, 8, 8)))
    ih, iw = record.feats["inner"].shape[2:]
    lh, lw = record.feats["last"].shape[2:]
    assert (ih, iw) == (2 * lh, 2 * lw)


def test_tracked_feats_non_negative():
    model = tiny_model(3)
    record = model.forward(np.random.default_rng(2).random((4, 1, 8, 8)))
    assert record.feats["inner"].data.min() >= 0
    assert record.feats["last"].data.min() >= 0


def test_probabilities_sum_to_one():
    model = tiny_model(4)
    record = model.forward(np.random.default_rng(3).random((5, 1, 8, 8)))
    assert np.max(np.abs(record.probabilities.sum(axis=1) - 1.0)) < 1e-9


def oracle_forward(params, images, n_blocks):
    """The model's forward pass from the loop oracles: conv + bias, ReLU and
    max pool per block, then global average pooling, matmul and the bias."""
    x = images
    feats = {}
    for i in range(n_blocks):
        w = params[f"block{i}.w"]
        x = oracles.conv2d_loops(x, w, padding=w.shape[2] // 2) \
            + params[f"block{i}.b"][None, :, None, None]
        x = oracles.maxpool_loops(np.maximum(x, 0.0))
        feats["inner" if i == n_blocks - 2 else "last"] = x
    logits = oracles.matmul_loops(oracles.gap_loops(x), params["head.w"]) \
        + params["head.b"]
    return logits, feats


@pytest.mark.parametrize("taped, kernel_size", [
    pytest.param(taped, k, id=("taped" if taped else "untaped")
                 + ("" if k == 3 else f"-k{k}"))
    for k in (1, 3, 5) for taped in (False, True)])
def test_forward_vs_loop_oracle(taped, kernel_size):
    rng = np.random.default_rng(8)
    model = tiny_model(5, kernel_size=kernel_size)
    for name in model.params:
        if name.endswith(".b"):
            model.params[name] = rng.normal(0.0, 0.1, model.params[name].shape)
    images = rng.random((2, 1, 8, 8))
    record = model.forward(images, tape=Tape() if taped else None)
    logits, feats = oracle_forward(model.params, images, model.config.n_blocks)
    assert (record.logits.node is not None) == taped
    assert np.max(np.abs(record.logits.data - logits)) < 1e-12
    for layer in ("inner", "last"):
        assert np.max(np.abs(record.feats[layer].data - feats[layer])) < 1e-12


def relu_then_pool_forward(model, images, tape):
    """``Model.forward`` with each block built in the order ReLU, then max
    pool; returns the record and each block's pre-activation tensor."""
    leaves = {name: tape.leaf(arr) for name, arr in model.params.items()}
    n_blocks = model.config.n_blocks
    x = Tensor(images)
    feats, pre = {}, []
    for i in range(n_blocks):
        x = ad.conv2d(x, leaves[f"block{i}.w"])
        x = ad.add(x, ad.broadcast_axes(leaves[f"block{i}.b"], x.shape,
                                        (0, 2, 3)))
        pre.append(x)
        x = ad.maxpool2d(ad.relu(x))
        feats["inner" if i == n_blocks - 2 else "last"] = x
    logits = ad.matmul(ad.reduce_mean(x, (2, 3)), leaves["head.w"])
    logits = ad.add(logits, ad.broadcast_axes(leaves["head.b"], logits.shape,
                                              (0,)))
    return ForwardRecord(logits, nn.softmax(logits.data), feats, leaves), pre


def test_forward_pools_before_relu():
    model = tiny_model(2)
    tape = Tape()
    model.forward(np.random.default_rng(4).random((2, 1, 8, 8)), tape=tape)
    relus = [node for node in tape.nodes if node.kind == "relu"]
    assert len(relus) == model.config.n_blocks
    for node in relus:
        pooled = tape.nodes[node.inputs[0][0]]
        assert pooled.kind == "pool_gather"
        assert tape.nodes[pooled.inputs[0][0]].kind == "conv2d"


def test_forward_from_inner_tapes_only_what_follows_the_inner_features():
    """With ``from_inner`` the tape's one leaf is the inner features, not a
    copy of them: no parameter is a leaf and the blocks before are untaped.
    Values and class gradients toward both layers are the full tape's."""
    model = Model.build(ModelConfig(channels=(2, 4, 8), input_size=16,
                                    input_channels=1, n_classes=3), 3)
    images = np.random.default_rng(6).random((5, 1, 16, 16))
    selector = np.array([0, 1, 2, 0, 1])
    full = model.forward(images, tape=Tape())
    tape = Tape()
    lean = model.forward(images, tape=tape, from_inner=True)
    kinds = [node.kind for node in tape.nodes]
    assert lean.param_leaves == {}
    assert kinds.count("leaf") == 1
    assert tape.nodes[0].value is lean.feats["inner"].data
    assert kinds.count("conv2d") == 1                 # the last block's
    assert lean.logits.data.tobytes() == full.logits.data.tobytes()
    assert lean.probabilities.tobytes() == full.probabilities.tobytes()
    got = class_gradients(lean, selector, LAYERS)
    want = class_gradients(full, selector, LAYERS)
    for layer in LAYERS:
        assert lean.feats[layer].data.tobytes() == \
            full.feats[layer].data.tobytes()
        assert got[layer].data.tobytes() == want[layer].data.tobytes()
    with pytest.raises(ValueError):
        model.forward(images, from_inner=True)


def test_pool_then_relu_matches_relu_then_pool():
    """Max commutes with ReLU: the values are byte-equal and every parameter
    gradient of the objective is equal.  Negative biases give windows with
    no positive pre-activation; under a negative upstream gradient the old
    order leaves -0.0 in their pre-activation gradient, the new one +0.0."""
    rng = np.random.default_rng(9)
    model = Model.build(ModelConfig(channels=(4, 8), input_size=16,
                                    input_channels=1, n_classes=3), 1)
    for name in ("block0.b", "block1.b"):
        model.params[name] = rng.normal(-0.3, 0.3, model.params[name].shape)
    images = rng.normal(0.0, 1.0, (6, 1, 16, 16))
    labels = np.array([0, 1, 2, 0, 1, 2])
    config = IcascConfig()

    tape = Tape()
    new = model.forward(images, tape=tape)
    # the new order's pre-activations are the inputs of its pool nodes
    new_pre = [Tensor(tape.nodes[node.inputs[0][0]].value, tape,
                      node.inputs[0][0], _own=True)
               for node in tape.nodes if node.kind == "pool_gather"]
    old, old_pre = relu_then_pool_forward(model, images, Tape())
    assert new.logits.data.tobytes() == old.logits.data.tobytes()
    for layer in ("inner", "last"):
        assert new.feats[layer].data.tobytes() == old.feats[layer].data.tobytes()

    new_bd = icasc_objective(new, labels, config)
    old_bd = icasc_objective(old, labels, config)
    assert new_bd.total == old_bd.total
    assert not new_bd.skip_flags.all()
    new_g = backward(new_bd.total_tensor,
                     [*new.param_leaves.values(), *new_pre])
    old_g = backward(old_bd.total_tensor,
                     [*old.param_leaves.values(), *old_pre])
    for name in model.params:
        assert np.array_equal(new_g[new.param_leaves[name].node].data,
                              old_g[old.param_leaves[name].node].data), name
    for a, b in zip(new_pre, old_pre):
        ga, gb = new_g[a.node].data, old_g[b.node].data
        assert np.array_equal(ga, gb)
        assert np.any((gb == 0) & np.signbit(gb))          # the -0.0 case
        assert not np.any((ga == 0) & np.signbit(ga))


def test_forward_shape_mismatch():
    model = tiny_model()
    with pytest.raises(ad.ShapeError):
        model.forward(np.zeros((1, 3, 8, 8)))


# --------------------------------------------------------------------------
# classification losses
# --------------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss = cross_entropy(logits, np.array([0, 1, 3]))
    assert abs(loss.item() - np.log(4.0)) < 1e-12


def test_cross_entropy_confident_limit():
    logits = Tensor(np.array([[500.0, 0.0]]))
    loss = cross_entropy(logits, np.array([0]))
    assert loss.item() < 1e-12


def test_cross_entropy_vs_extended_precision_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((6, 5)) * 3
    labels = rng.integers(0, 5, size=6)
    ours = cross_entropy(Tensor(logits), labels).item()
    assert abs(ours - oracles.cross_entropy_mp(logits, labels)) < 1e-10


def test_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((4, 6))
    p1 = nn.softmax(logits)
    p2 = nn.softmax(logits + 123.456)
    assert np.max(np.abs(p1 - p2)) < 1e-12


def lc_gradient_check():
    labels = np.array([0, 2])
    return check_model_gradient(
        tiny_model(9), np.random.default_rng(8).random((2, 1, 8, 8)),
        lambda r: cross_entropy(r.logits, labels), np.random.default_rng(0),
        checks=10)


def test_classification_loss_gradient_fd():
    result = lc_gradient_check()
    assert result.outcome == gradcheck.OK, result


def test_lc_gradient_check_catches_a_planted_exp_fault(monkeypatch):
    plant_exp_fault(monkeypatch)
    result = lc_gradient_check()
    assert result.outcome == gradcheck.WRONG_GRADIENT, result


# --------------------------------------------------------------------------
# optimizer and schedules
# --------------------------------------------------------------------------


def test_sgd_plain_step():
    opt = SgdOptimizer(momentum=0.0, weight_decay=0.0)
    params = {"p": np.array([1.0])}
    opt.step(params, {"p": np.array([1.0])}, lr=0.1)
    assert np.allclose(params["p"], [0.9])


def test_sgd_momentum_two_steps():
    opt = SgdOptimizer(momentum=0.9, weight_decay=0.0)
    params = {"p": np.array([0.0])}
    opt.step(params, {"p": np.array([1.0])}, lr=1.0)
    assert np.allclose(params["p"], [-1.0])
    opt.step(params, {"p": np.array([1.0])}, lr=1.0)
    assert np.allclose(params["p"], [-2.9])


def test_sgd_weight_decay_only():
    opt = SgdOptimizer(momentum=0.0, weight_decay=0.1)
    params = {"p": np.array([1.0])}
    opt.step(params, {"p": np.array([0.0])}, lr=1.0)
    assert np.allclose(params["p"], [0.9])


def test_sgd_rejects_non_finite_gradient():
    opt = SgdOptimizer(momentum=0.9, weight_decay=0.0)
    with pytest.raises(NumericalError):
        opt.step({"p": np.array([1.0])}, {"p": np.array([np.nan])}, lr=0.1)


@pytest.mark.parametrize("bad, warm", [("b", False), ("c", True)],
                         ids=["nan_fresh", "inf_warm"])
def test_sgd_non_finite_gradient_updates_no_param(bad, warm):
    """Every gradient is checked before the first update, so the params
    before ``bad`` keep their values, and no velocity is made or moved."""
    opt = SgdOptimizer(momentum=0.9, weight_decay=0.1)
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0]),
              "c": np.array([[4.0]])}
    if warm:
        opt.step(params, {name: np.ones_like(p) for name, p in params.items()},
                 lr=0.1)
    before = {name: p.tobytes() for name, p in params.items()}
    velocity = {name: v.tobytes() for name, v in opt.velocity.items()}
    grads = {name: np.full_like(p, 0.5) for name, p in params.items()}
    grads[bad] = np.full_like(params[bad], np.nan if bad == "b" else np.inf)
    with pytest.raises(NumericalError, match=f"'{bad}'"):
        opt.step(params, grads, lr=0.1)
    assert {name: p.tobytes() for name, p in params.items()} == before
    assert {name: v.tobytes() for name, v in opt.velocity.items()} == velocity
    assert len(velocity) == (3 if warm else 0)


def test_step_schedule_milestones():
    assert lr_schedule("step", 100, 160, 0.1, (81, 122)) == pytest.approx(0.01)
    assert lr_schedule("step", 80, 160, 0.1, (81, 122)) == pytest.approx(0.1)
    assert lr_schedule("step", 130, 160, 0.1, (81, 122)) == pytest.approx(0.001)


def test_cosine_schedule_endpoints():
    assert lr_schedule("cosine", 0, 20, 0.4) == pytest.approx(0.4)
    assert lr_schedule("cosine", 10, 20, 0.4) == pytest.approx(0.2)


def test_unknown_schedule_kind():
    with pytest.raises(ValueError):
        lr_schedule("linear", 0, 10, 0.1)


def test_one_sgd_step_decreases_loss():
    for seed in range(5):
        model = tiny_model(seed)
        rng = np.random.default_rng(100 + seed)
        images = rng.random((8, 1, 8, 8))
        labels = rng.integers(0, 3, size=8)

        def loss_value():
            record = model.forward(images)
            return cross_entropy(record.logits, labels).item()

        before = loss_value()
        tape = Tape()
        record = model.forward(images, tape=tape)
        loss = cross_entropy(record.logits, labels)
        grads = backward(loss, list(record.param_leaves.values()))
        opt = SgdOptimizer(momentum=0.0, weight_decay=0.0)
        opt.step(model.params,
                 {n: grads[l.node].data for n, l in record.param_leaves.items()},
                 lr=1e-3)
        assert loss_value() < before


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model(11)
    path = tmp_path / "m.ckpt"
    nn.save_checkpoint(path, model, {"epoch": 3})
    loaded, header = nn.load_checkpoint(path)
    assert header["epoch"] == 3
    assert loaded.config == model.config
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])


def test_failed_save_leaves_previous_checkpoint(tmp_path, monkeypatch):
    model = tiny_model(11)
    path = tmp_path / "final.ckpt"
    nn.save_checkpoint(path, model, {"epoch": 0})
    before = path.read_bytes()
    real_write = nn._write_array
    written = []

    def failing_write(fh, name, arr):
        written.append(name)
        if len(written) == 3:
            raise OSError("disk full")
        real_write(fh, name, arr)

    monkeypatch.setattr(nn, "_write_array", failing_write)
    with pytest.raises(OSError):
        nn.save_checkpoint(path, tiny_model(12), {"epoch": 1})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    _, header = nn.load_checkpoint(path)
    assert header["epoch"] == 0


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("section", ["parameter", "velocity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_checkpoint_with_a_non_finite_value_is_data_error(tmp_path, section,
                                                          bad):
    model = tiny_model(11)
    velocity = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    arrays = model.params if section == "parameter" else velocity
    arrays["block0.w"].flat[3] = bad
    path = tmp_path / "m.ckpt"
    nn.save_checkpoint(path, model, {"epoch": 0}, velocity)
    with pytest.raises(dio.DataError, match=rf"m.ckpt: {section} 'block0.w' "
                                            "holds NaN or inf"):
        nn.load_checkpoint(path)


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """The bytes of a trained final.ckpt, velocities included, and a path
    to write damaged copies to."""
    root = tmp_path_factory.mktemp("fuzz")
    dio.generate_synth(dio.SynthSpec(n_classes=3, canvas=16, motif_size=3,
                                     seed=4), 4, root / "d")
    train(TrainConfig(data_dir=str(root / "d"), out_dir=str(root / "r"),
                      epochs=1, batch_size=8, channels=(4, 8), lr=0.01))
    blob = (root / "r" / "final.ckpt").read_bytes()
    assert nn.load_checkpoint(root / "r" / "final.ckpt")[1]["velocity"]
    return blob, root / "damaged.ckpt"


def _loads_or_data_error(path) -> None:
    try:
        nn.load_checkpoint(path)
    except dio.DataError:
        pass


@settings(max_examples=150, deadline=None)
@given(cut=st.data())
def test_truncated_checkpoint_loads_or_is_data_error(trained_checkpoint, cut):
    blob, path = trained_checkpoint
    path.write_bytes(blob[:cut.draw(st.integers(0, len(blob) - 1))])
    _loads_or_data_error(path)


@settings(max_examples=300, deadline=None)
@given(flip=st.data())
def test_bit_flipped_checkpoint_loads_or_is_data_error(trained_checkpoint, flip):
    blob, path = trained_checkpoint
    bit = flip.draw(st.integers(0, 8 * len(blob) - 1))
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(damaged))
    _loads_or_data_error(path)


def test_train_state_roundtrip(tmp_path):
    # the training state, the optimizer velocities, rides in the checkpoint
    model = tiny_model(11)
    rng = np.random.default_rng(0)
    velocity = {name: rng.normal(size=p.shape) for name, p in model.params.items()}
    path = tmp_path / "m.ckpt"
    nn.save_checkpoint(path, model, {"epoch": 5}, velocity)
    loaded, header = nn.load_checkpoint(path)
    assert header["epoch"] == 5
    assert header["velocity"].keys() == velocity.keys()
    for name, v in velocity.items():
        assert header["velocity"][name].tobytes() == v.tobytes()
        assert loaded.params[name].tobytes() == model.params[name].tobytes()
