import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icasc import autodiff as ad
from icasc import gradcheck
from icasc.autodiff import Tape, Tensor
from icasc.losses import (EPSILON, IcascConfig, LossBreakdown,
                          confusing_class, consistency_per_sample,
                          icasc_objective, parse_kv_file, per_sample_terms,
                          region_mask, separation_per_sample)
from icasc.attention import a_ch, grad_cam
from icasc.data import DataError
from icasc.nn import ConfigError

import helpers
import oracles


DEFAULTS = IcascConfig()


def amap(values):
    return np.asarray(values, dtype=np.float64)


# --------------------------------------------------------------------------
# config
# --------------------------------------------------------------------------


def test_default_constants_match_published_values():
    assert DEFAULTS.omega == 100.0
    assert DEFAULTS.sigma_factor == 0.55
    assert DEFAULTS.theta == 0.8


def test_config_validation():
    with pytest.raises(ConfigError):
        IcascConfig(omega=0.0)
    with pytest.raises(ConfigError):
        IcascConfig(sigma_factor=1.0)
    with pytest.raises(ConfigError):
        IcascConfig(theta=1.5)
    with pytest.raises(ConfigError):
        IcascConfig(mechanism="cam")
    for key in ("omega", "weight_as_inner", "weight_as_last", "weight_ac"):
        for value in (np.inf, np.nan):
            with pytest.raises(ConfigError, match=key):
                IcascConfig(**{key: value})
    # the division guard and the skip threshold are constants, not settings
    for key in ("epsilon", "skip_threshold"):
        with pytest.raises(TypeError, match=key):
            IcascConfig(**{key: 1e-8})


def test_config_file_roundtrip(tmp_path):
    cfg = IcascConfig(mechanism="grad-cam", omega=50.0, theta=0.7,
                      weight_ac=0.5)
    path = tmp_path / "loss.cfg"
    path.write_text(cfg.to_text() + "# trailing comment\n", encoding="utf-8")
    assert IcascConfig(**parse_kv_file(path)) == cfg


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "loss.cfg"
    path.write_text("omga = 3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_kv_file(path)


@pytest.mark.parametrize("line", ["omega 3", "omga = 3", "omega = abc",
                                  "theta = 0.9"],
                         ids=["no_equals", "unknown_key", "bad_float",
                              "repeated_key"])
def test_config_file_malformed_line_is_data_error_naming_line(tmp_path, line):
    path = tmp_path / "loss.cfg"
    path.write_text(f"theta = 0.7\n{line}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"{path}:2"):
        parse_kv_file(path)


# --------------------------------------------------------------------------
# confusing_class
# --------------------------------------------------------------------------


def test_confusing_basic():
    assert confusing_class(np.array([[0.5, 0.3, 0.2]]), np.array([0]))[0] == 1


def test_confusing_tie_lowest_id():
    assert confusing_class(np.array([[0.5, 0.25, 0.25]]), np.array([0]))[0] == 1


def test_confusing_single_class_rejected():
    with pytest.raises(ValueError):
        confusing_class(np.array([[1.0]]), np.array([0]))


def test_confusing_full_ground_truth_rejected():
    """A ground-truth set that covers every class has no confusing class;
    a label is one class id, so any (N, C) label matrix is refused."""
    with pytest.raises(ValueError, match="labels shape"):
        confusing_class(np.array([[0.5, 0.5]]), np.array([[1.0, 1.0]]))


# --------------------------------------------------------------------------
# region_mask
# --------------------------------------------------------------------------


def test_mask_midpoint_and_tails():
    m = region_mask(amap([[[0.0, 0.55, 1.0]]]), DEFAULTS)
    vals = m[0, 0]
    assert vals[1] == pytest.approx(0.5, abs=1e-12)   # at A = sigma
    assert vals[0] < 1e-20                            # sigmoid(-55)
    assert vals[2] > 1 - 1e-15                        # sigmoid(+45)


def test_mask_constant_positive_map():
    a = np.full((1, 2, 2), 0.3)
    m = region_mask(amap(a), DEFAULTS)
    expected = 1.0 / (1.0 + np.exp(-DEFAULTS.omega * (0.3 - 0.55 * 0.3)))
    assert np.allclose(m, expected, atol=1e-12)
    assert len(np.unique(m)) == 1


def test_mask_degenerate_all_zero():
    """A sample whose last-layer target map has zero mass is not kept."""
    last = np.zeros((2, 2, 2))
    last[1, 0, 0] = 1.0
    maps = {"last": Tensor(last), "inner": Tensor(np.zeros((2, 4, 4)))}
    *_, ctx = per_sample_terms(maps, maps, np.array([1, 0]), DEFAULTS)
    assert ctx.keep.tolist() == [0.0, 1.0]


def test_mask_rejects_negative_attention():
    with pytest.raises(ValueError):
        region_mask(amap([[[-0.1, 0.2]]]), DEFAULTS)


def test_mask_inner_resolution_upsampled_before_threshold():
    a = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    m = region_mask(amap(a), DEFAULTS, at_hw=(4, 4))
    assert m.shape == (1, 4, 4)
    up = oracles.bilinear_formula(a[0], 4, 4)
    expected = oracles.mask_formula(up, DEFAULTS.omega, DEFAULTS.sigma_factor)
    assert np.allclose(m[0], expected, atol=1e-12)


def test_mask_argmax_saturation():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.random((1, 3, 3)) * rng.uniform(0.5, 4.0)
        peak = a.max()
        m = region_mask(amap(a), DEFAULTS)
        if peak * DEFAULTS.omega * (1 - DEFAULTS.sigma_factor) > 6:
            am = np.unravel_index(np.argmax(a[0]), a[0].shape)
            assert m[0][am] > 0.99


# --------------------------------------------------------------------------
# attention_separation
# --------------------------------------------------------------------------


def test_separation_disjoint_supports():
    v = separation_per_sample(Tensor([[[1.0, 0.0]]]), Tensor([[[0.0, 1.0]]]),
                              np.ones((1, 1, 2)))
    assert v.data[0] == pytest.approx(0.0, abs=1e-12)


def test_separation_identical_maps():
    a = np.array([[[0.4, 0.6], [0.2, 0.8]]])
    v = separation_per_sample(Tensor(a), Tensor(a.copy()),
                              np.ones((1, 2, 2)))
    assert v.data[0] == pytest.approx(1.0, abs=1e-7)


def test_separation_hand_example():
    v = separation_per_sample(Tensor([[[1.0, 0.5]]]), Tensor([[[0.5, 1.0]]]),
                              np.ones((1, 1, 2)))
    assert v.data[0] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_separation_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        separation_per_sample(Tensor(np.zeros((1, 2, 2))),
                              Tensor(np.zeros((1, 2, 3))),
                              np.zeros((1, 2, 2)))


# --------------------------------------------------------------------------
# attention_consistency
# --------------------------------------------------------------------------


def test_consistency_fully_inside():
    v = consistency_per_sample(Tensor([[[0.3, 0.7]]]),
                               np.full((1, 1, 2), 1.0 - 1e-12),
                               DEFAULTS.theta)
    assert v.data[0] == pytest.approx(0.8 - 1.0, abs=1e-6)


def test_consistency_hand_example():
    v = consistency_per_sample(Tensor([[[0.2, 0.8]]]),
                               np.array([[[0.0, 1.0]]]),
                               DEFAULTS.theta)
    assert v.data[0] == pytest.approx(0.0, abs=1e-7)


def test_consistency_fully_outside():
    v = consistency_per_sample(Tensor([[[0.2, 0.8]]]),
                               np.zeros((1, 1, 2)),
                               DEFAULTS.theta)
    assert v.data[0] == pytest.approx(0.8, abs=1e-12)


# --------------------------------------------------------------------------
# invariant suite on random inputs
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_bounds_random(seed):
    rng = np.random.default_rng(seed)
    at = rng.random((2, 3, 3)) * rng.uniform(0.1, 5)
    ac = rng.random((2, 3, 3)) * rng.uniform(0.1, 5)
    mask = rng.random((2, 3, 3))
    las = separation_per_sample(Tensor(at), Tensor(ac), mask).data
    lac = consistency_per_sample(Tensor(at), mask, 0.8).data
    assert np.all((las >= 0.0) & (las <= 1.0))
    assert np.all((lac >= 0.8 - 1.0) & (lac <= 0.8))


def test_joint_scale_invariance():
    rng = np.random.default_rng(1)
    at = rng.random((1, 4, 4))
    ac = rng.random((1, 4, 4))
    mask = rng.random((1, 4, 4))
    base = separation_per_sample(Tensor(at), Tensor(ac), mask).data[0]
    for c in (0.01, 3.0, 1000.0):
        scaled = separation_per_sample(Tensor(c * at), Tensor(c * ac),
                                       mask).data[0]
        assert abs(scaled - base) < 1e-6


def test_consistency_scale_invariance():
    rng = np.random.default_rng(2)
    a = rng.random((1, 4, 4))
    mask = rng.random((1, 4, 4))
    base = consistency_per_sample(Tensor(a), mask, 0.8).data[0]
    for c in (0.01, 7.0, 500.0):
        scaled = consistency_per_sample(Tensor(c * a), mask, 0.8).data[0]
        assert abs(scaled - base) < 1e-6


def test_separation_monotone_under_bump_translation():
    size = 33
    yy, xx = np.mgrid[:size, :size]

    def bump(cx):
        return np.exp(-((yy - 16) ** 2 + (xx - cx) ** 2) / (2 * 2.0 ** 2))

    target = bump(10)[None]
    mask = np.ones((1, size, size))
    values = []
    for shift in range(0, 13):
        conf = bump(10 + shift)[None]
        values.append(separation_per_sample(Tensor(target), Tensor(conf),
                                            mask).data[0])
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# --------------------------------------------------------------------------
# the full objective
# --------------------------------------------------------------------------


def forward_tiny(seed=0, n=2, labels=(0, 2)):
    model = helpers.tiny_model(seed)
    images = np.random.default_rng(seed).random((n, 1, 8, 8))
    tape = Tape()
    record = model.forward(images, tape=tape)
    return model, record, np.asarray(labels)


def test_total_is_exact_sum_of_terms():
    _, record, labels = forward_tiny()
    bd = icasc_objective(record, labels, DEFAULTS)
    assert bd.total == ((bd.l_c + bd.l_as_inner) + bd.l_as_last) + bd.l_ac


def test_all_zero_attention_total_is_classification_only():
    model = helpers.tiny_model(1)
    model.params["head.w"][:] = 0.0   # zero logit gradients -> zero attention
    model.params["head.b"][:] = 0.0
    images = np.random.default_rng(1).random((3, 1, 8, 8))
    tape = Tape()
    record = model.forward(images, tape=tape)
    bd = icasc_objective(record, np.array([0, 1, 2]), DEFAULTS)
    assert bd.skip_flags.all()
    assert bd.l_as_inner == 0.0 and bd.l_as_last == 0.0 and bd.l_ac == 0.0
    assert bd.total == bd.l_c


def test_objective_end_to_end_hand_oracle():
    """Two-class linear model over 2x2 (last) and 4x4 (inner) feature maps,
    checked against a straight-formula script of the whole pipeline."""
    rng = np.random.default_rng(3)
    c = 2
    f_last = rng.random((1, c, 2, 2))
    f_inner = rng.random((1, c, 4, 4))
    w_last = rng.standard_normal((c * 4, 2))
    w_inner = rng.standard_normal((c * 16, 2))
    label = 0

    for mechanism in ("a-ch", "grad-cam"):
        cfg = IcascConfig(mechanism=mechanism)
        tape = Tape()
        record = helpers.linear_record(
            tape, {"inner": f_inner, "last": f_last},
            {"inner": w_inner, "last": w_last})
        bd = icasc_objective(record, np.array([label]), cfg)

        # independent script: every quantity from raw arrays
        logits = (f_inner.reshape(1, -1) @ w_inner
                  + f_last.reshape(1, -1) @ w_last)[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        conf = int(np.argmax(np.where(np.arange(2) == label, -np.inf, probs)))
        mech = {"a-ch": oracles.a_ch_formula,
                "grad-cam": oracles.grad_cam_formula}[mechanism]
        g_last = {k: w_last[:, k].reshape(c, 2, 2) for k in range(2)}
        g_inner = {k: w_inner[:, k].reshape(c, 4, 4) for k in range(2)}
        at_la = mech(f_last[0], g_last[label])
        ac_la = mech(f_last[0], g_last[conf])
        at_in = mech(f_inner[0], g_inner[label])
        ac_in = mech(f_inner[0], g_inner[conf])
        mask_la = oracles.mask_formula(at_la, cfg.omega, cfg.sigma_factor)
        up = oracles.bilinear_formula(at_la, 4, 4)
        mask_in = oracles.mask_formula(up, cfg.omega, cfg.sigma_factor)
        l_as_la = oracles.separation_formula(at_la, ac_la, mask_la, EPSILON)
        l_as_in = oracles.separation_formula(at_in, ac_in, mask_in, EPSILON)
        l_ac = oracles.consistency_formula(at_in, mask_in, cfg.theta, EPSILON)
        l_c = np.log(np.exp(logits - logits.max()).sum()) + logits.max() \
            - logits[label]
        expected = l_c + l_as_in + l_as_la + l_ac

        assert abs(bd.l_c - l_c) < 1e-10
        assert abs(bd.l_as_last - l_as_la) < 1e-10
        assert abs(bd.l_as_inner - l_as_in) < 1e-10
        assert abs(bd.l_ac - l_ac) < 1e-10
        assert abs(bd.total - expected) < 1e-10


def test_objective_weights_scale_terms():
    _, record1, labels = forward_tiny(5)
    bd1 = icasc_objective(record1, labels, DEFAULTS)
    _, record2, _ = forward_tiny(5)
    cfg = IcascConfig(weight_as_last=2.0, weight_ac=0.0)
    bd2 = icasc_objective(record2, labels, cfg)
    assert bd2.total == pytest.approx(
        bd1.l_c + bd1.l_as_inner + 2.0 * bd1.l_as_last, abs=1e-12)


def test_objective_context_reuse_is_bit_exact():
    _, record1, labels = forward_tiny(6)
    bd1 = icasc_objective(record1, labels, DEFAULTS)
    _, record2, _ = forward_tiny(6)
    bd2 = icasc_objective(record2, labels, DEFAULTS, context=bd1.context)
    assert bd1.total == bd2.total


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_objective_non_finite_diagnostics():
    tape = Tape()
    record = helpers.linear_record(
        tape, {"inner": np.full((1, 1, 4, 4), 1e300),
               "last": np.full((1, 1, 2, 2), 1e300)},
        {"inner": np.full((16, 2), 1e10), "last": np.full((4, 2), 1e10)})
    from icasc.nn import NumericalError
    with pytest.raises(NumericalError):
        icasc_objective(record, np.array([0]), DEFAULTS)


def objective_gradient_check():
    """The objective's check, with the context of its detached decisions
    (mask, confusing classes, skips) held at the base point's."""
    model, record, labels = forward_tiny(9)
    context = icasc_objective(record, labels, DEFAULTS).context
    return helpers.check_model_gradient(
        model, np.random.default_rng(9).random((2, 1, 8, 8)),
        lambda r: icasc_objective(r, labels, DEFAULTS, context=context).total_tensor,
        np.random.default_rng(0), checks=12)


def test_objective_gradient_fd_with_frozen_context():
    result = objective_gradient_check()
    assert result.outcome == gradcheck.OK, result


def test_objective_gradient_check_catches_a_planted_exp_fault(monkeypatch):
    helpers.plant_exp_fault(monkeypatch)
    result = objective_gradient_check()
    assert result.outcome == gradcheck.WRONG_GRADIENT, result
