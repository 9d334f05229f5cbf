import numpy as np
import pytest

from icasc import autodiff as ad
from icasc import cli
from icasc import data as dio
from icasc import metrics as mx
from icasc.attention import class_attention
from icasc.autodiff import Tape
from icasc.losses import (IcascConfig, confusing_class, icasc_objective,
                          per_sample_terms)
from icasc.metrics import ks_chart, render_heatmaps, topk_accuracy
from icasc.nn import Model

import helpers
import oracles


# --------------------------------------------------------------------------
# top-k accuracy
# --------------------------------------------------------------------------


def test_topk_perfect_one_hot():
    probs = np.eye(4)
    labels = np.arange(4)
    for k in (1, 2, 4):
        assert topk_accuracy(probs, labels, k) == 1.0


def test_topk_uniform_full_k():
    probs = np.full((3, 5), 0.2)
    labels = np.array([4, 0, 2])
    assert topk_accuracy(probs, labels, 5) == 1.0


def test_topk_hand_counted():
    probs = np.array([
        [0.5, 0.3, 0.2],   # label 1: top-1 miss, top-2 hit
        [0.1, 0.1, 0.8],   # label 2: top-1 hit
        [0.4, 0.4, 0.2],   # label 1: tie -> class 0 first; top-1 miss, top-2 hit
        [0.2, 0.3, 0.5],   # label 0: miss at both
        [0.9, 0.05, 0.05], # label 0: hit
    ])
    labels = np.array([1, 2, 1, 0, 0])
    assert topk_accuracy(probs, labels, 1) == pytest.approx(2 / 5)
    assert topk_accuracy(probs, labels, 2) == pytest.approx(4 / 5)


def test_topk_invalid_k():
    with pytest.raises(ValueError):
        topk_accuracy(np.eye(3), np.arange(3), 4)


# --------------------------------------------------------------------------
# KS chart
# --------------------------------------------------------------------------


def test_ks_identical_sequences():
    vals = np.random.default_rng(3).random(50)
    curve = ks_chart(vals, vals.copy())
    assert curve.ks_exact == 0.0
    assert curve.ks_grid == 0.0


def test_ks_full_separation():
    curve = ks_chart(np.ones(10), np.zeros(10))
    assert curve.ks_exact == 1.0
    assert curve.ks_grid == 1.0


def test_ks_exact_matches_brute_force():
    rng = np.random.default_rng(4)
    target = rng.beta(4, 2, size=200)
    conf = rng.beta(2, 4, size=150)
    curve = ks_chart(target, conf)
    assert curve.ks_exact == oracles.ks_brute(target, conf)


def test_ks_gap_vanishes_at_extremes_for_interior_values():
    rng = np.random.default_rng(5)
    curve = ks_chart(rng.uniform(0.05, 0.95, 100),
                     rng.uniform(0.05, 0.95, 100))
    assert curve.gaps[0] == 0.0
    assert curve.gaps[-1] == 0.0
    assert 0.0 <= curve.ks_exact <= 1.0


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(6)
    target = rng.uniform(0.1, 0.9, 80)
    conf = rng.uniform(0.1, 0.9, 90)
    base = ks_chart(target, conf).ks_exact

    def squash(x):
        return x ** 3 / (x ** 3 + (1 - x) ** 3)

    assert ks_chart(squash(target), squash(conf)).ks_exact == pytest.approx(
        base, abs=1e-12)


def test_ks_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        ks_chart([], [0.5])
    with pytest.raises(ValueError):
        ks_chart([1.5], [0.5])


def test_ks_csv_roundtrip(tmp_path):
    curve = ks_chart(np.linspace(0.2, 0.8, 10), np.linspace(0.1, 0.6, 10),
                     grid_size=11)
    path = tmp_path / "ks.csv"
    mx.write_ks_csv(path, curve)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "threshold,cdf_target,cdf_conf,gap"
    assert len(rows) == 12


# --------------------------------------------------------------------------
# attention overlap report
# --------------------------------------------------------------------------


def synth_dataset(tmp_path, per_class=3):
    spec = dio.SynthSpec(n_classes=3, canvas=16, seed=1, motif_size=3)
    dio.generate_synth(spec, per_class, tmp_path / "d")
    return dio.load_dataset(tmp_path / "d")


def test_overlap_zero_head_all_skipped(tmp_path):
    ds = synth_dataset(tmp_path)
    model = helpers.tiny_model(0, channels=(4, 8), size=16, n_classes=3)
    model.params["head.w"][:] = 0.0
    model.params["head.b"][:] = 0.0
    report = mx.attention_overlap_report(model, ds, IcascConfig())
    assert report.skip_rate == 1.0
    assert report.mean_l_as_last == 0.0


def test_overlap_report_deterministic(tmp_path):
    ds = synth_dataset(tmp_path)
    model = helpers.tiny_model(1, channels=(4, 8), size=16, n_classes=3)
    r1 = mx.attention_overlap_report(model, ds, IcascConfig())
    r2 = mx.attention_overlap_report(model, ds, IcascConfig())
    assert [(a.sample_id, a.l_as_last, a.l_ac, a.skipped) for a in r1.rows] == \
           [(a.sample_id, a.l_as_last, a.l_ac, a.skipped) for a in r2.rows]
    assert (r1.mean_l_as_last, r1.mean_l_ac, r1.skip_rate) == \
           (r2.mean_l_as_last, r2.mean_l_ac, r2.skip_rate)


def test_overlap_report_matches_objective_per_sample(tmp_path):
    """The report scores each sample with the training objective's terms."""
    ds = synth_dataset(tmp_path, per_class=2)
    model = helpers.tiny_model(4, channels=(4, 8), size=16, n_classes=3)
    cfg = IcascConfig()
    report = mx.attention_overlap_report(model, ds, cfg)
    labels = ds.label_array()
    assert len(report.rows) == len(ds) <= 32        # one report batch
    assert not all(row.skipped for row in report.rows)
    for i, row in enumerate(report.rows):
        assert row.sample_id == ds.samples[i].id
        record = model.forward(ds.samples[i].image[None], tape=Tape())
        terms = icasc_objective(record, labels[i:i + 1], cfg)
        assert row.skipped == bool(terms.skip_flags[0])
        if not row.skipped:
            assert row.l_as_last == pytest.approx(terms.l_as_last,
                                                  rel=1e-9, abs=1e-12)
            assert row.l_ac == pytest.approx(terms.l_ac, rel=1e-9, abs=1e-12)


def _overlap_rows_from_both_layers(model, ds, cfg):
    """The report's rows and probabilities as the objective builds its
    terms: a full-tape forward of each evaluation batch, both classes'
    maps at both layers, then ``per_sample_terms``."""
    rows, probs = [], []
    for ids, images, labels in dio.batch_iter(ds, mx.EVAL_BATCH, seed=0,
                                              shuffle=False):
        record = model.forward(images, tape=Tape())
        conf = confusing_class(record.probabilities, labels)
        a_tgt = class_attention(record, labels, create_graph=False)
        a_conf = class_attention(record, conf, create_graph=False)
        las, lac, ctx = per_sample_terms(a_tgt, a_conf, conf, cfg)
        rows += [(sid, float(las["last"].data[i]), float(lac.data[i]),
                  not ctx.keep[i]) for i, sid in enumerate(ids)]
        probs.append(record.probabilities)
    return rows, np.concatenate(probs)


def test_overlap_report_runs_one_inner_backward_per_batch(tmp_path, monkeypatch):
    """The report takes the confusing class's map at the last layer only, so
    each batch makes one ``conv2d_dx`` (the target's backward through the
    inner block), and every row and mean equals the one built from both
    classes' maps at both layers.  Class 0's head column is zero, so its
    samples have no target attention and are skipped.  36 samples run as
    32 + 4."""
    ds = synth_dataset(tmp_path, per_class=12)
    model = helpers.tiny_model(4, channels=(4, 8), size=16, n_classes=3)
    model.params["head.w"][:, 0] = 0.0
    cfg = IcascConfig()
    batches = []
    conv_dx = ad._conv_dx

    def counted(g, *args):
        batches.append(g.shape[0])
        return conv_dx(g, *args)

    monkeypatch.setattr(ad, "_conv_dx", counted)
    report = mx.attention_overlap_report(model, ds, cfg)
    assert batches == [32, 4]

    expected, _ = _overlap_rows_from_both_layers(model, ds, cfg)
    assert [(r.sample_id, r.l_as_last, r.l_ac, r.skipped)
            for r in report.rows] == expected
    kept = [row for row in expected if not row[3]]
    assert 0 < len(kept) < len(expected)
    assert report.mean_l_as_last == float(np.mean([row[1] for row in kept]))
    assert report.mean_l_ac == float(np.mean([row[2] for row in kept]))
    assert report.skip_rate == float(np.mean([row[3] for row in expected]))


@pytest.mark.parametrize("n_samples", [36, 33])
def test_overlap_report_equals_full_tape_report(tmp_path, n_samples):
    """Taped from the inner features on, the report's rows and
    probabilities are those of full-tape forwards, and its probabilities
    ``predict``'s, bit for bit: 36 samples run as 32 + 4, and 33 as 32 + 1,
    a final batch that BLAS runs as a matrix-vector product."""
    ds = synth_dataset(tmp_path, per_class=n_samples // 3)
    model = helpers.tiny_model(4, channels=(4, 8), size=16, n_classes=3)
    cfg = IcascConfig()
    report = mx.attention_overlap_report(model, ds, cfg)
    rows, probs = _overlap_rows_from_both_layers(model, ds, cfg)
    assert len(ds) == n_samples
    assert [(r.sample_id, r.l_as_last, r.l_ac, r.skipped)
            for r in report.rows] == rows
    assert report.probabilities.tobytes() == probs.tobytes()
    assert report.probabilities.tobytes() == mx.predict(model, ds)[0].tobytes()


@pytest.mark.parametrize("caller", ["overlap report", "attend"])
def test_evaluation_tapes_start_at_the_inner_features(tmp_path, monkeypatch,
                                                      caller):
    """The overlap report's and ``attend``'s tapes hold no parameter leaf
    and no node of block 0: their one leaf is the inner features."""
    ds = synth_dataset(tmp_path, per_class=2)
    model = helpers.tiny_model(4, channels=(4, 8), size=16, n_classes=3)
    taped = []
    forward = Model.forward

    def spy(self, images, tape=None, **kwargs):
        record = forward(self, images, tape, **kwargs)
        taped.append((tape, record))
        return record

    monkeypatch.setattr(Model, "forward", spy)
    if caller == "attend":
        cli._attend_chunk(model, ds.samples[:4], 2, tmp_path, color=False)
    else:
        mx.attention_overlap_report(model, ds, IcascConfig())
    assert len(taped) == 1
    tape, record = taped[0]
    kinds = [node.kind for node in tape.nodes]
    assert record.param_leaves == {}
    assert kinds.count("leaf") == 1
    assert tape.nodes[0].value is record.feats["inner"].data
    assert kinds.count("conv2d") == 1                 # block 1's


def test_overlap_report_probabilities_equal_predict(tmp_path):
    """The report's probabilities are ``predict``'s, in dataset order.

    The set fits in one batch of either pass, so both run the same forward
    on the same array and byte equality holds by construction.  Sets of
    several batches are compared in
    ``test_overlap_report_equals_full_tape_report``.
    """
    ds = synth_dataset(tmp_path, per_class=2)
    model = helpers.tiny_model(4, channels=(4, 8), size=16, n_classes=3)
    report = mx.attention_overlap_report(model, ds, IcascConfig())
    probs, _ = mx.predict(model, ds)
    assert report.probabilities.shape == (len(ds), ds.n_classes)
    assert np.array_equal(report.probabilities, probs)
    assert np.allclose(report.probabilities.sum(axis=1), 1.0)


def test_overlap_report_on_empty_set():
    model = helpers.tiny_model(4, channels=(4, 8), size=16, n_classes=3)
    report = mx.attention_overlap_report(model, dio.Dataset([], 3), IcascConfig())
    assert (report.rows, report.skip_rate) == ([], 0.0)
    assert report.probabilities.shape == (0, 3)


def test_overlap_values_in_bounds(tmp_path):
    ds = synth_dataset(tmp_path)
    model = helpers.tiny_model(3, channels=(4, 8), size=16, n_classes=3)
    cfg = IcascConfig()
    report = mx.attention_overlap_report(model, ds, cfg)
    for row in report.rows:
        if not row.skipped:
            assert 0.0 <= row.l_as_last <= 1.0
            assert cfg.theta - 1.0 <= row.l_ac <= cfg.theta


# --------------------------------------------------------------------------
# heatmap rendering
# --------------------------------------------------------------------------


def test_heatmap_constant_positive_map_is_white():
    img = render_heatmaps(np.full((1, 3, 3), 0.4), (6, 6))
    assert np.array_equal(img, np.full((1, 6, 6), 255, dtype=np.uint8))


def test_heatmap_all_zero_is_black():
    img = render_heatmaps(np.zeros((1, 3, 3)), (5, 5))
    assert np.array_equal(img, np.zeros((1, 5, 5), dtype=np.uint8))


def test_heatmap_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "h.pgm"
    written = render_heatmaps(rng.random((1, 4, 4)), (8, 8))[0]
    dio.write_pgm(path, written)
    back = dio.read_image(path)
    assert np.array_equal(np.round(back[0] * 255).astype(np.uint8), written)


def test_heatmap_does_not_modify_input():
    values = np.random.default_rng(8).random((1, 4, 4))
    snapshot = values.copy()
    render_heatmaps(values, (4, 4))
    assert np.array_equal(values, snapshot)


def test_heatmap_color_ppm():
    rgb = render_heatmaps(np.array([[[0.0, 1.0]]]), (1, 2), color=True)[0]
    assert rgb.shape == (1, 2, 3)
    assert tuple(rgb[0, 0]) == (0, 0, 255)    # cold end is blue
    assert tuple(rgb[0, 1]) == (255, 0, 0)    # hot end is red


def test_heatmap_rejects_negative():
    with pytest.raises(ValueError):
        render_heatmaps(np.array([[[-0.1, 0.2]]]), (2, 2))


@pytest.mark.parametrize("color", [False, True], ids=["grey", "color"])
def test_render_heatmaps_matches_one_map_export(color):
    rng = np.random.default_rng(9)
    stack = np.stack([np.zeros((4, 4)), np.full((4, 4), 0.4),
                      rng.random((4, 4)), 7.5 * rng.random((4, 4)),
                      1e-300 * rng.random((4, 4))])
    snapshot = stack.copy()
    images = render_heatmaps(stack, (9, 7), color=color)
    assert np.array_equal(stack, snapshot)
    assert images.dtype == np.uint8
    assert images.shape == ((5, 9, 7, 3) if color else (5, 9, 7))
    for i, amap in enumerate(stack):
        one = render_heatmaps(amap[None], (9, 7), color=color)
        assert np.array_equal(images[i:i + 1], one)


def test_render_heatmaps_rejects_one_negative_entry():
    stack = np.random.default_rng(10).random((3, 4, 4))
    stack[1, 2, 3] = -1e-12
    with pytest.raises(ValueError):
        render_heatmaps(stack, (4, 4))


def test_render_heatmaps_rejects_a_single_map():
    with pytest.raises(ValueError, match="stack"):
        render_heatmaps(np.ones((4, 4)), (4, 4))
