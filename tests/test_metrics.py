import numpy as np
import pytest

from icasc import data as dio
from icasc import metrics as mx
from icasc.autodiff import Tape
from icasc.losses import IcascConfig, icasc_objective
from icasc.metrics import (auc_score, average_precision, export_heatmap,
                           ks_chart, macro_auc, mean_average_precision,
                           topk_accuracy)

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
# average precision / AUC
# --------------------------------------------------------------------------


def test_ap_all_positives_first():
    scores = np.array([0.9, 0.8, 0.1, 0.05])
    labels = np.array([1, 1, 0, 0])
    assert average_precision(scores, labels) == 1.0


def test_ap_single_positive_second():
    assert average_precision(np.array([0.9, 0.1]), np.array([0, 1])) == 0.5


def test_ap_vs_rank_walk_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        scores = np.round(rng.random(20), 2)   # ties likely
        labels = (rng.random(20) < 0.3).astype(int)
        if labels.sum() == 0:
            labels[0] = 1
        assert average_precision(scores, labels) == pytest.approx(
            oracles.average_precision_walk(scores.tolist(), labels.tolist()),
            abs=1e-12)


def test_ap_requires_positive():
    with pytest.raises(ValueError):
        average_precision(np.array([0.1, 0.2]), np.array([0, 0]))


def test_ap_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    scores = rng.random(30)
    labels = (rng.random(30) < 0.4).astype(int)
    labels[0] = 1
    a = average_precision(scores, labels)
    b = average_precision(np.exp(3 * scores), labels)
    assert a == b


def test_mean_ap_and_macro_auc():
    rng = np.random.default_rng(2)
    scores = rng.random((40, 3))
    labels = (rng.random((40, 3)) < 0.5).astype(float)
    labels[0] = 1.0
    aps, mean_ap = mean_average_precision(scores, labels)
    assert mean_ap == pytest.approx(np.mean(aps))
    auc = macro_auc(scores, labels)
    assert 0.0 <= auc <= 1.0


def test_auc_separable():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert auc_score(scores, labels) == 1.0


def test_auc_ties_average():
    scores = np.array([0.5, 0.5])
    labels = np.array([1, 0])
    assert auc_score(scores, labels) == 0.5


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


@pytest.mark.parametrize("multi_label", [False, True])
def test_overlap_report_matches_objective_per_sample(tmp_path, multi_label):
    """The report scores each sample with the training objective's terms.

    In the multi-label case one sample gets a second positive, which puts
    the whole batch in multi-label mode; every other sample keeps one
    positive, so its first ground-truth class is its only one.
    """
    ds = synth_dataset(tmp_path, per_class=2)
    if multi_label:
        last = ds.samples[-1]
        last.labels += ((last.labels[0] + 1) % ds.n_classes,)
    assert ds.multi_label == multi_label
    model = helpers.tiny_model(4, channels=(4, 8), size=16, n_classes=3)
    cfg = IcascConfig()
    report = mx.attention_overlap_report(model, ds, cfg)
    labels = ds.label_array(multi_label)
    assert len(report.rows) == len(ds) <= 32        # one report batch
    assert not all(row.skipped for row in report.rows)
    for i, row in enumerate(report.rows):
        assert row.sample_id == ds.samples[i].id
        if len(ds.samples[i].labels) > 1:
            continue
        record = model.forward(ds.samples[i].image[None], tape=Tape(),
                               multi_label=multi_label)
        terms = icasc_objective(record, labels[i:i + 1], cfg)
        assert row.skipped == bool(terms.skip_flags[0])
        if not row.skipped:
            assert row.l_as_last == pytest.approx(terms.l_as_last,
                                                  rel=1e-9, abs=1e-12)
            assert row.l_ac == pytest.approx(terms.l_ac, rel=1e-9, abs=1e-12)


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
# heatmap export
# --------------------------------------------------------------------------


def test_heatmap_constant_positive_map_is_white(tmp_path):
    path = tmp_path / "h.pgm"
    img = export_heatmap(np.full((3, 3), 0.4), (6, 6), path)
    assert np.array_equal(img, np.full((6, 6), 255, dtype=np.uint8))


def test_heatmap_all_zero_is_black(tmp_path):
    path = tmp_path / "h.pgm"
    img = export_heatmap(np.zeros((3, 3)), (5, 5), path)
    assert np.array_equal(img, np.zeros((5, 5), dtype=np.uint8))


def test_heatmap_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "h.pgm"
    written = export_heatmap(rng.random((4, 4)), (8, 8), path)
    back = dio.read_image(path)
    assert np.array_equal(np.round(back[0] * 255).astype(np.uint8), written)


def test_heatmap_does_not_modify_input(tmp_path):
    values = np.random.default_rng(8).random((4, 4))
    snapshot = values.copy()
    export_heatmap(values, (4, 4), tmp_path / "h.pgm")
    assert np.array_equal(values, snapshot)


def test_heatmap_color_ppm(tmp_path):
    path = tmp_path / "h.ppm"
    rgb = export_heatmap(np.array([[0.0, 1.0]]), (1, 2), path, color=True)
    assert rgb.shape == (1, 2, 3)
    assert tuple(rgb[0, 0]) == (0, 0, 255)    # cold end is blue
    assert tuple(rgb[0, 1]) == (255, 0, 0)    # hot end is red


def test_heatmap_rejects_negative():
    with pytest.raises(ValueError):
        export_heatmap(np.array([[-0.1, 0.2]]), (2, 2), "/tmp/never.pgm")
