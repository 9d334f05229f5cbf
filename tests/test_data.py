import hashlib
from pathlib import Path

import numpy as np
import pytest

from icasc import data as dio
from icasc.data import (DataError, SynthSpec, batch_iter, generate_synth,
                        load_dataset, read_image, write_pgm, write_ppm)


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# PGM / PPM
# --------------------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    back = read_image(path)
    assert back.shape == (1, 5, 7)
    assert np.array_equal(np.round(back[0] * 255).astype(np.uint8), img)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    back = read_image(path)
    assert back.shape == (3, 4, 6)
    assert np.array_equal(np.round(back.transpose(1, 2, 0) * 255).astype(np.uint8),
                          img)


def test_read_image_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = read_image(path)
    assert img.shape == (1, 2, 3)


def test_read_image_truncated(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(DataError):
        read_image(path)


@pytest.mark.parametrize("header", [b"P5\nxx 8\n255\n", b"P5\n0 8\n255\n",
                                    b"P5\n4 -2\n255\n"])
def test_read_image_bad_dimensions_name_file(tmp_path, header):
    path = tmp_path / "dims.pgm"
    path.write_bytes(header + bytes(64))
    with pytest.raises(DataError, match="dims.pgm"):
        read_image(path)


def test_read_image_bad_magic(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P3\n1 1\n255\n0")
    with pytest.raises(DataError):
        read_image(path)


# --------------------------------------------------------------------------
# synthetic generator
# --------------------------------------------------------------------------


def test_synth_deterministic_bytes(tmp_path):
    spec = SynthSpec(seed=7)
    generate_synth(spec, 5, tmp_path / "a")
    generate_synth(spec, 5, tmp_path / "b")
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")


def test_synth_counts(tmp_path):
    spec = SynthSpec(n_classes=4, seed=0)
    count = generate_synth(spec, 10, tmp_path / "d")
    assert count == 40
    ds = load_dataset(tmp_path / "d")
    assert len(ds) == 40
    assert ds.n_classes == 4
    assert sorted({s.labels[0] for s in ds.samples}) == [0, 1, 2, 3]


def test_synth_confusable_pair_differs_only_in_motif_boxes(tmp_path):
    spec = SynthSpec(n_classes=4, seed=3, noise_std=0.05)
    generate_synth(spec, 8, tmp_path / "d")
    ds = load_dataset(tmp_path / "d")
    by_id = {s.id: s for s in ds.samples}
    a, b = spec.confusable_pair
    outside = np.ones((spec.canvas, spec.canvas), dtype=bool)
    for cls in (a, b):
        r0, c0, r1, c1 = spec.motif_box(cls)
        outside[r0:r1, c0:c1] = False
    for i in range(8):
        img_a = by_id[f"c{a}_{i:04d}"].image[0]
        img_b = by_id[f"c{b}_{i:04d}"].image[0]
        diff = np.abs(img_a - img_b)[outside]
        frac_below = np.mean(diff < 3 * spec.noise_std)
        assert frac_below >= 0.99


def test_synth_motif_overflow_rejected():
    with pytest.raises(ValueError):
        SynthSpec(canvas=16, motif_size=15)


def test_synth_invalid_pair_rejected():
    with pytest.raises(ValueError):
        SynthSpec(confusable_pair=(0, 0))


def test_synth_roundtrip_quantization(tmp_path):
    spec = SynthSpec(seed=5)
    generate_synth(spec, 2, tmp_path / "d")
    ds = load_dataset(tmp_path / "d")
    for s in ds.samples:
        raw = dio._render(spec, int(s.labels[0]), int(s.id.split("_")[1]))
        assert np.max(np.abs(s.image[0] - raw / 255.0)) <= 1.0 / 255.0


# --------------------------------------------------------------------------
# loader and batch iterator
# --------------------------------------------------------------------------


def test_empty_labels_file(tmp_path):
    (tmp_path / "labels.csv").write_text("id,filename,label\n", encoding="utf-8")
    ds = load_dataset(tmp_path)
    assert len(ds) == 0
    assert list(batch_iter(ds, 4, seed=0)) == []


def test_missing_image_names_sample(tmp_path):
    (tmp_path / "labels.csv").write_text(
        "id,filename,label\ns1,gone.pgm,0\n", encoding="utf-8")
    with pytest.raises(DataError, match="s1"):
        load_dataset(tmp_path)


def test_label_out_of_range(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "labels.csv").write_text(
        "id,filename,label\ns1,a.pgm,9\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(tmp_path, n_classes=4)


def test_multilabel_parsing(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "labels.csv").write_text(
        "id,filename,label\ns1,a.pgm,0;2\n", encoding="utf-8")
    ds = load_dataset(tmp_path)
    assert ds.multi_label
    assert ds.samples[0].labels == (0, 2)
    assert np.array_equal(ds.label_array(True), [[1.0, 0.0, 1.0]])


def test_batch_iter_deterministic(tmp_path):
    spec = SynthSpec(seed=2)
    generate_synth(spec, 6, tmp_path / "d")
    ds = load_dataset(tmp_path / "d")

    def epoch_ids(epoch):
        return [ids for ids, _, _ in batch_iter(ds, 5, seed=3, epoch=epoch,
                                                flip=True)]

    assert epoch_ids(0) == epoch_ids(0)
    assert epoch_ids(0) != epoch_ids(1)   # epochs reshuffle


def test_flip_is_involution():
    img = np.random.default_rng(4).random((1, 4, 4))
    assert np.array_equal(img[..., ::-1][..., ::-1], img)


def test_batch_iter_flip_actually_flips(tmp_path):
    spec = SynthSpec(seed=9)
    generate_synth(spec, 4, tmp_path / "d")
    ds = load_dataset(tmp_path / "d")
    plain = {ids[i]: img[i] for ids, img, _ in
             batch_iter(ds, 16, seed=1, shuffle=False, flip=False)
             for i in range(len(ids))}
    flipped = {ids[i]: img[i] for ids, img, _ in
               batch_iter(ds, 16, seed=1, shuffle=False, flip=True)
               for i in range(len(ids))}
    states = []
    for sid, img in flipped.items():
        if np.array_equal(img, plain[sid]):
            states.append("same")
        elif np.array_equal(img, plain[sid][..., ::-1]):
            states.append("flipped")
        else:
            states.append("corrupt")
    assert "corrupt" not in states
    assert "flipped" in states and "same" in states
