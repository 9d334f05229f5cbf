import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

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


def test_write_pgm_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    rng = np.random.default_rng(2)
    gray = rng.integers(0, 256, size=(3, 5), dtype=np.uint8)
    fresh, reused = tmp_path / "fresh.pgm", tmp_path / "reused.pgm"
    write_pgm(fresh, gray)
    write_ppm(reused, rng.integers(0, 256, size=(8, 9, 3), dtype=np.uint8))
    assert reused.stat().st_size > fresh.stat().st_size
    write_pgm(reused, gray)
    assert reused.read_bytes() == fresh.read_bytes()


def test_netpbm_writes_never_open_with_truncation(tmp_path, monkeypatch):
    flags = []
    os_open = dio.os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(dio.os, "open", spy)
    path = tmp_path / "x.pgm"
    path.write_bytes(b"old" * 100)
    write_pgm(path, np.zeros((2, 2), dtype=np.uint8))
    write_ppm(path, np.zeros((2, 2, 3), dtype=np.uint8))
    assert len(flags) == 2
    assert not any(flag & dio.os.O_TRUNC for flag in flags)
    assert path.read_bytes() == b"P6\n2 2\n255\n" + bytes(12)


def test_netpbm_write_finishes_after_short_writes(tmp_path, monkeypatch):
    """With ``os.write`` taking at most 5 bytes a call, the write loops to
    the end, and a write over a longer old file equals a fresh one."""
    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, size=(6, 7), dtype=np.uint8)
    fresh, reused = tmp_path / "fresh.pgm", tmp_path / "reused.pgm"
    write_pgm(fresh, gray)
    reused.write_bytes(b"junk" * 1000)
    calls = []
    os_write = dio.os.write

    def short_write(fd, data):
        calls.append(len(data))
        return os_write(fd, bytes(data[:5]))

    monkeypatch.setattr(dio.os, "write", short_write)
    write_pgm(reused, gray)
    monkeypatch.undo()
    assert len(calls) == -(-fresh.stat().st_size // 5)
    assert reused.read_bytes() == fresh.read_bytes()


def test_netpbm_write_error_propagates_and_closes_the_fd(tmp_path, monkeypatch):
    """A raw fd leaks without a ResourceWarning, so only a test sees it."""
    opened, closed = [], []
    os_open, os_close = dio.os.open, dio.os.close

    def open_spy(*args, **kwargs):
        opened.append(os_open(*args, **kwargs))
        return opened[-1]

    def close_spy(fd):
        closed.append(fd)
        return os_close(fd)

    def failing_write(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(dio.os, "open", open_spy)
    monkeypatch.setattr(dio.os, "close", close_spy)
    monkeypatch.setattr(dio.os, "write", failing_write)
    with pytest.raises(OSError, match="No space left"):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.uint8))
    monkeypatch.undo()
    assert len(opened) == 1
    assert closed == opened


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


def test_read_image_size_past_the_file_is_data_error(tmp_path):
    """The declared pixel bytes are checked against the bytes left, so a
    size too large for an index-sized integer never reaches the view."""
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P6\n99999999999 99999999999\n255\n" + bytes(64))
    with pytest.raises(DataError, match=r"huge.pgm: truncated pixel data "
                                        r"\(\d+ bytes declared, 64 left\)"):
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


_PGM = b"P5\n# a comment\n6 5\n255\n" + bytes(range(30))


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(_PGM)), bit=st.integers(-1, 8 * len(_PGM) - 1))
def test_damaged_pgm_reads_or_is_data_error(tmp_path_factory, cut, bit):
    """Any truncation, then at most one flipped bit: the reader returns an
    image or raises DataError, never another exception."""
    damaged = bytearray(_PGM[:cut])
    if 0 <= bit < 8 * cut:
        damaged[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.getbasetemp() / "damaged.pgm"
    path.write_bytes(bytes(damaged))
    try:
        read_image(path)
    except DataError:
        pass


# header parts: every byte bytes.isspace() takes, comment lines with and
# without their newline, and tokens that are digits, that are not, or that
# have a '#' glued on
_SPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"])
_COMMENT = st.builds(lambda text, end: b"#" + text + end,
                     st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"")),
                     st.sampled_from([b"\n", b"\n", b""]))
_GAP = st.lists(st.one_of(_SPACE, _COMMENT), min_size=1, max_size=3).map(
    b"".join)
_ODD = [b"0", b"254", b"0255", b"x", b"4x", b"+3", b"3#", b"3#x", b"\xd9\xa3",
        b"0x1"]
_SIZE = st.sampled_from([b"1", b"2", b"3", b"4"] * 3 + _ODD)
_MAXVAL = st.sampled_from([b"255"] * 8 + _ODD)


@settings(max_examples=100, deadline=None)
@given(magic=st.sampled_from([b"P5", b"P6"] * 3 + [b"P3", b"P", b""]),
       parts=st.tuples(st.tuples(_GAP | st.just(b""), _SIZE),
                       st.tuples(_GAP, _SIZE), st.tuples(_GAP, _MAXVAL)),
       end=st.sampled_from([b"\n", b" ", b"\r\n", b"", b"#\n"]),
       pixels=st.one_of(st.binary(max_size=60),
                        st.binary(min_size=48, max_size=52)))
def test_reader_agrees_with_the_bytewise_reader(tmp_path_factory, magic, parts,
                                                end, pixels):
    """Same array bytes and shape, or the same error text, as the reader that
    took the header one byte at a time, on the file cut at every byte."""
    whole = magic + b"".join(gap + token for gap, token in parts) + end + pixels
    path = tmp_path_factory.getbasetemp() / "agree.pgm"

    def outcome(reader, error):
        try:
            image = reader(path)
        except error as e:
            return str(e)
        return image.shape, image.dtype, np.ascontiguousarray(image).tobytes()

    for cut in range(len(whole) + 1):
        path.write_bytes(whole[:cut])
        assert outcome(read_image, DataError) == outcome(
            oracles.read_image_bytewise, ValueError), cut


def _sample_set(root: Path, images: dict) -> Path:
    """A set of ``images`` (id -> uint8 (H, W) or (H, W, 3)), labelled 0."""
    root.mkdir()
    rows = ["id,filename,label"]
    for sid, pixels in images.items():
        gray = pixels.ndim == 2
        name = f"{sid}.{'pgm' if gray else 'ppm'}"
        (write_pgm if gray else write_ppm)(root / name, pixels)
        rows.append(f"{sid},{name},0")
    (root / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return root


@pytest.mark.parametrize("images, message", [
    ({"first": np.zeros((16, 16), np.uint8), "odd": np.zeros((8, 8), np.uint8)},
     "sample 'odd': image shape (1, 8, 8) differs from (1, 16, 16) of sample "
     "'first'"),
    ({"grey": np.zeros((16, 16), np.uint8),
      "rgb": np.zeros((16, 16, 3), np.uint8)},
     "sample 'rgb': image shape (3, 16, 16) differs from (1, 16, 16) of "
     "sample 'grey'")], ids=["size", "channels"])
def test_mixed_image_shapes_name_both_ids_and_shapes(tmp_path, images, message):
    with pytest.raises(DataError) as err:
        load_dataset(_sample_set(tmp_path / "d", images))
    assert str(err.value) == message


def test_loaded_images_equal_the_reader_and_share_one_array(tmp_path):
    rng = np.random.default_rng(4)
    root = _sample_set(tmp_path / "d", {
        f"s{i}": rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        for i in range(3)})
    samples = load_dataset(root).samples
    base = samples[0].image.base
    assert base is not None and base.shape == (3, 3, 5, 7)
    for sample in samples:
        assert sample.image.base is base
        expected = oracles.read_image_bytewise(root / f"{sample.id}.ppm")
        assert sample.image.tobytes() == np.ascontiguousarray(expected).tobytes()


class _FileSpy:
    """Counts the raw ``os`` calls on image files: opened paths, and the
    fds read and closed."""

    def __init__(self, monkeypatch):
        self.opened, self.reads, self.closed = [], [], []
        os_open, os_read, os_close = dio.os.open, dio.os.read, dio.os.close

        def open_spy(path, *args, **kwargs):
            fd = os_open(path, *args, **kwargs)
            self.opened.append((Path(path).name, fd))
            return fd

        def read_spy(fd, n):
            self.reads.append(fd)
            return os_read(fd, n)

        def close_spy(fd):
            self.closed.append(fd)
            return os_close(fd)

        monkeypatch.setattr(dio.os, "open", open_spy)
        monkeypatch.setattr(dio.os, "read", read_spy)
        monkeypatch.setattr(dio.os, "close", close_spy)


def test_load_dataset_opens_and_reads_each_image_once(tmp_path, monkeypatch):
    generate_synth(SynthSpec(n_classes=2, canvas=12, motif_size=1), 3,
                   tmp_path / "d")
    spy = _FileSpy(monkeypatch)
    samples = load_dataset(tmp_path / "d").samples
    monkeypatch.undo()
    assert sorted(name for name, _ in spy.opened) == sorted(
        f"{s.id}.pgm" for s in samples)
    fds = [fd for _, fd in spy.opened]
    assert spy.reads == fds and spy.closed == fds


def test_reader_reads_on_after_a_short_read(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    path = tmp_path / "x.ppm"
    write_ppm(path, rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8))
    sizes = []
    os_read = dio.os.read

    def short_read(fd, n):
        sizes.append(n)
        return os_read(fd, min(n, 5))

    monkeypatch.setattr(dio.os, "read", short_read)
    image = read_image(path)
    monkeypatch.undo()
    assert len(sizes) == -(-path.stat().st_size // 5)
    assert image.tobytes() == read_image(path).tobytes()


@pytest.mark.parametrize("content, message", [
    (b"P3\n1 1\n255\n0", "unsupported image magic"),
    (b"P5\n4 # no newline", "truncated Netpbm header"),
    (b"P5\n4 4x\n255\n" + bytes(16), "non-numeric Netpbm header token"),
    (b"P5\n0 4\n255\n", "non-positive image size"),
    (b"P5\n4 4\n65535\n" + bytes(32), "maxval 65535 unsupported"),
    (b"P5\n4 4\n255\n" + bytes(15),
     r"truncated pixel data \(16 bytes declared, 15 left\)")],
    ids=["magic", "header", "token", "size", "maxval", "pixels"])
def test_every_reader_error_closes_its_fd(tmp_path, monkeypatch, content,
                                          message):
    """A raw fd leaks without a ResourceWarning, so only a test sees it."""
    path = tmp_path / "bad.pgm"
    path.write_bytes(content)
    spy = _FileSpy(monkeypatch)
    with pytest.raises(DataError, match=message):
        read_image(path)
    monkeypatch.undo()
    assert len(spy.opened) == 1 and spy.closed == [spy.opened[0][1]]


def test_an_image_path_that_is_a_directory_names_it(tmp_path):
    """The read fails, not the open: the error names the path as open() did."""
    with pytest.raises(IsADirectoryError) as err:
        read_image(tmp_path)
    assert str(err.value) == f"[Errno 21] Is a directory: '{tmp_path}'"


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
    assert sorted({s.label for s in ds.samples}) == [0, 1, 2, 3]


def test_synth_over_more_per_class_leaves_only_the_new_set(tmp_path):
    """8 then 4 per class into one directory leaves the 16 listed images,
    the bytes of a fresh write."""
    out = tmp_path / "d"
    generate_synth(SynthSpec(seed=3), 8, out)
    assert generate_synth(SynthSpec(seed=3), 4, out) == 16
    assert len(list(out.glob("*.pgm"))) == 16
    generate_synth(SynthSpec(seed=3), 4, tmp_path / "fresh")
    assert dir_digest(out) == dir_digest(tmp_path / "fresh")


def test_synth_over_more_classes_leaves_only_the_new_classes(tmp_path):
    out = tmp_path / "d"
    generate_synth(SynthSpec(n_classes=4, seed=3), 3, out)
    generate_synth(SynthSpec(n_classes=2, seed=3), 3, out)
    assert sorted(p.name for p in out.glob("*.pgm")) == [
        f"c{c}_{i:04d}.pgm" for c in (0, 1) for i in range(3)]
    assert load_dataset(out).n_classes == 2


def test_synth_keeps_files_that_are_not_its_images(tmp_path):
    out = tmp_path / "d"
    foreign = ["notes.txt", "x.pgm", "c0_extra.pgm", "c5_0001.ppm",
               "c5_0001.pgm.bak"]
    out.mkdir()
    for name in foreign:
        (out / name).write_bytes(name.encode())
    generate_synth(SynthSpec(seed=3), 8, out)
    generate_synth(SynthSpec(seed=3), 2, out)
    for name in foreign:
        assert (out / name).read_bytes() == name.encode()
    assert len(list(out.glob("c*_*.pgm"))) == 8 + 1   # c0_extra.pgm


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
    for motif_size in (15, 0, -3):
        with pytest.raises(ValueError, match="motif_size"):
            SynthSpec(canvas=16, motif_size=motif_size)


def test_synth_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        SynthSpec(seed=-1)


def test_synth_invalid_pair_rejected():
    for pair in ((0, 0), (0, 1, 2), (0,)):
        with pytest.raises(ValueError, match="pair"):
            SynthSpec(confusable_pair=pair)


def test_synth_roundtrip_quantization(tmp_path):
    spec = SynthSpec(seed=5)
    generate_synth(spec, 2, tmp_path / "d")
    ds = load_dataset(tmp_path / "d")
    for s in ds.samples:
        raw = dio._render(spec, s.label, int(s.id.split("_")[1]))
        assert np.max(np.abs(s.image[0] - raw / 255.0)) <= 1.0 / 255.0


# --------------------------------------------------------------------------
# loader and batch iterator
# --------------------------------------------------------------------------


def test_empty_labels_file(tmp_path):
    (tmp_path / "labels.csv").write_text("id,filename,label\n", encoding="utf-8")
    with pytest.raises(DataError, match="no samples"):
        load_dataset(tmp_path)
    assert list(batch_iter(dio.Dataset([], 2), 4, seed=0)) == []


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


@pytest.mark.parametrize("header", ["id,file,label", "label,id,filename",
                                    "id,filename,label,extra"])
def test_wrong_labels_header_is_data_error(tmp_path, header):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "labels.csv").write_text(f"{header}\ns1,a.pgm,0\n",
                                         encoding="utf-8")
    with pytest.raises(DataError, match="labels.csv: header must be "
                                        "id,filename,label"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("row", ["s2,a.pgm", "s2", "s2,a.pgm,0,extra"])
def test_row_field_count_differs_from_header(tmp_path, row):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "labels.csv").write_text(
        f"id,filename,label\ns1,a.pgm,0\n{row}\n", encoding="utf-8")
    with pytest.raises(DataError, match="labels.csv:3"):
        load_dataset(tmp_path)


def test_padded_header_names_load_the_same_samples(tmp_path):
    """The header check strips each name, so rows are keyed by the stripped
    names too: ``id, filename, label`` loads what the plain header does."""
    generate_synth(SynthSpec(seed=3), 2, tmp_path / "d")
    plain = load_dataset(tmp_path / "d")
    labels = tmp_path / "d" / "labels.csv"
    text = labels.read_text(encoding="utf-8")
    labels.write_text(text.replace("id,filename,label", "id, filename, label",
                                   1), encoding="utf-8")
    padded = load_dataset(tmp_path / "d")
    assert padded.n_classes == plain.n_classes
    assert [(s.id, s.label) for s in padded.samples] == \
        [(s.id, s.label) for s in plain.samples]
    for a, b in zip(padded.samples, plain.samples):
        assert np.array_equal(a.image, b.image)


def test_multilabel_parsing(tmp_path):
    """A label is one class id: an ``a;b`` row is a data error naming the
    sample."""
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "labels.csv").write_text(
        "id,filename,label\ns0,a.pgm,1\ns1,a.pgm,0;2\n", encoding="utf-8")
    with pytest.raises(DataError, match="sample 's1': label '0;2' is not "
                                        "one class id"):
        load_dataset(tmp_path)


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
