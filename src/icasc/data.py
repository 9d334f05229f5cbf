"""Dataset formats and the synthetic confusable-classes generator.

On-disk format: a directory with ``labels.csv`` (columns id, filename,
label; a label is one class id) plus binary 8-bit PGM (P5) or PPM (P6)
images, maxval 255.  Chosen for zero-dependency parsing.

The synthetic generator produces a dataset where one designated class pair
shares a "confounder" motif drawn identically (same noise field, same
position) in both classes, while each class carries its own small
discriminative motif in a spatially distinct corner.  A model that attends
only to the confounder cannot tell the pair apart, so attention separation
has a known correct answer: the discriminative corners.  A
:class:`SynthSpec` sets the size, noise and class layout of a set; the
jitter and the pixel values it draws with are the module constants
``JITTER``, ``BACKGROUND``, ``CONFOUNDER_VALUE`` and ``MOTIF_VALUE``,
shared by every set.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Dataset, image or checkpoint file is missing, corrupt, or inconsistent."""


# --------------------------------------------------------------------------
# Netpbm reading/writing
# --------------------------------------------------------------------------


def _overwrite_netpbm(path, magic: str, pixels: np.ndarray) -> None:
    """Write a binary Netpbm file over ``path`` in place.

    The file is opened without truncating it, the header and pixels are
    written from the start as one bytes object with ``os.write`` (again for
    what a short write left), then the file is cut at their length, so a
    longer old file ends up exactly as long as the new one.  The raw fd
    skips a file object's buffer; it is closed on every path.  Opening with
    truncation would empty a file that has data, and on ext4
    (``auto_da_alloc``, its default) closing such a file starts its
    writeback at once: that made rewriting hundreds of small files many
    times slower.  The write is not atomic, as it never was: a crash
    part-way can leave the old bytes, the new ones or a mix of both in the
    file, where a truncating open left it empty or part-written.
    """
    h, w = pixels.shape[:2]
    data = f"{magic}\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255; gray is (H, W) uint8.

    An existing file is overwritten in place and cut to the new length, not
    truncated first; after a crash mid-write it may hold old bytes (see
    ``_overwrite_netpbm``).
    """
    gray = np.asarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise DataError(f"PGM image must be 2-D, got {gray.shape}")
    _overwrite_netpbm(path, "P5", gray)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary PPM (P6), maxval 255; rgb is (H, W, 3) uint8.

    An existing file is overwritten in place and cut to the new length, not
    truncated first; after a crash mid-write it may hold old bytes (see
    ``_overwrite_netpbm``).
    """
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DataError(f"PPM image must be (H, W, 3), got {rgb.shape}")
    _overwrite_netpbm(path, "P6", rgb)


# one header token: the whitespace and '#' comment lines before it, then a
# run of non-whitespace that does not start a comment
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def _read_pixels(path) -> np.ndarray:
    """Read PGM/PPM into a uint8 (C, H, W) view of the file's bytes, which
    come from one ``os.read`` of the file's size on a raw fd."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size)
        while len(data) < size and (more := os.read(fd, size - len(data))):
            data += more
    except OSError as e:    # named, as open() names it: a directory reads here
        e.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    magic, pos, tokens = data[:2], 2, []
    if magic not in (b"P5", b"P6"):
        raise DataError(f"{path}: unsupported image magic {magic!r}")
    while len(tokens) < 3:
        if not (match := _HEADER_TOKEN.match(data, pos)):
            raise DataError(f"{path}: truncated Netpbm header")
        if not match[1].isdigit():
            raise DataError(f"{path}: non-numeric Netpbm header token {match[1]!r}")
        tokens.append(int(match[1]))
        pos = min(match.end() + 1, len(data))   # past the byte that ends it
    w, h, maxval = tokens
    if w < 1 or h < 1:
        raise DataError(f"{path}: non-positive image size {w}x{h}")
    if maxval != 255:
        raise DataError(f"{path}: maxval {maxval} unsupported (need 255)")
    channels = 1 if magic == b"P5" else 3
    # checked against the bytes read before any pixel is viewed
    need, left = w * h * channels, len(data) - pos
    if need > left:
        raise DataError(f"{path}: truncated pixel data ({need} bytes "
                        f"declared, {left} left)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    if channels == 1:
        return pixels.reshape(1, h, w)
    return pixels.reshape(h, w, 3).transpose(2, 0, 1)


def read_image(path) -> np.ndarray:
    """Read PGM/PPM into float64 (C, H, W) scaled to [0, 1]."""
    return _read_pixels(path) / 255.0


# --------------------------------------------------------------------------
# atomic writes and CSV output
# --------------------------------------------------------------------------


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write ``path`` through a temp file beside it that is flushed, fsynced
    and renamed over ``path`` on success, so a crash leaves the old file or
    the new one, never a part; on an exception ``path`` is left as it was."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def open_text(path) -> io.StringIO:
    """The UTF-8 text of ``path`` as a file whose lines end as written, which
    is what ``csv`` reads; one leading byte-order mark is dropped, and bytes
    that do not decode raise DataError naming the file and the byte."""
    raw = Path(path).read_bytes()
    body = raw.removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(body.decode("utf-8"), newline="")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason} at byte "
                        f"{len(raw) - len(body) + e.start})") from None


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, comment=None) -> None:
    """Write a header row and ``rows`` as CSV, preceded by ``# comment``
    when one is given.

    Every CSV the program writes goes through here, so the cell format is
    fixed in one place: floats as ``repr`` (an exact round trip), bools as
    0/1, everything else as ``str``.  The file is replaced atomically.
    """
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


# --------------------------------------------------------------------------
# samples and datasets
# --------------------------------------------------------------------------


@dataclass
class Sample:
    id: str
    image: np.ndarray              # (C, H, W) in [0, 1]
    label: int


@dataclass
class Dataset:
    samples: list[Sample]
    n_classes: int

    def __len__(self) -> int:
        return len(self.samples)

    def label_array(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)


def load_dataset(path, n_classes: int | None = None,
                 image_shape: tuple[int, ...] | None = None) -> Dataset:
    """Load a labels.csv directory; errors name the offending sample id.

    ``n_classes`` and ``image_shape`` (C, H, W) are what a model reading the
    set takes: a label out of range, or images of another shape, are a
    DataError."""
    root = Path(path)
    labels_file = root / "labels.csv"
    if not labels_file.is_file():
        raise DataError(f"{labels_file}: labels file not found")
    rows: list[tuple[str, int]] = []
    pixels: list[np.ndarray] = []
    seen: set[str] = set()
    max_label = -1
    with open_text(labels_file) as fh:
        reader = csv.DictReader(fh)
        names = [f.strip() for f in reader.fieldnames or ()]
        if names != ["id", "filename", "label"]:
            raise DataError(f"{labels_file}: header must be id,filename,label")
        reader.fieldnames = names  # key rows by the names the check accepted
        for row in reader:
            # DictReader keys surplus fields under None and fills missing ones with None
            if None in row or None in row.values():
                raise DataError(f"{labels_file}:{reader.line_num}: row needs "
                                "3 fields id,filename,label")
            sid, text = row["id"], row["label"]
            if sid in seen:
                raise DataError(f"sample '{sid}': id repeated at "
                                f"{labels_file}:{reader.line_num}")
            seen.add(sid)
            # digits only: int() would also take '1_0', ' +1 ' or '-1'
            if not (text.isascii() and text.isdigit()):
                raise DataError(f"sample '{sid}': label '{text}' is not one "
                                "class id")
            label = int(text)
            img_path = root / row["filename"]
            try:
                image = _read_pixels(img_path)
            except (OSError, DataError) as e:
                raise DataError(f"sample '{sid}': {e}") from None
            if pixels and image.shape != pixels[0].shape:
                raise DataError(f"sample '{sid}': image shape {image.shape} "
                                f"differs from {pixels[0].shape} of "
                                f"sample '{rows[0][0]}'")
            max_label = max(max_label, label)
            rows.append((sid, label))
            pixels.append(image)
    if not rows:
        raise DataError(f"{labels_file}: no samples listed")
    if image_shape is not None and pixels[0].shape != image_shape:
        raise DataError(f"{root}: images are {pixels[0].shape} "
                        f"(C, H, W), the model takes {image_shape}")
    # one conversion for the set; each sample's image is a view of it
    images = np.stack(pixels) / 255.0
    samples = [Sample(sid, image, label)
               for (sid, label), image in zip(rows, images)]
    inferred = max_label + 1
    if n_classes is None:
        n_classes = inferred
    elif inferred > n_classes:
        raise DataError(f"label {max_label} out of range for {n_classes} classes")
    return Dataset(samples, n_classes)


def batch_iter(dataset: Dataset, batch_size: int, seed: int, epoch: int = 0,
               shuffle: bool = True, flip: bool = False):
    """Yield (ids, images, labels) batches, deterministic given (seed, epoch);
    labels are class ids.

    With ``flip`` each sample is horizontally mirrored with probability 0.5,
    re-drawn every epoch.
    """
    n = len(dataset)
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
    order = rng.permutation(n) if shuffle else np.arange(n)
    flips = rng.random(n) < 0.5 if flip else np.zeros(n, dtype=bool)
    labels = dataset.label_array()
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        images = np.stack([dataset.samples[i].image for i in idx])
        do_flip = flips[idx]
        if do_flip.any():
            images = images.copy()
            images[do_flip] = images[do_flip][..., ::-1]
        ids = [dataset.samples[i].id for i in idx]
        yield ids, images, labels[idx]


# --------------------------------------------------------------------------
# synthetic confusable-classes generator
# --------------------------------------------------------------------------

MOTIF_KINDS = ("disk", "bar", "cross")

# the drawing values every set shares: the largest offset, in pixels per
# axis, of the confounder and of each motif from its mid position, and the
# pixel values in [0, 1] of the background, the confounder disk and the
# discriminative motifs
JITTER = 2
BACKGROUND = 0.1
CONFOUNDER_VALUE = 0.65
MOTIF_VALUE = 1.0

# anchor slots for discriminative motifs, as (row, col) corner factors
_ANCHOR_FACTORS = ((0, 0), (1, 1), (0, 1), (1, 0),
                   (0.5, 0), (0.5, 1), (0, 0.5), (1, 0.5))


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int = 4
    canvas: int = 32
    noise_std: float = 0.05
    confusable_pair: tuple[int, int] = (0, 1)
    motif_size: int = 7            # discriminative motif bounding-box edge
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.n_classes > len(_ANCHOR_FACTORS):
            raise ValueError(f"at most {len(_ANCHOR_FACTORS)} classes supported")
        if len(self.confusable_pair) != 2:
            raise ValueError("confusable_pair must be two class ids, got "
                             f"{self.confusable_pair}")
        a, b = self.confusable_pair
        if a == b or not (0 <= a < self.n_classes and 0 <= b < self.n_classes):
            raise ValueError(f"invalid confusable pair {self.confusable_pair}")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.motif_size < 1:
            raise ValueError(f"motif_size must be >= 1, got {self.motif_size}")
        if self.box_edge > self.canvas // 2:
            raise ValueError(f"motif_size: motif box {self.box_edge} does not "
                             f"fit a {self.canvas}-pixel canvas half")

    @property
    def box_edge(self) -> int:
        return self.motif_size + 2 * JITTER

    def anchor(self, class_id: int) -> tuple[int, int]:
        """Top-left corner of the class's discriminative bounding box."""
        fy, fx = _ANCHOR_FACTORS[class_id]
        lo, hi = 1, self.canvas - 1 - self.box_edge
        return (round(lo + fy * (hi - lo)), round(lo + fx * (hi - lo)))

    def motif_kind(self, class_id: int) -> str:
        return MOTIF_KINDS[class_id % len(MOTIF_KINDS)]

    def motif_box(self, class_id: int) -> tuple[int, int, int, int]:
        """(row0, col0, row1, col1) bounding box, end-exclusive."""
        r, c = self.anchor(class_id)
        return (r, c, r + self.box_edge, c + self.box_edge)


def _draw_disk(img, cy, cx, r, val):
    yy, xx = np.ogrid[:img.shape[0], :img.shape[1]]
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = val


def _draw_bar(img, cy, cx, half_len, half_th, val):
    img[cy - half_th:cy + half_th + 1, cx - half_len:cx + half_len + 1] = val


def _draw_cross(img, cy, cx, half_len, half_th, val):
    _draw_bar(img, cy, cx, half_len, half_th, val)
    img[cy - half_len:cy + half_len + 1, cx - half_th:cx + half_th + 1] = val


def _render(spec: SynthSpec, class_id: int, index: int) -> np.ndarray:
    """One uint8 canvas; the confusable pair shares noise and confounder."""
    in_pair = class_id in spec.confusable_pair
    shared_key = 999983 if in_pair else class_id
    shared = np.random.default_rng(
        np.random.SeedSequence([spec.seed, shared_key, index]))
    own = np.random.default_rng(
        np.random.SeedSequence([spec.seed, 7 + class_id, index]))

    img = BACKGROUND + shared.normal(0.0, spec.noise_std,
                                     size=(spec.canvas, spec.canvas))
    if in_pair:
        cj = shared.integers(-JITTER, JITTER + 1, size=2)
        _draw_disk(img, spec.canvas // 2 + cj[0], spec.canvas // 2 + cj[1],
                   spec.canvas // 6, CONFOUNDER_VALUE)

    r0, c0, _, _ = spec.motif_box(class_id)
    half = spec.motif_size // 2
    jy, jx = own.integers(0, 2 * JITTER + 1, size=2)
    cy, cx = r0 + half + jy, c0 + half + jx
    kind = spec.motif_kind(class_id)
    if kind == "disk":
        _draw_disk(img, cy, cx, half, MOTIF_VALUE)
    elif kind == "bar":
        _draw_bar(img, cy, cx, half, max(1, half // 2), MOTIF_VALUE)
    else:
        _draw_cross(img, cy, cx, half, max(1, half // 3), MOTIF_VALUE)

    return np.clip(np.round(np.clip(img, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)


def generate_synth(spec: SynthSpec, n_per_class: int, out_dir) -> int:
    """Write the dataset; deterministic bytes given (spec, seed).

    Each ``c<class>_<index>.pgm`` already in ``out_dir`` that the new
    ``labels.csv`` does not list, left by an earlier, larger set, is
    removed; no other file is touched.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for class_id in range(spec.n_classes):
        for index in range(n_per_class):
            sid = f"c{class_id}_{index:04d}"
            fname = f"{sid}.pgm"
            write_pgm(root / fname, _render(spec, class_id, index))
            rows.append((sid, fname, class_id))
    write_csv(root / "labels.csv", ("id", "filename", "label"), rows)
    listed = {fname for _, fname, _ in rows}
    for path in root.glob("c*_*.pgm"):
        if (path.name not in listed
                and re.fullmatch(r"c\d+_\d+\.pgm", path.name)):
            path.unlink()
    return len(rows)
