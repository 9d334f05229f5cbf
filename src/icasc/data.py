"""Dataset formats and the synthetic confusable-classes generator.

On-disk format: a directory with ``labels.csv`` (columns id, filename,
label; multi-label values semicolon-joined) plus binary 8-bit PGM (P5) or
PPM (P6) images, maxval 255.  Chosen for zero-dependency parsing.

The synthetic generator produces a dataset where one designated class pair
shares a "confounder" motif drawn identically (same noise field, same
position) in both classes, while each class carries its own small
discriminative motif in a spatially distinct corner.  A model that attends
only to the confounder cannot tell the pair apart, so attention separation
has a known correct answer: the discriminative corners.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Dataset, image or checkpoint file is missing, corrupt, or inconsistent."""


# --------------------------------------------------------------------------
# Netpbm reading/writing
# --------------------------------------------------------------------------


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255; gray is (H, W) uint8."""
    gray = np.asarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise DataError(f"PGM image must be 2-D, got {gray.shape}")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary PPM (P6), maxval 255; rgb is (H, W, 3) uint8."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DataError(f"PPM image must be (H, W, 3), got {rgb.shape}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def _read_header_tokens(fh, count: int, path) -> list[int]:
    """Read whitespace-separated header ints, skipping # comments."""
    tokens: list[int] = []
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise DataError(f"{path}: truncated Netpbm header")
        if ch.isspace():
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        tok = ch
        while True:
            ch = fh.read(1)
            if not ch or ch.isspace():
                break
            tok += ch
        if not tok.isdigit():
            raise DataError(f"{path}: non-numeric Netpbm header token {tok!r}")
        tokens.append(int(tok))
    return tokens


def read_image(path) -> np.ndarray:
    """Read PGM/PPM into float64 (C, H, W) scaled to [0, 1]."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise DataError(f"{path}: unsupported image magic {magic!r}")
        w, h, maxval = _read_header_tokens(fh, 3, path)
        if w < 1 or h < 1:
            raise DataError(f"{path}: non-positive image size {w}x{h}")
        if maxval != 255:
            raise DataError(f"{path}: maxval {maxval} unsupported (need 255)")
        channels = 1 if magic == b"P5" else 3
        raw = fh.read(w * h * channels)
        if len(raw) != w * h * channels:
            raise DataError(f"{path}: truncated pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return arr.reshape(1, h, w)
    return arr.reshape(h, w, 3).transpose(2, 0, 1)


# --------------------------------------------------------------------------
# samples and datasets
# --------------------------------------------------------------------------


@dataclass
class Sample:
    id: str
    image: np.ndarray              # (C, H, W) in [0, 1]
    labels: tuple[int, ...]


@dataclass
class Dataset:
    samples: list[Sample]
    n_classes: int

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def multi_label(self) -> bool:
        return any(len(s.labels) > 1 for s in self.samples)

    def label_array(self, multi_label: bool) -> np.ndarray:
        if multi_label:
            out = np.zeros((len(self.samples), self.n_classes))
            for i, s in enumerate(self.samples):
                out[i, list(s.labels)] = 1.0
            return out
        return np.array([s.labels[0] for s in self.samples], dtype=np.int64)


def load_dataset(path, n_classes: int | None = None) -> Dataset:
    """Load a labels.csv directory; errors name the offending sample id."""
    root = Path(path)
    labels_file = root / "labels.csv"
    if not labels_file.is_file():
        raise DataError(f"{labels_file}: labels file not found")
    samples: list[Sample] = []
    max_label = -1
    with open(labels_file, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                [f.strip() for f in reader.fieldnames] != ["id", "filename", "label"]:
            raise DataError(f"{labels_file}: header must be id,filename,label")
        for row in reader:
            sid = row["id"]
            try:
                labels = tuple(int(tok) for tok in row["label"].split(";"))
            except ValueError:
                raise DataError(f"sample '{sid}': malformed label "
                                f"'{row['label']}'") from None
            if any(l < 0 for l in labels):
                raise DataError(f"sample '{sid}': negative label")
            img_path = root / row["filename"]
            try:
                image = read_image(img_path)
            except (OSError, DataError) as e:
                raise DataError(f"sample '{sid}': {e}") from None
            if samples and image.shape != samples[0].image.shape:
                raise DataError(f"sample '{sid}': image shape {image.shape} "
                                f"differs from {samples[0].image.shape} of "
                                f"sample '{samples[0].id}'")
            max_label = max(max_label, max(labels))
            samples.append(Sample(sid, image, labels))
    inferred = max_label + 1
    if n_classes is None:
        n_classes = inferred
    elif inferred > n_classes:
        raise DataError(f"label {max_label} out of range for {n_classes} classes")
    return Dataset(samples, n_classes)


def batch_iter(dataset: Dataset, batch_size: int, seed: int, epoch: int = 0,
               shuffle: bool = True, flip: bool = False,
               multi_label: bool = False):
    """Yield (ids, images, labels) batches, deterministic given (seed, epoch).

    With ``flip`` each sample is horizontally mirrored with probability 0.5,
    re-drawn every epoch.
    """
    n = len(dataset)
    if n == 0:
        return
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
    order = rng.permutation(n) if shuffle else np.arange(n)
    flips = rng.random(n) < 0.5 if flip else np.zeros(n, dtype=bool)
    labels = dataset.label_array(multi_label)
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
    jitter: int = 2
    background: float = 0.1
    confounder_value: float = 0.65
    motif_value: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.n_classes > len(_ANCHOR_FACTORS):
            raise ValueError(f"at most {len(_ANCHOR_FACTORS)} classes supported")
        a, b = self.confusable_pair
        if a == b or not (0 <= a < self.n_classes and 0 <= b < self.n_classes):
            raise ValueError(f"invalid confusable pair {self.confusable_pair}")
        if self.box_edge > self.canvas // 2:
            raise ValueError(f"motif_size: motif box {self.box_edge} does not "
                             f"fit a {self.canvas}-pixel canvas half")

    @property
    def box_edge(self) -> int:
        return self.motif_size + 2 * self.jitter

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

    img = spec.background + shared.normal(0.0, spec.noise_std,
                                          size=(spec.canvas, spec.canvas))
    if in_pair:
        cj = shared.integers(-spec.jitter, spec.jitter + 1, size=2)
        _draw_disk(img, spec.canvas // 2 + cj[0], spec.canvas // 2 + cj[1],
                   spec.canvas // 6, spec.confounder_value)

    r0, c0, _, _ = spec.motif_box(class_id)
    half = spec.motif_size // 2
    jy, jx = own.integers(0, 2 * spec.jitter + 1, size=2)
    cy, cx = r0 + half + jy, c0 + half + jx
    kind = spec.motif_kind(class_id)
    if kind == "disk":
        _draw_disk(img, cy, cx, half, spec.motif_value)
    elif kind == "bar":
        _draw_bar(img, cy, cx, half, max(1, half // 2), spec.motif_value)
    else:
        _draw_cross(img, cy, cx, half, max(1, half // 3), spec.motif_value)

    return np.clip(np.round(np.clip(img, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)


def generate_synth(spec: SynthSpec, n_per_class: int, out_dir) -> int:
    """Write the dataset; deterministic bytes given (spec, seed)."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for class_id in range(spec.n_classes):
        for index in range(n_per_class):
            sid = f"c{class_id}_{index:04d}"
            fname = f"{sid}.pgm"
            write_pgm(root / fname, _render(spec, class_id, index))
            rows.append((sid, fname, str(class_id)))
    with open(root / "labels.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "filename", "label"])
        writer.writerows(rows)
    return len(rows)
