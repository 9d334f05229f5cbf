"""Desk-scale convolutional classifier, losses, optimizer, and schedules.

The model is a stack of conv3x3/ReLU/maxpool blocks followed by global
average pooling and an affine head.  Batch normalization is deliberately
absent: every op is per-sample independent, which is what makes the batched
attention-gradient trick in :mod:`icasc.attention` valid.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import DataError

MAGIC = b"ICASCKPT"
CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Model configuration violates an invariant."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared where training cannot proceed."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description.

    ``channels`` gives the output width of each conv block.  The attention
    layers are fixed by policy: "inner" is the output of the penultimate
    block, "last" the output of the final block.
    """

    channels: tuple[int, ...] = (16, 32, 64)
    input_size: int = 32
    input_channels: int = 3
    n_classes: int = 10
    kernel_size: int = 3

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if len(self.channels) < 2:
            raise ConfigError("need at least 2 blocks so the inner and last "
                              "attention layers are distinct")
        if any(c < 1 for c in self.channels):
            raise ConfigError(f"invalid channel counts {self.channels}")
        if self.kernel_size % 2 != 1:
            raise ConfigError("kernel size must be odd (same-padding blocks)")
        size = self.input_size
        for _ in self.channels:
            if size % 2 != 0:
                raise ConfigError(f"spatial size {size} not divisible by 2 "
                                  "at some pooling stage")
            size //= 2
        if size < 2:
            raise ConfigError(f"spatial size after all poolings is {size}, "
                              "need >= 2 so attention maps are non-degenerate")

    @property
    def n_blocks(self) -> int:
        return len(self.channels)

    def block_spatial(self, block: int) -> int:
        """Spatial size of the given block's output (0-based)."""
        return self.input_size // (2 ** (block + 1))

    def to_dict(self) -> dict:
        return {"channels": list(self.channels), "input_size": self.input_size,
                "input_channels": self.input_channels,
                "n_classes": self.n_classes, "kernel_size": self.kernel_size}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(channels=tuple(d["channels"]),
                           input_size=d["input_size"],
                           input_channels=d["input_channels"],
                           n_classes=d["n_classes"],
                           kernel_size=d.get("kernel_size", 3))


@dataclass
class ForwardRecord:
    """Everything one forward pass produces that later stages need."""

    logits: Tensor                    # (N, n_classes), tape-live
    probabilities: np.ndarray         # softmax or per-class sigmoid, detached
    feats: dict                       # {"inner": Tensor, "last": Tensor}
    param_leaves: dict                # name -> leaf Tensor (empty when untaped)
    multi_label: bool = False


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Model:
    """Parameter container plus the forward pass."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @staticmethod
    def build(config: ModelConfig, seed: int) -> "Model":
        """Fan-in-scaled Gaussian weights (std = sqrt(2/fan_in)), zero biases."""
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        cin = config.input_channels
        k = config.kernel_size
        for i, cout in enumerate(config.channels):
            fan_in = cin * k * k
            params[f"block{i}.w"] = rng.normal(
                0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, k, k))
            params[f"block{i}.b"] = np.zeros(cout)
            cin = cout
        params["head.w"] = rng.normal(
            0.0, np.sqrt(2.0 / cin), size=(cin, config.n_classes))
        params["head.b"] = np.zeros(config.n_classes)
        return Model(config, params)

    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def forward(self, images: np.ndarray, tape: Optional[Tape] = None,
                multi_label: bool = False) -> ForwardRecord:
        """Run the network; with a tape, parameters are registered as leaves
        and the inner/last block outputs stay live for attention gradients."""
        images = np.asarray(images, dtype=np.float64)
        cfg = self.config
        if images.ndim != 4 or images.shape[1] != cfg.input_channels \
                or images.shape[2] != cfg.input_size or images.shape[3] != cfg.input_size:
            raise ad.ShapeError(
                f"batch shape {images.shape} does not match config "
                f"(N, {cfg.input_channels}, {cfg.input_size}, {cfg.input_size})")

        if tape is not None:
            leaves = {name: tape.leaf(arr) for name, arr in self.params.items()}
        else:
            leaves = {name: Tensor(arr) for name, arr in self.params.items()}

        pad = cfg.kernel_size // 2
        x = Tensor(images)
        feats = {}
        n = images.shape[0]
        for i, cout in enumerate(cfg.channels):
            x = ad.conv2d(x, leaves[f"block{i}.w"], stride=1, padding=pad)
            bias = ad.broadcast_axes(leaves[f"block{i}.b"], x.shape, (0, 2, 3))
            x = ad.relu(ad.add(x, bias))
            x = ad.maxpool2d(x, window=2, stride=2)
            if i == cfg.n_blocks - 2:
                feats["inner"] = x
            elif i == cfg.n_blocks - 1:
                feats["last"] = x
        pooled = ad.global_avg_pool(x)
        logits = ad.affine(pooled, leaves["head.w"], leaves["head.b"])
        probs = ad.sigmoid_array(logits.data) if multi_label else softmax(logits.data)
        return ForwardRecord(logits=logits, probabilities=probs, feats=feats,
                             param_leaves=leaves if tape is not None else {},
                             multi_label=multi_label)


# --------------------------------------------------------------------------
# classification losses
# --------------------------------------------------------------------------


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ad.ShapeError(f"labels must be 1-D, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label out of range [0, {n_classes})")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Batch-averaged cross-entropy, computed via log-sum-exp.

    The per-row max is subtracted as a detached constant; the gradient is
    unchanged by that shift.
    """
    n, c = logits.shape
    hot = one_hot(labels, c)
    m = logits.data.max(axis=1)                                   # (N,)
    shifted = ad.sub(logits, ad.broadcast_axes(Tensor(m), (n, c), (1,)))
    lse = ad.add(ad.log(ad.reduce_sum(ad.exp(shifted), (1,))), Tensor(m))
    picked = ad.reduce_sum(ad.mul(logits, Tensor(hot)), (1,))     # (N,)
    return ad.reduce_mean(ad.sub(lse, picked))


def multilabel_soft_margin(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over classes of -[y*log sig(z) + (1-y)*log sig(-z)], batch-averaged.

    Written with softplus so large logits cannot underflow the log.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ad.ShapeError(f"targets shape {targets.shape} != logits {logits.shape}")
    if not np.all((targets == 0) | (targets == 1)):
        raise ValueError("multi-label targets must be binary")
    if np.any(targets.sum(axis=1) == 0):
        raise ValueError("multi-label sample with no positive class "
                         "(confusing class undefined)")
    # -log sig(z) = softplus(-z); -log sig(-z) = softplus(z)
    pos = ad.mul(Tensor(targets), ad.softplus(ad.scale(logits, -1.0)))
    neg = ad.mul(Tensor(1.0 - targets), ad.softplus(logits))
    return ad.reduce_mean(ad.add(pos, neg))


# --------------------------------------------------------------------------
# optimizer and schedules
# --------------------------------------------------------------------------


class SgdOptimizer:
    """SGD with momentum and decoupled-from-nothing classic weight decay:
    v <- momentum*v + grad + wd*param; param <- param - lr*v.
    """

    def __init__(self, momentum: float = 0.9, weight_decay: float = 0.0):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], lr: float) -> None:
        for name, p in params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for '{name}'; "
                                     "aborting update")
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v = self.momentum * v + g + self.weight_decay * p
            self.velocity[name] = v
            params[name] = p - lr * v

    def state_arrays(self) -> dict[str, np.ndarray]:
        return dict(self.velocity)

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self.velocity = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}


def lr_schedule(kind: str, epoch: int, total_epochs: int, base_lr: float,
                milestones: tuple[int, ...] = ()) -> float:
    """Step decay (x0.1 at each passed milestone) or single-cycle cosine."""
    if epoch >= total_epochs:
        raise ValueError(f"epoch {epoch} >= total_epochs {total_epochs}")
    if kind == "step":
        passed = sum(1 for m in milestones if epoch >= m)
        return base_lr * (0.1 ** passed)
    if kind == "cosine":
        return float(base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0)
    raise ValueError(f"unknown schedule kind '{kind}'")


# --------------------------------------------------------------------------
# checkpoints
#
# Layout (little-endian): magic, u32 version, u32 config-JSON length, the
# JSON bytes, u32 parameter count, then per parameter: u32 name length,
# name bytes, u32 ndim, u64 dims, float64 row-major values.
# --------------------------------------------------------------------------


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(fh) -> tuple[str, np.ndarray]:
    (nlen,) = struct.unpack("<I", fh.read(4))
    name = fh.read(nlen).decode("utf-8")
    (ndim,) = struct.unpack("<I", fh.read(4))
    shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim)) if ndim else ()
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
    return name, data.astype(np.float64)


def save_checkpoint(path, model: Model, extra: Optional[dict] = None) -> None:
    """Versioned binary checkpoint: config JSON + named float64 arrays."""
    header = {"config": model.config.to_dict()}
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(model.params)))
        for name, arr in model.params.items():
            _write_array(fh, name, arr)


@contextmanager
def _reading(path, magic: bytes, kind: str):
    """Open a versioned binary file past its magic and version.

    Bad magic, an unknown version, and truncated or garbled content all
    raise :class:`DataError` naming the file.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(magic)) != magic:
                raise DataError(f"{path}: not a {kind} file")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != CHECKPOINT_VERSION:
                raise DataError(f"{path}: unsupported {kind} version {version}")
            yield fh
    except DataError:
        raise
    except (struct.error, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: corrupt {kind} file ({e})") from None


def load_checkpoint(path) -> tuple[Model, dict]:
    with _reading(path, MAGIC, "checkpoint") as fh:
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        (count,) = struct.unpack("<I", fh.read(4))
        params = dict(_read_array(fh) for _ in range(count))
        config = ModelConfig.from_dict(header["config"])
    return Model(config, params), header


def save_train_state(path, epoch_next: int, optimizer: SgdOptimizer) -> None:
    """Sidecar file so a resumed run continues bit-exactly."""
    vel = optimizer.state_arrays()
    with open(path, "wb") as fh:
        fh.write(b"ICASCOPT")
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", epoch_next))
        fh.write(struct.pack("<I", len(vel)))
        for name, arr in vel.items():
            _write_array(fh, name, arr)


def load_train_state(path) -> tuple[int, dict[str, np.ndarray]]:
    with _reading(path, b"ICASCOPT", "training-state") as fh:
        (epoch_next,) = struct.unpack("<I", fh.read(4))
        (count,) = struct.unpack("<I", fh.read(4))
        vel = dict(_read_array(fh) for _ in range(count))
    return epoch_next, vel
