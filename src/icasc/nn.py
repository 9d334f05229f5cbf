"""Desk-scale convolutional classifier, losses, optimizer, and schedules.

The model is a stack of conv/maxpool/ReLU blocks followed by global average
pooling and a head that is a ``matmul`` plus a bias add.  Each conv has an
odd k x k kernel at stride 1 and padding k // 2, and each pool a 2x2 window
at stride 2: the one geometry ``autodiff.conv2d`` and ``maxpool2d`` take.
A block's ``conv2d`` adds the block's bias itself, in place, so no second
map of the conv's size is written or taped.  Each block pools before its
ReLU: max commutes with ReLU, so the values are those of ReLU-then-pool,
and the ReLU and its backward masks act on the pooled quarter-size map.
Batch normalization is deliberately absent: every op is per-sample
independent, which is what makes the batched attention-gradient trick in
:mod:`icasc.attention` valid.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import DataError, atomic_open

MAGIC = b"ICASCKPT"
CHECKPOINT_VERSION = 2


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

    channels: tuple[int, ...]
    input_size: int
    input_channels: int
    n_classes: int
    kernel_size: int = 3

    def __post_init__(self):
        try:
            object.__setattr__(self, "channels",
                               tuple(operator.index(c) for c in self.channels))
            for name in ("input_size", "input_channels", "n_classes",
                         "kernel_size"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError:
            raise ConfigError(f"sizes and counts must be integers: {self}") from None
        if len(self.channels) < 2:
            raise ConfigError("need at least 2 blocks so the inner and last "
                              "attention layers are distinct")
        if min(*self.channels, self.input_channels, self.n_classes) < 1:
            raise ConfigError(f"channel and class counts must be >= 1: {self}")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ConfigError(f"kernel size must be odd and >= 1 (same-padding "
                              f"blocks), got {self.kernel_size}")
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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """The config ``to_dict`` gave; a missing or extra key raises
        ConfigError."""
        names = {f.name for f in fields(ModelConfig)}
        if set(d) != names:
            raise ConfigError(f"model config has keys {sorted(d)}, "
                              f"expected {sorted(names)}")
        return ModelConfig(**d)


@dataclass
class ForwardRecord:
    """Everything one forward pass produces that later stages need."""

    logits: Tensor                    # (N, n_classes), tape-live
    probabilities: np.ndarray         # softmax, detached
    feats: dict                       # {"inner": Tensor, "last": Tensor}
    param_leaves: dict                # name -> leaf Tensor (empty when untaped)


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

    def forward(self, images: np.ndarray, tape: Optional[Tape] = None,
                from_inner: bool = False) -> ForwardRecord:
        """Run the network; with a tape, parameters are registered as leaves
        and the inner/last block outputs stay live for attention gradients.

        With ``from_inner`` the tape starts at the inner features instead:
        the blocks before them run untaped, their output is the tape's one
        leaf, and no parameter is a leaf.  That is the whole graph a
        first-order class gradient toward the tracked layers reads, so
        evaluation passes tape only it; training needs the full tape.
        """
        images = np.asarray(images, dtype=np.float64)
        cfg = self.config
        if images.ndim != 4 or images.shape[1] != cfg.input_channels \
                or images.shape[2] != cfg.input_size or images.shape[3] != cfg.input_size:
            raise ad.ShapeError(
                f"batch shape {images.shape} does not match config "
                f"(N, {cfg.input_channels}, {cfg.input_size}, {cfg.input_size})")
        if from_inner and tape is None:
            raise ValueError("from_inner starts a tape, so it needs one")

        taped_params = tape is not None and not from_inner
        if taped_params:
            leaves = {name: tape.leaf(arr) for name, arr in self.params.items()}
        else:
            leaves = {name: Tensor(arr) for name, arr in self.params.items()}

        x = Tensor(images)
        feats = {}
        for i, cout in enumerate(cfg.channels):
            x = ad.conv2d(x, leaves[f"block{i}.w"], bias=leaves[f"block{i}.b"])
            # max commutes with ReLU, so pooling first gives the same values
            # while the ReLU and its backward masks see a quarter of the map
            x = ad.relu(ad.maxpool2d(x))
            if i == cfg.n_blocks - 2:
                if from_inner:
                    x = tape.leaf(x.data)    # frozen engine output: no copy
                feats["inner"] = x
            elif i == cfg.n_blocks - 1:
                feats["last"] = x
        logits = ad.matmul(ad.reduce_mean(x, (2, 3)), leaves["head.w"])
        bias = ad.broadcast_axes(leaves["head.b"], logits.shape, (0,))
        logits = ad.add(logits, bias)
        return ForwardRecord(logits=logits, probabilities=softmax(logits.data),
                             feats=feats,
                             param_leaves=leaves if taped_params else {})


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


# --------------------------------------------------------------------------
# optimizer and schedules
# --------------------------------------------------------------------------


class SgdOptimizer:
    """SGD with momentum and decoupled-from-nothing classic weight decay:
    v <- momentum*v + grad + wd*param; param <- param - lr*v.
    """

    def __init__(self, momentum: float, weight_decay: float):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], lr: float) -> None:
        """Update every parameter, or, on any non-finite gradient, none:
        all gradients are checked before the first update."""
        for name in params:
            if not np.all(np.isfinite(grads[name])):
                raise NumericalError(f"non-finite gradient for '{name}'; "
                                     "aborting update")
        for name, p in params.items():
            g = grads[name]
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v = self.momentum * v + g + self.weight_decay * p
            self.velocity[name] = v
            params[name] = p - lr * v


SCHEDULES = ("step", "cosine")


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
# JSON bytes, then the parameters and the optimizer velocities (none unless
# given), each as a u32 count and per array: u32 name length, name bytes,
# u32 ndim, u64 dims, float64 row-major values.
# --------------------------------------------------------------------------


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read(fh, n: int) -> bytes:
    """Read ``n`` bytes, or raise DataError if fewer are left in the file.

    Every length read from a file goes through here, so a damaged length
    field is reported before it can ask for a huge buffer.
    """
    pos = fh.tell()
    left = os.fstat(fh.fileno()).st_size - pos
    if n > left:
        raise DataError(f"{fh.name}: corrupt file ({n} bytes needed at "
                        f"offset {pos}, {left} left)")
    return fh.read(n)


def _read_array(fh) -> tuple[str, np.ndarray]:
    (nlen,) = struct.unpack("<I", _read(fh, 4))
    name = _read(fh, nlen).decode("utf-8")
    (ndim,) = struct.unpack("<I", _read(fh, 4))
    shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim))
    data = np.frombuffer(_read(fh, 8 * math.prod(shape)), dtype="<f8")
    return name, data.reshape(shape).astype(np.float64)


def save_checkpoint(path, model: Model, extra: Optional[dict] = None,
                    velocity: Optional[dict[str, np.ndarray]] = None) -> None:
    """Versioned binary checkpoint: config JSON, named float64 parameters,
    then the optimizer ``velocity``; a crash mid-save leaves the old file."""
    header = {"config": model.config.to_dict()}
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arrays in (model.params, velocity or {}):
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                _write_array(fh, name, arr)


def _check_params(path, arrays: dict[str, np.ndarray],
                  expected: dict[str, np.ndarray],
                  what: str = "parameter") -> None:
    """Raise DataError naming the file and the parameter unless ``arrays``
    holds exactly ``expected``'s parameter names, each with its shape."""
    for name, want in expected.items():
        have = arrays.get(name)
        if have is None or have.shape != want.shape:
            found = "missing" if have is None else f"of shape {have.shape}"
            raise DataError(f"{path}: {what} '{name}' is {found}, the "
                            f"model needs shape {want.shape}")
    extra = sorted(arrays.keys() - expected.keys())
    if extra:
        raise DataError(f"{path}: {what} '{extra[0]}' is not in the model")


def load_checkpoint(path) -> tuple[Model, dict]:
    """Read a checkpoint; ``header["velocity"]`` holds its velocities, empty
    if none were saved.  Any damage raises DataError naming the file."""
    try:
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise DataError(f"{path}: not a checkpoint file")
            (version,) = struct.unpack("<I", _read(fh, 4))
            if version != CHECKPOINT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version "
                                f"{version}")
            (hlen,) = struct.unpack("<I", _read(fh, 4))
            header = json.loads(_read(fh, hlen).decode("utf-8"))
            (count,) = struct.unpack("<I", _read(fh, 4))
            params = dict(_read_array(fh) for _ in range(count))
            (count,) = struct.unpack("<I", _read(fh, 4))
            velocity = dict(_read_array(fh) for _ in range(count))
            config = ModelConfig.from_dict(header["config"])
    except DataError:
        raise
    except (struct.error, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: corrupt checkpoint file ({e})") from None
    _check_params(path, params, Model.build(config, 0).params)
    if velocity:
        _check_params(path, velocity, params, "velocity")
    header["velocity"] = velocity
    return Model(config, params), header
