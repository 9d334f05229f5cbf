"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is tape-based: every operation appends a node recording its kind,
its operands, and whatever the derivative rule needs.  Backward rules are
themselves written in terms of the public ops, so when ``backward`` is called
with ``create_graph=True`` the returned gradients are live tape tensors and
can be differentiated again.  That re-entrancy is what allows loss functions
to contain gradients of the network output (double backpropagation) without
any special casing.

Deterministic subgradient conventions (needed so gradient checks are
reproducible): ReLU derivative at exactly 0 is 0, elementwise ``minimum``
routes ties to the first argument, and max reductions / max pooling route
ties to the lowest flat index.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "DomainError",
    "UnsupportedOpError",
    "Tape",
    "Tensor",
    "backward",
    "DIV_EPSILON",
    "add",
    "sub",
    "mul",
    "div",
    "minimum",
    "relu",
    "sigmoid",
    "sigmoid_array",
    "exp",
    "log",
    "softplus",
    "scale",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "broadcast_axes",
    "reshape",
    "transpose2d",
    "matmul",
    "affine",
    "conv2d",
    "maxpool2d",
    "global_avg_pool",
    "bilinear_upsample",
    "bilinear_resize_array",
]

# Default safeguard added to every divide denominator; pass eps=0.0 to get a
# strict division that raises on zero denominators.
DIV_EPSILON = 1e-8


class AutodiffError(Exception):
    """Base class for engine errors."""


class ShapeError(AutodiffError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(AutodiffError, ArithmeticError):
    """Operand values are outside the operation's domain (e.g. log of <= 0)."""


class UnsupportedOpError(AutodiffError, RuntimeError):
    """A derivative rule required for the requested pass is not registered."""


# --------------------------------------------------------------------------
# tape and tensor
# --------------------------------------------------------------------------


@dataclass
class TapeNode:
    """One recorded operation.

    ``inputs`` holds ``(handle, value)`` pairs; the handle is None for
    constant operands.  ``meta`` stores exactly what the derivative rule
    needs (masks, indices, geometry), documented per op below.
    """

    kind: str
    inputs: tuple[tuple[Optional[int], np.ndarray], ...]
    value: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def parents(self) -> tuple[int, ...]:
        return tuple(h for h, _ in self.inputs if h is not None)


class Tape:
    """Append-only record of operations; single-writer.

    Parents of any node always precede it, so a reverse walk over handles is
    a valid reverse topological order.
    """

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []
        self.parameters: list[int] = []
        self._recording = True

    def __len__(self) -> int:
        return len(self.nodes)

    def _record(self, kind, inputs, value, meta=None) -> int:
        self.nodes.append(TapeNode(kind, tuple(inputs), value, meta or {}))
        return len(self.nodes) - 1

    def leaf(self, data, parameter: bool = True) -> "Tensor":
        """Register a watched leaf (trainable parameter by default)."""
        arr = _as_array(data)
        handle = self._record("leaf", (), arr)
        if parameter:
            self.parameters.append(handle)
        return Tensor(arr, self, handle, _own=True)

    def constant_node(self, data) -> "Tensor":
        """Record a constant as a node so downstream results stay tape-live."""
        arr = _as_array(data)
        handle = self._record("constant", (), arr)
        return Tensor(arr, self, handle, _own=True)

    @contextmanager
    def paused(self):
        """Suspend recording; ops executed inside yield constant tensors."""
        prev = self._recording
        self._recording = False
        try:
            yield self
        finally:
            self._recording = prev

    def kink_signature(self) -> str:
        """Hash of every routing decision recorded on the tape.

        Two evaluations of the same function at nearby points have equal
        signatures iff no ReLU/min/max/pool routing flipped between them,
        which makes finite-difference checks able to detect and skip
        kink-adjacent coordinates exactly.
        """
        h = hashlib.blake2b(digest_size=16)
        for i, node in enumerate(self.nodes):
            for key in ("mask", "mask_first", "argmax", "indices"):
                if key in node.meta:
                    h.update(node.kind.encode())
                    h.update(i.to_bytes(4, "little"))
                    h.update(np.ascontiguousarray(node.meta[key]).tobytes())
        return h.hexdigest()


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


class Tensor:
    """Dense float64 value, optionally attached to a tape node.

    A tensor with ``node is None`` is a constant: it never receives or
    propagates gradients.  Data arrays are frozen; treat tensors as
    immutable values.
    """

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Optional[Tape] = None, node: Optional[int] = None,
                 _own: bool = False):
        if _own:
            self.data = data
        else:
            self.data = _as_array(data)
        self.tape = tape
        self.node = node

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, None, None, _own=True)

    def __repr__(self) -> str:
        tag = f", node={self.node}" if self.node is not None else ""
        return f"Tensor(shape={self.shape}{tag})"

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    # -- method forms --------------------------------------------------------
    def sum(self, axes=None):
        return reduce_sum(self, axes)

    def mean(self, axes=None):
        return reduce_mean(self, axes)

    def max(self, axes=None):
        return reduce_max(self, axes)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def reshape(self, shape):
        return reshape(self, shape)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _tape_of(*tensors: Tensor) -> Optional[Tape]:
    tapes = {t.tape for t in tensors if t.tape is not None and t.node is not None}
    if len(tapes) > 1:
        raise AutodiffError("operands belong to different tapes")
    return tapes.pop() if tapes else None


def _emit(kind: str, inputs: Sequence[Tensor], value: np.ndarray, meta=None) -> Tensor:
    """Produce the op result, recording a node when recording applies."""
    value = _as_array(value)
    tape = _tape_of(*inputs)
    if tape is None or not tape._recording:
        return Tensor(value, None, None, _own=True)
    pairs = tuple(
        (t.node if (t.tape is tape and t.node is not None) else None, t.data)
        for t in inputs
    )
    handle = tape._record(kind, pairs, value, meta)
    return Tensor(value, tape, handle, _own=True)


# --------------------------------------------------------------------------
# backward rules registry
# --------------------------------------------------------------------------

# rule(node, grad_out, inputs, out) -> per-input gradient tensors (None = no flow)
_RULES: dict[str, Callable] = {}


def _rule(kind: str):
    def register(fn):
        _RULES[kind] = fn
        return fn

    return register


def _reduce_to(g: Tensor, target_shape: tuple[int, ...]) -> Tensor:
    """Collapse a full-shape gradient onto a size-1 operand's shape."""
    if g.shape == target_shape:
        return g
    total = reduce_sum(g, None)
    return reshape(total, target_shape)


# --------------------------------------------------------------------------
# elementwise ops
# --------------------------------------------------------------------------


def _binary_value(kind: str, a: Tensor, b: Tensor, fn) -> np.ndarray:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not match "
                         "(only scalar-vs-tensor mixing is supported)")
    return fn(a.data, b.data)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _emit("add", (a, b), _binary_value("add", a, b, np.add))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _emit("sub", (a, b), _binary_value("sub", a, b, np.subtract))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _emit("mul", (a, b), _binary_value("mul", a, b, np.multiply))


def div(a, b, eps: Optional[float] = None) -> Tensor:
    """Divide with a safeguard: denominator becomes ``b + eps``.

    ``eps=None`` uses DIV_EPSILON; ``eps=0.0`` disables the safeguard and a
    zero denominator raises DomainError instead of producing inf/nan.
    """
    a, b = _lift(a), _lift(b)
    if eps is None:
        eps = DIV_EPSILON
    denom_check = b.data + eps
    if np.any(denom_check == 0.0):
        raise DomainError("divide: zero denominator" +
                          ("" if eps else " with epsilon disabled"))
    value = _binary_value("div", a, b, lambda x, y: x / (y + eps))
    return _emit("div", (a, b), value, {"eps": eps})


def minimum(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    value = _binary_value("minimum", a, b, np.minimum)
    # ties route the gradient to the first argument
    mask_first = np.broadcast_to(a.data <= b.data,
                                 np.broadcast_shapes(a.shape, b.shape)).copy()
    return _emit("minimum", (a, b), value, {"mask_first": mask_first})


def relu(x) -> Tensor:
    x = _lift(x)
    mask = x.data > 0  # derivative at exactly 0 is 0
    return _emit("relu", (x,), np.where(mask, x.data, 0.0), {"mask": mask})


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, stable in both tails."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    x = _lift(x)
    return _emit("sigmoid", (x,), sigmoid_array(x.data))


def exp(x) -> Tensor:
    x = _lift(x)
    return _emit("exp", (x,), np.exp(x.data))


def log(x) -> Tensor:
    x = _lift(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log: non-positive input")
    return _emit("log", (x,), np.log(x.data))


def softplus(x) -> Tensor:
    x = _lift(x)
    return _emit("softplus", (x,), np.logaddexp(0.0, x.data))


def scale(x, c: float) -> Tensor:
    x = _lift(x)
    c = float(c)
    return _emit("scale", (x,), x.data * c, {"c": c})


@_rule("add")
def _add_rule(node, g, inputs, out):
    a, b = inputs
    return [_reduce_to(g, a.shape), _reduce_to(g, b.shape)]


@_rule("sub")
def _sub_rule(node, g, inputs, out):
    a, b = inputs
    return [_reduce_to(g, a.shape), _reduce_to(scale(g, -1.0), b.shape)]


@_rule("mul")
def _mul_rule(node, g, inputs, out):
    a, b = inputs
    return [_reduce_to(mul(g, b), a.shape), _reduce_to(mul(g, a), b.shape)]


@_rule("div")
def _div_rule(node, g, inputs, out):
    a, b = inputs
    eps = node.meta["eps"]
    da = _reduce_to(div(g, b, eps=eps), a.shape)
    db = _reduce_to(scale(div(mul(g, out), b, eps=eps), -1.0), b.shape)
    return [da, db]


@_rule("minimum")
def _minimum_rule(node, g, inputs, out):
    a, b = inputs
    first = node.meta["mask_first"].astype(np.float64)
    ga = _reduce_to(mul(g, Tensor(first)), a.shape)
    gb = _reduce_to(mul(g, Tensor(1.0 - first)), b.shape)
    return [ga, gb]


@_rule("relu")
def _relu_rule(node, g, inputs, out):
    return [mul(g, Tensor(node.meta["mask"].astype(np.float64)))]


@_rule("sigmoid")
def _sigmoid_rule(node, g, inputs, out):
    return [mul(g, mul(out, sub(1.0, out)))]


@_rule("exp")
def _exp_rule(node, g, inputs, out):
    return [mul(g, out)]


@_rule("log")
def _log_rule(node, g, inputs, out):
    return [div(g, inputs[0], eps=0.0)]


@_rule("softplus")
def _softplus_rule(node, g, inputs, out):
    return [mul(g, sigmoid(inputs[0]))]


@_rule("scale")
def _scale_rule(node, g, inputs, out):
    return [scale(g, node.meta["c"])]


# --------------------------------------------------------------------------
# reductions and shape ops
# --------------------------------------------------------------------------


def _norm_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(sorted(a % ndim for a in axes))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    for a in axes:
        if not 0 <= a < ndim:
            raise ShapeError(f"axis {a} invalid for ndim {ndim}")
    return axes


def _check_extent(x: Tensor, axes: tuple[int, ...]):
    for a in axes:
        if x.shape[a] == 0:
            raise ShapeError(f"empty reduction extent along axis {a} of {x.shape}")


def reduce_sum(x, axes=None) -> Tensor:
    x = _lift(x)
    axes = _norm_axes(axes, x.ndim)
    _check_extent(x, axes)
    return _emit("reduce_sum", (x,), np.sum(x.data, axis=axes),
                 {"axes": axes, "in_shape": x.shape})


def reduce_mean(x, axes=None) -> Tensor:
    x = _lift(x)
    axes = _norm_axes(axes, x.ndim)
    _check_extent(x, axes)
    n = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    return _emit("reduce_mean", (x,), np.mean(x.data, axis=axes),
                 {"axes": axes, "in_shape": x.shape, "n": n})


def reduce_max(x, axes=None) -> Tensor:
    """Max over axes; ties route the gradient to the lowest flat index."""
    x = _lift(x)
    axes = _norm_axes(axes, x.ndim)
    _check_extent(x, axes)
    value = np.max(x.data, axis=axes)
    kept = tuple(a for a in range(x.ndim) if a not in axes)
    moved = np.transpose(x.data, kept + axes)
    outer = int(np.prod([x.shape[a] for a in kept])) if kept else 1
    flat = moved.reshape(outer, -1)
    argmax = np.argmax(flat, axis=1)  # first occurrence = lowest index
    mask = np.zeros_like(flat)
    mask[np.arange(outer), argmax] = 1.0
    mask = np.transpose(mask.reshape(moved.shape), np.argsort(kept + axes))
    return _emit("reduce_max", (x,), value,
                 {"axes": axes, "in_shape": x.shape, "mask": mask,
                  "argmax": argmax})


def broadcast_axes(x, target_shape, axes) -> Tensor:
    """Expand ``x`` to ``target_shape`` by repeating along ``axes``.

    ``x`` must have exactly the shape of ``target_shape`` with ``axes``
    removed; this is the adjoint of a sum-reduction over the same axes.
    """
    x = _lift(x)
    target_shape = tuple(int(s) for s in target_shape)
    axes = _norm_axes(axes, len(target_shape))
    expect = tuple(s for i, s in enumerate(target_shape) if i not in axes)
    if x.shape != expect:
        raise ShapeError(f"broadcast_axes: have {x.shape}, need {expect} "
                         f"for target {target_shape} over axes {axes}")
    value = np.broadcast_to(np.expand_dims(x.data, axes), target_shape).copy()
    return _emit("broadcast_axes", (x,), value,
                 {"axes": axes, "target_shape": target_shape})


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(int(s) for s in np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
    try:
        value = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape {x.shape} -> {shape}: {e}") from None
    return _emit("reshape", (x,), value.copy(), {"in_shape": x.shape})


def transpose2d(x) -> Tensor:
    x = _lift(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose2d expects 2-D, got {x.shape}")
    return _emit("transpose2d", (x,), x.data.T.copy())


@_rule("reduce_sum")
def _reduce_sum_rule(node, g, inputs, out):
    return [broadcast_axes(g, node.meta["in_shape"], node.meta["axes"])]


@_rule("reduce_mean")
def _reduce_mean_rule(node, g, inputs, out):
    spread = broadcast_axes(g, node.meta["in_shape"], node.meta["axes"])
    return [scale(spread, 1.0 / node.meta["n"])]


@_rule("reduce_max")
def _reduce_max_rule(node, g, inputs, out):
    spread = broadcast_axes(g, node.meta["in_shape"], node.meta["axes"])
    return [mul(spread, Tensor(node.meta["mask"]))]


@_rule("broadcast_axes")
def _broadcast_axes_rule(node, g, inputs, out):
    return [reduce_sum(g, node.meta["axes"])]


@_rule("reshape")
def _reshape_rule(node, g, inputs, out):
    return [reshape(g, node.meta["in_shape"])]


@_rule("transpose2d")
def _transpose2d_rule(node, g, inputs, out):
    return [transpose2d(g)]


# --------------------------------------------------------------------------
# linear algebra
# --------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return _emit("matmul", (a, b), a.data @ b.data)


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` with the bias repeated over rows."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine bias shape {b.shape} != ({w.shape[1]},)")
    return _emit("affine", (x, w, b), x.data @ w.data + b.data)


@_rule("matmul")
def _matmul_rule(node, g, inputs, out):
    a, b = inputs
    return [matmul(g, transpose2d(b)), matmul(transpose2d(a), g)]


@_rule("affine")
def _affine_rule(node, g, inputs, out):
    x, w, b = inputs
    return [matmul(g, transpose2d(w)), matmul(transpose2d(x), g),
            reduce_sum(g, (0,))]


# --------------------------------------------------------------------------
# convolution family
#
# conv2d is bilinear in (input, kernel); its two partial adjoints conv2d_dx
# and conv2d_dw are bilinear too, and the three maps are closed under
# differentiation, which is what makes second/third-order passes exact.
# All share one geometry record: (stride, padding, x_shape, w_shape).
# --------------------------------------------------------------------------


def _conv_geometry(x_shape, w_shape, stride: int, padding: int):
    n, cin, h, w = x_shape
    cout, cin_k, kh, kw = w_shape
    if cin != cin_k:
        raise ShapeError(f"conv2d: input channels {cin} != kernel channels {cin_k}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d: spatial {h}x{w} with padding {padding} "
                         f"smaller than kernel {kh}x{kw}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """(N, Cin, H, W) -> (N, OH, OW, Cin, kh, kw) patch view (copied)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]            # (N, Cin, OH, OW, kh, kw)
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int,
            padding: int) -> np.ndarray:
    """Adjoint of _im2col; cols is (N, OH, OW, Cin, kh, kw)."""
    n, cin, h, w = x_shape
    oh, ow = cols.shape[1], cols.shape[2]
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding))
    cols = cols.transpose(0, 3, 1, 2, 4, 5)              # (N, Cin, OH, OW, kh, kw)
    for a in range(kh):
        for b in range(kw):
            xp[:, :, a:a + stride * oh:stride, b:b + stride * ow:stride] += \
                cols[:, :, :, :, a, b]
    if padding:
        return xp[:, :, padding:-padding, padding:-padding].copy()
    return xp


def _conv_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    cout, cin, kh, kw = w.shape
    oh, ow = _conv_geometry(x.shape, w.shape, stride, padding)
    cols = _im2col(x, kh, kw, stride, padding).reshape(-1, cin * kh * kw)
    out = cols @ w.reshape(cout, -1).T
    return out.reshape(x.shape[0], oh, ow, cout).transpose(0, 3, 1, 2)


def _conv_dx(g: np.ndarray, w: np.ndarray, x_shape, stride: int,
             padding: int) -> np.ndarray:
    cout, cin, kh, kw = w.shape
    n, oh, ow = g.shape[0], g.shape[2], g.shape[3]
    gmat = g.transpose(0, 2, 3, 1).reshape(-1, cout)
    cols = (gmat @ w.reshape(cout, -1)).reshape(n, oh, ow, cin, kh, kw)
    return _col2im(cols, x_shape, kh, kw, stride, padding)


def _conv_dw(x: np.ndarray, g: np.ndarray, w_shape, stride: int,
             padding: int) -> np.ndarray:
    cout, cin, kh, kw = w_shape
    cols = _im2col(x, kh, kw, stride, padding).reshape(-1, cin * kh * kw)
    gmat = g.transpose(0, 2, 3, 1).reshape(-1, cout)
    return (gmat.T @ cols).reshape(w_shape)


def _geom_meta(x_shape, w_shape, stride, padding):
    return {"stride": int(stride), "padding": int(padding),
            "x_shape": tuple(x_shape), "w_shape": tuple(w_shape)}


def conv2d(x, w, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with OIHW kernel, zero padding."""
    x, w = _lift(x), _lift(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D operands, got {x.shape}, {w.shape}")
    _conv_geometry(x.shape, w.shape, stride, padding)
    value = _conv_forward(x.data, w.data, stride, padding)
    return _emit("conv2d", (x, w), value, _geom_meta(x.shape, w.shape, stride, padding))


def _conv2d_dx_op(g, w, meta) -> Tensor:
    g, w = _lift(g), _lift(w)
    value = _conv_dx(g.data, w.data, meta["x_shape"], meta["stride"], meta["padding"])
    return _emit("conv2d_dx", (g, w), value, dict(meta))


def _conv2d_dw_op(x, g, meta) -> Tensor:
    x, g = _lift(x), _lift(g)
    value = _conv_dw(x.data, g.data, meta["w_shape"], meta["stride"], meta["padding"])
    return _emit("conv2d_dw", (x, g), value, dict(meta))


@_rule("conv2d")
def _conv2d_rule(node, g, inputs, out):
    x, w = inputs
    meta = node.meta
    return [_conv2d_dx_op(g, w, meta), _conv2d_dw_op(x, g, meta)]


@_rule("conv2d_dx")
def _conv2d_dx_rule(node, g_hat, inputs, out):
    # out = A_w^T g with A_w = d(conv)/dx; g_hat lives in input space
    g, w = inputs
    meta = node.meta
    d_g = conv2d(g_hat, w, meta["stride"], meta["padding"])
    d_w = _conv2d_dw_op(g_hat, g, meta)
    return [d_g, d_w]


@_rule("conv2d_dw")
def _conv2d_dw_rule(node, g_hat, inputs, out):
    # out = B_x^T g with B_x = d(conv)/dw; g_hat lives in kernel space
    x, g = inputs
    meta = node.meta
    d_x = _conv2d_dx_op(g, g_hat, meta)
    d_g = conv2d(x, g_hat, meta["stride"], meta["padding"])
    return [d_x, d_g]


# --------------------------------------------------------------------------
# pooling
# --------------------------------------------------------------------------


def maxpool2d(x, window: int = 2, stride: int = 2) -> Tensor:
    """Per-window max over NCHW; ties route to the lowest flat spatial index."""
    x = _lift(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ShapeError(f"maxpool2d: window {window} exceeds spatial {h}x{w}")
    if (h - window) % stride or (w - window) % stride:
        raise ShapeError(f"maxpool2d: spatial {h}x{w} not divisible by stride "
                         f"{stride} after {window}-windowing")
    win = np.lib.stride_tricks.sliding_window_view(x.data, (window, window),
                                                   axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]
    oh, ow = win.shape[2], win.shape[3]
    flat = win.reshape(n, c, oh, ow, -1)
    local = np.argmax(flat, axis=-1)                     # first max in window
    value = np.take_along_axis(flat, local[..., None], axis=-1)[..., 0]
    # flat spatial index into the input plane
    oy, ox = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    iy = oy[None, None] * stride + local // window
    ix = ox[None, None] * stride + local % window
    indices = (iy * w + ix).astype(np.int64)
    return _emit("maxpool2d", (x,), value,
                 {"indices": indices, "in_shape": x.shape})


def _pool_scatter_op(g, indices: np.ndarray, in_shape) -> Tensor:
    g = _lift(g)
    n, c, h, w = in_shape
    out = np.zeros((n, c, h * w))
    np.add.at(out, (np.arange(n)[:, None, None, None],
                    np.arange(c)[None, :, None, None],
                    indices), g.data)
    return _emit("pool_scatter", (g,), out.reshape(in_shape),
                 {"indices": indices, "in_shape": tuple(in_shape)})


def _pool_gather_op(x, indices: np.ndarray) -> Tensor:
    x = _lift(x)
    n, c = x.shape[0], x.shape[1]
    flat = x.data.reshape(n, c, -1)
    oh, ow = indices.shape[2], indices.shape[3]
    value = np.take_along_axis(flat, indices.reshape(n, c, -1), axis=2)
    return _emit("pool_gather", (x,), value.reshape(n, c, oh, ow),
                 {"indices": indices, "in_shape": x.shape})


@_rule("maxpool2d")
def _maxpool2d_rule(node, g, inputs, out):
    return [_pool_scatter_op(g, node.meta["indices"], node.meta["in_shape"])]


@_rule("pool_scatter")
def _pool_scatter_rule(node, g_hat, inputs, out):
    return [_pool_gather_op(g_hat, node.meta["indices"])]


@_rule("pool_gather")
def _pool_gather_rule(node, g_hat, inputs, out):
    return [_pool_scatter_op(g_hat, node.meta["indices"], node.meta["in_shape"])]


def global_avg_pool(x) -> Tensor:
    """Average each channel plane: (N, C, H, W) -> (N, C)."""
    x = _lift(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {x.shape}")
    return reduce_mean(x, (2, 3))


# --------------------------------------------------------------------------
# bilinear upsampling (align-corners) and its adjoint
# --------------------------------------------------------------------------


def _lin_coeffs(src: int, dst: int):
    """Source indices/weights so that out[i] = (1-w)*x[lo] + w*x[hi]."""
    if dst == 1:
        pos = np.zeros(1)
    else:
        pos = np.arange(dst) * (src - 1) / (dst - 1)
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, src - 1)
    hi = np.minimum(lo + 1, src - 1)
    return lo, hi, pos - lo


def bilinear_resize_array(x: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Align-corners bilinear interpolation over the last two axes."""
    h, w = x.shape[-2], x.shape[-1]
    ylo, yhi, wy = _lin_coeffs(h, oh)
    xlo, xhi, wx = _lin_coeffs(w, ow)
    wy = wy.reshape((-1, 1))
    rows = np.take(x, ylo, axis=-2) * (1.0 - wy) + np.take(x, yhi, axis=-2) * wy
    return np.take(rows, xlo, axis=-1) * (1.0 - wx) + np.take(rows, xhi, axis=-1) * wx


def _axis_scatter_add(g: np.ndarray, idx: np.ndarray, weights: np.ndarray,
                      size: int, axis: int) -> np.ndarray:
    gm = np.moveaxis(g, axis, 0)
    out = np.zeros((size,) + gm.shape[1:])
    np.add.at(out, idx, gm * weights.reshape((-1,) + (1,) * (gm.ndim - 1)))
    return np.moveaxis(out, 0, axis)


def _bilinear_adjoint_array(g: np.ndarray, h: int, w: int) -> np.ndarray:
    oh, ow = g.shape[-2], g.shape[-1]
    ylo, yhi, wy = _lin_coeffs(h, oh)
    xlo, xhi, wx = _lin_coeffs(w, ow)
    cols = (_axis_scatter_add(g, xlo, 1.0 - wx, w, -1) +
            _axis_scatter_add(g, xhi, wx, w, -1))
    return (_axis_scatter_add(cols, ylo, 1.0 - wy, h, -2) +
            _axis_scatter_add(cols, yhi, wy, h, -2))


def bilinear_upsample(x, out_h: int, out_w: int) -> Tensor:
    """Align-corners bilinear upsampling of the last two axes (no downscaling)."""
    x = _lift(x)
    if x.ndim < 2:
        raise ShapeError(f"bilinear_upsample expects >= 2-D input, got {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    if out_h < h or out_w < w:
        raise ShapeError(f"bilinear_upsample: target {out_h}x{out_w} smaller "
                         f"than source {h}x{w}")
    value = bilinear_resize_array(x.data, out_h, out_w)
    return _emit("bilinear_upsample", (x,), value,
                 {"in_hw": (h, w), "out_hw": (out_h, out_w)})


def _upsample_adjoint_op(g, in_hw, out_hw) -> Tensor:
    g = _lift(g)
    value = _bilinear_adjoint_array(g.data, in_hw[0], in_hw[1])
    return _emit("upsample_adjoint", (g,), value,
                 {"in_hw": tuple(in_hw), "out_hw": tuple(out_hw)})


@_rule("bilinear_upsample")
def _bilinear_upsample_rule(node, g, inputs, out):
    return [_upsample_adjoint_op(g, node.meta["in_hw"], node.meta["out_hw"])]


@_rule("upsample_adjoint")
def _upsample_adjoint_rule(node, g_hat, inputs, out):
    oh, ow = node.meta["out_hw"]
    return [bilinear_upsample(g_hat, oh, ow)]


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------

# Every registered kind has an exact derivative rule built from registered
# ops, so the set below is closed under repeated differentiation.
_HIGHER_ORDER_KINDS = frozenset(_RULES) | {"leaf", "constant"}


def _ancestors(tape: Tape, root: int) -> set[int]:
    seen = {root}
    stack = [root]
    while stack:
        for p in tape.nodes[stack.pop()].parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def backward(root: Tensor, wrt: Iterable[Union[int, Tensor]],
             create_graph: bool = False) -> dict[int, Tensor]:
    """Gradients of a scalar ``root`` with respect to tape handles.

    Returns a mapping handle -> gradient tensor shaped like that node's
    value.  Handles unreachable from ``root`` get zero gradients.  With
    ``create_graph=True`` the returned gradients are tape-live nodes and a
    further backward through them yields higher-order derivatives.
    """
    if root.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if root.tape is None or root.node is None:
        raise AutodiffError("backward root is a constant (no tape node)")
    tape = root.tape

    handles = []
    for w in wrt:
        if isinstance(w, Tensor):
            if w.node is None or w.tape is not tape:
                raise AutodiffError("wrt tensor is not on the root's tape")
            handles.append(w.node)
        else:
            handles.append(int(w))

    reach = _ancestors(tape, root.node)
    if create_graph:
        for h in reach:
            kind = tape.nodes[h].kind
            if kind not in _HIGHER_ORDER_KINDS:
                raise UnsupportedOpError(
                    f"op '{kind}' has no registered higher-order rule")

    def run():
        seed_arr = np.ones_like(root.data)
        seed = tape.constant_node(seed_arr) if create_graph else Tensor(seed_arr)
        adjoints: dict[int, Tensor] = {root.node: seed}
        for h in range(root.node, -1, -1):
            if h not in adjoints or h not in reach:
                continue
            node = tape.nodes[h]
            if node.kind in ("leaf", "constant"):
                continue
            rule = _RULES.get(node.kind)
            if rule is None:
                raise UnsupportedOpError(f"op '{node.kind}' has no derivative rule")
            inputs = [Tensor(data, tape, hin, _own=True) if hin is not None
                      else Tensor(data, _own=True)
                      for hin, data in node.inputs]
            out_t = Tensor(node.value, tape, h, _own=True)
            grads = rule(node, adjoints[h], inputs, out_t)
            for (hin, _), g in zip(node.inputs, grads):
                if hin is None or g is None:
                    continue
                if hin in adjoints:
                    adjoints[hin] = add(adjoints[hin], g)
                else:
                    adjoints[hin] = g
        result = {}
        for h in handles:
            if h in adjoints and h in reach:
                result[h] = adjoints[h]
            else:
                zero = np.zeros_like(tape.nodes[h].value)
                result[h] = tape.constant_node(zero) if create_graph else Tensor(zero)
        return result

    if create_graph:
        return run()
    with tape.paused():
        return run()
