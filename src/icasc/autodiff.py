"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is tape-based: every operation appends a node recording its kind,
its operands, and what its derivative rules read.  Backward rules are
themselves written in terms of the public ops, so when ``backward`` is called
with ``create_graph=True`` the returned gradients are live tape tensors and
can be differentiated again.  That re-entrancy is what allows loss functions
to contain gradients of the network output (double backpropagation) without
any special casing.

``backward`` visits only the nodes that depend on one of its ``wrt``
tensors, and hands each rule a ``need`` tuple naming the inputs whose
adjoints are wanted; a rule builds no partial adjoint for the others.  So a
gradient toward feature maps records nothing toward the weights, and a
gradient toward the weights records nothing toward the untaped image.

A binary op takes two operands of one shape, or a tensor and a size-1
constant (an operand with no tape node).  So every taped operand has its
op's result shape, and the binary rules return their adjoints unreduced.

Deterministic subgradient conventions (needed so gradient checks are
reproducible): ReLU derivative at exactly 0 is 0, elementwise ``minimum``
routes ties to the first argument, and max pooling routes ties to the lowest
flat index and a window that holds NaN to its first NaN.

Max pooling, over 2x2 windows at stride 2, runs in two passes.  The value
pass is a running ``np.maximum`` over the window's four strided tap views.
A taped pool then runs the route pass, one pass over the whole value for
each window's flat index of its first maximum, and records those routes
with its ``pool_gather`` node.  The adjoint of a ``pool_gather`` is a
``pool_scatter`` by the same indices, and that of a ``pool_scatter`` is a
``pool_gather`` that records its indices.

Arrays that the engine builds itself (op results, routing masks, indices,
the float masks of the ReLU and ``minimum`` rules) are frozen in place;
only arrays a caller passes in (``Tensor(arr)``, ``Tape.leaf``,
``Tape.constant_node``) are copied.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import platform
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "DomainError",
    "UnsupportedOpError",
    "Tape",
    "Tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "minimum",
    "relu",
    "sigmoid_array",
    "exp",
    "log",
    "reduce_sum",
    "reduce_mean",
    "broadcast_axes",
    "transpose2d",
    "matmul",
    "conv2d",
    "maxpool2d",
    "bilinear_resize_array",
    "keep_freed_heap",
]

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

    ``inputs`` holds ``(handle, value)`` pairs, the handle None for a
    constant operand.  ``meta`` holds what its op family's rules read
    (masks, indices, geometry; the conv record also states ``stride`` and
    ``padding`` for the benchmark's tape census).  A node is complete when
    recorded and nothing changes it after, so nodes may share a meta
    record, as a conv node and its adjoint nodes do.
    """

    kind: str
    inputs: tuple[tuple[Optional[int], np.ndarray], ...]
    value: np.ndarray
    meta: dict = field(default_factory=dict)


class Tape:
    """Append-only record of operations; single-writer.

    Parents of any node always precede it, so a reverse walk over handles is
    a valid reverse topological order.
    """

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def _record(self, kind, inputs, value, meta=None) -> int:
        self.nodes.append(TapeNode(kind, tuple(inputs), value, meta or {}))
        return len(self.nodes) - 1

    def leaf(self, data) -> "Tensor":
        """Register a watched leaf."""
        arr = _as_array(data)
        handle = self._record("leaf", (), arr)
        return Tensor(arr, self, handle, _own=True)

    def constant_node(self, data) -> "Tensor":
        """Record a constant as a node so downstream results stay tape-live."""
        arr = _as_array(data)
        handle = self._record("constant", (), arr)
        return Tensor(arr, self, handle, _own=True)

    def kink_signature(self) -> str:
        """Hash of every routing decision on the tape: the ReLU and min
        masks and the pool routes, all recorded with their nodes.

        Two evaluations of the same function at nearby points have equal
        signatures iff no ReLU/min/pool routing flipped between them,
        which makes finite-difference checks able to detect and skip
        kink-adjacent coordinates exactly.
        """
        h = hashlib.blake2b(digest_size=16)
        for i, node in enumerate(self.nodes):
            for key in ("mask", "mask_first", "indices"):
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


def _own(arr: np.ndarray) -> Tensor:
    """An untaped tensor over an array the engine just built, frozen in
    place: nothing else holds it, so it needs no defensive copy."""
    arr.flags.writeable = False
    return Tensor(arr, _own=True)


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
    """Produce the op result, recording a node when an operand is on a tape.

    ``value`` is the op's own result, so it is frozen in place, not copied:
    it is either a fresh array or a view of a frozen operand.
    """
    value = np.asarray(value, dtype=np.float64)
    value.flags.writeable = False
    tape = _tape_of(*inputs)
    if tape is None:
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

# rule(node, grad_out, inputs, out, need) -> per-input gradient tensors.  ``need``
# holds one flag per input; a rule of several inputs returns None for an
# input whose flag is False and does not compute it.  Backward calls a
# one-input rule only when its input is needed, so those rules ignore ``need``.
_RULES: dict[str, Callable] = {}


def _rule(kind: str):
    def register(fn):
        _RULES[kind] = fn
        return fn

    return register


# --------------------------------------------------------------------------
# elementwise ops
# --------------------------------------------------------------------------


def _binary_value(kind: str, a: Tensor, b: Tensor, fn) -> np.ndarray:
    """``fn`` of two operands of one shape, or of a tensor and a size-1
    constant (no tape node) of no more dimensions; any other pair, a taped
    size-1 operand beside a larger one included, is a ShapeError."""
    if a.shape != b.shape and not any(
            small.size == 1 and small.node is None and small.ndim <= large.ndim
            for small, large in ((a, b), (b, a))):
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not match "
                         "(only a size-1 constant mixes with a tensor)")
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


def div(a, b, eps: float) -> Tensor:
    """Divide with a safeguard: denominator becomes ``b + eps``.

    ``eps=0.0`` disables the safeguard, and a zero denominator raises
    DomainError instead of producing inf/nan.
    """
    a, b = _lift(a), _lift(b)
    denom_check = b.data + eps
    if np.any(denom_check == 0.0):
        raise DomainError("divide: zero denominator" +
                          ("" if eps else " with epsilon disabled"))
    value = _binary_value("div", a, b, lambda x, y: x / (y + eps))
    return _emit("div", (a, b), value, {"eps": eps})


def minimum(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    value = _binary_value("minimum", a, b, np.minimum)
    # ties route the gradient to the first argument; the comparison has the
    # result's shape, and asarray makes a 0-d one's NumPy scalar an array
    mask_first = np.asarray(a.data <= b.data)
    mask_first.flags.writeable = False
    return _emit("minimum", (a, b), value, {"mask_first": mask_first})


def relu(x) -> Tensor:
    x = _lift(x)
    mask = np.asarray(x.data > 0)  # derivative at exactly 0 is 0
    mask.flags.writeable = False
    # bit-equal to np.where(mask, x, 0.0), whose scalar operand takes NumPy's
    # slow broadcast path: fmax maps a quiet NaN to 0 but may return a
    # signalling one quietened, which the second fmax maps to 0; adding +0.0
    # turns -0.0 into +0.0.  asarray makes a 0-d input's NumPy scalars arrays
    value = np.asarray(np.fmax(x.data, 0.0))
    np.fmax(value, 0.0, out=value)
    value += 0.0
    return _emit("relu", (x,), value, {"mask": mask})


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, stable in both tails."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def exp(x) -> Tensor:
    x = _lift(x)
    return _emit("exp", (x,), np.exp(x.data))


def log(x) -> Tensor:
    x = _lift(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log: non-positive input")
    return _emit("log", (x,), np.log(x.data))


@_rule("add")
def _add_rule(node, g, inputs, out, need):
    return [g if need[0] else None, g if need[1] else None]


@_rule("sub")
def _sub_rule(node, g, inputs, out, need):
    return [g if need[0] else None, mul(g, -1.0) if need[1] else None]


@_rule("mul")
def _mul_rule(node, g, inputs, out, need):
    a, b = inputs
    return [mul(g, b) if need[0] else None, mul(g, a) if need[1] else None]


@_rule("div")
def _div_rule(node, g, inputs, out, need):
    a, b = inputs
    eps = node.meta["eps"]
    da = div(g, b, eps=eps) if need[0] else None
    db = mul(div(mul(g, out), b, eps=eps), -1.0) if need[1] else None
    return [da, db]


@_rule("minimum")
def _minimum_rule(node, g, inputs, out, need):
    first = node.meta["mask_first"].astype(np.float64)
    ga = mul(g, _own(first)) if need[0] else None
    gb = mul(g, _own(1.0 - first)) if need[1] else None
    return [ga, gb]


@_rule("relu")
def _relu_rule(node, g, inputs, out, need):
    return [mul(g, _own(node.meta["mask"].astype(np.float64)))]


@_rule("exp")
def _exp_rule(node, g, inputs, out, need):
    return [mul(g, out)]


@_rule("log")
def _log_rule(node, g, inputs, out, need):
    return [div(g, inputs[0], eps=0.0)]


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
    n = math.prod(x.shape[a] for a in axes)
    return _emit("reduce_mean", (x,), np.mean(x.data, axis=axes),
                 {"axes": axes, "in_shape": x.shape, "n": n})


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
    value = np.broadcast_to(np.expand_dims(x.data, axes), target_shape)
    return _emit("broadcast_axes", (x,), value, {"axes": axes})


def transpose2d(x) -> Tensor:
    x = _lift(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose2d expects 2-D, got {x.shape}")
    # a transposed view would reach BLAS as a transposed operand, which sums
    # in another order; the copy keeps matmul results bit-stable
    return _emit("transpose2d", (x,), x.data.T.copy())


@_rule("reduce_sum")
def _reduce_sum_rule(node, g, inputs, out, need):
    return [broadcast_axes(g, node.meta["in_shape"], node.meta["axes"])]


@_rule("reduce_mean")
def _reduce_mean_rule(node, g, inputs, out, need):
    spread = broadcast_axes(g, node.meta["in_shape"], node.meta["axes"])
    return [mul(spread, 1.0 / node.meta["n"])]


@_rule("broadcast_axes")
def _broadcast_axes_rule(node, g, inputs, out, need):
    return [reduce_sum(g, node.meta["axes"])]


@_rule("transpose2d")
def _transpose2d_rule(node, g, inputs, out, need):
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


@_rule("matmul")
def _matmul_rule(node, g, inputs, out, need):
    a, b = inputs
    return [matmul(g, transpose2d(b)) if need[0] else None,
            matmul(transpose2d(a), g) if need[1] else None]


# --------------------------------------------------------------------------
# convolution family
#
# conv2d is bilinear in (input, kernel); its two partial adjoints conv2d_dx
# and conv2d_dw are bilinear too, and the three maps are closed under
# differentiation, which is what makes second/third-order passes exact.
#
# There is one geometry, the model's: a square kernel of odd side k at
# stride 1 and padding k // 2, so the output is as large as the input.  All
# three ops share one geometry record, (x_shape, w_shape), which also
# states that stride and padding.
#
# The kernels share one channel-major patch layout, (N, Cin, k, k, H, W):
# with K = Cin*k*k and P = H*W, a batch of patches is an (N, K, P) stack.
# conv2d is (Cout, K) @ (N, K, P) and conv2d_dx is (K, Cout) @ (N, Cout, P),
# both NCHW as they come out of the matmul; conv2d_dw sums the per-sample
# (N, Cout, P) @ (N, P, K) products over the batch, the patch stack reaching
# BLAS as a transposed operand.  No patch array is copied into another order.
#
# _im2col and _col2im view each (N, Cin) plane flat and move tap (a, b) as
# one contiguous run, shifted by (a - p)*W + (b - p) with p = k // 2, with
# no zero-padded copy.  Positions whose read falls in the padding (the
# run's head and tail, and the columns that wrapped into a neighbouring
# row) are +0.0 in the patches; _col2im zeroes the wrapped columns and then
# adds them like any other.  So every output element gets the addends of a
# slice loop over a zero-padded buffer in the same order, plus some +0.0
# ones, and x + (+0.0) is x bit for bit unless x is -0.0, which a sum that
# starts from +0.0 never holds.  Only where two NaNs meet in one sum can
# the result's NaN differ in sign: NumPy's contiguous and strided add loops
# propagate different operands.
# --------------------------------------------------------------------------


def _conv_geometry(x_shape, w_shape):
    """Check a conv's operands against the one geometry: a square kernel of
    odd side over a non-empty input whose channels it matches."""
    n, cin, h, w = x_shape
    cout, cin_k, kh, kw = w_shape
    if cin != cin_k:
        raise ShapeError(f"conv2d: input channels {cin} != kernel channels {cin_k}")
    if kh != kw or kh % 2 != 1:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} is not square with an "
                         "odd side")
    if h < 1 or w < 1:
        raise ShapeError(f"conv2d: empty spatial input {h}x{w}")


def _tap_runs(h: int, w: int, k: int):
    """Yield ``(a, b, shift, lo, hi)`` for each tap of a k x k kernel:
    output position q of the flat (H*W) plane reads flat input position
    q + shift, and [lo, hi) are the output positions whose read falls
    inside the input plane.  hi <= lo when the tap's kernel row never meets
    the input."""
    p = k // 2
    for a in range(k):
        for b in range(k):
            shift = (a - p) * w + (b - p)
            yield a, b, shift, max(0, -shift), min(h * w, h * w - shift)


def _wrapped(tap: np.ndarray, b: int, p: int):
    """The two column blocks of a (rows, H, W) tap view at kernel column b,
    padding p, whose flat reads wrapped into a neighbouring input row."""
    w = tap.shape[-1]
    return tap[..., :max(0, p - b)], tap[..., max(0, w + p - b):]


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(N, Cin, H, W) -> (N, Cin, k, k, H, W) patches: ``cols[:, :, a, b]``
    is the input zero-padded by k // 2 at tap (a, b).  Each tap is copied as
    one flat run, with +0.0 written where it reads padding."""
    n, cin, h, w = x.shape
    flat = x.reshape(n * cin, h * w)
    cols = np.empty((n * cin, k, k, h * w))
    for a, b, shift, lo, hi in _tap_runs(h, w, k):
        tap = cols[:, a, b]
        if hi <= lo:
            tap[...] = 0.0
            continue
        tap[:, lo:hi] = flat[:, lo + shift:hi + shift]
        tap[:, :lo] = 0.0
        tap[:, hi:] = 0.0
        for block in _wrapped(tap.reshape(n * cin, h, w), b, k // 2):
            block[...] = 0.0
    return cols.reshape(n, cin, k, k, h, w)


def _col2im(cols: np.ndarray, x_shape) -> np.ndarray:
    """Adjoint of _im2col; cols is (N, Cin, k, k, H, W), and is consumed:
    its wrapped columns are overwritten with +0.0, then each tap's flat run
    is added into the output, taps in (a, b) order."""
    n, cin, h, w = x_shape
    k = cols.shape[2]
    out = np.zeros((n * cin, h * w))
    cols = cols.reshape(n * cin, k, k, h * w)
    for a, b, shift, lo, hi in _tap_runs(h, w, k):
        if hi <= lo:
            continue
        tap = cols[:, a, b]
        for block in _wrapped(tap.reshape(n * cin, h, w), b, k // 2):
            block[...] = 0.0
        out[:, lo + shift:hi + shift] += tap[:, lo:hi]
    return out.reshape(x_shape)


def _patches(x: np.ndarray, meta) -> np.ndarray:
    """im2col of a conv input for the kernel of ``meta``."""
    return _im2col(x, meta["w_shape"][2])


def _conv_forward(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    n, cin, kh, kw, oh, ow = cols.shape
    cout = w.shape[0]
    out = w.reshape(cout, -1) @ cols.reshape(n, cin * kh * kw, oh * ow)
    return out.reshape(n, cout, oh, ow)


def _conv_dx(g: np.ndarray, w: np.ndarray, x_shape) -> np.ndarray:
    cout, cin, kh, kw = w.shape
    n, oh, ow = g.shape[0], g.shape[2], g.shape[3]
    cols = w.reshape(cout, -1).T @ g.reshape(n, cout, oh * ow)
    return _col2im(cols.reshape(n, cin, kh, kw, oh, ow), x_shape)


def _conv_dw(cols: np.ndarray, g: np.ndarray, w_shape) -> np.ndarray:
    cout, cin, kh, kw = w_shape
    n, oh, ow = g.shape[0], g.shape[2], g.shape[3]
    cols = cols.reshape(n, cin * kh * kw, oh * ow)
    per_sample = g.reshape(n, cout, oh * ow) @ cols.transpose(0, 2, 1)
    return per_sample.sum(axis=0).reshape(w_shape)


def _geom_meta(x_shape, w_shape):
    # stride and padding are fixed by the kernel; the record states them
    # for readers that cost a conv node from its meta alone
    return {"stride": 1, "padding": int(w_shape[2]) // 2,
            "x_shape": tuple(x_shape), "w_shape": tuple(w_shape)}


def conv2d(x, w, bias=None) -> Tensor:
    """Cross-correlation of NCHW input with an OIHW kernel of odd side k, at
    stride 1 and zero padding k // 2, so the output is as large as the
    input.  Any other kernel, or an empty spatial input, is a ShapeError.

    A ``(Cout,)`` ``bias`` is added in place to the fresh matmul output, bit
    for bit as ``add(conv2d(x, w), broadcast_axes(bias, ..., (0, 2, 3)))``,
    but with no second full-size array and no extra node on the tape.
    """
    x, w = _lift(x), _lift(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D operands, got {x.shape}, {w.shape}")
    _conv_geometry(x.shape, w.shape)
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != w.shape[:1]:
            raise ShapeError(f"conv2d: bias shape {bias.shape} != "
                             f"({w.shape[0]},) output channels")
    return _conv2d_op(x, w, _geom_meta(x.shape, w.shape), bias=bias)


def _conv2d_op(x: Tensor, w: Tensor, meta, cols=None, bias=None) -> Tensor:
    """conv2d at a checked geometry; ``cols`` are x's patches if the caller
    has them already, and a ``bias`` is the node's third operand."""
    if cols is None:
        cols = _patches(x.data, meta)
    value = _conv_forward(cols, w.data)
    if bias is None:
        return _emit("conv2d", (x, w), value, meta)
    value += bias.data[:, None, None]
    return _emit("conv2d", (x, w, bias), value, meta)


def _conv2d_dx_op(g, w, meta) -> Tensor:
    g, w = _lift(g), _lift(w)
    value = _conv_dx(g.data, w.data, meta["x_shape"])
    return _emit("conv2d_dx", (g, w), value, meta)


def _conv2d_dw_op(x, g, meta, cols=None) -> Tensor:
    x, g = _lift(x), _lift(g)
    if cols is None:
        cols = _patches(x.data, meta)
    return _emit("conv2d_dw", (x, g), _conv_dw(cols, g.data, meta["w_shape"]),
                 meta)


@_rule("conv2d")
def _conv2d_rule(node, g, inputs, out, need):
    x, w = inputs[:2]
    meta = node.meta
    grads = [_conv2d_dx_op(g, w, meta) if need[0] else None,
             _conv2d_dw_op(x, g, meta) if need[1] else None]
    if len(inputs) == 3:    # a bias: the broadcast_axes rule's reduction
        grads.append(reduce_sum(g, (0, 2, 3)) if need[2] else None)
    return grads


@_rule("conv2d_dx")
def _conv2d_dx_rule(node, g_hat, inputs, out, need):
    # out = A_w^T g with A_w = d(conv)/dx; g_hat lives in input space
    g, w = inputs
    meta = node.meta
    cols = _patches(g_hat.data, meta)    # both partials read g_hat's patches
    d_g = _conv2d_op(g_hat, w, meta, cols) if need[0] else None
    d_w = _conv2d_dw_op(g_hat, g, meta, cols) if need[1] else None
    return [d_g, d_w]


@_rule("conv2d_dw")
def _conv2d_dw_rule(node, g_hat, inputs, out, need):
    # out = B_x^T g with B_x = d(conv)/dw; g_hat lives in kernel space
    x, g = inputs
    meta = node.meta
    d_x = _conv2d_dx_op(g, g_hat, meta) if need[0] else None
    d_g = _conv2d_op(x, g_hat, meta) if need[1] else None
    return [d_x, d_g]


# --------------------------------------------------------------------------
# pooling
# --------------------------------------------------------------------------

def _pool_taps(x: np.ndarray):
    """``(offsets, views)`` of the 2x2 window's taps ``(a, b)`` in tap order:
    the offset is ``a*w + b`` and the view is the input at that tap of every
    window, ``x[:, :, a::2, b::2]``."""
    w = x.shape[3]
    taps = [(a * w + b, x[:, :, a::2, b::2]) for a in (0, 1) for b in (0, 1)]
    return np.array([k for k, _ in taps]), [view for _, view in taps]


def _first_tap(taps, value: np.ndarray) -> np.ndarray:
    """Each window's first tap, by its place in ``taps``, whose element
    equals ``value`` or is NaN.

    A window counts the leading taps that miss; the last tap is never
    compared, since ``value`` is one of its window's elements.
    """
    has_nan = bool(np.isnan(value).any())
    first = np.zeros(value.shape, dtype=np.min_scalar_type(len(taps) - 1))
    ahead = np.ones(value.shape, dtype=bool)      # no tap so far matched
    missed = np.empty(value.shape, dtype=bool)
    for tap in taps[:-1]:
        np.not_equal(tap, value, out=missed)
        if has_nan:
            missed &= tap == tap
        ahead &= missed
        first += ahead
    return first


def maxpool2d(x) -> Tensor:
    """Max over each 2x2 window of NCHW at stride 2, recorded as the gather
    of each window's maximum from the input.  An odd or zero height or width
    is a ShapeError.

    The value pass runs ``np.maximum`` over the four strided tap views in
    tap order.  That gives each window's maximum, and NaN for a window
    holding NaN, but not always its bits: SIMD max may pick either
    zero of a ``-0.0``/``0.0`` tie and may quieten a signalling NaN.  So
    each window whose maximum is zero or NaN takes the exact bits of its
    first zero or first NaN tap.  The value is then the routed input
    element bit for bit, signed zero and NaN payload included: the first
    maximum, or the first NaN, exactly as ``argmax`` over the window picks.

    A taped input also gets its routes, recorded with the node: each
    window's first tap that equals the value, or its first NaN tap (one
    ``_first_tap`` pass), as a flat index into its input plane.  An untaped
    pool computes none.
    """
    x = _lift(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2 or not h or not w:
        raise ShapeError(f"maxpool2d: spatial {h}x{w} does not tile into "
                         "2x2 windows")
    oh, ow = h // 2, w // 2
    offsets, taps = _pool_taps(x.data)
    value = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(value, tap, out=value)
    # windows whose maximum is +-0 or NaN, the only ones whose bits SIMD max
    # may not have kept
    zero_or_nan = value == 0
    zero_or_nan |= np.isnan(value)
    special = np.flatnonzero(zero_or_nan)
    if special.size:
        plane, at = np.divmod(special, oh * ow)
        base = plane * (h * w) + (at // ow) * (2 * w) + (at % ow) * 2
        first = _first_tap([np.take(x.data, base + k) for k in offsets],
                           value.ravel()[special])
        value.view(np.int64).ravel()[special] = np.take(
            x.data.view(np.int64), base + offsets[first])
    meta = {"in_shape": x.shape}
    if _tape_of(x) is not None:
        indices = np.take(offsets, _first_tap(taps, value))
        indices += (np.arange(oh) * (2 * w))[:, None] + np.arange(ow) * 2
        indices.flags.writeable = False
        meta["indices"] = indices
    return _emit("pool_gather", (x,), value, meta)


def _plane_flat(indices: np.ndarray, in_shape) -> np.ndarray:
    """``indices`` into each input plane, made flat indices into the whole
    ``(N, C, H, W)`` input by adding each plane's offset."""
    n, c, h, w = in_shape
    return indices + (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)


def _pool_scatter_op(g, indices: np.ndarray, in_shape) -> Tensor:
    g = _lift(g)
    # one bincount adds every window's value, in window order, including
    # windows that share their argmax
    out = np.bincount(_plane_flat(indices, in_shape).ravel(),
                      weights=g.data.ravel(), minlength=math.prod(in_shape))
    return _emit("pool_scatter", (g,), out.reshape(in_shape), {"indices": indices})


def _pool_gather_op(x, indices: np.ndarray) -> Tensor:
    x = _lift(x)
    value = np.take(x.data, _plane_flat(indices, x.shape))
    return _emit("pool_gather", (x,), value,
                 {"indices": indices, "in_shape": x.shape})


@_rule("pool_scatter")
def _pool_scatter_rule(node, g_hat, inputs, out, need):
    return [_pool_gather_op(g_hat, node.meta["indices"])]


@_rule("pool_gather")
def _pool_gather_rule(node, g_hat, inputs, out, need):
    return [_pool_scatter_op(g_hat, node.meta["indices"], node.meta["in_shape"])]


# --------------------------------------------------------------------------
# bilinear resize of detached arrays (align-corners)
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


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------


def backward(root: Tensor, wrt: Iterable[Tensor],
             create_graph: bool = False) -> dict[int, Tensor]:
    """Gradients of a scalar ``root`` with respect to tensors on its tape.

    Returns a mapping handle -> gradient tensor shaped like that node's
    value.  Handles the root does not depend on get zero gradients.  With
    ``create_graph=True`` the returned gradients are tape-live nodes and a
    further backward through them yields higher-order derivatives.
    Without it the rules run on untaped operands, so, as for any op whose
    operands are off the tape, nothing is recorded.

    Only the adjoints ``wrt`` needs are computed.  One forward pass over the
    tape marks the live nodes: the ``wrt`` nodes and every node with a live
    input.  The reverse walk visits only live nodes, and each rule gets a
    ``need`` tuple that says which of its inputs are live; the partial
    adjoints of the others are never built.  UnsupportedOpError is raised
    only for a visited node with a needed input and no rule.  A node's
    adjoint is dropped once its rule has run, unless the node is in
    ``wrt``, so a first-order walk holds a few adjoints at a time, not one
    per node.
    """
    if root.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if root.tape is None or root.node is None:
        raise AutodiffError("backward root is a constant (no tape node)")
    tape = root.tape

    handles = []
    for w in wrt:
        if w.node is None or w.tape is not tape:
            raise AutodiffError("wrt tensor is not on the root's tape")
        handles.append(w.node)

    def operand(data, handle):
        if create_graph and handle is not None:
            return Tensor(data, tape, handle, _own=True)
        return Tensor(data, _own=True)

    def constant(arr):
        return tape.constant_node(arr) if create_graph else Tensor(arr)

    # live: depends on a wrt node (parents precede children on the tape)
    start = min(handles, default=root.node + 1)
    live = set(handles)
    for h in range(start, root.node + 1):
        if any(hin in live for hin, _ in tape.nodes[h].inputs):
            live.add(h)

    wanted = set(handles)
    adjoints: dict[int, Tensor] = {}
    if root.node in live:
        adjoints[root.node] = constant(np.ones_like(root.data))
    for h in range(root.node, start - 1, -1):
        adjoint = adjoints.get(h) if h in wanted else adjoints.pop(h, None)
        if adjoint is None:
            continue
        node = tape.nodes[h]
        need = tuple(hin in live for hin, _ in node.inputs)
        if not any(need):
            continue
        rule = _RULES.get(node.kind)
        if rule is None:
            raise UnsupportedOpError(f"op '{node.kind}' has no derivative rule")
        inputs = [operand(data, hin) for hin, data in node.inputs]
        grads = rule(node, adjoint, inputs, operand(node.value, h), need)
        for (hin, _), g in zip(node.inputs, grads):
            if g is None:
                continue
            if hin in adjoints:
                adjoints[hin] = add(adjoints[hin], g)
            else:
                adjoints[hin] = g
    return {h: adjoints[h] if h in adjoints
            else constant(np.zeros_like(tape.nodes[h].value))
            for h in handles}


# --------------------------------------------------------------------------
# allocator policy
# --------------------------------------------------------------------------


@functools.cache
def keep_freed_heap() -> None:
    """Keep freed heap pages mapped for the rest of the process, on glibc.

    A tape is freed once its step or batch is done: an ICASC training step
    drops about 22 MB of tape before the next step records its own, and a
    batch of ``eval --attention`` frees tens of MB of tape and patch arrays.
    With glibc's defaults that memory goes back to the kernel (by ``munmap``
    or by trimming the heap top), and the next step or batch faults every
    page in again.  Serving every array below 32 MiB from the heap, and
    trimming the heap top only when more than 1 GiB of it is free, keeps
    the pages for the next one.  Setting either threshold turns off glibc's
    dynamic one, so both are set.  Values and outputs are unchanged.

    ``cli.main`` and ``training.train`` call this first thing; from then on
    the policy holds for the whole process, a host program that imported
    ``icasc`` included.  On any other C library this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)          # M_MMAP_THRESHOLD, glibc's 64-bit maximum
    mallopt(-1, 1 << 30)           # M_TRIM_THRESHOLD
