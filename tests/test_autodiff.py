import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from icasc import autodiff as ad
from icasc import gradcheck
from icasc.attention import class_gradients
from icasc.autodiff import (DomainError, ShapeError, Tape, Tensor,
                            UnsupportedOpError, backward)
from icasc.gradcheck import check_gradient
from icasc.losses import IcascConfig, icasc_objective
from icasc.nn import Model, cross_entropy

import helpers
import oracles


def leaf(tape, data):
    return tape.leaf(np.asarray(data, dtype=np.float64))


# --------------------------------------------------------------------------
# elementwise
# --------------------------------------------------------------------------


def test_minimum_elementwise():
    """Also a taped (2, 3) tensor beside a constant scalar, on either side,
    and two 0-d operands: the tie mask has the result's shape, ties route
    to the first argument, and the tensor's adjoint is unreduced."""
    out = ad.minimum(Tensor([1.0, 0.5]), Tensor([0.5, 1.0]))
    assert np.array_equal(out.data, [0.5, 0.5])

    x = np.array([[0.5, 1.25, 2.0], [1.25, -1.0, 3.0]])
    # 1.25 ties the scalar: its gradient goes to whichever comes first
    cases = [(True, [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
             (False, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
             (True, 1.0)]
    for tensor_first, want_grad in cases:
        tape = Tape()
        t = tape.leaf(x if np.ndim(want_grad) else np.array(1.25))
        operands = (t, Tensor(1.25)) if tensor_first else (Tensor(1.25), t)
        out = ad.minimum(*operands)
        mask = tape.nodes[out.node].meta["mask_first"]
        assert np.array_equal(out.data, np.minimum(t.data, 1.25))
        assert mask.shape == t.shape
        want_mask = t.data <= 1.25 if tensor_first else 1.25 <= t.data
        assert np.array_equal(mask, want_mask)
        grad = backward(ad.reduce_sum(out), [t])[t.node].data
        assert grad.shape == t.shape and np.array_equal(grad, want_grad)


def test_relu_values():
    out = ad.relu(Tensor([-2.0, 0.0, 3.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 3.0])


def _f64(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def test_relu_value_is_bit_equal_to_where():
    """``relu``'s value has the bits of ``np.where(x > 0, x, 0.0)`` on the
    values where a max can differ: signed zeros and infinities, quiet and
    signalling NaN payloads of both signs, and subnormals; in arrays long
    enough to take NumPy's vector loop as well as its scalar tail, and in a
    non-contiguous view."""
    specials = [0.0, -0.0, np.inf, -np.inf,
                _f64(0x7FF8000000000001), _f64(0xFFF8000000000123),  # quiet
                _f64(0x7FF0000000000001), _f64(0xFFF00000000ABCDE),  # signalling
                _f64(0x7FF4000000000000), _f64(0xFFF7FFFFFFFFFFFF),
                5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5]
    arrays = [np.array(specials * reps)[off:]
              for reps in (1, 2, 9) for off in (0, 1, 3)]
    grid = np.array(specials * 12).reshape(16, 12)
    arrays.append(grid[1::3, ::5])
    assert not arrays[-1].flags.c_contiguous
    for x in arrays:
        x.flags.writeable = False  # a frozen array enters a Tensor uncopied
        want = np.where(x > 0, x, 0.0)
        got = ad.relu(Tensor(x)).data
        assert got.tobytes() == want.tobytes()


def test_sigmoid_midpoint():
    assert ad.sigmoid_array(np.array([0.0]))[0] == 0.5


def test_binary_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_scalar_tensor_mixing():
    out = ad.sub(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(1.0))
    assert np.array_equal(out.data, [[0.0, 1.0], [2.0, 3.0]])

    # only a constant size-1 operand mixes with a tensor: a taped one, on
    # either side of each binary op, is a ShapeError
    ops = {"add": ad.add, "sub": ad.sub, "mul": ad.mul,
           "div": lambda a, b: ad.div(a, b, eps=1e-8), "minimum": ad.minimum}
    scalar, tensor = Tape().leaf(np.array(1.25)), Tensor(np.ones((2, 3)))
    # a size-1 constant of more dimensions would give the taped operand's
    # adjoint the result's (1, 1) shape
    wider = Tensor(np.ones((1, 1)))
    for name, op in ops.items():
        for operands in ((scalar, tensor), (tensor, scalar), (scalar, wider),
                         (wider, scalar)):
            with pytest.raises(ShapeError, match=name):
                op(*operands)


def test_divide_adds_epsilon():
    out = ad.div(Tensor(1.0), Tensor(0.0), eps=1e-8)
    assert out.item() == 1.0 / 1e-8


def test_divide_epsilon_disabled_zero_denominator():
    with pytest.raises(DomainError):
        ad.div(Tensor([1.0]), Tensor([0.0]), eps=0.0)


def test_log_domain():
    with pytest.raises(DomainError):
        ad.log(Tensor([1.0, 0.0]))


# --------------------------------------------------------------------------
# reductions
# --------------------------------------------------------------------------


def test_sum_all_axes():
    assert ad.reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 10.0


def test_mean_2x2():
    assert ad.reduce_mean(Tensor([[1.0, -1.0], [1.0, 1.0]])).item() == 0.5


def test_empty_reduction_extent():
    with pytest.raises(ShapeError):
        ad.reduce_sum(Tensor(np.zeros((2, 0))), (1,))


# --------------------------------------------------------------------------
# conv / pool / matmul / bilinear resize
# --------------------------------------------------------------------------


def test_conv_ones_kernel():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w)
    assert out.shape == (1, 1, 3, 3)
    # the centre reads all nine taps, an edge six and a corner four; the
    # other reads fall in the padding
    assert np.array_equal(out.data[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0],
                                           [4.0, 6.0, 4.0]])


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.random((1, 1, 5, 5))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = ad.conv2d(Tensor(x), Tensor(w))
    assert np.allclose(out.data, x, atol=0)


def test_conv_vs_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    out = ad.conv2d(Tensor(x), Tensor(w))
    assert np.max(np.abs(out.data - oracles.conv2d_loops(x, w, padding=1))) < 1e-12


# the model's geometry at each kernel side the model tests: stride 1,
# padding k // 2 (ids n-stride-padding-kwK, as in GENERAL_CONV_GEOMETRIES)
CONV_GEOMETRIES = [pytest.param(n, k, id=f"{n}-1-{k // 2}-kw{k}")
                   for n in (1, 3) for k in (1, 3, 5)]

# a 3x2 or 3x3 kernel at stride 1 or 2 and padding 0-2, read from conv2d by
# _conv_at, and the model's geometry at kernel sides 1 and 5
GENERAL_CONV_GEOMETRIES = [
    pytest.param(n, stride, padding, 3, kw,
                 id=f"{n}-{stride}-{padding}" + ("" if kw == 2 else f"-kw{kw}"))
    for kw in (2, 3) for n in (1, 3) for stride in (1, 2) for padding in (0, 1, 2)
] + [pytest.param(n, 1, k // 2, k, k, id=f"{n}-1-{k // 2}-kw{k}")
     for n in (1, 3) for k in (1, 5)]


def _conv_operands(n, kh, kw, seed):
    # Cin > 1 and H != W; H and W chosen so stride 2 leaves rows unread
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2, 7, 6)), rng.standard_normal((3, 2, kh, kw))


def _conv_at(x, w, stride, padding):
    """The cross-correlation of ``x`` and ``w`` at any stride and padding,
    read from conv2d's same-size output: ``w`` is zero-filled at its bottom
    right to the odd side k, ``x`` zero-padded where conv2d's own padding of
    k // 2 falls short, and the output taken at every stride-th position
    from the one whose window starts ``padding`` before ``x``.  At the
    model's geometry this is ``conv2d(x, w)`` itself."""
    h, wd = x.shape[2:]
    cout, cin, kh, kw = w.shape
    k = max(kh, kw) | 1
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    lead = max(0, padding - k // 2)
    trail = [max(0, (o - 1) * stride - padding + k // 2 - size + 1)
             for o, size in ((oh, h), (ow, wd))]
    xp = np.pad(x, ((0, 0), (0, 0), (lead, trail[0]), (lead, trail[1])))
    wk = np.zeros((cout, cin, k, k))
    wk[:, :, :kh, :kw] = w
    out = ad.conv2d(Tensor(xp), Tensor(wk)).data
    start = lead + k // 2 - padding
    return out[:, :, start::stride, start::stride][:, :, :oh, :ow]


@pytest.mark.parametrize("n, stride, padding, kh, kw", GENERAL_CONV_GEOMETRIES)
def test_conv_vs_loop_oracle_strided_padded(n, stride, padding, kh, kw):
    x, w = _conv_operands(n, kh, kw, 20 + stride + padding)
    out = _conv_at(x, w, stride, padding)
    ref = oracles.conv2d_loops(x, w, stride, padding)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) < 1e-12


def test_conv_at_model_geometry_is_conv2d():
    x, w = _conv_operands(2, 3, 3, 7)
    assert _conv_at(x, w, 1, 1).tobytes() == ad.conv2d(Tensor(x), Tensor(w)).data.tobytes()


@pytest.mark.parametrize("n, k", CONV_GEOMETRIES)
def test_conv_adjoint_identities(n, k):
    """<conv2d(x,w), g> = <x, conv2d_dx(g,w)> = <w, conv2d_dw(x,g)>."""
    x, w = _conv_operands(n, k, k, 41 + k // 2)
    y = ad.conv2d(Tensor(x), Tensor(w)).data
    g = np.random.default_rng(60 + n).standard_normal(y.shape)
    meta = ad._geom_meta(x.shape, w.shape)
    dx = ad._conv2d_dx_op(Tensor(g), Tensor(w), meta).data
    dw = ad._conv2d_dw_op(Tensor(x), Tensor(g), meta).data
    assert dx.shape == x.shape and dw.shape == w.shape
    lhs = np.sum(y * g)
    for rhs in (np.sum(x * dx), np.sum(w * dw)):
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _patch_shape(x_shape, k):
    return x_shape[:2] + (k, k) + x_shape[2:]


@st.composite
def _patch_cases(draw, of_patches):
    """An input shape and odd kernel side ``(x_shape, k)``, and an array of
    ``_POOL_VALUES["specials"]`` shaped like the input or, with
    ``of_patches``, like its patches."""
    n, cin = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    geometry = ((n, cin, h, w), draw(st.sampled_from([1, 3, 5, 7])))
    shape = _patch_shape(*geometry) if of_patches else geometry[0]
    return geometry, draw(hnp.arrays(np.float64, shape,
                                     elements=_POOL_VALUES["specials"]))


# the bench size, a one-row and a one-column input at k 3, a 1x1 kernel, a
# 5x5 one, taps whose kernel row never meets the input (empty runs), and a
# padding wider than the input
_PATCH_EXAMPLES = [((32, 8, 16, 16), 3), ((2, 2, 1, 5), 3), ((2, 2, 5, 1), 3),
                   ((2, 3, 4, 5), 1), ((2, 2, 6, 4), 5), ((1, 2, 2, 3), 5),
                   ((1, 2, 3, 2), 7)]


def _patch_examples(of_patches):
    """Each of ``_PATCH_EXAMPLES`` as an explicit example, its values normal
    draws with NaN, +-inf and +-0.0 spread over about a third."""
    def add_examples(test):
        for seed, geometry in enumerate(_PATCH_EXAMPLES):
            rng = np.random.default_rng(seed)
            shape = _patch_shape(*geometry) if of_patches else geometry[0]
            values = rng.standard_normal(shape)
            hit = rng.random(shape) < 0.3
            values[hit] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], hit.sum())
            test = example(case=(geometry, values))(test)
        return test
    return add_examples


@settings(max_examples=200, deadline=None)
@given(_patch_cases(of_patches=False))
@_patch_examples(of_patches=False)
def test_im2col_bit_equal_to_padded_reference(case):
    (x_shape, k), x = case
    cols = ad._im2col(x, k)
    ref = oracles.im2col_padded(x, k, k, 1, k // 2)
    assert cols.shape == ref.shape and cols.dtype == ref.dtype
    assert cols.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(_patch_cases(of_patches=True))
@_patch_examples(of_patches=True)
def test_col2im_bit_equal_to_padded_reference(case):
    """Same addends in the same order as the oracle; only where two NaNs
    meet in one sum may the result's NaN sign differ, since NumPy's
    contiguous and strided add loops propagate different operands."""
    (x_shape, k), cols = case
    with np.errstate(invalid="ignore"):    # inf - inf is NaN in both
        ref = oracles.col2im_padded(cols, x_shape, 1, k // 2)
        out = ad._col2im(cols.copy(), x_shape)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    nan = np.isnan(ref)
    assert np.array_equal(out, ref, equal_nan=True)
    assert out[~nan].tobytes() == ref[~nan].tobytes()
    assert not np.any(np.signbit(out[out == 0.0]))


def _two_conv_net(params, selector, biased):
    """Two padded conv blocks with the bias in ``conv2d`` or added after it
    by ``broadcast_axes``.  Returns the first block's output value, the
    gradients of a class score toward every leaf, and those of an
    attention-like loss built on a ``create_graph`` class gradient toward
    the first block's features."""
    def run(first_order):
        tape = Tape()
        leaves = {name: tape.leaf(arr) for name, arr in params.items()}
        h = leaves["x"]
        blocks = []
        for i in range(2):
            w, b = leaves[f"w{i}"], leaves[f"b{i}"]
            if biased:
                h = ad.conv2d(h, w, bias=b)
            else:
                h = ad.conv2d(h, w)
                h = ad.add(h, ad.broadcast_axes(b, h.shape, (0, 2, 3)))
            h = ad.relu(h)
            blocks.append(h)
        score = ad.reduce_sum(ad.mul(h, Tensor(selector)))
        root = score
        if not first_order:
            grad, = backward(score, [blocks[0]], create_graph=True).values()
            attention = ad.mul(blocks[0], grad)
            root = ad.reduce_sum(ad.mul(attention, attention))
        grads = backward(root, list(leaves.values()))
        return blocks[0].data, {name: grads[leaf.node].data
                                for name, leaf in leaves.items()}

    value, first = run(True)
    return value, first, run(False)[1]


def test_conv_bias_bit_equal_to_broadcast_add():
    rng = np.random.default_rng(31)
    params = {"x": rng.standard_normal((3, 2, 6, 5)),
              "w0": rng.standard_normal((4, 2, 3, 3)), "b0": rng.standard_normal(4),
              "w1": rng.standard_normal((3, 4, 3, 3)), "b1": rng.standard_normal(3)}
    selector = rng.standard_normal((3, 3, 6, 5))
    fused = _two_conv_net(params, selector, biased=True)
    added = _two_conv_net(params, selector, biased=False)
    assert fused[0].tobytes() == added[0].tobytes()
    for f, a in zip(fused[1:], added[1:]):
        for name in params:
            assert f[name].tobytes() == a[name].tobytes()
    # the first block's bias moves the features the attention loss reads;
    # the last block's moves only the ReLU masks of the class gradient
    assert np.all(fused[2]["b0"] != 0.0) and np.all(fused[2]["b1"] == 0.0)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (), (1, 3, 1, 1)])
def test_conv_bias_must_be_one_per_output_channel(shape):
    with pytest.raises(ShapeError):
        ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))),
                  bias=Tensor(np.zeros(shape)))


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))


def test_maxpool_basic():
    out = ad.maxpool2d(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    assert out.item() == 4.0


def test_maxpool_tie_routes_to_first():
    tape = Tape()
    x = leaf(tape, np.ones((1, 1, 2, 2)))
    out = ad.maxpool2d(x)
    g = backward(ad.reduce_sum(out), [x])[x.node]
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0
    assert np.array_equal(g.data, expected)


def test_maxpool_vs_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 1, 4, 4))
    out = ad.maxpool2d(Tensor(x))
    assert np.array_equal(out.data, oracles.maxpool_loops(x))


def test_maxpool_gradient_vs_loop_oracle():
    """Small integers tie inside windows; each window's upstream value goes
    to its first maximum."""
    rng = np.random.default_rng(2)
    x = rng.integers(0, 4, size=(2, 3, 6, 4)).astype(np.float64)
    tape = Tape()
    xt = leaf(tape, x)
    out = ad.maxpool2d(xt)
    g = rng.standard_normal(out.shape)
    grad = backward(ad.reduce_sum(ad.mul(out, Tensor(g))), [xt])[xt.node].data
    assert np.array_equal(grad, oracles.maxpool_grad_loops(x, g, 2, 2))


def test_maxpool_double_backward_gathers_at_window_argmax():
    """A create_graph backward records the pooling adjoint as a
    ``pool_scatter`` of the seed ``g``; the gradient of ``sum(h * dL/dx)``
    toward ``g`` runs that node's rule, which reads ``h`` at each window's
    argmax."""
    rng = np.random.default_rng(12)
    x = rng.integers(0, 4, size=(2, 3, 6, 4)).astype(np.float64)
    tape = Tape()
    xt = leaf(tape, x)
    out = ad.maxpool2d(xt)
    g = leaf(tape, rng.standard_normal(out.shape))
    dx = backward(ad.reduce_sum(ad.mul(out, g)), [xt],
                  create_graph=True)[xt.node]
    assert tape.nodes[dx.node].kind == "pool_scatter"
    h = rng.standard_normal(x.shape)
    grad = backward(ad.reduce_sum(ad.mul(Tensor(h), dx)), [g])[g.node].data
    assert np.array_equal(grad, oracles.maxpool_gather_loops(x, h, 2, 2))


# integer values tie inside windows, and -0.0 ties with 0.0; the special
# values put NaN and +-inf among finite ones
_POOL_VALUES = {
    "integers": st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
    "specials": st.one_of(st.floats(-4.0, 4.0),
                          st.sampled_from([np.nan, np.inf, -np.inf])),
}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 4), st.sampled_from(sorted(_POOL_VALUES)), st.data())
def test_maxpool_value_and_route_match_argmax_oracle(n, c, oh, ow, values,
                                                     data):
    shape = (n, c, 2 * oh, 2 * ow)
    x = data.draw(hnp.arrays(np.float64, shape, elements=_POOL_VALUES[values]))
    tape = Tape()
    out = ad.maxpool2d(tape.leaf(x))
    value, indices = oracles.maxpool_argmax(x, 2, 2)
    got = tape.nodes[out.node].meta["indices"]
    assert out.data.tobytes() == value.tobytes()
    assert got.dtype == indices.dtype and np.array_equal(got, indices)


# NaN payloads, quiet and signalling, of both signs; signed zeros; infinities
_POOL_SPECIALS = [_f64(0x7FF8000000000001), _f64(0xFFF8000000000123),
                  _f64(0x7FF0000000000001), _f64(0xFFF00000000ABCDE),
                  -0.0, 0.0, -0.0, 0.0, np.inf, -np.inf]


_SPECIAL_POOL_SHAPES = pytest.mark.parametrize("shape", [
    (32, 8, 32, 32),
    (33, 8, 32, 32),
    (2, 8, 128, 128),
], ids=["n32_c8_32x32", "n33_c8_32x32", "n2_c8_128x128"])


def _special_pool_input(shape):
    """Small integers (ties), with ``_POOL_SPECIALS`` spread over the first,
    a middle and the last sample: each of those samples also gets a 2x2
    corner of ties between signed zeros and one all-signalling-NaN
    window."""
    n = shape[0]
    rng = np.random.default_rng(sum(shape) + 2)
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    for i in (0, n // 2, n - 1):
        plane = x[i].reshape(-1)
        at = rng.choice(plane.size, size=40 * len(_POOL_SPECIALS), replace=False)
        plane[at] = np.repeat(_POOL_SPECIALS, 40)
        x[i, 0, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        x[i, 1, :2, :2] = _POOL_SPECIALS[2]
    return x


@_SPECIAL_POOL_SHAPES
def test_maxpool_routes_match_argmax_oracle(shape):
    """The one route pass over the whole value gives the argmax oracle's
    routes, and the value pass its value bytes."""
    x = _special_pool_input(shape)
    tape = Tape()
    out = ad.maxpool2d(tape.leaf(x))
    value, indices = oracles.maxpool_argmax(x, 2, 2)
    got = tape.nodes[out.node].meta["indices"]
    assert out.data.tobytes() == value.tobytes()
    assert got.dtype == indices.dtype and np.array_equal(got, indices)


@_SPECIAL_POOL_SHAPES
def test_untaped_maxpool_value_matches_argmax_oracle(shape):
    """An untaped pool never derives routes, so its value pass alone must
    give the routed element's bytes: the first of a signed-zero tie and
    the first NaN's payload, signalling ones included."""
    x = _special_pool_input(shape)
    out = ad.maxpool2d(Tensor(x))
    assert out.node is None
    value, _ = oracles.maxpool_argmax(x, 2, 2)
    assert out.data.tobytes() == value.tobytes()


def _model_pools(n=3):
    """A taped two-block forward, its labels and its two pool nodes, block 0
    first (the forward records no other ``pool_gather``); each pool node
    holds its routes from the forward on."""
    model = helpers.tiny_model(channels=(4, 8), size=8)
    images = np.random.default_rng(3).random((n, 1, 8, 8))
    record = model.forward(images, tape=Tape())
    pools = [node for node in record.logits.tape.nodes
             if node.kind == "pool_gather"]
    assert len(pools) == 2 and all("indices" in p.meta for p in pools)
    return record, np.arange(n) % 3, pools


def test_kink_signature_same_before_and_after_backward():
    """The pool routes are recorded with their nodes, so a signature read
    before any backward equals one read after a backward, on the same tape
    and on a fresh tape of the same forward."""
    signatures = []
    for signature_first in (True, False):
        record, labels, _ = _model_pools()
        tape = record.logits.tape
        if signature_first:
            signatures.append(tape.kink_signature())
        backward(cross_entropy(record.logits, labels),
                 list(record.param_leaves.values()))
        signatures.append(tape.kink_signature())
    assert len(set(signatures)) == 1


def test_backward_changes_no_recorded_node():
    """Nodes are write-once: the final backward of a training step leaves
    every node's meta as the forward and the objective recorded it, the
    same dict with the same keys and the same value objects."""
    record, labels, _ = _model_pools()
    tape = record.logits.tape
    bd = icasc_objective(record, labels, IcascConfig())

    def metas():
        return [(id(node.meta), {k: id(v) for k, v in node.meta.items()})
                for node in tape.nodes]

    before = metas()
    backward(bd.total_tensor, list(record.param_leaves.values()))
    assert metas() == before


def test_only_taped_pools_run_the_route_pass(monkeypatch):
    """``_first_tap`` runs once per taped pool: never on an untaped
    forward, once per block on a taped one, and only for the last block
    on a ``from_inner`` one.  The inputs hold no +-0 or NaN window, so the
    value pass makes no call of its own."""
    calls = []
    first_tap = ad._first_tap

    def spy(taps, value):
        calls.append(value.shape)
        return first_tap(taps, value)

    monkeypatch.setattr(ad, "_first_tap", spy)
    model = helpers.tiny_model(channels=(4, 8), size=8)
    images = np.random.default_rng(5).random((3, 1, 8, 8))
    counts = []
    for tape, from_inner in ((None, False), (Tape(), False), (Tape(), True)):
        calls.clear()
        model.forward(images, tape=tape, from_inner=from_inner)
        counts.append(len(calls))
    assert counts == [0, 2, 1]


def _kink_signature(x):
    """Of a ReLU, then a min with (1, 2, 0.5, 3), then a 2x2 max pool."""
    tape = Tape()
    m = ad.minimum(ad.relu(tape.leaf(np.array(x))), Tensor([1.0, 2.0, 0.5, 3.0]))
    ad.maxpool2d(ad.reshape(m, (1, 1, 2, 2)))
    return tape.kink_signature()


@pytest.mark.parametrize("moved, kept", [
    ([0.5, 0.1, 0.5, 1.0], False),  # a ReLU input crosses 0
    ([0.5, -0.2, 0.5 + 1e-12, 1.0], False),  # the min's tie goes to the 0.5
    ([0.5, -0.2, 0.5, 0.4], False),  # the window's first maximum moves to 0
    ([0.6, -0.5, 0.45, 1.2], True),  # every value moves, no route flips
], ids=["relu_crosses_0", "minimum_tie_flips", "pool_max_moves", "no_flip"])
def test_kink_signature_changes_exactly_when_a_route_flips(moved, kept):
    base = [0.5, -0.2, 0.5, 1.0]  # x[2] ties the min's 0.5, which routes to x
    assert (_kink_signature(moved) == _kink_signature(base)) == kept


def test_maxpool_window_too_large():
    with pytest.raises(ShapeError):
        ad.maxpool2d(Tensor(np.zeros((1, 1, 1, 1))))


def _conv_on(x_shape, w_shape):
    return lambda: ad.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.ones(w_shape)))


@pytest.mark.parametrize("op", [
    _conv_on((1, 1, 4, 4), (1, 1, 2, 2)),
    _conv_on((1, 1, 4, 4), (1, 1, 3, 1)),
    _conv_on((1, 1, 0, 4), (1, 1, 1, 1)),
    _conv_on((1, 1, 4, 0), (1, 1, 3, 3)),
    lambda: ad.maxpool2d(Tensor(np.zeros((1, 1, 5, 4)))),
    lambda: ad.maxpool2d(Tensor(np.zeros((1, 1, 4, 3)))),
    lambda: ad.maxpool2d(Tensor(np.zeros((1, 1, 0, 4)))),
], ids=["conv_even_kernel", "conv_non_square_kernel", "conv_empty_height",
        "conv_empty_width", "pool_odd_height", "pool_odd_width",
        "pool_empty_height"])
def test_conv_and_pool_reject_other_geometries(op):
    """conv2d takes a square kernel of odd side over a non-empty input, and
    maxpool2d an input that tiles into 2x2 windows."""
    with pytest.raises(ShapeError):
        op()


def test_matmul_basic():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_global_avg_pool():
    out = ad.reduce_mean(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])), (2, 3))
    assert out.data.tolist() == [[2.5]]


def test_matmul_gap_vs_loop_oracles():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    assert np.max(np.abs(ad.matmul(Tensor(a), Tensor(b)).data
                         - oracles.matmul_loops(a, b))) < 1e-12
    x = rng.standard_normal((2, 3, 4, 4))
    assert np.max(np.abs(ad.reduce_mean(Tensor(x), (2, 3)).data
                         - oracles.gap_loops(x))) < 1e-12


def test_upsample_constant():
    out = ad.bilinear_resize_array(np.full((2, 2), 3.5), 5, 7)
    assert np.allclose(out, 3.5, atol=1e-15)


def test_upsample_align_corners_midpoint():
    out = ad.bilinear_resize_array(np.array([[1.0, 3.0]]), 1, 3)
    assert np.array_equal(out, [[1.0, 2.0, 3.0]])


def test_upsample_vs_formula_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 2))
    out = ad.bilinear_resize_array(x, 4, 4)
    assert np.max(np.abs(out - oracles.bilinear_formula(x, 4, 4))) < 1e-12


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------


def test_grad_sum_of_squares():
    tape = Tape()
    x = leaf(tape, [1.0, 2.0])
    y = ad.reduce_sum(ad.mul(x, x))
    g = backward(y, [x])[x.node]
    assert np.array_equal(g.data, [2.0, 4.0])


def test_grad_relu_subgradient():
    tape = Tape()
    x = leaf(tape, [-1.0, 2.0])
    g = backward(ad.reduce_sum(ad.relu(x)), [x])[x.node]
    assert np.array_equal(g.data, [0.0, 1.0])


def test_second_derivative_cubic():
    tape = Tape()
    x = leaf(tape, [2.0])
    y = ad.reduce_sum(ad.mul(ad.mul(x, x), x))
    g = backward(y, [x], create_graph=True)[x.node]
    assert g.node is not None
    assert np.allclose(g.data, [12.0])
    g2 = backward(ad.reduce_sum(g), [x])[x.node]
    assert np.allclose(g2.data, [12.0])  # 6x at x=2

    # cross-check the second derivative against finite differences of the
    # first gradient
    def first_grad(v):
        t = Tape()
        xx = t.leaf(np.array([v]))
        yy = ad.reduce_sum(ad.mul(ad.mul(xx, xx), xx))
        return backward(yy, [xx])[xx.node].data[0]

    h = 1e-5
    fd = (first_grad(2.0 + h) - first_grad(2.0 - h)) / (2 * h)
    assert oracles.rel_err(g2.data[0], fd) < 1e-7


def test_backward_root_must_be_scalar():
    tape = Tape()
    x = leaf(tape, [1.0, 2.0])
    with pytest.raises(ShapeError):
        backward(ad.mul(x, x), [x])


def test_unreachable_wrt_gets_zeros():
    """A wrt the root does not depend on, recorded before or after it, gets
    zeros, and backward builds no adjoint for it: under create_graph the
    tape grows by the zero nodes alone."""
    for create_graph in (False, True):
        tape = Tape()
        x = leaf(tape, [1.0])
        z = leaf(tape, [5.0, 6.0])
        y = ad.reduce_sum(ad.mul(x, x))
        late = leaf(tape, [7.0])
        n = len(tape)
        grads = backward(y, [z, late], create_graph=create_graph)
        assert np.array_equal(grads[z.node].data, [0.0, 0.0])
        assert np.array_equal(grads[late.node].data, [0.0])
        if create_graph:
            assert all(g.node is not None for g in grads.values())
            assert [node.kind for node in tape.nodes[n:]] == ["constant"] * 2
        else:
            assert len(tape) == n


def test_constants_receive_no_gradient():
    tape = Tape()
    x = leaf(tape, [1.0, 2.0])
    c = Tensor([3.0, 4.0])
    y = ad.reduce_sum(ad.mul(x, c))
    grads = backward(y, [x])
    assert c.node is None
    assert np.array_equal(grads[x.node].data, [3.0, 4.0])


def test_unsupported_op_under_create_graph():
    tape = Tape()
    x = leaf(tape, [1.0])
    y = ad.reduce_sum(ad.mul(x, x))
    # forge a node kind without a registered rule
    tape.nodes[y.node].kind = "mystery"
    with pytest.raises(UnsupportedOpError):
        backward(y, [x], create_graph=True)


def test_create_graph_gradients_are_tape_nodes():
    tape = Tape()
    x = leaf(tape, [3.0])
    y = ad.reduce_sum(x)  # gradient is constant 1, still must be tape-live
    g = backward(y, [x], create_graph=True)[x.node]
    assert g.node is not None


def test_first_order_backward_appends_no_node():
    """Without create_graph the rules see untaped operands, so neither a
    backward over forward ops nor one over recorded rule ops (the second
    pass of double backprop) grows the tape."""
    tape = Tape()
    x = leaf(tape, np.linspace(0.2, 1.7, 16))
    unreached = leaf(tape, [1.0])
    y = _composite(tape, x)
    n = len(tape)
    grads = backward(y, [x, unreached])
    assert len(tape) == n
    assert all(g.tape is None and g.node is None for g in grads.values())

    g = backward(y, [x], create_graph=True)[x.node]
    z = ad.reduce_sum(ad.mul(g, g))
    n = len(tape)
    assert backward(z, [x])[x.node].node is None
    assert len(tape) == n


def test_first_order_backward_frees_each_adjoint_once_used():
    """A first-order walk drops a node's adjoint once its rule has run, so
    a chain of 16 multiplies on a 1 MiB array peaks at a few arrays, not
    one adjoint per node."""
    tape = Tape()
    x = leaf(tape, np.linspace(0.5, 1.5, 1 << 17))
    y = x
    for _ in range(16):
        y = ad.mul(y, 1.01)
    root = ad.reduce_sum(y)
    tracemalloc.start()
    try:
        grad = backward(root, [x])[x.node]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(grad.data, 1.01 ** 16, rtol=1e-14)
    assert peak < 4 * x.data.nbytes


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.array([1.0]))
    b = t2.leaf(np.array([2.0]))
    with pytest.raises(ad.AutodiffError):
        ad.mul(a, b)


# --------------------------------------------------------------------------
# module invariants
# --------------------------------------------------------------------------


# bilinear 2x2 -> 4x4 upsampling as a matrix: row i is the resized basis image e_i
_UPSAMPLE_2_TO_4 = ad.bilinear_resize_array(np.eye(4).reshape(4, 2, 2), 4, 4).reshape(4, 16)


def _composite(tape, x, lift=Tensor):
    """A scalar function touching every differentiable op family.

    ``lift`` wraps its three weight arrays; ``tape.leaf`` makes them leaves.
    """
    a = ad.reshape(x, (1, 1, 4, 4))
    c = ad.conv2d(a, lift(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3) / 9.0))
    p = ad.maxpool2d(ad.relu(c))
    up = ad.matmul(ad.reshape(p, (1, 4)), lift(_UPSAMPLE_2_TO_4))
    u = ad.reshape(up, (4, 4))
    # a sigmoid of x, written as 1 / (1 + exp(-x))
    sig = ad.div(1.0, ad.add(ad.exp(ad.mul(ad.reshape(x, (4, 4)), -1.0)), 1.0),
                 eps=0.0)
    m = ad.minimum(u, sig)
    flat = ad.reshape(m, (1, 16))
    h = ad.matmul(flat, lift(np.linspace(-1, 1, 32).reshape(16, 2)))
    s = ad.reduce_sum(ad.exp(ad.mul(h, 0.3)))
    q = ad.div(ad.reduce_sum(ad.mul(u, u)), s, eps=1e-8)
    # a softplus of h, written as log(1 + exp(h))
    return ad.add(q, ad.reduce_mean(ad.log(ad.add(ad.exp(h), 1.0))))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_finite_difference_composite(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.2, 1.7, size=16)  # positive, away from relu/min kinks

    def value(p):
        t = Tape()
        return _composite(t, t.leaf(p["x"])).item(), t.kink_signature()

    tape = Tape()
    x = leaf(tape, x0)
    g = backward(_composite(tape, x), [x])[x.node].data
    result = check_gradient(value, {"x": x0}, {"x": g}, rng, checks=6)
    assert result.outcome == gradcheck.OK, result


# --------------------------------------------------------------------------
# backward computes only the adjoints wrt needs
# --------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sets(st.integers(0, 3), min_size=1),
       st.booleans())
def test_backward_toward_a_subset_matches_backward_toward_all(seed, subset,
                                                              create_graph):
    def grads(pick):
        tape = Tape()
        leaves = []

        def lift(arr):
            leaves.append(tape.leaf(arr))
            return leaves[-1]

        x = lift(np.random.default_rng(seed).uniform(0.2, 1.7, size=16))
        y = _composite(tape, x, lift=lift)
        got = backward(y, [leaves[i] for i in pick], create_graph=create_graph)
        return {i: got[leaves[i].node].data.tobytes() for i in pick}

    full = grads(range(4))
    assert grads(sorted(subset)) == {i: full[i] for i in subset}


def _appended_kinds(tape, run) -> Counter:
    n = len(tape)
    run()
    return Counter(node.kind for node in tape.nodes[n:])


def test_class_gradients_toward_features_record_no_weight_adjoint():
    """The create_graph class backward toward ``inner`` and ``last`` stops
    at the features: one input adjoint through block 1, nothing toward the
    weights, biases or block 0."""
    model = helpers.tiny_model(channels=(4, 8), size=8)
    images = np.random.default_rng(0).standard_normal((3, 1, 8, 8))
    record = model.forward(images, tape=Tape())
    tape = record.logits.tape
    kinds = _appended_kinds(tape, lambda: class_gradients(
        record, [0, 1, 2], ("inner", "last"), create_graph=True))
    assert kinds["conv2d_dw"] == 0
    assert kinds["conv2d_dx"] == 1


def test_parameter_backward_skips_the_image_adjoint():
    """Block 0 reads the untaped image, so a create_graph backward toward
    the parameters records block 1's input adjoint and not block 0's."""
    model = helpers.tiny_model(channels=(4, 8), size=8)
    images = np.random.default_rng(1).standard_normal((3, 1, 8, 8))
    record = model.forward(images, tape=Tape())
    tape = record.logits.tape
    loss = cross_entropy(record.logits, np.array([0, 1, 2]))
    leaves = list(record.param_leaves.values())
    kinds = _appended_kinds(tape, lambda: backward(loss, leaves, create_graph=True))
    assert kinds["conv2d_dx"] == 1
    assert kinds["conv2d_dw"] == 2


def test_hessian_vector_product_matches_fd(monkeypatch):
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0.3, 1.5, size=8)
    v = rng.standard_normal(8)

    def build(vec, create_graph=False):
        t = Tape()
        x = t.leaf(vec)
        e = ad.exp(ad.mul(x, 0.5))
        # the denominator sums log(1 + exp(x)), a softplus of x
        y = ad.div(ad.reduce_sum(ad.mul(ad.mul(x, x), e)),
                   ad.reduce_sum(ad.log(ad.add(ad.exp(x), 1.0))), eps=1e-8)
        return t, x, y

    t, x, y = build(x0)
    g = backward(y, [x], create_graph=True)[x.node]
    gv = ad.reduce_sum(ad.mul(g, Tensor(v)))
    hvp = backward(gv, [x])[x.node].data

    def grad_at(vec):
        t, x, y = build(vec)
        return backward(y, [x])[x.node].data

    h = 1e-4
    fd = (grad_at(x0 + h * v) - grad_at(x0 - h * v)) / (2 * h)
    rel = np.abs(hvp - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-3

    # a conv model's loss toward its weights: the weight gradient is a
    # taped conv2d_dw node, so the product differentiates it
    model = helpers.tiny_model(2, channels=(2, 3), size=8, n_classes=3)
    images = rng.uniform(0.0, 1.0, size=(3, 1, 8, 8))
    labels = np.array([0, 1, 2])
    direction = {k: rng.standard_normal(p.shape) for k, p in model.params.items()}

    def weight_grads(params, create_graph):
        t = Tape()
        record = Model(model.config, params).forward(images, tape=t)
        leaves = record.param_leaves
        g = backward(cross_entropy(record.logits, labels), list(leaves.values()),
                     create_graph=create_graph)
        return t, leaves, {k: g[leaf.node] for k, leaf in leaves.items()}

    def directional(params):
        t, _, g = weight_grads(params, create_graph=False)
        return (sum(float(np.sum(g[k].data * direction[k])) for k in g),
                t.kink_signature())

    dw_calls = []
    dw_rule = ad._RULES["conv2d_dw"]

    def spy(node, *args):
        dw_calls.append(node.kind)
        return dw_rule(node, *args)

    monkeypatch.setitem(ad._RULES, "conv2d_dw", spy)
    _, leaves, g = weight_grads(model.params, create_graph=True)
    gv = None
    for k, grad in g.items():
        term = ad.reduce_sum(ad.mul(grad, Tensor(direction[k])))
        gv = term if gv is None else ad.add(gv, term)
    hv = backward(gv, list(leaves.values()))
    assert dw_calls == ["conv2d_dw"] * 2           # one node per block
    result = check_gradient(directional, model.params,
                            {k: hv[leaf.node].data for k, leaf in leaves.items()},
                            rng, checks=3)
    assert result.outcome == gradcheck.OK, result


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        t = Tape()
        x = t.leaf(rng.standard_normal((1, 2, 6, 6)))
        w = t.leaf(rng.standard_normal((3, 2, 3, 3)))
        out = ad.maxpool2d(ad.relu(ad.conv2d(x, w)))
        y = ad.reduce_sum(ad.mul(out, out))
        grads = backward(y, [x, w])
        return (y.item(), grads[x.node].data.tobytes(),
                grads[w.node].data.tobytes(),
                [n.kind for n in t.nodes])

    assert run() == run()


def test_tape_values_frozen_after_icasc_step():
    """Op outputs, routing masks and indices, and the float masks that the
    relu and minimum rules multiply by go on the tape uncopied, so each must
    be frozen in place: no node value, recorded operand or routing array of
    a full step can be written."""
    model = helpers.tiny_model(channels=(4, 8), size=8)
    images = np.random.default_rng(3).random((3, 1, 8, 8))
    record = model.forward(images, tape=Tape())
    tape = record.logits.tape
    bd = icasc_objective(record, np.array([0, 1, 2]), IcascConfig())
    assert bd.skip_rate < 1.0
    backward(bd.total_tensor, list(record.param_leaves.values()))
    assert len(tape) > 50
    routing = Counter()
    constants = 0
    for node in tape.nodes:
        assert not node.value.flags.writeable, node.kind
        for handle, data in node.inputs:
            assert not data.flags.writeable, node.kind
            constants += node.kind == "mul" and handle is None
        for key in ("mask", "mask_first", "indices"):
            if key in node.meta:
                assert not node.meta[key].flags.writeable, (node.kind, key)
                routing[key] += 1
    # the objective's create_graph backwards ran the relu, minimum and pool
    # rules, so their masks and constants were among the arrays checked
    assert set(routing) == {"mask", "mask_first", "indices"}
    assert constants > 0


@pytest.mark.parametrize("make", [lambda arr: Tensor(arr),
                                  lambda arr: Tape().leaf(arr)])
def test_caller_array_mutation_does_not_reach_tensor(make):
    arr = np.arange(6.0).reshape(2, 3)
    t = make(arr)
    arr[:] = -1.0
    assert np.array_equal(t.data, np.arange(6.0).reshape(2, 3))
    if t.tape is not None:
        assert np.array_equal(t.tape.nodes[t.node].value,
                              np.arange(6.0).reshape(2, 3))


def test_tape_values_reproducible_from_leaves():
    # replaying the recorded op sequence from the leaves reproduces every
    # stored node output bit-exactly
    rng = np.random.default_rng(5)
    t = Tape()
    x = t.leaf(rng.standard_normal((1, 1, 4, 4)))
    w = Tensor(rng.standard_normal((2, 1, 3, 3)))
    biased = ad.conv2d(x, w, bias=t.leaf(rng.standard_normal(2)))
    out = ad.reduce_sum(ad.relu(ad.conv2d(biased, Tensor(rng.standard_normal((2, 2, 3, 3))))))
    replay = {}
    for i, node in enumerate(t.nodes):
        if node.kind == "leaf":
            replay[i] = node.value
        elif node.kind == "conv2d":
            (hx, vx), (hw, vw) = node.inputs[:2]
            bias = [Tensor(replay[hb]) for hb, _ in node.inputs[2:]]
            replay[i] = ad.conv2d(Tensor(replay.get(hx, vx)), Tensor(vw),
                                  *bias).data
        elif node.kind == "relu":
            (hx, vx), = node.inputs
            replay[i] = ad.relu(Tensor(replay[hx])).data
        elif node.kind == "reduce_sum":
            (hx, vx), = node.inputs
            replay[i] = ad.reduce_sum(Tensor(replay[hx]), node.meta["axes"]).data
    for i, node in enumerate(t.nodes):
        assert np.array_equal(replay[i], node.value)
