"""Independent reference implementations used as test oracles.

Everything here is written the dumb, obviously-correct way (explicit loops,
direct formulas, extended precision) and never calls into the engine's
compute paths, so agreement is meaningful.
"""

from __future__ import annotations

import numpy as np


# -- dense ops ---------------------------------------------------------------


def conv2d_loops(x, w, stride=1, padding=0):
    """Six nested loops of cross-correlation."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((n, cout, oh, ow))
    for b in range(n):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for p in range(kh):
                            for q in range(kw):
                                acc += xp[b, c, i * stride + p, j * stride + q] \
                                       * w[o, c, p, q]
                    out[b, o, i, j] = acc
    return out


def im2col_padded(x, kh, kw, stride, padding):
    """(N, Cin, H, W) -> (N, Cin, kh, kw, OH, OW) patches, read element by
    element from an ``np.pad`` zero-padded copy of ``x``."""
    n, cin, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, cin, kh, kw, oh, ow), dtype=x.dtype)
    for p in range(kh):
        for q in range(kw):
            for i in range(oh):
                for j in range(ow):
                    cols[:, :, p, q, i, j] = xp[:, :, i * stride + p,
                                                j * stride + q]
    return cols


def col2im_padded(cols, x_shape, stride, padding):
    """Adjoint of ``im2col_padded``: each tap (p, q), in that order, added
    element by element into an ``np.zeros`` zero-padded buffer, which is
    then cropped to ``x_shape``."""
    n, cin, h, w = x_shape
    kh, kw, oh, ow = cols.shape[2:]
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding))
    for p in range(kh):
        for q in range(kw):
            for i in range(oh):
                for j in range(ow):
                    xp[:, :, i * stride + p, j * stride + q] += \
                        cols[:, :, p, q, i, j]
    return xp[:, :, padding:padding + h, padding:padding + w].copy()


def maxpool_loops(x, window=2, stride=2):
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for b in range(n):
        for k in range(c):
            for i in range(oh):
                for j in range(ow):
                    out[b, k, i, j] = x[b, k,
                                        i * stride:i * stride + window,
                                        j * stride:j * stride + window].max()
    return out


def maxpool_argmax(x, window, stride):
    """Max pooling through a copy of every window: ``argmax`` over the
    flattened window picks the route (the first maximum, or the first NaN),
    and the value is gathered back from the input at that flat index.
    Returns ``(value, indices)``, with indices into each input plane."""
    n, c, h, w = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (window, window),
                                                   axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]
    oh, ow = win.shape[2], win.shape[3]
    local = np.argmax(win.reshape(n, c, oh, ow, -1), axis=-1)
    oy, ox = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    iy = oy[None, None] * stride + local // window
    ix = ox[None, None] * stride + local % window
    indices = (iy * w + ix).astype(np.int64)
    value = np.take_along_axis(x.reshape(n, c, -1),
                               indices.reshape(n, c, -1), axis=2)
    return value.reshape(n, c, oh, ow), indices


def _maxpool_routes(x, window, stride, oh, ow):
    """Yield ``(b, k, i, j, y, x)``: window ``(i, j)`` of plane ``(b, k)``,
    in row-major order, and the input pixel of its first maximum."""
    n, c = x.shape[:2]
    for b in range(n):
        for k in range(c):
            for i in range(oh):
                for j in range(ow):
                    by, bx = i * stride, j * stride
                    for p in range(window):
                        for q in range(window):
                            y, xx = i * stride + p, j * stride + q
                            if x[b, k, y, xx] > x[b, k, by, bx]:
                                by, bx = y, xx
                    yield b, k, i, j, by, bx


def maxpool_grad_loops(x, g, window, stride):
    """Adjoint of max pooling: each window's upstream value added, window by
    window in row-major order, at the window's first maximum."""
    out = np.zeros(x.shape)
    for b, k, i, j, y, xx in _maxpool_routes(x, window, stride, *g.shape[2:]):
        out[b, k, y, xx] += g[b, k, i, j]
    return out


def maxpool_gather_loops(x, h, window, stride):
    """Adjoint of ``maxpool_grad_loops`` in ``g``: each window reads ``h``
    at the window's first maximum."""
    n, c, hh, w = x.shape
    oh, ow = (hh - window) // stride + 1, (w - window) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for b, k, i, j, y, xx in _maxpool_routes(x, window, stride, oh, ow):
        out[b, k, i, j] = h[b, k, y, xx]
    return out


def matmul_loops(a, b):
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def gap_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c))
    for b in range(n):
        for k in range(c):
            out[b, k] = x[b, k].sum() / (h * w)
    return out


def bilinear_formula(x, oh, ow):
    """Direct align-corners interpolation formula, pixel by pixel."""
    h, w = x.shape
    out = np.zeros((oh, ow))
    for i in range(oh):
        for j in range(ow):
            sy = 0.0 if oh == 1 else i * (h - 1) / (oh - 1)
            sx = 0.0 if ow == 1 else j * (w - 1) / (ow - 1)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (x[y0, x0] * (1 - fy) * (1 - fx)
                         + x[y1, x0] * fy * (1 - fx)
                         + x[y0, x1] * (1 - fy) * fx
                         + x[y1, x1] * fy * fx)
    return out


# -- attention formulas (single sample, raw arrays) ---------------------------


def grad_cam_formula(feats, grads):
    """(C, H, W) feature and gradient arrays -> (H, W) map."""
    z = feats.shape[1] * feats.shape[2]
    alpha = grads.sum(axis=(1, 2)) / z
    return np.maximum((alpha[:, None, None] * feats).sum(axis=0), 0.0)


def a_ch_formula(feats, grads):
    z = feats.shape[1] * feats.shape[2]
    weights = np.maximum(grads, 0.0).sum(axis=(1, 2))
    return np.maximum((weights[:, None, None] * feats).sum(axis=0), 0.0) / z


def mask_formula(attention, omega, sigma_factor):
    sigma = sigma_factor * attention.max()
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-omega * (attention - sigma)))


def separation_formula(a_target, a_conf, mask, eps):
    num = (np.minimum(a_target, a_conf) * mask).sum()
    den = (a_target + a_conf).sum()
    return 2.0 * num / (den + eps)


def consistency_formula(a_inner, mask, theta, eps):
    return theta - (a_inner * mask).sum() / (a_inner.sum() + eps)


# -- classification losses in extended precision ------------------------------


def cross_entropy_mp(logits, labels, dps=50):
    import mpmath as mp
    with mp.workdps(dps):
        total = mp.mpf(0)
        for row, y in zip(logits, labels):
            s = mp.fsum(mp.e ** mp.mpf(float(v)) for v in row)
            total += mp.log(s) - mp.mpf(float(row[y]))
        return float(total / len(labels))


# -- KS chart -----------------------------------------------------------------


def ks_brute(target, conf):
    """Sweep every sample point of both sequences; P(X <= t) convention."""
    target = np.asarray(target, dtype=np.float64)
    conf = np.asarray(conf, dtype=np.float64)
    best = 0.0
    for t in np.concatenate([target, conf]):
        gap = abs(np.mean(target <= t) - np.mean(conf <= t))
        best = max(best, float(gap))
    return best


# -- finite differences -------------------------------------------------------


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)
