"""Independent brute-force oracles used by the test suite.

Everything here is written as plain nested loops or direct formula
evaluation, deliberately sharing no code with the library under test.
"""
import math

import numpy as np


def conv2d_loops(x, w, b=None, stride=1, padding="same"):
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = k // 2 if padding == "same" else 0
    xp = np.zeros((n, cin, h + 2 * p, wd + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + wd] = x
    ho = (h + 2 * p - k) // stride + 1
    wo = (wd + 2 * p - k) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[ni, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                    if b is not None:
                        acc += b[o]
                    out[ni, o, i, j] = acc
    return out


def conv2d_backward_loops(x, w, g):
    """Gradients (dx, dw, db) of same-padded conv2d_loops for output gradient g."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = k // 2
    xp = np.zeros((n, cin, h + 2 * p, wd + 2 * p), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    db = np.zeros(cout, dtype=x.dtype)
    for ni in range(n):
        for o in range(cout):
            for i in range(h):
                for j in range(wd):
                    gv = g[ni, o, i, j]
                    db[o] += gv
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                dw[o, c, u, v] += gv * xp[ni, c, i + u, j + v]
                                dxp[ni, c, i + u, j + v] += gv * w[o, c, u, v]
    return dxp[:, :, p:p + h, p:p + wd], dw, db


def conv2d_weight_grad_einsum(x, g, k, dtype=np.float64):
    """Weight gradient (O, C, k, k) of same-padded conv2d for output gradient
    g, one einsum per tap over the shifted input, summed in ``dtype``. Given
    |x| and |g| it is sum |x * g| per weight: the scale of that gradient's
    rounding error."""
    n, cin, h, wd = x.shape
    p = k // 2
    xp = np.zeros((n, cin, h + 2 * p, wd + 2 * p), dtype=dtype)
    xp[:, :, p:p + h, p:p + wd] = x
    g = np.asarray(g, dtype=dtype)
    dw = np.zeros((g.shape[1], cin, k, k), dtype=dtype)
    for u in range(k):
        for v in range(k):
            dw[:, :, u, v] = np.einsum("nchw,nohw->oc", xp[:, :, u:u + h, v:v + wd], g)
    return dw


def max_pool2d_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[ni, ci, i, j] = max(
                        x[ni, ci, 2 * i, 2 * j], x[ni, ci, 2 * i, 2 * j + 1],
                        x[ni, ci, 2 * i + 1, 2 * j], x[ni, ci, 2 * i + 1, 2 * j + 1])
    return out


def max_pool2d_backward_loops(x, g):
    """Input gradient of 2x2 max pooling: each g goes to the first maximal
    cell of its window in row-major order."""
    n, c, h, w = x.shape
    gx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    cells = [(2 * i, 2 * j), (2 * i, 2 * j + 1),
                             (2 * i + 1, 2 * j), (2 * i + 1, 2 * j + 1)]
                    best = cells[0]
                    for cell in cells[1:]:
                        if x[ni, ci][cell] > x[ni, ci][best]:
                            best = cell
                    gx[ni, ci][best] = g[ni, ci, i, j]
    return gx


def avg_pool2d_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[ni, ci, i, j] = (
                        x[ni, ci, 2 * i, 2 * j] + x[ni, ci, 2 * i, 2 * j + 1]
                        + x[ni, ci, 2 * i + 1, 2 * j] + x[ni, ci, 2 * i + 1, 2 * j + 1]) / 4.0
    return out


def bilinear2x_loops(x):
    """Direct align-corners-false interpolation, edge-clamped."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=x.dtype)

    def sample(plane, y, xx):
        sy = (y + 0.5) / 2.0 - 0.5
        sx = (xx + 0.5) / 2.0 - 0.5
        y0 = math.floor(sy)
        x0 = math.floor(sx)
        ty = sy - y0
        tx = sx - x0
        y0c = min(max(y0, 0), h - 1)
        y1c = min(max(y0 + 1, 0), h - 1)
        x0c = min(max(x0, 0), w - 1)
        x1c = min(max(x0 + 1, 0), w - 1)
        top = (1 - tx) * plane[y0c, x0c] + tx * plane[y0c, x1c]
        bot = (1 - tx) * plane[y1c, x0c] + tx * plane[y1c, x1c]
        return (1 - ty) * top + ty * bot

    for ni in range(n):
        for ci in range(c):
            for i in range(2 * h):
                for j in range(2 * w):
                    out[ni, ci, i, j] = sample(x[ni, ci], i, j)
    return out


def bilinear2x_backward_loops(g):
    """Input gradient of bilinear2x_loops: each output row's gradient scattered
    to its two clamped source rows, then each column's to its two source columns."""
    n, c, h2, w2 = g.shape
    h, w = h2 // 2, w2 // 2

    def taps(i, size):
        s = (i + 0.5) / 2.0 - 0.5
        lo = math.floor(s)
        t = s - lo
        return ((min(max(lo, 0), size - 1), 1 - t), (min(max(lo + 1, 0), size - 1), t))

    rows = np.zeros((n, c, h, w2), dtype=g.dtype)
    for i in range(h2):
        for src, weight in taps(i, h):
            rows[:, :, src, :] += weight * g[:, :, i, :]
    gx = np.zeros((n, c, h, w), dtype=g.dtype)
    for j in range(w2):
        for src, weight in taps(j, w):
            gx[:, :, :, src] += weight * rows[:, :, :, j]
    return gx


def bilinear2x_matrix(size, dtype):
    """(2*size, size) dense interpolation operator, one row per output index."""
    m = np.zeros((2 * size, size), dtype=dtype)
    for i in range(2 * size):
        s = (i + 0.5) / 2.0 - 0.5
        lo = math.floor(s)
        m[i, min(max(lo, 0), size - 1)] += 1.0 - (s - lo)
        m[i, min(max(lo + 1, 0), size - 1)] += s - lo
    return m


def bilinear2x_dense(x):
    """rows @ plane @ cols.T per plane with the whole dense operators,
    zeros included: the separable product upsample2x computes by bands."""
    n, c, h, w = x.shape
    rows, cols = bilinear2x_matrix(h, x.dtype), bilinear2x_matrix(w, x.dtype)
    return (rows[None] @ x.reshape(n * c, h, w) @ cols.T[None]).reshape(n, c, 2 * h, 2 * w)


def bilinear2x_backward_dense(g):
    """rows.T @ g @ cols per plane: the dense input gradient."""
    n, c, h2, w2 = g.shape
    rows, cols = bilinear2x_matrix(h2 // 2, g.dtype), bilinear2x_matrix(w2 // 2, g.dtype)
    return (rows.T[None] @ g.reshape(n * c, h2, w2) @ cols[None]).reshape(n, c, h2 // 2, w2 // 2)


def broadcast_mul_loops(x, w):
    wb = np.broadcast_to(w, x.shape)
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        out[idx] = x[idx] * wb[idx]
    return out


def global_pool_loops(x):
    n, c, h, w = x.shape
    avg = np.zeros((n, c, 1, 1), dtype=x.dtype)
    mx = np.zeros((n, c, 1, 1), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            vals = [x[ni, ci, i, j] for i in range(h) for j in range(w)]
            avg[ni, ci, 0, 0] = sum(vals) / len(vals)
            mx[ni, ci, 0, 0] = max(vals)
    return avg, mx


def channel_pool_loops(x):
    n, c, h, w = x.shape
    avg = np.zeros((n, 1, h, w), dtype=x.dtype)
    mx = np.zeros((n, 1, h, w), dtype=x.dtype)
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                vals = [x[ni, ci, i, j] for ci in range(c)]
                avg[ni, 0, i, j] = sum(vals) / len(vals)
                mx[ni, 0, i, j] = max(vals)
    return avg, mx


def global_max_backward_loops(x, g):
    """Input gradient of the global max pool: each g goes to the first
    maximal cell of its plane in row-major order."""
    n, c, h, w = x.shape
    gx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            best = (0, 0)
            for i in range(h):
                for j in range(w):
                    if x[ni, ci, i, j] > x[ni, ci][best]:
                        best = (i, j)
            gx[ni, ci][best] = g[ni, ci, 0, 0]
    return gx


def channel_max_backward_loops(x, g):
    """Input gradient of the channel max pool: each g goes to the first
    maximal channel of its pixel."""
    n, c, h, w = x.shape
    gx = np.zeros_like(x)
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                best = 0
                for ci in range(1, c):
                    if x[ni, ci, i, j] > x[ni, best, i, j]:
                        best = ci
                gx[ni, best, i, j] = g[ni, 0, i, j]
    return gx


def dense_loops(x, w):
    n, c, _, _ = x.shape
    cout = w.shape[0]
    out = np.zeros((n, cout, 1, 1), dtype=x.dtype)
    for ni in range(n):
        for o in range(cout):
            acc = 0.0
            for ci in range(c):
                acc += w[o, ci] * x[ni, ci, 0, 0]
            out[ni, o, 0, 0] = acc
    return out


def confusion_loops(pred, gt, k):
    cm = np.zeros((k, k), dtype=np.int64)
    for p, t in zip(pred.reshape(-1), gt.reshape(-1)):
        cm[p, t] += 1
    return cm


def iou_loops(pred, gt, c):
    inter = 0
    union = 0
    for p, t in zip(pred.reshape(-1), gt.reshape(-1)):
        if p == c and t == c:
            inter += 1
        if p == c or t == c:
            union += 1
    return None if union == 0 else inter / union


def accuracy_loops(pred, gt):
    correct = sum(1 for p, t in zip(pred.reshape(-1), gt.reshape(-1)) if p == t)
    return correct / pred.size


def precision_loops(pred, gt, c):
    predicted = sum(1 for p in pred.reshape(-1) if p == c)
    if predicted == 0:
        return None
    hit = sum(1 for p, t in zip(pred.reshape(-1), gt.reshape(-1)) if p == c and t == c)
    return hit / predicted


def recall_loops(pred, gt, c):
    actual = sum(1 for t in gt.reshape(-1) if t == c)
    if actual == 0:
        return None
    hit = sum(1 for p, t in zip(pred.reshape(-1), gt.reshape(-1)) if p == c and t == c)
    return hit / actual


def adam_reference(theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam with bias correction, one scalar-or-array parameter."""
    theta = np.array(theta0, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history = []
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        history.append(theta.copy())
    return history


# The per-pixel stroke rasterizer of data.make_sample: one Bresenham loop per
# line, and one bounds check and one write per pixel. Class ids: 1 thick,
# 2 thin, 3 dash, 4 arrow, 5 number.

DASH_ON, DASH_OFF = 4, 4
GLYPH_W, GLYPH_H = 5, 7
# seven-segment membership per digit: (top, top-right, bottom-right,
# bottom, bottom-left, top-left, middle)
SEGMENTS = {
    0: (1, 1, 1, 1, 1, 1, 0), 1: (0, 1, 1, 0, 0, 0, 0), 2: (1, 1, 0, 1, 1, 0, 1),
    3: (1, 1, 1, 1, 0, 0, 1), 4: (0, 1, 1, 0, 0, 1, 1), 5: (1, 0, 1, 1, 0, 1, 1),
    6: (1, 0, 1, 1, 1, 1, 1), 7: (1, 1, 1, 0, 0, 0, 0), 8: (1, 1, 1, 1, 1, 1, 1),
    9: (1, 1, 1, 1, 0, 1, 1),
}


def bresenham_loop(p0, p1):
    x0, y0 = int(p0[0]), int(p0[1])
    x1, y1 = int(p1[0]), int(p1[1])
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    pts = []
    while True:
        pts.append((x0, y0))
        if x0 == x1 and y0 == y1:
            return pts
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def stamp_loop(canvas_u8, mask, x, y, class_id, shade):
    h, w = mask.shape
    if 0 <= x < w and 0 <= y < h:
        canvas_u8[y, x] = shade
        mask[y, x] = class_id


def draw_polyline_loops(canvas_u8, mask, pts, class_id, shade, width=1, pattern=None):
    offsets = range(-(width // 2), width - width // 2)
    for i, (x, y) in enumerate(pts):
        if pattern is not None and not pattern(i):
            continue
        if width == 1:
            stamp_loop(canvas_u8, mask, x, y, class_id, shade)
        else:
            for dx in offsets:
                for dy in offsets:
                    stamp_loop(canvas_u8, mask, x + dx, y + dy, class_id, shade)


def draw_arrow_head_loops(canvas_u8, mask, tip, direction, shade):
    length = float(np.hypot(*direction))
    if length == 0:
        return
    ux, uy = direction[0] / length, direction[1] / length
    px, py = -uy, ux
    for t in range(6):
        cx, cy = tip[0] - t * ux, tip[1] - t * uy
        half = int(round(t * 0.7))
        for s in range(-half, half + 1):
            stamp_loop(canvas_u8, mask, int(round(cx + s * px)), int(round(cy + s * py)),
                       4, shade)


def draw_glyph_loops(canvas_u8, mask, left, top, digit, shade):
    on = SEGMENTS[digit]
    rows = {
        0: [(0, c) for c in range(1, 4)],                 # top
        1: [(r, 4) for r in (1, 2)],                      # top-right
        2: [(r, 4) for r in (4, 5)],                      # bottom-right
        3: [(6, c) for c in range(1, 4)],                 # bottom
        4: [(r, 0) for r in (4, 5)],                      # bottom-left
        5: [(r, 0) for r in (1, 2)],                      # top-left
        6: [(3, c) for c in range(1, 4)],                 # middle
    }
    for seg, cells in rows.items():
        if on[seg]:
            for r, c in cells:
                stamp_loop(canvas_u8, mask, left + c, top + r, 5, shade)


def draw_stroke_loops(canvas_u8, mask, class_id, shade, p0, p1, rng):
    """One stroke of make_sample from p0 to p1 (int arrays); a thick stroke
    draws its width and a number its digit from rng."""
    size = mask.shape[0]
    pts = bresenham_loop(p0, p1)
    if class_id == 1:
        draw_polyline_loops(canvas_u8, mask, pts, 1, shade, width=int(rng.integers(3, 6)))
    elif class_id == 2:
        draw_polyline_loops(canvas_u8, mask, pts, 2, shade)
    elif class_id == 3:
        period = DASH_ON + DASH_OFF
        draw_polyline_loops(canvas_u8, mask, pts, 3, shade,
                            pattern=lambda i: i % period < DASH_ON)
    elif class_id == 4:
        draw_polyline_loops(canvas_u8, mask, pts, 4, shade)
        draw_arrow_head_loops(canvas_u8, mask, p1, p1 - p0, shade)
    else:
        draw_polyline_loops(canvas_u8, mask, pts, 5, shade)
        mid = (p0 + p1) // 2
        left = int(np.clip(mid[0] + 2, 0, size - GLYPH_W))
        top = int(np.clip(mid[1] + 2, 0, size - GLYPH_H))
        draw_glyph_loops(canvas_u8, mask, left, top, int(rng.integers(0, 10)), shade)


def make_sample_loops(size, rng, segment_endpoints):
    """make_sample's (uint8 canvas, mask), drawn pixel by pixel. segment_endpoints
    is the library's endpoint draw, which holds no rasterization."""
    canvas = np.full((size, size), 255, dtype=np.uint8)
    mask = np.zeros((size, size), dtype=np.uint8)
    for _ in range(int(rng.integers(3, 11))):
        class_id = int(rng.integers(1, 6))
        shade = int(rng.integers(0, 81))
        p0, p1 = segment_endpoints(rng, size)
        draw_stroke_loops(canvas, mask, class_id, shade, p0, p1, rng)
    return canvas, mask
