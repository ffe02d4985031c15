"""Dense tensors with reverse-mode automatic differentiation.

Feature maps follow the N-C-H-W row-major layout. Parameters may be any
rank (dense weights are 2-D, biases 1-D) and losses are rank-0 scalars.
Two precision modes exist: float32 (``TRAIN32``) for training and float64
(``CHECK64``) for gradient checking; a graph must use a single mode
throughout, which binary ops enforce.

The computation graph is implicit: every op result keeps references to
its parents together with a closure that scatters the incoming gradient
to them. ``backward`` on a scalar loss runs one reverse topological pass.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

TRAIN32 = np.float32
CHECK64 = np.float64

_grad_enabled = True


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class GraphError(RuntimeError):
    """Raised on misuse of the autodiff graph (e.g. double backward)."""


class no_grad:
    """Context manager that disables graph construction inside its body."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    """A numpy array plus optional gradient bookkeeping.

    Tensors are immutable once they participate in a graph, with one
    exception: optimizers update leaf parameter ``data`` in place between
    graph builds.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_prev", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: Optional[str] = None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(CHECK64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._prev: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from a scalar loss.

        Rejects a second call on the same graph and rejects leaves that
        already hold a gradient (call :func:`zero_grads` between steps);
        silent accumulation across steps is a classic correctness trap.
        """
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise GraphError("backward on a non-finite loss")
        if self._done:
            raise GraphError("backward already ran on this graph; rebuild the graph before calling again")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))

        for node in order:
            if node.requires_grad and node._backward is None and node.grad is not None:
                raise GraphError(
                    f"leaf {node.name or node.shape} already holds a gradient; call zero_grads first"
                )

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        self._done = True


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def _check_same_dtype(*tensors: Tensor) -> None:
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ShapeError(f"mixed precision within one graph: {sorted(str(d) for d in dtypes)}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# convolution and pooling


def _zero_pad(a: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """N-C-H-W ``a`` zero-padded by rows (top, bottom) and columns (left, right).

    One allocation and one slice copy: np.pad spends tens of microseconds
    in Python set-up per call, more than the copy itself at these sizes.
    """
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + top + bottom, left + w + right), dtype=a.dtype)
    out[:, :, top:top + h, left:left + w] = a
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-padded 2-D cross-correlation over N-C-H-W input with an O-C-k-k kernel.

    Layout: x is zero-padded by (p, p+1) rows and (p, p) columns (p = k // 2,
    Wp = W+2p) and flattened per channel to xf of shape (N, C, (H+2p+1)*Wp).
    Tap (u, v) then reads xf[..., s : s+H*Wp] with s = u*Wp + v, a
    unit-stride matrix BLAS takes without a copy. Output rows come out Wp
    wide; the last 2p columns straddle two input rows and are dropped, and
    the spare bottom row takes the last tap's overrun. Backward zero-pads g
    to Wp columns (g_wide) and reads the same slices.

    Forward runs one GEMM per tap and sums W_tap @ slice, except when
    C = 1: then the k*k slices are first copied into one transient
    (N, k*k, span) operand, so forward is a single GEMM with inner
    dimension k*k instead of k*k GEMMs with inner dimension 1. Stacking is
    kept to C = 1: at C = 8 it was slower than the per-tap GEMMs, and at
    C = 2 or 4 its reordered sums moved float64 results enough to fail
    the skip-block gradient check.

    Backward is per tap for every C. The weight gradient of a tap is
    slice @ g_wide.T, shape (N, C, O), summed over N and transposed (BLAS
    runs this orientation up to twice as fast as g_wide @ slice.T here),
    and W_tap.T @ g_wide is added into the input gradient at offset s.
    k = 1 is one matmul with no padding.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got {x.data.ndim}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be rank 4, got {weight.data.ndim}")
    n, cin, h, w = x.shape
    cout, cw, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError(f"conv2d kernel must be square, got {kh}x{kw}")
    k = kh
    if cw != cin:
        raise ShapeError(f"conv2d channel mismatch on axis 1: input has {cin}, weight expects {cw}")
    if k % 2 == 0:
        raise ShapeError(f"same padding requires an odd kernel, got k={k}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias must have shape ({cout},), got {bias.shape}")
    _check_same_dtype(x, weight, bias)

    p = k // 2
    wp = w + 2 * p
    span = h * wp
    xp = _zero_pad(x.data, p, p + 1, p, p) if p else x.data
    xf = xp.reshape(n, cin, -1)
    taps = [(u, v, u * wp + v) for u in range(k) for v in range(k)]

    if cin == 1:
        cols = np.empty((n, k * k, span), dtype=xf.dtype)
        for t, (_, _, s) in enumerate(taps):
            cols[:, t] = xf[:, 0, s:s + span]
        wide = np.matmul(weight.data.reshape(cout, k * k), cols)
    else:
        wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))  # k,k,O,C
        wide = np.matmul(wt[0, 0], xf[:, :, :span])
        tmp = np.empty_like(wide)
        for u, v, s in taps[1:]:
            wide += np.matmul(wt[u, v], xf[:, :, s:s + span], out=tmp)
    out = wide.reshape(n, cout, h, wp)[..., :w] + bias.data[:, None, None]

    def backward(g: np.ndarray) -> None:
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        gw = (_zero_pad(g, 0, 0, 0, 2 * p) if p else g).reshape(n, cout, span)
        if weight.requires_grad:
            dw = np.empty((k, k, cin, cout), dtype=g.dtype)
            gwt = gw.transpose(0, 2, 1)
            for u, v, s in taps:
                dw[u, v] = np.matmul(xf[:, :, s:s + span], gwt).sum(axis=0)
            _accumulate(weight, dw.transpose(3, 2, 0, 1))
        if x.requires_grad:
            wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))
            gx = np.zeros_like(xf)
            tmp = np.empty((n, cin, span), dtype=g.dtype)
            for u, v, s in taps:
                gx[:, :, s:s + span] += np.matmul(wt[u, v].T, gw, out=tmp)
            _accumulate(x, gx.reshape(xp.shape)[:, :, p:p + h, p:p + w])

    return _result(out, [x, weight, bias], backward)


def _check_even_spatial(x: Tensor, opname: str) -> None:
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"{opname} requires even spatial extents, got {h}x{w}")


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over the four strided cells x[..., i::2, j::2].

    Forward is np.maximum of the cells. Backward routes each output
    gradient to the first cell, in row-major window order (00, 01, 10, 11),
    that equals the maximum: it carries the gradient of the windows no
    earlier cell has claimed, hands it to each cell where that cell equals
    the maximum, and gives the last cell what is left. Routed values equal
    the argmax rule's; a zero may come out as -0.0.
    """
    _check_even_spatial(x, "max_pool2d")
    d = x.data
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    cells = [d[:, :, i::2, j::2] for i, j in offsets]
    out = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))

    def backward(g: np.ndarray) -> None:
        gx = np.empty_like(d)
        rest = g.copy()          # gradient of the windows no earlier cell claimed
        hit = np.empty(out.shape, dtype=bool)
        for (i, j), cell in zip(offsets[:-1], cells):
            np.equal(cell, out, out=hit)
            claimed = gx[:, :, i::2, j::2]
            np.multiply(rest, hit, out=claimed)
            rest -= claimed
        gx[:, :, 1::2, 1::2] = rest
        _accumulate(x, gx)

    return _result(out, [x], backward)


def avg_pool2d(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2; gradient spreads 1/4 per cell."""
    _check_even_spatial(x, "avg_pool2d")
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    d = x.data
    # sequential add order keeps results bit-identical to a scalar loop
    out = (d[:, :, 0::2, 0::2] + d[:, :, 0::2, 1::2]
           + d[:, :, 1::2, 0::2] + d[:, :, 1::2, 1::2]) * 0.25

    def backward(g: np.ndarray) -> None:
        gx = np.broadcast_to((g * 0.25)[:, :, :, None, :, None], (n, c, h2, 2, w2, 2))
        _accumulate(x, gx.reshape(n, c, h, w))

    return _result(out, [x], backward)


@functools.lru_cache(maxsize=64)
def _bilinear2x_matrix(size: int, dtype) -> np.ndarray:
    """(2*size, size) interpolation weights, align-corners-false, edges clamped.

    Cached per (size, dtype) and shared by every call, so it is read-only.
    """
    m = np.zeros((2 * size, size), dtype=dtype)
    for i in range(2 * size):
        src = (i + 0.5) / 2.0 - 0.5
        lo = math.floor(src)
        t = src - lo
        a = min(max(lo, 0), size - 1)
        b = min(max(lo + 1, 0), size - 1)
        m[i, a] += 1.0 - t
        m[i, b] += t
    m.flags.writeable = False
    return m


def upsample2x(x: Tensor) -> Tensor:
    """Double the spatial extent by bilinear interpolation.

    Separable: out = rows @ plane @ cols.T per plane, with the row and
    column operators taken from the read-only cache of _bilinear2x_matrix.
    """
    n, c, h, w = x.shape
    rows = _bilinear2x_matrix(h, x.data.dtype)
    cols = _bilinear2x_matrix(w, x.data.dtype)
    flat = x.data.reshape(n * c, h, w)
    out = (rows[None] @ flat @ cols.T[None]).reshape(n, c, 2 * h, 2 * w)

    def backward(g: np.ndarray) -> None:
        gf = g.reshape(n * c, 2 * h, 2 * w)
        gx = (rows.T[None] @ gf @ cols[None]).reshape(n, c, h, w)
        _accumulate(x, gx)

    return _result(out, [x], backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two feature maps along the channel axis."""
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(
            f"concat_channels needs matching batch/spatial axes, got {a.shape} vs {b.shape}")
    _check_same_dtype(a, b)
    out = np.concatenate([a.data, b.data], axis=1)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g[:, :ca])
        _accumulate(b, g[:, ca:])

    return _result(out, [a, b], backward)


# ---------------------------------------------------------------------------
# elementwise and reductions


def mul(x: Tensor, w: Tensor) -> Tensor:
    """Elementwise multiply with numpy broadcasting; gradients are
    reduced back over the broadcast axes."""
    _check_same_dtype(x, w)
    try:
        out = x.data * w.data
    except ValueError as e:
        raise ShapeError(f"non-broadcastable shapes {x.shape} and {w.shape}: {e}") from None

    def backward(g: np.ndarray) -> None:
        _accumulate(x, _unbroadcast(g * w.data, x.shape))
        _accumulate(w, _unbroadcast(g * x.data, w.shape))

    return _result(out, [x, w], backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    try:
        out = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"non-broadcastable shapes {a.shape} and {b.shape}: {e}") from None

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _result(out, [a, b], backward)


def affine(x: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    """scale * x + shift with python-float constants."""
    out = x.data * scale + shift

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * scale)

    return _result(out, [x], backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0))

    return _result(out, [x], backward)


def sigmoid(x: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    out = np.where(x.data >= 0,
                   1.0 / (1.0 + np.exp(-np.abs(x.data))),
                   np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))
    out = out.astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (out * (1.0 - out)))

    return _result(out, [x], backward)


def softmax_channels(x: Tensor) -> Tensor:
    """Softmax over the channel axis, per pixel."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * out).sum(axis=1, keepdims=True)
        _accumulate(x, out * (g - dot))

    return _result(out, [x], backward)


def log(x: Tensor) -> Tensor:
    out = np.log(x.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g / x.data)

    return _result(out, [x], backward)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    out = np.maximum(x.data, floor)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data >= floor))

    return _result(out, [x], backward)


def power(x: Tensor, exponent: float) -> Tensor:
    """x ** exponent for a non-negative base and constant exponent."""
    out = np.power(x.data, exponent)

    def backward(g: np.ndarray) -> None:
        if exponent == 0.0:
            return
        if exponent == 1.0:
            _accumulate(x, g)
            return
        local = np.where(x.data > 0, exponent * np.power(x.data, exponent - 1.0), 0.0)
        _accumulate(x, g * local.astype(g.dtype, copy=False))

    return _result(out, [x], backward)


def mean_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean(), dtype=x.data.dtype)
    inv = 1.0 / x.data.size

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.data, g * inv))

    return _result(out, [x], backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.data, g))

    return _result(out, [x], backward)


# ---------------------------------------------------------------------------
# global and per-pixel pooling


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)
    inv = 1.0 / (h * w)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g * inv, x.shape).copy())

    return _result(out, [x], backward)


def global_max_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)
    out = np.take_along_axis(flat, idx[..., None], axis=2).reshape(n, c, 1, 1)

    def backward(g: np.ndarray) -> None:
        gf = np.zeros((n, c, h * w), dtype=g.dtype)
        np.put_along_axis(gf, idx[..., None], g.reshape(n, c, 1), axis=2)
        _accumulate(x, gf.reshape(n, c, h, w))

    return _result(out, [x], backward)


def channel_avg_pool(x: Tensor) -> Tensor:
    c = x.shape[1]
    out = x.data.mean(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g / c, x.shape).copy())

    return _result(out, [x], backward)


def channel_max_pool(x: Tensor) -> Tensor:
    idx = x.data.argmax(axis=1)
    out = np.take_along_axis(x.data, idx[:, None], axis=1)

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[:, None], g, axis=1)
        _accumulate(x, gx)

    return _result(out, [x], backward)


def dense(x: Tensor, weight: Tensor) -> Tensor:
    """Linear map on N-C-1-1 pooled features: (Cout, Cin) weights per batch element."""
    n, c, h, w = x.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"dense expects N-C-1-1 input, got {x.shape}")
    cout, cin = weight.shape
    if cin != c:
        raise ShapeError(f"dense channel mismatch on axis 1: input has {c}, weight expects {cin}")
    _check_same_dtype(x, weight)
    x2 = x.data.reshape(n, c)
    out = (x2 @ weight.data.T).reshape(n, cout, 1, 1)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(n, cout)
        if weight.requires_grad:
            _accumulate(weight, g2.T @ x2)
        if x.requires_grad:
            _accumulate(x, (g2 @ weight.data).reshape(n, c, 1, 1))

    return _result(out, [x, weight], backward)


def take_channel(p: Tensor, classes: np.ndarray) -> Tensor:
    """Gather p[n, classes[n,h,w], h, w] into an N-1-H-W map."""
    n, k, h, w = p.shape
    if classes.shape != (n, h, w):
        raise ShapeError(f"class map must have shape {(n, h, w)}, got {classes.shape}")
    ni = np.arange(n)[:, None, None]
    hi = np.arange(h)[None, :, None]
    wi = np.arange(w)[None, None, :]
    out = p.data[ni, classes, hi, wi][:, None]

    def backward(g: np.ndarray) -> None:
        gp = np.zeros_like(p.data)
        np.add.at(gp, (ni, classes, hi, wi), g[:, 0])
        _accumulate(p, gp)

    return _result(out, [p], backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)
    tol: float = 1e-5

    @property
    def worst(self) -> Optional[GradCheckEntry]:
        return max(self.entries, key=lambda e: e.max_rel_err) if self.entries else None

    @property
    def passed(self) -> bool:
        return all(e.max_rel_err < self.tol for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            verdict = "PASS" if e.max_rel_err < self.tol else "FAIL"
            lines.append(f"{verdict}  {e.name:40s} rel_err={e.max_rel_err:.3e} ({e.checked} elems)")
        w = self.worst
        tail = f"worst: {w.name} rel_err={w.max_rel_err:.3e}" if w else "no parameters"
        lines.append(("PASS " if self.passed else "FAIL ") + f"(tol={self.tol:g})  " + tail)
        return "\n".join(lines)


def grad_check(build: Callable[[], Tensor], params: dict[str, Tensor],
               tol: float = 1e-5, h: float = 1e-4,
               max_elements: Optional[int] = None, seed: int = 0) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    ``build`` must rebuild the scalar loss from the current ``params``
    data each call. Relative error per element is
    |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8). With ``max_elements`` set,
    a seeded subset of coordinates per parameter is probed instead of all
    of them (needed to keep whole-model checks inside the time budget).
    """
    report = GradCheckReport(tol=tol)
    loss = build()
    if loss.data.size != 1 or not np.isfinite(loss.data).all():
        report.entries.append(GradCheckEntry("<loss>", float("inf"), 0))
        return report
    zero_grads(params.values())
    loss.backward()
    ad = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
          for name, p in params.items()}
    zero_grads(params.values())

    rng = np.random.default_rng(seed)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_elements is not None and n > max_elements:
            picks = rng.choice(n, size=max_elements, replace=False)
        else:
            picks = np.arange(n)
        worst = 0.0
        g_ad_flat = ad[name].reshape(-1)
        for i in picks:
            saved = flat[i]
            flat[i] = saved + h
            up = float(build().data)
            flat[i] = saved - h
            down = float(build().data)
            flat[i] = saved
            if not (math.isfinite(up) and math.isfinite(down)):
                worst = float("inf")
                break
            g_fd = (up - down) / (2.0 * h)
            g = float(g_ad_flat[i])
            rel = abs(g - g_fd) / max(abs(g), abs(g_fd), 1e-8)
            worst = max(worst, rel)
        report.entries.append(GradCheckEntry(name, worst, len(picks)))
    return report
