"""Dense tensors with reverse-mode automatic differentiation.

Feature maps follow the N-C-H-W row-major layout. Parameters may be any
rank (dense weights are 2-D, biases 1-D) and losses are rank-0 scalars.
Two precision modes exist: float32 (``TRAIN32``) for training and float64
(``CHECK64``) for gradient checking; a graph must use a single mode
throughout, which binary ops enforce.

The computation graph is implicit: every op result keeps references to
its parents together with a closure that scatters the incoming gradient
to them. ``backward`` on a scalar loss runs one reverse topological pass
and frees each op result as soon as its closure has run: afterwards only
leaves hold ``.grad``, and a freed graph cannot be walked again.

One hand-over rule holds for every closure: each parent gets a writable
array that the closure made for that parent alone, which ``_accumulate``
stores as it is. An op that would pass on the gradient it received (add),
or hand two parents slices of one array (concat_channels, conv2d with
``cat``), hands over copies instead.

An op's result may be a view of a larger buffer (conv2d returns the first
W columns of its wider tap-sum rows), so no op may assume that ``.data``
is contiguous. numpy's ufuncs and reductions take any strides, and
reshape copies where it must.
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


class NumericalError(RuntimeError):
    """Raised when a loss or a training step meets non-finite values."""


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
        if arr.dtype.kind != "f":
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

        Each op result is freed once its backward has run: its ``grad``,
        closure and parents are dropped, so the activations it captured go
        as the pass moves on. Only leaves keep ``.grad``. A freed graph
        cannot be walked again: a second call on the same loss, or a new
        loss built on a freed result, raises GraphError. Leaves that
        already hold a gradient are rejected too (call :func:`zero_grads`
        between steps); silent accumulation across steps is a classic
        correctness trap. A non-finite loss raises NumericalError.
        """
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise NumericalError(f"backward on a non-finite loss {float(self.data)}")
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
            if node._done:
                raise GraphError(
                    f"result {node.name or node.shape} was freed by an earlier backward; "
                    "rebuild the graph from the leaves")
            if node.requires_grad and node._backward is None and node.grad is not None:
                raise GraphError(
                    f"leaf {node.name or node.shape} already holds a gradient; call zero_grads first"
                )
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        while order:            # popping drops each node from the list as the pass leaves it
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._prev = ()
            node._done = True


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad; g must have t's shape, never broadcast.

    g is a writable array the caller made for t alone: no other node
    receives it and the caller keeps no use for it. The first gradient is
    stored as it is and later ones are added into it in place.
    """
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {t.data.shape}")
    if t.grad is None:
        t.grad = g
    else:
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


def _zero_pad(arrays: Sequence[np.ndarray], p: int) -> np.ndarray:
    """The N-C-H-W ``arrays``, stacked in order along C, zero-padded by p rows
    above, p + 1 below and p columns on each side: conv2d's layout, whose
    spare bottom row takes the last tap's overrun.

    One allocation and one slice copy per array: np.pad spends tens of
    microseconds in Python set-up per call, more than the copy itself at
    these sizes.
    """
    n, _, h, w = arrays[0].shape
    c = sum([a.shape[1] for a in arrays])
    out = np.zeros((n, c, h + 2 * p + 1, w + 2 * p), dtype=arrays[0].dtype)
    lo = 0
    for a in arrays:
        hi = lo + a.shape[1]
        out[:, lo:hi, p:p + h, p:p + w] = a
        lo = hi
    return out


# bytes of one sample group's output, temporary and operand in _tap_sum: half of a 2 MiB L2
_TILE_BYTES = 1 << 20
# multiply-adds of one per-tap GEMM in _tap_sum, below the measured sgemm cliff (see conv2d)
_SMALL_GEMM = 1_000_000


def _column_tile(macs: int, span: int) -> int:
    """Width of the column tiles a span is split into, for GEMMs that do
    ``macs`` multiply-adds per column: at most _SMALL_GEMM per tile (see
    conv2d). ``span`` itself when the span is not split."""
    b = _SMALL_GEMM // macs // 1024 * 1024
    if not (2048 <= b < span and span % 16 == 0):
        return span
    per = -(-span // -(-span // b))   # span split evenly over ceil(span / b) tiles,
    return -(-per // 64) * 64         # widened to whole 64-column blocks: still <= b


def _tap_sum(mats, src: np.ndarray, offsets: Sequence[int], span: int) -> np.ndarray:
    """Sum over taps t of mats[t] @ src[..., s_t : s_t + span], in tap order.

    One GEMM per tap; the first product initialises the sum and each later
    one is added in place, so every output element is summed in the same
    order whichever caller asks. The taps run over groups of g samples at a
    time, g chosen so that a group's output, temporary and operand fit in
    _TILE_BYTES, and within a group over the span's _column_tile columns.
    """
    n, c = src.shape[:2]
    o = mats.shape[1]
    g = max(1, _TILE_BYTES // ((2 * o + c) * span * src.itemsize))
    b = _column_tile(o * c, span)
    out = np.empty((n, o, span), dtype=src.dtype)
    tmp = np.empty((min(g, n), o, b), dtype=src.dtype)
    for i in range(0, n, g):
        for j in range(0, span, b):
            acc = out[i:i + g, :, j:j + b]
            w = acc.shape[2]
            part = tmp[:len(acc), :, :w]
            cols = src[i:i + g, :, j:]
            np.matmul(mats[0], cols[:, :, offsets[0]:offsets[0] + w], out=acc)
            for m, s in zip(mats[1:], offsets[1:]):
                acc += np.matmul(m, cols[:, :, s:s + w], out=part)
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, *, relu: bool = False,
           cat: Optional[Tensor] = None) -> Tensor:
    """Same-padded 2-D cross-correlation over N-C-H-W input with an O-C-k-k kernel.

    Layout: x is zero-padded by (p, p+1) rows and (p, p) columns (p = k // 2,
    Wp = W+2p) and flattened per channel to xf of shape (N, C, (H+2p+1)*Wp).
    Tap t = (u, v), taken in row-major order t = 0..k*k-1, then reads
    xf[..., s_t : s_t+span] with s_t = u*Wp + v and span = H*Wp, a
    unit-stride matrix BLAS takes without a copy. Output rows come out Wp
    wide; the last 2p columns straddle two input rows, and the spare bottom
    row takes the last tap's overrun. The bias is added into that wide
    buffer in place, and the result is the view of its first W columns, not
    a copy: the 2p junk columns stay in memory behind it (66/64 of the
    output at 64x64, 10/8 at 8x8). Each value is the tap sum plus the bias,
    one rounding as in a cropped copy, so the bits are the same. For k = 1,
    Wp = W and the view is contiguous.

    ``cat``, when given, is a second N-C'-H-W input stacked after x along C:
    the result and every gradient are those of conv2d(concat_channels(x,
    cat), ...), byte for byte, but no concatenated copy is kept. In one
    unet-full step at 256x256, batch 1, focal loss, tracemalloc counted
    99.7 MiB of arrays alive at the loss, 23.8 MiB of them concat_channels
    outputs; with ``cat`` 73.9 MiB. One GEMM per input instead would
    reorder sums: splitting the rows of a float32 weight-gradient GEMM
    between two inputs moved bits in 77 of 200 random shapes, by up to
    1.4e-6 of the largest value. Backward hands x and cat contiguous copies
    of their channel slices of the input gradient, as concat_channels does,
    and only to inputs that require grad. Strided views instead moved 4 of
    the 322 parameter gradients of the eight variants at 256x256 (unet-full's
    skip.l0.reduce.b by 9.6e-8 of its largest value): a later sum over a
    strided view adds in another order.

    The GEMM operand xf (x and cat in one buffer, zero-padded when k > 1) is
    transient for every k: forward makes it, runs the tap sums and drops
    it; backward makes it again only when the weight needs a gradient. A
    kept xf copies what the graph already holds: in that step today, the
    3x3 convs' kept copies took the arrays alive at the loss from 48.8 to
    72.8 MiB and the traced peak from 56.1 to 76.1 MiB. Memory-efficient
    DenseNets rebuild their concatenations in backward the same way (Pleiss
    et al., arXiv 1707.06990; recomputation for memory: Chen et al., arXiv
    1604.06174). The bits hold: no op changes an input while it is in a
    graph, so the rebuilt operand has the padded bytes a kept one had.

    relu=True applies np.maximum(., 0) in place on that biased wide buffer,
    one contiguous pass over the values relu(conv2d(...)) reads, so the
    output bits are relu's. One activation is kept instead of two, because
    a ReLU's backward needs only the sign of its output (In-Place ABN
    recovers its backward from outputs the same way, Rota Bulo et al.,
    arXiv 1712.02616). Backward first masks g in place with out > 0, relu's
    own product taken on the output: out > 0 holds exactly where the
    pre-activation is > 0 (NaN is false in both), so the masked g, signed
    zeros included, has the bits relu hands to conv.

    Forward is _tap_sum of W_t @ slice_t, except when C = 1: then the k*k
    slices are first copied into one transient (N, k*k, span) operand, so
    forward is a single GEMM with inner dimension k*k instead of k*k GEMMs
    with inner dimension 1. Stacking is kept to C = 1 because at C = 8 it
    was slower than the per-tap GEMMs. C = 2 and 4 are ROADMAP item 8's
    open lead: stacked there, taps pass the checks in tests/_gradcheck.py.

    _tap_sum blocks its loop over samples (Goto & van de Geijn's loop
    blocking, at the level of whole samples): it runs all taps over a group
    of max(1, _TILE_BYTES // ((2*O + C) * span * itemsize)) samples before
    it moves on, the divisor being one sample's output, temporary and
    operand bytes. At batch 8 the whole-batch arrays outgrow a 2 MiB L2 and
    each tap streams them from memory again; a group stays in cache. When
    a group holds the whole batch the loop runs once. The bits do not
    depend on the group size: numpy's batched matmul issues one GEMM per
    sample with the same shapes either way, and the adds are elementwise
    in the same tap order.

    Within a group, _tap_sum also splits the span into column tiles, so
    that each per-tap GEMM stays within _SMALL_GEMM multiply-adds. Above
    about 1e6, single-thread OpenBLAS 0.3.31 on a 2-vCPU AVX-512 Xeon VM
    halves its sgemm rate: (8x8)@(8xN) ran at 80 GFLOP/s at N = 15625 and
    38 at N = 15700, and (8x24)@(24xN) at 75 at N = 4096 and 44 at
    N = 8192. The tile width is b = _SMALL_GEMM // (O*C), rounded down to
    a multiple of 1024, and the span is split only when 2048 <= b < span:
    into ceil(span / b) tiles of equal width, widened to whole 64-column
    blocks (still at most b). No desk conv splits (at most 884k
    multiply-adds per sample); at 128x128 and 256x256 the 8- and
    16-channel convs and the head 1x1 do. Above O*C of about 488 the
    2048-column floor stops the split: there 2048-column tiles of a
    256x256 tap sum came within 5% of the unsplit one at (O, C) = (48,16),
    (32,32) and (96,32), a gain too small to show. At (8,24) the rule's
    3904-column tiles take that tap sum from 9.4 to 3.9 ms. A byte budget
    alone would not do: 1 MiB picks 6553 columns there, 1.26e6
    multiply-adds, past the bound, and 6016-column tiles took 7.7 ms.

    The tap sums' bits hold because no GEMM changes its K, operands or flags, so
    each output element is the same chain of products and adds in the
    same order. Tile edges must still fall where the unsplit GEMM has
    whole vectors: OpenBLAS computes the columns past a GEMM's last whole
    vector with other code, and in float64 a tile edge off a multiple of
    8 columns moved bits (so did a 1-column float32 tile, which numpy
    hands to gemv). Hence the 64-column blocks, and the split only for
    spans that are multiples of 16, as every span is at 128x128 and
    256x256.

    Backward zero-pads g the way forward pads x and flattens it to gp, so
    one copy of g serves both gradients. The weight gradient of tap t is
    xf-slice_t @ gp[..., m : m+span].T with m = p*Wp + p (the unpadded g,
    Wp wide), shape (N, C, O), summed over N and transposed (BLAS runs this
    orientation up to twice as fast as the other one here). It runs over
    the same column tiles as the tap sums (_column_tile(O*C, span)): for
    the tile of w columns at j, all k*k taps xf[..., s_t+j : s_t+j+w] @
    gp[..., m+j : m+j+w].T, so the (C, w) input tile and the (w, O) gradient
    tile stay in cache across the taps. The first tile assigns dw[t] and
    each later one adds into it. Untiled, each tap's GEMM streamed the whole
    (C, span) slice and (span, O) gradient from memory again: at (C, O) =
    (8, 8) on 256x256 the nine taps ran at about 13 GFLOP/s. Medians of the
    nine-tap loop at batch 1 on the VM above, untiled -> tiled:
    4.7-4.8 -> 1.4 ms at C=8, O=8, 256x256; 7.3-7.9 -> 3.9-4.1 ms at 24, 8,
    256x256; 2.0 -> 0.7 ms at 8, 16, 128x128; 2.3-2.9 -> 1.3-1.5 ms at 16,
    16, 128x128. The rule's width was the fastest tried: half its
    multiply-add budget took 1.5-1.6 ms and fixed 4096-column tiles 1.7-1.8
    ms at 8, 8, 256x256, and a contiguous copy of each tile's g slice 2.5-2.8.
    An unsplit span runs the same GEMMs as before, so every conv at 64x64
    and below keeps its bits. A split one sums each tile's products and
    then adds the tiles, a reordered K, so only the weight gradients of
    split convs move, within rounding: the tests bound them by
    sqrt(N*H*W) * eps * sum|x*g| from the exact sum (a probabilistic
    rounding bound, Higham & Mary 2019). Over the 8 variants the largest
    move was 4.7e-7 of the tensor's largest value at 128x128 and 1.2e-6 at
    256x256 in float32, and 1.8e-15 at 128x128 in float64. The input
    gradient is forward's tap loop run on gp: _tap_sum of W_t.T @
    gp[..., s_max - s_t : s_max - s_t + span] over the same tap order
    (s_max = s of the last tap), cropped to W columns. It is never stacked,
    because a stacked GEMM sums in another order. k = 1 needs no padding,
    and its input gradient is one matmul.
    """
    ins = (x,) if cat is None else (x, cat)
    for t in ins:
        if t.data.ndim != 4:
            raise ShapeError(f"conv2d input must be rank 4, got {t.data.ndim}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be rank 4, got {weight.data.ndim}")
    n, cin, h, w = x.shape
    if cat is not None:
        if (cat.shape[0],) + cat.shape[2:] != (n, h, w):
            raise ShapeError(
                f"conv2d needs matching batch/spatial axes for cat, got {x.shape} vs {cat.shape}")
        cin += cat.shape[1]
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
    _check_same_dtype(*ins, weight, bias)

    p = k // 2
    wp = w + 2 * p
    span = h * wp
    offsets = [u * wp + v for u in range(k) for v in range(k)]

    def operand() -> np.ndarray:
        """x, then cat, along C as one (N, C, rows * Wp) array, zero-padded when k > 1."""
        if p:
            return _zero_pad([t.data for t in ins], p).reshape(n, cin, -1)
        if cat is None:
            return x.data.reshape(n, cin, -1)
        return np.concatenate([x.data, cat.data], axis=1).reshape(n, cin, -1)

    def tap_weights() -> np.ndarray:
        """W_t for t = 0..k*k-1 as one (k*k, O, C) array, made when needed, never kept."""
        return np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(k * k, cout, cin)

    src = operand()   # transient: made again in backward for dW
    if cin == 1:
        cols = np.empty((n, k * k, span), dtype=src.dtype)
        for t, s in enumerate(offsets):
            cols[:, t] = src[:, 0, s:s + span]
        wide = np.matmul(weight.data.reshape(cout, k * k), cols)
    else:
        wide = _tap_sum(tap_weights(), src, offsets, span)
    wide += bias.data[:, None]
    if relu:
        np.maximum(wide, 0, out=wide)
    out = wide.reshape(n, cout, h, wp)[..., :w]

    def backward(g: np.ndarray) -> None:
        if relu:
            g *= out > 0      # g is this closure's own array (see _accumulate)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        gp = (_zero_pad((g,), p) if p else g).reshape(n, cout, -1)
        if weight.requires_grad:
            src = operand()
            mid = p * wp + p
            b = _column_tile(cout * cin, span)
            dw = np.empty((k * k, cin, cout), dtype=g.dtype)
            part = np.empty((n, cin, cout), dtype=g.dtype)
            for j in range(0, span, b):
                w_j = min(b, span - j)
                gwt = gp[:, :, mid + j:mid + j + w_j].transpose(0, 2, 1)
                for t, s in enumerate(offsets):
                    np.matmul(src[:, :, s + j:s + j + w_j], gwt, out=part)
                    if j:
                        dw[t] += part.sum(axis=0)
                    else:
                        part.sum(axis=0, out=dw[t])
            del src   # the transient goes before gx is made
            _accumulate(weight, dw.reshape(k, k, cin, cout).transpose(3, 2, 0, 1))
        if any(t.requires_grad for t in ins):
            back = [offsets[-1] - s for s in offsets]   # s_max - s_t
            gx = _tap_sum(tap_weights().transpose(0, 2, 1), gp, back, span)
            gx = gx.reshape(n, cin, h, wp)[..., :w]
            if cat is None:
                _accumulate(x, gx)
            else:   # contiguous copies, as concat_channels hands out (see above)
                ca = x.shape[1]
                for inp, piece in ((x, gx[:, :ca]), (cat, gx[:, ca:])):
                    if inp.requires_grad:
                        _accumulate(inp, piece.copy())

    return _result(out, [*ins, weight, bias], backward)


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
        # copied: on a 2x2 plane the reshape below would be a read-only broadcast view
        gx = np.broadcast_to((g * 0.25)[:, :, :, None, :, None], (n, c, h2, 2, w2, 2)).copy()
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


# output rows or columns per banded GEMM in upsample2x's forward and backward,
# picked by timing (see upsample2x)
_UP_TILE = 32
_UP_TILE_BACK = 16


def _band_pass(op: np.ndarray, planes: np.ndarray, out: np.ndarray) -> None:
    """out = op @ planes per plane (row pass, when planes and out are 3-D:
    (P, K, N) and (P, M, N)) or planes @ op (column pass, when they are 2-D:
    (M, K) and (M, N)), one matmul per tile of out's rows or columns, each
    over only the band of K that the tile's part of op can hold nonzero.

    op is a _bilinear2x_matrix, giving out twice K's extent (up), or its
    transpose (backward). Up, out indices [t0, t1) read [t0//2 - 1,
    (t1-1)//2 + 2) of K; in backward they read [2*t0 - 1, 2*t1 + 1). Both
    ranges are clamped to K.
    """
    row_pass = planes.ndim == 3
    size, inner = op.shape if row_pass else op.shape[::-1]
    up = size > inner
    tile = _UP_TILE if up else _UP_TILE_BACK
    for t0 in range(0, size, tile):
        t1 = min(t0 + tile, size)
        lo, hi = (t0 // 2 - 1, (t1 - 1) // 2 + 2) if up else (2 * t0 - 1, 2 * t1 + 1)
        lo, hi = max(lo, 0), min(hi, inner)
        if row_pass:
            np.matmul(op[t0:t1, lo:hi], planes[:, lo:hi], out=out[:, t0:t1])
        else:
            np.matmul(planes[:, lo:hi], op[lo:hi, t0:t1], out=out[:, t0:t1])


def upsample2x(x: Tensor) -> Tensor:
    """Double the spatial extent by bilinear interpolation.

    Separable: out = (rows @ plane) @ cols.T per plane, and the input
    gradient is (rows.T @ g) @ cols, rows first in both, with the (2h, h)
    and (2w, w) operators taken from the read-only cache of
    _bilinear2x_matrix.

    An operator row has two nonzeros, so dense products would mostly
    multiply by zero (98% at 128 -> 256). Each of the four products runs
    as a _band_pass instead: one matmul per tile of _UP_TILE output rows or
    columns forward (_UP_TILE_BACK backward), over only the band of K that
    the tile's operator rows can touch. The row pass issues one GEMM per
    plane and tile. The column pass stacks the planes into one (n*c*rows, K)
    matrix, a free reshape of the contiguous intermediate, so each column
    tile is one tall GEMM rather than n*c small ones (at (1, 16, 128, 128)
    the forward column pass took 0.55 ms against 1.28). At
    (1, 16, 128, 128) forward takes about 1.1 ms against 6.0 for the dense
    products and backward 0.9 against 7.0 (float32, one-thread OpenBLAS,
    2-vCPU AVX-512 Xeon VM). Of tiles 8, 16, 32 and 64, forward 32 was the fastest and backward
    16 within 5% of the fastest at (1, 16, 128, 128), (1, 8, 128, 128),
    (1, 32, 64, 64) and (4, 16, 32, 32).

    Each term a band drops is a zero weight times a finite value, which
    adds nothing to BLAS's FMA chain, and the kept terms run in the same
    k order; stacking planes changes M, not any element's chain. So at
    every side that is a power of two or a multiple of 16 up to 160, which
    covers every side the models upsample, output and gradient are
    bit-identical to the dense products. At other sides OpenBLAS may block
    or vectorise the shorter K another way and bits move (float32 from
    side 17 on, float64 at most sides off a multiple of 8): by at most
    0.9 eps * max|x| forward and 1.9 eps * max|g| backward, measured over
    square sides 1 to 160, 6x10 and 144x288.

    Non-finite values stay local. Dense products would spread 0 * NaN from
    one NaN pixel of a 64x64 plane to all 16384 outputs; a band reaches
    only its own tiles, 32x32 = 1024 outputs when the pixel lies in one
    row band and one column band, and four times that where bands overlap.
    """
    n, c, h, w = x.shape
    dtype = x.data.dtype
    rows = _bilinear2x_matrix(h, dtype)
    cols = _bilinear2x_matrix(w, dtype)
    half = np.empty((n * c, 2 * h, w), dtype=dtype)
    _band_pass(rows, x.data.reshape(n * c, h, w), half)
    out = np.empty((n, c, 2 * h, 2 * w), dtype=dtype)
    _band_pass(cols.T, half.reshape(-1, w), out.reshape(-1, 2 * w))

    def backward(g: np.ndarray) -> None:
        half = np.empty((n * c, h, 2 * w), dtype=dtype)
        _band_pass(rows.T, g.reshape(n * c, 2 * h, 2 * w), half)
        gx = np.empty((n, c, h, w), dtype=dtype)
        _band_pass(cols, half.reshape(-1, 2 * w), gx.reshape(-1, w))
        _accumulate(x, gx)

    return _result(out, [x], backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two feature maps along the channel axis.

    No model calls it: conv2d's ``cat`` input does the same join without
    keeping the copy, and its tests compare against this op's graph.
    """
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(
            f"concat_channels needs matching batch/spatial axes, got {a.shape} vs {b.shape}")
    _check_same_dtype(a, b)
    out = np.concatenate([a.data, b.data], axis=1)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g[:, :ca].copy())
        _accumulate(b, g[:, ca:].copy())

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
    """Elementwise sum of two tensors of one shape; nothing broadcasts."""
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    out = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.copy())
        _accumulate(b, g.copy())

    return _result(out, [a, b], backward)


def affine(x: Tensor, scale: float, shift: float) -> Tensor:
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
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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
    """x ** exponent for a non-negative base and a constant exponent >= 1,
    where the derivative exponent * x ** (exponent - 1) is finite at 0."""
    out = np.power(x.data, exponent)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (exponent * np.power(x.data, exponent - 1.0)))

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
    out = x.data.max(axis=(2, 3), keepdims=True)   # backward alone needs the argmax

    def backward(g: np.ndarray) -> None:
        idx = x.data.reshape(n, c, h * w).argmax(axis=2)
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
    out = x.data.max(axis=1, keepdims=True)   # backward alone needs the argmax

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, x.data.argmax(axis=1)[:, None], g, axis=1)
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

H = 1e-5          # grad_check's one central-difference step
RTOL = 1e-6       # its bound's term relative to the gradient
ROUNDOFF = 4.0    # its bound's multiple of the roundoff in f(x + H) - f(x - H)


@dataclass
class GradCheckEntry:
    name: str
    err_over_bound: float   # worst |g_ad - g_fd| / bound over the probed elements (see grad_check)
    checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def worst(self) -> Optional[GradCheckEntry]:
        return max(self.entries, key=lambda e: e.err_over_bound) if self.entries else None

    @property
    def passed(self) -> bool:
        return all(e.err_over_bound < 1.0 for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            verdict = "PASS" if e.err_over_bound < 1.0 else "FAIL"
            lines.append(f"{verdict}  {e.name:40s} err/bound={e.err_over_bound:.3e} ({e.checked} elems)")
        w = self.worst
        tail = f"worst: {w.name} err/bound={w.err_over_bound:.3e}" if w else "no parameters"
        lines.append(("PASS  " if self.passed else "FAIL  ") + tail)
        return "\n".join(lines)


def grad_check(build: Callable[[], Tensor], params: dict[str, Tensor],
               max_elements: Optional[int] = None) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    ``build`` must rebuild the scalar loss from the current ``params`` data
    each call. A probe gives g_fd = (f+ - f-) / 2H, f+- = f(x +- H), and
    bound = RTOL * max(|g_ad|, |g_fd|) + ROUNDOFF * eps * max(|f+|, |f-|) / H,
    eps the loss dtype's: f+- each carry roundoff of about eps * |f|, which
    no tolerance relative to g alone bounds when |g| << |f|. An entry holds
    the worst |g_ad - g_fd| / bound; a check passes when every entry is
    below 1. With ``max_elements`` set, a seeded subset of coordinates per
    parameter is probed (keeps whole-model checks inside the time budget).
    On the float64 cases of tests/_gradcheck.py the worst err/bound reads
    0.14 (primitives and losses), 0.11 (cbam), 0.091 (skip) and 0.12
    (model), at most 0.11 with conv2d's taps summed in reverse, and about
    100 in each with a conv or dense weight gradient 1.0001x off. H = 1e-4
    crosses a ReLU kink in the skip cases (4e5); at 1e-6 the model case
    reads 0.48.
    """
    report = GradCheckReport()
    loss = build()
    if loss.data.size != 1 or not np.isfinite(loss.data).all():
        report.entries.append(GradCheckEntry("<loss>", float("inf"), 0))
        return report
    eps = float(np.finfo(loss.data.dtype).eps)
    zero_grads(params.values())
    loss.backward()
    ad = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
          for name, p in params.items()}
    zero_grads(params.values())

    rng = np.random.default_rng(0)
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
            flat[i] = saved + H
            up = float(build().data)
            flat[i] = saved - H
            down = float(build().data)
            flat[i] = saved
            g = float(g_ad_flat[i])
            if not (math.isfinite(up) and math.isfinite(down) and math.isfinite(g)):
                worst = float("inf")
                break
            g_fd = (up - down) / (2.0 * H)
            err = abs(g - g_fd)
            bound = RTOL * max(abs(g), abs(g_fd)) + ROUNDOFF * eps * max(abs(up), abs(down)) / H
            worst = max(worst, err / bound if err else 0.0)
        report.entries.append(GradCheckEntry(name, worst, len(picks)))
    return report
