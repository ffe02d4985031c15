"""Span tracing for the benchmark's traced run.

The tracer wraps drawseg's layer entry points in place, on the module or
class that each call site looks the name up on, and restores the original
objects afterwards, so an untraced round runs unmodified code. Every
wrapped call records a span (name, start, end, parent, operation id);
spans stay in memory until the run ends. Per-layer metrics are derived
from the span list after the run by ``layer_metrics``.

Block attribution (enc/skip/dec/head) for a tensor op made inside
``SegModel.forward``: ops inside a skip block or CBAM span count as skip;
ops with a named parameter operand take the block of its name prefix;
other ops take the block of the op that produced their first operand.
An op's backward closure is timed by wrapping the closure on the tensor
the op returns, and counts for the block whose forward made that tensor.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

REPORTED_OPS = ("conv2d", "upsample2x", "max_pool2d", "avg_pool2d", "concat_channels",
                "relu", "mul", "sigmoid", "softmax_channels", "take_channel")
OTHER_OPS = ("add", "affine", "log", "clamp_min", "power", "mean_all", "sum_all",
             "global_avg_pool", "global_max_pool", "channel_avg_pool", "channel_max_pool",
             "dense")
BLOCKS = ("enc", "skip", "dec", "head")

# span names whose ops belong to the skip block
_SKIP_SPANS = ("skipfuse.forward", "cbam.forward")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1      # index of the enclosing span, -1 at top level
    op: int = 0           # operation id: one train step, eval batch or predict image
    round: int = -1       # measured round, -1 during set-up
    block: str = ""       # model block of a forward tensor op
    src: int = -1         # backward span: index of the forward span that made the tensor
    info: Optional[dict] = None


def block_of_param(name: str) -> str:
    """Model block of a parameter from its registered name."""
    head, _, rest = name.partition(".")
    if head == "cnn":   # the cnn stack is the encoder; its ave/cbam attachments play skip
        return "enc" if rest.startswith("b") else "skip"
    return head if head in BLOCKS else ""


def _conv_flops(x, weight, out) -> float:
    n, cout, ho, wo = out.shape
    _, cin, k, _ = weight.shape
    return 2.0 * n * cout * ho * wo * cin * k * k


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.round = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._tensor_type = None
        self._producer: dict[int, tuple[str, object]] = {}
        self._forward_done = False
        self._model = None
        self._epoch = -1
        self._epoch_state_set = False

    # -- spans ----------------------------------------------------------

    def begin(self, name: str, **fields) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op,
                               round=self.round, **fields))
        self._stack.append(i)
        self._open[name] += 1
        return i

    def end(self, i: int) -> None:
        span = self.spans[i]
        span.end = time.perf_counter()
        if not self._stack or self._stack[-1] != i:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._stack.pop()
        self._open[span.name] -= 1

    @contextmanager
    def span(self, name: str, **fields):
        i = self.begin(name, **fields)
        try:
            yield self.spans[i]
        finally:
            self.end(i)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point; ``restore`` undoes it."""
        self.missing = []
        import drawseg.data as D
        import drawseg.metrics as MT
        import drawseg.models as M
        import drawseg.netpbm as NP
        import drawseg.optim as O
        import drawseg.skipfuse as SF
        import drawseg.tensor as T
        import drawseg.training as TR

        self._tensor_type = T.Tensor
        for op in REPORTED_OPS + OTHER_OPS:
            self._patch(T, op, functools.partial(self._wrap_op, op))
        self._patch(T.Tensor, "backward", self._layer("tensor.backward"))
        self._patch(M.SegModel, "forward", self._wrap_forward)
        self._patch(M.SegModel, "set_frozen", self._wrap_set_frozen)
        for module in (M, TR):
            self._patch(module, "save_checkpoint", self._layer("models.save_checkpoint"))
            self._patch(module, "load_checkpoint", self._layer("models.load_checkpoint"))
        self._patch(M, "skip_forward", self._layer("skipfuse.forward"))
        self._patch(M, "cbam_forward", self._layer("cbam.forward"))
        self._patch(SF, "cbam_forward", self._layer("cbam.forward"))
        self._patch(SF, "dualpool_fuse", self._layer("skipfuse.dualpool"))
        self._patch(TR, "train", self._wrap_train)
        self._patch(TR, "evaluate", self._layer("training.evaluate"))
        self._patch(TR, "cosine_lr", self._wrap_epoch_start)
        self._patch(TR, "segmentation_loss", self._layer("losses.forward"))
        self._patch(TR, "augment", self._layer("data.augment"))
        self._patch(O.Adam, "step", self._wrap_optim_step)
        self._patch(D.DrawingDataset, "load", self._wrap_load)
        self._patch(D, "generate_dataset", self._layer("data.generate"))
        for module in (D, NP):
            self._patch(module, "read_pgm", self._layer("netpbm.read"))
            self._patch(module, "write_pgm", self._layer("netpbm.write"))
        self._patch(MT, "confusion", self._layer("metrics.confusion"))
        self._patch(MT, "compute_report", self._layer("metrics.report"))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._producer.clear()
        self._model = None

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- wrappers -------------------------------------------------------

    def _layer(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                i = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(i)
            return wrapper
        return make

    def _block(self, args) -> str:
        if not self._open["models.forward"]:
            return ""
        if any(self._open[n] for n in _SKIP_SPANS):
            return "skip"
        tensors = [a for a in args if isinstance(a, self._tensor_type)]
        for a in tensors:
            if a.name:
                return block_of_param(a.name)
        for a in tensors:
            hit = self._producer.get(id(a))
            if hit is not None and hit[1] is a:
                return hit[0]
        return ""

    def _wrap_op(self, op: str, fn):
        def wrapper(*args, **kwargs):
            i = self.begin(f"tensor.{op}.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(i)
            span = self.spans[i]
            span.block = self._block(args)
            if op == "conv2d":
                span.info = {"flops": _conv_flops(args[0], args[1], out)}
            if span.block:
                self._producer[id(out)] = (span.block, out)
            if out._backward is not None:
                out._backward = self._timed_backward(op, i, out._backward, args)
            return out
        return wrapper

    def _timed_backward(self, op: str, src: int, closure, args):
        def timed(g):
            i = self.begin(f"tensor.{op}.bwd", src=src)
            try:
                closure(g)
            finally:
                self.end(i)
            if op == "conv2d":
                x, weight = args[0], args[1]
                fwd = self.spans[src].info["flops"]
                self.spans[i].info = {"flops": fwd * (int(weight.requires_grad) + int(x.requires_grad)),
                                      "wgrad": bool(weight.requires_grad)}
        return timed

    def _wrap_forward(self, fn):
        def forward(model, x):
            self._model = model
            self._producer.clear()
            i = self.begin("models.forward")
            try:
                out = fn(model, x)
            finally:
                self.end(i)
                self._producer.clear()
            self.spans[i].info = {"images": int(x.shape[0]), "grad": bool(out.requires_grad)}
            self._forward_done = True
            return out
        return forward

    def _wrap_load(self, fn):
        def load(dataset, sid):
            if self._forward_done:   # the first load after a forward starts a new operation
                self.op += 1
                self._forward_done = False
            i = self.begin("data.load")
            try:
                return fn(dataset, sid)
            finally:
                self.end(i)
        return load

    def _wrap_optim_step(self, fn):
        def step(adam, params, lr):
            params = list(params)
            stepped = {id(p) for p in params}
            holding = ([p for p in self._model.parameters() if p.grad is not None]
                       if self._model is not None else [])
            unused = sum(1 for p in holding if id(p) not in stepped)
            i = self.begin("optim.step", info={"stepped": len(params), "holding": len(holding),
                                                "unused": unused})
            try:
                return fn(adam, params, lr)
            finally:
                self.end(i)
        return step

    def _close_epoch(self) -> None:
        if self._epoch >= 0:
            self.end(self._epoch)
            self._epoch = -1

    def _wrap_epoch_start(self, fn):
        def cosine_lr(*args, **kwargs):
            self._close_epoch()
            self._epoch = self.begin("training.epoch", info={"frozen": False})
            self._epoch_state_set = False
            return fn(*args, **kwargs)
        return cosine_lr

    def _wrap_set_frozen(self, fn):
        def set_frozen(model, frozen):
            if self._epoch >= 0:
                if self._epoch_state_set:   # the call after the epoch loop
                    self._close_epoch()
                else:
                    self.spans[self._epoch].info["frozen"] = bool(frozen)
                    self._epoch_state_set = True
            return fn(model, frozen)
        return set_frozen

    def _wrap_train(self, fn):
        def train(*args, **kwargs):
            i = self.begin("training.train")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_epoch()
                self.end(i)
        return train

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.op, s.round, s.block, s.src, s.info]
                for s in self.spans]


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of ``values`` (q in (0, 1), to two decimals); 0 for none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[Span], traced_rounds: list, untraced_rounds: list) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    Times and call counts are per measured round (``round >= 0``);
    checkpoint, netpbm, data.load/augment and data.generate times are per
    call and include set-up. ``traced_rounds``/``untraced_rounds`` hold the
    ``cpu`` and ``wall`` seconds of each round: span self times are compared
    with wall time, the tracing overhead is measured in CPU time.
    """
    rounds = max(len(traced_rounds), 1)
    dur = [s.end - s.start for s in spans]
    own = self_times(spans)
    n = len(spans)

    # context flags inherited from ancestors; parents precede children
    ctx = [0] * n
    flag = {"cbam.forward": 1, "skipfuse.forward": 2, "losses.forward": 4}
    epoch_of = [-1] * n
    for i, s in enumerate(spans):
        up = ctx[s.parent] if s.parent >= 0 else 0
        ctx[i] = up | flag.get(s.name, 0)
        epoch_of[i] = i if s.name == "training.epoch" else (
            epoch_of[s.parent] if s.parent >= 0 else -1)

    measured = [i for i in range(n) if spans[i].round >= 0]
    total = Counter()
    calls = Counter()
    for i in measured:
        total[spans[i].name] += dur[i]
        calls[spans[i].name] += 1

    out: dict[str, float] = {}
    per_round = lambda secs: secs * 1000.0 / rounds

    fwd = Counter()
    bwd = Counter()
    op_calls = Counter()
    block_fwd = Counter()
    block_bwd = Counter()
    ctx_bwd = Counter()
    conv = {"fwd_flops": 0.0, "fwd_s": 0.0, "bwd_flops": 0.0, "bwd_s": 0.0, "wgrad": 0}
    for i in measured:
        s = spans[i]
        if not s.name.startswith("tensor.") or s.name == "tensor.backward":
            continue
        _, op, phase = s.name.split(".")
        key = op if op in REPORTED_OPS else "other"
        if phase == "fwd":
            fwd[key] += dur[i]
            op_calls[key] += 1
            block_fwd[s.block] += dur[i]
        else:
            bwd[key] += dur[i]
            block_bwd[spans[s.src].block] += dur[i]
            for name, bit in flag.items():
                if ctx[s.src] & bit:
                    ctx_bwd[name] += dur[i]
        if op == "conv2d":
            conv[f"{phase}_flops"] += s.info["flops"]
            conv[f"{phase}_s"] += dur[i]
            if phase == "bwd" and s.info["wgrad"]:
                conv["wgrad"] += 1

    for key in REPORTED_OPS + ("other",):
        out[f"tensor.{key}.fwd_ms"] = per_round(fwd[key])
        out[f"tensor.{key}.bwd_ms"] = per_round(bwd[key])
        out[f"tensor.{key}.calls"] = op_calls[key] / rounds
    for phase in ("fwd", "bwd"):
        secs = conv[f"{phase}_s"]
        out[f"tensor.conv2d.{phase}_gflop_per_s"] = conv[f"{phase}_flops"] / secs / 1e9 if secs else 0.0
    out["tensor.conv2d.wgrad_calls"] = conv["wgrad"] / rounds
    out["tensor.backward.self_ms"] = per_round(
        sum(own[i] for i in measured if spans[i].name == "tensor.backward"))

    for b in BLOCKS:
        out[f"models.{b}.fwd_ms"] = per_round(block_fwd[b])
        out[f"models.{b}.bwd_ms"] = per_round(block_bwd[b])

    def per_call_ms(name):
        times = [dur[i] for i in range(n) if spans[i].name == name]
        return 1000.0 * sum(times) / len(times) if times else 0.0

    out["models.save_checkpoint_ms"] = per_call_ms("models.save_checkpoint")
    out["models.load_checkpoint_ms"] = per_call_ms("models.load_checkpoint")

    out["cbam.fwd_ms"] = per_round(total["cbam.forward"])
    out["cbam.bwd_ms"] = per_round(ctx_bwd["cbam.forward"])
    out["cbam.calls"] = calls["cbam.forward"] / rounds
    out["skipfuse.fwd_ms"] = per_round(total["skipfuse.forward"])
    out["skipfuse.bwd_ms"] = per_round(ctx_bwd["skipfuse.forward"])
    out["skipfuse.dualpool.fwd_ms"] = per_round(total["skipfuse.dualpool"])
    out["losses.fwd_ms"] = per_round(total["losses.forward"])
    out["losses.bwd_ms"] = per_round(ctx_bwd["losses.forward"])

    steps = [spans[i] for i in measured if spans[i].name == "optim.step"]
    holding = sum(s.info["holding"] for s in steps)
    out["optim.step_ms"] = per_round(total["optim.step"])
    out["optim.params_stepped"] = sum(s.info["stepped"] for s in steps) / len(steps) if steps else 0.0
    out["optim.unused_grad_frac"] = sum(s.info["unused"] for s in steps) / holding if holding else 0.0

    loads = [i for i in measured if spans[i].name == "data.load"]
    misses = {spans[i].parent for i in measured if spans[i].name == "netpbm.read"}
    out["data.load_ms"] = per_call_ms("data.load")
    out["data.load_cache_hit_frac"] = (sum(1 for i in loads if i not in misses) / len(loads)
                                       if loads else 0.0)
    out["data.augment_ms"] = per_call_ms("data.augment")
    out["data.generate_ms"] = per_call_ms("data.generate")
    out["netpbm.read_ms"] = per_call_ms("netpbm.read")
    out["netpbm.write_ms"] = per_call_ms("netpbm.write")
    out["metrics.confusion_ms"] = per_round(total["metrics.confusion"])
    out["metrics.report_ms"] = per_round(total["metrics.report"])

    out.update(_epoch_metrics(spans, measured, epoch_of))

    traced_wall = sum(r.wall for r in traced_rounds)
    out["trace.self_time_frac"] = sum(own[i] for i in measured) / traced_wall if traced_wall else 0.0
    out["trace.overhead_frac"] = (
        statistics.median(r.cpu for r in traced_rounds)
        / statistics.median(r.cpu for r in untraced_rounds) - 1.0
        if traced_rounds and untraced_rounds else 0.0)
    return out


def _epoch_metrics(spans, measured, epoch_of) -> dict[str, float]:
    """Step, epoch and validation times from the epoch spans of train()."""
    epochs = [i for i in measured if spans[i].name == "training.epoch"]
    members: dict[int, list[int]] = {e: [] for e in epochs}
    for i in measured:
        e = epoch_of[i]
        if e in members and e != i:
            members[e].append(i)

    step_ms, frozen_ms, unfrozen_ms, val_ms, val_ratio = [], [], [], [], []
    for e in epochs:
        ep = spans[e]
        (frozen_ms if ep.info["frozen"] else unfrozen_ms).append(1000.0 * (ep.end - ep.start))
        steps = [spans[i] for i in members[e] if spans[i].name == "optim.step"]
        last = ep.start
        for s in steps:
            step_ms.append(1000.0 * (s.end - last))
            last = s.end
        after = [spans[i] for i in members[e] if spans[i].start >= last]
        evals = [s for s in after if s.name == "training.evaluate"]
        if not evals:
            continue
        val_ms.append(1000.0 * (ep.end - last))
        first = evals[0]
        forwards = [s for s in after if s.name == "models.forward"]
        per_pass = sum(s.info["images"] for s in forwards if first.start <= s.start <= first.end)
        if per_pass:
            val_ratio.append(sum(s.info["images"] for s in forwards) / per_pass)

    med = lambda v: statistics.median(v) if v else 0.0
    return {
        "training.step_ms_p50": quantile(step_ms, 0.5),
        "training.step_ms_p90": quantile(step_ms, 0.9),
        "training.epoch_ms_frozen": med(frozen_ms),
        "training.epoch_ms_unfrozen": med(unfrozen_ms),
        "training.validation_ms": med(val_ms),
        "training.val_forwards_per_image": med(val_ratio),
    }
