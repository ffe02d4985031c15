"""Finite-difference gradient checks shared by the test suite.

Each check_* function builds one case in float64 from its own seeds and
returns tensor.grad_check's report. Every parameter is jittered (biases
start at exactly zero, which parks relu pre-activations precisely on the
kink where central differences and reverse-mode gradients legitimately
disagree). Inputs get a small deterministic ramp added for the same
reason: it pushes pool windows off exact ties. No case sets its own
finite-difference step or tolerance: grad_check has one of each.
"""
import zlib

import numpy as np

from drawseg import losses as L
from drawseg import tensor as T
from drawseg.cbam import ParamStore, build_cbam, cbam_forward
from drawseg.models import EncoderConfig, ModelVariant, build_model
from drawseg.skipfuse import build_skip_block, skip_forward
from drawseg.tensor import GradCheckReport, Tensor, grad_check

JITTER = 0.05   # half-width of the uniform draw _jitter adds to every parameter

# (ave, cbam) of each skip mode that has parameters
SKIP_MODES = ((True, False), (False, True), (True, True))


def _jitter(params, rng):
    for p in params:
        p.data = p.data + rng.uniform(-JITTER, JITTER, size=p.data.shape)


def _ramped(rng, shape):
    x = rng.standard_normal(shape)
    return x + np.linspace(0.0, 0.37, x.size).reshape(shape)


def _input(rng, shape):
    return Tensor(_ramped(rng, shape), requires_grad=True)


def _rand(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _sq_loss(t: Tensor) -> Tensor:
    return T.sum_all(T.mul(t, t))


# Each builder takes a seeded generator and returns (params dict, loss
# builder). A single-op row is name -> (tensor op, {param: shape} in
# argument order, ramp), and its loss is the op's squared sum; ramp draws
# the inputs of pools and relu off ties. A param named ``cat`` goes to the
# op as that keyword (conv2d's second input).
_SINGLE_OPS = {
    "conv2d": ("conv2d", {"x": (1, 2, 4, 4), "w": (3, 2, 3, 3), "b": (3,)}, False),
    "conv2d_single_channel": ("conv2d", {"x": (2, 1, 4, 4), "w": (3, 1, 3, 3), "b": (3,)}, False),
    # the CBAM spatial gate's mean and max planes
    "conv2d_cat_3x3": ("conv2d", {"x": (2, 1, 4, 4), "cat": (2, 1, 4, 4), "w": (2, 2, 3, 3),
                                  "b": (2,)}, False),
    "conv2d_cat_1x1": ("conv2d", {"x": (1, 2, 3, 3), "cat": (1, 3, 3, 3), "w": (4, 5, 1, 1),
                                  "b": (4,)}, False),
    "max_pool2d": ("max_pool2d", {"x": (1, 2, 4, 4)}, True),
    "avg_pool2d": ("avg_pool2d", {"x": (1, 2, 4, 4)}, False),
    "upsample2x_bilinear": ("upsample2x", {"x": (1, 2, 3, 3)}, False),
    # spans several of upsample2x's row and column tiles in both passes
    "upsample2x_tiles": ("upsample2x", {"x": (1, 1, 34, 20)}, False),
    "concat_channels": ("concat_channels", {"a": (1, 2, 3, 3), "b": (1, 3, 3, 3)}, False),
    "mul_broadcast": ("mul", {"x": (2, 3, 3, 3), "w": (3, 1, 1)}, False),
    "relu": ("relu", {"x": (1, 3, 4, 4)}, True),
    "sigmoid": ("sigmoid", {"x": (1, 3, 4, 4)}, False),
    "softmax_channels": ("softmax_channels", {"x": (1, 4, 3, 3)}, False),
    "global_avg_pool": ("global_avg_pool", {"x": (2, 3, 4, 4)}, False),
    "global_max_pool": ("global_max_pool", {"x": (2, 3, 4, 4)}, True),
    "channel_avg_pool": ("channel_avg_pool", {"x": (1, 4, 3, 3)}, False),
    "channel_max_pool": ("channel_max_pool", {"x": (1, 4, 3, 3)}, True),
    "dense": ("dense", {"x": (2, 3, 1, 1), "w": (4, 3)}, False),
}


def _single_op(op: str, shapes: dict, ramp: bool):
    def make(rng):
        p = {name: (_input if ramp else _rand)(rng, shape) for name, shape in shapes.items()}
        args = [t for name, t in p.items() if name != "cat"]
        kwargs = {"cat": p["cat"]} if "cat" in p else {}
        # looked up when the loss is built, so a patched op is the one checked
        return p, lambda: _sq_loss(getattr(T, op)(*args, **kwargs))
    return make


def _scalar_chain(rng):
    p = {"x": _rand(rng, (1, 2, 3, 3))}

    def build():
        s = T.sigmoid(p["x"])
        y = T.log(T.clamp_min(s, 1e-12))
        z = T.power(T.affine(s, -1.0, 1.0), 2.0)
        return T.mean_all(T.mul(y, z))

    return p, build


PRIMITIVE_BUILDERS = {name: _single_op(*row) for name, row in _SINGLE_OPS.items()}
PRIMITIVE_BUILDERS["log_clamp_power_affine"] = _scalar_chain

# rows too large to probe at every coordinate: name -> (builder, coordinates
# probed per parameter, a seeded sample as in check_model)
SAMPLED_BUILDERS = {
    # O*C = 384 over a span of 32 rows of 66 columns: conv2d's column-tile rule
    # splits it in two for the forward, input-gradient and weight-gradient GEMMs
    "conv2d_tiles": (_single_op("conv2d", {"x": (1, 16, 32, 64), "w": (24, 16, 3, 3),
                                           "b": (24,)}, False), 24),
}


def check_primitive(name: str) -> GradCheckReport:
    """One row of PRIMITIVE_BUILDERS or SAMPLED_BUILDERS, seeded by the crc32
    of its name, which unlike hash() is the same in every process."""
    make, probes = (SAMPLED_BUILDERS[name] if name in SAMPLED_BUILDERS
                    else (PRIMITIVE_BUILDERS[name], None))
    params, build = make(np.random.default_rng(zlib.crc32(name.encode())))
    return grad_check(build, params, max_elements=probes)


def check_loss(kind: str) -> GradCheckReport:
    rng = np.random.default_rng(2024)
    logits = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
    target = rng.integers(0, 3, size=(1, 4, 4))
    spec = L.LossSpec(kind=kind)
    return grad_check(lambda: L.segmentation_loss(spec, logits, target), {"logits": logits})


def check_cbam() -> GradCheckReport:
    store = ParamStore(7, np.float64)
    block = build_cbam(store, "cbam", 4)
    rng = store.rng
    params = dict(store.named)
    _jitter(params.values(), rng)
    x = _input(rng, (1, 4, 4, 4))
    params["input"] = x

    def build():
        out = cbam_forward(x, block)
        return T.mean_all(T.mul(out, out))

    return grad_check(build, params)


def check_skip(ave: bool, cbam: bool) -> GradCheckReport:
    store = ParamStore(17, np.float64)
    block = build_skip_block(store, "skip", 4, 8, ave, cbam)
    rng = store.rng
    params = dict(store.named)
    _jitter(params.values(), rng)
    shallow = _input(rng, (1, 4, 8, 8))
    deeper = _input(rng, (1, 8, 4, 4))
    params["shallow"] = shallow
    if ave:
        params["deeper"] = deeper

    def build():
        out = skip_forward(shallow, deeper if ave else None, block)
        return T.mean_all(T.mul(out, out))

    return grad_check(build, params)


def check_model() -> GradCheckReport:
    """Full unet Base+Ave+CBAM at 1x1x16x16 with sampled coordinates."""
    rng = np.random.default_rng(29)
    enc = EncoderConfig(depth=4, base_width=4)
    model = build_model(ModelVariant("unet", True, True), enc, 3, seed=11, dtype=np.float64)
    _jitter(model.parameters(), rng)
    x = _input(rng, (1, 1, 16, 16))
    params = dict(model.named_parameters())
    params["input"] = x

    def build():
        out = model.forward(x)
        return T.mean_all(T.mul(out, out))

    return grad_check(build, params, max_elements=3)
