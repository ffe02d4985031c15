"""Variant construction, shape contracts, parameter accounting, checkpoints."""
import functools
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _gradcheck as G
import _oracles as oracle
from drawseg import cbam as C
from drawseg import losses as L
from drawseg import models as M
from drawseg import skipfuse as S
from drawseg import tensor as T
from drawseg.tensor import Tensor

DESK = M.EncoderConfig(depth=4, base_width=8)


def concat_graph(copies):
    """conv2d as the models ran before its ``cat`` input: x and cat joined by
    concat_channels, whose output conv2d takes as x. Appends each joined
    copy's nbytes to ``copies``."""
    real = T.conv2d

    def conv2d(x, weight, bias, *, relu=False, cat=None):
        if cat is not None:
            x = T.concat_channels(x, cat)
            copies.append(x.data.nbytes)
        return real(x, weight, bias, relu=relu)

    return conv2d


def unet_base_param_count(enc: M.EncoderConfig, k: int) -> int:
    """Closed-form parameter total for the plain unet variant."""
    widths = enc.widths()
    total = 0
    cin = M.IN_CHANNELS
    for lvl in range(enc.depth):
        w = widths[lvl]
        total += 9 * cin * w + w           # two 3x3 convs per encoder level
        total += 9 * w * w + w
        cin = w
    for lvl in range(enc.depth - 2, -1, -1):
        w = widths[lvl]
        total += 9 * (widths[lvl + 1] + w) * w + w
        total += 9 * w * w + w
    w0 = widths[0]
    total += 9 * w0 * w0 + w0          # head 3x3
    total += w0 * k + k                # head 1x1
    return total


def skip_full_param_count(c: int, d: int) -> int:
    """Closed-form parameter total of one ave+cbam skip block."""
    sw = C.SPATIAL_WIDTH
    total = 2 * (9 * c * c + c)        # two 3x3 convs on the pooled branch
    total += (c + d) * d + d           # 1x1 fuse
    hidden = max(1, d // C.REDUCTION)
    total += hidden * d + d * hidden   # shared MLP
    total += 9 * 2 * sw + sw           # spatial conv 2 -> sw
    total += 9 * sw * sw + sw          # spatial conv sw -> sw
    total += 9 * sw * 1 + 1            # spatial conv sw -> 1
    total += (c + d) * c + c           # 1x1 reduce
    return total


class TestConfig:
    def test_widths_double_and_cap(self):
        enc = M.EncoderConfig(depth=5, base_width=64)
        assert enc.widths() == [64, 128, 256, 512, 512]

    def test_variant_parse_roundtrip(self):
        for v in M.ALL_VARIANTS:
            assert M.ModelVariant.parse(v.cli_name) == v

    def test_variant_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            M.ModelVariant.parse("resnet-base")

    def test_exactly_eight_variants(self):
        assert len(M.ALL_VARIANTS) == 8
        names = {v.row_name for v in M.ALL_VARIANTS}
        assert names == {"Base", "Base+Ave", "Base+CBAM", "Base+Ave+CBAM"}


class TestBuild:
    def test_same_seed_bit_identical(self):
        v = M.ModelVariant("unet", True, True)
        a = M.build_model(v, DESK, 6, seed=3)
        b = M.build_model(v, DESK, 6, seed=3)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        v = M.ModelVariant("unet", False, False)
        a = M.build_model(v, DESK, 6, seed=3)
        b = M.build_model(v, DESK, 6, seed=4)
        assert any(not np.array_equal(ta.data, tb.data)
                   for ta, tb in zip(a.parameters(), b.parameters()))

    def test_base_count_matches_closed_form(self):
        model = M.build_model(M.ModelVariant("unet", False, False), DESK, 6, seed=0)
        assert model.count_params() == unet_base_param_count(DESK, 6)

    def test_full_minus_base_is_skip_total(self):
        base = M.build_model(M.ModelVariant("unet", False, False), DESK, 6, seed=0)
        full = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=0)
        widths = DESK.widths()
        skips = sum(skip_full_param_count(widths[i], widths[i + 1])
                    for i in range(DESK.depth - 1))
        assert full.count_params() - base.count_params() == skips

    def test_ablation_counts_monotonic(self):
        def count(ave, cbam):
            return M.build_model(M.ModelVariant("unet", ave, cbam), DESK, 6, seed=0).count_params()

        base = count(False, False)
        assert base < count(True, False)
        assert base < count(False, True) < count(True, True)

    def test_paper_scale_builds_with_final_width_64(self):
        enc = M.EncoderConfig(depth=5, base_width=64)
        model = M.build_model(M.ModelVariant("unet", True, True), enc, 6, seed=0)
        assert model.head[0][0].shape[1] == 64
        assert model.enc.divisor == 16  # 512x512 inputs are compatible

    def test_num_classes_lower_bound(self):
        with pytest.raises(ValueError):
            M.build_model(M.ModelVariant("unet", False, False), DESK, 1, seed=0)


class TestForward:
    def test_desk_shape_contract(self):
        model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=0)
        x = Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))
        assert model.forward(x).shape == (1, 6, 64, 64)

    @pytest.mark.parametrize("variant", M.ALL_VARIANTS, ids=lambda v: v.cli_name)
    def test_all_variants_same_output_shape(self, variant):
        rng = np.random.default_rng(1)
        model = M.build_model(variant, DESK, 6, seed=0)
        x = Tensor(rng.standard_normal((2, 1, 32, 32)).astype(np.float32))
        out = model.forward(x)
        assert out.shape == (2, 6, 32, 32)
        assert np.isfinite(out.data).all()

    def test_forward_deterministic(self):
        model = M.build_model(M.ModelVariant("cnn", True, True), DESK, 6, seed=5)
        x = Tensor(np.random.default_rng(2).standard_normal((1, 1, 16, 16)).astype(np.float32))
        np.testing.assert_array_equal(model.forward(x).data, model.forward(x).data)

    @pytest.mark.parametrize("variant", M.ALL_VARIANTS, ids=lambda v: v.cli_name)
    def test_logits_do_not_depend_on_the_batch(self, variant):
        # predict runs one image at a time; eval and validation score batches
        model = M.build_model(variant, DESK, 6, seed=3)
        x = np.random.default_rng(4).random((4, 1, 32, 32)).astype(np.float32)
        with T.no_grad():
            batch = model.forward(Tensor(x)).data
            for i in range(4):
                alone = model.forward(Tensor(x[i:i + 1])).data
                assert alone.tobytes() == batch[i:i + 1].tobytes(), i

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_output_views_change_no_bit(self, dtype, monkeypatch):
        # conv2d returns a cropped view of its tap-sum buffer; a contiguous copy
        # of it must give every consumer the same bits
        real, views = T.conv2d, []

        def contiguous(*args, **kwargs):
            out = real(*args, **kwargs)
            views.append(not out.data.flags.c_contiguous)
            out.data = np.ascontiguousarray(out.data)
            return out

        def run(variant, x, g):
            model = M.build_model(variant, DESK, 6, seed=4, dtype=dtype)
            logits = model.forward(Tensor(x))
            T.sum_all(T.mul(logits, Tensor(g))).backward()
            return [logits.data] + [t.grad for t in model.parameters()]

        rng = np.random.default_rng(37)
        for n in (1, 3):
            x = rng.standard_normal((n, 1, 16, 16)).astype(dtype)
            g = rng.standard_normal((n, 6, 16, 16)).astype(dtype)
            for variant in M.ALL_VARIANTS:
                want = run(variant, x, g)
                with monkeypatch.context() as m:
                    m.setattr(T, "conv2d", contiguous)
                    got = run(variant, x, g)
                for a, b in zip(got, want, strict=True):
                    assert np.array_equal(a, b), variant.cli_name
        assert any(views)

    @staticmethod
    def _conv_gemms(monkeypatch, model, size):
        """Each conv2d GEMM loop of a forward and backward of model on a
        (1, 1, size, size) input, as (O, C, span, tile widths): the _tap_sum
        calls (forwards and input gradients) and the weight gradients. A GEMM
        counts for _tap_sum while it runs; a matmul with out= in a conv2d
        backward outside _tap_sum is the weight gradient's. Other ops
        (upsample2x) also call matmul with out=, and count for neither."""
        real_tap_sum, real_matmul, real_conv = T._tap_sum, np.matmul, T.conv2d
        taps, wgrads, inside = [], [], []   # inside: the loop that now runs GEMMs

        def tap_sum(mats, src, offsets, span):
            taps.append((*mats.shape[1:], span, set()))
            inside.append(("tap", taps[-1][-1]))
            try:
                return real_tap_sum(mats, src, offsets, span)
            finally:
                inside.pop()

        def conv2d(x, weight, bias, **kwargs):
            out = real_conv(x, weight, bias, **kwargs)
            o, c, k, _ = weight.shape
            rule, span = out._backward, x.shape[2] * (x.shape[3] + 2 * (k // 2))

            def backward(g):
                wgrads.append((o, c, span, set()))
                inside.append(("wgrad", wgrads[-1][-1]))
                try:
                    rule(g)
                finally:
                    inside.pop()

            out._backward = backward
            return out

        def matmul(a, b, **kwargs):
            if inside and "out" in kwargs:
                kind, widths = inside[-1]
                widths.add(b.shape[-1] if kind == "tap" else a.shape[-1])
            return real_matmul(a, b, **kwargs)

        x = np.random.default_rng(53).standard_normal((1, 1, size, size)).astype(np.float32)
        with monkeypatch.context() as m:
            m.setattr(T, "_tap_sum", tap_sum)
            m.setattr(T, "conv2d", conv2d)
            m.setattr(np, "matmul", matmul)
            T.sum_all(model.forward(Tensor(x))).backward()
        return taps, wgrads

    def test_column_tiles_follow_the_small_gemm_rule(self, monkeypatch):
        # desk convs never split; at train-large's 256x256 the narrow convs
        # and the head 1x1 do, in the tap sums and the weight gradients alike,
        # and no tile's GEMM passes _SMALL_GEMM
        for variant in M.ALL_VARIANTS:
            model = M.build_model(variant, DESK, 6, seed=0)
            taps, wgrads = self._conv_gemms(monkeypatch, model, 64)
            assert wgrads
            for _, _, span, widths in taps + wgrads:
                assert widths == {span}
        model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=0)
        taps, wgrads = self._conv_gemms(monkeypatch, model, 256)
        split = [(o, c, max(widths)) for o, c, span, widths in taps if max(widths) < span]
        assert {(o, c) for o, c, _ in split} >= {(6, 8), (8, 8), (16, 8), (16, 16)}
        assert max(o * c * width for o, c, width in split) <= T._SMALL_GEMM
        # the input gradient's tap sum is (C, O): each split weight gradient's
        # conv splits its forward and input-gradient tap sums too, and no other does
        split_w = [(o, c, max(widths)) for o, c, span, widths in wgrads if max(widths) < span]
        pairs = {(o, c) for o, c, _ in split_w}
        assert pairs | {(c, o) for o, c in pairs} == {(o, c) for o, c, _ in split}
        assert max(o * c * width for o, c, width in split_w) <= T._SMALL_GEMM

    def test_column_tiles_change_no_bit(self, monkeypatch):
        # at 128x128 some convs split their spans. That changes no bit of the
        # logits, the bias gradients or the weight gradients of unsplit convs.
        # A split weight gradient adds its tiles' sums, so its bits move within
        # rounding: at most sqrt(N) * eps * sum|x * g| from the exact sum of
        # the same float32 x and g, N = h*w terms per weight (see
        # tests/test_tensor.py::TestConv2d::test_column_tiles_change_no_bit)
        def run():
            calls, real = [], T.conv2d

            def conv2d(x, weight, bias, *, relu=False, **kwargs):
                out = real(x, weight, bias, relu=relu, **kwargs)
                rule = out._backward
                cat = kwargs.get("cat")   # the weight sees x, then cat, along C
                xs = x.data if cat is None else np.concatenate([x.data, cat.data], axis=1)

                def backward(g):   # g as the weight gradient sees it, relu's mask applied
                    calls.append((weight, xs, g * (out.data > 0) if relu else g.copy()))
                    rule(g)

                out._backward = backward
                return out

            model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=6)
            with monkeypatch.context() as m:
                m.setattr(T, "conv2d", conv2d)
                logits = model.forward(Tensor(x))
                T.sum_all(T.mul(logits, Tensor(g))).backward()
            return logits.data.tobytes(), model.named_parameters(), calls

        rng = np.random.default_rng(59)
        x = rng.standard_normal((1, 1, 128, 128)).astype(np.float32)
        g = rng.standard_normal((1, 6, 128, 128)).astype(np.float32)
        tiled, tiled_params, calls = run()
        split = set()
        for weight, xs, gs in calls:
            o, c, k, _ = weight.shape
            n, _, h, w = xs.shape
            span = h * (w + 2 * (k // 2))
            if T._column_tile(o * c, span) < span:
                split.add(id(weight))
                exact = oracle.conv2d_weight_grad_einsum(xs, gs, k)
                scale = oracle.conv2d_weight_grad_einsum(np.abs(xs), np.abs(gs), k)
                bound = np.sqrt(n * h * w) * np.finfo(np.float32).eps * scale
                assert (np.abs(weight.grad - exact) <= bound).all(), weight.shape
        assert len(split) >= 6
        monkeypatch.setattr(T, "_SMALL_GEMM", 1 << 62)   # one tile per span
        whole, whole_params, _ = run()
        assert whole == tiled
        for (name, a), (_, b) in zip(tiled_params, whole_params, strict=True):
            if id(a) not in split:
                assert a.grad.tobytes() == b.grad.tobytes(), name

    @pytest.mark.parametrize("dtype, n, size", [
        (np.float32, 4, 64), (np.float32, 1, 128), (np.float64, 2, 64)])
    def test_cat_input_matches_concat_graph_bitwise(self, dtype, n, size, monkeypatch):
        # every join of the models goes through conv2d's cat input; the graph
        # that concatenates first gives the same logits and gradients, byte
        # for byte
        rng = np.random.default_rng(size + n)
        x = rng.standard_normal((n, 1, size, size)).astype(dtype)
        g = rng.standard_normal((n, 6, size, size)).astype(dtype)

        def run(variant):
            model = M.build_model(variant, DESK, 6, seed=8, dtype=dtype)
            logits = model.forward(Tensor(x))
            T.sum_all(T.mul(logits, Tensor(g))).backward()
            return [logits.data.tobytes()] + [t.grad.tobytes() for t in model.parameters()]

        for variant in M.ALL_VARIANTS:
            got = run(variant)
            copies = []
            with monkeypatch.context() as m:
                m.setattr(T, "conv2d", concat_graph(copies))
                want = run(variant)
            assert bool(copies) == (variant != M.ModelVariant("cnn", False, False))
            assert got == want, variant.cli_name

    @pytest.mark.parametrize("dtype, n, size", [(np.float32, 4, 64), (np.float64, 2, 64)])
    def test_dualpool_branch_needs_no_relu_after_its_pool(self, dtype, n, size, monkeypatch):
        # the shallow feature is a conv+ReLU output, so its average pool is
        # already >= 0: a ReLU there changes no logit or parameter gradient
        rng = np.random.default_rng(size + n + 1)
        x = Tensor(rng.standard_normal((n, 1, size, size)).astype(dtype))
        targets = rng.integers(0, 6, size=(n, size, size))

        def relu_after_pool(shallow, deeper, p):
            (w0, b0), (w1, b1) = p.pool
            a = T.relu(T.avg_pool2d(shallow))
            a = T.conv2d(a, w0, b0, relu=True)
            a = T.conv2d(a, w1, b1)
            return T.conv2d(a, *p.fuse, cat=deeper)

        def run(variant):
            model = M.build_model(variant, DESK, 6, seed=10, dtype=dtype)
            logits = model.forward(x)
            L.segmentation_loss(L.LossSpec("focal"), logits, targets).backward()
            return [logits.data.tobytes()] + [t.grad.tobytes() for t in model.parameters()]

        for variant in M.ALL_VARIANTS:
            if variant.family != "unet":
                continue
            got = run(variant)
            with monkeypatch.context() as m:
                m.setattr(S, "dualpool_fuse", relu_after_pool)
                want = run(variant)
            assert got == want, variant.cli_name

    def test_cat_input_keeps_no_concatenated_copy(self, monkeypatch):
        # at the loss, the concatenating graph holds each joined copy besides
        # what the cat= graph holds
        rng = np.random.default_rng(67)
        x = Tensor(rng.standard_normal((1, 1, 128, 128)).astype(np.float32))
        targets = rng.integers(0, 6, size=(1, 128, 128))
        model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=9)

        def live() -> int:
            tracemalloc.start()
            try:
                loss = L.segmentation_loss(L.LossSpec("focal"), model.forward(x), targets)
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert loss.requires_grad
            return current

        lean = live()
        copies = []
        with monkeypatch.context() as m:
            m.setattr(T, "conv2d", concat_graph(copies))
            joined = live()
        assert len(copies) == 3 * 4   # per skip level: decoder, reduce, fuse and CBAM joins
        assert joined - lean >= 0.99 * sum(copies)

    @pytest.mark.parametrize("n, size", [(1, 64), (2, 32)])
    @pytest.mark.parametrize("variant", M.ALL_VARIANTS, ids=lambda v: v.cli_name)
    def test_graph_holds_no_array_beside_its_results(self, variant, n, size):
        # at the loss, the arrays alive are the buffers the op results own:
        # no op keeps a second copy (a padded input, a joined input) of what
        # the graph already holds. The slack is the graph's Python
        # bookkeeping (each result's Tensor, closure and cells, 550-640 bytes
        # per node) and numpy's few scalars; the arrays' bytes are exact.
        rng = np.random.default_rng(71)
        x = Tensor(rng.standard_normal((n, 1, size, size)).astype(np.float32))
        targets = rng.integers(0, 6, size=(n, size, size))
        model = M.build_model(variant, DESK, 6, seed=9)
        model.forward(x)   # warm-up: caches filled outside the traced build
        tracemalloc.start()
        try:
            loss = L.segmentation_loss(L.LossSpec("focal"), model.forward(x), targets)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        owners, nodes, stack = {}, set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) in nodes:
                continue
            nodes.add(id(t))
            stack.extend(t._prev)
            if t._backward is not None:
                buf = t.data
                while buf.base is not None:
                    buf = buf.base
                owners[id(buf)] = buf.nbytes
        held = sum(owners.values())
        assert live <= held + 1024 * len(nodes) + 4096, (live, held, len(nodes))

    def test_divisibility_rejected_with_message(self):
        model = M.build_model(M.ModelVariant("unet", False, False), DESK, 6, seed=0)
        x = Tensor(np.zeros((1, 1, 60, 60), dtype=np.float32))
        with pytest.raises(T.ShapeError, match="divisible by 2"):
            model.forward(x)

    def test_full_model_gradient_check(self):
        report = G.check_model()
        assert report.passed, report.summary()


def gradient_off(model) -> set:
    return {name for name, t in model.named_parameters() if not t.requires_grad}


class TestFreezing:
    def test_frozen_excludes_encoder_params(self):
        model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=0)
        assert gradient_off(model) == set()
        model.set_frozen(True)
        names = [name for name, _ in model.named_parameters()]
        encoder = {name for name in names if name.startswith("enc.")}
        assert encoder and gradient_off(model) == encoder
        assert any(name.startswith("dec.") for name in names)
        assert any(name.startswith("head.") for name in names)

    def test_toggle_is_involution(self):
        model = M.build_model(M.ModelVariant("cnn", False, False), DESK, 6, seed=0)
        model.set_frozen(True)
        model.set_frozen(False)
        assert gradient_off(model) == set()

    def test_count_invariant_under_freezing(self):
        model = M.build_model(M.ModelVariant("unet", False, True), DESK, 6, seed=0)
        n = model.count_params()
        model.set_frozen(True)
        assert model.count_params() == n

    def test_cnn_freeze_covers_conv_stack(self):
        model = M.build_model(M.ModelVariant("cnn", True, True), DESK, 6, seed=0)
        model.set_frozen(True)
        names = [name for name, _ in model.named_parameters()]
        assert gradient_off(model) == {n for n in names if n.startswith("cnn.b")}
        assert any(n.startswith("cnn.cbam") for n in names)


def _no_build(*args, **kwargs):
    raise AssertionError("model built from an unchecked header")


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=9)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        assert loaded.variant == model.variant
        assert loaded.enc == model.enc
        assert loaded.num_classes == model.num_classes
        for ta, tb in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_roundtrip_preserves_forward(self, tmp_path):
        model = M.build_model(M.ModelVariant("cnn", True, False), DESK, 6, seed=9)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        loaded = M.load_checkpoint(path)
        x = Tensor(np.random.default_rng(3).standard_normal((1, 1, 16, 16)).astype(np.float32))
        np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.segm"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            M.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        model = M.build_model(M.ModelVariant("unet", False, False), DESK, 6, seed=0)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ValueError, match="bytes"):
            M.load_checkpoint(path)

    def test_cut_inside_parameter_count_rejected(self, tmp_path):
        model = M.build_model(M.ModelVariant("unet", False, False), DESK, 6, seed=0)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:M._HEADER.size + 2])
        with pytest.raises(ValueError, match="truncated"):
            M.load_checkpoint(path)

    def test_bad_family_rejected(self, tmp_path):
        model = M.build_model(M.ModelVariant("unet", False, False), DESK, 6, seed=0)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<I", 7) + raw[12:])
        with pytest.raises(ValueError, match="family"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("offset, value, match", [
        (24, 4096, "payload ends inside"),
        (20, 10 ** 6, "depth 1000000 exceeds its parameter count"),
        (20, 2 ** 32 - 1, "depth 4294967295 exceeds its parameter count"),
    ], ids=["base_width", "depth_1000000", "depth_4294967295"])
    def test_oversized_header_rejected_before_build(self, tmp_path, offset, value, match):
        # u32 header fields sit at byte 8 + 4 * index: the depth at 20, base_width at 24
        model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=0)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:offset] + struct.pack("<I", value) + raw[offset + 4:])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                M.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(raw)

    @pytest.mark.parametrize("index", range(6), ids=[
        "in_channels", "width_cap", "reduction", "spatial_width", "cnn_blocks", "cnn_attach_after"])
    def test_fixed_shape_field_rejected_before_build(self, tmp_path, monkeypatch, index):
        # header fields 5-10 hold the model-shape constants, field i at byte 8 + 4 * i
        model = M.build_model(M.ModelVariant("cnn", True, True), DESK, 6, seed=0)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        raw = path.read_bytes()
        offset = 8 + 4 * (5 + index)
        assert struct.unpack_from("<I", raw, offset) == (M._FIXED[index],)
        path.write_bytes(raw[:offset] + struct.pack("<I", M._FIXED[index] + 1) + raw[offset + 4:])
        monkeypatch.setattr(M, "SegModel", _no_build)
        with pytest.raises(ValueError, match="fields 5-10"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("extra, match", [
        (1, "uses"),
        (-1, "payload ends inside head.conv1.b"),
    ], ids=["one_value_long", "one_value_short"])
    def test_payload_must_fill_the_model_exactly(self, tmp_path, extra, match):
        model = M.build_model(M.ModelVariant("cnn", True, False), DESK, 6, seed=0)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        raw = path.read_bytes()
        at = M._HEADER.size   # the u64 parameter count
        (count,) = struct.unpack_from("<Q", raw, at)
        payload = raw[at + 8:] + bytes(4) if extra > 0 else raw[at + 8:-4]
        path.write_bytes(raw[:at] + struct.pack("<Q", count + extra) + payload)
        with pytest.raises(ValueError, match=match):
            M.load_checkpoint(path)

    def test_loaded_arrays_are_owned_and_writable(self, tmp_path):
        # gradient checks and optimizers write parameter data in place
        model = M.build_model(M.ModelVariant("unet", True, True), DESK, 6, seed=9)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        for name, t in M.load_checkpoint(path).named_parameters():
            assert t.data.flags.owndata and t.data.flags.writeable, name

    def test_cnn_checkpoint_has_one_byte_form(self, tmp_path):
        # the cnn family reads base_width only, so the depth it was built with
        # must not reach the file
        paths = []
        for enc in (M.EncoderConfig(depth=2, base_width=3), M.EncoderConfig(base_width=3),
                    M.EncoderConfig(depth=5, base_width=3)):
            model = M.build_model(M.ModelVariant("cnn", True, True), enc, 6, seed=9)
            assert model.enc == M.EncoderConfig(base_width=3)
            paths.append(tmp_path / f"m{len(paths)}.segm")
            M.save_checkpoint(model, paths[-1])
        assert len({p.read_bytes() for p in paths}) == 1

    @pytest.mark.parametrize("depth", [2, 5], ids=["depth_2", "depth_5"])
    def test_cnn_checkpoint_of_other_depth_rejected(self, tmp_path, depth):
        # the depth is the u32 at byte 20; depth 2 is the form a depth-2 cnn run wrote before
        model = M.build_model(M.ModelVariant("cnn", False, True), DESK, 6, seed=9)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)
        raw = path.read_bytes()
        assert struct.unpack_from("<I", raw, 20) == (4,)
        path.write_bytes(raw[:20] + struct.pack("<I", depth) + raw[24:])
        with pytest.raises(ValueError, match=f"cnn checkpoint holds depth {depth}; "
                                             "the cnn family stores 4"):
            M.load_checkpoint(path)

    def test_load_draws_no_values(self, tmp_path, monkeypatch):
        model = M.build_model(M.ModelVariant("cnn", True, True), DESK, 6, seed=9)
        path = tmp_path / "m.segm"
        M.save_checkpoint(model, path)

        def no_generator(*args, **kwargs):
            raise AssertionError("loading created a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = M.load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb and ta.dtype == tb.dtype
            np.testing.assert_array_equal(ta.data, tb.data)


@functools.cache
def small_checkpoint(variant_index: int) -> bytes:
    """The bytes of a depth-2, base-width-1 checkpoint of ALL_VARIANTS[variant_index]."""
    model = M.build_model(M.ALL_VARIANTS[variant_index], M.EncoderConfig(depth=2, base_width=1),
                          6, seed=variant_index)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.segm"
        M.save_checkpoint(model, path)
        return path.read_bytes()


def assert_loads_back_or_rejected(raw: bytes) -> None:
    """raw either loads a model that saves back to raw, or is rejected with
    ValueError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.segm"
        path.write_bytes(raw)
        try:
            model = M.load_checkpoint(path)
        except ValueError:
            return
        M.save_checkpoint(model, path)
        assert path.read_bytes() == raw


_VARIANT_INDEX = st.integers(0, len(M.ALL_VARIANTS) - 1)
_U32 = st.one_of(st.integers(0, 9), st.integers(0, 2 ** 32 - 1))


class TestCheckpointFuzz:
    """Every input either loads a model that saves back to the same bytes or
    raises ValueError: no struct.error, IndexError or MemoryError."""

    @pytest.mark.parametrize("field", ["ave", "cbam"])
    @pytest.mark.parametrize("value", [2, 7, 2 ** 31, 2 ** 32 - 1])
    def test_flag_other_than_0_or_1_rejected(self, tmp_path, field, value):
        # read through bool(), such a unet-full checkpoint loaded as unet-full
        # and saved back a 1 in place of the value
        raw = small_checkpoint(M.ALL_VARIANTS.index(M.ModelVariant("unet", True, True)))
        off = {"ave": 12, "cbam": 16}[field]
        assert struct.unpack_from("<I", raw, off) == (1,)
        path = tmp_path / "m.segm"
        path.write_bytes(raw[:off] + struct.pack("<I", value) + raw[off + 4:])
        with pytest.raises(ValueError, match="expected 0 or 1"):
            M.load_checkpoint(path)

    @given(_VARIANT_INDEX, st.lists(st.tuples(st.integers(1, M._HEADER.size // 4 + 1), _U32),
                                    min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_edited_header_words(self, variant_index, edits):
        # word i is the u32 at byte 4 * i: the version (1), the 12 header fields,
        # then the two halves of the u64 parameter count
        raw = bytearray(small_checkpoint(variant_index))
        for index, value in edits:
            raw[4 * index:4 * index + 4] = struct.pack("<I", value)
        assert_loads_back_or_rejected(bytes(raw))

    @given(_VARIANT_INDEX, st.integers(0, 1 << 20), st.binary(max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_cut_then_extended(self, variant_index, cut, tail):
        raw = small_checkpoint(variant_index)
        assert_loads_back_or_rejected(raw[:cut % (len(raw) + 1)] + tail)

    @given(st.one_of(st.binary(max_size=128),
                     st.binary(max_size=128).map(lambda b: M._MAGIC + struct.pack("<I", 1) + b)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, raw):
        assert_loads_back_or_rejected(raw)


UNET_FULL_DEPTH2_NAMES = [
    "enc.l0.conv0.w", "enc.l0.conv0.b", "enc.l0.conv1.w", "enc.l0.conv1.b",
    "enc.l1.conv0.w", "enc.l1.conv0.b", "enc.l1.conv1.w", "enc.l1.conv1.b",
    "skip.l0.pool_conv0.w", "skip.l0.pool_conv0.b", "skip.l0.pool_conv1.w", "skip.l0.pool_conv1.b",
    "skip.l0.fuse.w", "skip.l0.fuse.b", "skip.l0.cbam.mlp.w1", "skip.l0.cbam.mlp.w2",
    "skip.l0.cbam.spatial.conv0.w", "skip.l0.cbam.spatial.conv0.b",
    "skip.l0.cbam.spatial.conv1.w", "skip.l0.cbam.spatial.conv1.b",
    "skip.l0.cbam.spatial.conv2.w", "skip.l0.cbam.spatial.conv2.b",
    "skip.l0.reduce.w", "skip.l0.reduce.b",
    "dec.l0.conv0.w", "dec.l0.conv0.b", "dec.l0.conv1.w", "dec.l0.conv1.b",
    "head.conv3.w", "head.conv3.b", "head.conv1.w", "head.conv1.b",
]

CNN_FULL_NAMES = [
    "cnn.b0.conv0.w", "cnn.b0.conv0.b", "cnn.b1.conv0.w", "cnn.b1.conv0.b",
    "cnn.b2.conv0.w", "cnn.b2.conv0.b", "cnn.b3.conv0.w", "cnn.b3.conv0.b",
    "cnn.b4.conv0.w", "cnn.b4.conv0.b", "cnn.b5.conv0.w", "cnn.b5.conv0.b",
    "cnn.ave.conv0.w", "cnn.ave.conv0.b", "cnn.ave.conv1.w", "cnn.ave.conv1.b",
    "cnn.ave_fuse.w", "cnn.ave_fuse.b", "cnn.cbam.mlp.w1", "cnn.cbam.mlp.w2",
    "cnn.cbam.spatial.conv0.w", "cnn.cbam.spatial.conv0.b",
    "cnn.cbam.spatial.conv1.w", "cnn.cbam.spatial.conv1.b",
    "cnn.cbam.spatial.conv2.w", "cnn.cbam.spatial.conv2.b",
    "head.conv3.w", "head.conv3.b", "head.conv1.w", "head.conv1.b",
]


class TestCheckpointLayout:
    """The checkpoint stores parameters in named_parameters() order, so these
    pin both the initial weights a seed gives and the file layout."""

    @pytest.mark.parametrize("variant", M.ALL_VARIANTS, ids=lambda v: v.cli_name)
    def test_init_replays_one_seeded_stream(self, variant):
        for enc in (DESK, M.EncoderConfig(depth=3, base_width=4)):
            model = M.build_model(variant, enc, 5, seed=13)
            rng = np.random.default_rng(13)
            for name, t in model.named_parameters():
                if t.data.ndim == 1:
                    assert not t.data.any(), name
                    continue
                limit = np.sqrt(6.0 / np.prod(t.shape[1:]))
                want = rng.uniform(-limit, limit, t.shape).astype(model.dtype)
                np.testing.assert_array_equal(t.data, want, err_msg=name)

    def test_unet_name_order(self):
        model = M.build_model(M.ModelVariant("unet", True, True),
                              M.EncoderConfig(depth=2, base_width=4), 3, seed=0)
        assert [name for name, _ in model.named_parameters()] == UNET_FULL_DEPTH2_NAMES

    def test_cnn_name_order(self):
        model = M.build_model(M.ModelVariant("cnn", True, True),
                              M.EncoderConfig(base_width=4), 3, seed=0)
        assert [name for name, _ in model.named_parameters()] == CNN_FULL_NAMES


class TestEncoderConfigBounds:
    @pytest.mark.parametrize("field", ["base_width"])
    def test_zero_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            M.EncoderConfig(**{field: 0})

    def test_widths_double_up_to_cap(self):
        enc = M.EncoderConfig(depth=6, base_width=3)
        assert enc.widths() == [3, 6, 12, 24, 24, 24]
