"""Property tests for grouped/depthwise convolution.

Two algebraic identities pin the grouped path to the dense one:

* ``groups=1`` is *the same computation* as the dense conv — byte for
  byte, since the block-diagonal kernel matrix degenerates to the full
  matrix;
* for any valid ``groups``, the grouped output equals running the dense
  conv independently on each channel slice with that group's filters
  (the block-diagonal structure, made explicit).

Both hold under approximate arithmetic too (the per-group GEMMs see the
same rows and widths either way), so the DAISM backend is part of the
property.  A third identity covers the compiled-plan fast path:
gathering a channel slice out of a whole-image :class:`PackedTensor`
is byte-identical to packing the slice's own im2col — pack commutes
with elementwise gathers, which is why plans pack each image once.

On the native tier a compiled grouped conv runs every group in one C
call over the packed image; :class:`TestOneCallGroupedConv` pins that
path byte for byte to the per-group loop (and to eager), and asserts
which path runs where a group's GEMM would be delegated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.core import kernels
from repro.core.config import PC3_TR
from repro.core.gemm import ApproxMatmul
from repro.core.kernels import NativeGatherKernel, default_k_chunk
from repro.core.native import conv_ranges, native_active
from repro.formats.floatfmt import BFLOAT16, FLOAT8_E4M3, FLOAT16
from repro.formats.packed import pack
from repro.nn.backend import daism_backend, exact_backend, use_backend
from repro.nn.layers import Conv2d, Sequential
from repro.runtime import BatchEngine, compile_plan
from repro.runtime import ops as ops_mod
from repro.runtime.fleet import plan_digest
from repro.runtime.ops import ExecContext, GroupedConvOp, gather_packed_cols

# One backend instance per run: daism kernels build value tables on
# first use, and per-example construction would dominate the runtime.
EXACT = exact_backend()
DAISM = daism_backend(PC3_TR, BFLOAT16)
DAISM_TABLE = daism_backend(PC3_TR, BFLOAT16, kernel="float_table")


def _weight(rng, f, cg, k):
    return rng.standard_normal((f, cg, k, k)).astype(np.float32)


def _dense_reference(x, weight, bias, stride, padding, groups, backend):
    """Per-group dense convs on channel slices — the explicit block-diagonal."""
    f, cg = weight.shape[0], weight.shape[1]
    fg = f // groups
    outs = []
    for g in range(groups):
        out, _ = F.conv2d_forward(
            np.ascontiguousarray(x[:, g * cg : (g + 1) * cg]),
            weight[g * fg : (g + 1) * fg],
            None if bias is None else bias[g * fg : (g + 1) * fg],
            stride,
            padding,
            backend,
        )
        outs.append(out)
    return np.concatenate(outs, axis=1)


conv_cases = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(1, 4),  # groups
    st.integers(1, 3),  # channels per group
    st.integers(1, 3),  # filters per group
    st.sampled_from([1, 3]),  # kernel
    st.integers(1, 2),  # stride
    st.integers(0, 1),  # padding
    st.integers(5, 8),  # spatial size
    st.integers(0, 2**31 - 1),  # seed
)


class TestGroupedEqualsDense:
    @settings(max_examples=25, deadline=None)
    @given(conv_cases)
    def test_groups_1_is_dense_byte_identical(self, case):
        n, _g, cg, fg, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, cg, size, size)).astype(np.float32)
        weight = _weight(rng, fg, cg, k)
        bias = rng.standard_normal(fg).astype(np.float32)
        want, _ = F.conv2d_forward(x, weight, bias, stride, padding, EXACT)
        got, _ = F.grouped_conv2d_forward(x, weight, bias, stride, padding, 1, EXACT)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=25, deadline=None)
    @given(conv_cases)
    def test_per_group_slicing_equals_reference(self, case):
        n, groups, cg, fg_mult, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c, f = groups * cg, groups * fg_mult
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        weight = _weight(rng, f, cg, k)
        bias = rng.standard_normal(f).astype(np.float32)
        want = _dense_reference(x, weight, bias, stride, padding, groups, EXACT)
        got, _ = F.grouped_conv2d_forward(
            x, weight, bias, stride, padding, groups, EXACT
        )
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=8, deadline=None)
    @given(conv_cases)
    def test_identities_hold_under_daism_arithmetic(self, case):
        n, groups, cg, fg_mult, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c, f = groups * cg, groups * fg_mult
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        weight = _weight(rng, f, cg, k)
        want = _dense_reference(x, weight, None, stride, padding, groups, DAISM)
        got, _ = F.grouped_conv2d_forward(
            x, weight, None, stride, padding, groups, DAISM
        )
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=15, deadline=None)
    @given(conv_cases)
    def test_backward_matches_per_group_dense(self, case):
        n, groups, cg, fg_mult, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c, f = groups * cg, groups * fg_mult
        fg = f // groups
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        weight = _weight(rng, f, cg, k)
        out, cols_cache = F.grouped_conv2d_forward(
            x, weight, None, stride, padding, groups, EXACT
        )
        grad = rng.standard_normal(out.shape).astype(np.float32)
        dx, dw, db = F.grouped_conv2d_backward(
            grad, x.shape, cols_cache, weight, stride, padding, groups, EXACT
        )
        assert dx.shape == x.shape and dw.shape == weight.shape and db.shape == (f,)
        for g in range(groups):
            xs = np.ascontiguousarray(x[:, g * cg : (g + 1) * cg])
            ws = weight[g * fg : (g + 1) * fg]
            _, cols = F.conv2d_forward(xs, ws, None, stride, padding, EXACT)
            gs = np.ascontiguousarray(grad[:, g * fg : (g + 1) * fg])
            dxs, dws, dbs = F.conv2d_backward(
                gs, xs.shape, cols, ws, stride, padding, EXACT
            )
            # Tight allclose, not byte equality: the grouped path feeds
            # BLAS contiguous per-group copies while the dense backward
            # can pass a transposed view, and BLAS accumulation order
            # (hence the last bit) depends on operand layout.
            np.testing.assert_allclose(
                dx[:, g * cg : (g + 1) * cg], dxs, rtol=1e-5, atol=1e-6
            )
            np.testing.assert_allclose(
                dw[g * fg : (g + 1) * fg], dws, rtol=1e-5, atol=1e-6
            )
            np.testing.assert_allclose(
                db[g * fg : (g + 1) * fg], dbs, rtol=1e-5, atol=1e-6
            )


class TestPackedChannelGather:
    @settings(max_examples=15, deadline=None)
    @given(conv_cases)
    def test_gather_slice_equals_pack_of_sliced_im2col(self, case):
        n, groups, cg, _fg, k, stride, padding, size, seed = case
        rng = np.random.default_rng(seed)
        c = groups * cg
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        packed = pack(x, BFLOAT16)
        for g in range(groups):
            sl = slice(g * cg, (g + 1) * cg)
            got = gather_packed_cols(
                packed, k, stride, padding, need_dense=True, channels=sl
            )
            want = pack(
                F.im2col(np.ascontiguousarray(x[:, sl]), k, stride, padding), BFLOAT16
            )
            np.testing.assert_array_equal(got.sign, want.sign)
            np.testing.assert_array_equal(got.exponent, want.exponent)
            np.testing.assert_array_equal(got.significand, want.significand)
            np.testing.assert_array_equal(
                got.scale().view(np.uint32), want.scale().view(np.uint32)
            )
            np.testing.assert_array_equal(
                got.dense().view(np.uint32), want.dense().view(np.uint32)
            )


class TestConv2dValidation:
    def test_groups_must_divide_in_channels(self):
        with pytest.raises(ValueError, match="groups"):
            Conv2d(7, 8, 3, groups=2)

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(ValueError, match="groups"):
            Conv2d(8, 7, 3, groups=2)

    def test_depthwise_weight_shape(self):
        conv = Conv2d(8, 8, 3, groups=8)
        assert conv.weight.data.shape == (8, 1, 3, 3)


# --------------------------------------------------------------------------
# Compiled plans: the native one-call path vs the per-group loop
# --------------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    not native_active(), reason="native C tier inactive (no compiler or disabled)"
)

def _native_backend(k_chunk=None):
    """The bit-exact native tier, optionally with a pinned K-chunk."""
    return ApproxMatmul(fmt=BFLOAT16, config=PC3_TR, kernel="float_table_native", k_chunk=k_chunk)


def _grouped_plan(rng, n_groups, cg, fg, k, stride, padding, k_chunk=None, bias=True):
    layer = Conv2d(
        n_groups * cg, n_groups * fg, k, stride=stride, padding=padding,
        groups=n_groups, bias=bias, rng=rng,
    )
    if bias:
        layer.bias.data[...] = rng.standard_normal(layer.bias.data.shape)
    plan = compile_plan(layer, _native_backend(k_chunk))
    (op,) = plan.ops
    assert isinstance(op, GroupedConvOp)
    return layer, plan, op


def _paths(op, x, total_batch=None):
    """``(one-call output or None, per-group loop output)`` for one input."""
    ctx = ExecContext(total_batch=len(x) if total_batch is None else total_batch)
    packed = pack(x, BFLOAT16)
    return op._apply_one_call(packed, ctx), op._apply_groups(x, packed, ctx)


def _assert_same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


native_cases = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(2, 4),  # groups
    st.integers(1, 3),  # channels per group
    st.integers(1, 3),  # filters per group
    st.sampled_from([1, 3]),  # kernel
    st.integers(1, 3),  # stride
    st.integers(0, 1),  # padding
    st.integers(5, 9),  # spatial size
    st.sampled_from([None, 1, 2, 4]),  # pinned k_chunk
    st.integers(0, 2**31 - 1),  # seed
)


@needs_native
class TestOneCallGroupedConv:
    @settings(max_examples=40, deadline=None)
    @given(native_cases)
    def test_one_call_equals_per_group_loop(self, case):
        n, n_groups, cg, fg, k, stride, padding, size, k_chunk, seed = case
        rng = np.random.default_rng(seed)
        layer, _plan, op = _grouped_plan(rng, n_groups, cg, fg, k, stride, padding, k_chunk)
        x = rng.standard_normal((n, n_groups * cg, size, size)).astype(np.float32)
        one, loop = _paths(op, x)
        if one is None:
            # Only the GEMM delegation rule may refuse well-scaled data.
            m = n * ((size + 2 * padding - k) // stride + 1) ** 2
            kg = cg * k * k
            chunk = k_chunk or default_k_chunk(m, fg)
            assert NativeGatherKernel._delegates(m, kg, fg, chunk, True)
        else:
            _assert_same(one, loop)
        with use_backend(_native_backend(k_chunk)):
            _assert_same(op.apply(x, ExecContext(total_batch=n)), layer(x))

    @pytest.mark.parametrize("k_chunk", [1, 2, 4, 5, 8])
    def test_chunk_boundary_inside_the_window(self, k_chunk):
        """K_g = 2 * 9 = 18 terms: pinned chunks split the (c, kh, kw) run."""
        rng = np.random.default_rng(k_chunk)
        _layer, _plan, op = _grouped_plan(rng, 3, 2, 2, 3, 1, 1, k_chunk=k_chunk)
        x = rng.standard_normal((2, 6, 7, 7)).astype(np.float32)
        one, loop = _paths(op, x)
        assert one is not None
        _assert_same(one, loop)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_unread_pixel_does_not_change_the_masks(self, stride):
        """Stride > kernel: an extreme exponent in a pixel no window reads."""
        rng = np.random.default_rng(stride)
        _layer, _plan, op = _grouped_plan(rng, 4, 1, 1, 1, stride, 0)
        x = rng.standard_normal((2, 4, 7, 7)).astype(np.float32)
        x[1, 2, 1, 1] = 3e38  # exponent 127: not f32-exact if it were read
        x[0, 3, 1, 2] = 1e-37  # exponent -123: would need the flush mask
        one, loop = _paths(op, x)
        assert one is not None
        _assert_same(one, loop)
        # Read, the same pixel makes its group's GEMM a delegated one.
        x[1, 2, 0, 0] = 3e38
        one, loop = _paths(op, x)
        assert one is None

    def test_ranges_cover_exactly_the_windows(self):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal((2, 6, 9, 9)) * 2.0 ** rng.integers(-60, 60, (2, 6, 9, 9))).astype(
            np.float32
        )
        packed = pack(x, BFLOAT16)
        for k, stride, padding in [(1, 2, 0), (1, 3, 0), (3, 2, 0), (3, 3, 1), (3, 1, 1), (2, 3, 0)]:
            emin, emax, sig_max = conv_ranges(packed.exponent, packed.significand, 3, k, stride, padding)
            top = 0
            for g in range(3):
                cols = gather_packed_cols(packed, k, stride, padding, channels=slice(2 * g, 2 * g + 2))
                assert emin[g] == cols.exponent.min(initial=0)
                assert emax[g] == cols.exponent.max(initial=0)
                top = max(top, int(cols.significand.max(initial=0)))
            assert sig_max == top

    def test_range_masks_regime_runs_natively_when_cout_g_gt_1(self):
        """Flush-regime groups with several filters run the generic C loop."""
        rng = np.random.default_rng(5)
        _layer, _plan, op = _grouped_plan(rng, 2, 2, 3, 3, 1, 1)
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        x[0, 1] *= np.float32(2.0**-120)  # products below 2^-126: flushed
        x[1, 2, 2, 2] = 3e38  # exponent 127: not f32-exact
        one, loop = _paths(op, x)
        assert one is not None
        _assert_same(one, loop)

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT8_E4M3], ids=lambda f: f.name)
    def test_narrow_formats_with_range_masks(self, fmt):
        """Flush and overflow masks of narrow formats, on the generic C loop."""
        rng = np.random.default_rng(13)
        layer = Conv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=rng)
        emax = fmt.max_exponent - fmt.bias
        layer.weight.data[...] *= np.float32(2.0 ** (emax // 2 + 1))
        backend = ApproxMatmul(fmt=fmt, config=PC3_TR, kernel="float_table_native")
        (op,) = compile_plan(layer, backend).ops
        x = (rng.standard_normal((2, 4, 7, 7)) * 2.0 ** rng.integers(-emax, emax, (2, 4, 7, 7))).astype(
            np.float32
        )
        ctx = ExecContext(total_batch=2)
        packed = pack(x, fmt)
        one, loop = op._apply_one_call(packed, ctx), op._apply_groups(x, packed, ctx)
        assert one is not None
        _assert_same(one, loop)
        with use_backend(backend):
            _assert_same(op.apply(x, ctx), layer(x))

    def test_non_f32_exact_depthwise_group_runs_per_group_loop(self, monkeypatch):
        rng = np.random.default_rng(6)
        _layer, _plan, op = _grouped_plan(rng, 4, 1, 1, 3, 1, 1)
        x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        x[1, 3, 2, 4] = 3e38
        ctx = ExecContext(total_batch=2)
        assert op._apply_one_call(pack(x, BFLOAT16), ctx) is None
        self._assert_loop_runs(op, x, ctx, monkeypatch)

    def test_one_row_column_block_runs_per_group_loop(self, monkeypatch):
        """``m % col_block == 1``: the transposed float_table regroups."""
        rng = np.random.default_rng(7)
        _layer, _plan, op = _grouped_plan(rng, 4, 1, 1, 3, 1, 1)
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)  # m = 25
        monkeypatch.setattr(kernels, "ROW_BUDGET", 36)  # col_block = 4
        ctx = ExecContext(total_batch=1)
        assert op._apply_one_call(pack(x, BFLOAT16), ctx) is None
        self._assert_loop_runs(op, x, ctx, monkeypatch)

    @staticmethod
    def _assert_loop_runs(op, x, ctx, monkeypatch):
        want = op._apply_groups(x, pack(x, BFLOAT16), ctx)

        def fail(*_args):
            raise AssertionError("one-call conv ran where a group delegates")

        monkeypatch.setattr(ops_mod, "grouped_conv", fail)
        _assert_same(op.apply(x, ctx), want)

    def test_kill_switch_runs_per_group_loop(self, monkeypatch):
        rng = np.random.default_rng(8)
        _layer, _plan, op = _grouped_plan(rng, 4, 1, 1, 3, 2, 1)
        x = rng.standard_normal((3, 4, 8, 8)).astype(np.float32)
        want = op.apply(x, ExecContext(total_batch=3))
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        ctx = ExecContext(total_batch=3)
        self._assert_loop_runs(op, x, ctx, monkeypatch)
        _assert_same(op.apply(x, ctx), want)

    def test_non_native_tiers_keep_per_group_weights(self):
        rng = np.random.default_rng(9)
        layer = Conv2d(4, 4, 3, groups=4, rng=rng)
        for backend in (DAISM_TABLE, EXACT, daism_backend(PC3_TR, BFLOAT16, kernel="blas_factored")):
            (op,) = compile_plan(layer, backend).ops
            assert op.stacked is None

    def test_weights_are_views_of_one_stack(self):
        rng = np.random.default_rng(10)
        _layer, _plan, op = _grouped_plan(rng, 3, 2, 2, 3, 1, 1)
        assert op.stacked.shape == (3, 18, 2)
        for g, strategy in enumerate(op.strategies):
            for plane in ("sign", "exponent", "significand"):
                view = getattr(strategy.weight, plane)
                assert np.shares_memory(view, getattr(op.stacked, plane))
                np.testing.assert_array_equal(view, getattr(op.stacked, plane)[g])
            assert np.shares_memory(strategy.weight.scale(), op.stacked.scale())

    def test_digest_covers_the_stacked_planes(self):
        rng = np.random.default_rng(12)
        _layer, plan, op = _grouped_plan(rng, 3, 1, 1, 3, 1, 1)
        before = plan_digest(plan)
        for plane in (op.stacked.significand, op.stacked.scale().view(np.uint32)):
            plane[1, 4, 0] ^= np.uint32(1)
            assert plan_digest(plan) != before
            plane[1, 4, 0] ^= np.uint32(1)
            assert plan_digest(plan) == before

    @pytest.mark.parametrize("shards", [2, 3])
    def test_batch_engine_shards_match(self, shards, monkeypatch):
        rng = np.random.default_rng(shards)
        module = Sequential(
            Conv2d(3, 6, 3, padding=1, rng=rng),
            Conv2d(6, 6, 3, stride=2, padding=1, groups=6, rng=rng),
            Conv2d(6, 12, 3, padding=1, groups=3, rng=rng),
        )
        plan = compile_plan(module, _native_backend())
        x = rng.standard_normal((7, 3, 12, 12)).astype(np.float32)
        whole = plan.execute(x)
        got = BatchEngine(plan, shards=shards).run(x)
        _assert_same(got, whole)
        with use_backend(_native_backend()):
            _assert_same(whole, module(x))
        monkeypatch.setattr(ops_mod, "native_active", lambda: False)
        _assert_same(BatchEngine(plan, shards=shards).run(x), whole)
