"""Tests for the GEMM kernel registry (repro.core.kernels).

The heart of the contract: the ``float_table`` default is byte-identical
to the per-element ``generic`` pipeline and to a scalar ``core.mantissa``
reference across every Table I config — including subnormal-flush,
inf-overflow and signed-zero edge cases — while the ``blas_factored``
fast path stays within its documented parity tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FLA, PC3, PC3_TR, all_configs
from repro.core.kernels import (
    BlasFactoredKernel,
    _normalised_products,
    default_k_chunk,
    exact_tier_name,
    factored_tables,
    get_kernel,
    kernel_names,
    register_kernel,
    reset_table_cache_counters,
    select_kernel,
    table_cache_counters,
    value_table,
)
from repro.core.mantissa import approx_multiply, exact_multiply
from repro.formats.floatfmt import (
    BFLOAT16,
    FLOAT8_E4M3,
    FLOAT16,
    FLOAT32,
    decompose,
    quantize,
)
from repro.formats.packed import pack


def _scalar_reference(a, b, fmt, config, k_chunk=None):
    """Ground-truth GEMM from the scalar core.mantissa multiplier.

    Mirrors the kernels' accumulation contract exactly: terms of one
    K-chunk are summed sequentially, chunk partials are added to the
    accumulator in order.  ``config=None`` selects exact significand
    products (the quantised backend's semantics).
    """
    aq = quantize(a, fmt)
    bq = quantize(b, fmt)
    sa, ea, ma = decompose(aq, fmt)
    sb, eb, mb = decompose(bq, fmt)
    bits = fmt.significand_bits
    emax = fmt.max_exponent - fmt.bias
    emin = 1 - fmt.bias
    m, k = aq.shape
    n = bq.shape[1]
    k_chunk = k_chunk or k

    def product_value(mx, my, sign, exp):
        if mx == 0 or my == 0:
            return np.float32(-0.0) if sign else np.float32(0.0)
        if config is None:
            product = exact_multiply(mx, my, bits)
            truncated = False
        else:
            product = approx_multiply(mx, my, bits, config)
            truncated = config.truncated
        if truncated:
            if product >> (bits - 1):
                sig, e = product, exp + 1
            else:
                sig, e = product << 1, exp
        else:
            if product >> (2 * bits - 1):
                sig, e = product >> bits, exp + 1
            else:
                sig, e = product >> (bits - 1), exp
        if sig == 0:
            return np.float32(-0.0) if sign else np.float32(0.0)
        if e > emax:
            return np.float32(-np.inf) if sign else np.float32(np.inf)
        if e < emin:
            return np.float32(-0.0) if sign else np.float32(0.0)
        frac = (sig & ((1 << fmt.mantissa_bits) - 1)) << (23 - fmt.mantissa_bits)
        word = (sign << 31) | ((e + 127) << 23) | frac
        return np.uint32(word).view(np.float32)

    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            total = np.float32(0.0)
            for c0 in range(0, k, k_chunk):
                partial = np.float32(0.0)
                for t in range(c0, min(k, c0 + k_chunk)):
                    sign = int(sa[i, t]) ^ int(sb[t, j])
                    exp = int(ea[i, t]) + int(eb[t, j])
                    term = product_value(int(ma[i, t]), int(mb[t, j]), sign, exp)
                    partial = np.float32(partial + term)
                total = np.float32(total + partial)
            out[i, j] = total
    return out


def _extreme_operands(rng, shape, zero_frac=0.1):
    """Finite operands spanning the full bfloat16 exponent range."""
    exponents = rng.integers(-126, 127, shape).astype(np.float64)
    values = (rng.standard_normal(shape) * 2.0**exponents).astype(np.float32)
    values[rng.random(shape) < zero_frac] = 0.0
    values[rng.random(shape) < zero_frac] = -0.0
    return values


class TestRegistry:
    def test_builtin_kernels_registered(self):
        assert {
            "float_table",
            "float_table_native",
            "blas_factored",
            "blas_factored_fast",
            "generic",
        } <= set(kernel_names())

    def test_get_kernel_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown GEMM kernel"):
            get_kernel("no_such_kernel")

    def test_default_selection_by_format(self):
        # The default tier is native when the C tier is active, else float_table
        # — exact_tier_name is the single source of truth either way.
        assert select_kernel(BFLOAT16, PC3_TR).name == exact_tier_name(BFLOAT16)
        assert exact_tier_name(BFLOAT16) in ("float_table", "float_table_native")
        assert select_kernel(FLOAT32, PC3_TR).name == "generic"
        assert exact_tier_name(FLOAT32) == "generic"

    def test_named_selection_validates_support(self):
        assert select_kernel(BFLOAT16, PC3_TR, "blas_factored").name == "blas_factored"
        with pytest.raises(ValueError, match="does not support"):
            select_kernel(FLOAT32, PC3_TR, "float_table")

    def test_register_kernel_roundtrip(self):
        class Probe(get_kernel("generic").__class__):
            name = "probe_kernel"

        try:
            register_kernel(Probe())
            assert get_kernel("probe_kernel").name == "probe_kernel"
        finally:
            from repro.core import kernels as module

            module._KERNELS.pop("probe_kernel", None)

    def test_bit_exact_flags(self):
        assert get_kernel("float_table").bit_exact
        assert get_kernel("float_table_native").bit_exact
        assert get_kernel("generic").bit_exact
        assert not get_kernel("blas_factored").bit_exact


class TestFloatTableParity:
    """float_table == generic == scalar reference, byte for byte."""

    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_extreme_exponents_byte_identical_to_fused(self, config):
        # The reference is the per-element ``generic`` pipeline.
        rng = np.random.default_rng(0)
        a = _extreme_operands(rng, (23, 37))
        b = _extreme_operands(rng, (37, 11))
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        for k_chunk in (7, 37):
            want = get_kernel("generic").run(pa, pb, config, k_chunk)
            got = get_kernel("float_table").run(pa, pb, config, k_chunk)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
    def test_byte_identical_to_scalar_reference(self, config):
        rng = np.random.default_rng(1)
        a = _extreme_operands(rng, (5, 9))
        b = _extreme_operands(rng, (9, 3))
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        for k_chunk in (4, 9):
            want = _scalar_reference(a, b, BFLOAT16, config, k_chunk)
            got = get_kernel("float_table").run(pa, pb, config, k_chunk)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_subnormal_flush_is_signed_zero_free(self):
        # Products of the smallest normals underflow the format: the
        # datapath flushes them to zero rather than keeping subnormals.
        a = np.full((1, 4), np.float32(2.0**-120))
        b = np.full((4, 1), np.float32(2.0**-30))
        got = get_kernel("float_table").run(
            pack(a, BFLOAT16), pack(b, BFLOAT16), PC3_TR, 4
        )
        assert got[0, 0] == 0.0
        want = _scalar_reference(a, b, BFLOAT16, PC3_TR)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_overflow_saturates_to_inf(self):
        a = np.full((1, 2), np.float32(2.0**100))
        b = np.full((2, 1), np.float32(2.0**60))
        got = get_kernel("float_table").run(
            pack(a, BFLOAT16), pack(b, BFLOAT16), PC3, 2
        )
        assert np.isinf(got[0, 0]) and got[0, 0] > 0
        want = _scalar_reference(a, b, BFLOAT16, PC3)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_signed_zero_rows(self):
        a = np.array([[0.0, -0.0, 0.0]], dtype=np.float32)
        b = np.array([[1.0], [-2.0], [3.0]], dtype=np.float32)
        want = _scalar_reference(a, b, BFLOAT16, FLA)
        got = get_kernel("float_table").run(pack(a, BFLOAT16), pack(b, BFLOAT16), FLA, 3)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_transposed_orientation_matches_standard(self):
        # Tall-skinny shapes take the transposed path; forcing the
        # standard orientation must give identical bits.
        kernel = get_kernel("float_table")
        rng = np.random.default_rng(2)
        a = rng.standard_normal((640, 13)).astype(np.float32)
        b = rng.standard_normal((13, 5)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        assert 640 >= kernel.TRANSPOSE_ASPECT * 5  # transposed path active
        got = kernel.run(pa, pb, PC3_TR, 13)
        aspect = kernel.TRANSPOSE_ASPECT
        try:
            type(kernel).TRANSPOSE_ASPECT = 10**9  # force standard path
            want = kernel.run(pa, pb, PC3_TR, 13)
        finally:
            type(kernel).TRANSPOSE_ASPECT = aspect
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("fmt", [FLOAT16, FLOAT8_E4M3], ids=lambda f: f.name)
    def test_narrow_exponent_formats(self, fmt):
        rng = np.random.default_rng(3)
        a = (rng.standard_normal((6, 8)) * 2.0 ** rng.integers(-8, 8, (6, 8))).astype(
            np.float32
        )
        b = (rng.standard_normal((8, 4)) * 2.0 ** rng.integers(-8, 8, (8, 4))).astype(
            np.float32
        )
        pa, pb = pack(a, fmt), pack(b, fmt)
        want = get_kernel("generic").run(pa, pb, PC3_TR, 8)
        got = get_kernel("float_table").run(pa, pb, PC3_TR, 8)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        config=st.sampled_from(all_configs()),
        scale=st.integers(min_value=0, max_value=120),
        m=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_property_byte_identical_to_scalar_reference(
        self, seed, config, scale, m, k, n
    ):
        """The acceptance property: float_table == scalar mantissa pipeline.

        Exponents are drawn up to ±``scale``, so examples cover the
        subnormal-flush and inf-overflow regimes as well as the
        well-conditioned fast path; zeros of both signs are mixed in.
        """
        rng = np.random.default_rng(seed)
        a = (
            rng.standard_normal((m, k)) * 2.0 ** rng.integers(-scale - 6, scale + 1, (m, k))
        ).astype(np.float32)
        b = (
            rng.standard_normal((k, n)) * 2.0 ** rng.integers(-scale - 6, scale + 1, (k, n))
        ).astype(np.float32)
        a[rng.random((m, k)) < 0.2] = 0.0
        b[rng.random((k, n)) < 0.2] = -0.0
        want = _scalar_reference(a, b, BFLOAT16, config)
        got = get_kernel("float_table").run(pack(a, BFLOAT16), pack(b, BFLOAT16), config, k)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestBlasFactored:
    def test_within_documented_tolerance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((96, 128)).astype(np.float32)
        b = rng.standard_normal((128, 32)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        k_chunk = default_k_chunk(96, 32)
        want = get_kernel("float_table").run(pa, pb, PC3_TR, k_chunk)
        got = get_kernel("blas_factored").run(pa, pb, PC3_TR, k_chunk)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        # Documented parity contract: well below the ~7% approximation
        # error of the multiplier itself.
        assert rel < 0.01

    def test_correction_improves_on_exact_only(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((48, 64)).astype(np.float32)
        b = rng.standard_normal((64, 16)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        k_chunk = default_k_chunk(48, 16)
        want = get_kernel("float_table").run(pa, pb, PC3_TR, k_chunk)
        corrected = get_kernel("blas_factored").run(pa, pb, PC3_TR, k_chunk)
        exact_only = BlasFactoredKernel(rank=0).run(pa, pb, PC3_TR, k_chunk)
        err_corrected = np.linalg.norm(corrected - want)
        err_exact_only = np.linalg.norm(exact_only - want)
        assert err_corrected < err_exact_only / 3

    def test_rank_zero_is_quantised_dense_product(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 9)).astype(np.float32)
        b = rng.standard_normal((9, 5)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        got = BlasFactoredKernel(rank=0).run(pa, pb, PC3_TR, 9)
        want = pa.dense() @ pb.dense()
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_correction_info_reports_rank_and_residual(self):
        info = get_kernel("blas_factored").correction_info(BFLOAT16, PC3_TR)
        assert info["rank"] > 0
        assert 0.0 <= info["rel_frobenius_residual"] <= 0.05

    def test_factored_tables_error_rows_vanish_at_zero_index(self):
        fa, fb, _info = factored_tables(8, PC3_TR)
        # E[0, :] == E[:, 0] == 0 exactly, so the factors must (nearly)
        # vanish at index 0 — zero operands get no correction.
        assert np.abs(fa[:, 0]).max() < 1e-6
        assert np.abs(fb[:, 0]).max() < 1e-6


class TestValueTables:
    def test_value_table_matches_fused_entries(self):
        v = value_table(8, PC3_TR)
        _sig, _bump, nonzero = _normalised_products(8, PC3_TR)
        # Nonzero exactly where the significand product is; for *valid*
        # operand indices (MSB set, as decompose produces) values lie in
        # [1, 4).
        assert np.array_equal(v > 0, nonzero)
        valid = v[128:, 128:]
        assert valid.min() >= 1.0 and valid.max() < 4.0

    def test_exact_config_none_table(self):
        v = value_table(4, None)
        # exact normalised products: entry [a, b] ~= a*b / 2^(2*(bits-1)),
        # with the untruncated pipeline's one-position normalise drop.
        a, b = 9, 11  # 4-bit significands
        exact = (a * b) / 2.0 ** (2 * (4 - 1))
        assert abs(v[a, b] - exact) / exact < 2.0**-3

    def test_cache_hit_counters(self):
        value_table(8, FLA)  # ensure built
        reset_table_cache_counters()
        value_table(8, FLA)
        value_table(8, FLA)
        counters = table_cache_counters()
        assert counters["hits"] == 2 and counters["misses"] == 0

    def test_repeated_backend_construction_reuses_cached_table(self):
        """Satellite: rebuilding a backend must never rebuild its table."""
        from repro.nn.backend import daism_backend

        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        daism_backend(PC3_TR, BFLOAT16).matmul(a, b)  # warm the cache
        reset_table_cache_counters()
        for _ in range(3):
            backend = daism_backend(PC3_TR, BFLOAT16)  # fresh object each time
            backend.matmul(a, b)
        counters = table_cache_counters()
        assert counters["misses"] == 0
        assert counters["hits"] >= 3


class TestChunkPolicy:
    def test_default_k_chunk_formula_pinned(self):
        # The K split is part of the bit-exact contract: the historical
        # 2^22-element budget must not drift.
        assert default_k_chunk(256, 64) == (1 << 22) // (256 * 64)
        assert default_k_chunk(1, 1) == 1 << 22
        assert default_k_chunk(10**9, 10**9) == 1

    def test_row_blocking_is_bit_neutral(self, monkeypatch):
        from repro.core import kernels

        rng = np.random.default_rng(8)
        a = rng.standard_normal((37, 19)).astype(np.float32)
        b = rng.standard_normal((19, 7)).astype(np.float32)
        pa, pb = pack(a, BFLOAT16), pack(b, BFLOAT16)
        kernel = get_kernel("float_table")
        want = kernel.run(pa, pb, PC3_TR, 19)
        for budget in (1, 64, 1 << 20):
            monkeypatch.setattr(kernels, "ROW_BUDGET", budget)
            got = kernel.run(pa, pb, PC3_TR, 19)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestBackendPlumbing:
    def test_approx_matmul_kernel_argument(self):
        from repro.core.gemm import approx_matmul

        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        default = approx_matmul(a, b, BFLOAT16, PC3_TR)
        generic = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="generic")
        np.testing.assert_array_equal(default.view(np.uint32), generic.view(np.uint32))
        blas = approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="blas_factored")
        rel = np.linalg.norm(blas - default) / np.linalg.norm(default)
        assert rel < 0.01
        with pytest.raises(ValueError, match="unknown GEMM kernel"):
            approx_matmul(a, b, BFLOAT16, PC3_TR, kernel="bogus")

    def test_daism_backend_kernel_plumbing(self):
        from repro.nn.backend import daism_backend

        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 5, 8)).astype(np.float32)
        b = rng.standard_normal((8, 3)).astype(np.float32)
        default = daism_backend(PC3_TR, BFLOAT16).matmul(a, b)
        generic = daism_backend(PC3_TR, BFLOAT16, kernel="generic").matmul(a, b)
        assert generic.shape == (2, 5, 3)
        np.testing.assert_array_equal(default.view(np.uint32), generic.view(np.uint32))

    def test_quantized_backend_kernel_routes_exact_products(self):
        from repro.nn.backend import quantized_backend

        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        dense = quantized_backend(BFLOAT16).matmul(a, b)
        via_kernel = quantized_backend(BFLOAT16, kernel="float_table").matmul(a, b)
        # The kernel path re-normalises every product to the format's
        # significand width (datapath semantics), so it deviates from
        # full-precision BLAS by at most ~2^-bits per product.
        np.testing.assert_allclose(via_kernel, dense, rtol=0.02, atol=1e-5)
        # And byte-identical to the scalar reference with exact products.
        want = _scalar_reference(a, b, BFLOAT16, None)
        np.testing.assert_array_equal(
            via_kernel.view(np.uint32), want.view(np.uint32)
        )


class TestKernelSpeedupExperiment:
    def test_registered_and_rows_shape(self):
        from repro.experiments import get_experiment

        exp = get_experiment("kernel_speedup")
        rows = exp.run(dict(exp.defaults, config="PC3_tr"))
        by_kernel = {row["kernel"]: row for row in rows}
        assert {"float_table", "generic", "blas_factored"} <= set(by_kernel)
        assert by_kernel["float_table"]["byte-identical to default"] == "yes"
        assert by_kernel["generic"]["byte-identical to default"] == "yes"
        assert by_kernel["blas_factored"]["bit_exact contract"] == "no (tolerance)"
        for row in rows:
            assert row["table rebuilds on reuse"] == 0
