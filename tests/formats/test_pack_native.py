"""Parity of the native one-pass pack with the NumPy ``_pack_fast_e8``.

``repro_pack_e8`` (``core/native/gather.c``) must write the same five
planes — sign, exponent, significand, dense and scale — byte for byte as
:func:`repro.formats.packed._pack_fast_e8`, for every 8-exponent-bit
format, on any thread count, and report non-finite input the same way
(``None``, so :func:`~repro.formats.packed.pack` takes the generic
route).  The kill switch must put ``pack`` back on the NumPy fast path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import gather, native_active
from repro.formats import packed as packed_mod
from repro.formats.floatfmt import BFLOAT16, FLOAT32, FloatFormat, decompose, quantize
from repro.formats.packed import (
    _pack_fast_e8,
    pack,
    packing_counters,
    reset_packing_counters,
)

E8M10 = FloatFormat("e8m10", exponent_bits=8, mantissa_bits=10)
E8_FORMATS = [BFLOAT16, FLOAT32, E8M10]

needs_native = pytest.mark.skipif(
    not native_active(), reason="native C tier inactive (no compiler or disabled)"
)

#: Bit patterns at the edges of the e8 pipeline.
EDGE_BITS = np.array(
    [
        0x00000000, 0x80000000,  # +-0
        0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF,  # subnormals
        0x00400000, 0x80400000,  # subnormals, tiny negatives flush to +0
        0x00800000, 0x80800000,  # smallest normals
        0x007F8000, 0x007F7FFF,  # subnormals at and below the rounding tie
        0x3F7FFFFF, 0xBF7FFFFF,  # rounding carries into the exponent
        0x3F808000, 0x3F818000,  # ties to even, both ways
        0x7F7FFFFF, 0xFF7FFFFF,  # largest finite: rounds up to the inf pattern
        0x7F7F8000, 0x7F7F7FFF,  # just above / below the rounding edge
        0x3F800000, 0xBF800000,
    ],
    dtype=np.uint32,
)


def _planes(packed):
    return (
        packed.sign,
        packed.exponent,
        packed.significand,
        packed._dense.view(np.uint32),
        packed._scale.view(np.uint32),
    )


def _native(arr, fmt):
    planes = gather.pack_e8(arr, fmt.mantissa_bits)
    if planes is None:
        return None
    return tuple(np.asarray(p).view(np.uint32) if p.dtype == np.float32 else p for p in planes)


def _assert_parity(arr, fmt):
    want = _pack_fast_e8(arr, fmt)
    got = _native(arr, fmt)
    if want is None:
        assert got is None
        return
    assert got is not None
    for g, w, name in zip(got, _planes(want), ("sign", "exponent", "significand", "dense", "scale")):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name)


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_packing_counters()
    yield
    reset_packing_counters()


@needs_native
class TestNativePackParity:
    @pytest.mark.parametrize("fmt", E8_FORMATS, ids=lambda f: f.name)
    def test_edge_bit_patterns(self, fmt):
        _assert_parity(EDGE_BITS.view(np.float32), fmt)

    @pytest.mark.parametrize("fmt", E8_FORMATS, ids=lambda f: f.name)
    def test_full_range_values(self, fmt):
        rng = np.random.default_rng(3)
        x = (
            rng.standard_normal((33, 65))
            * 2.0 ** rng.integers(-150, 128, (33, 65)).astype(np.float64)
        ).astype(np.float32)
        x[~np.isfinite(x)] = 0.0
        _assert_parity(x, fmt)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
        st.sampled_from(E8_FORMATS),
    )
    def test_hypothesis_bit_patterns(self, words, fmt):
        """Any uint32 pattern; non-finite ones make both return ``None``."""
        _assert_parity(np.array(words, dtype=np.uint32).view(np.float32), fmt)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
        st.sampled_from(E8_FORMATS),
    )
    def test_hypothesis_finite_patterns(self, words, fmt):
        bits = np.array(words, dtype=np.uint32)
        bits[(bits & 0x7F800000) == 0x7F800000] &= np.uint32(0x807FFFFF)
        _assert_parity(bits.view(np.float32), fmt)

    @pytest.mark.parametrize("fmt", E8_FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_reports_none(self, fmt, special):
        x = np.ones(100, dtype=np.float32)
        x[57] = special
        assert gather.pack_e8(x, fmt.mantissa_bits) is None

    @pytest.mark.parametrize("special", [np.nan, np.inf])
    def test_non_finite_input_takes_generic_route(self, special):
        x = np.linspace(-3, 3, 50, dtype=np.float32)
        x[7] = special
        got = pack(x, BFLOAT16)
        want = quantize(x, BFLOAT16)
        sign, exponent, significand = decompose(want, BFLOAT16)
        np.testing.assert_array_equal(got.dense().view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(got.sign, sign)
        np.testing.assert_array_equal(got.exponent, exponent)
        np.testing.assert_array_equal(got.significand, significand.astype(np.uint32))

    @pytest.mark.parametrize(
        "size",
        [1, gather.PACK_PARALLEL_MIN_ELEMENTS - 1, 4 * gather.PACK_PARALLEL_MIN_ELEMENTS + 3],
    )
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_thread_crossover_and_counts(self, size, threads, monkeypatch):
        """Below and above the crossover, on several thread counts."""
        monkeypatch.setattr(gather, "native_threads", lambda: threads)
        rng = np.random.default_rng(size)
        x = (rng.standard_normal(size) * 2.0 ** rng.integers(-140, 127, size)).astype(np.float32)
        x[rng.random(size) < 0.05] = 0.0
        x[rng.random(size) < 0.05] = -0.0
        for fmt in E8_FORMATS:
            _assert_parity(x, fmt)

    def test_special_in_last_slice_is_reported(self, monkeypatch):
        monkeypatch.setattr(gather, "native_threads", lambda: 2)
        x = np.ones(4 * gather.PACK_PARALLEL_MIN_ELEMENTS, dtype=np.float32)
        x[-1] = np.nan
        assert gather.pack_e8(x, 7) is None

    def test_shapes_and_dtypes_preserved(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
        got = pack(x, BFLOAT16)
        assert got.shape == (2, 3, 4)
        assert got.dense().shape == got.scale().shape == (2, 3, 4)
        assert (got.sign.dtype, got.exponent.dtype, got.significand.dtype) == (
            np.uint32, np.int32, np.uint32,
        )
        assert got.dense().dtype == got.scale().dtype == np.float32
        # Non-contiguous input packs the same as its contiguous copy.
        _assert_parity(np.asarray(x.transpose(2, 0, 1)), BFLOAT16)

    def test_pack_uses_native_and_counts_every_call(self, monkeypatch):
        calls = []
        original = gather.pack_e8
        monkeypatch.setattr(
            gather, "pack_e8", lambda arr, bits: calls.append(arr.size) or original(arr, bits)
        )
        import repro.core.native as native

        monkeypatch.setattr(native, "pack_e8", gather.pack_e8)
        x = np.ones((3, 5), dtype=np.float32)
        pack(x, BFLOAT16)
        pack(x, FLOAT32)
        pack(x, E8M10)
        assert calls == [15, 15, 15]
        assert packing_counters() == {"pack_calls": 3, "elements_packed": 45}


class TestKillSwitch:
    def test_disabled_pack_uses_numpy_fast_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        import repro.core.native as native

        def fail(*_args):
            raise AssertionError("native pack ran with the kill switch set")

        monkeypatch.setattr(native, "pack_e8", fail)
        fast_calls = []
        original = packed_mod._pack_fast_e8
        monkeypatch.setattr(
            packed_mod,
            "_pack_fast_e8",
            lambda arr, fmt: fast_calls.append(fmt.name) or original(arr, fmt),
        )
        x = np.random.default_rng(1).standard_normal(40).astype(np.float32)
        got = pack(x, BFLOAT16)
        assert fast_calls == ["bfloat16"]
        assert packing_counters() == {"pack_calls": 1, "elements_packed": 40}
        want = quantize(x, BFLOAT16)
        np.testing.assert_array_equal(got.dense().view(np.uint32), want.view(np.uint32))
