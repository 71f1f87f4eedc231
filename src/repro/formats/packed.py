"""Quantise-once packed tensors: the operand form the datapath streams.

On the accelerator, a tensor is decomposed exactly once when it is
written into SRAM — sign, exponent and significand land in separate bit
planes, and every product afterwards reads those planes directly
(Sec. III-C/IV-A of the paper).  The software stack mirrors that with
:class:`PackedTensor`: :func:`pack` runs ``quantize`` + ``decompose``
once, and the GEMM kernels in :mod:`repro.core.gemm` consume the planes
as-is.  Static weights are packed a single time and reused for every
matmul (see ``MatmulBackend.prepare`` and the weight caches in
:mod:`repro.nn.layers`).

For formats with 8 exponent bits the quantise+decompose is one fused
pass over the float32 bits.  When the native tier is active
(:func:`repro.core.native.native_active`) that pass runs in C, threaded
(:func:`repro.core.native.pack_e8`); otherwise :func:`_pack_fast_e8`
runs it in NumPy.  Both write the same five planes byte for byte.

The module keeps global packing counters so tests and the perf harness
can assert that a hot path performs *zero* re-quantise/decompose work.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from .floatfmt import FloatFormat, compose, decompose, quantize

__all__ = [
    "PackedTensor",
    "pack",
    "packing_counters",
    "reset_packing_counters",
]

#: Global instrumentation: how many times :func:`pack` ran and how many
#: elements it processed.  Read with :func:`packing_counters`; the perf
#: harness and the weight-cache tests use this to prove that cached
#: operands are never re-packed.
_COUNTERS = {"pack_calls": 0, "elements_packed": 0}
#: Guards the counters: shard-parallel execution packs activations from
#: several threads, and unsynchronised ``+=`` on a shared dict drops
#: increments (the read-modify-write is not atomic).
_COUNTERS_LOCK = threading.Lock()


def packing_counters() -> dict[str, int]:
    """A snapshot of the global pack-call counters (thread-safe)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def reset_packing_counters() -> None:
    """Reset the global pack-call counters to zero."""
    with _COUNTERS_LOCK:
        _COUNTERS["pack_calls"] = 0
        _COUNTERS["elements_packed"] = 0


@dataclasses.dataclass(eq=False, repr=False)
class PackedTensor:
    """A tensor decomposed into sign/exponent/significand planes.

    Parameters
    ----------
    fmt:
        The :class:`~repro.formats.floatfmt.FloatFormat` the values were
        quantised to before decomposition.
    sign:
        ``uint32`` plane of 0/1 sign bits.
    exponent:
        ``int32`` plane of unbiased exponents (0 for zeros).
    significand:
        ``uint32`` plane of ``fmt.significand_bits``-wide integers with
        the implicit leading one set (0 for zeros).

    All three planes share one shape.  Instances are produced by
    :func:`pack`; the planes are the *only* operand representation the
    packed GEMM kernels touch, so building a ``PackedTensor`` up front
    amortises the whole quantise+decompose front end across every
    subsequent product.
    """

    fmt: FloatFormat
    sign: np.ndarray
    exponent: np.ndarray
    significand: np.ndarray

    def __post_init__(self) -> None:
        if not (self.sign.shape == self.exponent.shape == self.significand.shape):
            raise ValueError(
                "plane shapes differ: "
                f"{self.sign.shape} / {self.exponent.shape} / {self.significand.shape}"
            )
        self._dense: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.significand.shape

    @property
    def ndim(self) -> int:
        return self.significand.ndim

    @property
    def size(self) -> int:
        return self.significand.size

    def unpack(self) -> np.ndarray:
        """Recompose the float32 values (equals ``quantize(src, fmt)``)."""
        return compose(
            self.sign, self.exponent, self.significand.astype(np.uint64), self.fmt
        )

    def dense(self) -> np.ndarray:
        """The recomposed float32 array, computed once and cached.

        Backends that need the quantised *values* rather than the planes
        (e.g. ``QuantizedMatmul``) read this; repeated calls are free.
        """
        if self._dense is None:
            self._dense = self.unpack()
        return self._dense

    def scale(self) -> np.ndarray:
        """The signed power-of-two plane ``(-1)^sign * 2^exponent``.

        This is the exact per-element scale factor the float-domain GEMM
        kernels multiply against the value table; it is computed once
        and cached (:func:`pack` derives it for free from the quantised
        bit pattern).  Zero elements carry a signed zero, nonzero
        elements an exact float32 power of two.
        """
        if self._scale is None:
            scale = np.ldexp(
                np.where(self.sign, np.float32(-1.0), np.float32(1.0)), self.exponent
            ).astype(np.float32)
            zero = self.significand == 0
            if np.any(zero):
                bits = scale.view(np.uint32)
                bits[zero] &= np.uint32(0x8000_0000)
            self._scale = scale
        return self._scale

    def reshape(self, *shape: int) -> "PackedTensor":
        """A view of the same planes with a new shape (numpy semantics)."""
        out = PackedTensor(
            self.fmt,
            self.sign.reshape(*shape),
            self.exponent.reshape(*shape),
            self.significand.reshape(*shape),
        )
        out._dense = None if self._dense is None else self._dense.reshape(*shape)
        out._scale = None if self._scale is None else self._scale.reshape(*shape)
        return out

    def __repr__(self) -> str:
        return f"PackedTensor(fmt={self.fmt.name}, shape={self.shape})"


def _pack_fast_e8(arr: np.ndarray, fmt: FloatFormat) -> PackedTensor | None:
    """Single-pass quantise+decompose for full-exponent-range formats.

    For formats with 8 exponent bits (bfloat16, float32 and custom e8
    widths) round-to-nearest-even, plane extraction, the dense quantised
    values and the kernel scale plane all derive from one rounded uint32
    bit pattern — about half the passes of ``quantize`` + ``decompose``.
    Byte-identical to that pipeline for finite values, including its
    flush of float32 subnormals to *unsigned* zero (a tiny negative
    flushes to +0, while a true -0.0 input keeps its sign).  Returns
    ``None`` when any input is non-finite: those rare tensors take the
    generic ``quantize`` + ``decompose`` route, which defines the
    behaviour for specials.  (The check must run on the *pre-rounding*
    bits — rounding a NaN payload can carry past the sign bit and wrap
    the pattern into an innocuous-looking one.)
    """
    shift = np.uint32(23 - fmt.mantissa_bits)
    if shift:
        # Rounding allocates fresh arrays, so viewing the caller's data
        # is safe — nothing cached aliases it.
        bits = np.ascontiguousarray(arr, dtype=np.float32).view(np.uint32)
        if np.any((bits & np.uint32(0x7F80_0000)) == np.uint32(0x7F80_0000)):
            return None
        lsb = (bits >> shift) & np.uint32(1)
        rounded = bits + np.uint32((1 << (int(shift) - 1)) - 1) + lsb
        rounded &= ~np.uint32((1 << int(shift)) - 1)
    else:
        # float32 passes through untouched: copy so the cached
        # planes/dense never alias the caller's data.
        bits = np.array(arr, dtype=np.float32, copy=True).view(np.uint32)
        if np.any((bits & np.uint32(0x7F80_0000)) == np.uint32(0x7F80_0000)):
            return None
        rounded = bits

    biased = ((rounded >> np.uint32(23)) & np.uint32(0xFF)).astype(np.int32)
    zero = biased == 0
    if fmt.mantissa_bits == 23:
        # float32 passes through quantize() unflushed: subnormal *values*
        # survive in the dense array (the planes still flush them).
        sign = (rounded >> np.uint32(31)).astype(np.uint32)
        dense = rounded.view(np.float32)
    else:
        # quantize() flushes rounded-subnormal magnitudes through
        # `np.where(..., 0.0)`, which drops the sign; exact ±0 (input
        # zeros, or tiny values whose mantissa rounds to zero) keep it.
        sign = np.where(
            zero & ((rounded & np.uint32(0x7FFF_FFFF)) != 0),
            np.uint32(0),
            rounded >> np.uint32(31),
        ).astype(np.uint32)
        dense = np.where(zero, sign << np.uint32(31), rounded).view(np.float32)
    exponent = np.where(zero, np.int32(0), biased - np.int32(127)).astype(np.int32)
    significand = np.where(
        zero,
        np.uint32(0),
        ((rounded & np.uint32(0x007F_FFFF)) >> shift)
        | np.uint32(1 << fmt.mantissa_bits),
    ).astype(np.uint32)
    scale = np.where(
        zero, sign << np.uint32(31), rounded & np.uint32(0xFF80_0000)
    ).view(np.float32)

    packed = PackedTensor(fmt, sign, exponent, significand)
    packed._dense = dense
    packed._scale = scale
    return packed


def _pack_e8(arr: np.ndarray, fmt: FloatFormat) -> PackedTensor | None:
    """:func:`_pack_fast_e8`, run by its native twin when that tier is active.

    The native pack (:func:`repro.core.native.pack_e8`) writes the same
    five planes in one threaded pass over the float32 bits and reports
    non-finite input the same way (``None``).
    """
    # Imported here: repro.core imports this module.
    from ..core.native import native_active, pack_e8

    if not native_active():
        return _pack_fast_e8(arr, fmt)
    planes = pack_e8(arr, fmt.mantissa_bits)
    if planes is None:
        return None
    sign, exponent, significand, dense, scale = planes
    packed = PackedTensor(fmt, sign, exponent, significand)
    packed._dense = dense
    packed._scale = scale
    return packed


def pack(values: np.ndarray, fmt: FloatFormat) -> "PackedTensor":
    """Quantise ``values`` to ``fmt`` and decompose into planes, once.

    This is the single entry point through which float tensors enter the
    packed arithmetic pipeline — its call count is tracked in the global
    packing counters precisely so callers can verify a value was packed
    only once.  Formats with a full 8-bit exponent take a fused
    single-pass route (byte-identical to ``quantize`` + ``decompose`` for
    finite inputs): the native C pack when the native tier is active,
    else :func:`_pack_fast_e8`.  Narrower exponent ranges, and tensors
    holding a NaN or Inf, go through the generic pipeline.
    """
    if isinstance(values, PackedTensor):
        raise TypeError("values are already packed; pack() expects a float array")
    arr = np.asarray(values, dtype=np.float32)
    with _COUNTERS_LOCK:
        _COUNTERS["pack_calls"] += 1
        _COUNTERS["elements_packed"] += arr.size
    if fmt.exponent_bits == 8:
        fast = _pack_e8(arr, fmt)
        if fast is not None:
            return fast
    quantised = quantize(arr, fmt)
    sign, exponent, significand = decompose(quantised, fmt)
    packed = PackedTensor(fmt, sign, exponent, significand.astype(np.uint32))
    packed._dense = quantised
    return packed
