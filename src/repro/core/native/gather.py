"""Call the native C entry points: operand checks, thread count, ``ctypes`` call.

The functions here run the entry points of ``gather.c`` (built and
loaded by :mod:`repro.core.native.build`) on the packed planes as
:class:`~repro.formats.packed.PackedTensor` stores them — uint32
significand indices and float32 scale planes, no ``intp`` copies — and
the value table ``V0`` indexed ``[ma, mb]`` directly, so no transposed
table is ever needed.

* :func:`gather_gemm` — the value-table GEMM, the twin of
  :class:`~repro.core.kernels.FloatTableKernel`; output rows are split
  across threads.
* :func:`pack_e8` — the one-pass twin of
  :func:`repro.formats.packed._pack_fast_e8`; elements are split across
  threads.
* :func:`conv_ranges` and :func:`grouped_conv` — a grouped/depthwise
  convolution computed directly on a packed NCHW image: the per-group
  exponent ranges its range masks need, then one call that runs every
  group's GEMM with im2col's terms and writes NCHW; whole (sample,
  group) pairs are split across threads.

Every loop keeps the kernel contract (see the C source header), so the
thread split is bit-neutral.  Threads: :func:`native_threads`, but a call
below :data:`PARALLEL_MIN_MACS` (GEMMs and convolutions) or
:data:`PACK_PARALLEL_MIN_ELEMENTS` (packing) runs on the calling thread
alone, where creating and joining threads would cost more than it saves.
"""

from __future__ import annotations

import os

import numpy as np

from .build import loaded

__all__ = [
    "PACK_PARALLEL_MIN_ELEMENTS",
    "PARALLEL_MIN_MACS",
    "conv_ranges",
    "gather_gemm",
    "grouped_conv",
    "native_threads",
    "pack_e8",
]

#: Multiply-accumulates below which a GEMM runs single-threaded.  Measured
#: crossover on a 2-vCPU x86-64 host (gcc 12, -O3, 300 interleaved calls
#: per shape): creating and joining a thread costs 20-35 us there, so two
#: threads lose below 2^16 MACs, break even between 2^16 and 2^17, and
#: win by 1.3-1.8x from 2^18 on.
PARALLEL_MIN_MACS = 1 << 17

#: Elements below which a pack (or a conv's range pass) runs single-
#: threaded.  Measured crossover of the bfloat16 pack on a 2-vCPU x86-64
#: host (gcc 12, -O3, interleaved calls, medians): two threads lose below
#: 2^14 elements (0.52-0.81x at 2^10-2^13), break even at 2^14 and win by
#: 1.3-1.9x from 2^15 on.
PACK_PARALLEL_MIN_ELEMENTS = 1 << 14

_F32_EXACT, _NEEDS_FLUSH, _NEEDS_OVERFLOW = 1, 2, 4


def native_threads() -> int:
    """Threads a large GEMM uses: the CPUs this process may run on.

    ``os.sched_getaffinity`` where the platform has it (Linux), else
    ``os.cpu_count()``.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _lib():
    lib = loaded().lib
    if lib is None:
        raise RuntimeError(f"native gather library unavailable: {loaded().error}")
    return lib


def gather_gemm(
    table: np.ndarray,
    ma: np.ndarray,
    alpha: np.ndarray,
    mb: np.ndarray,
    beta: np.ndarray,
    k_chunk: int,
    f32_exact: bool,
    needs_flush: bool,
    needs_overflow: bool,
    flush_bits: int,
    inf_from: int,
) -> np.ndarray:
    """``out[r, j] = sum_t V0[ma[r, t], mb[t, j]] * alpha[r, t] * beta[t, j]``.

    ``ma``/``alpha`` are the ``(m, k)`` activation planes, ``mb``/``beta``
    the ``(k, n)`` weight planes; the flag and threshold arguments are
    :meth:`~repro.core.kernels.FloatTableKernel._range_masks` output.
    """
    table = np.ascontiguousarray(table, dtype=np.float32)
    ma = np.ascontiguousarray(ma, dtype=np.uint32)
    mb = np.ascontiguousarray(mb, dtype=np.uint32)
    alpha = np.ascontiguousarray(alpha, dtype=np.float32)
    beta = np.ascontiguousarray(beta, dtype=np.float32)
    m, k = ma.shape
    n = mb.shape[1]
    width = table.shape[0]
    if table.shape != (width, width):
        raise ValueError(f"value table must be square, got {table.shape}")
    if mb.shape[0] != k or alpha.shape != ma.shape or beta.shape != mb.shape:
        raise ValueError(f"operand planes disagree: {ma.shape} @ {mb.shape}")
    # The C loop indexes the table with these without a bounds check.
    for plane in (ma, mb):
        if plane.size and int(plane.max()) >= width:
            raise IndexError(f"significand index {int(plane.max())} outside a {width}-wide table")
    threads = 1 if m * k * n < PARALLEL_MIN_MACS else native_threads()
    flags = (
        (_F32_EXACT if f32_exact else 0)
        | (_NEEDS_FLUSH if needs_flush else 0)
        | (_NEEDS_OVERFLOW if needs_overflow else 0)
    )
    out = np.empty((m, n), dtype=np.float32)
    status = _lib().repro_gather_gemm(
        table.ctypes.data, width,
        ma.ctypes.data, alpha.ctypes.data,
        mb.ctypes.data, beta.ctypes.data,
        out.ctypes.data, m, k, n,
        int(k_chunk), flags,
        int(flush_bits), int(inf_from),
        int(threads),
    )
    if status != 0:
        raise MemoryError("native gather GEMM could not allocate its row buffers")
    return out


def pack_e8(arr: np.ndarray, mantissa_bits: int) -> tuple[np.ndarray, ...] | None:
    """Planes ``(sign, exponent, significand, dense, scale)`` of ``arr``.

    Byte-identical to :func:`repro.formats.packed._pack_fast_e8` for an
    8-exponent-bit format with ``mantissa_bits`` stored bits (0-23): one
    pass over the float32 bits.  Returns ``None`` when any input is NaN
    or Inf, so the caller takes the generic route, as that function does.
    """
    if not 0 <= mantissa_bits <= 23:
        raise ValueError(f"mantissa_bits must lie in [0, 23], got {mantissa_bits}")
    bits = np.ascontiguousarray(arr, dtype=np.float32)
    # One allocation and one pointer lookup for all five planes.
    planes = np.empty((5, bits.size), dtype=np.uint32)
    base, stride = planes.ctypes.data, planes.strides[0]
    threads = 1 if bits.size < PACK_PARALLEL_MIN_ELEMENTS else native_threads()
    status = _lib().repro_pack_e8(
        bits.ctypes.data, bits.size, int(mantissa_bits),
        base, base + stride, base + 2 * stride, base + 3 * stride, base + 4 * stride,
        int(threads),
    )
    if status == 2:
        return None
    if status != 0:
        raise MemoryError("native pack could not start its threads")
    sign, exponent, significand, dense, scale = (plane.reshape(bits.shape) for plane in planes)
    return sign, exponent.view(np.int32), significand, dense.view(np.float32), scale.view(np.float32)


def _conv_shape(
    image: np.ndarray, groups: int, kernel: int, stride: int, padding: int
) -> tuple[int, int]:
    """``(oh, ow)`` of a convolution, after checking the geometry the C loops trust."""
    _n, c, h, w = image.shape
    oh = (h + 2 * padding - kernel) // stride + 1 if stride >= 1 else 0
    ow = (w + 2 * padding - kernel) // stride + 1 if stride >= 1 else 0
    if groups < 1 or c % groups or kernel < 1 or padding < 0 or oh < 1 or ow < 1:
        raise ValueError(
            f"bad conv geometry: image {image.shape}, groups {groups}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return oh, ow


def conv_ranges(
    exponent: np.ndarray,
    significand: np.ndarray,
    groups: int,
    kernel: int,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-group ``(emin, emax)`` and the largest significand a conv reads.

    Over the ``(N, C, H, W)`` image planes, restricted to exactly the
    pixels the convolution's windows read, with the ``initial=0`` of
    :meth:`~repro.core.kernels.FloatTableKernel._range_masks` — the
    padded taps are zeros — so each group's range equals that method's
    input range for the group's im2col planes.
    """
    exponent = np.ascontiguousarray(exponent, dtype=np.int32)
    significand = np.ascontiguousarray(significand, dtype=np.uint32)
    if significand.shape != exponent.shape:
        raise ValueError(f"plane shapes differ: {exponent.shape} / {significand.shape}")
    n, c, h, w = exponent.shape
    oh, ow = _conv_shape(exponent, groups, kernel, stride, padding)
    emin = np.empty(groups, dtype=np.int32)
    emax = np.empty(groups, dtype=np.int32)
    sig_max = np.empty(groups, dtype=np.uint32)
    threads = 1 if exponent.size < PACK_PARALLEL_MIN_ELEMENTS else native_threads()
    status = _lib().repro_conv_ranges(
        exponent.ctypes.data, significand.ctypes.data,
        n, c, h, w, int(groups), int(kernel), int(stride), int(padding), oh, ow,
        emin.ctypes.data, emax.ctypes.data, sig_max.ctypes.data,
        int(threads),
    )
    if status != 0:
        raise MemoryError("native conv ranges could not allocate their buffers")
    return emin, emax, int(sig_max.max(initial=0))


def grouped_conv(
    table: np.ndarray,
    significand: np.ndarray,
    scale: np.ndarray,
    weight_significand: np.ndarray,
    weight_scale: np.ndarray,
    bias: np.ndarray | None,
    kernel: int,
    stride: int,
    padding: int,
    k_chunk: int,
    f32_exact: np.ndarray,
    needs_flush: np.ndarray,
    needs_overflow: np.ndarray,
    flush_bits: int,
    inf_from: int,
    sig_max: int,
) -> np.ndarray:
    """Grouped convolution of a packed ``(N, C, H, W)`` image, NCHW out.

    ``weight_significand``/``weight_scale`` are the stacked weight planes,
    ``(groups, C/groups * kernel^2, cout_g)``, rows in im2col column
    order ``(c, kh, kw)``.  The flag arguments hold one entry per group
    (:meth:`~repro.core.kernels.FloatTableKernel._range_masks` output for
    that group's GEMM) and ``sig_max`` is the largest image significand
    the windows read (:func:`conv_ranges`).  Every output element is the
    bit-exact GEMM term sum of the group's im2col row, plus ``bias`` when
    given.
    """
    table = np.ascontiguousarray(table, dtype=np.float32)
    significand = np.ascontiguousarray(significand, dtype=np.uint32)
    scale = np.ascontiguousarray(scale, dtype=np.float32)
    wsig = np.ascontiguousarray(weight_significand, dtype=np.uint32)
    wscale = np.ascontiguousarray(weight_scale, dtype=np.float32)
    n, c, h, w = significand.shape
    groups, kg, cout_g = wsig.shape
    width = table.shape[0]
    if table.shape != (width, width):
        raise ValueError(f"value table must be square, got {table.shape}")
    oh, ow = _conv_shape(significand, groups, kernel, stride, padding)
    if (
        scale.shape != significand.shape
        or wscale.shape != wsig.shape
        or kg != c // groups * kernel * kernel
    ):
        raise ValueError(
            f"conv planes disagree: image {significand.shape}, weights {wsig.shape}, "
            f"kernel {kernel}"
        )
    # The C loop indexes the table with these without a bounds check.
    top = max(sig_max, int(wsig.max(initial=0)))
    if top >= width:
        raise IndexError(f"significand index {top} outside a {width}-wide table")
    if bias is not None:
        bias = np.ascontiguousarray(bias, dtype=np.float32)
        if bias.shape != (groups * cout_g,):
            raise ValueError(f"bias shape {bias.shape} != ({groups * cout_g},)")
    flags = np.ascontiguousarray(
        np.broadcast_to(f32_exact, groups) * _F32_EXACT
        | np.broadcast_to(needs_flush, groups) * _NEEDS_FLUSH
        | np.broadcast_to(needs_overflow, groups) * _NEEDS_OVERFLOW,
        dtype=np.int32,
    )
    out = np.empty((n, groups * cout_g, oh, ow), dtype=np.float32)
    macs = out.size * kg
    threads = 1 if macs < PARALLEL_MIN_MACS else native_threads()
    status = _lib().repro_grouped_conv(
        table.ctypes.data, width,
        significand.ctypes.data, scale.ctypes.data,
        wsig.ctypes.data, wscale.ctypes.data,
        None if bias is None else bias.ctypes.data, out.ctypes.data,
        n, c, h, w, groups, cout_g,
        int(kernel), int(stride), int(padding), oh, ow, int(k_chunk),
        flags.ctypes.data, int(flush_bits), int(inf_from),
        int(threads),
    )
    if status != 0:
        raise MemoryError("native grouped conv could not allocate its buffers")
    return out
