"""Call the native gather GEMM: operand checks, thread count, ``ctypes`` call.

:func:`gather_gemm` runs ``repro_gather_gemm`` from ``gather.c`` (built
and loaded by :mod:`repro.core.native.build`) on the packed planes as
:class:`~repro.formats.packed.PackedTensor` stores them — uint32
significand indices and float32 scale planes, no ``intp`` copies — and
the value table ``V0`` indexed ``[ma, mb]`` directly, so no transposed
table is ever needed.  The C loop nest keeps the kernel contract of
:class:`~repro.core.kernels.FloatTableKernel` (see the C source header),
and the output rows are split across threads, which is bit-neutral.

Threads: :func:`native_threads`, but a GEMM below
:data:`PARALLEL_MIN_MACS` runs on the calling thread alone, where
creating and joining threads would cost more than it saves.
"""

from __future__ import annotations

import os

import numpy as np

from .build import loaded

__all__ = ["PARALLEL_MIN_MACS", "gather_gemm", "native_threads"]

#: Multiply-accumulates below which a GEMM runs single-threaded.  Measured
#: crossover on a 2-vCPU x86-64 host (gcc 12, -O3, 300 interleaved calls
#: per shape): creating and joining a thread costs 20-35 us there, so two
#: threads lose below 2^16 MACs, break even between 2^16 and 2^17, and
#: win by 1.3-1.8x from 2^18 on.
PARALLEL_MIN_MACS = 1 << 17

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
    lib = loaded().lib
    if lib is None:
        raise RuntimeError(f"native gather library unavailable: {loaded().error}")
    status = lib.repro_gather_gemm(
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
