"""Lookup-table fast path for narrow mantissa multiplies.

For significand widths up to :data:`MAX_TABLE_BITS` the full
``2^bits x 2^bits`` product table fits comfortably in memory (a bfloat16
significand is 8 bits → 65536 uint32 entries).  A tabulated multiply is a
single fancy-indexing gather, an order of magnitude faster than the bit
loop of :mod:`repro.core.vectorized` — this is what makes whole-CNN
accuracy sweeps (Fig. 4) cheap.

Tables are built once per ``(bits, config)`` pair and cached.  This
module tabulates the *raw significand products*; the GEMM-level tables
derived from them (the float32 value table and the BLAS-factored
correction) live in
:mod:`repro.core.kernels`, with their own cache instrumentation.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import MultiplierConfig, Scheme
from .vectorized import approx_multiply_array

__all__ = ["MAX_TABLE_BITS", "product_table", "tabulated_multiply", "table_supported"]

#: Widest operand for which a full product table is built (2^(2*12) entries
#: of 4 bytes = 64 MiB is the ceiling we allow).
MAX_TABLE_BITS = 12


def table_supported(bits: int) -> bool:
    """Whether a full product table is built for this operand width."""
    return 1 <= bits <= MAX_TABLE_BITS


@functools.lru_cache(maxsize=32)
def _cached_table(bits: int, scheme: Scheme, truncated: bool) -> np.ndarray:
    config = MultiplierConfig(scheme, truncated)
    operands = np.arange(1 << bits, dtype=np.uint64)
    a = operands[:, None]
    b = operands[None, :]
    full = approx_multiply_array(a, b, bits, config)
    table = full.astype(np.uint32)
    table.setflags(write=False)
    return table


def product_table(bits: int, config: MultiplierConfig) -> np.ndarray:
    """The full ``(2^bits, 2^bits)`` approximate product table (read-only).

    ``table[a, b]`` equals
    :func:`repro.core.mantissa.approx_multiply` ``(a, b, bits, config)``.
    """
    if not table_supported(bits):
        raise ValueError(f"no table for {bits}-bit operands (max {MAX_TABLE_BITS})")
    return _cached_table(bits, config.scheme, config.truncated)


def tabulated_multiply(
    a: np.ndarray, b: np.ndarray, bits: int, config: MultiplierConfig
) -> np.ndarray:
    """Approximate product via table gather; same contract as the bit loop.

    Parameters
    ----------
    a, b:
        Unsigned operand arrays (any broadcastable shape, values
        ``< 2**bits``).
    bits:
        Operand width; the backing :func:`product_table` is
        ``2**bits x 2**bits`` and memoised per (bits, config).
    config:
        Multiplier configuration whose products are tabulated.
    """
    table = product_table(bits, config)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return table[a, b].astype(np.uint64)
