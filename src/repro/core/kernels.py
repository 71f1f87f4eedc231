"""Pluggable GEMM kernels over packed operands: the arithmetic hot path.

Every approximate (and quantised) matmul in the repository bottoms out in
one of the kernels registered here.  A kernel consumes two
:class:`~repro.formats.packed.PackedTensor` operands and produces the
float32 product matrix; which kernel runs is selected by name through
:func:`select_kernel` (plumbed up through ``approx_matmul`` and the
``nn`` backend seam).

Five kernels are built in:

``float_table`` (bit-exact reference tier for table-supported widths)
    The float-domain value-table kernel.  A bfloat16-style product is
    ``(s_a 2^ea) * (s_b 2^eb) * V0[ma, mb]`` where ``V0`` is a
    ``2^bits x 2^bits`` float32 table of *normalised significand product
    values* (the one-position normalisation bump folded in, so entries
    lie in ``[1, 4)``).  Per element the kernel does one table gather
    and two multiplies by the cached per-operand scale planes, and is
    bit-identical to the per-element ``generic`` pipeline by
    construction: scale products are exact powers of two, the gathered
    value has at most ``significand_bits + 1`` significant bits,
    overflow to inf falls out of float32 naturally (bfloat16 and float32
    share ``emax``), and a cheap subnormal-flush mask reproduces the
    datapath's flush-to-zero underflow exactly.

``float_table_native`` (bit-exact default when a C compiler is installed)
    The same one-gather algorithm as a small C loop nest
    (:mod:`repro.core.native`), built once per machine with the system
    ``cc``, cached on disk and loaded through ``ctypes``; output rows are
    split across plain pthreads.  Byte-identical to ``float_table``
    because every output element keeps the kernel contract below.  On
    boxes without a compiler (or with ``REPRO_DISABLE_NATIVE=1``) every
    call delegates to ``float_table``, so the tier is always safe to
    select.

``blas_factored`` (opt-in fast path)
    Factor ``V0[ma, mb] = mu[ma] * mu[mb] + E[ma, mb]`` where ``mu`` is
    the exact significand value and ``E`` the per-config error table.
    The ``mu`` outer term is exactly the quantised dense operands, so it
    routes through ``numpy.matmul`` (BLAS); the correction contracts a
    rank-``r`` SVD factorisation of ``E`` as ``r`` extra BLAS columns.
    One to two orders of magnitude faster than the gather kernels, but
    *not* bit-identical: see :class:`BlasFactoredKernel` for the
    documented parity contract.

``blas_factored_fast`` (the router's certified fast tier)
    The same kernel at a 25% truncation tolerance (rank ~1-3 instead of
    ~14 for bfloat16).  Correction cost is linear in rank, so this is
    the variant that closes the LUT-vs-BLAS gap end to end; the tier
    router only routes to it when its measured probe error certifies
    against the config's analytic worst-case bound.

``generic``
    The per-element FP pipeline: the only kernel for significand widths
    too wide to tabulate (e.g. float32 operands), and the reference the
    table kernels are tested against.

Bit contract of the exact tiers: every output element is a float32 sum
that runs sequentially over the terms of each pinned K-chunk, with chunk
partials added in chunk order.  The one place the NumPy reference leaves
that order is a reduction whose tile has a single element on its inner
axis: NumPy then sums along a contiguous axis, pairwise.  That happens in
``float_table``'s standard orientation when ``n == 1``, and in its
transposed orientation when a column block is one row wide; those are
exactly the shapes ``float_table_native`` hands back to ``float_table``
(see :class:`NativeGatherKernel`).

Chunking policy: the K-dimension split (``default_k_chunk``) is pinned
to the historical ``2^22``-element budget because float32 accumulation
order — and therefore the bit-exact output contract — depends on where
the reduction is split.  The *row*-block budget (:data:`ROW_BUDGET`) is a
plain constant: output rows are independent, so the row blocking of
``float_table``'s standard orientation is bit-neutral.  Its transposed
orientation and the native delegation rule read the same constant.

All product tables are built once per ``(bits, config)`` and cached;
:func:`table_cache_counters` exposes hit/miss counts alongside the
packing counters of :mod:`repro.formats.packed` so tests and the perf
harness can prove that hot paths never rebuild a table.
"""

from __future__ import annotations

import threading

import numpy as np

from ..formats.floatfmt import FloatFormat, compose
from ..formats.packed import PackedTensor
from . import integrity
from .config import MultiplierConfig
from .fp_mul import _normalise, significand_product
from .native import conv_ranges, gather_gemm, native_active, native_status
from .tables import table_supported

__all__ = [
    "GemmKernel",
    "FloatTableKernel",
    "NativeGatherKernel",
    "BlasFactoredKernel",
    "GenericKernel",
    "UnknownKernelError",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "select_kernel",
    "exact_tier_name",
    "kernel_tiers",
    "shape_class",
    "SHAPE_CLASSES",
    "value_table",
    "factored_tables",
    "table_cache_counters",
    "reset_table_cache_counters",
    "peek_table",
    "install_table",
    "default_k_chunk",
]

# --------------------------------------------------------------------------
# Chunking policy
# --------------------------------------------------------------------------

#: K-split budget (elements of the (rows, k_chunk, n) block).  Pinned:
#: changing it would regroup the float32 accumulation and change output
#: bits, so it is part of the bit-exact kernel contract, not a perf knob.
K_CHUNK_BUDGET = 1 << 22

#: Row-block budget (elements of the (row_block, k_chunk, n) working
#: set) of ``float_table``'s loops.  ``float_table_native`` reads it too,
#: to find the one-row column blocks it hands back to ``float_table``.
ROW_BUDGET = 1 << 18


def default_k_chunk(rows: int, n: int, budget_elems: int = K_CHUNK_BUDGET) -> int:
    """Reduction-chunk size keeping the (rows, chunk, n) block under budget.

    The formula (and its ``2^22`` budget) is frozen: the K split decides
    how the float32 accumulation is grouped, so it is part of the
    bit-exact output contract shared by every exact tier.
    """
    per_k = max(1, rows * n)
    return max(1, budget_elems // per_k)


def _row_block(k_chunk: int, k: int, n: int) -> int:
    return max(1, ROW_BUDGET // max(1, min(k, k_chunk) * n))


#: Coarse problem-size classes the tier router keys on.
SHAPE_CLASSES = ("tiny", "tall_skinny", "general")

#: A GEMM at or below this many MACs counts as ``tiny``: fixed per-call
#: overhead (BLAS dispatch, correction setup) dominates there, so the
#: router keeps tiny problems on the gather tier.
TINY_SHAPE_MACS = 1 << 14


def shape_class(m: int | None, k: int, n: int) -> str:
    """Classify an ``(m, k, n)`` problem into one of :data:`SHAPE_CLASSES`.

    ``m=None`` means the batch dimension is unknown (plan compile time
    resolves kernels before any input arrives) and maps to ``general``
    — the conservative class serving batches actually land in.  The
    tall-skinny threshold reuses ``FloatTableKernel.TRANSPOSE_ASPECT``
    so the class boundary coincides with the kernel's own orientation
    switch.
    """
    if m is None:
        return "general"
    if m * k * n <= TINY_SHAPE_MACS:
        return "tiny"
    if m >= FloatTableKernel.TRANSPOSE_ASPECT * max(1, n):
        return "tall_skinny"
    return "general"


# --------------------------------------------------------------------------
# Product tables (cached, with hit/miss instrumentation)
# --------------------------------------------------------------------------

_TABLE_CACHE: dict[tuple, object] = {}
_TABLE_COUNTERS = {"hits": 0, "misses": 0}
#: Guards the table cache *and* its counters so parallel shard execution
#: (see :mod:`repro.runtime.engine`) neither double-builds a table nor
#: drops counter increments.  Reentrant because building a factored
#: table looks up the value table through the same gate.
_TABLE_LOCK = threading.RLock()


def table_cache_counters() -> dict[str, int]:
    """Snapshot of the kernel-table cache hit/miss counters.

    A *miss* means a table (float value, its transpose, or factored
    correction) was built from scratch; a *hit* means a cached table was
    reused.  Complements :func:`repro.formats.packed.packing_counters`:
    together they prove a steady-state hot path does zero table-rebuild
    and zero re-pack work.  Reads and updates are lock-guarded, so the
    counts stay exact under multi-threaded execution.
    """
    with _TABLE_LOCK:
        return dict(_TABLE_COUNTERS)


def reset_table_cache_counters() -> None:
    """Reset the table cache hit/miss counters to zero."""
    with _TABLE_LOCK:
        _TABLE_COUNTERS["hits"] = 0
        _TABLE_COUNTERS["misses"] = 0


def _cached(key: tuple, build):
    with _TABLE_LOCK:
        hit = _TABLE_CACHE.get(key)
        if hit is not None:
            _TABLE_COUNTERS["hits"] += 1
            return hit
        # Build under the lock: concurrent first touches of a key must
        # yield one build (tables are shared read-only afterwards).
        _TABLE_COUNTERS["misses"] += 1
        value = build()
        _TABLE_CACHE[key] = value
    # Register the checksum + rebuild closure outside the table lock
    # (integrity takes its own lock first when healing; keeping the
    # integrity -> table ordering on both paths avoids a deadlock).
    integrity.register_table(key, value, build)
    return value


def peek_table(key: tuple):
    """The live cache entry for ``key`` (``None`` if absent).

    Integrity verification reads the *live* bytes through this — no
    build, no counter churn — to compare against the registered
    checksum.
    """
    with _TABLE_LOCK:
        return _TABLE_CACHE.get(key)


def install_table(key: tuple, value) -> None:
    """Replace a cache entry in place (the integrity heal path).

    Kernels look their tables up per ``run`` call, so the next GEMM on
    any thread reads the healed entry; the corrupted array is left to
    the garbage collector once in-flight calls drop it.
    """
    with _TABLE_LOCK:
        _TABLE_CACHE[key] = value


def _config_key(config: MultiplierConfig | None) -> tuple:
    if config is None:
        return (None, False)
    return (config.scheme, config.truncated)


def _normalised_products(
    bits: int, config: MultiplierConfig | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sig, bump, nonzero) of every significand pair under ``config``.

    ``config=None`` means *exact* products (the conventional multiplier
    followed by the same one-position normalisation) — this is what the
    quantised-only backend simulates.
    """
    operands = np.arange(1 << bits, dtype=np.uint64)
    a, b = operands[:, None], operands[None, :]
    if config is None:
        product = a * b
        truncated = False
    else:
        product = significand_product(a, b, bits, config)
        truncated = config.truncated
    sig, bump = _normalise(product, np.zeros_like(product, dtype=np.int64), bits, truncated)
    return sig, bump.astype(np.int32), product != 0


def value_table(bits: int, config: MultiplierConfig | None) -> np.ndarray:
    """The float32 value table ``V0[ma, mb]`` of normalised products.

    ``V0[ma, mb] = sig * 2^(bump - (bits-1))`` is the *value* of the
    normalised significand product with the normalisation bump folded
    in; for valid operand indices (MSB set, as ``decompose`` produces,
    or 0) entries lie in ``[1, 4)`` or are exactly 0.  The full product
    of two packed values is then
    ``scale_a * scale_b * V0[ma, mb]`` with ``scale = (-1)^s * 2^e`` —
    one gather and two multiplies.  Entries carry at most ``bits + 1``
    significant bits, so every in-range float32 product is exact.

    The table is *asymmetric*: ``ma`` indexes the stored operand, ``mb``
    the wordline-driving operand of the OR-multiplier.
    """

    def build() -> np.ndarray:
        sig, bump, _nonzero = _normalised_products(bits, config)
        table = np.ldexp(sig.astype(np.float32), bump - np.int32(bits - 1)).astype(
            np.float32
        )
        table.setflags(write=False)
        return table

    return _cached((bits, *_config_key(config), "value"), build)


def _value_table_t(bits: int, config: MultiplierConfig | None) -> np.ndarray:
    """Contiguous transpose of :func:`value_table` (``[mb, ma]`` layout).

    The transposed-orientation gather of :class:`FloatTableKernel` reads
    rows indexed by ``mb``, so a row-major transposed copy keeps the
    inner gather axis contiguous.
    """

    def build() -> np.ndarray:
        table = np.ascontiguousarray(value_table(bits, config).T)
        table.setflags(write=False)
        return table

    return _cached((bits, *_config_key(config), "value_T"), build)


def factored_tables(
    bits: int,
    config: MultiplierConfig | None,
    rank: int | None = None,
    tol: float = 0.05,
    max_rank: int = 32,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """SVD factor tables of the value-table error ``E = V0 - mu mu^T``.

    ``mu[m] = m * 2^-(bits-1)`` is the exact significand value, so the
    ``mu`` outer product is the *exact* component of every product and
    ``E`` is the per-config approximation-error table.  Returns
    ``(Fa, Fb, info)`` where ``Fa``/``Fb`` are ``(rank, 2^bits)``
    float32 factor tables (singular values folded in symmetrically) with
    ``E ~= Fa^T @ Fb``, and ``info`` records the chosen rank and the
    relative Frobenius residual of the truncation.

    Parameters
    ----------
    rank:
        Explicit truncation rank; ``None`` picks the smallest rank whose
        relative Frobenius residual is below ``tol`` (capped at
        ``max_rank``).
    tol, max_rank:
        Residual target and rank cap for the automatic choice.
    """

    def build() -> tuple[np.ndarray, np.ndarray, dict]:
        v0 = value_table(bits, config).astype(np.float64)
        mu = np.arange(1 << bits, dtype=np.float64) * 2.0 ** -(bits - 1)
        error = v0 - np.outer(mu, mu)
        left, sigma, right_t = np.linalg.svd(error)
        total = float(np.sqrt((sigma**2).sum()))
        if rank is None:
            chosen = int(max_rank)
            for r in range(max_rank + 1):
                resid = float(np.sqrt((sigma[r:] ** 2).sum()))
                if total == 0.0 or resid <= tol * total:
                    chosen = r
                    break
        else:
            chosen = int(rank)
        root = np.sqrt(sigma[:chosen])
        fa = (left[:, :chosen] * root).T.astype(np.float32)
        fb = (right_t[:chosen, :].T * root).T.astype(np.float32)
        fa.setflags(write=False)
        fb.setflags(write=False)
        resid = float(np.sqrt((sigma[chosen:] ** 2).sum()))
        info = {
            "rank": chosen,
            "rel_frobenius_residual": (resid / total) if total else 0.0,
        }
        return fa, fb, info

    return _cached((bits, *_config_key(config), "factored", rank, tol, max_rank), build)


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------


class GemmKernel:
    """Interface: a named routine computing a packed ``(M, K) @ (K, N)``.

    Kernels consume two 2-D :class:`~repro.formats.packed.PackedTensor`
    operands of the same format and return the float32 product under
    ``config`` (``None`` selects exact significand products).  They are
    registered by name via :func:`register_kernel` and selected through
    :func:`select_kernel`; ``approx_matmul`` and the backends plumb the
    name down from user code.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: Whether outputs are bit-identical to the scalar reference
    #: pipeline (``repro.core.mantissa`` + normalise + compose).
    bit_exact = True

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Whether this kernel can run operands of ``fmt`` under ``config``."""
        raise NotImplementedError

    def run(
        self,
        pa: PackedTensor,
        pb: PackedTensor,
        config: MultiplierConfig | None,
        k_chunk: int,
    ) -> np.ndarray:
        """Compute the product of 2-D packed operands."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


#: Gather via flat ``take`` (with a reusable index buffer) below this
#: many elements per (k_chunk x n) tile; plain fancy indexing above.
_TAKE_TILE_LIMIT = 1024


class FloatTableKernel(GemmKernel):
    """One-gather float-domain kernel (the bit-exact default).

    Per K-chunk and row block the kernel gathers ``V0[ma, mb]`` and
    multiplies in the two scale planes.  When operand exponents are
    comfortably inside the float32 range (the *safe* regime — always
    true for well-conditioned DNN tensors) every intermediate is exact
    and the three passes can run in-place in any order.  Otherwise it
    falls back to computing the exact power-of-two ``scale_a * scale_b``
    first (so overflow saturates exactly like ``compose``) and applies a
    subnormal-flush mask replacing the emin branch of the uint32
    pipeline; overflow to inf needs no mask because bfloat16 and float32
    share ``emax``.  Both regimes are bit-identical to ``generic`` and
    to the scalar reference.
    """

    name = "float_table"
    bit_exact = True

    #: A GEMM at least this many times taller than wide runs in the
    #: transposed orientation (long SIMD axis = rows).
    TRANSPOSE_ASPECT = 16

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Table-supported significand widths (see ``MAX_TABLE_BITS``)."""
        return table_supported(fmt.significand_bits)

    @staticmethod
    def _range_masks(pa, pb) -> tuple[bool, bool, bool, np.uint32, np.uint32]:
        ea, eb = pa.exponent, pb.exponent
        return FloatTableKernel._masks_from_ranges(
            pa.fmt,
            int(ea.min(initial=0)),
            int(ea.max(initial=0)),
            int(eb.min(initial=0)),
            int(eb.max(initial=0)),
        )

    @staticmethod
    def _masks_from_ranges(fmt, ea_min, ea_max, eb_min, eb_max):
        """Range-mask flags from the operands' exponent ranges.

        Elementwise, so the ranges may also be arrays (one entry per
        group of a grouped convolution); the thresholds depend on
        ``fmt`` alone.
        """
        # Every float32 intermediate is exact when scale products cannot
        # overflow or go subnormal; then the in-place multiply order is
        # bit-equivalent to composing the exact scale product first.
        f32_exact = (ea_max <= 125) & (eb_max <= 125) & (ea_min + eb_min >= -126)
        emin_u = 1 - fmt.bias
        emax_u = fmt.max_exponent - fmt.bias
        # Format-range masks: a product below 2^emin flushes to signed
        # zero, at or above 2^(emax+1) saturates to inf.  For 8-exponent-
        # bit formats the overflow mask is a no-op (float32 shares emax,
        # so IEEE multiply already saturates identically).
        needs_flush = ea_min + eb_min < emin_u
        needs_overflow = (emax_u < 127) & (ea_max + eb_max + 1 > emax_u)
        flush_bits = np.uint32((emin_u + 127) << 23)
        inf_from = np.uint32((emax_u + 128) << 23)
        return f32_exact, needs_flush, needs_overflow, flush_bits, inf_from

    @staticmethod
    def _apply_masks(values, needs_flush, needs_overflow, flush_bits, inf_from):
        if not (needs_flush or needs_overflow):
            return
        bits = values.view(np.uint32)
        mag = bits & np.uint32(0x7FFF_FFFF)
        if needs_flush:
            bits[...] = np.where(mag < flush_bits, bits & np.uint32(0x8000_0000), bits)
        if needs_overflow:
            bits[...] = np.where(
                mag >= inf_from,
                (bits & np.uint32(0x8000_0000)) | np.uint32(0x7F80_0000),
                bits,
            )

    def run(self, pa, pb, config, k_chunk):
        """Gather-and-scale product, row-blocked and K-chunked.

        Tall-skinny problems (``m >= TRANSPOSE_ASPECT * n``, the shape of
        batched conv/fc layers) run in a transposed orientation whose
        inner SIMD axis is the long row dimension; the reduction order
        over K is unchanged, so both orientations produce identical
        bits.
        """
        fmt = pa.fmt
        m, k = pa.shape
        n = pb.shape[1]
        masks = self._range_masks(pa, pb)
        f32_exact = masks[0]
        if f32_exact and m >= self.TRANSPOSE_ASPECT * max(1, n):
            return self._run_transposed(pa, pb, config, k_chunk, masks)

        table = value_table(fmt.significand_bits, config)
        flat = table.reshape(-1)
        width = np.intp(table.shape[0])
        mai = pa.significand.astype(np.intp)
        mbi = pb.significand.astype(np.intp)
        alpha, beta = pa.scale(), pb.scale()

        out = np.zeros((m, n), dtype=np.float32)
        row_block = _row_block(k_chunk, k, n)
        use_take = min(k, k_chunk) * n <= _TAKE_TILE_LIMIT
        if use_take:
            idx_buf = np.empty((row_block, min(k, k_chunk), n), dtype=np.intp)
            val_buf = np.empty((row_block, min(k, k_chunk), n), dtype=np.float32)
        with np.errstate(over="ignore"):
            for r0 in range(0, m, row_block):
                r1 = min(m, r0 + row_block)
                for c0 in range(0, k, k_chunk):
                    c1 = min(k, c0 + k_chunk)
                    if use_take and (r1 - r0, c1 - c0) == idx_buf.shape[:2]:
                        idx = np.multiply(mai[r0:r1, c0:c1, None], width, out=idx_buf)
                        idx += mbi[None, c0:c1, :]
                        flat.take(idx.reshape(-1), out=val_buf.reshape(-1))
                        values = val_buf
                    else:
                        values = table[mai[r0:r1, c0:c1, None], mbi[None, c0:c1, :]]
                    if f32_exact:
                        values *= alpha[r0:r1, c0:c1, None]
                        values *= beta[None, c0:c1, :]
                    else:
                        scaled = alpha[r0:r1, c0:c1, None] * beta[None, c0:c1, :]
                        scaled *= values
                        values = scaled
                    self._apply_masks(values, *masks[1:])
                    out[r0:r1] += values.sum(axis=1, dtype=np.float32)
        return out

    def _run_transposed(self, pa, pb, config, k_chunk, masks):
        """Transposed orientation: gather ``V0^T[mb, ma]`` tiles.

        Tiles are ``(n, k_chunk, col_block)`` with the long ``m`` axis
        innermost (contiguous for gathers, scale multiplies and the
        reduction).  Summation still runs sequentially over K for every
        output element — the same association as the standard
        orientation, hence bit-identical results.  Only taken in the
        ``f32_exact`` regime, where multiply order is free.
        """
        m, k = pa.shape
        n = pb.shape[1]
        table_t = _value_table_t(pa.fmt.significand_bits, config)
        mai_t = pa.significand.T.astype(np.intp, order="C")  # (k, m) copy
        mbi_t = pb.significand.T.astype(np.intp, order="C")  # (n, k)
        alpha_t = np.ascontiguousarray(pa.scale().T)
        beta_t = np.ascontiguousarray(pb.scale().T)

        out = np.empty((m, n), dtype=np.float32)
        col_block = _row_block(k_chunk, k, n)
        with np.errstate(over="ignore"):
            for m0 in range(0, m, col_block):
                m1 = min(m, m0 + col_block)
                acc = np.zeros((n, m1 - m0), dtype=np.float32)
                for c0 in range(0, k, k_chunk):
                    c1 = min(k, c0 + k_chunk)
                    values = table_t[mbi_t[:, c0:c1, None], mai_t[None, c0:c1, m0:m1]]
                    values *= beta_t[:, c0:c1, None]
                    values *= alpha_t[None, c0:c1, m0:m1]
                    self._apply_masks(values, *masks[1:])
                    acc += values.sum(axis=1, dtype=np.float32)
                out[m0:m1] = acc.T
        return out


class NativeGatherKernel(GemmKernel):
    """Native C tier of the one-gather value-table GEMM.

    Runs :func:`repro.core.native.gather_gemm`: the same gather, the same
    two scale multiplies in the same order and the same range masks as
    :class:`FloatTableKernel`, with the contract's accumulation (terms of
    a K-chunk summed sequentially, chunk partials added in order), in
    compiled C with output rows split across threads.  It reads the
    value table ``V0`` directly in both of ``float_table``'s
    orientations, so it never needs the transposed copy.

    The kernel delegates to ``float_table`` when

    * the native tier is inactive (no compiler, a failed build, or
      ``REPRO_DISABLE_NATIVE=1``), or
    * ``float_table`` itself would regroup the sum, which happens only
      where its reduced tile has one element on the inner axis and NumPy
      sums along a contiguous axis pairwise: the standard orientation
      with ``n == 1``, and the transposed orientation when a column
      block is one row wide (a column budget of 1, or a remainder block
      of one row).

    ``n == 1`` in the transposed orientation (depthwise convolutions)
    sums sequentially in both kernels and runs natively.
    Either way callers observe one bit-exact kernel; only the speed
    differs.  :attr:`active_backend` reports which path will run.
    :meth:`_delegates` is that rule; :meth:`_call_args` applies it to a
    GEMM and :meth:`_conv_call_args` to every group of a grouped
    convolution run in one native call.
    """

    name = "float_table_native"
    bit_exact = True

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Table-supported significand widths (same envelope as ``float_table``)."""
        return table_supported(fmt.significand_bits)

    @property
    def active_backend(self) -> str:
        """``"c"`` when the native library will run, else ``"numpy-fallback"``."""
        return "c" if native_active() else "numpy-fallback"

    @staticmethod
    def _delegates(m: int, k: int, n: int, k_chunk: int, f32_exact: bool) -> bool:
        """Whether an ``(m, k) @ (k, n)`` product is handed to ``float_table``.

        True exactly for the shapes documented on the class, where
        ``float_table``'s NumPy reduction regroups the accumulation.
        """
        if f32_exact and m >= FloatTableKernel.TRANSPOSE_ASPECT * max(1, n):
            col_block = _row_block(k_chunk, k, n)
            return col_block < 2 or m % col_block == 1
        return n == 1

    def _call_args(self, pa, pb, config, k_chunk) -> tuple | None:
        """Build the ``gather_gemm`` argument tuple, or ``None`` to delegate.

        ``None`` marks the shapes documented on the class where
        ``float_table``'s NumPy reduction regroups the accumulation.
        Exposed separately so the parity suite can call ``gather_gemm``
        on exactly these arguments.
        """
        m, k = pa.shape
        n = pb.shape[1]
        masks = FloatTableKernel._range_masks(pa, pb)
        f32_exact, needs_flush, needs_overflow, flush_bits, inf_from = masks
        if self._delegates(m, k, n, k_chunk, f32_exact):
            return None
        return (
            value_table(pa.fmt.significand_bits, config),
            pa.significand,
            pa.scale(),
            pb.significand,
            pb.scale(),
            int(k_chunk),
            bool(f32_exact),
            bool(needs_flush),
            bool(needs_overflow),
            int(flush_bits),
            int(inf_from),
        )

    def _conv_call_args(
        self, image, weight, bias, kernel, stride, padding, config, k_chunk
    ) -> tuple | None:
        """Build the ``grouped_conv`` argument tuple, or ``None`` to run per group.

        ``image`` is the packed ``(N, C, H, W)`` input and ``weight`` the
        groups' packed weights stacked to ``(groups, K_g, cout_g)``.  The
        one-call convolution runs every group's GEMM as this kernel would
        run it natively, so it applies only when no group's GEMM would be
        delegated (:meth:`_delegates`), judged on each group's range
        masks over exactly the pixels its windows read.
        """
        n, _c, h, w = image.shape
        groups, kg, cout_g = weight.shape
        emin, emax, sig_max = conv_ranges(
            image.exponent, image.significand, groups, kernel, stride, padding
        )
        wexp = weight.exponent.reshape(groups, -1)
        masks = FloatTableKernel._masks_from_ranges(
            image.fmt, emin, emax, wexp.min(axis=1, initial=0), wexp.max(axis=1, initial=0)
        )
        f32_exact, needs_flush, needs_overflow, flush_bits, inf_from = masks
        oh = (h + 2 * padding - kernel) // stride + 1
        m = n * oh * ((w + 2 * padding - kernel) // stride + 1)
        for exact in (True, False):
            if np.any(f32_exact == exact) and self._delegates(m, kg, cout_g, k_chunk, exact):
                return None
        return (
            value_table(image.fmt.significand_bits, config),
            image.significand,
            image.scale(),
            weight.significand,
            weight.scale(),
            bias,
            int(kernel),
            int(stride),
            int(padding),
            int(k_chunk),
            f32_exact,
            needs_flush,
            needs_overflow,
            int(flush_bits),
            int(inf_from),
            sig_max,
        )

    def run(self, pa, pb, config, k_chunk):
        """Native gather GEMM; delegates to ``float_table`` as documented."""
        if native_active():
            args = self._call_args(pa, pb, config, k_chunk)
            if args is not None:
                return gather_gemm(*args)
        return _KERNELS["float_table"].run(pa, pb, config, k_chunk)


class BlasFactoredKernel(GemmKernel):
    """BLAS-factored exact+correction fast path (opt-in, not bit-exact).

    Routes the exact component ``(alpha mu[ma]) @ (beta mu[mb])`` — which
    is literally the quantised dense operands — through ``numpy.matmul``
    and contracts a rank-``r`` factorisation of the per-config error
    table as ``r`` additional BLAS columns per reduction element.  Total
    cost is two BLAS GEMMs plus ``O(r (MK + KN))`` gathers, typically
    one to two orders of magnitude faster than the gather kernels.

    **Parity contract** (documented, tested): outputs are *not*
    bit-identical to the default kernel.  The deviation has three
    sources — the SVD truncation of the error table (bounded by the
    ``rel_frobenius_residual`` reported by :func:`factored_tables`,
    default tolerance 5% of the error table, i.e. well below the
    multiplier's own approximation error), BLAS accumulation order, and
    the absence of the per-product underflow-flush/overflow-saturate
    masks (operands must be well-conditioned: products near the float32
    range edges follow IEEE semantics instead of the datapath's
    flush-to-zero).  Empirically the relative output deviation on
    gaussian operands is ~0.4% for bfloat16 PC3_tr at the default rank,
    an order of magnitude below the ~7% arithmetic approximation error
    it perturbs.

    Two instances are registered: ``blas_factored`` (default 5%
    truncation tolerance, rank ~14 for bfloat16) and
    ``blas_factored_fast`` (25% tolerance, rank ~1-3) — the correction
    cost scales linearly with rank, so the fast variant trades a still-
    certified deviation (~2% on gaussian operands, an order of magnitude
    inside the analytic bound) for most of the remaining LUT-vs-BLAS
    gap.  The tier router (:mod:`repro.core.router`) only ever routes to
    either after measuring that trade on a probe GEMM.
    """

    name = "blas_factored"
    bit_exact = False

    def __init__(
        self,
        rank: int | None = None,
        tol: float = 0.05,
        max_rank: int = 32,
        name: str | None = None,
    ):
        self.rank = rank
        self.tol = tol
        self.max_rank = max_rank
        if name is not None:
            self.name = name

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Table-supported significand widths (see ``MAX_TABLE_BITS``)."""
        return table_supported(fmt.significand_bits)

    def correction_info(self, fmt: FloatFormat, config: MultiplierConfig | None) -> dict:
        """Rank and residual of the correction used for ``(fmt, config)``."""
        _fa, _fb, info = factored_tables(
            fmt.significand_bits, config, self.rank, self.tol, self.max_rank
        )
        return dict(info)

    def run(self, pa, pb, config, k_chunk):
        """Exact BLAS component plus low-rank error-table correction.

        The correction is contracted one rank at a time: two 1-D table
        gathers re-map each operand's significand plane, the cached
        scale planes fold in the signed exponents, and a standard BLAS
        GEMM accumulates — ``rank`` small matmuls instead of one wide
        one, which avoids materialising transposed ``(m, k, rank)``
        intermediates.
        """
        fa, fb, _info = factored_tables(
            pa.fmt.significand_bits, config, self.rank, self.tol, self.max_rank
        )
        out = pa.dense() @ pb.dense()
        mai, mbi = pa.significand, pb.significand
        alpha, beta = pa.scale(), pb.scale()
        for r in range(fa.shape[0]):
            left = fa[r].take(mai)
            left *= alpha
            right = fb[r].take(mbi)
            right *= beta
            out += left @ right
        return out


class GenericKernel(GemmKernel):
    """Per-element FP pipeline for widths too wide to tabulate.

    Runs the real ``significand_product`` + normalise + compose chain on
    every element — the only option for e.g. float32 significands, and
    the ground truth the tabulated kernels are derived from.  The
    pipeline is zero-aware: a zero operand yields a zero product, which
    normalise keeps at zero and compose turns into a signed zero.
    """

    name = "generic"
    bit_exact = True

    def supports(self, fmt: FloatFormat, config: MultiplierConfig | None) -> bool:
        """Any format (``config=None`` exact products included)."""
        return True

    def run(self, pa, pb, config, k_chunk):
        """Chunked per-element significand-product pipeline."""
        fmt = pa.fmt
        m, k = pa.shape
        n = pb.shape[1]
        bits = fmt.significand_bits

        sa, ea, ma = pa.sign, pa.exponent, pa.significand
        sb, eb, mb = pb.sign, pb.exponent, pb.significand

        out = np.zeros((m, n), dtype=np.float32)
        for c0 in range(0, k, k_chunk):
            c1 = min(k, c0 + k_chunk)
            mx = ma[:, c0:c1, None].astype(np.uint64)
            my = mb[None, c0:c1, :].astype(np.uint64)
            ex = ea[:, c0:c1, None].astype(np.int64)
            ey = eb[None, c0:c1, :].astype(np.int64)
            sx = sa[:, c0:c1, None]
            sy = sb[None, c0:c1, :]

            if config is None:
                product = mx * my
                truncated = False
            else:
                product = significand_product(mx, my, bits, config)
                truncated = config.truncated
            sig, exp = _normalise(product, ex + ey, bits, truncated)
            values = compose(sx ^ sy, exp, sig, fmt)
            out += values.sum(axis=1, dtype=np.float32)
        return out


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_KERNELS: dict[str, GemmKernel] = {}


def register_kernel(kernel: GemmKernel) -> GemmKernel:
    """Add (or replace) a kernel in the registry; returns it."""
    _KERNELS[kernel.name] = kernel
    return kernel


class UnknownKernelError(ValueError):
    """An unregistered kernel name, carrying the valid names as data.

    ``kernel`` is the offending name and ``registered`` the sorted
    registry names at raise time — CLI layers (``serve-bench``,
    ``fleet-bench``) render both as a structured error instead of making
    users parse the message.
    """

    def __init__(self, kernel: str, registered: list[str]):
        super().__init__(f"unknown GEMM kernel {kernel!r}; registered: {registered}")
        #: The name that failed to resolve.
        self.kernel = kernel
        #: Registered kernel names at raise time.
        self.registered = registered


def get_kernel(name: str) -> GemmKernel:
    """Look up a registered kernel by name (:class:`UnknownKernelError` if absent)."""
    try:
        return _KERNELS[name]
    except KeyError as exc:
        raise UnknownKernelError(name, kernel_names()) from exc


def kernel_names() -> list[str]:
    """Sorted names of all registered kernels."""
    return sorted(_KERNELS)


def exact_tier_name(fmt: FloatFormat) -> str:
    """Name of the bit-exact default tier for ``fmt`` in this process.

    ``float_table_native`` when the native tier is active (C library
    built and loaded, ``REPRO_DISABLE_NATIVE`` unset), ``float_table``
    otherwise; ``generic`` for significand widths too wide to tabulate.
    All three produce identical bits — the name only decides speed.
    """
    if not table_supported(fmt.significand_bits):
        return "generic"
    return "float_table_native" if native_active() else "float_table"


def kernel_tiers() -> dict:
    """Tier introspection for reports and benches.

    Returns ``{"kernels": [...], "exact_tier": <bf16 default tier>,
    "native": native_status()}`` — the ``table_cache_counters``-style
    snapshot the serving benches and the perf harness embed so recorded
    numbers always say which tier produced them.
    """
    from ..formats.floatfmt import BFLOAT16

    return {
        "kernels": kernel_names(),
        "exact_tier": exact_tier_name(BFLOAT16),
        "native": native_status(),
    }


def select_kernel(
    fmt: FloatFormat,
    config: MultiplierConfig | None = None,
    kernel: str | None = None,
) -> GemmKernel:
    """Resolve the kernel for ``(fmt, config)``.

    ``kernel=None`` picks the bit-exact default tier
    (:func:`exact_tier_name`): ``float_table_native`` when the native
    tier is active, else ``float_table`` for table-supported significand
    widths, ``generic`` otherwise.  A named kernel is validated against
    the registry and against ``kernel.supports``.  (The shape-aware
    ``"auto"`` policy lives one level up, in
    :func:`repro.core.router.route_kernel`.)
    """
    if kernel is None:
        return _KERNELS[exact_tier_name(fmt)]
    found = get_kernel(kernel)
    if not found.supports(fmt, config):
        raise ValueError(
            f"kernel {kernel!r} does not support {fmt.name} operands"
            f" (config {getattr(config, 'name', None)})"
        )
    return found


register_kernel(FloatTableKernel())
register_kernel(NativeGatherKernel())
register_kernel(BlasFactoredKernel())
register_kernel(BlasFactoredKernel(tol=0.25, name="blas_factored_fast"))
register_kernel(GenericKernel())
