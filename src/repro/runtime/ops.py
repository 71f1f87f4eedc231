"""Plan ops: the compiled form of one layer's forward computation.

A compiled :class:`ExecutionPlan <repro.runtime.plan.ExecutionPlan>` is a
flat tuple of the op objects defined here.  Each op captures everything
its layer needs at *compile* time — resolved GEMM kernel, pre-packed
weight planes, snapshotted BatchNorm statistics — so steady-state
execution performs zero backend lookups, zero ``prepare()`` calls and no
Python recursion: the plan loop is ``for op in ops: x = op.apply(x, ctx)``.

Every op is **immutable and thread-safe**: ``apply`` reads captured
arrays and writes only fresh ones, so one plan can execute concurrently
on many shards (see :mod:`repro.runtime.engine`).  Ops are also
**row-independent** (sample ``i``'s output depends only on sample ``i``'s
input) except where noted, which is what makes shard-parallel execution
byte-identical to a single-threaded pass: the only cross-sample coupling
in the eager stack is the K-chunk choice of the packed GEMMs, and the
ops pin that to the *full-batch* row count carried in the
:class:`ExecContext`.

The layer seam is :class:`OpSpec`: every leaf layer in
:mod:`repro.nn.layers` exposes ``to_plan_op()`` returning a spec (kind +
static shape attributes + the source module), and both the runtime
compiler and the accelerator co-sim
(:func:`repro.runtime.plan.conv_workload`) consume that one description
instead of re-walking the module tree with their own shape logic.

Two genuine optimisations over the eager path live here:

* :func:`pack_cols` packs a convolution *input image* once and gathers
  the packed bit planes through im2col, instead of materialising the
  ``K*K``-fold redundant patch matrix and quantising every copy.
  Quantisation is elementwise, so the gathered planes are byte-identical
  to ``pack(im2col(x))`` — the ~``K*K``x cut in quantise/decompose work
  is free of any numerical change.
* :class:`GroupedConvOp` on the native tier skips im2col altogether: one
  :func:`~repro.core.native.grouped_conv` call runs every group's GEMM
  directly on the packed image and writes the NCHW output, with each
  output element's terms in im2col column order — byte-identical to the
  per-group loop it replaces.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.kernels import GemmKernel, NativeGatherKernel, default_k_chunk
from ..core.native import grouped_conv, native_active
from ..formats.floatfmt import FloatFormat, quantize
from ..formats.packed import PackedTensor, pack
from ..nn import functional as F

__all__ = [
    "OpSpec",
    "ExecContext",
    "PlanOp",
    "MatmulStrategy",
    "ExactStrategy",
    "QuantDenseStrategy",
    "PackedKernelStrategy",
    "BackendStrategy",
    "pack_cols",
    "gather_packed_cols",
    "ConvOp",
    "GroupedConvOp",
    "LinearOp",
    "AttentionOp",
    "LayerNormOp",
    "SoftmaxOp",
    "ReluOp",
    "MaxPoolOp",
    "GlobalAvgPoolOp",
    "BatchNormOp",
    "FlattenOp",
    "StackPushOp",
    "StackSwapOp",
    "StackAddPopOp",
]


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """One layer's declarative description — the ``to_plan_op()`` seam.

    Parameters
    ----------
    kind:
        Op discriminator (``"conv2d"``, ``"linear"``, ``"relu"``,
        ``"maxpool2d"``, ``"global_avg_pool"``, ``"batchnorm2d"``,
        ``"dropout"``, ``"flatten"``, or the residual control kinds
        ``"stack_push"`` / ``"stack_swap"`` / ``"stack_add_pop"``).
    attrs:
        Static shape/config attributes (e.g. a conv's ``in_channels``,
        ``kernel``, ``stride``, ``padding``) — everything the
        accelerator co-sim needs to derive layer shapes without touching
        weights.
    module:
        The source :class:`~repro.nn.layers.Module`, from which the
        compiler captures weights; ``None`` for control ops.
    """

    kind: str
    attrs: dict = dataclasses.field(default_factory=dict)
    module: object = None


@dataclasses.dataclass
class ExecContext:
    """Per-execution state threaded through the op loop.

    ``total_batch`` is the *full* batch size of the logical call — when
    the engine shards a batch, every shard receives the same
    ``total_batch`` so K-chunk choices (which depend on total GEMM rows)
    match the unsharded execution bit-for-bit.  ``stack`` holds residual
    shortcut activations for the flattened control ops.
    """

    total_batch: int
    stack: list = dataclasses.field(default_factory=list)


class PlanOp:
    """Interface: one compiled step of an execution plan."""

    #: Op discriminator, mirrors the producing ``OpSpec.kind``.
    kind = "abstract"
    #: Layer name used in ``ExecutionPlan.describe()`` rows.
    name = ""
    #: Whether sample ``i``'s output depends only on sample ``i``'s
    #: input (required for shard-parallel execution).
    row_independent = True

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        """Compute this op's output for (a shard of) the batch."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name or self.kind})"


# --------------------------------------------------------------------------
# Matmul strategies: the arithmetic resolved once at compile time
# --------------------------------------------------------------------------


class MatmulStrategy:
    """A weight's resolved arithmetic: ``(rows, K) @ prepared -> (rows, N)``.

    Strategies are built by the compiler from the backend *once*; their
    ``matmul2d`` runs the steady-state product with no backend lookup
    and no ``prepare()`` call.  ``rows_total`` is the full-batch row
    count used to pin the K-chunk split (see :class:`ExecContext`).
    """

    #: Sample rows are independent — sharding the row dimension is
    #: byte-identical (given the pinned K chunk).
    row_independent = True
    #: Whether the conv path should hand this strategy pre-packed
    #: im2col planes (see :func:`pack_cols`) instead of a float matrix.
    packed_input = False
    #: Whether packed inputs must carry the dense value plane.
    needs_dense = False
    #: The kernel-tier name behind this strategy, for introspection
    #: (``ExecutionPlan.describe``/``plan_tiers``); ``None`` for
    #: strategies with no registry kernel (e.g. exact float32 BLAS).
    kernel_name: str | None = None

    def matmul2d(self, a: np.ndarray, rows_total: int) -> np.ndarray:
        """Product of a 2-D float operand against the prepared weight."""
        raise NotImplementedError


class ExactStrategy(MatmulStrategy):
    """Plain float32 BLAS against the prepared (cast-once) weight."""

    def __init__(self, weight: np.ndarray):
        self.weight = weight

    def matmul2d(self, a: np.ndarray, rows_total: int) -> np.ndarray:
        return np.asarray(a, dtype=np.float32) @ self.weight


class QuantDenseStrategy(MatmulStrategy):
    """Quantise the activation, BLAS against the quantised dense weight."""

    kernel_name = "dense_blas"

    def __init__(self, fmt: FloatFormat, weight_q: np.ndarray):
        self.fmt = fmt
        self.weight_q = weight_q

    def matmul2d(self, a: np.ndarray, rows_total: int) -> np.ndarray:
        return quantize(a, self.fmt) @ self.weight_q


class PackedKernelStrategy(MatmulStrategy):
    """A resolved packed GEMM kernel against pre-packed weight planes.

    Covers both the DAISM datapath (``config`` set) and the
    quantised-with-kernel path (``config=None`` — exact significand
    products).  ``k_chunk`` pins an explicit reduction split when the
    source backend carried one; otherwise the split derives from the
    full-batch row count, exactly as ``approx_matmul`` would choose for
    the unsharded call.
    """

    packed_input = True

    def __init__(
        self,
        fmt: FloatFormat,
        config,
        kernel: GemmKernel,
        weight: PackedTensor,
        k_chunk: int | None = None,
    ):
        self.fmt = fmt
        self.config = config
        self.kernel = kernel
        self.weight = weight
        self.k_chunk = k_chunk
        # Only the non-bit-exact (BLAS-factored) kernel reads the dense
        # value plane; gathering it for the others would be wasted work.
        # An unknown kernel that does read it still works — PackedTensor
        # falls back to recomposing dense values from the planes.
        self.needs_dense = not kernel.bit_exact
        self.kernel_name = kernel.name

    def matmul2d(self, a: np.ndarray, rows_total: int) -> np.ndarray:
        return self.matmul_packed(pack(a, self.fmt), rows_total)

    def matmul_packed(self, pa: PackedTensor, rows_total: int) -> np.ndarray:
        """Run the kernel on already-packed activation planes."""
        n = self.weight.shape[1]
        k_chunk = self.k_chunk
        if k_chunk is None:
            k_chunk = default_k_chunk(rows_total, n)
        return self.kernel.run(pa, self.weight, self.config, k_chunk)


class BackendStrategy(MatmulStrategy):
    """Generic fallback: delegate to ``backend.matmul`` with a prepared weight.

    Used for backends the compiler has no specialised strategy for
    (e.g. the block-floating-point backend).  Still skips per-call
    ``prepare()`` work, but the backend owns its own chunking and may
    couple samples (BFP shares one exponent per matrix), so plans
    containing this strategy refuse shard-parallel execution.
    """

    row_independent = False

    def __init__(self, backend, prepared):
        self.backend = backend
        self.prepared = prepared

    def matmul2d(self, a: np.ndarray, rows_total: int) -> np.ndarray:
        return self.backend.matmul(a, self.prepared)

    def matmul3d(self, a: np.ndarray) -> np.ndarray:
        """Batched call preserving the eager conv operand shape."""
        return self.backend.matmul(a, self.prepared)


# --------------------------------------------------------------------------
# Packed im2col: quantise the image once, gather planes K*K-fold
# --------------------------------------------------------------------------


def gather_packed_cols(
    packed: PackedTensor,
    kernel: int,
    stride: int,
    padding: int,
    need_dense: bool = False,
    channels: slice | None = None,
) -> PackedTensor:
    """Gather already-packed image planes through im2col.

    ``channels`` restricts the gather to a channel slice of the packed
    image — slicing, like the gather itself, commutes with elementwise
    quantisation, so grouped convolutions can pack the whole image once
    and carve per-group patch planes byte-identical to
    ``pack(im2col(x[:, channels]))``.  ``im2col`` reads real strides, so
    the sliced views gather without a copy.
    """

    def gather(plane: np.ndarray) -> np.ndarray:
        if channels is not None:
            plane = plane[:, channels]
        return F.im2col(plane, kernel, stride, padding)

    cols = PackedTensor(
        packed.fmt,
        gather(packed.sign),
        gather(packed.exponent),
        gather(packed.significand),
    )
    cols._scale = gather(packed.scale())
    if need_dense:
        cols._dense = gather(packed.dense())
    return cols


def pack_cols(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    fmt: FloatFormat,
    need_dense: bool = False,
) -> PackedTensor:
    """Packed im2col: byte-identical to ``pack(im2col(x), fmt)``, cheaper.

    The eager conv path materialises the ``(N*OH*OW, C*K*K)`` patch
    matrix and then quantises+decomposes it — every input pixel is
    re-quantised once per kernel tap (``K*K`` times for stride 1).
    Quantisation is elementwise, so packing commutes with the gather:
    this packs the ``(N, C, H, W)`` image once and pulls each packed
    plane (and the cached scale/dense planes) through the same
    stride-tricks gather ``im2col`` uses.  Zero padding is exact in
    either order (zeros pack to all-zero planes with ``+0`` scale).
    """
    packed = pack(np.ascontiguousarray(x, dtype=np.float32), fmt)
    return gather_packed_cols(packed, kernel, stride, padding, need_dense)


# --------------------------------------------------------------------------
# Compiled ops
# --------------------------------------------------------------------------


class ConvOp(PlanOp):
    """im2col convolution with a pre-resolved strategy and packed weight."""

    kind = "conv2d"

    def __init__(
        self,
        strategy: MatmulStrategy,
        bias: np.ndarray | None,
        out_channels: int,
        kernel: int,
        stride: int,
        padding: int,
        name: str = "conv2d",
    ):
        self.strategy = strategy
        self.bias = bias
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.name = name
        self.row_independent = strategy.row_independent

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        n, _c, h, w = x.shape
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        strategy = self.strategy
        if strategy.packed_input:
            pa = pack_cols(
                x, self.kernel, self.stride, self.padding, strategy.fmt,
                need_dense=strategy.needs_dense,
            )
            out = strategy.matmul_packed(pa, ctx.total_batch * oh * ow)
        elif isinstance(strategy, BackendStrategy):
            cols = F.im2col(x, self.kernel, self.stride, self.padding)
            # Preserve the eager operand shape: generic backends may
            # couple the whole (batched) matrix (e.g. BFP's shared
            # exponent spans everything the eager call handed it).
            out = strategy.matmul3d(cols.reshape(n, oh * ow, -1))
        else:
            cols = F.im2col(x, self.kernel, self.stride, self.padding)
            out = strategy.matmul2d(cols, ctx.total_batch * oh * ow)
        out = out.reshape(n, oh * ow, self.out_channels)
        if self.bias is not None:
            out = out + self.bias[None, None, :]
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(out, dtype=np.float32)


class GroupedConvOp(PlanOp):
    """Grouped/depthwise convolution: one resolved strategy per group.

    Two paths, byte-identical to each other and to the eager per-group
    ``pack(im2col(x[:, slice]))`` GEMMs:

    * **One call** (native tier): every group's GEMM runs in a single
      :func:`~repro.core.native.grouped_conv` call directly on the packed
      NCHW image, written straight to NCHW — no im2col, no per-group
      gathers, no concatenate or transpose.  Taken only when the native
      tier is active, every group resolved to ``float_table_native``,
      and no group's GEMM would be delegated to ``float_table``
      (:meth:`~repro.core.kernels.NativeGatherKernel._conv_call_args`
      decides, beside the GEMM's own delegation rule).
    * **Per group** otherwise (the kill switch, approximate tiers,
      :class:`BackendStrategy`): the image is packed *once* and each
      group's patch planes are gathered from a channel slice of the
      shared packed planes (see :func:`gather_packed_cols`).

    When every group resolved to ``float_table_native``, the compiled
    weight planes are stacked to ``(groups, K_g, cout_g)`` once and each
    group's :class:`~repro.formats.packed.PackedTensor` is a view into
    that stack (:attr:`stacked`), so both paths read one copy of the
    weights — the bytes ``plan_digest`` hashes.
    """

    kind = "conv2d"

    def __init__(
        self,
        strategies: tuple[MatmulStrategy, ...],
        bias: np.ndarray | None,
        out_channels: int,
        kernel: int,
        stride: int,
        padding: int,
        groups: int,
        name: str = "conv2d",
    ):
        self.strategies = tuple(strategies)
        self.bias = bias
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.name = name
        self.row_independent = all(s.row_independent for s in self.strategies)
        #: The groups' packed weights stacked to ``(groups, K_g, cout_g)``,
        #: or ``None`` when the one-call path can never apply.
        self.stacked = self._stack_weights()

    def _stack_weights(self) -> PackedTensor | None:
        strategies = self.strategies
        first = strategies[0]
        if self.bias is not None and self.bias.dtype != np.float32:
            return None
        for s in strategies:
            if not (
                isinstance(s, PackedKernelStrategy)
                and isinstance(s.kernel, NativeGatherKernel)
                and (s.fmt, s.config, s.k_chunk) == (first.fmt, first.config, first.k_chunk)
                and s.weight.shape == first.weight.shape
            ):
                return None
        weights = [s.weight for s in strategies]
        stacked = PackedTensor(
            first.fmt,
            np.stack([w.sign for w in weights]),
            np.stack([w.exponent for w in weights]),
            np.stack([w.significand for w in weights]),
        )
        stacked._scale = np.stack([w.scale() for w in weights])
        for g, s in enumerate(strategies):
            view = PackedTensor(
                first.fmt, stacked.sign[g], stacked.exponent[g], stacked.significand[g]
            )
            view._scale = stacked._scale[g]
            s.weight = view
        return stacked

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        first = self.strategies[0]
        packed = None
        if first.packed_input:
            packed = pack(np.ascontiguousarray(x, dtype=np.float32), first.fmt)
            if self.stacked is not None and native_active():
                out = self._apply_one_call(packed, ctx)
                if out is not None:
                    return out
        return self._apply_groups(x, packed, ctx)

    def _geometry(self, x_shape: tuple[int, ...], ctx: ExecContext) -> tuple[int, int, int]:
        """``(oh, ow, rows_total)``: output size and full-batch GEMM rows."""
        _n, _c, h, w = x_shape
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        return oh, ow, ctx.total_batch * oh * ow

    def _apply_one_call(self, packed: PackedTensor, ctx: ExecContext) -> np.ndarray | None:
        """The native one-call path, or ``None`` when some group must run alone."""
        first = self.strategies[0]
        k_chunk = first.k_chunk
        if k_chunk is None:
            rows_total = self._geometry(packed.shape, ctx)[2]
            k_chunk = default_k_chunk(rows_total, self.stacked.shape[2])
        args = first.kernel._conv_call_args(
            packed, self.stacked, self.bias, self.kernel, self.stride, self.padding,
            first.config, k_chunk,
        )
        if args is None:
            return None
        return grouped_conv(*args)

    def _apply_groups(
        self, x: np.ndarray, packed: PackedTensor | None, ctx: ExecContext
    ) -> np.ndarray:
        """The per-group loop over the once-packed image ``packed``."""
        n, c, _h, _w = x.shape
        cg = c // self.groups
        oh, ow, rows_total = self._geometry(x.shape, ctx)
        outs = []
        for g, strategy in enumerate(self.strategies):
            channels = slice(g * cg, (g + 1) * cg)
            if strategy.packed_input:
                pa = gather_packed_cols(
                    packed, self.kernel, self.stride, self.padding,
                    need_dense=strategy.needs_dense, channels=channels,
                )
                out_g = strategy.matmul_packed(pa, rows_total)
            elif isinstance(strategy, BackendStrategy):
                cols = F.im2col(x[:, channels], self.kernel, self.stride, self.padding)
                out_g = strategy.matmul3d(cols.reshape(n, oh * ow, -1))
                out_g = out_g.reshape(n * oh * ow, -1)
            else:
                cols = F.im2col(x[:, channels], self.kernel, self.stride, self.padding)
                out_g = strategy.matmul2d(cols, rows_total)
            outs.append(out_g.reshape(n, oh * ow, -1))
        out = np.concatenate(outs, axis=2)
        if self.bias is not None:
            out = out + self.bias[None, None, :]
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(out, dtype=np.float32)


class LinearOp(PlanOp):
    """Fully connected product with a pre-resolved strategy.

    Accepts sequence inputs ``(N, T, D)`` as well as ``(N, D)``: the
    leading axes fold into GEMM rows exactly as the eager backend does,
    with the K-chunk pinned to the *full-batch* row count so sharded
    execution matches the unsharded bits.
    """

    kind = "linear"

    def __init__(self, strategy: MatmulStrategy, bias: np.ndarray | None, name: str = "linear"):
        self.strategy = strategy
        self.bias = bias
        self.name = name
        self.row_independent = strategy.row_independent

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        if x.ndim > 2:
            lead = x.shape[:-1]
            per_sample = 1
            for dim in lead[1:]:
                per_sample *= dim
            if isinstance(self.strategy, BackendStrategy):
                out = self.strategy.matmul3d(x)
            else:
                out = self.strategy.matmul2d(
                    np.ascontiguousarray(x.reshape(-1, x.shape[-1])),
                    ctx.total_batch * per_sample,
                )
                out = out.reshape(*lead, -1)
        else:
            out = self.strategy.matmul2d(x, ctx.total_batch)
        if self.bias is not None:
            out = out + self.bias[None, :]
        return out.astype(np.float32, copy=False)


class AttentionOp(PlanOp):
    """Multi-head self-attention with pre-resolved projection strategies.

    The QKV and output projections run through compiled
    :class:`MatmulStrategy` instances (pre-packed weights, pinned
    K-chunks); the per-(sample, head) ``Q K^T``/``A V`` products call
    the captured backend through the same
    :func:`repro.nn.functional.attention_core` the eager layer uses, so
    the whole block is byte-identical by construction.  Those inner
    GEMM shapes depend only on ``(T, Dh)``, never the batch, which
    keeps the op row-independent whenever its projections are.
    """

    kind = "attention"

    def __init__(
        self,
        qkv_strategy: MatmulStrategy,
        qkv_bias: np.ndarray | None,
        out_strategy: MatmulStrategy,
        out_bias: np.ndarray | None,
        heads: int,
        scale: float,
        backend,
        name: str = "attention",
    ):
        self.qkv_strategy = qkv_strategy
        self.qkv_bias = qkv_bias
        self.out_strategy = out_strategy
        self.out_bias = out_bias
        self.heads = heads
        self.scale = scale
        self.backend = backend
        self.name = name
        self.row_independent = (
            qkv_strategy.row_independent and out_strategy.row_independent
        )

    @property
    def strategies(self) -> tuple[MatmulStrategy, ...]:
        return (self.qkv_strategy, self.out_strategy)

    def _project(
        self,
        strategy: MatmulStrategy,
        bias: np.ndarray | None,
        x: np.ndarray,
        rows_total: int,
    ) -> np.ndarray:
        n, t, _d = x.shape
        if isinstance(strategy, BackendStrategy):
            out = strategy.matmul3d(x)
        else:
            out = strategy.matmul2d(
                np.ascontiguousarray(x.reshape(n * t, -1)), rows_total
            )
            out = out.reshape(n, t, -1)
        if bias is not None:
            out = out + bias[None, :]
        return out.astype(np.float32, copy=False)

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        n, t, d = x.shape
        rows_total = ctx.total_batch * t
        qkv = self._project(self.qkv_strategy, self.qkv_bias, x, rows_total)
        q = F.split_heads(np.ascontiguousarray(qkv[..., :d]), self.heads)
        k = F.split_heads(np.ascontiguousarray(qkv[..., d : 2 * d]), self.heads)
        v = F.split_heads(np.ascontiguousarray(qkv[..., 2 * d :]), self.heads)
        context, _probs = F.attention_core(q, k, v, self.backend, self.scale)
        return self._project(
            self.out_strategy, self.out_bias, F.merge_heads(context), rows_total
        )


class LayerNormOp(PlanOp):
    """Layer normalisation over captured affine parameters."""

    kind = "layernorm"

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, eps: float, name: str = "layernorm"):
        self.gamma = gamma
        self.beta = beta
        self.eps = eps
        self.name = name

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        out, _cache = F.layernorm_forward(x, self.gamma, self.beta, self.eps)
        return out


class SoftmaxOp(PlanOp):
    """Softmax over the trailing axis."""

    kind = "softmax"
    name = "softmax"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return F.softmax(x).astype(np.float32, copy=False)


class ReluOp(PlanOp):
    """Rectified linear unit."""

    kind = "relu"
    name = "relu"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        # Same values as the eager `np.where(mask, x, 0.0).astype(f32)`;
        # copy=False skips the eager path's redundant second copy.
        return np.where(x > 0, x, np.float32(0.0)).astype(np.float32, copy=False)


class MaxPoolOp(PlanOp):
    """Non-overlapping max pooling."""

    kind = "maxpool2d"

    def __init__(self, size: int):
        self.size = size
        self.name = f"maxpool{size}"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        # Inference needs no argmax cache for backward: an elementwise
        # maximum over the window taps picks the same values as the
        # eager argmax+gather at a fraction of its cost.
        n, c, h, w = x.shape
        size = self.size
        if h % size or w % size:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool size {size}")
        windows = x.reshape(n, c, h // size, size, w // size, size)
        out = windows[:, :, :, 0, :, 0]
        for i in range(size):
            for j in range(size):
                if i or j:
                    out = np.maximum(out, windows[:, :, :, i, :, j])
        return out.astype(np.float32, copy=False)


class GlobalAvgPoolOp(PlanOp):
    """Global average pooling to ``(N, C)``."""

    kind = "global_avg_pool"
    name = "global_avg_pool"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return F.avgpool_global_forward(x)


class BatchNormOp(PlanOp):
    """Inference batch norm over snapshotted running statistics.

    Captures the layer's running mean/var and affine parameters at
    compile time and replays the eval-mode arithmetic of
    :class:`~repro.nn.layers.BatchNorm2d` operation-for-operation, so
    outputs are byte-identical to the eager eval pass.
    """

    kind = "batchnorm2d"

    def __init__(
        self,
        gamma: np.ndarray,
        beta: np.ndarray,
        mean: np.ndarray,
        var: np.ndarray,
        eps: float,
        name: str = "batchnorm2d",
    ):
        self.gamma = gamma
        self.beta = beta
        self.mean = mean
        # Same expression (and therefore the same bits) as the eager
        # eval branch computes per forward.
        self.inv_std = 1.0 / np.sqrt(var + eps)
        self.name = name

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        x_hat = (x - self.mean[None, :, None, None]) * self.inv_std[None, :, None, None]
        out = self.gamma[None, :, None, None] * x_hat + self.beta[None, :, None, None]
        return out.astype(np.float32, copy=False)


class FlattenOp(PlanOp):
    """``(N, ...) -> (N, prod)``."""

    kind = "flatten"
    name = "flatten"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class StackPushOp(PlanOp):
    """Save the current activation for a residual shortcut."""

    kind = "stack_push"
    name = "residual:push"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        ctx.stack.append(x)
        return x


class StackSwapOp(PlanOp):
    """Swap the current activation with the saved one.

    After the residual body ran, the current value is the body output
    and the stack holds the block input; swapping lets the shortcut ops
    consume the input while the body output waits on the stack.
    """

    kind = "stack_swap"
    name = "residual:swap"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        saved = ctx.stack[-1]
        ctx.stack[-1] = x
        return saved


class StackAddPopOp(PlanOp):
    """Pop the saved activation and add — the residual join."""

    kind = "stack_add_pop"
    name = "residual:add"

    def apply(self, x: np.ndarray, ctx: ExecContext) -> np.ndarray:
        saved = ctx.stack.pop()
        if saved.shape != x.shape:
            raise ValueError(f"residual shape mismatch: {saved.shape} vs {x.shape}")
        return (saved + x).astype(np.float32, copy=False)
