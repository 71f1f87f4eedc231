"""Beyond-the-paper extension experiments.

Whole-network execution (all eight VGG-8 layers instead of Fig. 7's
single conv1), the arithmetic-error comparison against related-work
approximate multipliers (LPO, PP-compression), the packed-operand
pipeline probe (quantise-once weight packing vs per-call repacking),
and the GEMM kernel-registry probe (per-kernel parity and table-cache
behaviour of the float-domain / BLAS-factored back ends).
"""

from __future__ import annotations

from ..registry import Experiment, register

__all__ = [
    "kernel_speedup_point",
    "network_end2end_point",
    "packed_speedup_point",
    "related_work_point",
    "tier_certification_point",
]


def network_end2end_point(params: dict) -> list[dict]:
    """All VGG-8 layers on one design, plus the vs-Eyeriss summary row."""
    from ...arch.daism import DaismDesign
    from ...arch.network_runner import compare_with_eyeriss, run_network
    from ...arch.workloads import vgg8_layers

    design = DaismDesign(banks=params["banks"], bank_kb=params["bank_kb"])
    layers = vgg8_layers()
    rows = run_network(design, layers).rows()
    cmp = compare_with_eyeriss(design, layers)
    rows.append(
        {
            "layer": "vs Eyeriss",
            "cycle_ratio": f"{cmp['cycle_ratio']:.2f}x",
            "area_ratio": f"{cmp['area_ratio']:.2f}x",
        }
    )
    return rows


def packed_speedup_point(params: dict) -> list[dict]:
    """Per-call front-end work of packed vs repacked weights on one shape.

    Mirrors what the ``nn`` layers do for inference: the weight side is
    packed once via ``backend.prepare`` and reused, so the only per-call
    front-end work left is packing the activations.  The row reports the
    *measured* packing work each variant performs per call — counts are
    deterministic, so the rows are cache-safe (wall-clock timings live in
    ``benchmarks/perf``, outside the cached registry).
    """
    import numpy as np

    from ...core.config import PC3_TR
    from ...formats.floatfmt import BFLOAT16
    from ...formats.packed import packing_counters, reset_packing_counters
    from ...nn.backend import daism_backend

    m, k, n = params["m"], params["k"], params["n"]
    kernel = params.get("kernel") or None
    rng = np.random.default_rng(params["seed"])
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    backend = daism_backend(PC3_TR, BFLOAT16, kernel=kernel)
    prepared = backend.prepare(b)
    want = backend.matmul(a, b)

    def front_end_work(rhs) -> tuple[int, int]:
        reset_packing_counters()
        out = backend.matmul(a, rhs)
        counters = packing_counters()
        np.testing.assert_array_equal(
            out.view(np.uint32), want.view(np.uint32)
        )  # packing must never change the arithmetic
        return counters["pack_calls"], counters["elements_packed"]

    raw_packs, raw_elems = front_end_work(b)
    prep_packs, prep_elems = front_end_work(prepared)
    return [
        {
            "shape": f"{m}x{k}x{n}",
            "kernel": kernel or "float_table",
            "packs/call raw": raw_packs,
            "packs/call prepared": prep_packs,
            "elems packed raw": raw_elems,
            "elems packed prepared": prep_elems,
            "front-end work saved": f"{100.0 * (1 - prep_elems / raw_elems):.0f}%",
        }
    ]


#: Representative GEMM shapes per scenario workload, swept by
#: ``kernel_speedup``: LeNet-class (the historical default probe), the
#: MobileNet-edge ``pw2`` pointwise conv (``oh*ow x C_in x C_out`` after
#: im2col at 24x24), and the transformer block's QKV projection
#: (``seq x d_model x 3*d_model``).
_WORKLOAD_GEMMS = {
    "lenet": (96, 64, 32),
    "mobilenet_edge": (576, 64, 128),
    "transformer_block": (64, 256, 768),
}


def kernel_speedup_point(params: dict) -> list[dict]:
    """Per-kernel parity rows for one GEMM shape and multiplier config.

    Runs every registered kernel that supports the format on identical
    packed operands and reports, per kernel, whether the output is
    byte-identical to the bit-exact default, the maximum relative
    element deviation, and (for the BLAS fast path) the correction rank
    and its documented residual.  Counts and parity are deterministic,
    so the rows are cache-safe; wall-clock speedups live in
    ``benchmarks/perf`` (recorded per kernel in ``BENCH_perf.json``).
    """
    import numpy as np

    from ...core.config import MultiplierConfig
    from ...core.kernels import (
        default_k_chunk,
        get_kernel,
        kernel_names,
        select_kernel,
        table_cache_counters,
    )
    from ...formats.floatfmt import format_by_name
    from ...formats.packed import pack

    fmt = format_by_name(params["fmt"])
    config = MultiplierConfig.from_name(params["config"])
    workload = params.get("workload")
    if workload is not None and workload != "custom":
        try:
            m, k, n = _WORKLOAD_GEMMS[workload]
        except KeyError:
            raise KeyError(
                f"unknown workload {workload!r}; known: "
                f"{', '.join(sorted(_WORKLOAD_GEMMS))}, custom (use m/k/n)"
            ) from None
    else:
        # ``--set workload=custom`` pins the sweep axis to one point and
        # hands shape control back to the m/k/n parameters.
        m, k, n = params["m"], params["k"], params["n"]
    rng = np.random.default_rng(params["seed"])
    pa = pack(rng.standard_normal((m, k)).astype(np.float32), fmt)
    pb = pack(rng.standard_normal((k, n)).astype(np.float32), fmt)
    k_chunk = default_k_chunk(m, n)

    default = select_kernel(fmt, config)
    want = default.run(pa, pb, config, k_chunk)
    norm = float(np.abs(want).max()) or 1.0

    rows = []
    for name in kernel_names():
        kernel = get_kernel(name)
        if not kernel.supports(fmt, config):
            continue
        kernel.run(pa, pb, config, k_chunk)  # warm: builds tables on first use
        before = table_cache_counters()
        got = kernel.run(pa, pb, config, k_chunk)
        after = table_cache_counters()
        byte_identical = bool(
            np.array_equal(got.view(np.uint32), want.view(np.uint32))
        )
        max_rel = float(np.abs(got - want).max() / norm)
        row = {
            "workload": workload or "custom",
            "gemm": f"{m}x{k}x{n}",
            "kernel": name,
            "bit_exact contract": "yes" if kernel.bit_exact else "no (tolerance)",
            "byte-identical to default": "yes" if byte_identical else "no",
            "max rel deviation": f"{max_rel:.2e}",
            "table rebuilds on reuse": after["misses"] - before["misses"],
        }
        if name.startswith("blas_factored"):
            info = kernel.correction_info(fmt, config)
            row["correction"] = (
                f"rank {info['rank']} (resid {info['rel_frobenius_residual']:.1%})"
            )
        else:
            row["correction"] = "-"
        rows.append(row)
    return rows


def tier_certification_point(params: dict) -> list[dict]:
    """Rank-vs-error study behind the certified tier router, one config.

    Sweeps the BLAS-factored fast path's correction rank (including the
    registry default's automatic choice) against the bit-exact tier on a
    fixed probe GEMM, reporting per rank the truncated table's residual,
    the measured relative Frobenius deviation, and how far inside the
    paper's analytic ``worst_case_relative_error`` bound it sits.  The
    final row is the router's verdict at the default margin: whether
    ``kernel="auto"`` sends non-tiny shapes of this config to the fast
    path or keeps them on the bit-exact tier.  Fixed probe and seed —
    deterministic and cache-safe.
    """
    import numpy as np

    from ...core.config import MultiplierConfig
    from ...core.error_bounds import worst_case_relative_error
    from ...core.kernels import BlasFactoredKernel, default_k_chunk, get_kernel
    from ...core.router import CERT_MARGIN, FAST_TIERS, certify_fast_path
    from ...formats.floatfmt import format_by_name
    from ...formats.packed import pack

    fmt = format_by_name(params["fmt"])
    config = MultiplierConfig.from_name(params["config"])
    m, k, n = params["m"], params["k"], params["n"]
    rng = np.random.default_rng(params["seed"])
    pa = pack(rng.standard_normal((m, k)).astype(np.float32), fmt)
    pb = pack(rng.standard_normal((k, n)).astype(np.float32), fmt)
    k_chunk = default_k_chunk(m, n)
    exact = get_kernel("float_table").run(pa, pb, config, k_chunk)
    denom = float(np.linalg.norm(exact)) or 1.0
    bound = float(worst_case_relative_error(config, fmt.significand_bits))

    def measure(kernel) -> tuple[dict, float]:
        got = kernel.run(pa, pb, config, k_chunk)
        info = kernel.correction_info(fmt, config)
        return info, float(np.linalg.norm(got - exact)) / denom

    rows = []
    for rank in (0, 1, 2, 4, 8, 16, None):
        info, measured = measure(BlasFactoredKernel(rank=rank))
        rows.append(
            {
                "rank": "auto" if rank is None else rank,
                "table residual": f"{info['rel_frobenius_residual']:.1%}",
                "measured rel err": f"{measured:.2e}",
                "analytic bound": f"{bound:.3g}",
                "measured/bound": f"{measured / bound:.3f}",
                "within margin": "yes" if measured <= CERT_MARGIN * bound else "no",
            }
        )
    cert = None
    for candidate in FAST_TIERS:
        cert = certify_fast_path(
            fmt, config, shape=(m, k, n), seed=params["seed"], kernel=candidate
        )
        if cert.certified:
            break
    rows.append(
        {
            "rank": f"router/{cert.kernel} (rank {cert.rank})",
            "table residual": f"{cert.rel_frobenius_residual:.1%}",
            "measured rel err": f"{cert.measured_rel_error:.2e}",
            "analytic bound": f"{cert.analytic_bound:.3g}",
            "measured/bound": f"{cert.measured_rel_error / cert.analytic_bound:.3f}",
            "within margin": (
                f"certified -> {cert.kernel}"
                if cert.certified
                else "NOT certified -> bit-exact tier"
            ),
        }
    )
    return rows


def related_work_point(params: dict) -> list[dict]:
    """Error rows for one multiplier family on the bf16 significand range."""
    import numpy as np

    from ...core.config import all_configs
    from ...core.related_work import (
        compressed_pp_multiply_array,
        lower_part_or_multiply_array,
    )
    from ...core.vectorized import approx_multiply_array

    rng = np.random.default_rng(params["seed"])
    n = params["samples"]
    a = rng.integers(128, 256, n, dtype=np.uint64)
    b = rng.integers(128, 256, n, dtype=np.uint64)
    exact = (a * b).astype(np.float64)

    def row(name: str, approx: np.ndarray, needs_adders: str) -> dict:
        err = (exact - approx.astype(np.float64)) / exact
        return {
            "multiplier": name,
            "mean rel err": f"{err.mean():.4f}",
            "max rel err": f"{err.max():.4f}",
            "adder tree": needs_adders,
            "in-memory": "no" if needs_adders == "yes" else "yes",
        }

    family = params["family"]
    rows = []
    if family == "daism":
        for config in all_configs():
            approx = approx_multiply_array(a, b, 8, config).astype(np.float64)
            if config.truncated:
                approx = approx * 256.0
            rows.append(row(f"DAISM {config.name}", approx, "no"))
    elif family == "lpo":
        for split in (8, 10, 12):
            rows.append(
                row(
                    f"LPO split={split} [Guo'18]",
                    lower_part_or_multiply_array(a, b, 8, split),
                    "yes",
                )
            )
    elif family == "ppc":
        for stages in (1, 2):
            rows.append(
                row(
                    f"PP-compress x{stages} [Qiqieh'17]",
                    compressed_pp_multiply_array(a, b, 8, stages),
                    "yes",
                )
            )
    else:
        raise ValueError(f"unknown multiplier family {family!r}")
    return rows


register(
    Experiment(
        name="network_end2end",
        artifact="Extension",
        title="VGG-8 end-to-end execution (16x32kB)",
        description=(
            "Whole-network run beyond Fig. 7's single layer: per-layer "
            "cycles/energy, pass counts for layers exceeding the compute "
            "SRAM, and the end-to-end cycle/area ratio vs Eyeriss."
        ),
        run=network_end2end_point,
        defaults={"banks": 16, "bank_kb": 32},
        tags=("extension", "arch"),
        est_seconds=2.0,
    )
)

register(
    Experiment(
        name="packed_speedup",
        artifact="Extension",
        title="Quantise-once weight packing: per-call front-end work",
        description=(
            "The PackedTensor pipeline probe: a DAISM bfloat16 PC3_tr GEMM "
            "against a pre-packed weight (backend.prepare, as the nn layers "
            "cache it) vs repacking the weight every call — the measured "
            "quantise/decompose work per call, with byte-identical outputs "
            "asserted. Set kernel=blas_factored (or any registry name) to "
            "probe a non-default GEMM kernel's front end. Wall-clock "
            "timings live in benchmarks/perf."
        ),
        run=packed_speedup_point,
        space={"m": (64, 256)},
        defaults={"k": 128, "n": 64, "seed": 0, "kernel": ""},
        tags=("extension", "core", "perf"),
        est_seconds=2.0,
    )
)

register(
    Experiment(
        name="kernel_speedup",
        artifact="Extension",
        title="GEMM kernel registry: per-kernel parity and cache behaviour",
        description=(
            "The float-domain value-table kernel and the BLAS-factored "
            "exact+correction fast path next to the native C tier and the "
            "generic pipeline: byte-identity to the bit-exact default, "
            "maximum relative deviation of the tolerance path, correction "
            "rank/residual, and proof that warm kernels never rebuild "
            "their tables, across representative GEMM shapes from the "
            "LeNet-class probe, the MobileNet-edge pointwise conv and the "
            "transformer QKV projection. Wall-clock speedups are recorded "
            "per kernel in BENCH_perf.json by benchmarks/perf."
        ),
        run=kernel_speedup_point,
        space={
            "config": ("PC3_tr", "FLA"),
            "workload": ("lenet", "mobilenet_edge", "transformer_block"),
        },
        defaults={"fmt": "bfloat16", "m": 96, "k": 64, "n": 32, "seed": 0},
        tags=("extension", "core", "perf"),
        est_seconds=4.0,
    )
)

register(
    Experiment(
        name="tier_certification",
        artifact="Extension",
        title="Certified tier routing: rank-vs-error study per config",
        description=(
            "The evidence behind kernel='auto': the BLAS-factored fast "
            "path's measured deviation from the bit-exact tier as its "
            "correction rank grows, against the paper's analytic worst-"
            "case bound, ending with the router's verdict at the default "
            "margin. A config only ever routes to the fast path when its "
            "measured error clears margin x bound on the fixed probe."
        ),
        run=tier_certification_point,
        space={"config": ("FLA", "PC2", "PC3", "PC2_tr", "PC3_tr")},
        defaults={"fmt": "bfloat16", "m": 96, "k": 128, "n": 48, "seed": 0},
        tags=("extension", "core", "perf"),
        est_seconds=4.0,
    )
)

register(
    Experiment(
        name="related_work_multipliers",
        artifact="Extension",
        title="DAISM vs related-work approximate multipliers (bf16 range)",
        description=(
            "Arithmetic error of the DAISM configs next to Guo's lower-part-"
            "OR and Qiqieh's PP-compression designs: PC3 sits in the same "
            "accuracy class while needing no adder tree."
        ),
        run=related_work_point,
        space={"family": ("daism", "lpo", "ppc")},
        defaults={"samples": 1 << 14, "seed": 0},
        tags=("extension", "core"),
        est_seconds=2.0,
    )
)
