"""``offline_canonical``: compiled plans at the served models' canonical shapes.

``transformer_encoder`` on (64, 256) and ``mobilenet_edge`` on
(3, 96, 96), batch 16, on the default bit-exact DAISM tier (bfloat16,
PC3_tr), in one process with no fleet.  More than 95% of the time is in
GEMM ops, so the LUT kernels and operand packing dominate.  A round runs
one batch through each model; after one untimed warm-up round, rounds
repeat until ``--seconds`` pass.

Every timed output is checked, after the timed region, against the
eager ``model(x)`` logits for the same batch under the same backend.
The co-sim's predicted cycles for each layer, on the scheduler's design
point, are recorded as a digest and joined to the measured op times in
the traced run.

Each execution and each compile is paired with the host-speed reference
(:mod:`perfbench.hostspeed`); the bounded timings are medians at nominal
host speed.
"""

from __future__ import annotations

import time

import numpy as np

from .common import (
    MOBILENET,
    TRANSFORMER,
    Result,
    check_bytes_equal,
    cosim_shape,
    digest,
    environment,
    gemm_op_keys,
    kernel_metrics,
    median,
    peak_rss_mb,
    plan_layer_metrics,
)
from .hostspeed import HostRef, at_nominal
from .tracing import load_spans

MODELS = (TRANSFORMER, MOBILENET)
BATCH = 16
SETUPS = 15
#: Reference passes per host-speed point (see :mod:`perfbench.hostspeed`).
REF_PASSES = 25


def predicted_cycles(model: str, module, batch: int, tracer=None) -> dict[str, float]:
    """Per-layer co-sim cycles per sample at ``batch``, on the scheduler's design.

    The design is the one :class:`~repro.runtime.scheduler.CostSurface`
    picks from the DSE grid; re-running it here must reproduce the
    surface's whole-network cycles, which is checked.
    """
    from repro.arch.daism import DaismDesign
    from repro.arch.network_runner import run_network
    from repro.runtime.plan import conv_workload
    from repro.runtime.scheduler import CostSurface

    surface = CostSurface.from_zoo(model)
    banks, bank_kb = surface.design.removesuffix("kB").split("x")
    design = DaismDesign(banks=int(banks), bank_kb=int(bank_kb))
    layers = conv_workload(module, cosim_shape(model))
    if tracer is not None:
        report = tracer.call("arch.run_network", run_network, (design, layers))
    else:
        report = run_network(design, layers)
    if report.total_cycles != surface.first_cycles:
        raise RuntimeError(f"{model}: co-sim disagrees with the scheduler's surface")
    return {
        layer.name: (layer.cycles + (batch - 1) * layer.steady_cycles) / batch
        for layer in report.layers
    }


def run(seed: int, seconds: float, tracer=None) -> Result:
    from repro.core.kernels import table_cache_counters
    from repro.nn.backend import use_backend
    from repro.nn.models import model_input_shape, model_zoo
    from repro.runtime.fleet import resolve_backend
    from repro.runtime.plan import compile_plan, plan_tiers

    rng = np.random.default_rng(seed)
    inputs = {
        m: rng.standard_normal((BATCH, *model_input_shape(m))).astype(np.float32)
        for m in MODELS
    }
    zoo = model_zoo()
    modules = {m: zoo[m] for m in MODELS}
    for module in modules.values():
        module.eval()
    backend = resolve_backend("daism")

    host = HostRef(REF_PASSES)
    setups, setup_refs = [], []
    host.mark()
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        plans = {m: compile_plan(modules[m], backend) for m in MODELS}
        setups.append(time.perf_counter() - t0)
        setup_refs.append(host.pair())
    if tracer is not None:
        for m, plan in plans.items():
            tracer.labels[id(plan)] = m
        tracer.install()

    outputs = []
    if tracer is not None:
        tracer.enabled = False
    # A warm-up round, not timed: it may build tables the compile step left lazy.
    misses0 = table_cache_counters()["misses"]
    for m in MODELS:
        outputs.append((m, plans[m].execute(inputs[m])))
    first_round_misses = table_cache_counters()["misses"] - misses0
    misses0 += first_round_misses
    times = {m: [] for m in MODELS}
    refs = {m: [] for m in MODELS}
    traced_times = {m: [] for m in MODELS}
    traced_refs = {m: [] for m in MODELS}
    host.mark()
    t_start = time.perf_counter()
    rounds = 0
    min_rounds = 2 if tracer is not None else 1
    while rounds < min_rounds or time.perf_counter() - t_start < seconds:
        if tracer is not None:
            # Alternate rounds so the untraced ones measure the overhead.
            tracer.enabled = rounds % 2 == 1
        for m in MODELS:
            t0 = time.perf_counter()
            y = plans[m].execute(inputs[m])
            elapsed = time.perf_counter() - t0
            ref = host.pair()
            if tracer is not None and tracer.enabled:
                traced_times[m].append(elapsed)
                traced_refs[m].append(ref)
            else:
                times[m].append(elapsed)
                refs[m].append(ref)
            outputs.append((m, y))
        rounds += 1
    misses = table_cache_counters()["misses"] - misses0

    if tracer is not None:
        tracer.enabled = False  # the eager reference is not part of the trace
    with use_backend(backend):
        eager = {m: modules[m](inputs[m]) for m in MODELS}
    for i, (m, y) in enumerate(outputs):
        check_bytes_equal(y, eager[m], f"{m} plan output {i}")
    if tracer is not None:
        tracer.enabled = True
    cycles = {m: predicted_cycles(m, modules[m], BATCH, tracer) for m in MODELS}

    per_sample_ms = {m: 1e3 * median(times[m]) / BATCH for m in MODELS}
    figures = {f"offline.{m}.samples_per_s": (1e3 / per_sample_ms[m], "1/s") for m in MODELS}
    figures["offline.rounds"] = (rounds, "count")
    round_ms = sum(1e3 * median(times[m]) for m in MODELS)
    def nominal_round_ms(times, refs) -> float:
        return sum(
            1e3 * median([at_nominal(t, r) for t, r in zip(times[m], refs[m])]) for m in MODELS
        )

    nominal_ms = nominal_round_ms(times, refs)
    figures.update({
        "raw.setup_s": (median(setups), "s"),
        "raw.latency_ms": (round_ms, "ms"),
        "host.ref_ms": (host.median_ms(), "ms"),
    })
    end_to_end = {
        "setup_s": median([at_nominal(t, r) for t, r in zip(setups, setup_refs)]),
        "peak_rss_mb": peak_rss_mb(),
        "samples_per_s": len(MODELS) * BATCH * 1e3 / nominal_ms,
        "latency_ms": nominal_ms,
    }
    layers = {}
    if tracer is not None:
        tracer.dump()
        spans = load_spans(tracer.out_dir)
        samples = BATCH * len(traced_times[MODELS[0]]) * len(MODELS)
        layers.update(kernel_metrics(spans, samples))
        layers["kernels.table_cache.misses"] = misses
        traced_ms = nominal_round_ms(traced_times, traced_refs)
        layers["trace.overhead_pct"] = 100.0 * (traced_ms / nominal_ms - 1.0)
        for m in MODELS:
            keys = gemm_op_keys(plans[m], modules[m], m)
            n = BATCH * len(traced_times[m])
            op_metrics = plan_layer_metrics(spans, m, keys, n)
            layers.update(op_metrics)
            for key, cosim in keys.values():
                pred = sum(cycles[m][name] for name in cosim)
                layers[f"plan.{m}.{key}.pred_cycles"] = pred
                layers[f"plan.{m}.{key}.ms_per_mcycle"] = (
                    op_metrics[f"plan.{m}.{key}.self_ms"] / (pred / 1e6)
                )
    details = {
        "env": environment(seed, sorted({k for p in plans.values() for k in plan_tiers(p)})),
        "setup_s_all": setups,
        "batch_s": times,
        "batch_ref_s": refs,
        "traced_batch_s": traced_times,
        "table_cache_misses": misses,
        "first_round_table_misses": first_round_misses,
        "cosim_digest": digest([c for m in MODELS for c in cycles[m].values()]),
        "cosim_cycles_per_sample": cycles,
    }
    return Result(len(outputs), 0, end_to_end, layers, figures, details)
