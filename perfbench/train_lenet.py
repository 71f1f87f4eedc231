"""``train_lenet``: eager approximate training of LeNet, then evaluation.

LeNet trains on ``shapes_dataset`` under ``daism_backend`` (bfloat16,
PC3_tr): forward and backward GEMMs both run on the approximate
multiplier, through the same kernels ``offline_canonical`` uses.  The
weights change on every step, so prepared-weight caches miss and weights
are re-packed each step — writes beside reads.  A change that moves work
into ``prepare`` or plan compilation shows its cost here.

Steps of 32 samples repeat, epoch after epoch, until ``--seconds``
pass; the first step builds the kernel tables and is not timed.  The
test split is evaluated afterwards.  Losses must be finite,
and a digest of the first steps' loss trajectory is recorded (it
repeats exactly for a given seed).

Each step and each set-up is paired with the host-speed reference
(:mod:`perfbench.hostspeed`); ``latency_ms`` is the median step time and
``samples_per_s`` its inverse, both at nominal host speed.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from .common import (
    GateError,
    Result,
    digest,
    environment,
    kernel_metrics,
    median,
    peak_rss_mb,
)
from .hostspeed import HostRef, at_nominal
from .tracing import load_spans

BATCH = 32
SETUPS = 100
DIGEST_STEPS = 32


def check_losses(losses: list[float]) -> None:
    """Raise :class:`GateError` if any training loss is not finite."""
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    if bad:
        raise GateError(f"training loss not finite at step {bad[0]}")


def run(seed: int, seconds: float, tracer=None) -> Result:
    from repro.core.config import PC3_TR
    from repro.core.kernels import table_cache_counters
    from repro.formats.floatfmt import BFLOAT16
    from repro.nn import functional as F
    from repro.nn.backend import daism_backend, use_backend
    from repro.nn.data import iterate_batches, shapes_dataset
    from repro.nn.models import build_lenet
    from repro.nn.optim import SGD
    from repro.nn.train import evaluate

    data = shapes_dataset(seed=seed)
    host = HostRef()
    setups, setup_refs = [], []
    host.mark()
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        backend = daism_backend(PC3_TR, BFLOAT16)
        model = build_lenet()
        optimiser = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        setups.append(time.perf_counter() - t0)
        setup_refs.append(host.pair())
    if tracer is not None:
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    rng = np.random.default_rng(seed)
    losses, step_s, step_refs, traced_s, traced_refs = [], [], [], [], []
    misses0 = None
    t_start = time.perf_counter()

    def finished() -> bool:
        return len(losses) >= 3 and time.perf_counter() - t_start >= seconds

    with use_backend(backend):
        model.train()
        while not finished():
            for bx, by in iterate_batches(data.train_x, data.train_y, BATCH, rng):
                if tracer is not None:
                    # Alternate steps so the untraced ones measure the overhead.
                    tracer.enabled = misses0 is not None and len(losses) % 2 == 0
                t0 = time.perf_counter()
                with span("train.step"):
                    optimiser.zero_grad()
                    with span("train.forward"):
                        logits = model(bx)
                        loss = F.cross_entropy(logits, by)
                    with span("train.backward"):
                        model.backward(F.cross_entropy_grad(logits, by))
                    with span("train.optim"):
                        optimiser.step()
                elapsed = time.perf_counter() - t0
                losses.append(float(loss))
                if misses0 is None:
                    # The first step builds the kernel tables: warm-up, not timed.
                    misses0 = table_cache_counters()["misses"]
                    t_start = time.perf_counter()
                    host.mark()
                    continue
                ref = host.pair()
                if tracer is not None and tracer.enabled:
                    traced_s.append(elapsed)
                    traced_refs.append(ref)
                else:
                    step_s.append(elapsed)
                    step_refs.append(ref)
                if finished():
                    break
    misses = table_cache_counters()["misses"] - misses0
    if tracer is not None:
        tracer.enabled = False
    accuracy = evaluate(model, data.test_x, data.test_y, backend=backend)
    check_losses(losses)

    step_nominal = median([at_nominal(t, r) for t, r in zip(step_s, step_refs)])
    figures = {
        "train.samples_per_s": (BATCH * len(step_s) / sum(step_s), "1/s"),
        "train.steps": (len(losses), "count"),
        "train.test_accuracy": (accuracy, "ratio"),
        "raw.setup_s": (median(setups), "s"),
        "raw.latency_ms": (1e3 * median(step_s), "ms"),
        "host.ref_ms": (host.median_ms(), "ms"),
    }
    end_to_end = {
        "setup_s": median([at_nominal(t, r) for t, r in zip(setups, setup_refs)]),
        "peak_rss_mb": peak_rss_mb(),
        "samples_per_s": BATCH / step_nominal,
        "latency_ms": 1e3 * step_nominal,
    }
    layers = {}
    if tracer is not None:
        tracer.dump()
        spans = load_spans(tracer.out_dir)
        steps = len(traced_s)

        def per_step(name, field="dur"):
            return sum(s[field] for s in spans if s["name"] == name) / steps

        layers.update(kernel_metrics(spans, steps * BATCH))
        layers.update({
            "train.forward_ms": 1e3 * per_step("train.forward"),
            "train.backward_ms": 1e3 * per_step("train.backward"),
            "train.optim_ms": 1e3 * per_step("train.optim"),
            "packed.pack_calls_per_step": sum(s["name"] == "packed.pack" for s in spans) / steps,
            "packed.elements_packed_per_step": per_step("packed.pack", "elements"),
            "kernels.table_cache.misses": misses,
            "trace.overhead_pct": 100.0 * (
                median([at_nominal(t, r) for t, r in zip(traced_s, traced_refs)]) / step_nominal - 1.0
            ),
        })
    details = {
        "env": environment(seed, [backend.name]),
        "setup_s_all": setups,
        "steps": len(losses),
        "step_s": step_s,
        "step_ref_s": step_refs,
        "loss_digest": digest(losses[:DIGEST_STEPS]),
        "loss_digest_steps": min(len(losses), DIGEST_STEPS),
        "final_loss": losses[-1],
        "test_accuracy": accuracy,
        "table_cache_misses": misses,
    }
    return Result(len(losses), 0, end_to_end, layers, figures, details)
