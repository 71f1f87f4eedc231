"""Helpers shared by the workloads: statistics, memory, environment, op keys."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import statistics
import sys

import numpy as np

from . import THREAD_VARS

#: The zoo models the workloads run.
LENET = "lenet"
TRANSFORMER = "transformer_encoder"
MOBILENET = "mobilenet_edge"


class GateError(Exception):
    """A correctness gate failed: an output differs from its reference."""


@dataclasses.dataclass
class Result:
    """One workload run that passed its correctness gates (a failed gate raises).

    ``end_to_end`` and ``layers`` are keyed by the metric names in
    ``BENCHMARK.json``; ``figures`` holds the workload's own named
    figures (``serve.p99_ms``, ``tcp.rps``, ...) as ``(value, unit)``,
    printed on every run; ``details`` is recorded in the results file.
    """

    attempted: int
    failed: int
    end_to_end: dict[str, float]
    layers: dict[str, float]
    figures: dict[str, tuple[float, str]]
    details: dict


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child [MiB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(values) -> str:
    """Short SHA-256 of a float64 rendering of ``values``."""
    data = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def check_bytes_equal(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """Raise :class:`GateError` unless ``got`` and ``want`` match byte for byte."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape or got.tobytes() != want.tobytes():
        raise GateError(f"{what}: output differs from its reference")


def environment(seed: int, plan_kernels: list[str]) -> dict:
    """What every result records about the machine and the code paths taken."""
    from repro.core.kernels import kernel_tiers

    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "kernel_tiers": kernel_tiers(),
        "plan_kernels": plan_kernels,
    }


def cosim_shape(model: str) -> tuple[int, int, int]:
    """The ``(channels, height, width)`` the co-sim trace walks for ``model``."""
    from repro.nn.models import model_input_shape

    shape = model_input_shape(model)
    if len(shape) == 2:  # sequence models trace as (d_model, seq_len, 1)
        seq_len, d_model = shape
        return (d_model, seq_len, 1)
    return shape


def gemm_op_keys(plan, module, model: str) -> dict[str, tuple[str, list[str]]]:
    """Map each GEMM-bearing plan op name to ``(metric key, co-sim layers)``.

    The plan and the co-sim workload come from the same ``to_plan_op``
    trace in the same order: a convolution or linear op is one co-sim
    layer (keyed by its module label, e.g. ``stem``/``mlp_up``), an
    attention op is two (its QKV and output projections, keyed by the
    op's own name).
    """
    from repro.runtime.plan import conv_workload, op_strategies

    layers = [layer.name for layer in conv_workload(module, cosim_shape(model))]
    keys: dict[str, tuple[str, list[str]]] = {}
    i = 0
    for op in plan.ops:
        if not op_strategies(op):
            continue
        if op.kind == "attention":
            keys[op.name] = (op.name, layers[i : i + 2])
            i += 2
        else:
            keys[op.name] = (layers[i], [layers[i]])
            i += 1
    if i != len(layers):
        raise RuntimeError(f"{model}: plan GEMM ops and co-sim layers disagree")
    return keys


def plan_layer_metrics(spans: list[dict], model: str, keys: dict, samples: int) -> dict:
    """``plan.<model>.<op>.self_ms`` (per sample) and ``plan.<model>.other_ms``.

    An op's time is the wall time inside its ``apply`` (kernels and
    packing included); ``other_ms`` is the rest of ``plan.execute``:
    non-GEMM ops and the loop itself.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans if "id" in s}
    executes = {k for k, s in by_key.items() if s["name"] == "plan.execute" and s["model"] == model}
    op_ms = {key: 0.0 for key, _ in keys.values()}
    gemm_total = 0.0
    for s in by_key.values():
        if s["name"] != "op.apply" or (s["pid"], s["parent"]) not in executes:
            continue
        if s["op"] in keys:
            op_ms[keys[s["op"]][0]] += s["dur"]
            gemm_total += s["dur"]
    execute_total = sum(by_key[k]["dur"] for k in executes)
    out = {f"plan.{model}.{key}.self_ms": 1e3 * v / samples for key, v in op_ms.items()}
    out[f"plan.{model}.other_ms"] = 1e3 * (execute_total - gemm_total) / samples
    return out


def kernel_metrics(spans: list[dict], samples: int) -> dict:
    """``kernels.gemm.*`` and ``packed.*`` per sample, from outermost spans."""
    by_key = {(s["pid"], s["id"]): s for s in spans if "id" in s}

    def outermost(s: dict) -> bool:
        parent = by_key.get((s["pid"], s["parent"]))
        while parent is not None:
            if parent["name"] == s["name"]:
                return False
            parent = by_key.get((parent["pid"], parent["parent"]))
        return True

    kernel = [s for s in by_key.values() if s["name"] == "kernel.run" and outermost(s)]
    packs = [s for s in by_key.values() if s["name"] == "packed.pack"]
    gemm_s = sum(s["dur"] for s in kernel)
    macs = sum(s["macs"] for s in kernel)
    return {
        "kernels.gemm.ms": 1e3 * gemm_s / samples,
        "kernels.gemm.calls": len(kernel) / samples,
        "kernels.gemm.gmacs": macs / gemm_s / 1e9 if gemm_s else 0.0,
        "packed.pack_ms": 1e3 * sum(s["dur"] for s in packs) / samples,
        "packed.elements_packed_per_sample": sum(s["elements"] for s in packs) / samples,
    }


def table_misses(spans: list[dict]) -> int:
    """Kernel-table builds recorded by every traced process."""
    return sum(s["table_misses"] for s in spans if s["name"] == "process")
