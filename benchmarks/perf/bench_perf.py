"""Performance-trajectory harness: writes ``BENCH_perf.json``.

Times the hot paths of the packed arithmetic pipeline and emits one
machine-readable artifact so CI can track the perf trajectory over PRs:

* **matmul throughput** across a size grid, for the exact, quantised and
  DAISM backends — the DAISM rows cover every registered GEMM kernel
  (``float_table`` NumPy reference, ``float_table_native`` compiled
  gather tier, ``blas_factored`` / ``blas_factored_fast`` fast paths)
  plus the ``auto`` tier router, each timed both with per-call weight
  packing (``raw``) and against a pre-packed weight (``prepared``);
* **tier certification** (schema v5): the per-config
  :func:`~repro.core.router.certify_fast_path` certificates and the
  native-tier status behind ``kernel="auto"``;
* **end-to-end network latency**: LeNet inference over a test set under
  the bfloat16 PC3_tr DAISM backend.  The headline ``ms_per_sample`` row
  runs the **compiled execution plan** (:mod:`repro.runtime`) — the
  production inference path — over the same batch stream as the eager
  evaluation it is compared against (``eager_ms_per_sample``), with
  byte-identical logits asserted and the packing counters recorded to
  prove the steady state performs zero weight re-pack work (and, on the
  plan path, ~K*K less activation quantise work).  Every other
  registered DAISM kernel keeps its eager latency row, and two extra
  plan rows close the LUT-vs-BLAS loop: the **router-enabled** plan
  (``kernel="auto"``) and the quantised **dense-BLAS** plan, with their
  ratio (``routed_vs_dense_blas_x``) the artifact CI guards;
* **scenario workloads** (schema v6): compiled-plan inference latency
  for the two co-sim-only models — the grouped/depthwise
  ``mobilenet_edge`` stack and the ``transformer_encoder`` block
  (approximate attention) — under the DAISM backend, with the plan
  logits asserted byte-identical to eager before the row is recorded
  (``check_perf_regression.py --scenario-max-regression`` guards the
  per-sample latency);
* **serving throughput**: the micro-batching inference server under
  closed-loop load (``repro.runtime.serving_bench``), reporting
  p50/p99 latency and samples/sec;
* **fleet serving**: the multi-process worker fleet under **open-loop
  Poisson arrivals** at 10x the measured closed-loop rate, reporting
  p50/p99/p999 latency, shed counts and goodput-under-SLA next to the
  closed-loop baseline (schema v4's ``fleet`` section) — with the
  no-silent-drop invariant (``accepted_then_dropped == 0``) asserted;
* **fault-injection sweep**: the ``fault_sensitivity`` error grid
  computed on the scalar row-by-row SRAM readout vs the vectorized
  bit-plane path (``ComputeBank.multiply_batch``), with the products
  asserted bit-identical and the speedup recorded;
* **fault tolerance** (schema v7): a seeded subset of the chaos matrix
  (``repro.chaos.matrix``) — live table bit-flips, a worker killed
  mid-run, latency spikes — against a real multi-process fleet behind
  the TCP frontend, reporting goodput retention, corruption detection,
  post-recovery byte parity and the worst-case recovery time
  (``check_perf_regression.py --fault-recovery-max-ms`` guards it);
* **scheduling** (schema v8): the same deterministic Poisson+burst
  trace replayed against two identically configured fleets — static
  coalescing knobs vs the cost-model
  :class:`~repro.runtime.scheduler.SchedulingPolicy` — with per-request
  byte parity asserted between the arms and goodput aggregated over
  seeds (``check_perf_regression.py --sched-max-regression`` guards the
  cost-model-vs-static goodput ratio; a parity break fails the harness
  itself).

Run::

    python benchmarks/perf/bench_perf.py --out BENCH_perf.json [--quick]

``--quick`` shrinks the grid and the dataset so a CI smoke step finishes
in a few seconds; the JSON schema is identical either way, and the quick
grid is a subset of the full grid so
``benchmarks/perf/check_perf_regression.py`` can join quick CI rows
against the committed full baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

SCHEMA = "repro-perf/9"

#: Scenario-model input geometry for the perf rows.  Reduced from the
#: canonical sizes (mobilenet_edge is fully convolutional, the
#: transformer takes any sequence length) so the quick CI run stays
#: cheap while exercising every layer kind.
SCENARIO_INPUTS = {
    "mobilenet_edge": (3, 48, 48),
    "transformer_encoder": (8, 256),
}

#: DAISM kernels timed per size ("auto" = the certified tier router).
#: Explicit names, so rows join stably against the committed baseline
#: whatever the machine's default tier resolves to.
KERNEL_SUITE = (
    "float_table",
    "float_table_native",
    "blas_factored",
    "blas_factored_fast",
    "auto",
)


def _best_of(fn, reps: int) -> float:
    """Best-of-``reps`` wall time of ``fn()`` in seconds (1 warmup call)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def tier_rows() -> dict:
    """Certified tier-router evidence: per-config certificates + status."""
    import dataclasses

    from repro.core.config import all_configs
    from repro.core.kernels import kernel_tiers
    from repro.core.router import FAST_TIERS, certify_fast_path
    from repro.formats.floatfmt import BFLOAT16

    certificates = [
        dataclasses.asdict(certify_fast_path(BFLOAT16, config, kernel=kernel))
        for config in all_configs()
        for kernel in FAST_TIERS
    ]
    return {"status": kernel_tiers(), "certificates": certificates}


def matmul_rows(quick: bool) -> list[dict]:
    """Throughput rows across the size grid, backend suite and kernels."""
    from repro.core.config import PC3_TR
    from repro.formats.floatfmt import BFLOAT16
    from repro.nn.backend import daism_backend, exact_backend, quantized_backend

    sizes = [(64, 128, 64)] if quick else [(64, 128, 64), (256, 288, 64), (1024, 64, 10)]
    reps = 3 if quick else 5
    rng = np.random.default_rng(0)
    rows: list[dict] = []
    for m, k, n in sizes:
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        macs = 2.0 * m * k * n
        suites = [
            (exact_backend(), "-", False),
            (quantized_backend(BFLOAT16), "dense_blas", False),
        ]
        for kernel in KERNEL_SUITE:
            backend = daism_backend(PC3_TR, BFLOAT16, kernel=kernel)
            suites.append((backend, kernel, False))
            suites.append((backend, kernel, True))
        for backend, kernel_label, prepared in suites:
            rhs = backend.prepare(b) if prepared else b
            seconds = _best_of(lambda: backend.matmul(a, rhs), reps)
            rows.append(
                {
                    "m": m,
                    "k": k,
                    "n": n,
                    "backend": backend.name,
                    "kernel": kernel_label,
                    "variant": "prepared" if prepared else "raw",
                    "ms_per_call": round(seconds * 1e3, 3),
                    "mmacs_per_s": round(macs / seconds / 1e6, 1),
                }
            )
    return rows


def network_latency(quick: bool) -> dict:
    """End-to-end LeNet inference latency under the DAISM backend.

    The headline ``ms_per_sample`` runs the compiled execution plan —
    the production path since the runtime PR — over the same batch
    stream as the eager pass it is compared against, with byte-identical
    logits asserted.  The default kernel additionally records the
    steady-state packing-counter proof for both paths; every other
    registered DAISM kernel keeps an eager latency row in ``kernels``
    with its classification accuracy compared against the default.
    """
    from repro.core.config import PC3_TR
    from repro.core.kernels import exact_tier_name
    from repro.formats.floatfmt import BFLOAT16
    from repro.formats.packed import packing_counters, reset_packing_counters
    from repro.nn.backend import daism_backend, quantized_backend
    from repro.nn.data import iterate_batches, shapes_dataset
    from repro.nn.models import build_lenet
    from repro.nn.train import evaluate
    from repro.runtime import BatchEngine, compile_plan, plan_tiers

    n_test = 32 if quick else 256
    batch_size = 64
    reps = 1 if quick else 3  # best-of, like the matmul rows
    data = shapes_dataset(n_train=8, n_test=n_test, size=16, seed=0)
    model = build_lenet()

    def timed_eval(kernel: str | None) -> tuple[float, float, dict, dict]:
        backend = daism_backend(PC3_TR, BFLOAT16, kernel=kernel)

        def run() -> float:
            return evaluate(model, data.test_x, data.test_y, batch_size, backend=backend)

        run()  # warm: populates the layers' prepared-weight caches
        reset_packing_counters()
        t0 = time.perf_counter()
        accuracy = run()
        seconds = time.perf_counter() - t0
        second = packing_counters()
        reset_packing_counters()
        run()
        third = packing_counters()
        for _ in range(reps - 1):
            t0 = time.perf_counter()
            run()
            seconds = min(seconds, time.perf_counter() - t0)
        return seconds, accuracy, second, third

    eager_seconds, accuracy, second, third = timed_eval(None)

    # Compiled plan over the identical batch stream: same GEMM shapes,
    # so the logits are byte-identical and the delta is pure runtime
    # overhead (dispatch, weight-cache probes, redundant activation
    # quantise work).
    plan = compile_plan(model.eval(), daism_backend(PC3_TR, BFLOAT16))
    engine = BatchEngine(plan, shards=1)

    def plan_pass() -> np.ndarray:
        return np.concatenate(
            [engine.run(bx) for bx, _by in iterate_batches(data.test_x, data.test_y, batch_size)]
        )

    plan_pass()  # warm
    reset_packing_counters()
    t0 = time.perf_counter()
    logits = plan_pass()
    plan_seconds = time.perf_counter() - t0
    plan_second = packing_counters()
    reset_packing_counters()
    plan_pass()
    plan_third = packing_counters()
    for _ in range(reps - 1):
        t0 = time.perf_counter()
        plan_pass()
        plan_seconds = min(plan_seconds, time.perf_counter() - t0)
    plan_accuracy = float((logits.argmax(axis=1) == data.test_y).mean())

    # Byte-level proof, not just matching accuracy: the plan ran the same
    # batch shapes as the eager pass, so the logits must agree exactly.
    from repro.nn.backend import use_backend

    with use_backend(daism_backend(PC3_TR, BFLOAT16)):
        eager_logits = np.concatenate(
            [model(bx) for bx, _by in iterate_batches(data.test_x, data.test_y, batch_size)]
        )
    logits_match = bool(
        np.array_equal(logits.view(np.uint32), eager_logits.view(np.uint32))
    )

    report = {
        "model": "lenet",
        "backend": "approx_bfloat16_PC3_tr",
        "kernel": exact_tier_name(BFLOAT16),
        "runtime": "compiled_plan",
        "samples": n_test,
        "batch_size": batch_size,
        "ms_total": round(plan_seconds * 1e3, 2),
        "ms_per_sample": round(plan_seconds * 1e3 / n_test, 3),
        "eager_ms_total": round(eager_seconds * 1e3, 2),
        "eager_ms_per_sample": round(eager_seconds * 1e3 / n_test, 3),
        "plan_speedup_x": round(eager_seconds / plan_seconds, 2),
        "accuracy": round(plan_accuracy, 4),
        "accuracy_matches_eager": bool(plan_accuracy == accuracy),
        "logits_match_eager": logits_match,
        "steady_state_pack_calls": plan_second["pack_calls"],
        "steady_state_elements_packed": plan_second["elements_packed"],
        "eager_pack_calls": second["pack_calls"],
        "eager_elements_packed": second["elements_packed"],
        # With warm weight caches, every pack in a steady-state pass is an
        # activation; two identical passes must pack identically (no
        # creeping weight re-pack work).  The plan path packs whole conv
        # images instead of K*K-redundant patch matrices, so its element
        # count is a fraction of the eager one.
        "repack_free": second == third and plan_second == plan_third,
        "kernels": [],
    }
    for kernel in KERNEL_SUITE[1:]:
        k_seconds, k_accuracy, k_second, k_third = timed_eval(kernel)
        report["kernels"].append(
            {
                "kernel": kernel,
                "ms_total": round(k_seconds * 1e3, 2),
                "ms_per_sample": round(k_seconds * 1e3 / n_test, 3),
                "accuracy": round(float(k_accuracy), 4),
                "accuracy_matches_default": bool(k_accuracy == accuracy),
                "repack_free": k_second == k_third,
            }
        )

    # The LUT-vs-BLAS gap, measured end to end on the plan path: the
    # router-enabled approximate plan against the quantised dense-BLAS
    # plan.  Their ratio is the figure CI guards (see
    # check_perf_regression.py --routed-max-ratio), so the two passes
    # are interleaved rep by rep — background machine-speed drift hits
    # both sides of the ratio instead of one.
    def plan_pass(backend):
        plan = compile_plan(model.eval(), backend)
        eng = BatchEngine(plan, shards=1)

        def one_pass() -> None:
            for bx, _by in iterate_batches(data.test_x, data.test_y, batch_size):
                eng.run(bx)

        return plan, one_pass

    routed_plan, routed_pass = plan_pass(
        daism_backend(PC3_TR, BFLOAT16, kernel="auto")
    )
    dense_plan, dense_pass = plan_pass(quantized_backend(BFLOAT16))
    routed_pass()  # warm (tables, certificates)
    dense_pass()
    routed_s = dense_s = float("inf")
    for _ in range(max(reps, 3)):
        t0 = time.perf_counter()
        routed_pass()
        routed_s = min(routed_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        dense_pass()
        dense_s = min(dense_s, time.perf_counter() - t0)
    routed_tiers = plan_tiers(routed_plan)
    dense_tiers = plan_tiers(dense_plan)
    report["routed"] = {
        "kernel": "auto",
        "plan_kernels": routed_tiers,
        "ms_total": round(routed_s * 1e3, 2),
        "ms_per_sample": round(routed_s * 1e3 / n_test, 3),
    }
    report["quantized_dense"] = {
        "plan_kernels": dense_tiers,
        "ms_total": round(dense_s * 1e3, 2),
        "ms_per_sample": round(dense_s * 1e3 / n_test, 3),
    }
    report["routed_vs_dense_blas_x"] = round(routed_s / dense_s, 2)
    return report


def scenario_rows(quick: bool) -> list[dict]:
    """Compiled-plan latency for the co-sim scenario workloads.

    One row per :data:`SCENARIO_INPUTS` model under the default DAISM
    backend: the grouped/depthwise MobileNet-edge stack (per-group
    packed-gather GEMMs) and the transformer encoder (approximate
    attention, LayerNorm, softmax).  Each row's logits are asserted
    byte-identical to the eager pass before the timing is recorded, so
    a row in the artifact is also a parity proof for the machine that
    generated it.
    """
    from repro.core.config import PC3_TR
    from repro.formats.floatfmt import BFLOAT16
    from repro.nn.backend import daism_backend, use_backend
    from repro.nn.models import model_zoo
    from repro.runtime import BatchEngine, compile_plan

    samples = 8 if quick else 16
    batch_size = 8 if quick else 16
    reps = 1 if quick else 3
    rng = np.random.default_rng(0)
    backend = daism_backend(PC3_TR, BFLOAT16)
    rows: list[dict] = []
    for model, shape in SCENARIO_INPUTS.items():
        module = model_zoo()[model]
        module.eval()
        x = rng.standard_normal((samples, *shape)).astype(np.float32)
        plan = compile_plan(module, backend)
        engine = BatchEngine(plan, shards=1)

        def plan_pass() -> np.ndarray:
            return np.concatenate(
                [engine.run(x[i : i + batch_size]) for i in range(0, samples, batch_size)]
            )

        plan_pass()  # warm: value tables + prepared weights
        t0 = time.perf_counter()
        logits = plan_pass()
        seconds = time.perf_counter() - t0
        for _ in range(reps - 1):
            t0 = time.perf_counter()
            plan_pass()
            seconds = min(seconds, time.perf_counter() - t0)

        with use_backend(backend):
            eager = np.concatenate(
                [module(x[i : i + batch_size]) for i in range(0, samples, batch_size)]
            )
        logits_match = bool(
            np.array_equal(logits.view(np.uint32), eager.view(np.uint32))
        )
        assert logits_match, f"{model}: plan logits diverged from eager"
        rows.append(
            {
                "model": model,
                "backend": backend.name,
                "kernel": "default",
                "input_shape": list(shape),
                "samples": samples,
                "batch_size": batch_size,
                "plan_ops": len(plan.ops),
                "ms_total": round(seconds * 1e3, 2),
                "ms_per_sample": round(seconds * 1e3 / samples, 3),
                "logits_match_eager": logits_match,
            }
        )
    return rows


def serving_rows(quick: bool) -> dict:
    """Micro-batching server under closed-loop load (the runtime path)."""
    from repro.runtime.serving_bench import serving_benchmark

    return serving_benchmark(
        model="lenet",
        backend="daism",
        clients=2 if quick else 4,
        duration_s=0.4 if quick else 1.5,
        request_samples=4,
        max_batch=64,
        max_delay_ms=2.0,
        shards=1,
    )


def fleet_rows(quick: bool) -> dict:
    """Open-loop Poisson traffic against the multi-process fleet.

    Quick mode is the CI smoke: 2 workers, a ~1 s burst at 10x the
    calibrated closed-loop rate.  The no-silent-drop invariant is
    asserted here so a fleet that quietly abandons accepted requests
    fails the harness, not just the chaos tests.
    """
    from repro.runtime.serving_bench import open_loop_fleet_benchmark

    report = open_loop_fleet_benchmark(
        models=("lenet",),
        backend="daism",
        workers=2,
        duration_s=1.0 if quick else 2.0,
        rate_multiplier=10.0,
        request_samples=4,
        max_batch=64,
        max_delay_ms=2.0,
        sla_ms=50.0,
        calibration_s=0.3 if quick else 0.5,
    )
    assert report["accepted_then_dropped"] == 0, "fleet dropped accepted requests"
    return report


def fault_sweep(quick: bool) -> dict:
    """Scalar vs vectorized fault-injection sweep (the co-sim hot path).

    Runs the same ``fault_error_matrix`` grid the ``fault_sensitivity``
    experiment sweeps, once through the scalar row-by-row readout and
    once through the packed bit-plane batch path, asserting the error
    matrices (and hence the underlying uint64 products) are identical
    before reporting the speedup.
    """
    from repro.experiments.defs.accelerator import fault_error_matrix

    points = (
        [(0.01, 0.01, 0)]
        if quick
        else [(rate, dead, seed) for rate in (0.001, 0.01, 0.05) for dead in (0.0, 0.01) for seed in (0, 1)]
    )

    def timed_sweep(vectorized: bool, reps: int) -> tuple[list, float]:
        """Best-of-``reps`` sweep time plus the (deterministic) results.

        No separate warmup pass: the sweep is pure python + numpy (no JIT
        to prime), and taking the min over reps absorbs cold-start noise.
        """
        best = float("inf")
        rows = []
        for _ in range(reps):
            t0 = time.perf_counter()
            rows = [
                fault_error_matrix(rate, dead, seed, vectorized=vectorized)
                for rate, dead, seed in points
            ]
            best = min(best, time.perf_counter() - t0)
        return rows, best

    reps = 1 if quick else 3  # identical rep counts: min-of-N must not
    scalar_rows, scalar_s = timed_sweep(False, reps)  # favour either path
    vector_rows, vector_s = timed_sweep(True, reps)
    for a, b in zip(scalar_rows, vector_rows):
        np.testing.assert_array_equal(a, b)  # bit-identical readout paths
    return {
        "points": len(points),
        "scalar_ms": round(scalar_s * 1e3, 2),
        "vectorized_ms": round(vector_s * 1e3, 2),
        "speedup_x": round(scalar_s / vector_s, 1),
        "bit_identical": True,
    }


def fault_tolerance(quick: bool) -> dict:
    """Seeded chaos-matrix subset: recovery time under real failures.

    Runs the single-site scenarios of the chaos matrix (quick mode adds
    no combinations — those stay in the full matrix and the chaos-smoke
    CI step) and distils the contract numbers CI guards: zero
    accepted-then-dropped, 100% corruption detection, post-recovery
    byte parity, and the worst-case recovery time across scenarios
    (heartbeat-respawn or heal, whichever the scenario exercised).
    ``run_matrix`` itself asserts the boolean invariants per row, so a
    report that exists at all already proves them; the numbers are
    recorded so the regression guard can bound the *recovery latency*.
    """
    from repro.chaos.matrix import run_matrix

    names = ["table_bitflip", "worker_crash", "latency_spike"]
    if not quick:
        names += ["socket_drop", "table_bitflip+worker_crash"]
    rows = run_matrix(quick=True, seed=0, scenarios=names)
    accepted = sum(r["accepted"] for r in rows)
    completed = sum(r["completed"] for r in rows)
    recoveries = [r["recovery_ms"] for r in rows if r["recovery_ms"] is not None]
    return {
        "scenarios": rows,
        "accepted": accepted,
        "completed": completed,
        "dropped": sum(r["dropped"] for r in rows),
        "goodput_retention": round(completed / max(1, accepted), 4),
        "detection_ok": all(r["detected"] for r in rows),
        "parity_ok": all(
            r["post_recovery_parity"] and r["digest_parity"] for r in rows
        ),
        "recovery_ms_max": round(max(recoveries), 2) if recoveries else None,
    }


def scheduling_rows(quick: bool) -> dict:
    """Static vs cost-model scheduling on one deterministic trace.

    Runs :func:`repro.runtime.serving_bench.replay_trace_benchmark` —
    which itself asserts per-request byte parity between the two policy
    arms (``strict_parity``), so a report that exists at all already
    proves scheduling never changed served bytes.  Goodput is averaged
    over seeds before the ratio is taken: per-seed goodput on a loaded
    host is noisy (requests complete right at the SLA edge), and the
    guard bounds the aggregate, not one seed's coin flip.
    """
    from repro.runtime.serving_bench import replay_trace_benchmark

    seeds = (0,) if quick else (0, 1, 2)
    runs = []
    for seed in seeds:
        runs.append(
            replay_trace_benchmark(
                models=("lenet", "vgg_small"),
                backend="daism",
                workers=2,
                duration_s=0.6 if quick else 1.5,
                calibration_s=0.25 if quick else 0.3,
                seed=seed,
            )
        )
    static_goodput = sum(r["static"]["goodput_samples_per_s"] for r in runs) / len(runs)
    cost_goodput = sum(
        r["cost_model"]["goodput_samples_per_s"] for r in runs
    ) / len(runs)
    return {
        "seeds": list(seeds),
        "policy_arms": ["static", "cost_model"],
        "parity_ok": all(r["parity"]["ok"] for r in runs),
        "parity_checked": sum(r["parity"]["checked"] for r in runs),
        "static_goodput_samples_per_s": round(static_goodput, 1),
        "cost_model_goodput_samples_per_s": round(cost_goodput, 1),
        "goodput_ratio": (
            round(cost_goodput / static_goodput, 3) if static_goodput > 0 else None
        ),
        "runs": runs,
    }


def run(out_path: str, quick: bool = False) -> dict:
    """Execute the harness and write the JSON artifact to ``out_path``."""
    report = {
        "schema": SCHEMA,
        "generated_unix": round(time.time(), 1),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "quick": quick,
        "tiers": tier_rows(),
        "matmul": matmul_rows(quick),
        "network": network_latency(quick),
        "scenario": scenario_rows(quick),
        "serving": serving_rows(quick),
        "fleet": fleet_rows(quick),
        "fault_sweep": fault_sweep(quick),
        "fault_tolerance": fault_tolerance(quick),
        "scheduling": scheduling_rows(quick),
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_perf.json", help="output JSON path")
    parser.add_argument(
        "--quick", action="store_true", help="small grid for CI smoke runs"
    )
    args = parser.parse_args()
    report = run(args.out, quick=args.quick)
    net = report["network"]
    print(f"wrote {args.out}")
    tiers = report["tiers"]
    certified = sum(1 for c in tiers["certificates"] if c["certified"])
    print(
        f"  tiers: exact tier {tiers['status']['exact_tier']}"
        f" (native backend: {tiers['status']['native']['backend']}),"
        f" {certified}/{len(tiers['certificates'])} certificates passed"
    )
    for row in report["matmul"]:
        print(
            f"  {row['m']}x{row['k']}x{row['n']} {row['backend']:<24}"
            f" {row['kernel']:<13} {row['variant']:<9} {row['ms_per_call']:>9.3f} ms"
            f" {row['mmacs_per_s']:>9.1f} Mmac/s"
        )
    print(
        f"  lenet/{net['backend']}[{net['kernel']}] compiled plan:"
        f" {net['ms_total']} ms for {net['samples']} samples"
        f" ({net['ms_per_sample']} ms/sample, eager {net['eager_ms_per_sample']},"
        f" {net['plan_speedup_x']}x), repack_free={net['repack_free']},"
        f" logits_match_eager={net['logits_match_eager']}"
    )
    for krow in net["kernels"]:
        print(
            f"  lenet/{net['backend']}[{krow['kernel']}]: {krow['ms_total']} ms"
            f" ({krow['ms_per_sample']} ms/sample),"
            f" accuracy_matches_default={krow['accuracy_matches_default']}"
        )
    routed = net["routed"]
    print(
        f"  lenet routed plan [{'+'.join(routed['plan_kernels'])}]:"
        f" {routed['ms_per_sample']} ms/sample vs dense BLAS"
        f" {net['quantized_dense']['ms_per_sample']} ms/sample"
        f" -> {net['routed_vs_dense_blas_x']}x"
    )
    for srow in report["scenario"]:
        print(
            f"  scenario {srow['model']}/{srow['backend']}:"
            f" {srow['ms_total']} ms for {srow['samples']} samples"
            f" ({srow['ms_per_sample']} ms/sample, {srow['plan_ops']} plan ops,"
            f" logits_match_eager={srow['logits_match_eager']})"
        )
    serve = report["serving"]["load"]
    print(
        f"  serving lenet/{report['serving']['backend']}:"
        f" {serve['samples_per_s']} samples/s, p50 {serve['p50_ms']} ms,"
        f" p99 {serve['p99_ms']} ms ({serve['clients']} closed-loop clients,"
        f" mean micro-batch {serve['mean_batch_samples']})"
    )
    fleet = report["fleet"]
    print(
        f"  fleet {'+'.join(fleet['models'])}/{fleet['backend']}"
        f" ({fleet['workers']} workers, open-loop {fleet['offered_rps']} req/s):"
        f" goodput {fleet['goodput_samples_per_s']} samples/s under"
        f" {fleet['sla_ms']} ms SLA ({fleet['goodput_vs_closed_loop_x']}x closed-loop"
        f" {fleet['closed_loop_samples_per_s']}),"
        f" p50 {fleet['p50_ms']} / p99 {fleet['p99_ms']} / p999 {fleet['p999_ms']} ms,"
        f" shed {fleet['shed_requests']}/{fleet['offered_requests']},"
        f" dropped {fleet['accepted_then_dropped']}"
    )
    fs = report["fault_sweep"]
    print(
        f"  fault sweep ({fs['points']} pts): scalar {fs['scalar_ms']} ms ->"
        f" vectorized {fs['vectorized_ms']} ms ({fs['speedup_x']}x,"
        f" bit_identical={fs['bit_identical']})"
    )
    ft = report["fault_tolerance"]
    print(
        f"  fault tolerance ({len(ft['scenarios'])} scenarios):"
        f" goodput retention {100.0 * ft['goodput_retention']:.1f}%"
        f" ({ft['completed']}/{ft['accepted']}, dropped {ft['dropped']}),"
        f" detection_ok={ft['detection_ok']}, parity_ok={ft['parity_ok']},"
        f" worst recovery {ft['recovery_ms_max']} ms"
    )
    sched = report["scheduling"]
    print(
        f"  scheduling ({len(sched['seeds'])} seed(s)):"
        f" cost-model goodput {sched['cost_model_goodput_samples_per_s']}"
        f" vs static {sched['static_goodput_samples_per_s']} samples/s"
        f" -> ratio {sched['goodput_ratio']},"
        f" byte parity {sched['parity_checked']} requests,"
        f" parity_ok={sched['parity_ok']}"
    )


if __name__ == "__main__":
    main()
