"""Smoke tests for the perf-trajectory harness (benchmarks/perf)."""

import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
HARNESS = REPO / "benchmarks" / "perf" / "bench_perf.py"
GUARD = REPO / "benchmarks" / "perf" / "check_perf_regression.py"


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One --quick harness run shared by the smoke assertions."""
    out = tmp_path_factory.mktemp("perf") / "BENCH_perf.json"
    cache_dir = tmp_path_factory.mktemp("cache")
    env_src = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, str(HARNESS), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": env_src,
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(cache_dir),
        },
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text()), out


def test_quick_run_writes_valid_artifact(quick_report):
    report, _path = quick_report
    assert report["schema"] == "repro-perf/9"
    assert report["quick"] is True

    # 1 size x (exact + quantized + 5 kernels x raw/prepared) = 12 rows.
    assert len(report["matmul"]) == 12
    for row in report["matmul"]:
        assert row["ms_per_call"] > 0
        assert row["mmacs_per_s"] > 0
    combos = {(r["backend"], r["kernel"], r["variant"]) for r in report["matmul"]}
    assert ("exact_float32", "-", "raw") in combos
    assert ("quantized_bfloat16", "dense_blas", "raw") in combos
    for kernel in (
        "float_table",
        "float_table_native",
        "blas_factored",
        "blas_factored_fast",
        "auto",
    ):
        assert ("approx_bfloat16_PC3_tr", kernel, "raw") in combos
        assert ("approx_bfloat16_PC3_tr", kernel, "prepared") in combos

    tiers = report["tiers"]
    # Both fast-tier candidates certified per Table I config (5 x 2).
    assert len(tiers["certificates"]) == 10
    assert all(cert["certified"] for cert in tiers["certificates"])
    assert {cert["kernel"] for cert in tiers["certificates"]} == {
        "blas_factored",
        "blas_factored_fast",
    }
    # Degradation surface: the artifact records which gather tier ran.
    assert tiers["status"]["exact_tier"] in ("float_table", "float_table_native")
    assert tiers["status"]["native"]["backend"] in ("c", "numpy-fallback")

    net = report["network"]
    assert net["model"] == "lenet"
    # The headline row rides the default (bit-exact) tier of the machine.
    assert net["kernel"] in ("float_table", "float_table_native")
    assert net["runtime"] == "compiled_plan"
    assert net["samples"] == 32
    assert net["ms_total"] > 0
    assert net["eager_ms_total"] > 0
    # The compiled plan runs the same batch stream as the eager pass, so
    # its logits (not just predictions) must agree byte for byte.
    assert net["accuracy_matches_eager"] is True
    assert net["logits_match_eager"] is True
    # The acceptance property: a steady-state inference pass performs no
    # weight re-quantise/decompose work.
    assert net["repack_free"] is True
    # The plan packs conv images, not K*K-redundant patch matrices.
    assert net["steady_state_elements_packed"] < net["eager_elements_packed"]
    by_kernel = {row["kernel"]: row for row in net["kernels"]}
    assert {"float_table_native", "blas_factored", "blas_factored_fast"} <= set(by_kernel)
    # float_table_native computes identical bits, so identical predictions.
    assert by_kernel["float_table_native"]["accuracy_matches_default"] is True

    # The LUT-vs-BLAS headline: router-enabled plan vs dense BLAS plan.
    assert net["routed"]["kernel"] == "auto"
    # The routed plan is the certificate decision: every Table I config
    # certifies its cheapest fast tier, and nothing pins another tier.
    assert net["routed"]["plan_kernels"] == ["blas_factored_fast"]
    assert net["routed"]["ms_per_sample"] > 0
    assert net["quantized_dense"]["plan_kernels"] == ["dense_blas"]
    assert net["routed_vs_dense_blas_x"] > 0

    scenario = report["scenario"]
    assert [row["model"] for row in scenario] == [
        "mobilenet_edge",
        "transformer_encoder",
    ]
    for row in scenario:
        assert row["backend"] == "approx_bfloat16_PC3_tr"
        assert row["ms_per_sample"] > 0
        assert row["plan_ops"] > 0
        # The timed plan pass replays the eager batch stream byte for byte.
        assert row["logits_match_eager"] is True

    serving = report["serving"]
    assert serving["model"] == "lenet"
    assert serving["backend"] == "approx_bfloat16_PC3_tr"
    assert serving["load"]["samples_per_s"] > 0
    assert serving["load"]["p99_ms"] >= serving["load"]["p50_ms"]

    fleet = report["fleet"]
    assert fleet["models"] == ["lenet"]
    assert fleet["workers"] == 2
    assert fleet["offered_requests"] > 0
    assert fleet["accepted_then_dropped"] == 0
    assert fleet["goodput_samples_per_s"] > 0
    assert fleet["p999_ms"] >= fleet["p99_ms"] >= fleet["p50_ms"]

    ft = report["fault_tolerance"]
    assert {r["scenario"] for r in ft["scenarios"]} == {
        "table_bitflip",
        "worker_crash",
        "latency_spike",
    }
    assert ft["dropped"] == 0
    assert ft["accepted"] == ft["completed"]
    assert ft["goodput_retention"] == 1.0
    assert ft["detection_ok"] is True
    assert ft["parity_ok"] is True
    assert ft["recovery_ms_max"] > 0

    sched = report["scheduling"]
    assert sched["seeds"] == [0]  # quick mode: one seed
    assert sched["policy_arms"] == ["static", "cost_model"]
    # Byte parity between policy arms is load-bearing: the replay bench
    # raises on any hash mismatch, and the guard fails on parity_ok.
    assert sched["parity_ok"] is True
    assert sched["parity_checked"] > 0
    assert sched["static_goodput_samples_per_s"] > 0
    assert sched["cost_model_goodput_samples_per_s"] > 0
    assert sched["goodput_ratio"] > 0
    for run in sched["runs"]:
        assert run["parity"]["ok"] is True
        for arm in ("static", "cost_model"):
            assert run[arm]["policy"] == arm
            assert run[arm]["accepted_requests"] > 0
            assert run[arm]["accepted_then_dropped"] == 0
        # The cost-model arm actually exercised the scheduler.
        assert run["cost_model"]["sched_events"] > 0


def test_prepared_variant_not_slower_than_raw():
    """Satellite regression guard: prepared operands must win (or tie).

    A prepared weight skips all quantise/decompose/scale work per call
    — asserted structurally via the packing counters — so its timing may
    exceed raw only by measurement jitter.  The wall-clock check
    (``prepared <= raw * 1.05``) takes the best of several paired
    measurements and stops early once it holds, which makes it robust
    on noisy shared runners while still catching a real inversion like
    the one BENCH_perf.json once recorded at (256, 288, 64).
    """
    import time

    import numpy as np

    from repro.core.config import PC3_TR
    from repro.formats.floatfmt import BFLOAT16
    from repro.formats.packed import packing_counters
    from repro.nn.backend import daism_backend

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 128)).astype(np.float32)
    b = rng.standard_normal((128, 64)).astype(np.float32)
    backend = daism_backend(PC3_TR, BFLOAT16)
    prepared_b = backend.prepare(b)

    # Structural property: the prepared call packs only the activation.
    backend.matmul(a, prepared_b)
    before = packing_counters()["pack_calls"]
    backend.matmul(a, prepared_b)
    assert packing_counters()["pack_calls"] == before + 1
    backend.matmul(a, b)
    assert packing_counters()["pack_calls"] == before + 3  # activation + weight

    def once(rhs) -> float:
        t0 = time.perf_counter()
        backend.matmul(a, rhs)
        return time.perf_counter() - t0

    best_raw = best_prepared = float("inf")
    for _ in range(9):
        best_raw = min(best_raw, once(b))
        best_prepared = min(best_prepared, once(prepared_b))
        if best_prepared <= best_raw * 1.05:
            break
    assert best_prepared <= best_raw * 1.05, (best_prepared, best_raw)


def _run_guard(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(GUARD), *args],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
        timeout=60,
    )


def _write_report(
    path: pathlib.Path,
    mmacs: float,
    exact_mmacs: float | None = None,
    samples_per_s: float | None = None,
    goodput: float | None = None,
    dropped: int = 0,
    routed_ratio: float | None = None,
    scenario_ms: float | None = None,
    scenario_parity: bool = True,
    fault_tolerance: dict | None = None,
    scheduling: dict | None = None,
) -> pathlib.Path:
    rows = [
        {
            "m": 64,
            "k": 128,
            "n": 64,
            "backend": "approx_bfloat16_PC3_tr",
            "kernel": "float_table",
            "variant": "raw",
            "ms_per_call": 1.0,
            "mmacs_per_s": mmacs,
        }
    ]
    if exact_mmacs is not None:
        rows.append(
            {
                "m": 64,
                "k": 128,
                "n": 64,
                "backend": "exact_float32",
                "kernel": "-",
                "variant": "raw",
                "ms_per_call": 0.01,
                "mmacs_per_s": exact_mmacs,
            }
        )
    report: dict = {"schema": "repro-perf/5", "matmul": rows}
    if samples_per_s is not None:
        report["serving"] = {"model": "lenet", "load": {"samples_per_s": samples_per_s}}
    if routed_ratio is not None:
        report["network"] = {"routed_vs_dense_blas_x": routed_ratio}
    if goodput is not None:
        report["fleet"] = {
            "models": ["lenet"],
            "goodput_samples_per_s": goodput,
            "accepted_then_dropped": dropped,
        }
    if fault_tolerance is not None:
        report["fault_tolerance"] = fault_tolerance
    if scheduling is not None:
        report["scheduling"] = scheduling
    if scenario_ms is not None:
        report["scenario"] = [
            {
                "model": "mobilenet_edge",
                "backend": "approx_bfloat16_PC3_tr",
                "kernel": "default",
                "ms_per_sample": scenario_ms,
                "logits_match_eager": scenario_parity,
            }
        ]
    path.write_text(json.dumps(report))
    return path


class TestRegressionGuard:
    def test_passes_within_tolerance(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 90.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "within 25%" in result.stdout

    def test_fails_on_regression(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 60.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout

    def test_normalised_comparison_cancels_machine_speed(self, tmp_path):
        # Fresh machine is 2x slower across the board: absolute MMACs
        # halve, but the ratio to exact_float32 is unchanged -> pass.
        fresh = _write_report(tmp_path / "fresh.json", 50.0, exact_mmacs=5000.0)
        base = _write_report(tmp_path / "base.json", 100.0, exact_mmacs=10000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        # A real 2x kernel regression on the same machine still fails.
        fresh = _write_report(tmp_path / "fresh.json", 50.0, exact_mmacs=10000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout
        # --absolute opts back into the raw comparison.
        fresh = _write_report(tmp_path / "fresh.json", 50.0, exact_mmacs=5000.0)
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base), "--absolute"
        )
        assert result.returncode == 1

    def test_routed_ratio_within_ceiling_passes(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, routed_ratio=2.1)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "routed lenet vs quantized dense_blas" in result.stdout

    def test_routed_ratio_above_ceiling_fails(self, tmp_path):
        """The LUT-vs-BLAS acceptance gap is an absolute ceiling, no baseline."""
        fresh = _write_report(tmp_path / "fresh.json", 100.0, routed_ratio=3.4)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout
        # The flag tunes the ceiling.
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base),
            "--routed-max-ratio", "4.0",
        )
        assert result.returncode == 0, result.stdout

    def test_routed_ratio_skipped_when_absent(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "skipping routed-ratio check" in result.stdout

    def test_kernel_flag_accepts_comma_list(self, tmp_path):
        # A list naming only an absent kernel leaves no matmul rows to
        # join; with no other sections that means nothing comparable.
        fresh = _write_report(tmp_path / "fresh.json", 60.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base),
            "--kernel", "float_table_native,blas_factored",
        )
        assert result.returncode == 1
        assert "no comparable" in result.stdout
        # Naming the present kernel in the list restores the (failing) join.
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base),
            "--kernel", "float_table,float_table_native",
        )
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout

    def test_fails_when_nothing_comparable(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0)
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"schema": "repro-perf/3", "matmul": []}))
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "no comparable" in result.stdout


class TestServingGuard:
    def test_skipped_when_baseline_lacks_serving(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, samples_per_s=1000.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "skipping serving check" in result.stdout

    def test_passes_within_serving_tolerance(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, samples_per_s=600.0)
        base = _write_report(tmp_path / "base.json", 100.0, samples_per_s=1000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "serving lenet samples/s" in result.stdout

    def test_fails_on_serving_collapse(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, samples_per_s=100.0)
        base = _write_report(tmp_path / "base.json", 100.0, samples_per_s=1000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout

    def test_mixed_reference_falls_back_to_absolute(self, tmp_path):
        # Only the fresh report has an exact_float32 reference: both
        # sides must be compared raw (identical samples/s -> pass), not
        # one normalised against one absolute.
        fresh = _write_report(
            tmp_path / "fresh.json", 100.0, exact_mmacs=10000.0, samples_per_s=1000.0
        )
        base = _write_report(tmp_path / "base.json", 100.0, samples_per_s=1000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "[samples/s]" in result.stdout

    def test_serving_normalised_by_machine_speed(self, tmp_path):
        # 2x slower machine: serving throughput halves along with the
        # exact reference -> normalised score unchanged -> pass.
        fresh = _write_report(
            tmp_path / "fresh.json", 50.0, exact_mmacs=5000.0, samples_per_s=500.0
        )
        base = _write_report(
            tmp_path / "base.json", 100.0, exact_mmacs=10000.0, samples_per_s=1000.0
        )
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout

    def test_skipped_when_baseline_lacks_fleet(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, goodput=500.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "skipping fleet check" in result.stdout

    def test_fleet_goodput_within_tolerance_passes(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, goodput=800.0)
        base = _write_report(tmp_path / "base.json", 100.0, goodput=1000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "fleet open-loop goodput" in result.stdout

    def test_fleet_goodput_collapse_fails(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, goodput=100.0)
        base = _write_report(tmp_path / "base.json", 100.0, goodput=1000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout

    def test_fleet_regression_flag_tunes_tolerance(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, goodput=700.0)
        base = _write_report(tmp_path / "base.json", 100.0, goodput=1000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1  # 30% drop > default 25%
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base),
            "--fleet-max-regression", "0.5",
        )
        assert result.returncode == 0, result.stdout

    def test_any_accepted_then_dropped_fails(self, tmp_path):
        """The no-silent-drop invariant is guarded, not just throughput."""
        fresh = _write_report(
            tmp_path / "fresh.json", 100.0, goodput=1000.0, dropped=1
        )
        base = _write_report(tmp_path / "base.json", 100.0, goodput=1000.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "DROPPED" in result.stdout

    def test_fleet_normalised_by_machine_speed(self, tmp_path):
        # 2x slower machine: goodput halves with the exact reference.
        fresh = _write_report(
            tmp_path / "fresh.json", 50.0, exact_mmacs=5000.0, goodput=500.0
        )
        base = _write_report(
            tmp_path / "base.json", 100.0, exact_mmacs=10000.0, goodput=1000.0
        )
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout

    def test_skipped_when_baseline_lacks_scenario(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, scenario_ms=40.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "skipping scenario check" in result.stdout

    def test_scenario_within_tolerance_passes(self, tmp_path):
        # 1.5x slower per sample keeps 2/3 of the score — above the
        # default 50% floor -> pass.
        fresh = _write_report(tmp_path / "fresh.json", 100.0, scenario_ms=60.0)
        base = _write_report(tmp_path / "base.json", 100.0, scenario_ms=40.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "scenario mobilenet_edge" in result.stdout

    def test_scenario_collapse_fails(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0, scenario_ms=200.0)
        base = _write_report(tmp_path / "base.json", 100.0, scenario_ms=40.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout
        # The flag tunes the floor.
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base),
            "--scenario-max-regression", "0.9",
        )
        assert result.returncode == 0, result.stdout

    def test_scenario_parity_divergence_fails_unconditionally(self, tmp_path):
        """A fast-but-wrong scenario row can never pass the guard."""
        fresh = _write_report(
            tmp_path / "fresh.json", 100.0, scenario_ms=40.0, scenario_parity=False
        )
        base = _write_report(tmp_path / "base.json", 100.0, scenario_ms=40.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "DIVERGED" in result.stdout

    def test_fault_recovery_skipped_when_absent(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "no fault_tolerance section" in result.stdout

    def test_fault_recovery_within_ceiling_passes(self, tmp_path):
        """Recovery time is an absolute ceiling on the fresh report."""
        ft = {
            "recovery_ms_max": 120.0,
            "dropped": 0,
            "detection_ok": True,
            "parity_ok": True,
        }
        fresh = _write_report(tmp_path / "fresh.json", 100.0, fault_tolerance=ft)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "fault-tolerance worst recovery" in result.stdout

    def test_fault_recovery_above_ceiling_fails(self, tmp_path):
        ft = {
            "recovery_ms_max": 5000.0,
            "dropped": 0,
            "detection_ok": True,
            "parity_ok": True,
        }
        fresh = _write_report(tmp_path / "fresh.json", 100.0, fault_tolerance=ft)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout
        # The flag tunes the ceiling.
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base),
            "--fault-recovery-max-ms", "10000",
        )
        assert result.returncode == 0, result.stdout

    def test_fault_contract_breakage_fails_regardless_of_speed(self, tmp_path):
        """Drops, missed detections or broken parity fail unconditionally."""
        for broken, marker in (
            ({"dropped": 1}, "DROPPED"),
            ({"detection_ok": False}, "UNDETECTED"),
            ({"parity_ok": False}, "parity BROKEN"),
        ):
            ft = {
                "recovery_ms_max": 1.0,
                "dropped": 0,
                "detection_ok": True,
                "parity_ok": True,
                **broken,
            }
            fresh = _write_report(tmp_path / "fresh.json", 100.0, fault_tolerance=ft)
            base = _write_report(tmp_path / "base.json", 100.0)
            result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
            assert result.returncode == 1, marker
            assert marker in result.stdout

    def test_scheduling_skipped_when_absent(self, tmp_path):
        fresh = _write_report(tmp_path / "fresh.json", 100.0)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "no scheduling section" in result.stdout

    def test_scheduling_ratio_above_floor_passes(self, tmp_path):
        """The cost-model-vs-static ratio is self-contained, no baseline."""
        sched = {"goodput_ratio": 0.95, "parity_ok": True}
        fresh = _write_report(tmp_path / "fresh.json", 100.0, scheduling=sched)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 0, result.stdout
        assert "scheduling cost-model vs static goodput" in result.stdout

    def test_scheduling_ratio_below_floor_fails(self, tmp_path):
        sched = {"goodput_ratio": 0.5, "parity_ok": True}
        fresh = _write_report(tmp_path / "fresh.json", 100.0, scheduling=sched)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout
        # The flag tunes the floor.
        result = _run_guard(
            "--fresh", str(fresh), "--baseline", str(base),
            "--sched-max-regression", "0.6",
        )
        assert result.returncode == 0, result.stdout

    def test_scheduling_parity_break_fails_regardless_of_ratio(self, tmp_path):
        """A fast-but-byte-diverging scheduler can never pass the guard."""
        sched = {"goodput_ratio": 2.0, "parity_ok": False}
        fresh = _write_report(tmp_path / "fresh.json", 100.0, scheduling=sched)
        base = _write_report(tmp_path / "base.json", 100.0)
        result = _run_guard("--fresh", str(fresh), "--baseline", str(base))
        assert result.returncode == 1
        assert "policy byte parity BROKEN" in result.stdout

    def test_quick_rows_join_committed_baseline(self, quick_report):
        """The quick grid must stay a subset of the committed full grid."""
        _report, path = quick_report
        baseline = REPO / "BENCH_perf.json"
        result = _run_guard(
            "--fresh", str(path),
            "--baseline", str(baseline),
            "--max-regression", "0.99",
        )
        assert result.returncode == 0, result.stdout + result.stderr
