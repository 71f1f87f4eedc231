"""The benchmark's own tests: declared metrics, correctness gates, broken checkout.

Not collected by a bare ``pytest`` (the quick runs take about two
minutes); run them explicitly from the repository root::

    python -m pytest perfbench/check_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import offline_canonical, serve_lenet  # noqa: E402
from perfbench.common import GateError  # noqa: E402
from perfbench.train_lenet import check_losses  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics each workload must measure (non-zero) in a traced run.
EXERCISED = {
    "serve_lenet": ["fleet.submit_us.p50", "fleet.service_ms_per_sample",
                    "plan.lenet.conv2.self_ms", "kernels.gemm.ms"],
    "offline_canonical": ["plan.transformer_encoder.attn1.pred_cycles",
                          "plan.mobilenet_edge.pw3.ms_per_mcycle", "packed.pack_ms"],
    "train_lenet": ["train.backward_ms", "packed.pack_calls_per_step", "kernels.gemm.gmacs"],
}
QUICK_SECONDS = {"serve_lenet": 3, "offline_canonical": 1, "train_lenet": 2}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(QUICK_SECONDS[workload]), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(QUICK_SECONDS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(QUICK_SECONDS))
def test_quick_run_prints_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and 0 <= result["failed"] < result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        row = result["metrics"][m["name"]]
        assert row["unit"] == m["unit"] and math.isfinite(row["value"])
        if not trace:
            assert row["value"] > 0, m["name"]
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name


def test_corrupted_serve_reply_trips_the_gate(tmp_path, monkeypatch):
    """A worker whose plan flips one output bit fails the reply gate."""
    from repro.runtime.plan import ExecutionPlan

    parent = os.getpid()
    execute = ExecutionPlan.execute

    def corrupt(self, x, total_batch=None):
        out = execute(self, x, total_batch)
        if os.getpid() != parent:  # only inside the forked fleet worker
            out = out.copy()
            out.view(np.uint32)[0, 0] ^= 1
        return out

    monkeypatch.setattr(ExecutionPlan, "execute", corrupt)
    with pytest.raises(GateError, match="reply"):
        serve_lenet.run(seed=3, seconds=1.0)


def test_corrupted_offline_logit_trips_the_gate(monkeypatch):
    from repro.runtime.plan import ExecutionPlan

    execute = ExecutionPlan.execute

    def corrupt(self, x, total_batch=None):
        out = execute(self, x, total_batch).copy()
        out.view(np.uint32)[-1, -1] ^= 1
        return out

    monkeypatch.setattr(ExecutionPlan, "execute", corrupt)
    with pytest.raises(GateError, match="plan output"):
        offline_canonical.run(seed=3, seconds=0.1)


class _SheddingFleet:
    """Sheds every odd-numbered submit; otherwise answers ``2 * x`` at once."""

    def __init__(self):
        self.submits = 0

    def stats(self):
        return {"lenet": {"queued_samples": 0, "inflight_samples": 0,
                          "batches": 1, "completed_samples": 1}}

    def submit(self, model, x):
        from concurrent.futures import Future

        from repro.runtime.fleet import ShedLoadError

        self.submits += 1
        if self.submits % 2:
            raise ShedLoadError(model, "sla_unmeetable", 0, predicted_ms=1.0, sla_ms=50.0)
        future = Future()
        future.set_result(2 * x)
        return future


@pytest.mark.parametrize("retry", [True, False])
def test_open_loop_resends_shed_requests_only_when_asked(retry):
    pool = [np.full((1, 2), i, dtype=np.float32) for i in range(4)]
    refs = [2 * x for x in pool]
    phase = serve_lenet.open_loop(_SheddingFleet(), "light", 400.0, 0.1, pool, refs, [1],
                                  retry=retry)
    assert phase.sent > 0 and phase.failed == phase.dropped == 0
    if retry:
        assert phase.shed == 0 and phase.succeeded == phase.sent and phase.retried > 0
    else:
        assert phase.retried == 0 and phase.shed > 0
        assert phase.shed + phase.succeeded == phase.sent


def test_host_reference_brackets_each_unit():
    from perfbench.hostspeed import NOMINAL_S, HostRef, at_nominal

    host = HostRef()
    host.mark()
    first = host.pair()
    second = host.pair()
    p = host.passes
    assert len(p) == 3
    assert first == pytest.approx((p[0] + p[1]) / 2) and second == pytest.approx((p[1] + p[2]) / 2)
    assert at_nominal(0.5, 2 * NOMINAL_S) == pytest.approx(0.25)


def test_non_finite_loss_trips_the_gate():
    check_losses([1.4, 1.2])
    with pytest.raises(GateError, match="step 1"):
        check_losses([1.4, float("nan")])


def test_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("train_lenet", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
