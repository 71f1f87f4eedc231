"""``serve_lenet``: single-sample LeNet requests through a one-worker fleet.

Per-request overhead dominates this workload: LeNet batch-1 compute is
about 2 ms, so coalescing wait, admission, the worker pipe hop and the
TCP wire are a large share of every request.  Four phases, all against
``FleetServer(workers=1, sla_ms=50)`` with otherwise default knobs:

* ``light`` — open-loop Poisson arrivals at a fixed 200 req/s;
* ``ladder`` — open-loop steps at fixed rates, bisected geometrically
  between 200 and 1200 req/s, to find the highest rate that meets the
  SLA: p99 within 50 ms counting shed and failed requests as misses, and
  no growing queue;
* ``overload`` — open-loop arrivals at a fixed 1200 req/s; sheds are the
  expected outcome here.  Its completed requests per second are the
  fleet's saturated throughput; goodput counts only those completed
  within the SLA;
* ``tcp`` — a closed loop of two ``FleetClient`` connections through
  ``FleetFrontend``, alternated with an in-process two-caller closed loop
  (``control``) so the difference is the frontend's cost.

The light, overload and closed-loop phases run in blocks spread over the
run: light, ladder, then overload and light alternating six times with
the tcp/control blocks after the third pair, then a last light block.

One generator thread drives the open loop.  Latency is timed from each
request's scheduled send time, so a stalled generator or server charges
the requests behind the stall.  In the light and closed-loop phases a
shed request is sent again with backoff, as ``FleetClient.infer_retrying``
does; the wait shows in its latency, and only a request still shed after
every retry counts as failed.  Every reply is checked, after its phase,
against the batch-1 plan output for the same input.

The bounded timings (``setup_s``, ``latency_ms``: the light phase's
p50, ``samples_per_s``: the overload phase's completed requests per
second) are reported at nominal host speed (:mod:`perfbench.hostspeed`),
scaled by the median of all reference passes of the run, taken on each
CPU in turn before every set-up and block.  A single point next to one
block or set-up is not used: the fleet worker and this process share the
CPUs, each of which has its own contention, and one point varies more
between blocks than the blocks do.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import math
import os
import random
import threading
import time

import numpy as np

from .common import (
    LENET,
    Result,
    check_bytes_equal,
    environment,
    gemm_op_keys,
    kernel_metrics,
    median,
    peak_rss_mb,
    percentile,
    plan_layer_metrics,
    table_misses,
)
from .hostspeed import HostRef, at_nominal
from .tracing import load_spans

SLA_MS = 50.0
LIGHT_RPS = 200.0
OVERLOAD_RPS = 1200.0
LADDER_STEPS = 5
CLIENTS = 2
POOL = 64
SETUPS = 9
#: Share of ``--seconds`` each phase measures for (a ladder step that
#: fails is tried once more, which can add up to ``LADDER_SHARE``).
LIGHT_SHARE, LADDER_SHARE, OVERLOAD_SHARE, TCP_SHARE = 0.18, 0.24, 0.28, 0.20
#: The light, overload and closed-loop phases run in blocks spread over
#: the run, so each averages over the host's slow and fast stretches.
LIGHT_BLOCKS, OVERLOAD_BLOCKS, TCP_BLOCKS = 8, 6, 4
#: Reference passes per CPU before every set-up and block (see :mod:`perfbench.hostspeed`).
REF_PASSES = 15
#: A shed request in a phase that counts sheds as failures is sent again
#: the way ``FleetClient.infer_retrying`` does it: up to ``ATTEMPTS``
#: sends, exponential backoff from ``BACKOFF_MS`` with the shed's hint as
#: a floor, capped at ``MAX_BACKOFF_MS``, seeded jitter.
ATTEMPTS = 8
BACKOFF_MS, MAX_BACKOFF_MS = 10.0, 2000.0
GAUGE_S = 0.01
#: Queue growth (samples) between a phase's first and last third that
#: counts as a growing backlog.
BACKLOG_SAMPLES = 4.0
DRAIN_S = 30.0


@dataclasses.dataclass
class Phase:
    """Counts and samples of one load phase."""

    name: str
    rate: float | None = None
    sent: int = 0
    succeeded: int = 0
    #: Requests never accepted (after every retry, where retried).
    shed: int = 0
    #: Re-sends of shed requests.
    retried: int = 0
    failed: int = 0
    dropped: int = 0
    good: int = 0
    duration_s: float = 0.0
    latencies_ms: list = dataclasses.field(default_factory=list)
    late_ms: list = dataclasses.field(default_factory=list)
    queued: list = dataclasses.field(default_factory=list)  # (t, queued_samples)
    samples_per_batch: float = 0.0
    #: Exception type name -> count, for failed requests.
    errors: dict = dataclasses.field(default_factory=dict)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def p(self, q: float) -> float:
        return percentile(self.latencies_ms, q) if self.latencies_ms else math.inf

    def backlog_growing(self) -> bool:
        """Whether the sampled queue gauge rose between the phase's first and last third."""
        q = [v for _, v in self.queued]
        third = len(q) // 3
        if third < 2:
            return False
        return float(np.mean(q[-third:]) - np.mean(q[:third])) > BACKLOG_SAMPLES

    def sla_p99(self) -> float:
        """p99 over every sent request, a shed or failed one counting as a miss."""
        ranked = sorted(self.latencies_ms) + [math.inf] * (self.sent - len(self.latencies_ms))
        return ranked[math.ceil(0.99 * len(ranked)) - 1] if ranked else math.inf

    def meets_sla(self) -> bool:
        return self.sla_p99() <= SLA_MS and not self.backlog_growing()

    @classmethod
    def merge(cls, name: str, parts: list["Phase"]) -> "Phase":
        """One phase from several blocks run at the same rate."""
        out = cls(name, parts[0].rate)
        for part in parts:
            for field in ("sent", "succeeded", "shed", "retried", "failed", "dropped", "good",
                          "duration_s"):
                setattr(out, field, getattr(out, field) + getattr(part, field))
            for field in ("latencies_ms", "late_ms", "queued"):
                getattr(out, field).extend(getattr(part, field))
            for name, count in part.errors.items():
                out.errors[name] = out.errors.get(name, 0) + count
        out.samples_per_batch = (
            sum(p.samples_per_batch * p.succeeded for p in parts) / max(1, out.succeeded)
        )
        return out

    def summary(self) -> dict:
        row = {
            "rate_rps": self.rate,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "shed": self.shed,
            "retried": self.retried,
            "failed": self.failed + self.dropped,
            "duration_s": round(self.duration_s, 3),
        }
        if self.samples_per_batch:
            row["samples_per_batch"] = round(self.samples_per_batch, 3)
        if self.latencies_ms:
            row["p50_ms"] = round(self.p(50), 3)
            row["p99_ms"] = round(self.p(99), 3)
        if self.rate is not None:
            row["sla_p99_ms"] = round(self.sla_p99(), 3)
        if self.queued:
            row["queued_samples_max"] = max(q for _, q in self.queued)
            row["backlog_growing"] = self.backlog_growing()
        if self.errors:
            row["errors"] = self.errors
        return row


def _stamp(done: list, i: int, _future) -> None:
    done[i] = time.perf_counter()


def _batch_delta(fleet, before: dict) -> float:
    after = fleet.stats()[LENET]
    batches = after["batches"] - before["batches"]
    samples = after["completed_samples"] - before["completed_samples"]
    return samples / batches if batches else 0.0


def ref_point_per_cpu(hostref: HostRef) -> None:
    """Take a reference point on each CPU this process may run on, in turn."""
    cpus = os.sched_getaffinity(0)
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            hostref.point()
    finally:
        os.sched_setaffinity(0, cpus)


def _wait_idle(fleet) -> None:
    deadline = time.monotonic() + DRAIN_S
    while time.monotonic() < deadline:
        row = fleet.stats()[LENET]
        if row["queued_samples"] == 0 and row["inflight_samples"] == 0:
            return
        time.sleep(0.005)


def backoff_s(exc, attempt: int, rng: random.Random) -> float:
    """Wait before re-sending a request shed on send ``attempt`` (0-based)."""
    backoff = min(MAX_BACKOFF_MS, BACKOFF_MS * 2**attempt)
    hint = getattr(exc, "retry_after_ms", None) or getattr(exc, "predicted_ms", None)
    if hint is not None:
        backoff = min(max(backoff, float(hint)), MAX_BACKOFF_MS)
    return backoff * (0.5 + rng.random()) / 1e3


def open_loop(fleet, name, rate, duration, pool, refs, key, tracer=None, retry=False) -> Phase:
    """Poisson arrivals at ``rate`` for ``duration`` seconds; replies gated.

    ``key`` seeds the arrival gaps, input picks and retry jitter, so a
    phase's schedule depends only on the benchmark seed and the phase,
    not on the ones before.  With ``retry``, a shed request is sent again
    after :func:`backoff_s`, between the scheduled arrivals; its latency
    still counts from its first scheduled send.
    """
    from repro.runtime.fleet import ShedLoadError

    rng = np.random.default_rng(key)
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    picks = rng.integers(0, len(pool), size=len(offsets))
    jitter = random.Random(int(rng.integers(2**32)))
    phase = Phase(name, rate, sent=len(offsets))
    done = [0.0] * len(offsets)
    accepted = []
    resend: list[tuple[float, int, int]] = []  # heap of (send time, request, attempt)
    before = fleet.stats()[LENET]
    t0 = time.perf_counter() + 0.002
    next_gauge = t0
    arrival = 0
    while arrival < len(offsets) or resend:
        if resend and (arrival == len(offsets) or resend[0][0] <= t0 + offsets[arrival]):
            send_at, i, attempt = heapq.heappop(resend)
        else:
            send_at, i, attempt = t0 + offsets[arrival], arrival, 0
            arrival += 1
        now = time.perf_counter()
        if send_at > now:
            time.sleep(send_at - now)
            now = time.perf_counter()
        if attempt == 0:
            phase.late_ms.append((now - send_at) * 1e3)
        if now >= next_gauge:
            phase.queued.append((now - t0, fleet.stats()[LENET]["queued_samples"]))
            next_gauge = now + GAUGE_S
        try:
            if tracer is not None:
                with tracer.request(f"{name}-{i}"):
                    future = fleet.submit(LENET, pool[picks[i]])
            else:
                future = fleet.submit(LENET, pool[picks[i]])
        except ShedLoadError as exc:
            if retry and attempt + 1 < ATTEMPTS:
                phase.retried += 1
                heapq.heappush(resend, (now + backoff_s(exc, attempt, jitter), i, attempt + 1))
            else:
                phase.shed += 1
            continue
        future.add_done_callback(functools.partial(_stamp, done, i))
        accepted.append((i, picks[i], t0 + offsets[i], future))
    phase.duration_s = time.perf_counter() - t0
    for i, k, due, future in accepted:
        try:
            exc = future.exception(timeout=DRAIN_S)
        except TimeoutError:
            phase.dropped += 1
            continue
        if exc is not None:
            phase.fail(exc)
            continue
        phase.succeeded += 1
        latency = (done[i] - due) * 1e3
        phase.latencies_ms.append(latency)
        phase.good += latency <= SLA_MS
        if tracer is not None:
            tracer.add("request", due, done[i], rid=f"{name}-{i}")
    _wait_idle(fleet)
    phase.samples_per_batch = _batch_delta(fleet, before)
    for i, k, due, future in accepted:
        if future.exception() is None:
            check_bytes_equal(future.result(), refs[k], f"{name} reply {i}")
    return phase


def submit_retrying(fleet, x, jitter: random.Random):
    """One in-process request, re-sent after :func:`backoff_s` while it is shed."""
    from repro.runtime.fleet import ShedLoadError

    for attempt in range(ATTEMPTS):
        try:
            return fleet.submit(LENET, x).result(timeout=DRAIN_S)
        except ShedLoadError as exc:
            if attempt == ATTEMPTS - 1:
                raise
            time.sleep(backoff_s(exc, attempt, jitter))


def closed_loop(name, call, duration, pool, refs, seed, block, phase) -> Phase:
    """``CLIENTS`` callers, each sending its next request when the last returns.

    ``call(client, x, jitter)`` sends one request and retries it while it
    is shed, drawing backoff jitter from ``jitter``.
    """
    lock = threading.Lock()
    replies = []
    deadline = time.perf_counter() + duration

    def client(cid: int) -> None:
        rng = np.random.default_rng([seed, 5, cid, block])
        jitter = random.Random(int(rng.integers(2**32)))
        while time.perf_counter() < deadline:
            k = int(rng.integers(len(pool)))
            t0 = time.perf_counter()
            try:
                out = call(cid, pool[k], jitter)
            except Exception as exc:  # errors, and sheds after every retry, are failures
                with lock:
                    phase.sent += 1
                    phase.fail(exc)
                continue
            t1 = time.perf_counter()
            with lock:
                phase.sent += 1
                phase.succeeded += 1
                phase.latencies_ms.append((t1 - t0) * 1e3)
                replies.append((k, out))

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=duration + DRAIN_S)
    if any(t.is_alive() for t in threads):
        raise RuntimeError(f"{name}: closed-loop client did not finish")
    phase.duration_s += time.perf_counter() - t0
    for k, out in replies:
        check_bytes_equal(out, refs[k], f"{name} reply")
    return phase


def run(seed: int, seconds: float, tracer=None) -> Result:
    from repro.nn.models import model_input_shape, model_zoo
    from repro.runtime.fleet import FleetServer, rebuild_plan, snapshot_model
    from repro.runtime.frontend import FleetClient, FleetFrontend
    from repro.runtime.plan import plan_tiers

    rng = np.random.default_rng([seed, 0])
    pool = rng.standard_normal((POOL, 1, *model_input_shape(LENET))).astype(np.float32)
    module = model_zoo()[LENET]
    snapshot = snapshot_model(LENET, module)
    reference = rebuild_plan(snapshot)
    refs = [reference.execute(x) for x in pool]

    hostref = HostRef(REF_PASSES)
    setups = []
    control_fleet = None
    for i in range(SETUPS):
        if tracer is not None and i == SETUPS - 1:
            # Only the serving fleet's worker is forked with the wrappers.
            tracer.default_label = LENET
            tracer.install()
        ref_point_per_cpu(hostref)  # before: the worker may still boot after set-up returns
        t0 = time.perf_counter()
        fleet = FleetServer(workers=1, sla_ms=SLA_MS)
        fleet.register(snapshot)
        frontend = FleetFrontend(fleet)
        setups.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            frontend.close()
            if tracer is not None and i == 0:
                control_fleet = fleet  # serves the untraced light phase
            else:
                fleet.close()

    untraced_light = None
    clients = []
    try:
        if control_fleet is not None:
            tracer.enabled = False
            untraced_light = open_loop(
                control_fleet, "light_untraced", LIGHT_RPS, seconds * LIGHT_SHARE / 2,
                pool, refs, [seed, 1], retry=True,
            )
            control_fleet.close()
            tracer.enabled = True

        lights, overloads = [], []

        def block(blocks, name, rate, share, count, key, retry) -> None:
            ref_point_per_cpu(hostref)
            blocks.append(open_loop(
                fleet, f"{name}{len(blocks)}", rate, seconds * share / count,
                pool, refs, [seed, key, len(blocks)], tracer, retry,
            ))

        def light_block() -> None:
            block(lights, "light", LIGHT_RPS, LIGHT_SHARE, LIGHT_BLOCKS, 2, True)

        def overload_block() -> None:
            block(overloads, "overload", OVERLOAD_RPS, OVERLOAD_SHARE, OVERLOAD_BLOCKS, 4, False)

        light_block()
        lo, hi = LIGHT_RPS, OVERLOAD_RPS
        step_s = seconds * LADDER_SHARE / LADDER_STEPS
        ladder, best = [], None
        for step in range(LADDER_STEPS):
            rate = math.sqrt(lo * hi)
            # A rate passes if either of two attempts meets the SLA: one
            # stall of a shared host sheds requests, a real overload sheds
            # on both tries.
            for attempt in range(2):
                phase = open_loop(
                    fleet, f"ladder{step}{'ab'[attempt]}", rate, step_s, pool, refs,
                    [seed, 3, step, attempt], tracer,
                )
                ladder.append(phase)
                if phase.meets_sla():
                    break
            if phase.meets_sla():
                lo, best = rate, phase
            else:
                hi = rate

        host, port = frontend.address
        clients = [FleetClient(host, port) for _ in range(CLIENTS)]
        tcp, control = Phase("tcp"), Phase("control")
        block_s = seconds * TCP_SHARE / (2 * TCP_BLOCKS)

        def tcp_call(c, x, jitter):
            return clients[c].infer_retrying(
                LENET, x, max_attempts=ATTEMPTS, base_backoff_ms=BACKOFF_MS,
                max_backoff_ms=MAX_BACKOFF_MS, seed=jitter.randrange(2**32),
            )

        def control_call(c, x, jitter):
            return submit_retrying(fleet, x, jitter)

        # Overload and light blocks alternate over the rest of the run,
        # with the closed loops in the middle.
        for j in range(OVERLOAD_BLOCKS):
            overload_block()
            light_block()
            if j == OVERLOAD_BLOCKS // 2 - 1:
                before = fleet.stats()[LENET]
                for b in range(TCP_BLOCKS):
                    closed_loop("tcp", tcp_call, block_s, pool, refs, seed, b, tcp)
                    closed_loop("control", control_call, block_s, pool, refs, seed, b, control)
                tcp.samples_per_batch = _batch_delta(fleet, before)
        while len(lights) < LIGHT_BLOCKS:
            light_block()
        light = Phase.merge("light", lights)
        overload = Phase.merge("overload", overloads)
        phases = ladder + [light, overload, tcp, control]
        stats = fleet.stats()[LENET]
    finally:
        for client in clients:
            client.close()
        frontend.close()
        fleet.close()
        if control_fleet is not None:
            control_fleet.close()

    max_rate = lo
    p50 = light.p(50)
    goodput = overload.good / overload.duration_s
    throughput = overload.succeeded / overload.duration_s
    failed = (
        sum(p.shed + p.failed + p.dropped for p in (light, tcp, control))
        + sum(p.failed + p.dropped for p in ladder + [overload])
    )
    attempted = sum(p.sent for p in phases)
    late = [v for p in phases for v in p.late_ms]
    figures = {
        "serve.p50_ms": (p50, "ms"),
        "serve.p99_ms": (light.p(99), "ms"),
        "serve.max_rate_rps": (max_rate, "1/s"),
        "serve.goodput_rps": (goodput, "1/s"),
        "serve.throughput_rps": (throughput, "1/s"),
        "tcp.p50_ms": (tcp.p(50), "ms"),
        "tcp.rps": (tcp.succeeded / tcp.duration_s, "1/s"),
        "control.p50_ms": (control.p(50), "ms"),
        "error_rate": (failed / attempted, "ratio"),
        "generator.late_ms.p99": (percentile(late, 99), "ms"),
    }
    figures.update({
        "raw.setup_s": (median(setups), "s"),
        "raw.samples_per_s": (throughput, "1/s"),
        "raw.latency_ms": (p50, "ms"),
        "host.ref_ms": (hostref.median_ms(), "ms"),
    })
    ref = hostref.median_ms() / 1e3
    end_to_end = {
        "setup_s": at_nominal(median(setups), ref),
        "peak_rss_mb": peak_rss_mb(),
        "samples_per_s": overload.succeeded / at_nominal(overload.duration_s, ref),
        "latency_ms": at_nominal(p50, ref),
    }
    layers = {}
    if tracer is not None:
        layers = _layer_metrics(tracer, reference, module, light, untraced_light,
                                overload, best, tcp, control, stats, late)
    details = {
        "env": environment(seed, plan_tiers(reference)),
        "setup_s_all": setups,
        "blocks": {
            "light_p50_ms": [p.p(50) for p in lights],
            "overload_rps": [p.succeeded / p.duration_s for p in overloads],
        },
        "phases": {p.name: p.summary() for p in phases},
        "stats": stats,
        "light_latencies_ms": light.latencies_ms,
    }
    if untraced_light is not None:
        details["phases"]["light_untraced"] = untraced_light.summary()
    return Result(attempted, failed, end_to_end, layers, figures, details)


def _layer_metrics(tracer, reference, module, light, untraced_light, overload,
                   best, tcp, control, stats, late) -> dict:
    tracer.dump()
    spans = load_spans(tracer.out_dir)
    parent = os.getpid()
    worker = [s for s in spans if s["pid"] != parent]
    executes = [s for s in worker if s["name"] == "plan.execute"]
    samples = sum(s["samples"] for s in executes) or 1
    submits = [s["dur"] * 1e6 for s in spans if s["name"] == "fleet.submit"]
    keys = gemm_op_keys(reference, module, LENET)
    layers = {
        "frontend.overhead_ms.p50": tcp.p(50) - control.p(50),
        "fleet.submit_us.p50": percentile(submits, 50),
        "fleet.samples_per_batch.light": light.samples_per_batch,
        "fleet.samples_per_batch.ladder": best.samples_per_batch if best else 0.0,
        "fleet.samples_per_batch.overload": overload.samples_per_batch,
        "fleet.samples_per_batch.tcp": tcp.samples_per_batch,
        "fleet.queued_samples.max.light": max(q for _, q in light.queued),
        "fleet.queued_samples.max.overload": max(q for _, q in overload.queued),
        "fleet.shed_ratio": overload.shed / overload.sent,
        "fleet.retried": stats["retried_requests"],
        "fleet.worker_restarts": stats["worker_restarts"],
        "fleet.service_ms_per_sample": 1e3 * sum(s["dur"] for s in executes) / samples,
        "generator.late_ms.p99": percentile(late, 99),
        "kernels.table_cache.misses": table_misses(spans),
        "trace.overhead_pct": 100.0 * (light.p(50) / untraced_light.p(50) - 1.0),
    }
    layers.update(plan_layer_metrics(worker, LENET, keys, samples))
    layers.update(kernel_metrics(worker, samples))
    return layers
