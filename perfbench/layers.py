"""The traced run (``--trace 1``): per-layer metrics timed from outside.

Each layer metric is the median wall time of one call into a layer's
public function, made from this file in the order the program makes it
on the path the named workload exercises (README.md maps each metric to
the end-to-end metric it should move).  Counts come from a batch run
under a program tracer (``run_batch(tracer=Tracer())``).  End-to-end
numbers never come from this run; its own overhead is reported as
``trace.overhead_pct``: the warm-hit latency of ``SpmmRuntime`` with a
tracer against the same runtime without one, measured interleaved.

Every traced run prints every per-layer metric whatever its workload,
so the inputs are the same for all three: the hot set (hit path and
serve stages) and the first ``batch_cold`` batch (cold path and counts).
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

from . import inputs, workloads
from .checks import (
    InProcessReference,
    digest_ok,
    output_ok,
    scipy_operand,
    scipy_product,
)
from .workloads import Context, Outcome, fresh_copy, gpu_config

#: calls per hot matrix on the hit path (each layer timed once per call)
HIT_ROUNDS = 24
#: requests per hot matrix for the serve stages
SERVE_STAGE_ROUNDS = 8
#: closed-loop client phase against a live ``serve`` for the residual (s)
SERVE_LOOP_S = 4.0

#: offline formats the executor materializes for each plan algorithm
OFFLINE_FORMATS = {
    "c_stationary_best": ("csr", "dcsr"),
    "online_tiled_dcsr": ("csc",),
    "offline_tiled_dcsr": ("tiled_dcsr",),
    "untiled_csr": ("csr",),
}


class Timings:
    """Named lists of call durations (seconds)."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def call(self, name: str, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` under ``name``; return its result."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples[name].append(time.perf_counter() - t0)
        return result

    def median_ms(self, name: str) -> float:
        return statistics.median(self.samples[name]) * 1000.0


def _check(out: Outcome, ok: bool) -> None:
    out.attempted += 1
    if not ok:
        out.wrong += 1
        out.failed += 1


def hit_path(ctx: Context, t: Timings, out: Outcome) -> None:
    """Warm hits on the hot set: plan, execute, kernel, record, operand."""
    from repro.kernels.backends import get_backend
    from repro.kernels.common import check_operands
    from repro.matrices import from_spec
    from repro.runtime import RunRecord, SpmmRequest, SpmmRuntime
    from repro.telemetry import Tracer

    config = gpu_config()
    hot = [fresh_copy(from_spec(s)) for s in inputs.hot_specs()]
    pools = [
        inputs.dense_pool(m.n_cols, inputs.POOL, ctx.seed, i)
        for i, m in enumerate(hot)
    ]
    runtime = SpmmRuntime(config)
    traced = SpmmRuntime(config)
    for m, pool in zip(hot, pools):
        runtime.run(SpmmRequest(m, dense=pool[0]))
        traced.run(SpmmRequest(m, dense=pool[0]))
    plain_s, traced_s = [], []
    for i, m in enumerate(hot):
        a = scipy_operand(m)
        prepared = None
        plain, with_tracer = [], []
        for r in range(HIT_ROUNDS):
            dense = pools[i][r % len(pools[i])]
            request = SpmmRequest(m, dense=dense)
            plan, store, hit = t.call("runtime.plan_hit_ms", runtime.plan, request)
            execution = t.call(
                "runtime.execute_ms", runtime.executor.execute,
                plan, m, dense, store=store, request=request,
            )
            _check(out, hit and output_ok(
                execution.run.result.output, scipy_product(a, dense)
            ))
            t.call("runtime.record_ms",
                   lambda: RunRecord.from_execution(execution).digest())
            backend = get_backend(plan.provenance.get("backend"))
            if prepared is None:
                prepared = backend.prepare(m)
            t.call("kernels.spmm_ms", backend.spmm, prepared,
                   check_operands(m, dense))
            t.call("runtime.resolve_dense_ms", SpmmRequest(
                m, k=inputs.K, seed=inputs.request_seed(ctx.seed, 9, r)
            ).resolve_dense)
            # tracer overhead: the same hit, untraced then traced
            t0 = time.perf_counter()
            runtime.run(request)
            plain.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            traced.run(request, tracer=Tracer())
            with_tracer.append(time.perf_counter() - t0)
        plain_s.append(statistics.median(plain))
        traced_s.append(statistics.median(with_tracer))
    out.metrics["trace.overhead_pct"] = 100.0 * (sum(traced_s) / sum(plain_s) - 1.0)


def cold_path(ctx: Context, t: Timings, out: Outcome) -> None:
    """New matrices, as a batch meets them: fingerprint to journal."""
    from repro.engine.api import convert_matrix_online
    from repro.formats import to_format
    from repro.formats.convert import FormatStore
    from repro.matrices import from_spec
    from repro.runtime import (
        Executor,
        Planner,
        RunJournal,
        RunRecord,
        SpmmRequest,
        matrix_fingerprint,
        request_fingerprint,
    )
    from repro.store import SharedOperandRegistry

    config = gpu_config()
    planner = Planner(config)
    executor = Executor(config, planner=planner)
    journal = RunJournal(os.path.join(ctx.work, "layers-journal.jsonl"))
    registry = SharedOperandRegistry(lease_dir=os.path.join(ctx.work, "leases"))
    try:
        items: dict[str, int] = {}  # every distinct matrix of the first batch
        for spec, dense_seed in inputs.batch_items(ctx.seed, 0):
            items.setdefault(spec, dense_seed)
        for spec, dense_seed in items.items():
            m = from_spec(spec)
            fingerprint = t.call("runtime.fingerprint_ms", matrix_fingerprint,
                                 fresh_copy(m))
            request = SpmmRequest(m, k=inputs.K, seed=dense_seed)
            plan = t.call("runtime.plan_cold_ms", planner.plan, request)
            converted = {
                fmt: t.call("formats.convert_ms", to_format, m, fmt)
                for fmt in OFFLINE_FORMATS[plan.algorithm]
            }
            if plan.algorithm == "online_tiled_dcsr":
                t.call("engine.convert_ms", convert_matrix_online,
                       converted["csc"], tile_width=plan.tile_width,
                       config=config)
            dense = request.resolve_dense()
            execution = t.call(
                "runtime.execute_cold_ms", executor.execute,
                plan, m, dense, store=FormatStore(m), request=request,
            )
            _check(out, output_ok(execution.run.result.output,
                                  scipy_product(scipy_operand(m), dense)))
            t.call("store.publish_ms", registry.publish_matrix, m,
                   fingerprint=fingerprint)
            t.call("journal.append_ms", journal.append,
                   request_fingerprint(request, config, planner.ssf_threshold),
                   RunRecord.from_execution(execution))
    finally:
        registry.close()


def serve_path(ctx: Context, t: Timings, out: Outcome) -> None:
    """The hot set as ``serve`` handles it, then a live closed loop.

    ``service.residual_ms`` is the live client median minus the sum of
    the stage medians timed here for the same request kind: spec to
    matrix, fingerprint, intent fsync, plan-cache hit, operand publish
    (a hit after the first), the worker body, and the journal fsync.
    What is left is socket, event loop, dispatcher tick, coalescing
    window and IPC.
    """
    from repro.matrices import from_spec
    from repro.runtime import (
        PlanHandle,
        RunJournal,
        RunRecord,
        SpmmRequest,
        SpmmRuntime,
        matrix_fingerprint,
    )
    from repro.runtime.parallel import execute_handle
    from repro.service.state import ServiceState
    from repro.store import SharedOperandRegistry
    from repro.store.registry import detach_all

    config = gpu_config()
    specs = inputs.hot_specs()
    runtime = SpmmRuntime(config)
    state = ServiceState(os.path.join(ctx.work, "layers-state"))
    journal = RunJournal(os.path.join(ctx.work, "layers-serve-journal.jsonl"))
    registry = SharedOperandRegistry(lease_dir=os.path.join(ctx.work, "leases"))
    reference = InProcessReference(config)
    stage_ms = []
    try:
        for i, spec in enumerate(specs):
            stage = Timings()
            for r in range(SERVE_STAGE_ROUNDS + 1):
                seed = inputs.request_seed(ctx.seed, 10 + i, r)
                m = stage.call("from_spec", from_spec, spec)
                fp = stage.call("fingerprint", matrix_fingerprint, m)
                request = SpmmRequest(m, k=inputs.K, seed=seed)
                stage.call("intent", state.record_accepted, {
                    "fingerprint": f"{fp}:{seed}", "tenant": "default",
                    "matrix": spec, "k": inputs.K, "seed": seed,
                    "tile_width": 64, "lane": "interactive", "rung": 0,
                })
                plan, _, _ = stage.call("plan", runtime.plan, request)
                operand = stage.call("publish", registry.publish_matrix, m,
                                     fingerprint=fp)
                handle = PlanHandle(
                    index=r, plan=plan.to_dict(), matrix=None, fingerprint=fp,
                    k=inputs.K, seed=seed, tile_width=64, ssf_threshold=None,
                    backend=plan.provenance.get("backend"), operand=operand,
                )
                record_json, _, _ = stage.call(
                    "execute_handle", execute_handle, (config, False), handle
                )
                record = RunRecord.from_json(record_json)
                stage.call("journal", journal.append, f"{fp}:{seed}", record)
                expected = reference.digest(m, request.resolve_dense())
                _check(out, expected is not None
                       and digest_ok(record.digest(), expected))
            # the first round is the cold one: drop it from every stage
            for name, values in stage.samples.items():
                del values[0]
            t.samples["matrices.from_spec_ms"] += stage.samples["from_spec"]
            t.samples["service.intent_append_ms"] += stage.samples["intent"]
            t.samples["runtime.execute_handle_ms"] += stage.samples["execute_handle"]
            stage_ms.append(sum(stage.median_ms(n) for n in stage.samples))
            out.report.setdefault("serve_stages_ms", []).append(
                {n: stage.median_ms(n) for n in stage.samples}
            )
    finally:
        detach_all()
        registry.close()

    server = workloads.Server(ctx.work, 0)
    try:
        loop = workloads.closed_loop(server, specs, ctx.seed, SERVE_LOOP_S,
                                     stream=11)
        server.drain()
    finally:
        server.kill()
    for _, _, resp in loop.sent:
        _check(out, resp.get("status") == 200)
    client_ms = [statistics.median(s) * 1000.0 for s in loop.latencies]
    out.metrics["service.residual_ms"] = statistics.fmean(
        c - s for c, s in zip(client_ms, stage_ms)
    )
    out.report["serve_client_p50_ms"] = client_ms
    out.report["serve_stage_sum_ms"] = stage_ms


def batch_counts(ctx: Context, out: Outcome) -> None:
    """One ``run --batch`` under a program tracer: dispatch and shipping counts."""
    from repro.runtime import ParallelExecutor, SpmmRuntime
    from repro.telemetry import Tracer

    config = gpu_config()
    requests = workloads.batch_requests(ctx, 0)
    tracer = Tracer()
    executor = ParallelExecutor(SpmmRuntime(config), workers=workloads.WORKERS)
    result = workloads.run_cli_batch(
        executor, requests, os.path.join(ctx.work, "layers-batch.jsonl"),
        tracer=tracer,
    )
    reference = InProcessReference(config)
    for request, item in zip(requests, result):
        expected = reference.digest(request.matrix, request.resolve_dense())
        _check(out, item is not None and expected is not None
               and digest_ok(item.record.digest(), expected))
    counters = tracer.metrics.snapshot()["counters"]
    out.metrics["supervisor.dispatched"] = result.stats["dispatched"]
    out.metrics["coalesce.passes_saved"] = counters.get("coalesce.passes_saved", 0.0)
    out.metrics["store.bytes_shipped"] = counters.get("store.bytes_shipped", 0.0)


def traced_run(ctx: Context) -> Outcome:
    """Every per-layer metric, on the same inputs for every workload."""
    out = Outcome(metrics={})
    t = Timings()
    hit_path(ctx, t, out)
    cold_path(ctx, t, out)
    serve_path(ctx, t, out)
    batch_counts(ctx, out)
    for name in t.samples:
        out.metrics[name] = t.median_ms(name)
    out.report["samples"] = {n: len(v) for n, v in sorted(t.samples.items())}
    return out
