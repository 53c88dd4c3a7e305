"""The three measured workloads, each a closed loop from one client thread.

* ``lib_warm`` — in-process ``SpmmRuntime.run`` plan-cache hits over the
  hot set, each with a fresh caller-supplied dense operand;
* ``batch_cold`` — ``ParallelExecutor.run_batch`` with 2 supervised
  workers, a journal and fusion on (what ``run --batch --workers 2
  --journal`` sets), on batches of matrices new to the process;
* ``serve_closed`` — a ``python -m repro serve`` process driven through
  its socket with the hot set as generator specs, a fresh dense seed on
  every request.

Each returns a :class:`Outcome`: the end-to-end metrics, the attempted
and failed operation counts, and a report of reference figures (p90s,
sample counts, plans) that carry no bound.  Checking happens outside
the timed regions.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import inputs, procs
from .checks import (
    InProcessReference,
    ReferenceProcess,
    digest_ok,
    output_ok,
    scipy_operand,
    scipy_product,
)
from .env import BenchmarkError

#: set-ups per run; ``setup_s`` is their median.  ``batch_cold`` sets up
#: afresh before every batch instead: its ~30 ms set-up runs ~20 ms slower
#: for the first second or so of a process, for a varying number of
#: samples, so set-ups spread over the whole run give a steady median.
SETUP_REPEATS = {"lib_warm": 9, "serve_closed": 7}
#: workers for the batch executor and the service (the host has 2 cores)
WORKERS = 2
#: ``serve`` admission so one closed-loop client is never shed
SERVE_ADMISSION = ("--tenant-rate", "1e9", "--tenant-burst", "1000000000")
#: warm-up rounds of the hot set after ``serve`` answers ``health``
SERVE_WARM_ROUNDS = 2
#: closed-loop think time bound: one dispatcher tick of the service
#: (``_TICK_S`` in repro.runtime.supervisor)
THINK_MAX_S = 0.020
#: ``serve_closed`` reads the server tree's peak RSS after this many
#: measured requests (whole rounds of the hot set), and runs at least
#: this many, so the figure covers the same work on every commit
SERVE_RSS_REQUESTS = 150
#: the simulated GPU every workload plans for (the CLI default)
GPU = "gv100"


@dataclass
class Context:
    """What one run was asked to do."""

    seed: int
    seconds: float
    #: this run's scratch directory, relative to the checkout root
    work: str


@dataclass
class Outcome:
    """One workload run's result."""

    metrics: dict
    attempted: int = 0
    failed: int = 0
    #: outputs that reached a check and missed it (also counted in failed)
    wrong: int = 0
    report: dict = field(default_factory=dict)


def gpu_config():
    """The simulated GPU every workload plans for (the CLI default)."""
    from repro.gpu.config import get_config

    return get_config(GPU)


def fresh_copy(matrix):
    """A new container holding the same triplets (no memoized fingerprint)."""
    from repro.formats import COOMatrix

    rows, cols, vals = matrix.to_coo_arrays()
    return COOMatrix(matrix.shape, rows.copy(), cols.copy(), vals.copy())


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def latency_summary(samples: list[list[float]]) -> dict:
    """Per-stream medians and p90s (ms) plus their mean, from seconds."""
    per = []
    for s in samples:
        per.append({
            "n": len(s),
            "p50_ms": _ms(statistics.median(s)),
            "p90_ms": _ms(statistics.quantiles(s, n=10)[8]) if len(s) > 1
            else _ms(s[0]),
        })
    flat = [x for s in samples for x in s]
    return {
        "p50_ms": statistics.fmean(p["p50_ms"] for p in per),
        "p90_ms_all": _ms(statistics.quantiles(flat, n=10)[8]),
        "samples": len(flat),
        "per_matrix": per,
    }


# ------------------------------------------------------------------ lib_warm
def lib_warm(ctx: Context) -> Outcome:
    """Warm in-process plan-cache hits over the hot set."""
    from repro.matrices import from_spec
    from repro.runtime import SpmmRequest, SpmmRuntime

    config = gpu_config()
    specs = inputs.hot_specs()
    base = [from_spec(s) for s in specs]
    pools = [
        inputs.dense_pool(m.n_cols, inputs.POOL, ctx.seed, i)
        for i, m in enumerate(base)
    ]
    scipy_as = [scipy_operand(m) for m in base]

    setups = []
    for _ in range(SETUP_REPEATS["lib_warm"]):
        hot = [fresh_copy(m) for m in base]
        t0 = time.perf_counter()
        runtime = SpmmRuntime(config)
        cold = [
            runtime.run(SpmmRequest(m, dense=pool[0]))
            for m, pool in zip(hot, pools)
        ]
        setups.append(time.perf_counter() - t0)

    out = Outcome(metrics={})
    lat: list[list[float]] = [[] for _ in hot]
    floor: list[list[float]] = [[] for _ in hot]
    cpu = 0.0
    r = 0
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds:
        r += 1
        for i, m in enumerate(hot):
            dense = pools[i][r % len(pools[i])]
            request = SpmmRequest(m, dense=dense)
            out.attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                outcome = runtime.run(request)
            except Exception:  # an error is a failed operation, not a crash
                out.failed += 1
                continue
            t1 = time.perf_counter()
            cpu += time.process_time() - c0
            lat[i].append(t1 - t0)
            t0 = time.perf_counter()
            ref = scipy_product(scipy_as[i], dense)
            floor[i].append(time.perf_counter() - t0)
            if not outcome.cache_hit:
                out.failed += 1
            elif not output_ok(outcome.run.result.output, ref):
                out.wrong += 1
                out.failed += 1
    rss = procs.peak_rss_mb(os.getpid())
    done = sum(len(s) for s in lat)
    if not done:
        raise BenchmarkError("lib_warm completed no request")
    lat_s = latency_summary(lat)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": lat_s["p50_ms"],
        "throughput_rps": done / sum(sum(s) for s in lat),
        "cpu_ms_per_req": _ms(cpu / done),
        "peak_rss_mb": rss,
    }
    out.report = {
        "latency": lat_s,
        "rounds": r,
        "setup_s_all": setups,
        "hot_set": [
            {"spec": s, "nnz": int(m.nnz), "plan": o.plan.algorithm,
             "variant": o.record.variant,
             "scipy_floor_ms": _ms(statistics.median(f))}
            for s, m, o, f in zip(specs, hot, cold, floor)
        ],
    }
    return out


# ---------------------------------------------------------------- batch_cold
def batch_policy():
    """Supervision as ``run --batch`` sets it by default."""
    from repro.runtime.supervisor import SupervisionPolicy

    return SupervisionPolicy(request_timeout_s=None, max_retries=2)


def run_cli_batch(executor, requests, journal: str, *, tracer=None):
    """``run --batch --workers 2 --journal FILE``: fusion on, default window."""
    return executor.run_batch(
        requests, tracer=tracer, policy=batch_policy(), journal=journal,
        coalesce=True, coalesce_max_k=1024,
    )


def batch_requests(ctx: Context, batch: int) -> list:
    """One batch's requests; a same-matrix group shares one matrix object."""
    from repro.matrices import from_spec
    from repro.runtime import SpmmRequest

    matrices: dict[str, object] = {}
    requests = []
    for spec, dense_seed in inputs.batch_items(ctx.seed, batch):
        if spec not in matrices:
            matrices[spec] = from_spec(spec)
        requests.append(
            SpmmRequest(matrices[spec], k=inputs.K, seed=dense_seed)
        )
    return requests


def warmup_requests(ctx: Context, index: int) -> list:
    """Two tiny new matrices: enough to start both workers."""
    from repro.matrices import from_spec
    from repro.runtime import SpmmRequest

    return [
        SpmmRequest(
            from_spec(inputs.spec("uniform", 256, 256, 0.02,
                                  inputs.request_seed(ctx.seed, 90 + index, j))),
            k=inputs.K, seed=j,
        )
        for j in range(WORKERS)
    ]


def batch_cold(ctx: Context) -> Outcome:
    """Back-to-back ``run --batch`` calls on matrices new to the process."""
    from repro.runtime import ParallelExecutor, SpmmRuntime

    config = gpu_config()
    journals = os.path.join(ctx.work, "journals")
    os.makedirs(journals, exist_ok=True)

    setups = []

    def set_up(index: int):
        """Executor construction plus worker start, as each ``run --batch`` pays."""
        warm = warmup_requests(ctx, index)
        journal = os.path.join(journals, f"warm-{index}.jsonl")
        t0 = time.perf_counter()
        executor = ParallelExecutor(SpmmRuntime(config), workers=WORKERS)
        result = run_cli_batch(executor, warm, journal)
        setups.append(time.perf_counter() - t0)
        os.unlink(journal)
        if not result.ok:
            raise BenchmarkError(f"batch warm-up failed: {result.failures}")
        return executor

    # the reference runs in a process of its own: workers are forked from
    # this one for every batch, and must not inherit the reference's pages
    reference = ReferenceProcess(GPU)
    try:
        out = Outcome(metrics={})
        walls, cpu, dispatched = [], 0.0, []
        batch = 0
        while sum(walls) < ctx.seconds:
            executor = set_up(batch)
            requests = batch_requests(ctx, batch)
            journal = os.path.join(journals, f"batch-{batch}.jsonl")
            kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = run_cli_batch(executor, requests, journal)
            walls.append(time.perf_counter() - t0)
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu += (time.process_time() - c0) + (
                kids1.ru_utime + kids1.ru_stime
                - kids0.ru_utime - kids0.ru_stime
            )
            dispatched.append(int(result.stats.get("dispatched", 0)))
            # untimed: every record against a reference run of its request
            for request, item in zip(requests, result):
                out.attempted += 1
                if item is None:
                    out.failed += 1
                    continue
                expected = reference.digest(request.matrix, request.k,
                                            request.seed)
                if expected is None or not digest_ok(item.record.digest(),
                                                     expected):
                    out.wrong += 1
                    out.failed += 1
            os.unlink(journal)
            batch += 1
        parent = procs.peak_rss_mb(os.getpid())
        # the largest reaped worker; the reference process is not reaped yet
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    finally:
        reference.close()
    items = out.attempted
    out.metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": _ms(statistics.median(walls)),
        "throughput_rps": items / sum(walls),
        "cpu_ms_per_req": _ms(cpu / items),
        "peak_rss_mb": parent + WORKERS * worker,
    }
    out.report = {
        "batches": batch,
        "items_per_batch": items // batch,
        "batch_wall_ms": [round(_ms(w), 3) for w in walls],
        "dispatched_per_batch": sorted(set(dispatched)),
        "setup_s_all": setups,
        "peak_rss_parent_mb": parent,
        "peak_rss_worker_mb": worker,
    }
    return out


# -------------------------------------------------------------- serve_closed
class Server:
    """One ``python -m repro serve`` process and a client connection."""

    def __init__(self, work: str, index: int):
        from repro.service import ServiceClient

        self.dir = os.path.join(work, f"serve-{index}")
        os.makedirs(self.dir)
        # relative socket path: AF_UNIX paths are limited to ~107 bytes
        sock = os.path.join(self.dir, "s.sock")
        self.log = open(os.path.join(self.dir, "server.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--state-dir", os.path.join(self.dir, "state"),
             "--workers", str(WORKERS), *SERVE_ADMISSION],
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.client = ServiceClient(sock, connect_timeout_s=60.0)
            self.client.health()
        except Exception:
            self.kill()
            raise

    def submit(self, spec: str, seed: int) -> dict:
        return self.client.submit(spec, k=inputs.K, seed=seed)

    def drain(self) -> None:
        """Drain through the protocol and wait for the process tree to end."""
        tree = procs.descendants(self.proc.pid)
        try:
            self.client.drain()
            self.proc.wait(timeout=60)
        finally:
            self.kill(tree)

    def kill(self, tree: list[int] | None = None) -> None:
        """Close the client; kill the server if still running, and wait
        for it and every process below it (``tree``, read now if not
        given) to end."""
        if tree is None:
            tree = procs.descendants(self.proc.pid)
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        forced = self.proc.poll() is None
        if forced:
            self.proc.kill()
            self.proc.wait(timeout=30)
        # a killed server's workers never learn of it: stop them at once
        killed = procs.wait_ended(tree, grace_s=0.0 if forced else 10.0)
        if not forced:
            for line in killed:
                print(f"warning: killed a serve process left running: {line}",
                      file=sys.stderr)
        self.log.close()


@dataclass
class LoopResult:
    """What one closed-loop client phase saw."""

    #: per hot matrix, the wall time of each request (s)
    latencies: list
    #: ``(hot index, dense seed, response)`` per request, in order
    sent: list
    #: wall time of the phase, think time excluded (s)
    busy_s: float
    #: the server tree's peak RSS after ``rss_after`` requests (MB)
    rss_mb: float | None = None


def closed_loop(server: Server, specs: list[str], seed: int,
                seconds: float, *, stream: int = 1,
                rss_after: int | None = None) -> LoopResult:
    """Submit the hot set round after round until ``seconds`` have passed.

    With ``rss_after``, the loop also runs until that many requests are
    answered, and reads the server tree's peak RSS at that count.

    Before each request the client thinks for a seeded uniform time in
    ``[0, THINK_MAX_S)``, so requests reach the service at every phase
    of its dispatcher tick; a client that sends immediately locks onto
    one phase, and its median moves by a whole tick between runs.
    """
    import numpy as np

    rng = np.random.default_rng(inputs.request_seed(seed, stream, 0))
    lat: list[list[float]] = [[] for _ in specs]
    sent = []
    think = 0.0
    n = 0
    rss = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (rss_after is not None and rss is None)):
        for i, spec in enumerate(specs):
            n += 1
            pause = float(rng.uniform(0.0, THINK_MAX_S))
            time.sleep(pause)
            think += pause
            dense_seed = inputs.request_seed(seed, stream, n)
            t0 = time.perf_counter()
            try:
                resp = server.submit(spec, dense_seed)
            except Exception as exc:  # connection trouble: a failed op
                resp = {"status": None, "error": repr(exc)}
            lat[i].append(time.perf_counter() - t0)
            sent.append((i, dense_seed, resp))
            if n == rss_after:
                rss = procs.tree_peak_rss_mb(server.proc.pid)
    return LoopResult(lat, sent, time.perf_counter() - start - think, rss)


def serve_closed(ctx: Context) -> Outcome:
    """One connection submits the hot set in a closed loop."""
    from repro.matrices import from_spec
    from repro.runtime import SpmmRequest

    specs = inputs.hot_specs()
    setups = []
    server = None
    warm_n = 0
    try:
        for s in range(SETUP_REPEATS["serve_closed"]):
            t0 = time.perf_counter()
            server = Server(ctx.work, s)
            for _ in range(SERVE_WARM_ROUNDS):
                for spec in specs:
                    warm_n += 1
                    resp = server.submit(
                        spec, inputs.request_seed(ctx.seed, 0, warm_n)
                    )
                    if resp.get("status") != 200:
                        raise BenchmarkError(f"serve warm-up failed: {resp}")
            setups.append(time.perf_counter() - t0)
            if s < SETUP_REPEATS["serve_closed"] - 1:
                server.drain()
                server = None

        pid = server.proc.pid
        cpu0 = procs.tree_cpu_seconds(pid)
        loop = closed_loop(server, specs, ctx.seed, ctx.seconds,
                           rss_after=SERVE_RSS_REQUESTS)
        cpu = procs.tree_cpu_seconds(pid) - cpu0
        server.drain()
        server = None
    finally:
        if server is not None:
            server.kill()

    # untimed: every response against an in-process run of its request
    out = Outcome(metrics={})
    reference = InProcessReference(gpu_config())
    matrices = [from_spec(s) for s in specs]
    scipy_as = [scipy_operand(m) for m in matrices]
    for i, seed, resp in loop.sent:
        out.attempted += 1
        result = resp.get("result") or {}
        if (
            resp.get("status") != 200
            or result.get("rung") != 0
            or result.get("replayed") is not False
        ):
            out.failed += 1
            continue
        dense = SpmmRequest(matrices[i], k=inputs.K, seed=seed).resolve_dense()
        expected = reference.digest(matrices[i], dense, scipy_as[i])
        if expected is None or not digest_ok(result.get("digest"), expected):
            out.wrong += 1
            out.failed += 1
    lat_s = latency_summary(loop.latencies)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": lat_s["p50_ms"],
        "throughput_rps": len(loop.sent) / loop.busy_s,
        "cpu_ms_per_req": _ms(cpu / len(loop.sent)),
        "peak_rss_mb": loop.rss_mb,
    }
    out.report = {
        "latency": lat_s, "setup_s_all": setups, "specs": specs,
        "peak_rss_at_requests": SERVE_RSS_REQUESTS,
    }
    return out


WORKLOADS = {
    "lib_warm": lib_warm,
    "batch_cold": batch_cold,
    "serve_closed": serve_closed,
}
