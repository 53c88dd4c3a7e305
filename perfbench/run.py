"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload lib_warm --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics; ``--trace 1`` prints the per-layer metrics instead (see
``layers.py``).  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds reference figures (machine facts, p90s, sample counts) that
carry no bound.  Exit status is 0 on a completed run, 1 when the run
could not be trusted (hygiene, set-up), 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import env, procs  # noqa: E402  (no numpy before bootstrap)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=env.workload_names())
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(args, work: str) -> tuple[dict, dict]:
    """Run the workload; returns ``(result line, report)``."""
    from perfbench import workloads

    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, work=work)
    if args.trace:
        from perfbench import layers

        out = layers.traced_run(ctx)
    else:
        out = workloads.WORKLOADS[args.workload](ctx)
    units = env.declared_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(out.metrics)
    if missing:
        raise env.BenchmarkError(f"metrics not measured: {sorted(missing)}")
    line = {
        "correct": out.wrong == 0,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return line, out.report


def main(argv=None) -> int:
    args = parse_args(argv)
    work = os.path.join(env.WORK_ROOT, f"run-{os.getpid()}")
    try:
        procs.adopt_orphans()
        procs.assert_clean("start")
        env.bootstrap(work)
    except env.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except env.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts = procs.machine_facts()
    steal0, total0 = procs.cpu_ticks()
    try:
        line, report = measure(args, work)
    except env.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        procs.stop_resource_tracker()
        killed = procs.reap_all()
        for line in killed:
            print(f"warning: killed a process left running: {line}",
                  file=sys.stderr)
        shutil.rmtree(os.path.join(env.ROOT, work), ignore_errors=True)
        try:
            os.rmdir(os.path.join(env.ROOT, env.WORK_ROOT))
        except OSError:
            pass
    try:
        procs.assert_clean("end")
    except env.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts["killed_at_end"] = killed
    facts["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    steal1, total1 = procs.cpu_ticks()
    facts["steal_pct"] = round(
        100.0 * (steal1 - steal0) / max(1, total1 - total0), 2
    )
    print(json.dumps({"report": dict(report, machine=facts,
                                     workload=args.workload,
                                     seed=args.seed, trace=args.trace)},
                     sort_keys=True))
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
