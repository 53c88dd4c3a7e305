"""Run one workload N times with different seeds and print each metric's spread.

Usage (from the checkout root)::

    python3 perfbench/repeat.py --workload serve_closed --runs 10

Each run is a separate ``perfbench/run.py`` process with seed
``first_seed + i`` and the run length from ``BENCHMARK.json``.  For every
metric the table gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound.
A bound is met when ``spread/bound`` stays below 1.  The failed share of
attempted operations must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import env  # noqa: E402


def run_once(workload: str, seed: int, seconds, trace: int) -> tuple[dict, dict]:
    """One ``run.py`` process; returns its result line and its report."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(
            f"run seed={seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def spreads(results: list[dict], metrics: list[dict]) -> list[dict]:
    """Median, quartiles and relative spread of every declared metric."""
    rows = []
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = m.get("bound")
        rows.append({
            "name": m["name"], "unit": m["unit"], "median": median,
            "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_per_bound": spread / bound if bound else None,
            "values": values,
        })
    return rows


def main(argv=None) -> int:
    spec = env.load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=env.workload_names())
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 (quartiles need two values)")

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r, report = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        print(f"# seed {seed}: attempted {r['attempted']} failed "
              f"{r['failed']} correct {r['correct']} host steal "
              f"{report['machine']['steal_pct']}%", flush=True)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    rows = spreads(results, metrics)
    print(f"workload {args.workload}: {args.runs} runs x {args.seconds:g} s, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<26} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6} {'spr/bnd':>8}")
    for row in rows:
        bound = f"{row['bound']:.2f}" if row["bound"] else "-"
        ratio = (f"{row['spread_per_bound']:.2f}"
                 if row["spread_per_bound"] is not None else "-")
        print(f"{row['name']:<26} {row['unit']:<6} {row['median']:>11.4f} "
              f"{row['q1']:>11.4f} {row['q3']:>11.4f} "
              f"{row['spread']:>8.2%} {bound:>6} {ratio:>8}")
    shares = {r["failed"] / r["attempted"] for r in results}
    ok = all(r["correct"] for r in results) and len(shares) == 1
    print(f"failed share per run: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    print(json.dumps({"workload": args.workload, "rows": rows}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
