"""The benchmark's own tests: short runs and the output checks' teeth.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
The short runs use the measured inputs and set-ups; only the measured
phase is cut to one second.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)

from perfbench import env, procs  # noqa: E402
from perfbench.checks import (  # noqa: E402
    InProcessReference,
    digest_ok,
    output_ok,
    scipy_operand,
    scipy_product,
)

ROOT = env.ROOT
sys.path.insert(0, env.SRC)


def run_bench(workload: str, *, trace: int = 0, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


@pytest.mark.parametrize("workload", env.workload_names())
def test_short_run_completes_with_zero_failures(workload):
    line = result_line(run_bench(workload))
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == (
        env.declared_units("end_to_end")
    )
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    line = result_line(run_bench("lib_warm", trace=1))
    assert line["correct"] is True
    assert line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == (
        env.declared_units("per_layer")
    )


def test_run_without_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("lib_warm", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _program_output():
    from repro.formats import COOMatrix
    from repro.gpu.config import get_config
    from repro.runtime import SpmmRequest, SpmmRuntime

    rng = np.random.default_rng(5)
    dense_a = np.where(rng.random((40, 30)) < 0.2, rng.random((40, 30)), 0.0)
    rows, cols = np.nonzero(dense_a)
    matrix = COOMatrix((40, 30), rows, cols, dense_a[rows, cols].astype(np.float32))
    dense = rng.uniform(0.1, 1.0, size=(30, 8)).astype(np.float32)
    outcome = SpmmRuntime(get_config("gv100")).run(SpmmRequest(matrix, dense=dense))
    return matrix, dense, outcome


def test_output_check_fails_on_one_perturbed_element():
    matrix, dense, outcome = _program_output()
    ref = scipy_product(scipy_operand(matrix), dense)
    out = np.array(outcome.run.result.output)
    assert output_ok(out, ref)
    out[7, 3] *= 1.0 + 1e-9
    assert not output_ok(out, ref)


def test_digest_check_fails_on_one_changed_character():
    matrix, dense, outcome = _program_output()
    from repro.gpu.config import get_config

    expected = InProcessReference(get_config("gv100")).digest(matrix, dense)
    got = outcome.record.digest()
    assert digest_ok(got, expected)
    flipped = got[:10] + ("0" if got[10] != "0" else "1") + got[11:]
    assert not digest_ok(flipped, expected)


def test_hygiene_reports_a_leftover_segment():
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(
        name=f"{procs.SHM_PREFIX}perfbench-test-{os.getpid()}", create=True,
        size=16,
    )
    try:
        assert any("perfbench-test" in leak
                   for leak in procs.leaks(own_children=False))
    finally:
        shm.close()
        shm.unlink()
    assert not any("perfbench-test" in leak
                   for leak in procs.leaks(own_children=False))


def test_orphaned_grandchildren_are_waited_for_or_killed():
    # in a process of its own: the subreaper flag is kept for life
    script = (
        "import os, subprocess, sys\n"
        f"sys.path.insert(0, {ROOT!r})\n"
        "from perfbench import procs\n"
        "procs.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 0.3 & sleep 60 & exit 0'],"
        " check=True)\n"
        "killed = procs.reap_all(grace_s=1.0)\n"
        "print(len(killed), len(procs.descendants(os.getpid())))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the short sleep ended by itself, the long one was killed
    assert proc.stdout.split() == ["1", "0"]
