"""Process environment the benchmark and every program process run under.

:func:`bootstrap` must run before numpy is imported anywhere: BLAS and
OpenMP read their thread counts once, at library load.  It pins them to
one thread so that no run uses more threads than the host has cores,
points ``TMPDIR`` into the run's work directory (the operand plane keeps
its lease files under the temp directory), and makes the program's
``src/`` tree importable.  The program must come from this checkout's
``src/``; a benchmark copied without it fails instead of measuring
something else.
"""

from __future__ import annotations

import json
import os
import sys

#: checkout root: the directory that holds ``perfbench/`` and ``src/``
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: every run's scratch space, relative to ROOT (listed in .gitignore)
WORK_ROOT = ".perfbench_work"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


class ProgramMissing(BenchmarkError):
    """The checkout holds no program to measure."""


def bootstrap(work_dir: str | None = None) -> None:
    """Pin threads, set TMPDIR, and import the program from ``src/``."""
    if "numpy" in sys.modules and os.environ.get("OMP_NUM_THREADS") != "1":
        raise BenchmarkError("numpy was imported before thread pinning")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"program source not found under {SRC}/repro")
    if work_dir is not None:
        tmp = os.path.join(ROOT, work_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR on next use
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import repro

    got = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if got != SRC:
        raise BenchmarkError(f"imported repro from {got}, not {SRC}")


def load_spec() -> dict:
    """The benchmark's definition, ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_names() -> list[str]:
    """The workload names ``BENCHMARK.json`` declares."""
    return [w["name"] for w in load_spec()["workloads"]]


def declared_units(kind: str) -> dict:
    """``{metric name: unit}`` of one metric list in ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}
