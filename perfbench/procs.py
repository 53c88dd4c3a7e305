"""Process accounting and run hygiene, read from ``/proc``.

CPU time and peak resident memory of the program's processes are read
per process (``/proc/<pid>/stat``, ``/proc/<pid>/status``), so a server
and its workers are measured without instrumenting them.  The hygiene
checks fail a run that starts beside, or leaves behind, anything that
would load or fill the host for the next run: a live program process,
a ``repro`` shared-memory segment, or a work directory.
"""

from __future__ import annotations

import os
import platform
import signal
import sys
import time

from .env import ROOT, WORK_ROOT, BenchmarkError

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
SHM_DIR = "/dev/shm"
#: segment-name prefix of the operand plane (repro.store.registry)
SHM_PREFIX = "repro-"


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as fh:
        text = fh.read()
    # comm may hold spaces and parentheses: split after the last ')'
    return text[text.rindex(")") + 2:].split()


def _all_pids() -> list[int]:
    return [int(d) for d in os.listdir("/proc") if d.isdigit()]


def _ppid(pid: int) -> int | None:
    try:
        return int(_stat_fields(pid)[1])
    except (OSError, ValueError, IndexError):
        return None


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, depth-first order."""
    children: dict[int, list[int]] = {}
    for p in _all_pids():
        parent = _ppid(p)
        if parent is not None:
            children.setdefault(parent, []).append(p)
    out, stack = [], list(children.get(pid, ()))
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(children.get(p, ()))
    return out


def cpu_seconds(pid: int, *, reaped: bool = False) -> float:
    """User + system CPU of ``pid``; with ``reaped``, plus its waited children."""
    try:
        f = _stat_fields(pid)
    except OSError:
        return 0.0
    ticks = int(f[11]) + int(f[12])
    if reaped:
        ticks += int(f[13]) + int(f[14])
    return ticks * _TICK_S


def tree_cpu_seconds(pid: int) -> float:
    """CPU of ``pid``, its reaped children, and every live descendant."""
    return cpu_seconds(pid, reaped=True) + sum(
        cpu_seconds(p) for p in descendants(pid)
    )


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of each live process's peak resident set in ``pid``'s tree."""
    return peak_rss_mb(pid) + sum(peak_rss_mb(p) for p in descendants(pid))


def _argv(pid: int) -> list[str]:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            raw = fh.read()
    except OSError:
        return []
    return raw.decode(errors="replace").split("\0")[:-1]


def _cmdline(pid: int) -> str:
    return " ".join(_argv(pid))


def _ancestors(pid: int) -> set[int]:
    out = set()
    while pid and pid not in out:
        out.add(pid)
        pid = _ppid(pid) or 0
    return out


def _is_program_process(argv: list[str]) -> bool:
    """A Python process running the program or another benchmark run."""
    if not argv or not os.path.basename(argv[0]).startswith("python"):
        return False
    module = any(a == "-m" and b == "repro" for a, b in zip(argv, argv[1:]))
    return module or any(a.endswith("perfbench/run.py") for a in argv[1:3])


def leaks(*, own_children: bool) -> list[str]:
    """Everything a run must not start beside or leave behind."""
    found = []
    try:
        segments = sorted(
            n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)
        )
    except OSError:
        segments = []
    found += [f"shared-memory segment {SHM_DIR}/{n}" for n in segments]
    mine = _ancestors(os.getpid())
    for pid in _all_pids():
        if pid in mine:
            continue
        argv = _argv(pid)
        if _is_program_process(argv):
            found.append(f"process {pid}: {' '.join(argv)[:120]}")
    if own_children:
        found += [
            f"child process {p}: {_cmdline(p).strip()[:120]}"
            for p in descendants(os.getpid())
        ]
    work = os.path.join(ROOT, WORK_ROOT)
    if os.path.isdir(work) and os.listdir(work):
        found.append(f"work directory {WORK_ROOT}/ is not empty: "
                     f"{sorted(os.listdir(work))[:5]}")
    return found


def assert_clean(when: str, *, own_children: bool = True) -> None:
    """Raise :class:`BenchmarkError` naming every leak found."""
    found = leaks(own_children=own_children)
    if found:
        raise BenchmarkError(
            f"run hygiene ({when}): " + "; ".join(found)
        )


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and wait for it.

    Creating a shared-memory segment starts the tracker as a child
    process that would otherwise outlive the measured work.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


#: how long a killed process may take to end
_KILL_WAIT_S = 10.0
#: ``prctl`` option that re-parents orphaned descendants to the caller
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A process the benchmark starts may start processes of its own (the
    service's workers, each worker's resource tracker).  When their
    parent ends first they would pass to the host's init and could
    outlive the run unseen; a subreaper gets them instead, so
    :func:`wait_ended` and :func:`reap_all` can wait for every one.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchmarkError(
            f"cannot adopt orphaned processes: "
            f"{os.strerror(ctypes.get_errno())}"
        )


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has ended)."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:  # not this process's child, or reaped
        pass


def wait_ended(pids: list[int], grace_s: float = 10.0) -> list[str]:
    """Wait until each of ``pids`` has ended, reaping this process's children.

    A process still running after ``grace_s`` is killed.  Returns the
    command lines of the killed processes.
    """
    killed: list[str] = []
    deadline = time.monotonic() + grace_s
    pending = list(pids)
    while True:
        for p in pending:
            _reap(p)
        pending = [p for p in pending if _alive(p)]
        if not pending:
            break
        if time.monotonic() > deadline:
            if killed:
                raise BenchmarkError(
                    f"processes did not end after SIGKILL: {pending}"
                )
            for p in pending:
                killed.append(f"{p}: {_cmdline(p).strip()[:120]}")
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + _KILL_WAIT_S
        time.sleep(0.01)
    for p in pids:  # one that turned zombie after its last reap
        _reap(p)
    return killed


def reap_all(grace_s: float = 10.0) -> list[str]:
    """Wait until every descendant of this process has ended and is reaped.

    Returns the command lines of the processes that had to be killed.
    """
    killed: list[str] = []
    for _ in range(100):
        tree = descendants(os.getpid())
        if not tree:
            return killed
        killed += wait_ended(tree, grace_s)
    raise BenchmarkError(f"descendants keep appearing: {tree}")


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole host from ``/proc/stat``.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else; a run with a high steal share ran on a contended host.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def machine_facts() -> dict:
    """Host facts recorded beside every result."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }
