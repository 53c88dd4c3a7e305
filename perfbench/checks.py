"""Output checks against computations made apart from the program.

Every output the benchmark receives is compared with one of two
references that share no code with the path being measured:

* a scipy float64 product ``A.astype(float64) @ B.astype(float64)``
  built from the matrix's own COO triplets, compared at tight float64
  tolerance;
* for digests (``run --batch`` records and ``serve`` responses), the
  record digest of an in-process ``SpmmRuntime.run`` of the same
  request, whose own output is checked against scipy as above.  Where
  the program's processes are forked from the benchmark's own
  (``batch_cold``), that run happens in a :class:`ReferenceProcess`, so
  the reference's memory never counts as the program's.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

RTOL = 1e-12
ATOL = 1e-12


def scipy_operand(matrix) -> sp.csr_matrix:
    """The matrix as a scipy float64 CSR (duplicates summed)."""
    rows, cols, vals = matrix.to_coo_arrays()
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)),
        shape=(matrix.n_rows, matrix.n_cols),
    )


def scipy_product(a: sp.csr_matrix, dense) -> np.ndarray:
    """The reference product ``A @ B`` in float64."""
    return np.asarray(a @ np.asarray(dense, dtype=np.float64))


def output_ok(out, ref: np.ndarray) -> bool:
    """True when ``out`` is a float64 array allclose to ``ref``."""
    out = np.asarray(out)
    return (
        out.shape == ref.shape
        and out.dtype == np.float64
        and bool(np.allclose(out, ref, rtol=RTOL, atol=ATOL))
    )


def digest_ok(got, expected: str) -> bool:
    """True when a reported digest equals the reference digest."""
    return isinstance(got, str) and got == expected


class InProcessReference:
    """Reference digests from an in-process ``SpmmRuntime.run``.

    Each reference run's output is itself checked against scipy, so a
    digest match means the measured path produced the right numbers.
    The plan cache is kept small so the reference runs add little to the
    process's resident memory.
    """

    def __init__(self, config):
        from repro.runtime import PlanCache, SpmmRuntime

        self.runtime = SpmmRuntime(config, cache=PlanCache(max_entries=4))

    def digest(self, matrix, dense, scipy_a=None) -> str | None:
        """Digest of the run of ``(matrix, dense)``; None if its output is wrong."""
        from repro.runtime import SpmmRequest

        outcome = self.runtime.run(SpmmRequest(matrix, dense=dense))
        a = scipy_a if scipy_a is not None else scipy_operand(matrix)
        if not output_ok(outcome.run.result.output, scipy_product(a, dense)):
            return None
        return outcome.record.digest()


def _reference_main(conn, config_name: str) -> None:
    """Body of :class:`ReferenceProcess`: answer ``(matrix, k, seed)`` jobs."""
    from repro.gpu.config import get_config
    from repro.runtime import SpmmRequest

    reference = InProcessReference(get_config(config_name))
    conn.send("ready")
    while True:
        job = conn.recv()
        if job is None:
            break
        matrix, k, seed = job
        dense = SpmmRequest(matrix, k=k, seed=seed).resolve_dense()
        conn.send(reference.digest(matrix, dense))
    conn.close()


class ReferenceProcess:
    """:class:`InProcessReference` in a spawned process of its own.

    It is a fresh interpreter, not a fork, so it shares no pages with the
    benchmark, and it is reaped only in :meth:`close`, after the caller
    has read its children's resource usage.  Jobs are answered one at a
    time, between the caller's timed regions.
    """

    def __init__(self, config_name: str):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_reference_main,
                                args=(child, config_name), daemon=True)
        self.proc.start()
        child.close()
        try:
            ready = self.conn.recv()
        except EOFError:
            ready = None
        if ready != "ready":
            self.close()
            raise RuntimeError("reference process did not start")

    def digest(self, matrix, k: int, seed: int) -> str | None:
        """Digest of the seeded run of ``matrix``; None if its output is wrong."""
        self.conn.send((matrix, k, seed))
        return self.conn.recv()

    def close(self) -> None:
        """Stop the process and wait for it to end."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()
