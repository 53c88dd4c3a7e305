"""Seeded inputs for every workload.

The benchmark's ``--seed`` fixes every input that varies: the generator
seeds of the ``batch_cold`` matrices and every dense operand.  The hot
set's generator seeds are fixed.  The *make-up* of each workload —
families, sizes, densities, batch composition, k — is fixed here and
does not depend on the seed, so runs with different seeds do the same
amount of work of the same kind.  The program receives only the
generated inputs (or, for ``serve``, their generator specs).
"""

from __future__ import annotations

import numpy as np

#: dense-operand width for every request
K = 64

#: The hot set shared by ``lib_warm`` and ``serve_closed``: three
#: structures, planned as online tiled DCSR (powerlaw_rows, banded) and
#: untiled CSR (uniform, C-stationary rung).
HOT_SET = (
    ("powerlaw_rows", 4096, 4096, 0.0018),
    ("uniform", 1200, 900, 0.05),
    ("banded", 2048, 2048, 0.01),
)
#: generator seeds of the hot matrices (fixed: see :func:`hot_specs`)
HOT_SEEDS = (1, 2, 3)

#: ``batch_cold`` singles: every family the generators offer at three sizes
BATCH_FAMILIES = (
    "uniform", "powerlaw_rows", "banded", "block_diagonal", "clustered",
    "powerlaw_cols",
)
BATCH_SIZES = ((1024, 1024, 0.01), (2048, 2048, 0.004), (4096, 4096, 0.0015))
BATCH_SINGLES = 16
#: same-matrix groups that keep batch fusion on the measured path:
#: one B-stationary (online) plan and one C-stationary plan
BATCH_GROUPS = (
    ("block_diagonal", 2048, 2048, 0.004),
    ("uniform", 2048, 2048, 0.004),
)
BATCH_GROUP_SIZE = 4

#: caller-supplied dense operands per hot matrix (``lib_warm``)
POOL = 4


def _mix(*parts: int) -> int:
    """A 31-bit generator seed from integer parts (stable across runs)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0] >> 1)


def spec(family: str, rows: int, cols: int, density: float, seed: int) -> str:
    """The generator spec string ``from_spec`` and ``serve`` accept."""
    return f"{family}:{rows}:{cols}:{density}:{seed}"


def hot_specs() -> list[str]:
    """Generator specs of the hot set, with their fixed generator seeds.

    The hot matrices are the same in every run: a warm hit's cost depends
    on the matrix's structure, so only the dense operands and request
    seeds vary with ``--seed``.
    """
    return [
        spec(*shape, HOT_SEEDS[i]) for i, shape in enumerate(HOT_SET)
    ]


def dense_pool(n_cols: int, count: int, seed: int, index: int) -> list:
    """``count`` seeded float32 operands for hot matrix ``index``."""
    rng = np.random.default_rng(_mix(seed, 2, index))
    return [
        rng.uniform(0.1, 1.0, size=(n_cols, K)).astype(np.float32)
        for _ in range(count)
    ]


def request_seed(seed: int, stream: int, n: int) -> int:
    """Dense-operand seed of request ``n`` of a request stream."""
    return _mix(seed, 3, stream, n)


def batch_items(seed: int, batch: int) -> list[tuple[str, int]]:
    """``(matrix spec, dense seed)`` for every item of one ``run --batch``.

    Singles come first (one new matrix each), then the same-matrix groups
    (one new matrix, distinct dense seeds).  Composition is identical for
    every batch and seed; only the generator seeds change.
    """
    items = []
    for j in range(BATCH_SINGLES):
        family = BATCH_FAMILIES[j % len(BATCH_FAMILIES)]
        size = BATCH_SIZES[(j + j // len(BATCH_FAMILIES)) % len(BATCH_SIZES)]
        items.append((
            spec(family, *size, _mix(seed, 4, batch, j)),
            _mix(seed, 5, batch, j),
        ))
    for g, shape in enumerate(BATCH_GROUPS):
        mseed = _mix(seed, 6, batch, g)
        for m in range(BATCH_GROUP_SIZE):
            items.append((spec(*shape, mseed), _mix(seed, 7, batch, g, m)))
    return items
