"""Synthetic workload generators.

FA's cost analysis (Section 3) assumes the orderings in the sorted lists
are *probabilistically independent*; real middleware workloads deviate in
both directions (correlated attributes make top-k easy, anti-correlated
attributes make it hard).  These generators provide the standard spread
used in the top-k literature:

* :func:`uniform` -- i.i.d. uniform grades (FA's model);
* :func:`permutations` -- independent random orderings with *distinct*
  equally-spaced grades per list, satisfying the paper's distinctness
  property by construction;
* :func:`correlated` / :func:`anticorrelated` -- Gaussian-copula grades
  with positive / negative equicorrelation and uniform marginals;
* :func:`zipf_skewed` -- heavy skew (a few objects with high grades, a
  long flat tail), the regime Quick-Combine's heuristic targets;
* :func:`plateau` -- grades quantised to a few levels, producing massive
  ties (the regime where wild guesses provably help, cf. Example 6.3).

Shard-aware generation (:func:`sharded_blocks`, :func:`sharded_uniform`)
builds a :class:`~repro.middleware.database.ShardedDatabase` from
per-shard grade blocks drawn on *independent spawned RNG streams*, so a
distributed loader can produce shard ``s`` reproducibly without
materialising -- or even knowing the seed state of -- the other shards.

Every generator takes an integer ``seed`` and is deterministic given it.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..middleware.database import Database, ShardedDatabase, shard_bounds_for

__all__ = [
    "uniform",
    "permutations",
    "correlated",
    "anticorrelated",
    "zipf_skewed",
    "plateau",
    "sharded_blocks",
    "sharded_uniform",
    "remote_uniform",
]


def _check_shape(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one object, got n={n}")
    if m < 1:
        raise ValueError(f"need at least one list, got m={m}")


def uniform(n: int, m: int, seed: int = 0) -> Database:
    """``n`` objects with i.i.d. ``Uniform[0, 1]`` grades in ``m`` lists."""
    _check_shape(n, m)
    rng = np.random.default_rng(seed)
    return Database.from_array(rng.random((n, m)))


def permutations(n: int, m: int, seed: int = 0) -> Database:
    """Independent random orderings with distinct grades.

    List ``i`` assigns the grades ``1/n, 2/n, ..., 1`` to a uniformly
    random permutation of the objects.  Satisfies the distinctness
    property (Section 6) by construction, with independent orderings --
    the cleanest instantiation of FA's probabilistic model.
    """
    _check_shape(n, m)
    rng = np.random.default_rng(seed)
    grades = np.empty((n, m), dtype=float)
    levels = np.arange(1, n + 1, dtype=float) / n
    for i in range(m):
        grades[rng.permutation(n), i] = levels
    return Database.from_array(grades)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    erf = np.frompyfunc(math.erf, 1, 1)
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)).astype(float))


def _copula(n: int, m: int, rho: float, seed: int) -> Database:
    lower = -1.0 / (m - 1) if m > 1 else -1.0
    if not (lower < rho < 1.0):
        raise ValueError(
            f"equicorrelation rho={rho} must lie in ({lower:.3f}, 1) for m={m}"
        )
    rng = np.random.default_rng(seed)
    cov = np.full((m, m), rho)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, m)) @ chol.T
    return Database.from_array(_normal_cdf(z))


def correlated(n: int, m: int, rho: float = 0.8, seed: int = 0) -> Database:
    """Positively correlated grades via a Gaussian copula.

    High-grade objects tend to be high in every list, so TA's threshold
    collapses quickly -- the easy regime where TA beats FA by a wide
    margin.
    """
    _check_shape(n, m)
    if rho < 0:
        raise ValueError(f"use anticorrelated() for rho < 0, got {rho}")
    return _copula(n, m, rho, seed)


def anticorrelated(n: int, m: int, rho: float | None = None, seed: int = 0) -> Database:
    """Negatively correlated grades via a Gaussian copula.

    Objects good in one attribute are bad in the others, so many objects
    crowd the top-k boundary -- the hard regime for every algorithm.
    ``rho`` defaults to 90% of the most negative feasible equicorrelation
    ``-1/(m-1)``.
    """
    _check_shape(n, m)
    if m < 2:
        raise ValueError("anticorrelation needs m >= 2")
    if rho is None:
        rho = -0.9 / (m - 1)
    if rho >= 0:
        raise ValueError(f"anticorrelated() needs rho < 0, got {rho}")
    return _copula(n, m, rho, seed)


def zipf_skewed(n: int, m: int, alpha: float = 3.0, seed: int = 0) -> Database:
    """Skewed grades: ``Uniform ** alpha`` per cell (``alpha > 1``).

    A handful of objects have grades near 1 while the bulk sit near 0,
    producing the steep grade decline that Quick-Combine's heuristic
    exploits.
    """
    _check_shape(n, m)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = np.random.default_rng(seed)
    return Database.from_array(rng.random((n, m)) ** alpha)


def plateau(n: int, m: int, levels: int = 4, seed: int = 0) -> Database:
    """Grades quantised to ``levels`` equally spaced values.

    Massive ties inside each list: the regime in which tie order matters
    and lucky wild guesses can shortcut any no-wild-guess algorithm.
    Tie order is randomised *independently per list* -- with a
    deterministic tie order, equal-grade prefixes would line up across
    lists and FA would find matches unrealistically early.
    """
    _check_shape(n, m)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, levels, size=(n, m)).astype(float)
    grades = raw / (levels - 1) if levels > 1 else raw * 0.0 + 1.0
    columns: list[list[tuple[int, float]]] = []
    for i in range(m):
        shuffled = rng.permutation(n)
        order = sorted(shuffled.tolist(), key=lambda row: -grades[row, i])
        columns.append([(row, grades[row, i]) for row in order])
    return Database.from_columns(columns)


def sharded_blocks(
    block: Callable[[np.random.Generator, int, int], np.ndarray],
    n: int,
    m: int,
    num_shards: int = 2,
    seed: int = 0,
) -> ShardedDatabase:
    """Assemble a :class:`~repro.middleware.database.ShardedDatabase`
    from per-shard grade blocks.

    ``block(rng, n_s, m)`` produces one shard's ``(n_s, m)`` grade block
    from its own spawned child stream of ``seed``'s root RNG, so each
    shard is reproducible in isolation: worker ``s`` only needs
    ``(seed, s)`` to regenerate its block, the way a distributed loader
    would.  Shard sizes are the balanced contiguous partition of
    :func:`~repro.middleware.database.shard_bounds_for`.
    """
    _check_shape(n, m)
    bounds = shard_bounds_for(n, num_shards)
    streams = np.random.default_rng(seed).spawn(num_shards)
    parts = [
        np.asarray(
            block(streams[s], int(bounds[s + 1] - bounds[s]), m), dtype=float
        ).reshape(int(bounds[s + 1] - bounds[s]), m)
        for s in range(num_shards)
    ]
    return ShardedDatabase.from_shards(parts)


def sharded_uniform(
    n: int, m: int, num_shards: int = 2, seed: int = 0
) -> ShardedDatabase:
    """i.i.d. ``Uniform[0, 1]`` grades generated shard by shard (the
    sharded counterpart of :func:`uniform`; the *distribution* matches,
    the draws differ because each shard uses its own child stream)."""
    return sharded_blocks(
        lambda rng, n_s, m_: rng.random((n_s, m_)), n, m, num_shards, seed
    )


def remote_uniform(
    n: int,
    m: int,
    seed: int = 0,
    *,
    base_latency: float = 0.0,
    jitter: float = 0.0,
):
    """A uniform workload deployed as ``m`` simulated remote services.

    The remote counterpart of :func:`uniform`: returns ``(services,
    database)``, the ``m``
    :class:`~repro.services.simulated.SimulatedListService` instances
    serving one columnar snapshot of ``database`` under the given
    per-call latency model, and that local ground truth (useful for
    verification -- it never touches the services' accounting)."""
    # local import: repro.services layers on top of datagen's siblings
    from ..services import LatencyModel, services_for_database

    db = uniform(n, m, seed)
    latency = (
        LatencyModel(base_latency, jitter, seed=seed)
        if base_latency or jitter
        else None
    )
    return services_for_database(db, latency=latency), db
