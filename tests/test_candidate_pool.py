"""The chunked engines' candidate pool against the scalar store.

:class:`~repro.core.bounds.ArrayCandidateStore` keeps upper bounds in
one discovery-ordered pool of rows with cached ``B`` values instead of
the scalar store's lazy ``B``-heap.  These tests hold the pool's two
queries to the heap's answers on matching stores (tied grades, ``theta
> 1`` cutoffs, high-``B`` members of ``topk``), check that the columnar
engines never touch the ``B``-heap, pin the number of full viability
scans CA needs, and hold the vectorised :func:`~repro.core.chunks.known_rows`
and :func:`~repro.core.chunks.first_new_entries` to per-entry loops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation.standard import AVERAGE, MIN, SUM
from repro.core import bounds
from repro.core.bounds import ArrayCandidateStore, CandidateStore
from repro.core.ca import CombinedAlgorithm
from repro.core.chunks import (
    assemble_sorted_chunk,
    first_new_entries,
    known_rows,
)
from repro.core.nra import NoRandomAccessAlgorithm
from repro.core.stream_combine import StreamCombine
from repro.middleware.cost import CostModel
from repro.middleware.database import ColumnarDatabase

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def streams(draw):
    """A tie-heavy grade matrix, ``k``, a ``theta`` and whether to slip
    the highest-``B`` outsider into ``topk``."""
    n = draw(st.integers(4, 24))
    m = draw(st.integers(2, 4))
    levels = draw(st.integers(2, 6))  # few distinct grades: many ties
    grades = draw(
        st.lists(
            st.integers(0, levels), min_size=n * m, max_size=n * m
        )
    )
    matrix = np.asarray(grades, dtype=np.float64).reshape(n, m) / levels
    k = draw(st.integers(1, min(4, n)))
    theta = draw(st.sampled_from([1.0, 1.0, 1.25, 2.0]))
    pad_topk = draw(st.booleans())
    return matrix, k, theta, pad_topk


@pytest.mark.parametrize("block", [3, 256])
@pytest.mark.parametrize("aggregation", [AVERAGE, SUM, MIN])
@SETTINGS
@given(case=streams())
def test_pool_answers_like_the_scalar_heap(aggregation, block, case):
    # a 3-row block makes every scan run past its first block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_POOL_BLOCK", block)
        _drive_matching_stores(aggregation, case)


def _drive_matching_stores(aggregation, case):
    matrix, k, theta, pad_topk = case
    n, m = matrix.shape
    scalar = CandidateStore(aggregation, m, k)
    pool = ArrayCandidateStore(aggregation, m, k, n)
    orders = [np.argsort(-matrix[:, i], kind="stable") for i in range(m)]
    for depth in range(n):
        for i in range(m):
            row = int(orders[i][depth])
            grade = float(matrix[row, i])
            scalar.update_bottom(i, grade)
            scalar.record(row, i, grade)
            pool.bottoms[i] = grade
            first = np.isnan(pool.field_matrix[row]).all()
            pool.field_matrix[row, i] = grade
            if first:
                # the engines join a row with its first entry's cached B
                pool.join(
                    np.asarray([row], dtype=np.intp),
                    np.asarray([pool.b_value(row)]),
                )
        topk, m_k = scalar.current_topk()
        if theta == 1.0:
            # CA's phase target: same canonical choice from the pool
            assert pool.best_random_access_target(
                m_k
            ) == scalar.best_random_access_target(m_k)
        cutoff = m_k if theta == 1.0 else theta * m_k
        if pad_topk:
            outside = [r for r in scalar.fields if r not in topk]
            if outside:
                # a high-B member the pool scan has to step over
                topk = topk + [max(outside, key=scalar.b_value)]
        expected = scalar.find_viable_outside(topk, cutoff)
        found = pool.find_viable_outside(topk, cutoff)
        assert (found is None) == (expected is None)
        if found is not None:
            row, bound = found
            assert row not in topk
            assert bound > cutoff
            assert bound == pool.b_value(row) == scalar.b_value(row)


def _capture_stores(monkeypatch):
    stores: list[ArrayCandidateStore] = []
    init = ArrayCandidateStore.__init__

    def capturing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stores.append(self)

    monkeypatch.setattr(ArrayCandidateStore, "__init__", capturing)
    return stores


@pytest.mark.parametrize(
    "algorithm, aggregation, cost_model",
    [
        (NoRandomAccessAlgorithm(), AVERAGE, CostModel(1.0, 1.0)),
        (NoRandomAccessAlgorithm(theta=1.5), SUM, CostModel(1.0, 1.0)),
        (
            NoRandomAccessAlgorithm(halt_check_interval=3),
            MIN,
            CostModel(1.0, 1.0),
        ),
        (CombinedAlgorithm(), SUM, CostModel(1.0, 5.0)),
        (CombinedAlgorithm(), AVERAGE, CostModel(1.0, 2.0)),
        (StreamCombine(), AVERAGE, CostModel(1.0, 1.0)),
    ],
    ids=["nra", "nra-theta", "nra-interval", "ca-h5", "ca-h2", "sc"],
)
def test_columnar_engines_never_push_to_a_b_heap(
    monkeypatch, algorithm, aggregation, cost_model
):
    stores = _capture_stores(monkeypatch)
    db = ColumnarDatabase.from_array(
        np.random.default_rng(17).random((3000, 3))
    )
    algorithm.run_on(db, aggregation, 5, cost_model=cost_model)
    assert len(stores) == 1
    store = stores[0]
    assert store._b_heap == []
    assert store.pool_rows.size <= store.seen_count_value


def test_ca_full_scans_stay_at_or_below_the_heap_engine(monkeypatch):
    """Full viability scans of one CA query (10k x 4 uniform grades,
    sum, k=5, cR/cS=5).  The heap-based engine needed 119 on this
    dataset; the pool's witness choice (earliest discovery, not the
    highest bound CA's next phase resolves) needs far fewer."""
    calls = []
    scan = ArrayCandidateStore.find_viable_outside

    def counting(self, topk, m_k):
        calls.append(m_k)
        return scan(self, topk, m_k)

    monkeypatch.setattr(ArrayCandidateStore, "find_viable_outside", counting)
    db = ColumnarDatabase.from_array(
        np.random.default_rng(100).random((10_000, 4))
    )
    CombinedAlgorithm().run_on(db, SUM, 5, cost_model=CostModel(1.0, 5.0))
    assert 0 < len(calls) <= 119


def _known_rows_loop(chunk, field_matrix):
    """The per-entry reference: overlay each repeated object's earlier
    in-chunk discoveries one duplicate pair at a time."""
    rows_all = chunk.rows
    entry_range = np.arange(chunk.total, dtype=np.intp)
    k_matrix = field_matrix[rows_all]
    k_matrix[entry_range, chunk.lists] = chunk.grades
    group = np.lexsort((entry_range, rows_all))
    prev_e, next_e = group[:-1], group[1:]
    same = rows_all[prev_e] == rows_all[next_e]
    for prev_p, cur_p in zip(prev_e[same].tolist(), next_e[same].tolist()):
        own = chunk.grades[cur_p]
        k_matrix[cur_p] = k_matrix[prev_p]
        k_matrix[cur_p, chunk.lists[cur_p]] = own
    return k_matrix


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("chunk_rounds", [3, 8, 40])
def test_known_rows_matches_the_per_entry_loop(seed, chunk_rounds):
    rng = np.random.default_rng(seed)
    n, m = 40, 3
    # correlated lists: the same objects lead every list, so rows repeat
    # across lists inside a chunk and across chunks
    base = rng.random(n)
    matrix = np.clip(base[:, None] + 0.1 * rng.random((n, m)), 0.0, 1.0)
    db = ColumnarDatabase.from_array(matrix)
    field_matrix = np.full((n, m), np.nan)
    # a row resolved up front, as a CA phase leaves it: its later sorted
    # re-discoveries find the fields already known
    resolved = int(np.argmax(base))
    field_matrix[resolved] = matrix[resolved]
    positions = [0] * m
    bottoms = [1.0] * m
    repeats = 0
    while True:
        chunk = assemble_sorted_chunk(
            db._order_rows,
            db._order_grades,
            positions,
            range(m),
            (1,) * m,
            chunk_rounds,
            n,
            m,
            bottoms,
        )
        if chunk is None:
            break
        repeats += chunk.total - np.unique(chunk.rows).size
        assert np.array_equal(
            known_rows(chunk, field_matrix),
            _known_rows_loop(chunk, field_matrix),
            equal_nan=True,
        )
        field_matrix[chunk.rows, chunk.lists] = chunk.grades
        for i, c in enumerate(chunk.counts):
            positions[i] += c
        bottoms = chunk.bottoms_matrix[-1].tolist()
    assert repeats > 0


@pytest.mark.parametrize("chunk_rounds", [1, 3, 8, 40])
def test_first_new_entries_matches_the_per_entry_scan(chunk_rounds):
    """The chunk's shared ``(row, entry)`` grouping picks the entries at
    which objects new to the run first appear, as a per-entry scan
    does -- within a chunk and across chunks."""
    rng = np.random.default_rng(7)
    n, m = 40, 3
    base = rng.random(n)
    db = ColumnarDatabase.from_array(
        np.clip(base[:, None] + 0.1 * rng.random((n, m)), 0.0, 1.0)
    )
    seen_rows = np.zeros(n, dtype=bool)
    positions = [0] * m
    bottoms = [1.0] * m
    while True:
        chunk = assemble_sorted_chunk(
            db._order_rows,
            db._order_grades,
            positions,
            range(m),
            (1,) * m,
            chunk_rounds,
            n,
            m,
            bottoms,
        )
        if chunk is None:
            break
        seen = set(np.nonzero(seen_rows)[0].tolist())
        want = []
        for entry, row in enumerate(chunk.rows.tolist()):
            if row not in seen:
                seen.add(row)
                want.append(entry)
        assert first_new_entries(chunk, seen_rows).tolist() == want
        seen_rows[chunk.rows] = True
        for i, c in enumerate(chunk.counts):
            positions[i] += c
        bottoms = chunk.bottoms_matrix[-1].tolist()
    assert seen_rows.all()
