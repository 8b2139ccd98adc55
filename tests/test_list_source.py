"""The one list source: :class:`~repro.services.simulated.SimulatedListService`
over a columnar database.

``services_for_database`` builds its ``m`` sources over one columnar
snapshot without reading a single entry, a mutable database's sources
keep serving the snapshot they were built from, and the one-object
random access (TA's scalar probe) keeps the gather's semantics: the
interning table's id rules and the store valve's check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.middleware import (
    ColumnarDatabase,
    MutableColumnarDatabase,
    UnknownObjectError,
)
from repro.services import read_pages, services_for_database
from repro.store import open_store, save_store
from repro.store import valve as valve_module

from tests.helpers import run_async

pytestmark = pytest.mark.async_services


def _drain(service, batch_size):
    async def go():
        objects, grades = [], []
        async for page in read_pages(
            service.page, service.num_entries, batch_size
        ):
            objects.extend(page.objects)
            grades.extend(page.grades)
        return objects, grades

    return run_async(go())


def test_build_over_columnar_reads_no_entry(monkeypatch):
    """O(m): no per-entry read while building, and the services still
    page each list's exact order."""
    db = ColumnarDatabase.from_array(
        np.random.default_rng(12).random((20_000, 4))
    )

    def refuse(self, list_index, position):
        raise AssertionError("the build read an entry")

    monkeypatch.setattr(ColumnarDatabase, "sorted_entry", refuse)
    services = services_for_database(db)
    assert [s.num_entries for s in services] == [20_000] * 4
    for i, service in enumerate(services):
        objects, grades = _drain(service, 4096)
        assert objects == db._order_rows[i].tolist()
        assert grades == db._order_grades[i].tolist()
        assert all(type(g) is float for g in grades[:5])


def test_mutable_database_services_serve_the_build_snapshot():
    """Services built from a mutable database keep its pre-write pages
    and grades through an insert, an update and a delete."""
    mutable = MutableColumnarDatabase.from_array(
        np.random.default_rng(3).random((30, 2))
    )
    services = services_for_database(mutable)
    before = [_drain(s, 7) for s in services]
    probe = before[0][0][:5]
    probe_grades = [
        run_async(s.random_access_batch(probe)) for s in services
    ]
    leader = before[1][0][0]
    doomed = next(obj for obj in before[0][0] if obj != leader)
    mutable.insert(99, [1.0, 1.0])
    mutable.update_grade(leader, 1, 0.0)
    mutable.delete(doomed)
    assert [_drain(s, 7) for s in services] == before
    assert [
        run_async(s.random_access_batch(probe)) for s in services
    ] == probe_grades
    assert run_async(services[1].random_access_batch([leader])) == [
        before[1][1][0]
    ]
    with pytest.raises(UnknownObjectError):
        run_async(services[0].random_access_batch([99]))
    # a fresh build sees the writes
    fresh = services_for_database(mutable)
    assert _drain(fresh[0], 7)[0][0] == 99
    assert run_async(fresh[1].random_access_batch([leader])) == [0.0]


def test_one_object_random_access_follows_the_interning_rules():
    """One-object batches answer exactly like the gather, over trivial
    and string ids: Python floats, unknown ids raising, and a numpy
    integer id resolving like its Python int."""
    matrix = np.random.default_rng(6).random((12, 2))
    trivial = services_for_database(ColumnarDatabase.from_array(matrix))[1]
    names = [f"o{r}" for r in range(12)]
    named = services_for_database(
        ColumnarDatabase.from_array(matrix, object_ids=names)
    )[1]
    for service, ids in ((trivial, list(range(12))), (named, names)):
        many = run_async(service.random_access_batch(ids))
        ones = [
            run_async(service.random_access_batch([obj]))[0] for obj in ids
        ]
        assert ones == many == matrix[:, 1].tolist()
        assert all(type(g) is float for g in ones)
        for bad in ("nope", 12, -1):
            with pytest.raises(UnknownObjectError):
                run_async(service.random_access_batch([bad]))
            with pytest.raises(UnknownObjectError):
                run_async(service.random_access_batch([bad, ids[0]]))
    assert run_async(trivial.random_access_batch([np.int64(3)])) == [
        matrix[3, 1]
    ]


def test_one_object_random_access_runs_the_sliced_gathers_valve(
    tmp_path, monkeypatch
):
    """Over a store whose valve slices gathers, a one-object random
    access checks the valve once, as a one-row sliced gather does;
    over one that does not slice, neither checks it."""
    col = ColumnarDatabase.from_array(
        np.random.default_rng(9).random((100, 3))
    )
    path = tmp_path / "u.store"
    save_store(col, path)

    def checks(valve):
        snapshot = valve.snapshot()
        return snapshot["hits"] + snapshot["misses"]

    unsliced = open_store(path, cache_bytes=1)
    assert unsliced.page_cache.slice_rows is None
    service = services_for_database(unsliced)[2]
    before = checks(unsliced.page_cache)
    assert run_async(service.random_access_batch([7])) == [col._matrix[7, 2]]
    assert checks(unsliced.page_cache) == before
    monkeypatch.setattr(valve_module, "_FAULT_BYTES", 16)
    sliced = open_store(path, cache_bytes=1)
    assert sliced.page_cache.slice_rows == 8
    service = services_for_database(sliced)[2]
    for rows in ([7], [7, 8]):
        before = checks(sliced.page_cache)
        assert run_async(service.random_access_batch(rows)) == (
            col._matrix[rows, 2].tolist()
        )
        assert checks(sliced.page_cache) == before + 1
