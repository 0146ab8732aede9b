"""checkpoint.map_units, the one task pool every writer fan-out runs
through: its sizing rule (``task_plan`` / ``task_slots``), the batches
Ray Data actually forms from it, and a build → append → compact cycle
that raises no Ray Data under-filled-operator warning."""

import os
import warnings

import pyarrow.parquet as pq
import pytest

from stacksearch_ray.checkpoint import (MAX_TASK_SLOTS, map_units, task_plan,
                                        task_slots)
from stacksearch_ray.corpus import write_corpus


@pytest.mark.parametrize("n_units,slots,tasks,per_task", [
    (1, 4, 1, 1),
    (3, 4, 3, 1),
    (8, 4, 4, 2),       # an 8-file build on 4 CPUs: one wave of pairs
    (10, 4, 4, 3),
    (16, 4, 4, 4),      # the largest one-wave plan: 4 units per slot
    (17, 4, 5, 4),      # past it, still 4 units a task
    (65, 16, 17, 4),
    (100, 4, 17, 6),    # from 16 units a slot, the four-wave rule
    (3, 1, 1, 3),
    (8, 16, 8, 1),
    (64, 16, 16, 4),
    (1024, 16, 64, 16),
])
def test_task_plan(n_units, slots, tasks, per_task):
    assert task_plan(n_units, slots) == (tasks, per_task)
    # every unit is placed, and no task is left empty
    assert (tasks - 1) * per_task < n_units <= tasks * per_task
    if n_units <= 4 * slots:  # one wave, at most 4 units a task
        assert tasks <= slots and per_task <= 4
    else:  # 4 units a task until four waves need more
        assert per_task == max(4, n_units // (4 * slots))
        assert tasks >= min(4 * slots, -(-n_units // 4))


@pytest.mark.parametrize("slots", [1, 2, 4, 16])
def test_task_plan_grows_smoothly(slots):
    """One more unit never shrinks a task's share and adds at most one
    task: no cliff where a unit past one wave splits the work into
    one-unit tasks."""
    prev_tasks, prev_per_task = task_plan(1, slots)
    for n_units in range(2, 2001):
        tasks, per_task = task_plan(n_units, slots)
        assert per_task >= prev_per_task, n_units
        assert tasks <= prev_tasks + 1, n_units
        prev_tasks, prev_per_task = tasks, per_task


def test_task_slots_caps():
    from ray.data import DataContext
    from ray.data._internal.execution.interfaces.execution_options import (
        ExecutionResources,
    )

    opts = DataContext.get_current().execution_options
    saved = opts.resource_limits
    try:
        opts.resource_limits = ExecutionResources()
        assert task_slots(2) == 2
        assert task_slots(64) == MAX_TASK_SLOTS == 16
        opts.resource_limits = ExecutionResources(cpu=3.0)
        assert task_slots(8) == 3
    finally:
        opts.resource_limits = saved


@pytest.mark.parametrize("n_units,concurrency", [(8, 4), (10, 4), (40, 2)])
def test_map_units_batches_follow_the_plan(ray_session, n_units, concurrency):
    units = [{"i": i, "name": f"u{i}"} for i in range(n_units)]
    recs = map_units(lambda us: [{"pid": os.getpid(), "ids": [u["i"] for u in us]}],
                     units, concurrency)
    tasks, per_task = task_plan(n_units, concurrency)
    assert len(recs) == tasks
    assert max(len(r["ids"]) for r in recs) <= per_task
    assert sorted(i for r in recs for i in r["ids"]) == list(range(n_units))
    assert map_units(lambda us: [{}], [], concurrency) == []


def test_writers_raise_no_operator_warning(ray_session, tmp_path):
    """An 8-file build, an append and a compaction each size their
    operators to the blocks they feed them: Ray Data's "operator only
    received N input(s)" warning would mean a phase asked for more
    concurrent tasks than it had batches."""
    from stacksearch_ray.append import (append_to_index, compact_index,
                                        delete_from_index)
    from stacksearch_ray.checkpoint import build_index_resumable

    base, delta = str(tmp_path / "base"), str(tmp_path / "delta")
    write_corpus(base, 320, rows_per_file=40)
    write_corpus(delta, 40, rows_per_file=40, row_offset=320)
    idx = str(tmp_path / "idx")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_index_resumable(base, idx, num_shards=8)
        append_to_index(delta, idx)
        ids = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id"])
        delete_from_index(idx, ids["doc_id"].to_pylist()[:5])
        compact_index(idx)
    msgs = [str(w.message) for w in caught
            if "only received" in str(w.message)]
    assert not msgs, msgs[:2]
