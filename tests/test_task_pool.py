"""checkpoint.map_units, the one task pool every writer fan-out runs
through: its sizing rule (``task_plan`` / ``task_slots``), the batches
it submits, its cap on tasks in flight, how a failed or lost task
surfaces, and a build → append → delete → compact → upsert cycle over
parquet paths that starts no Ray Data execution."""

import os
import time

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


def _max_depth(spans: list[tuple[float, float]]) -> int:
    """The most spans open at one instant (an end before a start at the
    same instant)."""
    events = sorted([(t0, 1) for t0, _ in spans] + [(t1, -1) for _, t1 in spans])
    depth = deepest = 0
    for _, step in events:
        depth += step
        deepest = max(deepest, depth)
    return deepest


@pytest.mark.parametrize("how", ["concurrency", "cpu_limit"])
def test_map_units_bounds_tasks_in_flight(ray_session, how):
    """40 units on 2 slots make 8 tasks of 5 units. The session has 4
    CPUs, so only the slot cap — an explicit ``concurrency``, or the Ray
    Data CPU limit that ``runtime.cap_execution_cpus`` sets — keeps the
    units from running more than 2 deep."""
    from ray.data import DataContext
    from ray.data._internal.execution.interfaces.execution_options import (
        ExecutionResources,
    )

    def timed(us):
        out = []
        for u in us:
            t0 = time.time()
            time.sleep(0.02)
            out.append((u["i"], t0, time.time()))
        return out

    units = [{"i": i} for i in range(40)]
    opts = DataContext.get_current().execution_options
    saved = opts.resource_limits
    try:
        if how == "cpu_limit":
            opts.resource_limits = ExecutionResources(cpu=2.0)
            recs = map_units(timed, units)
        else:
            recs = map_units(timed, units, 2)
    finally:
        opts.resource_limits = saved
    assert [i for i, _, _ in recs] == list(range(40))  # unit order
    assert _max_depth([(t0, t1) for _, t0, t1 in recs]) <= 2


def test_map_units_surfaces_the_unit_exception(ray_session, tmp_path):
    """A unit's own exception reaches the caller with its type, and is
    not retried: the failing unit ran exactly once."""
    class UnitFailed(Exception):
        pass

    marks = str(tmp_path)

    def fail_third(us):
        for u in us:
            if u["i"] == 3:
                with open(os.path.join(marks, f"try-{os.getpid()}-"
                                       f"{time.time_ns()}"), "w"):
                    pass
                raise UnitFailed(f"unit {u['i']}")
        return [u["i"] for u in us]

    with pytest.raises(UnitFailed, match="unit 3"):
        map_units(fail_third, [{"i": i} for i in range(8)], 4)
    assert len(os.listdir(marks)) == 1


def test_map_units_reruns_a_task_whose_worker_died(ray_session, tmp_path):
    """A task lost to a dead worker is rerun (Ray's default for system
    failures), and its records come back once."""
    marker = str(tmp_path / "died-once")

    def die_once(us):
        if us[0]["i"] == 0 and not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return [u["i"] for u in us]

    assert map_units(die_once, [{"i": i} for i in range(4)], 2) == [0, 1, 2, 3]
    assert os.path.exists(marker)


def test_a_rerun_staging_unit_rewrites_its_parts(tmp_path, monkeypatch):
    """``stage_files`` draws each unit's part tag on the driver, so a
    unit Ray reruns replaces its parts instead of adding a second copy
    of its docs (which the collision check would then reject)."""
    from stacksearch_ray import checkpoint
    from stacksearch_ray.build import build_config

    files = write_corpus(str(tmp_path / "src"), 90, rows_per_file=30)

    def twice(fn, units, concurrency=None):  # every unit runs twice
        fn(units)
        return fn(units)

    monkeypatch.setattr(checkpoint, "map_units", twice)
    docs, post = tmp_path / "docs", tmp_path / "post"
    docs.mkdir()
    post.mkdir()
    recs = checkpoint.stage_files(files, build_config(None), str(docs),
                                  str(post))
    names = sorted(f"{r['pid']}.parquet" for r in recs)
    assert len(names) == 3
    assert sorted(os.listdir(docs)) == names == sorted(os.listdir(post))
    assert pq.read_table(str(docs)).num_rows == 90


def test_path_writers_run_no_ray_data(ray_session, tmp_path, monkeypatch):
    """A build, append, delete, compaction and upsert over parquet paths
    run their fan-outs as plain Ray tasks: no Ray Data execution
    starts. A build and an append over a Dataset still stream through
    Ray Data."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from stacksearch_ray.append import (append_to_index, compact_index,
                                        delete_from_index, upsert_to_index)
    from stacksearch_ray.build import build_index
    from stacksearch_ray.checkpoint import build_index_resumable

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    base, delta = str(tmp_path / "base"), str(tmp_path / "delta")
    write_corpus(base, 320, rows_per_file=40)
    write_corpus(delta, 40, rows_per_file=40, row_offset=320)
    idx, streamed = str(tmp_path / "idx"), str(tmp_path / "streamed")
    build_index_resumable(base, idx, num_shards=8)
    build_index(base, streamed, num_shards=8)
    append_to_index(delta, idx)
    ids = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id"])
    delete_from_index(idx, ids["doc_id"].to_pylist()[:5])
    compact_index(idx)
    upsert_to_index(os.path.join(base, "part-00000.parquet"), idx)
    assert not runs

    write_corpus(str(tmp_path / "more"), 40, rows_per_file=40,
                 row_offset=400)
    build_index(rd.read_parquet(base), str(tmp_path / "ds"), num_shards=8)
    built = len(runs)
    assert built
    append_to_index(rd.read_parquet(str(tmp_path / "more")),
                    str(tmp_path / "ds"))
    assert len(runs) > built
