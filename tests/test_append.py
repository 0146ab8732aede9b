"""Incremental append: appended index == full rebuild == oracle over the
combined corpus, and an appended index routes and scores like a clean
one."""

import pyarrow.parquet as pq
import pytest

from stacksearch_ray.corpus import generate_corpus, write_corpus
from stacksearch_ray.oracle import OracleBM25
from stacksearch_ray.schema import SEGMENTS_SCHEMA, doc_id_for

QUERIES = ["Determine a user's timezone", "def return var_1",
           "helper_3 field_7 import", "numpy python", "zzz_missing"]


@pytest.fixture(scope="module")
def appended(ray_session, tmp_path_factory):
    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("append")
    # full corpus = 300 docs; base = first 200, delta = last 100
    full = str(root / "full")
    write_corpus(full, 300, rows_per_file=100)
    base_files = [f"{full}/part-0000{i}.parquet" for i in (0, 1)]
    delta_files = [f"{full}/part-00002.parquet"]
    idx_inc = str(root / "inc")
    idx_full = str(root / "rebuild")
    build_index(base_files, idx_inc, num_shards=4)
    append_to_index(delta_files, idx_inc)
    build_index(full, idx_full, num_shards=4)
    return idx_inc, idx_full


def test_append_equals_rebuild_and_oracle(appended):
    from stacksearch_ray.query import QueryEngine

    idx_inc, idx_full = appended
    tbl = generate_corpus(300)
    docs = {doc_id_for(r, p, c): t for r, p, c, t in
            zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
                tbl["commit"].to_pylist(), tbl["content"].to_pylist())}
    oracle = OracleBM25(docs)
    inc, full = QueryEngine(idx_inc), QueryEngine(idx_full)
    for q in QUERIES:
        expected = oracle.search(q, 10)
        assert inc.search(q, 10) == expected, q
        assert full.search(q, 10) == expected, q


def test_appended_segment_files_are_term_sorted_row_groups(appended):
    """An append encodes its delta the way the build does: one segment
    file per shard the delta touches, rows term-sorted, row groups of
    ``SEGMENT_ROW_GROUP_ROWS`` rows (the last one at most that) whose
    footer term ranges do not overlap."""
    import os
    import re

    from stacksearch_ray.schema import SEGMENT_ROW_GROUP_ROWS

    idx_inc, _ = appended
    seg_dir = os.path.join(idx_inc, "segments")
    files = sorted(f for f in os.listdir(seg_dir) if f.startswith("append-"))
    assert 1 < len(files) <= 4
    assert all(re.fullmatch(r"append-[0-9a-f]{32}-shard-\d{5}\.parquet", f)
               for f in files), files
    multi_group = False
    for f in files:
        path = os.path.join(seg_dir, f)
        t = pq.read_table(path)
        terms = t["term"].to_pylist()
        assert terms == sorted(terms), f
        assert len(set(t["shard"].to_pylist())) == 1, f
        meta = pq.ParquetFile(path).metadata
        ranges = []
        for g in range(meta.num_row_groups):
            rg = meta.row_group(g)
            if g < meta.num_row_groups - 1:
                assert rg.num_rows == SEGMENT_ROW_GROUP_ROWS, f
            assert 0 < rg.num_rows <= SEGMENT_ROW_GROUP_ROWS, f
            st = rg.column(t.schema.get_field_index("term")).statistics
            ranges.append((st.min, st.max))
        assert all(a[1] < b[0] for a, b in zip(ranges, ranges[1:])), f
        multi_group |= meta.num_row_groups > 1
    assert multi_group  # the delta is big enough to exercise grouping


def test_appended_index_routes_like_a_clean_one(appended):
    """With the router's fast path opened up to this tiny corpus, the
    appended index routes every query as its rebuild does, and auto and
    explicit bmax requests run the block-max scorer, bitwise equal to
    exhaustive scoring."""
    from unittest import mock

    from stacksearch_ray.query import QueryEngine

    idx_inc, idx_full = appended
    inc, full = QueryEngine(idx_inc), QueryEngine(idx_full)
    for eng in (inc, full):
        eng.bmax_min_postings, eng.bmax_min_dl_cv = 1, 0.0
    for q in QUERIES:
        method = inc.plan(q, 10)["method"]
        assert method == full.plan(q, 10)["method"], q
        want = inc.search(q, 10, "exhaustive")
        with mock.patch.object(inc, "_search_bmax",
                               wraps=inc._search_bmax) as mb:
            assert inc.search(q, 10) == want, q
        assert mb.called == (method == "bmax"), q
        with mock.patch.object(inc, "_search_bmax",
                               wraps=inc._search_bmax) as mb:
            assert inc.search(q, 10, "bmax") == want, q
        assert mb.called, q
    assert any(inc.plan(q, 10)["method"] == "bmax" for q in QUERIES)


def test_compact_restores_pruning_and_matches_rebuild(appended, tmp_path):
    """append → compact: only compacted files remain, bmax stays
    bitwise equal to the rebuild; segment rows (including
    encoded postings and block-max metadata) equal the from-scratch
    rebuild's."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from stacksearch_ray.append import compact_index
    from stacksearch_ray.build import load_stats
    from stacksearch_ray.query import QueryEngine

    idx_inc, idx_full = appended
    idx_c = str(tmp_path / "compacted")
    shutil.copytree(idx_inc, idx_c)
    stats = compact_index(idx_c)
    assert stats == load_stats(idx_c)
    assert not [f for f in os.listdir(os.path.join(idx_c, "segments"))
                if f.startswith("append-")]
    # one segment row per (term, shard), bitwise equal to the rebuild's
    a = pq.read_table(os.path.join(idx_c, "segments")).to_pandas()
    b = pq.read_table(os.path.join(idx_full, "segments")).to_pandas()
    a = a.sort_values(["term", "shard"]).reset_index(drop=True)
    b = b.sort_values(["term", "shard"]).reset_index(drop=True)
    assert len(a) == len(b)
    assert not a.duplicated(["term", "shard"]).any()
    # the v6 row is all there is: bmax derives block starts and bounds
    # from these bytes under the stats, which are the rebuild's too
    assert list(a.columns) == list(b.columns) == SEGMENTS_SCHEMA.names
    for col in SEGMENTS_SCHEMA.names:
        assert (a[col] == b[col]).all(), col
    assert load_stats(idx_c)["avgdl"] == load_stats(idx_full)["avgdl"]
    # all scorers bitwise equal to rebuild
    eng_c, eng_f = QueryEngine(idx_c), QueryEngine(idx_full)
    for q in QUERIES:
        expected = eng_f.search(q, 10, "exhaustive")
        for m in ("exhaustive", "bmax", "auto"):
            assert eng_c.search(q, 10, m) == expected, (q, m)


def test_append_inherits_column_config(ray_session, tmp_path):
    """ADVICE: append defaults content_col/id_col from the index's
    stats.json and raises on an explicit mismatch."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    def tbl(lo, hi):
        return pa.table({
            "doc_id": pa.array(np.arange(lo, hi, dtype=np.int64)),
            "text": pa.array([f"alpha beta doc{i} gamma" for i in range(lo, hi)]),
        })

    base = str(tmp_path / "base.parquet")
    delta = str(tmp_path / "delta.parquet")
    pq_mod.write_table(tbl(0, 50), base)
    pq_mod.write_table(tbl(50, 80), delta)
    idx = str(tmp_path / "idx")
    build_index(base, idx, content_col="text", id_col="doc_id", num_shards=2)
    # no content_col/id_col passed: inherited from stats.json
    append_to_index(delta, idx)
    assert load_stats(idx)["n_docs"] == 80
    res = QueryEngine(idx).search("doc75", 5)
    assert res and res[0][0] == 75
    with pytest.raises(ValueError):
        append_to_index(delta, idx, content_col="content")
    with pytest.raises(ValueError):
        append_to_index(delta, idx, id_col="other_id")


def test_append_collision_detected(ray_session, tmp_path):
    import os

    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.build import DocIdCollisionError, build_index
    from stacksearch_ray.query import QueryEngine

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 100, rows_per_file=100)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, num_shards=2)
    eng = QueryEngine(idx)
    before = eng.search("helper_3 field_7 import", 10)
    with pytest.raises(DocIdCollisionError):
        append_to_index(corpus, idx)  # same docs again → duplicate ids
    # rejected append must leave the index EXACTLY as it was: no staged
    # leftovers, no rows added to docs/, same results on reopen
    assert not [n for n in os.listdir(idx) if n.startswith("docs.staged")]
    assert QueryEngine(idx).search("helper_3 field_7 import", 10) == before
    # and a subsequent disjoint append still works — derived ids come
    # from (repo, path, commit), so remap path to a disjoint key space
    import pyarrow as pa

    t = generate_corpus(60, seed=991)
    i = t.schema.get_field_index("path")
    t = t.set_column(i, "path",
                     pa.array([f"delta/{j}.py" for j in range(len(t))]))
    delta = str(tmp_path / "delta.parquet")
    pq.write_table(t, delta)
    append_to_index(delta, idx)
    after = QueryEngine(idx).search("helper_3 field_7 import", 10)
    assert len(after) == 10


def test_distributed_collision_audit(ray_session, tmp_path, monkeypatch):
    """Above _COLLISION_CHECK_MAX_DOCS the uniqueness check runs as a
    distributed hash-bucket audit (ids never materialize on the driver);
    force that path with a tiny ceiling: a unique corpus passes, a
    duplicate append fails loudly and leaves the index untouched."""
    import os

    import stacksearch_ray.build as B
    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.build import (
        DocIdCollisionError,
        build_index,
        load_stats,
    )

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 120, rows_per_file=60)
    monkeypatch.setattr(B, "_COLLISION_CHECK_MAX_DOCS", 10)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, num_shards=2)  # unique ids pass the audit
    assert load_stats(idx)["n_docs"] == 120
    with pytest.raises(DocIdCollisionError, match="distributed audit"):
        append_to_index(corpus, idx)  # same docs again → duplicates
    assert not [n for n in os.listdir(idx) if n.startswith("docs.staged")]
    assert load_stats(idx)["n_docs"] == 120


def test_append_crash_recovery_journal(ray_session, tmp_path):
    """The journaled append commit: a crash anywhere before the stats
    write rolls BACK to exactly the pre-append index on next open; a
    crash after the commit point rolls FORWARD (term_dict refresh) and
    the result equals a clean append."""
    import os

    import stacksearch_ray.append as A
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 200, rows_per_file=100)
    base = f"{corpus}/part-00000.parquet"
    delta = f"{corpus}/part-00001.parquet"
    idx = str(tmp_path / "i")
    build_index(base, idx, num_shards=2)
    q0 = "helper_3 field_7 import"
    before = QueryEngine(idx).search(q0, 10)
    pre_stats = load_stats(idx)

    def debris():
        return [n for n in os.listdir(idx) if n.startswith(
            ("docs.staged", "segments.staged", "append.pending"))]

    for point in ("mid_commit_docs", "mid_commit_segments"):
        A._FAIL_AT = point
        try:
            with pytest.raises(RuntimeError, match="injected crash"):
                A.append_to_index(delta, idx)
        finally:
            A._FAIL_AT = None
        eng = QueryEngine(idx)  # open triggers recover_appends → rollback
        assert eng.search(q0, 10) == before, point
        assert load_stats(idx) == pre_stats, point
        assert not debris(), point

    # crash AFTER the commit point (stats written, term_dict/journal
    # pending): recovery rolls forward
    A._FAIL_AT = "after_stats"
    try:
        with pytest.raises(RuntimeError, match="injected crash"):
            A.append_to_index(delta, idx)
    finally:
        A._FAIL_AT = None
    eng = QueryEngine(idx)
    assert not debris()
    st = load_stats(idx)
    assert st["n_docs"] == 200 and fsck_index(idx).ok
    idx2 = str(tmp_path / "i2")
    build_index(base, idx2, num_shards=2)
    A.append_to_index(delta, idx2)
    eng2 = QueryEngine(idx2)
    for q in QUERIES:
        assert (eng.search(q, 10, "exhaustive")
                == eng2.search(q, 10, "exhaustive")), q


def test_compact_crash_recovery(ray_session, tmp_path):
    """A crash between compact_index's two renames must be healable:
    QueryEngine open restores segments.old and serves the same results."""
    import os
    import shutil

    from stacksearch_ray.append import recover_segments
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 80, rows_per_file=80)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, num_shards=2)
    before = QueryEngine(idx).search("numpy python", 5)

    seg = os.path.join(idx, "segments")
    # simulate the crash window: segments renamed away, scratch left over
    os.rename(seg, seg + ".old")
    os.makedirs(seg + ".compact")
    assert recover_segments(idx) is True
    assert os.path.isdir(seg)
    assert not os.path.isdir(seg + ".old")
    assert not os.path.isdir(seg + ".compact")
    assert QueryEngine(idx).search("numpy python", 5) == before

    # and QueryEngine itself heals without an explicit recover call
    os.rename(seg, seg + ".old")
    assert QueryEngine(idx).search("numpy python", 5) == before
    shutil.rmtree(seg + ".old", ignore_errors=True)


def test_multi_append_microbatch_ingestion(ray_session, tmp_path):
    """Streaming micro-batch ingestion: 1 base build + 3 sequential
    appends. After EVERY append the exhaustive results match a rebuild
    over the ingested prefix, and the final compact is bitwise equal to
    the full rebuild's segments — the A4/A5 freshness story under
    repeated deltas, not just one."""
    import os
    import shutil

    from stacksearch_ray.append import append_to_index, compact_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    full = str(tmp_path / "full")
    write_corpus(full, 400, rows_per_file=100)
    parts = [f"{full}/part-0000{i}.parquet" for i in range(4)]
    idx = str(tmp_path / "inc")
    build_index(parts[0], idx, num_shards=4)
    for k in (1, 2, 3):
        append_to_index([parts[k]], idx)
        prefix_idx = str(tmp_path / f"prefix{k}")
        build_index(parts[:k + 1], prefix_idx, num_shards=4)
        eng_i, eng_p = QueryEngine(idx), QueryEngine(prefix_idx)
        for q in QUERIES:
            assert (eng_i.search(q, 10, "exhaustive")
                    == eng_p.search(q, 10, "exhaustive")), (k, q)
        shutil.rmtree(prefix_idx)
    compact_index(idx)
    rebuild = str(tmp_path / "rebuild")
    build_index(full, rebuild, num_shards=4)
    a = pq.read_table(os.path.join(idx, "segments")).to_pandas()
    b = pq.read_table(os.path.join(rebuild, "segments")).to_pandas()
    a = a.sort_values(["term", "shard"]).reset_index(drop=True)
    b = b.sort_values(["term", "shard"]).reset_index(drop=True)
    assert len(a) == len(b)
    for col in ("term", "shard", "df", "cf", "doc_ids", "tfs"):
        assert (a[col] == b[col]).all(), col
    eng, engr = QueryEngine(idx), QueryEngine(rebuild)
    for q in QUERIES:
        assert eng.search(q, 10, "auto") == engr.search(q, 10, "auto")


def test_compact_crash_after_segment_swap_scores_exactly(
        ray_session, tmp_path, monkeypatch):
    """ADVICE r3 (medium): a crash AFTER compaction's segments swap but
    BEFORE the docs rewrite used to leave stats.json pointing at the
    deleted-df sidecar while segment dfs were already purged — engines
    then subtracted the correction twice (inflated idf). The fix drops
    deleted_df_file atomically right after the swap, so every later
    crash point serves exact scores; re-running compact rolls forward."""
    import json
    import os

    import stacksearch_ray.append as A
    from stacksearch_ray.append import compact_index, delete_from_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 120, rows_per_file=120)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, num_shards=2)
    all_ids = pq.read_table(os.path.join(idx, "docs"),
                            columns=["doc_id"])["doc_id"].to_pylist()
    victims = sorted(all_ids)[::4][:30]
    delete_from_index(idx, victims)
    # tombstoned scoring is bitwise == rebuild-without-deleted (pinned
    # in test_delete) — capture it as the ground truth for every later
    # crash state
    before = {q: QueryEngine(idx).search(q, 10, "exhaustive")
              for q in QUERIES}

    # crash as the docs rewrite starts
    monkeypatch.setattr(A, "_FAIL_AT", "compact_docs")
    with pytest.raises(RuntimeError, match="injected crash"):
        compact_index(idx)
    monkeypatch.setattr(A, "_FAIL_AT", None)

    # the crash window state: segments purged, docs not yet rewritten —
    # stats must NOT reference the deleted-df sidecar anymore (double
    # subtraction), but must keep masking the still-present doc rows
    st = load_stats(idx)
    assert "deleted_df_file" not in st
    assert st.get("tombstones_file")
    for q in QUERIES:
        assert QueryEngine(idx).search(q, 10, "exhaustive") == before[q], q

    # roll forward: a re-run completes the purge and stays exact
    compact_index(idx)
    st = load_stats(idx)
    assert "tombstones_file" not in st and "deleted_df_file" not in st
    eng = QueryEngine(idx)
    for q in QUERIES:
        assert eng.search(q, 10, "exhaustive") == before[q], q


def test_compact_with_tombstones_runs_one_map_units(ray_session, tmp_path,
                                                    monkeypatch):
    """A same-shard-count compaction with tombstones rewrites its docs
    parts in the same map_units execution as its segment units, with no
    units of their own."""
    import os

    import stacksearch_ray.append as A
    from stacksearch_ray.append import compact_index, delete_from_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.fsck import fsck_index

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 120, rows_per_file=40)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, num_shards=3)
    docs = os.path.join(idx, "docs")
    ids = pq.read_table(docs, columns=["doc_id"])["doc_id"].to_pylist()
    delete_from_index(idx, ids[::5])

    calls = []
    real = A.map_units

    def counting(fn, units, *args, **kwargs):
        calls.append(len(units))
        return real(fn, units, *args, **kwargs)

    monkeypatch.setattr(A, "map_units", counting)
    compact_index(idx)
    assert calls == [3]  # one unit per shard
    left = pq.read_table(docs, columns=["doc_id"])["doc_id"].to_pylist()
    assert sorted(left) == sorted(set(ids) - set(ids[::5]))
    rep = fsck_index(idx)
    assert rep.ok, rep.errors


def test_index_alias_atomic_flip(ray_session, tmp_path_factory):
    """set_index_alias + open_index: readers opened through the alias
    pin their view at open; flipping the alias atomically retargets
    subsequent opens; a non-index target is rejected."""
    import pytest as _pytest

    from stacksearch_ray.append import resolve_index_alias, set_index_alias
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import open_index

    root = tmp_path_factory.mktemp("alias")
    corpus = str(root / "corpus")
    write_corpus(corpus, 150, rows_per_file=75)
    idx_a, idx_b = str(root / "a"), str(root / "b")
    build_index([f"{corpus}/part-00000.parquet"], idx_a, num_shards=2)
    build_index(corpus, idx_b, num_shards=2)
    alias = str(root / "serving")

    with _pytest.raises(Exception):
        set_index_alias(alias, str(root / "not_an_index"))

    set_index_alias(alias, idx_a)
    eng = open_index(alias)
    assert len(eng.doclens.ids) == 75
    set_index_alias(alias, idx_b)           # atomic flip
    assert len(eng.doclens.ids) == 75       # open reader pinned
    assert len(open_index(alias).doclens.ids) == 150
    assert resolve_index_alias(idx_a) == idx_a  # plain index passthrough


def _flip_loop(alias: str, target: str, n: int) -> None:
    from stacksearch_ray.append import set_index_alias

    for _ in range(n):
        set_index_alias(alias, target)


def test_index_alias_concurrent_flips(ray_session, tmp_path_factory):
    """Two PROCESSES flipping the same alias concurrently never expose
    a torn alias.json to readers (pid+uuid tmp names — the shared-tmp
    inode race fixed in round 4): every resolve during the storm
    returns one of the two valid targets."""
    import multiprocessing as mp
    import os

    from stacksearch_ray.append import resolve_index_alias, set_index_alias
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("alias_race")
    corpus = str(root / "corpus")
    write_corpus(corpus, 100, rows_per_file=50)
    idx_a, idx_b = str(root / "a"), str(root / "b")
    build_index(corpus, idx_a, num_shards=2)
    build_index(corpus, idx_b, num_shards=2)
    alias = str(root / "serving")
    set_index_alias(alias, idx_a)

    ctx = mp.get_context("spawn")
    procs = [ctx.Process(target=_flip_loop, args=(alias, t, 60))
             for t in (idx_a, idx_b)]
    for p in procs:
        p.start()
    ok = {os.path.abspath(idx_a), os.path.abspath(idx_b)}
    resolves = 0
    # a fixed floor of resolves guarantees the reader loop actually
    # races the writers even if spawn overhead delays them
    while any(p.is_alive() for p in procs) or resolves < 50:
        got = resolve_index_alias(alias)   # must never raise or tear
        assert got in ok, got
        resolves += 1
    for p in procs:
        p.join()
        assert p.exitcode == 0
    assert resolve_index_alias(alias) in ok
    leftovers = [f for f in os.listdir(alias) if ".tmp." in f]
    assert leftovers == []  # every writer's tmp was consumed by rename


def test_sharded_engine_opens_alias(ray_session, tmp_path_factory):
    from stacksearch_ray.append import set_index_alias
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    root = tmp_path_factory.mktemp("alias_sharded")
    corpus = str(root / "corpus")
    write_corpus(corpus, 120, rows_per_file=60)
    idx = str(root / "idx")
    build_index(corpus, idx, num_shards=4)
    alias = str(root / "live")
    set_index_alias(alias, idx)
    sharded = ShardedQueryEngine(alias, num_workers=2)
    assert (sharded.search("def return", 10)
            == QueryEngine(idx).search("def return", 10))


def test_path_and_dataset_appends_give_one_index(ray_session, tmp_path):
    """One delta file appended by path (one staged part per file, plain
    Ray tasks) and as ``rd.read_parquet`` (one part per ``batch_size``
    rows, Ray Data) gives one index: the same term_dict, bitwise the
    same top-10 under every scorer, and byte-equal segment files once
    compacted. The delta holds more than ``batch_size`` rows, so the two
    sources stage it in different parts."""
    import os
    import shutil

    import ray.data as rd
    from test_bmax import AUTO_QUERIES, _corpus, _write

    from stacksearch_ray.append import append_to_index, compact_index
    from stacksearch_ray.build import IndexBuildConfig, build_index
    from stacksearch_ray.query import QueryEngine

    n_delta = IndexBuildConfig.batch_size + 452
    base = _write(_corpus(3000, 11), str(tmp_path / "base.parquet"))
    delta = _write(_corpus(n_delta, 12, 3000), str(tmp_path / "delta.parquet"))
    by_path, by_ds = str(tmp_path / "by_path"), str(tmp_path / "by_ds")
    build_index(base, by_path, content_col="text", id_col="doc_id",
                num_shards=4)
    shutil.copytree(by_path, by_ds)
    append_to_index(delta, by_path)
    append_to_index(rd.read_parquet(delta), by_ds)
    parts = [len(os.listdir(os.path.join(d, "docs"))) for d in (by_path, by_ds)]
    assert parts[1] > parts[0]

    def term_dict(idx):
        return pq.read_table(os.path.join(idx, "term_dict")).sort_by("term")

    assert term_dict(by_path).equals(term_dict(by_ds))
    engines = [QueryEngine(by_path), QueryEngine(by_ds)]
    for method in ("auto", "exhaustive", "bmax"):
        for q in AUTO_QUERIES:
            a, b = (e.search(q, 10, method=method) for e in engines)
            assert a and a == b, (method, q)

    def segment_bytes(idx):
        seg = os.path.join(idx, "segments")
        return {f: open(os.path.join(seg, f), "rb").read()
                for f in sorted(os.listdir(seg)) if f.endswith(".parquet")}

    compact_index(by_path)
    compact_index(by_ds)
    assert segment_bytes(by_path) == segment_bytes(by_ds)
