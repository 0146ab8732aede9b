"""Index format v6: a segment row is term, shard, df, cf, doc_ids, tfs
(plus positions), and bmax takes its block bounds from the decode.

Every writer (path build, Dataset build, append, compact with and
without a reshard, delete + purge, merge) writes segment files with
exactly those columns, with footer statistics on ``term`` and
``shard`` only, in row groups of ``schema.SEGMENT_ROW_GROUP_ROWS`` rows;
and bmax stays bitwise equal to exhaustive scoring on an index that
went through append, delete and compaction. Segment files written with
another row-group size (64 rows, the size before it) still open, check
and score the same, and compaction rewrites them at the current size."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from stacksearch_ray.corpus import write_corpus


def _layout(idx: str) -> dict[str, tuple]:
    """Per segment file: (column names, columns with footer stats, rows
    per row group)."""
    seg = os.path.join(idx, "segments")
    out = {}
    for f in sorted(os.listdir(seg)):
        pf = pq.ParquetFile(os.path.join(seg, f))
        md = pf.metadata
        stats = {md.row_group(i).column(j).path_in_schema
                 for i in range(md.num_row_groups)
                 for j in range(md.num_columns)
                 if md.row_group(i).column(j).is_stats_set}
        groups = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        out[f] = (pf.schema_arrow.names, stats, groups)
    return out


def _assert_v6(idx: str, positions: bool) -> None:
    from stacksearch_ray.build import load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.schema import SEGMENT_ROW_GROUP_ROWS, segments_schema

    assert load_stats(idx)["format_version"] == 6
    want = segments_schema(positions).names
    layout = _layout(idx)
    assert layout
    for f, (names, stats, groups) in layout.items():
        assert names == want, f
        assert stats <= {"term", "shard"}, (f, stats)
        # one writer sizes every file's row groups, the last group
        # holding the rest (an empty file has none)
        n = SEGMENT_ROW_GROUP_ROWS
        assert all(g == n for g in groups[:-1]), (f, groups)
        assert all(0 < g <= n for g in groups[-1:]), (f, groups)
    # every non-empty file keeps the term statistics readers prune on
    assert any(stats == {"term", "shard"} for _, stats, _ in layout.values())
    # and some file spans several row groups, so the check above bites
    assert any(len(groups) > 1 for _, _, groups in layout.values())
    rep = fsck_index(idx)
    assert rep.ok, rep.errors


@pytest.mark.parametrize("positions", [False, True])
def test_every_writer_writes_v6_segment_files(ray_session, tmp_path,
                                              positions):
    import ray.data as rd

    from stacksearch_ray.append import (
        append_to_index,
        compact_index,
        delete_from_index,
        merge_indexes,
        purge_doc_ids,
    )
    from stacksearch_ray.build import build_index

    c = str(tmp_path / "corpus")
    files = write_corpus(c, 240, rows_per_file=40)
    kw = dict(num_shards=3, store_positions=positions)
    path_idx, ds_idx, other, merged = (str(tmp_path / n) for n in
                                       ("path", "ds", "other", "merged"))
    build_index(files[:3], path_idx, **kw)
    _assert_v6(path_idx, positions)
    build_index(rd.read_parquet(files[3:5]), ds_idx, batch_size=32, **kw)
    _assert_v6(ds_idx, positions)

    append_to_index(files[5:], path_idx)
    _assert_v6(path_idx, positions)
    ids = pq.read_table(os.path.join(path_idx, "docs"),
                        columns=["doc_id"])["doc_id"].to_pylist()
    delete_from_index(path_idx, ids[::9])
    seg = os.path.join(path_idx, "segments")
    before = {f: os.stat(os.path.join(seg, f)).st_mtime_ns
              for f in os.listdir(seg)}
    purge_doc_ids(path_idx, ids[::18])
    assert any(os.stat(os.path.join(seg, f)).st_mtime_ns != m
               for f, m in before.items()
               if os.path.exists(os.path.join(seg, f)))
    _assert_v6(path_idx, positions)
    compact_index(path_idx)
    _assert_v6(path_idx, positions)
    compact_index(path_idx, num_shards=5)
    assert len(os.listdir(os.path.join(path_idx, "segments"))) == 5
    _assert_v6(path_idx, positions)

    build_index(files[:3], other, **kw)
    merge_indexes([ds_idx, other], merged)
    _assert_v6(merged, positions)


def _zipf_docs(n_docs: int, seed: int) -> dict[int, str]:
    """Zipf terms, lognormal lengths: block bounds that can prune."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"t{i:04d}" for i in range(800)], dtype=object)
    lens = np.clip(rng.lognormal(3.0, 1.0, n_docs).astype(np.int64), 3, 600)
    ranks = np.minimum(rng.zipf(1.3, int(lens.sum())), len(vocab)) - 1
    toks, ends = vocab[ranks], np.cumsum(lens)
    return {i: " ".join(toks[e - n:e]) for i, (e, n) in enumerate(zip(ends, lens))}


def _write(docs: dict[int, str], path: str) -> str:
    pq.write_table(pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.string())}), path)
    return path


def test_bmax_bitwise_after_append_delete_compact(ray_session, tmp_path):
    """After append and delete the index scores exhaustively; once
    compact_index clears ``appended``, bmax runs on bounds derived under
    the compacted stats and equals exhaustive scoring and a rebuild of
    the surviving docs, bitwise."""
    from stacksearch_ray.append import (
        append_to_index,
        compact_index,
        delete_from_index,
    )
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    docs = _zipf_docs(3000, 5)
    ids = list(docs)
    base = _write({i: docs[i] for i in ids[:2000]}, str(tmp_path / "a.parquet"))
    delta = _write({i: docs[i] for i in ids[2000:]}, str(tmp_path / "b.parquet"))
    dead = ids[::11]
    alive = {i: t for i, t in docs.items() if i not in set(dead)}
    kw = dict(content_col="text", id_col="doc_id", num_shards=3)

    idx = str(tmp_path / "idx")
    build_index(base, idx, **kw)
    append_to_index(delta, idx)
    delete_from_index(idx, dead)
    assert load_stats(idx)["appended"] is True
    compact_index(idx)
    assert load_stats(idx)["appended"] is False
    ref = str(tmp_path / "ref")
    build_index(_write(alive, str(tmp_path / "alive.parquet")), ref, **kw)

    eng, eng_ref = QueryEngine(idx), QueryEngine(ref)
    assert eng.avgdl == eng_ref.avgdl
    for q in ["t0000", "t0001", "t0000 t0003", "t0002 t0040", "t0500 t0001"]:
        want = eng_ref.search(q, 10, "exhaustive")
        assert eng.search(q, 10, "exhaustive") == want, q
        assert eng.search(q, 10, "bmax") == want, q
        assert eng_ref.search(q, 10, "bmax") == want, q
    # every derived bound bounds its block's parts, and equals the best
    for t, rows in eng._segments_for(["t0000", "t0003"]).items():
        for i, r in enumerate(rows):
            ids_r, _, _, part, _ = eng._decoded(t, i, r)
            first, bounds = eng._blocks(t, i, r)
            starts = np.arange(0, len(ids_r), eng.block_size)
            assert first.tolist() == ids_r[starts].tolist()
            for b, lo in enumerate(starts):
                assert bounds[b + 1] == part[lo:lo + eng.block_size].max()


def test_64_row_group_files_open_and_compact_to_current_size(ray_session,
                                                            tmp_path):
    """A v6 index whose segment files were written in 64-row groups
    (the size before ``SEGMENT_ROW_GROUP_ROWS``) passes fsck and scores
    bitwise like the same index at the current size, under exhaustive
    and bmax; its next compaction rewrites every file at the current
    size. No reader depends on the row-group size, so changing it needs
    no format bump."""
    import shutil

    from stacksearch_ray.append import compact_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.schema import SEGMENT_ROW_GROUP_ROWS
    from stacksearch_ray.state.manifest import atomic_write_parquet

    assert SEGMENT_ROW_GROUP_ROWS != 64
    new, old = str(tmp_path / "new"), str(tmp_path / "old")
    build_index(_write(_zipf_docs(600, 3), str(tmp_path / "a.parquet")), new,
                content_col="text", id_col="doc_id", num_shards=2)
    _assert_v6(new, False)
    shutil.copytree(new, old)
    seg = os.path.join(old, "segments")
    for f in os.listdir(seg):
        path = os.path.join(seg, f)
        t = pq.read_table(path)  # schema metadata (the doc map) included
        atomic_write_parquet(t, path,
                             row_group_boundaries=range(64, t.num_rows, 64))
    groups = [g for _, _, g in _layout(old).values()]
    assert any(len(g) > 1 for g in groups)
    assert all(n == 64 for g in groups for n in g[:-1]), groups
    rep = fsck_index(old)
    assert rep.ok, rep.errors

    eng_old, eng_new = QueryEngine(old), QueryEngine(new)
    for q in ["t0000", "t0001 t0002", "t0003 t0040 t0100", "t0500 t0001",
              "t0007 t0799"]:
        for method in ("exhaustive", "bmax"):
            assert (eng_old.search(q, 10, method)
                    == eng_new.search(q, 10, method)), (q, method)

    compact_index(old)
    _assert_v6(old, False)
    assert _layout(old) == _layout(new)
