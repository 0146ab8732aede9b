"""fsck_index: clean indexes pass through every lifecycle state;
seeded corruptions are detected (stats drift, missing docs, decode
mismatches, a segment file copied under a second name, a (term, shard)
key repeated inside one file, term_dict drift, segment files of
another layout)."""

import json
import os
import re
import shutil

import pyarrow.parquet as pq
import pytest

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def fsck_idx(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("fsck")
    idx = str(root / "idx")
    build_index(DOCS, idx, content_col="text", id_col="doc_id",
                num_shards=4, store_positions=True)
    return idx


def _copy(idx, tmp_path, name):
    dst = str(tmp_path / name)
    shutil.copytree(idx, dst)
    return dst


def test_fsck_clean_through_lifecycle(fsck_idx, ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa

    from stacksearch_ray.append import (
        append_to_index,
        compact_index,
        delete_from_index,
    )
    from stacksearch_ray.fsck import fsck_index

    rep = fsck_index(fsck_idx)
    assert rep.ok, rep.errors
    assert rep.checked_segment_rows > 0 and rep.checked_docs == 500

    idx = _copy(fsck_idx, tmp_path, "life")
    delta = pa.table({
        "doc_id": pa.array(np.arange(10_000, 10_050, dtype=np.int64)),
        "text": pa.array(["fresh appended doc merge sort"] * 50),
    })
    dp = str(tmp_path / "delta.parquet")
    pq.write_table(delta, dp)
    append_to_index(dp, idx)
    assert fsck_index(idx).ok  # appended: keys repeat across files
    delete_from_index(idx, list(range(0, 100, 3)))
    assert fsck_index(idx).ok  # tombstoned: stats alive-adjusted
    compact_index(idx)
    assert fsck_index(idx).ok  # compacted + purged


def test_fsck_detects_corruptions(fsck_idx, ray_session, tmp_path):
    from stacksearch_ray.fsck import fsck_index

    # a) stats drift
    c = _copy(fsck_idx, tmp_path, "c_stats")
    st = json.load(open(os.path.join(c, "stats.json")))
    st["n_docs"] += 7
    json.dump(st, open(os.path.join(c, "stats.json"), "w"))
    rep = fsck_index(c)
    assert not rep.ok and any("n_docs" in e for e in rep.errors)

    # b) missing docs rows -> postings point at unknown docs
    c = _copy(fsck_idx, tmp_path, "c_docs")
    docs_files = os.listdir(os.path.join(c, "docs"))
    os.remove(os.path.join(c, "docs", docs_files[0]))
    rep = fsck_index(c)
    assert not rep.ok
    assert any("not in the docs table" in e or "n_docs" in e
               or "docs table unreadable" in e for e in rep.errors)

    # c) df tampered in a segment row
    c = _copy(fsck_idx, tmp_path, "c_df")
    seg_dir = os.path.join(c, "segments")
    f = sorted(os.listdir(seg_dir))[0]
    t = pq.read_table(os.path.join(seg_dir, f))
    df = t["df"].to_pylist()
    df[0] += 1
    import pyarrow as pa

    t = t.set_column(t.schema.get_field_index("df"), "df",
                     pa.array(df, pa.int64()))
    pq.write_table(t, os.path.join(seg_dir, f))
    rep = fsck_index(c)
    assert not rep.ok and any("decode" in e for e in rep.errors)

    # d) a segment file copied under a second name: its docs are
    # referenced by two files of one shard
    c = _copy(fsck_idx, tmp_path, "c_dup")
    seg_dir = os.path.join(c, "segments")
    f = sorted(os.listdir(seg_dir))[0]
    shutil.copyfile(os.path.join(seg_dir, f),
                    os.path.join(seg_dir, "dup-" + f))
    rep = fsck_index(c)
    assert not rep.ok
    assert any("more than one segment file" in e and "dup-" + f in e
               for e in rep.errors)

    # e) term_dict drift
    c = _copy(fsck_idx, tmp_path, "c_td")
    td_dir = os.path.join(c, "term_dict")
    f = os.listdir(td_dir)[0]
    t = pq.read_table(os.path.join(td_dir, f))
    cf = t["cf"].to_pylist()
    cf[0] += 5
    import pyarrow as pa

    t = t.set_column(t.schema.get_field_index("cf"), "cf",
                     pa.array(cf, pa.int64()))
    pq.write_table(t, os.path.join(td_dir, f))
    rep = fsck_index(c)
    assert not rep.ok and any("term_dict" in e for e in rep.errors)


def test_fsck_reports_copied_file_on_appended_index(fsck_idx, ray_session,
                                                    tmp_path):
    """An appended index holds several files per shard whose keys
    repeat; a segment file copied under a second append-style name is
    still reported, because its docs are referenced twice. A search for
    one of its terms raises instead of scoring those docs twice."""
    import numpy as np
    import pyarrow as pa

    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    idx = _copy(fsck_idx, tmp_path, "app_copy")
    dp = str(tmp_path / "delta.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(20_000, 20_040, dtype=np.int64)),
        "text": pa.array([f"merge sort appended doc {i}" for i in range(40)]),
    }), dp)
    append_to_index(dp, idx)
    assert fsck_index(idx).ok
    seg_dir = os.path.join(idx, "segments")
    src = sorted(f for f in os.listdir(seg_dir) if f.startswith("append-"))[0]
    dst = "append-feedbeef" + src[src.index("-shard-"):]
    shutil.copyfile(os.path.join(seg_dir, src), os.path.join(seg_dir, dst))
    with pytest.raises(RuntimeError, match=r"term 'appended' posts doc \d+ "
                       r"more than once .*" + re.escape(repr(idx))):
        QueryEngine(idx).search("appended", 10)
    rep = fsck_index(idx)
    assert any("more than one segment file" in e and src in e and dst in e
               for e in rep.errors), rep.errors


def test_fsck_reports_key_repeated_inside_one_file(fsck_idx, ray_session,
                                                   tmp_path):
    import pyarrow as pa

    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.schema import segment_write_kwargs

    c = _copy(fsck_idx, tmp_path, "c_rowdup")
    seg_dir = os.path.join(c, "segments")
    name = sorted(os.listdir(seg_dir))[0]
    f = os.path.join(seg_dir, name)
    t = pq.read_table(f)
    t = pa.concat_tables([t, t.slice(0, 1)])
    pq.write_table(t, f, **segment_write_kwargs(t.schema))
    rep = fsck_index(c)
    assert any(e == f"{name}: 1 duplicate (term, shard) segment row(s)"
               for e in rep.errors), rep.errors


def test_fsck_checks_segment_layout(fsck_idx, ray_session, tmp_path):
    """A segment file with a column the format does not have (here a
    format-v5 per-block list column), or with footer statistics on a
    column other than term and shard, is reported."""
    import pyarrow as pa

    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.schema import segment_write_kwargs

    def rewrite(name, edit, kw):
        c = _copy(fsck_idx, tmp_path, name)
        seg_dir = os.path.join(c, "segments")
        f = os.path.join(seg_dir, sorted(os.listdir(seg_dir))[0])
        t = edit(pq.read_table(f))
        pq.write_table(t, f, **kw(t.schema))
        return fsck_index(c), os.path.basename(f)

    def v5_column(t):
        firsts = pa.array([[0]] * t.num_rows, pa.list_(pa.int32()))
        return t.add_column(6, "skip_first_doc", firsts)

    rep, f = rewrite("c_v5", v5_column, segment_write_kwargs)
    assert not rep.ok
    assert any(f in e and "skip_first_doc" in e and "columns" in e
               for e in rep.errors), rep.errors
    # the file's rows still decode: the layout error is the only one
    assert len(rep.errors) == 1

    rep, f = rewrite("c_stats", lambda t: t, lambda s: {})
    assert not rep.ok
    assert rep.errors == [f"{f}: footer statistics on ['cf', 'df', 'doc_ids',"
                          " 'positions', 'tfs']; segment files keep them for "
                          "term and shard only"]
