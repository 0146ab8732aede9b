"""purge_doc_ids: surgical physical removal of tombstoned ids.

Invariants: purged index == rebuild without the purged docs (bitwise
scores, every method, positional paths); partial purge keeps the rest
masked; journaled roll-forward heals every crash point; purged ids are
re-addable by a plain append (the upsert path)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

DOCS = "/root/testdata/sf0.001/documents.parquet"
QUERIES = ["merge sort join stream window", "merge sort", "dup stream",
           "zzz_missing"]
KW = dict(content_col="text", id_col="doc_id", num_shards=4,
          store_positions=True)


def _rebuild_without(root, del_ids, name, **kw):
    from stacksearch_ray.build import build_index

    t = pq.read_table(DOCS)
    surv = t.filter(pc.invert(pc.is_in(
        t["doc_id"], value_set=pa.array(del_ids, pa.int64()))))
    p = str(root / f"{name}.parquet")
    pq.write_table(surv, p)
    ref = str(root / name)
    build_index(p, ref, **{**KW, **kw})
    return ref


def _assert_same_search(idx, ref):
    from stacksearch_ray.query import QueryEngine

    e, r = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES:
        for m in ("auto", "exhaustive", "bmax"):
            assert e.search(q, 10, m) == r.search(q, 10, m), (q, m)
    assert (e.phrase_occurrences("merge sort")[0].tolist()
            == r.phrase_occurrences("merge sort")[0].tolist())


@pytest.fixture(scope="module")
def purged(ray_session, tmp_path_factory):
    from stacksearch_ray.append import delete_from_index, purge_doc_ids
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("purge")
    idx = str(root / "idx")
    build_index(DOCS, idx, **KW)
    all_ids = pq.read_table(DOCS, columns=["doc_id"])["doc_id"].to_pylist()
    purge_ids = all_ids[::17]
    keep_masked = all_ids[5::23]
    keep_masked = [i for i in keep_masked if i not in set(purge_ids)]
    delete_from_index(idx, purge_ids + keep_masked)
    purge_doc_ids(idx, purge_ids)
    return root, idx, purge_ids, keep_masked


def test_purge_equals_rebuild(purged):
    """Partial purge: purged ids physically gone, the others still
    masked — scoring equals a rebuild without BOTH sets, and the
    sidecars now track only the still-masked set."""
    from stacksearch_ray.build import load_stats

    root, idx, purge_ids, keep_masked = purged
    ref = _rebuild_without(root, purge_ids + keep_masked, "ref_both")
    st = load_stats(idx)
    assert st["n_tombstones"] == len(keep_masked)
    assert st["n_docs"] == load_stats(ref)["n_docs"]
    assert st["avgdl"] == load_stats(ref)["avgdl"]
    # purged rows physically gone from the docs table
    got = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id"],
                        filters=[("doc_id", "in", purge_ids)])
    assert got.num_rows == 0
    _assert_same_search(idx, ref)


def test_purge_all_then_sidecars_gone(ray_session, tmp_path_factory):
    from stacksearch_ray.append import delete_from_index, purge_doc_ids
    from stacksearch_ray.build import build_index, load_stats

    root = tmp_path_factory.mktemp("purge_all")
    idx = str(root / "idx")
    build_index(DOCS, idx, **KW)
    ids = pq.read_table(DOCS, columns=["doc_id"])["doc_id"].to_pylist()[::11]
    delete_from_index(idx, ids)
    st = purge_doc_ids(idx, ids)
    assert "tombstones_file" not in st and "deleted_df_file" not in st
    assert not [n for n in os.listdir(idx)
                if n.startswith(("tombstones-", "deleted-df-",
                                 "purge.staged-", "purge.pending-"))]
    ref = _rebuild_without(root, ids, "ref")
    _assert_same_search(idx, ref)


def test_purge_fanned_out_equals_rebuild(ray_session, tmp_path_factory):
    """A purge touching more than 16 segment files rewrites them in Ray
    tasks (checkpoint.map_units) instead of inline; the result is the
    rebuild's all the same."""
    from stacksearch_ray.append import delete_from_index, purge_doc_ids
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("purge_fanout")
    idx = str(root / "idx")
    build_index(DOCS, idx, **{**KW, "num_shards": 20})
    ids = pq.read_table(DOCS, columns=["doc_id"])["doc_id"].to_pylist()[::11]
    delete_from_index(idx, ids)
    shards = pq.read_table(os.path.join(idx, "docs"), columns=["shard"],
                           filters=[("doc_id", "in", ids)])["shard"]
    assert len(set(shards.to_pylist())) == 20  # every file is a candidate
    purge_doc_ids(idx, ids)
    _assert_same_search(idx, _rebuild_without(root, ids, "ref", num_shards=20))


def test_purge_rejects_live_ids(purged):
    from stacksearch_ray.append import purge_doc_ids
    from stacksearch_ray.query import QueryEngine

    _, idx, _, _ = purged
    eng = QueryEngine(idx)
    live = int(eng.doclens.ids[0])
    with pytest.raises(ValueError, match="not tombstoned"):
        purge_doc_ids(idx, [live])


@pytest.mark.parametrize("point", ["purge_after_journal",
                                   "purge_mid_renames",
                                   "purge_after_stats"])
def test_purge_crash_rolls_forward(ray_session, tmp_path_factory, point):
    """A crash at any point after the journal lands rolls FORWARD on
    the next QueryEngine open: results equal the rebuild, no journal or
    staged scratch left behind."""
    import stacksearch_ray.append as A
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp(f"purge_crash_{point}")
    idx = str(root / "idx")
    build_index(DOCS, idx, **KW)
    ids = pq.read_table(DOCS, columns=["doc_id"])["doc_id"].to_pylist()[::13]
    A.delete_from_index(idx, ids)
    A._FAIL_AT = point
    try:
        with pytest.raises(RuntimeError, match="injected"):
            A.purge_doc_ids(idx, ids)
    finally:
        A._FAIL_AT = None
    QueryEngine(idx)  # open heals (recover_purges rolls forward)
    assert not [n for n in os.listdir(idx)
                if n.startswith(("purge.staged-", "purge.pending-"))]
    ref = _rebuild_without(root, ids, "ref")
    _assert_same_search(idx, ref)


def test_purge_then_readd_and_compact(ray_session, tmp_path_factory):
    """The re-add lifecycle the purge exists for: delete -> purge ->
    append the SAME id with new content; then compaction still equals a
    rebuild of the final corpus."""
    from stacksearch_ray.append import (
        append_to_index,
        compact_index,
        delete_from_index,
        purge_doc_ids,
    )
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("readd")
    idx = str(root / "idx")
    build_index(DOCS, idx, **KW)
    t = pq.read_table(DOCS)
    rid = int(t["doc_id"][3].as_py())
    delete_from_index(idx, [rid])
    purge_doc_ids(idx, [rid])
    new_text = "galaxy quasar merge sort unique replacement text"
    delta = pa.table({
        "doc_id": pa.array([rid], pa.int64()),
        "text": pa.array([new_text]),
        "lang": pa.array(["en"]), "source": pa.array(["web"]),
        "n_chars": pa.array([len(new_text)], pa.int64()),
    })
    delta_p = str(root / "delta.parquet")
    pq.write_table(delta, delta_p)
    append_to_index(delta_p, idx)
    res = QueryEngine(idx).search("galaxy quasar", 5)
    assert res and res[0][0] == rid
    # final state == rebuild over (corpus with rid's text replaced)
    repl = t.set_column(t.column_names.index("text"), "text", pa.array(
        [new_text if int(d) == rid else s
         for d, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())]))
    full_p = str(root / "full.parquet")
    pq.write_table(repl, full_p)
    ref = str(root / "ref")
    build_index(full_p, ref, **KW)
    compact_index(idx)
    _assert_same_search(idx, ref)
    a = pq.read_table(os.path.join(idx, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    b = pq.read_table(os.path.join(ref, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    for col in a.columns:
        assert a[col].tolist() == b[col].tolist(), col


def test_snapshot_index(ray_session, tmp_path_factory):
    """Hardlink snapshot serves identically; mutating the SOURCE after
    the snapshot (delete + purge) leaves the snapshot's results frozen
    — file-granularity copy-on-write, no data copied."""
    from stacksearch_ray.append import (
        delete_from_index,
        purge_doc_ids,
        snapshot_index,
    )
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("snap")
    idx, snap = str(root / "idx"), str(root / "snap")
    build_index(DOCS, idx, **KW)
    before = QueryEngine(idx).search(QUERIES[0], 10)
    snapshot_index(idx, snap)
    assert QueryEngine(snap).search(QUERIES[0], 10) == before
    dels = [d for d, _ in before[:3]]
    delete_from_index(idx, dels)
    purge_doc_ids(idx, dels)
    after = QueryEngine(idx).search(QUERIES[0], 10)
    assert not (set(d for d, _ in after) & set(dels))
    # the snapshot still serves the pre-mutation view, bitwise
    assert QueryEngine(snap).search(QUERIES[0], 10) == before
    with pytest.raises(ValueError, match="not empty"):
        snapshot_index(idx, snap)


def test_purge_skips_a_file_whose_map_only_lists_the_id(ray_session,
                                                       tmp_path_factory):
    """A doc map can list an id that no posting of its file references
    (purges that kept a file's old map left such ids behind). Purging
    that id rewrites the file that holds its postings and skips the
    other: its bytes stay as they were."""
    from stacksearch_ray.append import (
        _kept_postings,
        delete_from_index,
        purge_doc_ids,
    )
    from stacksearch_ray.build import (
        SegmentEncoder,
        build_index,
        load_stats,
        write_segment_file,
    )
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.schema import read_doc_map

    root = tmp_path_factory.mktemp("stale_map")
    idx = str(root / "idx")
    build_index(DOCS, idx, **KW)
    bs = load_stats(idx)["block_size"]
    seg = os.path.join(idx, "segments")
    holder, stale = (os.path.join(seg, n) for n in sorted(os.listdir(seg))[:2])
    rid = int(read_doc_map(holder)[0])
    # re-encode the other file with one extra posting of rid under a
    # sentinel term, then drop that row: rid stays in the map only
    kept = _kept_postings(pq.read_table(stale), read_doc_map(stale),
                          np.empty(0, np.int64), bs, True)
    extra = pa.table({"term": ["zz_sentinel"], "doc_id": [rid], "tf": [1],
                      "shard": pa.array([kept["shard"][0].as_py()], pa.int32()),
                      "pos": [b"\x01"]}).cast(kept.schema)
    enc = SegmentEncoder(bs)(pa.concat_tables([kept, extra]))
    write_segment_file(enc.filter(pc.not_equal(enc["term"], "zz_sentinel")),
                       stale)
    assert rid in read_doc_map(stale)
    stale_bytes = open(stale, "rb").read()
    holder_bytes = open(holder, "rb").read()

    delete_from_index(idx, [rid])
    purge_doc_ids(idx, [rid])
    assert open(stale, "rb").read() == stale_bytes
    assert open(holder, "rb").read() != holder_bytes
    assert rid not in read_doc_map(holder)
    rep = fsck_index(idx)
    assert rep.ok, rep.errors
    _assert_same_search(idx, _rebuild_without(root, [rid], "ref"))
