"""Deletion lifecycle: tombstone masking makes every query path equal a
rebuild WITHOUT the deleted docs (bitwise — global stats are recomputed
at delete time), compaction purges physically and restores pruning, and
appends into a tombstoned index keep stats exact."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

DOCS = "/root/testdata/sf0.001/documents.parquet"
QUERIES = ["merge sort join stream window", "merge sort", "dup stream",
           "zzz_missing"]


@pytest.fixture(scope="module")
def deleted_setup(ray_session, tmp_path_factory):
    from stacksearch_ray.append import delete_from_index
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("delete")
    t = pq.read_table(DOCS)
    del_ids = [i for i in t["doc_id"].to_pylist() if i % 7 == 0]
    surv = t.filter(pc.invert(pc.is_in(
        t["doc_id"], value_set=pa.array(del_ids, pa.int64()))))
    surv_p = str(root / "surv.parquet")
    pq.write_table(surv, surv_p)
    kw = dict(content_col="text", id_col="doc_id", num_shards=4,
              store_positions=True)
    idx = str(root / "idx")
    build_index(DOCS, idx, **kw)
    delete_from_index(idx, del_ids)
    ref = str(root / "ref")
    build_index(surv_p, ref, **kw)
    return idx, ref, del_ids, kw, surv_p


def test_delete_masks_equal_rebuild(deleted_setup):
    from stacksearch_ray.build import load_stats
    from stacksearch_ray.query import QueryEngine

    idx, ref, del_ids, _, _ = deleted_setup
    si, sr = load_stats(idx), load_stats(ref)
    # global stats recomputed at delete time == rebuilt corpus, bitwise
    assert si["n_docs"] == sr["n_docs"]
    assert si["total_len"] == sr["total_len"]
    assert si["avgdl"] == sr["avgdl"]
    e, r = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES:
        want = r.search(q, 10, "exhaustive")
        # every scorer masks the tombstones
        for m in ("auto", "exhaustive", "bmax"):
            assert e.search(q, 10, m) == want, (q, m)
    # positional, wildcard, candidate and doc-store paths all mask
    assert (e.phrase_occurrences("merge sort")[0].tolist()
            == r.phrase_occurrences("merge sort")[0].tolist())
    na, ga = e.near_min_gaps("merge", "sort")
    nb, gb = r.near_min_gaps("merge", "sort")
    assert na.tolist() == nb.tolist() and ga.tolist() == gb.tolist()
    wa = e.search_wildcard("mer")
    wb = r.search_wildcard("mer")
    for x, y in zip(wa, wb):
        assert x.tolist() == y.tolist()
    assert e.term_doc_ids("merge").tolist() == r.term_doc_ids("merge").tolist()
    assert e.get_docs(del_ids[:5]) == []
    # filtered search never resurrects deleted docs
    allowed = np.asarray(del_ids[:20] + [d for d in e.doclens.ids[:50]
                                         if d % 7 != 0], dtype=np.int64)
    for plan in ("dense", "selective"):
        res = e.search_filtered(QUERIES[0], 10, allowed_doc_ids=allowed,
                                plan=plan)
        assert all(d % 7 != 0 for d, _ in res)
    # idempotent: re-deleting + unknown ids changes nothing
    from stacksearch_ray.append import delete_from_index

    st2 = delete_from_index(idx, del_ids[:3] + [10**15])
    assert st2["n_docs"] == si["n_docs"]
    assert st2["n_tombstones"] == si["n_tombstones"]


def test_compact_purges_tombstones(deleted_setup, tmp_path):
    import os
    import shutil

    from stacksearch_ray.append import compact_index
    from stacksearch_ray.build import load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    idx, ref, del_ids, _, _ = deleted_setup
    c = str(tmp_path / "compacted")
    shutil.copytree(idx, c)
    stats = compact_index(c)
    assert fsck_index(c).ok
    assert "tombstones_file" not in stats
    assert not [n for n in os.listdir(c) if n.startswith("tombstones-")]
    # physical purge: docs table == rebuild's rows; segments bitwise ==
    a = pq.read_table(os.path.join(c, "segments")).to_pandas()
    b = pq.read_table(os.path.join(ref, "segments")).to_pandas()
    a = a.sort_values(["term", "shard"]).reset_index(drop=True)
    b = b.sort_values(["term", "shard"]).reset_index(drop=True)
    assert len(a) == len(b)
    for col in ("term", "shard", "df", "cf", "doc_ids", "tfs", "positions"):
        assert (a[col] == b[col]).all(), col
    assert (pq.read_table(os.path.join(c, "docs")).num_rows
            == pq.read_table(os.path.join(ref, "docs")).num_rows)
    # nothing left to mask, and still identical to the rebuild
    ec, er = QueryEngine(c), QueryEngine(ref)
    assert ec._alive.all() and len(ec._deleted_sorted) == 0
    for q in QUERIES:
        want = er.search(q, 10, "exhaustive")
        for m in ("auto", "exhaustive", "bmax"):
            assert ec.search(q, 10, m) == want, (q, m)


def test_compact_fully_deleted_index(ray_session, tmp_path):
    """Compacting an index whose every doc is tombstoned commits an
    empty, readable index (every docs part is rewritten, empty or not)."""
    import os

    from stacksearch_ray.append import compact_index, delete_from_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    write_corpus(str(tmp_path / "c"), 60, rows_per_file=30)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c"), idx, num_shards=2)
    ids = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id"])
    delete_from_index(idx, ids["doc_id"].to_pylist())
    compact_index(idx)
    assert pq.read_table(os.path.join(idx, "docs")).num_rows == 0
    assert QueryEngine(idx).search("def return", 5) == []
    rep = fsck_index(idx)
    assert rep.ok, rep.errors


def test_delete_random_sets_match_bm25_oracle(ray_session, tmp_path):
    """Randomized delete shapes vs the ground-truth oracle: for several
    seeded random delete sets, the tombstoned index's top-10 (ids AND
    bitwise scores) equals a from-scratch OracleBM25 over exactly the
    surviving docs."""
    import shutil

    from stacksearch_ray.append import delete_from_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.corpus import generate_corpus, write_corpus
    from stacksearch_ray.oracle import OracleBM25
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.schema import doc_id_for

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 200, rows_per_file=100)
    base_idx = str(tmp_path / "base")
    build_index(corpus, base_idx, num_shards=4)
    tbl = generate_corpus(200)
    docs = {doc_id_for(r, p, c): t for r, p, c, t in
            zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
                tbl["commit"].to_pylist(), tbl["content"].to_pylist())}
    all_ids = np.array(sorted(docs), dtype=np.int64)
    queries = ["def return var_1", "helper_3 field_7 import",
               "numpy python", "Determine a user's timezone"]
    for seed in (3, 17, 99):
        rng = np.random.default_rng(seed)
        frac = rng.uniform(0.05, 0.6)
        dels = rng.choice(all_ids, size=int(len(all_ids) * frac),
                          replace=False)
        idx = str(tmp_path / f"idx{seed}")
        shutil.rmtree(idx, ignore_errors=True)
        shutil.copytree(base_idx, idx)
        delete_from_index(idx, dels)
        surviving = {d: t for d, t in docs.items()
                     if d not in set(dels.tolist())}
        oracle = OracleBM25(surviving)
        eng = QueryEngine(idx)
        for q in queries:
            assert eng.search(q, 10) == oracle.search(q, 10), (seed, q)


def test_deleted_df_read_once_per_engine(deleted_setup, monkeypatch):
    """The deleted-df sidecar is fixed for an open engine: one read
    serves every later query, whatever terms miss the caches, and the
    scores stay the rebuild's."""
    from stacksearch_ray.build import load_stats
    from stacksearch_ray.query import QueryEngine

    idx, ref, _, _, _ = deleted_setup
    ddf_file = load_stats(idx)["deleted_df_file"]
    reads = []
    real = pq.read_table

    def counting(source, *args, **kwargs):
        if str(source).endswith(ddf_file):
            reads.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(pq, "read_table", counting)
    e, r = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES + ["stream window join", "sort dup", "merge"]:
        assert e.search(q, 10, "exhaustive") == r.search(q, 10, "exhaustive")
    assert len(reads) == 1


def test_deleted_df_distributed_equals_driver(deleted_setup, ray_session):
    """The deleted-df sidecar scan has two execution strategies (driver
    Arrow stream vs Ray map_batches partials); both must produce the
    identical per-term counts."""
    import os

    from stacksearch_ray.append import _deleted_df_counts, load_tombstones
    from stacksearch_ray.build import load_stats

    idx, _, _, _, _ = deleted_setup
    st = load_stats(idx)
    allt = load_tombstones(idx, st)
    seg = os.path.join(idx, "segments")
    bs = int(st["block_size"])
    a = _deleted_df_counts(seg, allt, bs, threshold=10**9)  # driver path
    b = _deleted_df_counts(seg, allt, bs, threshold=0)      # Ray path
    assert a == b and len(a) > 0


def test_deleted_df_equals_per_row_reference(ray_session, tmp_path):
    """On an appended-then-deleted index, both execution strategies of
    the batched deleted-df scan equal a row-by-row decode of every
    segment row."""
    import os

    from stacksearch_ray.append import (
        _deleted_df_counts,
        append_to_index,
        delete_from_index,
        load_tombstones,
    )
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.codec import decode_doc_ids
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.schema import read_doc_map

    full = str(tmp_path / "full")
    write_corpus(full, 300, rows_per_file=100)
    idx = str(tmp_path / "idx")
    build_index([f"{full}/part-0000{i}.parquet" for i in (0, 1)], idx,
                num_shards=4)
    append_to_index([f"{full}/part-00002.parquet"], idx)
    ids = pq.read_table(os.path.join(idx, "docs"),
                        columns=["doc_id"])["doc_id"].to_pylist()
    delete_from_index(idx, sorted(ids)[::9])
    st = load_stats(idx)
    allt = load_tombstones(idx, st)
    seg = os.path.join(idx, "segments")
    bs = int(st["block_size"])
    rows = pq.read_table(seg, columns=["term", "doc_ids", "__filename"])
    dead = set(allt.tolist())
    want: dict[str, int] = {}
    for term, blob, path in zip(rows["term"].to_pylist(),
                                rows["doc_ids"].to_pylist(),
                                rows["__filename"].to_pylist()):
        # postings are local doc numbers in their file's doc map
        ids = read_doc_map(path)[decode_doc_ids(blob, bs)]
        c = sum(int(d) in dead for d in ids)
        if c:
            want[term] = want.get(term, 0) + c
    assert len(want) > 0
    assert _deleted_df_counts(seg, allt, bs, threshold=10**9) == want
    assert _deleted_df_counts(seg, allt, bs, threshold=0) == want


def test_sharded_engine_with_deletes(deleted_setup, ray_session):
    """Sharded serving under tombstones: each worker masks its subset
    and the global deleted-df correction keeps idf identical — fan-out
    results bitwise equal the single tombstoned engine (and hence the
    rebuild)."""
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    idx, ref, _, _, _ = deleted_setup
    single = QueryEngine(idx)
    sharded = ShardedQueryEngine(idx, num_workers=4)
    for q in QUERIES:
        assert sharded.search(q, 10) == single.search(q, 10), q


def test_upsert_equals_rebuild(ray_session, tmp_path):
    """upsert_to_index (delete → compact → append) over modified + new
    docs equals a from-scratch rebuild of the merged corpus."""
    import pandas as pd

    from stacksearch_ray.append import upsert_to_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    df = pq.read_table(DOCS).to_pandas()[["doc_id", "text"]]
    mod = df[df.doc_id % 5 == 0].copy()
    mod["text"] = mod["text"] + " upserted marker xqtoken"
    new = pd.DataFrame({
        "doc_id": np.arange(10_000_000, 10_000_050, dtype=np.int64),
        "text": [f"fresh upsert doc {i} xqtoken merge sort"
                 for i in range(50)],
    })
    delta = pd.concat([mod, new], ignore_index=True)
    delta_p = str(tmp_path / "delta.parquet")
    pq.write_table(pa.Table.from_pandas(delta, preserve_index=False),
                   delta_p)
    merged = pd.concat([df[df.doc_id % 5 != 0], delta], ignore_index=True)
    merged_p = str(tmp_path / "merged.parquet")
    pq.write_table(pa.Table.from_pandas(merged, preserve_index=False),
                   merged_p)
    base_p = str(tmp_path / "base.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), base_p)

    kw = dict(content_col="text", id_col="doc_id", num_shards=4)
    idx = str(tmp_path / "idx")
    build_index(base_p, idx, **kw)
    upsert_to_index(delta_p, idx)
    ref = str(tmp_path / "ref")
    build_index(merged_p, ref, **kw)
    si, sr = load_stats(idx), load_stats(ref)
    assert si["n_docs"] == sr["n_docs"]
    assert si["total_len"] == sr["total_len"]
    assert si["avgdl"] == sr["avgdl"]
    e, r = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES + ["xqtoken", "upserted marker"]:
        assert e.search(q, 10, "auto") == r.search(q, 10, "exhaustive"), q
    # the updated content actually serves (old version gone)
    top = e.search("xqtoken", 200)
    assert len(top) == len(mod) + len(new)


def test_delete_then_append_stats_exact(ray_session, tmp_path):
    """Appending into a tombstoned index must subtract the tombstoned
    rows from the refreshed global stats — avgdl stays bitwise equal to
    a rebuild over (survivors + delta)."""
    from stacksearch_ray.append import append_to_index, delete_from_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    t = pq.read_table(DOCS)
    del_ids = [i for i in t["doc_id"].to_pylist() if i % 5 == 0]
    delta = pa.table({
        "doc_id": pc.add(t["doc_id"], 10_000_000),
        "text": t["text"],
    })
    delta_p = str(tmp_path / "delta.parquet")
    pq.write_table(delta, delta_p)
    surv = t.filter(pc.invert(pc.is_in(
        t["doc_id"], value_set=pa.array(del_ids, pa.int64()))))
    ref_tbl = pa.concat_tables([surv.select(["doc_id", "text"]), delta])
    ref_p = str(tmp_path / "ref.parquet")
    pq.write_table(ref_tbl, ref_p)

    kw = dict(content_col="text", id_col="doc_id", num_shards=4)
    idx = str(tmp_path / "idx")
    build_index(DOCS, idx, **kw)
    delete_from_index(idx, del_ids)
    append_to_index(delta_p, idx)
    ref = str(tmp_path / "ref_idx")
    build_index(ref_p, ref, **kw)
    si, sr = load_stats(idx), load_stats(ref)
    assert si["n_docs"] == sr["n_docs"]
    assert si["total_len"] == sr["total_len"]
    assert si["avgdl"] == sr["avgdl"]
    e, r = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES:
        assert e.search(q, 10, "auto") == r.search(q, 10, "exhaustive"), q


def test_delete_by_query_equals_manual(ray_session, tmp_path):
    """delete_by_query(expr) == delete_from_index(matched set): same
    tombstones, same stats, same search results; idempotent on re-run;
    a no-match expression is a stats no-op."""
    from stacksearch_ray.append import delete_by_query, delete_from_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    kw = dict(content_col="text", id_col="doc_id", num_shards=4)
    idx = str(tmp_path / "idx")
    ref = str(tmp_path / "ref")
    build_index(DOCS, idx, **kw)
    build_index(DOCS, ref, **kw)

    expr = "merge AND sort"
    matched = QueryEngine(ref).search_boolean_dsl(expr)
    assert len(matched) > 0  # the probe must actually delete something
    s1 = delete_by_query(idx, expr)
    delete_from_index(ref, matched.tolist())
    s2 = load_stats(ref)
    for k in ("n_docs", "total_len", "avgdl", "n_tombstones"):
        assert s1[k] == s2[k], k
    e, r = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES:
        assert e.search(q, 10, "auto") == r.search(q, 10, "auto"), q

    # idempotent: matched docs are tombstoned -> second run finds nothing
    s3 = delete_by_query(idx, expr)
    assert s3["n_tombstones"] == s1["n_tombstones"]
    assert s3["n_docs"] == s1["n_docs"]

    # no-match expression: stats unchanged (and no new sidecars)
    s4 = delete_by_query(idx, "zzzmissingterm")
    assert s4["n_tombstones"] == s1["n_tombstones"]
    assert s4["tombstones_file"] == s1["tombstones_file"]


def test_query_grammar_after_delete_equals_rebuild(deleted_setup):
    """The shared boolean grammar keeps tombstoned docs out of every
    surface: the boolean DSL with a NOT, query_string with a phrase, a
    NOT and a prefix atom (zero-scored tail included), and the ES bool
    query with must_not all return ids and scores bitwise equal to a
    rebuild without the deleted docs."""
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.text import clean_query

    idx, ref, del_ids, _, _ = deleted_setup
    e, r = QueryEngine(idx), QueryEngine(ref)
    dsl = "(merge OR join) AND NOT window"
    assert (e.search_boolean_dsl(dsl).tolist()
            == r.search_boolean_dsl(dsl).tolist())
    qs = '"merge sort"~1 OR (stream^2 AND NOT window) OR quer*'
    want = r.search_query_string(qs, 10_000)
    assert e.search_query_string(qs, 10_000) == want
    assert any(s > 0 for _, s in want) and any(s == 0 for _, s in want)
    bq = (["merge", "sort"], ["stream"], ["window"])
    want = r.search_bool_query(*bq, k=10_000)
    assert e.search_bool_query(*bq, k=10_000) == want and want
    # the deletes reach the matched sets: some deleted doc holds both
    # must terms, so a grammar that ignored tombstones would differ
    t = pq.read_table(DOCS, columns=["doc_id", "text"])
    dead = set(del_ids)
    assert any({"merge", "sort"} <= set(clean_query(x, max_tokens=None))
               for d, x in zip(t["doc_id"].to_pylist(),
                               t["text"].to_pylist()) if d in dead)
