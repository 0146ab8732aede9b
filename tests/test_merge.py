"""merge_indexes: file-level union of independently built indexes ==
full rebuild (search bitwise; compacted-merge segments bitwise)."""

import os

import pyarrow.parquet as pq
import pytest

from stacksearch_ray.corpus import write_corpus

QUERIES = ["Determine a user's timezone", "def return var_1",
           "helper_3 field_7 import", "numpy python", "zzz_missing"]


@pytest.fixture(scope="module")
def merged(ray_session, tmp_path_factory):
    from stacksearch_ray.append import merge_indexes
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("merge")
    full = str(root / "full")
    write_corpus(full, 300, rows_per_file=100)
    parts = sorted(f"{full}/{n}" for n in os.listdir(full))
    idx_a, idx_b, idx_m = (str(root / n) for n in ("a", "b", "m"))
    idx_full = str(root / "rebuild")
    build_index(parts[:2], idx_a, num_shards=4)
    build_index(parts[2:], idx_b, num_shards=4)
    build_index(full, idx_full, num_shards=4)
    stats = merge_indexes([idx_a, idx_b], idx_m)
    return idx_m, idx_full, stats, root


def test_merge_matches_rebuild_search(merged):
    from stacksearch_ray.build import load_stats
    from stacksearch_ray.query import QueryEngine

    idx_m, idx_full, stats, _ = merged
    full_stats = load_stats(idx_full)
    assert stats["n_docs"] == full_stats["n_docs"]
    assert stats["avgdl"] == full_stats["avgdl"]  # bitwise (sum of ints / int)
    m, f = QueryEngine(idx_m), QueryEngine(idx_full)
    for q in QUERIES:
        assert m.search(q, 10) == f.search(q, 10), q
        # the merged index routes like the rebuild of its corpus
        assert m.plan(q, 10)["method"] == f.plan(q, 10)["method"], q
    # integrity audit holds on the merged artifacts (keys repeat across
    # the sources' files, whose docs are disjoint)
    from stacksearch_ray.fsck import fsck_index

    rep = fsck_index(idx_m)
    assert rep.ok, rep.errors


def test_compacted_merge_bitwise_equals_rebuild(merged):
    from stacksearch_ray.append import compact_index
    from stacksearch_ray.query import QueryEngine

    idx_m, idx_full, _, _ = merged
    compact_index(idx_m)
    a = pq.read_table(os.path.join(idx_m, "segments")).to_pandas()
    b = pq.read_table(os.path.join(idx_full, "segments")).to_pandas()
    key = ["term", "shard"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    for col in a.columns:
        assert a[col].tolist() == b[col].tolist(), col
    m, f = QueryEngine(idx_m), QueryEngine(idx_full)
    for q in QUERIES:
        for method in ("exhaustive", "bmax"):
            assert m.search(q, 10, method) == f.search(q, 10, method), (q, method)


def test_merge_rejects_bad_inputs(merged, ray_session, tmp_path):
    from stacksearch_ray.append import delete_from_index, merge_indexes
    from stacksearch_ray.build import build_index

    idx_m, idx_full, _, root = merged
    # fewer than two sources
    with pytest.raises(ValueError, match="at least two"):
        merge_indexes([idx_full], str(tmp_path / "x"))
    # config mismatch (different shard count)
    other = str(tmp_path / "othershards")
    write_corpus(str(tmp_path / "c2"), 50, rows_per_file=50)
    build_index(str(tmp_path / "c2"), other, num_shards=2)
    with pytest.raises(ValueError, match="num_shards"):
        merge_indexes([idx_full, other], str(tmp_path / "y"))
    # overlapping doc ids (same corpus twice)
    from stacksearch_ray.build import DocIdCollisionError

    dup = str(tmp_path / "dup")
    build_index(str(tmp_path / "c2"), dup, num_shards=2)
    with pytest.raises(DocIdCollisionError):
        merge_indexes([other, dup], str(tmp_path / "z"))
    # a tombstoned id in one source colliding with the same PHYSICAL id
    # in another source is still a collision (the dead row would mask
    # the live one)
    some_id = int(pq.read_table(os.path.join(other, "docs"),
                                columns=["doc_id"])["doc_id"][0].as_py())
    delete_from_index(other, [some_id])
    with pytest.raises(DocIdCollisionError):
        merge_indexes([other, dup], str(tmp_path / "w"))


def test_merge_carries_tombstones(ray_session, tmp_path_factory):
    """Sources with pending tombstones merge WITHOUT compacting first:
    tombstone sets union, per-term deleted-df sidecars sum, and the
    merged index scores bitwise like a rebuild of (all docs - deleted);
    compacting the merged index then purges physically, segments
    bitwise equal to that rebuild."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from stacksearch_ray.append import (
        compact_index,
        delete_from_index,
        merge_indexes,
    )
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    docs = "/root/testdata/sf0.001/documents.parquet"
    root = tmp_path_factory.mktemp("merge_tomb")
    t = pq.read_table(docs)
    ids = t["doc_id"]
    half_a = t.filter(pc.equal(pc.bit_wise_and(ids, 1), 0))
    half_b = t.filter(pc.equal(pc.bit_wise_and(ids, 1), 1))
    del_a = half_a["doc_id"].to_pylist()[::9]
    del_b = half_b["doc_id"].to_pylist()[::13]
    surv = t.filter(pc.invert(pc.is_in(
        ids, value_set=pa.array(del_a + del_b, pa.int64()))))
    pa_p, pb_p, surv_p = (str(root / f"{n}.parquet")
                          for n in ("a", "b", "surv"))
    pq.write_table(half_a, pa_p)
    pq.write_table(half_b, pb_p)
    pq.write_table(surv, surv_p)
    kw = dict(content_col="text", id_col="doc_id", num_shards=4)
    idx_a, idx_b, idx_m, ref = (str(root / n)
                                for n in ("a", "b", "m", "ref"))
    build_index(pa_p, idx_a, **kw)
    build_index(pb_p, idx_b, **kw)
    delete_from_index(idx_a, del_a)
    delete_from_index(idx_b, del_b)
    build_index(surv_p, ref, **kw)
    stats = merge_indexes([idx_a, idx_b], idx_m)
    rs = load_stats(ref)
    assert stats["n_docs"] == rs["n_docs"]
    assert stats["total_len"] == rs["total_len"]
    assert stats["n_tombstones"] == len(del_a) + len(del_b)
    m, r = QueryEngine(idx_m), QueryEngine(ref)
    for q in QUERIES:
        want = r.search(q, 10, "exhaustive")
        for method in ("auto", "exhaustive", "bmax"):
            assert m.search(q, 10, method) == want, (q, method)
    # compact purges: segments bitwise == the rebuild's
    compact_index(idx_m)
    a = pq.read_table(os.path.join(idx_m, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    b = pq.read_table(os.path.join(ref, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    for col in a.columns:
        assert a[col].tolist() == b[col].tolist(), col
    m2 = QueryEngine(idx_m)
    for q in QUERIES:
        assert m2.search(q, 10, "bmax") == r.search(q, 10, "bmax"), q


# ---------------- reshard (compact_index(num_shards=...)) ----------------


def test_reshard_equals_rebuild(ray_session, tmp_path_factory):
    from stacksearch_ray.append import compact_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("reshard")
    corpus = str(root / "c")
    write_corpus(corpus, 300, rows_per_file=100)
    idx = str(root / "idx4")
    ref = str(root / "ref8")
    build_index(corpus, idx, num_shards=4)
    build_index(corpus, ref, num_shards=8)
    compact_index(idx, num_shards=8)
    assert load_stats(idx)["num_shards"] == 8
    # segments bitwise equal to a from-scratch 8-shard build
    a = pq.read_table(os.path.join(idx, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    b = pq.read_table(os.path.join(ref, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    for col in a.columns:
        assert a[col].tolist() == b[col].tolist(), col
    # docs table carries the new shard assignment
    da = pq.read_table(os.path.join(idx, "docs")).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    db = pq.read_table(os.path.join(ref, "docs")).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert da["shard"].tolist() == db["shard"].tolist()
    rep = fsck_index(idx)
    assert rep.ok, rep.errors
    m, f = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES:
        for method in ("exhaustive", "bmax"):
            assert m.search(q, 10, method) == f.search(q, 10, method), (q, method)


def test_reshard_with_tombstones_purges_and_rekeys(ray_session,
                                                   tmp_path_factory):
    from stacksearch_ray.append import compact_index, delete_from_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("reshard_tomb")
    corpus = str(root / "c")
    write_corpus(corpus, 200, rows_per_file=100)
    idx = str(root / "idx")
    build_index(corpus, idx, num_shards=4, store_positions=True)
    all_ids = pq.read_table(os.path.join(idx, "docs"),
                            columns=["doc_id"])["doc_id"].to_pylist()
    dead = sorted(all_ids)[::7]
    delete_from_index(idx, dead)
    compact_index(idx, num_shards=16)
    st = load_stats(idx)
    assert st["num_shards"] == 16
    assert not st.get("tombstones_file")
    # reference: full rebuild at 16 shards, same deletes, then compact
    ref = str(root / "ref")
    build_index(corpus, ref, num_shards=16, store_positions=True)
    delete_from_index(ref, dead)
    compact_index(ref)
    a = pq.read_table(os.path.join(idx, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    b = pq.read_table(os.path.join(ref, "segments")).to_pandas() \
        .sort_values(["term", "shard"]).reset_index(drop=True)
    for col in a.columns:
        assert a[col].tolist() == b[col].tolist(), col
    m, f = QueryEngine(idx), QueryEngine(ref)
    for q in QUERIES[:3]:
        assert m.search(q, 10) == f.search(q, 10), q
    ids_m, cnt_m = m.phrase_occurrences("def return")
    ids_f, cnt_f = f.phrase_occurrences("def return")
    assert ids_m.tolist() == ids_f.tolist()
    assert cnt_m.tolist() == cnt_f.tolist()


def test_reshard_interrupted_is_recoverable(ray_session, tmp_path):
    """A crash mid-reshard (docs already rekeyed, segments not yet)
    leaves a SERVING-correct index — scoring never reads docs.shard —
    and re-running the reshard completes it (fsck green, == rebuild)."""
    from stacksearch_ray.append import compact_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    corpus = str(tmp_path / "c")
    write_corpus(corpus, 120, rows_per_file=60)
    idx = str(tmp_path / "i")
    build_index(corpus, idx, num_shards=2)
    before = QueryEngine(idx).search("def return var_1", 5)

    # simulate the crash: run the docs-rekey half by hand (exactly what
    # compact_index(num_shards=8) does first), then "crash" before the
    # segments pipeline
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from stacksearch_ray.schema import shard_of

    docs_dir = os.path.join(idx, "docs")

    def rekey(bt: pa.Table) -> pa.Table:
        ids = np.asarray(bt["doc_id"].combine_chunks()).astype(np.int64)
        i = bt.column_names.index("shard")
        return bt.set_column(i, "shard",
                             pa.array(shard_of(ids, 8), pa.int32()))

    import shutil

    tmp_docs = docs_dir + ".new"
    rd.read_parquet(docs_dir).map_batches(
        rekey, batch_format="pyarrow").write_parquet(tmp_docs)
    shutil.rmtree(docs_dir)
    os.rename(tmp_docs, docs_dir)

    # crashed state: docs rekeyed to 8, segments/stats still at 2 —
    # single-process serving unaffected
    assert QueryEngine(idx).search("def return var_1", 5) == before
    # re-running the reshard completes it
    compact_index(idx, num_shards=8)
    assert load_stats(idx)["num_shards"] == 8
    rep = fsck_index(idx)
    assert rep.ok, rep.errors
    assert QueryEngine(idx).search("def return var_1", 5) == before


def test_federated_matches_merged(merged):
    """FederatedQueryEngine over the two sources == the physically
    merged index, bitwise — scores, order, everything (robust to test
    order: compaction keeps idx_m's search results identical)."""
    from stacksearch_ray.query import FederatedQueryEngine, QueryEngine

    idx_m, _, _, root = merged
    fed = FederatedQueryEngine([str(root / "a"), str(root / "b")])
    m = QueryEngine(idx_m)
    assert fed.n_docs == m.n_docs
    assert fed.avgdl == m.avgdl  # bitwise: both are sum/sum
    for q in QUERIES:
        assert fed.search(q, 10) == m.search(q, 10), q
    # deep k too (the whole ranking, not just the top page)
    q = "def return var_1"
    assert fed.search(q, 10_000) == m.search(q, 10_000)
    # explain sums to the search score bitwise
    top = fed.search(q, 1)
    if top:
        ex = fed.explain(q, top[0][0])
        assert ex["score"] == top[0][1]


def test_federated_with_tombstoned_source(merged, tmp_path):
    """A source carrying pending deletes federates exactly like
    merge_indexes treats it: corrected dfs, corrected n_docs/avgdl."""
    import shutil

    from stacksearch_ray.append import delete_from_index, merge_indexes
    from stacksearch_ray.query import FederatedQueryEngine, QueryEngine

    _, _, _, root = merged
    a2 = str(tmp_path / "a2")
    shutil.copytree(str(root / "a"), a2)
    eng_a = QueryEngine(a2)
    victims = eng_a.doclens.ids[:3].tolist()
    delete_from_index(a2, victims)
    m2 = str(tmp_path / "m2")
    merge_indexes([a2, str(root / "b")], m2)
    fed = FederatedQueryEngine([a2, str(root / "b")])
    m = QueryEngine(m2)
    assert fed.n_docs == m.n_docs
    for q in QUERIES:
        assert fed.search(q, 10) == m.search(q, 10), q
    for d, _s in fed.search("def return var_1", 10):
        assert d not in victims


def test_federated_rejects_overlapping_ids(merged):
    import pytest as _pytest

    from stacksearch_ray.query import FederatedQueryEngine

    _, idx_full, _, root = merged
    with _pytest.raises(ValueError, match="doc ids"):
        FederatedQueryEngine([str(root / "a"), idx_full])
