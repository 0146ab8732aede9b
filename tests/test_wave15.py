"""Wave-15 surfaces: delete_by_query (entry-level), span_not gating,
sliding-window chunking."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

DOCS = "/root/testdata/sf0.001/documents.parquet"
SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pos_index(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index

    idx = str(tmp_path_factory.mktemp("w15") / "idx")
    build_index(DOCS, idx, content_col="text", id_col="doc_id",
                num_shards=4, store_positions=True)
    return idx


def _brute_span_not(inc, exc, dist):
    """Per-doc pure-Python SpanNot gate over the raw corpus."""
    from stacksearch_ray.text import clean_query

    t = pq.read_table(DOCS, columns=["doc_id", "text"])
    ok = []
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = clean_query(txt)
        inc_pos = [i + 1 for i, w in enumerate(toks) if w == inc]
        exc_pos = [i + 1 for i, w in enumerate(toks) if w == exc]
        if any(all(abs(p - q) > dist for q in exc_pos) for p in inc_pos):
            ok.append(did)
    return sorted(ok)


def test_span_not_gate_matches_bruteforce(pos_index):
    from stacksearch_ray.query import QueryEngine

    eng = QueryEngine(pos_index)
    want = _brute_span_not("merge", "sort", 2)
    got = eng.search_span_not("merge", k=10_000, include_term="merge",
                              exclude_term="sort", dist=2)
    assert sorted(d for d, _ in got) == want
    # scores are the UNFILTERED query scores (search_filtered contract)
    full = dict(eng.search("merge", 10_000, "exhaustive"))
    for d, s in got:
        assert s == full[d]


def test_span_not_edge_cases(pos_index):
    from stacksearch_ray.query import QueryEngine

    eng = QueryEngine(pos_index)
    # exclude term absent from the corpus -> every include doc matches
    all_inc = eng.search_span_not("merge", k=10_000,
                                  include_term="merge",
                                  exclude_term="zzzmissing", dist=2)
    assert sorted(d for d, _ in all_inc) == sorted(
        eng.term_doc_ids("merge").tolist())
    # include term absent -> empty
    assert eng.search_span_not("merge", k=10, include_term="zzzmissing",
                               exclude_term="sort", dist=2) == []
    # dist large enough to cover every doc -> only docs with merge but
    # NO sort at all survive
    got = eng.search_span_not("merge", k=10_000, include_term="merge",
                              exclude_term="sort", dist=1_000_000)
    inc = set(eng.term_doc_ids("merge").tolist())
    exc = set(eng.term_doc_ids("sort").tolist())
    assert sorted(d for d, _ in got) == sorted(inc - exc)


def test_span_not_sharded_identity(pos_index):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(pos_index)
    sh = ShardedQueryEngine(pos_index, num_workers=3)
    want = eng.search_span_not("merge sort join", k=10,
                               include_term="merge", exclude_term="sort",
                               dist=2)
    got = sh.search_span_not("merge sort join", k=10,
                             include_term="merge", exclude_term="sort",
                             dist=2)
    assert got == want


def test_chunk_documents_bruteforce(ray_session):
    from stacksearch_ray.pipelines.documents import (
        CHUNK_S, CHUNK_W, chunk_documents)
    from stacksearch_ray.text import clean_query

    got = chunk_documents(SF).to_pandas().sort_values(
        ["doc_id", "chunk_id"]).reset_index(drop=True)

    t = pq.read_table(DOCS, columns=["doc_id", "text"])
    rows = []
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = clean_query(txt)
        n = len(toks)
        if n == 0:
            continue
        nch = 1 + max(0, -(-(n - CHUNK_W) // CHUNK_S))
        for c in range(nch):
            seg = toks[c * CHUNK_S: c * CHUNK_S + CHUNK_W]
            rows.append((did, c, c * CHUNK_S, len(seg), " ".join(seg)))
    rows.sort()
    assert len(got) == len(rows)
    for (did, c, st, nt, text), (_, r) in zip(rows, got.iterrows()):
        assert (r["doc_id"], r["chunk_id"], r["chunk_start"],
                r["n_tokens"], r["chunk_text"]) == (did, c, st, nt, text)
    # every chunk is bounded by the window width
    assert (got["n_tokens"] <= CHUNK_W).all()
    assert (got["n_tokens"] >= 1).all()


def test_update_by_query_equals_rebuild(ray_session, tmp_path):
    """update_by_query(expr, transform) == from-scratch rebuild over
    the transformed corpus (bitwise stats + search results), and a
    no-match expression is a no-op."""
    import pyarrow.compute as pc

    from stacksearch_ray.append import update_by_query
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    kw = dict(content_col="text", id_col="doc_id", num_shards=4)
    idx = str(tmp_path / "idx")
    build_index(DOCS, idx, **kw)

    suffix = " merge merge stream"

    def patch(b):
        new_text = pc.binary_join_element_wise(
            b["text"].combine_chunks(),
            pa.array([suffix] * b.num_rows, pa.string()), "")
        return b.set_column(b.schema.get_field_index("text"),
                            "text", new_text)

    expr = "hash AND batch"
    matched = QueryEngine(idx).search_boolean_dsl(expr)
    assert len(matched) > 0
    update_by_query(idx, expr, DOCS, patch)

    # reference: rebuild over the CASE-transformed corpus
    t = pq.read_table(DOCS)
    hit = pc.is_in(t["doc_id"], value_set=pa.array(matched, pa.int64()))
    new_text = pc.if_else(
        hit,
        pc.binary_join_element_wise(
            t["text"], pa.array([suffix] * t.num_rows, pa.string()), ""),
        t["text"])
    ref_tbl = t.set_column(t.schema.get_field_index("text"),
                           "text", new_text)
    ref_p = str(tmp_path / "ref.parquet")
    pq.write_table(ref_tbl, ref_p)
    ref = str(tmp_path / "ref_idx")
    build_index(ref_p, ref, **kw)

    si, sr = load_stats(idx), load_stats(ref)
    assert si["n_docs"] == sr["n_docs"]
    assert si["total_len"] == sr["total_len"]
    assert si["avgdl"] == sr["avgdl"]
    e, r = QueryEngine(idx), QueryEngine(ref)
    for q in ("merge sort join stream window", "hash batch", "merge"):
        assert e.search(q, 10, "auto") == r.search(q, 10, "exhaustive"), q

    # no-match expression: stats object unchanged
    s_before = load_stats(idx)
    update_by_query(idx, "zzzmissingterm", DOCS, patch)
    assert load_stats(idx) == s_before


def test_fim_transform_reassembly(ray_session):
    """prefix+middle+suffix tokens re-concatenate to exactly
    clean_query(text) for every doc, and the cut points are within
    [0, n] with a <= b."""
    from stacksearch_ray.pipelines.documents import fim_transform
    from stacksearch_ray.text import clean_query

    got = fim_transform(SF).to_pandas().set_index("doc_id")
    t = pq.read_table(DOCS, columns=["doc_id", "text"])
    seen = 0
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = clean_query(txt)
        if not toks:
            assert did not in got.index
            continue
        r = got.loc[did]
        a, b = int(r["cut_a"]), int(r["cut_b"])
        assert 0 <= a <= b <= len(toks)
        parts = [p for p in (r["prefix_text"], r["middle_text"],
                             r["suffix_text"]) if p]
        assert " ".join(parts).split() == toks
        assert r["prefix_text"].split() == toks[:a]
        assert r["middle_text"].split() == toks[a:b]
        seen += 1
    assert seen == len(got)


def test_sharded_export_matches_identity(pos_index):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    eng = QueryEngine(pos_index)
    sh = ShardedQueryEngine(pos_index, num_workers=3)
    for q in ("merge sort join", "stream", "zzzmissing"):
        ids1, s1 = eng.export_matches(q)
        ids2, s2 = sh.export_matches(q)
        assert ids1.tolist() == ids2.tolist(), q
        assert s1.tolist() == s2.tolist(), q  # bitwise


def test_snapshot_isolation_under_delete_by_query(ray_session, tmp_path):
    """The PIT contract behind pit_paged_search: a hardlink snapshot
    taken before delete_by_query keeps serving the pre-delete results
    bitwise while the live index mutates."""
    from stacksearch_ray.append import delete_by_query, snapshot_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    idx = str(tmp_path / "idx")
    snap = str(tmp_path / "snap")
    build_index(DOCS, idx, content_col="text", id_col="doc_id",
                num_shards=4)
    before = QueryEngine(idx).search("merge sort join stream window", 10)
    snapshot_index(idx, snap)
    delete_by_query(idx, "stream AND window")
    after_live = QueryEngine(idx).search("merge sort join stream window", 10)
    from_snap = QueryEngine(snap).search("merge sort join stream window", 10)
    assert from_snap == before
    assert after_live != before  # the live index really mutated


def test_sq8_quantizer_properties(ray_session):
    """SQ8 codes stay in [0, 255], corpus vec 0's code IS the clamped
    query code (the oracle identity), and recall@10 of the SQ shortlist
    vs exact cosine is sane on the real table."""
    import os

    import ray.data as rd

    from stacksearch_ray.functions.similarity import knn_brute_force
    from stacksearch_ray.functions.sq import (
        _emb_micros, sq8_encode, sq8_knn, sq8_train)

    emb = os.path.join(SF, "embeddings.parquet")
    ds = rd.read_parquet(emb, columns=["vec_id", "embedding"])
    mn, mx = sq8_train(ds)
    assert (mn <= mx).all()

    t = pq.read_table(emb)
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    codes = sq8_encode(_emb_micros(t, "embedding"), mn, mx)
    assert codes.min() >= 0 and codes.max() <= 255
    qm = np.floor(q * 1e6 + 0.5).astype(np.int64)[None, :]
    assert (sq8_encode(qm, mn, mx, clamp=True)[0] == codes[0]).all()

    short = sq8_knn(ds, q, k=20, mn=mn, mx=mx)
    exact = knn_brute_force(ds, q[None, :], k=10, max_rows=None)
    got = set(short["vec_id"].to_pylist())
    want = set(exact["vec_id"].to_pylist())
    assert len(got & want) >= 5  # quantized L2 finds most of the top-10


def test_reindex_from_index(ray_session, tmp_path):
    """reindex_index rebuilds from the stored _source: alive view only,
    layout-invariant scores, _source carried forward (the reindexed
    index is itself reindexable); raises without a stored content
    column."""
    from stacksearch_ray.append import delete_from_index, reindex_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    src = str(tmp_path / "src")
    build_index(DOCS, src, content_col="text", id_col="doc_id",
                meta_cols=("lang", "text"), num_shards=4)
    t = pq.read_table(DOCS, columns=["doc_id"])
    del_ids = [i for i in t["doc_id"].to_pylist() if i % 9 == 0]
    delete_from_index(src, del_ids)

    out = str(tmp_path / "out")
    reindex_index(src, out, content_col="text",
                  num_shards=2)
    so = load_stats(out)
    ss = load_stats(src)
    assert so["n_docs"] == ss["n_docs"]  # alive counts carried over
    assert so["avgdl"] == ss["avgdl"]
    e, r = QueryEngine(out), QueryEngine(src)
    for q in ("merge sort join stream window", "hash batch"):
        assert e.search(q, 10, "exhaustive") == r.search(q, 10, "auto"), q
    # reindexed docs keep the content column -> chain a second reindex
    out2 = str(tmp_path / "out2")
    reindex_index(out, out2, content_col="text",
                  num_shards=4)
    assert QueryEngine(out2).search("merge", 10) == r.search("merge", 10)

    # an index built WITHOUT stored content refuses to reindex
    bare = str(tmp_path / "bare")
    build_index(DOCS, bare, content_col="text", id_col="doc_id",
                meta_cols=("lang",), num_shards=2)
    import pytest as _pytest
    with _pytest.raises(ValueError, match="did not store"):
        reindex_index(bare, str(tmp_path / "nope"), content_col="text")


def test_mrl_shortlist_recall(ray_session):
    """Truncated-dim integer-dot shortlist keeps most of the exact
    full-dim top-10 on the real table, and the integer dot equals the
    micros dot computed brute-force."""
    import os

    import ray.data as rd

    from stacksearch_ray.functions.similarity import knn_brute_force
    from stacksearch_ray.functions.sq import mrl_knn

    emb = os.path.join(SF, "embeddings.parquet")
    ds = rd.read_parquet(emb, columns=["vec_id", "embedding"])
    t = pq.read_table(emb)
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    q = mat[0]
    short = mrl_knn(ds, q, k=50, dims=16)
    vm = np.floor(mat * 1e6 + 0.5).astype(np.int64)[:, :16]
    qm = np.floor(q * 1e6 + 0.5).astype(np.int64)[:16]
    dots = vm @ qm
    by_id = dict(zip(t["vec_id"].to_pylist(), dots.tolist()))
    for vid, dot in zip(short["vec_id"].to_pylist(),
                        short["dot"].to_pylist()):
        assert dot == by_id[vid]
    # recall caveat: these synthetic embeddings are NOT MRL-trained (no
    # front-loaded signal), so a 16/64-dim shortlist only bounds recall
    # loosely — the entry's 50-candidate stage still finds the winner
    exact = knn_brute_force(ds, q[None, :], k=10, max_rows=None)
    overlap = set(short["vec_id"].to_pylist()) & set(
        exact["vec_id"].to_pylist())
    assert len(overlap) >= 3
    assert exact["vec_id"][0].as_py() in set(short["vec_id"].to_pylist())


def test_stored_source_survives_append(ray_session, tmp_path):
    """meta_cols persist in stats and appends write the SAME docs-sidecar
    columns, so a stored-_source index stays reindexable after an
    append (the gap the qlifecycle drill caught)."""
    import pyarrow.compute as pc

    from stacksearch_ray.append import append_to_index, reindex_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    src = str(tmp_path / "src")
    build_index(DOCS, src, content_col="text", id_col="doc_id",
                meta_cols=("lang", "text"), num_shards=2)
    assert load_stats(src)["meta_cols"] == ["lang", "text"]

    t = pq.read_table(DOCS)
    delta = t.set_column(t.schema.get_field_index("doc_id"), "doc_id",
                         pc.add(t["doc_id"], 10_000_000)).select(
        ["doc_id", "text", "lang"])
    delta_p = str(tmp_path / "delta.parquet")
    pq.write_table(delta, delta_p)
    append_to_index(delta_p, src)

    out = str(tmp_path / "out")
    reindex_index(src, out, content_col="text",
                  num_shards=2)  # raises if text missing
    e, r = QueryEngine(out), QueryEngine(src)
    assert e.search("merge sort", 10, "exhaustive") == \
        r.search("merge sort", 10, "auto")


def test_t_test_and_weighted_avg_bruteforce(ray_session):
    """Pandas replay of the Welch t and weighted average from the raw
    lineitem table (same integer conventions)."""
    import math
    import os

    from stacksearch_ray.micros import to_micros
    from stacksearch_ray.pipelines.documents import (
        t_test_agg, weighted_avg_agg)

    li = pq.read_table(os.path.join(SF, "lineitem.parquet"),
                       columns=["l_returnflag", "l_quantity",
                                "l_extendedprice"]).to_pandas()
    y = np.floor(li["l_extendedprice"].to_numpy() + 0.5).astype(np.int64)

    def group_stats(flag):
        m = (li["l_returnflag"] == flag).to_numpy()
        n = int(m.sum())
        s, ss = int(y[m].sum()), int((y[m].astype(object) ** 2).sum())
        mean = float(s) / n
        var = float(n * ss - s * s) / n / (n - 1)
        return n, mean, var

    n1, m1, v1 = group_stats("R")
    n2, m2, v2 = group_stats("N")
    want_t = to_micros((m1 - m2) / math.sqrt(v1 / n1 + v2 / n2))
    got = t_test_agg(SF)
    assert got["t_micros"][0].as_py() == want_t
    assert got["n_a"][0].as_py() == n1 and got["n_b"][0].as_py() == n2

    w = li["l_quantity"].to_numpy().astype(np.int64)
    v = np.floor(li["l_extendedprice"].to_numpy() * 100 + 0.5
                 ).astype(np.int64)
    got_w = weighted_avg_agg(SF).to_pandas().set_index("l_returnflag")
    for flag in got_w.index:
        m = (li["l_returnflag"] == flag).to_numpy()
        want = to_micros(float(int((w[m] * v[m]).sum()))
                         / int(w[m].sum()))
        assert got_w.loc[flag, "wavg_cents_micros"] == want


def test_reindex_with_transform(ray_session, tmp_path):
    """reindex_index(transform_batch=...) applies the ES _reindex
    'script' to the alive rows: the reindexed index equals a rebuild
    over the transformed survivor corpus."""
    import pyarrow.compute as pc

    from stacksearch_ray.append import delete_from_index, reindex_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    src = str(tmp_path / "src")
    build_index(DOCS, src, content_col="text", id_col="doc_id",
                meta_cols=("text",), num_shards=2)
    t = pq.read_table(DOCS, columns=["doc_id", "text"])
    del_ids = [i for i in t["doc_id"].to_pylist() if i % 6 == 0]
    delete_from_index(src, del_ids)

    suffix = " merge merge"

    def script(b):
        new_text = pc.binary_join_element_wise(
            b["text"].combine_chunks(),
            pa.array([suffix] * b.num_rows, pa.string()), "")
        return b.set_column(b.schema.get_field_index("text"),
                            "text", new_text)

    out = str(tmp_path / "out")
    reindex_index(src, out, content_col="text", transform_batch=script,
                  num_shards=2)

    surv = t.filter(pc.invert(pc.is_in(
        t["doc_id"], value_set=pa.array(del_ids, pa.int64()))))
    ref_tbl = surv.set_column(
        surv.schema.get_field_index("text"), "text",
        pc.binary_join_element_wise(
            surv["text"], pa.array([suffix] * surv.num_rows, pa.string()),
            ""))
    ref_p = str(tmp_path / "ref.parquet")
    pq.write_table(ref_tbl, ref_p)
    ref = str(tmp_path / "ref_idx")
    build_index(ref_p, ref, content_col="text", id_col="doc_id",
                num_shards=2)
    e, r = QueryEngine(out), QueryEngine(ref)
    for q in ("merge sort join stream window", "merge"):
        assert e.search(q, 10, "exhaustive") == \
            r.search(q, 10, "exhaustive"), q
