"""Wave-16 semantics: ES bucket_sort / bucket_selector pipeline aggs and
the geotile-style integer grid + geo_centroid agg. The DuckDB oracle
(selfcheck) pins exact values; these pin the MEANING — truncation
window, per-bucket predicate, grid-cell containment of centroids."""

import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


import pytest


@pytest.fixture(scope="module")
def pos_idx_001(ray_session, tmp_path_factory):
    """ONE positional sf0.001 index for every retrieval test in this
    module (the suite's slowest setup step — build it once)."""
    from stacksearch_ray.build import build_index

    idx = str(tmp_path_factory.mktemp("w16") / "idx")
    build_index("/root/testdata/sf0.001/documents.parquet", idx,
                content_col="text", id_col="doc_id",
                num_shards=4, store_positions=True)
    return idx


def _monthly_hist():
    t = pq.read_table(os.path.join(SF, "orders.parquet"),
                      columns=["o_orderdate", "o_orderpriority"]).to_pandas()
    t["y"] = t["o_orderdate"].dt.year.astype(np.int64)
    t["m"] = t["o_orderdate"].dt.month.astype(np.int64)
    t["urgent"] = (t["o_orderpriority"] == "1-URGENT").astype(np.int64)
    g = (t.groupby(["y", "m"], as_index=False)
         .agg(n=("urgent", "size"), n_urgent=("urgent", "sum")))
    return g


def test_bucket_sort_is_the_from_size_window(ray_session):
    from stacksearch_ray.pipelines.documents import (
        BSORT_FROM, BSORT_SIZE, bucket_sort_pipeline)

    out = bucket_sort_pipeline(SF).to_pandas()
    g = _monthly_hist()
    order = np.lexsort((g["m"].to_numpy(), g["y"].to_numpy(),
                        -g["n"].to_numpy()))
    ref = g.iloc[order[BSORT_FROM:BSORT_FROM + BSORT_SIZE]]
    assert out["pos"].tolist() == list(
        range(BSORT_FROM + 1, BSORT_FROM + 1 + len(ref)))
    assert out["y"].tolist() == ref["y"].tolist()
    assert out["m"].tolist() == ref["m"].tolist()
    assert out["n"].tolist() == ref["n"].tolist()
    # sorted by count DESC inside the window
    assert (np.diff(out["n"].to_numpy()) <= 0).all()


def test_bucket_selector_keeps_exactly_the_predicate_rows(ray_session):
    from stacksearch_ray.pipelines.documents import (
        BSEL_NUM, bucket_selector_pipeline)

    out = bucket_selector_pipeline(SF).to_pandas()
    g = _monthly_hist()
    ref = g[g["n_urgent"] * BSEL_NUM > g["n"]].sort_values(["y", "m"])
    assert out[["y", "m", "n", "n_urgent"]].reset_index(drop=True).equals(
        ref[["y", "m", "n", "n_urgent"]].reset_index(drop=True))
    assert (out["n_urgent"].to_numpy() * BSEL_NUM
            > out["n"].to_numpy()).all()


def test_geo_grid_partitions_and_centroids_contained(ray_session):
    from stacksearch_ray.pipelines.documents import GEO_GRID_N, geo_grid_agg

    out = geo_grid_agg(SF).to_pandas()
    n_cust = pq.read_metadata(
        os.path.join(SF, "customer.parquet")).num_rows
    # every customer lands in exactly one cell
    assert int(out["n"].sum()) == n_cust
    cells = out["cell"].to_numpy(np.int64)
    assert cells.min() >= 0 and cells.max() < GEO_GRID_N * GEO_GRID_N
    assert (np.diff(cells) > 0).all()  # unique, sorted
    # centroid containment: the floor-average of points in a cell lies
    # within that cell's lat/lon band (up to the floor's 1-micro slack)
    cy, cx = cells // GEO_GRID_N, cells % GEO_GRID_N
    lat = out["centroid_lat_micros"].to_numpy(np.int64)
    lon = out["centroid_lon_micros"].to_numpy(np.int64)
    # cell bounds from the forward map: cy = (90e6 - lat)*N // 180000001
    lat_hi = 90_000_000 - np.ceil(cy * 180_000_001 / GEO_GRID_N
                                  ).astype(np.int64) + 1
    lat_lo = 90_000_000 - ((cy + 1) * 180_000_001 // GEO_GRID_N)
    lon_lo = np.ceil(cx * 360_000_001 / GEO_GRID_N).astype(np.int64) \
        - 180_000_000
    lon_hi = ((cx + 1) * 360_000_001 // GEO_GRID_N) - 180_000_000
    assert (lat >= lat_lo - 1).all() and (lat <= lat_hi).all()
    assert (lon >= lon_lo - 1).all() and (lon <= lon_hi).all()


# ---------------- simple_query_string ----------------


def test_sqs_translation_grammar():
    from stacksearch_ray.query import simple_query_string_to_dsl as f

    # Lucene SimpleQueryParser semantics: '-' is MUST_NOT at its
    # parenthesis level REGARDLESS of the default operator — negations
    # hoist out of the positive expression
    assert f("foo -bar") == "( foo ) AND NOT ( bar )"
    assert f("foo -bar", "and") == "( foo ) AND NOT ( bar )"
    assert f("a b -c") == "( a OR b ) AND NOT ( c )"
    assert f('"merge sort"~2 +stream | join -wind*') == \
        '( "merge sort"~2 AND stream OR join ) AND NOT ( wind* )'
    # a level with no positive clause matches NOTHING (None), and the
    # nothing propagates: MUST of nothing poisons, SHOULD of nothing
    # drops, MUST_NOT of nothing excludes nothing
    assert f("-bar") is None
    assert f("a (-b)", "and") is None
    assert f("a | (-b)") == "a"
    assert f("a -(-b)", "and") == "a"
    # '^' is literal analyzed text in simple_query_string, not a boost
    assert f("stream^2 spark", "and") == "stream2 AND spark"
    # parens group; explicit ops pass through
    assert f("a (b | c)", "and") == "a AND ( b OR c )"
    import pytest as _pytest
    with _pytest.raises(ValueError):
        f("   ")
    with _pytest.raises(ValueError):
        f("a (b")


def test_sqs_equals_translated_query_string(pos_idx_001):
    from stacksearch_ray.query import (QueryEngine, ShardedQueryEngine,
                                       simple_query_string_to_dsl)

    idx = pos_idx_001
    eng = QueryEngine(idx)
    cases = [('"sort join"~2 +stream | spark -quer*', "and"),
             ("merge sort -window", "or"),
             ("(spark | batch) +filter", "and")]
    for qs, op in cases:
        direct = eng.search_query_string(
            simple_query_string_to_dsl(qs, op), 10)
        assert eng.search_simple_query_string(qs, 10, op) == direct, qs
    sharded = ShardedQueryEngine(idx, num_workers=3)
    for qs, op in cases:
        assert sharded.search_simple_query_string(qs, 10, op) == \
            eng.search_simple_query_string(qs, 10, op), qs


# ---------------- combined_fields ----------------


def test_combined_fields_matches_bruteforce_replay(ray_session):
    """Independent pandas/numpy replay of Lucene CombinedFieldQuery over
    the raw sf0.001 corpus: merge tf/dl across the title/body split
    FIRST (weighted integer sums), then one BM25 pass with doc-level
    df. Pins ids AND micros of the entry output."""
    import math
    from collections import Counter

    from stacksearch_ray.pipelines.documents import (
        BM25_QUERY, CF_B, CF_K1, CF_WB, CF_WT, TITLE_K,
        combined_fields_search)
    from stacksearch_ray.micros import to_micros
    from stacksearch_ray.text import clean_query

    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    toks = {d: clean_query(x or "") for d, x in
            zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    toks = {d: v for d, v in toks.items() if v}  # empty-doc filter
    qterms = sorted(set(clean_query(BM25_QUERY)))
    n_docs = float(len(toks))
    sum_t = float(sum(min(len(v), TITLE_K) for v in toks.values()))
    sum_b = float(sum(max(len(v) - TITLE_K, 0) for v in toks.values()))
    avgdl = (CF_WT * sum_t + CF_WB * sum_b) / n_docs
    scores = {}
    for q in qterms:
        hits = {d: (Counter(v[:TITLE_K])[q], Counter(v[TITLE_K:])[q])
                for d, v in toks.items()}
        hits = {d: c for d, c in hits.items() if c[0] or c[1]}
        if not hits:
            continue
        df = float(len(hits))
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        for d, (ct, cb) in hits.items():
            ctf = CF_WT * float(ct) + CF_WB * float(cb)
            cdl = (CF_WT * float(min(len(toks[d]), TITLE_K))
                   + CF_WB * float(max(len(toks[d]) - TITLE_K, 0)))
            contrib = idf * ((CF_K1 + 1.0) * ctf
                             / (ctf + CF_K1 * (1.0 - CF_B
                                               + CF_B * (cdl / avgdl))))
            scores[d] = scores.get(d, 0.0) + contrib
    ref = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    out = combined_fields_search(SF).to_pandas()
    assert out["doc_id"].tolist() == [d for d, _ in ref]
    assert out["score_micros"].tolist() == [to_micros(s) for _, s in ref]


# ---------------- semdedup ----------------


def test_semdedup_keepfirst_matches_bruteforce(ray_session, tmp_path):
    """Multi-cell synthetic vectors (the sf tables k-means-degenerate to
    one cell — NOTES trap): SemDeDup's keep mask must equal a brute-
    force replay that assigns cells by exact nearest-centroid and drops
    on any lower-id cell-mate at the micros threshold; vectors in
    DIFFERENT cells are never paired even at sim ≈ 1."""
    import ray.data as rd

    from stacksearch_ray.functions.ivf import IVFIndex, assign_centroids
    from stacksearch_ray.functions.similarity import _emb_matrix
    from stacksearch_ray.micros import to_micros

    rng = np.random.default_rng(7)
    base = rng.standard_normal((6, 8))
    rows, ids = [], []
    for i in range(120):
        proto = base[i % 6]
        # half the rows are small perturbations → same-cell near-dups
        v = proto + (0.02 if i % 2 else 0.6) * rng.standard_normal(8)
        rows.append(v.tolist())
        ids.append(i)
    src = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(rows, pa.list_(pa.float32())),
    }), src)
    idx_dir = str(tmp_path / "ivf")
    IVFIndex.build(rd.read_parquet(src), idx_dir, k=6, iters=4, seed=17)

    TAU = 900_000  # cosine ≥ 0.90
    t = pq.read_table(src)
    x = _emb_matrix(t, "embedding")
    order = np.argsort(t["vec_id"].to_numpy())
    x = x[order]
    cents = np.load(os.path.join(idx_dir, "centroids.npy"))
    cid = assign_centroids(x, cents)
    n = np.sqrt((x * x).sum(axis=1))
    sims = to_micros((x @ x.T) / np.outer(n, n))
    same = cid[:, None] == cid[None, :]
    drop_ref = (np.tril(sims >= TAU, -1) & np.tril(same, -1)).any(axis=1)
    assert 0 < drop_ref.sum() < len(ids)  # non-trivial both ways

    # drive the entry code path directly: monkeypatch CACHE_ROOT + tau
    import stacksearch_ray.pipelines.documents as docs_mod
    old_root, old_tau = docs_mod.CACHE_ROOT, docs_mod.SEMDEDUP_T_MICROS
    try:
        docs_mod.SEMDEDUP_T_MICROS = TAU
        cache = str(tmp_path / "cache")
        docs_mod.CACHE_ROOT = cache
        tag = str(tmp_path / "sf").strip("/").replace("/", "_")
        os.makedirs(os.path.join(cache, tag), exist_ok=True)
        import shutil
        shutil.copytree(idx_dir, os.path.join(cache, tag, "ivf_index"))
        sf_dir = str(tmp_path / "sf")
        os.makedirs(sf_dir, exist_ok=True)
        shutil.copy(src, os.path.join(sf_dir, "embeddings.parquet"))
        out = docs_mod.semdedup_corpus(sf_dir).to_pandas()
    finally:
        docs_mod.CACHE_ROOT, docs_mod.SEMDEDUP_T_MICROS = old_root, old_tau
    assert out["vec_id"].tolist() == list(range(120))
    assert out["cell"].to_numpy(np.int64).tolist() == cid.tolist()
    assert (out["keep"].to_numpy(np.int64) == (~drop_ref).astype(np.int64)).all()


# ---------------- intervals query ----------------


def test_intervals_match_bruteforce_and_sharded(pos_idx_001):
    """intervals_match == a per-doc pure-Python enumeration of EVERY
    ordered (sort, join) occurrence pair (not just the greedy minimal
    ones) under the gap bound and the not_containing filter — validates
    the minimal-interval-per-start exactness argument. Sharded twin is
    bitwise the single engine."""
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine
    from stacksearch_ray.text import clean_query

    idx = pos_idx_001
    eng = QueryEngine(idx)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])

    def brute(t1, t2, gaps, excl):
        hits = []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            toks = clean_query(txt or "")
            P1 = [i for i, w in enumerate(toks) if w == t1]
            P2 = [i for i, w in enumerate(toks) if w == t2]
            PX = [i for i, w in enumerate(toks) if w == excl] if excl \
                else []
            # ALL pairs, not just greedy minimal ones
            if any(s < e and (e - s + 1) <= 2 + gaps
                   and not any(s <= x <= e for x in PX)
                   for s in P1 for e in P2):
                hits.append(did)
        return sorted(hits)

    for gaps, excl in [(2, "merge"), (0, None), (5, "stream"),
                       (2, None)]:
        got = eng.intervals_match(["sort", "join"], max_gaps=gaps,
                                  not_containing=excl).tolist()
        assert got == brute("sort", "join", gaps, excl), (gaps, excl)

    sh = ShardedQueryEngine(idx, num_workers=3)
    assert sh.search_intervals(["sort", "join"], 10, max_gaps=2,
                               not_containing="merge") == \
        eng.search_intervals(["sort", "join"], 10, max_gaps=2,
                             not_containing="merge")


def test_span_containing_bruteforce_and_sharded(pos_idx_001):
    """span_containing_match == a per-doc enumeration of EVERY ordered
    (merge, sort) pair under the gap bound, kept iff SOME pair contains
    a 'join' occurrence — validates the widest-reachable-interval
    construction (greedy-earliest prefix + latest final within budget).
    Sharded twin bitwise the single engine."""
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine
    from stacksearch_ray.text import clean_query

    idx = pos_idx_001
    eng = QueryEngine(idx)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])

    def brute(b1, b2, little, gaps):
        hits = []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            toks = clean_query(txt or "")
            P1 = [i for i, w in enumerate(toks) if w == b1]
            P2 = [i for i, w in enumerate(toks) if w == b2]
            PX = [i for i, w in enumerate(toks) if w == little]
            if any(s < e and (e - s + 1) <= 2 + gaps
                   and any(s <= x <= e for x in PX)
                   for s in P1 for e in P2):
                hits.append(did)
        return sorted(hits)

    for gaps in (0, 2, 6, 12):
        got = eng.span_containing_match(["merge", "sort"], "join",
                                        max_gaps=gaps).tolist()
        assert got == brute("merge", "sort", "join", gaps), gaps

    # 3-term big span: the greedy-earliest prefix chain must still find
    # every containment an exhaustive chain enumeration finds
    def brute3(b1, b2, b3, little, gaps):
        hits = []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            toks = clean_query(txt or "")
            P1 = [i for i, w in enumerate(toks) if w == b1]
            P2 = [i for i, w in enumerate(toks) if w == b2]
            P3 = [i for i, w in enumerate(toks) if w == b3]
            PX = [i for i, w in enumerate(toks) if w == little]
            if any(s < m < e and (e - s + 1) <= 3 + gaps
                   and any(s <= x <= e for x in PX)
                   for s in P1 for m in P2 for e in P3):
                hits.append(did)
        return sorted(hits)

    for gaps in (0, 4, 10):
        got = eng.span_containing_match(["merge", "sort", "stream"],
                                        "join", max_gaps=gaps).tolist()
        assert got == brute3("merge", "sort", "stream", "join",
                             gaps), gaps

    sh = ShardedQueryEngine(idx, num_workers=3)
    assert sh.search_span_containing(["merge", "sort"], "join", 10,
                                     max_gaps=6) == \
        eng.search_span_containing(["merge", "sort"], "join", 10,
                                   max_gaps=6)


def test_semdedup_masks_tombstones_before_keep(ray_session, tmp_path):
    """IVFIndex.semdedup under the delete lifecycle: a tombstoned
    vector never surfaces in the output AND never poisons a survivor's
    keep decision (the lowest-id cell-mate that caused a drop may be
    deleted — the survivor must then be kept)."""
    import ray.data as rd

    from stacksearch_ray.functions.ivf import IVFIndex

    rng = np.random.default_rng(5)
    proto = rng.standard_normal(8)
    # ids 0,1,2 are near-identical (one family); 3..20 are far
    rows = [proto + 0.01 * rng.standard_normal(8) for _ in range(3)]
    rows += [rng.standard_normal(8) * 2 for _ in range(18)]
    src = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(21), pa.int64()),
        "embedding": pa.array([r.tolist() for r in rows],
                              pa.list_(pa.float32())),
    }), src)
    idx = IVFIndex.build(rd.read_parquet(src), str(tmp_path / "ivf"),
                         k=3, iters=3, seed=17)
    before = idx.semdedup(900_000).to_pandas().set_index("vec_id")
    assert before.loc[0, "keep"] == 1  # keep-first
    assert before.loc[1, "keep"] == 0 and before.loc[2, "keep"] == 0

    idx.delete([0, 1])
    after = idx.semdedup(900_000).to_pandas().set_index("vec_id")
    assert 0 not in after.index and 1 not in after.index
    # with both lower family members gone, 2 becomes the keeper
    assert after.loc[2, "keep"] == 1
    assert len(after) == len(before) - 2


# ---------------- _bulk ----------------


def test_bulk_apply_sequential_fold_and_rebuild_identity(ray_session,
                                                         tmp_path):
    """bulk_apply: per-item ES result contract (conflict / not_found /
    document_missing never abort the batch), SEQUENTIAL per-id folding
    (delete-then-create of the same id succeeds), and the final index
    answers bitwise like a from-scratch rebuild of the net corpus."""
    from stacksearch_ray.append import bulk_apply
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    texts = ["merge sort algorithm", "binary merge tree",
             "hash join plan", "sort merge join", "stream window agg",
             "filter batch spark"]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, content_col="text", id_col="doc_id",
                meta_cols=(), num_shards=2)

    out = bulk_apply(idx, [
        {"op": "delete", "doc_id": 0},
        {"op": "create", "doc_id": 0, "text": "reborn merge doc"},
        {"op": "create", "doc_id": 1, "text": "never lands"},
        {"op": "update", "doc_id": 99, "text": "missing"},
        {"op": "update", "doc_id": 2, "text": "hash join rewritten"},
        {"op": "index", "doc_id": 7, "text": "brand new stream doc"},
        {"op": "delete", "doc_id": 42},
    ])
    assert [i["result"] for i in out["items"]] == [
        "deleted", "created", "conflict", "document_missing",
        "updated", "created", "not_found"]

    # net corpus: 0 reborn, 1 untouched, 2 rewritten, 3-5 untouched, +7
    net = {0: "reborn merge doc", 1: texts[1],
           2: "hash join rewritten", 3: texts[3], 4: texts[4],
           5: texts[5], 7: "brand new stream doc"}
    ref_src = str(tmp_path / "ref.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(sorted(net), pa.int64()),
        "text": pa.array([net[d] for d in sorted(net)], pa.string()),
    }), ref_src)
    ref_idx = str(tmp_path / "ref_idx")
    build_index(ref_src, ref_idx, content_col="text", id_col="doc_id",
                meta_cols=(), num_shards=2)
    e, r = QueryEngine(idx), QueryEngine(ref_idx)
    for q in ("merge sort join", "stream window", "hash", "reborn"):
        assert e.search(q, 10, "exhaustive") == \
            r.search(q, 10, "exhaustive"), q


def test_hybrid_linear_degenerate_window_matches_oracle(ray_session,
                                                        tmp_path):
    """Regression (review finding): when a leg's min-max window is
    DEGENERATE (hi == lo — here the lexical leg matches exactly one
    doc), a doc ABSENT from that leg must fuse with 0.0 for it, not
    the degenerate 1.0 — entry and DuckDB oracle must agree on a
    crafted corpus that actually exercises the branch."""
    import duckdb

    import __ray_entry__ as entry_mod
    from stacksearch_ray.pipelines import documents as docs_mod

    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    texts = ["merge sort join stream window",   # the ONLY lexical match
             "alpha beta gamma", "delta epsilon zeta", "eta theta iota",
             "kappa lam mu", "nu xi omicron", "alpha delta eta"]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), os.path.join(sf, "documents.parquet"))

    # precondition: the lexical window is truly degenerate
    bt = docs_mod.bm25_topk(sf).to_pandas()
    assert bt["score_micros"].nunique() == 1

    got = docs_mod.hybrid_linear_search(sf).to_pandas()
    # semantic-only docs must appear (the branch under test)
    assert set(got["doc_id"]) - set(bt["doc_id"])

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{os.path.join(sf, 'documents.parquet')}'")
    want = con.sql(entry_mod.oracle_sql()["hybrid_linear_search"]).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["fused_micros"].tolist() == \
        want["fused_micros"].astype(int).tolist()


def test_significant_text_counts_duplicate_text_once(ray_session,
                                                     tmp_path):
    """significant_text vs significant_terms on a corpus with PLANTED
    exact-duplicate texts: the duplicated matched doc inflates the
    plain fg_df but counts ONCE under filter_duplicate_text, and the
    dedup applies to bg too (both-sides variant, documented)."""
    import stacksearch_ray.pipelines.documents as docs_mod

    # BOOL_DSL matched set needs (merge AND sort) OR (join AND NOT
    # window); the dup'd doc matches via merge+sort and carries the
    # marker term 'spark'
    texts = (["merge sort spark alpha"] * 4
             + ["join beta gamma", "merge delta", "sort epsilon",
                "window join zeta", "eta theta"])
    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), os.path.join(sf, "documents.parquet"))

    plain = docs_mod.significant_terms(sf).to_pandas().set_index("term")
    dedup = docs_mod.significant_text_agg(sf).to_pandas().set_index("term")
    # plain: 4 copies each contribute fg+bg for 'spark'
    assert plain.loc["spark", "fg_df"] == 4
    assert plain.loc["spark", "bg_df"] == 4
    # filter_duplicate_text: the text counts once on both sides
    assert dedup.loc["spark", "fg_df"] == 1
    assert dedup.loc["spark", "bg_df"] == 1
    # brute-force ratio replay on the deduped universe:
    # reps = docs 0,4,5,6,7,8 (6 docs); matched = {0 (merge+sort),
    # 4 (join, no window)} → n_fg=2, n_bg=6
    assert dedup.loc["spark", "ratio_micros"] == \
        int(np.floor(((1 / 2) / (1 / 6)) * 1e6 + 0.5))


# ---------------- request cache ----------------


def test_request_cache_identity_and_frozen_view(ray_session, tmp_path):
    """Request cache: cached results are EQUAL to uncached ones and
    survive LRU churn; an open cached engine keeps serving its frozen
    snapshot across a live mutation (the documented contract), while a
    REOPENED engine sees the new state."""
    from stacksearch_ray.append import delete_from_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    texts = ["merge sort algorithm", "binary merge tree",
             "hash join plan", "sort merge join", "stream window agg"]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, content_col="text", id_col="doc_id",
                num_shards=2)

    plain = QueryEngine(idx)
    cached = QueryEngine(idx, request_cache=2)
    queries = ["merge sort", "hash join", "stream", "merge"]
    for q in queries:  # fills + churns the 2-entry LRU
        assert cached.search(q, 10) == plain.search(q, 10), q
    for q in queries:  # second pass: mix of hits and re-computes
        assert cached.search(q, 10) == plain.search(q, 10), q
    # mutation result isolation: cached copies are defensive
    r = cached.search("merge", 10)
    r.append(("tamper", 0.0))
    assert cached.search("merge", 10)[-1] != ("tamper", 0.0)

    before = cached.search("merge sort", 10)
    delete_from_index(idx, [0])
    # the open engine's view is frozen — cache stays consistent with it
    assert cached.search("merge sort", 10) == before
    # a reopened engine sees the post-delete state
    fresh = QueryEngine(idx, request_cache=2)
    after = fresh.search("merge sort", 10)
    assert 0 not in [d for d, _ in after]
    assert fresh.search("merge sort", 10) == after  # cached, post-state


def test_sharded_request_cache_and_disk_usage(ray_session, tmp_path):
    from stacksearch_ray.build import build_index, index_disk_usage
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    texts = ["merge sort algorithm", "binary merge tree",
             "hash join plan", "sort merge join", "stream window agg",
             "filter batch spark"]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, content_col="text", id_col="doc_id",
                num_shards=4)

    eng = QueryEngine(idx)
    sh = ShardedQueryEngine(idx, num_workers=2, request_cache=2)
    for q in ["merge sort", "hash join", "stream", "merge sort"]:
        assert sh.search(q, 10) == eng.search(q, 10), q
    r = sh.search("merge sort", 10)
    r.append(("tamper", 0.0))
    assert sh.search("merge sort", 10)[-1] != ("tamper", 0.0)
    sh.clear_request_cache()
    assert sh.search("merge sort", 10) == eng.search("merge sort", 10)

    du = index_disk_usage(idx)
    assert du["segments"] > 0 and du["docs"] > 0 and du["term_dict"] > 0
    assert du["n_docs"] == len(texts)
    assert du["total"] >= du["segments"] + du["docs"] + du["term_dict"]
    # delete artifacts appear once a delete lands
    from stacksearch_ray.append import delete_from_index

    delete_from_index(idx, [0])
    assert index_disk_usage(idx)["delete_artifacts"] > 0


def test_bulk_apply_crash_between_legs_converges_on_rerun(ray_session,
                                                          tmp_path,
                                                          monkeypatch):
    """bulk_apply is NOT atomic (ES's isn't either): a crash between
    the delete leg and the upsert leg leaves deletes applied and
    writes missing — but RE-RUNNING the same batch converges to the
    same final state a crash-free run produces (per-item results may
    differ: the delete now reports not_found)."""
    from stacksearch_ray import append as append_mod
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    texts = ["merge sort algorithm", "binary merge tree",
             "hash join plan", "sort merge join"]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, content_col="text", id_col="doc_id",
                meta_cols=(), num_shards=2)

    ops = [{"op": "delete", "doc_id": 0},
           {"op": "index", "doc_id": 1, "text": "rewritten merge"},
           {"op": "create", "doc_id": 9, "text": "brand new doc"}]

    real_upsert = append_mod.upsert_to_index
    calls = {"n": 0}

    def exploding_upsert(*a, **kw):
        calls["n"] += 1
        raise RuntimeError("injected crash between bulk legs")

    monkeypatch.setattr(append_mod, "upsert_to_index", exploding_upsert)
    import pytest as _pytest
    with _pytest.raises(RuntimeError):
        append_mod.bulk_apply(idx, ops)
    assert calls["n"] == 1
    # deletes landed, writes did not
    mid = QueryEngine(idx)
    assert 0 not in [d for d, _ in mid.search("merge", 10)]
    assert not any(d == 9 for d, _ in mid.search("brand", 10))

    monkeypatch.setattr(append_mod, "upsert_to_index", real_upsert)
    out = append_mod.bulk_apply(idx, ops)  # re-run the SAME batch
    assert [i["result"] for i in out["items"]] == [
        "not_found", "updated", "created"]  # delete already applied

    # final state == a crash-free run from scratch (rebuild oracle)
    net = {1: "rewritten merge", 2: texts[2], 3: texts[3],
           9: "brand new doc"}
    ref_src = str(tmp_path / "ref.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(sorted(net), pa.int64()),
        "text": pa.array([net[d] for d in sorted(net)], pa.string()),
    }), ref_src)
    ref_idx = str(tmp_path / "ref_idx")
    build_index(ref_src, ref_idx, content_col="text", id_col="doc_id",
                meta_cols=(), num_shards=2)
    e, r = QueryEngine(idx), QueryEngine(ref_idx)
    for q in ("merge sort join", "rewritten", "brand new", "hash"):
        assert e.search(q, 10, "exhaustive") == \
            r.search(q, 10, "exhaustive"), q


def test_kmeans_1d_adaptive_buckets():
    from stacksearch_ray.functions.quantiles import kmeans_1d

    # two clear modes → centroids split them; determinism across calls
    v = np.concatenate([np.arange(100), 10_000 + np.arange(100)])
    c = kmeans_1d(v, 2)
    assert (c == kmeans_1d(v, 2)).all()
    assert c[0] < 200 and c[1] > 9_000
    a = np.argmin(np.abs(v[:, None].astype(np.float64)
                         - c[None, :]), axis=1)
    assert (a[:100] == 0).all() and (a[100:] == 1).all()
    # ascending-init order is preserved
    assert (np.diff(kmeans_1d(np.arange(1000), 6)) > 0).all()
    # degenerate single value: every centroid collapses, no crash
    assert (kmeans_1d(np.full(50, 7), 3) == 7.0).all()
    import pytest as _pytest
    with _pytest.raises(ValueError):
        kmeans_1d(np.array([], dtype=np.int64), 2)


def test_prototype_prune_drops_nearest_to_centroid(ray_session,
                                                   tmp_path):
    """D4 semantics on synthetic multi-cell vectors: per cell, among
    semdedup survivors exactly ⌊n·4/5⌋ keep, and every pruned survivor
    is NEARER its centroid (micros d²) than every kept one (ties by
    vec_id — farther survives). Duplicates never reach the prototype
    stage."""
    import shutil

    import stacksearch_ray.pipelines.documents as docs_mod
    from stacksearch_ray.pipelines.documents import (D4_KEEP_DEN,
                                                     D4_KEEP_NUM)

    rng = np.random.default_rng(13)
    base = rng.standard_normal((8, 8)) * 3
    rows, ids = [], []
    for i in range(160):
        eps = 0.01 if i % 8 == 0 else 0.5
        rows.append((base[i % 8] + eps * rng.standard_normal(8)).tolist())
        ids.append(i)
    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(rows, pa.list_(pa.float32())),
    }), sf + "/embeddings.parquet")
    old_root = docs_mod.CACHE_ROOT
    try:
        docs_mod.CACHE_ROOT = str(tmp_path / "cache")
        out = docs_mod.prototype_prune(sf).to_pandas()
    finally:
        docs_mod.CACHE_ROOT = old_root
    assert len(out) == 160
    assert ((out["keep"] == 1) <= (out["sem_keep"] == 1)).all()
    for cell, g in out[out["sem_keep"] == 1].groupby("cell"):
        n_keep = (len(g) * D4_KEEP_NUM) // D4_KEEP_DEN
        assert int(g["keep"].sum()) == n_keep
        kept = g[g["keep"] == 1]
        pruned = g[g["keep"] == 0]
        if len(kept) and len(pruned):
            worst_kept = kept.sort_values(
                ["d2_micros", "vec_id"]).iloc[0]
            best_pruned = pruned.sort_values(
                ["d2_micros", "vec_id"], ascending=False).iloc[0]
            assert (worst_kept["d2_micros"], worst_kept["vec_id"]) >= \
                (best_pruned["d2_micros"], best_pruned["vec_id"])


# ---------------- Posts.xml streaming source ----------------


def _write_posts_xml(path, n_questions=12, answers_per=2):
    rows = []
    pid = 0
    for q in range(n_questions):
        for a in range(answers_per):
            pid += 1
            rows.append(f'<row Id="{pid}" PostTypeId="2" '
                        f'Body="answer {q} alpha{a} &lt;b&gt;bold&lt;/b&gt;"/>')
        pid += 1
        rows.append(f'<row Id="{pid}" PostTypeId="1" '
                    f'Title="question {q} merge sort" '
                    f'Body="&lt;p&gt;body {q} join stream&lt;/p&gt;"/>')
    with open(path, "w") as f:
        f.write("<posts>\n" + "\n".join(rows) + "\n</posts>")
    return path


def test_posts_xml_source_grouping_ranges_and_build(ray_session,
                                                    tmp_path):
    """S1 closure: the streaming Posts.xml source reproduces the
    reference iterator's stream-adjacent answer grouping and [min,max)
    question range, HTML-stripped; the emitted Dataset feeds build →
    search end-to-end."""
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.sources.xml_source import (iter_posts,
                                                    read_posts_xml)

    xml = _write_posts_xml(str(tmp_path / "Posts.xml"))
    posts = list(iter_posts(xml))
    assert len(posts) == 12
    assert all(p["n_answers"] == 2 for p in posts)
    # answers precede their question in the stream and attach to it
    assert "alpha0" in posts[0]["answers"] and "alpha1" in posts[0]["answers"]
    # html stripped everywhere
    assert "<p>" not in posts[3]["body"] and "<b>" not in posts[3]["answers"]
    assert "body 3 join stream" in posts[3]["text"]
    # [min, max): reference yields FROM question #min THROUGH #max
    ranged = list(iter_posts(xml, min_samples=3, max_samples=7))
    assert [p["title"] for p in ranged] == \
        [f"question {q} merge sort" for q in (2, 3, 4, 5, 6)]

    ds = read_posts_xml(xml, batch_size=5)
    t = ds.to_pandas().sort_values("doc_id")
    assert len(t) == 12
    assert (t["n_answers"] == 2).all()

    idx = str(tmp_path / "idx")
    build_index(read_posts_xml(xml), idx, content_col="text",
                id_col="doc_id", num_shards=2)
    eng = QueryEngine(idx)
    res = eng.search("merge sort join", 5)
    assert len(res) == 5  # every question carries all three terms


def test_semdedup_hot_cell_autosplit(ray_session, tmp_path):
    """Hot-cell bound: a cell above max_cell_rows auto-splits via
    recursive deterministic k-means into child tasks. Split keeps are
    a pointwise SUPERSET of the unsplit keeps (splitting only removes
    comparisons — monotone), planted same-prototype dup families still
    collapse, the identical-vector pathology k-means cannot split hits
    the bounded id-chunk fallback, and the whole pass is deterministic
    across runs."""
    import ray.data as rd

    from stacksearch_ray.functions.ivf import IVFIndex

    rng = np.random.default_rng(23)
    hot_center = rng.standard_normal(8) * 4.0
    rows, ids = [], []
    vid = 0
    # hot region: 900 vectors in 30 tight prototype families near one
    # center -> one hot coarse cell with in-cell structure to split on
    protos = hot_center + 0.5 * rng.standard_normal((30, 8))
    for i in range(900):
        v = protos[i % 30] + 0.01 * rng.standard_normal(8)
        rows.append(v.tolist()); ids.append(vid); vid += 1
    # identical-vector pathology: 150 byte-identical rows
    same = (hot_center + 0.5 * rng.standard_normal(8)).tolist()
    for i in range(150):
        rows.append(same); ids.append(vid); vid += 1
    # background spread far from the hot center
    for i in range(200):
        rows.append((-hot_center + 0.8 * rng.standard_normal(8)).tolist())
        ids.append(vid); vid += 1
    src = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(rows, pa.list_(pa.float32())),
    }), src)
    idx_dir = str(tmp_path / "ivf")
    IVFIndex.build(rd.read_parquet(src), idx_dir, k=3, iters=4, seed=17)
    idx = IVFIndex(idx_dir)
    TAU = 950_000

    nosplit = (idx.semdedup(TAU, max_cell_rows=10_000).to_pandas()
               .sort_values("vec_id").reset_index(drop=True))
    split = (idx.semdedup(TAU, max_cell_rows=120).to_pandas()
             .sort_values("vec_id").reset_index(drop=True))
    split2 = (idx.semdedup(TAU, max_cell_rows=120).to_pandas()
              .sort_values("vec_id").reset_index(drop=True))
    # every vector appears exactly once, cells unchanged by the split
    assert split["vec_id"].tolist() == sorted(ids)
    assert split["cell"].tolist() == nosplit["cell"].tolist()
    assert split.equals(split2)  # deterministic k-means, no RNG state
    k_no = nosplit["keep"].to_numpy(np.int64)
    k_sp = split["keep"].to_numpy(np.int64)
    # monotone: a row kept without splitting is kept with it
    assert (k_sp >= k_no).all()
    # the split pass still collapses the planted families hard
    assert k_no.sum() < len(ids)
    assert k_sp.sum() < 0.5 * len(ids), int(k_sp.sum())
    # identical-vector block: exact pass keeps 1; chunked fallback
    # keeps at most one per id-chunk of the cap
    ident = split[(split["vec_id"] >= 900) & (split["vec_id"] < 1050)]
    assert 1 <= ident["keep"].sum() <= int(np.ceil(150 / 120)) + 1


def test_md5_low64_paths_identical():
    """The three md5-low64 paths — hashlib loop, DuckDB batch
    (md5_number_lower, the oracle convention), and the open-vocab
    Arrow fast path that skips to_pylist — produce identical uint64
    values, including non-ASCII and empty tokens."""
    import hashlib
    import struct

    import stacksearch_ray.functions.dedup as D

    toks = ([f"tok{i}x{i * i}" for i in range(5000)]
            + ["hello", "wörld", "", "a" * 300, "日本語", "x"])
    expect = np.array([struct.unpack(
        "<Q", hashlib.md5(t.encode()).digest()[8:16])[0]
        for t in toks], dtype=np.uint64)
    arr = pa.array(toks, pa.string())
    saved_min, saved_cache = D._MD5_DUCK_MIN, dict(D._MD5_CACHE)
    try:
        D._MD5_CACHE.clear()
        D._MD5_DUCK_MIN = 1  # force the DuckDB batch path
        duck = D.md5_low64_arrow(arr)
        assert (duck == expect).all()
        D._MD5_CACHE.clear()
        D._MD5_DUCK_MIN = 10**9  # force the hashlib loop
        loop = D.md5_low64_arrow(arr)
        assert (loop == expect).all()
        # warm-cache replay stays identical
        again = D.md5_low64(np.array(toks, dtype=object))
        assert (again == expect).all()
    finally:
        D._MD5_DUCK_MIN = saved_min
        D._MD5_CACHE.clear()
        D._MD5_CACHE.update(saved_cache)


def test_posts_xml_realistic_fragment_golden():
    """VERDICT-r4 next #8: golden parity on a REALISTIC Stack Exchange
    Posts.xml fragment (tests/fixtures/posts_fragment.xml — real dump
    schema: XML declaration, self-closed rows, full attribute sets,
    entity-heavy bodies with double-encoded HTML entities, a missing
    Title, a PostTypeId=5 tag-wiki row). Goldens hand-derived from the
    reference iterator semantics (/root/reference/dataprocess/
    parser.py:71-89 + cleaners.py cleanString) and pinned byte-exact:

    - an answer BEFORE any question attaches to the first question
      (the pending list starts filling immediately);
    - an answer appearing AFTER its question attaches to the NEXT
      question (stream-adjacent grouping, the reference quirk — row 9
      has ParentId=4 but folds into question 11);
    - ANY non-'2' PostTypeId is a question (row 12 is a tag-wiki);
    - missing Title -> ""; &amp;amp; -> & -> dropped by cleanString;
      &amp;lt;int&amp;gt; -> <int> -> 'int'; &#xA; survives as \\n;
    - question range [min,max] 1-based inclusive."""
    import json

    from stacksearch_ray.sources.xml_source import iter_posts

    frag = os.path.join(os.path.dirname(__file__), "fixtures",
                        "posts_fragment.xml")
    got = [json.dumps(p, sort_keys=True) for p in iter_posts(frag)]
    want = [json.dumps(p, sort_keys=True) for p in [
        {"doc_id": 4,
         "title": "convert float to int  keep truncation",
         "body": "i want to convert a float to an int  keep the "
                 "truncation semantics\nint i  intf\n\n",
         "answers": "an explicit cast staticcastintfoo rounds toward "
                    "zero\n",
         "text": "convert float to int  keep truncation i want to "
                 "convert a float to an int  keep the truncation "
                 "semantics\nint i  intf\n\n an explicit cast "
                 "staticcastintfoo rounds toward zero\n",
         "n_answers": 1},
        {"doc_id": 11, "title": "",
         "body": "given a datetime how do i calculate age in years",
         "answers": "use mathfloor when the sign matters see banker "
                    "rounding",
         "text": "given a datetime how do i calculate age in years "
                 "use mathfloor when the sign matters see banker "
                 "rounding",
         "n_answers": 1},
        {"doc_id": 12, "title": "",
         "body": "tag wiki the mergesort algorithm a stable divide  "
                 "conquer sort",
         "answers": "",
         "text": "tag wiki the mergesort algorithm a stable divide  "
                 "conquer sort",
         "n_answers": 0},
        {"doc_id": 14, "title": "merge step for two sorted streams",
         "body": "how do i join two sorted streams with a merge step",
         "answers": "streams join lazily",
         "text": "merge step for two sorted streams how do i join "
                 "two sorted streams with a merge step streams join "
                 "lazily",
         "n_answers": 1},
    ]]
    assert got == want
    ranged = [(p["doc_id"], p["n_answers"])
              for p in iter_posts(frag, min_samples=2, max_samples=3)]
    assert ranged == [(11, 1), (12, 0)]
