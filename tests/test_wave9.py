"""Semantic properties of the ninth-wave operators (search-engine query
ops: boolean retrieval, autocomplete, facets, fuzzy matching; plus the
BPE learner and the deterministic global shuffle). The oracle pins
exact values; these pin the MEANING."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def P(ray_session):
    from stacksearch_ray.pipelines import documents as P

    return P


def _doc_term_sets(P):
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    return {d: set(clean_query(x, max_tokens=None))
            for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}


def test_boolean_search_exact_set(P):
    """Index-backed boolean retrieval == brute-force scan semantics:
    every MUST term present, no NOT term, and COMPLETE (no doc with
    that property is missed)."""
    got = set(P.boolean_search(SF).to_pandas()["doc_id"])
    toks = _doc_term_sets(P)
    want = {d for d, s in toks.items()
            if all(t in s for t in P.BOOL_MUST)
            and not any(t in s for t in P.BOOL_NOT)}
    assert got == want
    assert len(got) > 0


def test_term_autocomplete_prefix_and_order(P):
    df = P.term_autocomplete(SF).to_pandas()
    assert len(df) > 0
    assert all(t.startswith(P.AUTOCOMPLETE_PREFIX) for t in df["term"])
    d = df.sort_values("rank")["df"].to_numpy()
    assert (np.diff(d) <= 0).all()
    # df values are the true document frequencies
    tdf = P.term_df(SF).to_pandas().set_index("term")["df"]
    for _, r in df.iterrows():
        assert int(tdf[r["term"]]) == int(r["df"])


def test_search_facets_partition_topk(P):
    df = P.search_facets(SF).to_pandas()
    total = int(df["n_docs"].sum())
    assert 0 < total <= 50
    assert (df["share_micros"]
            == df["n_docs"].to_numpy(np.int64) * 1_000_000 // total).all()
    # facets partition the top-k: each lang appears once
    assert df["lang"].is_unique


def _lev(a: str, b: str) -> int:
    m, n = len(a), len(b)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[n]


def test_fuzzy_vocab_match_distances(P):
    df = P.fuzzy_vocab_match(SF).to_pandas()
    assert len(df) > 0
    for _, r in df.iterrows():
        assert _lev(r["probe"], r["term"]) == r["dist"] <= 2
    # 'merg' must find 'merge' at distance 1
    m = df[(df["probe"] == "merg") & (df["term"] == "merge")]
    assert len(m) == 1 and int(m["dist"].iloc[0]) == 1
    # per-probe ranking: dist asc, then df desc
    for _, g in df.groupby("probe"):
        g = g.sort_values("rank")
        assert (np.diff(g["dist"].to_numpy()) >= 0).all()
        for d in set(g["dist"]):
            sub = g[g["dist"] == d]
            assert (np.diff(sub["df"].to_numpy()) <= 0).all()


def test_global_shuffle_is_permutation(P):
    df = P.global_shuffle(SF).to_pandas()
    n = len(df)
    assert sorted(df["pos"]) == list(range(n))
    assert df["doc_id"].is_unique
    # within a bucket, positions follow doc_id order (deterministic)
    for _, g in df.groupby("bucket"):
        g = g.sort_values("doc_id")
        assert (np.diff(g["pos"].to_numpy()) == 1).all()
    # buckets occupy contiguous position ranges in bucket order
    b = df.sort_values("pos")["bucket"].to_numpy()
    assert (np.diff(b) >= 0).all()
    # the order is actually shuffled, not identity
    ident = df.sort_values("pos")["doc_id"].to_numpy()
    assert not (ident == np.arange(n)).all()


def test_more_like_this_similar_docs(P):
    df = P.more_like_this(SF).to_pandas()
    assert len(df) == 10
    assert P.MLT_DOC not in set(df["doc_id"])
    s = df.sort_values("rank")["score_micros"].to_numpy()
    assert (np.diff(s) <= 0).all()
    # every hit shares at least one term with the source doc
    toks = _doc_term_sets(P)
    src = toks[P.MLT_DOC]
    for d in df["doc_id"]:
        assert toks[int(d)] & src


def test_learn_bpe_known_merges(P):
    from stacksearch_ray.functions.bpe import bpe_segment, learn_bpe

    out = learn_bpe(["ab", "abc"], [10, 5], 3)
    assert list(out.itertuples(index=False, name=None)) == [
        (1, "a", "b", 15), (2, "ab", "c", 5)]
    assert bpe_segment("abc", [("a", "b"), ("ab", "c")]) == ["abc"]
    # tie-break: equal counts -> lexicographically smallest (lhs, rhs)
    tie = learn_bpe(["xy", "yz"], [5, 5], 1)
    assert (tie["lhs"].iloc[0], tie["rhs"].iloc[0]) == ("x", "y")
    # identical-symbol pairs are never candidates
    runs = learn_bpe(["aaaa", "ba"], [100, 1], 1)
    assert not ((runs["lhs"] == runs["rhs"]).any())
    assert (runs["lhs"].iloc[0], runs["rhs"].iloc[0]) == ("b", "a")


def test_bpe_entry_compresses(P):
    m = P.bpe_merges(SF).to_pandas()
    assert len(m) == P.N_BPE_MERGES
    assert (m["pair_count"] > 0).all()
    assert (m["lhs"] != m["rhs"]).all()
    st = P.bpe_encode_stats(SF).to_pandas()
    assert len(st) > 0
    # encoded length bounded: one symbol per token min, chars max;
    # after 10 merges on this corpus there must be real compression
    assert (st["n_bpe"] >= st["n_tokens"]).all()
    # strict compression vs the character baseline (no merges = chars)
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    chars = {d: sum(len(tok) for tok in clean_query(x, max_tokens=None))
             for d, x in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist())}
    baseline = np.array([chars[int(d)] for d in st["doc_id"]])
    assert (st["n_bpe"].to_numpy() <= baseline).all()
    assert int(st["n_bpe"].sum()) < int(baseline.sum())


def test_near_search_brute_force(P):
    got = P.near_search(SF).to_pandas().set_index("doc_id")["min_gap"]
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    ta, tb = P.NEAR_TERMS
    want = {}
    for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = clean_query(x, max_tokens=None)
        pa_ = [i for i, w in enumerate(toks, 1) if w == ta]
        pb_ = [i for i, w in enumerate(toks, 1) if w == tb]
        if pa_ and pb_:
            g = min(abs(i - j) for i in pa_ for j in pb_)
            if g <= P.NEAR_MAX_GAP:
                want[d] = g
    assert dict(got) == want
    assert len(want) > 0


def test_index_stats_consistent(P):
    s = P.index_stats(SF).to_pandas().iloc[0]
    assert s["n_postings"] >= s["n_terms"] > 0
    assert s["total_tokens"] >= s["n_postings"]
    assert s["avgdl_micros"] == int(
        np.floor(s["total_tokens"] / s["n_docs"] * 1e6 + 0.5))


def test_search_page_disjoint_and_ordered(P):
    page1 = P.bm25_topk(SF).to_pandas()
    page2 = P.search_page(SF).to_pandas()
    assert list(page2["rank"]) == list(range(11, 11 + len(page2)))
    assert not set(page1["doc_id"]) & set(page2["doc_id"])
    assert page2["score_micros"].max() <= page1["score_micros"].min()


def test_domain_temperature_flattens(P):
    df = P.domain_temperature_mix(SF).to_pandas()
    total = int(df["n_docs"].sum())
    assert abs(int(df["rate_micros"].sum()) - 1_000_000) <= len(df)
    # sqrt temperature: small sources get boosted relative to share
    share = df["n_docs"].to_numpy() / total
    rate = df["rate_micros"].to_numpy() / 1e6
    boost = rate / share
    order = np.argsort(df["n_docs"].to_numpy())
    assert boost[order[0]] >= boost[order[-1]]


def test_ingest_dedup_gate(P):
    import pyarrow.parquet as pq

    df = P.ingest_dedup(SF).to_pandas()
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    n = t.num_rows
    split = n // 2
    # every incoming doc judged exactly once
    assert sorted(df["doc_id"]) == list(range(split, n))
    assert set(df["accepted"]) <= {0, 1}
    assert (df["accepted"] == (df["max_match"] < P.INGEST_REJECT_M)
            .astype(np.int64)).all()
    # exact text duplicates of an existing doc must be rejected
    # (identical token sets -> identical signatures -> m = 64)
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    existing = {texts[d] for d in range(split) if texts[d].strip()}
    hard_dups = [d for d in range(split, n)
                 if texts[d].strip() and texts[d] in existing]
    got = df.set_index("doc_id")
    for d in hard_dups:
        assert got.loc[d, "accepted"] == 0
        assert got.loc[d, "max_match"] == 64
    # and most incoming docs are NOT near-dups (sane acceptance rate)
    assert df["accepted"].mean() > 0.5


def test_percolate_membership(P):
    from stacksearch_ray.text import clean_query

    df = P.percolate(SF).to_pandas()
    assert len(df) > 0
    toks = _doc_term_sets(P)
    qterms = [set(clean_query(q)) for q in P.PERCOLATE_QUERIES]
    got = {(int(d), int(q)) for d, q in zip(df["doc_id"], df["query_id"])}
    want = {(d, qi) for d, s in toks.items()
            for qi, qt in enumerate(qterms) if qt <= s}
    assert got == want


def _percolated(P):
    df = P.percolate_dsl(SF).to_pandas()
    return [df.doc_id[df.query_id == qi].tolist()
            for qi in range(len(P.PERCOLATE_DSL_QUERIES))]


def test_percolate_dsl_equals_boolean_dsl(P):
    """Every stored query percolates exactly its search_boolean_dsl set
    on the index of the same corpus."""
    eng = P._index_for(SF)
    got = _percolated(P)
    for q, ids in zip(P.PERCOLATE_DSL_QUERIES, got):
        assert ids == eng.search_boolean_dsl(q).tolist(), q
    assert all(got)


def test_percolate_dsl_analyzes_atoms(P, monkeypatch):
    """Stored atoms run through the analyzer like any search: a
    capitalized word percolates its lowercase term's docs."""
    monkeypatch.setattr(P, "PERCOLATE_DSL_QUERIES",
                        ("Merge AND sort", "merge AND sort"))
    got = _percolated(P)
    assert got[0] == got[1] and got[0]


def test_percolate_dsl_rejects_bad_atoms(P, monkeypatch):
    """A bare ``*`` is a parse error, not a match-everything prefix; a
    phrase or boost has no positions or scores to act on here."""
    for bad in ("*", "merge AND *", '"merge sort"', "merge^2"):
        monkeypatch.setattr(P, "PERCOLATE_DSL_QUERIES", (bad,))
        with pytest.raises(ValueError):
            P.percolate_dsl(SF)


def test_snippet_windows_brute(P):
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    df = P.snippet_windows(SF).to_pandas().set_index("doc_id")
    assert len(df) == 10
    terms = set(clean_query(P.BM25_QUERY))
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"],
                      filters=[("doc_id", "in",
                                [int(d) for d in df.index])])
    for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = clean_query(x, max_tokens=None)
        hits = [i for i, w in enumerate(toks, 1) if w in terms]
        best = max(((sum(1 for q in hits
                         if p <= q <= p + P.SNIPPET_WIDTH - 1), -p)
                    for p in hits))
        assert df.loc[d, "n_hits"] == best[0]
        assert df.loc[d, "win_start"] == -best[1]
        # the window really starts at a query-term hit
        assert toks[int(df.loc[d, "win_start"]) - 1] in terms


def test_hot_term_shards_salted(P):
    df = P.hot_term_shards(SF).to_pandas()
    # the hot term's postings spread over EVERY shard (sharding by
    # hash-spread doc_id is the salt), reasonably evenly
    assert len(df) == 4
    assert df["term"].nunique() == 1
    assert (df["n_docs"] > 0).all()
    assert df["n_docs"].max() < 2 * df["n_docs"].min() + 8
    # totals match the term's df
    tdf = P.term_df(SF).to_pandas().set_index("term")["df"]
    assert int(df["n_docs"].sum()) == int(tdf[df["term"].iloc[0]])


def test_events_debounce_gap_holds(P):
    import pyarrow.parquet as pq

    kept = P.events_debounce(SF).to_pandas()
    ev = pq.read_table(os.path.join(SF, "events.parquet"),
                       columns=["event_id", "user_id", "event_type",
                                "ts"]).to_pandas()
    ev["ts_us"] = ev["ts"].astype(np.int64)
    kept_ids = set(kept["event_id"])
    assert 0 < len(kept_ids) < len(ev)
    # brute-force: LAG semantics per (user, type)
    for (_, _), g in list(ev.groupby(["user_id", "event_type"]))[:50]:
        g = g.sort_values(["ts_us", "event_id"])
        prev = None
        for _, r in g.iterrows():
            want = prev is None or r["ts_us"] - prev >= P.DEBOUNCE_GAP_US
            assert (r["event_id"] in kept_ids) == want
            prev = r["ts_us"]


def test_user_retention_matrix(P):
    df = P.user_retention(SF).to_pandas()
    assert len(df) > 0
    assert (df["n_users"] > 0).all()
    base = df[df["week_offset"] == 0].set_index("cohort_week")["n_users"]
    for _, r in df.iterrows():
        # any later-week cell is a subset of its cohort
        assert r["n_users"] <= base[r["cohort_week"]]


def test_corrected_search_equals_corrected_query(P):
    # 'mergge sortt jion' correct to merge/sort/join; 'stream' is known
    got = P.corrected_search(SF).to_pandas()
    eng = P._index_for(SF)
    want = eng.search("merge sort join stream", 10, method="exhaustive")
    assert [int(d) for d in got["doc_id"]] == [d for d, _ in want]


def test_filtered_search_semantics(P):
    import pyarrow.parquet as pq

    got = P.filtered_search(SF).to_pandas()
    assert len(got) == 10
    langs = dict(zip(*[pq.read_table(
        os.path.join(SF, "documents.parquet"),
        columns=["doc_id", "lang"])[c].to_pylist()
        for c in ("doc_id", "lang")]))
    assert all(langs[int(d)] == P.FILTER_LANG for d in got["doc_id"])
    # filtered scores == unfiltered scores of the same docs (bitwise)
    eng = P._index_for(SF)
    full = dict(eng.search(P.BM25_QUERY, 10_000, method="exhaustive"))
    filt = dict(eng.search_filtered(
        P.BM25_QUERY, 10,
        allowed_doc_ids=[d for d, l in langs.items()
                         if l == P.FILTER_LANG]))
    for d, s in filt.items():
        assert full[d] == s
    # empty allowed set -> no results
    assert eng.search_filtered(P.BM25_QUERY, 10, allowed_doc_ids=[]) == []


def test_filtered_plan_equivalence(P):
    """plan="selective" (postings probe at the allowed docs only — the
    SCALE.md selective-filter plan) is bitwise identical to the dense
    mask for any allowed-set size, including ids absent from the
    corpus, and plan="auto" agrees with both."""
    eng = P._index_for(SF)
    all_ids = eng.doclens.ids
    rng = np.random.default_rng(7)
    absent = np.array([-5, 10**12], dtype=np.int64)
    for frac in (0.002, 0.02, 0.3, 1.0):
        n = max(1, int(len(all_ids) * frac))
        allowed = np.concatenate(
            [rng.choice(all_ids, size=n, replace=False), absent])
        for q in (P.BM25_QUERY, "merge sort", "zzz_missing"):
            d = eng.search_filtered(q, 10, allowed_doc_ids=allowed,
                                    plan="dense")
            s = eng.search_filtered(q, 10, allowed_doc_ids=allowed,
                                    plan="selective")
            a = eng.search_filtered(q, 10, allowed_doc_ids=allowed,
                                    plan="auto")
            assert d == s == a, (frac, q)
    assert eng.search_filtered(P.BM25_QUERY, 10, allowed_doc_ids=[],
                               plan="selective") == []


def test_zipf_fit_negative_slope(P):
    df = P.zipf_fit(SF).to_pandas()
    assert len(df) == 1
    n = int(df["n_terms"].iloc[0])
    assert n == len(P.term_counts(SF).to_pandas())
    # frequency falls with rank -> negative slope; and this corpus is
    # much flatter than true Zipf (uniform word draws), so > -1
    s = int(df["slope_micros"].iloc[0])
    assert -1_000_000 < s < 0


def test_sharded_filtered_identical(P, ray_session):
    import pyarrow.parquet as pq

    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id"],
                      filters=[("lang", "=", P.FILTER_LANG)])
    allowed = t["doc_id"].to_pylist()
    single = eng.search_filtered(P.BM25_QUERY, 10,
                                 allowed_doc_ids=allowed)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    assert sharded.search_filtered(P.BM25_QUERY, 10,
                                   allowed_doc_ids=allowed) == single


def test_textrank_terms_meaningful(P):
    df = P.textrank_terms(SF).to_pandas()
    assert len(df) == 10
    s = df.sort_values("rank")["pr_micros"].to_numpy()
    assert (np.diff(s) <= 0).all()
    # high-degree hub terms outrank the rare 'dup' marker term
    assert "dup" not in set(df["term"])
    from stacksearch_ray.stopwords import ENGLISH_STOPWORD_SET

    assert not set(df["term"]) & ENGLISH_STOPWORD_SET


def test_ingest_indexed_equals_streaming(P):
    a = (P.ingest_dedup(SF).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (P.ingest_dedup_indexed(SF).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)


def test_positional_three_way_equality(P):
    stream = (P.phrase_search(SF).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    indexed = (P.phrase_search_indexed(SF).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
    positional = (P.phrase_search_positional(SF).to_pandas()
                  .sort_values("doc_id").reset_index(drop=True))
    assert stream.equals(indexed)
    assert stream.equals(positional)
    near_s = (P.near_search(SF).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    near_p = (P.near_search_positional(SF).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    assert near_s.equals(near_p)
    assert len(stream) > 0 and len(near_s) > 0


def test_term_positions_match_tokenization(P):
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    for term in ("merge", "sort", "dup"):
        ids, tfs, pos = eng.term_positions(term)
        assert (np.diff(ids) > 0).all()  # global doc order
        ends = np.cumsum(tfs)
        starts = ends - tfs
        for i, d in enumerate(ids[:20]):
            toks = clean_query(texts[int(d)], max_tokens=None)
            want = [j for j, w in enumerate(toks, 1) if w == term]
            assert pos[starts[i]:ends[i]].tolist() == want


def test_sharded_positional_identical(P, ray_session):
    """Distributed phrase/NEAR serving: each worker answers from its
    own shard subset's positional sidecar; the disjoint merge equals
    the single-engine result exactly."""
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    ids_s, c_s = sharded.phrase_occurrences("merge sort")
    ids_1, c_1 = eng.phrase_occurrences("merge sort")
    assert ids_s.tolist() == ids_1.tolist()
    assert c_s.tolist() == c_1.tolist() and len(ids_s) > 0
    n_s, g_s = sharded.near_min_gaps("merge", "sort")
    n_1, g_1 = eng.near_min_gaps("merge", "sort")
    assert n_s.tolist() == n_1.tolist() and g_s.tolist() == g_1.tolist()


def test_conjunctive_search_semantics(P):
    """AND-ranked retrieval: every hit contains ALL query terms, scores
    equal the unfiltered scores, and the result is identical to
    filtering on the posting-intersection set."""
    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    terms = sorted(set(clean_query(P.BM25_QUERY)))
    res = eng.search_conjunctive(P.BM25_QUERY, 10)
    assert len(res) == 10
    sets = {t: set(eng.term_doc_ids(t).tolist()) for t in terms}
    full = dict(eng.search(P.BM25_QUERY, 10_000, method="exhaustive"))
    for d, s in res:
        assert all(d in sets[t] for t in terms), d
        assert full[d] == s
    common = None
    for t in terms:
        ids = eng.term_doc_ids(t)
        common = ids if common is None else np.intersect1d(common, ids,
                                                           assume_unique=True)
    assert res == eng.search_filtered(P.BM25_QUERY, 10,
                                      allowed_doc_ids=common)
    assert eng.search_conjunctive("merge zzz_missing", 5) == []


def test_wildcard_search_matches_tokenization(P):
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    ids, n_terms, n_tokens = eng.search_wildcard(P.WILDCARD_PREFIX)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    want = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = [w for w in clean_query(txt, max_tokens=None)
                if w.startswith(P.WILDCARD_PREFIX)]
        if toks:
            want[d] = (len(set(toks)), len(toks))
    got = {int(d): (int(a), int(b))
           for d, a, b in zip(ids, n_terms, n_tokens)}
    assert got == want and len(got) > 0
    # no-match prefix -> empty, not an error
    assert eng.search_wildcard("zzzzq")[0].size == 0


def test_min_cover_windows_brute_force(P):
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    terms = sorted(set(clean_query(P.BM25_QUERY)))
    ids, w = eng.min_cover_windows(terms)
    got = dict(zip(ids.tolist(), w.tolist()))
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    want = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = clean_query(txt, max_tokens=None)
        if not set(terms) <= set(toks):
            continue
        best = len(toks)
        for i in range(len(toks)):
            seen = set()
            for j in range(i, len(toks)):
                if toks[j] in terms:
                    seen.add(toks[j])
                    if len(seen) == len(terms):
                        best = min(best, j - i + 1)
                        break
        want[d] = best
    assert got == want and len(got) > 0


def _brute_ordered_span(toks: list[str], terms: list[str]) -> int | None:
    """Exhaustive minimal ordered span: min over ALL strictly-increasing
    occurrence chains (independent of the engine's greedy strategy)."""
    occ = [[i for i, w in enumerate(toks) if w == t] for t in terms]
    if any(not o for o in occ):
        return None
    best = None

    def rec(ti: int, prev: int, start: int):
        nonlocal best
        if ti == len(terms):
            span = prev - start + 1
            best = span if best is None or span < best else best
            return
        for p in occ[ti]:
            if p > prev:
                rec(ti + 1, p, start)

    for s in occ[0]:
        rec(1, s, s)
    return best


def test_min_ordered_spans_brute_force(P):
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    for terms in (["sort", "merge", "join"], ["join", "merge", "sort"],
                  ["merge", "merge"], ["window"]):
        ids, w = eng.min_ordered_spans(terms)
        got = dict(zip(ids.tolist(), w.tolist()))
        want = {}
        for d, txt in texts.items():
            span = _brute_ordered_span(clean_query(txt, max_tokens=None),
                                       terms)
            if span is not None:
                want[d] = span
        assert got == want and len(got) > 0, terms
    # order-significance: the two directions genuinely differ somewhere
    f = dict(zip(*[x.tolist() for x in
                   eng.min_ordered_spans(["sort", "merge", "join"])]))
    r = dict(zip(*[x.tolist() for x in
                   eng.min_ordered_spans(["join", "merge", "sort"])]))
    assert f != r
    assert eng.min_ordered_spans([])[0].size == 0


def test_sharded_ordered_spans_identical(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    terms = list(P.SLOPPY_TERMS)
    ids_s, w_s = sharded.min_ordered_spans(terms)
    ids_1, w_1 = eng.min_ordered_spans(terms)
    assert ids_s.tolist() == ids_1.tolist()
    assert w_s.tolist() == w_1.tolist() and len(ids_s) > 0


def test_proximity_boost_semantics(P):
    """weight=0 == plain bm25 bitwise; with weight, every all-terms doc
    gains exactly weight/(1+min_window) and partial-match docs keep
    their text score exactly."""
    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    q = P.BM25_QUERY
    assert eng.search_proximity_boost(q, 15, weight=0.0) == \
        eng.search(q, 15, method="exhaustive")
    plain = dict(eng.search(q, 500, method="exhaustive"))
    wins = dict(zip(*[x.tolist() for x in
                      eng.min_cover_windows(sorted(set(clean_query(q))))]))
    for d, s in eng.search_proximity_boost(q, 50, weight=2.0):
        if d in wins:
            assert s == plain[d] + 2.0 * (1.0 / (1.0 + wins[d]))
        else:
            assert s == plain[d]


def test_boolean_dsl_brute_force(P):
    """Parser + set algebra vs per-doc term-set evaluation for a range
    of expressions: nesting, precedence (OR < AND < NOT), double
    negation, bare NOT against the universe."""
    eng = P._index_for(SF)
    ts = _doc_term_sets(P)

    def want(pred):
        return sorted(d for d, s in ts.items() if pred(s))

    cases = [
        ("merge", lambda s: "merge" in s),
        ("merge AND sort", lambda s: "merge" in s and "sort" in s),
        ("merge OR sort", lambda s: "merge" in s or "sort" in s),
        ("NOT merge", lambda s: "merge" not in s),
        ("NOT NOT merge", lambda s: "merge" in s),
        ("(merge AND sort) OR (join AND NOT window)",
         lambda s: ("merge" in s and "sort" in s)
         or ("join" in s and "window" not in s)),
        # precedence: AND binds tighter than OR, NOT tighter than AND
        ("merge OR sort AND window",
         lambda s: "merge" in s or ("sort" in s and "window" in s)),
        ("merge AND NOT sort OR join",
         lambda s: ("merge" in s and "sort" not in s) or "join" in s),
    ]
    for expr, pred in cases:
        got = eng.search_boolean_dsl(expr).tolist()
        assert got == want(pred), expr
    import pytest as _pytest
    for bad in ("", "merge AND", "(merge", "merge )", "AND merge",
                "the"):  # 'the' is a stopword -> normalizes away
        with _pytest.raises(ValueError):
            eng.search_boolean_dsl(bad)


def test_bool_query_semantics(P):
    """Result set = must-AND minus must_not; scores equal the plain
    scores over must+should; should terms only boost, never admit."""
    eng = P._index_for(SF)
    ts = _doc_term_sets(P)
    res = eng.search_bool_query(P.BQ_MUST, P.BQ_SHOULD, P.BQ_NOT, 1000)
    got = {d for d, _ in res}
    want = {d for d, s in ts.items()
            if all(t in s for t in P.BQ_MUST)
            and not any(t in s for t in P.BQ_NOT)}
    assert got == want and len(got) > 0
    q = " ".join(P.BQ_MUST + P.BQ_SHOULD)
    plain = dict(eng.search(q, 500, method="exhaustive"))
    for d, s in res:
        assert s == plain[d]
    # a doc with only should terms is NOT admitted
    only_should = [d for d, s in ts.items()
                   if "merge" not in s and any(t in s for t in P.BQ_SHOULD)]
    assert not (set(only_should) & got)
    import pytest as _pytest
    with _pytest.raises(ValueError):
        eng.search_bool_query([], ["stream"])


def test_match_aggs_consistent(P):
    """stats-agg numbers equal a direct pandas computation over the
    matched set; histogram buckets sum to the match count; every
    significant term's fg_df ≤ its bg_df and the ratios rank the
    must-have terms (merge/sort/join appear with ratio > 1)."""
    import pyarrow.parquet as pq

    eng = P._index_for(SF)
    matched = set(eng.search_boolean_dsl(P.BOOL_DSL).tolist())
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "n_chars"]).to_pandas()
    sub = t[t.doc_id.isin(matched)]
    stats = P.match_stats_agg(SF).to_pydict()
    assert stats["n_docs"] == [len(sub)]
    assert stats["sum_chars"] == [int(sub.n_chars.sum())]
    assert stats["min_chars"] == [int(sub.n_chars.min())]
    assert stats["max_chars"] == [int(sub.n_chars.max())]
    hist = P.match_histogram(SF).to_pandas()
    assert int(hist["n"].sum()) == len(sub)
    assert (hist["bucket_lo"] % P.HIST_W == 0).all()
    sig = P.significant_terms(SF).to_pandas()
    assert (sig["fg_df"] <= sig["bg_df"]).all()
    by_term = dict(zip(sig["term"], sig["ratio_micros"]))
    assert by_term.get("merge", 0) > 1_000_000
    assert by_term.get("sort", 0) > 1_000_000


def test_sorted_boolean_search_semantics(P):
    """Top-k by the field, ties by doc_id; result set == boolean match
    ∩ field table; values are the docs' true field values."""
    import pyarrow.parquet as pq

    eng = P._index_for(SF)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "n_chars"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    vals = t["n_chars"].to_numpy().astype(np.int64)
    o = np.argsort(ids)
    ids, vals = ids[o], vals[o]
    nch = dict(zip(ids.tolist(), vals.tolist()))
    expr = "(merge AND sort) OR (join AND NOT window)"
    matched = eng.search_boolean_dsl(expr).tolist()
    res = eng.search_sorted_by(expr, 10, field_ids=ids, field_vals=vals)
    want = sorted(matched, key=lambda d: (-nch[d], d))[:10]
    assert [d for d, _ in res] == want
    assert all(v == nch[d] for d, v in res)
    asc = eng.search_sorted_by(expr, 10, field_ids=ids, field_vals=vals,
                               descending=False)
    assert [d for d, _ in asc] == sorted(
        matched, key=lambda d: (nch[d], d))[:10]


def test_explain_all_scorers_bitwise(P):
    """explain(scorer=X) total equals the doc's search(scorer=X) score
    EXACTLY for every registered ranking scorer."""
    eng = P._index_for(SF)
    q = P.BM25_QUERY
    for scorer in ("bm25", "bm25_plus", "tfidf", "lm_dirichlet",
                   "lm_jelinek_mercer"):
        for d, s in eng.search(q, 5, scorer=scorer):
            ex = eng.explain(q, d, scorer=scorer)
            assert ex["score"] == s, (scorer, d)
            assert ex["alive"] and ex["scorer"] == scorer
            if scorer != "bm25":
                assert all(row["idf"] is None for row in ex["terms"])


def test_boolean_dsl_wildcard_atom(P):
    eng = P._index_for(SF)
    ts = _doc_term_sets(P)
    got = eng.search_boolean_dsl("mer* AND NOT sort").tolist()
    want = sorted(d for d, s in ts.items()
                  if any(t.startswith("mer") for t in s)
                  and "sort" not in s)
    assert got == want and len(got) > 0


def test_sharded_boolean_dsl_identical(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    expr = "(merge AND sort) OR (join AND NOT window)"
    assert sharded.search_boolean_dsl(expr).tolist() == \
        eng.search_boolean_dsl(expr).tolist()
    assert sharded.search_boolean_dsl("NOT merge").tolist() == \
        eng.search_boolean_dsl("NOT merge").tolist()


def test_phrase_ranked_semantics(P):
    """Results are exactly the sloppy-matched docs ranked by plain
    bm25, with their unfiltered scores bitwise."""
    eng = P._index_for(SF)
    phrase = " ".join(P.SLOPPY_TERMS)
    ids, spans = eng.min_ordered_spans(list(P.SLOPPY_TERMS))
    allowed = set(ids[spans <= len(P.SLOPPY_TERMS)
                      + P.SLOPPY_SLOP].tolist())
    res = eng.search_phrase_ranked(phrase, 100, slop=P.SLOPPY_SLOP)
    assert {d for d, _ in res} == allowed
    plain = dict(eng.search(phrase, 500, method="exhaustive"))
    for d, s in res:
        assert s == plain[d]
    assert [d for d, _ in res] == sorted(
        allowed, key=lambda d: (-plain[d], d))
    # slop=0 requires the exact in-order adjacency
    for d, _ in eng.search_phrase_ranked(phrase, 100, slop=0):
        assert d in allowed


def test_sharded_new_surfaces_identical(P, ray_session):
    """bool-query / phrase-ranked / sort-by-field fan-outs equal the
    single engine exactly (floats compared bitwise)."""
    import pyarrow.parquet as pq

    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    assert sharded.search_bool_query(P.BQ_MUST, P.BQ_SHOULD, P.BQ_NOT,
                                     10) == \
        eng.search_bool_query(P.BQ_MUST, P.BQ_SHOULD, P.BQ_NOT, 10)
    phrase = " ".join(P.SLOPPY_TERMS)
    assert sharded.search_phrase_ranked(phrase, 10, P.SLOPPY_SLOP) == \
        eng.search_phrase_ranked(phrase, 10, P.SLOPPY_SLOP)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "n_chars"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    vals = t["n_chars"].to_numpy().astype(np.int64)
    o = np.argsort(ids)
    for desc in (True, False):
        assert sharded.search_sorted_by(
            P.BOOL_DSL, 10, field_ids=ids[o], field_vals=vals[o],
            descending=desc) == \
            eng.search_sorted_by(P.BOOL_DSL, 10, field_ids=ids[o],
                                 field_vals=vals[o], descending=desc)


def test_sharded_proximity_boost_identical(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    got = sharded.search_proximity_boost(P.BM25_QUERY, 10, weight=2.0)
    want = eng.search_proximity_boost(P.BM25_QUERY, 10, weight=2.0)
    assert got == want and len(got) == 10  # floats compared EXACTLY


def test_sharded_collapse_identical(P, ray_session):
    """Groups span shards (source is independent of doc_id sharding):
    the per-worker collapse + driver re-collapse equals single-engine
    exactly, at per_group 1 and 2."""
    import pyarrow.parquet as pq

    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "source"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    src = np.asarray(t["source"])
    order = np.argsort(ids)
    ids, src = ids[order], src[order]
    _, codes = np.unique(src, return_inverse=True)
    codes = codes.astype(np.int64)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    for pg in (1, 2):
        got = sharded.search_collapse(P.BM25_QUERY, 10, group_ids=ids,
                                      group_codes=codes, per_group=pg)
        want = eng.search_collapse(P.BM25_QUERY, 10, group_ids=ids,
                                   group_codes=codes, per_group=pg)
        assert got == want and len(got) == 10, pg


def test_collapse_search_semantics(P):
    """Survivors are each group's best; suppressed docs are exactly the
    matched docs whose group already has a better (score, -doc_id)."""
    import pyarrow.parquet as pq

    eng = P._index_for(SF)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "source"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    src = np.asarray(t["source"])
    order = np.argsort(ids)
    ids, src = ids[order], src[order]
    uniq, codes = np.unique(src, return_inverse=True)
    res = eng.search_collapse(P.BM25_QUERY, 1000, group_ids=ids,
                              group_codes=codes.astype(np.int64))
    ranked = eng.search(P.BM25_QUERY, len(ids) + 10, method="exhaustive")
    grp = dict(zip(ids.tolist(), codes.tolist()))
    want, seen = [], set()
    for d, s in ranked:
        g = grp[d]
        if g in seen:
            continue
        seen.add(g)
        want.append((d, g, s))
    assert res == want
    assert len(res) == len({g for _, g, _ in res})  # one per group
    assert 0 < len(res) < len(ranked)               # it DID collapse
    # per_group=2 keeps at most two per group and is a superset
    res2 = eng.search_collapse(P.BM25_QUERY, 1000, group_ids=ids,
                               group_codes=codes.astype(np.int64),
                               per_group=2)
    from collections import Counter
    assert max(Counter(g for _, g, _ in res2).values()) <= 2
    assert set(d for d, _, _ in res).issubset(d for d, _, _ in res2)
    # negative user codes collide with the singleton sentinel: refused
    import pytest as _pytest
    with _pytest.raises(ValueError, match="non-negative"):
        eng.search_collapse(P.BM25_QUERY, 10, group_ids=ids,
                            group_codes=np.full(len(ids), -5, np.int64))


def test_positional_guards(P, ray_session, tmp_path):
    """A non-positional index refuses positional queries loudly."""
    import pytest as _pytest

    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    idx2 = str(tmp_path / "plain_idx")
    build_index(os.path.join(SF, "documents.parquet"), idx2,
                content_col="text", id_col="doc_id", num_shards=2)
    with _pytest.raises(ValueError, match="store_positions"):
        QueryEngine(idx2).term_positions("merge")


def test_positional_append_compact_lifecycle(P, ray_session, tmp_path):
    """The positions sidecar survives the whole index lifecycle:
    build half → append half serves phrase/NEAR identical to a full
    positional rebuild, and compaction re-carries positions bitwise."""
    import pyarrow.parquet as pq

    from stacksearch_ray.append import append_to_index, compact_index
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    docs = os.path.join(SF, "documents.parquet")
    t = pq.read_table(docs)
    half = t.num_rows // 2
    base_p = str(tmp_path / "base.parquet")
    delta_p = str(tmp_path / "delta.parquet")
    pq.write_table(t.slice(0, half), base_p)
    pq.write_table(t.slice(half), delta_p)
    kw = dict(content_col="text", id_col="doc_id", num_shards=2,
              store_positions=True)
    idx = str(tmp_path / "inc")
    full = str(tmp_path / "full")
    build_index(base_p, idx, **kw)
    append_to_index(delta_p, idx)
    assert load_stats(idx)["store_positions"] is True
    build_index(docs, full, **kw)
    eng_i, eng_f = QueryEngine(idx), QueryEngine(full)

    def same_positional_surface(a, b):
        for term in ("merge", "sort", "dup"):
            ia, ta, pos_a = a.term_positions(term)
            ib, tb, pos_b = b.term_positions(term)
            assert ia.tolist() == ib.tolist(), term
            assert ta.tolist() == tb.tolist(), term
            assert pos_a.tolist() == pos_b.tolist(), term
        da, ca = a.phrase_occurrences("merge sort")
        db, cb = b.phrase_occurrences("merge sort")
        assert da.tolist() == db.tolist() and ca.tolist() == cb.tolist()
        assert len(da) > 0
        ga, ma = a.near_min_gaps("merge", "sort")
        gb, mb = b.near_min_gaps("merge", "sort")
        assert ga.tolist() == gb.tolist() and ma.tolist() == mb.tolist()

    same_positional_surface(eng_i, eng_f)

    compact_index(idx)
    assert fsck_index(idx).ok
    a = pq.read_table(os.path.join(idx, "segments")).to_pandas()
    b = pq.read_table(os.path.join(full, "segments")).to_pandas()
    a = a.sort_values(["term", "shard"]).reset_index(drop=True)
    b = b.sort_values(["term", "shard"]).reset_index(drop=True)
    assert len(a) == len(b)
    assert not a.duplicated(["term", "shard"]).any()
    for col in ("term", "shard", "df", "cf", "doc_ids", "tfs", "positions"):
        assert (a[col] == b[col]).all(), col
    same_positional_surface(QueryEngine(idx), eng_f)


def test_positional_checkpointed_build(P, ray_session, tmp_path):
    """build_index_resumable(store_positions=True) records the flag in
    stats and produces segments bitwise equal (incl. positions) to the
    positional build of the same docs as a Dataset source."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.checkpoint import build_index_resumable
    from stacksearch_ray.query import QueryEngine

    docs = os.path.join(SF, "documents.parquet")
    kw = dict(content_col="text", id_col="doc_id", num_shards=2,
              store_positions=True)
    ckpt = str(tmp_path / "ckpt")
    streamed = str(tmp_path / "dataset")
    build_index_resumable(docs, ckpt, **kw)
    build_index(rd.read_parquet(docs), streamed, batch_size=128, **kw)
    assert load_stats(ckpt)["store_positions"] is True
    a = pq.read_table(os.path.join(ckpt, "segments")).to_pandas()
    b = pq.read_table(os.path.join(streamed, "segments")).to_pandas()
    a = a.sort_values(["term", "shard"]).reset_index(drop=True)
    b = b.sort_values(["term", "shard"]).reset_index(drop=True)
    assert len(a) == len(b) > 0
    for col in ("term", "shard", "df", "cf", "doc_ids", "tfs", "positions"):
        assert (a[col] == b[col]).all(), col
    ids, counts = QueryEngine(ckpt).phrase_occurrences("merge sort")
    ids2, counts2 = QueryEngine(streamed).phrase_occurrences("merge sort")
    assert ids.tolist() == ids2.tolist()
    assert counts.tolist() == counts2.tolist()
