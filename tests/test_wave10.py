"""Semantic properties of the wave-10 operators: terms_set (per-doc
minimum_should_match), constant_score, unordered span_near, and the ES
aggregation parity entries. The SQL oracle pins exact values
(scripts/selfcheck.py); these pin the MEANING and the sharded
identities."""

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


# ---------------- terms_set ----------------

def test_terms_set_constant_fn_equals_min_should_match(P):
    """A constant threshold function degenerates to plain
    minimum_should_match — the two gates must agree bitwise."""
    eng = P._index_for(SF)
    q = P.BM25_QUERY
    for m in (1, 2, 3):
        got = eng.search_terms_set(q, lambda ids, m=m: np.full(len(ids), m),
                                   25)
        want = eng.search_min_should_match(q, m, 25)
        assert got == want, m


def test_terms_set_per_doc_gate(P):
    """Every survivor matches at least its OWN threshold of distinct
    query terms, keeps its unfiltered score, and no qualifying doc in
    the full ranking is missed before the cutoff."""
    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    q = P.BM25_QUERY
    terms = sorted(set(clean_query(q)))
    res = eng.search_terms_set(q, P._terms_set_msm, 1000)
    full = dict(eng.search(q, 10_000, method="exhaustive"))

    def matched(d):
        n = 0
        for t in terms:
            ids = eng.term_doc_ids(t)
            j = np.searchsorted(ids, d)
            n += int(j < len(ids) and ids[j] == d)
        return n

    got = {d for d, _ in res}
    for d, s in res:
        assert matched(d) >= 1 + d % P.TERMS_SET_MOD
        assert s == full[d]  # survivor keeps its unfiltered score
    # completeness: every scored doc passing its own gate is in the set
    for d in full:
        if matched(d) >= 1 + d % P.TERMS_SET_MOD:
            assert d in got, d


def test_sharded_terms_set_identity(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    got = sharded.search_terms_set(P.BM25_QUERY, P._terms_set_msm, 12)
    assert got == eng.search_terms_set(P.BM25_QUERY, P._terms_set_msm, 12)


# ---------------- constant_score ----------------

def test_constant_score_is_filter_context(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    ids = eng.search_boolean_dsl(P.BOOL_DSL)
    res = eng.search_constant_score(P.BOOL_DSL, 2.5, 10)
    assert [d for d, _ in res] == ids[:10].tolist()
    assert all(s == 2.5 for _, s in res)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    assert sharded.search_constant_score(P.BOOL_DSL, 2.5, 10) == res


# ---------------- span_near (unordered) ----------------

def test_span_near_gate_and_scores(P):
    """Matched set == the min-cover-window gate; survivors keep their
    unfiltered scores; order-freeness: the gate is invariant under any
    permutation of the terms list."""
    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    terms = clean_query(P.BM25_QUERY)
    ids, w = eng.min_cover_windows(sorted(set(terms)))
    allowed = set(ids[w <= len(set(terms)) + P.SPAN_NEAR_SLOP].tolist())
    res = eng.search_span_near(terms, 1000, slop=P.SPAN_NEAR_SLOP)
    assert {d for d, _ in res} == allowed
    full = dict(eng.search(" ".join(sorted(set(terms))), 10_000,
                           method="exhaustive"))
    for d, s in res:
        assert s == full[d]
    assert eng.search_span_near(list(reversed(terms)), 1000,
                                slop=P.SPAN_NEAR_SLOP) == res


def test_span_near_slop_monotone(P):
    """Tightening slop can only shrink the matched set."""
    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    terms = clean_query(P.BM25_QUERY)
    prev: set = set()
    for slop in (0, 2, 8, 64):
        cur = {d for d, _ in eng.search_span_near(terms, 10_000, slop=slop)}
        assert prev <= cur
        prev = cur


def test_sharded_span_near_identity(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    from stacksearch_ray.text import clean_query

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    terms = clean_query(P.BM25_QUERY)
    assert (sharded.search_span_near(terms, 10, slop=P.SPAN_NEAR_SLOP)
            == eng.search_span_near(terms, 10, slop=P.SPAN_NEAR_SLOP))


# ---------------- aggregation entries: brute-force replays ----------------

def test_extended_stats_brute(P):
    import pyarrow.parquet as pq

    from stacksearch_ray.micros import to_micros

    t = pq.read_table(os.path.join(SF, "lineitem.parquet"),
                      columns=["l_returnflag", "l_quantity"]).to_pandas()
    got = P.extended_stats_agg(SF).to_pandas().set_index("l_returnflag")
    for flag, grp in t.groupby("l_returnflag"):
        q = np.floor(grp["l_quantity"].to_numpy(np.float64) + 0.5
                     ).astype(np.int64)
        n, s, ss = len(q), int(q.sum()), int((q * q).sum())
        mean = float(s) / n
        var = float(n * ss - s * s) / n / n
        row = got.loc[flag]
        assert row["n"] == n and row["sum_q"] == s
        assert row["min_q"] == q.min() and row["max_q"] == q.max()
        assert row["avg_micros"] == to_micros(mean)
        assert row["var_micros"] == to_micros(var)
        assert row["std_upper_micros"] == to_micros(
            mean + 2 * np.sqrt(var))


def test_boxplot_brute(P):
    import pyarrow.parquet as pq

    got = P.boxplot_agg(SF).to_pandas().iloc[0]
    v = pq.read_table(os.path.join(SF, "events.parquet"),
                      columns=["value"])["value"].to_numpy()
    vm = np.floor(v * 1e6 + 0.5).astype(np.int64)
    iqr = got["q3_micros"] - got["q1_micros"]
    assert got["lo_fence_micros"] == got["q1_micros"] - (15 * iqr) // 10
    assert got["hi_fence_micros"] == got["q3_micros"] + (15 * iqr) // 10
    assert got["n_outliers"] == int(((vm < got["lo_fence_micros"])
                                     | (vm > got["hi_fence_micros"])).sum())
    # the quartiles really are order statistics of the data
    assert got["q1_micros"] in vm and got["q3_micros"] in vm


def test_diversified_sampler_constraints(P):
    got = P.diversified_sampler_agg(SF).to_pandas()
    assert len(got) == P.SAMPLER_K
    assert got["source"].value_counts().max() <= P.SAMPLER_PER_SOURCE
    assert got["rank"].tolist() == list(range(1, len(got) + 1))


def test_range_agg_partition(P):
    """Buckets partition the events table: counts sum to the row count
    and every bucket key is one of the four."""
    import pyarrow.parquet as pq

    got = P.range_agg(SF).to_pandas()
    n = pq.read_metadata(os.path.join(SF, "events.parquet")).num_rows
    assert got["n"].sum() == n
    assert set(got["bucket"]) <= set(P.RANGE_KEYS)


def test_cumulative_and_serial_pipelines(P):
    c = P.cumulative_sum_pipeline(SF).to_pandas()
    assert (np.cumsum(c["n"].to_numpy()) == c["cum_n"].to_numpy()).all()
    s = P.serial_diff_pipeline(SF).to_pandas()
    L = P.SERIAL_DIFF_LAG
    n = s["n"].to_numpy(np.int64)
    assert (s["sdiff"].to_numpy()[:L] == 0).all()
    assert (s["sdiff"].to_numpy()[L:] == n[L:] - n[:-L]).all()


# ---------------- query_string ----------------

def test_query_string_reduces_to_known_surfaces(P):
    """Degenerate forms agree bitwise with the dedicated surfaces:
    a lone quoted phrase == phrase_ranked; a lone boosted term ==
    search_boosted; a pure boolean expression matches the DSL set."""
    eng = P._index_for(SF)
    assert (eng.search_query_string('"merge sort"~2', 10)
            == eng.search_phrase_ranked("merge sort", 10, slop=2))
    assert (eng.search_query_string("merge^2.0", 10)
            == eng.search_boosted({"merge": 2.0}, 10))
    qs = "(merge AND sort) OR (join AND NOT window)"
    got = {d for d, _ in eng.search_query_string(qs, 10_000)}
    assert got == set(eng.search_boolean_dsl(qs).tolist())


def test_query_string_repeated_term_sums_boosts(P):
    eng = P._index_for(SF)
    assert (eng.search_query_string("merge^1.0 OR merge^2.5", 10)
            == eng.search_boosted({"merge": 3.5}, 10))


def test_query_string_prefix_filters_but_never_scores(P):
    """A prefix-only query yields zero scores in doc order; adding a
    scored term ranks scored docs first at their boosted-bm25 value."""
    eng = P._index_for(SF)
    res = eng.search_query_string("mer*", 10)
    assert all(s == 0.0 for _, s in res)
    assert [d for d, _ in res] == sorted(d for d, _ in res)
    mixed = eng.search_query_string("mer* AND stream", 10_000)
    boosted = dict(eng.search_boosted({"stream": 1.0}, 10_000))
    for d, s in mixed:
        assert s == boosted[d]  # every survivor contains stream


def test_query_string_parse_errors(P):
    eng = P._index_for(SF)
    for bad in ["", "(merge", "merge AND", "AND merge", "the"]:
        with pytest.raises(ValueError):
            eng.search_query_string(bad, 10)


def test_boolean_dsl_is_query_string_matched_set(P):
    """The boolean DSL is the matched set of the one query_string
    grammar: a phrase gates by its span, a boost parses but cannot
    change a set."""
    eng = P._index_for(SF)
    for qs in ['"merge sort"~1', '"merge sort"~1 AND NOT window',
               "merge^2.5 OR sort", '(mer* AND "sort merge") OR join']:
        got = eng.search_boolean_dsl(qs).tolist()
        assert got == sorted(d for d, _ in
                             eng.search_query_string(qs, 100_000)), qs
    assert (eng.search_boolean_dsl("merge^2.5 OR sort").tolist()
            == eng.search_boolean_dsl("merge OR sort").tolist())
    ids, spans = eng.min_ordered_spans(["merge", "sort"])
    assert (eng.search_boolean_dsl('"merge sort"~1').tolist()
            == ids[spans <= 3].tolist())


def test_sharded_query_string_identity(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    for qs in [P.QS_QUERY, "mer* AND NOT sort",
               '"merge sort"~1 OR stream^3.0']:
        assert (sharded.search_query_string(qs, 10)
                == eng.search_query_string(qs, 10)), qs


# ---------------- dfi scorer + boosting query ----------------

def test_dfi_scorer_properties(P):
    """DFI scores are finite and non-negative; a term appearing less
    often than independence predicts contributes exactly 0 (so a doc
    whose every query term is under-expected scores 0 and is still
    ranked last among hits, never negative)."""
    eng = P._index_for(SF)
    res = eng.search(P.BM25_QUERY, 10_000, method="exhaustive",
                     scorer="dfi")
    assert res and all(np.isfinite(s) and s >= 0.0 for _, s in res)


def test_boosting_demotes_never_excludes(P):
    eng = P._index_for(SF)
    base = dict(eng.search(P.BM25_QUERY, 10_000, method="exhaustive"))
    neg = set(eng.search_boolean_dsl(P.BOOSTING_NEG).tolist())
    res = eng.search_boosting(P.BM25_QUERY, P.BOOSTING_NEG,
                              P.BOOSTING_NB, 10_000)
    assert {d for d, _ in res} == set(base)  # nothing excluded
    for d, s in res:
        want = base[d] * P.BOOSTING_NB if d in neg else base[d]
        assert s == want, d


def test_sharded_boosting_identity(P, ray_session):
    from stacksearch_ray.query import ShardedQueryEngine

    eng = P._index_for(SF)
    sharded = ShardedQueryEngine(eng.index_dir, num_workers=4)
    assert (sharded.search_boosting(P.BM25_QUERY, P.BOOSTING_NEG,
                                    P.BOOSTING_NB, 10)
            == eng.search_boosting(P.BM25_QUERY, P.BOOSTING_NEG,
                                   P.BOOSTING_NB, 10))


# ---------------- build commit point (stats.json written LAST) ----------------

def test_build_crash_leaves_no_commit_point(P, ray_session, tmp_path,
                                            monkeypatch):
    """stats.json is the commit point _ensure_built and every reader
    key on: a build that dies before the index is complete must leave
    NO stats.json (a mid-build stats.json let concurrent openers read
    a partial index — the cold 4-shard selfcheck race). Re-running the
    build heals."""
    from stacksearch_ray import checkpoint as ckpt
    from stacksearch_ray.build import build_index
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, 120, rows_per_file=60)
    idx = str(tmp_path / "idx")

    real = ckpt.write_term_dict

    def boom(*a, **k):
        raise RuntimeError("injected crash before commit")

    monkeypatch.setattr(ckpt, "write_term_dict", boom)
    with pytest.raises(RuntimeError):
        build_index(corpus, idx, num_shards=2)
    assert not os.path.exists(os.path.join(idx, "stats.json"))
    with pytest.raises(Exception):
        QueryEngine(idx)  # partial index cannot be opened

    monkeypatch.setattr(ckpt, "write_term_dict", real)
    build_index(corpus, idx, num_shards=2)
    assert os.path.exists(os.path.join(idx, "stats.json"))
    assert QueryEngine(idx).search("def return", 5)


# ---------------- maxsim late interaction ----------------

def test_maxsim_brute_force(P):
    """MaxSim == the brute-force replay: per doc, Σ over query tokens
    of the max integer dot against the doc's distinct term vectors."""
    import pyarrow.parquet as pq

    from stacksearch_ray.text import clean_query

    qterms = sorted(set(clean_query(P.BM25_QUERY)))
    Q = P._maxsim_vec(qterms)
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    scores = {}
    for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        terms = sorted(set(clean_query(x, max_tokens=None)))
        if not terms:
            continue
        T = P._maxsim_vec(terms)
        scores[d] = int((T @ Q.T).max(axis=0).sum())
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = P.maxsim_search(SF).to_pandas()
    assert list(zip(got["doc_id"], got["score"])) == want
