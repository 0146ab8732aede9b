"""Driver-contract safety net: __ray_entry__.entry()/queries()/oracle_sql()
stay importable, runnable, and consistent (the driver's t1 smoke + a
sample of t2 comparisons, in CI form)."""

import os
import sys

import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as E

    return E


def test_entry_smoke(entry_mod):
    df = entry_mod.entry()
    assert isinstance(df, pd.DataFrame)
    assert list(df.columns) == ["query", "rank", "doc_id", "score"]
    assert len(df) >= 0
    # deterministic across calls
    df2 = entry_mod.entry()
    assert df.equals(df2)


def test_queries_oracle_keys_consistent(entry_mod):
    qs, sqls = entry_mod.queries(), entry_mod.oracle_sql()
    assert set(sqls) <= set(qs)  # every oracle has a pipeline
    assert len(qs) >= 30
    for name, fn in qs.items():
        assert callable(fn), name


ROWS_ONLY = {"semantic_knn", "autoencoder_embed", "conv_autoencoder_embed",
             "multimodal_features", "video_frame_sample", "audio_windows"}


def test_search_entries_expand_into_queries(entry_mod):
    """Every row of documents.SEARCH_ENTRIES reaches queries() once,
    through the table's expansion and never also as a hand-listed key,
    and queries() keeps its 304 names: 298 oracled, 6 rows-only."""
    import ast
    import inspect

    from stacksearch_ray.pipelines import documents as P

    tree = ast.parse(inspect.getsource(entry_mod.queries))
    literal = next(n for n in ast.walk(tree) if isinstance(n, ast.Dict))
    listed = [k.value for k in literal.keys if k is not None]
    assert len(listed) == len(set(listed))
    assert not set(listed) & set(P.SEARCH_ENTRIES)
    qs = entry_mod.queries()
    for name in P.SEARCH_ENTRIES:
        assert qs[name].__name__ == name
    assert len(qs) == 304 and len(P.SEARCH_ENTRIES) >= 29
    assert set(qs) == set(entry_mod.oracle_sql()) | ROWS_ONLY


def test_sql_tokenizer_unicode_parity():
    """Engine and oracle CTE strip non-[a-zA-Z0-9 \\n] BEFORE lowercasing;
    they must agree on non-ASCII uppercase whose lowercase is ASCII
    (U+212A KELVIN SIGN → 'k', U+0130 'İ' → 'i̇') — lowering first would
    keep those as ASCII letters, the engine order drops them."""
    import duckdb

    from stacksearch_ray.pipelines.sql import kept_tokens_cte
    from stacksearch_ray.text import clean_query
    from stacksearch_ray.stopwords import ENGLISH_STOPWORD_SET

    texts = ["Kelvin scale UNITs", "İstanbul Data", "Plain ASCII9\nrow",
             "mixed Kİ Oh"]
    con = duckdb.connect()
    con.execute("CREATE TABLE documents(doc_id BIGINT, text VARCHAR)")
    for i, t in enumerate(texts):
        con.execute("INSERT INTO documents VALUES (?, ?)", [i, t])
    sql = (f"WITH {kept_tokens_cte()} SELECT doc_id, term FROM kept "
           f"ORDER BY doc_id, term")
    got = [(int(d), t) for d, t in con.sql(sql).fetchall()]
    expect = sorted(
        (i, tok) for i, t in enumerate(texts)
        for tok in clean_query(t) if tok not in ENGLISH_STOPWORD_SET)
    assert got == sorted(expect)


@pytest.mark.parametrize("name", ["term_df", "exact_dedup", "bm25_topk",
                                  "docs_range", "knn_cosine",
                                  "docs_stratified_sample", "regex_extract",
                                  "lang_term_overlap", "doc_logprob",
                                  "user_event_pivot", "lineitem_rollup",
                                  "curated_corpus",
                                  "embedding_dedup_corpus",
                                  "rrf_hybrid",
                                  "tfidf_keywords", "doc_entropy",
                                  "bigram_logprob", "domain_mix_sample",
                                  "decayed_events", "dup_ngram_stats",
                                  "phrase_search_indexed",
                                  "token_fertility", "containment_pairs",
                                  "winsorized_mean",
                                  "bm25_topk_appended",
                                  "event_trigrams", "lang_confusion",
                                  "length_outliers", "type_token_ratio",
                                  "js_divergence", "robust_outliers",
                                  "hard_negatives", "term_coverage",
                                  "mmr_rerank", "dup_rate_by_source",
                                  "stopword_discovery", "tfidf_search",
                                  "lm_dirichlet_search", "span_first_search",
                                  "query_string_search", "prf_search"])
def test_sampled_entries_match_oracle(entry_mod, name):
    import duckdb

    res = entry_mod.queries()[name](SF)
    mine = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    con = duckdb.connect()
    for t in ["documents", "embeddings", "events", "lineitem", "orders",
              "customer"]:
        p = os.path.join(SF, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    oracle = con.sql(entry_mod.oracle_sql()[name]).df()
    assert len(mine) == len(oracle), name
    assert sorted(mine.columns) == sorted(oracle.columns), name
    a = mine[sorted(mine.columns)].astype(str).apply("|".join, axis=1)
    b = oracle[sorted(oracle.columns)].astype(str).apply("|".join, axis=1)
    assert sorted(a) == sorted(b), name


def test_spellfix_corrects_to_expected_terms(entry_mod):
    """spellfix_search == plain BM25 over the hand-derived corrections
    (mrege→merge, sortt→sort, jion→join, streem→stream, windoww→window,
    qurey→query, zzzzqq→dropped) — pins the correction step end-to-end
    against the documents vocab."""
    from stacksearch_ray.micros import to_micros
    from stacksearch_ray.pipelines.documents import _index_for, spellfix_search

    got = spellfix_search(SF).to_pandas()
    eng = _index_for(SF)
    res = eng.search("join merge query sort stream window", 10,
                     method="exhaustive")
    assert list(got["doc_id"]) == [d for d, _ in res]
    assert list(got["score_micros"]) == [to_micros(s) for _, s in res]


def test_ir_eval_metric_invariants(entry_mod):
    """DCG@10 never exceeds ideal DCG, RR ∈ (0, 1] when any hit exists,
    hits@10 ≤ min(n_rel, 10) — and the 3-term conjunctive query must be
    strictly harder than the single-term one (nDCG < 1)."""
    from stacksearch_ray.pipelines.documents import ir_eval

    df = ir_eval(SF).to_pandas().set_index("query")
    assert (df["dcg_micros"] <= df["idcg_micros"]).all()
    assert (df["hits_at_10"] <= df[["n_rel"]].clip(upper=10)["n_rel"]).all()
    hit_rows = df[df["hits_at_10"] > 0]
    assert ((hit_rows["rr_micros"] > 0)
            & (hit_rows["rr_micros"] <= 1_000_000)).all()
    assert (df.loc["dup query window", "dcg_micros"]
            < df.loc["dup query window", "idcg_micros"])


def test_stemmed_search_conflates_variants(entry_mod):
    """The stemmed index retrieves docs for morphological query variants
    ("sorting joins…" → sort/join/…) with nonzero scores, and the stem
    rules agree between the Arrow kernel and the scalar mirror."""
    import pyarrow as pa

    from stacksearch_ray.pipelines.documents import (_stem_flat, _stem_token,
                                                     stemmed_search)

    toks = ["sorting", "joins", "merged", "windows", "was", "pass", "dup"]
    assert ([_stem_token(t) for t in toks]
            == _stem_flat(pa.array(toks)).to_pylist())
    got = stemmed_search(SF).to_pandas()
    assert len(got) == 10
    assert (got["score_micros"] > 0).all()
