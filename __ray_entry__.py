"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (index build + golden-query BM25
search) on sf0.001. ``queries()`` exposes one callable per implemented
operator/pipeline (SURVEY.md §2); ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible one (column names match exactly;
floats travel as *_micros int64).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# defensive: make the package importable regardless of the driver's cwd
_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)


def entry() -> Any:
    """Flagship: BM25 index build over sf0.001 documents + reference
    golden-query search through the WAND scorer."""
    from stacksearch_ray.pipelines import documents as P
    from stacksearch_ray.query import QueryEngine

    eng: QueryEngine = P._index_for("/root/testdata/sf0.001")
    golden = [
        "Determine a user's timezone",
        "Converting ARBG to RGB alpha blending",
        "merge sort join stream window",
        "spark query filter batch",
    ]
    rows = []
    for q in golden:
        for rank, (doc_id, score) in enumerate(eng.search(q, 10, "bmax"), 1):
            rows.append({"query": q, "rank": rank, "doc_id": doc_id,
                         "score": score})
    import pandas as pd

    return pd.DataFrame(rows, columns=["query", "rank", "doc_id", "score"])


def queries() -> dict[str, Callable[[str], Any]]:
    from stacksearch_ray.pipelines import documents as P

    return {
        # single-call searches over the cached documents index: one row
        # each in documents.SEARCH_ENTRIES
        **P.search_entries(),
        # tokenize / index-side aggregates (M2-M8, A1-A7)
        "term_counts": P.term_counts,
        "term_df": P.term_df,
        "heavy_terms": P.heavy_terms,
        "token_stats": lambda sf: P.token_stats(sf).drop_columns(
            ["stopword_ratio_micros"]),
        "quality_filter": P.quality_filter,
        "corpus_stats": P.corpus_stats,
        # ranked search beyond one engine call (T1-T4)
        "score_explain": P.score_explain,
        "decay_search": P.decay_search,
        "collapse_search": P.collapse_search,
        "msearch": P.msearch,
        "top_hits_by_label": P.top_hits_by_label,
        "rank_feature_search": P.rank_feature_search,
        "chunk_documents": P.chunk_documents,
        "passage_search": P.passage_search,
        "knn_hnsw": P.knn_hnsw,
        "pinned_search": P.pinned_search,
        "has_child_search": P.has_child_search,
        "has_parent_search": P.has_parent_search,
        "composite_agg_page": P.composite_agg_page,
        "adjacency_matrix_agg": P.adjacency_matrix_agg,
        "search_export": P.search_export,
        "phrase_suggest": P.phrase_suggest,
        "knn_ivf_appended": P.knn_ivf_appended,
        "knn_ivf_deleted": P.knn_ivf_deleted,
        "knn_ivf_compacted": P.knn_ivf_compacted,
        "boolean_dsl_search": P.boolean_dsl_search,
        "sorted_boolean_search": P.sorted_boolean_search,
        "es_request_search": P.es_request_search,
        "match_stats_agg": P.match_stats_agg,
        "match_histogram": P.match_histogram,
        "significant_terms": P.significant_terms,
        "significant_text_agg": P.significant_text_agg,
        "feature_boost_search": P.feature_boost_search,
        "spellfix_search": P.spellfix_search,
        "ir_eval": P.ir_eval,
        "embedding_decontamination": P.embedding_decontamination,
        "stemmed_search": P.stemmed_search,
        "dismax_search": P.dismax_search,
        "bm25f_search": P.bm25f_search,
        "cross_fields_search": P.cross_fields_search,
        "combined_fields_search": P.combined_fields_search,
        "term_vectors": P.term_vectors,
        "dsir_weights": P.dsir_weights,
        "query_completion": P.query_completion,
        "context_completion": P.context_completion,
        "fielded_search": P.fielded_search,
        "prf_expansion": P.prf_expansion,
        "bm25_topk_appended": P.bm25_topk_appended,
        "bm25_topk_merged": P.bm25_topk_merged,
        "bm25_topk_deleted": P.bm25_topk_deleted,
        "delete_by_query_search": P.delete_by_query_search,
        "update_by_query_search": P.update_by_query_search,
        "bulk_search": P.bulk_search,
        "rare_terms_agg": P.rare_terms_agg,
        "matrix_stats_agg": P.matrix_stats_agg,
        "weighted_avg_agg": P.weighted_avg_agg,
        "t_test_agg": P.t_test_agg,
        "geo_distance_search": P.geo_distance_search,
        "geo_bbox_search": P.geo_bbox_search,
        "date_range_agg": P.date_range_agg,
        "rate_agg": P.rate_agg,
        "histogram_bounds_agg": P.histogram_bounds_agg,
        "variable_width_histogram": P.variable_width_histogram,
        "random_score_search": P.random_score_search,
        "maxsim_search": P.maxsim_search,
        "maxsim_rerank": P.maxsim_rerank,
        "fim_transform": P.fim_transform,
        "pit_paged_search": P.pit_paged_search,
        "reindex_search": P.reindex_search,
        "terms_agg_shard_error": P.terms_agg_shard_error,
        "extended_stats_agg": P.extended_stats_agg,
        "string_stats_agg": P.string_stats_agg,
        "boxplot_agg": P.boxplot_agg,
        "range_agg": P.range_agg,
        "filters_agg": P.filters_agg,
        "multi_terms_agg": P.multi_terms_agg,
        "top_metrics_agg": P.top_metrics_agg,
        "diversified_sampler_agg": P.diversified_sampler_agg,
        "sampler_agg": P.sampler_agg,
        "ip_range_agg": P.ip_range_agg,
        "moving_percentiles_pipeline": P.moving_percentiles_pipeline,
        "cumulative_sum_pipeline": P.cumulative_sum_pipeline,
        "serial_diff_pipeline": P.serial_diff_pipeline,
        "bucket_script_pipeline": P.bucket_script_pipeline,
        "max_bucket_pipeline": P.max_bucket_pipeline,
        "normalize_pipeline": P.normalize_pipeline,
        "bucket_sort_pipeline": P.bucket_sort_pipeline,
        "bucket_selector_pipeline": P.bucket_selector_pipeline,
        "geo_grid_agg": P.geo_grid_agg,
        "docstore_join": P.docstore_join,
        # dedup (§2.7 + training-data ops)
        "exact_dedup": P.exact_dedup,
        "dedup_corpus": P.dedup_corpus,
        "curated_corpus": P.curated_corpus,
        "embedding_dedup_corpus": P.embedding_dedup_corpus,
        "minhash_clusters": P.minhash_clusters,
        "neardup_keep_longest": P.neardup_keep_longest,
        "minhash_search": P.minhash_search,
        "simhash_sigs": P.simhash_sigs,
        "simhash_pairs": P.simhash_pairs,
        "bpe_token_counts": P.bpe_token_counts,
        "ngram_jaccard": P.ngram_jaccard,
        "ngram_fingerprints": P.doc_fingerprints,
        # curation (decontamination / quality / PII / edit-distance)
        "contamination_hits": P.contamination_hits,
        "repetition_stats": P.repetition_stats,
        "pii_redact": P.pii_redact,
        "edit_pairs": P.edit_pairs,
        "jw_pairs": P.jw_pairs,
        "pagerank": P.pagerank,
        "ppr_related": P.ppr_related,
        "connected_components": P.connected_components,
        "user_modal_event": P.user_modal_event,
        "value_mad": P.value_mad,
        "value_quantiles_sketch": P.value_quantiles_sketch,
        "label_centroids": P.label_centroids,
        "user_funnel": P.user_funnel,
        "packed_sequences": P.packed_sequences,
        "events_zscore": P.events_zscore,
        "events_time_window": P.events_time_window,
        "stratified_weighted_sample": P.stratified_weighted_sample,
        "copurchase_topk": P.copurchase_topk,
        "collocations": P.collocations,
        "phrase_search": P.phrase_search,
        # keyword extraction / LM+entropy quality scores / mixing / decay
        "rrf_hybrid": P.rrf_hybrid,
        "hybrid_linear_search": P.hybrid_linear_search,
        "retriever_tree_search": P.retriever_tree_search,
        "tfidf_keywords": P.tfidf_keywords,
        "doc_entropy": P.doc_entropy,
        "bigram_logprob": P.bigram_logprob,
        "domain_mix_sample": P.domain_mix_sample,
        "decayed_events": P.decayed_events,
        "dup_ngram_stats": P.dup_ngram_stats,
        "dedup_spans": P.dedup_spans,
        "phrase_search_indexed": P.phrase_search_indexed,
        "token_fertility": P.token_fertility,
        "containment_pairs": P.containment_pairs,
        "winsorized_mean": P.winsorized_mean,
        "event_trigrams": P.event_trigrams,
        "lang_confusion": P.lang_confusion,
        "length_outliers": P.length_outliers,
        "type_token_ratio": P.type_token_ratio,
        "js_divergence": P.js_divergence,
        "robust_outliers": P.robust_outliers,
        "hard_negatives": P.hard_negatives,
        "term_coverage": P.term_coverage,
        "mmr_rerank": P.mmr_rerank,
        "dup_rate_by_source": P.dup_rate_by_source,
        "stopword_discovery": P.stopword_discovery,
        # search-engine query operators (boolean / autocomplete /
        # facets / fuzzy match)
        "boolean_search": P.boolean_search,
        "term_autocomplete": P.term_autocomplete,
        "search_facets": P.search_facets,
        "fuzzy_vocab_match": P.fuzzy_vocab_match,
        "global_shuffle": P.global_shuffle,
        "more_like_this": P.more_like_this,
        "mlt_unlike_search": P.mlt_unlike_search,
        "bpe_merges": P.bpe_merges,
        "bpe_encode_stats": P.bpe_encode_stats,
        "ingest_dedup": P.ingest_dedup,
        "ingest_dedup_indexed": P.ingest_dedup_indexed,
        "phrase_search_positional": P.phrase_search_positional,
        "phrase_search_appended": P.phrase_search_appended,
        "near_search_positional": P.near_search_positional,
        "wildcard_search": P.wildcard_search,
        "regex_search": P.regex_search,
        "content_substring_search": P.content_substring_search,
        "content_regex_search": P.content_regex_search,
        "min_window_search": P.min_window_search,
        "sloppy_phrase_search": P.sloppy_phrase_search,
        "orders_monthly": P.orders_monthly,
        "lineitem_profile": P.lineitem_profile,
        "curated_packed_sequences": P.curated_packed_sequences,
        "length_batching": P.length_batching,
        "copurchase_triangles": P.copurchase_triangles,
        "revenue_by_nation": P.revenue_by_nation,
        "shipping_priority": P.shipping_priority,
        "returned_items": P.returned_items,
        "percolate": P.percolate,
        "percolate_dsl": P.percolate_dsl,
        "snippet_windows": P.snippet_windows,
        "snippet_fragments": P.snippet_fragments,
        "hot_term_shards": P.hot_term_shards,
        "events_debounce": P.events_debounce,
        "events_sessionize": P.events_sessionize,
        "user_retention": P.user_retention,
        "corrected_search": P.corrected_search,
        "filtered_search": P.filtered_search,
        "zipf_fit": P.zipf_fit,
        "textrank_terms": P.textrank_terms,
        "near_search": P.near_search,
        "index_stats": P.index_stats,
        "search_page": P.search_page,
        "search_after_page": P.search_after_page,
        "federated_search": P.federated_search,
        "rollover_search": P.rollover_search,
        "cardinality_kmv": P.cardinality_kmv,
        "grouped_cardinality_kmv": P.grouped_cardinality_kmv,
        "domain_temperature_mix": P.domain_temperature_mix,
        "value_quartile_buckets": P.value_quartile_buckets,
        "props_k_stats": P.props_k_stats,
        "weighted_sample": P.weighted_sample,
        # filters / projections / source pruning / set ops (S1/S2, M5-M6, §2.7)
        "filter_en_long": P.filter_en_long,
        "union_langs": P.union_langs,
        "docs_range": P.docs_range,
        "longest_docs": P.longest_docs,
        "top_docs_per_lang": P.top_docs_per_lang,
        # text analysis
        "lang_token_totals": P.lang_token_totals,
        "top_terms_per_lang": P.top_terms_per_lang,
        "lang_id": P.lang_id,
        # similarity search
        "knn_cosine": P.knn_cosine,
        "knn_ann_lsh": P.knn_ann_lsh,
        "knn_ivf": P.knn_ivf,
        "semdedup_corpus": P.semdedup_corpus,
        "prototype_prune": P.prototype_prune,
        "knn_pq": P.knn_pq,
        "pq_dedup_groups": P.pq_dedup_groups,
        "knn_ivfpq": P.knn_ivfpq,
        "knn_ivfpq_rerank": P.knn_ivfpq_rerank,
        "knn_bq": P.knn_bq,
        "knn_sq8": P.knn_sq8,
        "knn_sq8_rerank": P.knn_sq8_rerank,
        "knn_mrl": P.knn_mrl,
        "knn_mrl_rerank": P.knn_mrl_rerank,
        "percentile_ranks": P.percentile_ranks,
        "bucket_stats_pipeline": P.bucket_stats_pipeline,
        "moving_fn_pipeline": P.moving_fn_pipeline,
        "auto_date_histogram": P.auto_date_histogram,
        "knn_bq_rerank": P.knn_bq_rerank,
        "knn_filtered": P.knn_filtered,
        "embedding_pairs": P.embedding_pairs,
        # text -> embedding -> kNN (F2-F5 encoder loop, actor pool)
        "text_knn": P.text_knn,
        "semantic_knn": P.semantic_knn,
        "autoencoder_embed": P.autoencoder_embed,
        "conv_autoencoder_embed": P.conv_autoencoder_embed,  # rows-only: learned model
        # invariant surfaced as a driver-checked query
        "content_hashes": P.content_hashes,
        # streaming-shaped + generic columnar + joins
        "events_window": P.events_window,
        "events_window_distinct": P.events_window_distinct,
        "doc_logprob": P.doc_logprob,
        "events_sessions": P.events_sessions,
        "lineitem_agg": P.lineitem_agg,
        "orders_by_segment": P.orders_by_segment,
        "orders_by_month": P.orders_by_month,
        "events_minmax": P.events_minmax,
        "orders_lineitem_join": P.orders_lineitem_join,
        "events_asof": P.events_asof,
        "lineitem_semi": P.lineitem_semi,
        "lineitem_anti": P.lineitem_anti,
        "lineitem_rollup": P.lineitem_rollup,
        "lineitem_cube": P.lineitem_cube,
        "user_event_pivot": P.user_event_pivot,
        "events_range_join": P.events_range_join,
        "events_rolling": P.events_rolling,
        "events_lag": P.events_lag,
        "lineitem_ranks": P.lineitem_ranks,
        "docs_sample": P.docs_sample,
        "docs_stratified_sample": P.docs_stratified_sample,
        "regex_extract": P.regex_extract,
        "lang_term_overlap": P.lang_term_overlap,
        "quality_except_enlong": P.quality_except_enlong,
        "value_histogram": P.value_histogram,
        "qty_discount_corr": P.qty_discount_corr,
        "price_qty_regression": P.price_qty_regression,
        "price_qty_corr": P.price_qty_corr,
        "nation_supplier_csv": P.nation_supplier_csv,
        "lineitem_unpivot": P.lineitem_unpivot,
        "customer_urgent_left": P.customer_urgent_left,
        "value_quantiles": P.value_quantiles,
        "quantiles_by_type": P.quantiles_by_type,
        "value_quantiles_cont": P.value_quantiles_cont,
        # features / training export (rows-only)
        "char_histograms": P.char_histograms,
        "training_sequences": P.training_sequences,
        # sketches (rows-only: approximate by design)
        "approx_vocab": P.approx_vocab,
        # eval harness (rows-only)
        "eval_recall": P.eval_recall,
        # multimodal plumbing (stubbed decode)
        "multimodal_features": P.multimodal_features,
        "video_frame_sample": P.video_frame_sample,
        "audio_windows": P.audio_windows,
    }


def oracle_sql() -> dict[str, str]:
    import numpy as np

    from stacksearch_ray.functions.textstats import LANG_MARKERS
    from stacksearch_ray.pipelines.documents import (
        BM25_QUERY,
        FEATURE_BOOST_W as _FB_W,
        FIELD_W_BODY as _FW_BODY,
        FIELD_W_TITLE as _FW_TITLE,
        PRF_BETA as _PRF_BETA,
        PRF_FB_DOCS as _PRF_FB_DOCS,
        PRF_FB_TERMS as _PRF_FB_TERMS,
        IR_EVAL_K as _IR_K,
        DECON_MOD as _DC_MOD,
        DISMAX_TIE as _DM_TIE,
        BM25F_WT as _BF_WT,
        BM25F_WB as _BF_WB,
        XF_WT as _XF_WT,
        XF_WB as _XF_WB,
        TV_DOC_ID as _TV_DOC,
        DSIR_TARGET_LANG as _DSIR_LANG,
        DSIR_K as _DSIR_K,
        DECON_SIM_T as _DC_T,
        COMPLETION_K as _QC_K,
        MIN_MATCH_M as _MM_M,
        TERMS_SET_MOD as _TS_MOD,
        BOOSTING_NB as _BOOSTING_NB,
        GEO_BOX as _GEO_BOX,
        DATE_RANGE_EDGES as _DR_EDGES,
        RANDOM_SCORE_TERM as _RS_TERM,
        RANDOM_SCORE_K as _RS_K,
        HIST_B_W as _HB_W,
        MAXSIM_DIM as _MS_DIM,
        MAXSIM_SHORTLIST as _MS_SHORT,
        HIST_B_LO as _HB_LO,
        HIST_B_HI as _HB_HI,
        CONST_SCORE_BOOST as _CS_BOOST,
        SPAN_NEAR_SLOP as _SN_SLOP,
        IR_EVAL_QUERIES as _IR_QUERIES,
        SPELL_PROBES as _SPELL_PROBES,
        STEM_QUERY as _STEM_Q,
        SYN_GROUPS as _SYN_GROUPS,
        TITLE_K as P_TITLE_K,
        MLT_UNLIKE_DOC as _MLT_UNLIKE,
        BULK_DEL_ID as _BULK_DEL,
        BULK_UPD_ID as _BULK_UPD,
        BULK_NEW_ID as _BULK_NEW,
        BULK_UPD_SUFFIX as _BULK_SUF,
        BULK_NEW_TEXT as _BULK_NEW_TXT,
        CF_WT as _CF_WT,
        CF_WB as _CF_WB,
        PINNED_IDS as _PINNED_IDS,
        HC_STATUS as _HC_STATUS,
        HC_SEGMENT as _HC_SEG,
        HC_K as _HC_K,
        HP_BAL as _HP_BAL,
        HP_PRIORITY as _HP_PRI,
        HP_K as _HP_K,
        COMP_AFTER as _COMP_AFTER,
        COMP_PAGE as _COMP_PAGE,
        DBQ_EXPR as _DBQ_EXPR,
        PIT_PAGE as _PIT_PAGE,
        REIDX_MOD as _REIDX_MOD,
        MRL_DIMS as _MRL_D,
        ADH_TARGET as _ADH_B,
        FRAG_W as _FRAG_W,
        FRAG_K as _FRAG_K,
        TT_FLAG_A as _TT_A,
        TT_FLAG_B as _TT_B,
        PCTR_PROBES as _PCTR,
        TA_SHARDS as _TA_S,
        TA_SHARD_SIZE as _TA_SS,
        TA_K as _TA_K,
        RARE_K as _RARE_K,
        UBQ_EXPR as _UBQ_EXPR,
        UBQ_SUFFIX as _UBQ_SUFFIX,
        GEO_LAT0 as _GEO_LAT0,
        GEO_LON0 as _GEO_LON0,
        GEO_RADIUS as _GEO_R,
        GEO_K as _GEO_K,
        CHUNK_W as _CHUNK_W,
        CHUNK_S as _CHUNK_S,
        SPAN_NOT_INC as _SN_INC,
        SPAN_NOT_EXC as _SN_EXC,
        SPAN_NOT_DIST as _SN_D,
        ADJ_SRC_PREFIX as _ADJ_PRE,
        PS_PROBES as _PS_PROBES,
        PS_MAXD as _PS_MAXD,
        PS_K as _PS_K,
        IVF_DEL_MOD as _IVF_DMOD,
        IVF_DEL_REM as _IVF_DREM,
    )
    from stacksearch_ray.micros import sql_micros
    from stacksearch_ray.pipelines.sql import (
        bm25_scores_sql,
        bm25_topk_sql,
        kept_tokens_cte,
        bm25plus_topk_sql,
        lm_dirichlet_topk_sql,
        lm_jm_topk_sql,
        feature_boost_topk_sql,
        msearch_topk_sql,
        spellfix_topk_sql,
        ir_eval_sql,
        min_match_topk_sql,
        terms_set_topk_sql,
        dfi_topk_sql,
        dfr_topk_sql,
        stemmed_topk_sql,
        dismax_topk_sql,
        bm25f_topk_sql,
        combined_fields_topk_sql,
        cross_fields_topk_sql,
        term_vectors_sql,
        dsir_weights_sql,
        ngram_cte,
        fielded_topk_sql,
        tfidf_topk_sql,
        prf_terms_sql,
        prf_topk_sql,
        sql_stopword_list,
        synonym_topk_sql,
        token_list_cte,
    )

    from stacksearch_ray.pipelines.documents import (
        AUTOCOMPLETE_PREFIX as _AUTO_PREFIX,
        BOOL_MUST as _BOOL_MUST,
        BOOL_NOT as _BOOL_NOT,
        FUZZY_PROBES as _FUZZY_PROBES,
        MLT_DOC as _MLT_DOC,
        N_BPE_MERGES as _N_BPE,
        BQ_MUST as P_BQ_MUST,
        BQ_NOT as P_BQ_NOT,
        BQ_SHOULD as P_BQ_SHOULD,
        CONTENT_REGEX as _CONTENT_REGEX,
        SUBSTR_PAT as _SUBSTR_PAT,
        HIST_W as _HIST_W,
        NEAR_MAX_GAP as _NEAR_GAP,
        NEAR_TERMS as _NEAR_TERMS,
        PROX_BOOST_W as _PROX_W,
        RESCORE_WINDOW as _RSC_WIN,
        RESCORE_QW as _RSC_QW,
        RESCORE_RW as _RSC_RW,
        MSEARCH_QUERIES as _MS_QUERIES,
        RANK_FEATURE_W as _RF_W,
        RANK_FEATURE_PIVOT as _RF_PIVOT,
        SPAN_FIRST_TERM as _SF_TERM,
        SPAN_FIRST_LIMIT as _SF_LIMIT,
        TOPHITS_PER_GROUP as _TH_PG,
        SIG_K as _SIG_K,
        SLOPPY_SLOP as _SLOPPY_SLOP,
        SLOPPY_TERMS as _SLOPPY_TERMS,
        SHUFFLE_BUCKETS as _SHUF_B,
        SHUFFLE_SEED as _SHUF_SEED,
    )

    _AUTO_HI = _AUTO_PREFIX[:-1] + chr(ord(_AUTO_PREFIX[-1]) + 1)
    _SHINGLE_C = 0x100000001B3         # dedup.py rolling-hash base
    _M64 = "18446744073709551616::HUGEINT"
    from stacksearch_ray.pipelines.documents import (
        DEBOUNCE_GAP_US as _DEBOUNCE_US,
        PERCOLATE_QUERIES as _PERC_QS,
        SNIPPET_WIDTH as _SNIP_W,
    )
    from stacksearch_ray.text import clean_query as _cq

    _PERC_ROWS = ", ".join(
        f"({qi}, '{t}')" for qi, q in enumerate(_PERC_QS)
        for t in sorted(set(_cq(q))))
    from stacksearch_ray.pipelines.documents import (
        CORRECT_QUERY as _CORR_Q,
    )

    _CORR_ROWS = ", ".join(f"('{t}')" for t in sorted(set(_cq(_CORR_Q))))
    _SNIP_TERMS = ", ".join(
        f"'{t}'" for t in sorted(set(_cq(BM25_QUERY))))
    _MW_K = len(set(_cq(BM25_QUERY)))
    from stacksearch_ray.pipelines.documents import (
        LEN_BATCH_B as P_LEN_B,
        PROFILE_COLS as _PROFILE_COLS,
        SESSION_GAP_US as _SESS_GAP,
        REGEX_PATTERN as _REGEX_PATTERN,
        WILDCARD_PREFIX as _WILDCARD_PREFIX,
    )
    kept = kept_tokens_cte()
    # DBQ_EXPR / UBQ_EXPR are pure AND-of-terms — mirror as INTERSECT
    _DBQ_TERMS = [t for t in _DBQ_EXPR.split() if t != "AND"]
    _UBQ_TERMS = [t for t in _UBQ_EXPR.split() if t != "AND"]

    from stacksearch_ray.pipelines.documents import BOOSTS as _BOOSTS
    from stacksearch_ray.text import clean_query as _cq2

    _bmap = {}
    for _raw, _bv in _BOOSTS.items():
        for _t in _cq2(_raw):
            _bmap[_t] = float(_bv)
    _boost_rows = ", ".join(f"('{t}', {_bmap[t]!r})" for t in sorted(_bmap))
    _boosted_sql = f"""
WITH {kept},
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
qterms(term, boost) AS (VALUES {_boost_rows}),
df AS (
  SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
  WHERE term IN (SELECT term FROM qterms) GROUP BY 1
),
scores AS (
  SELECT tf.doc_id,
         sum( (ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
               * qterms.boost)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * (dl.dl / stats.avgdl)))) )
           AS score
  FROM tf
  JOIN df USING (term)
  JOIN qterms USING (term)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT) AS rank
FROM scores
ORDER BY score DESC, doc_id ASC
LIMIT 10"""

    # BPE learner mirror: 10 unrolled merge rounds (the MMR unrolled-
    # CTE pattern; AS MATERIALIZED or the chained rounds re-inline).
    # Round i: overlapping adjacent pair counts weighted by word cf
    # (identical-symbol pairs excluded — matches functions/bpe.py's
    # pinned semantics), argmax by (cnt desc, lhs, rhs), left-greedy
    # apply (disjoint because lhs != rhs).
    def _bpe_round(i: int) -> str:
        return f"""
p{i} AS MATERIALIZED (
  SELECT a, b, sum(cf) AS cnt FROM (
    SELECT cf, unnest(s[:len(s)-1]) AS a, unnest(s[2:]) AS b FROM w{i})
  WHERE a <> b GROUP BY a, b),
best{i} AS MATERIALIZED (
  SELECT a, b, cnt FROM p{i} ORDER BY cnt DESC, a ASC, b ASC LIMIT 1),
w{i + 1} AS MATERIALIZED (
  SELECT term, cf,
         list_filter(list_transform(range(1, len(s) + 1),
           j -> CASE WHEN s[j] = bb.a AND j < len(s) AND s[j+1] = bb.b
                       THEN bb.a || bb.b
                     WHEN j > 1 AND s[j-1] = bb.a AND s[j] = bb.b
                       THEN NULL
                     ELSE s[j] END),
           x -> x IS NOT NULL) AS s
  FROM w{i} CROSS JOIN best{i} bb),"""

    _bpe_prefix = (
        f"WITH {kept},\n"
        "cf AS (SELECT term, count(*) AS cf FROM kept GROUP BY term),\n"
        "w1 AS MATERIALIZED (SELECT term, cf,"
        " regexp_extract_all(term, '.') AS s FROM cf),"
        + "".join(_bpe_round(i) for i in range(1, _N_BPE + 1))).rstrip(",")
    _bpe_steps = " UNION ALL ".join(
        f"SELECT CAST({i} AS BIGINT) AS step, a AS lhs, b AS rhs,"
        f" CAST(cnt AS BIGINT) AS pair_count FROM best{i}"
        for i in range(1, _N_BPE + 1))
    bm25 = bm25_topk_sql(BM25_QUERY, 10)
    from stacksearch_ray.pipelines.documents import JS_SOURCES_A

    js_src_a = ", ".join(f"'{s}'" for s in JS_SOURCES_A)
    # lang-ID marker table (mirrors LangIdScorer: langs with markers,
    # alphabetical — the tie-break order of np.argmax's first index)
    markers_values = ", ".join(
        f"('{lang}', '{t}')"
        for lang in sorted(k for k, v in LANG_MARKERS.items() if v)
        for t in sorted(LANG_MARKERS[lang]))
    # KMV bottom-k cardinality: per key, k-th smallest distinct
    # md5-low64 hash drives (k-1)·2^64/h_k — the exact expression order
    # of functions/sketches.kmv_estimate (2^64 literal, one divide)
    from stacksearch_ray.pipelines.documents import (
        KMV_K as _KK,
        KMV_KEYS as _KMV_KEYS,
    )

    def _kmv_key(key: str) -> str:
        return f"""
  SELECT '{key}' AS key,
         CAST(least(c.c, {_KK}) AS BIGINT) AS kept,
         CAST(floor((CASE WHEN c.c < {_KK} THEN CAST(c.c AS DOUBLE)
              ELSE ({_KK} - 1.0) * 18446744073709551616.0 /
                   CAST((SELECT h FROM (SELECT DISTINCT
                             md5_number_lower({key}) AS h FROM src) t
                         ORDER BY h LIMIT 1 OFFSET {_KK - 1}) AS DOUBLE)
              END) * 1e6 + 0.5) AS BIGINT) AS est_micros
  FROM (SELECT count(DISTINCT md5_number_lower({key})) AS c FROM src) c"""

    _kmv_sql = ("""
WITH src AS (
  SELECT CAST(event_id AS VARCHAR) AS event_id,
         CAST(user_id AS VARCHAR) AS user_id,
         CAST(user_id AS VARCHAR) || '|' || event_type AS user_type
  FROM events)
SELECT * FROM ("""
                + " UNION ALL ".join(_kmv_key(k) for k in sorted(_KMV_KEYS))
                + ") ORDER BY key")

    lang_id_sql = f"""
WITH {kept},
tot AS (SELECT doc_id, count(*) AS total FROM toks WHERE term <> ''
        GROUP BY doc_id),
markers(lang, term) AS (VALUES {markers_values}),
hits AS (
  SELECT t.doc_id, m.lang, count(*) AS cnt
  FROM toks t JOIN markers m ON t.term = m.term
  GROUP BY t.doc_id, m.lang),
scored AS (
  SELECT d.doc_id, l.lang,
         coalesce(h.cnt, 0)::DOUBLE / greatest(coalesce(t.total, 0), 1)
             AS score
  FROM documents d
  CROSS JOIN (SELECT DISTINCT lang FROM markers) l
  LEFT JOIN tot t ON d.doc_id = t.doc_id
  LEFT JOIN hits h ON d.doc_id = h.doc_id AND l.lang = h.lang),
best AS (
  SELECT doc_id, lang, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, lang ASC) AS rn
  FROM scored)
SELECT doc_id,
       CASE WHEN score > 0 THEN lang ELSE 'und' END AS lang_pred,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS lang_score_micros
FROM best WHERE rn = 1"""
    # MMR oracle: the 10 greedy steps unrolled as chained CTEs (the
    # PageRank unrolled-iteration pattern). Pairwise sims default to 0
    # for bucket-disjoint pairs (the engine's dense matrix has exact
    # 0.0 there). Tie-break (mmr DESC, doc_id ASC) at every argmax.
    mmr_steps = []
    for k in range(2, 11):
        prev_union = " UNION ALL ".join(
            f"SELECT doc_id FROM sel{i}" for i in range(1, k))
        mmr_steps.append(f"""
selset{k} AS ({prev_union}),
m{k} AS (SELECT r.doc_id, r.rel, max(coalesce(ps.sim, 0)) AS ms
         FROM rels r
         CROSS JOIN selset{k} s
         LEFT JOIN psim ps ON ps.a = r.doc_id AND ps.b = s.doc_id
         WHERE r.doc_id NOT IN (SELECT doc_id FROM selset{k})
         GROUP BY r.doc_id, r.rel),
sel{k} AS MATERIALIZED (SELECT doc_id, 0.7 * rel - 0.3 * ms AS mmr FROM m{k}
           ORDER BY 0.7 * rel - 0.3 * ms DESC, doc_id ASC LIMIT 1)""")
    mmr_union = " UNION ALL ".join(
        f"SELECT doc_id, mmr, {i} AS rank FROM sel{i}"
        for i in range(1, 11))
    mmr_sql = bm25_scores_sql(BM25_QUERY) + f""",
cand AS (SELECT doc_id FROM (
           SELECT doc_id, row_number() OVER (ORDER BY score DESC,
                                             doc_id ASC) AS rn
           FROM scores) WHERE rn <= 20),
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept
      WHERE doc_id IN (SELECT doc_id FROM cand)),
w AS (SELECT doc_id, CAST(h % 64 AS BIGINT) AS bucket,
             sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
      FROM h GROUP BY doc_id, bucket),
norms AS (SELECT doc_id, sqrt(sum(w * w)) AS n FROM w GROUP BY doc_id),
qh AS (SELECT md5_number_lower(term) AS h FROM qterms),
qw AS (SELECT CAST(h % 64 AS BIGINT) AS bucket,
              sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
       FROM qh GROUP BY bucket),
qn AS (SELECT sqrt(sum(w * w)) AS n FROM qw),
qdots AS (SELECT w.doc_id, sum(w.w * qw.w) AS dot
          FROM w JOIN qw USING (bucket) GROUP BY w.doc_id),
rels AS MATERIALIZED (SELECT n.doc_id, coalesce(d.dot, 0) / (n.n * qn.n) AS rel
         FROM norms n LEFT JOIN qdots d ON n.doc_id = d.doc_id
         CROSS JOIN qn WHERE n.n > 0 AND qn.n > 0),
pd AS (SELECT w1.doc_id AS a, w2.doc_id AS b, sum(w1.w * w2.w) AS dot
       FROM w w1 JOIN w w2 USING (bucket) GROUP BY 1, 2),
psim AS MATERIALIZED (SELECT pd.a, pd.b, pd.dot / (na.n * nb.n) AS sim
         FROM pd JOIN norms na ON na.doc_id = pd.a
                 JOIN norms nb ON nb.doc_id = pd.b),
sel1 AS MATERIALIZED (SELECT doc_id, 0.7 * rel AS mmr FROM rels
         ORDER BY 0.7 * rel DESC, doc_id ASC LIMIT 1),{",".join(mmr_steps)}
SELECT doc_id, CAST(floor(mmr * 1e6 + 0.5) AS BIGINT) AS mmr_micros,
       CAST(rank AS BIGINT) AS rank
FROM ({mmr_union}) ORDER BY rank"""
    # knn_ann_lsh hyperplanes: the same deterministic rng draw the engine
    # makes (seed 11, 8 planes, dim 64), embedded as full-precision
    # literals; repr() round-trips doubles exactly
    _planes = np.random.default_rng(11).standard_normal((8, 64))
    plane_rows = ", ".join(
        "({}, [{}]::DOUBLE[])".format(
            i, ", ".join(repr(float(x)) for x in _planes[i]))
        for i in range(8))
    # eval_recall: the (query, expected, variant) matrix is DATA — derived
    # here from the sf0.01 documents table exactly as the entry derives
    # it (driver correctness runs at sf0.01); the SQL then scores every
    # query under both scorers and aggregates hit@10
    import pyarrow.parquet as _pq

    from stacksearch_ray.eval import perturb_query
    from stacksearch_ray.text import clean_query as _cq

    qt_rows, qe_rows = [], []
    try:
        _docs_tbl = _pq.read_table("/root/testdata/sf0.01/documents.parquet",
                                   columns=["doc_id", "text"])
        _qid = 0
        for i in range(0, min(200, _docs_tbl.num_rows), 10):
            toks = _cq(_docs_tbl["text"][i].as_py())[:5]
            if not toks:
                continue
            q = " ".join(toks)
            exp = int(_docs_tbl["doc_id"][i].as_py())
            for variant, vq in (("exact", q),
                                ("perturbed", perturb_query(q, 1, 0))):
                for t in sorted(set(_cq(vq))):
                    qt_rows.append(f"({_qid}, '{t}')")
                qe_rows.append(f"({_qid}, '{variant}', {exp})")
                _qid += 1
    except (OSError, FileNotFoundError):
        pass  # sf0.01 absent: omit the eval_recall oracle, keep the rest
    qterms_values = ", ".join(qt_rows)
    qexp_values = ", ".join(qe_rows)
    # minhash_search permutation params: the engine's deterministic draw
    # (seed 7, 128 perms); a, b < 2^61 fit BIGINT literals
    from stacksearch_ray.functions.dedup import _minhash_params

    _ma, _mb = _minhash_params(128, 7)
    perm_rows = ", ".join(f"({p}, {int(_ma[p])}, {int(_mb[p])})"
                          for p in range(128))
    # minhash_clusters runs num_perm=64 (an independent seed-7 draw)
    _ca, _cb = _minhash_params(64, 7)
    perm_rows64 = ", ".join(f"({p}, {int(_ca[p])}, {int(_cb[p])})"
                            for p in range(64))
    # knn_ivf centroids: the pure-NumPy mirror of the distributed
    # k-means — micros-exact updates commute, so these literals are
    # bitwise the centroids the Ray trainer produced on the same table
    ivf_cent_rows = ivf_cent_rows_half = None
    try:
        from stacksearch_ray.functions.ivf import kmeans_numpy

        _e = _pq.read_table("/root/testdata/sf0.01/embeddings.parquet",
                            columns=["vec_id", "embedding"])
        _x = np.asarray(_e["embedding"].to_pylist(), dtype=np.float64)
        _cents = kmeans_numpy(_x, k=8, iters=4, seed=17)
        ivf_cent_rows = ", ".join(
            "({}, [{}]::DOUBLE[])".format(
                i, ", ".join(repr(float(v)) for v in _cents[i]))
            for i in range(len(_cents)))
        # knn_ivf_appended: quantizer FROZEN at build time — centroids
        # trained on the even-vec_id half only (micros sums commute, so
        # subset order is irrelevant), assignment replayed on all rows
        _vids = _e["vec_id"].to_numpy()
        _ch = kmeans_numpy(_x[_vids % 2 == 0], k=8, iters=4, seed=17)
        ivf_cent_rows_half = ", ".join(
            "({}, [{}]::DOUBLE[])".format(
                i, ", ".join(repr(float(v)) for v in _ch[i]))
            for i in range(len(_ch)))
    except (OSError, FileNotFoundError):
        pass  # sf0.01 absent: omit the knn_ivf oracles

    def _ivf_chain_sql(cent_rows, del_pred: str = "") -> str:
        """The IVF probe-then-exact-rescore chain for a centroid-
        literal set: assign every row to its nearest centroid, keep the
        query's 2 nearest cells, exact cosine inside them. ``del_pred``
        filters tombstoned ids out of the candidate set (the
        delete/compact lifecycle twins)."""
        return f"""
WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0),
cents(cid, c) AS (VALUES {cent_rows}),
assign AS (
  SELECT e.vec_id, c.cid,
         row_number() OVER (PARTITION BY e.vec_id
                            ORDER BY list_distance(e.embedding::DOUBLE[],
                                                   c.c) ASC,
                                     c.cid ASC) AS rn
  FROM embeddings e CROSS JOIN cents c),
a AS (SELECT vec_id, cid FROM assign WHERE rn = 1),
qp AS (
  SELECT c.cid,
         row_number() OVER (ORDER BY list_distance((SELECT qe FROM q),
                                                   c.c) ASC,
                            c.cid ASC) AS rn
  FROM cents c),
probes AS (SELECT cid FROM qp WHERE rn <= 2),
cand AS (SELECT a.vec_id FROM a JOIN probes USING (cid){del_pred}),
sims AS (
  SELECT e.vec_id,
         list_cosine_similarity(e.embedding::DOUBLE[], q.qe) AS sim
  FROM embeddings e JOIN cand USING (vec_id) CROSS JOIN q)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT)
           AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10"""
    # knn_pq codebooks + query ADC LUT: the per-subspace micros-exact
    # k-means mirror; LUT entries are Python-computed int64 micros, so
    # the only cross-engine float surface is the assignment argmin
    pq_cb_rows = pq_lut_rows = None
    vwh_cent_rows = None
    try:
        from stacksearch_ray.functions.ivf import kmeans_numpy
        from stacksearch_ray.functions.pq import (adc_lut_micros,
                                                  train_pq_codebooks)
        from stacksearch_ray.pipelines.documents import PQ_K, PQ_M

        _e2 = _pq.read_table("/root/testdata/sf0.01/embeddings.parquet",
                             columns=["vec_id", "embedding"])
        _x2 = np.asarray(_e2["embedding"].to_pylist(), dtype=np.float64)
        _x2 = _x2[np.argsort(_e2["vec_id"].to_numpy())]
        from stacksearch_ray.functions.quantiles import kmeans_1d
        from stacksearch_ray.pipelines.documents import VWH_K

        _nv2 = np.floor(_x2[:, 0] * 1e6 + 0.5).astype(np.int64)
        vwh_cent_rows = ", ".join(
            f"({i}, {c!r})"
            for i, c in enumerate(kmeans_1d(_nv2, VWH_K).tolist()))
        _cbs = train_pq_codebooks(_x2, m=PQ_M, k=PQ_K, iters=4, seed=17)
        _lut = adc_lut_micros(_x2[0], _cbs)
        pq_cb_rows = ", ".join(
            "({}, {}, [{}]::DOUBLE[])".format(
                s, j, ", ".join(repr(float(v)) for v in _cbs[s][j]))
            for s in range(PQ_M) for j in range(PQ_K))
        pq_lut_rows = ", ".join(f"({s}, {j}, {int(_lut[s][j])})"
                                for s in range(PQ_M) for j in range(PQ_K))
        _pq_sub = _x2.shape[1] // PQ_M
        # ivfpq probes: 2 nearest coarse cells to the query, Python-side
        _coarse2 = kmeans_numpy(_x2, k=8, iters=4, seed=17)
        _d2 = ((_coarse2 - _x2[0][None, :]) ** 2).sum(axis=1)
        pq_probe_list = ", ".join(
            str(int(c)) for c in np.sort(
                np.argsort(_d2, kind="stable")[:2]))
    except (OSError, FileNotFoundError):
        pass  # sf0.01 absent: omit the knn_pq oracle
    # pii_redact: counts + replacements on the PROGRESSIVELY redacted
    # text, in PII_PATTERNS order — built from the same pattern list the
    # Ray stage uses so the two engines can never drift
    from stacksearch_ray.functions.curation import PII_PATTERNS

    _red = "text"
    _pii_cols = []
    for _pname, _pat, _repl in PII_PATTERNS:
        _lit = _pat.replace("'", "''")
        _pii_cols.append(
            f"CAST(len(regexp_extract_all({_red}, '{_lit}')) AS BIGINT)"
            f" AS n_{_pname}")
        _red = f"regexp_replace({_red}, '{_lit}', '{_repl}', 'g')"
    _pii_sql = (f"SELECT doc_id, {', '.join(_pii_cols)}, "
                f"{_red} AS redacted FROM documents")
    oracles = {
        "term_counts": f"WITH {kept} SELECT term, count(*) AS cf FROM kept GROUP BY term",
        "heavy_terms": f"""
WITH {kept}
SELECT term, count(*) AS cf FROM kept GROUP BY term
HAVING count(*) >= (SELECT count(*) // 1000 + 1 FROM kept)""",
        "term_df": f"WITH {kept} SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY term",
        "token_stats": f"""
WITH {kept},
all_toks AS (
  SELECT doc_id, count(*) AS n FROM toks WHERE term <> '' GROUP BY doc_id
),
kept_counts AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(a.n, 0) AS n_tokens,
       coalesce(k.n, 0) AS n_kept
FROM documents d
LEFT JOIN all_toks a ON d.doc_id = a.doc_id
LEFT JOIN kept_counts k ON d.doc_id = k.doc_id""",
        "quality_filter": f"""
WITH {kept},
all_toks AS (
  SELECT doc_id, count(*) AS n FROM toks WHERE term <> '' GROUP BY doc_id
),
kept_counts AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id),
stats_per_doc AS (
  SELECT d.doc_id,
         coalesce(a.n, 0) AS n_tokens,
         coalesce(k.n, 0) AS n_kept
  FROM documents d
  LEFT JOIN all_toks a ON d.doc_id = a.doc_id
  LEFT JOIN kept_counts k ON d.doc_id = k.doc_id
)
SELECT doc_id, n_tokens, n_kept FROM stats_per_doc
WHERE n_kept >= 5 AND 2 * (n_tokens - n_kept) <= n_tokens""",
        "corpus_stats": f"""
WITH {kept},
dl AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id)
SELECT count(*) AS n_docs, CAST(sum(n) AS BIGINT) AS total_len,
       CAST(floor(sum(n)::DOUBLE / count(*) * 1e6 + 0.5) AS BIGINT) AS avgdl_micros
FROM dl""",
        "boosted_search": _boosted_sql,
        "tfidf_search": tfidf_topk_sql(BM25_QUERY, 10),
        "lm_dirichlet_search": lm_dirichlet_topk_sql(BM25_QUERY, 10),
        "lm_jm_search": lm_jm_topk_sql(BM25_QUERY, 10),
        "bm25plus_search": bm25plus_topk_sql(BM25_QUERY, 10),
        "feature_boost_search": feature_boost_topk_sql(BM25_QUERY, 10, _FB_W),
        "spellfix_search": spellfix_topk_sql(_SPELL_PROBES, 10),
        "ir_eval": ir_eval_sql(_IR_QUERIES, _IR_K),
        "min_match_search": min_match_topk_sql(BM25_QUERY, _MM_M, 10),
        "stemmed_search": stemmed_topk_sql(_STEM_Q, 10),
        "dismax_search": dismax_topk_sql(BM25_QUERY, 10, P_TITLE_K, _DM_TIE),
        "bm25f_search": bm25f_topk_sql(BM25_QUERY, 10, P_TITLE_K,
                                       _BF_WT, _BF_WB),
        "cross_fields_search": cross_fields_topk_sql(
            BM25_QUERY, 10, P_TITLE_K, _XF_WT, _XF_WB),
        "combined_fields_search": combined_fields_topk_sql(
            BM25_QUERY, 10, P_TITLE_K, _CF_WT, _CF_WB),
        "term_vectors": term_vectors_sql(_TV_DOC),
        "dsir_weights": dsir_weights_sql(_DSIR_LANG, _DSIR_K),
        "context_completion": f"""
WITH {token_list_cte()},
pairs AS (
  SELECT d.lang AS ctx,
         unnest(t.toks[1:len(t.toks) - 1]) AS prefix,
         unnest(t.toks[2:]) AS term
  FROM doc_toks t JOIN documents d USING (doc_id)
  WHERE d.lang IN (SELECT unnest(['en', 'es']))
),
cnt AS (
  SELECT ctx, prefix, term, count(*)::BIGINT AS c FROM pairs
  WHERE prefix IN (SELECT unnest(['merge', 'sort', 'window']))
  GROUP BY 1, 2, 3
),
r AS (
  SELECT ctx, prefix, term, c, CAST(row_number() OVER (
      PARTITION BY ctx, prefix ORDER BY c DESC, term ASC) AS BIGINT)
      AS rank
  FROM cnt
)
SELECT ctx, prefix, term, c, rank FROM r WHERE rank <= {_QC_K}
ORDER BY ctx, prefix, rank""",
        "query_completion": f"""
WITH {token_list_cte()},
pairs AS (
  SELECT unnest(toks[1:len(toks) - 1]) AS prefix,
         unnest(toks[2:]) AS term
  FROM doc_toks
),
cnt AS (
  SELECT prefix, term, count(*)::BIGINT AS c FROM pairs
  WHERE prefix IN (SELECT unnest(['merge', 'sort', 'window'])) GROUP BY 1, 2
),
r AS (
  SELECT prefix, term, c, CAST(row_number() OVER (
      PARTITION BY prefix ORDER BY c DESC, term ASC) AS BIGINT) AS rank
  FROM cnt
)
SELECT prefix, term, c, rank FROM r WHERE rank <= {_QC_K}
ORDER BY prefix, rank""",
        "embedding_decontamination": f"""
WITH bench AS (SELECT vec_id AS bid, embedding::DOUBLE[] AS be
               FROM embeddings WHERE vec_id % {_DC_MOD} = 0),
corpus AS (SELECT vec_id, embedding::DOUBLE[] AS e
           FROM embeddings WHERE vec_id % {_DC_MOD} <> 0),
sims AS (SELECT c.vec_id, b.bid, list_cosine_similarity(c.e, b.be) AS sim
         FROM corpus c CROSS JOIN bench b),
best AS (SELECT vec_id, bid, sim, row_number() OVER (
             PARTITION BY vec_id ORDER BY sim DESC, bid ASC) AS rn
         FROM sims)
SELECT vec_id, bid AS match_id,
       CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros
FROM best WHERE rn = 1 AND sim >= {_DC_T}
ORDER BY vec_id""",
        "synonym_search": synonym_topk_sql(_SYN_GROUPS, 10),
        "fielded_search": fielded_topk_sql(
            BM25_QUERY, 10, P_TITLE_K, _FW_TITLE, _FW_BODY),
        "prf_search": prf_topk_sql(BM25_QUERY, 10, _PRF_FB_DOCS,
                                   _PRF_FB_TERMS, _PRF_BETA),
        "prf_expansion": prf_terms_sql(BM25_QUERY, _PRF_FB_DOCS,
                                       _PRF_FB_TERMS),
        "bm25_topk": bm25,
        "bm25_topk_wand": bm25,
        "federated_search": bm25,  # union of disjoint halves == rebuild
        "rollover_search": bm25,   # generations union == rebuild, bitwise
        "cardinality_kmv": _kmv_sql,
        # per-group KMV: same estimator, PARTITIONed bottom-k
        "grouped_cardinality_kmv": f"""
WITH h AS (SELECT event_type AS grp,
                  md5_number_lower(CAST(user_id AS VARCHAR)) AS h
           FROM events),
d AS (SELECT DISTINCT grp, h FROM h),
r AS (SELECT grp, h,
             row_number() OVER (PARTITION BY grp ORDER BY h) AS rn,
             count(*) OVER (PARTITION BY grp) AS c
      FROM d),
kth AS (SELECT grp, max(CASE WHEN rn = {_KK} THEN h END) AS hk,
               max(c) AS c
        FROM r GROUP BY grp)
SELECT grp AS event_type,
       CAST(least(c, {_KK}) AS BIGINT) AS kept,
       CAST(floor((CASE WHEN c < {_KK} THEN CAST(c AS DOUBLE)
                   ELSE ({_KK} - 1.0) * 18446744073709551616.0
                        / CAST(hk AS DOUBLE) END) * 1e6 + 0.5) AS BIGINT)
           AS est_micros
FROM kth ORDER BY grp""",
        "bm25_topk_appended": bm25,  # incremental == rebuild, bitwise
        "bm25_topk_merged": bm25,   # merge lifecycle == rebuild, bitwise
        "pinned_search": bm25_scores_sql(BM25_QUERY) + f""",
pinned(doc_id, pos) AS (VALUES {", ".join(
    f"({d}, {i + 1})" for i, d in enumerate(_PINNED_IDS))}),
pex AS (
  SELECT p.doc_id, p.pos, coalesce(s.score, 0.0) AS score
  FROM pinned p JOIN documents d ON d.doc_id = p.doc_id
  LEFT JOIN scores s ON s.doc_id = p.doc_id),
org AS (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rn
  FROM scores WHERE doc_id NOT IN (SELECT doc_id FROM pinned)),
unioned AS (
  SELECT doc_id, score, 1 AS pinned, CAST(pos AS BIGINT) AS ord FROM pex
  UNION ALL
  SELECT doc_id, score, 0, (SELECT count(*) FROM pex) + rn FROM org)
SELECT doc_id, CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(pinned AS BIGINT) AS pinned,
       CAST(row_number() OVER (ORDER BY ord) AS BIGINT) AS rank
FROM unioned ORDER BY ord LIMIT 10""",
        "has_child_search": f"""
WITH ch AS (
  SELECT o_custkey AS c_custkey, count(*) AS n_children,
         max(CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT))
             AS best_child_micros
  FROM orders WHERE o_orderstatus = '{_HC_STATUS}' GROUP BY 1)
SELECT c.c_custkey, ch.n_children, ch.best_child_micros,
       CAST(row_number() OVER (ORDER BY ch.best_child_micros DESC,
                               c.c_custkey ASC) AS BIGINT) AS rank
FROM customer c JOIN ch USING (c_custkey)
WHERE c.c_mktsegment = '{_HC_SEG}'
ORDER BY best_child_micros DESC, c_custkey ASC LIMIT {_HC_K}""",
        "has_parent_search": f"""
WITH par AS (
  SELECT c_custkey,
         CAST(floor(c_acctbal * 1e6 + 0.5) AS BIGINT) AS ps
  FROM customer WHERE c_acctbal >= {_HP_BAL})
SELECT o.o_orderkey, o.o_custkey, par.ps AS parent_score_micros,
       CAST(row_number() OVER (ORDER BY par.ps DESC,
                               o.o_orderkey ASC) AS BIGINT) AS rank
FROM orders o JOIN par ON o.o_custkey = par.c_custkey
WHERE o.o_orderpriority = '{_HP_PRI}'
ORDER BY par.ps DESC, o.o_orderkey ASC LIMIT {_HP_K}""",
        "composite_agg_page": f"""
WITH b AS (
  SELECT lang, source, count(*) AS n_docs, sum(n_chars) AS sum_chars
  FROM documents
  WHERE lang > '{_COMP_AFTER[0]}'
     OR (lang = '{_COMP_AFTER[0]}' AND source > '{_COMP_AFTER[1]}')
  GROUP BY 1, 2)
SELECT lang, source, n_docs, CAST(sum_chars AS BIGINT) AS sum_chars,
       CAST(row_number() OVER (ORDER BY lang, source) AS BIGINT)
           AS page_pos
FROM b ORDER BY lang, source LIMIT {_COMP_PAGE}""",
        "adjacency_matrix_agg": f"""
SELECT 'a' AS cell, count(*) AS n FROM documents WHERE lang = 'en'
UNION ALL SELECT 'a&b', count(*) FROM documents
  WHERE lang = 'en' AND n_chars >= 200
UNION ALL SELECT 'a&c', count(*) FROM documents
  WHERE lang = 'en' AND source LIKE '{_ADJ_PRE}%'
UNION ALL SELECT 'b', count(*) FROM documents WHERE n_chars >= 200
UNION ALL SELECT 'b&c', count(*) FROM documents
  WHERE n_chars >= 200 AND source LIKE '{_ADJ_PRE}%'
UNION ALL SELECT 'c', count(*) FROM documents
  WHERE source LIKE '{_ADJ_PRE}%'""",
        "search_export": bm25_scores_sql(BM25_QUERY) + """
SELECT d.doc_id, d.lang, d.n_chars,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros
FROM scores s JOIN documents d USING (doc_id)""",
        "phrase_suggest": f"""
WITH {kept_tokens_cte()},
{token_list_cte().lstrip()},
pairs AS (
  SELECT unnest(toks[1:len(toks) - 1]) AS t1,
         unnest(toks[2:]) AS t2
  FROM doc_toks),
vocab AS (SELECT DISTINCT term FROM kept),
c1 AS (SELECT term, levenshtein(term, '{_PS_PROBES[0]}')::BIGINT AS d
       FROM vocab WHERE levenshtein(term, '{_PS_PROBES[0]}') <= {_PS_MAXD}),
c2 AS (SELECT term, levenshtein(term, '{_PS_PROBES[1]}')::BIGINT AS d
       FROM vocab WHERE levenshtein(term, '{_PS_PROBES[1]}') <= {_PS_MAXD}),
cnt AS (
  SELECT t1 AS cand1, t2 AS cand2, count(*)::BIGINT AS bigram_c
  FROM pairs
  WHERE t1 IN (SELECT term FROM c1) AND t2 IN (SELECT term FROM c2)
  GROUP BY 1, 2),
scored AS (
  SELECT cnt.cand1, cnt.cand2, cnt.bigram_c,
         (c1.d + c2.d) AS total_dist
  FROM cnt JOIN c1 ON c1.term = cnt.cand1
           JOIN c2 ON c2.term = cnt.cand2)
SELECT cand1, cand2, bigram_c, total_dist,
       CAST(row_number() OVER (ORDER BY bigram_c DESC, total_dist ASC,
                               cand1 ASC, cand2 ASC) AS BIGINT) AS rank
FROM scored
ORDER BY bigram_c DESC, total_dist ASC, cand1 ASC, cand2 ASC
LIMIT {_PS_K}""",
        "score_explain": bm25_scores_sql(BM25_QUERY) + """,
top1 AS (SELECT doc_id FROM scores ORDER BY score DESC, doc_id ASC LIMIT 1),
contrib AS (
  SELECT q.term, top1.doc_id,
         CAST(coalesce(df.df, 0) AS BIGINT) AS df,
         CAST(coalesce(tf.tf, 0) AS BIGINT) AS tf,
         CASE WHEN tf.tf IS NULL THEN 0.0
              ELSE ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
                   * ((1.2 + 1.0) * tf.tf
                      / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * (dl.dl / stats.avgdl))))
         END AS c
  FROM qterms q
  CROSS JOIN top1
  CROSS JOIN stats
  LEFT JOIN df ON df.term = q.term
  LEFT JOIN tf ON tf.term = q.term AND tf.doc_id = top1.doc_id
  LEFT JOIN dl ON dl.doc_id = top1.doc_id
)
SELECT term, doc_id, df, tf,
       CAST(floor(c * 1e6 + 0.5) AS BIGINT) AS contribution_micros
FROM contrib""",
        "docstore_join": bm25_scores_sql(BM25_QUERY) + """,
topk AS (
  SELECT doc_id, CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros
  FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10
)
SELECT t.doc_id, d.lang, d.source, t.score_micros
FROM topk t JOIN documents d ON t.doc_id = d.doc_id""",
        "exact_dedup": """
SELECT md5(text) AS content_hash, min(doc_id) AS keep_id,
       count(*) AS n_dups
FROM documents GROUP BY md5(text)""",
        "dedup_corpus": """
WITH full_corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents),
r AS (
  SELECT doc_id, md5(text) AS content_hash,
         row_number() OVER (PARTITION BY md5(text)
                            ORDER BY doc_id) AS rn
  FROM full_corpus)
SELECT doc_id, content_hash FROM r WHERE rn = 1""",
        "curated_corpus": f"""
WITH {kept},
all_toks AS (
  SELECT doc_id, count(*) AS n FROM toks WHERE term <> '' GROUP BY doc_id
),
kc AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id),
q AS (
  SELECT d.doc_id, d.lang, d.text
  FROM documents d
  LEFT JOIN all_toks a ON d.doc_id = a.doc_id
  LEFT JOIN kc k ON d.doc_id = k.doc_id
  WHERE coalesce(k.n, 0) >= 5
    AND 2 * (coalesce(a.n, 0) - coalesce(k.n, 0)) <= coalesce(a.n, 0)),
r AS (
  SELECT doc_id, lang, md5(text) AS content_hash,
         row_number() OVER (PARTITION BY md5(text)
                            ORDER BY doc_id) AS rn
  FROM q)
SELECT doc_id, lang, content_hash FROM r WHERE rn = 1""",
        "embedding_dedup_corpus": """
WITH RECURSIVE sims AS (
  SELECT a.vec_id AS a, b.vec_id AS b
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                               b.embedding::DOUBLE[]) >= 0.45),
sym AS (SELECT a AS src, b AS dst FROM sims
        UNION ALL SELECT b, a FROM sims),
reach(node, lbl) AS (
  SELECT vec_id, vec_id FROM embeddings
  UNION
  SELECT s.dst, r.lbl FROM reach r JOIN sym s ON s.src = r.node)
SELECT node AS vec_id FROM reach GROUP BY node HAVING min(lbl) = node""",
        "filter_en_long": """
SELECT doc_id, source, n_chars FROM documents
WHERE lang = 'en' AND n_chars >= 200""",
        "union_langs": """
SELECT doc_id, lang FROM documents WHERE lang = 'en'
UNION ALL
SELECT doc_id, lang FROM documents WHERE lang = 'de'""",
        "docs_range": """
SELECT doc_id, source, n_chars FROM documents LIMIT 100 OFFSET 100""",
        "longest_docs": """
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id ASC LIMIT 10""",
        "top_docs_per_lang": """
WITH ranked AS (
  SELECT doc_id, lang, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id ASC) AS rank
  FROM documents
)
SELECT doc_id, lang, n_chars, rank FROM ranked WHERE rank <= 3""",
        "lang_token_totals": f"""
WITH {kept},
dl AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id)
SELECT d.lang, count(*) AS n_docs,
       CAST(sum(coalesce(dl.n, 0)) AS BIGINT) AS total_tokens
FROM documents d LEFT JOIN dl ON d.doc_id = dl.doc_id
GROUP BY d.lang""",
        "top_terms_per_lang": f"""
WITH {kept},
lt AS (
  SELECT d.lang, k.term, count(*) AS cnt
  FROM kept k JOIN documents d ON k.doc_id = d.doc_id
  GROUP BY d.lang, k.term
),
ranked AS (
  SELECT lang, term, cnt,
         row_number() OVER (PARTITION BY lang
                            ORDER BY cnt DESC, term ASC) AS rank
  FROM lt
)
SELECT lang, term, cnt, rank FROM ranked WHERE rank <= 3""",
        "content_hashes": f"""
WITH {kept}
SELECT doc_id, sha256(text) AS content_sha256 FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM kept)""",
        "events_window": """
SELECT event_type,
       CAST(epoch_us(ts) // 60000000 AS BIGINT) AS w,
       count(*) AS n,
       CAST(sum(CAST(floor(value * 1e6 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_micros
FROM events GROUP BY 1, 2""",
        "doc_logprob": f"""
WITH {kept},
cf AS (SELECT term, count(*) AS cf FROM kept GROUP BY term),
tot AS (SELECT count(*) AS n FROM kept),
contrib AS (
  SELECT k.doc_id,
         CAST(floor(ln(cf.cf::DOUBLE / tot.n) * 1e6 + 0.5) AS BIGINT) AS c
  FROM kept k JOIN cf USING (term) CROSS JOIN tot)
SELECT doc_id, CAST(sum(c) AS BIGINT) AS logprob_micros
FROM contrib GROUP BY doc_id""",
        "events_window_distinct": """
SELECT user_id,
       CAST(epoch_us(ts) // 60000000 AS BIGINT) AS w,
       count(DISTINCT event_type) AS n_types
FROM events GROUP BY 1, 2""",
        "events_sessions": """
WITH g AS (
  SELECT user_id, event_id,
         epoch_us(ts) - lag(epoch_us(ts))
             OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT user_id,
       count(*) FILTER (gap IS NULL OR gap > 1800000000) AS n_sessions,
       count(*) AS n_events
FROM g GROUP BY user_id""",
        "lineitem_agg": """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(floor(l_quantity * 1e6 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty_micros,
       CAST(sum(CAST(floor(l_extendedprice * 1e6 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_micros,
       count(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "orders_by_segment": """
SELECT c.c_mktsegment,
       count(*) AS n_orders,
       CAST(sum(CAST(floor(o.o_totalprice * 1e6 + 0.5) AS BIGINT)) AS BIGINT)
           AS total_price_micros
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment""",
        "orders_by_month": """
SELECT CAST(extract(year FROM o_orderdate) AS BIGINT) AS y,
       CAST(extract(month FROM o_orderdate) AS BIGINT) AS m,
       count(*) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT)) AS BIGINT)
           AS revenue_micros
FROM orders GROUP BY 1, 2""",
        "events_minmax": """
SELECT event_type,
       min(CAST(floor(value * 1e6 + 0.5) AS BIGINT)) AS min_micros,
       max(CAST(floor(value * 1e6 + 0.5) AS BIGINT)) AS max_micros,
       count(*) AS n
FROM events GROUP BY event_type""",
        "events_asof": """
WITH p AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts FROM events
  WHERE event_type = 'purchase'),
c AS (
  SELECT user_id, epoch_us(ts) AS ts FROM events
  WHERE event_type = 'click')
SELECT p.event_id, p.user_id, CAST(p.ts - c.ts AS BIGINT) AS gap_us
FROM p ASOF JOIN c ON p.user_id = c.user_id AND p.ts >= c.ts""",
        "events_range_join": """
WITH p AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts FROM events
  WHERE event_type = 'purchase'),
c AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts FROM events
  WHERE event_type = 'click')
SELECT p.event_id, c.event_id AS click_id,
       CAST(p.ts - c.ts AS BIGINT) AS gap_us
FROM p JOIN c ON p.user_id = c.user_id
             AND p.ts - c.ts BETWEEN 0 AND 86400000000""",
        "events_rolling": """
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts,
         CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
  FROM events)
SELECT event_id, user_id,
       CAST(sum(vm) OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_value_micros,
       CAST(sum(vm) OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT)
           AS roll3_value_micros
FROM e""",
        "events_lag": """
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts,
         CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
  FROM events),
l AS (
  SELECT event_id, user_id,
         lag(vm) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS prev_value_micros
  FROM e)
SELECT event_id, user_id, prev_value_micros
FROM l WHERE prev_value_micros IS NOT NULL""",
        "lineitem_ranks": """
WITH li AS (
  SELECT CAST(l_suppkey AS BIGINT) AS l_suppkey,
         CAST(l_orderkey AS BIGINT) AS l_orderkey,
         CAST(l_linenumber AS BIGINT) AS l_linenumber,
         CAST(floor(l_quantity * 1e6 + 0.5) AS BIGINT) AS qm
  FROM lineitem)
SELECT l_suppkey, l_orderkey, l_linenumber,
       CAST(row_number() OVER wfull AS BIGINT) AS row_number,
       CAST(rank() OVER wval AS BIGINT) AS rank,
       CAST(dense_rank() OVER wval AS BIGINT) AS dense_rank,
       CAST(ntile(4) OVER wfull AS BIGINT) AS ntile4,
       CAST(floor(percent_rank() OVER wval * 1e6 + 0.5) AS BIGINT)
           AS percent_rank_micros,
       CAST(floor(cume_dist() OVER wval * 1e6 + 0.5) AS BIGINT)
           AS cume_dist_micros
FROM li
WINDOW wval AS (PARTITION BY l_suppkey ORDER BY qm),
       wfull AS (PARTITION BY l_suppkey
                 ORDER BY qm, l_orderkey, l_linenumber)""",
        "docs_sample": """
SELECT doc_id, lang FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 10 = 0""",
        "docs_stratified_sample": """
SELECT doc_id, lang FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) %
      (CASE lang WHEN 'en' THEN 4 WHEN 'de' THEN 7 ELSE 10 END) = 0""",
        "regex_extract": """
SELECT doc_id, regexp_extract(text, 'table ([a-z]+)', 1) AS after_table
FROM documents WHERE regexp_matches(text, 'table ([a-z]+)')""",
        "value_histogram": """
SELECT CAST(floor(value / 10) AS BIGINT) AS bucket, count(*) AS n
FROM events GROUP BY 1""",
        "qty_discount_corr": """
WITH s AS (
  SELECT count(*)::HUGEINT AS n,
         sum(CAST(l_quantity AS BIGINT))::HUGEINT AS sx,
         sum(CAST(floor(l_discount * 1e6 + 0.5) AS BIGINT))::HUGEINT AS sy,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(floor(l_discount * 1e6 + 0.5) AS BIGINT))::HUGEINT
             AS sxy,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(l_quantity AS BIGINT))::HUGEINT AS sxx,
         sum(CAST(floor(l_discount * 1e6 + 0.5) AS BIGINT)
             * CAST(floor(l_discount * 1e6 + 0.5) AS BIGINT))::HUGEINT
             AS syy
  FROM lineitem)
SELECT CAST(floor(
         ((n * sxy - sx * sy)::DOUBLE
          / (sqrt((n * sxx - sx * sx)::DOUBLE)
             * sqrt((n * syy - sy * sy)::DOUBLE))) * 1e6 + 0.5)
       AS BIGINT) AS corr_micros
FROM s""",
        "price_qty_corr": """
WITH s AS (
  SELECT l_returnflag,
         count(*)::HUGEINT AS n,
         sum(CAST(l_quantity AS BIGINT))::HUGEINT AS sx,
         sum(CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT AS sy,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT
             AS sxy,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(l_quantity AS BIGINT))::HUGEINT AS sxx,
         sum(CAST(floor(l_extendedprice + 0.5) AS BIGINT)
             * CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT
             AS syy
  FROM lineitem GROUP BY l_returnflag),
c AS (
  SELECT l_returnflag, CAST(n AS BIGINT) AS n,
         (n * sxy - sx * sy)::DOUBLE
         / sqrt((n * sxx - sx * sx)::DOUBLE)
         / sqrt((n * syy - sy * sy)::DOUBLE) AS corr
  FROM s)
SELECT l_returnflag, n,
       CAST(floor(corr * 1e6 + 0.5) AS BIGINT) AS corr_micros,
       CAST(floor(corr * corr * 1e6 + 0.5) AS BIGINT) AS r2_micros
FROM c""",
        "price_qty_regression": """
WITH s AS (
  SELECT l_returnflag,
         count(*)::HUGEINT AS n,
         sum(CAST(l_quantity AS BIGINT))::HUGEINT AS sx,
         sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))::HUGEINT
             AS sy,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))::HUGEINT
             AS sxy,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(l_quantity AS BIGINT))::HUGEINT AS sxx
  FROM lineitem GROUP BY l_returnflag)
SELECT l_returnflag,
       CAST(floor(((n * sxy - sx * sy)::DOUBLE
                   / (n * sxx - sx * sx)::DOUBLE) * 1e6 + 0.5) AS BIGINT)
           AS slope_micros,
       CAST(floor(((sy * sxx - sx * sxy)::DOUBLE
                   / (n * sxx - sx * sx)::DOUBLE) * 1e6 + 0.5) AS BIGINT)
           AS intercept_micros,
       CAST(floor(((n * sxy - sx * sy)::DOUBLE
                   / (n * n)::DOUBLE) * 1e6 + 0.5) AS BIGINT)
           AS covar_micros
FROM s""",
        "nation_supplier_csv": """
SELECT s_nationkey, string_agg(s_name, ',' ORDER BY s_name) AS names
FROM supplier GROUP BY s_nationkey""",
        "lineitem_unpivot": """
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       'l_quantity' AS measure,
       CAST(floor(l_quantity * 1e6 + 0.5) AS BIGINT) AS value_micros
FROM lineitem
UNION ALL
SELECT l_orderkey, CAST(l_linenumber AS BIGINT), 'l_discount',
       CAST(floor(l_discount * 1e6 + 0.5) AS BIGINT) FROM lineitem
UNION ALL
SELECT l_orderkey, CAST(l_linenumber AS BIGINT), 'l_tax',
       CAST(floor(l_tax * 1e6 + 0.5) AS BIGINT) FROM lineitem""",
        "customer_urgent_left": """
WITH u AS (
  SELECT o_custkey, count(*) AS n_urgent,
         sum(CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT)) AS um
  FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY o_custkey)
SELECT c.c_custkey, c.c_mktsegment,
       CAST(coalesce(u.n_urgent, 0) AS BIGINT) AS n_urgent,
       CAST(coalesce(u.um, 0) AS BIGINT) AS urgent_micros
FROM customer c LEFT JOIN u ON c.c_custkey = u.o_custkey""",
        "quality_except_enlong": f"""
WITH {kept},
all_toks AS (
  SELECT doc_id, count(*) AS n FROM toks WHERE term <> '' GROUP BY doc_id
),
kc AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id)
SELECT d.doc_id
FROM documents d
LEFT JOIN all_toks a ON d.doc_id = a.doc_id
LEFT JOIN kc k ON d.doc_id = k.doc_id
WHERE coalesce(k.n, 0) >= 5
  AND 2 * (coalesce(a.n, 0) - coalesce(k.n, 0)) <= coalesce(a.n, 0)
EXCEPT
SELECT doc_id FROM documents WHERE lang = 'en' AND n_chars >= 200""",
        "lang_term_overlap": f"""
WITH {kept}
SELECT k.term FROM kept k JOIN documents d USING (doc_id)
WHERE d.lang = 'en'
INTERSECT
SELECT k.term FROM kept k JOIN documents d USING (doc_id)
WHERE d.lang = 'de'""",
        "value_quantiles": """
SELECT CAST(floor(0.1 * 1e6 + 0.5) AS BIGINT) AS q_micros,
       CAST(floor(quantile_disc(value, 0.1) * 1e6 + 0.5) AS BIGINT)
           AS value_micros FROM events
UNION ALL
SELECT CAST(floor(0.5 * 1e6 + 0.5) AS BIGINT),
       CAST(floor(quantile_disc(value, 0.5) * 1e6 + 0.5) AS BIGINT)
FROM events
UNION ALL
SELECT CAST(floor(0.9 * 1e6 + 0.5) AS BIGINT),
       CAST(floor(quantile_disc(value, 0.9) * 1e6 + 0.5) AS BIGINT)
FROM events""",
        "lineitem_anti": """
SELECT l_orderkey, l_linenumber,
       CAST(floor(l_extendedprice * 1e6 + 0.5) AS BIGINT) AS price_micros
FROM lineitem
WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders
                         WHERE o_orderpriority = '1-URGENT')""",
        "user_event_pivot": """
SELECT user_id,
       count(*) FILTER (event_type = 'click') AS n_click,
       count(*) FILTER (event_type = 'error') AS n_error,
       count(*) FILTER (event_type = 'purchase') AS n_purchase,
       count(*) FILTER (event_type = 'signup') AS n_signup,
       count(*) FILTER (event_type = 'view') AS n_view
FROM events GROUP BY user_id""",
        "lineitem_rollup": """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       CAST(sum(CAST(floor(l_quantity * 1e6 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_qty_micros,
       count(*) AS n_items
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)""",
        "lineitem_cube": """
WITH li AS (
  SELECT l_returnflag, l_linestatus,
         CAST(year(l_shipdate) AS VARCHAR) AS ship_year,
         CAST(floor(l_extendedprice * 1e6 + 0.5) AS BIGINT) AS pm
  FROM lineitem)
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       coalesce(ship_year, 'ALL') AS ship_year,
       CAST(sum(pm) AS BIGINT) AS sum_price_micros,
       count(*) AS n_items
FROM li GROUP BY CUBE(l_returnflag, l_linestatus, ship_year)""",
        "lineitem_semi": """
SELECT l_orderkey, l_linenumber,
       CAST(floor(l_extendedprice * 1e6 + 0.5) AS BIGINT) AS price_micros
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_orderpriority = '1-URGENT')""",
        "value_quantiles_cont": """
SELECT CAST(floor(0.25 * 1e6 + 0.5) AS BIGINT) AS q_micros,
       CAST(floor(quantile_cont(value, 0.25) * 1e6 + 0.5) AS BIGINT)
           AS value_micros FROM events
UNION ALL
SELECT CAST(floor(0.5 * 1e6 + 0.5) AS BIGINT),
       CAST(floor(quantile_cont(value, 0.5) * 1e6 + 0.5) AS BIGINT)
FROM events
UNION ALL
SELECT CAST(floor(0.75 * 1e6 + 0.5) AS BIGINT),
       CAST(floor(quantile_cont(value, 0.75) * 1e6 + 0.5) AS BIGINT)
FROM events""",
        "quantiles_by_type": """
SELECT event_type,
       CAST(floor(quantile_disc(value, 0.5) * 1e6 + 0.5) AS BIGINT)
           AS value_micros
FROM events GROUP BY event_type""",
        "orders_lineitem_join": """
SELECT o.o_orderpriority,
       count(*) AS n_items,
       CAST(sum(CAST(floor(l.l_extendedprice * 1e6 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_micros
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority""",
        "knn_cosine": """
WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0),
sims AS (
  SELECT vec_id,
         list_cosine_similarity(embedding::DOUBLE[], q.qe) AS sim
  FROM embeddings, q
)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10""",
        # pre-filtered exact kNN: the metadata predicate applies
        # BEFORE the distance cut (true top-k of the filtered subset)
        "knn_filtered": """
WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings
           WHERE vec_id = 0),
sims AS (
  SELECT vec_id,
         list_cosine_similarity(embedding::DOUBLE[], q.qe) AS sim
  FROM embeddings, q WHERE label = 3
)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT)
           AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10""",
        # binary quantization: sign bits pack into two 32-bit words
        # (non-negative BIGINTs — no two's-complement edge at bit 63);
        # v >= 0 and popcount(xor) are float-hazard-free
        "knn_bq": """
WITH e AS (SELECT vec_id, unnest(embedding) AS v,
                  unnest(range(0, len(embedding))) AS j
           FROM embeddings),
b AS (SELECT vec_id,
             CAST(sum(CASE WHEN v >= 0 AND j < 32
                           THEN (1::BIGINT << j) ELSE 0 END) AS BIGINT) AS w0,
             CAST(sum(CASE WHEN v >= 0 AND j >= 32
                           THEN (1::BIGINT << (j - 32)) ELSE 0 END)
                  AS BIGINT) AS w1
      FROM e GROUP BY vec_id),
q AS (SELECT w0 AS q0, w1 AS q1 FROM b WHERE vec_id = 0),
d AS (SELECT b.vec_id,
             bit_count(xor(b.w0, q.q0)) + bit_count(xor(b.w1, q.q1))
                 AS hamming
      FROM b CROSS JOIN q)
SELECT vec_id, CAST(hamming AS BIGINT) AS hamming,
       CAST(row_number() OVER (ORDER BY hamming ASC, vec_id ASC)
            AS BIGINT) AS rank
FROM d ORDER BY hamming ASC, vec_id ASC LIMIT 10""",
        # SQ8 ANN: per-dim min-max micros quantizer, integer codes
        # ((vm-mn)*255 // span, 0 on degenerate dims), integer squared
        # L2 — bitwise like the BQ sibling (query = corpus vec 0, so
        # the clamp is a no-op and its corpus code IS the query code)
        "knn_sq8": """
WITH e AS (SELECT vec_id,
                  CAST(floor(unnest(embedding) * 1e6 + 0.5) AS BIGINT)
                      AS vm,
                  unnest(range(0, len(embedding))) AS j
           FROM embeddings),
r AS (SELECT j, min(vm) AS mn, max(vm) AS mx FROM e GROUP BY j),
c AS (SELECT e.vec_id, e.j,
             CASE WHEN r.mx > r.mn
                  THEN (e.vm - r.mn) * 255 // (r.mx - r.mn)
                  ELSE 0 END AS code
      FROM e JOIN r USING (j)),
q AS (SELECT j, code AS qcode FROM c WHERE vec_id = 0),
d AS (SELECT c.vec_id,
             sum((c.code - q.qcode) * (c.code - q.qcode)) AS d2
      FROM c JOIN q USING (j) GROUP BY c.vec_id)
SELECT vec_id, CAST(d2 AS BIGINT) AS d2,
       CAST(row_number() OVER (ORDER BY d2 ASC, vec_id ASC) AS BIGINT)
           AS rank
FROM d ORDER BY d2 ASC, vec_id ASC LIMIT 10""",
        # SQ8 top-50 shortlist -> exact cosine re-rank (knn_bq_rerank's
        # proven float tail)
        # HNSW two-stage retrieval: the graph walk is not
        # SQL-expressible, but the entry re-ranks its shortlist with
        # EXACT cosine and probes every partition at this scale, so —
        # with shortlist recall@10 = 1 (pytest-pinned at both sf
        # scales) — the output IS the exact per-query brute-force
        # top-10 (top-k of any candidate superset of the true top-k
        # equals the true top-k). Queries = the HNSW_NQ smallest
        # vec_ids, query_id = their ascending-vec_id position.
        "knn_hnsw": """
WITH q AS (SELECT CAST(row_number() OVER (ORDER BY vec_id ASC) - 1
                       AS BIGINT) AS query_id,
                  embedding::DOUBLE[] AS qe
           FROM embeddings ORDER BY vec_id ASC LIMIT 5),
sims AS (SELECT q.query_id, e.vec_id,
                list_cosine_similarity(e.embedding::DOUBLE[], q.qe) AS sim
         FROM embeddings e CROSS JOIN q),
r AS (SELECT query_id, vec_id, sim,
             CAST(row_number() OVER (PARTITION BY query_id
                                     ORDER BY sim DESC, vec_id ASC)
                  AS BIGINT) AS rank
      FROM sims)
SELECT query_id, vec_id,
       CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros, rank
FROM r WHERE rank <= 10 ORDER BY query_id, rank""",
        "knn_sq8_rerank": """
WITH e AS (SELECT vec_id,
                  CAST(floor(unnest(embedding) * 1e6 + 0.5) AS BIGINT)
                      AS vm,
                  unnest(range(0, len(embedding))) AS j
           FROM embeddings),
r AS (SELECT j, min(vm) AS mn, max(vm) AS mx FROM e GROUP BY j),
c AS (SELECT e.vec_id, e.j,
             CASE WHEN r.mx > r.mn
                  THEN (e.vm - r.mn) * 255 // (r.mx - r.mn)
                  ELSE 0 END AS code
      FROM e JOIN r USING (j)),
q AS (SELECT j, code AS qcode FROM c WHERE vec_id = 0),
d AS (SELECT c.vec_id,
             sum((c.code - q.qcode) * (c.code - q.qcode)) AS d2
      FROM c JOIN q USING (j) GROUP BY c.vec_id),
cand AS (SELECT vec_id FROM d
         ORDER BY d2 ASC, vec_id ASC LIMIT 50),
qv AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0),
sims AS (SELECT e2.vec_id,
                list_cosine_similarity(e2.embedding::DOUBLE[], qv.qe) AS sim
         FROM embeddings e2 JOIN cand USING (vec_id) CROSS JOIN qv)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT)
           AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10""",
        # Matryoshka truncated-dim shortlist: EXACT integer micros dot
        # over the first MRL_DIMS components — bitwise like SQ8/BQ
        "knn_mrl": f"""
WITH e AS (SELECT vec_id,
                  CAST(floor(unnest(embedding) * 1e6 + 0.5) AS BIGINT)
                      AS vm,
                  unnest(range(0, len(embedding))) AS j
           FROM embeddings),
q AS (SELECT j, vm AS qm FROM e WHERE vec_id = 0 AND j < {_MRL_D}),
d AS (SELECT e.vec_id, sum(e.vm * q.qm) AS dot
      FROM e JOIN q USING (j) WHERE e.j < {_MRL_D} GROUP BY e.vec_id)
SELECT vec_id, CAST(dot AS BIGINT) AS dot,
       CAST(row_number() OVER (ORDER BY dot DESC, vec_id ASC) AS BIGINT)
           AS rank
FROM d ORDER BY dot DESC, vec_id ASC LIMIT 10""",
        # MRL top-50 shortlist -> exact full-dim cosine re-rank
        "knn_mrl_rerank": f"""
WITH e AS (SELECT vec_id,
                  CAST(floor(unnest(embedding) * 1e6 + 0.5) AS BIGINT)
                      AS vm,
                  unnest(range(0, len(embedding))) AS j
           FROM embeddings),
q AS (SELECT j, vm AS qm FROM e WHERE vec_id = 0 AND j < {_MRL_D}),
d AS (SELECT e.vec_id, sum(e.vm * q.qm) AS dot
      FROM e JOIN q USING (j) WHERE e.j < {_MRL_D} GROUP BY e.vec_id),
cand AS (SELECT vec_id FROM d
         ORDER BY dot DESC, vec_id ASC LIMIT 50),
qv AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0),
sims AS (SELECT e2.vec_id,
                list_cosine_similarity(e2.embedding::DOUBLE[], qv.qe) AS sim
         FROM embeddings e2 JOIN cand USING (vec_id) CROSS JOIN qv)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT)
           AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10""",
        # ES percentile_ranks: count(value <= probe) * 1e6 // n — the
        # comparison is on identical doubles, the tail pure integers
        "percentile_ranks": f"""
WITH n AS (SELECT count(*) AS n FROM events),
p(probe) AS (VALUES {', '.join(f'({v!r})' for v in _PCTR)})
SELECT CAST(floor(probe * 1e6 + 0.5) AS BIGINT) AS probe_micros,
       CAST((SELECT count(*) FROM events WHERE value <= probe)
            * 1000000 // n.n AS BIGINT) AS rank_micros
FROM p CROSS JOIN n""",
        # Hamming top-50 shortlist (integer-exact candidate identity)
        # -> exact cosine re-rank, knn_cosine's proven float surface
        "knn_bq_rerank": """
WITH e AS (SELECT vec_id, unnest(embedding) AS v,
                  unnest(range(0, len(embedding))) AS j
           FROM embeddings),
b AS (SELECT vec_id,
             CAST(sum(CASE WHEN v >= 0 AND j < 32
                           THEN (1::BIGINT << j) ELSE 0 END) AS BIGINT) AS w0,
             CAST(sum(CASE WHEN v >= 0 AND j >= 32
                           THEN (1::BIGINT << (j - 32)) ELSE 0 END)
                  AS BIGINT) AS w1
      FROM e GROUP BY vec_id),
q AS (SELECT w0 AS q0, w1 AS q1 FROM b WHERE vec_id = 0),
d AS (SELECT b.vec_id,
             bit_count(xor(b.w0, q.q0)) + bit_count(xor(b.w1, q.q1))
                 AS hamming
      FROM b CROSS JOIN q),
cand AS (SELECT vec_id FROM d
         ORDER BY hamming ASC, vec_id ASC LIMIT 50),
qv AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0),
sims AS (SELECT e2.vec_id,
                list_cosine_similarity(e2.embedding::DOUBLE[], qv.qe) AS sim
         FROM embeddings e2 JOIN cand USING (vec_id) CROSS JOIN qv)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT)
           AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10""",
        "embedding_pairs": """
SELECT a.vec_id AS a, b.vec_id AS b,
       CAST(floor(list_cosine_similarity(a.embedding::DOUBLE[],
                                         b.embedding::DOUBLE[]) * 1e6 + 0.5)
            AS BIGINT) AS sim_micros
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                             b.embedding::DOUBLE[]) >= 0.45""",
        "text_knn": f"""
WITH {kept},
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept),
w AS (SELECT doc_id, CAST(h % 64 AS BIGINT) AS bucket,
             sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
      FROM h GROUP BY doc_id, bucket),
norms AS (SELECT doc_id, sqrt(sum(w * w)) AS n FROM w GROUP BY doc_id),
q AS (SELECT bucket, w FROM w WHERE doc_id = 0),
qn AS (SELECT n FROM norms WHERE doc_id = 0),
dots AS (SELECT w.doc_id, sum(w.w * q.w) AS dot
         FROM w JOIN q USING (bucket) GROUP BY w.doc_id),
sims AS (
  SELECT n.doc_id, coalesce(d.dot, 0) / (n.n * qn.n) AS sim
  FROM norms n LEFT JOIN dots d ON n.doc_id = d.doc_id
  CROSS JOIN qn WHERE n.n > 0 AND qn.n > 0)
SELECT doc_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM sims ORDER BY sim DESC, doc_id ASC LIMIT 10""",
        "lang_id": lang_id_sql,
        "lang_confusion": f"""
WITH p AS ({lang_id_sql})
SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) AS n
FROM documents d JOIN p ON d.doc_id = p.doc_id
GROUP BY 1, 2""",
        "mmr_rerank": mmr_sql,
        "dup_rate_by_source": """
WITH h AS (SELECT doc_id, source, sha256(text) AS ch FROM documents),
c AS (SELECT ch, count(*) AS n FROM h GROUP BY ch),
p AS (SELECT h.source, count(*) AS n_docs,
             count(*) FILTER (c.n >= 2) AS n_dup
      FROM h JOIN c USING (ch) GROUP BY h.source)
SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_dup AS BIGINT) AS n_dup,
       CAST(n_dup * 1000000 // n_docs AS BIGINT) AS dup_rate_micros
FROM p""",
        "stopword_discovery": f"""
WITH {kept},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
nd AS (SELECT count(*) AS n FROM documents)
SELECT term, CAST(df AS BIGINT) AS df,
       CAST(df * 1000000 // nd.n AS BIGINT) AS df_ratio_micros
FROM df CROSS JOIN nd WHERE df * 2 > nd.n""",
        "term_coverage": f"""
WITH {kept},
cf AS (SELECT term, count(*) AS cf FROM kept GROUP BY term),
tot AS (SELECT sum(cf) AS t FROM cf),
top AS (SELECT cf FROM cf ORDER BY cf DESC, term ASC LIMIT 100)
SELECT CAST((SELECT count(*) FROM top) AS BIGINT) AS n_top_terms,
       CAST((SELECT sum(cf) FROM top) AS BIGINT) AS covered,
       CAST(tot.t AS BIGINT) AS total,
       CAST((SELECT sum(cf) FROM top) * 1000000 // tot.t AS BIGINT)
           AS coverage_micros
FROM tot""",
        "hard_negatives": f"""
WITH {kept},
{token_list_cte()},
{ngram_cte(8, 'g8')},
qg AS (SELECT DISTINCT md5_number_lower(ng) AS gh FROM g8
       WHERE doc_id = 0),
nd AS (SELECT DISTINCT g.doc_id FROM g8 g
       JOIN qg ON md5_number_lower(g.ng) = qg.gh),
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept),
w AS (SELECT doc_id, CAST(h % 64 AS BIGINT) AS bucket,
             sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
      FROM h GROUP BY doc_id, bucket),
norms AS (SELECT doc_id, sqrt(sum(w * w)) AS n FROM w GROUP BY doc_id),
q AS (SELECT bucket, w FROM w WHERE doc_id = 0),
qn AS (SELECT n FROM norms WHERE doc_id = 0),
dots AS (SELECT w.doc_id, sum(w.w * q.w) AS dot
         FROM w JOIN q USING (bucket) GROUP BY w.doc_id),
sims AS (
  SELECT n.doc_id, coalesce(d.dot, 0) / (n.n * qn.n) AS sim
  FROM norms n LEFT JOIN dots d ON n.doc_id = d.doc_id
  CROSS JOIN qn
  WHERE n.n > 0 AND qn.n > 0 AND n.doc_id <> 0
    AND n.doc_id NOT IN (SELECT doc_id FROM nd))
SELECT doc_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM sims ORDER BY sim DESC, doc_id ASC LIMIT 10""",
        "robust_outliers": """
WITH m AS (SELECT event_type, quantile_disc(value, 0.5) AS med
           FROM events GROUP BY 1),
d AS (SELECT e.event_id, e.event_type, e.value,
             abs(e.value - m.med) AS dev
      FROM events e JOIN m USING (event_type)),
md AS (SELECT event_type, quantile_disc(dev, 0.5) AS mad
       FROM d GROUP BY 1)
SELECT d.event_id, d.event_type,
       CAST(floor(d.value * 1e6 + 0.5) AS BIGINT) AS value_micros
FROM d JOIN md USING (event_type)
WHERE d.dev > 3.0 * md.mad""",
        "length_outliers": """
WITH b AS (SELECT lang, quantile_disc(n_chars, 0.01) AS lo,
                  quantile_disc(n_chars, 0.99) AS hi
           FROM documents GROUP BY lang)
SELECT d.doc_id, d.lang, CAST(d.n_chars AS BIGINT) AS n_chars
FROM documents d JOIN b USING (lang)
WHERE d.n_chars < b.lo OR d.n_chars > b.hi""",
        "type_token_ratio": f"""
WITH {kept},
per AS (SELECT doc_id, count(DISTINCT term) AS d, count(*) AS t
        FROM kept GROUP BY doc_id)
SELECT doc_id, CAST(d AS BIGINT) AS n_distinct,
       CAST(t AS BIGINT) AS n_tokens,
       CAST(d * 1000000 // t AS BIGINT) AS ttr_micros
FROM per""",
        "js_divergence": f"""
WITH {kept},
ks AS (SELECT k.term, d.source FROM kept k
       JOIN documents d USING (doc_id)),
a AS (SELECT term, count(*) AS c FROM ks
      WHERE source IN ({js_src_a}) GROUP BY term),
b AS (SELECT term, count(*) AS c FROM ks
      WHERE source NOT IN ({js_src_a}) GROUP BY term),
ta AS (SELECT sum(c) AS t FROM a),
tb AS (SELECT sum(c) AS t FROM b),
u AS (SELECT coalesce(a.term, b.term) AS term,
             coalesce(a.c, 0) AS ca, coalesce(b.c, 0) AS cb
      FROM a FULL OUTER JOIN b USING (term)),
c AS (SELECT
  CASE WHEN ca > 0 THEN CAST(floor(
    (ca::DOUBLE / ta.t) * ln((ca::DOUBLE / ta.t)
        / (((ca::DOUBLE / ta.t) + (cb::DOUBLE / tb.t)) / 2.0))
    * 1e6 + 0.5) AS BIGINT) ELSE 0 END AS cp,
  CASE WHEN cb > 0 THEN CAST(floor(
    (cb::DOUBLE / tb.t) * ln((cb::DOUBLE / tb.t)
        / (((ca::DOUBLE / ta.t) + (cb::DOUBLE / tb.t)) / 2.0))
    * 1e6 + 0.5) AS BIGINT) ELSE 0 END AS cq
  FROM u CROSS JOIN ta CROSS JOIN tb)
SELECT CAST(count(*) AS BIGINT) AS n_terms,
       CAST(greatest(sum(cp) + sum(cq), 0) // 2 AS BIGINT) AS js_micros
FROM c""",
        "char_histograms": """
WITH chars0 AS (
  SELECT doc_id, unnest(string_split_regex(text, '')) AS ch FROM documents),
chars AS (SELECT doc_id, ascii(ch) AS a FROM chars0 WHERE ch <> ''),
class AS (
  SELECT doc_id, CASE
      WHEN a BETWEEN 97 AND 122 THEN a - 97
      WHEN a BETWEEN 65 AND 90 THEN a - 65
      WHEN a BETWEEN 48 AND 57 THEN 26
      WHEN a = 32 THEN 27
      WHEN a = 10 THEN 28
      WHEN a < 32 THEN 29
      WHEN a BETWEEN 33 AND 47 THEN 30
      ELSE 31 END AS bucket
  FROM chars)
SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, count(*) AS cnt
FROM class GROUP BY doc_id, bucket""",
        "training_sequences": f"""
WITH base AS (
  SELECT doc_id,
         string_split_regex(
             lower(regexp_replace(text, '[^a-zA-Z0-9 \n]+', '', 'g')),
             '\\s+') AS l
  FROM documents),
tord AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS p
  FROM base),
keptp AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY p) AS pos
  FROM tord WHERE term <> '' AND term NOT IN ({sql_stopword_list()})),
cf AS (SELECT term, count(*) AS cf FROM keptp GROUP BY term),
ranked AS (
  SELECT term, row_number() OVER (ORDER BY cf DESC, term ASC) AS rn
  FROM cf),
vocab AS (SELECT term, rn + 1 AS token_id FROM ranked WHERE rn <= 5000)
SELECT k.doc_id, CAST(k.pos AS BIGINT) AS pos,
       CAST(coalesce(v.token_id, 1) AS BIGINT) AS token_id
FROM keptp k LEFT JOIN vocab v USING (term) WHERE k.pos <= 64""",
        "simhash_sigs": f"""
WITH {kept},
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept),
bits AS (SELECT CAST(range AS INTEGER) AS j FROM range(64)),
votes AS (
  SELECT doc_id, bits.j,
         sum(CASE WHEN ((h >> bits.j) & 1) = 1 THEN 1 ELSE -1 END) AS v
  FROM h CROSS JOIN bits GROUP BY doc_id, bits.j),
sims AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN (1::HUGEINT << j) ELSE 0::HUGEINT END) AS s
  FROM votes GROUP BY doc_id)
SELECT d.doc_id,
       CAST(CASE WHEN coalesce(s.s, 0) >= 9223372036854775808::HUGEINT
                 THEN coalesce(s.s, 0) - 18446744073709551616::HUGEINT
                 ELSE coalesce(s.s, 0) END AS BIGINT) AS simhash
FROM documents d LEFT JOIN sims s ON d.doc_id = s.doc_id""",
        "bpe_token_counts": r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text,
           '''(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+'
       )) AS BIGINT) AS n_bpe_tokens
FROM documents""",
        "simhash_pairs": f"""
WITH {kept},
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept),
bits AS (SELECT CAST(range AS INTEGER) AS j FROM range(64)),
votes AS (
  SELECT doc_id, bits.j,
         sum(CASE WHEN ((h >> bits.j) & 1) = 1 THEN 1 ELSE -1 END) AS v
  FROM h CROSS JOIN bits GROUP BY doc_id, bits.j),
sims AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN (1::HUGEINT << j) ELSE 0::HUGEINT END) AS s
  FROM votes GROUP BY doc_id),
sig AS (
  SELECT d.doc_id,
         CAST(CASE WHEN coalesce(s.s, 0) >= 9223372036854775808::HUGEINT
                   THEN coalesce(s.s, 0) - 18446744073709551616::HUGEINT
                   ELSE coalesce(s.s, 0) END AS BIGINT) AS simhash
  FROM documents d LEFT JOIN sims s ON d.doc_id = s.doc_id)
SELECT s1.doc_id AS a, s2.doc_id AS b,
       CAST(bit_count(xor(s1.simhash, s2.simhash)) AS BIGINT) AS hamming
FROM sig s1 JOIN sig s2 ON s1.doc_id < s2.doc_id
WHERE bit_count(xor(s1.simhash, s2.simhash)) <= 3""",
        "ngram_jaccard": f"""
WITH {kept},
ts AS (SELECT DISTINCT doc_id, term FROM kept),
sizes AS (SELECT doc_id, count(*) AS n FROM ts GROUP BY doc_id),
inter AS (
  SELECT t1.doc_id AS a, t2.doc_id AS b, count(*) AS i
  FROM ts t1 JOIN ts t2 ON t1.term = t2.term AND t1.doc_id < t2.doc_id
  GROUP BY t1.doc_id, t2.doc_id),
j AS (
  SELECT i.a, i.b, i.i::DOUBLE / (sa.n + sb.n - i.i) AS jac
  FROM inter i
  JOIN sizes sa ON sa.doc_id = i.a
  JOIN sizes sb ON sb.doc_id = i.b)
SELECT a, b, CAST(floor(jac * 1e6 + 0.5) AS BIGINT) AS jaccard_micros
FROM j WHERE jac >= 0.8""",
        "contamination_hits": f"""
WITH {token_list_cte()},
{ngram_cte(3, 'ngr')},
dng AS (SELECT DISTINCT doc_id, md5_number_lower(ng) AS h FROM ngr),
bench AS (SELECT DISTINCT h FROM dng WHERE doc_id % 97 = 0)
SELECT d.doc_id, CAST(count(*) AS BIGINT) AS hits
FROM dng d JOIN bench USING (h)
WHERE d.doc_id % 97 <> 0
GROUP BY d.doc_id""",
        "repetition_stats": f"""
WITH {token_list_cte()},
{ngram_cte(2, 'ng2')},
{ngram_cte(3, 'ng3')},
c2 AS (SELECT doc_id, ng, count(*) AS c FROM ng2 GROUP BY 1, 2),
top2 AS (SELECT doc_id, max(c) AS m FROM c2 GROUP BY 1),
c3 AS (SELECT doc_id, ng, count(*) AS c FROM ng3 GROUP BY 1, 2),
dup3 AS (SELECT doc_id, sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS dup
         FROM c3 GROUP BY 1),
lens AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS n_tokens FROM doc_toks)
SELECT l.doc_id, l.n_tokens,
       CAST(coalesce(t.m, 0) AS BIGINT) AS top2_count,
       {sql_micros("CASE WHEN l.n_tokens > 0 THEN coalesce(t.m, 0) * 2.0 / l.n_tokens ELSE 0.0 END")} AS top2_frac_micros,
       CAST(coalesce(d.dup, 0) AS BIGINT) AS dup3_count,
       {sql_micros("CASE WHEN l.n_tokens > 0 THEN coalesce(d.dup, 0) * 3.0 / l.n_tokens ELSE 0.0 END")} AS dup3_frac_micros
FROM lens l LEFT JOIN top2 t USING (doc_id) LEFT JOIN dup3 d USING (doc_id)""",
        "pii_redact": _pii_sql,
        "edit_pairs": """
SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
       CAST(levenshtein(substr(a.text, 1, 64), substr(b.text, 1, 64))
            AS BIGINT) AS lev
FROM documents a JOIN documents b
  ON a.lang = b.lang AND a.n_chars // 32 = b.n_chars // 32
 AND a.doc_id < b.doc_id
WHERE levenshtein(substr(a.text, 1, 64), substr(b.text, 1, 64)) <= 40""",
        "pagerank": """
WITH edges AS (
  SELECT DISTINCT l_orderkey % 512 AS src, l_partkey % 512 AS dst
  FROM lineitem),
ew AS (
  SELECT e.src, e.dst, od.od
  FROM edges e JOIN (SELECT src, count(*) AS od FROM edges GROUP BY src) od
    ON od.src = e.src),
nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
nn AS (SELECT count(*) AS n FROM nodes),
p0 AS (SELECT node, 1000000 // n AS pr FROM nodes, nn),
p1 AS (
  SELECT nd.node, 150000 // nn.n + (850000 * coalesce(s.c, 0)) // 1000000
         AS pr
  FROM nodes nd CROSS JOIN nn
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p0 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node),
p2 AS (
  SELECT nd.node, 150000 // nn.n + (850000 * coalesce(s.c, 0)) // 1000000
         AS pr
  FROM nodes nd CROSS JOIN nn
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p1 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node),
p3 AS (
  SELECT nd.node, 150000 // nn.n + (850000 * coalesce(s.c, 0)) // 1000000
         AS pr
  FROM nodes nd CROSS JOIN nn
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p2 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node)
SELECT node, CAST(pr AS BIGINT) AS pr_micros FROM p3""",
        # personalized variant: teleport mass splits over the seed set
        # {7, 42} (1000000 // 2 start, 150000 // 2 per-step base on the
        # seeds, 0 elsewhere); otherwise the identical unrolled steps
        "ppr_related": """
WITH edges AS (
  SELECT DISTINCT l_orderkey % 512 AS src, l_partkey % 512 AS dst
  FROM lineitem),
ew AS (
  SELECT e.src, e.dst, od.od
  FROM edges e JOIN (SELECT src, count(*) AS od FROM edges GROUP BY src) od
    ON od.src = e.src),
nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
p0 AS (SELECT node,
              CASE WHEN node IN (7, 42) THEN 500000 ELSE 0 END AS pr
       FROM nodes),
p1 AS (
  SELECT nd.node,
         CASE WHEN nd.node IN (7, 42) THEN 75000 ELSE 0 END
         + (850000 * coalesce(s.c, 0)) // 1000000 AS pr
  FROM nodes nd
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p0 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node),
p2 AS (
  SELECT nd.node,
         CASE WHEN nd.node IN (7, 42) THEN 75000 ELSE 0 END
         + (850000 * coalesce(s.c, 0)) // 1000000 AS pr
  FROM nodes nd
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p1 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node),
p3 AS (
  SELECT nd.node,
         CASE WHEN nd.node IN (7, 42) THEN 75000 ELSE 0 END
         + (850000 * coalesce(s.c, 0)) // 1000000 AS pr
  FROM nodes nd
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p2 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node)
SELECT node, CAST(pr AS BIGINT) AS pr_micros FROM p3""",
        "connected_components": """
WITH RECURSIVE e AS (
  SELECT DISTINCT l_orderkey % 2048 AS a, 2048 + l_partkey % 2048 AS b
  FROM lineitem WHERE l_linenumber = 1),
nodes AS (SELECT a AS node FROM e UNION SELECT b FROM e),
sym AS (SELECT a AS src, b AS dst FROM e UNION ALL SELECT b, a FROM e),
reach(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT s.dst, r.lbl FROM reach r JOIN sym s ON s.src = r.node)
SELECT node, CAST(min(lbl) AS BIGINT) AS component
FROM reach GROUP BY node""",
        "value_mad": """
WITH vm AS (SELECT CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
            FROM events),
m AS (SELECT quantile_disc(vm, 0.5) AS med FROM vm)
SELECT CAST(m.med AS BIGINT) AS median_micros,
       CAST((SELECT quantile_disc(abs(vm.vm - m.med), 0.5) FROM vm)
            AS BIGINT) AS mad_micros
FROM m""",
        "copurchase_topk": """
WITH p AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
pairs AS (
  SELECT a.l_partkey AS pa, b.l_partkey AS pb
  FROM p a JOIN p b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
c AS (SELECT pa, pb, count(*) AS n FROM pairs GROUP BY pa, pb),
r AS (SELECT pa, pb, CAST(n AS BIGINT) AS n,
             row_number() OVER (PARTITION BY pa
                                ORDER BY n DESC, pb ASC) AS rank
      FROM c)
SELECT pa, pb, n, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 3""",
        "collocations": f"""
WITH {kept},
uni AS (SELECT term, count(*) AS c FROM kept GROUP BY term),
tot AS (SELECT count(*) AS t FROM kept),
{token_list_cte()},
{ngram_cte(2, 'bg2')},
big AS (SELECT ng, count(*) AS cab FROM bg2 GROUP BY ng),
btot AS (SELECT count(*) AS b FROM bg2),
scored AS (
  SELECT big.ng AS bigram, CAST(big.cab AS BIGINT) AS cab,
         ln(big.cab::DOUBLE) + ln(tot.t::DOUBLE) + ln(tot.t::DOUBLE)
         - ln(btot.b::DOUBLE) - ln(u1.c::DOUBLE) - ln(u2.c::DOUBLE)
             AS pmi
  FROM big
  CROSS JOIN tot CROSS JOIN btot
  JOIN uni u1 ON u1.term = split_part(big.ng, ' ', 1)
  JOIN uni u2 ON u2.term = split_part(big.ng, ' ', 2)
  WHERE big.cab >= 5)
SELECT bigram, cab,
       CAST(floor(pmi * 1e6 + 0.5) AS BIGINT) AS pmi_micros
FROM scored ORDER BY pmi DESC, bigram ASC LIMIT 20""",
        "phrase_search": f"""
WITH {token_list_cte()},
{ngram_cte(2, 'bg')}
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_occurrences
FROM bg WHERE ng = 'merge sort' GROUP BY doc_id""",
        "rrf_hybrid": bm25_scores_sql(BM25_QUERY) + """,
rb AS (SELECT doc_id, r FROM (
         SELECT doc_id,
                row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r
         FROM scores) WHERE r <= 10),
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept),
w AS (SELECT doc_id, CAST(h % 64 AS BIGINT) AS bucket,
             sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
      FROM h GROUP BY doc_id, bucket),
norms AS (SELECT doc_id, sqrt(sum(w * w)) AS n FROM w GROUP BY doc_id),
qh AS (SELECT md5_number_lower(term) AS h FROM qterms),
qw AS (SELECT CAST(h % 64 AS BIGINT) AS bucket,
              sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
       FROM qh GROUP BY bucket),
qn AS (SELECT sqrt(sum(w * w)) AS n FROM qw),
dots AS (SELECT w.doc_id, sum(w.w * qw.w) AS dot
         FROM w JOIN qw USING (bucket) GROUP BY w.doc_id),
sims AS (SELECT n.doc_id, coalesce(d.dot, 0) / (n.n * qn.n) AS sim
         FROM norms n LEFT JOIN dots d ON n.doc_id = d.doc_id
         CROSS JOIN qn WHERE n.n > 0 AND qn.n > 0),
rk AS (SELECT doc_id, r FROM (
         SELECT doc_id,
                row_number() OVER (ORDER BY sim DESC, doc_id ASC) AS r
         FROM sims) WHERE r <= 10),
fused AS (
  SELECT coalesce(rb.doc_id, rk.doc_id) AS doc_id,
         coalesce(1.0 / (60 + rb.r), 0.0)
         + coalesce(1.0 / (60 + rk.r), 0.0) AS rrf
  FROM rb FULL OUTER JOIN rk ON rb.doc_id = rk.doc_id)
SELECT doc_id, CAST(floor(rrf * 1e6 + 0.5) AS BIGINT) AS rrf_micros,
       CAST(row_number() OVER (ORDER BY rrf DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM fused ORDER BY rrf DESC, doc_id ASC LIMIT 10""",
        # retriever tree: RRF over three heterogeneous legs (bm25,
        # hash-cosine, LM-Dirichlet) — fixed leg order in the sum
        "retriever_tree_search": bm25_scores_sql(BM25_QUERY) + """,
rb AS (SELECT doc_id, r FROM (
         SELECT doc_id,
                row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r
         FROM scores) WHERE r <= 10),
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept),
w AS (SELECT doc_id, CAST(h % 64 AS BIGINT) AS bucket,
             sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
      FROM h GROUP BY doc_id, bucket),
norms AS (SELECT doc_id, sqrt(sum(w * w)) AS n FROM w GROUP BY doc_id),
qh AS (SELECT md5_number_lower(term) AS h FROM qterms),
qw AS (SELECT CAST(h % 64 AS BIGINT) AS bucket,
              sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
       FROM qh GROUP BY bucket),
qn AS (SELECT sqrt(sum(w * w)) AS n FROM qw),
dots AS (SELECT w.doc_id, sum(w.w * qw.w) AS dot
         FROM w JOIN qw USING (bucket) GROUP BY w.doc_id),
sims AS (SELECT n.doc_id, coalesce(d.dot, 0) / (n.n * qn.n) AS sim
         FROM norms n LEFT JOIN dots d ON n.doc_id = d.doc_id
         CROSS JOIN qn WHERE n.n > 0 AND qn.n > 0),
rk AS (SELECT doc_id, r FROM (
         SELECT doc_id,
                row_number() OVER (ORDER BY sim DESC, doc_id ASC) AS r
         FROM sims) WHERE r <= 10),
lmstats AS (SELECT sum(dl) AS total_len FROM dl),
lmcf AS (SELECT term, count(*)::DOUBLE AS cf FROM kept
         WHERE term IN (SELECT term FROM qterms) GROUP BY 1),
lmscores AS (
  SELECT tf.doc_id,
         sum( greatest(0.0,
              ln(1.0 + tf.tf / ((2000.0 * lmcf.cf) / lmstats.total_len))
              + ln(2000.0 / (dl.dl + 2000.0))) ) AS score
  FROM tf
  JOIN lmcf USING (term)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN lmstats
  GROUP BY tf.doc_id),
rl AS (SELECT doc_id, r FROM (
         SELECT doc_id,
                row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r
         FROM lmscores) WHERE r <= 10),
fused AS (
  SELECT coalesce(rb.doc_id, rk.doc_id, rl.doc_id) AS doc_id,
         coalesce(1.0 / (60 + rb.r), 0.0)
         + coalesce(1.0 / (60 + rk.r), 0.0)
         + coalesce(1.0 / (60 + rl.r), 0.0) AS rrf
  FROM rb FULL OUTER JOIN rk ON rb.doc_id = rk.doc_id
          FULL OUTER JOIN rl
            ON coalesce(rb.doc_id, rk.doc_id) = rl.doc_id)
SELECT doc_id, CAST(floor(rrf * 1e6 + 0.5) AS BIGINT) AS rrf_micros,
       CAST(row_number() OVER (ORDER BY rrf DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM fused ORDER BY rrf DESC, doc_id ASC LIMIT 10""",
        # score-based linear hybrid: min-max normalize each leg's
        # top-10 MICROS window, fuse 0.7·lex + 0.3·sem, missing leg 0.0
        "hybrid_linear_search": bm25_scores_sql(BM25_QUERY) + """,
rb AS (SELECT doc_id, sm, r FROM (
         SELECT doc_id,
                CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS sm,
                row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r
         FROM scores) WHERE r <= 10),
h AS (SELECT doc_id, md5_number_lower(term) AS h FROM kept),
w AS (SELECT doc_id, CAST(h % 64 AS BIGINT) AS bucket,
             sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
      FROM h GROUP BY doc_id, bucket),
norms AS (SELECT doc_id, sqrt(sum(w * w)) AS n FROM w GROUP BY doc_id),
qh AS (SELECT md5_number_lower(term) AS h FROM qterms),
qw AS (SELECT CAST(h % 64 AS BIGINT) AS bucket,
              sum(CASE WHEN ((h >> 63) & 1) = 1 THEN -1.0 ELSE 1.0 END) AS w
       FROM qh GROUP BY bucket),
qn AS (SELECT sqrt(sum(w * w)) AS n FROM qw),
dots AS (SELECT w.doc_id, sum(w.w * qw.w) AS dot
         FROM w JOIN qw USING (bucket) GROUP BY w.doc_id),
sims AS (SELECT n.doc_id, coalesce(d.dot, 0) / (n.n * qn.n) AS sim
         FROM norms n LEFT JOIN dots d ON n.doc_id = d.doc_id
         CROSS JOIN qn WHERE n.n > 0 AND qn.n > 0),
rk AS (SELECT doc_id, sm, r FROM (
         SELECT doc_id,
                CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sm,
                row_number() OVER (ORDER BY sim DESC, doc_id ASC) AS r
         FROM sims) WHERE r <= 10),
bs AS (SELECT min(sm) AS lo, max(sm) AS hi FROM rb),
ks AS (SELECT min(sm) AS lo, max(sm) AS hi FROM rk),
fused AS (
  SELECT coalesce(rb.doc_id, rk.doc_id) AS doc_id,
         0.7 * (CASE WHEN rb.sm IS NULL THEN 0.0
                     WHEN bs.hi = bs.lo THEN 1.0
                     ELSE (rb.sm - bs.lo)::DOUBLE / (bs.hi - bs.lo) END)
         + 0.3 * (CASE WHEN rk.sm IS NULL THEN 0.0
                       WHEN ks.hi = ks.lo THEN 1.0
                       ELSE (rk.sm - ks.lo)::DOUBLE / (ks.hi - ks.lo) END)
             AS f
  FROM rb FULL OUTER JOIN rk ON rb.doc_id = rk.doc_id
  CROSS JOIN bs CROSS JOIN ks)
SELECT doc_id, CAST(floor(f * 1e6 + 0.5) AS BIGINT) AS fused_micros,
       CAST(row_number() OVER (ORDER BY f DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM fused ORDER BY f DESC, doc_id ASC LIMIT 10""",
        "tfidf_keywords": f"""
WITH {kept},
tf AS (SELECT doc_id, term, count(*) AS tf FROM kept GROUP BY 1, 2),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
nd AS (SELECT count(*) AS n FROM documents),
s AS (
  SELECT tf.doc_id, tf.term, tf.tf,
         tf.tf::DOUBLE * ln(nd.n::DOUBLE / df.df::DOUBLE) AS score
  FROM tf JOIN df USING (term) CROSS JOIN nd),
r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                                   ORDER BY score DESC, term ASC) AS rank
      FROM s)
SELECT doc_id, term, CAST(tf AS BIGINT) AS tf,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 3""",
        "doc_entropy": f"""
WITH {kept},
tf AS (SELECT doc_id, term, count(*) AS tf FROM kept GROUP BY 1, 2),
d AS (SELECT doc_id, CAST(sum(tf) AS BIGINT) AS L,
             CAST(sum(CAST(floor(tf::DOUBLE * ln(tf::DOUBLE) * 1e6 + 0.5)
                           AS BIGINT)) AS BIGINT) AS ps
      FROM tf GROUP BY doc_id)
SELECT doc_id, L AS n_tokens,
       CAST(floor(ln(L::DOUBLE) * 1e6 + 0.5) AS BIGINT) - ps // L
           AS entropy_micros
FROM d""",
        "bigram_logprob": f"""
WITH {kept},
uni AS (SELECT term, count(*) AS c FROM kept GROUP BY term),
tot AS (SELECT count(*) AS t FROM kept),
{token_list_cte()},
{ngram_cte(2, 'bg')},
big AS (SELECT ng, count(*) AS cab FROM bg GROUP BY ng),
contrib AS (
  SELECT bg.doc_id,
         CAST(floor(ln(0.75 * (big.cab::DOUBLE / u1.c::DOUBLE)
                       + 0.25 * (u2.c::DOUBLE / tot.t::DOUBLE))
                    * 1e6 + 0.5) AS BIGINT) AS c
  FROM bg
  JOIN big USING (ng)
  JOIN uni u1 ON u1.term = split_part(bg.ng, ' ', 1)
  JOIN uni u2 ON u2.term = split_part(bg.ng, ' ', 2)
  CROSS JOIN tot)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(c) AS BIGINT) AS logprob_micros
FROM contrib GROUP BY doc_id""",
        "domain_mix_sample": """
SELECT doc_id, source, lang FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) <
      CASE source
        WHEN 'src0' THEN 9223372036854775808::UBIGINT
        WHEN 'src1' THEN 4611686018427387904::UBIGINT
        WHEN 'src2' THEN 9223372036854775808::UBIGINT
        ELSE 2305843009213693952::UBIGINT END""",
        "phrase_search_indexed": f"""
WITH {token_list_cte()},
{ngram_cte(2, 'bg')}
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_occurrences
FROM bg WHERE ng = 'merge sort' GROUP BY doc_id""",
        "token_fertility": f"""
WITH {kept},
tl AS (SELECT doc_id, count(*) AS toks FROM kept GROUP BY doc_id),
per AS (SELECT d.lang, sum(d.n_chars) AS chars,
               sum(coalesce(tl.toks, 0)) AS toks
        FROM documents d LEFT JOIN tl USING (doc_id) GROUP BY d.lang)
SELECT lang, CAST(chars AS BIGINT) AS n_chars,
       CAST(toks AS BIGINT) AS n_tokens,
       CAST(chars * 1000000 // toks AS BIGINT) AS chars_per_token_micros
FROM per WHERE toks > 0""",
        "containment_pairs": f"""
WITH {token_list_cte()},
{ngram_cte(8, 'g8')},
hh AS (SELECT DISTINCT doc_id, md5_number_lower(ng) AS h FROM g8),
sizes AS (SELECT doc_id, count(*) AS n FROM hh GROUP BY doc_id),
inter AS (
  SELECT t1.doc_id AS a, t2.doc_id AS b, count(*) AS i
  FROM hh t1 JOIN hh t2 ON t1.h = t2.h AND t1.doc_id < t2.doc_id
  GROUP BY t1.doc_id, t2.doc_id),
c AS (
  SELECT i.a, i.b,
         CAST(i.i * 1000000 // least(sa.n, sb.n) AS BIGINT) AS cont
  FROM inter i
  JOIN sizes sa ON sa.doc_id = i.a
  JOIN sizes sb ON sb.doc_id = i.b)
SELECT a, b, cont AS containment_micros FROM c WHERE cont >= 900000""",
        "event_trigrams": """
WITH seq AS (
  SELECT user_id, list(event_type ORDER BY ts, event_id) AS evs
  FROM events GROUP BY user_id),
tg AS (
  SELECT unnest(list_transform(range(1, len(evs) - 1),
         i -> evs[i] || '>' || evs[i + 1] || '>' || evs[i + 2]))
      AS pattern
  FROM seq),
c AS (SELECT pattern, count(*) AS n FROM tg GROUP BY pattern),
r AS (SELECT pattern, CAST(n AS BIGINT) AS n,
             row_number() OVER (ORDER BY n DESC, pattern ASC) AS rank
      FROM c)
SELECT pattern, n, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 10""",
        "winsorized_mean": """
WITH b AS (SELECT event_type,
                  quantile_disc(value, 0.05) AS lo,
                  quantile_disc(value, 0.95) AS hi
           FROM events GROUP BY event_type),
c AS (SELECT e.event_type,
             CAST(floor(least(greatest(e.value, b.lo), b.hi) * 1e6 + 0.5)
                  AS BIGINT) AS c
      FROM events e JOIN b USING (event_type))
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(c) // count(*) AS BIGINT) AS winsor_mean_micros
FROM c GROUP BY event_type""",
        "dedup_spans": f"""
WITH {token_list_cte()},
grams AS (
  SELECT doc_id, u.i AS p,
         md5_number_lower(array_to_string(toks[u.i:u.i+7], ' ')) AS h
  FROM doc_toks, UNNEST(range(1, len(toks) - 6)) AS u(i)),
dup AS (SELECT h FROM (SELECT h, count(DISTINCT doc_id) AS c
                       FROM grams GROUP BY h) WHERE c >= 2),
cov AS (SELECT DISTINCT g.doc_id, g.p + s.j AS cp
        FROM grams g JOIN dup USING (h), generate_series(0, 7) AS s(j)),
tok AS (SELECT doc_id, toks[u.i] AS term, u.i AS p
        FROM doc_toks, UNNEST(range(1, len(toks) + 1)) AS u(i)),
kept AS (SELECT t.doc_id, t.p, t.term FROM tok t
         WHERE NOT EXISTS (SELECT 1 FROM cov
                           WHERE cov.doc_id = t.doc_id AND cov.cp = t.p))
SELECT d.doc_id,
       CAST(len(d.toks) AS BIGINT) AS n_tokens,
       CAST(coalesce(c.n, 0) AS BIGINT) AS n_covered,
       coalesce(k.txt, '') AS kept_text
FROM doc_toks d
LEFT JOIN (SELECT doc_id, count(*) AS n FROM cov GROUP BY doc_id) c
       ON d.doc_id = c.doc_id
LEFT JOIN (SELECT doc_id, string_agg(term, ' ' ORDER BY p) AS txt
           FROM kept GROUP BY doc_id) k
       ON d.doc_id = k.doc_id""",
        "dup_ngram_stats": f"""
WITH {token_list_cte()},
{ngram_cte(8, 'g8')},
hh AS (SELECT doc_id, md5_number_lower(ng) AS h FROM g8),
dup AS (SELECT h FROM (SELECT h, count(DISTINCT doc_id) AS c
                       FROM hh GROUP BY h) WHERE c >= 2),
per AS (SELECT doc_id, count(*) AS total,
               count(*) FILTER (h IN (SELECT h FROM dup)) AS dup_n
        FROM hh GROUP BY doc_id)
SELECT doc_id, CAST(total AS BIGINT) AS n_ngrams,
       CAST(dup_n AS BIGINT) AS n_dup,
       CAST(dup_n * 1000000 // total AS BIGINT) AS dup_frac_micros
FROM per""",
        "decayed_events": """
WITH m AS (SELECT max(epoch_us(ts)) AS tmax FROM events),
c AS (SELECT user_id,
             CAST(floor(value * exp(-((m.tmax - epoch_us(ts))::DOUBLE
                                      / 3600000000.0)) * 1e6 + 0.5)
                  AS BIGINT) AS c
      FROM events CROSS JOIN m)
SELECT user_id, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(c) AS BIGINT) AS decayed_micros
FROM c GROUP BY user_id""",
        "stratified_weighted_sample": """
WITH k AS (
  SELECT lang, doc_id, n_chars,
         -ln((md5_number_lower(CAST(doc_id AS VARCHAR))::DOUBLE + 1.0)
             / 18446744073709551616.0) / n_chars::DOUBLE AS key
  FROM documents),
r AS (SELECT lang, doc_id, CAST(n_chars AS BIGINT) AS n_chars,
             row_number() OVER (PARTITION BY lang
                                ORDER BY key, doc_id) AS rank
      FROM k)
SELECT lang, doc_id, n_chars, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 5""",
        "value_quartile_buckets": """
WITH vm AS (SELECT CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
            FROM events),
q AS (SELECT quantile_disc(vm, 0.25) AS q1, quantile_disc(vm, 0.5) AS q2,
             quantile_disc(vm, 0.75) AS q3 FROM vm)
SELECT CAST(1 + (vm.vm > q.q1)::INT + (vm.vm > q.q2)::INT
            + (vm.vm > q.q3)::INT AS BIGINT) AS bucket,
       count(*) AS n, CAST(sum(vm.vm) AS BIGINT) AS sum_micros
FROM vm, q GROUP BY 1""",
        "events_time_window": """
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts,
         CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
  FROM events)
SELECT event_id, user_id,
       CAST(sum(vm) OVER w AS BIGINT) AS win_sum_vm,
       CAST(count(*) OVER w AS BIGINT) AS win_n
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN 3600000000 PRECEDING AND CURRENT ROW)""",
        "events_zscore": """
WITH x AS (
  SELECT event_id, event_type,
         CAST(floor(value * 1e3 + 0.5) AS BIGINT) AS xm
  FROM events),
s AS (
  SELECT event_type, count(*)::HUGEINT AS n, sum(xm)::HUGEINT AS sx,
         sum(xm * xm)::HUGEINT AS sxx
  FROM x GROUP BY event_type)
SELECT x.event_id, x.event_type,
       CAST(floor(((x.xm * s.n - s.sx)::DOUBLE
                   / sqrt((s.n * s.sxx - s.sx * s.sx)::DOUBLE))
                  * 1e6 + 0.5) AS BIGINT) AS z_micros
FROM x JOIN s USING (event_type)""",
        "packed_sequences": f"""
WITH {token_list_cte()},
keptp AS (
  SELECT doc_id, unnest(toks) AS term,
         generate_subscripts(toks, 1) - 1 AS pos
  FROM doc_toks),
cnt AS (SELECT doc_id, count(*) AS n FROM keptp GROUP BY doc_id),
offs AS (
  SELECT doc_id,
         coalesce(sum(n) OVER (ORDER BY doc_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS off
  FROM cnt),
g AS (SELECT k.doc_id, o.off + k.pos AS gp, k.term
      FROM keptp k JOIN offs o USING (doc_id))
SELECT CAST(gp // 512 AS BIGINT) AS seq_id,
       CAST(gp % 512 AS BIGINT) AS pos_in_seq,
       term, doc_id
FROM g""",
        "user_funnel": """
WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS ts FROM events),
t1 AS (SELECT user_id, min(ts) AS t1 FROM e
       WHERE event_type = 'view' GROUP BY user_id),
t2 AS (SELECT e.user_id, min(e.ts) AS t2
       FROM e JOIN t1 USING (user_id)
       WHERE e.event_type = 'click' AND e.ts > t1.t1
       GROUP BY e.user_id),
t3 AS (SELECT e.user_id, min(e.ts) AS t3
       FROM e JOIN t2 USING (user_id)
       WHERE e.event_type = 'purchase' AND e.ts > t2.t2
       GROUP BY e.user_id)
SELECT t1.user_id,
       CAST(CASE WHEN t3.user_id IS NOT NULL THEN 3
                 WHEN t2.user_id IS NOT NULL THEN 2
                 ELSE 1 END AS BIGINT) AS stage,
       CAST(t1.t1 AS BIGINT) AS first_view_us
FROM t1
LEFT JOIN t2 ON t1.user_id = t2.user_id
LEFT JOIN t3 ON t1.user_id = t3.user_id""",
        "label_centroids": """
WITH x AS (
  SELECT CAST(label AS BIGINT) AS label,
         generate_subscripts(embedding, 1) - 1 AS dim,
         CAST(floor(unnest(embedding)::DOUBLE * 1e6 + 0.5) AS BIGINT)
             AS em
  FROM embeddings)
SELECT label, CAST(dim AS BIGINT) AS dim,
       CAST(sum(em) // count(*) AS BIGINT) AS centroid_micros,
       count(*) AS n
FROM x GROUP BY label, dim""",
        "props_k_stats": """
WITH k AS (
  SELECT event_type,
         CAST(regexp_extract(props, '"k":\\s*(-?\\d+)', 1) AS BIGINT) AS k
  FROM events)
SELECT event_type, count(*) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(max(k) AS BIGINT) AS max_k
FROM k GROUP BY event_type""",
        "weighted_sample": """
SELECT doc_id, n_chars FROM (
  SELECT doc_id, n_chars,
         -ln((md5_number_lower(CAST(doc_id AS VARCHAR))::DOUBLE + 1.0)
             / 18446744073709551616.0) / n_chars::DOUBLE AS key
  FROM documents)
ORDER BY key, doc_id LIMIT 20""",
        "user_modal_event": """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY user_id, event_type),
r AS (
  SELECT user_id, event_type, n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n DESC, event_type ASC) AS rn
  FROM c)
SELECT user_id, event_type, CAST(n AS BIGINT) AS n FROM r WHERE rn = 1""",
        "jw_pairs": """
SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
       CAST(floor(jaro_winkler_similarity(substr(a.text, 1, 64),
                                          substr(b.text, 1, 64))
                  * 1e6 + 0.5) AS BIGINT) AS jw_micros
FROM documents a JOIN documents b
  ON a.lang = b.lang AND a.n_chars // 32 = b.n_chars // 32
 AND a.doc_id < b.doc_id
WHERE jaro_winkler_similarity(substr(a.text, 1, 64),
                              substr(b.text, 1, 64)) >= 0.9""",
        "knn_ann_lsh": f"""
WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0),
planes(i, p) AS (VALUES {plane_rows}),
sigs AS (
  SELECT e.vec_id,
         CAST(sum(CASE WHEN list_dot_product(e.embedding::DOUBLE[], pl.p) > 0
                       THEN (1::BIGINT << pl.i) ELSE 0 END) AS BIGINT)
             AS bucket
  FROM embeddings e CROSS JOIN planes pl
  GROUP BY e.vec_id),
qb AS (SELECT bucket AS qbucket FROM sigs WHERE vec_id = 0),
cand AS (SELECT s.vec_id FROM sigs s, qb
         WHERE bit_count(xor(s.bucket, qb.qbucket)) <= 2),
sims AS (
  SELECT e.vec_id, list_cosine_similarity(e.embedding::DOUBLE[], q.qe) AS sim
  FROM embeddings e JOIN cand c ON e.vec_id = c.vec_id CROSS JOIN q)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10""",
        "minhash_search": f"""
WITH {kept},
h AS (SELECT doc_id, md5_number_lower(term) AS th FROM kept),
perms(p, a, b) AS (VALUES {perm_rows}),
sig AS (
  -- sig[doc, p] = min over tokens of fold((th·a + b) mod 2⁶⁴) where
  -- fold(x) = (x mod 2⁶¹) + (x div 2⁶¹) — the engine's Mersenne fold
  SELECT h.doc_id, pm.p,
         min( ((h.th::HUGEINT * pm.a + pm.b)
               % 18446744073709551616::HUGEINT)
              % 2305843009213693952::HUGEINT
              + ((h.th::HUGEINT * pm.a + pm.b)
                 % 18446744073709551616::HUGEINT)
                // 2305843009213693952::HUGEINT ) AS s
  FROM h CROSS JOIN perms pm
  GROUP BY h.doc_id, pm.p),
qsig AS (SELECT p, s FROM sig WHERE doc_id = 0),
permmatch AS (
  SELECT s.doc_id, s.p
  FROM sig s JOIN qsig q ON s.p = q.p AND s.s = q.s),
bandfull AS (
  SELECT doc_id, p // 4 AS band, count(*) AS c
  FROM permmatch GROUP BY doc_id, p // 4),
cand AS (SELECT DISTINCT doc_id FROM bandfull WHERE c = 4),
m AS (SELECT doc_id, count(*) AS m FROM permmatch GROUP BY doc_id)
SELECT c.doc_id,
       CAST(floor((m.m / 128.0) * 1e6 + 0.5) AS BIGINT)
           AS est_jaccard_micros,
       CAST(row_number() OVER (ORDER BY m.m DESC, c.doc_id ASC) AS BIGINT)
           AS rank
FROM cand c JOIN m ON c.doc_id = m.doc_id
ORDER BY m.m DESC, c.doc_id ASC LIMIT 10""",
        "ngram_fingerprints": f"""
WITH RECURSIVE base AS (
  SELECT doc_id,
         string_split_regex(
             lower(regexp_replace(text, '[^a-zA-Z0-9 \n]+', '', 'g')),
             '\\s+') AS l
  FROM documents),
tord AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS p
  FROM base),
keptp AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY p) - 1 AS pos
  FROM tord WHERE term <> '' AND term NOT IN ({sql_stopword_list()})),
maxpos AS (SELECT coalesce(max(pos), 0) AS m FROM keptp),
powers(pos, val) AS (
  SELECT 0, 1::HUGEINT
  UNION ALL
  SELECT pos + 1,
         (val * 1099511628211::HUGEINT) % 18446744073709551616::HUGEINT
  FROM powers WHERE pos < (SELECT m FROM maxpos)),
hsplit AS (
  -- 64×64→64-bit wrapping multiply via 32-bit split (a full 128-bit
  -- product would overflow signed INT128): h·v ≡ (h_hi·v mod 2³²)·2³²
  -- + h_lo·v  (mod 2⁶⁴)
  SELECT k.doc_id, p.val,
         (md5_number_lower(k.term)::HUGEINT // 4294967296) AS h_hi,
         (md5_number_lower(k.term)::HUGEINT % 4294967296) AS h_lo
  FROM keptp k JOIN powers p ON p.pos = k.pos),
contrib AS (
  SELECT doc_id,
         (((h_hi * val) % 4294967296) * 4294967296 + h_lo * val)
             % 18446744073709551616::HUGEINT AS c
  FROM hsplit),
fp AS (
  SELECT doc_id,
         (14695981039346656037::HUGEINT + sum(c))
             % 18446744073709551616::HUGEINT AS f
  FROM contrib GROUP BY doc_id),
lens AS (SELECT doc_id, count(*) AS doc_len FROM keptp GROUP BY doc_id)
SELECT d.doc_id,
       CAST(CASE WHEN coalesce(f.f, 14695981039346656037::HUGEINT)
                      >= 9223372036854775808::HUGEINT
                 THEN coalesce(f.f, 14695981039346656037::HUGEINT)
                      - 18446744073709551616::HUGEINT
                 ELSE coalesce(f.f, 14695981039346656037::HUGEINT)
                 END AS BIGINT) AS fingerprint,
       coalesce(l.doc_len, 0) AS doc_len
FROM documents d
LEFT JOIN fp f ON d.doc_id = f.doc_id
LEFT JOIN lens l ON d.doc_id = l.doc_id""",
        "eval_recall": f"""
WITH {kept},
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
qterms(qid, term) AS (VALUES {qterms_values}),
qexp(qid, variant, expected) AS (VALUES {qexp_values}),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
       WHERE term IN (SELECT DISTINCT term FROM qterms) GROUP BY 1),
bm25_s AS (
  SELECT qt.qid, tf.doc_id,
         sum( ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * (dl.dl / stats.avgdl)))) )
             AS score
  FROM qterms qt
  JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY qt.qid, tf.doc_id),
tfidf_s AS (
  SELECT qt.qid, tf.doc_id,
         sum( ln(stats.n_docs / greatest(df.df, 1.0)) * ln(1.0 + tf.tf) )
             AS score
  FROM qterms qt
  JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  CROSS JOIN stats
  GROUP BY qt.qid, tf.doc_id),
scored AS (
  SELECT 'bm25' AS config, qid, doc_id, score FROM bm25_s
  UNION ALL
  SELECT 'tfidf' AS config, qid, doc_id, score FROM tfidf_s),
ranked AS (
  SELECT config, qid, doc_id,
         row_number() OVER (PARTITION BY config, qid
                            ORDER BY score DESC, doc_id ASC) AS rn
  FROM scored),
per_query AS (
  SELECT c.config, q.variant, q.qid,
         max(CASE WHEN r.doc_id = q.expected AND r.rn <= 10
                  THEN 1 ELSE 0 END) AS hit
  FROM qexp q
  CROSS JOIN (VALUES ('bm25'), ('tfidf')) c(config)
  LEFT JOIN ranked r ON r.qid = q.qid AND r.config = c.config
  GROUP BY c.config, q.variant, q.qid)
SELECT config, variant, CAST(sum(hit) AS BIGINT) AS hits, count(*) AS n
FROM per_query GROUP BY config, variant""",
        # one chain, two centroid sets: knn_ivf (trained on all rows)
        # and knn_ivf_appended (frozen quantizer trained on the even
        # half; assignment still over all rows — the append contract)
        "knn_ivf": _ivf_chain_sql(ivf_cent_rows),
        "knn_ivf_appended": _ivf_chain_sql(ivf_cent_rows_half),
        # delete leg masks ids ≡ 7 (mod 10); compact leg is the
        # physically purged rewrite — bitwise the same answers
        "knn_ivf_deleted": _ivf_chain_sql(
            ivf_cent_rows,
            f" WHERE a.vec_id % {_IVF_DMOD} <> {_IVF_DREM}"),
        "knn_ivf_compacted": _ivf_chain_sql(
            ivf_cent_rows,
            f" WHERE a.vec_id % {_IVF_DMOD} <> {_IVF_DREM}"),
        "minhash_clusters": f"""
WITH RECURSIVE {kept},
h AS (SELECT DISTINCT doc_id, md5_number_lower(term) AS th FROM kept),
perms(p, a, b) AS (VALUES {perm_rows64}),
sig AS (
  -- engine signature chain (dedup.minhash_signatures_batch, md5 +
  -- unigram shingles): min over tokens of fold((th·a + b) mod 2⁶⁴),
  -- fold(x) = (x mod 2⁶¹) + (x div 2⁶¹)
  SELECT h.doc_id, pm.p,
         min( ((h.th::HUGEINT * pm.a + pm.b)
               % 18446744073709551616::HUGEINT)
              % 2305843009213693952::HUGEINT
              + ((h.th::HUGEINT * pm.a + pm.b)
                 % 18446744073709551616::HUGEINT)
                // 2305843009213693952::HUGEINT ) AS s
  FROM h CROSS JOIN perms pm
  GROUP BY h.doc_id, pm.p),
bands AS (
  -- 16 bands × 4 perms: candidates share a COMPLETE band
  SELECT doc_id, p // 4 AS band,
         string_agg(s::VARCHAR, ',' ORDER BY p) AS bsig
  FROM sig GROUP BY doc_id, p // 4),
cand AS (
  SELECT DISTINCT b1.doc_id AS a, b2.doc_id AS b
  FROM bands b1 JOIN bands b2
    ON b1.band = b2.band AND b1.bsig = b2.bsig AND b1.doc_id < b2.doc_id),
m AS (
  SELECT c.a, c.b, count(*) AS m
  FROM cand c
  JOIN sig sa ON sa.doc_id = c.a
  JOIN sig sb ON sb.doc_id = c.b AND sb.p = sa.p AND sb.s = sa.s
  GROUP BY c.a, c.b),
empty_docs AS (
  -- zero-kept-token docs share the engine's all-max signature →
  -- mutually verified pairs
  SELECT d.doc_id FROM documents d
  WHERE d.doc_id NOT IN (SELECT doc_id FROM h)),
edges AS (
  SELECT a, b FROM m WHERE m >= 52   -- est = m/64 ≥ 0.8 threshold
  UNION ALL
  SELECT e1.doc_id, e2.doc_id
  FROM empty_docs e1 JOIN empty_docs e2 ON e1.doc_id < e2.doc_id),
sym AS (SELECT a AS src, b AS dst FROM edges
        UNION ALL SELECT b, a FROM edges),
reach(node, lbl) AS (
  -- min-label connected components: lbl reaches every node in its
  -- component; UNION dedups → terminates
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT s.dst, r.lbl FROM reach r JOIN sym s ON s.src = r.node)
SELECT node AS doc_id, min(lbl) AS cluster_id FROM reach GROUP BY node""",
        "boolean_search": f"""
WITH {kept}
SELECT doc_id FROM (
  {' INTERSECT '.join(f"SELECT DISTINCT doc_id FROM kept WHERE term = '{t}'" for t in _BOOL_MUST)}
  {' '.join(f"EXCEPT SELECT DISTINCT doc_id FROM kept WHERE term = '{t}'" for t in _BOOL_NOT)}
) ORDER BY doc_id""",
        "term_autocomplete": f"""
WITH {kept},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
r AS (SELECT term, df,
             row_number() OVER (ORDER BY df DESC, term ASC) AS rank
      FROM df
      WHERE term >= '{_AUTO_PREFIX}' AND term < '{_AUTO_HI}')
SELECT term, CAST(df AS BIGINT) AS df, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 10""",
        "search_facets": bm25_scores_sql(BM25_QUERY) + """,
top AS (SELECT doc_id FROM scores ORDER BY score DESC, doc_id LIMIT 50),
n AS (SELECT count(*) AS n FROM top)
SELECT d.lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) * 1000000 // n.n AS BIGINT) AS share_micros
FROM top JOIN documents d USING (doc_id) CROSS JOIN n
GROUP BY d.lang, n.n""",
        "fuzzy_vocab_match": f"""
WITH {kept},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
probes(probe) AS (VALUES {', '.join(f"('{p}')" for p in _FUZZY_PROBES)}),
d AS (SELECT probe, term, levenshtein(probe, term) AS dist, df
      FROM probes CROSS JOIN df),
r AS (SELECT probe, term, dist, df,
             row_number() OVER (PARTITION BY probe
                                ORDER BY dist ASC, df DESC, term ASC)
                 AS rank
      FROM d WHERE dist <= 2)
SELECT probe, term, CAST(dist AS BIGINT) AS dist, CAST(df AS BIGINT) AS df,
       CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 5""",
        "global_shuffle": f"""
SELECT doc_id,
       CAST(md5_number_lower(CAST(doc_id AS VARCHAR) || ':{_SHUF_SEED}')
            % {_SHUF_B} AS BIGINT) AS bucket,
       CAST(row_number() OVER (
              ORDER BY md5_number_lower(
                  CAST(doc_id AS VARCHAR) || ':{_SHUF_SEED}') % {_SHUF_B},
                  doc_id) - 1 AS BIGINT) AS pos
FROM documents""",
        "more_like_this": f"""
WITH {kept},
tfq AS (SELECT term, count(*) AS tf FROM kept WHERE doc_id = {_MLT_DOC}
        GROUP BY 1),
dfall AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
nd AS (SELECT count(*) AS n FROM documents),
q AS (SELECT tfq.term
      FROM tfq JOIN dfall USING (term) CROSS JOIN nd
      ORDER BY tfq.tf::DOUBLE * ln(nd.n::DOUBLE / dfall.df::DOUBLE) DESC,
               tfq.term ASC LIMIT 5),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
       WHERE term IN (SELECT term FROM q) GROUP BY 1),
scores AS (
  SELECT tf.doc_id,
         sum( ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75
                                   + 0.75 * (dl.dl / stats.avgdl)))) )
           AS score
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id)
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores WHERE doc_id <> {_MLT_DOC}
ORDER BY score DESC, doc_id ASC LIMIT 10""",
        # MLT with unlike: the negative doc's terms veto candidates;
        # both example docs filtered from the results
        "mlt_unlike_search": f"""
WITH {kept},
tfq AS (SELECT term, count(*) AS tf FROM kept WHERE doc_id = {_MLT_DOC}
        GROUP BY 1),
veto AS (SELECT DISTINCT term FROM kept
         WHERE doc_id = {_MLT_UNLIKE}),
dfall AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
nd AS (SELECT count(*) AS n FROM documents),
q AS (SELECT tfq.term
      FROM tfq JOIN dfall USING (term) CROSS JOIN nd
      WHERE tfq.term NOT IN (SELECT term FROM veto)
      ORDER BY tfq.tf::DOUBLE * ln(nd.n::DOUBLE / dfall.df::DOUBLE) DESC,
               tfq.term ASC LIMIT 5),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
       WHERE term IN (SELECT term FROM q) GROUP BY 1),
scores AS (
  SELECT tf.doc_id,
         sum( ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75
                                   + 0.75 * (dl.dl / stats.avgdl)))) )
           AS score
  FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id)
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores WHERE doc_id NOT IN ({_MLT_DOC}, {_MLT_UNLIKE})
ORDER BY score DESC, doc_id ASC LIMIT 10""",
        "bpe_merges": (_bpe_prefix
                       + f"\nSELECT * FROM ({_bpe_steps}) ORDER BY step"),
        "bpe_encode_stats": _bpe_prefix + f"""
SELECT k.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(len(w.s)) AS BIGINT) AS n_bpe
FROM kept k JOIN w{_N_BPE + 1} w USING (term)
GROUP BY k.doc_id""",
        "ingest_dedup": f"""
WITH {token_list_cte()},
tp AS (SELECT doc_id, unnest(toks) AS term,
              unnest(range(1, len(toks) + 1)) AS pos
       FROM doc_toks),
th AS (SELECT doc_id, pos, md5_number_lower(term)::HUGEINT AS h FROM tp),
nl AS (SELECT doc_id, count(*) AS L FROM th GROUP BY 1),
r AS (SELECT doc_id, pos, h,
             lead(h, 1) OVER (PARTITION BY doc_id ORDER BY pos) AS h1,
             lead(h, 2) OVER (PARTITION BY doc_id ORDER BY pos) AS h2
      FROM th),
-- engine rolling 3-shingle hash (dedup.minhash_signatures_batch):
-- sh = ((h0*C + h1)*C + h2) with uint64 WRAP after every op; docs
-- shorter than 3 tokens contribute one whole-doc window instead
shing AS (
  SELECT doc_id,
         (((((h * {_SHINGLE_C}) % {_M64} + h1) % {_M64})
           * {_SHINGLE_C}) % {_M64} + h2) % {_M64} AS sh
  FROM r WHERE h2 IS NOT NULL
  UNION ALL
  SELECT r.doc_id, ((h * {_SHINGLE_C}) % {_M64} + h1) % {_M64} AS sh
  FROM r JOIN nl USING (doc_id) WHERE nl.L = 2 AND r.h1 IS NOT NULL
  UNION ALL
  SELECT r.doc_id, h AS sh
  FROM r JOIN nl USING (doc_id) WHERE nl.L = 1),
perms(p, a, b) AS (VALUES {perm_rows64}),
sig AS (
  -- min over shingles of fold((sh·a + b) mod 2⁶⁴),
  -- fold(x) = (x mod 2⁶¹) + (x div 2⁶¹)
  SELECT s.doc_id, pm.p,
         min( ((s.sh * pm.a + pm.b) % {_M64})
              % 2305843009213693952::HUGEINT
              + ((s.sh * pm.a + pm.b) % {_M64})
                // 2305843009213693952::HUGEINT ) AS s
  FROM shing s CROSS JOIN perms pm
  GROUP BY s.doc_id, pm.p),
bands AS (
  SELECT doc_id, p // 4 AS band,
         string_agg(s::VARCHAR, ',' ORDER BY p) AS bsig
  FROM sig GROUP BY doc_id, p // 4),
nsplit AS (SELECT count(*) // 2 AS s FROM documents),
cand AS (
  SELECT DISTINCT b2.doc_id AS in_id, b1.doc_id AS ex_id
  FROM bands b1 JOIN bands b2
    ON b1.band = b2.band AND b1.bsig = b2.bsig
  CROSS JOIN nsplit
  WHERE b1.doc_id < nsplit.s AND b2.doc_id >= nsplit.s),
m AS (SELECT c.in_id, c.ex_id, count(*) AS m
      FROM cand c
      JOIN sig sa ON sa.doc_id = c.ex_id
      JOIN sig sb ON sb.doc_id = c.in_id AND sb.p = sa.p AND sb.s = sa.s
      GROUP BY 1, 2),
best AS (SELECT in_id, max(m) AS max_match FROM m GROUP BY 1),
inc AS (SELECT doc_id FROM documents CROSS JOIN nsplit
        WHERE doc_id >= nsplit.s)
SELECT i.doc_id,
       CAST(coalesce(b.max_match, 0) AS BIGINT) AS max_match,
       CAST(CASE WHEN coalesce(b.max_match, 0) >= 32 THEN 0 ELSE 1 END
            AS BIGINT) AS accepted
FROM inc i LEFT JOIN best b ON b.in_id = i.doc_id""",
        "textrank_terms": f"""
WITH {token_list_cte()},
tp AS (SELECT unnest(toks[:len(toks)-1]) AS a, unnest(toks[2:]) AS b
       FROM doc_toks),
vocab AS (SELECT term, row_number() OVER (ORDER BY term) - 1 AS id
          FROM (SELECT DISTINCT unnest(toks) AS term FROM doc_toks)),
pe AS (SELECT DISTINCT va.id AS src, vb.id AS dst
       FROM tp JOIN vocab va ON va.term = tp.a
               JOIN vocab vb ON vb.term = tp.b
       WHERE tp.a <> tp.b),
edges AS (SELECT src, dst FROM pe UNION SELECT dst, src FROM pe),
ew AS (
  SELECT e.src, e.dst, od.od
  FROM edges e JOIN (SELECT src, count(*) AS od FROM edges GROUP BY src) od
    ON od.src = e.src),
nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
nn AS (SELECT count(*) AS n FROM nodes),
p0 AS (SELECT node, 1000000 // n AS pr FROM nodes, nn),
p1 AS (
  SELECT nd.node, 150000 // nn.n + (850000 * coalesce(s.c, 0)) // 1000000
         AS pr
  FROM nodes nd CROSS JOIN nn
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p0 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node),
p2 AS (
  SELECT nd.node, 150000 // nn.n + (850000 * coalesce(s.c, 0)) // 1000000
         AS pr
  FROM nodes nd CROSS JOIN nn
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p1 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node),
p3 AS (
  SELECT nd.node, 150000 // nn.n + (850000 * coalesce(s.c, 0)) // 1000000
         AS pr
  FROM nodes nd CROSS JOIN nn
  LEFT JOIN (SELECT e.dst, sum(p.pr // e.od) AS c
             FROM ew e JOIN p2 p ON p.node = e.src GROUP BY e.dst) s
    ON s.dst = nd.node),
ranked AS (
  SELECT v.term, p3.pr,
         row_number() OVER (ORDER BY p3.pr DESC, v.term ASC) AS rank
  FROM p3 JOIN vocab v ON v.id = p3.node)
SELECT term, CAST(pr AS BIGINT) AS pr_micros, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= 10""",
        "zipf_fit": f"""
WITH {kept},
cf AS (SELECT term, count(*) AS cf FROM kept GROUP BY term),
rk AS (SELECT cf, row_number() OVER (ORDER BY cf DESC, term ASC) AS r
       FROM cf),
xy AS (SELECT
         CAST(floor(ln(r::DOUBLE) * 1e6 + 0.5) AS HUGEINT) AS x,
         CAST(floor(ln(cf::DOUBLE) * 1e6 + 0.5) AS HUGEINT) AS y
       FROM rk),
s AS (SELECT count(*)::HUGEINT AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * y) AS sxy, sum(x * x) AS sxx
      FROM xy)
SELECT CAST(n AS BIGINT) AS n_terms,
       CAST((n * sxy - sx * sy) * 1000000
            // (n * sxx - sx * sx) AS BIGINT) AS slope_micros
FROM s""",
        "filtered_search": bm25_scores_sql(BM25_QUERY) + """
SELECT s.doc_id,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY s.score DESC, s.doc_id ASC)
            AS BIGINT) AS rank
FROM scores s JOIN documents d ON d.doc_id = s.doc_id
WHERE d.lang = 'en'
ORDER BY s.score DESC, s.doc_id ASC LIMIT 10""",
        "user_retention": """
WITH d AS (SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day
           FROM events),
c AS (SELECT user_id, min(day) AS cday FROM d GROUP BY 1),
o AS (SELECT DISTINCT c.cday // 7 AS cohort_week,
             (d.day - c.cday) // 7 AS week_offset, d.user_id
      FROM d JOIN c USING (user_id))
SELECT cohort_week, week_offset, CAST(count(*) AS BIGINT) AS n_users
FROM o GROUP BY 1, 2""",
        "corrected_search": f"""
WITH {kept},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
qt(tok) AS (VALUES {_CORR_ROWS}),
corr AS (
  SELECT DISTINCT term FROM (
    SELECT q.tok, d.term,
           row_number() OVER (PARTITION BY q.tok
                              ORDER BY levenshtein(q.tok, d.term),
                                       d.df DESC, d.term ASC) AS rn
    FROM qt q JOIN df d ON levenshtein(q.tok, d.term) <= 2
    WHERE q.tok NOT IN (SELECT term FROM df)) WHERE rn = 1
  UNION
  SELECT q.tok FROM qt q WHERE q.tok IN (SELECT term FROM df)),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
dfq AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
        WHERE term IN (SELECT term FROM corr) GROUP BY 1),
scores AS (
  SELECT tf.doc_id,
         sum( ln((stats.n_docs - dfq.df + 0.5) / (dfq.df + 0.5) + 1.0)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75
                                   + 0.75 * (dl.dl / stats.avgdl)))) )
           AS score
  FROM tf JOIN dfq USING (term) JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id)
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10""",
        "hot_term_shards": f"""
WITH {kept},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
hot AS (SELECT term FROM df ORDER BY df DESC, term ASC LIMIT 1),
docs AS (SELECT DISTINCT k.doc_id, k.term FROM kept k JOIN hot USING (term))
SELECT term,
       CAST((((doc_id::HUGEINT * 11400714819323198485) % {_M64})
             // 1099511627776) % 4 AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n_docs
FROM docs GROUP BY 1, 2""",
        "events_debounce": f"""
WITH o AS (
  SELECT event_id, user_id, event_type, epoch_us(ts) AS ts_us,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id, event_type
                                 ORDER BY ts, event_id) AS pts
  FROM events)
SELECT event_id, user_id, event_type
FROM o WHERE pts IS NULL OR ts_us - pts >= {_DEBOUNCE_US}""",
        "percolate": f"""
WITH {kept},
qt(query_id, term) AS (VALUES {_PERC_ROWS}),
qn AS (SELECT query_id, count(*) AS n FROM qt GROUP BY 1),
hit AS (SELECT k.doc_id, q.query_id, count(DISTINCT k.term) AS c
        FROM kept k JOIN qt q USING (term) GROUP BY 1, 2)
SELECT h.doc_id, CAST(h.query_id AS BIGINT) AS query_id
FROM hit h JOIN qn USING (query_id) WHERE h.c = qn.n""",
        "snippet_windows": bm25_scores_sql(BM25_QUERY) + f""",
top10 AS (SELECT doc_id FROM scores ORDER BY score DESC, doc_id LIMIT 10),
{token_list_cte()},
tp AS (SELECT doc_id, unnest(toks) AS term,
              unnest(range(1, len(toks) + 1)) AS pos
       FROM doc_toks),
hits AS (SELECT tp.doc_id, tp.pos FROM tp JOIN top10 USING (doc_id)
         WHERE tp.term IN ({_SNIP_TERMS})),
w AS (SELECT h1.doc_id, h1.pos AS s, count(*) AS n
      FROM hits h1 JOIN hits h2 ON h1.doc_id = h2.doc_id
           AND h2.pos BETWEEN h1.pos AND h1.pos + {_SNIP_W - 1}
      GROUP BY 1, 2),
r AS (SELECT doc_id, s, n,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY n DESC, s ASC) AS rn
      FROM w)
SELECT doc_id, CAST(s AS BIGINT) AS win_start, CAST(n AS BIGINT) AS n_hits
FROM r WHERE rn = 1""",
        "near_search": f"""
WITH {token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
a AS (SELECT doc_id, pos FROM pos WHERE term = '{_NEAR_TERMS[0]}'),
b AS (SELECT doc_id, pos FROM pos WHERE term = '{_NEAR_TERMS[1]}'),
g AS (SELECT a.doc_id, min(abs(a.pos - b.pos)) AS min_gap
      FROM a JOIN b USING (doc_id) GROUP BY a.doc_id)
SELECT doc_id, CAST(min_gap AS BIGINT) AS min_gap
FROM g WHERE min_gap <= {_NEAR_GAP}""",
        "events_sessionize": f"""
WITH o AS (SELECT user_id, event_id, epoch_us(ts) AS ts_us FROM events),
m AS (SELECT *,
             CASE WHEN lag(ts_us) OVER w IS NULL
                    OR ts_us - lag(ts_us) OVER w > {_SESS_GAP}
                  THEN 1 ELSE 0 END AS brk
      FROM o WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id)),
s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id
                               ORDER BY ts_us, event_id
                               ROWS UNBOUNDED PRECEDING) AS sess
      FROM m)
SELECT user_id, CAST(sess AS BIGINT) AS session_idx,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(min(ts_us) AS BIGINT) AS start_us,
       CAST(max(ts_us) AS BIGINT) AS end_us
FROM s GROUP BY user_id, sess""",
        "wildcard_search": f"""
WITH {kept},
m AS (SELECT doc_id, term FROM kept
      WHERE term LIKE '{_WILDCARD_PREFIX}%')
SELECT doc_id, CAST(count(DISTINCT term) AS BIGINT) AS n_terms,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM m GROUP BY doc_id""",
        "regex_search": f"""
WITH {kept},
m AS (SELECT doc_id, term FROM kept
      WHERE regexp_full_match(term, '{_REGEX_PATTERN}'))
SELECT doc_id, CAST(count(DISTINCT term) AS BIGINT) AS n_terms,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM m GROUP BY doc_id""",
        # trigram content index: exact substring over RAW text (non-
        # overlapping count — replace() and Python str.count agree)
        "content_substring_search": f"""
SELECT doc_id,
       CAST((length(text) - length(replace(text, '{_SUBSTR_PAT}', '')))
            // length('{_SUBSTR_PAT}') AS BIGINT) AS n_occurrences
FROM documents WHERE contains(text, '{_SUBSTR_PAT}')
ORDER BY doc_id""",
        # trigram-accelerated content regex (RE2 and Python re agree on
        # this pattern class; counts are non-overlapping both sides)
        "content_regex_search": f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{_CONTENT_REGEX}')) AS BIGINT)
           AS n_matches
FROM documents WHERE regexp_matches(text, '{_CONTENT_REGEX}')
ORDER BY doc_id""",
        "min_window_search": f"""
WITH {token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
q AS (SELECT doc_id, term, pos FROM pos WHERE term IN ({_SNIP_TERMS})),
full_docs AS (SELECT doc_id FROM q GROUP BY doc_id
              HAVING count(DISTINCT term) = {_MW_K}),
starts AS (SELECT doc_id, pos AS p FROM q
           WHERE doc_id IN (SELECT doc_id FROM full_docs)),
nxt AS (SELECT s.doc_id, s.p, q.term, min(q.pos) AS np
        FROM starts s JOIN q USING (doc_id)
        WHERE q.pos >= s.p GROUP BY s.doc_id, s.p, q.term),
cover AS (SELECT doc_id, p, count(*) AS nt, max(np) - p + 1 AS w
          FROM nxt GROUP BY doc_id, p)
SELECT doc_id, CAST(min(w) AS BIGINT) AS min_window
FROM cover WHERE nt = {_MW_K} GROUP BY doc_id""",
        # mirrors BOOL_DSL = "(merge AND sort) OR (join AND NOT window)"
        "boolean_dsl_search": f"""
WITH {kept},
s AS (SELECT doc_id,
             bool_or(term = 'merge')  AS h_merge,
             bool_or(term = 'sort')   AS h_sort,
             bool_or(term = 'join')   AS h_join,
             bool_or(term = 'window') AS h_window
      FROM kept GROUP BY doc_id)
SELECT doc_id FROM s
WHERE (h_merge AND h_sort) OR (h_join AND NOT h_window)""",
        # ES bool query: must AND-filter + must_not, scored on
        # must+should over the survivors (scores == unfiltered)
        "bool_query_search": bm25_scores_sql(
            " ".join(P_BQ_MUST + P_BQ_SHOULD)) + f""",
flags AS (SELECT doc_id,
                 bool_or(term = '{P_BQ_MUST[0]}') AS m0,
                 bool_or(term = '{P_BQ_MUST[1]}') AS m1,
                 bool_or(term = '{P_BQ_NOT[0]}')  AS x0
          FROM kept GROUP BY doc_id),
allowed AS (SELECT doc_id FROM flags WHERE m0 AND m1 AND NOT x0)
SELECT s.doc_id,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY s.score DESC, s.doc_id ASC)
            AS BIGINT) AS rank
FROM scores s JOIN allowed a ON a.doc_id = s.doc_id
ORDER BY s.score DESC, s.doc_id ASC
LIMIT 10""",
        # ES stats-agg over the boolean-matched set
        "match_stats_agg": f"""
WITH {kept},
s AS (SELECT doc_id,
             bool_or(term = 'merge')  AS h_merge,
             bool_or(term = 'sort')   AS h_sort,
             bool_or(term = 'join')   AS h_join,
             bool_or(term = 'window') AS h_window
      FROM kept GROUP BY doc_id),
m AS (SELECT doc_id FROM s
      WHERE (h_merge AND h_sort) OR (h_join AND NOT h_window))
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars,
       CAST(min(d.n_chars) AS BIGINT) AS min_chars,
       CAST(max(d.n_chars) AS BIGINT) AS max_chars,
       CAST(floor(sum(d.n_chars)::DOUBLE / count(*) * 1e6 + 0.5)
            AS BIGINT) AS avg_chars_micros
FROM m JOIN documents d ON d.doc_id = m.doc_id
HAVING count(*) > 0""",
        # ES histogram-agg over the boolean-matched set
        "match_histogram": f"""
WITH {kept},
s AS (SELECT doc_id,
             bool_or(term = 'merge')  AS h_merge,
             bool_or(term = 'sort')   AS h_sort,
             bool_or(term = 'join')   AS h_join,
             bool_or(term = 'window') AS h_window
      FROM kept GROUP BY doc_id),
m AS (SELECT doc_id FROM s
      WHERE (h_merge AND h_sort) OR (h_join AND NOT h_window))
SELECT CAST((d.n_chars // {_HIST_W}) * {_HIST_W} AS BIGINT) AS bucket_lo,
       CAST(count(*) AS BIGINT) AS n
FROM m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY 1""",
        # ES significant_terms over the boolean-matched foreground
        "significant_terms": f"""
WITH {kept},
s AS (SELECT doc_id,
             bool_or(term = 'merge')  AS h_merge,
             bool_or(term = 'sort')   AS h_sort,
             bool_or(term = 'join')   AS h_join,
             bool_or(term = 'window') AS h_window
      FROM kept GROUP BY doc_id),
m AS (SELECT doc_id FROM s
      WHERE (h_merge AND h_sort) OR (h_join AND NOT h_window)),
stats AS (SELECT (SELECT count(DISTINCT doc_id) FROM kept) AS n_bg,
                 (SELECT count(*) FROM m) AS n_fg),
df AS (SELECT term, count(DISTINCT doc_id) AS bg,
              count(DISTINCT CASE WHEN doc_id IN (SELECT doc_id FROM m)
                             THEN doc_id END) AS fg
       FROM kept GROUP BY term),
r AS (SELECT term, bg, fg,
             CAST(floor(((fg::DOUBLE / stats.n_fg)
                         / (bg::DOUBLE / stats.n_bg)) * 1e6 + 0.5)
                  AS BIGINT) AS ratio_micros
      FROM df CROSS JOIN stats WHERE fg > 0)
SELECT term, CAST(fg AS BIGINT) AS fg_df, CAST(bg AS BIGINT) AS bg_df,
       ratio_micros
FROM r ORDER BY ratio_micros DESC, term ASC LIMIT {_SIG_K}""",
        # significant_text: the significant_terms chain restricted to
        # exact-duplicate-text representatives (min doc_id per text) on
        # BOTH fg and bg sides — filter_duplicate_text
        "significant_text_agg": f"""
WITH {kept},
rep AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY text),
kt AS (SELECT k.doc_id, k.term FROM kept k JOIN rep USING (doc_id)),
s AS (SELECT doc_id,
             bool_or(term = 'merge')  AS h_merge,
             bool_or(term = 'sort')   AS h_sort,
             bool_or(term = 'join')   AS h_join,
             bool_or(term = 'window') AS h_window
      FROM kt GROUP BY doc_id),
m AS (SELECT doc_id FROM s
      WHERE (h_merge AND h_sort) OR (h_join AND NOT h_window)),
stats AS (SELECT (SELECT count(DISTINCT doc_id) FROM kt) AS n_bg,
                 (SELECT count(*) FROM m) AS n_fg),
df AS (SELECT term, count(DISTINCT doc_id) AS bg,
              count(DISTINCT CASE WHEN doc_id IN (SELECT doc_id FROM m)
                             THEN doc_id END) AS fg
       FROM kt GROUP BY term),
r AS (SELECT term, bg, fg,
             CAST(floor(((fg::DOUBLE / stats.n_fg)
                         / (bg::DOUBLE / stats.n_bg)) * 1e6 + 0.5)
                  AS BIGINT) AS ratio_micros
      FROM df CROSS JOIN stats WHERE fg > 0)
SELECT term, CAST(fg AS BIGINT) AS fg_df, CAST(bg AS BIGINT) AS bg_df,
       ratio_micros
FROM r ORDER BY ratio_micros DESC, term ASC LIMIT {_SIG_K}""",
        # boolean match ordered by the n_chars doc-value, not relevance
        "sorted_boolean_search": f"""
WITH {kept},
s AS (SELECT doc_id,
             bool_or(term = 'merge')  AS h_merge,
             bool_or(term = 'sort')   AS h_sort,
             bool_or(term = 'join')   AS h_join,
             bool_or(term = 'window') AS h_window
      FROM kept GROUP BY doc_id),
m AS (SELECT doc_id FROM s
      WHERE (h_merge AND h_sort) OR (h_join AND NOT h_window))
SELECT m.doc_id, CAST(d.n_chars AS BIGINT) AS n_chars,
       CAST(row_number() OVER (ORDER BY d.n_chars DESC, m.doc_id ASC)
            AS BIGINT) AS rank
FROM m JOIN documents d ON d.doc_id = m.doc_id
ORDER BY d.n_chars DESC, m.doc_id ASC
LIMIT 10""",
        # per-source best (score desc, doc_id asc) then global top-10
        "collapse_search": bm25_scores_sql(BM25_QUERY) + """
SELECT doc_id, source,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM (
  SELECT s.doc_id, d.source, s.score,
         row_number() OVER (PARTITION BY d.source
                            ORDER BY s.score DESC, s.doc_id ASC) AS rn
  FROM scores s JOIN documents d ON d.doc_id = s.doc_id
) WHERE rn = 1
ORDER BY score DESC, doc_id ASC
LIMIT 10""",
        # bm25 chain + min-window CTE ladder; combined mirrors the
        # engine's acc + weight·(1/(1+window)) float expression order
        "proximity_boost_search": bm25_scores_sql(BM25_QUERY) + f""",
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
q AS (SELECT doc_id, term, pos FROM pos WHERE term IN ({_SNIP_TERMS})),
full_docs AS (SELECT doc_id FROM q GROUP BY doc_id
              HAVING count(DISTINCT term) = {_MW_K}),
starts AS (SELECT doc_id, pos AS p FROM q
           WHERE doc_id IN (SELECT doc_id FROM full_docs)),
nxt AS (SELECT s.doc_id, s.p, q.term, min(q.pos) AS np
        FROM starts s JOIN q USING (doc_id)
        WHERE q.pos >= s.p GROUP BY s.doc_id, s.p, q.term),
cover AS (SELECT doc_id, p, count(*) AS nt, max(np) - p + 1 AS w
          FROM nxt GROUP BY doc_id, p),
mw AS (SELECT doc_id, min(w) AS min_window
       FROM cover WHERE nt = {_MW_K} GROUP BY doc_id)
SELECT s.doc_id,
       CAST(floor((s.score + {_PROX_W!r}
                   * coalesce(1.0 / (1.0 + mw.min_window), 0.0))
                  * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (
            ORDER BY (s.score + {_PROX_W!r}
                      * coalesce(1.0 / (1.0 + mw.min_window), 0.0)) DESC,
                     s.doc_id ASC) AS BIGINT) AS rank
FROM scores s LEFT JOIN mw ON mw.doc_id = s.doc_id
ORDER BY (s.score + {_PROX_W!r}
          * coalesce(1.0 / (1.0 + mw.min_window), 0.0)) DESC, s.doc_id ASC
LIMIT 10""",
        # linear decay function-score (boost_mode: multiply): rational
        # arithmetic only — no transcendental 1-ulp hazard
        "decay_search": bm25_scores_sql(BM25_QUERY) + """
SELECT s.doc_id,
       CAST(floor(s.score * greatest(0.0, 1.0 - abs(d.n_chars - 300.0)
                                            / 600.0) * 1e6 + 0.5)
            AS BIGINT) AS score_micros,
       CAST(row_number() OVER (
            ORDER BY (s.score * greatest(0.0, 1.0 - abs(d.n_chars - 300.0)
                                               / 600.0)) DESC,
                     s.doc_id ASC) AS BIGINT) AS rank
FROM scores s JOIN documents d ON d.doc_id = s.doc_id
ORDER BY (s.score * greatest(0.0, 1.0 - abs(d.n_chars - 300.0)
                                   / 600.0)) DESC, s.doc_id ASC
LIMIT 10""",
        # ES _msearch: one shared-stats chain ranks the whole batch
        "msearch": msearch_topk_sql(_MS_QUERIES, 10),
        # ES terms-agg + top_hits: best per_group hits per lang bucket
        "top_hits_by_label": bm25_scores_sql(BM25_QUERY) + f""",
ranked AS (
  SELECT d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY d.lang
                            ORDER BY s.score DESC, s.doc_id ASC)
           AS group_rank
  FROM scores s JOIN documents d ON d.doc_id = s.doc_id)
SELECT lang, doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(group_rank AS BIGINT) AS group_rank
FROM ranked WHERE group_rank <= {_TH_PG}
ORDER BY lang ASC, group_rank ASC""",
        # ES rank_feature (saturation): bm25 + w · nc/(nc + pivot) —
        # rational arithmetic, same acc + w·feat expression order
        "rank_feature_search": bm25_scores_sql(BM25_QUERY) + f"""
SELECT s.doc_id,
       CAST(floor((s.score + {_RF_W!r} * (d.n_chars
                   / (d.n_chars + {_RF_PIVOT!r}))) * 1e6 + 0.5)
            AS BIGINT) AS score_micros,
       CAST(row_number() OVER (
            ORDER BY (s.score + {_RF_W!r} * (d.n_chars
                      / (d.n_chars + {_RF_PIVOT!r}))) DESC,
                     s.doc_id ASC) AS BIGINT) AS rank
FROM scores s JOIN documents d ON d.doc_id = s.doc_id
ORDER BY (s.score + {_RF_W!r} * (d.n_chars
          / (d.n_chars + {_RF_PIVOT!r}))) DESC, s.doc_id ASC
LIMIT 10""",
        # Lucene SpanFirstQuery: gate = first occurrence of the term
        # within the leading kept-token positions (1-based, ≤ limit ⇔
        # membership in toks[1:limit], DuckDB slices are end-inclusive);
        # survivors keep their unfiltered bm25 scores
        # Lucene SpanNotQuery gate: an include occurrence at i is clean
        # iff no exclude occurrence within [i-D, i+D] (1-based both
        # engines); survivors keep unfiltered bm25 scores
        "span_not_search": bm25_scores_sql(
            BM25_QUERY,
            pre=token_list_cte().lstrip() + f""",
sn_gate AS (
  SELECT doc_id FROM doc_toks
  WHERE len(list_filter(range(1, len(toks) + 1),
        i -> toks[i] = '{_cq(_SN_INC)[0]}'
             AND len(list_filter(
                   range(greatest(1, i - {_SN_D}),
                         least(len(toks), i + {_SN_D}) + 1),
                   j -> toks[j] = '{_cq(_SN_EXC)[0]}')) = 0)) > 0),"""
        ) + """
SELECT s.doc_id,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY s.score DESC, s.doc_id ASC)
            AS BIGINT) AS rank
FROM scores s JOIN sn_gate g ON g.doc_id = s.doc_id
ORDER BY s.score DESC, s.doc_id ASC
LIMIT 10""",
        # passage retrieval: bm25 over the CHUNK corpus (pid = doc·64 +
        # chunk), docs ranked by their best passage (max-passage)
        "passage_search": bm25_scores_sql(
            BM25_QUERY, table="ptab",
            pre=token_list_cte().lstrip() + f""",
pkeptp AS (SELECT doc_id, unnest(toks) AS term,
                  generate_subscripts(toks, 1) - 1 AS pos
           FROM doc_toks),
pcnt AS (SELECT doc_id, len(toks) AS n FROM doc_toks
         WHERE len(toks) > 0),
pchunks AS (
  SELECT doc_id,
         unnest(range(0, 1 + greatest(0,
             (n - {_CHUNK_W} + {_CHUNK_S} - 1) // {_CHUNK_S})))
             AS chunk_id
  FROM pcnt),
ptab AS (
  SELECT c.doc_id * 64 + c.chunk_id AS doc_id,
         string_agg(k.term, ' ' ORDER BY k.pos) AS text
  FROM pchunks c JOIN pkeptp k ON k.doc_id = c.doc_id
       AND k.pos >= c.chunk_id * {_CHUNK_S}
       AND k.pos < c.chunk_id * {_CHUNK_S} + {_CHUNK_W}
  GROUP BY c.doc_id, c.chunk_id),"""
        ) + """
SELECT doc_id, score_micros,
       CAST(row_number() OVER (ORDER BY score_micros DESC, doc_id ASC)
            AS BIGINT) AS rank
FROM (SELECT s.doc_id // 64 AS doc_id,
             CAST(floor(max(s.score) * 1e6 + 0.5) AS BIGINT)
                 AS score_micros
      FROM scores s GROUP BY 1)
ORDER BY score_micros DESC, doc_id ASC LIMIT 10""",
        # sliding-window chunking: chunk c of a doc with n kept tokens
        # covers positions [c*S, c*S+W); n_chunks = 1 + max(0,
        # ceil((n-W)/S)) — identical floor-div formula both engines
        "chunk_documents": f"""
WITH {token_list_cte()},
keptp AS (SELECT doc_id, unnest(toks) AS term,
                 generate_subscripts(toks, 1) - 1 AS pos
          FROM doc_toks),
cnt AS (SELECT doc_id, len(toks) AS n FROM doc_toks WHERE len(toks) > 0),
chunks AS (
  SELECT doc_id,
         unnest(range(0, 1 + greatest(0,
             (n - {_CHUNK_W} + {_CHUNK_S} - 1) // {_CHUNK_S}))) AS chunk_id
  FROM cnt)
SELECT c.doc_id, CAST(c.chunk_id AS BIGINT) AS chunk_id,
       CAST(c.chunk_id * {_CHUNK_S} AS BIGINT) AS chunk_start,
       CAST(count(*) AS BIGINT) AS n_tokens,
       string_agg(k.term, ' ' ORDER BY k.pos) AS chunk_text
FROM chunks c JOIN keptp k ON k.doc_id = c.doc_id
     AND k.pos >= c.chunk_id * {_CHUNK_S}
     AND k.pos < c.chunk_id * {_CHUNK_S} + {_CHUNK_W}
GROUP BY c.doc_id, c.chunk_id""",
        "span_first_search": bm25_scores_sql(
            BM25_QUERY,
            pre=token_list_cte() + f""",
first_ok AS (
  SELECT doc_id FROM doc_toks
  WHERE list_contains(toks[1:{_SF_LIMIT}], '{_cq(_SF_TERM)[0]}')),""") + """
SELECT s.doc_id,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY s.score DESC, s.doc_id ASC)
            AS BIGINT) AS rank
FROM scores s JOIN first_ok f ON f.doc_id = s.doc_id
ORDER BY s.score DESC, s.doc_id ASC
LIMIT 10""",
        # ES match_phrase_prefix: 'merge' adjacent to any s* expansion
        # (expansions = DISTINCT kept terms with the prefix, term order,
        # LIMIT 50 — mirrors prefix_terms[:max_expansions]); survivors
        # keep unfiltered fixed-term scores
        "phrase_prefix_search": bm25_scores_sql(
            "merge",
            pre=token_list_cte() + """,
pp_exps AS (
  SELECT list(term ORDER BY term) AS es FROM (
    SELECT DISTINCT t AS term
    FROM (SELECT unnest(toks) AS t FROM doc_toks)
    WHERE starts_with(t, 's') ORDER BY t LIMIT 50)),
pp_gate AS (
  SELECT DISTINCT dt.doc_id
  FROM doc_toks dt, pp_exps e
  WHERE len(list_filter(range(1, len(dt.toks)),
        i -> dt.toks[i] = 'merge'
             AND list_contains(e.es, dt.toks[i + 1]))) > 0),""") + """
SELECT s.doc_id,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY s.score DESC, s.doc_id ASC)
            AS BIGINT) AS rank
FROM scores s JOIN pp_gate g ON g.doc_id = s.doc_id
ORDER BY s.score DESC, s.doc_id ASC
LIMIT 10""",
        # Lucene coord(q,d): bm25 · (distinct matched terms / |q|) —
        # the counter is kept-token distinct count among query terms
        "coord_search": bm25_scores_sql(BM25_QUERY) + f""",
mc AS (SELECT doc_id, count(DISTINCT term) AS cnt
       FROM kept WHERE term IN ({_SNIP_TERMS}) GROUP BY doc_id)
SELECT s.doc_id,
       CAST(floor(s.score * (mc.cnt::DOUBLE / {_MW_K}) * 1e6 + 0.5)
            AS BIGINT) AS score_micros,
       CAST(row_number() OVER (
            ORDER BY (s.score * (mc.cnt::DOUBLE / {_MW_K})) DESC,
                     s.doc_id ASC) AS BIGINT) AS rank
FROM scores s JOIN mc USING (doc_id)
ORDER BY (s.score * (mc.cnt::DOUBLE / {_MW_K})) DESC, s.doc_id ASC
LIMIT 10""",
        # ES rescore: bm25 top-window cut (score desc, doc asc), window
        # re-ranked by qw·score + rw·prox; docs outside the window are
        # never promoted — the min-window ladder joins only the window
        "rescore_search": bm25_scores_sql(BM25_QUERY) + f""",
win AS (SELECT doc_id, score,
               row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rn
        FROM scores),
w30 AS (SELECT doc_id, score FROM win WHERE rn <= {_RSC_WIN}),
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
q AS (SELECT doc_id, term, pos FROM pos WHERE term IN ({_SNIP_TERMS})),
full_docs AS (SELECT doc_id FROM q GROUP BY doc_id
              HAVING count(DISTINCT term) = {_MW_K}),
starts AS (SELECT doc_id, pos AS p FROM q
           WHERE doc_id IN (SELECT doc_id FROM full_docs)
             AND doc_id IN (SELECT doc_id FROM w30)),
nxt AS (SELECT s.doc_id, s.p, q.term, min(q.pos) AS np
        FROM starts s JOIN q USING (doc_id)
        WHERE q.pos >= s.p GROUP BY s.doc_id, s.p, q.term),
cover AS (SELECT doc_id, p, count(*) AS nt, max(np) - p + 1 AS w
          FROM nxt GROUP BY doc_id, p),
mw AS (SELECT doc_id, min(w) AS min_window
       FROM cover WHERE nt = {_MW_K} GROUP BY doc_id)
SELECT w.doc_id,
       CAST(floor(({_RSC_QW!r} * w.score + {_RSC_RW!r}
                   * coalesce(1.0 / (1.0 + mw.min_window), 0.0))
                  * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (
            ORDER BY ({_RSC_QW!r} * w.score + {_RSC_RW!r}
                      * coalesce(1.0 / (1.0 + mw.min_window), 0.0)) DESC,
                     w.doc_id ASC) AS BIGINT) AS rank
FROM w30 w LEFT JOIN mw ON mw.doc_id = w.doc_id
ORDER BY ({_RSC_QW!r} * w.score + {_RSC_RW!r}
          * coalesce(1.0 / (1.0 + mw.min_window), 0.0)) DESC, w.doc_id ASC
LIMIT 10""",
        # greedy earliest-next chain per start == engine min_ordered_spans
        "sloppy_phrase_search": f"""
WITH {token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
p1 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SLOPPY_TERMS[0]}'),
p2 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SLOPPY_TERMS[1]}'),
p3 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SLOPPY_TERMS[2]}'),
c2 AS (SELECT p1.doc_id, p1.pos AS s, min(p2.pos) AS e
       FROM p1 JOIN p2 USING (doc_id) WHERE p2.pos > p1.pos
       GROUP BY p1.doc_id, p1.pos),
c3 AS (SELECT c2.doc_id, c2.s, min(p3.pos) AS e
       FROM c2 JOIN p3 USING (doc_id) WHERE p3.pos > c2.e
       GROUP BY c2.doc_id, c2.s),
g AS (SELECT doc_id, min(e - s + 1) AS span FROM c3 GROUP BY doc_id)
SELECT doc_id, CAST(span AS BIGINT) AS span
FROM g WHERE span <= {len(_SLOPPY_TERMS) + _SLOPPY_SLOP}""",
        # sloppy span ladder filters the bm25 chain: phrase-ranked top-k
        "phrase_ranked_search": bm25_scores_sql(
            " ".join(_SLOPPY_TERMS)) + f""",
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
p1 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SLOPPY_TERMS[0]}'),
p2 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SLOPPY_TERMS[1]}'),
p3 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SLOPPY_TERMS[2]}'),
c2 AS (SELECT p1.doc_id, p1.pos AS s, min(p2.pos) AS e
       FROM p1 JOIN p2 USING (doc_id) WHERE p2.pos > p1.pos
       GROUP BY p1.doc_id, p1.pos),
c3 AS (SELECT c2.doc_id, c2.s, min(p3.pos) AS e
       FROM c2 JOIN p3 USING (doc_id) WHERE p3.pos > c2.e
       GROUP BY c2.doc_id, c2.s),
g AS (SELECT doc_id, min(e - s + 1) AS span FROM c3 GROUP BY doc_id
      HAVING min(e - s + 1) <= {len(_SLOPPY_TERMS) + _SLOPPY_SLOP})
SELECT s.doc_id,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY s.score DESC, s.doc_id ASC)
            AS BIGINT) AS rank
FROM scores s JOIN g ON g.doc_id = s.doc_id
ORDER BY s.score DESC, s.doc_id ASC
LIMIT 10""",
        "index_stats": f"""
WITH {kept},
dl AS (SELECT doc_id, count(*) AS dl FROM kept GROUP BY 1),
td AS (SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cf
       FROM kept GROUP BY 1)
SELECT CAST((SELECT count(*) FROM dl) AS BIGINT) AS n_docs,
       CAST((SELECT count(*) FROM td) AS BIGINT) AS n_terms,
       CAST((SELECT sum(df) FROM td) AS BIGINT) AS n_postings,
       CAST((SELECT sum(cf) FROM td) AS BIGINT) AS total_tokens,
       CAST(floor((SELECT avg(dl::DOUBLE) FROM dl) * 1e6 + 0.5) AS BIGINT)
           AS avgdl_micros""",
        "curated_packed_sequences": f"""
WITH full_corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents),
{kept_tokens_cte(table='full_corpus')},
all_toks AS (
  SELECT doc_id, count(*) AS n FROM toks WHERE term <> '' GROUP BY doc_id
),
kc AS (SELECT doc_id, count(*) AS n FROM kept GROUP BY doc_id),
gated AS (
  SELECT d.doc_id, d.text
  FROM full_corpus d
  LEFT JOIN all_toks a ON d.doc_id = a.doc_id
  LEFT JOIN kc k ON d.doc_id = k.doc_id
  WHERE coalesce(k.n, 0) >= 5
    AND 2 * (coalesce(a.n, 0) - coalesce(k.n, 0)) <= coalesce(a.n, 0)),
surv AS (
  SELECT doc_id, text FROM (
    SELECT doc_id, text,
           row_number() OVER (PARTITION BY md5(text)
                              ORDER BY doc_id) AS rn
    FROM gated) WHERE rn = 1),
{token_list_cte(table='surv')},
keptp AS (
  SELECT doc_id, unnest(toks) AS term,
         generate_subscripts(toks, 1) - 1 AS pos
  FROM doc_toks),
cnt AS (SELECT doc_id, count(*) AS n FROM keptp GROUP BY doc_id),
offs AS (
  SELECT doc_id,
         coalesce(sum(n) OVER (ORDER BY doc_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS off
  FROM cnt),
g AS (SELECT k.doc_id, o.off + k.pos AS gp, k.term
      FROM keptp k JOIN offs o USING (doc_id))
SELECT CAST(gp // 512 AS BIGINT) AS seq_id,
       CAST(gp % 512 AS BIGINT) AS pos_in_seq,
       term, doc_id
FROM g""",
        "bm25_topk_deleted": bm25_scores_sql(
            BM25_QUERY, table="surv",
            pre="surv AS (SELECT * FROM documents WHERE doc_id % 7 <> 0),"
        ) + """
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10""",
        # ES _reindex from the index's own stored _source under a NEW
        # layout, serving the alive (tombstone-masked) view — scores are
        # layout-invariant, so the oracle is the plain survivor chain
        "reindex_search": bm25_scores_sql(
            BM25_QUERY, table="surv",
            pre=f"surv AS (SELECT * FROM documents "
                f"WHERE doc_id % {_REIDX_MOD} <> 0),"
        ) + """
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10""",
        # PIT paged search: the snapshot preserves the PRE-delete state,
        # so the oracle is the plain bm25 chain paged by rank
        "pit_paged_search": bm25_scores_sql(BM25_QUERY) + f"""
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank,
       CAST((row_number() OVER (ORDER BY score DESC, doc_id ASC) - 1)
            // {_PIT_PAGE} + 1 AS BIGINT) AS page
FROM scores ORDER BY score DESC, doc_id ASC LIMIT {2 * _PIT_PAGE}""",
        # ES _delete_by_query: the delete SET is the boolean-DSL matched
        # set (mirrors DBQ_EXPR via INTERSECT over a SECOND tokenization
        # of the full corpus), then the bm25 chain runs over survivors
        "delete_by_query_search": bm25_scores_sql(
            BM25_QUERY, table="surv",
            pre=kept_tokens_cte(names=("dtoks", "dkept")).lstrip() + f""",
matched AS (
  {' INTERSECT '.join(
      f"SELECT DISTINCT doc_id FROM dkept WHERE term = '{t}'"
      for t in _DBQ_TERMS)}),
surv AS (SELECT * FROM documents
         WHERE doc_id NOT IN (SELECT doc_id FROM matched)),"""
        ) + """
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10""",
        # ES _update_by_query: matched docs (INTERSECT mirror of
        # UBQ_EXPR) get UBQ_SUFFIX appended; bm25 runs over the
        # CASE-rewritten corpus — the upserted index must match bitwise
        "update_by_query_search": bm25_scores_sql(
            BM25_QUERY, table="surv",
            pre=kept_tokens_cte(names=("utoks", "ukept")).lstrip() + f""",
umatched AS (
  {' INTERSECT '.join(
      f"SELECT DISTINCT doc_id FROM ukept WHERE term = '{t}'"
      for t in _UBQ_TERMS)}),
surv AS (SELECT d.doc_id,
                CASE WHEN m.doc_id IS NOT NULL
                     THEN d.text || '{_UBQ_SUFFIX}' ELSE d.text END AS text
         FROM documents d LEFT JOIN umatched m ON m.doc_id = d.doc_id),"""
        ) + """
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10""",
        # ES _bulk: the oracle reconstructs the post-batch corpus —
        # minus the deleted id, the replaced doc rewritten, the created
        # doc appended (the conflicting create never lands)
        "bulk_search": bm25_scores_sql(
            BM25_QUERY, table="surv",
            pre=f"""surv AS (
  SELECT doc_id, text FROM documents
  WHERE doc_id NOT IN ({_BULK_DEL}, {_BULK_UPD})
  UNION ALL
  SELECT doc_id, text || '{_BULK_SUF}' FROM documents
  WHERE doc_id = {_BULK_UPD}
  UNION ALL
  SELECT {_BULK_NEW}, '{_BULK_NEW_TXT}'),"""
        ) + """
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores ORDER BY score DESC, doc_id ASC LIMIT 10""",
        # ES matrix_stats: pairwise sample cov + Pearson corr from one
        # pass of HUGEINT sufficient statistics (same scaling and float
        # expression order as the driver: quantity as-is, price whole
        # units, discount cents)
        "matrix_stats_agg": """
WITH s AS (
  SELECT count(*)::HUGEINT AS n,
         sum(CAST(l_quantity AS BIGINT))::HUGEINT AS s1,
         sum(CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT AS s2,
         sum(CAST(floor(l_discount * 100 + 0.5) AS BIGINT))::HUGEINT AS s3,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(l_quantity AS BIGINT))::HUGEINT AS s11,
         sum(CAST(floor(l_extendedprice + 0.5) AS BIGINT)
             * CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT
             AS s22,
         sum(CAST(floor(l_discount * 100 + 0.5) AS BIGINT)
             * CAST(floor(l_discount * 100 + 0.5) AS BIGINT))::HUGEINT
             AS s33,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT
             AS s12,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(floor(l_discount * 100 + 0.5) AS BIGINT))::HUGEINT
             AS s13,
         sum(CAST(floor(l_extendedprice + 0.5) AS BIGINT)
             * CAST(floor(l_discount * 100 + 0.5) AS BIGINT))::HUGEINT
             AS s23
  FROM lineitem),
c AS (
  SELECT 'l_quantity' AS field_a, 'l_extendedprice' AS field_b, n,
         (n * s12 - s1 * s2) AS dn, (n * s11 - s1 * s1) AS ddx,
         (n * s22 - s2 * s2) AS ddy
  FROM s
  UNION ALL
  SELECT 'l_quantity', 'l_discount', n,
         (n * s13 - s1 * s3), (n * s11 - s1 * s1), (n * s33 - s3 * s3)
  FROM s
  UNION ALL
  SELECT 'l_extendedprice', 'l_discount', n,
         (n * s23 - s2 * s3), (n * s22 - s2 * s2), (n * s33 - s3 * s3)
  FROM s)
SELECT field_a, field_b, CAST(n AS BIGINT) AS n,
       CAST(floor((dn::DOUBLE / n / (n - 1)) * 1e6 + 0.5) AS BIGINT)
           AS cov_micros,
       CAST(floor((dn::DOUBLE / sqrt(ddx::DOUBLE) / sqrt(ddy::DOUBLE))
                  * 1e6 + 0.5) AS BIGINT) AS corr_micros
FROM c""",
        # ES weighted_avg: sum(w*v)/sum(w) from integer partials
        "weighted_avg_agg": """
WITH s AS (
  SELECT l_returnflag,
         sum(CAST(l_quantity AS BIGINT))::HUGEINT AS sw,
         sum(CAST(l_quantity AS BIGINT)
             * CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))::HUGEINT
             AS swv
  FROM lineitem GROUP BY l_returnflag)
SELECT l_returnflag,
       CAST(floor((swv::DOUBLE / sw) * 1e6 + 0.5) AS BIGINT)
           AS wavg_cents_micros
FROM s""",
        # ES t_test (Welch): HUGEINT sufficient stats per flag, one
        # fixed-order float tail (same expression order as the driver)
        "t_test_agg": f"""
WITH s AS (
  SELECT l_returnflag,
         count(*)::HUGEINT AS n,
         sum(CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT AS s,
         sum(CAST(floor(l_extendedprice + 0.5) AS BIGINT)
             * CAST(floor(l_extendedprice + 0.5) AS BIGINT))::HUGEINT
             AS ss
  FROM lineitem
  WHERE l_returnflag IN ('{_TT_A}', '{_TT_B}') GROUP BY l_returnflag),
m AS (SELECT l_returnflag, CAST(n AS BIGINT) AS n,
             s::DOUBLE / n AS mean,
             (n * ss - s * s)::DOUBLE / n / (n - 1) AS var
      FROM s),
a AS (SELECT * FROM m WHERE l_returnflag = '{_TT_A}'),
b AS (SELECT * FROM m WHERE l_returnflag = '{_TT_B}')
SELECT '{_TT_A}' AS flag_a, '{_TT_B}' AS flag_b,
       a.n AS n_a, b.n AS n_b,
       CAST(floor(((a.mean - b.mean) / sqrt(a.var / a.n + b.var / b.n))
                  * 1e6 + 0.5) AS BIGINT) AS t_micros
FROM a CROSS JOIN b""",
        # geo_distance over hash-derived coordinates: integer planar
        # distance, bitwise (md5_number_lower == md5_low64)
        "geo_distance_search": f"""
WITH g AS (
  SELECT c_custkey,
         CAST(md5_number_lower('lat:' || CAST(c_custkey AS VARCHAR))
              % 180000001 AS BIGINT) - 90000000 AS lat_micros,
         CAST(md5_number_lower('lon:' || CAST(c_custkey AS VARCHAR))
              % 360000001 AS BIGINT) - 180000000 AS lon_micros
  FROM customer),
d AS (SELECT c_custkey, lat_micros, lon_micros,
             (lat_micros - {_GEO_LAT0}) * (lat_micros - {_GEO_LAT0})
             + (lon_micros - {_GEO_LON0}) * (lon_micros - {_GEO_LON0})
                 AS d2
      FROM g)
SELECT c_custkey, lat_micros, lon_micros, CAST(d2 AS BIGINT) AS d2,
       CAST(row_number() OVER (ORDER BY d2 ASC, c_custkey ASC) AS BIGINT)
           AS rank
FROM d WHERE d2 <= {_GEO_R}::BIGINT * {_GEO_R}::BIGINT
ORDER BY d2 ASC, c_custkey ASC LIMIT {_GEO_K}""",
        # ES stats_bucket pipeline agg over the monthly histogram —
        # integer floor-avg both engines
        "bucket_stats_pipeline": """
WITH b AS (SELECT year(o_orderdate) AS y, month(o_orderdate) AS m,
                  count(*) AS n
           FROM orders GROUP BY 1, 2)
SELECT CAST(count(*) AS BIGINT) AS n_buckets,
       CAST(min(n) AS BIGINT) AS min_n,
       CAST(max(n) AS BIGINT) AS max_n,
       CAST(sum(n) AS BIGINT) AS sum_n,
       CAST(sum(n) * 1000000 // count(*) AS BIGINT) AS avg_micros
FROM b""",
        # multi-fragment highlighter: fixed FRAG_W-token tiles, top
        # FRAG_K per hit doc by (hits desc, tile asc)
        "snippet_fragments": bm25_scores_sql(BM25_QUERY) + f""",
top AS (SELECT doc_id FROM scores ORDER BY score DESC, doc_id LIMIT 10),
dt AS (SELECT d.doc_id, list_filter(
         string_split_regex(
             lower(regexp_replace(d.text, '[^a-zA-Z0-9 \n]+', '', 'g')),
             '\\s+'),
         t -> t <> '' AND t NOT IN ({{stop}})) AS toks
       FROM documents d JOIN top USING (doc_id)),
kp AS (SELECT doc_id, unnest(toks) AS term,
              generate_subscripts(toks, 1) - 1 AS pos FROM dt),
h AS (SELECT doc_id, pos // {{fw}} AS frag_id FROM kp
      WHERE term IN ({{terms}})),
c AS (SELECT doc_id, frag_id, count(*) AS n_hits FROM h GROUP BY 1, 2),
r AS (SELECT doc_id, frag_id, n_hits,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY n_hits DESC, frag_id ASC) AS fr
      FROM c)
SELECT doc_id, CAST(frag_id AS BIGINT) AS frag_id,
       CAST(n_hits AS BIGINT) AS n_hits, CAST(fr AS BIGINT) AS frag_rank
FROM r WHERE fr <= {{fk}}""".format(stop=sql_stopword_list(),
                                    fw=_FRAG_W, fk=_FRAG_K,
                                    terms=_SNIP_TERMS),
        # ES auto_date_histogram: integer bucket keys per candidate
        # interval, finest fitting the target wins (CASE ladder)
        "auto_date_histogram": f"""
WITH d AS (SELECT CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS days,
                  year(o_orderdate) AS y, month(o_orderdate) AS m
           FROM orders),
k AS (SELECT 'day' AS "interval", days AS bucket FROM d
      UNION ALL SELECT 'week', days // 7 FROM d
      UNION ALL SELECT 'month', y * 100 + m FROM d
      UNION ALL SELECT 'quarter', y * 10 + ((m - 1) // 3 + 1) FROM d
      UNION ALL SELECT 'year', y FROM d),
c AS (SELECT "interval", bucket, count(*) AS n FROM k GROUP BY 1, 2),
nb AS (SELECT "interval", count(*) AS nb FROM c GROUP BY 1),
pick AS (SELECT CASE
    WHEN (SELECT nb FROM nb WHERE "interval" = 'day') <= {_ADH_B}
        THEN 'day'
    WHEN (SELECT nb FROM nb WHERE "interval" = 'week') <= {_ADH_B}
        THEN 'week'
    WHEN (SELECT nb FROM nb WHERE "interval" = 'month') <= {_ADH_B}
        THEN 'month'
    WHEN (SELECT nb FROM nb WHERE "interval" = 'quarter') <= {_ADH_B}
        THEN 'quarter'
    ELSE 'year' END AS iv)
SELECT c."interval", CAST(c.bucket AS BIGINT) AS bucket,
       CAST(c.n AS BIGINT) AS n
FROM c JOIN pick p ON c."interval" = p.iv
ORDER BY c.bucket""",
        # ES moving_fn (integer EWMA, floor arithmetic) + derivative
        # over the monthly histogram — recursive-CTE mirror
        "moving_fn_pipeline": """
WITH RECURSIVE b AS (SELECT year(o_orderdate) AS y,
                            month(o_orderdate) AS m, count(*) AS n
                     FROM orders GROUP BY 1, 2),
o AS (SELECT y, m, n, row_number() OVER (ORDER BY y, m) AS i FROM b),
r AS (
  SELECT i, y, m, n, n AS ewma FROM o WHERE i = 1
  UNION ALL
  SELECT o.i, o.y, o.m, o.n, (o.n + 3 * r.ewma) // 4
  FROM r JOIN o ON o.i = r.i + 1)
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n, CAST(ewma AS BIGINT) AS ewma,
       CAST(coalesce(n - lag(n) OVER (ORDER BY y, m), 0) AS BIGINT)
           AS deriv
FROM r ORDER BY y, m""",
        # FIM split: cut points u,v = md5('fim:{a,b}:'||doc_id) mod
        # (n+1), a=min b=max; DuckDB slices are 1-based end-inclusive so
        # toks[1:a] / toks[a+1:b] / toks[b+1:n] mirror the [0,a) [a,b)
        # [b,n) python spans
        "fim_transform": f"""
WITH {token_list_cte()},
c AS (SELECT doc_id, toks, len(toks) AS n FROM doc_toks
      WHERE len(toks) > 0),
h AS (SELECT doc_id, toks, n,
             CAST(md5_number_lower('fim:a:' || CAST(doc_id AS VARCHAR))
                  % (n + 1) AS BIGINT) AS u,
             CAST(md5_number_lower('fim:b:' || CAST(doc_id AS VARCHAR))
                  % (n + 1) AS BIGINT) AS v
      FROM c),
cut AS (SELECT doc_id, toks, n, least(u, v) AS a, greatest(u, v) AS b
        FROM h)
SELECT doc_id, a AS cut_a, b AS cut_b,
       coalesce(array_to_string(toks[1:a], ' '), '') AS prefix_text,
       coalesce(array_to_string(toks[a+1:b], ' '), '') AS middle_text,
       coalesce(array_to_string(toks[b+1:n], ' '), '') AS suffix_text
FROM cut""",
        # ES terms agg, REAL distributed protocol: per-shard top
        # shard_size by df (shard = the index's own hash spread),
        # coordinator sums reported partials (undercount when a term
        # misses a shard's cut) and bounds the miss with ES's
        # doc_count_error_upper_bound = Σ non-reporting shards' last
        # reported df
        "terms_agg_shard_error": f"""
WITH {kept},
sd AS (SELECT term,
              CAST((((doc_id::HUGEINT * 11400714819323198485) % {_M64})
                    // 1099511627776) % {_TA_S} AS BIGINT) AS shard,
              count(DISTINCT doc_id) AS df
       FROM kept GROUP BY 1, 2),
top AS (SELECT shard, term, df,
               row_number() OVER (PARTITION BY shard
                                  ORDER BY df DESC, term ASC) AS r
        FROM sd),
rep AS (SELECT shard, term, df FROM top WHERE r <= {_TA_SS}),
cut AS (SELECT shard,
               coalesce(max(CASE WHEN r = {_TA_SS} THEN df END), 0) AS cut
        FROM top GROUP BY shard),
agg AS (SELECT term, sum(df) AS df_sum FROM rep GROUP BY term),
err AS (SELECT a.term, a.df_sum,
               coalesce(sum(CASE WHEN r.term IS NULL THEN c.cut
                            ELSE 0 END), 0) AS err_bound
        FROM agg a CROSS JOIN cut c
        LEFT JOIN rep r ON r.term = a.term AND r.shard = c.shard
        GROUP BY a.term, a.df_sum)
SELECT term, CAST(df_sum AS BIGINT) AS df_sum,
       CAST(err_bound AS BIGINT) AS err_bound,
       CAST(row_number() OVER (ORDER BY df_sum DESC, term ASC) AS BIGINT)
           AS rank
FROM err ORDER BY df_sum DESC, term ASC LIMIT {_TA_K}""",
        # ES rare_terms agg: bottom-K by df (df asc, term asc)
        "rare_terms_agg": f"""
WITH {kept},
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM kept GROUP BY 1),
r AS (SELECT term, df,
             row_number() OVER (ORDER BY df ASC, term ASC) AS rank
      FROM df)
SELECT term, CAST(df AS BIGINT) AS df, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {_RARE_K}""",
        # TPC-H Q10: returned lineitems in a quarter window, customer
        # grain, top-20 (revenue desc, custkey asc) — integer micros
        "returned_items": """
WITH l AS (SELECT l_orderkey,
                  CAST(floor(l_extendedprice * (1.0 - l_discount)
                             * 1e6 + 0.5) AS BIGINT) AS rev
           FROM lineitem WHERE l_returnflag = 'R'),
o AS (SELECT o_orderkey, o_custkey FROM orders
      WHERE o_orderdate >= TIMESTAMP '1998-01-01'
        AND o_orderdate < TIMESTAMP '1998-04-01'),
r AS (SELECT o.o_custkey, CAST(sum(l.rev) AS BIGINT) AS revenue_micros
      FROM l JOIN o ON o.o_orderkey = l.l_orderkey
      GROUP BY o.o_custkey)
SELECT c.c_custkey, c.c_name, n.n_name, r.revenue_micros,
       CAST(row_number() OVER (ORDER BY r.revenue_micros DESC,
                                        c.c_custkey ASC) AS BIGINT) AS rank
FROM r
JOIN customer c ON c.c_custkey = r.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
ORDER BY r.revenue_micros DESC, c.c_custkey ASC
LIMIT 20""",
        # TPC-H Q3: segment + date filters, order-grain revenue,
        # integer-micros top-10 (revenue desc, orderkey asc)
        "shipping_priority": """
WITH c AS (SELECT c_custkey FROM customer
           WHERE c_mktsegment = 'BUILDING'),
o AS (SELECT o_orderkey, epoch_us(o_orderdate) AS o_date_us
      FROM orders
      WHERE o_custkey IN (SELECT c_custkey FROM c)
        AND o_orderdate < TIMESTAMP '1998-07-01'),
l AS (SELECT l_orderkey,
             CAST(floor(l_extendedprice * (1.0 - l_discount) * 1e6 + 0.5)
                  AS BIGINT) AS rev
      FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-07-01'),
r AS (SELECT l.l_orderkey, CAST(sum(l.rev) AS BIGINT) AS revenue_micros,
             o.o_date_us
      FROM l JOIN o ON o.o_orderkey = l.l_orderkey
      GROUP BY l.l_orderkey, o.o_date_us)
SELECT l_orderkey, revenue_micros, CAST(o_date_us AS BIGINT) AS o_date_us,
       CAST(row_number() OVER (ORDER BY revenue_micros DESC,
                                        l_orderkey ASC) AS BIGINT) AS rank
FROM r ORDER BY revenue_micros DESC, l_orderkey ASC LIMIT 10""",
        "revenue_by_nation": """
WITH lrev AS (
  SELECT l_orderkey,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1e6 + 0.5)
                  AS BIGINT)) AS rev
  FROM lineitem GROUP BY l_orderkey)
SELECT r.r_name AS region, n.n_name AS nation,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(lrev.rev) AS BIGINT) AS revenue_micros
FROM lrev
JOIN orders o ON o.o_orderkey = lrev.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY region, nation""",
        "copurchase_triangles": """
WITH p AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (SELECT DISTINCT a.l_partkey AS a, b.l_partkey AS b
      FROM p a JOIN p b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
tri AS (SELECT count(*) AS t
        FROM e e1
        JOIN e e2 ON e2.a = e1.b
        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
deg AS (SELECT node, count(*) AS d FROM (
          SELECT a AS node FROM e UNION ALL SELECT b FROM e)
        GROUP BY node),
w AS (SELECT sum(d * (d - 1) // 2) AS w FROM deg)
SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST(w.w AS BIGINT) AS n_wedges,
       CAST(tri.t AS BIGINT) AS n_triangles,
       CAST(tri.t * 3000000 // w.w AS BIGINT) AS clustering_micros
FROM tri, w""",
        "length_batching": f"""
WITH r AS (SELECT doc_id, n_chars,
                  row_number() OVER (ORDER BY n_chars, doc_id) - 1 AS rn
           FROM documents)
SELECT CAST(rn // {P_LEN_B} AS BIGINT) AS batch_idx,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(max(n_chars) AS BIGINT) AS max_chars,
       CAST(max(n_chars) * count(*) - sum(n_chars) AS BIGINT)
           AS padding_chars
FROM r GROUP BY rn // {P_LEN_B}""",
        "orders_monthly": """
SELECT strftime(o_orderdate, '%Y-%m') AS month,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_micros
FROM orders GROUP BY month""",
        "lineitem_profile": " UNION ALL ".join(f"""
SELECT '{c}' AS col_name, CAST(count(*) AS BIGINT) AS n,
       CAST(count(DISTINCT v) AS BIGINT) AS n_distinct,
       CAST(min(v) AS BIGINT) AS min_micros,
       CAST(max(v) AS BIGINT) AS max_micros
FROM (SELECT CAST(floor({c} * 1e6 + 0.5) AS BIGINT) AS v FROM lineitem)"""
                                               for c in _PROFILE_COLS),
        "conjunctive_search": bm25_scores_sql(BM25_QUERY) + """,
full_docs AS (
  SELECT doc_id FROM kept WHERE term IN (SELECT term FROM qterms)
  GROUP BY doc_id
  HAVING count(DISTINCT term) = (SELECT count(*) FROM qterms))
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS rank
FROM scores JOIN full_docs USING (doc_id)
ORDER BY score DESC, doc_id ASC LIMIT 10""",
        "search_page": bm25_scores_sql(BM25_QUERY) + """
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(rank AS BIGINT) AS rank
FROM (SELECT doc_id, score,
             row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
      FROM scores)
WHERE rank BETWEEN 11 AND 20""",
        "search_after_page": bm25_scores_sql(BM25_QUERY) + """
, cur AS (
  SELECT score, doc_id FROM scores
  ORDER BY score DESC, doc_id ASC LIMIT 1 OFFSET 9
)
SELECT s.doc_id,
       CAST(floor(s.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY s.score DESC, s.doc_id ASC) + 10
            AS BIGINT) AS rank
FROM scores s, cur
WHERE s.score < cur.score OR (s.score = cur.score AND s.doc_id > cur.doc_id)
ORDER BY s.score DESC, s.doc_id ASC
LIMIT 10""",
        "domain_temperature_mix": """
WITH c AS (SELECT source, count(*) AS n FROM documents GROUP BY source),
t AS (SELECT sum(n) AS total FROM c),
w AS (SELECT source, n,
             CAST(floor(sqrt(n::DOUBLE / total::DOUBLE) * 1e6 + 0.5)
                  AS BIGINT) AS w_micros
      FROM c CROSS JOIN t),
d AS (SELECT sum(w_micros) AS dsum FROM w)
SELECT source, CAST(n AS BIGINT) AS n_docs, w_micros,
       CAST(w_micros * 1000000 // d.dsum AS BIGINT) AS rate_micros
FROM w CROSS JOIN d""",
        # rows-only (non-SQL-expressible): semantic_knn (trained
        # PPMI+SVD model — synonym geometry pinned by pytest instead),
        # autoencoder_embed (iteratively trained model — gradient/
        # convergence/determinism pinned by pytest),
        # multimodal_features / video_frame_sample / audio_windows
        # (synthetic payload bytes are not SQL-derivable)
    }
    # --- HLL vocabulary sketch, fully mirrored (r5): md5-low64 hash,
    # bucket = h >> 52, rank = MSB-first set-bit position of the low 52
    # bits shifted into a sentinel'd 64-bit word (low == 0 → 53), per-
    # bucket max over ALL 4096 registers, harmonic denominator as an
    # EXACT HUGEINT Σ 2^(53−reg), linear-counting branch on identical
    # integers. Float ops appear in the same left-to-right order as
    # HLL.estimate — the only float surface is one divide (+ one ln). ---
    oracles["approx_vocab"] = f"""
WITH {kept},
hh AS (SELECT DISTINCT md5_number_lower(term) AS h FROM kept),
parts AS (SELECT h >> 52 AS idx, h % (1::UBIGINT << 52) AS low FROM hh),
ranks AS (
  SELECT p.idx,
         CASE WHEN p.low = 0 THEN 53
              ELSE 52 - (SELECT max(g.g)
                         FROM generate_series(0, 51) g(g)
                         WHERE (p.low >> g.g) % 2 = 1) END AS rank
  FROM parts p),
regs AS (SELECT b.bucket, coalesce(max(r.rank), 0) AS reg
         FROM generate_series(0, 4095) b(bucket)
         LEFT JOIN ranks r ON r.idx = CAST(b.bucket AS UBIGINT)
         GROUP BY b.bucket),
agg AS (SELECT sum(1::HUGEINT << (53 - reg)) AS s,
               sum(CASE WHEN reg = 0 THEN 1 ELSE 0 END) AS zeros
        FROM regs),
est AS (SELECT CASE
          WHEN 0.7213 / (1.0 + 1.079 / 4096.0) * 4096.0 * 4096.0
               * 9007199254740992.0 / CAST(s AS DOUBLE) <= 2.5 * 4096.0
               AND zeros > 0
          THEN 4096.0 * ln(4096.0 / CAST(zeros AS DOUBLE))
          ELSE 0.7213 / (1.0 + 1.079 / 4096.0) * 4096.0 * 4096.0
               * 9007199254740992.0 / CAST(s AS DOUBLE) END AS e
        FROM agg)
SELECT CAST(floor(e * 1e6 + 0.5) AS BIGINT) AS est_micros,
       CAST(4096 AS BIGINT) AS m
FROM est"""
    # --- one-pass quantile sketch, fully mirrored (r5): the
    # float-bit bucket (top 16 bits of the monotone IEEE key) is
    # reconstructed arithmetically for the all-positive events.value —
    # exponent from an EXACT powers-of-two table (2^g ≤ v gives e;
    # shifts for g ≥ 0, exact reciprocals for g < 0), top-4 mantissa
    # bits via (v/2^e − 1)·16 (power-of-two divide and Sterbenz
    # subtraction are EXACT, so floor is unambiguous; equivalence to
    # the numpy bit path verified on 5k random values). Buckets,
    # counts, per-bucket min and the rank walk are then pure
    # integers/mins — the approximation itself is oracled, like
    # terms_agg_shard_error and approx_vocab. ---
    oracles["value_quantiles_sketch"] = """
WITH pw AS (SELECT g, CASE WHEN g >= 0 THEN CAST(1::HUGEINT << g AS DOUBLE)
                           ELSE 1.0 / CAST(1::HUGEINT << (-g) AS DOUBLE)
                      END AS p
            FROM generate_series(-60, 60) s(g)),
ex AS (SELECT value AS v,
              (SELECT max(g) FROM pw WHERE pw.p <= events.value) AS e
       FROM events),
bk AS (SELECT v, 32768 + ((e + 1023) << 4)
              + CAST(floor((v / (SELECT p FROM pw WHERE pw.g = ex.e)
                            - 1.0) * 16.0) AS BIGINT) AS b16
       FROM ex),
g AS (SELECT b16, count(*) AS cnt, min(v) AS mv FROM bk GROUP BY b16),
c AS (SELECT b16, cnt, mv, sum(cnt) OVER (ORDER BY b16) AS cum FROM g),
nn AS (SELECT count(*) AS n FROM events),
qs(q) AS (VALUES (0.1), (0.5), (0.9)),
r AS (SELECT q, greatest(0, CAST(ceil(CAST(q AS DOUBLE) * nn.n)
                                 AS BIGINT) - 1) AS r
      FROM qs CROSS JOIN nn),
pick AS (SELECT r.q,
                (SELECT min(b16) FROM c WHERE c.cum >= r.r + 1) AS pb
         FROM r)
SELECT CAST(floor(CAST(pick.q AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
           AS q_micros,
       CAST(floor(c.mv * 1e6 + 0.5) AS BIGINT) AS value_micros,
       CAST(c.cnt AS BIGINT) AS rank_err_bound
FROM pick JOIN c ON c.b16 = pick.pb
ORDER BY q_micros"""
    # --- ES query parity (wave 10 search): terms_set (per-doc msm),
    # constant_score (filter context), unordered span_near ---
    # the ES request-body adapter routes its bool body onto
    # search_bool_query with the same constants — same chain, same
    # oracle (the adapter is a translator, not a new scorer)
    oracles["es_request_search"] = oracles["bool_query_search"]
    oracles["terms_set_search"] = terms_set_topk_sql(BM25_QUERY,
                                                     _TS_MOD, 10)
    oracles["constant_score_search"] = f"""
WITH {kept},
s AS (SELECT doc_id,
             bool_or(term = 'merge')  AS h_merge,
             bool_or(term = 'sort')   AS h_sort,
             bool_or(term = 'join')   AS h_join,
             bool_or(term = 'window') AS h_window
      FROM kept GROUP BY doc_id),
m AS (SELECT doc_id FROM s
      WHERE (h_merge AND h_sort) OR (h_join AND NOT h_window))
SELECT doc_id,
       CAST(floor({_CS_BOOST} * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY doc_id ASC) AS BIGINT) AS rank
FROM m ORDER BY doc_id ASC LIMIT 10"""
    oracles["span_near_search"] = bm25_scores_sql(BM25_QUERY) + f""",
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
q AS (SELECT doc_id, term, pos FROM pos WHERE term IN ({_SNIP_TERMS})),
full_docs AS (SELECT doc_id FROM q GROUP BY doc_id
              HAVING count(DISTINCT term) = {_MW_K}),
starts AS (SELECT doc_id, pos AS p FROM q
           WHERE doc_id IN (SELECT doc_id FROM full_docs)),
nxt AS (SELECT s.doc_id, s.p, q.term, min(q.pos) AS np
        FROM starts s JOIN q USING (doc_id)
        WHERE q.pos >= s.p GROUP BY s.doc_id, s.p, q.term),
cover AS (SELECT doc_id, p, count(*) AS nt, max(np) - p + 1 AS w
          FROM nxt GROUP BY doc_id, p),
g AS (SELECT doc_id, min(w) AS mw FROM cover WHERE nt = {_MW_K}
      GROUP BY doc_id HAVING min(w) <= {_MW_K + _SN_SLOP})
SELECT sc.doc_id,
       CAST(floor(sc.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY sc.score DESC, sc.doc_id ASC)
            AS BIGINT) AS rank
FROM scores sc JOIN g ON g.doc_id = sc.doc_id
ORDER BY sc.score DESC, sc.doc_id ASC LIMIT 10"""
    oracles["dfi_search"] = dfi_topk_sql(BM25_QUERY, 10)
    oracles["dfr_search"] = dfr_topk_sql(BM25_QUERY, 10)
    from stacksearch_ray.pipelines.documents import (
        IV_MAX_GAPS as _IV_G,
        IV_NOT as _IV_NOT,
        IV_TERMS as _IV_T,
    )
    from stacksearch_ray.pipelines.documents import (
        SC_BIG as _SC_B,
        SC_LITTLE as _SC_L,
        SC_MAX_GAPS as _SC_G,
    )
    # span_containing: SQL enumerates ALL big-span (s, e) pairs under
    # the gap bound (no minimal-interval trick needed — the join is the
    # enumeration) and keeps docs where some pair contains the little
    oracles["span_containing_search"] = bm25_scores_sql(
        " ".join(sorted(set(_SC_B)))) + f""",
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
b1 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SC_B[0]}'),
b2 AS (SELECT doc_id, pos FROM pos WHERE term = '{_SC_B[1]}'),
iv AS (SELECT b1.doc_id, b1.pos AS s, b2.pos AS e
       FROM b1 JOIN b2 USING (doc_id)
       WHERE b2.pos > b1.pos
         AND b2.pos - b1.pos + 1 <= {2 + _SC_G}),
ok AS (SELECT DISTINCT iv.doc_id FROM iv
       WHERE EXISTS (SELECT 1 FROM pos x
                     WHERE x.doc_id = iv.doc_id
                       AND x.term = '{_SC_L}'
                       AND x.pos BETWEEN iv.s AND iv.e))
SELECT sc.doc_id,
       CAST(floor(sc.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY sc.score DESC, sc.doc_id ASC)
            AS BIGINT) AS rank
FROM scores sc JOIN ok ON ok.doc_id = sc.doc_id
ORDER BY sc.score DESC, sc.doc_id ASC LIMIT 10"""

    # ES intervals: ordered sort→join minimal interval per start (the
    # greedy chain's SQL twin — min next-term pos per start), gap bound
    # w ≤ n + max_gaps, then NOT EXISTS excluded occurrence in [s, e];
    # rank survivors by bm25 over the interval terms
    oracles["intervals_search"] = bm25_scores_sql(
        " ".join(sorted(set(_IV_T)))) + f""",
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
p1 AS (SELECT doc_id, pos FROM pos WHERE term = '{_IV_T[0]}'),
p2 AS (SELECT doc_id, pos FROM pos WHERE term = '{_IV_T[1]}'),
c2 AS (SELECT p1.doc_id, p1.pos AS s, min(p2.pos) AS e
       FROM p1 JOIN p2 USING (doc_id) WHERE p2.pos > p1.pos
       GROUP BY p1.doc_id, p1.pos),
iv AS (SELECT doc_id, s, e FROM c2 WHERE e - s + 1 <= {2 + _IV_G}),
ok AS (SELECT DISTINCT iv.doc_id FROM iv
       WHERE NOT EXISTS (SELECT 1 FROM pos x
                         WHERE x.doc_id = iv.doc_id
                           AND x.term = '{_IV_NOT}'
                           AND x.pos BETWEEN iv.s AND iv.e))
SELECT sc.doc_id,
       CAST(floor(sc.score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY sc.score DESC, sc.doc_id ASC)
            AS BIGINT) AS rank
FROM scores sc JOIN ok ON ok.doc_id = sc.doc_id
ORDER BY sc.score DESC, sc.doc_id ASC LIMIT 10"""

    _la0, _la1, _lo0, _lo1 = _GEO_BOX
    oracles["geo_bbox_search"] = f"""
WITH g AS (
  SELECT c_custkey,
         CAST(md5_number_lower('lat:' || CAST(c_custkey AS VARCHAR))
              % 180000001 AS BIGINT) - 90000000 AS lat_micros,
         CAST(md5_number_lower('lon:' || CAST(c_custkey AS VARCHAR))
              % 360000001 AS BIGINT) - 180000000 AS lon_micros
  FROM customer)
SELECT c_custkey, lat_micros, lon_micros
FROM g
WHERE lat_micros BETWEEN {_la0} AND {_la1}
  AND lon_micros BETWEEN {_lo0} AND {_lo1}"""
    _dr0, _dr1 = _DR_EDGES
    oracles["date_range_agg"] = f"""
WITH b AS (SELECT CASE WHEN o_orderdate < DATE '{_dr0}' THEN 'early'
                       WHEN o_orderdate < DATE '{_dr1}' THEN 'mid'
                       ELSE 'late' END AS bucket,
                  CAST(floor(o_totalprice * 1e6 + 0.5) AS BIGINT) AS rm
           FROM orders)
SELECT bucket, count(*)::BIGINT AS n,
       CAST(sum(rm) AS BIGINT) AS revenue_micros
FROM b GROUP BY bucket"""
    # ColBERT-style MaxSim: ±1 token vectors from md5 parity (dim 16),
    # integer dots; per (doc, qterm) MAX over the doc's distinct terms,
    # summed — every quantity integer, bitwise
    _ms_q = sorted(set(_cq(BM25_QUERY)))
    _ms_qv = ", ".join(f"('{t}')" for t in _ms_q)
    oracles["maxsim_search"] = f"""
WITH {kept},
dt AS (SELECT DISTINCT doc_id, term FROM kept),
dims AS (SELECT unnest(generate_series(0, {_MS_DIM - 1})) AS d),
vocab AS (SELECT DISTINCT term FROM dt),
tv AS (SELECT term, d,
              CASE WHEN md5_number_lower('tv:' || term || ':'
                                         || CAST(d AS VARCHAR)) % 2 = 0
                   THEN 1 ELSE -1 END AS v
       FROM vocab CROSS JOIN dims),
qt(qterm) AS (VALUES {_ms_qv}),
qv AS (SELECT qterm, d,
              CASE WHEN md5_number_lower('tv:' || qterm || ':'
                                         || CAST(d AS VARCHAR)) % 2 = 0
                   THEN 1 ELSE -1 END AS v
       FROM qt CROSS JOIN dims),
dots AS (SELECT tv.term, qv.qterm, sum(tv.v * qv.v) AS dot
         FROM tv JOIN qv USING (d) GROUP BY 1, 2),
mx AS (SELECT dt.doc_id, dots.qterm, max(dots.dot) AS mx
       FROM dt JOIN dots USING (term) GROUP BY 1, 2),
sc AS (SELECT doc_id, sum(mx) AS score FROM mx GROUP BY doc_id)
SELECT doc_id, CAST(score AS BIGINT) AS score,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC)
            AS BIGINT) AS rank
FROM sc ORDER BY score DESC, doc_id ASC LIMIT 10"""
    # maxsim over the BM25 top-N shortlist: the bm25 chain's cutoff is
    # (score desc, doc_id asc) — exact both engines — then the maxsim
    # chain restricted to those docs
    oracles["maxsim_rerank"] = bm25_scores_sql(BM25_QUERY) + f""",
short AS (SELECT doc_id FROM scores
          ORDER BY score DESC, doc_id ASC LIMIT {_MS_SHORT}),
dt AS (SELECT DISTINCT k.doc_id, k.term FROM kept k
       JOIN short USING (doc_id)),
dims AS (SELECT unnest(generate_series(0, {_MS_DIM - 1})) AS d),
vocab AS (SELECT DISTINCT term FROM dt),
tv AS (SELECT term, d,
              CASE WHEN md5_number_lower('tv:' || term || ':'
                                         || CAST(d AS VARCHAR)) % 2 = 0
                   THEN 1 ELSE -1 END AS v
       FROM vocab CROSS JOIN dims),
qt(qterm) AS (VALUES {_ms_qv}),
qv AS (SELECT qterm, d,
              CASE WHEN md5_number_lower('tv:' || qterm || ':'
                                         || CAST(d AS VARCHAR)) % 2 = 0
                   THEN 1 ELSE -1 END AS v
       FROM qt CROSS JOIN dims),
dots AS (SELECT tv.term, qv.qterm, sum(tv.v * qv.v) AS dot
         FROM tv JOIN qv USING (d) GROUP BY 1, 2),
mx AS (SELECT dt.doc_id, dots.qterm, max(dots.dot) AS mx
       FROM dt JOIN dots USING (term) GROUP BY 1, 2),
sc AS (SELECT doc_id, sum(mx) AS msc FROM mx GROUP BY doc_id)
SELECT doc_id, CAST(msc AS BIGINT) AS score,
       CAST(row_number() OVER (ORDER BY msc DESC, doc_id ASC)
            AS BIGINT) AS rank
FROM sc ORDER BY msc DESC, doc_id ASC LIMIT 10"""
    oracles["rate_agg"] = """
WITH b AS (SELECT year(o_orderdate) AS y, month(o_orderdate) AS m,
                  count(*) AS n
           FROM orders GROUP BY 1, 2)
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n,
       CAST(day(last_day(make_date(CAST(y AS INT), CAST(m AS INT), 1)))
            AS BIGINT) AS days,
       CAST(n * 1000000
            // day(last_day(make_date(CAST(y AS INT), CAST(m AS INT), 1)))
            AS BIGINT) AS rate_per_day_micros
FROM b ORDER BY y, m"""
    oracles["histogram_bounds_agg"] = f"""
WITH c AS (SELECT CAST(floor(value / {_HB_W}) AS BIGINT) AS bucket,
                  count(*) AS n
           FROM events GROUP BY 1),
rng AS (SELECT least({_HB_LO}, (SELECT min(bucket) FROM c)) AS lo,
               greatest({_HB_HI}, (SELECT max(bucket) FROM c)) AS hi),
g AS (SELECT unnest(generate_series(lo, hi)) AS bucket FROM rng)
SELECT g.bucket, CAST(coalesce(c.n, 0) AS BIGINT) AS n
FROM g LEFT JOIN c USING (bucket) ORDER BY g.bucket"""
    oracles["random_score_search"] = f"""
WITH {kept},
m AS (SELECT DISTINCT doc_id FROM kept
      WHERE term = '{_RS_TERM}'),
h AS (SELECT doc_id,
             md5_number_lower('rs:' || CAST(doc_id AS VARCHAR)) AS h
      FROM m)
SELECT doc_id,
       CAST(row_number() OVER (ORDER BY h ASC, doc_id ASC) AS BIGINT)
           AS rank
FROM h ORDER BY h ASC, doc_id ASC LIMIT {_RS_K}"""
    # ES boosting query: the bm25 chain with matched-negative docs
    # multiplied by the negative_boost in ONE fixed multiply (engine:
    # acc · feature; missing feature rows keep 1.0)
    oracles["boosting_search"] = bm25_scores_sql(BM25_QUERY) + f""",
nf AS (SELECT doc_id,
              bool_or(term = 'window') AS h_window,
              bool_or(term = 'filter') AS h_filter
       FROM kept GROUP BY doc_id),
demoted AS (SELECT s.doc_id,
                   s.score * (CASE WHEN coalesce(n.h_window OR n.h_filter,
                                                 FALSE)
                              THEN {_BOOSTING_NB} ELSE 1.0 END) AS score
            FROM scores s LEFT JOIN nf n ON n.doc_id = s.doc_id)
SELECT doc_id,
       CAST(floor(score * 1e6 + 0.5) AS BIGINT) AS score_micros,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC)
            AS BIGINT) AS rank
FROM demoted ORDER BY score DESC, doc_id ASC LIMIT 10"""
    # Lucene query_string mirror for
    # '("merge sort"~2 AND stream^2.0) OR (join AND NOT wind*)':
    # matched set = (ordered merge→sort span ≤ 4 AND has stream) OR
    # (has join AND no 'wind%' term); scores = boosted bm25 over the
    # positive scoring terms (prefix atoms filter only); unscored
    # matches coalesce to 0.0 after every scored doc
    oracles["query_string_search"] = f"""
WITH {kept},
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
qterms(term, boost) AS (VALUES ('join', 1.0), ('merge', 1.0),
                               ('sort', 1.0), ('stream', 2.0)),
df AS (
  SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
  WHERE term IN (SELECT term FROM qterms) GROUP BY 1
),
scores AS (
  SELECT tf.doc_id,
         sum( (ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
               * qterms.boost)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * (dl.dl / stats.avgdl)))) )
           AS score
  FROM tf
  JOIN df USING (term)
  JOIN qterms USING (term)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id
),
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
p1 AS (SELECT doc_id, pos FROM pos WHERE term = 'merge'),
p2 AS (SELECT doc_id, pos FROM pos WHERE term = 'sort'),
c2 AS (SELECT p1.doc_id, p1.pos AS s, min(p2.pos) AS e
       FROM p1 JOIN p2 USING (doc_id) WHERE p2.pos > p1.pos
       GROUP BY p1.doc_id, p1.pos),
ph AS (SELECT doc_id FROM c2 GROUP BY doc_id
       HAVING min(e - s + 1) <= 4),
fl AS (SELECT doc_id,
              bool_or(term = 'stream') AS h_stream,
              bool_or(term = 'join') AS h_join,
              bool_or(term LIKE 'wind%') AS h_wind
       FROM kept GROUP BY doc_id),
m AS (SELECT f.doc_id FROM fl f LEFT JOIN ph ON ph.doc_id = f.doc_id
      WHERE (ph.doc_id IS NOT NULL AND f.h_stream)
         OR (f.h_join AND NOT f.h_wind))
SELECT m.doc_id,
       CAST(floor(coalesce(s.score, 0.0) * 1e6 + 0.5) AS BIGINT)
           AS score_micros,
       CAST(row_number() OVER (ORDER BY coalesce(s.score, 0.0) DESC,
                               m.doc_id ASC) AS BIGINT) AS rank
FROM m LEFT JOIN scores s ON s.doc_id = m.doc_id
ORDER BY coalesce(s.score, 0.0) DESC, m.doc_id ASC LIMIT 10"""
    # simple_query_string mirror for '"sort join"~2 +stream | spark
    # -quer*' with default_operator=and — Lucene MUST_NOT hoisting:
    # matched set = ((ordered sort→join span ≤ 4 AND has stream) OR
    # has spark) AND no 'quer%' term; all scoring boosts 1.0, prefix
    # atoms filter-only, zero-scored matches coalesce to 0.0 last
    oracles["simple_query_string_search"] = f"""
WITH {kept},
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
qterms(term, boost) AS (VALUES ('join', 1.0), ('sort', 1.0),
                               ('spark', 1.0), ('stream', 1.0)),
df AS (
  SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
  WHERE term IN (SELECT term FROM qterms) GROUP BY 1
),
scores AS (
  SELECT tf.doc_id,
         sum( (ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
               * qterms.boost)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * (dl.dl / stats.avgdl)))) )
           AS score
  FROM tf
  JOIN df USING (term)
  JOIN qterms USING (term)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id
),
{token_list_cte()},
pos AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(1, len(toks) + 1)) AS pos
        FROM doc_toks),
p1 AS (SELECT doc_id, pos FROM pos WHERE term = 'sort'),
p2 AS (SELECT doc_id, pos FROM pos WHERE term = 'join'),
c2 AS (SELECT p1.doc_id, p1.pos AS s, min(p2.pos) AS e
       FROM p1 JOIN p2 USING (doc_id) WHERE p2.pos > p1.pos
       GROUP BY p1.doc_id, p1.pos),
ph AS (SELECT doc_id FROM c2 GROUP BY doc_id
       HAVING min(e - s + 1) <= 4),
fl AS (SELECT doc_id,
              bool_or(term = 'stream') AS h_stream,
              bool_or(term = 'spark') AS h_spark,
              bool_or(term LIKE 'quer%') AS h_quer
       FROM kept GROUP BY doc_id),
m AS (SELECT f.doc_id FROM fl f LEFT JOIN ph ON ph.doc_id = f.doc_id
      WHERE ((ph.doc_id IS NOT NULL AND f.h_stream) OR f.h_spark)
        AND NOT f.h_quer)
SELECT m.doc_id,
       CAST(floor(coalesce(s.score, 0.0) * 1e6 + 0.5) AS BIGINT)
           AS score_micros,
       CAST(row_number() OVER (ORDER BY coalesce(s.score, 0.0) DESC,
                               m.doc_id ASC) AS BIGINT) AS rank
FROM m LEFT JOIN scores s ON s.doc_id = m.doc_id
ORDER BY coalesce(s.score, 0.0) DESC, m.doc_id ASC LIMIT 10"""
    # match_bool_prefix: SHOULD disjunction, 'str%' prefix filter-only
    oracles["match_bool_prefix_search"] = f"""
WITH {kept},
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM kept GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM kept GROUP BY 1),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl) AS avgdl FROM dl),
qterms(term, boost) AS (VALUES ('merge', 1.0), ('sort', 1.0)),
df AS (
  SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM kept
  WHERE term IN (SELECT term FROM qterms) GROUP BY 1
),
scores AS (
  SELECT tf.doc_id,
         sum( (ln((stats.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
               * qterms.boost)
              * ((1.2 + 1.0) * tf.tf
                 / (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * (dl.dl / stats.avgdl)))) )
           AS score
  FROM tf
  JOIN df USING (term)
  JOIN qterms USING (term)
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY tf.doc_id
),
fl AS (SELECT doc_id,
              bool_or(term = 'merge') AS h_merge,
              bool_or(term = 'sort') AS h_sort,
              bool_or(term LIKE 'str%') AS h_str
       FROM kept GROUP BY doc_id),
m AS (SELECT doc_id FROM fl WHERE h_merge OR h_sort OR h_str)
SELECT m.doc_id,
       CAST(floor(coalesce(s.score, 0.0) * 1e6 + 0.5) AS BIGINT)
           AS score_micros,
       CAST(row_number() OVER (ORDER BY coalesce(s.score, 0.0) DESC,
                               m.doc_id ASC) AS BIGINT) AS rank
FROM m LEFT JOIN scores s ON s.doc_id = m.doc_id
ORDER BY coalesce(s.score, 0.0) DESC, m.doc_id ASC LIMIT 10"""
    # boolean-DSL percolation: one flags row per doc, four stored
    # queries as WHERE clauses over the flags
    oracles["percolate_dsl"] = f"""
WITH {kept},
fl AS (SELECT doc_id,
              bool_or(term = 'merge')  AS h_merge,
              bool_or(term = 'sort')   AS h_sort,
              bool_or(term = 'join')   AS h_join,
              bool_or(term = 'window') AS h_window,
              bool_or(term = 'spark')  AS h_spark,
              bool_or(term = 'batch')  AS h_batch,
              bool_or(term = 'filter') AS h_filter,
              bool_or(term LIKE 'quer%') AS h_quer,
              bool_or(term = 'stream') AS h_stream
       FROM kept GROUP BY doc_id)
SELECT doc_id, CAST(query_id AS BIGINT) AS query_id FROM (
  SELECT doc_id, 0 AS query_id FROM fl WHERE h_merge AND h_sort
  UNION ALL
  SELECT doc_id, 1 FROM fl WHERE h_join AND NOT h_window
  UNION ALL
  SELECT doc_id, 2 FROM fl WHERE (h_spark OR h_batch) AND h_filter
  UNION ALL
  SELECT doc_id, 3 FROM fl WHERE h_quer AND NOT h_stream)
ORDER BY query_id, doc_id"""
    # --- ES aggregation parity (wave 10): extended/string stats,
    # boxplot, range/filters/multi_terms/top_metrics/sampler buckets,
    # cumulative_sum/serial_diff/bucket_script/max_bucket pipelines ---
    oracles["extended_stats_agg"] = """
WITH s AS (
  SELECT l_returnflag, count(*)::HUGEINT AS n,
         sum(CAST(floor(l_quantity + 0.5) AS BIGINT))::HUGEINT AS s,
         sum(CAST(floor(l_quantity + 0.5) AS BIGINT)
             * CAST(floor(l_quantity + 0.5) AS BIGINT))::HUGEINT AS ss,
         min(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS mn,
         max(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS mx
  FROM lineitem GROUP BY l_returnflag),
m AS (SELECT l_returnflag, CAST(n AS BIGINT) AS n, mn, mx,
             CAST(s AS BIGINT) AS sum_q,
             s::DOUBLE / n AS mean,
             (n * ss - s * s)::DOUBLE / n / n AS var
      FROM s)
SELECT l_returnflag, n, mn AS min_q, mx AS max_q, sum_q,
       CAST(floor(mean * 1e6 + 0.5) AS BIGINT) AS avg_micros,
       CAST(floor(var * 1e6 + 0.5) AS BIGINT) AS var_micros,
       CAST(floor((mean + 2 * sqrt(var)) * 1e6 + 0.5) AS BIGINT)
           AS std_upper_micros,
       CAST(floor((mean - 2 * sqrt(var)) * 1e6 + 0.5) AS BIGINT)
           AS std_lower_micros
FROM m"""
    # entropy follows rule 4 (per-char micros round-then-sum); corpus is
    # ASCII so DuckDB's char split == the engine's byte bincount
    oracles["string_stats_agg"] = """
WITH ch AS (SELECT unnest(string_split(text, '')) AS c FROM documents),
cc AS (SELECT c, count(*)::BIGINT AS cnt FROM ch GROUP BY c),
tot AS (SELECT sum(cnt) AS total FROM cc),
e AS (SELECT sum(CAST(floor((-(cnt::DOUBLE / total)
                             * log2(cnt::DOUBLE / total)) * 1e6 + 0.5)
                     AS BIGINT)) AS ent
      FROM cc CROSS JOIN tot),
ls AS (SELECT count(*) AS n_docs, min(length(text)) AS min_len,
              max(length(text)) AS max_len, sum(length(text)) AS sum_len
       FROM documents)
SELECT CAST(n_docs AS BIGINT) AS n_docs,
       CAST(min_len AS BIGINT) AS min_len,
       CAST(max_len AS BIGINT) AS max_len,
       CAST(sum_len * 1000000 // n_docs AS BIGINT) AS avg_len_micros,
       CAST(ent AS BIGINT) AS entropy_micros
FROM ls CROSS JOIN e"""
    oracles["boxplot_agg"] = """
WITH q AS (SELECT
    CAST(floor(quantile_disc(value, 0.25) * 1e6 + 0.5) AS BIGINT) AS q1m,
    CAST(floor(quantile_disc(value, 0.5) * 1e6 + 0.5) AS BIGINT) AS q2m,
    CAST(floor(quantile_disc(value, 0.75) * 1e6 + 0.5) AS BIGINT) AS q3m
  FROM events),
f AS (SELECT q1m, q2m, q3m,
             q1m - (15 * (q3m - q1m)) // 10 AS lo,
             q3m + (15 * (q3m - q1m)) // 10 AS hi
      FROM q),
o AS (SELECT count(*)::BIGINT AS n_outliers
      FROM events CROSS JOIN f
      WHERE CAST(floor(value * 1e6 + 0.5) AS BIGINT) < lo
         OR CAST(floor(value * 1e6 + 0.5) AS BIGINT) > hi)
SELECT q1m AS q1_micros, q2m AS q2_micros, q3m AS q3_micros,
       lo AS lo_fence_micros, hi AS hi_fence_micros, n_outliers
FROM f CROSS JOIN o"""
    oracles["range_agg"] = """
WITH b AS (SELECT CASE WHEN value < 1.0 THEN 'lt_1'
                       WHEN value < 10.0 THEN '1_10'
                       WHEN value < 100.0 THEN '10_100'
                       ELSE 'gte_100' END AS bucket,
                  CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS vm
           FROM events)
SELECT bucket, count(*)::BIGINT AS n, CAST(sum(vm) AS BIGINT) AS sum_micros
FROM b GROUP BY bucket"""
    oracles["filters_agg"] = """
SELECT 'en' AS bucket, count(*)::BIGINT AS n_docs,
       CAST(coalesce(sum(n_chars), 0) AS BIGINT) AS sum_chars
FROM documents WHERE lang = 'en'
UNION ALL
SELECT 'long', count(*)::BIGINT,
       CAST(coalesce(sum(n_chars), 0) AS BIGINT)
FROM documents WHERE n_chars >= 300
UNION ALL
SELECT 'src1x', count(*)::BIGINT,
       CAST(coalesce(sum(n_chars), 0) AS BIGINT)
FROM documents WHERE source LIKE 'src1%'"""
    oracles["multi_terms_agg"] = """
WITH g AS (SELECT l_returnflag, l_linestatus, count(*)::BIGINT AS n,
                  CAST(sum(CAST(floor(l_quantity * 1e6 + 0.5) AS BIGINT))
                       AS BIGINT) AS sum_qty_micros
           FROM lineitem GROUP BY 1, 2)
SELECT l_returnflag, l_linestatus, n, sum_qty_micros,
       CAST(row_number() OVER (ORDER BY n DESC, l_returnflag ASC,
                               l_linestatus ASC) AS BIGINT) AS rank
FROM g ORDER BY n DESC, l_returnflag, l_linestatus LIMIT 5"""
    oracles["top_metrics_agg"] = """
WITH r AS (SELECT lang, doc_id, n_chars,
                  row_number() OVER (PARTITION BY lang
                                     ORDER BY n_chars DESC, doc_id ASC)
                      AS rn
           FROM documents)
SELECT lang, doc_id, CAST(n_chars AS BIGINT) AS n_chars
FROM r WHERE rn = 1 ORDER BY lang"""
    oracles["diversified_sampler_agg"] = """
WITH h AS (SELECT doc_id, source,
                  md5_number_lower('samp:' || CAST(doc_id AS VARCHAR)) AS h
           FROM documents),
r AS (SELECT doc_id, source, h,
             row_number() OVER (PARTITION BY source
                                ORDER BY h ASC, doc_id ASC) AS rn
      FROM h),
k AS (SELECT doc_id, source, h FROM r WHERE rn <= 2)
SELECT doc_id, source,
       CAST(row_number() OVER (ORDER BY h ASC, doc_id ASC) AS BIGINT)
           AS rank
FROM k ORDER BY h ASC, doc_id ASC LIMIT 10"""
    from stacksearch_ray.pipelines.documents import (
        IP_RANGE_EDGES as _IPR_E,
        MOVP_W as _MOVP_W,
        SAMPLER_PLAIN_K as _SAMP_K,
    )
    # plain sampler: hash-ordered K-sample (no diversity cap) feeding a
    # per-lang sub-agg; same uint64-exact hi/lo ordering trick
    oracles["sampler_agg"] = f"""
WITH h AS (SELECT doc_id, lang, n_chars,
                  md5_number_lower('samp:' || CAST(doc_id AS VARCHAR))
                      AS h
           FROM documents),
r AS (SELECT doc_id, lang, n_chars,
             row_number() OVER (ORDER BY h ASC, doc_id ASC) AS rn
      FROM h),
k AS (SELECT lang, n_chars FROM r WHERE rn <= {_SAMP_K})
SELECT lang, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(n_chars) * 1000000 // count(*) AS BIGINT)
           AS avg_chars_micros
FROM k GROUP BY lang ORDER BY lang"""
    oracles["ip_range_agg"] = f"""
WITH ip AS (
  SELECT CAST(md5_number_lower('ip:' || CAST(c_custkey AS VARCHAR))
              % 4294967296 AS BIGINT) AS ip
  FROM customer),
b AS (SELECT ip, CASE WHEN ip < {_IPR_E[0]} THEN 0
                      WHEN ip < {_IPR_E[1]} THEN 1
                      WHEN ip < {_IPR_E[2]} THEN 2
                      ELSE 3 END AS bucket
      FROM ip)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n,
       CAST(min(ip) AS BIGINT) AS min_ip,
       CAST(max(ip) AS BIGINT) AS max_ip
FROM b GROUP BY bucket ORDER BY bucket"""
    _monthly = """
WITH b AS (SELECT year(o_orderdate) AS y, month(o_orderdate) AS m,
                  count(*) AS n
           FROM orders GROUP BY 1, 2)"""
    # the two-counter (total, urgent) sibling — shared by the
    # bucket_script and bucket_selector oracles
    _urgent_monthly = """
WITH b AS (SELECT year(o_orderdate) AS y, month(o_orderdate) AS m,
                  count(*) AS n,
                  count(*) FILTER (o_orderpriority = '1-URGENT')
                      AS n_urgent
           FROM orders GROUP BY 1, 2)"""
    oracles["cumulative_sum_pipeline"] = _monthly + """
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n,
       CAST(sum(n) OVER (ORDER BY y, m) AS BIGINT) AS cum_n
FROM b ORDER BY y, m"""
    oracles["serial_diff_pipeline"] = _monthly + """
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n,
       CAST(coalesce(n - lag(n, 3) OVER (ORDER BY y, m), 0) AS BIGINT)
           AS sdiff
FROM b ORDER BY y, m"""
    oracles["bucket_script_pipeline"] = _urgent_monthly + """
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n, CAST(n_urgent AS BIGINT) AS n_urgent,
       CAST(n_urgent * 1000000 // n AS BIGINT) AS urgent_share_micros
FROM b"""
    oracles["max_bucket_pipeline"] = _monthly + """,
mx AS (SELECT max(n) AS mx FROM b)
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(mx AS BIGINT) AS max_n
FROM b CROSS JOIN mx WHERE n = mx ORDER BY y, m"""
    from stacksearch_ray.pipelines.documents import (
        BSORT_FROM as _BS_FROM,
        BSORT_SIZE as _BS_SIZE,
        BSEL_NUM as _BSEL_NUM,
        GEO_GRID_N as _GG_N,
    )
    oracles["normalize_pipeline"] = _monthly + """,
mm AS (SELECT min(n) AS lo, max(n) AS hi FROM b)
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n,
       CAST(CASE WHEN hi = lo THEN 0
                 ELSE (n - lo) * 1000000 // (hi - lo) END AS BIGINT)
           AS norm_micros
FROM b CROSS JOIN mm ORDER BY y, m"""
    oracles["moving_percentiles_pipeline"] = _monthly + f""",
w AS (SELECT y, m, n,
             list_sort(list(n) OVER (ORDER BY y, m
                 ROWS BETWEEN {_MOVP_W - 1} PRECEDING AND CURRENT ROW))
                 AS win
      FROM b)
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n,
       CAST(win[(len(win) + 1) // 2] AS BIGINT) AS moving_median
FROM w ORDER BY y, m"""
    oracles["bucket_sort_pipeline"] = _monthly + f""",
r AS (SELECT y, m, n,
             row_number() OVER (ORDER BY n DESC, y ASC, m ASC) AS pos
      FROM b)
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n, CAST(pos AS BIGINT) AS pos
FROM r WHERE pos > {_BS_FROM} AND pos <= {_BS_FROM} + {_BS_SIZE}
ORDER BY pos"""
    oracles["bucket_selector_pipeline"] = _urgent_monthly + f"""
SELECT CAST(y AS BIGINT) AS y, CAST(m AS BIGINT) AS m,
       CAST(n AS BIGINT) AS n, CAST(n_urgent AS BIGINT) AS n_urgent
FROM b WHERE n_urgent * {_BSEL_NUM} > n ORDER BY y, m"""
    # geotile-style grid + geo_centroid: all-integer cell math; shifted
    # sums keep // numerators non-negative (floor == truncate)
    oracles["geo_grid_agg"] = f"""
WITH g AS (
  SELECT CAST(md5_number_lower('lat:' || CAST(c_custkey AS VARCHAR))
              % 180000001 AS BIGINT) - 90000000 AS lat_micros,
         CAST(md5_number_lower('lon:' || CAST(c_custkey AS VARCHAR))
              % 360000001 AS BIGINT) - 180000000 AS lon_micros
  FROM customer),
c AS (SELECT ((90000000 - lat_micros) * {_GG_N} // 180000001) * {_GG_N}
             + ((lon_micros + 180000000) * {_GG_N} // 360000001) AS cell,
             lat_micros + 90000000 AS slat,
             lon_micros + 180000000 AS slon
      FROM g)
SELECT CAST(cell AS BIGINT) AS cell,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(slat) // count(*) - 90000000 AS BIGINT)
           AS centroid_lat_micros,
       CAST(sum(slon) // count(*) - 180000000 AS BIGINT)
           AS centroid_lon_micros
FROM c GROUP BY cell ORDER BY cell"""
    # the persistent-index screening path returns the same gate table:
    # one oracle, two mechanisms (the phrase_search_indexed pattern)
    oracles["ingest_dedup_indexed"] = oracles["ingest_dedup"]
    # keep-longest near-dup policy: the SAME clustering chain as
    # minhash_clusters, with the final component select extended by a
    # (n_chars DESC, doc_id ASC) row_number keep-filter
    oracles["neardup_keep_longest"] = oracles["minhash_clusters"].replace(
        "SELECT node AS doc_id, min(lbl) AS cluster_id "
        "FROM reach GROUP BY node",
        """,
comp AS (SELECT node AS doc_id, min(lbl) AS cluster_id
         FROM reach GROUP BY node),
rk AS (SELECT c.doc_id, c.cluster_id,
              row_number() OVER (PARTITION BY c.cluster_id
                                 ORDER BY d.n_chars DESC, c.doc_id ASC)
                  AS rn
       FROM comp c JOIN documents d USING (doc_id))
SELECT doc_id, cluster_id FROM rk WHERE rn = 1""")
    # positional-sidecar mechanisms share the streaming-scan oracles
    oracles["phrase_search_positional"] = oracles["phrase_search"]
    # ... including the incremental (build half → append half) path
    oracles["phrase_search_appended"] = oracles["phrase_search"]
    oracles["near_search_positional"] = oracles["near_search"]
    if not qt_rows:
        oracles.pop("eval_recall")  # literals unavailable (no sf0.01)
    if ivf_cent_rows is not None:
        from stacksearch_ray.pipelines.documents import SEMDEDUP_T_MICROS

        # SemDeDup keep-first: assign via the SAME centroid literals as
        # knn_ivf, then a strict lower-id within-cell EXISTS gate on the
        # micros-rounded cosine (rule 4 — both engines compare int64)
        oracles["semdedup_corpus"] = f"""
WITH cents(cid, c) AS (VALUES {ivf_cent_rows}),
assign AS (
  SELECT e.vec_id, cc.cid,
         row_number() OVER (PARTITION BY e.vec_id
                            ORDER BY list_distance(e.embedding::DOUBLE[],
                                                   cc.c) ASC,
                                     cc.cid ASC) AS rn
  FROM embeddings e CROSS JOIN cents cc),
a AS (SELECT vec_id, cid FROM assign WHERE rn = 1),
v AS (SELECT a.vec_id, a.cid, e.embedding::DOUBLE[] AS emb
      FROM a JOIN embeddings e USING (vec_id)),
d AS (SELECT x.vec_id,
             max(CASE WHEN floor(list_cosine_similarity(x.emb, y.emb)
                                 * 1e6 + 0.5) >= {SEMDEDUP_T_MICROS}
                      THEN 1 ELSE 0 END) AS dup
      FROM v x JOIN v y ON y.cid = x.cid AND y.vec_id < x.vec_id
      GROUP BY x.vec_id)
SELECT v.vec_id, CAST(v.cid AS BIGINT) AS cell,
       CAST(1 - coalesce(d.dup, 0) AS BIGINT) AS keep
FROM v LEFT JOIN d USING (vec_id) ORDER BY v.vec_id"""
        from stacksearch_ray.pipelines.documents import (D4_KEEP_DEN,
                                                         D4_KEEP_NUM)

        # D4: the semdedup chain + per-cell farthest-from-centroid
        # ranking among survivors; keep floor(n·4/5), nearest pruned
        oracles["prototype_prune"] = f"""
WITH cents(cid, c) AS (VALUES {ivf_cent_rows}),
assign AS (
  SELECT e.vec_id, cc.cid,
         row_number() OVER (PARTITION BY e.vec_id
                            ORDER BY list_distance(e.embedding::DOUBLE[],
                                                   cc.c) ASC,
                                     cc.cid ASC) AS rn
  FROM embeddings e CROSS JOIN cents cc),
a AS (SELECT vec_id, cid FROM assign WHERE rn = 1),
v AS (SELECT a.vec_id, a.cid, e.embedding::DOUBLE[] AS emb
      FROM a JOIN embeddings e USING (vec_id)),
dd AS (SELECT v.vec_id, v.cid,
              CAST(floor(list_distance(v.emb, cents.c)
                         * list_distance(v.emb, cents.c) * 1e6 + 0.5)
                   AS BIGINT) AS d2_micros
       FROM v JOIN cents ON cents.cid = v.cid),
dup AS (SELECT x.vec_id,
               max(CASE WHEN floor(list_cosine_similarity(x.emb, y.emb)
                                   * 1e6 + 0.5) >= {SEMDEDUP_T_MICROS}
                        THEN 1 ELSE 0 END) AS dup
        FROM v x JOIN v y ON y.cid = x.cid AND y.vec_id < x.vec_id
        GROUP BY x.vec_id),
sem AS (SELECT dd.vec_id, dd.cid, dd.d2_micros,
               1 - coalesce(dup.dup, 0) AS sem_keep
        FROM dd LEFT JOIN dup USING (vec_id)),
rk AS (SELECT vec_id, cid, d2_micros, sem_keep,
              row_number() OVER (PARTITION BY cid
                                 ORDER BY d2_micros DESC, vec_id DESC)
                  AS rn,
              count(*) OVER (PARTITION BY cid) AS n_cell
       FROM sem WHERE sem_keep = 1)
SELECT s.vec_id, CAST(s.cid AS BIGINT) AS cell, s.d2_micros,
       CAST(s.sem_keep AS BIGINT) AS sem_keep,
       CAST(CASE WHEN r.rn IS NOT NULL
                  AND r.rn <= (r.n_cell * {D4_KEEP_NUM}) // {D4_KEEP_DEN}
                 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM sem s LEFT JOIN rk r ON r.vec_id = s.vec_id
ORDER BY s.vec_id"""
    else:
        oracles.pop("knn_ivf")      # centroid literals need sf0.01
        oracles.pop("knn_ivf_appended")
        oracles.pop("knn_ivf_deleted")
        oracles.pop("knn_ivf_compacted")
    if vwh_cent_rows is not None:  # centroid literals need sf0.01
        # adaptive (k-means) histogram: assignment replayed from the
        # centroid literals (the knn_ivf pattern), 1-D over norm micros
        oracles["variable_width_histogram"] = f"""
WITH v AS (
  SELECT vec_id,
         CAST(floor(embedding[1]::DOUBLE * 1e6 + 0.5) AS BIGINT) AS nv
  FROM embeddings),
cents(cid, c) AS (VALUES {vwh_cent_rows}),
a AS (SELECT v.vec_id, v.nv, cents.cid,
             row_number() OVER (PARTITION BY v.vec_id
                                ORDER BY abs(v.nv - cents.c) ASC,
                                         cents.cid ASC) AS rn
      FROM v CROSS JOIN cents),
b AS (SELECT nv, cid FROM a WHERE rn = 1)
SELECT CAST(cid AS BIGINT) AS bucket, CAST(count(*) AS BIGINT) AS n,
       CAST(min(nv) AS BIGINT) AS min_v, CAST(max(nv) AS BIGINT) AS max_v
FROM b GROUP BY cid ORDER BY cid"""
    if pq_cb_rows is not None:     # codebook literals need sf0.01
        # the ONE assignment CTE prefix both PQ oracles share — edits
        # to slice bounds / tie-break / casts apply to both by design
        _pq_assign = f"""
WITH cb(m, j, c) AS (VALUES {pq_cb_rows}),
a AS (SELECT e.vec_id, cb.m, cb.j,
             row_number() OVER (PARTITION BY e.vec_id, cb.m
                  ORDER BY list_distance(
                      e.embedding[cb.m * {_pq_sub} + 1
                                  : cb.m * {_pq_sub} + {_pq_sub}
                                  ]::DOUBLE[], cb.c) ASC,
                           cb.j ASC) AS rn
      FROM embeddings e CROSS JOIN cb),
codes AS (SELECT vec_id, m, j FROM a WHERE rn = 1)"""
        oracles["knn_pq"] = _pq_assign + f""",
lut(m, j, d) AS (VALUES {pq_lut_rows}),
dist AS (SELECT c.vec_id, CAST(sum(l.d) AS BIGINT) AS dist_micros
         FROM codes c JOIN lut l ON l.m = c.m AND l.j = c.j
         GROUP BY c.vec_id)
SELECT vec_id, dist_micros,
       CAST(row_number() OVER (ORDER BY dist_micros ASC, vec_id ASC)
            AS BIGINT) AS rank
FROM dist ORDER BY dist_micros ASC, vec_id ASC LIMIT 10"""
        if ivf_cent_rows is not None:
            oracles["knn_ivfpq"] = _pq_assign + f""",
coarse(ccid, cc) AS (VALUES {ivf_cent_rows}),
ca AS (SELECT e.vec_id, coarse.ccid,
              row_number() OVER (PARTITION BY e.vec_id
                   ORDER BY list_distance(e.embedding::DOUBLE[],
                                          coarse.cc) ASC,
                            coarse.ccid ASC) AS rn
       FROM embeddings e CROSS JOIN coarse),
csel AS (SELECT vec_id, ccid FROM ca WHERE rn = 1),
lut(m, j, d) AS (VALUES {pq_lut_rows}),
dist AS (SELECT c.vec_id, CAST(sum(l.d) AS BIGINT) AS dist_micros
         FROM codes c JOIN lut l ON l.m = c.m AND l.j = c.j
         GROUP BY c.vec_id)
SELECT d2.vec_id, d2.dist_micros,
       CAST(row_number() OVER (ORDER BY d2.dist_micros ASC,
                                        d2.vec_id ASC) AS BIGINT) AS rank
FROM dist d2 JOIN csel ON csel.vec_id = d2.vec_id
WHERE csel.ccid IN ({pq_probe_list})
ORDER BY d2.dist_micros ASC, d2.vec_id ASC
LIMIT 10"""
            oracles["knn_ivfpq_rerank"] = _pq_assign + f""",
coarse(ccid, cc) AS (VALUES {ivf_cent_rows}),
ca AS (SELECT e.vec_id, coarse.ccid,
              row_number() OVER (PARTITION BY e.vec_id
                   ORDER BY list_distance(e.embedding::DOUBLE[],
                                          coarse.cc) ASC,
                            coarse.ccid ASC) AS rn
       FROM embeddings e CROSS JOIN coarse),
csel AS (SELECT vec_id, ccid FROM ca WHERE rn = 1),
lut(m, j, d) AS (VALUES {pq_lut_rows}),
dist AS (SELECT c.vec_id, CAST(sum(l.d) AS BIGINT) AS dist_micros
         FROM codes c JOIN lut l ON l.m = c.m AND l.j = c.j
         GROUP BY c.vec_id),
cand AS (SELECT d2.vec_id
         FROM dist d2 JOIN csel ON csel.vec_id = d2.vec_id
         WHERE csel.ccid IN ({pq_probe_list})
         ORDER BY d2.dist_micros ASC, d2.vec_id ASC LIMIT 100),
qv AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings
       WHERE vec_id = 0),
sims AS (SELECT e.vec_id,
                list_cosine_similarity(e.embedding::DOUBLE[], qv.qe)
                    AS sim
         FROM embeddings e JOIN cand USING (vec_id) CROSS JOIN qv)
SELECT vec_id, CAST(floor(sim * 1e6 + 0.5) AS BIGINT) AS sim_micros,
       CAST(row_number() OVER (ORDER BY sim DESC, vec_id ASC)
            AS BIGINT) AS rank
FROM sims ORDER BY sim DESC, vec_id ASC LIMIT 10"""
        oracles["pq_dedup_groups"] = _pq_assign + f""",
cells AS (SELECT vec_id,
                 sum(j * CAST(pow({PQ_K}, {PQ_M} - 1 - m) AS BIGINT))
                     AS cell
          FROM codes GROUP BY vec_id),
g AS (SELECT vec_id, cell,
             count(*) OVER (PARTITION BY cell) AS cell_size,
             min(vec_id) OVER (PARTITION BY cell) AS first_id
      FROM cells)
SELECT vec_id, CAST(cell AS BIGINT) AS cell,
       CAST(cell_size AS BIGINT) AS cell_size,
       CAST(CASE WHEN vec_id = first_id THEN 1 ELSE 0 END AS BIGINT)
           AS keep
FROM g"""
    return oracles
