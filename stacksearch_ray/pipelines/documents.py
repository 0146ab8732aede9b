"""Driver-conformance pipelines over /root/testdata tables (SURVEY.md §2
operator inventory → __ray_entry__.queries()).

Each function takes ``sf_dir`` and returns a Dataset / DataFrame /
pyarrow Table whose column names match the DuckDB oracle in
__ray_entry__.oracle_sql() exactly. Floats are returned as *_micros
int64 so value hashes are stable across engines.

The documents table maps onto the engine's corpus as
``doc_id→doc_id, text→content`` (FIXTURES.md F5).
"""

from __future__ import annotations

import math
import os
import shutil
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..build import build_index
from ..micros import pc_micros, to_micros
from ..functions.dedup import (
    add_content_hash,
    dedup_corpus as dedup_corpus_fn,
    exact_dedup_groups,
    minhash_lsh_clusters,
    simhash_signatures,
)
from ..functions.similarity import cosine_pairs, knn_brute_force, knn_lsh
from ..functions.textstats import (
    LangIdScorer,
    fingerprint_batch,
    token_stats_batch,
)
from ..query import QueryEngine
from ..text import clean_query, term_frequencies, tokenize_array

from ..schema import INDEX_FORMAT_VERSION
from ..runtime import cap_execution_cpus

# Driver sessions run ray.init(num_cpus=32) on a host that thrashes past
# ~16 concurrent CPU-bound workers (BASELINE.md). Cap the Ray Data
# executor's CPU budget once at import so every entry below runs in the
# non-degraded regime regardless of the session size.
cap_execution_cpus()

BM25_QUERY = "merge sort join stream window"
CACHE_ROOT = f"/tmp/stacksearch_ray_cache/v{INDEX_FORMAT_VERSION}"

_engines: dict[str, QueryEngine] = {}


def _docs(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def _ensure_built(ready_path: str, build) -> None:
    """Cross-process-safe build-if-missing for conformance-cache
    artifacts: parallel selfcheck shards share CACHE_ROOT, so a cold
    cache must never be built by two processes into the same directory
    (interleaved files would corrupt it). One coarse flock serializes
    all cache builds; the re-check under the lock makes the loser a
    no-op. ``ready_path`` must only exist once the artifact is COMPLETE
    — a commit file the builder writes last (stats.json / config.json)
    or an explicit ``._done`` marker for multi-step builds."""
    if os.path.exists(ready_path):
        return
    import fcntl

    os.makedirs(CACHE_ROOT, exist_ok=True)
    with open(os.path.join(CACHE_ROOT, ".build.lock"), "w") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        if not os.path.exists(ready_path):
            build()


def _cache_dir(sf_dir: str, *names: str) -> str:
    """THE conformance-cache layout: CACHE_ROOT/<sf_dir with "/" → "_">/
    names... — every cached artifact of one input lives under it."""
    return os.path.join(CACHE_ROOT, sf_dir.strip("/").replace("/", "_"),
                        *names)


def _cached(sf_dir: str, name: str, build: Callable[[str], None]) -> str:
    """Cache artifact ``name`` made by ``build(path)`` in several steps:
    a partial one from a crashed run is removed first, and a
    ``<path>._done`` marker written after the last step commits it."""
    path = _cache_dir(sf_dir, name)
    done = path + "._done"

    def run():
        shutil.rmtree(path, ignore_errors=True)  # heal partials
        build(path)
        open(done, "w").close()

    _ensure_built(done, run)
    return path


# the standard documents index build (4 shards, lang/source stored)
_DOCS_INDEX = dict(content_col="text", id_col="doc_id",
                   meta_cols=("lang", "source"), num_shards=4)


def _docs_half(sf_dir: str, second: bool):
    """The documents with doc_id below (or, ``second``, from) n // 2."""
    cut = pq.read_metadata(_docs(sf_dir)).num_rows // 2
    doc_id = pads.field("doc_id")
    return rd.read_parquet(_docs(sf_dir),
                           filter=doc_id >= cut if second else doc_id < cut)


def _mutated_index(sf_dir: str, name: str, mutate: Callable[[str], None],
                   source=None, **build_kw) -> str:
    """Cached index ``name``: the standard documents build (of
    ``source()`` if given, with ``build_kw`` overrides), then
    ``mutate(index_dir)`` — the lifecycle under test."""
    def build(index_dir: str) -> None:
        build_index(source() if source else _docs(sf_dir), index_dir,
                    **{**_DOCS_INDEX, **build_kw})
        mutate(index_dir)

    return _cached(sf_dir, name, build)


def _bm25_on(index_dir: str) -> pa.Table:
    """The fixed query's top 10 on a lifecycle index; each lifecycle
    entry's oracle is the bm25 chain over the corpus it ends at."""
    return _hits_table(QueryEngine(index_dir).search(BM25_QUERY, 10,
                                                     method="auto"))


def _index_for(sf_dir: str) -> QueryEngine:
    """Build (once per sf_dir per process) the BM25 index over documents."""
    if sf_dir not in _engines:
        index_dir = _cache_dir(sf_dir, "index")
        _ensure_built(
            os.path.join(index_dir, "stats.json"),
            lambda: build_index(_docs(sf_dir), index_dir,
                                store_positions=True, **_DOCS_INDEX))
        _engines[sf_dir] = QueryEngine(index_dir)
    return _engines[sf_dir]


def _hits_table(hits) -> pa.Table:
    """THE ranked-hits table of the search entries, for ``hits`` =
    [(doc_id, score), ...] in rank order: int64 doc_id, score_micros
    (one vectorized micros pass) and rank from 1."""
    hits = list(hits)
    return pa.table({
        "doc_id": pa.array(np.array([d for d, _ in hits], np.int64)),
        "score_micros": pa.array(to_micros([s for _, s in hits]),
                                 pa.int64()),
        "rank": pa.array(np.arange(1, len(hits) + 1, dtype=np.int64)),
    })


# ---------------- single-call search entries ----------------
# Entries whose whole body is one engine call over the cached documents
# index: name → (engine, sf_dir) → ranked [(doc_id, score), ...].
# search_entries() makes each row a driver entry returning _hits_table;
# a row's comment keeps what its oracle relies on.

PROX_BOOST_W = 2.0
RESCORE_WINDOW, RESCORE_QW, RESCORE_RW = 30, 1.0, 2.0
SPAN_FIRST_TERM, SPAN_FIRST_LIMIT = "merge", 3
SPAN_NOT_INC, SPAN_NOT_EXC, SPAN_NOT_DIST = "merge", "sort", 2
BOOSTS = {"merge": 2.0, "sort": 1.0, "join": 0.25,
          "stream": 1.5, "window": 0.5}
SYN_GROUPS = [["merge", "join"], ["sort", "order"], ["stream", "batch"]]
MIN_MATCH_M = 3
BOOSTING_NEG, BOOSTING_NB = "window OR filter", 0.25
QS_QUERY = '("merge sort"~2 AND stream^2.0) OR (join AND NOT wind*)'
SQS_QUERY, SQS_DEFAULT_OP = '"sort join"~2 +stream | spark -quer*', "and"
MBP_TEXT = "merge sort str"  # last token is the as-you-type prefix
PHRASE_PREFIX, PP_MAX_EXP = "merge s", 50  # ES expansion cap
IV_TERMS = ("sort", "join")   # ordered interval terms
IV_MAX_GAPS = 2               # ES intervals max_gaps
IV_NOT = "merge"              # not_containing filter term
SC_BIG = ("merge", "sort")  # big ordered span
SC_LITTLE = "join"          # span_term little query
SC_MAX_GAPS = 6

SEARCH_ENTRIES: dict[str, Callable[[QueryEngine, str], list]] = {
    # bm25 on the exhaustive scorer; the bmax entry (bm25_topk_wand),
    # the lifecycle indexes and federation share its oracle (rank +
    # score identity)
    "bm25_topk": lambda e, sf: e.search(BM25_QUERY, 10,
                                        method="exhaustive"),
    "bm25_topk_wand": lambda e, sf: e.search(BM25_QUERY, 10,
                                             method="bmax"),
    # registry scorers (§2.10) run exhaustive (stored bounds are bm25's);
    # lm_*, dfi and dfr get global cf and total_len bound per query
    "tfidf_search": lambda e, sf: e.search(BM25_QUERY, 10, scorer="tfidf"),
    "lm_dirichlet_search": lambda e, sf: e.search(BM25_QUERY, 10,
                                                  scorer="lm_dirichlet"),
    "lm_jm_search": lambda e, sf: e.search(BM25_QUERY, 10,
                                           scorer="lm_jelinek_mercer"),
    "dfi_search": lambda e, sf: e.search(BM25_QUERY, 10, scorer="dfi"),
    "dfr_search": lambda e, sf: e.search(BM25_QUERY, 10, scorer="dfr"),
    # BM25+: ln((n_docs+1)/df)·(bm25_tf_part + 1.0)
    "bm25plus_search": lambda e, sf: e.search(BM25_QUERY, 10,
                                              scorer="bm25_plus"),
    # bm25 + 2.0/(1 + min cover window) for docs with every term
    "proximity_boost_search": lambda e, sf: e.search_proximity_boost(
        BM25_QUERY, 10, weight=PROX_BOOST_W),
    # top-30 window re-ranked by 1.0·bm25 + 2.0·prox, prox over the window
    "rescore_search": lambda e, sf: e.search_rescore(
        BM25_QUERY, 10, window_size=RESCORE_WINDOW,
        query_weight=RESCORE_QW, rescore_weight=RESCORE_RW),
    # bm25 · (matched terms / query terms), in that expression order
    "coord_search": lambda e, sf: e.search_coord(BM25_QUERY, 10),
    # exhaustive; (idf · boost) · part expression order
    "boosted_search": lambda e, sf: e.search_boosted(BOOSTS, 10),
    # per (doc, group) max of the members' idf·part, groups sum
    "synonym_search": lambda e, sf: e.search_synonym_groups(SYN_GROUPS,
                                                            10),
    # Rocchio: micros-ranked expansion terms (term-asc ties), weight 0.4
    "prf_search": lambda e, sf: e.search_prf(
        BM25_QUERY, 10, fb_docs=PRF_FB_DOCS, fb_terms=PRF_FB_TERMS,
        beta=PRF_BETA, text_lookup=_sf_text_lookup(sf))[0],
    # match sets gate; survivors keep their full accumulated scores
    "min_match_search": lambda e, sf: e.search_min_should_match(
        BM25_QUERY, MIN_MATCH_M, 10),
    "terms_set_search": lambda e, sf: e.search_terms_set(
        BM25_QUERY, _terms_set_msm, 10),
    "conjunctive_search": lambda e, sf: e.search_conjunctive(BM25_QUERY,
                                                             10),
    # every match scores the boost; total ties go doc_id ascending
    "constant_score_search": lambda e, sf: e.search_constant_score(
        BOOL_DSL, CONST_SCORE_BOOST, 10),
    # must AND filter, must_not excluded; scores over must + should
    "bool_query_search": lambda e, sf: e.search_bool_query(
        BQ_MUST, BQ_SHOULD, BQ_NOT, 10),
    # set algebra picks the matches; boosted bm25 over the positive
    # scoring terms, prefix atoms filter only, zero-scored matches last
    "query_string_search": lambda e, sf: e.search_query_string(QS_QUERY,
                                                               10),
    "simple_query_string_search": lambda e, sf:
        e.search_simple_query_string(SQS_QUERY, 10, SQS_DEFAULT_OP),
    "match_bool_prefix_search": lambda e, sf:
        e.search_match_bool_prefix(MBP_TEXT, 10),
    # docs matching the negative expression scaled by 0.25, not dropped
    "boosting_search": lambda e, sf: e.search_boosting(
        BM25_QUERY, BOOSTING_NEG, BOOSTING_NB, 10),
    # positional gates are filters: survivors keep unfiltered scores
    "span_first_search": lambda e, sf: e.search_span_first(
        BM25_QUERY, 10, first_term=SPAN_FIRST_TERM,
        limit=SPAN_FIRST_LIMIT),
    "span_not_search": lambda e, sf: e.search_span_not(
        BM25_QUERY, 10, include_term=SPAN_NOT_INC,
        exclude_term=SPAN_NOT_EXC, dist=SPAN_NOT_DIST),
    "span_near_search": lambda e, sf: e.search_span_near(
        clean_query(BM25_QUERY), 10, slop=SPAN_NEAR_SLOP),
    "phrase_ranked_search": lambda e, sf: e.search_phrase_ranked(
        " ".join(SLOPPY_TERMS), 10, slop=SLOPPY_SLOP),
    "phrase_prefix_search": lambda e, sf: e.search_phrase_prefix(
        PHRASE_PREFIX, 10, max_expansions=PP_MAX_EXP),
    "intervals_search": lambda e, sf: e.search_intervals(
        list(IV_TERMS), 10, max_gaps=IV_MAX_GAPS, not_containing=IV_NOT),
    "span_containing_search": lambda e, sf: e.search_span_containing(
        list(SC_BIG), SC_LITTLE, 10, max_gaps=SC_MAX_GAPS),
}


def _search_entry(name: str) -> Callable[[str], pa.Table]:
    call = SEARCH_ENTRIES[name]

    def entry(sf_dir: str) -> pa.Table:
        return _hits_table(call(_index_for(sf_dir), sf_dir))

    entry.__name__ = entry.__qualname__ = name
    return entry


def search_entries() -> dict[str, Callable[[str], pa.Table]]:
    """One driver entry per SEARCH_ENTRIES row (for queries())."""
    return {name: _search_entry(name) for name in SEARCH_ENTRIES}


bm25_topk = _search_entry("bm25_topk")  # other entries rank off it
bool_query_search = _search_entry("bool_query_search")


def _postings_ds(sf_dir: str):
    def explode(batch: pa.Table) -> pa.Table:
        tf = term_frequencies(batch["text"].combine_chunks())
        doc_ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        return pa.table({
            "term": tf.terms,
            "doc_id": doc_ids[tf.doc_idx],
            "tf": tf.tf,
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(explode, batch_format="pyarrow"))


def _partial_sums(batch: pa.Table, keys: list[str],
                  sums: dict[str, str]) -> pa.Table:
    """Map-side combiner: one row per key-combo IN THIS BATCH with the
    partial sums — the shuffle then moves O(unique keys per batch) rows
    instead of every input row; the final groupby sums partials (exact
    for integer sums, order-independent)."""
    import pandas as pd

    df = batch.select(list(keys) + list(sums)).to_pandas()
    # dropna=False: SQL GROUP BY keeps NULL groups; pandas' default
    # dropna=True would silently discard rows with a null key
    out = (df.groupby(keys, sort=False, as_index=False, dropna=False)
           .agg({c: "sum" for c in sums})
           .rename(columns=sums))
    return pa.Table.from_pandas(out, preserve_index=False)


# ---------------- SQL-oracle-backed entries ----------------

def term_counts(sf_dir: str):
    """(term, cf): collection frequency — per-batch partial sums then a
    groupby-sum over the partials (the shuffle carries one row per
    distinct term per batch, not one per posting)."""
    partial = _postings_ds(sf_dir).map_batches(
        lambda b: _partial_sums(b, ["term"], {"tf": "cf"}),
        batch_format="pyarrow")
    return partial.groupby("term").aggregate(Sum("cf", alias_name="cf"))


def term_df(sf_dir: str):
    """(term, df): document frequency. (doc, term) pairs are unique
    across the dataset (one tokenize pass per doc), so per-batch partial
    row counts sum to the exact df."""
    def partial(b: pa.Table) -> pa.Table:
        ones = b.select(["term"]).append_column(
            "n", pa.array(np.ones(b.num_rows, dtype=np.int64)))
        return _partial_sums(ones, ["term"], {"n": "df"})

    return (_postings_ds(sf_dir)
            .map_batches(partial, batch_format="pyarrow")
            .groupby("term").aggregate(Sum("df", alias_name="df")))


def heavy_terms(sf_dir: str):
    """Heavy hitters with certified completeness: terms covering ≥0.1%
    of all kept token occurrences, EXACT counts — Misra-Gries candidate
    summaries (≤4000 rows shuffled per batch) + one exact rescoring
    pass over the broadcast candidate set. No full term shuffle."""
    from ..functions.sketches import heavy_hitters_exact

    return heavy_hitters_exact(_postings_ds(sf_dir), "term",
                               weight_col="tf", threshold_frac=0.001,
                               k=4000)


TA_SHARDS, TA_SHARD_SIZE, TA_K = 4, 5, 5


def terms_agg_shard_error(sf_dir: str):
    """ES terms aggregation with its REAL distributed semantics: each
    shard reports only its local top ``shard_size`` terms by df, the
    coordinator sums the received partial dfs (an undercount when a
    term misses some shard's cut — that's ES's documented
    approximation) and bounds the miss per term with
    ``doc_count_error_upper_bound`` = Σ over non-reporting shards of
    that shard's LAST reported df. Deterministic here because the
    shard assignment is the index's own hash spread (shard_of), so the
    whole protocol — cuts, undercounts, error bounds — is
    SQL-oracle-able. One (term, shard) partial-sums reduce, a per-shard
    map_groups cut (vocab-bounded groups), and a ≤ S·shard_size-row
    driver merge."""
    from ..schema import shard_of

    def part(b: pa.Table) -> pa.Table:
        # (doc, term) rows are unique → row counts are exact dfs
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        t = pa.table({
            "term": b["term"].combine_chunks(),
            "shard": shard_of(ids, TA_SHARDS).astype(np.int64),
            "df": np.ones(b.num_rows, dtype=np.int64),
        })
        return _partial_sums(t, ["term", "shard"], {"df": "df"})

    def shard_cut(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["term"].to_numpy(dtype=object),
                            -g["df"].to_numpy()))
        top = g.iloc[order[:TA_SHARD_SIZE]].copy()
        cut = int(top["df"].iloc[-1]) if len(g) >= TA_SHARD_SIZE else 0
        top["cut"] = np.int64(cut)
        return top[["shard", "term", "df", "cut"]]

    rep = (_postings_ds(sf_dir)
           .map_batches(part, batch_format="pyarrow")
           .groupby(["term", "shard"]).aggregate(Sum("df", alias_name="df"))
           .groupby("shard").map_groups(shard_cut, batch_format="pandas")
           .to_pandas())  # ≤ S · shard_size rows
    cuts = rep.drop_duplicates("shard").set_index("shard")["cut"]
    agg = (rep.groupby("term", sort=True)
           .agg(df_sum=("df", "sum"),
                reporters=("shard", lambda s: set(s))))
    err = [int(sum(cuts[s] for s in cuts.index
                   if s not in r.reporters))
           for r in agg.itertuples()]
    agg["err"] = err
    order = np.lexsort((np.array(agg.index, dtype=object),
                        -agg["df_sum"].to_numpy()))[:TA_K]
    out = agg.iloc[order]
    return pa.table({
        "term": pa.array(list(out.index), pa.string()),
        "df_sum": pa.array(out["df_sum"].to_numpy(np.int64)),
        "err_bound": pa.array(out["err"].to_numpy(np.int64)),
        "rank": pa.array(np.arange(1, len(out) + 1, dtype=np.int64)),
    })


RARE_K = 10


def rare_terms_agg(sf_dir: str):
    """ES ``rare_terms`` aggregation readout: the K terms with the
    LOWEST document frequency (df asc, term asc) — the long tail a
    terms-agg top-df cut structurally hides. df comes from the exact
    partial-sums reduce (term_df); the rank runs on the vocab-bounded
    aggregate (≤ |vocab| rows on the driver)."""
    df = term_df(sf_dir).to_pandas()  # vocab-bounded
    order = np.lexsort((df["term"].to_numpy(dtype=object),
                        df["df"].to_numpy(np.int64)))[:RARE_K]
    out = df.iloc[order]
    return pa.table({
        "term": pa.array(out["term"].to_numpy(dtype=object), pa.string()),
        "df": pa.array(out["df"].to_numpy(np.int64)),
        "rank": pa.array(np.arange(1, len(out) + 1, dtype=np.int64)),
    })


def token_stats(sf_dir: str):
    """(doc_id, n_tokens, n_kept, stopword_ratio_micros) per doc."""
    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(token_stats_batch, batch_format="pyarrow"))


def corpus_stats(sf_dir: str):
    """One row: n_docs (≥1 kept token), total_len, avgdl_micros."""
    ts = token_stats(sf_dir).map_batches(
        lambda b: b.filter(pc.greater(b["n_kept"], 0)), batch_format="pyarrow")
    agg = ts.aggregate(Sum("n_kept", alias_name="total_len"),
                       Count(alias_name="n_docs"))
    n, tot = int(agg["n_docs"]), int(agg["total_len"])
    return pa.table({
        "n_docs": pa.array([n], pa.int64()),
        "total_len": pa.array([tot], pa.int64()),
        "avgdl_micros": pa.array([to_micros(tot / n)], pa.int64()),
    })


DECAY_ORIGIN, DECAY_DENOM = 300.0, 600.0


def decay_search(sf_dir: str):
    """Decay function-score (ES ``function_score`` gauss/exp/linear
    family, ``boost_mode: multiply``): combined = bm25 · max(0, 1 -
    |n_chars - 300|/600) — a LINEAR decay prior centered on an origin
    doc-value (recency/recentness at scale; length here). Linear decay
    is chosen over exp/gauss deliberately: the factor is pure rational
    arithmetic, so Ray and DuckDB agree bitwise with no transcendental
    1-ulp hazard. Rides the multiplicative feature path
    (search_feature_scale); missing doc-values keep factor 1.0."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "n_chars"])
    nc = t["n_chars"].to_numpy().astype(np.float64)
    factor = np.maximum(0.0, 1.0 - np.abs(nc - DECAY_ORIGIN) / DECAY_DENOM)
    res = eng.search_feature_scale(
        BM25_QUERY, 10, feature_ids=t["doc_id"].to_numpy(),
        feature_vals=factor)
    return _hits_table(res)


def collapse_search(sf_dir: str):
    """Field-collapsed top-10 (ES ``collapse`` analog): at most ONE hit
    per ``source`` — result diversification over the collapse key, here
    the docs table's source column (a doc-values sidecar at scale).
    Rank all matches, keep each source's best (score desc, doc_id asc),
    return the global top-10 survivors."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "source"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    src = np.asarray(t["source"])
    order = np.argsort(ids)
    ids, src = ids[order], src[order]
    uniq, codes = np.unique(src, return_inverse=True)
    res = eng.search_collapse(BM25_QUERY, 10, group_ids=ids,
                              group_codes=codes.astype(np.int64))
    return _hits_table((d, s) for d, _, s in res).add_column(
        1, "source", pa.array([str(uniq[g]) if g >= 0 else ""
                               for _, g, _ in res], pa.string()))


FEATURE_BOOST_W = 0.25


def feature_boost_search(sf_dir: str):
    """Function-score search (Lucene FunctionScoreQuery / ES
    function_score additive analog): combined = bm25 + 0.25·ln(1+n_chars)
    — a static doc-value prior (here: document length in chars) folded
    into ranking at query time. The feature column is a column-pruned
    read of the docs table; at scale it is the doc-values sidecar."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "n_chars"])
    feat = np.log(1.0 + t["n_chars"].to_numpy().astype(np.float64))
    res = eng.search_feature_boost(
        BM25_QUERY, 10, feature_ids=t["doc_id"].to_numpy(),
        feature_vals=feat, weight=FEATURE_BOOST_W)
    return _hits_table(res)


MSEARCH_QUERIES = [BM25_QUERY, "hash table scan",
                   "filter group agg", "spark data vector"]


def msearch(sf_dir: str):
    """Batched multi-query search (the Elasticsearch ``_msearch``
    surface): one engine call ranks the whole query batch — the term
    caches are shared across queries (a term repeated across the batch
    is read and decoded once), and on the sharded engine the identical
    batch rides ONE RPC per worker (ShardedQueryEngine.search_many).
    Output is every query's top-10, keyed by query_id."""
    eng = _index_for(sf_dir)
    return pa.concat_tables(
        _hits_table(hits).add_column(
            0, "query_id", pa.array(np.full(len(hits), qi, np.int64)))
        for qi, hits in enumerate(eng.search_many(MSEARCH_QUERIES, 10)))


TOPHITS_PER_GROUP = 2


def top_hits_by_label(sf_dir: str):
    """Grouped top hits (the ES terms-agg + ``top_hits`` shape): for
    EVERY lang bucket, its best 2 matching docs by BM25 — the "top
    results per category" surface. Rides search_collapse(per_group=2)
    with k = the full corpus: the survivor set is bounded by n_groups ×
    per_group, never by corpus size. At scale each sharded worker
    returns its local per-group top-2 and the driver re-collapses —
    exact, because a group's global best-2 are each some worker's local
    best-2 (the search_collapse docstring argument)."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "lang"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    langs = np.asarray(t["lang"])
    order = np.argsort(ids)
    ids, langs = ids[order], langs[order]
    uniq, codes = np.unique(langs, return_inverse=True)
    res = eng.search_collapse(BM25_QUERY, len(ids), group_ids=ids,
                              group_codes=codes.astype(np.int64),
                              per_group=TOPHITS_PER_GROUP)
    # collapse emits in global rank order, so a group's hits arrive
    # score desc / doc asc — group_rank is the per-group running count
    seen: dict[int, int] = {}
    rows = []
    for d, g, s in res:
        gr = seen.get(g, 0) + 1
        seen[g] = gr
        rows.append((str(uniq[g]), d, to_micros(s), gr))
    rows.sort(key=lambda r: (r[0], r[3]))
    return pa.table({
        "lang": pa.array([r[0] for r in rows], pa.string()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score_micros": pa.array([r[2] for r in rows], pa.int64()),
        "group_rank": pa.array([r[3] for r in rows], pa.int64()),
    })


RANK_FEATURE_W, RANK_FEATURE_PIVOT = 1.5, 300.0


def rank_feature_search(sf_dir: str):
    """Rank-feature scoring (the ES ``rank_feature`` query's saturation
    function): combined = bm25 + 1.5 · nc/(nc + 300) — a bounded
    monotone doc-value prior (saturates toward 1.0, so an enormous doc
    can never drown the text score). The saturation member is chosen
    because it is pure rational arithmetic — no transcendental 1-ulp
    hazard between engines. Rides the proven additive feature path
    (search_feature_boost)."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "n_chars"])
    nc = t["n_chars"].to_numpy().astype(np.float64)
    sat = nc / (nc + RANK_FEATURE_PIVOT)
    res = eng.search_feature_boost(
        BM25_QUERY, 10, feature_ids=t["doc_id"].to_numpy(),
        feature_vals=sat, weight=RANK_FEATURE_W)
    return _hits_table(res)


CHUNK_W, CHUNK_S = 16, 8  # window / stride in kept tokens (overlap 8)


def chunk_documents(sf_dir: str):
    """Sliding-window document chunking — the RAG / pretraining
    context-window splitter: each doc becomes overlapping chunks of
    CHUNK_W kept tokens at stride CHUNK_S (chunk c covers kept-token
    positions [c·S, c·S + W)); the last chunk may be short, docs with
    zero kept tokens emit nothing. n_chunks = 1 + max(0, ⌈(n−W)/S⌉),
    identical integer formula both engines. Delegates to the reusable
    library op (functions/training_export.chunk_dataset — map-side, one
    flat range-gather + list-join per batch)."""
    from ..functions.training_export import chunk_dataset

    return chunk_dataset(
        rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"]),
        width=CHUNK_W, stride=CHUNK_S)


PASSAGE_STRIDE_IDS = 64  # pid = doc_id * 64 + chunk_id (chunk_id < 64)


def passage_search(sf_dir: str):
    """Passage-level retrieval — the RAG serving story end-to-end:
    the corpus is CHUNKED (chunk_documents's sliding windows), a BM25
    index is built over the passages (pid = doc_id·64 + chunk_id; the
    chunk corpus defines its own n_docs/avgdl/df), and documents are
    ranked by their best passage (max-passage aggregation, the
    BERT-era passage-scoring convention). The full matched passage set
    rides export_matches (scores bitwise == search); the per-doc max
    is a vectorized driver fold over the bounded matched set — at
    scale, per-shard exports feed a partial-max combine. Oracle: the
    bm25 chain over a chunks CTE (the chunk_documents mirror), max per
    pid // 64."""
    from ..functions.training_export import chunk_dataset

    chunks_dir = _cache_dir(sf_dir, "chunks")

    def _build_passages(index_dir: str) -> None:
        shutil.rmtree(chunks_dir, ignore_errors=True)  # heal partials

        def with_pid(b: pa.Table) -> pa.Table:
            pid = (np.asarray(b["doc_id"].combine_chunks()
                              ).astype(np.int64) * PASSAGE_STRIDE_IDS
                   + np.asarray(b["chunk_id"].combine_chunks()
                                ).astype(np.int64))
            if (np.asarray(b["chunk_id"].combine_chunks()).astype(np.int64)
                    >= PASSAGE_STRIDE_IDS).any():
                raise ValueError("chunk_id >= 64 breaks pid packing")
            return pa.table({"pid": pa.array(pid, pa.int64()),
                             "chunk_text": b["chunk_text"]})

        (chunk_dataset(
            rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"]),
            width=CHUNK_W, stride=CHUNK_S)
         .map_batches(with_pid, batch_format="pyarrow")
         .write_parquet(chunks_dir))
        build_index(chunks_dir, index_dir, content_col="chunk_text",
                    id_col="pid", num_shards=4)

    eng = QueryEngine(_cached(sf_dir, "index_passages", _build_passages))
    pids, scores = eng.export_matches(BM25_QUERY)
    docs = pids // PASSAGE_STRIDE_IDS
    # per-doc max over the matched passages (docs is sorted — pids are)
    starts = np.flatnonzero(np.diff(np.concatenate(([-1], docs))))
    best = np.maximum.reduceat(scores, starts) if len(scores) else scores
    udocs = docs[starts] if len(docs) else docs
    # rank on MICROS: per-passage sums can differ by 1 ulp across
    # engines (NOTES rule 9 — never sort cross-engine on a raw float);
    # the micros rounding absorbs the gap, doc_id breaks ties
    bm = to_micros(best) if len(best) else best.astype(np.int64)
    order = np.lexsort((udocs, -bm))[:10]
    return _hits_table(zip(udocs[order], best[order]))


TITLE_K, FIELD_W_TITLE, FIELD_W_BODY = 8, 2.0, 1.0

_fielded_engines: dict[str, tuple[QueryEngine, QueryEngine]] = {}


def _take_ranges(begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Flat int64 indices covering [begin[i], end[i]) for every i, in
    order — codec.gather_ranges."""
    from ..codec import gather_ranges

    return gather_ranges(begin, end)


def _field_split_batch(batch: pa.Table) -> pa.Table:
    """Derive (title_text, body_text) per doc: title = first TITLE_K
    kept tokens, body = the rest. Tokens are already clean (lowercase
    alnum, no stopwords), so re-tokenizing the space-joined field text
    reproduces them exactly — the field indexes see the same terms the
    SQL mirror slices out of doc_toks."""
    flat, _, doc_lens = tokenize_array(batch["text"])
    starts = np.concatenate(([0], np.cumsum(doc_lens))).astype(np.int64)
    tstop = np.minimum(starts[:-1] + TITLE_K, starts[1:])

    def join_spans(begin, end):
        idx = _take_ranges(begin, end)
        vals = flat.take(pa.array(idx, pa.int64()))
        offs = np.concatenate(([0], np.cumsum(end - begin))).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), vals)
        return pc.binary_join(lists, " ")

    return pa.table({
        "doc_id": batch["doc_id"],
        "title_text": join_spans(starts[:-1], tstop),
        "body_text": join_spans(tstop, starts[1:]),
    })


def _fielded_for(sf_dir: str) -> tuple[QueryEngine, QueryEngine]:
    """Two per-field BM25 indexes (title = first TITLE_K kept tokens,
    body = rest), built once per sf_dir from a derived fields table.
    Each field index has its own n_docs/avgdl/df over docs where that
    field is non-empty (the build's empty-doc filter), exactly like the
    SQL mirror's per-field CTE chains."""
    if sf_dir not in _fielded_engines:
        fields_dir = _cached(
            sf_dir, "fields", lambda path:
            rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(_field_split_batch, batch_format="pyarrow")
            .write_parquet(path))
        engines = []
        for field in ("title", "body"):
            idx_dir = _cache_dir(sf_dir, f"index_{field}")
            _ensure_built(
                os.path.join(idx_dir, "stats.json"),
                lambda idx_dir=idx_dir, field=field: build_index(
                    fields_dir, idx_dir, content_col=f"{field}_text",
                    id_col="doc_id", num_shards=4))
            engines.append(QueryEngine(idx_dir))
        _fielded_engines[sf_dir] = tuple(engines)
    return _fielded_engines[sf_dir]


def fielded_search(sf_dir: str):
    """Fielded retrieval (the Elasticsearch multi-field ``title^2 body``
    analog): score = 2.0·BM25_title + 1.0·BM25_body, each field scored
    against its own index (own n_docs/avgdl/df). Missing fields
    contribute 0.0 in the same expression order as the SQL mirror's
    FULL OUTER JOIN + coalesce. At scale the per-field exhaustive
    accumulators would merge inside one engine; entry-level composition
    keeps the two-index lifecycle (build, append, compact) per field."""
    et, eb = _fielded_for(sf_dir)
    st = dict(et.search(BM25_QUERY, len(et.doclens.ids),
                        method="exhaustive"))
    sb = dict(eb.search(BM25_QUERY, len(eb.doclens.ids),
                        method="exhaustive"))
    scores = {d: FIELD_W_TITLE * st.get(d, 0.0) + FIELD_W_BODY * sb.get(d, 0.0)
              for d in set(st) | set(sb)}
    top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return _hits_table(top)


DISMAX_TIE = 0.3


def dismax_search(sf_dir: str):
    """Dis-max / best-fields retrieval (the Lucene DisjunctionMaxQuery
    analog over the title/body field split): per doc, combined =
    max(title, body) + tie·(title + body - max) with missing fields
    coalesced to 0.0 — the best-matching field dominates, the other
    contributes tie_breaker-weighted. Same per-field engines (own
    n_docs/avgdl/df) as fielded_search; identical float expression
    order to the SQL mirror's greatest() form."""
    et, eb = _fielded_for(sf_dir)
    st = dict(et.search(BM25_QUERY, len(et.doclens.ids),
                        method="exhaustive"))
    sb = dict(eb.search(BM25_QUERY, len(eb.doclens.ids),
                        method="exhaustive"))
    scores = {}
    for d in set(st) | set(sb):
        t, b = st.get(d, 0.0), sb.get(d, 0.0)
        mx = max(t, b)
        scores[d] = mx + DISMAX_TIE * (t + b - mx)
    top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return _hits_table(top)


BM25F_WT, BM25F_WB, BM25F_K1, BM25F_B = 2.0, 1.0, 1.2, 0.75


def bm25f_search(sf_dir: str):
    """True BM25F (Robertson & Zaragoza 2004) over the title/body field
    split: per-field tfs are weight-scaled and length-normalized FIRST
    (each field's own dl and avgdl), the combined pseudo-frequency
    saturates ONCE through the shared k1 curve, and idf is
    DOCUMENT-level (df = |title ∪ body postings| = whole-doc df;
    n_docs = the title engine's count — every doc with ≥1 kept token
    has a non-empty title). This is the third fielded combiner next to
    fielded_search (per-field BM25 sum → double saturation) and
    dismax_search (best field wins): BM25F is the principled one — a
    term spread across fields can't saturate twice. Composed from raw
    ``term_postings`` (the cached idf-free parts bake in single-field
    normalization, so BM25F can't reuse them). Float expression order
    matches bm25f_topk_sql term for term: wt·(tf_t/norm_t) +
    wb·(tf_b/norm_b) with a missing field contributing exactly 0.0,
    then idf·((k1+1)·wtf/(wtf+k1)), accumulated in sorted-term order.
    At 100 TB the same math runs inside one engine whose segments carry
    per-field tf columns; entry-level composition keeps the two-index
    lifecycle per field (SCALE.md)."""
    et, eb = _fielded_for(sf_dir)
    terms = sorted(set(clean_query(BM25_QUERY)))
    n_docs = float(len(et.doclens.ids))

    def aligned(ids: np.ndarray, tfs: np.ndarray, u: np.ndarray
                ) -> np.ndarray:
        """tf per union doc, 0.0 where the doc lacks the term (sorted
        membership probe — the coalesce(tf/norm, 0.0) left operand)."""
        out = np.zeros(u.size, np.float64)
        if ids.size:
            pos = np.searchsorted(ids, u)
            ok = pos < ids.size
            safe = np.where(ok, pos, 0)
            m = ok & (ids[safe] == u)
            out[m] = tfs[safe[m]]
        return out

    acc = np.zeros(len(et.doclens.ids), np.float64)
    hit = np.zeros(len(et.doclens.ids), bool)
    for t in terms:  # sorted → deterministic accumulation order
        it, ft = et.term_postings(t)
        ib, fb = eb.term_postings(t)
        union = np.union1d(it, ib)
        if union.size == 0:
            continue
        df = float(union.size)
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        tft = aligned(it, ft, union)
        tfb = aligned(ib, fb, union)
        dlt = et.doclens.lookup(union).astype(np.float64)
        # body dl only exists for docs with > TITLE_K tokens; where it
        # is missing tf_b is necessarily 0, so a 0.0 stand-in keeps the
        # body contribution exactly 0.0 (0.0/0.25) — the SQL coalesce.
        posb = np.searchsorted(eb.doclens.ids, union)
        okb = posb < eb.doclens.ids.size
        safeb = np.where(okb, posb, 0)
        memb = okb & (eb.doclens.ids[safeb] == union)
        dlb = np.zeros(union.size, np.float64)
        dlb[memb] = eb.doclens.lens[safeb[memb]].astype(np.float64)
        wtf = (BM25F_WT * (tft / (1.0 - BM25F_B
                                  + BM25F_B * (dlt / et.avgdl)))
               + BM25F_WB * (tfb / (1.0 - BM25F_B
                                    + BM25F_B * (dlb / eb.avgdl))))
        contrib = idf * ((BM25F_K1 + 1.0) * wtf / (wtf + BM25F_K1))
        didx = np.searchsorted(et.doclens.ids, union)
        acc[didx] += contrib
        hit[didx] = True
    m = np.flatnonzero(hit)
    top = sorted(((int(et.doclens.ids[i]), float(acc[i])) for i in m),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    return _hits_table(top)


XF_WT, XF_WB = 2.0, 1.0


def cross_fields_search(sf_dir: str):
    """Cross-fields multi_match (the ES ``cross_fields`` / Lucene
    BlendedTermQuery analog) — the TERM-CENTRIC fielded combiner: for
    each query term the doc's contribution is idf_blend · max(wt·part_t,
    wb·part_b) — the term's BEST field wins per term (vs dismax where
    the best field wins per QUERY, and fielded/bm25f where fields sum).
    idf is blended as the MAX per-field df (the BlendedTermQuery df
    blend), so a term common in titles but rare in bodies is weighted
    by its commonest exposure. part_f is the standard per-field bm25 tf
    saturation; a missing field contributes exactly 0.0. Float
    expression order matches cross_fields_topk_sql term for term."""
    et, eb = _fielded_for(sf_dir)
    terms = sorted(set(clean_query(BM25_QUERY)))
    n_docs = float(len(et.doclens.ids))

    def aligned(ids: np.ndarray, tfs: np.ndarray, u: np.ndarray
                ) -> np.ndarray:
        out = np.zeros(u.size, np.float64)
        if ids.size:
            pos = np.searchsorted(ids, u)
            ok = pos < ids.size
            safe = np.where(ok, pos, 0)
            m = ok & (ids[safe] == u)
            out[m] = tfs[safe[m]]
        return out

    acc = np.zeros(len(et.doclens.ids), np.float64)
    hit = np.zeros(len(et.doclens.ids), bool)
    for t in terms:  # sorted → deterministic accumulation order
        it, ft = et.term_postings(t)
        ib, fb = eb.term_postings(t)
        union = np.union1d(it, ib)
        if union.size == 0:
            continue
        df = float(max(it.size, ib.size))  # BlendedTermQuery max-df
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        tft = aligned(it, ft, union)
        tfb = aligned(ib, fb, union)
        dlt = et.doclens.lookup(union).astype(np.float64)
        posb = np.searchsorted(eb.doclens.ids, union)
        okb = posb < eb.doclens.ids.size
        safeb = np.where(okb, posb, 0)
        memb = okb & (eb.doclens.ids[safeb] == union)
        dlb = np.zeros(union.size, np.float64)
        dlb[memb] = eb.doclens.lens[safeb[memb]].astype(np.float64)
        # per-field bm25 saturation; tf=0 rows divide 0/norm -> exact 0.0
        part_t = ((BM25F_K1 + 1.0) * tft
                  / (tft + BM25F_K1 * (1.0 - BM25F_B
                                       + BM25F_B * (dlt / et.avgdl))))
        part_b = ((BM25F_K1 + 1.0) * tfb
                  / (tfb + BM25F_K1 * (1.0 - BM25F_B
                                       + BM25F_B * (dlb / eb.avgdl))))
        contrib = idf * np.maximum(XF_WT * part_t, XF_WB * part_b)
        didx = np.searchsorted(et.doclens.ids, union)
        acc[didx] += contrib
        hit[didx] = True
    m = np.flatnonzero(hit)
    top = sorted(((int(et.doclens.ids[i]), float(acc[i])) for i in m),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    return _hits_table(top)


PRF_FB_DOCS, PRF_FB_TERMS, PRF_BETA = 5, 3, 0.4


def _sf_text_lookup(sf_dir: str):
    """text_lookup for search_prf: doc_id-pushdown read of the source
    documents table (the docs sidecar stores metadata, not content)."""
    def lookup(doc_ids):
        t = pq.read_table(_docs(sf_dir), columns=["doc_id", "text"],
                          filters=[("doc_id", "in", list(doc_ids))])
        return dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    return lookup


def prf_expansion(sf_dir: str):
    """The PRF expansion terms themselves (stage 2 of prf_search), with
    their feedback weights — oracled by the cw/expn CTE chain."""
    eng = _index_for(sf_dir)
    ranked = eng.prf_expansion_terms(BM25_QUERY, fb_docs=PRF_FB_DOCS,
                                     fb_terms=PRF_FB_TERMS,
                                     text_lookup=_sf_text_lookup(sf_dir))
    return pa.table({
        "term": pa.array([t for t, _ in ranked], pa.string()),
        "weight_micros": pa.array([w for _, w in ranked], pa.int64()),
    })


def score_explain(sf_dir: str):
    """Per-term BM25 breakdown (QueryEngine.explain) for the fixed
    query's top-1 doc — the serving-engine "why did this doc rank
    here?" surface. Contributions accumulate in the scorer's own order,
    so their micros match the SQL mirror's per-term expression exactly
    (same float expression order as bm25_topk's hash-green chain)."""
    eng = _index_for(sf_dir)
    doc_id = eng.search(BM25_QUERY, 1, method="exhaustive")[0][0]
    ex = eng.explain(BM25_QUERY, doc_id)
    ts = ex["terms"]
    return pa.table({
        "term": pa.array([t["term"] for t in ts], pa.string()),
        "doc_id": pa.array([doc_id] * len(ts), pa.int64()),
        "df": pa.array([t["df"] for t in ts], pa.int64()),
        "tf": pa.array([t["tf"] for t in ts], pa.int64()),
        "contribution_micros": pa.array(
            [to_micros(t["contribution"]) for t in ts], pa.int64()),
    })


TV_DOC_ID = 7


def term_vectors(sf_dir: str):
    """Per-doc term statistics (the Elasticsearch ``_termvectors``
    analog) for one fixed doc: every kept term with its tf, corpus df,
    and exact BM25 score contribution for that doc. The doc is
    re-analyzed from the doc store (one pushed-down row read — ES does
    the same for stored fields); df comes from the INDEX's alive
    postings (term_doc_ids), so contributions are bitwise the engine's
    own idf·part chain — a query of exactly these terms scores this
    doc as their sum."""
    from ..codec import bm25_tf_part
    from ..build import idf as idf_fn

    eng = _index_for(sf_dir)
    row = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"],
                           filter=pads.field("doc_id") == TV_DOC_ID)
           .take_all())  # bounded: exactly one doc
    tf_obj = term_frequencies(pa.chunked_array(
        [pa.array([r["text"] for r in row], pa.string())]))
    tf_map = dict(zip(tf_obj.terms.to_pylist(),
                      tf_obj.tf.astype(np.int64).tolist()))
    terms = sorted(tf_map)
    dl = np.array([eng.doclens.lookup_one(TV_DOC_ID)], np.float64)
    out_tf, out_df, out_c = [], [], []
    for t in terms:
        df = int(eng.term_doc_ids(t).size)
        part = bm25_tf_part(np.array([tf_map[t]], np.int64), dl,
                            eng.avgdl, eng.k1, eng.b)[0]
        out_tf.append(tf_map[t])
        out_df.append(df)
        out_c.append(to_micros(idf_fn(eng.n_docs, df) * part))
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "tf": pa.array(out_tf, pa.int64()),
        "df": pa.array(out_df, pa.int64()),
        "contrib_micros": pa.array(out_c, pa.int64()),
    })


def docstore_join(sf_dir: str):
    """Top-k ids joined back to the doc-store (J1/J2 analog): broadcast
    semi-join of the small result set against the documents table."""
    eng = _index_for(sf_dir)
    res = eng.search(BM25_QUERY, 10, method="bmax")
    scores = {d: to_micros(s) for d, s in res}

    def attach(batch: pa.Table) -> pa.Table:
        sm = [scores[d] for d in batch["doc_id"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "source": batch["source"],
            "score_micros": pa.array(sm, pa.int64()),
        })

    # doc_id IN (...) pushed into the parquet read (row-group pruning),
    # same pattern as QueryEngine.get_docs — not a full-table scan
    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "lang", "source"],
                            filter=pads.field("doc_id").isin(list(scores)))
            .map_batches(attach, batch_format="pyarrow"))


def exact_dedup(sf_dir: str):
    """(content_hash, keep_id, n_dups) per distinct text."""
    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return exact_dedup_groups(ds, text_col="text", id_col="doc_id")


def bpe_token_counts(sf_dir: str):
    """Training-data token budgeting: per-doc count of GPT-2-style
    pre-tokenizer matches (lookahead-free RE2 pattern — pyarrow and
    DuckDB count it identically, so the oracle is exact)."""
    from ..functions.textstats import bpe_token_counts_batch

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(bpe_token_counts_batch, batch_format="pyarrow"))


def simhash_pairs(sf_dir: str):
    """SimHash near-dup PAIRS (not just signatures): 4-band pigeonhole
    candidates + exact Hamming verify. At max_hamming=3 the pigeonhole
    is exhaustive (3 flipped bits cannot touch all 4 bands), so the
    DuckDB oracle is simply ALL pairs with bit_count(xor) ≤ 3 over the
    SQL-recomputed signatures."""
    from ..functions.dedup import simhash_near_dup_pairs

    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return simhash_near_dup_pairs(ds, max_hamming=3)


def ngram_jaccard(sf_dir: str):
    """Exact token-set Jaccard ≥ 0.8 pairs — the brute-force ground
    truth the sketch paths approximate (documented oracle-scale-only).
    Jaccard is an exact double ratio of integer set sizes, so the
    DuckDB value-hash matches bit-for-bit."""
    from ..functions.dedup import ngram_jaccard_pairs

    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, threshold=0.8)


def dedup_corpus(sf_dir: str):
    """Exact dedup as a CORPUS transform: the kept rows themselves, not
    the groups table. Input = documents ∪ an id-shifted copy (so real
    duplicates exist); every original row survives (smaller id wins),
    every shifted copy drops. Output (doc_id, content_hash) for value
    comparison; drop-set discovery shuffles (hash, id) only and the
    kept rows never shuffle (broadcast drop-filter)."""
    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    shifted = ds.map_batches(
        lambda t: pa.table({"doc_id": pc.add(t["doc_id"], 1_000_000),
                            "text": t["text"]}),
        batch_format="pyarrow")
    kept = dedup_corpus_fn(ds.union(shifted), text_col="text",
                           id_col="doc_id")
    return kept.map_batches(
        lambda t: add_content_hash(t, "text").select(
            ["doc_id", "content_hash"]),
        batch_format="pyarrow")


def filter_en_long(sf_dir: str):
    """Filter + project with predicate pushdown at the read."""
    return rd.read_parquet(
        _docs(sf_dir), columns=["doc_id", "source", "n_chars"],
        filter=(pads.field("lang") == "en") & (pads.field("n_chars") >= 200))


def lang_token_totals(sf_dir: str):
    """(lang, n_docs, total_tokens): kept tokens per language — per-batch
    partials (one row per lang per batch) then a tiny groupby-sum."""
    def per_batch(batch: pa.Table) -> pa.Table:
        from ..text import tokenize_array

        _, _, kept = tokenize_array(batch["text"].combine_chunks())
        t = pa.table({"lang": batch["lang"].combine_chunks(),
                      "one": np.ones(batch.num_rows, dtype=np.int64),
                      "n_kept": kept})
        return _partial_sums(t, ["lang"], {"one": "n_docs",
                                           "n_kept": "total_tokens"})

    return (rd.read_parquet(_docs(sf_dir), columns=["lang", "text"])
            .map_batches(per_batch, batch_format="pyarrow")
            .groupby("lang")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("total_tokens", alias_name="total_tokens")))


def top_terms_per_lang(sf_dir: str):
    """Top-3 terms by count per language (cnt desc, term asc)."""
    def explode(batch: pa.Table) -> pa.Table:
        tf = term_frequencies(batch["text"].combine_chunks())
        t = pa.table({
            "lang": batch["lang"].combine_chunks().take(tf.doc_idx),
            "term": tf.terms,
            "tf": tf.tf,
        })
        # map-side combine: one row per (lang, term) per batch
        return _partial_sums(t, ["lang", "term"], {"tf": "tf"})

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["cnt", "term"], ascending=[False, True])
             .head(3).reset_index(drop=True))
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return (rd.read_parquet(_docs(sf_dir), columns=["lang", "text"])
            .map_batches(explode, batch_format="pyarrow")
            .groupby(["lang", "term"])
            .aggregate(Sum("tf", alias_name="cnt"))
            .groupby("lang")
            .map_groups(top3, batch_format="pandas"))


def events_window(sf_dir: str):
    """Tumbling 1-minute window counts/sums per event_type (streaming-shaped
    workload as groupby over (key, window))."""
    def win(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].combine_chunks().cast(pa.int64())  # microseconds
        w = pc.divide(ts, 60_000_000)
        t = pa.table({
            "event_type": batch["event_type"].combine_chunks(),
            "w": w,
            "one": np.ones(batch.num_rows, dtype=np.int64),
            "value_micros": pc_micros(batch["value"]),
        })
        # map-side combine: one row per (event_type, window) per batch
        return _partial_sums(t, ["event_type", "w"],
                             {"one": "n", "value_micros": "sum_value_micros"})

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["event_type", "ts", "value"])
            .map_batches(win, batch_format="pyarrow")
            .groupby(["event_type", "w"])
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_value_micros", alias_name="sum_value_micros")))


def lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped aggregate (generic columnar capability check)."""
    def prep(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "l_returnflag": batch["l_returnflag"].combine_chunks(),
            "l_linestatus": batch["l_linestatus"].combine_chunks(),
            "one": np.ones(batch.num_rows, dtype=np.int64),
            "qty_micros": pc_micros(batch["l_quantity"]),
            "price_micros": pc_micros(batch["l_extendedprice"]),
        })
        # map-side combine: the shuffle carries ~6 rows per batch
        return _partial_sums(t, ["l_returnflag", "l_linestatus"],
                             {"qty_micros": "sum_qty_micros",
                              "price_micros": "sum_price_micros",
                              "one": "count_order"})

    return (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_returnflag", "l_linestatus",
                                     "l_quantity", "l_extendedprice"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("sum_qty_micros", alias_name="sum_qty_micros"),
                       Sum("sum_price_micros", alias_name="sum_price_micros"),
                       Sum("count_order", alias_name="count_order")))


def knn_cosine(sf_dir: str):
    """Exact cosine top-10 to the vec_id=0 embedding."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    out = knn_brute_force(ds, q, k=10)
    return out.drop_columns(["query_id"])


def embedding_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs (sim ≥ 0.45 — testdata max is
    ~0.51). Runs the blocked exact path (object-store blocks, no driver
    materialize); the loose threshold forces exact semantics — for high
    thresholds use cosine_pairs_lsh."""
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    return cosine_pairs(ds, threshold=0.45)


def _hashed_cosine_top10(sf_dir: str, q_text: str) -> pd.DataFrame:
    """Exact cosine top-10 of the hash-encoded corpus to an encoded query
    text: dot / (n_doc · n_q) over UNNORMALIZED integer-valued
    feature-hash vectors — exact in float64 and summation-order-
    independent, so the DuckDB mirror matches bit-for-bit. Zero-norm
    docs excluded. Returns (doc_id, sim) sorted sim DESC, doc_id ASC."""
    import ray

    from ..functions.embedding import HashedTextEncoder
    from ..functions.topk import topk_desc_tiebreak

    DIM = 64
    enc = HashedTextEncoder(DIM, normalize=False)
    q = enc.encode_texts([q_text])[0]
    nq = float(np.sqrt((q * q).sum()))
    if nq == 0.0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "sim": pd.Series([], dtype=np.float64)})
    q_ref = ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        if len(ids) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        mat = np.asarray(batch["embedding"].combine_chunks().flatten()
                         ).reshape(-1, DIM)
        dots = mat @ qv
        norms = np.sqrt((mat * mat).sum(axis=1))
        keep = norms > 0
        sim = dots[keep] / (norms[keep] * nq)
        kk = min(10, int(keep.sum()))
        if kk == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        # deterministic tie-break (sim desc, doc_id asc) — exact integer
        # dot ratios tie across duplicate texts, and the oracle's
        # ORDER BY sim DESC, doc_id ASC must survive the batch cutoff;
        # argpartition + tie widening keeps the cut O(n)
        top = topk_desc_tiebreak(ids[keep], sim, 10)
        return pa.table({"doc_id": ids[keep][top], "sim": sim[top]})

    parts = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
             .map_batches(HashedTextEncoder, batch_format="pyarrow",
                          batch_size=256, concurrency=2,
                          fn_constructor_kwargs={"dim": DIM,
                                                 "normalize": False})
             .map_batches(score, batch_format="pyarrow")
             .to_pandas())
    return parts.sort_values(["sim", "doc_id"],
                             ascending=[False, True]).head(10)


def text_knn(sf_dir: str):
    """Raw text → hashed embedding (F2–F5 encoder, actor pool) → exact
    cosine top-10 to doc 0's text (see _hashed_cosine_top10)."""
    q_tbl = pq.read_table(_docs(sf_dir), filters=[("doc_id", "=", 0)],
                          columns=["text"])
    parts = _hashed_cosine_top10(sf_dir, q_tbl["text"][0].as_py())
    return pa.table({
        "doc_id": pa.array(parts["doc_id"].to_numpy(), pa.int64()),
        "sim_micros": pa.array(to_micros(parts["sim"].to_numpy()), pa.int64()),
        "rank": pa.array(np.arange(1, len(parts) + 1), pa.int64()),
    })


def _rrf_fuse(rank_maps: list[dict], k: int = 10,
              rrf_k: int = 60) -> pa.Table:
    """Reciprocal-rank fusion over any number of leg rank maps, in the
    GIVEN leg order (the float sum order both oracles mirror):
    rrf(d) = Σ_leg coalesce(1/(rrf_k + r_leg(d)), 0)."""
    docs = sorted(set().union(*rank_maps))
    rrf = np.array([
        sum((1.0 / (rrf_k + m[d]) if d in m else 0.0)
            for m in rank_maps)
        for d in docs])
    ids = np.array(docs, dtype=np.int64)
    order = np.lexsort((ids, -rrf))[:k]
    return pa.table({
        "doc_id": pa.array(ids[order], pa.int64()),
        "rrf_micros": pa.array(to_micros(rrf[order]), pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


def rrf_hybrid(sf_dir: str):
    """Hybrid retrieval: reciprocal-rank fusion (Cormack et al. 2009,
    k=60) of the BM25 lexical top-10 and the hash-embedding cosine
    top-10 for the SAME query. Both legs are the existing distributed
    retrievers; fusion touches ≤20 rows on the driver. Exactness:
    rrf = coalesce(1/(60+r_bm25), 0) + coalesce(1/(60+r_knn), 0) —
    two IEEE divisions and one addition in fixed order, identical in
    both engines. BM25_QUERY has no repeated tokens, so the encoder's
    occurrence-weighted query vector equals the oracle's distinct-term
    qterms build."""
    bt = bm25_topk(sf_dir)
    b_rank = dict(zip(bt["doc_id"].to_pylist(), bt["rank"].to_pylist()))
    kt = _hashed_cosine_top10(sf_dir, BM25_QUERY)
    k_rank = {int(d): i + 1
              for i, d in enumerate(kt["doc_id"].to_numpy())}
    return _rrf_fuse([b_rank, k_rank])


def semantic_knn(sf_dir: str):
    """F3/F5 proper (the reference's trained-W2V capability): PPMI+SVD
    word embeddings trained as a Ray pipeline (vocab + skip-gram pair
    counts distributed; SVD at vocab scale on the driver), served by an
    actor-pool SemanticEncoder restoring the persisted artifact once
    per actor; exact cosine top-10 to doc 0's text. Learned-model
    output — not SQL-expressible, so this entry is rows-only (the
    in-repo pytest pins synonym-geometry instead)."""
    from ..functions.semantic import SemanticEncoder, train_semantic_artifact
    from ..functions.similarity import knn_brute_force

    art_dir = _cached(sf_dir, "semantic_ppmi_svd", lambda path:
                      train_semantic_artifact(
                          rd.read_parquet(_docs(sf_dir),
                                          columns=["doc_id", "text"]),
                          path, vocab_size=2000, window=4, dim=64))
    enc = SemanticEncoder(art_dir)
    q_tbl = pq.read_table(_docs(sf_dir), filters=[("doc_id", "=", 0)],
                          columns=["text"])
    q = enc.encode_texts([q_tbl["text"][0].as_py()])
    embs = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(SemanticEncoder, batch_format="pyarrow",
                         batch_size=256, concurrency=2,
                         fn_constructor_kwargs={"artifact_dir": art_dir}))
    out = knn_brute_force(embs, q, k=10, emb_col="embedding",
                          id_col="doc_id")
    return out.select(["vec_id", "sim_micros", "rank"]).rename_columns(
        ["doc_id", "sim_micros", "rank"])


def autoencoder_embed(sf_dir: str):
    """F8 proper: tied-weight linear denoising autoencoder trained by
    exact data-parallel gradient descent over the embeddings table
    (per-epoch broadcast + partial-gradient map_batches + driver
    update), with the reference's decreasing-noise curriculum (T6);
    codes served by an actor-pool encoder. Learned-model output —
    rows-only (the in-repo pytest pins gradient correctness,
    convergence and determinism)."""
    from ..functions.autoencoder import (
        AutoencoderEncoder,
        train_linear_autoencoder,
    )

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    art_dir = _cached(sf_dir, "linear_dae", lambda path:
                      train_linear_autoencoder(
                          rd.read_parquet(emb_path,
                                          columns=["vec_id", "embedding"]),
                          path, dim_out=8, epochs=12))
    return rd.read_parquet(emb_path, columns=["vec_id", "embedding"]) \
        .map_batches(AutoencoderEncoder, batch_format="pyarrow",
                     batch_size=256, concurrency=2,
                     fn_constructor_kwargs={"artifact_dir": art_dir})


def conv_autoencoder_embed(sf_dir: str):
    """The reference's CNN-autoencoder topology closed (models/
    SimpleCnnAutoencoder.py:17-77 — previously the one deliberately
    unreplicated architecture): 1-D conv encoder → ReLU → dense latent
    → linear decoder, trained by the SAME exact data-parallel GD +
    curriculum-noise machinery as the linear DAE, all NumPy (no TF in
    the sandbox — the capability, not the framework). Codes served by
    an actor-pool encoder. Learned-model output — rows-only (pytest
    pins finite-difference gradient correctness, convergence, and
    cross-run determinism via the arrival-order-proof fold)."""
    from ..functions.autoencoder import (
        ConvAutoencoderEncoder,
        train_conv_autoencoder,
    )

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    art_dir = _cached(sf_dir, "conv_dae", lambda path:
                      train_conv_autoencoder(
                          rd.read_parquet(emb_path,
                                          columns=["vec_id", "embedding"]),
                          path, dim_out=8, epochs=10))
    return rd.read_parquet(emb_path, columns=["vec_id", "embedding"]) \
        .map_batches(ConvAutoencoderEncoder, batch_format="pyarrow",
                     batch_size=256, concurrency=2,
                     fn_constructor_kwargs={"artifact_dir": art_dir})


def content_hashes(sf_dir: str):
    """Per-row sha256 invariant, driver-checkable: the engine's docs table
    (built via the full index pipeline) vs SQL sha256(text)."""
    eng = _index_for(sf_dir)
    return (rd.read_parquet(os.path.join(eng.index_dir, "docs"),
                            columns=["doc_id", "content_sha256"]))


def events_sessions(sf_dir: str):
    """Sessionization (gap > 30 min splits) per user. Users are
    hash-bucketed (32 groups) and each bucket sessionizes ALL its users
    vectorized (one sort + diff over the bucket, session starts =
    first-event-of-user OR gap>30min) — per-group scheduling cost is
    O(buckets), not O(users)."""
    GAP_US = 1_800_000_000

    def bucketize(batch: pa.Table) -> pa.Table:
        uid = np.asarray(batch["user_id"].combine_chunks()).astype(np.int64)
        return pa.table({
            "user_id": uid,
            "ts": batch["ts"].combine_chunks().cast(pa.int64()),
            "event_id": batch["event_id"].combine_chunks(),
            "__ub": pa.array(pd.util.hash_array(uid).astype(np.int64)
                             % np.int64(32)),
        })

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        first = np.concatenate(([True], uid[1:] != uid[:-1]))
        gap = np.concatenate(([0], ts[1:] - ts[:-1]))
        starts = first | (gap > GAP_US)
        out = (pd.DataFrame({"user_id": uid,
                             "n_sessions": starts.astype(np.int64)})
               .groupby("user_id", sort=False, as_index=False)
               .agg(n_sessions=("n_sessions", "sum"),
                    n_events=("n_sessions", "size")))
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["user_id", "ts", "event_id"])
            .map_batches(bucketize, batch_format="pyarrow")
            .groupby("__ub")
            .map_groups(sessions, batch_format="pandas"))


def orders_by_segment(sf_dir: str):
    """orders ⋈ customer via broadcast of the small dimension side
    (ray.put once, numpy searchsorted lookup per batch — no shuffle),
    then a grouped aggregate."""
    import ray

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    keys = np.asarray(cust["c_custkey"]).astype(np.int64)
    segs = np.asarray(cust["c_mktsegment"].to_pylist(), dtype=object)
    order = np.argsort(keys)
    ref = ray.put((keys[order], segs[order]))

    def join(batch: pa.Table) -> pa.Table:
        k, s = ray.get(ref)
        ck = np.asarray(batch["o_custkey"].combine_chunks()).astype(np.int64)
        seg = s[np.searchsorted(k, ck)]
        t = pa.table({
            "c_mktsegment": pa.array(list(seg), pa.string()),
            "one": np.ones(batch.num_rows, dtype=np.int64),
            "price_micros": pc_micros(batch["o_totalprice"]),
        })
        # map-side combine after the broadcast join: ~5 rows per batch
        return _partial_sums(t, ["c_mktsegment"],
                             {"one": "n_orders",
                              "price_micros": "total_price_micros"})

    return (rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                            columns=["o_custkey", "o_totalprice"])
            .map_batches(join, batch_format="pyarrow")
            .groupby("c_mktsegment")
            .aggregate(Sum("n_orders", alias_name="n_orders"),
                       Sum("total_price_micros", alias_name="total_price_micros")))


def orders_lineitem_join(sf_dir: str):
    """Large ⋈ large: lineitem joined to orders on the order key via the
    partitioned hash join (both sides shuffle by key hash — the path a
    broadcast can't take when neither side fits), then revenue per
    o_orderpriority. Map-side combiners shrink the post-join aggregate."""
    from ..functions.joins import hash_join

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"]).map_batches(
            lambda t: pa.table({"okey": t["o_orderkey"],
                                "o_orderpriority": t["o_orderpriority"]}),
            batch_format="pyarrow")
    lineitem = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice"]).map_batches(
            lambda t: pa.table({"okey": t["l_orderkey"],
                                "price_micros": pc_micros(t["l_extendedprice"])}),
            batch_format="pyarrow")
    # bucket count sized to the input: at bench scale per-task fixed
    # cost dominates (8 buckets measured 2.98 s vs 16 at 4.37 s,
    # sf0.1/32 cpus); at 100 TB you raise it to keep buckets ~1 GB
    joined = hash_join(lineitem, orders, on="okey", num_buckets=8)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "o_orderpriority": b["o_orderpriority"].combine_chunks(),
            "one": np.ones(b.num_rows, dtype=np.int64),
            "price_micros": b["price_micros"].combine_chunks(),
        })
        return _partial_sums(t, ["o_orderpriority"],
                             {"one": "n_items",
                              "price_micros": "revenue_micros"})

    return (joined.map_batches(partial, batch_format="pyarrow")
            .groupby("o_orderpriority")
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("revenue_micros", alias_name="revenue_micros")))


def events_asof(sf_dir: str):
    """As-of join (custom operator the Dataset API lacks): each purchase
    event matched to the user's most recent click at-or-before it; the
    output carries the GAP (int64 µs, tie-proof — equal-ts right rows
    give equal gaps, so DuckDB's arbitrary tie pick can't diverge)."""
    from ..functions.joins import asof_join

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"],
            "user_id": batch["user_id"],
            "ts": batch["ts"].combine_chunks().cast(pa.int64()),
        })

    purchases = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
        filter=pads.field("event_type") == "purchase").map_batches(
            prep, batch_format="pyarrow")
    clicks = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
        filter=pads.field("event_type") == "click").map_batches(
            prep, batch_format="pyarrow")
    joined = asof_join(purchases, clicks, by="user_id", on="ts")

    def gap(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].combine_chunks()).astype(np.int64)
        rts = np.asarray(batch["ts_r"].combine_chunks()).astype(np.int64)
        return pa.table({
            "event_id": batch["event_id"].combine_chunks().cast(pa.int64()),
            "user_id": batch["user_id"].combine_chunks().cast(pa.int64()),
            "gap_us": pa.array(ts - rts, pa.int64()),
        })

    return joined.map_batches(gap, batch_format="pyarrow")


def events_range_join(sf_dir: str):
    """Interval/range join (custom operator the Dataset API lacks):
    every (purchase, click) pair of the same user with the click within
    24 h at-or-before the purchase — one-to-many, unlike the as-of
    join's most-recent-one. Banded equality merge: no per-user
    cartesian (functions/joins.py range_join)."""
    from ..functions.joins import range_join

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"],
            "user_id": batch["user_id"],
            "ts": batch["ts"].combine_chunks().cast(pa.int64()),
        })

    purchases = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
        filter=pads.field("event_type") == "purchase").map_batches(
            prep, batch_format="pyarrow")
    clicks = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
        filter=pads.field("event_type") == "click").map_batches(
            prep, batch_format="pyarrow")
    joined = range_join(purchases, clicks, by="user_id", on="ts",
                        lower=0, upper=86_400_000_000)

    def fin(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch["ts"].combine_chunks()).astype(np.int64)
        rts = np.asarray(batch["ts_r"].combine_chunks()).astype(np.int64)
        return pa.table({
            "event_id": batch["event_id"].combine_chunks().cast(pa.int64()),
            "click_id": batch["event_id_r"].combine_chunks().cast(pa.int64()),
            "gap_us": pa.array(ts - rts, pa.int64()),
        })

    return joined.map_batches(fin, batch_format="pyarrow")


def events_rolling(sf_dir: str):
    """SQL-window-function analog (custom operator): per user ordered by
    (ts, event_id), the running total of value and the trailing-3-row
    sum — SUM() OVER (PARTITION BY user ORDER BY ... ROWS BETWEEN 2
    PRECEDING AND CURRENT ROW). One hash shuffle; each bucket computes
    all its users vectorized (functions/windows.py)."""
    from ..functions.windows import grouped_running_sums

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].combine_chunks().cast(pa.int64()),
            "user_id": batch["user_id"].combine_chunks().cast(pa.int64()),
            "ts": batch["ts"].combine_chunks().cast(pa.int64()),
            "value_micros": pc_micros(batch["value"]),
        })

    ds = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                          columns=["event_id", "user_id", "ts", "value"])
          .map_batches(prep, batch_format="pyarrow"))
    out = grouped_running_sums(ds, by="user_id", order=["ts", "event_id"],
                               value_col="value_micros", window=3)
    return out.select_columns(["event_id", "user_id", "cum_value_micros",
                               "roll3_value_micros"])


def events_lag(sf_dir: str):
    """Per-key LAG (SQL window function analog): each event paired
    with the user's previous event value (ordered by ts, event_id) —
    functions/windows.py grouped_shift, one hash-bucket shuffle, all
    keys shifted vectorized per bucket. Rows without a predecessor are
    dropped on both sides (NULL never reaches the hash compare)."""
    from ..functions.windows import grouped_shift

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].combine_chunks().cast(pa.int64()),
            "user_id": batch["user_id"].combine_chunks().cast(pa.int64()),
            "ts": batch["ts"].combine_chunks().cast(pa.int64()),
            "value_micros": pc_micros(batch["value"]),
        })

    ds = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                          columns=["event_id", "user_id", "ts", "value"])
          .map_batches(prep, batch_format="pyarrow"))
    out = grouped_shift(ds, by="user_id", order=["ts", "event_id"],
                        value_col="value_micros", periods=1)

    def fin(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch["lag_value_micros"])
        t = batch.filter(keep)
        return pa.table({
            "event_id": t["event_id"].combine_chunks(),
            "user_id": t["user_id"].combine_chunks(),
            "prev_value_micros": t["lag_value_micros"].combine_chunks()
                .cast(pa.int64()),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def lineitem_ranks(sf_dir: str):
    """The SQL rank family (row_number / rank / dense_rank / ntile /
    percent_rank / cume_dist) per supplier over quantity — all six in
    ONE hash-bucket shuffle + one vectorized pass per bucket
    (functions/windows.py grouped_ranks). Quantity travels as micros so
    tie detection is exact integer equality; (l_orderkey, l_linenumber)
    breaks ties for the deterministic row_number/ntile order."""
    from ..functions.windows import grouped_ranks

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_suppkey": batch["l_suppkey"].combine_chunks().cast(pa.int64()),
            "l_orderkey": batch["l_orderkey"].combine_chunks().cast(pa.int64()),
            "l_linenumber": batch["l_linenumber"].combine_chunks()
                .cast(pa.int64()),
            "qty_micros": pc_micros(batch["l_quantity"]),
        })

    ds = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                          columns=["l_suppkey", "l_orderkey",
                                   "l_linenumber", "l_quantity"])
          .map_batches(prep, batch_format="pyarrow"))
    return grouped_ranks(ds, by="l_suppkey", rank_cols=["qty_micros"],
                         tiebreak=["l_orderkey", "l_linenumber"], ntiles=4)


def docs_sample(sf_dir: str):
    """Deterministic hash-based 10% Bernoulli sample (shuffle-free,
    partitioning-independent, reproducible — the scale-safe way to
    sample: a random_shuffle+limit would be an all-to-all)."""
    from ..functions.dedup import md5_low64

    def keep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        h = md5_low64(np.array([str(i) for i in ids], dtype=object))
        return batch.filter(pa.array(h % np.uint64(10) == 0))

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "lang"])
            .map_batches(keep, batch_format="pyarrow"))


def lineitem_rollup(sf_dir: str):
    """GROUP BY ROLLUP analog: the finest (returnflag, linestatus)
    aggregate is computed ONCE over the data (map-side partials, one
    shuffle of per-batch combiner rows), materialized (it is tiny —
    one row per key combo), and the coarser levels re-aggregate THAT
    result — the input is never re-scanned per rollup level. Rolled-up
    key columns carry 'ALL' (both engines coalesce, so NULL-key
    ambiguity never reaches the hash compare)."""
    cols = ["l_returnflag", "l_linestatus", "sum_qty_micros", "n_items"]

    def prep(b: pa.Table) -> pa.Table:
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "l_linestatus": b["l_linestatus"].combine_chunks(),
            "sum_qty_micros": pc_micros(b["l_quantity"]),
            "n_items": np.ones(b.num_rows, dtype=np.int64),
        })
        return _partial_sums(t, ["l_returnflag", "l_linestatus"],
                             {"sum_qty_micros": "sum_qty_micros",
                              "n_items": "n_items"})

    finest = (rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"])
        .map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("sum_qty_micros", alias_name="sum_qty_micros"),
                   Sum("n_items", alias_name="n_items"))
        .materialize())

    def with_all(col: str):
        def add(t: pa.Table) -> pa.Table:
            return t.append_column(
                col, pa.array(["ALL"] * t.num_rows)).select(cols)
        return add

    lvl1 = (finest.groupby("l_returnflag")
            .aggregate(Sum("sum_qty_micros", alias_name="sum_qty_micros"),
                       Sum("n_items", alias_name="n_items"))
            .map_batches(with_all("l_linestatus"), batch_format="pyarrow"))
    tot = finest.aggregate(Sum("sum_qty_micros"), Sum("n_items"))
    lvl0 = rd.from_arrow(pa.table({
        "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
        "sum_qty_micros": pa.array([int(tot["sum(sum_qty_micros)"])],
                                   pa.int64()),
        "n_items": pa.array([int(tot["sum(n_items)"])], pa.int64()),
    }))
    lvl2 = finest.map_batches(lambda t: t.select(cols),
                              batch_format="pyarrow")
    return lvl2.union(lvl1, lvl0)


def lineitem_cube(sf_dir: str):
    """GROUP BY CUBE over (returnflag, linestatus, ship year) — 8
    grouping sets from ONE data pass: the finest aggregate is computed
    once (map-side partials + one shuffle, key-combo-sized result) and
    every coarser set re-aggregates that table
    (functions/grouping.py). Year travels as a string so 'ALL' can
    fill rolled-up levels in the same column."""
    from ..functions.grouping import cube_sets, grouping_sets

    keys = ["l_returnflag", "l_linestatus", "ship_year"]

    def prep(b: pa.Table) -> pa.Table:
        yr = pc.year(b["l_shipdate"].combine_chunks()).cast(pa.string())
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "l_linestatus": b["l_linestatus"].combine_chunks(),
            "ship_year": yr,
            "sum_price_micros": pc_micros(b["l_extendedprice"]),
            "n_items": np.ones(b.num_rows, dtype=np.int64),
        })
        return _partial_sums(t, keys, {"sum_price_micros": "sum_price_micros",
                                       "n_items": "n_items"})

    finest = (rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_shipdate",
                 "l_extendedprice"])
        .map_batches(prep, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(Sum("sum_price_micros", alias_name="sum_price_micros"),
                   Sum("n_items", alias_name="n_items"))
        .materialize())
    return grouping_sets(finest, keys, ["sum_price_micros", "n_items"],
                         cube_sets(keys))


def lineitem_semi(sf_dir: str):
    """Membership semi-join via bloom-prune + exact verify
    (functions/bloom.py): lineitem rows belonging to URGENT orders.
    The key side becomes a fixed-size broadcast bitmap regardless of
    key count; only bloom survivors enter the verify shuffle —
    verify="join" forces the at-scale path so the bench exercises it."""
    from ..functions.bloom import bloom_semi_join

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "l_linenumber": batch["l_linenumber"],
            "price_micros": pc_micros(batch["l_extendedprice"]),
        })

    big = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"]
    ).map_batches(prep, batch_format="pyarrow")
    keys = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
        filter=pads.field("o_orderpriority") == "1-URGENT"
    ).map_batches(
        lambda t: pa.table({"l_orderkey": t["o_orderkey"]}),
        batch_format="pyarrow")
    return bloom_semi_join(big, keys, on="l_orderkey", verify="join",
                           num_buckets=8)  # sized to input (see hash_join note)


def quantiles_by_type(sf_dir: str):
    """Exact per-group median WITHOUT per-group sorts: all groups
    narrow their float-bit brackets simultaneously (one stream + one
    small (group, bin) groupby per pass, ≤9 passes total regardless of
    group count/skew — functions/quantiles.py grouped_quantile_disc)."""
    from ..functions.quantiles import grouped_quantile_disc

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    t = grouped_quantile_disc(ds, "event_type", "value", 0.5)
    vals = [to_micros(v) for v in t["value"].to_pylist()]
    return pa.table({"event_type": t["event_type"],
                     "value_micros": pa.array(vals, pa.int64())})


def lineitem_anti(sf_dir: str):
    """Anti-join (SQL NOT IN): lineitem rows NOT belonging to URGENT
    orders. Bloom-inverted routing (functions/bloom.py): rows missing
    the key bitmap are guaranteed non-members and bypass the shuffle;
    only bloom hits enter the exact bucketed check — the verify
    shuffle carries ~|matches| rows, not the whole table."""
    from ..functions.bloom import bloom_anti_join

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "l_linenumber": batch["l_linenumber"],
            "price_micros": pc_micros(batch["l_extendedprice"]),
        })

    big = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"]
    ).map_batches(prep, batch_format="pyarrow")
    keys = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
        filter=pads.field("o_orderpriority") == "1-URGENT"
    ).map_batches(
        lambda t: pa.table({"l_orderkey": t["o_orderkey"]}),
        batch_format="pyarrow")
    return bloom_anti_join(big, keys, on="l_orderkey", verify="join",
                           num_buckets=8)


def user_event_pivot(sf_dir: str):
    """Pivot (wide conditional aggregate): per user, event counts by
    type as columns. Indicator columns combine map-side, so the
    shuffle carries one row per user per batch — classic pivot without
    any per-type pass over the data."""
    types = ["click", "error", "purchase", "signup", "view"]

    def partial(b: pa.Table) -> pa.Table:
        et = np.asarray(b["event_type"].combine_chunks().to_pylist(),
                        dtype=object)
        cols = {"user_id": b["user_id"].combine_chunks().cast(pa.int64())}
        for t in types:
            cols[f"n_{t}"] = pa.array((et == t).astype(np.int64))
        return _partial_sums(pa.table(cols), ["user_id"],
                             {f"n_{t}": f"n_{t}" for t in types})

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["user_id", "event_type"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("user_id")
            .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}")
                         for t in types]))


def doc_logprob(sf_dir: str):
    """Unigram-LM document scoring (the quality-scoring shape of a
    training-data pipeline): p(term) = cf/N from one aggregate pass,
    broadcast once via ray.put, then every doc sums its tokens'
    log-probs. Exactness across engines: each token instance's
    ln(p) is rounded to micros FIRST and summed in int64 (per-row
    round-then-sum — order-independent, so partial sums commute).
    The broadcast vocab map is ~16 B/term (fine to ~10⁷ terms; swap
    to a bucketed join above that)."""
    import ray as _ray

    cf_df = (term_counts(sf_dir).to_pandas())
    n_total = int(cf_df["cf"].sum())
    terms = cf_df["term"].to_numpy()
    lp_micros = np.floor(
        np.log(cf_df["cf"].to_numpy().astype(np.float64) / n_total)
        * 1e6 + 0.5).astype(np.int64)
    ref = _ray.put((pd.Series(lp_micros, index=terms), None))

    def score(batch: pa.Table) -> pa.Table:
        lp, _ = _ray.get(ref)
        tf = term_frequencies(batch["text"].combine_chunks())
        doc_ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        # one lookup per batch-vocab entry, then O(pairs) int math
        lp_vocab = lp.reindex(tf.vocab.to_pylist()).to_numpy()
        contrib = lp_vocab[tf.codes].astype(np.int64) * tf.tf.astype(np.int64)
        out = pd.DataFrame({"doc_id": doc_ids[tf.doc_idx],
                            "logprob_micros": contrib})
        agg = out.groupby("doc_id", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(score, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Sum("logprob_micros", alias_name="logprob_micros")))


DSIR_TARGET_LANG, DSIR_K = "en", 50


def dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023, unigram-feature form):
    per-doc Σ_tokens ln p_target(t) − ln p_raw(t), add-1 smoothed over
    the corpus vocab — the data-selection signal that upweights docs
    resembling the target slice (here lang='en') under the raw
    corpus. One exploded pass produces (term, in-target) partial counts
    (map-side combined, the shuffle carries batch-vocab rows); the
    driver folds the vocab-sized count table into per-term log-ratio
    micros (bounded: vocab-sized, same contract as doc_logprob) and
    broadcasts it once via ray.put; the scoring pass is tf·lr_micros
    int64 per (doc,term), summed — rule-4 round-then-sum, so engines
    never compare float sums. Top-k selection is the 100-TB shape too:
    sort on the per-doc weight table (n_docs rows, not tokens)."""
    import ray as _ray

    def explode(batch: pa.Table) -> pa.Table:
        tf = term_frequencies(batch["text"].combine_chunks())
        en = (np.asarray(batch["lang"].combine_chunks())
              == DSIR_TARGET_LANG)
        df = pd.DataFrame({
            "term": tf.terms,
            "en": en[tf.doc_idx],
            "tf": tf.tf.astype(np.int64),
        })
        out = (df.groupby(["term", "en"], sort=False, as_index=False)
               .agg(c=("tf", "sum")))
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = (rd.read_parquet(_docs(sf_dir), columns=["text", "lang"])
              .map_batches(explode, batch_format="pyarrow")
              .groupby(["term", "en"])
              .aggregate(Sum("c", alias_name="c"))
              .to_pandas())  # bounded: ≤ 2·vocab rows
    piv = (counts.pivot_table(index="term", columns="en", values="c",
                              aggfunc="sum", fill_value=0))
    c_all = (piv.get(True, pd.Series(0, index=piv.index))
             + piv.get(False, pd.Series(0, index=piv.index))).astype(np.int64)
    c_en = piv.get(True, pd.Series(0, index=piv.index)).astype(np.int64)
    n_all = float(int(c_all.sum()))
    n_en = float(int(c_en.sum()))
    v = float(len(c_all))
    lr = (np.log((c_en.to_numpy().astype(np.float64) + 1.0) / (n_en + v))
          - np.log((c_all.to_numpy().astype(np.float64) + 1.0)
                   / (n_all + v)))
    lr_micros = np.floor(lr * 1e6 + 0.5).astype(np.int64)
    ref = _ray.put(pd.Series(lr_micros, index=c_all.index))

    def score(batch: pa.Table) -> pa.Table:
        lrm = _ray.get(ref)
        tf = term_frequencies(batch["text"].combine_chunks())
        doc_ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        lr_vocab = lrm.reindex(tf.vocab.to_pylist()).to_numpy()
        contrib = tf.tf.astype(np.int64) * lr_vocab[tf.codes].astype(np.int64)
        out = pd.DataFrame({"doc_id": doc_ids[tf.doc_idx],
                            "weight_micros": contrib})
        agg = out.groupby("doc_id", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    w = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
         .map_batches(score, batch_format="pyarrow")
         .groupby("doc_id")
         .aggregate(Sum("weight_micros", alias_name="weight_micros"))
         .sort(["weight_micros", "doc_id"], descending=[True, False])
         .limit(DSIR_K)
         .to_pandas())  # bounded: k rows
    w["rank"] = np.arange(1, len(w) + 1, dtype=np.int64)
    return pa.Table.from_pandas(
        w[["doc_id", "weight_micros", "rank"]], preserve_index=False)


def events_window_distinct(sf_dir: str):
    """COUNT(DISTINCT) per (user, minute-window): per-batch distinct
    triples first (map-side dedup), one shuffle to dedup globally,
    then a combiner-backed count — the shuffle carries distinct
    triples, never raw events."""
    from ray.data.aggregate import Count

    def triples(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": np.asarray(b["user_id"].combine_chunks())
                .astype(np.int64),
            "w": (np.asarray(b["ts"].combine_chunks().cast(pa.int64()))
                  // 60_000_000).astype(np.int64),
            "event_type": b["event_type"].combine_chunks().to_pylist(),
        }).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    distinct = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                                columns=["user_id", "ts", "event_type"])
                .map_batches(triples, batch_format="pyarrow")
                .groupby(["user_id", "w", "event_type"])
                .aggregate(Count(alias_name="__n")))

    def ones(b: pa.Table) -> pa.Table:
        t = pa.table({"user_id": b["user_id"].combine_chunks(),
                      "w": b["w"].combine_chunks(),
                      "n_types": np.ones(b.num_rows, dtype=np.int64)})
        return _partial_sums(t, ["user_id", "w"], {"n_types": "n_types"})

    return (distinct.map_batches(ones, batch_format="pyarrow")
            .groupby(["user_id", "w"])
            .aggregate(Sum("n_types", alias_name="n_types")))


def value_quantiles_cont(sf_dir: str):
    """Interpolated quantiles (DuckDB quantile_cont semantics) via two
    kth-selections per q — same narrowing machinery as value_quantiles,
    exact float interpolation mirrored in the oracle expression."""
    from ..functions.quantiles import quantiles_cont

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    qs = [0.25, 0.5, 0.75]
    vals = quantiles_cont(ds, "value", qs)
    return pa.table({
        "q_micros": pa.array([to_micros(q) for q in qs], pa.int64()),
        "value_micros": pa.array([to_micros(v) for v in vals], pa.int64()),
    })


def value_mad(sf_dir: str):
    """Median absolute deviation of events.value — median via the
    sort-free histogram-narrowing selection, then a second selection
    over |v − med| in exact micros integer space. Two short streaming
    pass-groups, never a global sort; DuckDB quantile_disc semantics
    both times so the oracle matches exactly."""
    from ..functions.quantiles import quantile_disc

    path = os.path.join(sf_dir, "events.parquet")
    vm = (rd.read_parquet(path, columns=["value"])
          .map_batches(lambda b: pa.table({
              "vm": pc_micros(b["value"])}), batch_format="pyarrow")
          .materialize())  # reused by both selections
    med = int(quantile_disc(vm, "vm", 0.5))
    absdev = vm.map_batches(
        lambda b: pa.table({"ad": pc.abs(
            pc.subtract(b["vm"].combine_chunks(), med)).cast(pa.int64())}),
        batch_format="pyarrow")
    mad = int(quantile_disc(absdev, "ad", 0.5))
    return pa.table({"median_micros": pa.array([med], pa.int64()),
                     "mad_micros": pa.array([mad], pa.int64())})


def copurchase_topk(sf_dir: str):
    """Market-basket mining: the top-3 parts co-occurring with each
    part across orders. Within-order pair generation happens after a
    groupby(orderkey) shuffle (an order's lines can span input
    blocks), emitting each unordered distinct pair once per order —
    baskets are small so the pair explode is C(k,2)-bounded per
    order; counts reduce with map-side partials and the per-part
    top-3 reuses the grouped partial-top-k machinery."""
    from ..functions.topk import grouped_topk

    def tag(b: pa.Table) -> pa.Table:
        k = np.asarray(b["l_orderkey"].combine_chunks()).astype(np.int64)
        h = pd.util.hash_array(k)
        return pa.table({
            "l_orderkey": pa.array(k, pa.int64()),
            "l_partkey": b["l_partkey"].combine_chunks().cast(pa.int64()),
            "__bucket": pa.array((h % np.uint64(16)).astype(np.int64)),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per basket SIZE CLASS, not per order: all orders
        # with the same distinct-part count expand together
        df = g[["l_orderkey", "l_partkey"]].drop_duplicates() \
            .sort_values(["l_orderkey", "l_partkey"], kind="mergesort")
        ok = df["l_orderkey"].to_numpy()
        parts = df["l_partkey"].to_numpy()
        first = np.concatenate(([True], ok[1:] != ok[:-1]))
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(ok)))
        out_a, out_b = [], []
        for s in np.unique(counts):
            if s < 2:
                continue
            st = starts[counts == s]
            ia, ib = np.triu_indices(s, k=1)
            out_a.append(parts[st[:, None] + ia].ravel())
            out_b.append(parts[st[:, None] + ib].ravel())
        if not out_a:
            return pd.DataFrame({"pa": pd.Series(dtype=np.int64),
                                 "pb": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        c = pd.DataFrame({"pa": np.concatenate(out_a),
                          "pb": np.concatenate(out_b)})
        c["n"] = np.int64(1)
        return c.groupby(["pa", "pb"], as_index=False).sum()

    # final (pa, pb) reduce via hash buckets + one vectorized pandas
    # sum per bucket — Ray's native groupby.aggregate at 10^5+ distinct
    # keys is the measured ~50× trap (NOTES.md round-3 item 1)
    def tag_pair(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            np.asarray(t["pa"]).astype(np.int64) * np.int64(1_000_003)
            + np.asarray(t["pb"]).astype(np.int64))
        return t.append_column(
            "__b2", pa.array((h % np.uint64(16)).astype(np.int64)))

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop(columns="__b2")
                .groupby(["pa", "pb"], as_index=False)["n"].sum())

    counts = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                              columns=["l_orderkey", "l_partkey"])
              .map_batches(tag, batch_format="pyarrow")
              .groupby("__bucket")
              .map_groups(pairs, batch_format="pandas")
              .map_batches(tag_pair, batch_format="pyarrow")
              .groupby("__b2")
              .map_groups(reduce_pairs, batch_format="pandas"))
    top = grouped_topk(counts, group_col="pa", sort_col="n", k=3,
                       descending=True, tie_col="pb")
    return top.map_batches(lambda t: t.select(["pa", "pb", "n", "rank"]),
                           batch_format="pyarrow")


def collocations(sf_dir: str):
    """Collocation mining: top-20 token bigrams by pointwise mutual
    information (count ≥ 5). Counts are exact int sums; PMI is the
    fixed-order log-sum ln(c_ab)+ln(T)+ln(T)−ln(B)−ln(c_a)−ln(c_b)
    (every ln of an exactly-representable int → bitwise both
    engines, no product overflow at any scale). Unigram table
    broadcasts (vocab-sized; bucketed-join fallback is the joins.py
    machinery); bigram counts reduce through hash buckets."""
    from ..functions.curation import _ngrams_from_flat

    def uni_part(b: pa.Table) -> pa.Table:
        flat, _, _ = tokenize_array(b["text"].combine_chunks())
        d = pa.array(flat).dictionary_encode()
        codes = np.asarray(d.indices)
        cnt = np.bincount(codes, minlength=len(d.dictionary))
        return pa.table({"term": d.dictionary,
                         "c": pa.array(cnt.astype(np.int64))})

    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    uni = (docs.map_batches(uni_part, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("c", alias_name="c"))
           .to_pandas())  # vocab-sized
    T = int(uni["c"].sum())
    uni_map = dict(zip(uni["term"], uni["c"].astype(int)))
    import ray as _ray
    uref = _ray.put(uni_map)

    # bigram reduce through hash buckets (cardinality ~vocab², the
    # native-groupby trap zone)
    def bg_bucket(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ng, _rows = _ngrams_from_flat(flat, doc_idx, 2)
        d = pa.array(ng).dictionary_encode()
        codes = np.asarray(d.indices)
        cnt = np.bincount(codes, minlength=len(d.dictionary))
        dic = d.dictionary
        h = pd.util.hash_array(np.asarray(dic.to_pandas(), dtype=object))
        return pa.table({
            "ng": dic, "cab": pa.array(cnt.astype(np.int64)),
            "__b": pa.array((h % np.uint64(16)).astype(np.int64)),
        })

    def bg_reduce(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop(columns="__b")
                .groupby("ng", as_index=False)["cab"].sum())

    big = (docs.map_batches(bg_bucket, batch_format="pyarrow")
           .groupby("__b").map_groups(bg_reduce, batch_format="pandas")
           .materialize())
    B = int(big.sum("cab"))

    def score(t: pa.Table) -> pa.Table:
        u = _ray.get(uref)
        ngs = t["ng"].combine_chunks()
        cab = np.asarray(t["cab"].combine_chunks()).astype(np.int64)
        keep = cab >= 5
        ngs_py = np.asarray(ngs.to_pylist(), dtype=object)[keep]
        cab = cab[keep]
        if len(cab) == 0:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "cab": pa.array([], pa.int64()),
                             "pmi_micros": pa.array([], pa.int64())})
        ca = np.array([u[s.split(" ")[0]] for s in ngs_py], np.int64)
        cb = np.array([u[s.split(" ")[1]] for s in ngs_py], np.int64)
        lT, lB = np.log(float(T)), np.log(float(B))
        pmi = (np.log(cab.astype(np.float64)) + lT + lT - lB
               - np.log(ca.astype(np.float64))
               - np.log(cb.astype(np.float64)))
        # per-batch partial top-20 (EXACT float pmi desc, bigram asc —
        # the rounded micros would mis-order at the cut boundary)
        order = np.lexsort((ngs_py, -pmi))[:20]
        return pa.table({
            "bigram": pa.array(ngs_py[order], pa.string()),
            "cab": pa.array(cab[order], pa.int64()),
            "pmi": pa.array(pmi[order], pa.float64()),
        })

    parts = big.map_batches(score, batch_format="pyarrow").to_pandas()
    sel = np.lexsort((parts["bigram"].to_numpy(dtype=object),
                      -parts["pmi"].to_numpy()))[:20]
    out = parts.iloc[sel]
    return pa.table({
        "bigram": pa.array(out["bigram"].to_numpy(dtype=object),
                           pa.string()),
        "cab": pa.array(out["cab"].to_numpy(), pa.int64()),
        "pmi_micros": pa.array(to_micros(out["pmi"].to_numpy()),
                               pa.int64()),
    })


PHRASE = "merge sort"


def _phrase_match(b: pa.Table, phrase: str) -> pa.Table:
    """Count exact phrase occurrences per doc in one batch: token
    n-grams built vectorized from the flat kept-token array, matched
    with one Arrow equality — exact per batch because docs never span
    batches."""
    from ..functions.curation import _ngrams_from_flat

    n = len(phrase.split(" "))
    flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
    ng, rows = _ngrams_from_flat(flat, doc_idx, n)
    ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
    hit = np.asarray(pc.equal(ng, phrase))
    uniq, cnt = np.unique(rows[hit], return_counts=True)
    return pa.table({
        "doc_id": pa.array(ids[uniq], pa.int64()),
        "n_occurrences": pa.array(cnt, pa.int64()),
    })


def phrase_search(sf_dir: str):
    """Exact phrase query ("merge sort") over the kept-token stream,
    matched map-side — no shuffle; the whole corpus streams once."""
    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(lambda b: _phrase_match(b, PHRASE),
                         batch_format="pyarrow"))


def phrase_search_indexed(sf_dir: str):
    """Index-accelerated exact phrase query — the T2 candidates+rerank
    shape applied to phrases: the BM25 index's postings give the docs
    containing EVERY phrase token (the boolean-DSL AND of its tokens
    — no corpus scan), only those candidates' texts are read back via
    parquet predicate pushdown, and adjacency is verified on the
    kept-token stream. Same answer (and the same oracle SQL) as the
    streaming phrase_search; at 100 TB this touches |candidates| docs
    instead of the corpus. Candidate ids pass through the driver
    (8 B/candidate — the docstore_join pattern; for pathological
    all-doc phrases route to the streaming variant)."""
    eng = _index_for(sf_dir)
    cands = eng.search_boolean_dsl(" AND ".join(clean_query(PHRASE)))
    if len(cands) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_occurrences": pa.array([], pa.int64())})
    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"],
                            filter=pads.field("doc_id").isin(
                                [int(d) for d in cands]))
            .map_batches(lambda b: _phrase_match(b, PHRASE),
                         batch_format="pyarrow"))


def stratified_weighted_sample(sf_dir: str):
    """Per-stratum weighted sampling without replacement: 5 docs per
    language, weighted by n_chars — the A-ES exponential-race key
    (−ln(u)/w, hash uniforms) ranked per group by grouped_topk's
    partial-top-k machinery. Deterministic and shuffle-light: each
    batch contributes at most k rows per (group) to the final cut."""
    from ..functions.dedup import md5_low64
    from ..functions.topk import grouped_topk

    def keyed(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        w = np.asarray(b["n_chars"].combine_chunks()).astype(np.float64)
        h = md5_low64(np.array([str(i) for i in ids], dtype=object))
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        key = -np.log(u) / w
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "lang": b["lang"].combine_chunks(),
            "n_chars": b["n_chars"].combine_chunks().cast(pa.int64()),
            "key": pa.array(key, pa.float64()),
        })

    ds = (rd.read_parquet(_docs(sf_dir),
                          columns=["doc_id", "lang", "n_chars"])
          .map_batches(keyed, batch_format="pyarrow"))
    top = grouped_topk(ds, group_col="lang", sort_col="key", k=5,
                       descending=False, tie_col="doc_id")
    return top.map_batches(
        lambda t: t.select(["lang", "doc_id", "n_chars", "rank"]),
        batch_format="pyarrow")


def value_quartile_buckets(sf_dir: str):
    """Equi-depth bucketing as a TRANSFORM: the three exact quartile
    cut points come from the sort-free narrowing selection, then every
    row gets bucket = 1 + Σ(v > qᵢ) map-side — explicit cutpoint
    comparison, so bucket assignment is deterministic at ties (unlike
    ntile over a global ORDER BY, which splits tie runs arbitrarily).
    Returns per-bucket row counts and value sums."""
    from ..functions.quantiles import quantiles_disc

    path = os.path.join(sf_dir, "events.parquet")
    vm = (rd.read_parquet(path, columns=["event_id", "value"])
          .map_batches(lambda b: pa.table({
              "event_id": b["event_id"].combine_chunks().cast(pa.int64()),
              "vm": pc_micros(b["value"])}), batch_format="pyarrow")
          .materialize())
    q1, q2, q3 = [int(v) for v in quantiles_disc(vm, "vm",
                                                 [0.25, 0.5, 0.75])]

    def bucketize(b: pa.Table) -> pa.Table:
        v = np.asarray(b["vm"].combine_chunks()).astype(np.int64)
        bk = 1 + (v > q1).astype(np.int64) + (v > q2) + (v > q3)
        t = pa.table({
            "bucket": pa.array(bk, pa.int64()),
            "n": np.ones(len(v), np.int64),
            "sum_micros": pa.array(v, pa.int64()),
        })
        return _partial_sums(t, ["bucket"],
                             {"n": "n", "sum_micros": "sum_micros"})

    return (vm.map_batches(bucketize, batch_format="pyarrow")
            .groupby("bucket")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_micros", alias_name="sum_micros")))


def events_time_window(sf_dir: str):
    """Event-time sliding window (SQL RANGE frame, peer-inclusive):
    per user, trailing-1-hour sum and count of value at every event —
    functions/windows.py grouped_range_window, one bucket shuffle and
    one pair of searchsorted calls per bucket for ALL users."""
    from ..functions.windows import grouped_range_window

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b["event_id"].combine_chunks().cast(pa.int64()),
            "user_id": b["user_id"].combine_chunks().cast(pa.int64()),
            "ts": b["ts"].combine_chunks().cast(pa.int64()),
            "vm": pc_micros(b["value"]),
        })

    ds = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                          columns=["event_id", "user_id", "ts", "value"])
          .map_batches(prep, batch_format="pyarrow"))
    out = grouped_range_window(ds, by="user_id", ts_col="ts",
                               value_col="vm", window=3_600_000_000)
    return out.select_columns(["event_id", "user_id", "win_sum_vm",
                               "win_n"])


def events_zscore(sf_dir: str):
    """Per-group z-score normalization from EXACT integer sufficient
    statistics: value travels as MILLIS internally (so Σx² stays in
    int64 to ~sf10; micros would overflow at sf0.1), group (n, Σx,
    Σx²) reduce exactly, and each row's z uses the single-division
    form (x·n − Σx)/√(n·Σx² − Σx²ᵗᵒᵗ) — one float divide in the same
    order both engines, so z_micros is bitwise. Group constants are a
    5-row aggregate (driver Python ints — HUGEINT in the oracle);
    the normalize pass is map-side with the constants broadcast."""
    import ray as _ray

    def part(b: pa.Table) -> pa.Table:
        x = np.floor(np.asarray(b["value"].combine_chunks()
                                .cast(pa.float64())) * 1e3 + 0.5) \
            .astype(np.int64)
        t = pa.table({
            "event_type": b["event_type"].combine_chunks(),
            "n": np.ones(len(x), np.int64), "sx": x, "sxx": x * x,
        })
        return _partial_sums(t, ["event_type"],
                             {c: c for c in ("n", "sx", "sxx")})

    path = os.path.join(sf_dir, "events.parquet")
    rows = (rd.read_parquet(path, columns=["event_type", "value"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(*[Sum(c, alias_name=c) for c in ("n", "sx", "sxx")])
            .take_all())  # one row per event type
    consts = {}
    for r in rows:
        n, sx, sxx = int(r["n"]), int(r["sx"]), int(r["sxx"])
        consts[r["event_type"]] = (n, sx,
                                   float(np.sqrt(float(n * sxx - sx * sx))))
    cref = _ray.put(consts)

    def norm(b: pa.Table) -> pa.Table:
        c = _ray.get(cref)
        x = np.floor(np.asarray(b["value"].combine_chunks()
                                .cast(pa.float64())) * 1e3 + 0.5) \
            .astype(np.int64)
        et = b["event_type"].combine_chunks()
        ets = np.asarray(et.to_pylist(), dtype=object)
        n = np.empty(len(x), np.int64)
        sx = np.empty(len(x), np.int64)
        den = np.empty(len(x), np.float64)
        for t, (tn, tsx, tden) in c.items():
            m = ets == t
            n[m], sx[m], den[m] = tn, tsx, tden
        z = (x * n - sx).astype(np.float64) / den
        return pa.table({
            "event_id": b["event_id"].combine_chunks().cast(pa.int64()),
            "event_type": et,
            "z_micros": pa.array(to_micros(z), pa.int64()),
        })

    return (rd.read_parquet(path, columns=["event_id", "event_type",
                                           "value"])
            .map_batches(norm, batch_format="pyarrow"))


def _pack_token_stream(docs, L: int = 512):
    """Sequence-packing core over a (doc_id, text) Dataset: the
    doc_id-ordered kept-token stream cut into fixed L-token sequences —
    every token gets (seq_id, pos_in_seq). Global token positions come
    from a DISTRIBUTED exclusive prefix sum over per-doc counts
    (functions/windows.py keyed_offsets: range-buckets, one tiny
    per-bucket-totals driver table, vectorized interior cumsums) —
    no global sort, no token-stream shuffle: only doc-sized rows move
    through the offset join; the token stream itself is emitted
    map-side. The input is tokenized twice (count pass + emit pass) —
    the standard trade against materializing the token stream."""
    from ..functions.joins import hash_join
    from ..functions.windows import keyed_offsets

    def counts(b: pa.Table) -> pa.Table:
        _, _, lens = tokenize_array(b["text"].combine_chunks())
        return pa.table({
            "doc_id": b["doc_id"].combine_chunks().cast(pa.int64()),
            "n": pa.array(lens, pa.int64()),
        })

    offs = keyed_offsets(docs.map_batches(counts, batch_format="pyarrow"),
                         "doc_id", "n")
    joined = hash_join(docs, offs, on="doc_id", num_buckets=8)

    def emit(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        off = np.asarray(b["offset"].combine_chunks()).astype(np.int64)
        n = len(doc_idx)
        if n == 0:
            return pa.table({"seq_id": pa.array([], pa.int64()),
                             "pos_in_seq": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64())})
        first = np.concatenate(([True], doc_idx[1:] != doc_idx[:-1]))
        starts = np.flatnonzero(first)
        cnts = np.diff(np.append(starts, n))
        pos = np.arange(n) - np.repeat(starts, cnts)
        gp = off[doc_idx] + pos
        return pa.table({
            "seq_id": pa.array(gp // L, pa.int64()),
            "pos_in_seq": pa.array(gp % L, pa.int64()),
            "term": flat,
            "doc_id": pa.array(ids[doc_idx], pa.int64()),
        })

    return joined.map_batches(emit, batch_format="pyarrow")


def packed_sequences(sf_dir: str):
    """LLM-training sequence packing over the full documents table —
    see _pack_token_stream for the distributed-prefix-sum mechanics."""
    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return _pack_token_stream(docs, L=512)


def curated_packed_sequences(sf_dir: str):
    """The flagship end-to-end LLM-data composition: quality gate
    (≥5 kept tokens, stopword ratio ≤ 1/2) → exact dedup (min-id
    representative, drop-set discovery shuffles (hash, id) only) →
    sequence packing over the SURVIVING docs (distributed exclusive
    prefix sum, 512-token blocks). One pipeline a training-data user
    actually ships; every stage reuses an independently-oracled
    kernel, and the composite has its own end-to-end SQL oracle."""
    from ..functions.dedup import dedup_corpus as _dedup_corpus

    def gate(batch: pa.Table) -> pa.Table:
        t = token_stats_batch(batch.select(["doc_id", "text"]))
        keep = pc.and_(
            pc.greater_equal(t["n_kept"], 5),
            pc.less_equal(
                pc.multiply(pc.subtract(t["n_tokens"], t["n_kept"]), 2),
                t["n_tokens"]))
        return batch.filter(keep)

    # input = documents ∪ an id-shifted copy (the dedup_corpus entry's
    # construction) so the dedup stage has REAL drops to make: every
    # original survives (smaller id wins), every shifted copy drops
    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    shifted = ds.map_batches(
        lambda t: pa.table({"doc_id": pc.add(t["doc_id"], 1_000_000),
                            "text": t["text"]}),
        batch_format="pyarrow")
    filtered = ds.union(shifted).map_batches(gate, batch_format="pyarrow")
    # materialize: _pack_token_stream consumes its input twice (count
    # pass + emit pass) — without this the gate+dedup lineage re-runs
    # per consumer (the measured re-execution trap from NOTES.md)
    kept = _dedup_corpus(filtered, text_col="text", id_col="doc_id"
                         ).materialize()
    return _pack_token_stream(kept, L=512)


def user_funnel(sf_dir: str):
    """Ordered funnel (view → click → purchase): per user, the stage
    reached where each stage's event must come STRICTLY after the
    previous stage's first occurrence. Sequentially-dependent mins
    (t2 depends on t1) — one hash-bucket shuffle, then three
    vectorized per-bucket groupby-min passes chained by merges, every
    user in the bucket at once."""
    def prep(b: pa.Table) -> pa.Table:
        k = np.asarray(b["user_id"].combine_chunks()).astype(np.int64)
        h = pd.util.hash_array(k)
        return pa.table({
            "user_id": pa.array(k, pa.int64()),
            "event_type": b["event_type"].combine_chunks(),
            "ts": b["ts"].combine_chunks().cast(pa.int64()),
            "__bucket": pa.array((h % np.uint64(8)).astype(np.int64)),
        })

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        t1 = (g[g.event_type == "view"].groupby("user_id")["ts"].min()
              .rename("t1").reset_index())
        m2 = g[g.event_type == "click"].merge(t1, on="user_id")
        t2 = (m2[m2.ts > m2.t1].groupby("user_id")["ts"].min()
              .rename("t2").reset_index())
        m3 = g[g.event_type == "purchase"].merge(t2, on="user_id")
        t3 = (m3[m3.ts > m3.t2].groupby("user_id")["ts"].min()
              .rename("t3").reset_index())
        out = t1.merge(t2, on="user_id", how="left") \
                .merge(t3, on="user_id", how="left")
        stage = np.where(out["t3"].notna(), 3,
                         np.where(out["t2"].notna(), 2, 1))
        return pd.DataFrame({
            "user_id": out["user_id"].to_numpy(),
            "stage": stage.astype(np.int64),
            "first_view_us": out["t1"].to_numpy().astype(np.int64),
        })

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["user_id", "event_type", "ts"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(funnel, batch_format="pandas"))


def label_centroids(sf_dir: str):
    """Per-class embedding centroids (the class-prototype vector
    aggregate) in EXACT integer space: per-element micros are summed
    as int64 (commutative — no float summation order anywhere), then
    divided by the class count with truncation toward zero (DuckDB
    ``//`` truncates; numpy floors — the explicit adjustment keeps
    negative components engine-identical). Long output (label, dim,
    centroid_micros, n); one map-side partial per (batch), one small
    shuffle of label×64 rows."""
    def part(b: pa.Table) -> pa.Table:
        emb = b["embedding"].combine_chunks()
        lens = np.diff(np.asarray(emb.offsets))
        if len(np.unique(lens)) != 1:
            raise ValueError("ragged embedding lengths in batch")
        flat = np.asarray(emb.flatten(), dtype=np.float64)
        d = int(lens[0])
        em = np.floor(flat * 1e6 + 0.5).astype(np.int64) \
            .reshape(b.num_rows, d)
        labels = np.asarray(b["label"].combine_chunks()).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), d), np.int64)
        np.add.at(sums, inv, em)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        lab = np.repeat(uniq, d)
        dim = np.tile(np.arange(d, dtype=np.int64), len(uniq))
        return pa.table({
            "label": pa.array(lab, pa.int64()),
            "dim": pa.array(dim, pa.int64()),
            "s": pa.array(sums.ravel(), pa.int64()),
            "n": pa.array(np.repeat(counts, d), pa.int64()),
        })

    agg = (rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                           columns=["label", "embedding"])
           .map_batches(part, batch_format="pyarrow")
           .groupby(["label", "dim"])
           .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")))

    def fin(t: pa.Table) -> pa.Table:
        s = np.asarray(t["s"].combine_chunks()).astype(np.int64)
        n = np.asarray(t["n"].combine_chunks()).astype(np.int64)
        q = s // n
        r = s - q * n
        q = np.where((s < 0) & (r != 0), q + 1, q)  # trunc toward zero
        return pa.table({
            "label": t["label"].combine_chunks().cast(pa.int64()),
            "dim": t["dim"].combine_chunks().cast(pa.int64()),
            "centroid_micros": pa.array(q, pa.int64()),
            "n": pa.array(n, pa.int64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


def value_quantiles_sketch(sf_dir: str):
    """ONE-pass mergeable quantile sketch (float-bit-bucket histogram
    + per-bucket min key): the streaming alternative to the exact
    multi-pass value_quantiles when bounded rank error suffices. Each
    estimate is an actual data value with its rank-error bound
    alongside. SQL-ORACLED (r5): for the all-positive events.value the
    16-bit monotone float-key bucket is reconstructed arithmetically —
    exponent from an exact powers-of-two table, top-4 mantissa bits
    via the exact (v/2^e − 1)·16 — so the approximation itself is
    mirrored, not just sanity-checked."""
    from ..functions.quantiles import quantile_sketch

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    qs = [0.1, 0.5, 0.9]
    res = quantile_sketch(ds, "value", qs, bits=16)
    return pa.table({
        "q_micros": pa.array([to_micros(q) for q in qs], pa.int64()),
        "value_micros": pa.array([to_micros(v) for v, _ in res],
                                 pa.int64()),
        "rank_err_bound": pa.array([e for _, e in res], pa.int64()),
    })


def props_k_stats(sf_dir: str):
    """JSON field extraction + aggregate: pull the integer ``k`` out of
    the events.props JSON string with one RE2 capture (vectorized C
    kernel — DuckDB's regexp_extract is RE2 too, so both engines parse
    identically), then per-event-type count/sum/max with map-side
    partials."""
    def part(b: pa.Table) -> pa.Table:
        s = pc.extract_regex(b["props"].combine_chunks(),
                             r'"k":\s*(?P<k>-?\d+)')
        k = pc.struct_field(s, "k").cast(pa.int64())
        t = pa.table({
            "event_type": b["event_type"].combine_chunks(),
            "n": np.ones(b.num_rows, np.int64),
            "sum_k": k,
            "max_k": k,
        })
        df = t.to_pandas()
        out = (df.groupby("event_type", as_index=False, dropna=False)
               .agg(n=("n", "sum"), sum_k=("sum_k", "sum"),
                    max_k=("max_k", "max")))
        return pa.Table.from_pandas(out, preserve_index=False)

    from ray.data.aggregate import Max

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["event_type", "props"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_k", alias_name="sum_k"),
                       Max("max_k", alias_name="max_k")))


def weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement (Efraimidis
    & Spirakis A-ES via the exponential race): each doc gets key =
    −ln(u)/w with u ∈ (0,1] hashed from doc_id and w = n_chars; the 20
    smallest keys win. Shuffle-free and reproducible: per-batch
    partial top-k, driver merges k-sized partials. ln agrees bitwise
    between numpy and DuckDB (same libm — the doc_logprob precedent),
    so the cut is engine-exact."""
    from ..functions.dedup import md5_low64

    K = 20

    def part(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        w = np.asarray(b["n_chars"].combine_chunks()).astype(np.float64)
        h = md5_low64(np.array([str(i) for i in ids], dtype=object))
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        key = -np.log(u) / w
        order = np.lexsort((ids, key))[:K]
        return pa.table({
            "doc_id": pa.array(ids[order], pa.int64()),
            "n_chars": pa.array(w[order].astype(np.int64), pa.int64()),
            "key": pa.array(key[order], pa.float64()),
        })

    parts = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "n_chars"])
             .map_batches(part, batch_format="pyarrow").to_pandas())
    sel = np.lexsort((parts["doc_id"].to_numpy(),
                      parts["key"].to_numpy()))[:K]
    out = parts.iloc[sel]
    return pa.table({
        "doc_id": pa.array(out["doc_id"].to_numpy(), pa.int64()),
        "n_chars": pa.array(out["n_chars"].to_numpy(), pa.int64()),
    })


def curated_corpus(sf_dir: str):
    """The flagship curation composite a training-data user runs:
    quality gate (≥5 kept tokens, stopword ratio ≤ 1/2, integer-space
    thresholds) → exact dedup keeping the min-id representative →
    (doc_id, lang, content_hash). Composes the quality_filter kernel
    and dedup_corpus (drop-set discovery shuffles (hash, id) only —
    the text never shuffles)."""
    from ..functions.dedup import dedup_corpus as _dedup_corpus

    def gate(batch: pa.Table) -> pa.Table:
        t = token_stats_batch(batch.select(["doc_id", "text"]))
        keep = pc.and_(
            pc.greater_equal(t["n_kept"], 5),
            pc.less_equal(
                pc.multiply(pc.subtract(t["n_tokens"], t["n_kept"]), 2),
                t["n_tokens"]))
        return batch.filter(keep)

    filtered = (rd.read_parquet(_docs(sf_dir),
                                columns=["doc_id", "text", "lang"])
                .map_batches(gate, batch_format="pyarrow"))
    kept = _dedup_corpus(filtered, text_col="text", id_col="doc_id")

    def fin(b: pa.Table) -> pa.Table:
        h = add_content_hash(b)
        return pa.table({"doc_id": h["doc_id"], "lang": h["lang"],
                         "content_hash": h["content_hash"]})

    return kept.map_batches(fin, batch_format="pyarrow")


def embedding_dedup_corpus(sf_dir: str):
    """Near-dup removal over the embedding table: exact cosine pairs
    (≥0.45) → Dataset-native min-label connected components → keep
    each cluster's min-id representative (singletons keep themselves).
    The same composite as minhash dedup, with the similarity graph
    coming from embedding geometry instead of shingles."""
    from ..functions.dedup import _cluster_pairs
    from ..functions.similarity import cosine_pairs

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    pairs_t = cosine_pairs(ds, threshold=0.45)
    pairs = rd.from_arrow(pa.table({
        "a": pairs_t["a"].combine_chunks()
        if pairs_t.num_rows else pa.array([], pa.int64()),
        "b": pairs_t["b"].combine_chunks()
        if pairs_t.num_rows else pa.array([], pa.int64()),
    }))
    nodes = ds.map_batches(
        lambda t: pa.table({"doc_id": t["vec_id"]}),
        batch_format="pyarrow")
    # size-aware routing shared with minhash dedup: tiny edge lists
    # resolve on the driver, big ones stay Dataset-native
    labels = _cluster_pairs(pairs, nodes, "auto", max_iters=20)

    def reps(b: pa.Table) -> pa.Table:
        # propagate_min_labels_ds output columns are (doc_id, cluster_id)
        keep = pc.equal(b["doc_id"], b["cluster_id"])
        kept_ids = b["doc_id"].combine_chunks().filter(
            keep.combine_chunks() if isinstance(keep, pa.ChunkedArray)
            else keep)
        return pa.table({"vec_id": kept_ids})

    return labels.map_batches(reps, batch_format="pyarrow")


def value_histogram(sf_dir: str):
    """Fixed-width histogram of events.value (bucket = floor(v/10)):
    per-batch bincount partials, one tiny groupby — the one-pass
    distribution profile every pipeline wants before picking
    thresholds."""
    def part(b: pa.Table) -> pa.Table:
        v = np.asarray(b["value"].combine_chunks().cast(pa.float64()))
        buckets = np.floor(v / 10.0).astype(np.int64)
        uniq, cnt = np.unique(buckets, return_counts=True)
        return pa.table({"bucket": pa.array(uniq, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["value"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("n", alias_name="n")))


def quality_except_enlong(sf_dir: str):
    """Set difference (§2.7, SQL EXCEPT): doc ids passing the quality
    gate but NOT in the en-and-long subset — the generic distributed
    EXCEPT (functions/setops.py): per-batch distinct keys with side
    indicators, one combiner groupby, membership predicate."""
    from ..functions.setops import except_distinct

    a = quality_filter(sf_dir).select_columns(["doc_id"])
    b = filter_en_long(sf_dir).select_columns(["doc_id"])
    return except_distinct(a, b, "doc_id")


def qty_discount_corr(sf_dir: str):
    """Pearson correlation from EXACT integer sufficient statistics:
    qty is integer-valued and discount travels as micros, so all five
    sums (Sx, Sy, Sxy, Sxx, Syy) are exact int64 partials that commute
    — the only float math is the single final expression, evaluated in
    the SAME order by both engines (bitwise match). Syy ≈ 1e10/row
    bounds exactness to ~10⁸ rows; lift to HUGEINT/object sums past
    that."""
    def part(b: pa.Table) -> pa.Table:
        x = np.asarray(b["l_quantity"].combine_chunks()
                       .cast(pa.float64())).astype(np.int64)
        y = np.asarray(pc_micros(b["l_discount"]))
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
        })

    agg = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                           columns=["l_quantity", "l_discount"])
           .map_batches(part, batch_format="pyarrow")
           .aggregate(Sum("n"), Sum("sx"), Sum("sy"), Sum("sxy"),
                      Sum("sxx"), Sum("syy")))
    # Python ints: the cross products (n·sxy etc.) exceed int64 —
    # arbitrary-precision here, HUGEINT in the oracle
    n, sx, sy = int(agg["sum(n)"]), int(agg["sum(sx)"]), int(agg["sum(sy)"])
    sxy, sxx, syy = (int(agg["sum(sxy)"]), int(agg["sum(sxx)"]),
                     int(agg["sum(syy)"]))
    corr = (float(n * sxy - sx * sy)
            / (np.sqrt(float(n * sxx - sx * sx))
               * np.sqrt(float(n * syy - sy * sy))))
    return pa.table({"corr_micros": pa.array([to_micros(float(corr))],
                                             pa.int64())})


def price_qty_regression(sf_dir: str):
    """Per-returnflag least-squares fit (regr_slope / regr_intercept /
    covar_pop of price on quantity) from EXACT integer sufficient
    statistics: map-side per-group partials (n, Sx, Sy, Sxy, Sxx) in
    int64, one tiny shuffle, and ONE final float division per stat —
    the same algebraic form both engines, so the result is bitwise.
    Price travels as cents here (not micros) so Sxy stays within int64
    at sf≥1; outputs are micros as usual. The cross terms (n·Sxy …)
    exceed int64, so the 3-row final runs in Python ints
    (HUGEINT in the oracle)."""
    def part(b: pa.Table) -> pa.Table:
        x = np.asarray(b["l_quantity"].combine_chunks()
                       .cast(pa.float64())).astype(np.int64)
        y = np.floor(np.asarray(b["l_extendedprice"].combine_chunks()
                                .cast(pa.float64())) * 100 + 0.5) \
            .astype(np.int64)
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "n": np.ones(len(x), np.int64), "sx": x, "sy": y,
            "sxy": x * y, "sxx": x * x,
        })
        return _partial_sums(t, ["l_returnflag"],
                             {c: c for c in ("n", "sx", "sy", "sxy", "sxx")})

    rows = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_returnflag", "l_quantity",
                                     "l_extendedprice"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(*[Sum(c, alias_name=c)
                         for c in ("n", "sx", "sy", "sxy", "sxx")])
            .take_all())  # 3 rows — the aggregate result, not the data
    flags, slopes, icepts, covars = [], [], [], []
    for r in sorted(rows, key=lambda r: r["l_returnflag"]):
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxy, sxx = int(r["sxy"]), int(r["sxx"])
        dn = n * sxy - sx * sy
        dd = n * sxx - sx * sx
        flags.append(r["l_returnflag"])
        slopes.append(to_micros(float(dn) / float(dd)))
        icepts.append(to_micros(float(sy * sxx - sx * sxy) / float(dd)))
        covars.append(to_micros(float(dn) / float(n * n)))
    return pa.table({
        "l_returnflag": pa.array(flags, pa.string()),
        "slope_micros": pa.array(slopes, pa.int64()),
        "intercept_micros": pa.array(icepts, pa.int64()),
        "covar_micros": pa.array(covars, pa.int64()),
    })


def price_qty_corr(sf_dir: str):
    """Per-returnflag Pearson correlation (and r²) of price vs
    quantity from EXACT integer sufficient statistics — the regression
    entry's pattern plus Σy². Price travels as WHOLE currency units
    here (floor(p+0.5)): Σy² in cents would overflow int64 partials
    near sf0.3, in units it holds to sf100 (corr is invariant to the
    y-scale; the rounding convention is shared by both engines, so
    hashes still match). Cross terms exceed int64 → Python ints on the
    3-row driver final, HUGEINT in the oracle; the float tail is the
    fixed two-division form dn / sqrt(ddx) / sqrt(ddy), identical
    expression order both engines."""
    import math

    def part(b: pa.Table) -> pa.Table:
        x = np.asarray(b["l_quantity"].combine_chunks()
                       .cast(pa.float64())).astype(np.int64)
        y = np.floor(np.asarray(b["l_extendedprice"].combine_chunks()
                                .cast(pa.float64())) + 0.5).astype(np.int64)
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "n": np.ones(len(x), np.int64), "sx": x, "sy": y,
            "sxy": x * y, "sxx": x * x, "syy": y * y,
        })
        return _partial_sums(
            t, ["l_returnflag"],
            {c: c for c in ("n", "sx", "sy", "sxy", "sxx", "syy")})

    rows = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_returnflag", "l_quantity",
                                     "l_extendedprice"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(*[Sum(c, alias_name=c)
                         for c in ("n", "sx", "sy", "sxy", "sxx", "syy")])
            .take_all())  # 3 rows — the aggregate, not the data
    flags, ns, corrs, r2s = [], [], [], []
    for r in sorted(rows, key=lambda r: r["l_returnflag"]):
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxy, sxx, syy = int(r["sxy"]), int(r["sxx"]), int(r["syy"])
        dn = n * sxy - sx * sy
        ddx = n * sxx - sx * sx
        ddy = n * syy - sy * sy
        corr = float(dn) / math.sqrt(float(ddx)) / math.sqrt(float(ddy))
        flags.append(r["l_returnflag"])
        ns.append(n)
        corrs.append(to_micros(corr))
        r2s.append(to_micros(corr * corr))
    return pa.table({
        "l_returnflag": pa.array(flags, pa.string()),
        "n": pa.array(ns, pa.int64()),
        "corr_micros": pa.array(corrs, pa.int64()),
        "r2_micros": pa.array(r2s, pa.int64()),
    })


MATRIX_FIELDS = ("l_quantity", "l_extendedprice", "l_discount")


def matrix_stats_agg(sf_dir: str):
    """ES ``matrix_stats`` aggregation: pairwise sample covariance and
    Pearson correlation over three lineitem numeric fields in ONE
    streaming pass — exact integer sufficient statistics (n, Σxᵢ,
    Σxᵢ², Σxᵢxⱼ) as map-side partials, one 10-column global sum, the
    float tail on the driver in a fixed expression order shared with
    the oracle. Scaling conventions (price_qty_corr's): quantity as-is,
    price in WHOLE units floor(p+0.5) (Σy² headroom to sf100), discount
    in cents floor(d·100+0.5). Cross terms exceed int64 → Python ints
    on the 1-row final, HUGEINT in the oracle."""
    import math

    def part(b: pa.Table) -> pa.Table:
        x = np.asarray(b["l_quantity"].combine_chunks()
                       .cast(pa.float64())).astype(np.int64)
        y = np.floor(np.asarray(b["l_extendedprice"].combine_chunks()
                                .cast(pa.float64())) + 0.5).astype(np.int64)
        z = np.floor(np.asarray(b["l_discount"].combine_chunks()
                                .cast(pa.float64())) * 100 + 0.5
                     ).astype(np.int64)
        t = pa.table({
            "g": np.zeros(len(x), np.int64),
            "n": np.ones(len(x), np.int64),
            "s1": x, "s2": y, "s3": z,
            "s11": x * x, "s22": y * y, "s33": z * z,
            "s12": x * y, "s13": x * z, "s23": y * z,
        })
        cols = ("n", "s1", "s2", "s3", "s11", "s22", "s33",
                "s12", "s13", "s23")
        return _partial_sums(t, ["g"], {c: c for c in cols})

    cols = ("n", "s1", "s2", "s3", "s11", "s22", "s33",
            "s12", "s13", "s23")
    rows = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=list(MATRIX_FIELDS))
            .map_batches(part, batch_format="pyarrow")
            .groupby("g")
            .aggregate(*[Sum(c, alias_name=c) for c in cols])
            .take_all())  # exactly one row — the global sums
    r = rows[0]
    n = int(r["n"])
    s = {1: int(r["s1"]), 2: int(r["s2"]), 3: int(r["s3"])}
    ss = {(1, 1): int(r["s11"]), (2, 2): int(r["s22"]),
          (3, 3): int(r["s33"]), (1, 2): int(r["s12"]),
          (1, 3): int(r["s13"]), (2, 3): int(r["s23"])}
    fa, fb, covs, corrs = [], [], [], []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        dn = n * ss[(i, j)] - s[i] * s[j]
        ddx = n * ss[(i, i)] - s[i] * s[i]
        ddy = n * ss[(j, j)] - s[j] * s[j]
        cov = float(dn) / n / (n - 1)  # sample covariance, fixed order
        corr = float(dn) / math.sqrt(float(ddx)) / math.sqrt(float(ddy))
        fa.append(MATRIX_FIELDS[i - 1])
        fb.append(MATRIX_FIELDS[j - 1])
        covs.append(to_micros(cov))
        corrs.append(to_micros(corr))
    return pa.table({
        "field_a": pa.array(fa, pa.string()),
        "field_b": pa.array(fb, pa.string()),
        "n": pa.array([n] * 3, pa.int64()),
        "cov_micros": pa.array(covs, pa.int64()),
        "corr_micros": pa.array(corrs, pa.int64()),
    })


def weighted_avg_agg(sf_dir: str):
    """ES ``weighted_avg`` aggregation: quantity-weighted average unit
    price per returnflag — Σ(w·v)/Σw from exact integer partials
    (price in cents, quantity as weight), float tail in one fixed
    division, micros both engines."""
    def part(b: pa.Table) -> pa.Table:
        w = np.asarray(b["l_quantity"].combine_chunks()
                       .cast(pa.float64())).astype(np.int64)
        v = np.floor(np.asarray(b["l_extendedprice"].combine_chunks()
                                .cast(pa.float64())) * 100 + 0.5
                     ).astype(np.int64)
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "sw": w, "swv": w * v,
        })
        return _partial_sums(t, ["l_returnflag"], {"sw": "sw",
                                                   "swv": "swv"})

    rows = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_returnflag", "l_quantity",
                                     "l_extendedprice"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("sw", alias_name="sw"),
                       Sum("swv", alias_name="swv"))
            .take_all())  # 3 rows
    rows.sort(key=lambda r: r["l_returnflag"])
    return pa.table({
        "l_returnflag": pa.array([r["l_returnflag"] for r in rows],
                                 pa.string()),
        "wavg_cents_micros": pa.array(
            [to_micros(float(int(r["swv"])) / int(r["sw"]))
             for r in rows], pa.int64()),
    })


TT_FLAG_A, TT_FLAG_B = "R", "N"


def t_test_agg(sf_dir: str):
    """ES ``t_test`` aggregation (Welch's unequal-variance t): is the
    mean extendedprice of returned ('R') vs normal ('N') lineitems
    different? Exact integer sufficient statistics per group (price in
    whole units — the matrix_stats convention), the float tail in ONE
    fixed expression order: t = (m1 - m2) / sqrt(v1/n1 + v2/n2) with
    mᵢ = sᵢ/nᵢ and vᵢ the sample variance from HUGEINT-safe partials."""
    import math

    def part(b: pa.Table) -> pa.Table:
        y = np.floor(np.asarray(b["l_extendedprice"].combine_chunks()
                                .cast(pa.float64())) + 0.5).astype(np.int64)
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "n": np.ones(len(y), np.int64), "s": y, "ss": y * y,
        })
        return _partial_sums(t, ["l_returnflag"],
                             {"n": "n", "s": "s", "ss": "ss"})

    rows = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_returnflag", "l_extendedprice"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"),
                       Sum("ss", alias_name="ss"))
            .take_all())
    by = {r["l_returnflag"]: r for r in rows}
    stats = {}
    for f in (TT_FLAG_A, TT_FLAG_B):
        r = by[f]
        n, s, ss = int(r["n"]), int(r["s"]), int(r["ss"])
        mean = float(s) / n
        var = float(n * ss - s * s) / n / (n - 1)  # sample variance
        stats[f] = (n, mean, var)
    n1, m1, v1 = stats[TT_FLAG_A]
    n2, m2, v2 = stats[TT_FLAG_B]
    t_stat = (m1 - m2) / math.sqrt(v1 / n1 + v2 / n2)
    return pa.table({
        "flag_a": pa.array([TT_FLAG_A], pa.string()),
        "flag_b": pa.array([TT_FLAG_B], pa.string()),
        "n_a": pa.array([n1], pa.int64()),
        "n_b": pa.array([n2], pa.int64()),
        "t_micros": pa.array([to_micros(t_stat)], pa.int64()),
    })


GEO_LAT0, GEO_LON0 = 10_000_000, -20_000_000  # query point, micro-degrees
GEO_RADIUS = 60_000_000                       # planar radius, micro-degrees
GEO_K = 20


def geo_distance_search(sf_dir: str):
    """ES ``geo_distance`` query + geo-distance sort, float-hazard-free:
    customers carry deterministic hash-derived coordinates (md5-low64 ==
    DuckDB md5_number_lower — the repo's cross-engine hash convention),
    the filter keeps points within a PLANAR radius of the query point
    and ranks by squared distance (monotone in distance, so the order
    is the geo sort's) — every quantity integer micro-degrees, so the
    shortlist is bitwise-oracled. At 100 TB the planar gate is the
    bounding-box prefilter a haversine re-rank would run behind; each
    batch emits a partial top-K, the driver merges K-sized lists."""
    from ..functions.dedup import md5_low64

    def part(b: pa.Table) -> pa.Table:
        ck = np.asarray(b["c_custkey"].combine_chunks()).astype(np.int64)
        lat = (md5_low64(np.array([f"lat:{c}" for c in ck], dtype=object))
               % np.uint64(180_000_001)).astype(np.int64) - 90_000_000
        lon = (md5_low64(np.array([f"lon:{c}" for c in ck], dtype=object))
               % np.uint64(360_000_001)).astype(np.int64) - 180_000_000
        d2 = (lat - GEO_LAT0) ** 2 + (lon - GEO_LON0) ** 2
        keep = d2 <= GEO_RADIUS * GEO_RADIUS
        order = np.lexsort((ck[keep], d2[keep]))[:GEO_K]  # partial top-K
        return pa.table({
            "c_custkey": pa.array(ck[keep][order], pa.int64()),
            "lat_micros": pa.array(lat[keep][order], pa.int64()),
            "lon_micros": pa.array(lon[keep][order], pa.int64()),
            "d2": pa.array(d2[keep][order], pa.int64()),
        })

    t = (rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
         .map_batches(part, batch_format="pyarrow")
         .to_pandas())  # ≤ K rows per batch reach the driver
    order = np.lexsort((t["c_custkey"].to_numpy(),
                        t["d2"].to_numpy()))[:GEO_K]
    out = t.iloc[order]
    return pa.table({
        "c_custkey": pa.array(out["c_custkey"].to_numpy(np.int64)),
        "lat_micros": pa.array(out["lat_micros"].to_numpy(np.int64)),
        "lon_micros": pa.array(out["lon_micros"].to_numpy(np.int64)),
        "d2": pa.array(out["d2"].to_numpy(np.int64)),
        "rank": pa.array(np.arange(1, len(out) + 1, dtype=np.int64)),
    })


def nation_supplier_csv(sf_dir: str):
    """Ordered string_agg per group: each nation's supplier names as
    one comma-joined string, sorted — SQL ``string_agg(s_name, ','
    ORDER BY s_name)``. One hash-bucket shuffle; each bucket sorts
    once and joins every group's strings (the concat itself IS the
    output payload, so per-group join cost is the output size)."""
    def tag(b: pa.Table) -> pa.Table:
        k = np.asarray(b["s_nationkey"].combine_chunks().cast(pa.int64()))
        h = pd.util.hash_array(k)
        return pa.table({
            "s_nationkey": pa.array(k, pa.int64()),
            "s_name": b["s_name"].combine_chunks(),
            "__bucket": pa.array((h % np.uint64(8)).astype(np.int64)),
        })

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["s_nationkey", "s_name"], kind="mergesort")
        return (g.groupby("s_nationkey", sort=False)["s_name"]
                .agg(",".join).rename("names").reset_index())

    return (rd.read_parquet(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_nationkey", "s_name"])
            .map_batches(tag, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(agg, batch_format="pandas"))


def lineitem_unpivot(sf_dir: str):
    """UNPIVOT/melt: the three measure columns (quantity, discount,
    tax) become (measure, value_micros) rows — a pure map-side 3×
    expansion, no shuffle, streaming."""
    measures = ["l_quantity", "l_discount", "l_tax"]

    def melt(b: pa.Table) -> pa.Table:
        ok = b["l_orderkey"].combine_chunks().cast(pa.int64())
        ln = b["l_linenumber"].combine_chunks().cast(pa.int64())
        n = b.num_rows
        return pa.table({
            "l_orderkey": pa.concat_arrays([ok] * 3),
            "l_linenumber": pa.concat_arrays([ln] * 3),
            "measure": pa.array(np.repeat(measures, n), pa.string()),
            "value_micros": pa.concat_arrays(
                [pc_micros(b[m]) for m in measures]),
        })

    return (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_orderkey", "l_linenumber",
                                     *measures])
            .map_batches(melt, batch_format="pyarrow"))


def customer_urgent_left(sf_dir: str):
    """LEFT OUTER join with real unmatched rows: every customer joined
    to their URGENT-priority order stats; customers with none keep a
    0-count row (SQL LEFT JOIN + coalesce). The orders side aggregates
    FIRST (map-side partials + one small shuffle) so the join input is
    per-customer rows, then the partitioned hash join runs how='left'
    — this also exercises the typed-empty-frame path for one-sided
    buckets."""
    from ..functions.joins import hash_join

    def part(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["o_orderpriority"], "1-URGENT")
        t = b.filter(keep)
        out = pa.table({
            "c_custkey": t["o_custkey"].combine_chunks().cast(pa.int64()),
            "n_urgent": np.ones(t.num_rows, np.int64),
            "urgent_micros": pc_micros(t["o_totalprice"]),
        })
        return _partial_sums(out, ["c_custkey"],
                             {"n_urgent": "n_urgent",
                              "urgent_micros": "urgent_micros"})

    urgent = (rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                              columns=["o_custkey", "o_orderpriority",
                                       "o_totalprice"])
              .map_batches(part, batch_format="pyarrow")
              .groupby("c_custkey")
              .aggregate(Sum("n_urgent", alias_name="n_urgent"),
                         Sum("urgent_micros", alias_name="urgent_micros")))
    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_mktsegment"])
    joined = hash_join(cust, urgent, on="c_custkey", how="left",
                       num_buckets=8)

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": b["c_custkey"].combine_chunks().cast(pa.int64()),
            "c_mktsegment": b["c_mktsegment"].combine_chunks(),
            "n_urgent": pc.fill_null(b["n_urgent"], 0).combine_chunks()
                .cast(pa.int64()),
            "urgent_micros": pc.fill_null(b["urgent_micros"], 0)
                .combine_chunks().cast(pa.int64()),
        })

    return joined.map_batches(fin, batch_format="pyarrow")


def orders_by_month(sf_dir: str):
    """Temporal bucketing: order count + revenue per (year, month) —
    pyarrow temporal kernels (pc.year/pc.month) with map-side partial
    sums; integer keys so both engines bucket identically."""
    def part(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"].combine_chunks()
        t = pa.table({
            "y": pc.year(ts).cast(pa.int64()),
            "m": pc.month(ts).cast(pa.int64()),
            "n_orders": np.ones(b.num_rows, dtype=np.int64),
            "revenue_micros": pc_micros(b["o_totalprice"]),
        })
        return _partial_sums(t, ["y", "m"],
                             {"n_orders": "n_orders",
                              "revenue_micros": "revenue_micros"})

    return (rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                            columns=["o_orderdate", "o_totalprice"])
            .map_batches(part, batch_format="pyarrow")
            .groupby(["y", "m"])
            .aggregate(Sum("n_orders", alias_name="n_orders"),
                       Sum("revenue_micros", alias_name="revenue_micros")))


PCTR_PROBES = (5.0, 25.0, 100.0, 400.0)


def percentile_ranks(sf_dir: str):
    """ES ``percentile_ranks`` aggregation (the inverse of percentiles):
    for each probe value, the fraction of events.value at or below it —
    rank_micros = count(value <= p) · 1e6 // n, pure integers after the
    float comparison (identical doubles both engines). One streaming
    pass: each batch emits one partial row of |probes|+1 counters."""
    def part(b: pa.Table) -> pa.Table:
        v = np.asarray(b["value"].combine_chunks(), dtype=np.float64)
        cols = {"g": np.zeros(1, np.int64),
                "n": np.array([len(v)], np.int64)}
        for i, p in enumerate(PCTR_PROBES):
            cols[f"le{i}"] = np.array([int((v <= p).sum())], np.int64)
        return pa.table(cols)

    names = ["n"] + [f"le{i}" for i in range(len(PCTR_PROBES))]
    rows = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["value"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("g")
            .aggregate(*[Sum(c, alias_name=c) for c in names])
            .take_all())
    r = rows[0]
    n = int(r["n"])
    return pa.table({
        "probe_micros": pa.array([to_micros(p) for p in PCTR_PROBES],
                                 pa.int64()),
        "rank_micros": pa.array(
            [int(r[f"le{i}"]) * 1_000_000 // n
             for i in range(len(PCTR_PROBES))], pa.int64()),
    })


def bucket_stats_pipeline(sf_dir: str):
    """ES pipeline aggregation (stats_bucket over a date_histogram):
    monthly order counts reduce to ONE stats row (n_buckets, min, max,
    sum, integer-floor avg) — the sibling-agg readout layered on
    orders_by_month's partial-sums histogram; the bucket table is
    month-bounded, so the pipeline step is a driver-side fold."""
    t = orders_by_month(sf_dir).to_pandas()  # ≤ months rows
    n = t["n_orders"].to_numpy(np.int64)
    return pa.table({
        "n_buckets": pa.array([len(n)], pa.int64()),
        "min_n": pa.array([int(n.min())], pa.int64()),
        "max_n": pa.array([int(n.max())], pa.int64()),
        "sum_n": pa.array([int(n.sum())], pa.int64()),
        "avg_micros": pa.array([int(n.sum()) * 1_000_000 // len(n)],
                               pa.int64()),
    })


ADH_TARGET = 30  # auto_date_histogram bucket budget
ADH_INTERVALS = ("day", "week", "month", "quarter", "year")


def auto_date_histogram(sf_dir: str):
    """ES ``auto_date_histogram``: the agg PICKS the finest calendar
    interval (day → week → month → quarter → year) whose bucket count
    fits the target, then returns that interval's histogram. One
    streaming pass emits partial counts for ALL candidate intervals
    (bucket keys are pure integer date arithmetic — epoch-day, week =
    day//7, y·100+m, y·10+q, y — so both engines derive identical
    keys); the combined bucket table is calendar-bounded (≈3k rows for
    7 years), the pick and readout are driver-side."""
    def part(b: pa.Table) -> pa.Table:
        dt = b["o_orderdate"].combine_chunks()
        days = np.asarray(dt.cast(pa.date32()).cast(pa.int32())
                          ).astype(np.int64)
        y = np.asarray(pc.year(dt)).astype(np.int64)
        m = np.asarray(pc.month(dt)).astype(np.int64)
        q = (m - 1) // 3 + 1
        keys = {"day": days, "week": days // 7, "month": y * 100 + m,
                "quarter": y * 10 + q, "year": y}
        parts = []
        for iv in ADH_INTERVALS:
            t = pa.table({"interval": pa.array([iv] * len(days),
                                               pa.string()),
                          "bucket": pa.array(keys[iv], pa.int64()),
                          "n": np.ones(len(days), dtype=np.int64)})
            parts.append(_partial_sums(t, ["interval", "bucket"],
                                       {"n": "n"}))
        return pa.concat_tables(parts)

    counts = (rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                              columns=["o_orderdate"])
              .map_batches(part, batch_format="pyarrow")
              .groupby(["interval", "bucket"])
              .aggregate(Sum("n", alias_name="n"))
              .to_pandas())  # calendar-bounded
    n_buckets = counts.groupby("interval")["bucket"].nunique()
    pick = next((iv for iv in ADH_INTERVALS
                 if int(n_buckets.get(iv, 0)) <= ADH_TARGET), "year")
    sub = counts[counts["interval"] == pick]
    order = np.argsort(sub["bucket"].to_numpy())
    out = sub.iloc[order]
    return pa.table({
        "interval": pa.array([pick] * len(out), pa.string()),
        "bucket": pa.array(out["bucket"].to_numpy(np.int64)),
        "n": pa.array(out["n"].to_numpy(np.int64)),
    })


def moving_fn_pipeline(sf_dir: str):
    """ES pipeline aggregations over the monthly histogram: moving_fn
    (an integer EWMA, s_t = (n_t + 3·s_{t-1}) // 4 — rational α=1/4 in
    pure floor arithmetic, so both engines agree bitwise without a
    single float) and derivative (n_t − n_{t−1}, 0 on the first
    bucket). The bucket table is month-bounded, so the sequential fold
    is a driver-side loop over ≤ |months| rows; the oracle mirrors it
    with a recursive CTE."""
    t = orders_by_month(sf_dir).to_pandas()  # ≤ months rows
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy()))
    t = t.iloc[order].reset_index(drop=True)
    n = t["n_orders"].to_numpy(np.int64)
    ewma = np.empty(len(n), np.int64)
    for i, v in enumerate(n):  # bounded: one row per month
        ewma[i] = v if i == 0 else (v + 3 * ewma[i - 1]) // 4
    deriv = np.concatenate(([0], np.diff(n)))
    return pa.table({
        "y": pa.array(t["y"].to_numpy(np.int64)),
        "m": pa.array(t["m"].to_numpy(np.int64)),
        "n": pa.array(n),
        "ewma": pa.array(ewma),
        "deriv": pa.array(deriv),
    })


def fim_transform(sf_dir: str):
    """Fill-in-the-middle training transform (the FIM / infilling data
    prep for code models): each doc's kept tokens split into
    prefix/middle/suffix at two hash-derived cut points (md5-low64 ==
    DuckDB md5_number_lower, mod n+1 — deterministic, reproducible
    across engines and runs; empty parts allowed), emitted as separate
    columns so downstream PSM/SPM re-assembly is a concat. Delegates to
    the reusable library op (functions/training_export.fim_dataset —
    map-side, one tokenize pass + three flat range-gathers)."""
    from ..functions.training_export import fim_dataset

    return fim_dataset(
        rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"]))


def events_minmax(sf_dir: str):
    """Min/Max/Count per group via mergeable partials: each batch
    emits one (min, max, n) row per key, the groupby merges them —
    the shuffle never carries raw rows."""
    from ray.data.aggregate import Max, Min

    def part(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": b["event_type"].combine_chunks().to_pylist(),
            "vm": np.asarray(pc_micros(b["value"])),
        })
        g = (df.groupby("event_type", sort=False)
             .agg(min_micros=("vm", "min"), max_micros=("vm", "max"),
                  n=("vm", "size")).reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["event_type", "value"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Min("min_micros", alias_name="min_micros"),
                       Max("max_micros", alias_name="max_micros"),
                       Sum("n", alias_name="n")))


def docs_stratified_sample(sf_dir: str):
    """Stratified deterministic sampling: per-group Bernoulli rates
    (en 1/4, de 1/7, all other langs 1/10) from the same md5(doc_id)
    draw as docs_sample — shuffle-free, reproducible, independent of
    partitioning, one streaming pass. The scale-safe way to rebalance
    a corpus by group without a groupby."""
    from ..functions.dedup import md5_low64

    def keep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        lang = np.asarray(batch["lang"].combine_chunks().to_pylist(),
                          dtype=object)
        h = md5_low64(np.array([str(i) for i in ids], dtype=object))
        mod = np.where(lang == "en", 4,
                       np.where(lang == "de", 7, 10)).astype(np.uint64)
        return batch.filter(pa.array(h % mod == np.uint64(0)))

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "lang"])
            .map_batches(keep, batch_format="pyarrow"))


def regex_extract(sf_dir: str):
    """Vectorized regex capture-group extraction: the first word
    following "table " in each doc, via pyarrow.compute.extract_regex
    (RE2 — the same engine DuckDB's regexp_extract uses, so
    leftmost-match and group semantics agree)."""
    def ext(batch: pa.Table) -> pa.Table:
        s = pc.extract_regex(batch["text"].combine_chunks(),
                             r"table (?P<nxt>[a-z]+)")
        num = pc.struct_field(s, "nxt")
        ok = pc.is_valid(num)
        return pa.table({
            "doc_id": batch["doc_id"].combine_chunks().filter(ok),
            "after_table": num.filter(ok),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(ext, batch_format="pyarrow"))


def lang_term_overlap(sf_dir: str):
    """Set intersection (§2.7): terms appearing in at least one 'en'
    doc AND at least one 'de' doc. Presence indicators combine
    map-side (per-batch distinct terms with per-lang counts), so the
    shuffle carries one row per distinct term per batch — never a row
    per posting."""
    def partial(b: pa.Table) -> pa.Table:
        tf = term_frequencies(b["text"].combine_chunks())
        lang = np.asarray(b["lang"].combine_chunks().to_pylist(),
                          dtype=object)[tf.doc_idx]
        df = pd.DataFrame({"term": tf.terms,
                           "en_n": (lang == "en").astype(np.int64),
                           "de_n": (lang == "de").astype(np.int64)})
        out = df.groupby("term", sort=False, as_index=False).sum()
        out = out[(out["en_n"] > 0) | (out["de_n"] > 0)]
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (rd.read_parquet(_docs(sf_dir), columns=["text", "lang"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("en_n", alias_name="en_n"),
                                      Sum("de_n", alias_name="de_n")))

    def fin(b: pa.Table) -> pa.Table:
        both = pc.and_(pc.greater(b["en_n"], 0), pc.greater(b["de_n"], 0))
        return pa.table({"term": b["term"].combine_chunks().filter(
            both.combine_chunks() if isinstance(both, pa.ChunkedArray)
            else both)})

    return agg.map_batches(fin, batch_format="pyarrow")


def value_quantiles(sf_dir: str):
    """Exact order statistics over events.value WITHOUT a global sort:
    iterative histogram-narrowing selection (functions/quantiles.py) —
    2–4 streaming passes instead of an all-to-all. DuckDB quantile_disc
    index semantics, so the oracle matches bit-for-bit."""
    from ..functions.quantiles import quantiles_disc

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    qs = [0.1, 0.5, 0.9]
    vals = quantiles_disc(ds, "value", qs)
    return pa.table({
        "q_micros": pa.array([to_micros(q) for q in qs], pa.int64()),
        "value_micros": pa.array([to_micros(v) for v in vals], pa.int64()),
    })


def contamination_hits(sf_dir: str):
    """Benchmark decontamination (GPT-3 §C): docs sharing ≥1 token
    3-gram with the held-out set (doc_id % 97 == 0) and the DISTINCT
    contaminated n-gram count. Blocklist broadcasts (benchmark-sized);
    the corpus streams through one membership probe — no shuffle.
    Production n is 8–13; n=3 here because the synthetic testdata
    vocabulary is ~40 words."""
    from ..functions.curation import contamination_flags

    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return contamination_flags(ds, n=3, bench_mod=97)


def repetition_stats(sf_dir: str):
    """Gopher-style per-doc repetition signals (top-2-gram token
    fraction, duplicated-3-gram token fraction) — per-doc quantities,
    exact inside one map_batches pass."""
    from ..functions.curation import repetition_stats as rep

    return rep(rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"]))


def pii_redact(sf_dir: str):
    """PII scrub: RE2 global replace of email/SSN/phone patterns with
    per-pattern match counts (email → SSN → phone, counts taken on the
    progressively-redacted text in that order, both engines)."""
    from ..functions.curation import redact_pii

    return redact_pii(rd.read_parquet(_docs(sf_dir),
                                      columns=["doc_id", "text"]))


def edit_pairs(sf_dir: str):
    """Edit-distance near-dup pairs: Levenshtein ≤ 40 over 64-char
    prefixes inside (lang, n_chars//32) blocks — Myers bit-parallel
    kernel, all pairs in a block in one vectorized pass; the blocking
    groupby is the only shuffle."""
    from ..functions.curation import edit_distance_pairs

    ds = rd.read_parquet(_docs(sf_dir),
                         columns=["doc_id", "text", "lang", "n_chars"])
    return edit_distance_pairs(ds, max_dist=40, prefix_len=64,
                               len_bucket=32)


PPR_SEEDS = (7, 42)


def ppr_related(sf_dir: str):
    """PERSONALIZED PageRank over the same co-purchase graph as the
    pagerank entry, teleporting to seed nodes {7, 42} — the related-
    node discovery primitive ('parts reachable from these two') used
    for related-doc ranking over similarity graphs. Same integer-
    micros kernel (functions/graph.pagerank_micros with seeds=), so
    the personalized trajectory is engine-exact against the unrolled
    SQL mirror."""
    from ..functions.graph import pagerank_micros

    def mk_edges(b: pa.Table) -> pa.Table:
        s = np.asarray(b["l_orderkey"].combine_chunks()) % 512
        d = np.asarray(b["l_partkey"].combine_chunks()) % 512
        pair = s.astype(np.int64) * 512 + d
        u = np.unique(pair)
        return pa.table({"src": pa.array(u // 512, pa.int64()),
                         "dst": pa.array(u % 512, pa.int64())})

    edges = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                             columns=["l_orderkey", "l_partkey"])
             .map_batches(mk_edges, batch_format="pyarrow")
             .groupby(["src", "dst"]).count()
             .map_batches(lambda t: pa.table({"src": t["src"],
                                              "dst": t["dst"]}),
                          batch_format="pyarrow"))
    return pagerank_micros(edges, iterations=3, seeds=list(PPR_SEEDS))


def pagerank(sf_dir: str):
    """PageRank (3 synchronous iterations, damping 0.85) over the
    directed graph src = l_orderkey % 512 → dst = l_partkey % 512
    (distinct edges). Integer-micros arithmetic end to end, so the
    whole iterative trajectory is engine-exact — the oracle is the
    same three steps unrolled as SQL CTEs. The rank vector stays a
    Dataset across iterations (functions/graph.py)."""
    from ..functions.graph import pagerank_micros

    def mk_edges(b: pa.Table) -> pa.Table:
        s = np.asarray(b["l_orderkey"].combine_chunks()) % 512
        d = np.asarray(b["l_partkey"].combine_chunks()) % 512
        pair = s.astype(np.int64) * 512 + d
        u = np.unique(pair)
        return pa.table({"src": pa.array(u // 512, pa.int64()),
                         "dst": pa.array(u % 512, pa.int64())})

    edges = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                             columns=["l_orderkey", "l_partkey"])
             .map_batches(mk_edges, batch_format="pyarrow")
             .groupby(["src", "dst"]).count()
             .map_batches(lambda t: pa.table({"src": t["src"],
                                              "dst": t["dst"]}),
                          batch_format="pyarrow"))
    return pagerank_micros(edges, iterations=3)


def connected_components(sf_dir: str):
    """Connected components over a bipartite order↔part graph
    (l_linenumber=1 edges, ids mod 2048, disjoint ranges) — the
    Dataset-native min-label propagation from the dedup chain
    (functions/joins.py propagate_min_labels_ds: label table stays a
    Dataset, driver state O(1) scalars per round), surfaced as a
    first-class graph operator. Oracle: recursive min-reachable-label
    CTE."""
    from ..functions.joins import propagate_min_labels_ds

    def mk_edges(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["l_linenumber"], 1)
        t = b.filter(keep)
        a = np.asarray(t["l_orderkey"].combine_chunks()).astype(np.int64) \
            % 2048
        bb = 2048 + np.asarray(t["l_partkey"].combine_chunks()) \
            .astype(np.int64) % 2048
        pair = np.unique(a * 4096 + bb)
        return pa.table({"a": pa.array(pair // 4096, pa.int64()),
                         "b": pa.array(pair % 4096, pa.int64())})

    edges = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                             columns=["l_orderkey", "l_partkey",
                                      "l_linenumber"])
             .map_batches(mk_edges, batch_format="pyarrow")).materialize()
    nodes = (edges.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays([
            t["a"].combine_chunks(), t["b"].combine_chunks()])}),
        batch_format="pyarrow")
        .groupby("node").count()
        .map_batches(lambda t: pa.table({"node": t["node"]}),
                     batch_format="pyarrow"))
    labels = propagate_min_labels_ds(edges, nodes, node_col="node")
    # propagate_min_labels_ds emits its canonical (doc_id, cluster_id)
    return labels.map_batches(
        lambda t: pa.table({
            "node": t["doc_id"].combine_chunks().cast(pa.int64()),
            "component": t["cluster_id"].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow")


def user_modal_event(sf_dir: str):
    """Deterministic grouped MODE: each user's most frequent event
    type, ties broken alphabetically — counts via map-side partials +
    one shuffle, then grouped partial top-k (k=1), so no engine-
    dependent tie behavior ever reaches the result."""
    from ..functions.topk import grouped_topk

    def part(b: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": b["user_id"].combine_chunks().cast(pa.int64()),
            "event_type": b["event_type"].combine_chunks(),
            "n": np.ones(b.num_rows, np.int64),
        })
        return _partial_sums(t, ["user_id", "event_type"], {"n": "n"})

    counts = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                              columns=["user_id", "event_type"])
              .map_batches(part, batch_format="pyarrow")
              .groupby(["user_id", "event_type"])
              .aggregate(Sum("n", alias_name="n")))
    top = grouped_topk(counts, group_col="user_id", sort_col="n", k=1,
                       descending=True, tie_col="event_type")
    return top.map_batches(
        lambda t: t.select(["user_id", "event_type", "n"]),
        batch_format="pyarrow")


def jw_pairs(sf_dir: str):
    """Jaro-Winkler near-dup pairs ≥ 0.9 over 64-char prefixes inside
    (lang, n_chars//32) blocks — the bitset kernel vectorizes across
    all pairs in a block, and the similarity is bitwise-identical to
    DuckDB's jaro_winkler_similarity, so the threshold cut (and the
    micros payload) is engine-exact."""
    from ..functions.curation import jaro_winkler_sim_pairs

    ds = rd.read_parquet(_docs(sf_dir),
                         columns=["doc_id", "text", "lang", "n_chars"])
    return jaro_winkler_sim_pairs(ds, min_sim=0.9, prefix_len=64,
                                  len_bucket=32)


# ---------------- rows-only entries (no SQL oracle) ----------------


def top_docs_per_lang(sf_dir: str):
    """Grouped top-k with map-side partial heaps: 3 longest docs per lang
    (n_chars desc, doc_id asc)."""
    from ..functions.topk import grouped_topk

    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "lang", "n_chars"])
    return grouped_topk(ds, "lang", "n_chars", k=3, tie_col="doc_id")


def longest_docs(sf_dir: str):
    """Global top-10 by n_chars desc (doc_id asc tie-break) via
    per-batch partial top-k + tiny driver merge — a bounded-k result
    never needs the all-to-all a global ``ds.sort`` would shuffle."""
    K = 10

    def partial(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch["n_chars"].combine_chunks()).astype(np.int64)
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        if len(n) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_chars": pa.array([], pa.int64())})
        sel = np.lexsort((ids, -n))[:K]
        return pa.table({"doc_id": ids[sel], "n_chars": n[sel]})

    parts = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "n_chars"])
             .map_batches(partial, batch_format="pyarrow").to_pandas())
    sel = np.lexsort((parts["doc_id"].to_numpy(),
                      -parts["n_chars"].to_numpy()))[:K]
    out = parts.iloc[sel].reset_index(drop=True)
    return pa.table({"doc_id": pa.array(out["doc_id"], pa.int64()),
                     "n_chars": pa.array(out["n_chars"], pa.int64())})


def union_langs(sf_dir: str):
    """Set op: union of two filtered reads (en ∪ de), projected."""
    en = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "lang"],
                         filter=pads.field("lang") == "en")
    de = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "lang"],
                         filter=pads.field("lang") == "de")
    return en.union(de)


def docs_range(sf_dir: str):
    """Bounded-range source (S1/S2): rows [100, 200) in file order."""
    from ..sources.corpus_source import read_corpus_range

    return read_corpus_range(_docs(sf_dir), 100, 200,
                             columns=["doc_id", "source", "n_chars"])


def quality_filter(sf_dir: str):
    """Quality-gated corpus (training-data cleaning step): docs with
    ≥5 kept tokens and stopword ratio ≤ 1/2 — thresholds compared in
    integer space so the SQL oracle matches exactly."""
    def gate(batch: pa.Table) -> pa.Table:
        t = token_stats_batch(batch)
        keep = pc.and_(
            pc.greater_equal(t["n_kept"], 5),
            # (n_tokens - n_kept) / n_tokens <= 0.5  ⇔  2*(n_tokens-n_kept) <= n_tokens
            pc.less_equal(
                pc.multiply(pc.subtract(t["n_tokens"], t["n_kept"]), 2),
                t["n_tokens"]),
        )
        return pa.table({
            "doc_id": t["doc_id"].filter(keep),
            "n_tokens": t["n_tokens"].filter(keep),
            "n_kept": t["n_kept"].filter(keep),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(gate, batch_format="pyarrow"))


def training_sequences(sf_dir: str):
    """Training-data export endpoint: docs → token-id sequences using the
    engine-built vocabulary, exploded to (doc_id, pos, token_id) long
    rows (pos 1-based over kept tokens, ≤ seq_len; padding not emitted)
    so the DuckDB oracle can replicate it from the documents table."""
    from ..functions.training_export import build_vocab, encode_sequences

    eng = _index_for(sf_dir)
    vocab = build_vocab(os.path.join(eng.index_dir, "term_dict"),
                        vocab_size=5000)
    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    seq = encode_sequences(ds, vocab, seq_len=64)

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["input_ids"].combine_chunks().flatten()
                         ).reshape(-1, 64)
        n = np.asarray(batch["n_tokens"].combine_chunks()).astype(np.int64)
        doc = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(doc), dtype=np.int64), n)
        starts = np.concatenate(([0], np.cumsum(n)))[:-1]
        pos = np.arange(len(doc_idx), dtype=np.int64) - starts[doc_idx]
        return pa.table({
            "doc_id": pa.array(doc[doc_idx], pa.int64()),
            "pos": pa.array(pos + 1, pa.int64()),
            "token_id": pa.array(ids[doc_idx, pos].astype(np.int64),
                                 pa.int64()),
        })

    return seq.map_batches(explode, batch_format="pyarrow")


def char_histograms(sf_dir: str):
    """F1 analog: per-doc byte-class counts, long format
    (doc_id, bucket, cnt) — SQL-oracled; the dense normalized feature
    vector variant stays in functions/features.char_histogram_batch."""
    from ..functions.features import char_histogram_long_batch

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(char_histogram_long_batch, batch_format="pyarrow"))


def approx_vocab(sf_dir: str):
    """HLL approximate vocabulary size (mergeable-sketch
    pre-aggregation). SQL-ORACLED despite being an approximation: the
    hash is md5-low64 (== DuckDB md5_number_lower), register rank is
    pure integer bit arithmetic, and HLL.estimate's harmonic
    denominator is an EXACT integer (Σ 2^(53−reg), HUGEINT in the
    mirror), so the whole sketch — like KMV and terms_agg_shard_error
    — is a deterministic function both engines compute identically.
    Accuracy vs true distinct count stays pytest-pinned."""
    from ..functions.sketches import approx_distinct_tokens

    ds = rd.read_parquet(_docs(sf_dir), columns=["text"])
    est = approx_distinct_tokens(ds)
    return pa.table({
        "est_micros": pa.array([to_micros(est)], pa.int64()),
        "m": pa.array([4096], pa.int64()),
    })


def eval_recall(sf_dir: str):
    """E3 eval harness through the driver: queries derived from the first
    tokens of 20 documents, expected = the source doc; recall@10 per
    (config, variant) for bm25 vs tfidf scorers."""
    from ..eval import evaluate

    eng = _index_for(sf_dir)
    docs = pq.read_table(_docs(sf_dir), columns=["doc_id", "text"])
    pairs = []
    for i in range(0, min(200, docs.num_rows), 10):
        toks = clean_query(docs["text"][i].as_py())[:5]
        if toks:
            pairs.append((" ".join(toks), int(docs["doc_id"][i].as_py())))
    _, summary = evaluate(
        {"bm25": {"index_dir": eng.index_dir},
         "tfidf": {"index_dir": eng.index_dir, "scorer": "tfidf"}},
        pairs, k=10)
    return summary

def minhash_clusters(sf_dir: str):
    """MinHash-LSH near-dup clustering through the unbounded-scale code
    paths: in-bucket signature verify (no join, no broadcast) +
    size-aware clustering (clustering="auto": driver union-loop below
    2M verified edges, Dataset-native label propagation above — the
    scale path whose O(1)-driver-state property is pinned by the
    million-node pytest in test_joins.py).

    md5 token hashing + unigram shingles make every stage
    SQL-reproducible, so this entry has a FULL DuckDB oracle
    (signatures → exact band equality → m/64 ≥ threshold verify →
    recursive-CTE min-label components)."""
    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return minhash_lsh_clusters(ds, num_perm=64, num_bands=16, threshold=0.8,
                                shingle_k=1, hash_fn="md5", verify="inline")


def neardup_keep_longest(sf_dir: str):
    """Quality-aware near-dup retention: per MinHash-LSH cluster keep
    the doc with the MOST characters (tie → min doc_id) — the curation
    policy real pipelines want (keep the most complete version), vs the
    min-id representative. Labels come from the same oracled
    md5/unigram clustering chain as minhash_clusters; the keep decision
    is one cluster-bucket shuffle with a vectorized per-bucket
    sort + drop_duplicates (never a per-cluster Python loop)."""
    from ..functions.joins import hash_join

    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    labels = minhash_lsh_clusters(ds, num_perm=64, num_bands=16,
                                  threshold=0.8, shingle_k=1,
                                  hash_fn="md5", verify="inline")
    meta = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "n_chars"])
    joined = hash_join(labels, meta, on="doc_id", num_buckets=8)

    def bucketize(b: pa.Table) -> pa.Table:
        cid = np.asarray(b["cluster_id"].combine_chunks()).astype(np.int64)
        bk = (pd.util.hash_array(cid.astype(np.uint64))
              % np.uint64(8)).astype(np.int64)
        return b.append_column("__b", pa.array(bk))

    def keep_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cluster_id", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        out = df.drop_duplicates("cluster_id", keep="first")
        return out[["doc_id", "cluster_id"]].reset_index(drop=True)

    return (joined.map_batches(bucketize, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(keep_in_bucket, batch_format="pandas"))


def minhash_search(sf_dir: str):
    """MinHash-LSH retrieval (the reference's search path): top-10 docs
    most similar to doc 0's text by estimated Jaccard, via the parquet
    signature/bucket index. With md5 token hashing and unigram shingles
    the whole signature chain is SQL-reproducible, so this entry has a
    full DuckDB oracle (candidates = share ≥1 complete band with the
    query signature; est = matching-perm fraction)."""
    from ..minhash_index import MinHashSearchIndex

    idx_dir = _cache_dir(sf_dir, "minhash_index_md5")
    _ensure_built(
        os.path.join(idx_dir, "config.json"),  # written last by build()
        lambda: MinHashSearchIndex.build(
            rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"]),
            idx_dir, num_perm=128, num_bands=32, shingle_k=1,
            hash_fn="md5"))
    idx = MinHashSearchIndex(idx_dir)
    q_text = pq.read_table(_docs(sf_dir), filters=[("doc_id", "=", 0)],
                           columns=["text"])["text"][0].as_py()
    res = idx.search(q_text, top_k=10)
    return pa.table({
        "doc_id": pa.array([d for d, _ in res], pa.int64()),
        "est_jaccard_micros": pa.array([to_micros(j) for _, j in res],
                                       pa.int64()),
        "rank": pa.array(np.arange(1, len(res) + 1), pa.int64()),
    })


def simhash_sigs(sf_dir: str):
    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return simhash_signatures(ds)


def doc_fingerprints(sf_dir: str):
    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(fingerprint_batch, batch_format="pyarrow"))


def lang_id(sf_dir: str):
    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(LangIdScorer, batch_format="pyarrow",
                         batch_size=256, concurrency=2))


def knn_ann_lsh(sf_dir: str):
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return knn_lsh(ds, q, k=10, n_planes=8, multiprobe=2).drop_columns(["query_id"])


def _ivf_for(sf_dir: str):
    """The k=8 IVF index over the embeddings, built once per sf_dir."""
    from ..functions.ivf import IVFIndex

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    idx_dir = _cache_dir(sf_dir, "ivf_index")
    _ensure_built(
        os.path.join(idx_dir, "config.json"),  # written last by build()
        lambda: IVFIndex.build(
            rd.read_parquet(emb_path, columns=["vec_id", "embedding"]),
            idx_dir, k=8, iters=4, seed=17))
    return IVFIndex(idx_dir)


def knn_ivf(sf_dir: str):
    """IVF ANN (the coarse-quantizer scale path): distributed k-means
    centroids partition the corpus into hive parquet lists; the query
    probes its 2 nearest partitions and scores exact cosine inside
    them. Micros-exact k-means updates commute, so the oracle rebuilds
    the SAME centroids via the pure-NumPy mirror and embeds them as SQL
    literals — the whole chain (assign → probe → exact rescore) is
    value-checked against DuckDB."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    idx = _ivf_for(sf_dir)
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    return idx.search(q, k=10, nprobe=2)


PQ_M, PQ_K = 4, 8


def knn_pq(sf_dir: str):
    """Product-quantization ANN (Jégou et al. 2011 — the vector-
    compression scale path): 64-dim embeddings → 4 one-byte codes via
    per-subspace micros-exact k-means codebooks; the query scores the
    CODES table through an int64 ADC lookup (per-entry micros
    round-then-sum), top-10 by (dist asc, vec_id asc). Codebooks train
    driver-side here (oracle parity; at scale: train on a sample, the
    encode/search passes stay distributed). The oracle replays the
    assignment with codebook literals + list_distance row_number (the
    knn_ivf pattern) and sums the SAME integer LUT literals."""
    from ..functions.pq import (adc_lut_micros, encode_pq_ds, pq_topk,
                                train_pq_codebooks)

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    x = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(t["vec_id"].to_numpy())
    x = x[order]  # vec_id order: training must match the oracle's scan
    cbs = train_pq_codebooks(x, m=PQ_M, k=PQ_K, iters=4, seed=17)
    q = x[0]  # vec_id = 0 (sorted order)
    codes = encode_pq_ds(
        rd.read_parquet(emb_path, columns=["vec_id", "embedding"]), cbs)
    return pq_topk(codes, adc_lut_micros(q, cbs), k=10)


def knn_ivfpq(sf_dir: str):
    """IVF-PQ composite ANN (the FAISS-style scale path): the knn_ivf
    coarse centroids prune to 2 probed cells, the knn_pq codebooks +
    int64 ADC rank only the survivors. Both assignment stages replay
    in the oracle from the SAME centroid/codebook literals; probes and
    the LUT are Python-side integers."""
    from ..functions.ivf import kmeans_numpy
    from ..functions.pq import ivfpq_topk, train_pq_codebooks

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    x = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    x = x[np.argsort(t["vec_id"].to_numpy())]
    coarse = kmeans_numpy(x, k=8, iters=4, seed=17)  # == knn_ivf's
    cbs = train_pq_codebooks(x, m=PQ_M, k=PQ_K, iters=4, seed=17)
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return ivfpq_topk(ds, coarse, cbs, x[0], k=10, nprobe=2)


def knn_ivfpq_rerank(sf_dir: str):
    """Two-stage vector retrieval (the T2 candidate+verify shape):
    IVF-PQ ADC produces 100 candidates, a predicate-pushdown read of
    ONLY those ids' raw embeddings re-ranks them by exact cosine —
    compressed recall, exact final order. Candidate identity is
    cross-engine safe (integer ADC distances, vec_id ties)."""
    from ..functions.ivf import kmeans_numpy
    from ..functions.pq import (ivfpq_topk, pq_rerank_exact,
                                train_pq_codebooks)

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    x = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    x = x[np.argsort(t["vec_id"].to_numpy())]
    coarse = kmeans_numpy(x, k=8, iters=4, seed=17)
    cbs = train_pq_codebooks(x, m=PQ_M, k=PQ_K, iters=4, seed=17)
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    adc = ivfpq_topk(ds, coarse, cbs, x[0], k=100, nprobe=2)
    return pq_rerank_exact(ds, adc["vec_id"].to_numpy(), x[0], k=10)


def pq_dedup_groups(sf_dir: str):
    """Semantic coarse dedup via PQ cells (the SemDeDup-shaped cheap
    pass): vectors sharing ALL subspace codes land in one quantization
    cell — near-duplicate candidates found without any pairwise
    distance work. Emits per vector its cell and the cell's population
    plus a deterministic keep flag (lowest vec_id per cell); at 100 TB
    this is a single groupby over 4-byte codes, the pre-filter before
    exact verification."""
    from ..functions.pq import encode_pq_ds, train_pq_codebooks

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    x = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    x = x[np.argsort(t["vec_id"].to_numpy())]
    cbs = train_pq_codebooks(x, m=PQ_M, k=PQ_K, iters=4, seed=17)
    codes = encode_pq_ds(
        rd.read_parquet(emb_path, columns=["vec_id", "embedding"]), cbs)

    def cell(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["vec_id"].combine_chunks()).astype(np.int64)
        c = np.stack([np.asarray(b[f"code_{s}"].combine_chunks())
                      for s in range(PQ_M)], axis=1).astype(np.int64)
        packed = np.zeros(len(ids), dtype=np.int64)
        for s in range(PQ_M):  # K=8 codes pack into 3 bits each
            packed = packed * PQ_K + c[:, s]
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cell": pa.array(packed, pa.int64())})

    cells = codes.map_batches(cell, batch_format="pyarrow").to_pandas()
    # cell-population + keep-first: groupby over ≤ K^M cells (bounded)
    g = cells.groupby("cell")["vec_id"]
    size = g.transform("size").astype(np.int64)
    keep = g.transform("min").astype(np.int64) == cells["vec_id"]
    out = cells.assign(cell_size=size, keep=keep.astype(np.int64))
    out = out.sort_values("vec_id")
    return pa.table({
        "vec_id": pa.array(out["vec_id"].tolist(), pa.int64()),
        "cell": pa.array(out["cell"].tolist(), pa.int64()),
        "cell_size": pa.array(out["cell_size"].tolist(), pa.int64()),
        "keep": pa.array(out["keep"].tolist(), pa.int64()),
    })


KNN_FILTER_LABEL = 3


def knn_filtered(sf_dir: str):
    """Filtered vector search (the ES kNN-with-filter / Qdrant payload
    filter shape): exact cosine top-10 restricted to vectors whose
    label matches — the metadata predicate applies BEFORE the distance
    cut (pre-filtering), so the result is the true top-k of the
    filtered subset, never fewer survivors than k while k matches
    exist. The predicate pushes into the parquet scan (row-group
    pruning at scale); the distance stage is unchanged
    knn_brute_force over the surviving rows."""
    from ..functions.similarity import knn_brute_force

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"],
                         filter=pads.field("label") == KNN_FILTER_LABEL)
    out = knn_brute_force(ds, q, k=10)
    return out.drop_columns(["query_id"])


BQ_CANDIDATES = 50


def knn_bq(sf_dir: str):
    """Binary-quantization ANN: Hamming top-10 over sign-bit codes
    (64-dim → two 32-bit words; faiss IndexBinaryFlat analog). An
    all-integer retrieval surface — the sign test (v >= 0.0) and
    popcount(xor) are exactly reproducible in the DuckDB mirror, so
    this ANN flavor is hash-oracled end to end (unlike any float-dot
    surface). Codes are packed on the fly per batch; at 100 TB the
    packed table is materialized once (32× smaller than the floats)
    and the shortlist never touches the float column."""
    from ..functions.bq import hamming_knn

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return hamming_knn(ds, q, k=10)


def knn_bq_rerank(sf_dir: str):
    """Two-stage binary-quantization retrieval: Hamming top-50
    shortlist (integer, cross-engine-exact candidate identity) → exact
    cosine re-rank of only those rows → top-10. The third two-stage
    ANN next to knn_ivfpq_rerank (PQ candidates) and minhash_search
    (LSH candidates): compressed recall, exact final order, re-rank
    reads only candidate embeddings."""
    from ..functions.bq import hamming_shortlist_rerank

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return hamming_shortlist_rerank(ds, q, k=10, candidates=BQ_CANDIDATES)


SQ_CANDIDATES = 50


def knn_sq8(sf_dir: str):
    """Scalar-quantization (SQ8) ANN: integer squared-L2 top-10 over
    per-dimension min-max 8-bit codes (faiss QT_8bit analog). The
    quantizer trains in one per-dim (min, max) micros pass; codes and
    distances are pure integers, so — like knn_bq — this ANN's
    candidate stage is bitwise-oracled. At 100 TB the code table is
    materialized once (8× smaller) and the shortlist never reads the
    float column."""
    from ..functions.sq import sq8_knn, sq8_train

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    mn, mx = sq8_train(ds)
    return sq8_knn(ds, q, k=10, mn=mn, mx=mx)


def knn_sq8_rerank(sf_dir: str):
    """Two-stage SQ8 retrieval: integer-L2 top-50 shortlist
    (cross-engine-exact candidate identity) → exact cosine re-rank of
    only those rows → top-10. The fourth two-stage ANN next to
    knn_bq_rerank (Hamming), knn_ivfpq_rerank (PQ) and minhash_search
    (LSH)."""
    from ..functions.sq import sq8_shortlist_rerank, sq8_train

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    mn, mx = sq8_train(ds)
    return sq8_shortlist_rerank(ds, q, k=10, candidates=SQ_CANDIDATES,
                                mn=mn, mx=mx)


MRL_DIMS = 16


def knn_mrl(sf_dir: str):
    """Matryoshka (truncated-dimension) ANN shortlist: exact integer
    micros dot product over the first 16 of 64 dims — the MRL adaptive-
    retrieval first stage reads 1/4 of every vector. Integer surface →
    bitwise-oracled (the fifth oracled candidate-stage family next to
    Hamming/SQ8/PQ/IVF)."""
    from ..functions.sq import mrl_knn

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return mrl_knn(ds, q, k=10, dims=MRL_DIMS)


def knn_mrl_rerank(sf_dir: str):
    """Two-stage MRL retrieval: truncated-dim integer-dot top-50
    shortlist → exact full-dimension cosine re-rank → top-10."""
    from ..functions.sq import mrl_shortlist_rerank

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return mrl_shortlist_rerank(ds, q, k=10, candidates=SQ_CANDIDATES,
                                dims=MRL_DIMS)


def multimodal_features(sf_dir: str):
    """Image features from REAL pixels: the synthetic media table's
    image rows are valid 24-bit BMPs, decoded by the pure-NumPy codec
    in an actor pool (fake=False — the decode is not stubbed here)."""
    from ..functions.multimodal import decode_features, synth_media_table

    ds = rd.from_arrow(synth_media_table(60))
    return decode_features(ds, fake=False, batch_size=16, concurrency=2)


def video_frame_sample(sf_dir: str):
    """Frame sampling from REAL decoded frames: the synthetic media
    table's video rows alternate uncompressed-DIB and MJPEG AVIs,
    decoded by the pure-NumPy codecs in an actor pool (fake=False);
    frame_sha fingerprints actual DECODED pixel bytes (exact for DIB,
    deterministic-lossy for MJPEG)."""
    from ..functions.multimodal import sample_frames, synth_media_table

    ds = rd.from_arrow(synth_media_table(60))
    return sample_frames(ds, stride_ms=500, fake=False)


def audio_windows(sf_dir: str):
    """Audio features from REAL PCM samples: WAV payloads decoded via
    the stdlib codec, windowed by sample count (fake=False)."""
    from ..functions.multimodal import ExtractAudioFeatures, synth_media_table

    return rd.from_arrow(synth_media_table(60)).map_batches(
        ExtractAudioFeatures, batch_format="pyarrow", batch_size=16,
        concurrency=2, fn_constructor_kwargs={"window_ms": 10_000,
                                              "fake": False})


# ---------------------------------------------------------------------------
# Sixth wave: keyword extraction, LM/entropy quality scores, dataset mixing,
# time-decayed aggregates.
# ---------------------------------------------------------------------------


def tfidf_keywords(sf_dir: str):
    """Per-doc top-3 TF-IDF keywords (keyword extraction, the classic
    text-analysis shape). df per term is one aggregate pass; the
    resulting idf map broadcasts once via ray.put (vocab-sized, same
    ceiling as doc_logprob's unigram map — bucketed join above ~10⁷
    terms). Scoring + per-doc top-3 is then entirely map-side: a doc's
    tf lives in its own row, so NO shuffle touches the scored pairs.
    Ranking sorts by the EXACT float score (micros would mis-order at
    the cut), term ASC tie-break — mirroring the oracle's
    row_number() OVER (ORDER BY score DESC, term ASC)."""
    import ray as _ray

    df_pd = term_df(sf_dir).to_pandas()  # vocab-sized
    n_docs = pq.read_metadata(_docs(sf_dir)).num_rows
    idf = np.log(float(n_docs) / df_pd["df"].to_numpy().astype(np.float64))
    ref = _ray.put(pd.Series(idf, index=df_pd["term"].to_numpy()))

    def top3(batch: pa.Table) -> pa.Table:
        idf_s = _ray.get(ref)
        tf = term_frequencies(batch["text"].combine_chunks())
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        if len(tf.tf) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64()),
                             "score_micros": pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64())})
        idf_vocab = idf_s.reindex(tf.vocab.to_pylist()).to_numpy()
        score = tf.tf.astype(np.float64) * idf_vocab[tf.codes]
        vocab_py = np.asarray(tf.vocab.to_pylist(), dtype=object)
        terms = vocab_py[tf.codes]
        order = np.lexsort((terms, -score, tf.doc_idx))
        sdoc = tf.doc_idx[order]
        starts = np.flatnonzero(np.diff(np.concatenate(([-1], sdoc))))
        runs = np.diff(np.concatenate((starts, [len(sdoc)])))
        pos = np.arange(len(sdoc)) - np.repeat(starts, runs)
        keep = pos < 3
        sel = order[keep]
        return pa.table({
            "doc_id": pa.array(ids[tf.doc_idx[sel]], pa.int64()),
            "term": pa.array(terms[sel], pa.string()),
            "tf": pa.array(tf.tf[sel], pa.int64()),
            "score_micros": pa.array(to_micros(score[sel]), pa.int64()),
            "rank": pa.array((pos[keep] + 1).astype(np.int64), pa.int64()),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(top3, batch_format="pyarrow"))


def doc_entropy(sf_dir: str):
    """Per-doc token-distribution entropy, a diversity/quality gate
    (low entropy = repetitive boilerplate). EXACT integer pipeline:
    each term's tf·ln(tf) is rounded to micros FIRST, the per-doc sum
    is int64, and H_micros = round(ln(L)·1e6) − Σpieces // L — all
    integer ops after the per-term rounding, so both engines agree to
    the bit (operands nonnegative: DuckDB's truncating // == floor).
    Entirely map-side: a doc's tf distribution lives in its row."""
    def ent(batch: pa.Table) -> pa.Table:
        tf = term_frequencies(batch["text"].combine_chunks())
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        nrows = batch.num_rows
        if len(tf.tf) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "entropy_micros": pa.array([], pa.int64())})
        tfv = tf.tf.astype(np.float64)
        piece = np.floor(tfv * np.log(tfv) * 1e6 + 0.5).astype(np.int64)
        psum = np.zeros(nrows, dtype=np.int64)
        np.add.at(psum, tf.doc_idx, piece)
        L = np.zeros(nrows, dtype=np.int64)
        np.add.at(L, tf.doc_idx, tf.tf)
        nz = L > 0
        lnL = np.floor(np.log(L[nz].astype(np.float64)) * 1e6
                       + 0.5).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_tokens": pa.array(L[nz], pa.int64()),
            "entropy_micros": pa.array(lnL - psum[nz] // L[nz], pa.int64()),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(ent, batch_format="pyarrow"))


def bigram_logprob(sf_dir: str):
    """Interpolated bigram-LM document scoring — the CCNet/KenLM-style
    perplexity quality filter: per bigram instance
    p = 0.75·(c_ab/c_a) + 0.25·(c_b/T), contribution = round-to-micros
    of ln(p), per-doc int64 sum (order-independent). Unigram and
    bigram count tables broadcast once via ray.put; the bigram table
    is the larger (distinct-bigram-sized — fine to ~10⁸ entries,
    bucketed join via joins.py above that, documented ceiling).
    Bigram counts reduce through 16 hash buckets, NOT the native
    groupby.aggregate (the measured ~50× trap at high-cardinality
    keys, see NOTES.md)."""
    import ray as _ray
    from ..functions.curation import _ngrams_from_flat

    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])

    def uni_part(b: pa.Table) -> pa.Table:
        flat, _, _ = tokenize_array(b["text"].combine_chunks())
        d = flat.dictionary_encode()
        cnt = np.bincount(np.asarray(d.indices),
                          minlength=len(d.dictionary))
        return pa.table({"term": d.dictionary,
                         "c": pa.array(cnt.astype(np.int64))})

    uni = (docs.map_batches(uni_part, batch_format="pyarrow")
           .groupby("term").aggregate(Sum("c", alias_name="c"))
           .to_pandas())  # vocab-sized
    T = int(uni["c"].sum())
    uni_s = pd.Series(uni["c"].to_numpy(np.int64),
                      index=uni["term"].to_numpy())

    def bg_bucket(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ng, _rows = _ngrams_from_flat(flat, doc_idx, 2)
        d = ng.dictionary_encode()
        cnt = np.bincount(np.asarray(d.indices),
                          minlength=len(d.dictionary))
        dic = d.dictionary
        h = pd.util.hash_array(np.asarray(dic.to_pandas(), dtype=object))
        return pa.table({
            "ng": dic, "cab": pa.array(cnt.astype(np.int64)),
            "__b": pa.array((h % np.uint64(16)).astype(np.int64)),
        })

    def bg_reduce(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop(columns="__b")
                .groupby("ng", as_index=False)["cab"].sum())

    big = (docs.map_batches(bg_bucket, batch_format="pyarrow")
           .groupby("__b").map_groups(bg_reduce, batch_format="pandas")
           .to_pandas())  # distinct-bigram-sized
    big_s = pd.Series(big["cab"].to_numpy(np.int64),
                      index=big["ng"].to_numpy())
    uref = _ray.put(uni_s)
    bref = _ray.put(big_s)

    def score(b: pa.Table) -> pa.Table:
        u, bg_counts = _ray.get(uref), _ray.get(bref)
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        ng, rows = _ngrams_from_flat(flat, doc_idx, 2)
        if len(ng) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_bigrams": pa.array([], pa.int64()),
                             "logprob_micros": pa.array([], pa.int64())})
        m = len(flat) - 1
        same = np.asarray(doc_idx[:m] == doc_idx[1:])
        w1 = flat.slice(0, m).filter(pa.array(same))
        w2 = flat.slice(1, m).filter(pa.array(same))
        cab = bg_counts.reindex(ng.to_pylist()).to_numpy(np.float64)
        c1 = u.reindex(w1.to_pylist()).to_numpy(np.float64)
        c2 = u.reindex(w2.to_pylist()).to_numpy(np.float64)
        p = 0.75 * (cab / c1) + 0.25 * (c2 / T)
        contrib = np.floor(np.log(p) * 1e6 + 0.5).astype(np.int64)
        nrows = b.num_rows
        s = np.zeros(nrows, dtype=np.int64)
        np.add.at(s, rows, contrib)
        n = np.bincount(rows, minlength=nrows).astype(np.int64)
        nz = n > 0
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_bigrams": pa.array(n[nz], pa.int64()),
            "logprob_micros": pa.array(s[nz], pa.int64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


# Dataset-mixing rates per source (The-Pile-style domain weights).
# Thresholds are EXACT uint64 cutoffs (rate · 2^64 for dyadic rates),
# mirrored literally in the oracle SQL — change both together.
MIX_RATES: dict[str, int] = {
    "src0": 1 << 63,   # 0.5
    "src1": 1 << 62,   # 0.25
    "src2": 1 << 63,   # 0.5
}
MIX_DEFAULT = 1 << 61  # 0.125


def domain_mix_sample(sf_dir: str):
    """Deterministic dataset mixing: per-source Bernoulli rates via the
    md5-low64 hash of doc_id against exact uint64 thresholds —
    shuffle-free, partitioning-independent, reproducible, and the mix
    is stable under re-runs and resumes (the property a training-data
    mixing stage actually needs; a weighted random_shuffle+limit is
    neither stable nor streaming)."""
    from ..functions.dedup import md5_low64

    def keep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        src = batch["source"].combine_chunks().to_pylist()
        h = md5_low64(np.array([str(i) for i in ids], dtype=object))
        thr = np.array([MIX_RATES.get(s, MIX_DEFAULT) for s in src],
                       dtype=np.uint64)
        return batch.filter(pa.array(h < thr))

    return (rd.read_parquet(_docs(sf_dir),
                            columns=["doc_id", "source", "lang"])
            .map_batches(keep, batch_format="pyarrow"))


def decayed_events(sf_dir: str):
    """Exponentially time-decayed value sum per user (recency-weighted
    engagement): w = exp(−Δt/τ), τ = 1 h, Δt measured from the global
    max event time (one Max aggregate over the ts column only,
    broadcast as a scalar). Each row's value·w is rounded to micros
    FIRST and summed in int64 — order-independent, so map-side
    partials commute and the shuffle carries per-batch partial rows."""
    ev = os.path.join(sf_dir, "events.parquet")
    tmax = int(rd.read_parquet(ev, columns=["ts"]).map_batches(
        lambda b: pa.table(
            {"t": [pc.max(b["ts"].cast(pa.int64())).as_py()]}),
        batch_format="pyarrow").max("t"))

    def contrib(b: pa.Table) -> pa.Table:
        ts = np.asarray(b["ts"].combine_chunks().cast(pa.int64()))
        val = np.asarray(b["value"].combine_chunks())
        w = np.exp(-((tmax - ts).astype(np.float64) / 3.6e9))
        c = np.floor(val * w * 1e6 + 0.5).astype(np.int64)
        t = pa.table({
            "user_id": b["user_id"].combine_chunks(),
            "n": np.ones(b.num_rows, dtype=np.int64),
            "decayed_micros": c,
        })
        return _partial_sums(t, ["user_id"],
                             {"n": "n", "decayed_micros": "decayed_micros"})

    return (rd.read_parquet(ev, columns=["user_id", "ts", "value"])
            .map_batches(contrib, batch_format="pyarrow")
            .groupby("user_id")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("decayed_micros", alias_name="decayed_micros")))


def dedup_spans(sf_dir: str):
    """Exact duplicated-span REMOVAL (Lee et al. 2021) over documents —
    the transform twin of dup_ngram_stats: tokens covered by an 8-gram
    occurring in ≥2 distinct docs are dropped, the doc survives with
    its uncovered tokens re-joined. Fully SQL-oracled (md5-low64 gram
    identity; coverage = dup-gram starts × generate_series(0,7);
    kept_text = string_agg over uncovered ordinals)."""
    from ..functions.curation import remove_duplicate_spans

    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    return remove_duplicate_spans(docs, n=8)


def dup_ngram_stats(sf_dir: str):
    """Cross-document duplicated-span signal (the exact-substring dedup
    metric of Lee et al. 2021, "Deduplicating Training Data Makes
    Language Models Better"): per doc, the fraction of its 8-gram
    INSTANCES whose 8-gram occurs in ≥2 distinct documents. Entirely
    integer-exact — md5-low64 gram identities (== DuckDB
    md5_number_lower), integer counts, and frac_micros =
    dup·1000000 // total (operands nonnegative: truncation == floor) —
    no float anywhere, so no rounding-boundary exposure at any scale.

    Pass 1 builds the duplicated-gram set: distinct (doc, gram-hash)
    pairs per batch (doc_ngram_hashes — exact because docs never span
    batches), per-batch partial doc-counts per hash, reduced through 16
    hash buckets (NOT the native groupby.aggregate — the measured ~50×
    high-cardinality trap), filtered to count ≥ 2. The dup set
    broadcasts via ray.put as a sorted array (typically ≪ corpus grams;
    above ~10⁸ entries route membership through functions/bloom.py's
    bloom semi-join + exact verify instead). Pass 2 streams the corpus
    once more and counts per-doc member instances map-side."""
    import ray as _ray
    from ..functions.curation import _ngrams_from_flat, doc_ngram_hashes
    from ..functions.dedup import md5_low64_arrow

    N = 8
    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])

    def pair_counts(b: pa.Table) -> pa.Table:
        doc, h = doc_ngram_hashes(b, N)
        uniq, cnt = np.unique(h, return_counts=True)
        return pa.table({
            "h": pa.array(uniq.view(np.int64), pa.int64()),
            "c": pa.array(cnt.astype(np.int64)),
            "__b": pa.array((uniq % np.uint64(16)).view(np.int64)),
        })

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("h", as_index=False)["c"].sum()
        return agg[agg["c"] >= 2][["h"]]

    dup = (docs.map_batches(pair_counts, batch_format="pyarrow")
           .groupby("__b").map_groups(reduce_bucket, batch_format="pandas")
           .to_pandas())  # duplicated-gram-set-sized
    dup_sorted = np.sort(dup["h"].to_numpy(np.int64).view(np.uint64))
    dref = _ray.put(dup_sorted)

    def per_doc(b: pa.Table) -> pa.Table:
        ds = _ray.get(dref)
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        ng, rows = _ngrams_from_flat(flat, doc_idx, N)
        if len(ng) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_ngrams": pa.array([], pa.int64()),
                             "n_dup": pa.array([], pa.int64()),
                             "dup_frac_micros": pa.array([], pa.int64())})
        h = md5_low64_arrow(ng)
        pos = np.searchsorted(ds, h)
        member = (pos < len(ds)) & (ds[np.minimum(pos, len(ds) - 1)] == h)
        nrows = b.num_rows
        total = np.bincount(rows, minlength=nrows).astype(np.int64)
        dupn = np.bincount(rows[member], minlength=nrows).astype(np.int64)
        nz = total > 0
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_ngrams": pa.array(total[nz], pa.int64()),
            "n_dup": pa.array(dupn[nz], pa.int64()),
            "dup_frac_micros": pa.array(
                dupn[nz] * 1_000_000 // total[nz], pa.int64()),
        })

    return docs.map_batches(per_doc, batch_format="pyarrow")


def token_fertility(sf_dir: str):
    """Tokenizer fertility per language (chars per kept token — the
    stat LLM teams watch per-language to size tokenizers): integer
    char/token sums combined map-side, one tiny lang groupby, and the
    ratio as chars·1e6 // tokens — float-free end to end."""
    def partial(b: pa.Table) -> pa.Table:
        _, _, doc_lens = tokenize_array(b["text"].combine_chunks())
        t = pa.table({
            "lang": b["lang"].combine_chunks(),
            "n_chars": b["n_chars"].combine_chunks().cast(pa.int64()),
            "n_tokens": pa.array(doc_lens, pa.int64()),
        })
        return _partial_sums(t, ["lang"], {"n_chars": "n_chars",
                                           "n_tokens": "n_tokens"})

    agg = (rd.read_parquet(_docs(sf_dir),
                           columns=["lang", "text", "n_chars"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("n_chars", alias_name="n_chars"),
                      Sum("n_tokens", alias_name="n_tokens"))
           .to_pandas())  # one row per language
    agg = agg[agg["n_tokens"] > 0]
    return pa.table({
        "lang": pa.array(agg["lang"].to_numpy(dtype=object), pa.string()),
        "n_chars": pa.array(agg["n_chars"].to_numpy(np.int64)),
        "n_tokens": pa.array(agg["n_tokens"].to_numpy(np.int64)),
        "chars_per_token_micros": pa.array(
            agg["n_chars"].to_numpy(np.int64) * 1_000_000
            // agg["n_tokens"].to_numpy(np.int64), pa.int64()),
    })


def containment_pairs(sf_dir: str):
    """Subset-duplicate detection: 8-gram shingle MAX-CONTAINMENT
    |G(A)∩G(B)| / min(|G(A)|,|G(B)|) ≥ 0.9 pairs — catches a doc
    embedded inside a larger one, which symmetric Jaccard misses
    (|∩|/|∪| shrinks as the host grows). Candidate pairs come from the
    SHARED-gram inverted lists (only docs sharing ≥1 gram ever pair —
    no all-pairs scan; gram doc-lists are short because 8-gram
    collisions are rare), pair intersections count through hash
    buckets, and the metric is float-free: inter·1e6 // min(sizes)."""
    from ..functions.curation import doc_ngram_hashes

    N = 8
    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])

    def pairs_part(b: pa.Table) -> pa.Table:
        doc, h = doc_ngram_hashes(b, N)
        return pa.table({"doc_id": pa.array(doc, pa.int64()),
                         "h": pa.array(h.view(np.int64), pa.int64())})

    dg = docs.map_batches(pairs_part, batch_format="pyarrow")
    # per-doc distinct-gram sizes (map-side partials, tiny shuffle)
    sizes = (dg.map_batches(
        lambda t: _partial_sums(
            t.append_column("n", pa.array(
                np.ones(t.num_rows, dtype=np.int64))).drop_columns("h"),
            ["doc_id"], {"n": "n"}),
        batch_format="pyarrow")
        .groupby("doc_id").aggregate(Sum("n", alias_name="n"))
        .to_pandas())
    size_map = pd.Series(sizes["n"].to_numpy(np.int64),
                         index=sizes["doc_id"].to_numpy(np.int64))

    # expand (a, b) per shared gram after a gram-bucket shuffle, then
    # count per pair through a second hash-bucket reduce (the
    # copurchase machinery shape; gram lists are short so the expand
    # is C(k,2)-bounded per gram)
    def tag(t: pa.Table) -> pa.Table:
        h = np.asarray(t["h"]).astype(np.int64)
        return t.append_column("__b", pa.array(
            (h.view(np.uint64) % np.uint64(16)).view(np.int64)))

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["h", "doc_id"], kind="mergesort")
        hs = df["h"].to_numpy()
        ids = df["doc_id"].to_numpy()
        first = np.concatenate(([True], hs[1:] != hs[:-1]))
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(hs)))
        out_a, out_b = [], []
        for s in np.unique(counts):
            if s < 2:
                continue
            st = starts[counts == s]
            ia, ib = np.triu_indices(s, k=1)
            out_a.append(ids[st[:, None] + ia].ravel())
            out_b.append(ids[st[:, None] + ib].ravel())
        if not out_a:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64),
                                 "i": pd.Series(dtype=np.int64)})
        c = pd.DataFrame({"a": np.concatenate(out_a),
                          "b": np.concatenate(out_b)})
        c["i"] = np.int64(1)
        return c.groupby(["a", "b"], as_index=False).sum()

    def tag_pair(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            np.asarray(t["a"]).astype(np.int64) * np.int64(1_000_003)
            + np.asarray(t["b"]).astype(np.int64))
        return t.append_column("__b2", pa.array(
            (h % np.uint64(16)).astype(np.int64)))

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop(columns="__b2")
                .groupby(["a", "b"], as_index=False)["i"].sum())

    inter = (dg.map_batches(tag, batch_format="pyarrow")
             .groupby("__b").map_groups(expand, batch_format="pandas")
             .map_batches(tag_pair, batch_format="pyarrow")
             .groupby("__b2").map_groups(reduce_pairs,
                                         batch_format="pandas")
             .to_pandas())  # pairs sharing >=1 gram only
    if len(inter) == 0:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "containment_micros": pa.array([], pa.int64())})
    na = size_map.reindex(inter["a"]).to_numpy(np.int64)
    nb = size_map.reindex(inter["b"]).to_numpy(np.int64)
    cont = (inter["i"].to_numpy(np.int64) * 1_000_000
            // np.minimum(na, nb))
    keep = cont >= 900_000
    return pa.table({
        "a": pa.array(inter["a"].to_numpy(np.int64)[keep]),
        "b": pa.array(inter["b"].to_numpy(np.int64)[keep]),
        "containment_micros": pa.array(cont[keep], pa.int64()),
    })


def winsorized_mean(sf_dir: str):
    """Robust per-group mean: values clipped to the group's exact
    [p05, p95] (grouped_quantile_disc — all groups narrow float-bit
    brackets simultaneously, no per-group sorts), then the clipped
    values round to micros per row and sum in int64 (order-independent
    partials); mean = sum // n. Clipping is min/max only — no float
    arithmetic — so both engines agree to the bit."""
    import ray as _ray
    from ..functions.quantiles import grouped_quantile_disc

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value"])
    lo_t = grouped_quantile_disc(ds, "event_type", "value", 0.05)
    hi_t = grouped_quantile_disc(ds, "event_type", "value", 0.95)
    lo = dict(zip(lo_t["event_type"].to_pylist(),
                  lo_t["value"].to_pylist()))
    hi = dict(zip(hi_t["event_type"].to_pylist(),
                  hi_t["value"].to_pylist()))
    bref = _ray.put((lo, hi))

    def contrib(b: pa.Table) -> pa.Table:
        lo_m, hi_m = _ray.get(bref)
        et = b["event_type"].combine_chunks().to_pylist()
        v = np.asarray(b["value"].combine_chunks())
        lo_v = np.array([lo_m[e] for e in et])
        hi_v = np.array([hi_m[e] for e in et])
        c = np.floor(np.minimum(np.maximum(v, lo_v), hi_v) * 1e6
                     + 0.5).astype(np.int64)
        t = pa.table({"event_type": b["event_type"].combine_chunks(),
                      "n": np.ones(b.num_rows, dtype=np.int64),
                      "sum_micros": c})
        return _partial_sums(t, ["event_type"],
                             {"n": "n", "sum_micros": "sum_micros"})

    agg = (ds.map_batches(contrib, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_micros", alias_name="sum_micros"))
           .to_pandas())  # one row per event type
    return pa.table({
        "event_type": pa.array(agg["event_type"].to_numpy(dtype=object),
                               pa.string()),
        "n": pa.array(agg["n"].to_numpy(np.int64)),
        "winsor_mean_micros": pa.array(
            agg["sum_micros"].to_numpy(np.int64)
            // agg["n"].to_numpy(np.int64), pa.int64()),
    })


def bm25_topk_appended(sf_dir: str):
    """Incremental-index parity surfaced in the driver harness (A1–A5
    beyond the reference's rebuild-only insert→freeze→save): build the
    index over the FIRST HALF of documents, append_to_index the second
    half (staged segments, disjoint-id check), compact_index (re-encodes
    merged rows under fresh global stats — bitwise-equal to a
    from-scratch rebuild, pinned by test_append), then run the fixed
    BM25 query. Shares bm25_topk's oracle SQL: rank AND score identity
    of the incremental path against DuckDB over the full corpus."""
    from ..append import append_to_index, compact_index

    def grow(index_dir: str) -> None:
        append_to_index(_docs_half(sf_dir, second=True), index_dir)
        compact_index(index_dir)

    return _bm25_on(_mutated_index(
        sf_dir, "index_appended", grow,
        source=lambda: _docs_half(sf_dir, second=False)))


def bm25_topk_merged(sf_dir: str):
    """Parallel-ingest parity: build TWO independent indexes over
    disjoint halves of documents, merge_indexes them (file-level union,
    no re-tokenize), compact (restores pruning; bitwise == rebuild,
    pinned by test_merge), then run the fixed BM25 query. Shares
    bm25_topk's oracle SQL — rank AND score identity of the
    merge lifecycle against DuckDB over the full corpus."""
    from ..append import compact_index, merge_indexes

    def merge(index_dir: str) -> None:
        halves = [_cache_dir(sf_dir, "index_merge_half_a"),
                  _cache_dir(sf_dir, "index_merge_half_b")]
        for half, second in zip(halves, (False, True)):
            shutil.rmtree(half, ignore_errors=True)
            build_index(_docs_half(sf_dir, second), half, **_DOCS_INDEX)
        merge_indexes(halves, index_dir)
        compact_index(index_dir)
        for half in halves:
            shutil.rmtree(half, ignore_errors=True)

    return _bm25_on(_cached(sf_dir, "index_merged", merge))


Q10_LO, Q10_HI = "1998-01-01", "1998-04-01"


def returned_items(sf_dir: str):
    """TPC-H Q10 (returned-item reporting): top-20 customers by revenue
    lost to returned lineitems in one quarter — lineitem(returnflag=R)
    ⋈ orders(quarter window) ⋈ customer ⋈ nation. Scale shape: the
    returned lineitems pre-aggregate to order grain through hash
    buckets, the windowed orders are the join's pruned side, and the
    customer/nation dimensions ride ONE broadcast lookup each. Revenue
    = Σ floor(extprice·(1−disc)·1e6+0.5) per row (rule 4); final cut
    (revenue desc, custkey asc) is integer-exact."""
    import ray as _ray

    from ..functions.joins import hash_join

    lo = np.datetime64(Q10_LO, "us")
    hi = np.datetime64(Q10_HI, "us")

    def lrev(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], "R"))
        price = np.asarray(b["l_extendedprice"].combine_chunks(),
                           dtype=np.float64)
        disc = np.asarray(b["l_discount"].combine_chunks(),
                          dtype=np.float64)
        t = pa.table({
            "l_orderkey": b["l_orderkey"].combine_chunks().cast(pa.int64()),
            "rev": pa.array(to_micros(price * (1.0 - disc)), pa.int64()),
        })
        return _partial_sums(t, ["l_orderkey"], {"rev": "rev"})

    def tag_ok(t: pa.Table) -> pa.Table:
        k = np.asarray(t["l_orderkey"].combine_chunks()).astype(np.int64)
        return t.append_column("__b", pa.array(
            (pd.util.hash_array(k) % np.uint64(8)).astype(np.int64)))

    def reduce_ok(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_orderkey", as_index=False)["rev"].sum()

    per_order = (rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"])
        .map_batches(lrev, batch_format="pyarrow")
        .map_batches(tag_ok, batch_format="pyarrow")
        .groupby("__b").map_groups(reduce_ok, batch_format="pandas"))

    def ofilter(b: pa.Table) -> pa.Table:
        od = np.asarray(b["o_orderdate"].combine_chunks()
                        ).astype("datetime64[us]")
        m = (od >= lo) & (od < hi)
        return pa.table({
            "l_orderkey": b["o_orderkey"].combine_chunks().cast(
                pa.int64()).filter(pa.array(m)),
            "o_custkey": b["o_custkey"].combine_chunks().cast(
                pa.int64()).filter(pa.array(m)),
        })

    orders_f = (rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"])
        .map_batches(ofilter, batch_format="pyarrow"))

    joined = hash_join(per_order, orders_f, on="l_orderkey", num_buckets=8)

    # customer-grain reduce, then broadcast dims on the driver-side
    # (result is ≤ |customers in window| rows — bounded)
    per_cust = (joined
                .map_batches(lambda t: _partial_sums(
                    t.select(["o_custkey", "rev"]), ["o_custkey"],
                    {"rev": "rev"}), batch_format="pyarrow")
                .to_pandas()
                .groupby("o_custkey", as_index=False)["rev"].sum())

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_name", "c_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    ck = np.asarray(cust["c_custkey"]).astype(np.int64)
    oc = np.argsort(ck)
    nk = np.asarray(nat["n_nationkey"]).astype(np.int64)
    on_ = np.argsort(nk)
    names = np.asarray(cust["c_name"].to_pylist(), dtype=object)[oc]
    cnat = np.asarray(cust["c_nationkey"]).astype(np.int64)[oc]
    nname = np.asarray(nat["n_name"].to_pylist(), dtype=object)[on_]

    keys = per_cust["o_custkey"].to_numpy().astype(np.int64)
    rev = per_cust["rev"].to_numpy().astype(np.int64)
    order = np.lexsort((keys, -rev))[:20]
    keys, rev = keys[order], rev[order]
    ci = np.searchsorted(ck[oc], keys)
    ni = np.searchsorted(nk[on_], cnat[ci])
    return pa.table({
        "c_custkey": pa.array(keys, pa.int64()),
        "c_name": pa.array(names[ci].tolist(), pa.string()),
        "n_name": pa.array(nname[ni].tolist(), pa.string()),
        "revenue_micros": pa.array(rev, pa.int64()),
        "rank": pa.array(np.arange(1, len(keys) + 1), pa.int64()),
    })


Q3_SEGMENT, Q3_CUTOFF = "BUILDING", "1998-07-01"


def shipping_priority(sf_dir: str):
    """TPC-H Q3 (shipping priority): unshipped-revenue top-10 for one
    market segment — customer(segment) ⋈ orders(date < cutoff) ⋈
    lineitem(shipdate > cutoff), revenue summed to order grain. Scale
    shape: the segment's custkeys broadcast once (classic small side),
    orders filter map-side against that set, lineitem pre-aggregates
    (orderkey, rev_micros) partials through hash buckets before ONE
    partitioned join, and the final top-10 is a per-batch partial cut
    merged on the driver (integer micros — no float ordering hazard).
    Revenue = Σ floor(extprice·(1−disc)·1e6+0.5) per row (rule 4)."""
    import ray as _ray

    from ..functions.joins import hash_join
    from ..query import sorted_member_mask

    cutoff = np.datetime64(Q3_CUTOFF, "us")
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    seg = np.asarray(cust["c_mktsegment"].to_pylist(),
                     dtype=object) == Q3_SEGMENT
    ckeys = np.sort(np.asarray(cust["c_custkey"]).astype(np.int64)[seg])
    ck_ref = _ray.put(ckeys)

    def ofilter(b: pa.Table) -> pa.Table:
        keys = np.asarray(b["o_custkey"].combine_chunks()).astype(np.int64)
        od = np.asarray(b["o_orderdate"].combine_chunks()
                        ).astype("datetime64[us]")
        m = sorted_member_mask(_ray.get(ck_ref), keys) & (od < cutoff)
        return pa.table({
            "l_orderkey": b["o_orderkey"].combine_chunks().cast(
                pa.int64()).filter(pa.array(m)),
            "o_date_us": pa.array(od[m].astype(np.int64), pa.int64()),
        })

    orders_f = (rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"])
        .map_batches(ofilter, batch_format="pyarrow"))

    def lrev(b: pa.Table) -> pa.Table:
        sd = np.asarray(b["l_shipdate"].combine_chunks()
                        ).astype("datetime64[us]")
        m = sd > cutoff
        price = np.asarray(b["l_extendedprice"].combine_chunks(),
                           dtype=np.float64)[m]
        disc = np.asarray(b["l_discount"].combine_chunks(),
                          dtype=np.float64)[m]
        t = pa.table({
            "l_orderkey": b["l_orderkey"].combine_chunks().cast(
                pa.int64()).filter(pa.array(m)),
            "rev": pa.array(to_micros(price * (1.0 - disc)), pa.int64()),
        })
        return _partial_sums(t, ["l_orderkey"], {"rev": "rev"})

    def tag_ok(t: pa.Table) -> pa.Table:
        k = np.asarray(t["l_orderkey"].combine_chunks()).astype(np.int64)
        return t.append_column("__b", pa.array(
            (pd.util.hash_array(k) % np.uint64(8)).astype(np.int64)))

    def reduce_ok(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("l_orderkey", as_index=False)["rev"].sum()

    per_order = (rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])
        .map_batches(lrev, batch_format="pyarrow")
        .map_batches(tag_ok, batch_format="pyarrow")
        .groupby("__b").map_groups(reduce_ok, batch_format="pandas"))

    joined = hash_join(per_order, orders_f, on="l_orderkey", num_buckets=8)

    def cut(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.select(["l_orderkey", "rev", "o_date_us"])
        k = np.asarray(b["l_orderkey"].combine_chunks()).astype(np.int64)
        rev = np.asarray(b["rev"].combine_chunks()).astype(np.int64)
        order = np.lexsort((k, -rev))[:10]
        return pa.table({
            "l_orderkey": pa.array(k[order], pa.int64()),
            "rev": pa.array(rev[order], pa.int64()),
            "o_date_us": b["o_date_us"].combine_chunks().cast(
                pa.int64()).take(pa.array(order, pa.int64())),
        })

    cand = joined.map_batches(cut, batch_format="pyarrow").take_all()
    k = np.array([r["l_orderkey"] for r in cand], np.int64)
    rev = np.array([r["rev"] for r in cand], np.int64)
    dt = np.array([r["o_date_us"] for r in cand], np.int64)
    order = np.lexsort((k, -rev))[:10]
    return pa.table({
        "l_orderkey": pa.array(k[order], pa.int64()),
        "revenue_micros": pa.array(rev[order], pa.int64()),
        "o_date_us": pa.array(dt[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
    })


def revenue_by_nation(sf_dir: str):
    """TPC-H Q5-flavored rollup — the suite's first FIVE-table chain
    (lineitem ⋈ orders ⋈ customer ⋈ nation ⋈ region): revenue
    pre-aggregates to ORDER grain through hash buckets (the shuffle
    carries (orderkey, rev_micros) partials, never line items), one
    partitioned hash join against orders, then the three dimension
    hops ride ONE ray.put broadcast each (customer/nation/region are
    the classic small sides), and the final (region, nation) groupby
    reduces partials. Revenue = Σ floor(extprice·(1−disc)·1e6+0.5)
    per row — the micros round-then-sum convention both engines share."""
    import ray as _ray

    from ..functions.joins import hash_join

    def lrev(b: pa.Table) -> pa.Table:
        price = np.asarray(b["l_extendedprice"].combine_chunks(),
                           dtype=np.float64)
        disc = np.asarray(b["l_discount"].combine_chunks(),
                          dtype=np.float64)
        rev = to_micros(price * (1.0 - disc))
        t = pa.table({
            "l_orderkey": b["l_orderkey"].combine_chunks().cast(pa.int64()),
            "rev": pa.array(rev, pa.int64()),
        })
        return _partial_sums(t, ["l_orderkey"], {"rev": "rev"})

    def tag_ok(t: pa.Table) -> pa.Table:
        k = np.asarray(t["l_orderkey"].combine_chunks()).astype(np.int64)
        return t.append_column("__b", pa.array(
            (pd.util.hash_array(k) % np.uint64(8)).astype(np.int64)))

    def reduce_ok(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("l_orderkey", as_index=False)["rev"].sum())

    per_order = (rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"])
        .map_batches(lrev, batch_format="pyarrow")
        .map_batches(tag_ok, batch_format="pyarrow")
        .groupby("__b").map_groups(reduce_ok, batch_format="pandas"))

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"]).map_batches(
        lambda t: pa.table({
            "l_orderkey": t["o_orderkey"].combine_chunks().cast(pa.int64()),
            "o_custkey": t["o_custkey"].combine_chunks().cast(pa.int64()),
        }), batch_format="pyarrow")
    joined = hash_join(per_order, orders, on="l_orderkey", num_buckets=8)

    # dimension hops: sorted-array lookup maps, shipped once
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    ck = np.asarray(cust["c_custkey"]).astype(np.int64)
    order_c = np.argsort(ck)
    nk = np.asarray(nat["n_nationkey"]).astype(np.int64)
    order_n = np.argsort(nk)
    rk = np.asarray(reg["r_regionkey"]).astype(np.int64)
    order_r = np.argsort(rk)
    dims = _ray.put({
        "ck": ck[order_c],
        "c_nat": np.asarray(cust["c_nationkey"]).astype(np.int64)[order_c],
        "nk": nk[order_n],
        "n_name": np.asarray(nat["n_name"].to_pylist(),
                             dtype=object)[order_n],
        "n_reg": np.asarray(nat["n_regionkey"]).astype(np.int64)[order_n],
        "rk": rk[order_r],
        "r_name": np.asarray(reg["r_name"].to_pylist(),
                             dtype=object)[order_r],
    })

    def rollup(b: pa.Table) -> pa.Table:
        d = _ray.get(dims)
        cust_k = np.asarray(b["o_custkey"].combine_chunks()).astype(np.int64)
        natk = d["c_nat"][np.searchsorted(d["ck"], cust_k)]
        ni = np.searchsorted(d["nk"], natk)
        nation = d["n_name"][ni]
        region = d["r_name"][np.searchsorted(d["rk"], d["n_reg"][ni])]
        t = pa.table({
            "region": pa.array(region, pa.string()),
            "nation": pa.array(nation, pa.string()),
            "one": np.ones(b.num_rows, dtype=np.int64),
            "rev": b["rev"].combine_chunks().cast(pa.int64()),
        })
        return _partial_sums(t, ["region", "nation"],
                             {"one": "n_orders", "rev": "revenue_micros"})

    return (joined.map_batches(rollup, batch_format="pyarrow")
            .groupby(["region", "nation"])
            .aggregate(Sum("n_orders", alias_name="n_orders"),
                       Sum("revenue_micros", alias_name="revenue_micros")))


def copurchase_triangles(sf_dir: str):
    """Triangle count + global clustering coefficient of the
    co-purchase graph — the classic distributed graph-structure op
    (community density signal). Edges are distinct co-purchased part
    pairs (a < b). Triangles count via the standard two-join MPC shape
    with the a < b < c orientation (each triangle exactly once):
    wedges = edges ⋈ edges on (b == a), then the closing (a, c) pair
    semi-joins the edge set on a packed int64 key — no adjacency lists
    ship, no per-edge Python loops. Clustering = 3·triangles / Σ C(d,2)
    in micros (d from one degree reduce)."""
    from ..functions.joins import hash_join

    # distinct edges via the basket-expansion + hash-bucket reduce the
    # copurchase entry uses (pairs unique per order, deduped globally)
    def tag(b: pa.Table) -> pa.Table:
        k = np.asarray(b["l_orderkey"].combine_chunks()).astype(np.int64)
        h = pd.util.hash_array(k)
        return pa.table({
            "l_orderkey": pa.array(k, pa.int64()),
            "l_partkey": b["l_partkey"].combine_chunks().cast(pa.int64()),
            "__bucket": pa.array((h % np.uint64(16)).astype(np.int64)),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        df = (g[["l_orderkey", "l_partkey"]].drop_duplicates()
              .sort_values(["l_orderkey", "l_partkey"], kind="mergesort"))
        ok = df["l_orderkey"].to_numpy()
        parts = df["l_partkey"].to_numpy()
        first = np.concatenate(([True], ok[1:] != ok[:-1]))
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(ok)))
        out_a, out_b = [], []
        for s in np.unique(counts):
            if s < 2:
                continue
            st = starts[counts == s]
            ia, ib = np.triu_indices(s, k=1)
            out_a.append(parts[st[:, None] + ia].ravel())
            out_b.append(parts[st[:, None] + ib].ravel())
        if not out_a:
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        return (pd.DataFrame({"a": np.concatenate(out_a),
                              "b": np.concatenate(out_b)})
                .drop_duplicates())

    def tag_edge(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            np.asarray(t["a"]).astype(np.int64) * np.int64(1_000_003)
            + np.asarray(t["b"]).astype(np.int64))
        return t.append_column(
            "__b2", pa.array((h % np.uint64(16)).astype(np.int64)))

    def dedup_edges(g: pd.DataFrame) -> pd.DataFrame:
        return g[["a", "b"]].drop_duplicates().reset_index(drop=True)

    edges = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                             columns=["l_orderkey", "l_partkey"])
             .map_batches(tag, batch_format="pyarrow")
             .groupby("__bucket").map_groups(pairs, batch_format="pandas")
             .map_batches(tag_edge, batch_format="pyarrow")
             .groupby("__b2").map_groups(dedup_edges, batch_format="pandas")
             .materialize())  # consumed by 4 downstream pipelines
    n_edges = edges.count()

    # degree reduce → Σ C(d, 2) (the wedge denominator)
    def deg_partials(b: pa.Table) -> pa.Table:
        nodes = np.concatenate([np.asarray(b["a"]).astype(np.int64),
                                np.asarray(b["b"]).astype(np.int64)])
        t = pa.table({"node": pa.array(nodes, pa.int64()),
                      "d": np.ones(len(nodes), dtype=np.int64)})
        return _partial_sums(t, ["node"], {"d": "d"})

    deg = (edges.map_batches(deg_partials, batch_format="pyarrow")
           .groupby("node").aggregate(Sum("d", alias_name="d")))
    wedges = int(deg.map_batches(
        lambda b: pa.table({"w": pa.array(
            [int((np.asarray(b["d"]).astype(np.int64)
                  * (np.asarray(b["d"]).astype(np.int64) - 1) // 2).sum())],
            pa.int64())}),
        batch_format="pyarrow").sum("w") or 0)

    # oriented wedges: e1.(a,b) ⋈ e2.(a=b_e1, c) gives a < b < c paths;
    # the closing (a, c) pair must be an edge. Wedges (~Σ paths of
    # length 2, the big intermediate) are generated AND closed INSIDE
    # each join bucket against one broadcast of the packed edge-key set
    # (8 B/edge via ray.put — fine to ~10⁸ edges; beyond that switch
    # the closing test to a second hash join), so they never ride a
    # shuffle. Pack (x << 32 | y) — part keys sit far below 2³¹
    # (guarded).
    import ray as _ray

    def pack_edge_keys(t: pa.Table) -> pa.Table:
        a = np.asarray(t["a"]).astype(np.int64)
        b_ = np.asarray(t["b"]).astype(np.int64)
        # explicit raise, not assert (stripped under python -O): a key
        # outside the packing range would silently corrupt the count —
        # both halves guarded BEFORE the OR can bleed across fields
        if (a >= 2**31).any() or (a < 0).any() or (b_ >= 2**32).any() \
                or (b_ < 0).any():
            raise ValueError(
                "edge key outside (0 <= a < 2^31, 0 <= b < 2^32) "
                "packing range")
        return pa.table({"k": pa.array((a << np.int64(32)) | b_,
                                       pa.int64())})

    ek = edges.map_batches(
        pack_edge_keys, batch_format="pyarrow").to_pandas()["k"].to_numpy()
    ek_ref = _ray.put(np.sort(ek.astype(np.int64)))

    def tag_wedge_side(t: pa.Table, side: int) -> pa.Table:
        # unified (a, b, c) layout: the join key is the MIDDLE node b
        a = np.asarray(t["a"]).astype(np.int64)
        b_ = np.asarray(t["b"]).astype(np.int64)
        key = b_ if side == 0 else a
        h = pd.util.hash_array(key)
        return pa.table({
            "a": pa.array(a if side == 0 else np.full(len(a), -1), pa.int64()),
            "b": pa.array(key, pa.int64()),
            "c": pa.array(b_ if side == 1 else np.full(len(a), -1), pa.int64()),
            "__side": pa.array(np.full(len(a), side, dtype=np.int8)),
            "__bk": pa.array((h % np.uint64(16)).astype(np.int64)),
        })

    both = (edges.map_batches(lambda t: tag_wedge_side(t, 0),
                              batch_format="pyarrow")
            .union(edges.map_batches(lambda t: tag_wedge_side(t, 1),
                                     batch_format="pyarrow")))

    def close_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0][["a", "b"]]
        r = g[g["__side"] == 1][["b", "c"]]
        if l.empty or r.empty:
            return pd.DataFrame({"t": [0]})
        m = l.merge(r, on="b")
        k = ((m["a"].to_numpy(np.int64) << np.int64(32))
             | m["c"].to_numpy(np.int64))
        keys = _ray.get(ek_ref)
        j = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return pd.DataFrame({"t": [int((keys[j] == k).sum())]})

    n_triangles = int(both.groupby("__bk")
                      .map_groups(close_in_bucket, batch_format="pandas")
                      .sum("t") or 0)

    return pa.table({
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_wedges": pa.array([wedges], pa.int64()),
        "n_triangles": pa.array([n_triangles], pa.int64()),
        "clustering_micros": pa.array(
            [n_triangles * 3_000_000 // wedges if wedges else 0],
            pa.int64()),
    })


def bm25_topk_deleted(sf_dir: str):
    """Deletion surfaced in the driver harness (the lifecycle's fourth
    quarter: build / append / DELETE / compact): build over ALL
    documents, tombstone every doc_id % 7 == 0 via delete_from_index
    (O(delete-set) now, physical purge at the next compaction), then
    run the fixed BM25 query. Oracle: the bm25 chain over the corpus
    WITHOUT the deleted docs — the tombstoned index must match it
    bitwise (masked exhaustive scorer + delete-time global stats and
    per-term df corrections)."""
    from ..append import delete_from_index

    def delete(index_dir: str) -> None:
        ids = pq.read_table(_docs(sf_dir),
                            columns=["doc_id"])["doc_id"].to_pylist()
        delete_from_index(index_dir, [i for i in ids if i % 7 == 0])

    return _bm25_on(_mutated_index(sf_dir, "index_deleted", delete))


DBQ_EXPR = "stream AND window"


def delete_by_query_search(sf_dir: str):
    """ES ``_delete_by_query`` surfaced end-to-end: build over ALL
    documents, delete every doc matching ``DBQ_EXPR`` (the boolean DSL
    resolved against the index's own postings — no corpus rescan), then
    run the fixed BM25 query. Oracle: the bm25 chain over the corpus
    minus the set-algebra matched set — the query-deleted index must
    match it bitwise (same masked-exhaustive contract as
    bm25_topk_deleted, with the delete SET itself now computed by the
    engine rather than handed in)."""
    from ..append import delete_by_query

    return _bm25_on(_mutated_index(
        sf_dir, "index_dbq", lambda d: delete_by_query(d, DBQ_EXPR)))


REIDX_MOD = 11


def reindex_search(sf_dir: str):
    """ES ``_reindex`` surfaced end-to-end: the source index STORES its
    content column in the docs sidecar (the _source pattern —
    meta_cols), tombstones every doc_id % 11 == 0, then reindexes from
    its own doc store into a DIFFERENT layout (2 shards / 8 term
    buckets instead of 4/16) — no corpus re-read. The reindexed index
    serves the alive view: oracle = the bm25 chain over the corpus
    minus the tombstoned ids; matching it bitwise under the changed
    layout also re-proves scores are layout-invariant."""
    from ..append import delete_from_index, reindex_index

    def reindex(out_dir: str) -> None:
        src_dir = _cache_dir(sf_dir, "index_reidx_src")
        shutil.rmtree(src_dir, ignore_errors=True)  # heal partials
        build_index(_docs(sf_dir), src_dir,
                    **{**_DOCS_INDEX, "meta_cols": ("lang", "source", "text")})
        ids = pq.read_table(_docs(sf_dir),
                            columns=["doc_id"])["doc_id"].to_pylist()
        delete_from_index(src_dir, [i for i in ids if i % REIDX_MOD == 0])
        reindex_index(src_dir, out_dir, content_col="text",
                      num_shards=2)

    return _bm25_on(_cached(sf_dir, "index_reidx", reindex))


PIT_PAGE = 5


def pit_paged_search(sf_dir: str):
    """ES point-in-time (PIT) search: snapshot the index (hardlink PIT
    — O(file count), zero data copied), run a MUTATING delete_by_query
    on the live index, then page through the PIT reader with
    search_after. Pages reflect the snapshot state bitwise — snapshot
    isolation surfaced in the conformance harness — so the oracle is
    the plain pre-delete bm25 chain with a page column. The cursor is
    (score, doc_id) exactly as ES's search_after sort values."""
    from ..append import delete_by_query, snapshot_index

    snap_dir = _cache_dir(sf_dir, "index_pit_snap")

    def snapshot_then_delete(index_dir: str) -> None:
        shutil.rmtree(snap_dir, ignore_errors=True)  # heal partials
        snapshot_index(index_dir, snap_dir)
        delete_by_query(index_dir, DBQ_EXPR)  # live mutates AFTER the PIT

    _mutated_index(sf_dir, "index_pit", snapshot_then_delete)
    eng = QueryEngine(snap_dir)
    p1 = eng.search(BM25_QUERY, PIT_PAGE, method="auto")
    p2 = eng.search_after(BM25_QUERY, p1[-1][1], p1[-1][0], PIT_PAGE)
    return _hits_table(p1 + p2).append_column(
        "page", pa.array([1] * len(p1) + [2] * len(p2), pa.int64()))


UBQ_EXPR, UBQ_SUFFIX = "hash AND batch", " merge merge stream"


def update_by_query_search(sf_dir: str):
    """ES ``_update_by_query`` surfaced end-to-end: build over ALL
    documents, rewrite every doc matching ``UBQ_EXPR`` by appending
    ``UBQ_SUFFIX`` (a vectorized Arrow concat — the matched docs gain
    'merge' weight), upsert the transformed delta (delete → purge →
    append), then run the fixed BM25 query. Oracle: the bm25 chain over
    a CASE-rewritten corpus — the updated index must match it bitwise
    (the upsert contract: equal to a rebuild of the transformed
    corpus)."""
    from ..append import update_by_query

    def patch(b: pa.Table) -> pa.Table:
        new_text = pc.binary_join_element_wise(
            b["text"].combine_chunks(),
            pa.array([UBQ_SUFFIX] * b.num_rows, pa.string()), "")
        return b.set_column(b.schema.get_field_index("text"),
                            "text", new_text)

    return _bm25_on(_mutated_index(
        sf_dir, "index_ubq",
        lambda d: update_by_query(d, UBQ_EXPR, _docs(sf_dir), patch)))


def event_trigrams(sf_dir: str):
    """Behavioral sequence mining: the top-10 event-type TRIGRAMS across
    per-user timelines (ordered by ts, event_id — the deterministic
    total order every sequence op here uses). Users are hash-bucketed
    (32 groups); each bucket orders ALL its users with ONE sort and
    builds trigrams vectorized from the flat event stream (windows
    crossing a user boundary masked out — the _ngrams_from_flat idea on
    event codes); per-bucket trigram counts are already partial sums,
    so the final reduce is a tiny groupby over ≤32×|patterns| rows."""
    def bucketize(batch: pa.Table) -> pa.Table:
        uid = np.asarray(batch["user_id"].combine_chunks()).astype(np.int64)
        return pa.table({
            "user_id": uid,
            "ts": batch["ts"].combine_chunks().cast(pa.int64()),
            "event_id": batch["event_id"].combine_chunks(),
            "event_type": batch["event_type"].combine_chunks(),
            "__ub": pa.array(pd.util.hash_array(uid).astype(np.int64)
                             % np.int64(32)),
        })

    def trigrams(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy(dtype=object)
        m = len(g) - 2
        if m <= 0:
            return pd.DataFrame({"pattern": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        valid = uid[:m] == uid[2:]
        pat = np.char.add(np.char.add(
            np.char.add(et[:m].astype(str), ">"),
            np.char.add(et[1:m + 1].astype(str), ">")),
            et[2:].astype(str))[valid]
        u, c = np.unique(pat, return_counts=True)
        return pd.DataFrame({"pattern": u.astype(object),
                             "n": c.astype(np.int64)})

    counts = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                              columns=["user_id", "ts", "event_id",
                                       "event_type"])
              .map_batches(bucketize, batch_format="pyarrow")
              .groupby("__ub").map_groups(trigrams, batch_format="pandas")
              .groupby("pattern").aggregate(Sum("n", alias_name="n"))
              .to_pandas())  # ≤ |event_types|³ rows
    order = np.lexsort((counts["pattern"].to_numpy(dtype=object),
                        -counts["n"].to_numpy()))[:10]
    out = counts.iloc[order]
    return pa.table({
        "pattern": pa.array(out["pattern"].to_numpy(dtype=object),
                            pa.string()),
        "n": pa.array(out["n"].to_numpy(np.int64)),
        "rank": pa.array(np.arange(1, len(out) + 1, dtype=np.int64)),
    })


def lang_confusion(sf_dir: str):
    """Curation audit: confusion counts between the labeled ``lang``
    column and the n-gram lang-id prediction — the standard check that
    a corpus's metadata matches its content before per-language
    processing trusts it. Entirely map-side (the scorer is an actor
    carrying the label column through), one tiny (lang, pred) groupby
    of combiner partials."""
    from ..functions.textstats import LangIdScorer

    class Confusion:
        def __init__(self):
            self.scorer = LangIdScorer()

        def __call__(self, b: pa.Table) -> pa.Table:
            pred = self.scorer(b)
            t = pa.table({
                "lang": b["lang"].combine_chunks(),
                "lang_pred": pred["lang_pred"],
                "n": np.ones(b.num_rows, dtype=np.int64),
            })
            return _partial_sums(t, ["lang", "lang_pred"], {"n": "n"})

    return (rd.read_parquet(_docs(sf_dir),
                            columns=["doc_id", "text", "lang"])
            .map_batches(Confusion, batch_format="pyarrow",
                         batch_size=256, concurrency=2)
            .groupby(["lang", "lang_pred"])
            .aggregate(Sum("n", alias_name="n")))


def length_outliers(sf_dir: str):
    """Per-language length-outlier gate: docs whose n_chars falls
    outside the lang's exact [p01, p99] (grouped_quantile_disc — no
    per-group sorts). Bounds broadcast (O(groups) scalars); the filter
    is map-side. Integer comparisons only — no rounding exposure."""
    import ray as _ray
    from ..functions.quantiles import grouped_quantile_disc

    ds = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "lang",
                                                 "n_chars"])
    lo_t = grouped_quantile_disc(ds, "lang", "n_chars", 0.01)
    hi_t = grouped_quantile_disc(ds, "lang", "n_chars", 0.99)
    lo = {k: int(v) for k, v in zip(lo_t["lang"].to_pylist(),
                                    lo_t["value"].to_pylist())}
    hi = {k: int(v) for k, v in zip(hi_t["lang"].to_pylist(),
                                    hi_t["value"].to_pylist())}
    bref = _ray.put((lo, hi))

    def keep(b: pa.Table) -> pa.Table:
        lo_m, hi_m = _ray.get(bref)
        langs = b["lang"].combine_chunks().to_pylist()
        n = np.asarray(b["n_chars"].combine_chunks()).astype(np.int64)
        lo_v = np.array([lo_m[x] for x in langs], dtype=np.int64)
        hi_v = np.array([hi_m[x] for x in langs], dtype=np.int64)
        out = b.filter(pa.array((n < lo_v) | (n > hi_v)))
        return pa.table({
            "doc_id": out["doc_id"],
            "lang": out["lang"],
            "n_chars": out["n_chars"].combine_chunks().cast(pa.int64()),
        })

    return ds.map_batches(keep, batch_format="pyarrow")


def type_token_ratio(sf_dir: str):
    """Lexical diversity per doc: distinct-term count ·1e6 // token
    count — the classic TTR quality signal, float-free and map-side
    (a doc's terms live in its row)."""
    def ttr(b: pa.Table) -> pa.Table:
        tf = term_frequencies(b["text"].combine_chunks())
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        nrows = b.num_rows
        distinct = np.bincount(tf.doc_idx, minlength=nrows).astype(np.int64)
        toks = np.zeros(nrows, dtype=np.int64)
        np.add.at(toks, tf.doc_idx, tf.tf)
        nz = toks > 0
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_distinct": pa.array(distinct[nz], pa.int64()),
            "n_tokens": pa.array(toks[nz], pa.int64()),
            "ttr_micros": pa.array(distinct[nz] * 1_000_000 // toks[nz],
                                   pa.int64()),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(ttr, batch_format="pyarrow"))


# Source split for the drift entry — mirrored literally in the oracle.
JS_SOURCES_A = tuple(f"src{i}" for i in range(10))


def js_divergence(sf_dir: str):
    """Corpus drift detection: Jensen-Shannon divergence between the
    term distributions of two source groups (src0–9 vs the rest) — the
    check a training-data pipeline runs before mixing a new domain in.
    Per-term contributions p·ln(p/m), q·ln(q/m) are rounded to micros
    FIRST and summed in int64 (order-independent); js = max(0, Σ) // 2
    (the max guard keeps rounding jitter on near-identical
    distributions away from negative-operand // divergence between
    engines). Counts per (term, side) come from one map-side-combined
    aggregate; the divergence math runs on the vocab-sized driver
    table."""
    src_a = set(JS_SOURCES_A)

    def part(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        srcs = b["source"].combine_chunks().to_pylist()
        is_a = np.array([s in src_a for s in srcs], dtype=bool)[doc_idx]
        d = flat.dictionary_encode()
        codes = np.asarray(d.indices).astype(np.int64)
        nvocab = len(d.dictionary)
        ca = np.bincount(codes[is_a], minlength=nvocab)
        cb = np.bincount(codes[~is_a], minlength=nvocab)
        return pa.table({"term": d.dictionary,
                         "ca": pa.array(ca.astype(np.int64)),
                         "cb": pa.array(cb.astype(np.int64))})

    uni = (rd.read_parquet(_docs(sf_dir), columns=["text", "source"])
           .map_batches(part, batch_format="pyarrow")
           .groupby("term")
           .aggregate(Sum("ca", alias_name="ca"),
                      Sum("cb", alias_name="cb"))
           .to_pandas())  # vocab-sized
    ca = uni["ca"].to_numpy(np.int64)
    cb = uni["cb"].to_numpy(np.int64)
    ta, tb = int(ca.sum()), int(cb.sum())
    p = ca.astype(np.float64) / ta
    q = cb.astype(np.float64) / tb
    m = (p + q) / 2.0
    cp = np.zeros(len(uni), dtype=np.int64)
    cq = np.zeros(len(uni), dtype=np.int64)
    pm = p > 0
    qm = q > 0
    cp[pm] = np.floor(p[pm] * np.log(p[pm] / m[pm]) * 1e6
                      + 0.5).astype(np.int64)
    cq[qm] = np.floor(q[qm] * np.log(q[qm] / m[qm]) * 1e6
                      + 0.5).astype(np.int64)
    total = int(cp.sum() + cq.sum())
    return pa.table({
        "n_terms": pa.array([len(uni)], pa.int64()),
        "js_micros": pa.array([max(0, total) // 2], pa.int64()),
    })


def robust_outliers(sf_dir: str):
    """Robust anomaly flags per event type: rows with
    |value − median| > 3·MAD (median absolute deviation) — the
    outlier gate that survives heavy tails where mean/std break. Both
    the median and the MAD are EXACT grouped quantiles (two
    grouped_quantile_disc rounds, no per-group sorts); the deviation
    column and the 3·MAD comparison are pure IEEE subtract/abs/multiply
    — bitwise identical in both engines, so the row set matches with
    no tolerance."""
    import ray as _ray
    from ..functions.quantiles import grouped_quantile_disc

    ev = os.path.join(sf_dir, "events.parquet")
    ds = rd.read_parquet(ev, columns=["event_id", "event_type", "value"])
    med_t = grouped_quantile_disc(ds, "event_type", "value", 0.5)
    med = dict(zip(med_t["event_type"].to_pylist(),
                   med_t["value"].to_pylist()))
    mref = _ray.put(med)

    def dev(b: pa.Table) -> pa.Table:
        m = _ray.get(mref)
        et = b["event_type"].combine_chunks().to_pylist()
        v = np.asarray(b["value"].combine_chunks())
        mv = np.array([m[e] for e in et])
        return b.append_column("dev", pa.array(np.abs(v - mv)))

    # materialize once: the MAD quantile AND the flag pass both read the
    # derived column (lineage would re-run the dev map per consumer)
    dds = ds.map_batches(dev, batch_format="pyarrow").materialize()
    mad_t = grouped_quantile_disc(dds, "event_type", "dev", 0.5)
    mad = dict(zip(mad_t["event_type"].to_pylist(),
                   mad_t["value"].to_pylist()))
    dref = _ray.put(mad)

    def flag(b: pa.Table) -> pa.Table:
        md = _ray.get(dref)
        et = b["event_type"].combine_chunks().to_pylist()
        d = np.asarray(b["dev"].combine_chunks())
        lim = np.array([3.0 * md[e] for e in et])
        out = b.filter(pa.array(d > lim))
        return pa.table({
            "event_id": out["event_id"],
            "event_type": out["event_type"],
            "value_micros": pc_micros(out["value"]),
        })

    return dds.map_batches(flag, batch_format="pyarrow")


def hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: the cosine top-10 to doc 0
    EXCLUDING doc 0 itself and every doc sharing an 8-gram with it —
    near-duplicates make catastrophic 'negatives', so the retrieval is
    filtered through the dedup signal before ranking. The exclusion set
    comes from doc 0's gram hashes (one predicate-pushdown read +
    broadcast); candidate scoring is the existing encoder chain with a
    map-side membership drop. Fully oracled: the text_knn sims CTE plus
    a NOT EXISTS over shared grams."""
    import ray as _ray

    from ..functions.curation import doc_ngram_hashes

    q_tbl = pq.read_table(_docs(sf_dir), filters=[("doc_id", "=", 0)],
                          columns=["doc_id", "text"])
    _, q_grams = doc_ngram_hashes(q_tbl, 8)
    q_sorted = np.sort(q_grams)
    gref = _ray.put(q_sorted)

    def drop_near_dups(b: pa.Table) -> pa.Table:
        grams = _ray.get(gref)
        doc, h = doc_ngram_hashes(b, 8)
        if len(h) and len(grams):
            pos = np.searchsorted(grams, h)
            hit = (pos < len(grams)) & (grams[np.minimum(
                pos, len(grams) - 1)] == h)
            bad = np.unique(doc[hit])
        else:
            bad = np.empty(0, np.int64)
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        keep = ~np.isin(ids, bad) & (ids != 0)
        return b.filter(pa.array(keep))

    # filter first (map-side), then the shared encoder+top-k chain —
    # the chain reads (doc_id, text), which the filtered batch provides
    from ..functions.embedding import HashedTextEncoder
    from ..functions.topk import topk_desc_tiebreak

    DIM = 64
    enc = HashedTextEncoder(DIM, normalize=False)
    q = enc.encode_texts([q_tbl["text"][0].as_py()])[0]
    nq = float(np.sqrt((q * q).sum()))
    if nq == 0.0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "sim_micros": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    q_ref = _ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        qv = _ray.get(q_ref)
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        if len(ids) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        mat = np.asarray(batch["embedding"].combine_chunks().flatten()
                         ).reshape(-1, DIM)
        dots = mat @ qv
        norms = np.sqrt((mat * mat).sum(axis=1))
        keep = norms > 0
        sim = dots[keep] / (norms[keep] * nq)
        if not keep.any():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        top = topk_desc_tiebreak(ids[keep], sim, 10)
        return pa.table({"doc_id": ids[keep][top], "sim": sim[top]})

    parts = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
             .map_batches(drop_near_dups, batch_format="pyarrow")
             .map_batches(HashedTextEncoder, batch_format="pyarrow",
                          batch_size=256, concurrency=2,
                          fn_constructor_kwargs={"dim": DIM,
                                                 "normalize": False})
             .map_batches(score, batch_format="pyarrow")
             .to_pandas())
    parts = parts.sort_values(["sim", "doc_id"],
                              ascending=[False, True]).head(10)
    return pa.table({
        "doc_id": pa.array(parts["doc_id"].to_numpy(), pa.int64()),
        "sim_micros": pa.array(to_micros(parts["sim"].to_numpy()),
                               pa.int64()),
        "rank": pa.array(np.arange(1, len(parts) + 1), pa.int64()),
    })


def term_coverage(sf_dir: str):
    """Tokenizer-design metric: the fraction of ALL kept-token
    occurrences covered by the top-100 most frequent terms (count desc,
    term asc tie-break) — the coverage curve point that decides vocab
    sizes and stopword lists. Counts come from the combiner-backed
    term_counts aggregate; the division is integer micros."""
    cf = term_counts(sf_dir).to_pandas()  # vocab-sized
    total = int(cf["cf"].sum())
    order = np.lexsort((cf["term"].to_numpy(dtype=object),
                        -cf["cf"].to_numpy()))[:100]
    top = int(cf["cf"].to_numpy(np.int64)[order].sum())
    return pa.table({
        "n_top_terms": pa.array([len(order)], pa.int64()),
        "covered": pa.array([top], pa.int64()),
        "total": pa.array([total], pa.int64()),
        "coverage_micros": pa.array([top * 1_000_000 // total], pa.int64()),
    })


def mmr_rerank(sf_dir: str):
    """Diversified retrieval: MMR re-ranking (Carbonell & Goldstein
    1998) of the BM25 top-20 — greedy top-10 by
    0.7·rel(d) − 0.3·max_{s∈S} sim(d, s), rel and sim both exact
    hash-embedding cosines (integer-dot ratios — bitwise across
    engines, like text_knn). The candidate set comes from the index;
    candidate texts are read back via predicate pushdown; the greedy
    loop runs on 20 rows on the driver. The oracle unrolls the 10
    greedy steps as chained CTEs (the PageRank unrolled-iteration
    pattern) — argmax ties break (score desc, doc_id asc) in both."""
    from ..functions.embedding import HashedTextEncoder

    DIM = 64
    eng = _index_for(sf_dir)
    res = eng.search(BM25_QUERY, 20, method="exhaustive")
    cand_ids = [int(d) for d, _ in res]
    if not cand_ids:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "mmr_micros": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    tbl = pq.read_table(_docs(sf_dir), columns=["doc_id", "text"],
                        filters=[("doc_id", "in", cand_ids)])
    by_id = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    texts = [by_id[d] for d in cand_ids]
    enc = HashedTextEncoder(DIM, normalize=False)
    V = enc.encode_texts(texts)            # (n, DIM) integer-valued
    q = enc.encode_texts([BM25_QUERY])[0]
    norms = np.sqrt((V * V).sum(axis=1))
    nq = float(np.sqrt((q * q).sum()))
    keep = norms > 0
    ids = np.array(cand_ids, dtype=np.int64)[keep]
    V, norms = V[keep], norms[keep]
    rel = (V @ q) / (norms * nq)
    sim = (V @ V.T) / np.outer(norms, norms)
    n = len(ids)
    selected: list[int] = []
    scores: list[float] = []
    remaining = np.ones(n, dtype=bool)
    for step in range(min(10, n)):
        if step == 0:
            mmr = 0.7 * rel
        else:
            ms = sim[:, selected].max(axis=1)
            mmr = 0.7 * rel - 0.3 * ms
        mmr_r = np.where(remaining, mmr, -np.inf)
        # argmax with doc_id asc tie-break
        best = np.lexsort((ids, -mmr_r))[0]
        selected.append(best)
        scores.append(float(mmr_r[best]))
        remaining[best] = False
    return pa.table({
        "doc_id": pa.array(ids[selected], pa.int64()),
        "mmr_micros": pa.array(to_micros(np.array(scores)), pa.int64()),
        "rank": pa.array(np.arange(1, len(selected) + 1, dtype=np.int64)),
    })


def dup_rate_by_source(sf_dir: str):
    """Per-source duplicate statistics — which domain is dirtiest, the
    number a curation pipeline reports before choosing dedup budgets.
    A doc is 'dup' when its exact content hash appears ≥2 times in the
    corpus. The hash table shuffles (hash, 1) partials only; the dup
    set broadcasts (dup-hash-sized); rates are integer micros."""
    import ray as _ray
    from ..functions.dedup import add_content_hash

    docs = rd.read_parquet(_docs(sf_dir),
                           columns=["doc_id", "text", "source"])

    def hashed(b: pa.Table) -> pa.Table:
        return add_content_hash(b, "text").select(
            ["doc_id", "source", "content_hash"])

    hds = docs.map_batches(hashed, batch_format="pyarrow").materialize()

    def hash_counts(b: pa.Table) -> pa.Table:
        t = pa.table({"content_hash": b["content_hash"].combine_chunks(),
                      "n": np.ones(b.num_rows, dtype=np.int64)})
        return _partial_sums(t, ["content_hash"], {"n": "n"})

    counts = (hds.map_batches(hash_counts, batch_format="pyarrow")
              .groupby("content_hash").aggregate(Sum("n", alias_name="n"))
              .to_pandas())
    dup_hashes = set(counts[counts["n"] >= 2]["content_hash"])
    dref = _ray.put(dup_hashes)

    def per_source(b: pa.Table) -> pa.Table:
        dups = _ray.get(dref)
        hs = b["content_hash"].combine_chunks().to_pylist()
        is_dup = np.array([h in dups for h in hs], dtype=np.int64)
        t = pa.table({"source": b["source"].combine_chunks(),
                      "n_docs": np.ones(b.num_rows, dtype=np.int64),
                      "n_dup": is_dup})
        return _partial_sums(t, ["source"], {"n_docs": "n_docs",
                                             "n_dup": "n_dup"})

    agg = (hds.map_batches(per_source, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_dup", alias_name="n_dup"))
           .to_pandas())
    return pa.table({
        "source": pa.array(agg["source"].to_numpy(dtype=object),
                           pa.string()),
        "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
        "n_dup": pa.array(agg["n_dup"].to_numpy(np.int64)),
        "dup_rate_micros": pa.array(
            agg["n_dup"].to_numpy(np.int64) * 1_000_000
            // agg["n_docs"].to_numpy(np.int64), pa.int64()),
    })


def stopword_discovery(sf_dir: str):
    """Corpus-specific stopword discovery: terms whose document
    frequency exceeds half the corpus — the list a pipeline feeds back
    into its tokenizer. df from the combiner-backed term_df aggregate;
    the threshold is an integer comparison (df·2 > n_docs)."""
    df_pd = term_df(sf_dir).to_pandas()
    n_docs = pq.read_metadata(_docs(sf_dir)).num_rows
    sel = df_pd[df_pd["df"].to_numpy(np.int64) * 2 > n_docs]
    sel = sel.sort_values("term")
    return pa.table({
        "term": pa.array(sel["term"].to_numpy(dtype=object), pa.string()),
        "df": pa.array(sel["df"].to_numpy(np.int64)),
        "df_ratio_micros": pa.array(
            sel["df"].to_numpy(np.int64) * 1_000_000 // n_docs, pa.int64()),
    })


# ---------------- wave 9: search-engine query operators ----------------

BOOL_MUST = ("merge", "sort")
BOOL_NOT = ("window",)


def boolean_search(sf_dir: str):
    """Boolean retrieval over the inverted index (the classic
    AND/NOT query a search engine serves beside ranked BM25):
    doc-id sets intersect across the required terms, then the
    excluded term's postings subtract — one boolean-DSL expression,
    ``merge AND sort AND NOT window``. Set algebra runs on SORTED
    posting arrays (np.intersect1d / setdiff1d — merge-style, no
    hashing); at scale each shard intersects its own postings
    independently and the union of shard results is exact because
    doc ids are shard-partitioned."""
    eng = _index_for(sf_dir)
    ids = eng.search_boolean_dsl(" AND ".join(
        [*BOOL_MUST, *(f"NOT {t}" for t in BOOL_NOT)]))
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


BOOL_DSL = "(merge AND sort) OR (join AND NOT window)"


def boolean_dsl_search(sf_dir: str):
    """Boolean retrieval through the query LANGUAGE surface
    (QueryEngine.search_boolean_dsl): recursive-descent AND/OR/NOT +
    parentheses over analyzer-normalized terms, evaluated as sorted-set
    algebra on the postings. The fixed expression exercises nesting,
    both connectives and negation in one tree."""
    eng = _index_for(sf_dir)
    ids = eng.search_boolean_dsl(BOOL_DSL)
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def sorted_boolean_search(sf_dir: str):
    """Sort-by-field serving (the ES ``sort`` clause): boolean DSL
    match ordered by the n_chars doc-value DESC (doc_id asc ties)
    instead of relevance — top-10 longest docs satisfying the
    expression. Field shipped as parallel arrays (a doc-values
    sidecar at scale); inner-join semantics with the field table."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "n_chars"])
    ids = t["doc_id"].to_numpy().astype(np.int64)
    vals = t["n_chars"].to_numpy().astype(np.int64)
    o = np.argsort(ids)
    res = eng.search_sorted_by(BOOL_DSL, 10, field_ids=ids[o],
                               field_vals=vals[o])
    return pa.table({
        "doc_id": pa.array([d for d, _ in res], pa.int64()),
        "n_chars": pa.array([v for _, v in res], pa.int64()),
        "rank": pa.array(list(range(1, len(res) + 1)), pa.int64()),
    })


BQ_MUST = ("merge", "sort")
BQ_SHOULD = ("stream", "window")
BQ_NOT = ("dup",)


def es_request_search(sf_dir: str):
    """The ES ``_search`` REQUEST-BODY surface (es_api.es_search): a
    JSON body with a bool query — a match must clause, term should /
    must_not clauses, size — is translated onto search_bool_query, so
    the response hits are bitwise the bool_query_search results and
    the entry shares its oracle verbatim. This is the integration
    point a user migrating off Elasticsearch calls; the adapter
    raises UnsupportedEsQuery outside its documented subset instead
    of approximating (tests/test_es_api.py pins every supported shape
    against its direct engine surface)."""
    from ..es_api import es_search

    eng = _index_for(sf_dir)
    body = {"query": {"bool": {
        "must": [{"match": {"text": " ".join(BQ_MUST)}}],
        "should": [{"term": {"text": t}} for t in BQ_SHOULD],
        "must_not": [{"term": {"text": t}} for t in BQ_NOT],
    }}, "size": 10}
    hits = es_search(eng, body)["hits"]["hits"]
    return _hits_table((int(h["_id"]), h["_score"]) for h in hits)


HIST_W = 200  # n_chars histogram bucket width


def match_stats_agg(sf_dir: str):
    """Metric aggregation over a matched set (the ES stats-agg shape):
    count/sum/min/max/avg of the n_chars doc-value across docs matching
    the boolean DSL expression. Matched ids come from the index
    (driver-side, bounded); the metric scan is a column-pruned Ray
    aggregate with a broadcast membership mask — no shuffle wider than
    the 4-number partials."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from ..query import sorted_member_mask

    eng = _index_for(sf_dir)
    matched = eng.search_boolean_dsl(BOOL_DSL)
    if len(matched) == 0:  # 0-row result beats a ZeroDivision crash
        return pa.table({c: pa.array([], pa.int64())
                         for c in ("n_docs", "sum_chars", "min_chars",
                                   "max_chars", "avg_chars_micros")})

    def mask(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        return b.filter(pa.array(sorted_member_mask(matched, ids)))

    agg = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "n_chars"])
           .map_batches(mask, batch_format="pyarrow")
           .aggregate(Count(), Sum("n_chars"), Min("n_chars"),
                      Max("n_chars")))
    n = int(agg["count()"])
    s = int(agg["sum(n_chars)"])
    return pa.table({
        "n_docs": pa.array([n], pa.int64()),
        "sum_chars": pa.array([s], pa.int64()),
        "min_chars": pa.array([int(agg["min(n_chars)"])], pa.int64()),
        "max_chars": pa.array([int(agg["max(n_chars)"])], pa.int64()),
        "avg_chars_micros": pa.array([to_micros(s / n)], pa.int64()),
    })


def match_histogram(sf_dir: str):
    """Histogram aggregation over a matched set (the ES histogram-agg
    shape): doc counts per fixed-width n_chars bucket across the
    boolean-matched docs. Map-side partials (one row per bucket per
    batch) then a bucket-keyed sum — the shuffle carries buckets, not
    docs."""
    eng = _index_for(sf_dir)
    matched = eng.search_boolean_dsl(BOOL_DSL)

    from ..query import sorted_member_mask

    def partial(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        hit = sorted_member_mask(matched, ids)
        nch = np.asarray(b["n_chars"].combine_chunks()).astype(np.int64)[hit]
        lo = (nch // HIST_W) * HIST_W
        t = pa.table({"bucket_lo": lo,
                      "n": np.ones(len(lo), dtype=np.int64)})
        return _partial_sums(t, ["bucket_lo"], {"n": "n"})

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "n_chars"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("bucket_lo").aggregate(Sum("n", alias_name="n")))


SIG_K = 20


def significant_terms(sf_dir: str):
    """Significant-terms aggregation (the ES significant_terms analog):
    terms overrepresented in the boolean-matched foreground vs the
    whole corpus, scored by the df-rate ratio
    (fg_df/n_fg)/(bg_df/n_bg), top-20 (ratio desc, term asc —
    micros-rounded BEFORE ranking, the cross-engine float hazard).
    ONE tokenize pass computes fg and bg dfs AND the corpus doc count
    together ((doc, term) pairs are distinct per pass; a "\\x00ndocs"
    sentinel row per batch carries its distinct-doc count — tokens are
    [a-z0-9]+ so the name can never collide); the vocab-sized term
    table is the only materialization."""
    from ..query import sorted_member_mask

    eng = _index_for(sf_dir)
    matched = eng.search_boolean_dsl(BOOL_DSL)
    n_fg = len(matched)
    empty = pa.table({"term": pa.array([], pa.string()),
                      "fg_df": pa.array([], pa.int64()),
                      "bg_df": pa.array([], pa.int64()),
                      "ratio_micros": pa.array([], pa.int64())})
    if n_fg == 0:
        return empty

    NDOCS_KEY = "\x00ndocs"

    def flags(b: pa.Table) -> pa.Table:
        tf = term_frequencies(b["text"].combine_chunks())
        doc_ids = np.asarray(b["doc_id"].combine_chunks()
                             ).astype(np.int64)[tf.doc_idx]
        fg = sorted_member_mask(matched, doc_ids).astype(np.int64)
        t = pa.table({"term": tf.terms, "bg": np.ones(len(fg), np.int64),
                      "fg": fg})
        part = _partial_sums(t, ["term"], {"bg": "bg", "fg": "fg"})
        sent = pa.table({"term": pa.array([NDOCS_KEY], pa.string()),
                         "bg": pa.array([len(np.unique(tf.doc_idx))],
                                        pa.int64()),
                         "fg": pa.array([0], pa.int64())})
        return pa.concat_tables([part, sent])

    src = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    t = (src.map_batches(flags, batch_format="pyarrow")
         .groupby("term").aggregate(Sum("bg", alias_name="bg"),
                                    Sum("fg", alias_name="fg"))
         .to_pandas())  # vocab-sized (bounded), documented
    sent = t[t["term"] == NDOCS_KEY]
    n_bg = int(sent["bg"].iloc[0]) if len(sent) else 0
    t = t[(t["term"] != NDOCS_KEY) & (t["fg"] > 0)]
    if n_bg == 0 or len(t) == 0:
        return empty
    ratio = ((t["fg"].to_numpy().astype(np.float64) / n_fg)
             / (t["bg"].to_numpy().astype(np.float64) / n_bg))
    t = t.assign(ratio_micros=np.floor(ratio * 1e6 + 0.5).astype(np.int64))
    t = t.sort_values(["ratio_micros", "term"],
                      ascending=[False, True]).head(SIG_K)
    return pa.table({
        "term": pa.array(t["term"].tolist(), pa.string()),
        "fg_df": pa.array(t["fg"].tolist(), pa.int64()),
        "bg_df": pa.array(t["bg"].tolist(), pa.int64()),
        "ratio_micros": pa.array(t["ratio_micros"].tolist(), pa.int64()),
    })


AUTOCOMPLETE_PREFIX = "s"


def term_autocomplete(sf_dir: str):
    """Query autocompletion: top-10 vocabulary terms under a prefix,
    ranked by document frequency (df desc, term asc). Serving-path
    shape: every index writer sorts the term_dict by term, so the
    prefix range ['s', 't') prunes to the row groups that can contain
    it — a bounded read, no scan, no shuffle."""
    eng = _index_for(sf_dir)
    p = AUTOCOMPLETE_PREFIX
    hi = p[:-1] + chr(ord(p[-1]) + 1)
    t = pq.read_table(eng._term_dict_dir, columns=["term", "df"],
                      filters=[("term", ">=", p), ("term", "<", hi)])
    terms = np.asarray(t["term"].to_pylist(), dtype=object)
    df = np.asarray(t["df"].to_pylist(), dtype=np.int64)
    order = np.lexsort((terms, -df))[:10]
    return pa.table({
        "term": pa.array(terms[order], pa.string()),
        "df": pa.array(df[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


def search_facets(sf_dir: str):
    """Faceted search: BM25 top-50 for the reference query, faceted by
    language — result-set analytics served WITH the ranked list (the
    sidebar counts every search UI shows). The candidate set comes from
    the index; facet metadata is a doc_id-pushdown read of the docs
    table (50 rows), grouped on the driver."""
    eng = _index_for(sf_dir)
    res = eng.search(BM25_QUERY, 50, method="exhaustive")
    ids = [int(d) for d, _ in res]
    if not ids:
        return pa.table({"lang": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64()),
                         "share_micros": pa.array([], pa.int64())})
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "lang"],
                      filters=[("doc_id", "in", ids)])
    g = (t.to_pandas().groupby("lang", dropna=False)
         .size().reset_index(name="n_docs").sort_values("lang"))
    n = g["n_docs"].to_numpy(np.int64)
    return pa.table({
        "lang": pa.array(g["lang"].to_numpy(dtype=object), pa.string()),
        "n_docs": pa.array(n, pa.int64()),
        "share_micros": pa.array(n * 1_000_000 // len(ids), pa.int64()),
    })


FUZZY_PROBES = ("sorr", "merg", "streem", "windoe", "jion", "bat", "lin")


def fuzzy_vocab_match(sf_dir: str):
    """Fuzzy term matching (spell-correction candidates): for each
    probe, vocabulary terms within Levenshtein distance ≤ 2, top-5 by
    (distance asc, df desc, term asc). Distances come from the Myers
    bit-parallel kernel VECTORIZED ACROSS (probe × candidate) pairs
    (functions/curation.py — the edit_pairs kernel, terms ≤64 chars so
    the one-word path is exact); candidates are length-blocked
    (|len−len(probe)| ≤ 2, implied by dist ≤ 2, so blocking is pure
    pruning). The distance filter runs map-side over the term_dict
    Dataset — only the ≤2-edit neighborhood (k·probes rows) ever
    reaches the driver."""
    from ..functions.curation import _encode_ascii, myers_levenshtein

    eng = _index_for(sf_dir)
    probes = list(FUZZY_PROBES)
    p_codes, p_lens = _encode_ascii(pd.Series(probes), 64)

    def match(batch: pa.Table) -> pa.Table:
        terms = pd.Series(batch["term"].to_pylist())
        dfv = np.asarray(batch["df"].to_pylist()).astype(np.int64)
        t_codes, t_lens = _encode_ascii(terms, 64)
        out_p, out_t, out_d, out_df = [], [], [], []
        for i, p in enumerate(probes):
            cand = np.flatnonzero(np.abs(t_lens - p_lens[i]) <= 2)
            if len(cand) == 0:
                continue
            a_codes = np.repeat(p_codes[i][None, :], len(cand), axis=0)
            a_len = np.full(len(cand), p_lens[i], dtype=np.int64)
            d = myers_levenshtein(a_codes, a_len,
                                  t_codes[cand], t_lens[cand])
            hit = d <= 2
            out_p.append(np.full(hit.sum(), p, dtype=object))
            out_t.append(terms.to_numpy(dtype=object)[cand[hit]])
            out_d.append(d[hit])
            out_df.append(dfv[cand[hit]])
        if not out_p:
            return pa.table({"probe": pa.array([], pa.string()),
                             "term": pa.array([], pa.string()),
                             "dist": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64())})
        return pa.table({
            "probe": pa.array(np.concatenate(out_p), pa.string()),
            "term": pa.array(np.concatenate(out_t), pa.string()),
            "dist": pa.array(np.concatenate(out_d).astype(np.int64)),
            "df": pa.array(np.concatenate(out_df), pa.int64()),
        })

    cand = (rd.read_parquet(eng._term_dict_dir, columns=["term", "df"])
            .map_batches(match, batch_format="pyarrow").to_pandas())
    rows = []
    for p in sorted(set(cand["probe"])):
        g = cand[cand["probe"] == p]
        order = np.lexsort((g["term"].to_numpy(dtype=object),
                            -g["df"].to_numpy(np.int64),
                            g["dist"].to_numpy(np.int64)))[:5]
        g = g.iloc[order]
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        rows.append(g)
    out = pd.concat(rows) if rows else cand.assign(rank=[])
    return pa.table({
        "probe": pa.array(out["probe"].to_numpy(dtype=object), pa.string()),
        "term": pa.array(out["term"].to_numpy(dtype=object), pa.string()),
        "dist": pa.array(out["dist"].to_numpy(np.int64)),
        "df": pa.array(out["df"].to_numpy(np.int64)),
        "rank": pa.array(out["rank"].to_numpy(np.int64)),
    })


from ..text import STEM_RULES, stem_token as _stem_token  # noqa: E402

STEM_QUERY = "sorting joins streams windows"

_stem_engines: dict[str, QueryEngine] = {}


def _stem_flat(flat: pa.Array) -> pa.Array:
    """Vectorized suffix stemmer (s/ed/ing, ≥3-char stems) — applied in
    rule order over the token array. Arrow, Python re and DuckDB
    regexp_replace all use the same semantics here (RE2-compatible
    patterns, verified token-for-token in tests)."""
    for pat, rep in STEM_RULES:
        flat = pc.replace_substring_regex(flat, pattern=pat, replacement=rep)
    return flat


def _stem_join_batch(batch: pa.Table) -> pa.Table:
    """Analyzer pipeline tokenize → stem → rejoin: stemmed tokens are
    still lowercase alnum (no spaces), so re-tokenizing the joined text
    reproduces them exactly; the build's tokenizer re-drops any token
    that stemmed INTO a stopword, which the SQL mirror also does."""
    flat, _, doc_lens = tokenize_array(batch["text"])
    offs = np.concatenate(([0], np.cumsum(doc_lens))).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                     _stem_flat(flat))
    return pa.table({"doc_id": batch["doc_id"],
                     "stemmed_text": pc.binary_join(lists, " ")})


def _stemmed_index_for(sf_dir: str) -> QueryEngine:
    """BM25 index under the stemming analyzer, built once per sf_dir
    from a derived stemmed-text table (same pattern as _fielded_for)."""
    if sf_dir not in _stem_engines:
        stem_dir = _cached(
            sf_dir, "stemmed", lambda path:
            rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(_stem_join_batch, batch_format="pyarrow")
            .write_parquet(path))
        idx_dir = _cache_dir(sf_dir, "index_stem")
        _ensure_built(
            os.path.join(idx_dir, "stats.json"),
            lambda: build_index(stem_dir, idx_dir, content_col="stemmed_text",
                                id_col="doc_id", num_shards=4))
        _stem_engines[sf_dir] = QueryEngine(idx_dir)
    return _stem_engines[sf_dir]


def stemmed_search(sf_dir: str):
    """Analyzer-variant retrieval (§2.10 pluggable analysis exercised
    end-to-end): index AND query both run tokenize → suffix-stem
    (s/ed/ing), so morphological query variants conflate with corpus
    terms ("sorting joins streams windows" retrieves sort/join/stream/
    window docs). BM25 top-10 under the stemmed index's own stats."""
    eng = _stemmed_index_for(sf_dir)
    stemmed = {_stem_token(t) for t in clean_query(STEM_QUERY)}
    res = eng.search(" ".join(sorted(stemmed)), 10, method="exhaustive")
    return _hits_table(res)


COMPLETION_PREFIXES = ("merge", "sort", "window")
COMPLETION_K = 3


def _completion_suggestions(sf_dir: str,
                            ctx_langs: tuple | None = None) -> pa.Table:
    """Shared next-word suggestion kernel behind query_completion and
    context_completion: map-side adjacent-bigram counting over
    zero-copy token-array slices, prefix-filtered to
    COMPLETION_PREFIXES, optionally keyed by a language CONTEXT column
    (ES category contexts); per (ctx?, prefix) top-COMPLETION_K by
    (count desc, term asc). Only (ctx?, prefix, next) pair counts —
    ≤ |contexts|·|prefixes|·vocab rows — ever reach the driver."""
    prefixes = pa.array(sorted(COMPLETION_PREFIXES), pa.string())
    ctxs = (pa.array(sorted(ctx_langs), pa.string())
            if ctx_langs is not None else None)
    keys = (["ctx"] if ctxs is not None else []) + ["prefix", "term"]

    def part(b: pa.Table) -> pa.Table:
        cols = {"prefix": pa.array([], pa.string()),
                "term": pa.array([], pa.string()),
                "c": pa.array([], pa.int64())}
        if ctxs is not None:
            cols = {"ctx": pa.array([], pa.string()), **cols}
        empty = pa.table(cols)
        if ctxs is not None:
            b = b.filter(pc.is_in(b["lang"].combine_chunks(),
                                  value_set=ctxs))
            if b.num_rows == 0:
                return empty
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        m = len(flat) - 1
        if m <= 0:
            return empty
        valid = doc_idx[:m] == doc_idx[1:]
        first, second = flat.slice(0, m), flat.slice(1, m)
        keep = pc.and_(pa.array(valid),
                       pc.is_in(first, value_set=prefixes))
        data = {"prefix": first.filter(keep).to_pylist(),
                "term": second.filter(keep).to_pylist()}
        if not data["prefix"]:
            return empty
        if ctxs is not None:
            data = {"ctx": b["lang"].combine_chunks().take(
                pa.array(doc_idx[:m], pa.int64())).filter(keep)
                .to_pylist(), **data}
        g = (pd.DataFrame(data).groupby(keys, as_index=False)
             .size().rename(columns={"size": "c"}))
        out = {k: pa.array(g[k].to_numpy(dtype=object)) for k in keys[:-1]}
        out["term"] = pa.array(g["term"].to_numpy(dtype=object))
        out["c"] = pa.array(g["c"].to_numpy(np.int64))
        return pa.table(out)

    cols = ["text"] + (["lang"] if ctxs is not None else [])
    parts = (rd.read_parquet(_docs(sf_dir), columns=cols)
             .map_batches(part, batch_format="pyarrow").to_pandas())
    group_keys = keys[:-1]  # (ctx?, prefix)
    out = {c: [] for c in keys + ["c", "rank"]}
    if len(parts):
        cnt = parts.groupby(keys, as_index=False)["c"].sum()
        gk = cnt[group_keys].apply(tuple, axis=1)
        for key in sorted(set(gk)):
            g = cnt[gk == key]
            order = np.lexsort((g["term"].to_numpy(dtype=object),
                                -g["c"].to_numpy(np.int64)))
            g = g.iloc[order[:COMPLETION_K]]
            for k in keys:
                out[k].extend(g[k])
            out["c"].extend(int(x) for x in g["c"])
            out["rank"].extend(range(1, len(g) + 1))
    cols_out = {k: pa.array(out[k], pa.string()) for k in keys}
    cols_out["c"] = pa.array(out["c"], pa.int64())
    cols_out["rank"] = pa.array(out["rank"], pa.int64())
    return pa.table(cols_out)


def query_completion(sf_dir: str):
    """Search-as-you-type next-word suggestion: for each prefix term,
    the top-3 following terms by adjacent-bigram count over the corpus
    ((count desc, term asc) tie-break) — the suggest-next-token surface
    a query box needs, mined from the corpus itself
    (_completion_suggestions kernel)."""
    return _completion_suggestions(sf_dir)


DECON_MOD = 50
DECON_SIM_T = 0.40


def embedding_decontamination(sf_dir: str):
    """Fuzzy decontamination in embedding space: flag corpus vectors
    whose max cosine against the benchmark set (vec_id % 50 == 0 — the
    held-out eval slice) reaches the threshold, with the best-matching
    benchmark id. The benchmark side is small BY DEFINITION, so it
    broadcasts once (ray.put) and every batch does one matmul against
    it — the exact shape contamination screening takes at 100 TB
    (blocklist embeddings ≪ corpus). Ties at equal sim pick the
    smallest benchmark id (benchmark matrix is vec_id-sorted and
    argmax returns the first maximum)."""
    from ..functions.similarity import _emb_matrix, _normalize

    emb_path = os.path.join(sf_dir, "embeddings.parquet")

    def pick_bench(t: pa.Table) -> pa.Table:
        v = np.asarray(t["vec_id"].combine_chunks()).astype(np.int64)
        return t.take(pa.array(np.flatnonzero(v % DECON_MOD == 0)))

    bench = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
             .map_batches(pick_bench, batch_format="pyarrow")
             .to_pandas().sort_values("vec_id"))  # small by construction
    bench_ids = bench["vec_id"].to_numpy(np.int64)
    bench_mat = _normalize(np.asarray(
        np.stack(bench["embedding"].to_numpy()), dtype=np.float64))
    import ray as _ray
    ref = _ray.put((bench_ids, bench_mat))

    def flag(batch: pa.Table) -> pa.Table:
        bids, bmat = _ray.get(ref)
        ids = np.asarray(batch["vec_id"].combine_chunks()).astype(np.int64)
        keep = ids % DECON_MOD != 0
        emb = _normalize(_emb_matrix(batch, "embedding"))[keep]
        ids = ids[keep]
        if len(ids) == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "match_id": pa.array([], pa.int64()),
                             "sim_micros": pa.array([], pa.int64())})
        sims = emb @ bmat.T
        best = sims.argmax(axis=1)  # first max → smallest benchmark id
        best_sim = sims[np.arange(len(best)), best]
        hit = best_sim >= DECON_SIM_T
        return pa.table({
            "vec_id": pa.array(ids[hit], pa.int64()),
            "match_id": pa.array(bids[best[hit]], pa.int64()),
            "sim_micros": pa.array(
                np.asarray([to_micros(s) for s in best_sim[hit]],
                           dtype=np.int64)),
        })

    out = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
           .map_batches(flag, batch_format="pyarrow").to_pandas()
           .sort_values("vec_id"))
    return pa.table({
        "vec_id": pa.array(out["vec_id"].to_numpy(np.int64)),
        "match_id": pa.array(out["match_id"].to_numpy(np.int64)),
        "sim_micros": pa.array(out["sim_micros"].to_numpy(np.int64)),
    })


IR_EVAL_QUERIES = ("merge sort", "dup scan", "dup query window",
                   "filter vector", "dup")
IR_EVAL_K = 10


def ir_eval(sf_dir: str):
    """Distributed IR evaluation (the A8 results-aggregation surface as
    ranking-quality metrics): for each fixed query, BM25 top-10 is
    scored against conjunctive relevance (a doc is relevant iff it
    contains EVERY query term — the classic pseudo-qrels). Per query:
    n_rel, hits@10, reciprocal rank, DCG@10 and ideal-DCG@10 (natural
    log, binary gains). DCG sums travel per-row round-then-sum in
    micros (CLAUDE.md rule 4) so both engines sum exact int64; nDCG =
    dcg/idcg is derivable and base-invariant."""
    eng = _index_for(sf_dir)
    out = {c: [] for c in ("query", "n_rel", "hits_at_10", "rr_micros",
                           "dcg_micros", "idcg_micros")}
    for q in sorted(IR_EVAL_QUERIES):
        terms = sorted(set(clean_query(q)))
        rel = eng.search_boolean_dsl(" AND ".join(terms))
        res = eng.search(q, IR_EVAL_K, method="exhaustive")
        ranks = [r for r, (d, _) in enumerate(res, 1)
                 if np.searchsorted(rel, d) < len(rel)
                 and rel[np.searchsorted(rel, d)] == d]
        rr = to_micros(1.0 / ranks[0]) if ranks else 0
        dcg = sum(to_micros(1.0 / math.log(r + 1.0)) for r in ranks)
        idcg = sum(to_micros(1.0 / math.log(i + 1.0))
                   for i in range(1, min(len(rel), IR_EVAL_K) + 1))
        out["query"].append(q)
        out["n_rel"].append(len(rel))
        out["hits_at_10"].append(len(ranks))
        out["rr_micros"].append(rr)
        out["dcg_micros"].append(dcg)
        out["idcg_micros"].append(idcg)
    return pa.table({
        "query": pa.array(out["query"], pa.string()),
        "n_rel": pa.array(out["n_rel"], pa.int64()),
        "hits_at_10": pa.array(out["hits_at_10"], pa.int64()),
        "rr_micros": pa.array(out["rr_micros"], pa.int64()),
        "dcg_micros": pa.array(out["dcg_micros"], pa.int64()),
        "idcg_micros": pa.array(out["idcg_micros"], pa.int64()),
    })


SPELL_PROBES = ("mrege", "sortt", "jion", "streem", "windoww",
                "qurey", "zzzzqq")


def spellfix_search(sf_dir: str):
    """End-to-end "did you mean" retrieval (Lucene DirectSpellChecker →
    re-query analog): each query token is corrected to the best vocab
    term within Levenshtein distance ≤ 2 — (dist asc, df desc, term asc)
    tie-break — tokens with no neighborhood are dropped, then the
    corrected term set runs plain BM25 top-10. Distances come from the
    Myers bit-parallel kernel (exact Levenshtein for terms ≤64 chars);
    candidate generation is length-blocked (||t|-|p|| ≤ 2 is implied by
    dist ≤ 2, so blocking is pure pruning). At scale the vocab pass is
    a map over the term_dict Dataset; only the ≤2-edit neighborhood
    reaches the driver."""
    from ..functions.curation import _encode_ascii, myers_levenshtein

    eng = _index_for(sf_dir)
    probes = list(SPELL_PROBES)
    t = pq.read_table(eng._term_dict_dir, columns=["term", "df"])
    terms = pd.Series(t["term"].to_pylist())
    dfv = np.asarray(t["df"].to_pylist(), dtype=np.int64)
    p_codes, p_lens = _encode_ascii(pd.Series(probes), 64)
    t_codes, t_lens = _encode_ascii(terms, 64)
    t_arr = terms.to_numpy(dtype=object)
    corrected: set[str] = set()
    for i, p in enumerate(probes):
        cand = np.flatnonzero(np.abs(t_lens - p_lens[i]) <= 2)
        if len(cand) == 0:
            continue
        d = myers_levenshtein(
            np.repeat(p_codes[i][None, :], len(cand), axis=0),
            np.full(len(cand), p_lens[i], dtype=np.int64),
            t_codes[cand], t_lens[cand])
        hit = d <= 2
        if not hit.any():
            continue
        ct, cd, cdf = t_arr[cand[hit]], d[hit], dfv[cand[hit]]
        j = np.lexsort((ct, -cdf, cd))[0]  # dist asc, df desc, term asc
        corrected.add(str(ct[j]))
    if not corrected:
        return _hits_table([])
    res = eng.search(" ".join(sorted(corrected)), 10, method="exhaustive")
    return _hits_table(res)


SHUFFLE_SEED = 7
SHUFFLE_BUCKETS = 64


def global_shuffle(sf_dir: str):
    """Deterministic seeded global shuffle for training-data ordering:
    every doc gets a position, reproducible across runs and engines —
    pos = rank by (bucket, doc_id) with bucket = md5(doc_id‖':seed')
    mod B. This is the two-level shape a distributed trainer actually
    runs: ONE hash-bucket exchange, then a deterministic in-bucket
    order; global positions come from a B-row driver cumsum of bucket
    counts broadcast back as bases (the keyed_offsets pattern) — no
    global sort, no driver materialization of data rows."""
    import ray as _ray
    from ..functions.dedup import md5_low64

    B = SHUFFLE_BUCKETS

    def tag(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        h = md5_low64(np.array([f"{i}:{SHUFFLE_SEED}" for i in ids],
                               dtype=object))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "bucket": pa.array((h % B).astype(np.int64), pa.int64()),
        })

    tagged = (rd.read_parquet(_docs(sf_dir), columns=["doc_id"])
              .map_batches(tag, batch_format="pyarrow").materialize())

    def bucket_counts(b: pa.Table) -> pa.Table:
        t = pa.table({"bucket": b["bucket"].combine_chunks(),
                      "n": np.ones(b.num_rows, dtype=np.int64)})
        return _partial_sums(t, ["bucket"], {"n": "n"})

    counts = (tagged.map_batches(bucket_counts, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("n", alias_name="n"))
              .to_pandas().sort_values("bucket"))
    base = np.concatenate(([0], np.cumsum(counts["n"].to_numpy())[:-1]))
    base_map = dict(zip(counts["bucket"].to_numpy().tolist(),
                        base.tolist()))
    ref = _ray.put(base_map)

    def number(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort").reset_index(drop=True)
        b0 = int(g["bucket"].iloc[0])
        pos = _ray.get(ref)[b0] + np.arange(len(g), dtype=np.int64)
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(np.int64),
                             "bucket": g["bucket"].to_numpy(np.int64),
                             "pos": pos})

    return (tagged.groupby("bucket")
            .map_groups(number, batch_format="pandas"))


LEN_BATCH_B = 32
LEN_BUCKET_W = 200


def length_batching(sf_dir: str):
    """Length-bucketed (sorted) batching — the padding-minimizing
    batcher a tokenizer pipeline runs before training: docs ranked
    globally by (n_chars, doc_id), cut into fixed 32-doc batches,
    per-batch padding = max·count − sum. The global rank needs NO
    global sort: RANGE buckets on n_chars (equal lengths can never
    straddle a bucket, so bucket order == value order), per-bucket
    vectorized sort, and a driver cumsum of bucket counts broadcast
    back as rank bases (the global_shuffle / keyed_offsets pattern).
    Per-batch stats then reduce through map-side partials — batches
    may straddle buckets, but the partial rows are batch-count-sized."""
    import ray as _ray

    B, W = LEN_BATCH_B, LEN_BUCKET_W

    def tag(b: pa.Table) -> pa.Table:
        nc = np.asarray(b["n_chars"].combine_chunks()).astype(np.int64)
        return pa.table({
            "doc_id": b["doc_id"].combine_chunks().cast(pa.int64()),
            "n_chars": pa.array(nc, pa.int64()),
            "bucket": pa.array(nc // W, pa.int64()),
        })

    tagged = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "n_chars"])
              .map_batches(tag, batch_format="pyarrow").materialize())

    def bucket_counts(b: pa.Table) -> pa.Table:
        t = pa.table({"bucket": b["bucket"].combine_chunks(),
                      "n": np.ones(b.num_rows, dtype=np.int64)})
        return _partial_sums(t, ["bucket"], {"n": "n"})

    counts = (tagged.map_batches(bucket_counts, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("n", alias_name="n"))
              .to_pandas().sort_values("bucket"))
    base = np.concatenate(([0], np.cumsum(counts["n"].to_numpy())[:-1]))
    ref = _ray.put(dict(zip(counts["bucket"].to_numpy().tolist(),
                            base.tolist())))

    def number(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["n_chars", "doc_id"], kind="mergesort")
             .reset_index(drop=True))
        rank = (_ray.get(ref)[int(g["bucket"].iloc[0])]
                + np.arange(len(g), dtype=np.int64))
        bi = rank // B
        # batch-count-sized partials: per (batch_idx) n / sum / max
        out = (pd.DataFrame({"batch_idx": bi,
                             "n_chars": g["n_chars"].to_numpy(np.int64)})
               .groupby("batch_idx", sort=False)["n_chars"]
               .agg(n="count", sum_chars="sum", max_chars="max")
               .reset_index())
        return out

    agg = (tagged.groupby("bucket").map_groups(number, batch_format="pandas")
           .groupby("batch_idx")
           .aggregate(Sum("n", alias_name="n_docs"),
                      Sum("sum_chars", alias_name="sum_chars"),
                      Max("max_chars", alias_name="max_chars")))

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n_docs"].combine_chunks()).astype(np.int64)
        s = np.asarray(b["sum_chars"].combine_chunks()).astype(np.int64)
        m = np.asarray(b["max_chars"].combine_chunks()).astype(np.int64)
        return pa.table({
            "batch_idx": b["batch_idx"].combine_chunks().cast(pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "max_chars": pa.array(m, pa.int64()),
            "padding_chars": pa.array(m * n - s, pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


MLT_DOC = 0


def more_like_this(sf_dir: str):
    """More-like-this: use a source document's top-5 TF-IDF terms as a
    BM25 query and return the 10 most similar OTHER docs — the related-
    content query every search engine ships. Term selection reuses the
    tfidf_keywords scoring (tf·ln(N/df), score desc / term asc — ties
    identical across engines because tf and df are integers and ln is
    bitwise-shared); retrieval runs through the index at k=11, the
    source doc filtered out after ranking (equivalent to SQL's
    WHERE doc_id <> src ... LIMIT 10 for every rank position of src)."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "text"],
                      filters=[("doc_id", "=", MLT_DOC)])
    tf = term_frequencies(t["text"].combine_chunks())
    terms = np.asarray(tf.vocab.to_pylist(), dtype=object)[tf.codes]
    df_pd = term_df(sf_dir).to_pandas()  # vocab-sized
    n_docs = pq.read_metadata(_docs(sf_dir)).num_rows
    idf = pd.Series(
        np.log(float(n_docs) / df_pd["df"].to_numpy(np.float64)),
        index=df_pd["term"].to_numpy())
    score = tf.tf.astype(np.float64) * idf.reindex(terms).to_numpy()
    top = np.lexsort((terms, -score))[:5]
    qterms = [str(x) for x in terms[top]]
    res = eng.search(" ".join(qterms), 11, method="exhaustive")
    out = [(d, s) for d, s in res if d != MLT_DOC][:10]
    return _hits_table(out)


N_BPE_MERGES = 10


def bpe_merges(sf_dir: str):
    """BPE tokenizer training (Sennrich et al. 2016 shape): the
    corpus-scale pass is the combiner-backed term_counts aggregate
    (distributed word counting — exactly how production BPE trainers
    scale); merge learning runs over the vocab-sized table with
    vectorized pair counting (functions/bpe.py — one flat symbol
    array, numpy unique + int64-exact scatter-add per round).
    Identical-symbol pairs are excluded as candidates (pins
    left-greedy application order-free; documented deviation), which
    is what lets the DuckDB oracle mirror all 10 rounds exactly as
    unrolled materialized CTEs."""
    from ..functions.bpe import learn_bpe

    cfp = term_counts(sf_dir).to_pandas().sort_values("term")
    out = learn_bpe(cfp["term"].tolist(),
                    cfp["cf"].to_numpy(np.int64), N_BPE_MERGES)
    return pa.table({
        "step": pa.array(out["step"].to_numpy(np.int64), pa.int64()),
        "lhs": pa.array(out["lhs"].to_numpy(dtype=object), pa.string()),
        "rhs": pa.array(out["rhs"].to_numpy(dtype=object), pa.string()),
        "pair_count": pa.array(out["pair_count"].to_numpy(np.int64),
                               pa.int64()),
    })


def bpe_encode_stats(sf_dir: str):
    """Corpus-wide encode with the learned BPE: per doc, kept-token
    count and encoded symbol count — the tokens-per-document
    compression number that decides whether a tokenizer ships. The
    merge table is vocab-sized: encoded lengths per TERM are computed
    once on the driver, broadcast via ray.put, and the corpus pass is
    pure map-side (Σ tf·len — no shuffle)."""
    import ray as _ray

    from ..functions.bpe import bpe_segment, learn_bpe

    cfp = term_counts(sf_dir).to_pandas().sort_values("term")
    merges_df = learn_bpe(cfp["term"].tolist(),
                          cfp["cf"].to_numpy(np.int64), N_BPE_MERGES)
    merges = list(zip(merges_df["lhs"], merges_df["rhs"]))
    enc_len = pd.Series({t: len(bpe_segment(t, merges))
                         for t in cfp["term"]}, dtype=np.int64)
    ref = _ray.put(enc_len)

    def enc(batch: pa.Table) -> pa.Table:
        s = _ray.get(ref)
        tf = term_frequencies(batch["text"].combine_chunks())
        ids = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        n = batch.num_rows
        n_tok = np.zeros(n, dtype=np.int64)
        n_bpe = np.zeros(n, dtype=np.int64)
        if len(tf.tf):
            lens = s.reindex(tf.vocab.to_pylist()).to_numpy(np.int64)
            np.add.at(n_tok, tf.doc_idx, tf.tf)
            np.add.at(n_bpe, tf.doc_idx, tf.tf * lens[tf.codes])
        nz = n_tok > 0
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_tokens": pa.array(n_tok[nz], pa.int64()),
            "n_bpe": pa.array(n_bpe[nz], pa.int64()),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(enc, batch_format="pyarrow"))


NEAR_TERMS = ("merge", "sort")
NEAR_MAX_GAP = 3


def near_search(sf_dir: str):
    """Proximity search: docs where the two query terms occur within
    NEAR_MAX_GAP kept-token positions, with the min gap — the NEAR/k
    operator of classic IR. Same T2 shape as phrase_search_indexed:
    candidates from posting-list intersection (no corpus scan), then a
    map-side position check over the pushdown-read candidate texts.
    The min-gap kernel is vectorized: both terms' hit positions merge
    in (doc, pos) order (the token stream is already sorted), and the
    min |Δpos| per doc is the min over ADJACENT opposite-label pairs —
    one diff + one scatter-min, no per-doc loop."""
    eng = _index_for(sf_dir)
    ta, tb = NEAR_TERMS
    cands = np.intersect1d(eng.term_doc_ids(ta), eng.term_doc_ids(tb),
                           assume_unique=True)
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "min_gap": pa.array([], pa.int64())})
    if len(cands) == 0:
        return empty

    def verify(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        if len(doc_idx) == 0:
            return empty
        # 1-based position within each doc's kept stream
        starts = np.flatnonzero(np.diff(np.concatenate(([-1], doc_idx))))
        runs = np.diff(np.concatenate((starts, [len(doc_idx)])))
        pos = np.arange(len(doc_idx)) - np.repeat(starts, runs) + 1
        is_a = np.asarray(pc.equal(flat, ta)).astype(bool)
        is_b = np.asarray(pc.equal(flat, tb)).astype(bool)
        sel = is_a | is_b
        if not sel.any():
            return empty
        d, p, lab = doc_idx[sel], pos[sel], is_a[sel]
        same_doc = d[1:] == d[:-1]
        diff_lab = lab[1:] != lab[:-1]
        ok = same_doc & diff_lab
        gaps = (p[1:] - p[:-1])[ok]
        docs = d[1:][ok]
        if len(docs) == 0:
            return empty
        uniq = np.unique(docs)
        mg = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mg, np.searchsorted(uniq, docs), gaps)
        keep = mg <= NEAR_MAX_GAP
        return pa.table({
            "doc_id": pa.array(ids[uniq[keep]], pa.int64()),
            "min_gap": pa.array(mg[keep], pa.int64()),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"],
                            filter=pads.field("doc_id").isin(
                                [int(d) for d in cands]))
            .map_batches(verify, batch_format="pyarrow"))


def index_stats(sf_dir: str):
    """Index health/statistics surface (the CheckIndex of this engine):
    corpus size, vocab size, posting count, token count and average doc
    length — all from the built index's own artifacts (doclens +
    term_dict), NOT recomputed from the corpus, so the oracle doubles
    as an index-integrity audit."""
    eng = _index_for(sf_dir)
    td = pq.read_table(eng._term_dict_dir, columns=["term", "df", "cf"])
    return pa.table({
        "n_docs": pa.array([int(eng.n_docs)], pa.int64()),
        "n_terms": pa.array([td.num_rows], pa.int64()),
        "n_postings": pa.array([int(pc.sum(td["df"]).as_py())], pa.int64()),
        "total_tokens": pa.array([int(pc.sum(td["cf"]).as_py())],
                                 pa.int64()),
        "avgdl_micros": pa.array([int(np.floor(eng.avgdl * 1e6 + 0.5))],
                                 pa.int64()),
    })


def search_page(sf_dir: str):
    """Pagination: the SECOND page (ranks 11-20) of the reference BM25
    query — deep paging served from one k=20 top-k pass (the engine's
    tie-exact partial select), sliced after ranking exactly like SQL's
    OFFSET."""
    res = _index_for(sf_dir).search(BM25_QUERY, 20, method="exhaustive")
    return _hits_table(res).slice(10)


def federated_search(sf_dir: str):
    """Virtual multi-index retrieval (FederatedQueryEngine): the corpus
    split into two independently built indexes (doc_id parity — the
    per-epoch/per-tenant federation shape), queried as ONE index with
    union collection stats. Because federation is bitwise equal to the
    physically merged index, which is bitwise equal to a rebuild over
    the union, the oracle is simply the whole-table BM25 chain — the
    strongest possible cross-check of the union-stats math."""
    from ..query import FederatedQueryEngine

    halves = []
    for par in (0, 1):
        def keep(batch: pa.Table, par=par) -> pa.Table:
            ids = np.asarray(batch["doc_id"].combine_chunks())
            return batch.filter(pa.array(ids % 2 == par))

        half_dir = _cached(
            sf_dir, f"fed_docs_{par}", lambda path, keep=keep:
            rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(keep, batch_format="pyarrow")
            .write_parquet(path))
        idx_dir = _cache_dir(sf_dir, f"fed_index_{par}")
        _ensure_built(
            os.path.join(idx_dir, "stats.json"),
            lambda half_dir=half_dir, idx_dir=idx_dir: build_index(
                half_dir, idx_dir, content_col="text", id_col="doc_id",
                num_shards=4))
        halves.append(idx_dir)
    fed = FederatedQueryEngine(halves)
    res = fed.search(BM25_QUERY, 10)
    return _hits_table(res)


def search_after_page(sf_dir: str):
    """Cursor pagination (ES ``search_after``): page 2 fetched through
    a (score, doc_id) cursor taken from page 1's last row, NOT an
    offset — the deep-paging shape that stays O(k) per shard at any
    depth. The cursor compares raw float scores (bitwise identical
    across engines by rule 1); the SQL mirror derives the same cursor
    with OFFSET 9 LIMIT 1 and applies the same strict-after predicate."""
    eng = _index_for(sf_dir)
    page1 = eng.search(BM25_QUERY, 10, method="exhaustive")
    if not page1:
        return _hits_table([])
    after_doc, after_score = page1[-1][0], page1[-1][1]
    res = eng.search_after(BM25_QUERY, after_score, after_doc, 10)
    return _hits_table(page1 + res).slice(len(page1))  # ranks run on


def domain_temperature_mix(sf_dir: str):
    """Temperature-scaled domain mixing (the multilingual/multi-source
    rebalancing rule, α = 0.5): per-source sampling weight
    w_s ∝ sqrt(n_s/N), normalized. Counts shuffle as per-batch partials
    only; the float step is ONE correctly-rounded sqrt per source,
    rounded to micros BEFORE normalization so the division is integer
    — order-free and bitwise across engines."""
    docs = rd.read_parquet(_docs(sf_dir), columns=["source"])

    def ones(b: pa.Table) -> pa.Table:
        t = pa.table({"source": b["source"].combine_chunks(),
                      "n": np.ones(b.num_rows, dtype=np.int64)})
        return _partial_sums(t, ["source"], {"n": "n"})

    agg = (docs.map_batches(ones, batch_format="pyarrow")
           .groupby("source").aggregate(Sum("n", alias_name="n"))
           .to_pandas().sort_values("source"))
    n = agg["n"].to_numpy(np.int64)
    total = int(n.sum())
    w = np.floor(np.sqrt(n.astype(np.float64) / float(total)) * 1e6
                 + 0.5).astype(np.int64)
    denom = int(w.sum())
    return pa.table({
        "source": pa.array(agg["source"].to_numpy(dtype=object),
                           pa.string()),
        "n_docs": pa.array(n, pa.int64()),
        "w_micros": pa.array(w, pa.int64()),
        "rate_micros": pa.array(w * 1_000_000 // denom, pa.int64()),
    })


INGEST_REJECT_M = 32  # reject when >= 32/64 perms agree (est >= 0.5)


def ingest_dedup(sf_dir: str):
    """Dedup-on-ingest, the gate an incremental ingestion pipeline runs
    BEFORE appending: the corpus's second half arrives as a new batch
    and each incoming doc is screened against the EXISTING half's
    MinHash-LSH buckets — rejected when its best signature agreement
    with any existing doc reaches the near-dup threshold. Same banded
    shape as minhash_lsh_clusters (signatures → band explode →
    collision-bucket groupby) but asymmetric: only (incoming, existing)
    pairs verify, max agreement per incoming doc, and docs that hit no
    bucket are accepted via the union-zero-rows pattern (no driver id
    table, no left join). 3-token shingles (NOT unigrams: on a small
    vocabulary every doc's token SET converges, so unigram Jaccard
    rejects everything — measured on this corpus) with md5 token
    hashing: the rolling polynomial shingle hash is plain uint64 wrap
    arithmetic, so the whole chain stays SQL-reproducible via HUGEINT
    mod-2^64 mirrors. Zero-token docs never band (pinned: accepted
    trivially, never dup sources)."""
    from ..functions.dedup import (
        _bands_batch,
        _filter_collision_buckets,
        minhash_signatures,
    )

    n_docs = pq.read_metadata(_docs(sf_dir)).num_rows
    split = n_docs // 2
    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    sigs = minhash_signatures(docs, num_perm=64, shingle_k=3, seed=7,
                              hash_fn="md5")

    def bands_nonempty(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n_tokens"], 0))
        return _bands_batch(t, 16, 64, carry_sig=True)

    # no collision-bucket prefilter: it costs a full aggregate shuffle
    # to prune singleton groups the bucketed verify below skips with one
    # boolean mask (the minhash_clusters lesson). The trade is shuffling
    # all band rows (sig-carrying) instead of collision rows only — at
    # 100 TB size num_buckets to the band-row count, or reinstate
    # _filter_collision_buckets if sig payload ever dominates the wire.
    bands = sigs.map_batches(bands_nonempty, batch_format="pyarrow")

    def zeros(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        ids = ids[ids >= split]
        # pandas blocks so the union with the map_groups output is
        # block-type homogeneous
        return pd.DataFrame({"doc_id": ids,
                             "m": np.zeros(len(ids), np.int64)})

    incoming0 = (rd.read_parquet(_docs(sf_dir), columns=["doc_id"])
                 .map_batches(zeros, batch_format="pandas"))

    # ONE hash-bucket shuffle instead of the native (band, band_hash)
    # groupby (a global sort + one Python call per tiny group — the
    # measured ~50× trap; same fix as minhash_lsh_clusters' inline
    # verify): coarse buckets by folded-key hash, then each bucket
    # verifies ALL its groups vectorized (singletons cost one mask).
    def tag_bucket(t: pa.Table) -> pa.Table:
        with np.errstate(over="ignore"):
            k = (np.asarray(t["band_hash"].combine_chunks())
                 .astype(np.int64) * np.int64(64)
                 + np.asarray(t["band"].combine_chunks())
                 .astype(np.int64))
        h = pd.util.hash_array(k)
        return t.append_column("__bucket", pa.array(
            (h % np.uint64(64)).astype(np.int64)))

    def verify_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                              "m": pd.Series(dtype=np.int64)})
        if df.empty:
            return empty
        df = df.drop_duplicates(["band", "band_hash", "doc_id"])
        df = df.sort_values(["band", "band_hash", "doc_id"],
                            kind="mergesort")
        band = df["band"].to_numpy()
        bh = df["band_hash"].to_numpy()
        ids_all = df["doc_id"].to_numpy().astype(np.int64)
        sig_all = df["sig"].to_numpy()
        new_grp = np.empty(len(df), dtype=bool)
        new_grp[0] = True
        new_grp[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
        starts = np.flatnonzero(new_grp)
        ends = np.concatenate((starts[1:], [len(df)]))
        out_id: list[np.ndarray] = []
        out_m: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ids = ids_all[s:e]
            ex = ids < split
            if not ex.any() or ex.all():
                continue
            mat = np.frombuffer(b"".join(sig_all[s:e]),
                                dtype=np.uint64).reshape(-1, 64)
            m = ((mat[~ex][:, None, :] == mat[ex][None, :, :])
                 .sum(axis=2).max(axis=1))
            out_id.append(ids[~ex])
            out_m.append(m.astype(np.int64))
        if not out_id:
            return empty
        return pd.DataFrame({"doc_id": np.concatenate(out_id),
                             "m": np.concatenate(out_m)})

    matches = (bands.map_batches(tag_bucket, batch_format="pyarrow")
               .groupby("__bucket")
               .map_groups(verify_bucket, batch_format="pandas")
               .union(incoming0))

    return _ingest_gate_finalize(matches)


def _ingest_gate_finalize(matches):
    """(doc_id, m) partials → (doc_id, max_match, accepted): per-doc max
    via hash-bucket + vectorized pandas max — NOT the native
    groupby(doc_id).aggregate(Max): at 10⁶+ distinct incoming ids that
    path is the measured ~50× trap (NOTES.md)."""
    def tagb(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bucket"] = df["doc_id"].to_numpy(np.int64) % 64
        return df

    def bucket_max(g: pd.DataFrame) -> pd.DataFrame:
        mx = (g.groupby("doc_id", sort=False)["m"].max()
              .reset_index(name="max_match"))
        mm = mx["max_match"].to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": mx["doc_id"].to_numpy(np.int64),
            "max_match": mm,
            "accepted": (mm < INGEST_REJECT_M).astype(np.int64),
        })

    return (matches.map_batches(tagb, batch_format="pandas")
            .groupby("__bucket")
            .map_groups(bucket_max, batch_format="pandas"))


PERCOLATE_QUERIES = (
    "merge sort join stream window",
    "spark query filter batch",
    "fast hash table scan",
    "vector column group value",
)


def percolate(sf_dir: str):
    """Percolation (reverse search, the alerting/routing primitive):
    match every doc against the STORED query set — doc matches a query
    when it contains ALL the query's terms. Pure map-side: each batch
    tests term membership vectorized against the (tiny) stored-query
    term lists; no index, no shuffle — the corpus streams once, which
    is the percolator's scale shape (queries are the small side)."""
    qterms = [sorted(set(clean_query(q))) for q in PERCOLATE_QUERIES]

    def match(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        n = b.num_rows
        out_d, out_q = [], []
        for qi, terms in enumerate(qterms):
            ok = np.ones(n, dtype=bool)
            for t in terms:
                has = np.zeros(n, dtype=bool)
                hit = doc_idx[np.asarray(pc.equal(flat, t)).astype(bool)]
                has[hit] = True
                ok &= has
            out_d.append(ids[ok])
            out_q.append(np.full(int(ok.sum()), qi, dtype=np.int64))
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
            .map_batches(match, batch_format="pyarrow"))


SNIPPET_WIDTH = 10


def snippet_windows(sf_dir: str):
    """Snippet extraction for the BM25 top-10: per hit doc, the best
    highlight window — the SNIPPET_WIDTH-token span anchored at a
    query-term hit containing the most query-term occurrences (ties →
    smallest start). Anchoring at hit positions pins determinism and
    is what highlighters actually do. Candidates come from the ranked
    search; the window scan is one searchsorted over each doc's sorted
    hit positions (c_i = #hits in [p_i, p_i+W-1]) — no per-position
    loop."""
    eng = _index_for(sf_dir)
    res = eng.search(BM25_QUERY, 10, method="exhaustive")
    ids = [int(d) for d, _ in res]
    if not ids:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "win_start": pa.array([], pa.int64()),
                         "n_hits": pa.array([], pa.int64())})
    terms = sorted(set(clean_query(BM25_QUERY)))

    def best_window(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        bids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        starts = np.flatnonzero(np.diff(np.concatenate(([-1], doc_idx))))
        runs = np.diff(np.concatenate((starts, [len(doc_idx)])))
        pos = np.arange(len(doc_idx)) - np.repeat(starts, runs) + 1
        is_hit = np.zeros(len(doc_idx), dtype=bool)
        for t in terms:
            is_hit |= np.asarray(pc.equal(flat, t)).astype(bool)
        d, p = doc_idx[is_hit], pos[is_hit]
        out_d, out_s, out_n = [], [], []
        for row in np.unique(d):
            pp = p[d == row]  # sorted (token order)
            c = np.searchsorted(pp, pp + SNIPPET_WIDTH - 1, side="right") \
                - np.arange(len(pp))
            best = np.lexsort((pp, -c))[0]
            out_d.append(bids[row])
            out_s.append(int(pp[best]))
            out_n.append(int(c[best]))
        return pa.table({
            "doc_id": pa.array(np.array(out_d, np.int64)),
            "win_start": pa.array(np.array(out_s, np.int64)),
            "n_hits": pa.array(np.array(out_n, np.int64)),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"],
                            filter=pads.field("doc_id").isin(ids))
            .map_batches(best_window, batch_format="pyarrow"))


FRAG_W, FRAG_K = 12, 3


def snippet_fragments(sf_dir: str):
    """Multi-fragment highlighting for the BM25 top-10 (the Lucene
    simple-fragmenter / ES number_of_fragments shape): each hit doc's
    kept tokens split into fixed FRAG_W-token tiles, the up-to-FRAG_K
    tiles containing the most query-term hits returned per doc (hits
    desc, tile asc) — tiling makes fragments non-overlapping BY
    CONSTRUCTION, which is what keeps the selection one vectorized
    group-count instead of a sequential greedy (and makes it exactly
    SQL-mirrorable). Output: (doc_id, frag_id, n_hits, frag_rank)."""
    eng = _index_for(sf_dir)
    res = eng.search(BM25_QUERY, 10, method="exhaustive")
    ids = [int(d) for d, _ in res]
    terms = sorted(set(clean_query(BM25_QUERY)))

    def frags(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        bids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        starts = np.flatnonzero(np.diff(np.concatenate(([-1], doc_idx))))
        runs = np.diff(np.concatenate((starts, [len(doc_idx)])))
        pos0 = np.arange(len(doc_idx)) - np.repeat(starts, runs)
        is_hit = np.zeros(len(doc_idx), dtype=bool)
        for t in terms:
            is_hit |= np.asarray(pc.equal(flat, t)).astype(bool)
        d, tile = doc_idx[is_hit], pos0[is_hit] // FRAG_W
        key = d * np.int64(1 << 32) + tile  # doc-major (tile < 2^32)
        uk, c = np.unique(key, return_counts=True)
        ud, ut = uk >> np.int64(32), uk & np.int64((1 << 32) - 1)
        out_d, out_t, out_n, out_r = [], [], [], []
        for row in np.unique(ud):
            m = ud == row
            order = np.lexsort((ut[m], -c[m]))[:FRAG_K]
            out_d.extend([bids[row]] * len(order))
            out_t.extend(ut[m][order].tolist())
            out_n.extend(c[m][order].tolist())
            out_r.extend(range(1, len(order) + 1))
        return pa.table({
            "doc_id": pa.array(np.array(out_d, np.int64)),
            "frag_id": pa.array(np.array(out_t, np.int64)),
            "n_hits": pa.array(np.array(out_n, np.int64)),
            "frag_rank": pa.array(np.array(out_r, np.int64)),
        })

    return (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"],
                            filter=pads.field("doc_id").isin(ids))
            .map_batches(frags, batch_format="pyarrow"))


def hot_term_shards(sf_dir: str):
    """Skew evidence straight from the index: the hottest term's
    postings per shard. Sharding by hash-spread doc_id IS the salt
    (build.py:17-22 — a hot term's millions of postings split across
    ALL shards instead of landing on one reducer), and this entry
    audits it from the built segments table against the corpus-derived
    oracle (the Knuth multiplicative spread is plain uint64 arithmetic,
    HUGEINT-mirrored in SQL). One filtered segments read — no scan."""
    eng = _index_for(sf_dir)
    td = pq.read_table(eng._term_dict_dir, columns=["term", "df"])
    terms = np.asarray(td["term"].to_pylist(), dtype=object)
    dfv = np.asarray(td["df"].to_pylist()).astype(np.int64)
    hot = terms[np.lexsort((terms, -dfv))[0]]
    segs = pq.read_table(eng._seg_dir, columns=["term", "shard", "df"],
                         filters=[("term", "=", hot)])
    g = (segs.to_pandas().groupby("shard", as_index=False)["df"].sum()
         .sort_values("shard"))
    return pa.table({
        "term": pa.array([str(hot)] * len(g), pa.string()),
        "shard": pa.array(g["shard"].to_numpy(np.int64)),
        "n_docs": pa.array(g["df"].to_numpy(np.int64)),
    })


DEBOUNCE_GAP_US = 86_400_000_000  # 1 day


SESSION_GAP_US = 3 * 86_400 * 1_000_000  # 3 days on this sparse cadence


def events_sessionize(sf_dir: str):
    """Gap-based sessionization — the canonical event-stream op: a new
    session starts at a user's first event or after a > 3-day silence;
    output is one row per session (user, session ordinal, event count,
    span). One hash-bucket shuffle on user_id; inside a bucket EVERY
    user sessionizes off one mergesort + one shifted compare + one
    cumsum (session ids = running break count, user-local via an
    offset subtraction) — no per-user loop. Oracle: LAG-gap breaks +
    a running SUM() window."""
    path = os.path.join(sf_dir, "events.parquet")

    def tag(b: pa.Table) -> pa.Table:
        u = np.asarray(b["user_id"].combine_chunks()).astype(np.int64)
        return pa.table({
            "event_id": b["event_id"].combine_chunks().cast(pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "ts_us": b["ts"].combine_chunks().cast(pa.int64()),
            "__bucket": pa.array(u % 32, pa.int64()),
        })

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["user_id", "ts_us", "event_id"],
                           kind="mergesort").reset_index(drop=True))
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap_brk = np.concatenate(
            ([False], ts[1:] - ts[:-1] > SESSION_GAP_US))
        brk = new_user | gap_brk
        run = np.cumsum(brk)                      # global session run id
        first = np.flatnonzero(new_user)
        # user-local ordinal: subtract the run id at each user's start
        base = np.zeros(len(g), dtype=np.int64)
        base[first] = run[first]
        np.maximum.accumulate(base, out=base)
        sess = run - base + 1
        out = (pd.DataFrame({"user_id": u, "session_idx": sess,
                             "ts_us": ts})
               .groupby(["user_id", "session_idx"], as_index=False)
               .agg(n_events=("ts_us", "size"),
                    start_us=("ts_us", "min"),
                    end_us=("ts_us", "max")))
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    return (rd.read_parquet(path, columns=["event_id", "user_id", "ts"])
            .map_batches(tag, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(sessions, batch_format="pandas"))


def events_debounce(sf_dir: str):
    """Event-stream debouncing (burst collapse, the classic telemetry
    cleanup): keep an event only when it's the FIRST of its
    (user, event_type) or ≥ 1 day after the previous one
    (the gap that actually collapses bursts on this corpus's event
    cadence — 36% of rows; measured). One
    hash-bucket shuffle on user_id; inside a bucket ALL (user, type)
    runs debounce off one mergesort + one shifted compare — no per-key
    loop."""
    path = os.path.join(sf_dir, "events.parquet")

    def tag(b: pa.Table) -> pa.Table:
        u = np.asarray(b["user_id"].combine_chunks()).astype(np.int64)
        return pa.table({
            "event_id": b["event_id"].combine_chunks().cast(pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "event_type": b["event_type"].combine_chunks(),
            "ts_us": b["ts"].combine_chunks().cast(pa.int64()),
            "__bucket": pa.array(u % 32, pa.int64()),
        })

    def debounce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts_us", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        same = ((g["user_id"].to_numpy()[1:]
                 == g["user_id"].to_numpy()[:-1])
                & (g["event_type"].to_numpy()[1:]
                   == g["event_type"].to_numpy()[:-1]))
        gap = g["ts_us"].to_numpy()[1:] - g["ts_us"].to_numpy()[:-1]
        # NOTE: within a run, gap is vs the PREVIOUS ROW (SQL LAG), not
        # vs the last KEPT row — both engines pin the same semantics
        keep = np.concatenate(([True], ~same | (gap >= DEBOUNCE_GAP_US)))
        out = g[keep]
        return pd.DataFrame({
            "event_id": out["event_id"].to_numpy(np.int64),
            "user_id": out["user_id"].to_numpy(np.int64),
            "event_type": out["event_type"].to_numpy(dtype=object),
        })

    return (rd.read_parquet(path, columns=["event_id", "user_id",
                                           "event_type", "ts"])
            .map_batches(tag, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(debounce, batch_format="pandas"))


def user_retention(sf_dir: str):
    """Cohort retention (the canonical product-analytics matrix):
    users cohorted by the week of their FIRST event; cell
    (cohort_week, week_offset) counts distinct users active that many
    weeks later. All integer arithmetic (day = epoch_us // 86400e6,
    weeks by // 7) — exact in both engines. ONE user-bucket shuffle:
    each bucket computes its users' min-day and distinct offsets
    vectorized; the final aggregate sums tiny per-bucket partials."""
    path = os.path.join(sf_dir, "events.parquet")
    DAY_US = 86_400_000_000

    def tag(b: pa.Table) -> pa.Table:
        u = np.asarray(b["user_id"].combine_chunks()).astype(np.int64)
        day = (np.asarray(b["ts"].combine_chunks().cast(pa.int64()))
               // DAY_US)
        t = pa.table({"user_id": pa.array(u, pa.int64()),
                      "day": pa.array(day, pa.int64()),
                      "__bucket": pa.array(u % 32, pa.int64())})
        # per-batch (user, day) dedup shrinks the shuffle
        return pa.Table.from_pandas(
            t.to_pandas().drop_duplicates(["user_id", "day"]),
            preserve_index=False)

    def cohort(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day"],
                          kind="mergesort").reset_index(drop=True)
        u = g["user_id"].to_numpy(np.int64)
        d = g["day"].to_numpy(np.int64)
        starts = np.flatnonzero(np.diff(np.concatenate(([-1], u))) != 0)
        runs = np.diff(np.concatenate((starts, [len(u)])))
        cday = np.repeat(d[starts], runs)  # per-user min day (sorted)
        off = (d - cday) // 7
        cw = cday // 7
        # distinct per USER before counting — a user active twice in a
        # week still counts once
        out = pd.DataFrame({"user_id": u, "cohort_week": cw,
                            "week_offset": off}).drop_duplicates()
        return (out.groupby(["cohort_week", "week_offset"],
                            as_index=False)
                .size().rename(columns={"size": "n"}))

    partial = (rd.read_parquet(path, columns=["user_id", "ts"])
               .map_batches(tag, batch_format="pyarrow")
               .groupby("__bucket")
               .map_groups(cohort, batch_format="pandas"))
    return (partial.groupby(["cohort_week", "week_offset"])
            .aggregate(Sum("n", alias_name="n_users")))


CORRECT_QUERY = "mergge sortt jion stream"


def corrected_search(sf_dir: str):
    """Spell-corrected search, the fuzzy pipeline end-to-end: each
    query token NOT in the vocabulary is replaced by its best ≤2-edit
    vocab term (dist asc, df desc, term asc — the fuzzy_vocab_match
    ranking); the corrected term set then runs through BM25. Unknown
    tokens with no ≤2-edit neighbor drop out (SQL: no correction row).
    Correction ranks on integers only, so engine and oracle agree
    exactly; retrieval shares bm25_topk's scoring identity."""
    from ..functions.curation import _encode_ascii, myers_levenshtein

    eng = _index_for(sf_dir)
    qtoks = sorted(set(clean_query(CORRECT_QUERY)))
    td = pq.read_table(eng._term_dict_dir, columns=["term", "df"])
    terms = np.asarray(td["term"].to_pylist(), dtype=object)
    dfv = np.asarray(td["df"].to_pylist()).astype(np.int64)
    vocab = set(terms.tolist())
    t_codes, t_lens = _encode_ascii(pd.Series(terms), 64)
    corrected: set[str] = set()
    for tok in qtoks:
        if tok in vocab:
            corrected.add(tok)
            continue
        p_codes, p_lens = _encode_ascii(pd.Series([tok]), 64)
        d = myers_levenshtein(
            np.repeat(p_codes, len(terms), axis=0),
            np.full(len(terms), p_lens[0], dtype=np.int64),
            t_codes, t_lens)
        hit = d <= 2
        if hit.any():
            order = np.lexsort((terms[hit], -dfv[hit], d[hit]))
            corrected.add(str(terms[hit][order[0]]))
    if not corrected:
        return _hits_table([])
    res = eng.search(" ".join(sorted(corrected)), 10, method="exhaustive")
    return _hits_table(res)


FILTER_LANG = "en"


def filtered_search(sf_dir: str):
    """Search-within-category: BM25 top-10 restricted to docs with
    lang = 'en' — the facet drill-down query. The allowed-id set comes
    from a doc_id-only pushdown read of the docs table; scoring runs
    QueryEngine.search_filtered (exhaustive scorer + dense allowed
    mask; pruning is unsound under post-filtering). Scores are bitwise
    the unfiltered scores of the surviving docs."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id"],
                      filters=[("lang", "=", FILTER_LANG)])
    allowed = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
    res = eng.search_filtered(BM25_QUERY, 10, allowed_doc_ids=allowed)
    return _hits_table(res)


def zipf_fit(sf_dir: str):
    """Zipf power-law fit of the vocabulary: least-squares slope of
    ln(cf) vs ln(rank) — the corpus statistic behind vocab-size and
    stopword decisions. The corpus-scale pass is the distributed word
    count; the fit runs on the vocab-sized table. Cross-engine
    exactness: ln(rank)/ln(cf) are micros-rounded int64 FIRST (ln is
    bitwise-shared libm), all sums are arbitrary-precision ints, and
    the final division uses TRUNC-toward-zero semantics explicitly —
    DuckDB's `//` truncates while Python's floors, and the slope is
    negative (the round-3 js_divergence trap)."""
    cfp = term_counts(sf_dir).to_pandas()
    order = np.lexsort((cfp["term"].to_numpy(dtype=object),
                        -cfp["cf"].to_numpy(np.int64)))
    cf = cfp["cf"].to_numpy(np.int64)[order]
    n = len(cf)
    r = np.arange(1, n + 1, dtype=np.float64)
    x = np.floor(np.log(r) * 1e6 + 0.5).astype(np.int64)
    y = np.floor(np.log(cf.astype(np.float64)) * 1e6 + 0.5).astype(np.int64)
    sx, sy = int(x.sum()), int(y.sum())
    sxy = int((x.astype(object) * y.astype(object)).sum())
    sxx = int((x.astype(object) * x.astype(object)).sum())
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    q = abs(num) * 1_000_000 // den          # den > 0 for n >= 2
    slope_micros = -q if num < 0 else q      # trunc-toward-zero
    return pa.table({
        "n_terms": pa.array([n], pa.int64()),
        "slope_micros": pa.array([slope_micros], pa.int64()),
    })


def textrank_terms(sf_dir: str):
    """TextRank keyword extraction (Mihalcea & Tarau 2004): PageRank
    over the term co-occurrence graph — nodes are vocab terms, edges
    are DISTINCT adjacent kept-token pairs (symmetric, self-loops
    dropped). The corpus-scale pass is the distributed edge
    extraction + hash-bucket dedup; the graph itself is vocab-sized
    (the BPE/SVD/k-means small-side split), so the 3 integer-micros
    PageRank iterations run as driver numpy int64 — bitwise equal to
    the SQL mirror (nonnegative //: trunc == floor), and ~1000×
    cheaper than spinning the distributed pagerank_micros exchanges
    on a vocab graph (measured 30 s → ms; billion-node graphs keep
    using functions/graph.py)."""
    import ray as _ray

    vocab = (term_df(sf_dir).to_pandas()["term"]
             .sort_values().reset_index(drop=True))
    id_map = pd.Series(np.arange(len(vocab), dtype=np.int64),
                       index=vocab.to_numpy())
    ref = _ray.put(id_map)

    def edge_batch(b: pa.Table) -> pa.Table:
        m = _ray.get(ref)
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        if len(doc_idx) < 2:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64())})
        ids = m.reindex(flat.to_pylist()).to_numpy(np.int64)
        a, c = ids[:-1], ids[1:]
        ok = (doc_idx[:-1] == doc_idx[1:]) & (a != c)
        src = np.concatenate((a[ok], c[ok]))   # symmetric
        dst = np.concatenate((c[ok], a[ok]))
        pairs = np.unique(np.stack((src, dst), axis=1), axis=0)
        return pa.table({
            "src": pa.array(pairs[:, 0], pa.int64()),
            "dst": pa.array(pairs[:, 1], pa.int64()),
            "__bucket": pa.array((pairs[:, 0] * 31 + pairs[:, 1]) % 64,
                                 pa.int64()),
        })

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["src", "dst"])[["src", "dst"]]

    edges = (rd.read_parquet(_docs(sf_dir), columns=["text"])
             .map_batches(edge_batch, batch_format="pyarrow")
             .groupby("__bucket")
             .map_groups(dedup_bucket, batch_format="pandas")
             .to_pandas())  # vocab²-bounded
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate((src, dst)))
    nn = len(nodes)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    od = np.zeros(nn, dtype=np.int64)
    np.add.at(od, si, 1)
    prv = np.full(nn, 1_000_000 // nn, dtype=np.int64)
    for _ in range(3):
        c = np.zeros(nn, dtype=np.int64)
        np.add.at(c, di, prv[si] // od[si])
        prv = 150_000 // nn + (850_000 * c) // 1_000_000
    terms = vocab.to_numpy(dtype=object)[nodes]
    order = np.lexsort((terms, -prv))[:10]
    return pa.table({
        "term": pa.array(terms[order], pa.string()),
        "pr_micros": pa.array(prv[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


def ingest_dedup_indexed(sf_dir: str):
    """The same dedup-on-ingest gate as ingest_dedup, but screened
    against a PERSISTENT MinHash index of the existing corpus
    (minhash_index.MinHashSearchIndex — the incremental `add` path's
    artifact): each ingest batch pays O(batch), not O(corpus) — incoming
    signatures map-side, bucket lookups by parquet predicate pushdown on
    the band_hash-sorted buckets table, candidate signature reads by
    doc_id pushdown. Shares ingest_dedup's SQL oracle; mechanism
    equality is additionally pinned by pytest (the
    phrase_search_indexed pattern). Zero-token docs are filtered from
    BOTH index and screen (same pinned semantics)."""
    from ..functions.dedup import _bands_batch, minhash_signatures
    from ..minhash_index import MinHashSearchIndex

    n_docs = pq.read_metadata(_docs(sf_dir)).num_rows
    split = n_docs // 2
    idx_dir = _cache_dir(sf_dir, "minhash_ingest_idx")
    docs = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])

    def nonempty(b: pa.Table) -> pa.Table:
        _, _, lens = tokenize_array(b["text"].combine_chunks())
        return b.filter(pa.array(lens > 0))

    _ensure_built(
        os.path.join(idx_dir, "config.json"),  # written last by build()
        lambda: MinHashSearchIndex.build(
            docs.map_batches(
                lambda b: nonempty(b.filter(pc.less(b["doc_id"], split))),
                batch_format="pyarrow"),
            idx_dir, num_perm=64, num_bands=16, shingle_k=3, seed=7,
            hash_fn="md5"))
    idx = MinHashSearchIndex(idx_dir)
    bucket_dir, sig_dir = idx.bucket_dir, idx.sig_dir

    incoming = docs.map_batches(
        lambda b: nonempty(b.filter(pc.greater_equal(b["doc_id"], split))),
        batch_format="pyarrow")
    sigs = minhash_signatures(incoming, num_perm=64, shingle_k=3,
                              seed=7, hash_fn="md5")

    def screen(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "m": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        bands = _bands_batch(t, 16, 64, carry_sig=True).to_pandas()
        hashes = bands["band_hash"].unique().tolist()
        cand_t = pq.read_table(bucket_dir,
                               filters=[("band_hash", "in", hashes)])
        if cand_t.num_rows == 0:
            return empty
        pairs = bands.merge(cand_t.to_pandas(), on=["band", "band_hash"],
                            suffixes=("_in", "_ex"))
        pairs = pairs.drop_duplicates(["doc_id_in", "doc_id_ex"])
        if pairs.empty:
            return empty
        ex_ids = np.unique(pairs["doc_id_ex"].to_numpy(np.int64))
        sig_rows = pq.read_table(
            sig_dir, filters=[("doc_id", "in", ex_ids.tolist())])
        ex_sorted = np.asarray(sig_rows["doc_id"]).astype(np.int64)
        ex_mat = np.frombuffer(b"".join(sig_rows["sig"].to_pylist()),
                               dtype=np.uint64).reshape(-1, 64)
        in_mat = np.frombuffer(b"".join(pairs["sig"].to_numpy()),
                               dtype=np.uint64).reshape(-1, 64)
        exi = np.searchsorted(ex_sorted,
                              pairs["doc_id_ex"].to_numpy(np.int64))
        m = (in_mat == ex_mat[exi]).sum(axis=1).astype(np.int64)
        out = (pd.DataFrame({"doc_id": pairs["doc_id_in"]
                             .to_numpy(np.int64), "m": m})
               .groupby("doc_id", sort=False)["m"].max()
               .reset_index(name="m"))
        return pa.Table.from_pandas(out, preserve_index=False)

    matches = sigs.map_batches(screen, batch_format="pyarrow")

    def zeros(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        ids = ids[ids >= split]
        # arrow blocks to match screen's output (union needs
        # block-type-homogeneous legs)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "m": pa.array(np.zeros(len(ids), np.int64))})

    incoming0 = (rd.read_parquet(_docs(sf_dir), columns=["doc_id"])
                 .map_batches(zeros, batch_format="pyarrow"))
    return _ingest_gate_finalize(matches.union(incoming0))


def phrase_search_positional(sf_dir: str):
    """Exact phrase query answered by the POSITIONAL SIDECAR alone
    (index built with store_positions=True): per-term position sets
    over the common docs, sequential adjacency intersection — no
    candidate text re-read at all, unlike phrase_search_indexed.
    Same answer and same oracle as the streaming scan; three-way
    mechanism equality is pinned by pytest."""
    eng = _index_for(sf_dir)
    ids, counts = eng.phrase_occurrences(PHRASE)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_occurrences": pa.array(counts, pa.int64()),
    })


def phrase_search_appended(sf_dir: str):
    """Exact phrase query from the positional sidecar of an
    INCREMENTALLY built index: first half built with
    store_positions=True, second half appended — appended segment rows
    carry their own per-doc position blobs, and phrase/NEAR are sound
    on appended indexes without compaction (positions don't depend on
    avgdl, unlike block-max bounds). Shares phrase_search's oracle:
    the incremental positional path must match the DuckDB full-corpus
    streaming truth, row for row."""
    from ..append import append_to_index

    eng = QueryEngine(_mutated_index(
        sf_dir, "index_pos_appended",
        lambda d: append_to_index(_docs_half(sf_dir, second=True), d),
        source=lambda: _docs_half(sf_dir, second=False),
        store_positions=True))
    ids, counts = eng.phrase_occurrences(PHRASE)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_occurrences": pa.array(counts, pa.int64()),
    })


def orders_monthly(sf_dir: str):
    """Calendar rollup (the one date-typed aggregate shape the suite
    lacked): per order month, order count + revenue (micros
    round-then-sum). The month derives vectorized — datetime64[us] →
    datetime64[M] → 'YYYY-MM' strings — and the shuffle carries one
    partial row per (month, batch); both engines compute the naive-UTC
    calendar month, so the strings match bitwise."""
    def per_batch(b: pa.Table) -> pa.Table:
        ts = np.asarray(b["o_orderdate"].combine_chunks()
                        .cast(pa.timestamp("us")))
        months = np.datetime_as_string(ts.astype("datetime64[M]"))
        t = pa.table({
            "month": pa.array(months, pa.string()),
            "one": np.ones(b.num_rows, dtype=np.int64),
            "rev": pc_micros(b["o_totalprice"].combine_chunks()),
        })
        return _partial_sums(t, ["month"], {"one": "n_orders",
                                            "rev": "revenue_micros"})

    return (rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                            columns=["o_orderdate", "o_totalprice"])
            .map_batches(per_batch, batch_format="pyarrow")
            .groupby("month")
            .aggregate(Sum("n_orders", alias_name="n_orders"),
                       Sum("revenue_micros", alias_name="revenue_micros")))


PROFILE_COLS = ("l_quantity", "l_extendedprice", "l_discount")


def lineitem_profile(sf_dir: str):
    """Exact per-column data-quality profile (the profiling pass a
    pipeline runs before training ingestion): for each numeric column,
    row count, EXACT distinct count, min and max — all in micros so the
    two engines agree bitwise. Distinct is computed without any full
    materialization: values hash-bucket by (column, value), so every
    copy of a value lands in one bucket and per-bucket np.unique counts
    are additive; min/max/count ride the same partial rows."""
    num_buckets = 16

    def explode(b: pa.Table) -> pa.Table:
        cols, vals = [], []
        for c in PROFILE_COLS:
            v = np.asarray(pc_micros(b[c].combine_chunks()))
            vals.append(v)
            cols.append(np.full(len(v), c, dtype=object))
        col = np.concatenate(cols)
        v = np.concatenate(vals)
        bk = ((pd.util.hash_array(col) ^ pd.util.hash_array(
            v.astype(np.uint64))) % np.uint64(num_buckets)).astype(np.int64)
        return pa.table({
            "col_name": pa.array(col, pa.string()),
            "v": v,
            "__b": bk,
        })

    def profile_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("col_name", sort=False)["v"]
        out = g.agg(n="count", n_distinct="nunique", min_micros="min",
                    max_micros="max").reset_index()
        return out

    parts = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                             columns=list(PROFILE_COLS))
             .map_batches(explode, batch_format="pyarrow")
             .groupby("__b")
             .map_groups(profile_bucket, batch_format="pandas"))
    return (parts.groupby("col_name")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("n_distinct", alias_name="n_distinct"),
                       Min("min_micros", alias_name="min_micros"),
                       Max("max_micros", alias_name="max_micros")))


WILDCARD_PREFIX = "mer"


def wildcard_search(sf_dir: str):
    """Wildcard (prefix*) retrieval from the index alone: a sorted-range
    term_dict read finds every indexed term with the prefix, and the
    matched terms' postings union gives per-doc distinct-term and
    summed-occurrence counts (QueryEngine.search_wildcard). Oracle:
    tokenize-mirror + LIKE 'prefix%'."""
    eng = _index_for(sf_dir)
    ids, n_terms, n_tokens = eng.search_wildcard(WILDCARD_PREFIX)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_terms": pa.array(n_terms, pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
    })


REGEX_PATTERN = "s[a-z]+"


def regex_search(sf_dir: str):
    """Regex retrieval from the index alone (Lucene RegexpQuery
    analog): QueryEngine.regex_terms matches the pattern over the
    term_dict (leading-literal range pruning), then the matched terms'
    postings union gives per-doc distinct-term and summed-occurrence
    counts — same machinery as wildcard_search. Oracle:
    tokenize-mirror + regexp_full_match."""
    eng = _index_for(sf_dir)
    ids, n_terms, n_tokens = eng.search_regex(REGEX_PATTERN)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_terms": pa.array(n_terms, pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
    })


def min_window_search(sf_dir: str):
    """Minimal-interval proximity (shortest token window covering every
    query term) per doc containing ALL query terms — served from the
    positional sidecar alone (QueryEngine.min_cover_windows, one
    searchsorted per term over packed doc<<32|pos streams). Oracle:
    per-start next-occurrence max in SQL over the tokenize-mirror
    positions."""
    eng = _index_for(sf_dir)
    ids, w = eng.min_cover_windows(clean_query(BM25_QUERY))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "min_window": pa.array(w, pa.int64()),
    })


def near_search_positional(sf_dir: str):
    """NEAR/k answered by the positional sidecar alone — min |Δpos|
    from the index's per-term position lists (no text re-read); same
    oracle as near_search."""
    eng = _index_for(sf_dir)
    ids, mg = eng.near_min_gaps(*NEAR_TERMS)
    keep = mg <= NEAR_MAX_GAP
    return pa.table({
        "doc_id": pa.array(ids[keep], pa.int64()),
        "min_gap": pa.array(mg[keep], pa.int64()),
    })


SLOPPY_TERMS = ("sort", "merge", "join")   # order-significant
SLOPPY_SLOP = 2                            # match iff span - 3 <= 2


def sloppy_phrase_search(sf_dir: str):
    """Sloppy phrase query (Lucene PhraseQuery with slop): docs where
    the terms occur IN ORDER within a token window of at most
    len(terms) + slop, plus the minimal such span — served from the
    positional sidecar alone (QueryEngine.min_ordered_spans: greedy
    earliest-next chain, one searchsorted per term per round). The
    oracle replays the same greedy chain as a per-start MIN CTE ladder
    over the tokenize-mirror positions (greedy is optimal for a fixed
    start, so both engines compute the true minimal ordered span)."""
    eng = _index_for(sf_dir)
    ids, spans = eng.min_ordered_spans(list(SLOPPY_TERMS))
    keep = spans <= len(SLOPPY_TERMS) + SLOPPY_SLOP
    return pa.table({
        "doc_id": pa.array(ids[keep], pa.int64()),
        "span": pa.array(spans[keep], pa.int64()),
    })


# ---------------- trigram content index (substring / regex) ----------------

from ..trigram import TrigramSearcher, build_trigram_index  # noqa: E402

SUBSTR_PAT = "rt ba"          # crosses token boundaries ("...sort batch...")
CONTENT_REGEX = "stream (big|small) (sort|join)"

_tri_searchers: dict[str, TrigramSearcher] = {}


def _tri_for(sf_dir: str) -> TrigramSearcher:
    """Trigram content index over documents, built once per sf_dir (the
    derived-table pattern of _stemmed_index_for): distinct byte-trigrams
    hex-encoded into tri_text, standard index build over it, original
    text riding in the docstore for candidate verification."""
    if sf_dir not in _tri_searchers:
        idx_dir = _cache_dir(sf_dir, "index_tri")
        _ensure_built(
            os.path.join(idx_dir, "stats.json"),
            lambda: build_trigram_index(_docs(sf_dir), idx_dir,
                                        content_col="text", id_col="doc_id",
                                        num_shards=4))
        _tri_searchers[sf_dir] = TrigramSearcher(idx_dir)
    return _tri_searchers[sf_dir]


def content_substring_search(sf_dir: str):
    """Exact substring search over RAW content (token search can't
    express a match crossing token boundaries): trigram-index candidate
    AND over the pattern's rarest trigrams, then an exact
    count_substring verify over only the candidates. Result is every
    doc containing the pattern plus its non-overlapping occurrence
    count — byte-identical to a full LIKE scan, at posting-lookup
    cost."""
    return _tri_for(sf_dir).search_substring(SUBSTR_PAT)


def content_regex_search(sf_dir: str):
    """Regex search over RAW content, trigram-accelerated (the Code
    Search design: required literals → trigram AND → re-verify
    candidates only). The fixed pattern carries a required literal
    ('stream ') so the entry exercises the PRUNED path; regexes with no
    required literal stream a full-scan verify instead (tested)."""
    return _tri_for(sf_dir).search_regex(CONTENT_REGEX)


KMV_K = 64
KMV_KEYS = ["event_id", "user_id", "user_type"]


def cardinality_kmv(sf_dir: str):
    """Deterministic distinct-count sketching (KMV / bottom-k, the
    cardinality-agg capability): per-key estimates over the events
    stream in ONE pass — every batch contributes a k-smallest-distinct
    md5-low64 partial per key (k·8 bytes; no value ever shuffles), the
    driver merges a handful of tiny rows. Unlike the HLL twin
    (approx_vocab, rows-only) this sketch is EXACTLY reproducible in
    SQL: the hash is DuckDB's md5_number_lower bit for bit and the
    estimator (k−1)·2⁶⁴/h₍ₖ₎ is one IEEE divide in a pinned expression
    order, so the entry is fully hash-oracled. Keys span both regimes:
    event_id engages the estimator at every sf; user_id crosses from
    exact (< k distinct at sf0.001) to estimated (sf0.01+)."""
    from ..functions.sketches import kmv_distinct

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "event_type"])

    def derive(b: pa.Table) -> pa.Table:
        eid = pc.cast(b["event_id"], pa.string())
        uid = pc.cast(b["user_id"], pa.string())
        ut = pc.binary_join_element_wise(uid, b["event_type"], "|")
        return pa.table({"event_id": eid, "user_id": uid, "user_type": ut})

    res = kmv_distinct(ev.map_batches(derive, batch_format="pyarrow"),
                       KMV_KEYS, KMV_K)
    keys = sorted(res)
    return pa.table({
        "key": pa.array(keys, pa.string()),
        "kept": pa.array([res[k][0] for k in keys], pa.int64()),
        "est_micros": pa.array([to_micros(res[k][1]) for k in keys],
                               pa.int64()),
    })


def grouped_cardinality_kmv(sf_dir: str):
    """ES cardinality-under-terms agg: distinct users PER EVENT TYPE via
    per-group KMV bottom-k sketches — one pass, ≤ k·8 bytes per group
    per batch shuffled, hash-oracled like the global twin (same
    md5-low64 + pinned-order estimator)."""
    from ..functions.sketches import kmv_distinct_grouped

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type"])

    def derive(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"].combine_chunks(),
            "user_id": pc.cast(b["user_id"], pa.string()),
        })

    res = kmv_distinct_grouped(ev.map_batches(derive,
                                              batch_format="pyarrow"),
                               "event_type", "user_id", KMV_K)
    keys = sorted(res)
    return pa.table({
        "event_type": pa.array(keys, pa.string()),
        "kept": pa.array([res[k][0] for k in keys], pa.int64()),
        "est_micros": pa.array([to_micros(res[k][1]) for k in keys],
                               pa.int64()),
    })


def rollover_search(sf_dir: str):
    """ILM-style rollover serving (rollover.py): the corpus ingested in
    arrival order through a max_docs policy cuts into three sealed
    generations, each an independent index; open_rollover serves them
    as ONE virtual index with union collection stats. Federation is
    bitwise equal to the physically merged index, which is bitwise
    equal to a monolithic rebuild — so the oracle is the whole-table
    BM25 chain, cross-checking the per-generation stats math end to
    end."""
    from ..rollover import open_rollover, rollover_ingest

    n = pq.read_metadata(_docs(sf_dir)).num_rows
    base = _cached(sf_dir, "rollover", lambda path: rollover_ingest(
        _docs(sf_dir), path, max_docs=(n + 2) // 3, content_col="text",
        id_col="doc_id", num_shards=4))
    return _hits_table(open_rollover(base).search(BM25_QUERY, 10))


HNSW_NQ = 5


def knn_hnsw(sf_dir: str):
    """Graph ANN (HNSW, Malkov & Yashunin 2016) in its distributed,
    two-stage form: IVF centroids partition the vectors, map_groups
    builds one deterministic graph per partition (hash-seeded layer
    draws — no RNG state, rebuilds identical), each query
    greedy-searches its probed partitions' graphs for a top-50
    shortlist, then the shortlist union is EXACTLY cosine-re-ranked
    (knn_brute_force restricted to candidate rows — the
    knn_bq_rerank/knn_sq8_rerank shape applied to the graph family).

    SQL-oracled: the graph walk is not SQL-expressible, but the
    re-ranked OUTPUT is — at conformance scale every partition is
    probed (nprobe = n_clusters; at 100 TB nprobe shrinks, the recall
    knob) and the per-query shortlist contains the true top-10
    (recall@10 = 1, pinned by pytest at BOTH sf scales), so the result
    equals the exact brute-force top-10 and the oracle is the plain
    per-query cosine window over the HNSW_NQ smallest vec_ids. Pytest
    additionally pins single-graph recall ≥ 0.9 and nprobe-bounded
    distributed recall ≥ 0.8 plus rebuild determinism."""
    from ..functions.hnsw import hnsw_shortlist_rerank
    from ..functions.similarity import _emb_matrix

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    # query vectors = the HNSW_NQ smallest vec_ids; zero-copy Arrow →
    # ndarray reshape (no per-row Python lists on the driver)
    mat = _emb_matrix(t, "embedding")
    queries = mat[np.argsort(ids)][:HNSW_NQ]
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
    return hnsw_shortlist_rerank(ds, queries, k=10, candidates=50,
                                 n_clusters=4, nprobe=4, ef=128)


# ---------------- ES join-field / pinned / composite surfaces ----------------

PINNED_IDS = [13, 5, 2]


def pinned_search(sf_dir: str):
    """ES pinned (promoted-results) query: PINNED_IDS rank first in the
    given order — promoted whether or not they match — then organic
    BM25 fills to k=10 with pinned ids excluded. Pinned rows carry
    their real matched score (0 when no query term matches), so the
    oracle is the bm25 CTE chain LEFT-JOINed onto the pinned VALUES
    list."""
    eng = _index_for(sf_dir)
    res = eng.search_pinned(BM25_QUERY, PINNED_IDS, k=10,
                            method="exhaustive")
    return _hits_table((d, s) for d, s, _ in res).add_column(
        2, "pinned", pa.array([int(p) for _, _, p in res], pa.int64()))


HC_STATUS, HC_SEGMENT, HC_K = "F", "BUILDING", 15


def has_child_search(sf_dir: str):
    """ES join-field ``has_child`` query (score_mode=max): customers in
    one market segment having ≥1 child order with status F, ranked by
    their best matching child's totalprice. Scale shape: children
    pre-aggregate to parent grain map-side (count + max partials — the
    shuffle carries one row per custkey per batch, never child rows),
    the parent side is a dimension read applied AFTER the child agg,
    and the final cut is integer micros (max of micros == micros of
    max: floor(x*1e6+0.5) is monotone)."""
    def part(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["o_orderstatus"], HC_STATUS))
        df = pd.DataFrame({
            "c_custkey": np.asarray(t["o_custkey"].combine_chunks()
                                    ).astype(np.int64),
            "best_child_micros": np.asarray(pc_micros(t["o_totalprice"])),
        })
        g = (df.groupby("c_custkey", sort=False)["best_child_micros"]
             .agg(n_children="size", best_child_micros="max")
             .reset_index())
        g["n_children"] = g["n_children"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    per_parent = (rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderstatus", "o_totalprice"])
        .map_batches(part, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(Sum("n_children", alias_name="n_children"),
                   Max("best_child_micros",
                       alias_name="best_child_micros"))
        .to_pandas())  # ≤ |customers| rows — bounded (parent grain)

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    ck = np.asarray(cust["c_custkey"]).astype(np.int64)
    seg = np.asarray(cust["c_mktsegment"].to_pylist(), dtype=object)
    oc = np.argsort(ck)
    ck_s, seg_s = ck[oc], seg[oc]

    keys = per_parent["c_custkey"].to_numpy(np.int64)
    pos = np.searchsorted(ck_s, keys)
    ok = (pos < len(ck_s))
    ok[ok] = (ck_s[pos[ok]] == keys[ok]) & (seg_s[pos[ok]] == HC_SEGMENT)
    sub = per_parent[ok]
    keys = sub["c_custkey"].to_numpy(np.int64)
    n_ch = sub["n_children"].to_numpy(np.int64)
    best = sub["best_child_micros"].to_numpy(np.int64)
    order = np.lexsort((keys, -best))[:HC_K]
    return pa.table({
        "c_custkey": pa.array(keys[order], pa.int64()),
        "n_children": pa.array(n_ch[order], pa.int64()),
        "best_child_micros": pa.array(best[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


HP_BAL, HP_PRIORITY, HP_K = 8000.0, "1-URGENT", 20


def has_parent_search(sf_dir: str):
    """ES join-field ``has_parent`` query (score=true): urgent orders
    whose parent customer holds acctbal ≥ 8000, each child scored by
    its parent's acctbal — the parent score PROPAGATES to children.
    Scale shape: the matching-parent map (custkey → acctbal micros) is
    the classic broadcast small side (ray.put once, read per task);
    children stream map-side with a sorted membership probe and a
    per-batch partial top-K cut, so the driver merges at most K rows
    per batch."""
    import ray as _ray

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_acctbal"])
    bal = np.asarray(cust["c_acctbal"], dtype=np.float64)
    m = bal >= HP_BAL
    pk = np.asarray(cust["c_custkey"]).astype(np.int64)[m]
    pscore = to_micros(bal[m])
    o = np.argsort(pk)
    pref = _ray.put((pk[o], pscore[o]))

    def score_children(b: pa.Table) -> pa.Table:
        pks, psc = _ray.get(pref)
        t = b.filter(pc.equal(b["o_orderpriority"], HP_PRIORITY))
        ck = np.asarray(t["o_custkey"].combine_chunks()).astype(np.int64)
        okey = np.asarray(t["o_orderkey"].combine_chunks()).astype(np.int64)
        pos = np.searchsorted(pks, ck)
        hit = pos < len(pks)
        hit[hit] = pks[pos[hit]] == ck[hit]
        okey, ck, sc = okey[hit], ck[hit], psc[pos[hit]]
        cut = np.lexsort((okey, -sc))[:HP_K]  # partial top-K per batch
        return pa.table({
            "o_orderkey": pa.array(okey[cut], pa.int64()),
            "o_custkey": pa.array(ck[cut], pa.int64()),
            "parent_score_micros": pa.array(sc[cut], pa.int64()),
        })

    parts = (rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderpriority"])
        .map_batches(score_children, batch_format="pyarrow")
        .to_pandas())  # ≤ K rows per input batch — bounded
    okey = parts["o_orderkey"].to_numpy(np.int64)
    ck = parts["o_custkey"].to_numpy(np.int64)
    sc = parts["parent_score_micros"].to_numpy(np.int64)
    order = np.lexsort((okey, -sc))[:HP_K]
    return pa.table({
        "o_orderkey": pa.array(okey[order], pa.int64()),
        "o_custkey": pa.array(ck[order], pa.int64()),
        "parent_score_micros": pa.array(sc[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


COMP_AFTER, COMP_PAGE = ("en", "src12"), 7


def composite_agg_page(sf_dir: str):
    """ES composite aggregation with ``after_key`` pagination: the next
    COMP_PAGE (lang, source) buckets strictly after COMP_AFTER in key
    order, with per-bucket count and char sum. The after-key PREDICATE
    (not OFFSET) is what makes deep pagination scale: the key filter
    applies map-side BEFORE the shuffle, every page is an independent
    bounded query, and no page re-ranks or materializes earlier ones —
    OFFSET-paging a 10⁹-bucket agg re-shuffles everything per page."""
    a_lang, a_src = COMP_AFTER

    def part(b: pa.Table) -> pa.Table:
        lang = b["lang"].combine_chunks()
        src = b["source"].combine_chunks()
        keep = pc.or_(
            pc.greater(lang, a_lang),
            pc.and_(pc.equal(lang, a_lang), pc.greater(src, a_src)))
        t = b.filter(keep)
        tt = pa.table({
            "lang": t["lang"].combine_chunks(),
            "source": t["source"].combine_chunks(),
            "n_docs": np.ones(t.num_rows, dtype=np.int64),
            "sum_chars": t["n_chars"].combine_chunks().cast(pa.int64()),
        })
        return _partial_sums(tt, ["lang", "source"],
                             {"n_docs": "n_docs", "sum_chars": "sum_chars"})

    agg = (rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "source", "n_chars"])
           .map_batches(part, batch_format="pyarrow")
           .groupby(["lang", "source"])
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("sum_chars", alias_name="sum_chars"))
           .to_pandas())  # bucket-count-sized (the agg result itself)
    agg = agg.sort_values(["lang", "source"],
                          kind="mergesort").head(COMP_PAGE)
    return pa.table({
        "lang": pa.array(agg["lang"].tolist(), pa.string()),
        "source": pa.array(agg["source"].tolist(), pa.string()),
        "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
        "sum_chars": pa.array(agg["sum_chars"].to_numpy(np.int64)),
        "page_pos": pa.array(np.arange(1, len(agg) + 1, dtype=np.int64)),
    })


ADJ_SRC_PREFIX = "src1"


def adjacency_matrix_agg(sf_dir: str):
    """ES ``adjacency_matrix`` aggregation: doc counts for each of
    three named filters and each pairwise intersection (a=en docs,
    b=long docs, c=src1*-sourced docs). One streaming pass: each batch
    computes the three boolean masks once and emits six (key, n)
    partial rows; the groupby merges count-sized partials — no shuffle
    of raw rows, no second scan per cell."""
    def part(b: pa.Table) -> pa.Table:
        a = np.asarray(pc.equal(b["lang"], "en"))
        bb = np.asarray(pc.greater_equal(b["n_chars"], 200))
        c = np.asarray(pc.starts_with(b["source"], ADJ_SRC_PREFIX))
        keys = ["a", "a&b", "a&c", "b", "b&c", "c"]
        ns = [a.sum(), (a & bb).sum(), (a & c).sum(), bb.sum(),
              (bb & c).sum(), c.sum()]
        return pa.table({"cell": pa.array(keys, pa.string()),
                         "n": pa.array(np.asarray(ns, dtype=np.int64))})

    return (rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                            columns=["lang", "source", "n_chars"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("cell")
            .aggregate(Sum("n", alias_name="n")))


def search_export(sf_dir: str):
    """Retrieval → training-corpus extraction: EVERY doc matching the
    query (no top-k cut), with its bitwise search score and metadata,
    as a streaming Dataset — the bridge from the serving index to a
    downstream data pipeline ("build me a corpus slice about X").
    Scale shape: the matched (ids, score_micros) arrays broadcast once
    (ray.put — matched-set-sized, 16 B/doc; for hot-term exports run
    export_matches per shard-subset engine instead), then ONE
    column-pruned streaming corpus pass attaches scores via a sorted
    membership probe. The corpus text/metadata never shuffles and the
    result streams straight into write_parquet or the next stage."""
    import ray as _ray

    eng = _index_for(sf_dir)
    ids, scores = eng.export_matches(BM25_QUERY)
    ref = _ray.put((ids, to_micros(scores)))

    def attach(b: pa.Table) -> pa.Table:
        mids, msc = _ray.get(ref)
        did = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        pos = np.searchsorted(mids, did)
        hit = pos < len(mids)
        hit[hit] = mids[pos[hit]] == did[hit]
        t = b.filter(pa.array(hit))
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
            "lang": t["lang"].combine_chunks(),
            "n_chars": t["n_chars"].combine_chunks().cast(pa.int64()),
            "score_micros": pa.array(msc[pos[hit]], pa.int64()),
        })

    return (rd.read_parquet(_docs(sf_dir),
                            columns=["doc_id", "lang", "n_chars"])
            .map_batches(attach, batch_format="pyarrow"))


PS_PROBES, PS_MAXD, PS_K = ("hach", "sart"), 2, 5


def phrase_suggest(sf_dir: str):
    """ES phrase suggester (bigram-context "did you mean" for a
    two-term query): per-token candidates come from the index vocab
    within Levenshtein ≤ 2 (Myers kernel, length-blocked), then
    candidate PAIRS are ranked by corpus adjacent-bigram count — the
    context decides, unlike spellfix's per-token independence (here
    the probes' per-token best corrections appear in several pairs;
    the winning pair differs by corpus). Tie-break (bigram desc, total
    edit distance asc, cand1, cand2); pairs never co-occurring in the
    corpus are not suggested. Scale shape: the candidate sets are
    edit-neighborhood-sized; the bigram pass filters map-side on both
    sides so only |C1|·|C2| pair counts reach the driver."""
    from ..functions.curation import _encode_ascii, myers_levenshtein

    eng = _index_for(sf_dir)
    t = pq.read_table(eng._term_dict_dir, columns=["term"])
    terms = pd.Series(sorted(set(t["term"].to_pylist())))
    t_codes, t_lens = _encode_ascii(terms, 64)
    t_arr = terms.to_numpy(dtype=object)
    p_codes, p_lens = _encode_ascii(pd.Series(list(PS_PROBES)), 64)

    cands: list[dict[str, int]] = []
    for i in range(len(PS_PROBES)):
        blk = np.flatnonzero(np.abs(t_lens - p_lens[i]) <= PS_MAXD)
        d = myers_levenshtein(
            np.repeat(p_codes[i][None, :], len(blk), axis=0),
            np.full(len(blk), p_lens[i], dtype=np.int64),
            t_codes[blk], t_lens[blk])
        hit = d <= PS_MAXD
        cands.append({str(term): int(dist) for term, dist
                      in zip(t_arr[blk[hit]], d[hit])})
    empty_out = pa.table({"cand1": pa.array([], pa.string()),
                          "cand2": pa.array([], pa.string()),
                          "bigram_c": pa.array([], pa.int64()),
                          "total_dist": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64())})
    c1, c2 = cands
    if not c1 or not c2:
        return empty_out
    s1 = pa.array(sorted(c1), pa.string())
    s2 = pa.array(sorted(c2), pa.string())

    def part(b: pa.Table) -> pa.Table:
        empty = pa.table({"cand1": pa.array([], pa.string()),
                          "cand2": pa.array([], pa.string()),
                          "c": pa.array([], pa.int64())})
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        m = len(flat) - 1
        if m <= 0:
            return empty
        first, second = flat.slice(0, m), flat.slice(1, m)
        keep = pc.and_(pa.array(doc_idx[:m] == doc_idx[1:]),
                       pc.and_(pc.is_in(first, value_set=s1),
                               pc.is_in(second, value_set=s2)))
        first, second = first.filter(keep), second.filter(keep)
        if len(first) == 0:
            return empty
        g = (pd.DataFrame({"cand1": first.to_pylist(),
                           "cand2": second.to_pylist()})
             .groupby(["cand1", "cand2"], as_index=False)
             .size().rename(columns={"size": "c"}))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (rd.read_parquet(_docs(sf_dir), columns=["text"])
             .map_batches(part, batch_format="pyarrow")
             .to_pandas())  # ≤ |C1|·|C2| rows per batch — bounded
    if not len(parts):
        return empty_out
    cnt = parts.groupby(["cand1", "cand2"], as_index=False)["c"].sum()
    a1 = cnt["cand1"].to_numpy(dtype=object)
    a2 = cnt["cand2"].to_numpy(dtype=object)
    bc = cnt["c"].to_numpy(np.int64)
    td = np.asarray([c1[x] for x in a1], np.int64) + np.asarray(
        [c2[x] for x in a2], np.int64)
    order = np.lexsort((a2, a1, td, -bc))[:PS_K]
    return pa.table({
        "cand1": pa.array(a1[order].tolist(), pa.string()),
        "cand2": pa.array(a2[order].tolist(), pa.string()),
        "bigram_c": pa.array(bc[order], pa.int64()),
        "total_dist": pa.array(td[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


def knn_ivf_appended(sf_dir: str):
    """IVF index LIFECYCLE (the vector twin of bm25_topk_appended):
    the ANN index is built over HALF the corpus (even vec_ids) then
    incrementally extended with the odd half via IVFIndex.append —
    FAISS ``add`` semantics: the coarse quantizer is FROZEN at build,
    appended vectors assign to the existing centroids and land in a
    committed append generation; search probes the same cells across
    base + generations. The oracle replays the full chain with
    centroid literals trained on the even half only (micros-exact
    k-means mirror) and assignment over ALL rows — exactly the frozen-
    quantizer contract."""
    from ..functions.ivf import IVFIndex

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    idx_dir = _cache_dir(sf_dir, "ivf_index_appended")

    def _half(parity: int):
        def f(b: pa.Table) -> pa.Table:
            v = np.asarray(b["vec_id"].combine_chunks()).astype(np.int64)
            return b.filter(pa.array(v % 2 == parity))
        return f

    def build_append():
        if os.path.isdir(idx_dir):
            shutil.rmtree(idx_dir)  # half-built artifact: start clean
        idx = IVFIndex.build(
            rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
            .map_batches(_half(0), batch_format="pyarrow"),
            idx_dir, k=8, iters=4, seed=17)
        idx.append(
            rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
            .map_batches(_half(1), batch_format="pyarrow"))

    # the append manifest is the LAST artifact: its presence == the
    # full build+append lifecycle completed
    _ensure_built(os.path.join(idx_dir, "append_manifest.json"),
                  build_append)
    idx = IVFIndex(idx_dir)
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    return idx.search(q, k=10, nprobe=2)


IVF_DEL_MOD, IVF_DEL_REM = 10, 7


def _ivf_lifecycle(sf_dir: str):
    """Shared build chain for the IVF delete/compact twins: full-table
    index → tombstone every vec_id ≡ 7 (mod 10) → physical compact
    into a sibling dir. Each step's commit artifact gates _ensure_built
    so the chain is idempotent and crash-resumable at step
    granularity."""
    from ..functions.ivf import IVFIndex

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    base = _cache_dir(sf_dir, "ivf_index_del")
    comp = _cache_dir(sf_dir, "ivf_index_compacted")

    def build_delete():
        if os.path.isdir(base):
            shutil.rmtree(base)  # half-built artifact: start clean
        idx = IVFIndex.build(
            rd.read_parquet(emb_path, columns=["vec_id", "embedding"]),
            base, k=8, iters=4, seed=17)
        v = pq.read_table(emb_path, columns=["vec_id"])["vec_id"].to_numpy()
        idx.delete(v[v % IVF_DEL_MOD == IVF_DEL_REM])

    _ensure_built(os.path.join(base, "tombstones.json"), build_delete)
    _ensure_built(os.path.join(comp, "config.json"),
                  lambda: IVFIndex(base).compact_to(comp))
    return base, comp, emb_path


def knn_ivf_deleted(sf_dir: str):
    """IVF lifecycle, delete leg: tombstoned ids (vec_id ≡ 7 mod 10)
    never surface; survivors' cosines are untouched by construction
    (no collection stats), so the oracle is the knn_ivf chain with the
    deleted ids filtered from the candidate set."""
    from ..functions.ivf import IVFIndex

    base, _, emb_path = _ivf_lifecycle(sf_dir)
    idx = IVFIndex(base)
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    return idx.search(q, k=10, nprobe=2)


def knn_ivf_compacted(sf_dir: str):
    """IVF lifecycle, compact leg: the physically rewritten index
    (tombstones purged, one file per cell) answers bitwise the same as
    the tombstone-masked source — it shares knn_ivf_deleted's
    oracle."""
    from ..functions.ivf import IVFIndex

    _, comp, emb_path = _ivf_lifecycle(sf_dir)
    idx = IVFIndex(comp)
    t = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[0]
    return idx.search(q, k=10, nprobe=2)


# ---------------- ES aggregation parity (wave 10) ----------------

def extended_stats_agg(sf_dir: str):
    """ES ``extended_stats`` aggregation over lineitem quantity per
    returnflag: count/min/max/sum plus avg, population variance and the
    ±2σ std-deviation bounds. Exact integer sufficient statistics
    (n, Σq, Σq² — quantity is integer-valued) shuffle as one partial
    row per (flag, batch); the float tail runs ONCE per group on the
    driver in a fixed expression order (mean = s/n, var =
    (n·ss − s²)/n/n, bounds = mean ± 2·√var), micros both engines."""
    def part(b: pa.Table) -> pa.Table:
        q = np.floor(np.asarray(b["l_quantity"].combine_chunks()
                                .cast(pa.float64())) + 0.5).astype(np.int64)
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "n": np.ones(len(q), np.int64), "s": q, "ss": q * q,
            "mn": q, "mx": q,
        })
        df = t.to_pandas()
        g = (df.groupby("l_returnflag", sort=False, as_index=False)
             .agg(n=("n", "sum"), s=("s", "sum"), ss=("ss", "sum"),
                  mn=("mn", "min"), mx=("mx", "max")))
        return pa.Table.from_pandas(g, preserve_index=False)

    rows = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_returnflag", "l_quantity"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"),
                       Sum("ss", alias_name="ss"),
                       Min("mn", alias_name="mn"),
                       Max("mx", alias_name="mx"))
            .take_all())  # 3 rows
    rows.sort(key=lambda r: r["l_returnflag"])
    out = {"l_returnflag": [], "n": [], "min_q": [], "max_q": [],
           "sum_q": [], "avg_micros": [], "var_micros": [],
           "std_upper_micros": [], "std_lower_micros": []}
    for r in rows:
        n, s, ss = int(r["n"]), int(r["s"]), int(r["ss"])
        mean = float(s) / n
        var = float(n * ss - s * s) / n / n  # population (ES default)
        std = math.sqrt(var)
        out["l_returnflag"].append(r["l_returnflag"])
        out["n"].append(n)
        out["min_q"].append(int(r["mn"]))
        out["max_q"].append(int(r["mx"]))
        out["sum_q"].append(s)
        out["avg_micros"].append(to_micros(mean))
        out["var_micros"].append(to_micros(var))
        out["std_upper_micros"].append(to_micros(mean + 2 * std))
        out["std_lower_micros"].append(to_micros(mean - 2 * std))
    return pa.table({k: pa.array(v, pa.string() if k == "l_returnflag"
                                 else pa.int64())
                     for k, v in out.items()})


def string_stats_agg(sf_dir: str):
    """ES ``string_stats`` (with show_distribution's entropy) over
    documents.text: value count, min/max/avg length and the Shannon
    entropy of the corpus character distribution. The corpus is pure
    ASCII (pinned by the oracle's regex — bytes == chars), so each
    batch bincounts the Arrow data buffer directly (zero-copy, no
    Python per-row loop) and emits ≤ alphabet-size partial rows plus
    one length-stats row keyed by the char=-1 sentinel. Entropy follows
    rule 4: per-character −p·log2(p) is micros-rounded THEN summed, so
    1-ulp log differences can't accumulate across engines."""
    def part(b: pa.Table) -> pa.Table:
        arr = b["text"].combine_chunks()
        lens = np.asarray(pc.utf8_length(arr), dtype=np.int64)
        # offsets are int32 (string) or int64 (large_string — Ray can
        # promote); read the right width or the buffer is garbage
        wide = pa.types.is_large_string(arr.type)
        odt, osz = (np.int64, 8) if wide else (np.int32, 4)
        off = np.frombuffer(arr.buffers()[1], odt,
                            len(arr) + 1, offset=arr.offset * osz)
        data = np.frombuffer(arr.buffers()[2], np.uint8)[off[0]:off[-1]]
        counts = np.bincount(data, minlength=256).astype(np.int64)
        chars = np.nonzero(counts)[0].astype(np.int64)
        big = np.int64(1 << 62)
        return pa.table({
            "char": np.concatenate((chars, [-1])),
            "cnt": np.concatenate((counts[chars], [0])),
            "n_docs": np.concatenate((np.zeros(len(chars), np.int64),
                                      [len(arr)])),
            "sum_len": np.concatenate((np.zeros(len(chars), np.int64),
                                       [int(lens.sum())])),
            "min_len": np.concatenate((np.full(len(chars), big),
                                       [int(lens.min()) if len(lens)
                                        else big])),
            "max_len": np.concatenate((np.zeros(len(chars), np.int64),
                                       [int(lens.max()) if len(lens)
                                        else 0])),
        })

    rows = (rd.read_parquet(_docs(sf_dir), columns=["text"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("char")
            .aggregate(Sum("cnt", alias_name="cnt"),
                       Sum("n_docs", alias_name="n_docs"),
                       Sum("sum_len", alias_name="sum_len"),
                       Min("min_len", alias_name="min_len"),
                       Max("max_len", alias_name="max_len"))
            .take_all())  # ≤ 257 rows
    cnts = {int(r["char"]): int(r["cnt"]) for r in rows
            if int(r["char"]) >= 0}
    meta = next(r for r in rows if int(r["char"]) == -1)
    total = sum(cnts.values())
    ent = 0
    for c in sorted(cnts):
        p = cnts[c] / total
        ent += to_micros(-p * math.log2(p))
    n_docs = int(meta["n_docs"])
    return pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "min_len": pa.array([int(meta["min_len"])], pa.int64()),
        "max_len": pa.array([int(meta["max_len"])], pa.int64()),
        "avg_len_micros": pa.array(
            [int(meta["sum_len"]) * 1_000_000 // n_docs], pa.int64()),
        "entropy_micros": pa.array([ent], pa.int64()),
    })


def boxplot_agg(sf_dir: str):
    """ES ``boxplot`` aggregation over events.value — exact order
    statistics (no TDigest: the engine can afford exact selection via
    quantiles_disc's histogram-narrowing passes, no global sort), IQR
    whisker fences in pure integer micros arithmetic (lo = q1 −
    (15·IQR)//10), and the outlier count from one more streaming pass
    against the broadcast fences."""
    from ..functions.quantiles import quantiles_disc

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"])
    q1, q2, q3 = quantiles_disc(ds, "value", [0.25, 0.5, 0.75])
    q1m, q2m, q3m = to_micros(q1), to_micros(q2), to_micros(q3)
    iqr = q3m - q1m
    lo = q1m - (15 * iqr) // 10
    hi = q3m + (15 * iqr) // 10

    def cnt(b: pa.Table) -> pa.Table:
        v = np.asarray(pc_micros(b["value"]))
        return pa.table({"g": np.zeros(1, np.int64),
                         "n_out": np.array([int(((v < lo) | (v > hi)).sum())],
                                           np.int64)})

    rows = (ds.map_batches(cnt, batch_format="pyarrow")
            .groupby("g").aggregate(Sum("n_out", alias_name="n_out"))
            .take_all())
    return pa.table({
        "q1_micros": pa.array([q1m], pa.int64()),
        "q2_micros": pa.array([q2m], pa.int64()),
        "q3_micros": pa.array([q3m], pa.int64()),
        "lo_fence_micros": pa.array([lo], pa.int64()),
        "hi_fence_micros": pa.array([hi], pa.int64()),
        "n_outliers": pa.array([int(rows[0]["n_out"])], pa.int64()),
    })


RANGE_EDGES = (1.0, 10.0, 100.0)
RANGE_KEYS = ("lt_1", "1_10", "10_100", "gte_100")


def range_agg(sf_dir: str):
    """ES ``range`` aggregation over events.value: fixed numeric bucket
    edges, per-bucket doc count and value sum. Bucketing is a float
    comparison against identical double literals (exact both engines);
    sums travel as micros partials — one row per (bucket, batch)."""
    def part(b: pa.Table) -> pa.Table:
        v = np.asarray(b["value"].combine_chunks(), dtype=np.float64)
        idx = np.digitize(v, RANGE_EDGES)  # right-open buckets
        t = pa.table({
            "bucket": pa.array([RANGE_KEYS[i] for i in idx], pa.string()),
            "n": np.ones(len(v), np.int64),
            "sum_micros": np.asarray(pc_micros(b["value"])),
        })
        return _partial_sums(t, ["bucket"], {"n": "n",
                                             "sum_micros": "sum_micros"})

    return (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                            columns=["value"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("bucket")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_micros", alias_name="sum_micros")))


FILTERS_LONG_CHARS = 300


def filters_agg(sf_dir: str):
    """ES ``filters`` aggregation: independent named filter buckets
    (docs may land in several) over documents — language, length and a
    source-prefix filter — each with doc count and char sum. One pass
    emits one partial row per (bucket, batch); no shuffle of raw
    rows."""
    def part(b: pa.Table) -> pa.Table:
        lang = np.asarray(b["lang"].combine_chunks().cast(pa.string())
                          .to_pandas())
        src = np.asarray(b["source"].combine_chunks().cast(pa.string())
                         .to_pandas())
        nch = np.asarray(b["n_chars"].combine_chunks()).astype(np.int64)
        masks = {
            "en": lang == "en",
            "long": nch >= FILTERS_LONG_CHARS,
            "src1x": np.char.startswith(src.astype(str), "src1"),
        }
        rows = {"bucket": [], "n_docs": [], "sum_chars": []}
        for k, m in masks.items():
            rows["bucket"].append(k)
            rows["n_docs"].append(int(m.sum()))
            rows["sum_chars"].append(int(nch[m].sum()))
        return pa.table({"bucket": pa.array(rows["bucket"], pa.string()),
                         "n_docs": pa.array(rows["n_docs"], pa.int64()),
                         "sum_chars": pa.array(rows["sum_chars"],
                                               pa.int64())})

    return (rd.read_parquet(_docs(sf_dir),
                            columns=["lang", "source", "n_chars"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("bucket")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("sum_chars", alias_name="sum_chars")))


MULTI_TERMS_K = 5


def multi_terms_agg(sf_dir: str):
    """ES ``multi_terms`` aggregation: compound-key terms over
    (l_returnflag, l_linestatus) ranked by doc count (desc, keys asc),
    top MULTI_TERMS_K. Key cardinality is bounded (|flags|×|statuses|),
    so partial sums shuffle a handful of rows and the rank is a driver
    fold."""
    def part(b: pa.Table) -> pa.Table:
        t = pa.table({
            "l_returnflag": b["l_returnflag"].combine_chunks(),
            "l_linestatus": b["l_linestatus"].combine_chunks(),
            "n": np.ones(b.num_rows, np.int64),
            "sum_qty_micros": np.asarray(pc_micros(b["l_quantity"])),
        })
        return _partial_sums(t, ["l_returnflag", "l_linestatus"],
                             {"n": "n", "sum_qty_micros": "sum_qty_micros"})

    rows = (rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                            columns=["l_returnflag", "l_linestatus",
                                     "l_quantity"])
            .map_batches(part, batch_format="pyarrow")
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_qty_micros", alias_name="sum_qty_micros"))
            .take_all())  # bounded: flag×status combos
    rows.sort(key=lambda r: (-int(r["n"]), r["l_returnflag"],
                             r["l_linestatus"]))
    rows = rows[:MULTI_TERMS_K]
    return pa.table({
        "l_returnflag": pa.array([r["l_returnflag"] for r in rows],
                                 pa.string()),
        "l_linestatus": pa.array([r["l_linestatus"] for r in rows],
                                 pa.string()),
        "n": pa.array([int(r["n"]) for r in rows], pa.int64()),
        "sum_qty_micros": pa.array([int(r["sum_qty_micros"]) for r in rows],
                                   pa.int64()),
        "rank": pa.array(list(range(1, len(rows) + 1)), pa.int64()),
    })


def top_metrics_agg(sf_dir: str):
    """ES ``top_metrics`` aggregation: per language, the metrics of the
    document with the greatest sort value (n_chars DESC, doc_id ASC
    tie-break). Each batch forwards at most one candidate per language
    (map-side argmax), the driver folds |langs|×|blocks| candidate
    rows."""
    def part(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": b["lang"].combine_chunks().to_pylist(),
            "doc_id": np.asarray(b["doc_id"].combine_chunks()
                                 ).astype(np.int64),
            "n_chars": np.asarray(b["n_chars"].combine_chunks()
                                  ).astype(np.int64),
        })
        df = df.sort_values(["lang", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        top = df.groupby("lang", sort=False).head(1)
        return pa.Table.from_pandas(top, preserve_index=False)

    cands = (rd.read_parquet(_docs(sf_dir),
                             columns=["lang", "doc_id", "n_chars"])
             .map_batches(part, batch_format="pyarrow")
             .take_all())  # ≤ langs × blocks
    best: dict[str, tuple[int, int]] = {}
    for r in cands:
        key = (-int(r["n_chars"]), int(r["doc_id"]))
        if r["lang"] not in best or key < best[r["lang"]]:
            best[r["lang"]] = key
    langs = sorted(best)
    return pa.table({
        "lang": pa.array(langs, pa.string()),
        "doc_id": pa.array([best[g][1] for g in langs], pa.int64()),
        "n_chars": pa.array([-best[g][0] for g in langs], pa.int64()),
    })


SAMPLER_PER_SOURCE = 2
SAMPLER_K = 10


def diversified_sampler_agg(sf_dir: str):
    """ES ``diversified_sampler`` aggregation: a deterministic sample
    of SAMPLER_K docs with at most SAMPLER_PER_SOURCE per source
    (de-bias by the diversity field), ranked by a reproducible
    per-doc hash (md5-low64 of 'samp:'||doc_id — the repo's
    cross-engine hash convention). Map-side per-source top-P keeps the
    driver fold at sources×blocks candidates."""
    from ..functions.dedup import md5_low64

    def part(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        h = md5_low64(np.array([f"samp:{i}" for i in ids], dtype=object)
                      ).astype(np.uint64)
        # exact uint64 ordering via hi/lo int64 split (a float64 cast
        # would collapse hashes past 2^53)
        df = pd.DataFrame({
            "doc_id": ids,
            "source": b["source"].combine_chunks().to_pylist(),
            "h_hi": (h >> np.uint64(32)).astype(np.int64),
            "h_lo": (h & np.uint64(0xFFFFFFFF)).astype(np.int64),
        })
        df = df.sort_values(["source", "h_hi", "h_lo", "doc_id"])
        top = df.groupby("source", sort=False).head(SAMPLER_PER_SOURCE)
        return pa.Table.from_pandas(top, preserve_index=False)

    cands = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "source"])
             .map_batches(part, batch_format="pyarrow")
             .to_pandas())  # ≤ sources × blocks × P
    cands = cands.sort_values(["source", "h_hi", "h_lo", "doc_id"])
    kept = cands.groupby("source", sort=False).head(SAMPLER_PER_SOURCE)
    kept = kept.sort_values(["h_hi", "h_lo", "doc_id"]).head(SAMPLER_K)
    return pa.table({
        "doc_id": pa.array(kept["doc_id"].to_numpy(np.int64)),
        "source": pa.array(kept["source"].tolist(), pa.string()),
        "rank": pa.array(np.arange(1, len(kept) + 1, dtype=np.int64)),
    })


SERIAL_DIFF_LAG = 3


def cumulative_sum_pipeline(sf_dir: str):
    """ES ``cumulative_sum`` pipeline aggregation over the monthly
    order histogram: running total of bucket counts in (y, m) order.
    The bucket table is calendar-bounded, so the sequential fold is a
    driver-side cumsum over ≤ |months| rows (the histogram itself is
    the distributed part — orders_by_month's partial sums)."""
    t = orders_by_month(sf_dir).to_pandas()
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy()))
    t = t.iloc[order].reset_index(drop=True)
    n = t["n_orders"].to_numpy(np.int64)
    return pa.table({
        "y": pa.array(t["y"].to_numpy(np.int64)),
        "m": pa.array(t["m"].to_numpy(np.int64)),
        "n": pa.array(n),
        "cum_n": pa.array(np.cumsum(n).astype(np.int64)),
    })


def serial_diff_pipeline(sf_dir: str):
    """ES ``serial_diff`` pipeline aggregation (lag = SERIAL_DIFF_LAG
    buckets) over the monthly histogram: n_t − n_{t−L} in row sequence,
    0 where no lagged bucket exists (ES emits no bucket; a stable 0
    keeps the schema rectangular for the driver hash)."""
    t = orders_by_month(sf_dir).to_pandas()
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy()))
    t = t.iloc[order].reset_index(drop=True)
    n = t["n_orders"].to_numpy(np.int64)
    d = np.zeros(len(n), np.int64)
    if len(n) > SERIAL_DIFF_LAG:
        d[SERIAL_DIFF_LAG:] = n[SERIAL_DIFF_LAG:] - n[:-SERIAL_DIFF_LAG]
    return pa.table({
        "y": pa.array(t["y"].to_numpy(np.int64)),
        "m": pa.array(t["m"].to_numpy(np.int64)),
        "n": pa.array(n),
        "sdiff": pa.array(d),
    })


def _urgent_monthly(sf_dir: str):
    """(y, m, n, n_urgent) monthly frame, (y, m)-sorted — the shared
    two-counter histogram behind bucket_script / bucket_selector (one
    partial-sums pass carries both counters; no second scan)."""
    def part(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"].combine_chunks()
        urgent = pc.equal(b["o_orderpriority"].combine_chunks(),
                          "1-URGENT")
        t = pa.table({
            "y": pc.year(ts).cast(pa.int64()),
            "m": pc.month(ts).cast(pa.int64()),
            "n": np.ones(b.num_rows, np.int64),
            "n_urgent": np.asarray(urgent).astype(np.int64),
        })
        return _partial_sums(t, ["y", "m"],
                             {"n": "n", "n_urgent": "n_urgent"})

    t = (rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderdate", "o_orderpriority"])
         .map_batches(part, batch_format="pyarrow")
         .groupby(["y", "m"])
         .aggregate(Sum("n", alias_name="n"),
                    Sum("n_urgent", alias_name="n_urgent"))
         .to_pandas())  # calendar-bounded
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy()))
    return t.iloc[order].reset_index(drop=True)


def bucket_script_pipeline(sf_dir: str):
    """ES ``bucket_script`` pipeline aggregation: a per-bucket derived
    metric — the urgent-order share of each month, urgent·1e6 // total
    in pure integer arithmetic, over the shared two-counter monthly
    histogram (_urgent_monthly)."""
    t = _urgent_monthly(sf_dir)
    n = t["n"].to_numpy(np.int64)
    nu = t["n_urgent"].to_numpy(np.int64)
    return pa.table({
        "y": pa.array(t["y"].to_numpy(np.int64)),
        "m": pa.array(t["m"].to_numpy(np.int64)),
        "n": pa.array(n),
        "n_urgent": pa.array(nu),
        "urgent_share_micros": pa.array(nu * 1_000_000 // n),
    })


def max_bucket_pipeline(sf_dir: str):
    """ES ``max_bucket`` pipeline aggregation: the bucket key(s) of the
    monthly histogram's maximum count (ES returns a keys LIST on ties —
    mirrored as one row per tying bucket) plus the max value."""
    t = orders_by_month(sf_dir).to_pandas()
    n = t["n_orders"].to_numpy(np.int64)
    mx = int(n.max())
    hit = t.iloc[np.nonzero(n == mx)[0]]
    order = np.lexsort((hit["m"].to_numpy(), hit["y"].to_numpy()))
    hit = hit.iloc[order]
    return pa.table({
        "y": pa.array(hit["y"].to_numpy(np.int64)),
        "m": pa.array(hit["m"].to_numpy(np.int64)),
        "max_n": pa.array(np.full(len(hit), mx, np.int64)),
    })


# ---------------- ES query parity (wave 10 search) ----------------

TERMS_SET_MOD = 3
CONST_SCORE_BOOST = 1.5
SPAN_NEAR_SLOP = 3


def _terms_set_msm(ids: np.ndarray) -> np.ndarray:
    """Per-doc minimum_should_match threshold (the stand-in for ES's
    minimum_should_match_field doc values): 1 + doc_id % TERMS_SET_MOD
    — deterministic, derivable by both engines."""
    return 1 + (np.asarray(ids, dtype=np.int64) % TERMS_SET_MOD)


GEO_BOX = (-30_000_000, 50_000_000, -90_000_000, 40_000_000)
# (lat_lo, lat_hi, lon_lo, lon_hi) micro-degrees


def geo_bbox_search(sf_dir: str):
    """ES ``geo_bounding_box`` query: the planar box filter geo_distance
    runs BEHIND — customers whose hash-derived coordinates (the
    geo_distance derivation, md5-low64 == DuckDB md5_number_lower) fall
    inside a fixed lat/lon box, ordered by (lat, lon, key). Pure integer
    comparisons; each batch forwards only its in-box rows."""
    from ..functions.dedup import md5_low64

    la0, la1, lo0, lo1 = GEO_BOX

    def part(b: pa.Table) -> pa.Table:
        ck = np.asarray(b["c_custkey"].combine_chunks()).astype(np.int64)
        lat = (md5_low64(np.array([f"lat:{c}" for c in ck], dtype=object))
               % np.uint64(180_000_001)).astype(np.int64) - 90_000_000
        lon = (md5_low64(np.array([f"lon:{c}" for c in ck], dtype=object))
               % np.uint64(360_000_001)).astype(np.int64) - 180_000_000
        keep = ((lat >= la0) & (lat <= la1) & (lon >= lo0) & (lon <= lo1))
        return pa.table({
            "c_custkey": pa.array(ck[keep], pa.int64()),
            "lat_micros": pa.array(lat[keep], pa.int64()),
            "lon_micros": pa.array(lon[keep], pa.int64()),
        })

    return (rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                            columns=["c_custkey"])
            .map_batches(part, batch_format="pyarrow"))


DATE_RANGE_EDGES = ("1997-01-01", "1999-01-01")


def date_range_agg(sf_dir: str):
    """ES ``date_range`` aggregation over orders: fixed date edges split
    the histogram into early / mid / late buckets with order count and
    revenue. Bucketing is integer epoch-day comparison (DuckDB date -
    date mirrors exactly); revenue travels as micros partial sums."""
    import datetime

    e0, e1 = (datetime.date.fromisoformat(d).toordinal()
              - datetime.date(1970, 1, 1).toordinal()
              for d in DATE_RANGE_EDGES)

    def part(b: pa.Table) -> pa.Table:
        days = np.asarray(b["o_orderdate"].combine_chunks()
                          .cast(pa.date32()).cast(pa.int32())
                          ).astype(np.int64)
        idx = np.digitize(days, [e0, e1])  # right-open buckets
        keys = np.array(["early", "mid", "late"])[idx]
        t = pa.table({
            "bucket": pa.array(keys, pa.string()),
            "n": np.ones(len(days), np.int64),
            "revenue_micros": pc_micros(b["o_totalprice"]),
        })
        return _partial_sums(t, ["bucket"],
                             {"n": "n", "revenue_micros": "revenue_micros"})

    return (rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                            columns=["o_orderdate", "o_totalprice"])
            .map_batches(part, batch_format="pyarrow")
            .groupby("bucket")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("revenue_micros", alias_name="revenue_micros")))


RANDOM_SCORE_TERM = "merge"
RANDOM_SCORE_K = 10


def random_score_search(sf_dir: str):
    """ES ``function_score`` with ``random_score`` (seeded): a
    DETERMINISTIC pseudo-random ranking of the matched set — score =
    md5-low64('rs:'||doc_id) (the seeded per-doc hash ES derives from
    seed+field), so reshuffles are reproducible across engines and
    runs. The classic use is unbiased eyeballing/sampling of a result
    set. Top-K by (hash asc, doc_id asc); the hash itself stays
    internal (uint64), the output carries the rank."""
    from ..functions.dedup import md5_low64

    eng = _index_for(sf_dir)
    ids = eng.term_doc_ids(RANDOM_SCORE_TERM)
    h = md5_low64(np.array([f"rs:{int(d)}" for d in ids], dtype=object))
    hi = (h >> np.uint64(32)).astype(np.int64)
    lo = (h & np.uint64(0xFFFFFFFF)).astype(np.int64)
    order = np.lexsort((ids, lo, hi))[:RANDOM_SCORE_K]
    return pa.table({
        "doc_id": pa.array(ids[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


def rate_agg(sf_dir: str):
    """ES ``rate`` aggregation (unit: day) under the monthly
    date_histogram: each month's order count normalized to a per-day
    rate — n · 1e6 // days_in_month, pure integer arithmetic (DuckDB's
    last_day mirrors Python's calendar.monthrange exactly)."""
    import calendar

    t = orders_by_month(sf_dir).to_pandas()
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy()))
    t = t.iloc[order].reset_index(drop=True)
    y = t["y"].to_numpy(np.int64)
    m = t["m"].to_numpy(np.int64)
    n = t["n_orders"].to_numpy(np.int64)
    dim = np.array([calendar.monthrange(int(a), int(b))[1]
                    for a, b in zip(y, m)], np.int64)  # ≤ months rows
    return pa.table({
        "y": pa.array(y), "m": pa.array(m), "n": pa.array(n),
        "days": pa.array(dim),
        "rate_per_day_micros": pa.array(n * 1_000_000 // dim),
    })


HIST_B_W = 25.0          # bucket width over events.value
HIST_B_LO, HIST_B_HI = -2, 15   # extended_bounds (buckets, inclusive)


def histogram_bounds_agg(sf_dir: str):
    """ES ``histogram`` aggregation with ``extended_bounds``: fixed-width
    value buckets where EMPTY buckets inside the extended range are
    emitted with n = 0 (the distinction from the plain histogram — time
    series and charting need the zeros). One partial-sums pass; the
    driver fills the bounded bucket range; the oracle mirrors with
    generate_series LEFT JOIN."""
    def part(b: pa.Table) -> pa.Table:
        v = np.asarray(b["value"].combine_chunks(), dtype=np.float64)
        t = pa.table({
            "bucket": np.floor(v / HIST_B_W).astype(np.int64),
            "n": np.ones(len(v), np.int64),
        })
        return _partial_sums(t, ["bucket"], {"n": "n"})

    got = (rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                           columns=["value"])
           .map_batches(part, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Sum("n", alias_name="n"))
           .to_pandas())  # value-range-bounded
    counts = dict(zip(got["bucket"].astype(np.int64),
                      got["n"].astype(np.int64)))
    lo = min(HIST_B_LO, int(min(counts)) if counts else HIST_B_LO)
    hi = max(HIST_B_HI, int(max(counts)) if counts else HIST_B_HI)
    buckets = np.arange(lo, hi + 1, dtype=np.int64)
    return pa.table({
        "bucket": pa.array(buckets),
        "n": pa.array([int(counts.get(int(b), 0)) for b in buckets],
                      pa.int64()),
    })


MAXSIM_DIM = 16
_MAXSIM_TV_CACHE: dict[str, np.ndarray] = {}


def _maxsim_vec(terms: list[str]) -> np.ndarray:
    """Deterministic ±1 'token embedding' per term: dim d of term t is
    +1 iff md5-low64('tv:t:d') is even (== DuckDB md5_number_lower % 2)
    — the hash-derived-geometry convention of knn_ann_lsh/simhash, so
    late-interaction dots are INTEGERS and bitwise-oracled. Per-process
    cache: the md5s run once per unique term."""
    from ..functions.dedup import md5_low64

    miss = [t for t in terms if t not in _MAXSIM_TV_CACHE]
    if miss:
        keys = np.array([f"tv:{t}:{d}" for t in miss
                         for d in range(MAXSIM_DIM)], dtype=object)
        bits = (md5_low64(keys) % np.uint64(2)).astype(np.int64)
        vecs = (1 - 2 * bits).reshape(len(miss), MAXSIM_DIM)
        for t, v in zip(miss, vecs):
            _MAXSIM_TV_CACHE[t] = v
    return np.stack([_MAXSIM_TV_CACHE[t] for t in terms])


def maxsim_search(sf_dir: str):
    """ColBERT-style LATE-INTERACTION retrieval (MaxSim): every doc
    token and query token carries a vector; score(d) = Σ_q max_t
    q·t over the doc's distinct terms — fine-grained token matching
    instead of one pooled vector. Token vectors here are hash-derived
    ±1 (integer dots, bitwise-oracled); in production they come from a
    trained encoder and this pipeline's shape is unchanged. One
    streaming pass: per batch, unique terms → vector gather → dot
    matrix against the query tokens → per-doc partial MAX per query
    token; a (doc × |q|) max-groupby (the only shuffle — rows are
    |q| ints per doc, never vectors); score + partial top-10 per batch,
    driver merges 10-row lists."""
    qterms = sorted(set(clean_query(BM25_QUERY)))
    Q = _maxsim_vec(qterms)  # |q| × DIM

    def dots(b: pa.Table) -> pa.Table:
        terms = b["term"].combine_chunks()
        d = terms.dictionary_encode()
        uniq = d.dictionary.to_pylist()
        codes = np.asarray(d.indices).astype(np.int64)
        T = _maxsim_vec(uniq)                   # u × DIM
        dm = T @ Q.T                            # u × |q| integer dots
        per_pair = dm[codes]                    # rows × |q|
        df = pd.DataFrame({"doc_id": np.asarray(
            b["doc_id"].combine_chunks()).astype(np.int64)})
        for j in range(len(qterms)):
            df[f"m{j}"] = per_pair[:, j]
        g = (df.groupby("doc_id", sort=False, as_index=False)
             .max())  # map-side partial max
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Max

    per_doc = (_postings_ds(sf_dir)
               .map_batches(dots, batch_format="pyarrow")
               .groupby("doc_id")
               .aggregate(*[Max(f"m{j}", alias_name=f"m{j}")
                            for j in range(len(qterms))]))

    def topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        score = sum(df[f"m{j}"].to_numpy(np.int64)
                    for j in range(len(qterms)))
        ids = df["doc_id"].to_numpy(np.int64)
        order = np.lexsort((ids, -score))[:10]
        return pa.table({"doc_id": pa.array(ids[order], pa.int64()),
                         "score": pa.array(score[order], pa.int64())})

    t = per_doc.map_batches(topk, batch_format="pyarrow").to_pandas()
    order = np.lexsort((t["doc_id"].to_numpy(),
                        -t["score"].to_numpy()))[:10]
    out = t.iloc[order]
    return pa.table({
        "doc_id": pa.array(out["doc_id"].to_numpy(np.int64)),
        "score": pa.array(out["score"].to_numpy(np.int64)),
        "rank": pa.array(np.arange(1, len(out) + 1, dtype=np.int64)),
    })


MAXSIM_SHORTLIST = 50


def maxsim_rerank(sf_dir: str):
    """The production late-interaction serving shape: a cheap
    first-stage retriever (BM25 top-MAXSIM_SHORTLIST from the index)
    hands a SHORTLIST to the expensive MaxSim re-ranker — token-vector
    scoring touches 50 docs, not the corpus. Shortlist cut is on
    (score desc, doc_id asc), exact both engines; re-rank is the
    integer MaxSim of maxsim_search restricted to the shortlist via a
    broadcast membership probe."""
    eng = _index_for(sf_dir)
    short = eng.search(BM25_QUERY, MAXSIM_SHORTLIST, method="exhaustive")
    allowed = np.array(sorted(d for d, _ in short), dtype=np.int64)
    qterms = sorted(set(clean_query(BM25_QUERY)))
    Q = _maxsim_vec(qterms)

    def dots(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        keep = np.isin(ids, allowed)  # broadcast shortlist probe
        if not keep.any():
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             **{f"m{j}": pa.array([], pa.int64())
                                for j in range(len(qterms))}})
        terms = b["term"].combine_chunks().filter(pa.array(keep))
        d = terms.dictionary_encode()
        T = _maxsim_vec(d.dictionary.to_pylist())
        per_pair = (T @ Q.T)[np.asarray(d.indices).astype(np.int64)]
        df = pd.DataFrame({"doc_id": ids[keep]})
        for j in range(len(qterms)):
            df[f"m{j}"] = per_pair[:, j]
        g = (df.groupby("doc_id", sort=False, as_index=False).max())
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Max

    t = (_postings_ds(sf_dir)
         .map_batches(dots, batch_format="pyarrow")
         .groupby("doc_id")
         .aggregate(*[Max(f"m{j}", alias_name=f"m{j}")
                      for j in range(len(qterms))])
         .to_pandas())  # ≤ shortlist rows
    score = sum(t[f"m{j}"].to_numpy(np.int64)
                for j in range(len(qterms)))
    ids = t["doc_id"].to_numpy(np.int64)
    order = np.lexsort((ids, -score))[:10]
    return pa.table({
        "doc_id": pa.array(ids[order], pa.int64()),
        "score": pa.array(score[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


# ---------------- ES pipeline-agg parity (round-4 s11) ----------------

BSORT_FROM, BSORT_SIZE = 2, 6   # ES bucket_sort from/size
BSEL_NUM = 5                    # bucket_selector: keep n_urgent*5 > n
GEO_GRID_N = 16                 # zoom-4 grid: 16x16 cells per axis


def bucket_sort_pipeline(sf_dir: str):
    """ES ``bucket_sort`` pipeline aggregation over the monthly order
    histogram: sort buckets by count DESC (ties by (y, m) ASC — a
    deterministic tie-break ES leaves to insertion order), then apply
    ``from``/``size`` truncation (skip BSORT_FROM, keep BSORT_SIZE).
    The histogram is the distributed part; the sort/slice folds a
    calendar-bounded bucket list on the driver."""
    t = orders_by_month(sf_dir).to_pandas()
    n = t["n_orders"].to_numpy(np.int64)
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy(), -n))
    sel = order[BSORT_FROM:BSORT_FROM + BSORT_SIZE]
    out = t.iloc[sel]
    return pa.table({
        "y": pa.array(out["y"].to_numpy(np.int64)),
        "m": pa.array(out["m"].to_numpy(np.int64)),
        "n": pa.array(out["n_orders"].to_numpy(np.int64)),
        "pos": pa.array(
            np.arange(BSORT_FROM + 1, BSORT_FROM + 1 + len(out),
                      dtype=np.int64)),
    })


def bucket_selector_pipeline(sf_dir: str):
    """ES ``bucket_selector`` pipeline aggregation: drop monthly buckets
    failing a per-bucket script — keep months whose urgent-order share
    exceeds 1/BSEL_NUM, evaluated in pure integer arithmetic
    (n_urgent · BSEL_NUM > n) over the shared two-counter monthly
    histogram (_urgent_monthly)."""
    t = _urgent_monthly(sf_dir)
    keep = t["n_urgent"].to_numpy(np.int64) * BSEL_NUM \
        > t["n"].to_numpy(np.int64)
    t = t.iloc[np.nonzero(keep)[0]]  # already (y, m)-sorted
    return pa.table({
        "y": pa.array(t["y"].to_numpy(np.int64)),
        "m": pa.array(t["m"].to_numpy(np.int64)),
        "n": pa.array(t["n"].to_numpy(np.int64)),
        "n_urgent": pa.array(t["n_urgent"].to_numpy(np.int64)),
    })


def geo_grid_agg(sf_dir: str):
    """ES ``geotile_grid`` + ``geo_centroid`` aggregation, float-hazard-
    free: customers carry the repo's hash-derived micro-degree
    coordinates (the geo_distance_search convention), bucketed into a
    GEO_GRID_N × GEO_GRID_N equirectangular grid (the integer-exact
    stand-in for Web-Mercator tiles — Mercator's ln/tan is a cross-
    engine 1-ulp hazard; the cell ids differ but the aggregation
    semantics are the same). Per cell: doc count + centroid as integer
    floor-averages, computed on range-shifted sums so the numerator is
    non-negative and // is floor in both engines. Map-side partial sums
    → ≤ N² rows shuffle."""
    from ..functions.dedup import md5_low64

    g = GEO_GRID_N

    def part(b: pa.Table) -> pa.Table:
        ck = np.asarray(b["c_custkey"].combine_chunks()).astype(np.int64)
        lat = (md5_low64(np.array([f"lat:{c}" for c in ck], dtype=object))
               % np.uint64(180_000_001)).astype(np.int64) - 90_000_000
        lon = (md5_low64(np.array([f"lon:{c}" for c in ck], dtype=object))
               % np.uint64(360_000_001)).astype(np.int64) - 180_000_000
        cx = (lon + 180_000_000) * g // 360_000_001
        cy = (90_000_000 - lat) * g // 180_000_001
        t = pa.table({
            "cell": pa.array(cy * g + cx, pa.int64()),
            "n": np.ones(len(ck), np.int64),
            "slat": pa.array(lat + 90_000_000, pa.int64()),
            "slon": pa.array(lon + 180_000_000, pa.int64()),
        })
        return _partial_sums(t, ["cell"],
                             {"n": "n", "slat": "slat", "slon": "slon"})

    t = (rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
         .map_batches(part, batch_format="pyarrow")
         .groupby("cell")
         .aggregate(Sum("n", alias_name="n"),
                    Sum("slat", alias_name="slat"),
                    Sum("slon", alias_name="slon"))
         .to_pandas())  # ≤ GEO_GRID_N² rows
    order = np.argsort(t["cell"].to_numpy(np.int64), kind="stable")
    t = t.iloc[order]
    n = t["n"].to_numpy(np.int64)
    return pa.table({
        "cell": pa.array(t["cell"].to_numpy(np.int64)),
        "n": pa.array(n),
        "centroid_lat_micros": pa.array(
            t["slat"].to_numpy(np.int64) // n - 90_000_000),
        "centroid_lon_micros": pa.array(
            t["slon"].to_numpy(np.int64) // n - 180_000_000),
    })


# ---------------- ES query parity (round-4 s11) ----------------

CF_WT, CF_WB, CF_K1, CF_B = 2.0, 1.0, 1.2, 0.75


def _aligned_vals(ids: np.ndarray, vals: np.ndarray, u: np.ndarray
                  ) -> np.ndarray:
    """Value per union doc, 0.0 where the doc is absent from ``ids``
    (sorted membership probe — the SQL coalesce(x, 0.0) left operand).
    Shared by the fielded combiners that align per-field postings or
    doclens onto a union doc-id axis."""
    out = np.zeros(u.size, np.float64)
    if ids.size:
        pos = np.searchsorted(ids, u)
        ok = pos < ids.size
        safe = np.where(ok, pos, 0)
        m = ok & (ids[safe] == u)
        out[m] = vals[safe[m]]
    return out


def combined_fields_search(sf_dir: str):
    """ES ``combined_fields`` (Lucene CombinedFieldQuery) over the
    title/body split — the MERGED-FIELD combiner: the fields are scored
    as ONE pseudo-field whose term frequency is the weighted sum of
    per-field tfs (tf* = wt·tf_t + wb·tf_b), whose doc length is the
    same weighted sum of field lengths, and whose avgdl is the corpus
    mean of that combined length; plain BM25 runs once on (tf*, dl*,
    avgdl*) with DOCUMENT-level df. Fifth member of the fielded family:
    fielded (per-field BM25 sum), dismax (best field per query), bm25f
    (per-field normalize → shared saturation), cross_fields (best field
    per term), combined_fields (merge THEN score — the only one whose
    weights act before any normalization, Lucene's "synthetic combined
    field" semantics). All weighted quantities are exact (integer tfs/
    lens scaled by small weights), so the only float work is the single
    BM25 curve — same expression order as combined_fields_topk_sql."""
    et, eb = _fielded_for(sf_dir)
    terms = sorted(set(clean_query(BM25_QUERY)))
    n_docs = float(len(et.doclens.ids))
    sum_t = float(int(et.doclens.lens.sum()))
    sum_b = float(int(eb.doclens.lens.sum()))
    avgdl = (CF_WT * sum_t + CF_WB * sum_b) / n_docs

    acc = np.zeros(len(et.doclens.ids), np.float64)
    hit = np.zeros(len(et.doclens.ids), bool)
    for t in terms:  # sorted → deterministic accumulation order
        it, ft = et.term_postings(t)
        ib, fb = eb.term_postings(t)
        union = np.union1d(it, ib)
        if union.size == 0:
            continue
        df = float(union.size)
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        ctf = (CF_WT * _aligned_vals(it, ft.astype(np.float64), union)
               + CF_WB * _aligned_vals(ib, fb.astype(np.float64), union))
        cdl = (CF_WT * et.doclens.lookup(union).astype(np.float64)
               + CF_WB * _aligned_vals(
                   eb.doclens.ids, eb.doclens.lens.astype(np.float64),
                   union))
        contrib = idf * ((CF_K1 + 1.0) * ctf
                         / (ctf + CF_K1 * (1.0 - CF_B
                                           + CF_B * (cdl / avgdl))))
        didx = np.searchsorted(et.doclens.ids, union)
        acc[didx] += contrib
        hit[didx] = True
    m = np.flatnonzero(hit)
    top = sorted(((int(et.doclens.ids[i]), float(acc[i])) for i in m),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    return _hits_table(top)


SEMDEDUP_T_MICROS = 300_000  # within-cell cosine ≥ 0.30 (micros) = near-dup


def semdedup_corpus(sf_dir: str):
    """SemDeDup-style embedding dedup (Abbas et al. 2023, public
    arXiv:2303.09540): cluster the embedding corpus with the SAME
    cached IVF coarse quantizer knn_ivf builds (k-means cells =
    SemDeDup's clusters), then WITHIN each cell drop any vector whose
    micros-rounded cosine against a LOWER-id cell-mate reaches the
    threshold (keep-first — the deterministic stand-in for the paper's
    keep-one-per-duplicate-set policy). Pairwise work is bounded by
    cell size BY CONSTRUCTION — that is the whole point of SemDeDup:
    at 100 TB, k scales with the corpus (k ≈ n/target_cell_size) so
    the per-cell matmul stays constant-sized (and BLOCKED — see
    functions.similarity.semdedup_keep_mask — so a hot cell never
    materializes an m² matrix), cells are hive partitions processed
    independently, and no cross-cell pair is ever formed. The
    similarity gate compares int64 micros in BOTH engines (rule 4), so
    a 1-ulp float gap cannot flip the kept set."""
    idx = _ivf_for(sf_dir)
    t = (idx.semdedup(SEMDEDUP_T_MICROS)  # one task per cell, NO shuffle
         .to_pandas()  # n rows at conformance scale; a sink at 100 TB
         .sort_values("vec_id"))
    return pa.table({
        "vec_id": pa.array(t["vec_id"].to_numpy(np.int64)),
        "cell": pa.array(t["cell"].to_numpy(np.int64)),
        "keep": pa.array(t["keep"].to_numpy(np.int64)),
    })


def normalize_pipeline(sf_dir: str):
    """ES ``normalize`` pipeline aggregation (method=rescale_0_1) over
    the monthly order histogram, in pure integer arithmetic: norm =
    (n − min)·1e6 // (max − min) micros. Degenerate single-value
    histograms (max == min) emit 0 — the documented ES behavior of a
    zero-range rescale."""
    t = orders_by_month(sf_dir).to_pandas()
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy()))
    t = t.iloc[order].reset_index(drop=True)
    n = t["n_orders"].to_numpy(np.int64)
    lo, hi = int(n.min()), int(n.max())
    norm = (np.zeros(len(n), np.int64) if hi == lo
            else (n - lo) * 1_000_000 // (hi - lo))
    return pa.table({
        "y": pa.array(t["y"].to_numpy(np.int64)),
        "m": pa.array(t["m"].to_numpy(np.int64)),
        "n": pa.array(n),
        "norm_micros": pa.array(norm),
    })


HYB_WL, HYB_WS = 0.7, 0.3  # lexical / semantic fusion weights


def hybrid_linear_search(sf_dir: str):
    """ES linear hybrid retriever (normalizer=minmax): the BM25
    lexical top-10 and the hash-embedding cosine top-10 are each
    min-max normalized WITHIN their leg's window, then fused as
    wl·norm_lex + ws·norm_sem (missing leg contributes 0.0) — the
    score-based sibling of rrf_hybrid (rank-based). Normalization runs
    on the legs' int64 MICROS (identical inputs in both engines), so
    the only float work is (v−lo)/(hi−lo) and the weighted sum —
    identical expression order to the SQL mirror. A degenerate window
    (hi == lo) normalizes to 1.0 (every doc is the leg's best)."""
    bt = bm25_topk(sf_dir)
    b_micros = dict(zip(bt["doc_id"].to_pylist(),
                        bt["score_micros"].to_pylist()))
    kt = _hashed_cosine_top10(sf_dir, BM25_QUERY)
    k_micros = {int(d): int(to_micros(sv))
                for d, sv in zip(kt["doc_id"], kt["sim"])}

    def norm(m: dict) -> dict:
        lo, hi = min(m.values()), max(m.values())
        if hi == lo:
            return {d: 1.0 for d in m}
        return {d: (v - lo) / (hi - lo) for d, v in m.items()}

    nb = norm(b_micros) if b_micros else {}
    nk = norm(k_micros) if k_micros else {}
    docs = sorted(set(nb) | set(nk))
    fused = np.array([HYB_WL * nb.get(d, 0.0) + HYB_WS * nk.get(d, 0.0)
                      for d in docs])
    ids = np.array(docs, dtype=np.int64)
    order = np.lexsort((ids, -fused))[:10]
    return pa.table({
        "doc_id": pa.array(ids[order], pa.int64()),
        "fused_micros": pa.array(to_micros(fused[order]), pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
    })


BULK_DEL_ID, BULK_UPD_ID = 3, 1
BULK_NEW_ID, BULK_CONFLICT_ID = 900001, 5
BULK_UPD_SUFFIX = " bulk merge sort"
BULK_NEW_TEXT = "bulk merge sort stream window fresh"


def bulk_search(sf_dir: str):
    """ES ``_bulk`` surfaced end-to-end: build over ALL documents, then
    apply ONE mixed batch — delete doc 3, index (replace) doc 1 with a
    suffix-extended text, create a brand-new doc 900001, and a
    CONFLICTING create on alive doc 5 (per-item 409, batch continues) —
    via append.bulk_apply (sequential per-id fold → one delete + one
    upsert), then run the fixed BM25 query. Oracle: the bm25 chain
    over the reconstructed corpus (minus 3, doc 1 rewritten, plus the
    new doc; doc 5 untouched) — the bulk-applied index must match it
    bitwise (the upsert rebuild contract)."""
    from ..append import bulk_apply

    def apply(index_dir: str) -> None:
        old = pq.read_table(_docs(sf_dir),
                            filters=[("doc_id", "=", BULK_UPD_ID)],
                            columns=["text"])["text"][0].as_py()
        out = bulk_apply(index_dir, [
            {"op": "delete", "doc_id": BULK_DEL_ID},
            {"op": "index", "doc_id": BULK_UPD_ID,
             "text": old + BULK_UPD_SUFFIX},
            {"op": "create", "doc_id": BULK_NEW_ID,
             "text": BULK_NEW_TEXT},
            {"op": "create", "doc_id": BULK_CONFLICT_ID,
             "text": "never applied"},
        ])
        results = [it["result"] for it in out["items"]]
        assert results == ["deleted", "updated", "created",
                           "conflict"], results

    return _bm25_on(_mutated_index(sf_dir, "index_bulk", apply,
                                   meta_cols=()))


CTX_LANGS = ("en", "es")  # completion contexts (ES category contexts)


def context_completion(sf_dir: str):
    """ES completion suggester with CATEGORY CONTEXTS: next-word
    suggestions computed PER (lang, prefix) — a query box scoped to a
    language sees only that language's bigram statistics
    (_completion_suggestions kernel with the context column threaded
    through the partial sums)."""
    return _completion_suggestions(sf_dir, CTX_LANGS)


def significant_text_agg(sf_dir: str):
    """ES ``significant_text`` aggregation: significant_terms with
    ``filter_duplicate_text`` — each DISTINCT text counts at most once
    (representative = lowest doc_id per content hash,
    functions.dedup.exact_dedup_drop_ids), so a copy-pasted doc can
    never inflate a term's significance. Dedup applies to BOTH
    foreground and background counts here (both come from the same
    corpus pass — numerator and denominator stay on one doc universe;
    ES leaves bg as raw index stats, a documented deviation). Same
    one-pass fg/bg chain as significant_terms over the surviving
    docs; the drop-set broadcast is sized by the duplicate count (the
    dedup_corpus pattern)."""
    from ..functions.dedup import exact_dedup_drop_ids
    from ..query import sorted_member_mask

    src = rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
    ddf = exact_dedup_drop_ids(src).to_pandas()  # sized by dup count
    drop = (np.sort(ddf["doc_id"].to_numpy(np.int64))
            if len(ddf) else np.empty(0, np.int64))
    eng = _index_for(sf_dir)
    matched = eng.search_boolean_dsl(BOOL_DSL)
    matched = matched[~sorted_member_mask(drop, matched)]
    n_fg = len(matched)
    empty = pa.table({"term": pa.array([], pa.string()),
                      "fg_df": pa.array([], pa.int64()),
                      "bg_df": pa.array([], pa.int64()),
                      "ratio_micros": pa.array([], pa.int64())})
    if n_fg == 0:
        return empty

    NDOCS_KEY = "\x00ndocs"

    def flags(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        b = b.filter(pa.array(~sorted_member_mask(drop, ids)))
        if b.num_rows == 0:  # all-duplicate batch: typed empty partial
            return pa.table({"term": pa.array([], pa.string()),
                             "bg": pa.array([], pa.int64()),
                             "fg": pa.array([], pa.int64())})
        tf = term_frequencies(b["text"].combine_chunks())
        doc_ids = np.asarray(b["doc_id"].combine_chunks()
                             ).astype(np.int64)[tf.doc_idx]
        fg = sorted_member_mask(matched, doc_ids).astype(np.int64)
        t = pa.table({"term": tf.terms, "bg": np.ones(len(fg), np.int64),
                      "fg": fg})
        part = _partial_sums(t, ["term"], {"bg": "bg", "fg": "fg"})
        sent = pa.table({"term": pa.array([NDOCS_KEY], pa.string()),
                         "bg": pa.array([len(np.unique(tf.doc_idx))],
                                        pa.int64()),
                         "fg": pa.array([0], pa.int64())})
        return pa.concat_tables([part, sent])

    t = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
         .map_batches(flags, batch_format="pyarrow")
         .groupby("term").aggregate(Sum("bg", alias_name="bg"),
                                    Sum("fg", alias_name="fg"))
         .to_pandas())  # vocab-sized (bounded), documented
    sent = t[t["term"] == NDOCS_KEY]
    n_bg = int(sent["bg"].iloc[0]) if len(sent) else 0
    t = t[(t["term"] != NDOCS_KEY) & (t["fg"] > 0)]
    if n_bg == 0 or len(t) == 0:
        return empty
    ratio = ((t["fg"].to_numpy().astype(np.float64) / n_fg)
             / (t["bg"].to_numpy().astype(np.float64) / n_bg))
    t = t.assign(ratio_micros=np.floor(ratio * 1e6 + 0.5).astype(np.int64))
    t = t.sort_values(["ratio_micros", "term"],
                      ascending=[False, True]).head(SIG_K)
    return pa.table({
        "term": pa.array(t["term"].tolist(), pa.string()),
        "fg_df": pa.array(t["fg"].tolist(), pa.int64()),
        "bg_df": pa.array(t["bg"].tolist(), pa.int64()),
        "ratio_micros": pa.array(t["ratio_micros"].tolist(), pa.int64()),
    })


SAMPLER_PLAIN_K = 100  # plain sampler shard_size


def sampler_agg(sf_dir: str):
    """ES ``sampler`` aggregation: a deterministic SAMPLER_PLAIN_K-doc
    sample by the reproducible per-doc hash (md5-low64 of
    'samp:'||doc_id — the diversified_sampler convention WITHOUT the
    per-source diversity cap), feeding a sub-aggregation per lang
    (count + integer floor-avg n_chars) — ES returns the sub-agg over
    the sample, not the sample itself. Map-side per-block top-K keeps
    the driver fold at blocks×K candidates."""
    from ..functions.dedup import md5_low64

    def part(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        h = md5_low64(np.array([f"samp:{i}" for i in ids], dtype=object)
                      ).astype(np.uint64)
        df = pd.DataFrame({
            "doc_id": ids,
            "lang": b["lang"].combine_chunks().to_pylist(),
            "n_chars": np.asarray(b["n_chars"].combine_chunks()
                                  ).astype(np.int64),
            "h_hi": (h >> np.uint64(32)).astype(np.int64),
            "h_lo": (h & np.uint64(0xFFFFFFFF)).astype(np.int64),
        })
        df = df.sort_values(["h_hi", "h_lo", "doc_id"]
                            ).head(SAMPLER_PLAIN_K)
        return pa.Table.from_pandas(df, preserve_index=False)

    cands = (rd.read_parquet(_docs(sf_dir),
                             columns=["doc_id", "lang", "n_chars"])
             .map_batches(part, batch_format="pyarrow")
             .to_pandas())  # ≤ blocks × K
    kept = cands.sort_values(["h_hi", "h_lo", "doc_id"]
                             ).head(SAMPLER_PLAIN_K)
    g = (kept.groupby("lang", as_index=False)
         .agg(n=("doc_id", "size"), sum_chars=("n_chars", "sum"))
         .sort_values("lang"))
    return pa.table({
        "lang": pa.array(g["lang"].tolist(), pa.string()),
        "n": pa.array(g["n"].to_numpy(np.int64)),
        "avg_chars_micros": pa.array(
            g["sum_chars"].to_numpy(np.int64) * 1_000_000
            // g["n"].to_numpy(np.int64)),
    })


IP_RANGE_EDGES = (1 << 30, 2 << 30, 3 << 30)  # 64.0.0.0 / 128.* / 192.*


def ip_range_agg(sf_dir: str):
    """ES ``ip_range`` aggregation over hash-derived IPv4 addresses
    (md5-low64 of 'ip:'||c_custkey mod 2³² — the repo's synthetic-
    attribute convention, geo_distance's sibling): bucket counts +
    min/max address per range, all integer. Map-side partial sums per
    bucket; ≤ 4 rows shuffle per batch."""
    from ..functions.dedup import md5_low64

    edges = np.array(IP_RANGE_EDGES, dtype=np.int64)

    def part(b: pa.Table) -> pa.Table:
        ck = np.asarray(b["c_custkey"].combine_chunks()).astype(np.int64)
        ip = (md5_low64(np.array([f"ip:{c}" for c in ck], dtype=object))
              % np.uint64(1 << 32)).astype(np.int64)
        bucket = np.searchsorted(edges, ip, side="right").astype(np.int64)
        df = pd.DataFrame({"bucket": bucket, "ip": ip})
        g = (df.groupby("bucket", as_index=False)
             .agg(n=("ip", "size"), min_ip=("ip", "min"),
                  max_ip=("ip", "max")))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Max, Min

    t = (rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey"])
         .map_batches(part, batch_format="pyarrow")
         .groupby("bucket")
         .aggregate(Sum("n", alias_name="n"),
                    Min("min_ip", alias_name="min_ip"),
                    Max("max_ip", alias_name="max_ip"))
         .to_pandas().sort_values("bucket"))
    return pa.table({
        "bucket": pa.array(t["bucket"].to_numpy(np.int64)),
        "n": pa.array(t["n"].to_numpy(np.int64)),
        "min_ip": pa.array(t["min_ip"].to_numpy(np.int64)),
        "max_ip": pa.array(t["max_ip"].to_numpy(np.int64)),
    })


MOVP_W = 6  # moving_percentiles window (buckets, incl. current)


def moving_percentiles_pipeline(sf_dir: str):
    """ES ``moving_percentiles`` pipeline aggregation (the median
    case): over the monthly order histogram in (y, m) order, the LOWER
    MEDIAN of the trailing MOVP_W-bucket window — integer-exact (the
    sorted window's element at 1-based position (len+1)//2, so both
    engines pick the same element; no interpolation)."""
    t = orders_by_month(sf_dir).to_pandas()
    order = np.lexsort((t["m"].to_numpy(), t["y"].to_numpy()))
    t = t.iloc[order].reset_index(drop=True)
    n = t["n_orders"].to_numpy(np.int64)
    med = np.empty(len(n), np.int64)
    for i in range(len(n)):
        win = np.sort(n[max(0, i - MOVP_W + 1):i + 1])
        med[i] = win[(len(win) - 1) // 2]  # lower median
    return pa.table({
        "y": pa.array(t["y"].to_numpy(np.int64)),
        "m": pa.array(t["m"].to_numpy(np.int64)),
        "n": pa.array(n),
        "moving_median": pa.array(med),
    })


MLT_UNLIKE_DOC = 2


def mlt_unlike_search(sf_dir: str):
    """ES ``more_like_this`` with ``unlike``: the negative example's
    terms VETO candidate terms — the query is the top-5 TF-IDF terms
    of MLT_DOC drawn after dropping every term the unlike doc
    contains, and both example docs are filtered from the results.
    Same term-selection and retrieval chain as more_like_this
    otherwise (integer tf/df ties, bitwise-shared ln)."""
    eng = _index_for(sf_dir)
    t = pq.read_table(_docs(sf_dir), columns=["doc_id", "text"],
                      filters=[("doc_id", "=", MLT_DOC)])
    tf = term_frequencies(t["text"].combine_chunks())
    terms = np.asarray(tf.vocab.to_pylist(), dtype=object)[tf.codes]
    ut = pq.read_table(_docs(sf_dir), columns=["text"],
                       filters=[("doc_id", "=", MLT_UNLIKE_DOC)])
    veto = set(clean_query(ut["text"][0].as_py(), max_tokens=None))
    keep = ~np.isin(terms, np.array(sorted(veto), dtype=object)) \
        if veto else np.ones(len(terms), bool)
    terms, tfs = terms[keep], tf.tf[keep]
    if len(terms) == 0:
        return _hits_table([])
    df_pd = term_df(sf_dir).to_pandas()  # vocab-sized
    n_docs = pq.read_metadata(_docs(sf_dir)).num_rows
    idf = pd.Series(
        np.log(float(n_docs) / df_pd["df"].to_numpy(np.float64)),
        index=df_pd["term"].to_numpy())
    score = tfs.astype(np.float64) * idf.reindex(terms).to_numpy()
    top = np.lexsort((terms, -score))[:5]
    qterms = [str(x) for x in terms[top]]
    res = eng.search(" ".join(qterms), 12, method="exhaustive")
    out = [(d, s) for d, s in res
           if d not in (MLT_DOC, MLT_UNLIKE_DOC)][:10]
    return _hits_table(out)


PERCOLATE_DSL_QUERIES = (
    "merge AND sort",
    "join AND NOT window",
    "( spark OR batch ) AND filter",
    "quer* AND NOT stream",
)


def percolate_dsl(sf_dir: str):
    """Boolean-DSL percolation: every doc matched against STORED
    queries carrying full boolean structure (AND / OR / NOT / parens /
    prefix* atoms) — the alerting upgrade over conjunctive percolate.
    Stored queries parse with the search grammar, so each percolates
    exactly its search_boolean_dsl set. Pure map-side: per batch, each
    tree folds membership masks, one per distinct atom on first use
    (vectorized equality / starts_with scatter); no index, no shuffle.
    A phrase or boosted atom raises ValueError (no positions here)."""
    from ..query import _fold_query, _parse_query_string

    trees = [_parse_query_string(q) for q in PERCOLATE_DSL_QUERIES]
    ops = {"and": np.logical_and, "or": np.logical_or,
           "and_not": lambda a, b: a & ~b, "not": np.logical_not}

    def match(b: pa.Table) -> pa.Table:
        flat, doc_idx, _ = tokenize_array(b["text"].combine_chunks())
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        masks = {}

        def leaf(node, positive):
            if node[0] == "phrase" or (node[0] == "term" and node[2] != 1):
                raise ValueError(
                    f"percolate query atom {node} needs positions or "
                    "scores")
            if node[:2] not in masks:
                fn = pc.equal if node[0] == "term" else pc.starts_with
                has = np.zeros(b.num_rows, dtype=bool)
                has[doc_idx[np.asarray(fn(flat, node[1])).astype(bool)]] = True
                masks[node[:2]] = has
            return masks[node[:2]]

        oks = [_fold_query(t, leaf, ops) for t in trees]
        return pa.table({
            "doc_id": pa.array(np.concatenate([ids[ok] for ok in oks]),
                               pa.int64()),
            "query_id": pa.array(np.concatenate(
                [np.full(int(ok.sum()), qi, dtype=np.int64)
                 for qi, ok in enumerate(oks)]), pa.int64()),
        })

    # a bad stored atom raises here, in the driver, not inside a task
    match(pa.table({"doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string())}))
    t = (rd.read_parquet(_docs(sf_dir), columns=["doc_id", "text"])
         .map_batches(match, batch_format="pyarrow")
         .to_pandas().sort_values(["query_id", "doc_id"]))
    return pa.table({
        "doc_id": pa.array(t["doc_id"].to_numpy(np.int64)),
        "query_id": pa.array(t["query_id"].to_numpy(np.int64)),
    })


VWH_K = 6  # variable_width_histogram bucket count


def _dim0_micros_batch(b: pa.Table) -> pa.Table:
    """Per-vector FIRST-COORDINATE micros — the 1-D value the adaptive
    histogram clusters (scale-stable: the embeddings table is
    identical at every sf; the L2 norm is useless here — the vectors
    are unit-normalized, so every norm is exactly 1.0). A single
    stored float has no summation-order hazard: to_micros(x[0]) is
    bitwise the SQL's floor(embedding[1]·1e6 + 0.5)."""
    from ..functions.similarity import _emb_matrix

    x = _emb_matrix(b, "embedding")
    nv = to_micros(x[:, 0])
    return pa.table({
        "vec_id": b["vec_id"],
        "nv": pa.array(nv, pa.int64()),
    })


def variable_width_histogram(sf_dir: str):
    """ES ``variable_width_histogram``: bucket bounds come from 1-D
    k-means over the values instead of fixed intervals — buckets
    follow the data's modes. Values = first-coordinate micros of the
    embeddings;
    centroids train driver-side on the collected value column (bounded
    here; at corpus scale the mergeable-partials trainer in
    functions.ivf runs the same Lloyd's distributed), then ONE
    broadcast-assignment pass emits per-bucket count/min/max partials.
    Oracle replays the assignment from centroid literals (the knn_ivf
    pattern); the only cross-engine float surface is the |v−c|
    argmin (the value itself is one stored float, micros-exact).
    sf0.01-oracled ONLY (the knn_ivf precedent): the centroid literals
    are data-dependent and the sf0.001 embeddings differ, so a manual
    sf0.001 selfcheck mismatches by construction — the driver grades
    at sf0.01."""
    from ..functions.quantiles import kmeans_1d

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    vals = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
            .map_batches(_dim0_micros_batch, batch_format="pyarrow")
            .to_pandas())  # value column only — bounded (see docstring)
    cents = kmeans_1d(vals["nv"].to_numpy(np.int64), VWH_K)
    import ray as _ray
    c_ref = _ray.put(cents)

    def part(b: pa.Table) -> pa.Table:
        c = _ray.get(c_ref)
        t = _dim0_micros_batch(b)
        nv = np.asarray(t["nv"]).astype(np.int64)
        a = np.argmin(np.abs(nv[:, None].astype(np.float64)
                             - c[None, :]), axis=1)
        df = pd.DataFrame({"bucket": a.astype(np.int64), "nv": nv})
        g = (df.groupby("bucket", as_index=False)
             .agg(n=("nv", "size"), min_v=("nv", "min"),
                  max_v=("nv", "max")))
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Max, Min

    t = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
         .map_batches(part, batch_format="pyarrow")
         .groupby("bucket")
         .aggregate(Sum("n", alias_name="n"),
                    Min("min_v", alias_name="min_v"),
                    Max("max_v", alias_name="max_v"))
         .to_pandas().sort_values("bucket"))
    return pa.table({
        "bucket": pa.array(t["bucket"].to_numpy(np.int64)),
        "n": pa.array(t["n"].to_numpy(np.int64)),
        "min_v": pa.array(t["min_v"].to_numpy(np.int64)),
        "max_v": pa.array(t["max_v"].to_numpy(np.int64)),
    })


D4_KEEP_NUM, D4_KEEP_DEN = 4, 5  # keep the 4/5 LEAST prototypical


def prototype_prune(sf_dir: str):
    """D4-style data pruning (public arXiv:2308.12284 — SemDeDup then
    SSL-prototype pruning): after the semdedup keep-first pass, each
    cell drops its most PROTOTYPICAL survivors — the points closest to
    their cluster centroid carry the least marginal information, so
    per cell the ⌈n·1/5⌉ nearest-to-centroid survivors are pruned and
    the 4/5 farthest kept (ties by vec_id — farther survives).
    Assignment replays from centroid literals in the oracle (the
    knn_ivf convention); the GRADED d² column uses the direct
    difference form on both sides (see the in-body comment). Output: every alive vector with its cell,
    semdedup keep flag, and the final D4 keep flag. sf0.01-oracled
    ONLY (the variable_width_histogram class): d² against the literal
    centroids is data-dependent and the sf0.001 embeddings differ."""
    from ..functions.ivf import centroid_d2
    from ..functions.similarity import _emb_matrix

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    idx = _ivf_for(sf_dir)
    sem = idx.semdedup(SEMDEDUP_T_MICROS).to_pandas()  # bounded here
    cents = idx.centroids
    import ray as _ray
    c_ref = _ray.put(cents)
    keep_map = dict(zip(sem["vec_id"], sem["keep"]))
    k_ref = _ray.put(keep_map)

    def dists(b: pa.Table) -> pa.Table:
        c = _ray.get(c_ref)
        km = _ray.get(k_ref)
        ids = np.asarray(b["vec_id"].combine_chunks()).astype(np.int64)
        x = _emb_matrix(b, "embedding")
        cell = np.argmin(centroid_d2(x, c), axis=1).astype(np.int64)
        # graded d² uses the DIRECT Σ(x−c)² form — the expanded
        # x²−2xc+c² suffers catastrophic cancellation near centroids,
        # which is exactly where this entry ranks; residual risk vs
        # the oracle's squared list_distance is the usual sub-micro
        # sum-order jitter (the sim_micros class), not cancellation
        diff = x - c[cell]
        dd = (diff * diff).sum(axis=1)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cell": pa.array(cell, pa.int64()),
            "d2_micros": pa.array(to_micros(dd), pa.int64()),
            "sem_keep": pa.array(
                np.array([km.get(int(i), 0) for i in ids], np.int64)),
        })

    t = (rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
         .map_batches(dists, batch_format="pyarrow")
         .to_pandas())  # n rows at conformance scale; a sink at 100 TB
    t = t.sort_values("vec_id").reset_index(drop=True)
    keep = np.zeros(len(t), np.int64)
    for cell, g in t[t["sem_keep"] == 1].groupby("cell"):
        # farthest-from-centroid survive; ties → larger vec_id farther
        order = np.lexsort((-g["vec_id"].to_numpy(np.int64),
                            -g["d2_micros"].to_numpy(np.int64)))
        n_keep = (len(g) * D4_KEEP_NUM) // D4_KEEP_DEN
        keep[g.index.to_numpy()[order[:n_keep]]] = 1
    return pa.table({
        "vec_id": pa.array(t["vec_id"].to_numpy(np.int64)),
        "cell": pa.array(t["cell"].to_numpy(np.int64)),
        "d2_micros": pa.array(t["d2_micros"].to_numpy(np.int64)),
        "sem_keep": pa.array(t["sem_keep"].to_numpy(np.int64)),
        "keep": pa.array(keep),
    })


def retriever_tree_search(sf_dir: str):
    """ES 8.x retriever-TREE composition: reciprocal-rank fusion over
    THREE heterogeneous legs — the BM25 lexical top-10, the
    hash-embedding cosine top-10, and the LM-Dirichlet top-10 (a
    different ranking FAMILY through the registry hook) — rrf =
    Σ coalesce(1/(60+r_leg), 0) in fixed leg order (bm25, knn, lm).
    Each leg is an existing audited retriever; fusion touches ≤30 rows
    on the driver. The rank-based fusion needs no score normalization
    across families — exactly why ES trees default to RRF."""
    bt = bm25_topk(sf_dir)
    b_rank = dict(zip(bt["doc_id"].to_pylist(), bt["rank"].to_pylist()))
    kt = _hashed_cosine_top10(sf_dir, BM25_QUERY)
    k_rank = {int(d): i + 1
              for i, d in enumerate(kt["doc_id"].to_numpy())}
    eng = _index_for(sf_dir)
    lm = eng.search(BM25_QUERY, 10, scorer="lm_dirichlet")
    l_rank = {int(d): i + 1 for i, (d, _) in enumerate(lm)}
    return _rrf_fuse([b_rank, k_rank, l_rank])
