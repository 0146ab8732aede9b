"""Benchmark harness (driver-run per round; see BASELINE.md).

    GRAFT_SF_DIR=/root/testdata/sf0.1 RAY_GRAFT_CPUS=32 python bench.py
    python bench.py --scaling      # N vs 4N CPU scaling evidence

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...per-stage sec...}, "sf": ..., "num_cpus": N}

Headline = end-to-end index build over the sf documents table + golden
query latency + the operator suite. The scaling run uses a larger
deterministic synthetic corpus (cached in /tmp) so compute dominates
fixed session overhead, and times build phases only (corpus generation
and ray.init excluded).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_ROWS = int(os.environ.get("GRAFT_BENCH_ROWS", "400000"))
BENCH_LINES = (10, 80)  # heavier docs than the test corpus
# Partition (file) size is BOUNDED as the corpus grows — constant work
# and constant working set per task. Letting partitions grow with the
# dataset (rows//64) measurably degrades concurrent build throughput
# (0.17→0.36 ms/row at 62.5k-row partitions × 8 workers: cache/bandwidth
# contention on the per-task sort+dictionary working set; measured, see
# BASELINE.md doubling note) — the same rule a 100 TB ingest follows.
ROWS_PER_FILE = min(31_250, max(6_250, BENCH_ROWS // 64))
SCALE_CORPUS = f"/tmp/ssr_bench_corpus_{BENCH_ROWS}_f{ROWS_PER_FILE}"
SCALE_SHARDS = 64

# Scaling levels (N vs 4N). This sandbox VM advertises 32 vCPUs but
# measurably degrades beyond ~16 concurrent CPU-bound workers (kernel
# system-time inflation: 881 CPU-s system vs 58 CPU-s user at 32 procs,
# plus hypervisor steal) — so the clean N→4N proxy here is 2 vs 8, where
# per-task CPU time is flat (see BASELINE.md). Override via env.
SCALE_LO = int(os.environ.get("GRAFT_SCALE_LO", "2"))
SCALE_HI = int(os.environ.get("GRAFT_SCALE_HI", "8"))

# Single-node task-pool cap: beyond this the sandbox kernel thrashes
# (measured above). On a real multi-node cluster this cap would be
# per-node, not global.
MAX_TASKS = min(16, NUM_CPUS)

GOLDEN_QUERIES = [
    "merge sort join stream window",
    "spark query filter batch group",
    "fast key order table scan",
    "customer data row slow hash",
]


def _ensure_scale_corpus() -> str:
    marker = os.path.join(SCALE_CORPUS, "_DONE")
    if not os.path.exists(marker):
        from stacksearch_ray.corpus import write_corpus

        shutil.rmtree(SCALE_CORPUS, ignore_errors=True)
        write_corpus(SCALE_CORPUS, BENCH_ROWS, rows_per_file=ROWS_PER_FILE,
                     lines=BENCH_LINES)
        open(marker, "w").write("ok")
    return SCALE_CORPUS


SCALE_ONLY = os.environ.get("GRAFT_SCALE_ONLY") == "1"


def _sweep_stale_tmp() -> None:
    """Remove bench artifacts left by dead runs: stale multi-GB /tmp
    trees cost ~2x on build_scale via page-cache/writeback pressure
    (measured, BASELINE.md). The shared scale corpus (_DONE-marked) and
    the conformance cache are kept."""
    import glob

    pid = str(os.getpid())
    for path in glob.glob("/tmp/ssr_bench_*idx_*"):
        if not path.endswith(f"_{pid}"):
            shutil.rmtree(path, ignore_errors=True)
    for path in glob.glob(f"/tmp/ssr_bench_corpus_*"):
        if os.path.basename(path) != os.path.basename(SCALE_CORPUS):
            shutil.rmtree(path, ignore_errors=True)


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Keep the executor out of the >16-worker thrash regime (BASELINE.md;
    # the measured host cap, applied as the executor CPU budget).
    from stacksearch_ray.runtime import cap_execution_cpus

    cap_execution_cpus(MAX_TASKS)

    import ray.data as rd

    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import BM25SearchActor, QueryEngine

    timings: dict[str, float] = {}
    docs_path = os.path.join(SF_DIR, "documents.parquet")
    _sweep_stale_tmp()
    if SCALE_ONLY:
        return _scale_build_only(ray, rd, timings)

    # warm page cache + worker imports (untimed): the first map task in
    # each NEW worker process pays the heavy library imports (~1.5 s
    # measured), so force the full MAX_TASKS worker pool to spawn and
    # import up front — otherwise the first few timed entries absorb the
    # spawn cost (term_counts measured 5.3 s cold vs 1.4 s warm).
    # (BASELINE.md protocol excludes one-time session overhead.)
    rd.read_parquet(docs_path).count()

    def _warm(batch):
        from stacksearch_ray.pipelines import documents as _P  # noqa: F401
        from stacksearch_ray import build as _b, query as _q  # noqa: F401
        time.sleep(0.5)  # hold the worker so all MAX_TASKS slots spawn
        return batch

    rd.range(MAX_TASKS, override_num_blocks=MAX_TASKS).map_batches(
        _warm, batch_format="pyarrow").count()
    warm_idx = f"/tmp/ssr_bench_warm_idx_{os.getpid()}"
    shutil.rmtree(warm_idx, ignore_errors=True)
    build_index(rd.read_parquet(docs_path).limit(200), warm_idx,
                content_col="text", id_col="doc_id",
                meta_cols=("lang", "source"), num_shards=8)
    shutil.rmtree(warm_idx, ignore_errors=True)

    # ---- index build over the sf documents table ----
    idx_dir = f"/tmp/ssr_bench_idx_{os.getpid()}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    t0 = time.time()
    build_index(docs_path, idx_dir, content_col="text", id_col="doc_id",
                meta_cols=("lang", "source"), num_shards=8)
    timings["build_documents"] = time.time() - t0

    # ---- cold first query: fresh engine, no seg cache, no sidecar map
    # (the file-pruned cold path; BASELINE.md "Cold-query latency").
    # build_index now emits the sidecar eagerly, so DELETE it first —
    # otherwise this measures the mapped path twice ----
    sidecar = os.path.join(idx_dir, "seg_bucket_map.json")
    if os.path.exists(sidecar):
        os.remove(sidecar)
    t0 = time.time()
    QueryEngine(idx_dir).search(GOLDEN_QUERIES[0], 10, "auto")
    timings["query_first_cold"] = time.time() - t0
    t0 = time.time()  # second fresh engine: sidecar map now persisted
    QueryEngine(idx_dir).search(GOLDEN_QUERIES[1], 10, "auto")
    timings["query_first_cold_mapped"] = time.time() - t0

    # ---- query latency (warm engine, p50 over golden set) ----
    eng = QueryEngine(idx_dir)
    for q in GOLDEN_QUERIES:  # warm segment cache
        eng.search(q, 10, "auto")
        eng.search(q, 10, "bmax")
    for method in ("auto", "bmax"):
        lat = []
        for _ in range(50):
            for q in GOLDEN_QUERIES:
                t0 = time.time()
                eng.search(q, 10, method)
                lat.append(time.time() - t0)
        suffix = "" if method == "auto" else "_bmax"
        timings[f"query_p50{suffix}"] = statistics.median(lat)
        timings[f"query_p95{suffix}"] = statistics.quantiles(lat, n=20)[18]

    # ---- filtered retrieval latency (selective postings-probe plan) ----
    import numpy as np

    allowed = eng.doclens.ids[::max(1, len(eng.doclens.ids) // 100)][:100]
    eng.search_filtered(GOLDEN_QUERIES[0], 10, allowed_doc_ids=allowed)
    lat = []
    for _ in range(50):
        for q in GOLDEN_QUERIES:
            t0 = time.time()
            eng.search_filtered(q, 10, allowed_doc_ids=allowed)
            lat.append(time.time() - t0)
    timings["query_p50_filtered100"] = statistics.median(lat)

    # ---- batch query throughput via actor pool ----
    qds = rd.from_items([{"query": GOLDEN_QUERIES[i % len(GOLDEN_QUERIES)]}
                         for i in range(400)]).repartition(8)
    t0 = time.time()
    qds.map_batches(BM25SearchActor, batch_format="pyarrow", batch_size=50,
                    concurrency=4,
                    fn_constructor_kwargs={"index_dir": idx_dir, "k": 10},
                    ).count()
    timings["batch_query_400"] = time.time() - t0

    # ---- operator suite over sf tables ----
    from stacksearch_ray.pipelines import documents as P

    S = P.search_entries()
    for name, fn in [("term_counts", P.term_counts),
                     ("exact_dedup", P.exact_dedup),
                     ("dedup_corpus", P.dedup_corpus),
                     ("curated_corpus", P.curated_corpus),
                     ("embedding_dedup_corpus", P.embedding_dedup_corpus),
                     ("minhash_clusters", P.minhash_clusters),
                     ("minhash_search", P.minhash_search),
                     ("knn_cosine", P.knn_cosine),
                     ("token_stats", P.token_stats),
                     ("text_knn", P.text_knn),
                     ("semantic_knn", P.semantic_knn),
                     ("orders_lineitem_join", P.orders_lineitem_join),
                     ("events_asof", P.events_asof),
                     ("events_range_join", P.events_range_join),
                     ("events_rolling", P.events_rolling),
                     ("heavy_terms", P.heavy_terms),
                     ("knn_ivf", P.knn_ivf),
                     ("lineitem_semi", P.lineitem_semi),
                     ("lineitem_anti", P.lineitem_anti),
                     ("quantiles_by_type", P.quantiles_by_type),
                     ("value_quantiles", P.value_quantiles),
                     ("contamination_hits", P.contamination_hits),
                     ("edit_pairs", P.edit_pairs),
                     ("tfidf_keywords", P.tfidf_keywords),
                     ("bigram_logprob", P.bigram_logprob),
                     ("dup_ngram_stats", P.dup_ngram_stats),
                     ("ingest_dedup", P.ingest_dedup),
                     ("bpe_encode_stats", P.bpe_encode_stats),
                     ("near_search", P.near_search),
                     ("percolate", P.percolate),
                     ("global_shuffle", P.global_shuffle),
                     ("wildcard_search", P.wildcard_search),
                     ("min_window_search", P.min_window_search),
                     ("synonym_search", S["synonym_search"]),
                     ("prf_search", S["prf_search"]),
                     ("spellfix_search", P.spellfix_search),
                     ("min_match_search", S["min_match_search"]),
                     ("feature_boost_search", P.feature_boost_search),
                     ("dismax_search", P.dismax_search),
                     ("stemmed_search", P.stemmed_search),
                     ("ir_eval", P.ir_eval),
                     ("embedding_decontamination",
                      P.embedding_decontamination),
                     ("sloppy_phrase_search", P.sloppy_phrase_search),
                     ("proximity_boost_search", S["proximity_boost_search"]),
                     ("collapse_search", P.collapse_search),
                     ("boolean_dsl_search", P.boolean_dsl_search),
                     ("sorted_boolean_search", P.sorted_boolean_search),
                     ("phrase_ranked_search", S["phrase_ranked_search"]),
                     ("bm25plus_search", S["bm25plus_search"]),
                     ("bool_query_search", P.bool_query_search),
                     ("knn_pq", P.knn_pq),
                     ("pq_dedup_groups", P.pq_dedup_groups),
                     ("content_substring_search", P.content_substring_search),
                     ("content_regex_search", P.content_regex_search),
                     ("bm25f_search", P.bm25f_search),
                     ("term_vectors", P.term_vectors),
                     ("dsir_weights", P.dsir_weights),
                     ("search_after_page", P.search_after_page),
                     ("neardup_keep_longest", P.neardup_keep_longest),
                     ("knn_bq", P.knn_bq),
                     ("knn_bq_rerank", P.knn_bq_rerank),
                     ("rescore_search", S["rescore_search"]),
                     ("coord_search", S["coord_search"]),
                     ("decay_search", P.decay_search),
                     ("cross_fields_search", P.cross_fields_search),
                     ("shipping_priority", P.shipping_priority),
                     ("returned_items", P.returned_items)]:
        t0 = time.time()
        res = fn(SF_DIR)
        if hasattr(res, "count"):
            res.count()  # consume the lazy Dataset
        timings[name] = time.time() - t0

    # ---- scale corpus build: the scaling-evidence workload, through the
    # resumable (checkpointed, sort-free) build path ----
    from stacksearch_ray.checkpoint import build_index_resumable

    corpus = _ensure_scale_corpus()
    rd.read_parquet(corpus).count()  # warm
    scale_idx = f"/tmp/ssr_bench_scale_idx_{os.getpid()}"
    shutil.rmtree(scale_idx, ignore_errors=True)
    t0 = time.time()
    build_index_resumable(corpus, scale_idx, num_shards=SCALE_SHARDS,
                          files_per_partition=1, concurrency=MAX_TASKS)
    timings["build_scale_corpus"] = time.time() - t0
    timings["build_scale_docs_per_s"] = BENCH_ROWS / timings["build_scale_corpus"]

    # ---- distributed query serving on the scale index ----
    from stacksearch_ray.query import ShardedQueryEngine

    sharded = ShardedQueryEngine(scale_idx, num_workers=min(8, MAX_TASKS))
    scale_queries = ["def return var_1 helper_3", "var_7 helper_11 field_13",
                     "import class field_7", "for if var_100 helper_50"]
    sharded.warm(scale_queries)
    lat = []
    for _ in range(10):
        for q in scale_queries:
            t0 = time.time()
            sharded.search(q, 10)
            lat.append(time.time() - t0)
    timings["query_p50_sharded_scale"] = statistics.median(lat)

    # ---- term-routed serving: rare-term queries skip workers whose
    # bitmap can't hold the term (BASELINE.md "term-routed fan-out") ----
    t0 = time.time()
    sharded.enable_term_routing()
    timings["routing_init"] = time.time() - t0
    import pyarrow.parquet as pq

    td = (pq.read_table(os.path.join(scale_idx, "term_dict"),
                        columns=["term", "df"]).to_pandas()
          .sort_values(["df", "term"]))
    rare_queries = td[td["df"] >= 1]["term"].tolist()[:4]
    for q in rare_queries:
        sharded.search(q, 10)
    lat = []
    for _ in range(10):
        for q in rare_queries:
            t0 = time.time()
            sharded.search(q, 10)
            lat.append(time.time() - t0)
    timings["query_p50_sharded_routed_rare"] = statistics.median(lat)

    shutil.rmtree(idx_dir, ignore_errors=True)
    shutil.rmtree(scale_idx, ignore_errors=True)
    ray.shutdown()

    headline = (timings["build_documents"] + timings["build_scale_corpus"]
                + timings["batch_query_400"])
    return {
        "metric": "index-build + BM25 query (documents + synthetic corpus)",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": {k: round(v, 4) for k, v in timings.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_rows": BENCH_ROWS,
    }


def _scale_build_only(ray, rd, timings: dict) -> dict:
    from stacksearch_ray.checkpoint import build_index_resumable

    corpus = _ensure_scale_corpus()
    rd.read_parquet(corpus).count()  # warm
    scale_idx = f"/tmp/ssr_bench_scale_idx_{os.getpid()}"
    shutil.rmtree(scale_idx, ignore_errors=True)
    t0 = time.time()
    build_index_resumable(corpus, scale_idx, num_shards=SCALE_SHARDS,
                          files_per_partition=1, concurrency=MAX_TASKS)
    timings["build_scale_corpus"] = time.time() - t0
    timings["build_scale_docs_per_s"] = BENCH_ROWS / timings["build_scale_corpus"]
    shutil.rmtree(scale_idx, ignore_errors=True)
    ray.shutdown()
    return {
        "metric": "scale-corpus index build",
        "value": round(timings["build_scale_corpus"], 3),
        "unit": "sec",
        "queries": {k: round(v, 4) for k, v in timings.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_rows": BENCH_ROWS,
    }


def _wait_for_quiet(max_wait_s: int = 120, load_target: float = 1.5) -> None:
    """Residual load from an immediately-preceding run skews the scaling
    measurement (measured: 0.63 vs 0.87+ on the same code); wait for the
    1-minute load average to settle before timing."""
    t0 = time.time()
    while time.time() - t0 < max_wait_s:
        if os.getloadavg()[0] < load_target:
            return
        time.sleep(5)


def _run_scale_subprocess(ncpu: int, rows: int) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
               GRAFT_BENCH_ROWS=str(rows), GRAFT_SCALE_ONLY="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_scaling() -> dict:
    """Same job + same input at N and 4N CPUs in fresh processes (sandbox
    proxy for N vs 4N nodes); efficiency from the scale-corpus build
    throughput. Levels default to 2 vs 8 — see SCALE_LO note above.

    Protocol (round-2 hygiene): GRAFT_SCALE_REPEATS quiet runs per level
    (default 3), headline efficiency computed from per-level MEDIANS and
    capped at 1.0 (an efficiency above 1.0 is host-jitter artifact, not
    pipeline signal); min-of-runs efficiency reported alongside and the
    FULL run distribution persisted to BENCH/scaling_latest.json
    (per-round snapshots are copied to scaling_r{N}.json manually)."""
    _ensure_scale_corpus()  # shared, warmed input
    repeats = int(os.environ.get("GRAFT_SCALE_REPEATS", "3"))

    runs: dict[int, list[float]] = {}
    for ncpu in (SCALE_LO, SCALE_HI):
        runs[ncpu] = []
        for _ in range(repeats):
            _wait_for_quiet()
            r = _run_scale_subprocess(ncpu, BENCH_ROWS)
            runs[ncpu].append(r["queries"]["build_scale_corpus"])
    med = {n: statistics.median(v) for n, v in runs.items()}
    mn = {n: min(v) for n, v in runs.items()}
    ratio = SCALE_HI / SCALE_LO
    eff_median = (med[SCALE_LO] / med[SCALE_HI]) / ratio
    eff_min = (mn[SCALE_LO] / mn[SCALE_HI]) / ratio
    result = {
        "metric": f"scaling efficiency (build, {SCALE_LO} vs {SCALE_HI} cpus)",
        "scaling_efficiency": round(min(eff_median, 1.0), 3),
        "efficiency_from_medians": round(eff_median, 3),
        "efficiency_from_mins": round(eff_min, 3),
        f"sec_{SCALE_LO}": med[SCALE_LO],
        f"sec_{SCALE_HI}": med[SCALE_HI],
        f"docs_per_s_{SCALE_LO}": round(BENCH_ROWS / med[SCALE_LO], 1),
        f"docs_per_s_{SCALE_HI}": round(BENCH_ROWS / med[SCALE_HI], 1),
        "runs_sec": {str(n): [round(x, 2) for x in v]
                     for n, v in runs.items()},
        "repeats": repeats,
        "bench_rows": BENCH_ROWS,
        "cpus": [SCALE_LO, SCALE_HI],
    }
    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH", "scaling_latest.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)
    return result


def run_doubling() -> dict:
    """Weak-scaling check one more doubling: build-throughput at M and 2M
    docs on the same CPU level — flat docs/s means no super-linear stage
    (sort/shuffle) is hiding in the build. Persists
    BENCH/doubling_r2.json."""
    levels = [int(x) for x in os.environ.get(
        "GRAFT_DOUBLING_ROWS", "2000000,4000000").split(",")]
    ncpu = int(os.environ.get("GRAFT_DOUBLING_CPUS", str(SCALE_HI)))
    out_levels = []
    for rows in levels:
        _wait_for_quiet()
        r = _run_scale_subprocess(ncpu, rows)
        sec = r["queries"]["build_scale_corpus"]
        out_levels.append({"rows": rows, "sec": round(sec, 2),
                           "docs_per_s": round(rows / sec, 1)})
    ratio = out_levels[-1]["docs_per_s"] / out_levels[0]["docs_per_s"]
    result = {
        "metric": f"doubling throughput (build @ {ncpu} cpus)",
        "levels": out_levels,
        "throughput_ratio_last_over_first": round(ratio, 3),
        "cpus": ncpu,
    }
    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH", "doubling_r2.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--doubling" in sys.argv:
        print(json.dumps(run_doubling()))
    else:
        print(json.dumps(run_bench()))
