"""Per-layer probe: the last pass of every traced run.

It calls each layer's public functions on the workload's own corpus,
index, engine and queries, so every per-layer metric exists on every
workload and reads that workload's inputs. It runs after the timed
blocks and the output checks, and its append, delete and compact calls
change the workload's index, so nothing may use the index after it.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from harness import median

TEXT_DOCS = 4000     # documents tokenized and encoded
N_QUERIES = 40       # queries planned, scored and translated
N_FUZZY = 3
N_OPENS = 5
DELETE_EVERY = 5     # the probe deletes every 5th doc it appended


def manifest(index_dir: str) -> dict:
    """A resumable build's ``manifest.json``; read it right after the
    build, before any append rewrites the index."""
    with open(os.path.join(index_dir, "manifest.json")) as f:
        return json.load(f)


def _phase_split(m: dict, cpus: int) -> dict:
    """checkpoint.* from the stamps ``manifest.json`` already records."""
    parts = list(m["partitions"].values())
    shards = list(m["shards"].values())
    p_end = max(p["finished_at"] for p in parts)
    s_end = max(s["finished_at"] for s in shards)
    stats_end = m["phases"]["stats"]["finished_at"]
    td_end = m["phases"]["term_dict"]["finished_at"]
    p_wall = [p["wall_s"] for p in parts]
    s_wall = [s["wall_s"] for s in shards]
    out = {"checkpoint.partitions_s": p_end - m["created_at"],
           "checkpoint.stats_s": stats_end - p_end,
           "checkpoint.shards_s": s_end - stats_end,
           "checkpoint.term_dict_s": td_end - s_end,
           "checkpoint.partition_busy_s": sum(p_wall),
           "checkpoint.shard_busy_s": sum(s_wall),
           "checkpoint.partition_skew": max(p_wall) / max(median(p_wall), 1e-3),
           "checkpoint.shard_skew": max(s_wall) / max(median(s_wall), 1e-3)}
    out["checkpoint.partition_utilization"] = (
        out["checkpoint.partition_busy_s"]
        / (out["checkpoint.partitions_s"] * cpus))
    return out


def _text_codec(table: pa.Table, ids: np.ndarray) -> dict:
    """Tokenize the first ``TEXT_DOCS`` documents batch by batch, then
    encode every term's real posting list with the segment codec."""
    from stacksearch_ray.codec import encode_segment
    from stacksearch_ray.text import term_frequencies

    content = table["content"].combine_chunks().slice(0, TEXT_DOCS)
    terms, docs, tfs, lens = [], [], [], []
    t_tok, n_tok = 0.0, 0
    for lo in range(0, len(content), 2048):
        t0 = time.perf_counter()
        tf = term_frequencies(content.slice(lo, 2048))
        t_tok += time.perf_counter() - t0
        n_tok += int(tf.doc_lens.sum())
        terms.append(tf.terms)
        docs.append(ids[lo + tf.doc_idx])
        tfs.append(tf.tf)
        lens.append(tf.doc_lens[tf.doc_idx])
    codes = pa.chunked_array(terms).combine_chunks().dictionary_encode().indices
    codes = np.asarray(codes).astype(np.int64)
    docs, tfs, lens = (np.concatenate(x) for x in (docs, tfs, lens))
    order = np.lexsort((docs, codes))
    codes, docs, tfs, lens = codes[order], docs[order], tfs[order], lens[order]
    bounds = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(codes)]))
    avgdl = n_tok / len(content)
    n_bytes = 0
    t0 = time.perf_counter()
    for s, e in zip(starts.tolist(), ends.tolist()):
        seg = encode_segment(docs[s:e], tfs[s:e], lens[s:e], avgdl)
        n_bytes += len(seg.doc_ids) + len(seg.tfs)
    t_enc = time.perf_counter() - t0
    return {"text.tokenize_tokens_per_s": n_tok / t_tok,
            "codec.encode_postings_per_s": len(codes) / t_enc,
            "codec.bytes_per_posting": n_bytes / len(codes)}


def _decode(index: str, terms: list[str]) -> dict:
    """Decode the queries' encoded segment rows (read untimed)."""
    from stacksearch_ray.codec import decode_doc_ids_batch, decode_tfs_batch

    t = pq.read_table(os.path.join(index, "segments"),
                      columns=["doc_ids", "tfs"],
                      filters=[("term", "in", terms)])
    d, f = t["doc_ids"].to_pylist(), t["tfs"].to_pylist()
    t0 = time.perf_counter()
    ids, _ = decode_doc_ids_batch(d)
    decode_tfs_batch(f)
    return {"codec.decode_postings_per_s":
            len(ids) / (time.perf_counter() - t0)}


def _query(index: str, engine, queries: list[str]) -> dict:
    """What ``plan()`` says the engine, in the state the workload left
    it, would read for the workload's next queries; then both forced
    scorers, query cleaning and the ES translation on the same queries,
    warm; fresh-engine opens; fuzzy ES requests."""
    from stacksearch_ray.es_api import es_search
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.text import clean_query

    plans = [engine.plan(q, 10) for q in queries]
    n_files = len(os.listdir(os.path.join(index, "segments")))
    clean, translate = [], []
    forced = {"exhaustive": [], "bmax": []}
    for q in queries:
        engine.search(q, 10, method="exhaustive")  # warm the terms
        for m, out in forced.items():
            t0 = time.perf_counter()
            engine.search(q, 10, method=m)
            out.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        clean_query(q)
        clean.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        es_search(engine, {"query": {"match": {"content": q}}})
        t1 = time.perf_counter()
        engine.search(q, 10)
        translate.append((t1 - t0) - (time.perf_counter() - t1))
    fuzzy = []
    for q in queries[:N_FUZZY]:
        term = q.split()[-1]
        typo = term[:-1] + ("x" if term[-1] != "x" else "z")
        t0 = time.perf_counter()
        es_search(engine, {"query": {"fuzzy": {"content": {"value": typo}}}})
        fuzzy.append(time.perf_counter() - t0)
    opens = []
    for _ in range(N_OPENS):
        gc.collect()
        t0 = time.perf_counter()
        QueryEngine(index)
        opens.append(time.perf_counter() - t0)
    terms = [t for p in plans for t in p["terms"]]
    cand = [p["candidate_files"] or 0 for p in plans]
    read = [p["files_to_read"] or 0 for p in plans]
    return {
        "text.clean_query_us": median(clean) * 1e6,
        "query.open_ms": median(opens) * 1e3,
        "query.postings_per_query": median([p["n_postings"] for p in plans]),
        "query.bmax_share":
            float(np.mean([p["method"] == "bmax" for p in plans])),
        "query.term_cache_hit_ratio":
            float(np.mean([t["cached"] for t in terms])),
        "query.candidate_files_per_query": float(np.mean(cand)),
        "query.files_read_per_query": float(np.mean(read)),
        "query.file_prune_ratio": 1.0 - float(np.mean(read)) / n_files,
        "query.exhaustive_p50_ms": median(forced["exhaustive"]) * 1e3,
        "query.bmax_p50_ms": median(forced["bmax"]) * 1e3,
        "es_api.translate_us": median(translate) * 1e6,
        "es_api.fuzzy_ms": median(fuzzy) * 1e3,
    }


def _sharded(ctx, index: str, engine, queries: list[str]) -> dict:
    """The queries through a two-worker ``ShardedQueryEngine``, warm,
    against the workload's engine: each sharded answer must equal the
    engine's, and the fan-out cost is the sharded median latency minus
    the engine's."""
    import ray

    from stacksearch_ray.query import ShardedQueryEngine

    sh = ShardedQueryEngine(index, num_workers=2,
                            num_cpus_per_worker=ctx.cpus / 2)
    try:
        sh.search_many(queries, 10)  # warm the workers' caches
        lat, base = [], []
        for q in queries:
            t0 = time.perf_counter()
            got = sh.search(q, 10)
            t1 = time.perf_counter()
            want = engine.search(q, 10)
            base.append(time.perf_counter() - t1)
            lat.append(t1 - t0)
            ctx.check(got == want, f"sharded top-10 differs for {q!r}")
    finally:
        for w in sh.workers:
            ray.kill(w)
    return {"query.sharded_p50_ms": median(lat) * 1e3,
            "query.sharded_fanout_ms": (median(lat) - median(base)) * 1e3}


def _lifecycle(index: str, probe_path: str, probe_ids: np.ndarray) -> dict:
    """Append the probe batch, delete every ``DELETE_EVERY``-th of its
    docs, compact."""
    from stacksearch_ray.append import (append_to_index, compact_index,
                                        delete_from_index)
    from stacksearch_ray.build import index_disk_usage

    t0 = time.perf_counter()
    append_to_index(probe_path, index)
    t_app = time.perf_counter() - t0
    files = len(os.listdir(os.path.join(index, "segments")))
    t0 = time.perf_counter()
    delete_from_index(index, probe_ids[::DELETE_EVERY].tolist())
    t_del = time.perf_counter() - t0
    t0 = time.perf_counter()
    compact_index(index)
    t_cmp = time.perf_counter() - t0
    return {"append.append_docs_per_s": len(probe_ids) / t_app,
            "append.delete_s": t_del,
            "append.compact_s": t_cmp,
            "append.segment_files_after_append": files,
            "append.compact_bytes_rewritten":
                index_disk_usage(index)["segments"]}


def run(ctx, *, corpus, ids: np.ndarray, index: str, built: dict,
        engine, queries: list[str], corpus_dir: str) -> dict:
    """Every per-layer metric except ``trace.*``. ``built`` is the
    manifest of the workload's resumable build, ``engine`` the query
    engine as the workload left it and ``queries`` the texts it would
    send next."""
    from stacksearch_ray.build import index_disk_usage
    from stacksearch_ray.schema import doc_ids_batch
    from stacksearch_ray.text import clean_query

    queries = queries[:N_QUERIES]
    out = _phase_split(built, ctx.cpus)
    du = index_disk_usage(index)
    out.update({"build.segments_bytes": du["segments"],
                "build.docs_bytes": du["docs"],
                "build.term_dict_bytes": du["term_dict"],
                "build.segment_files":
                    len(os.listdir(os.path.join(index, "segments")))})
    out.update(_text_codec(corpus.table, ids))
    out.update(_query(index, engine, queries))
    out.update(_sharded(ctx, index, engine, queries))
    out.update(_decode(index, sorted({t for q in queries
                                      for t in clean_query(q)})))
    p = corpus.probe
    probe_ids = doc_ids_batch(p["repo"].combine_chunks(),
                              p["path"].combine_chunks(),
                              p["commit"].combine_chunks())
    out.update(_lifecycle(index, os.path.join(corpus_dir, "probe.parquet"),
                          np.asarray(probe_ids)))
    return out
