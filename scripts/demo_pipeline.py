"""End-to-end cookbook: the full training-data + search lifecycle in one
runnable script — what a user switching from the reference runs today.

    python scripts/demo_pipeline.py [--source <parquet>] [--workdir /tmp/ssr_demo]

Chain: read corpus → quality gate → exact dedup → near-dup clustering →
build BM25 index from the cleaned Dataset → search (single + sharded) →
append a second batch → search again → export token-id training
sequences. Prints a one-line JSON summary per stage.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--source", default="/root/testdata/sf0.01/documents.parquet")
    p.add_argument("--workdir", default="/tmp/ssr_demo")
    p.add_argument("--num-cpus", type=int, default=8)
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data as rd

    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.functions.dedup import (
        dedup_corpus,
        minhash_lsh_clusters,
    )
    from stacksearch_ray.functions.training_export import export_training_data
    from stacksearch_ray.functions.textstats import token_stats_batch
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    def stage(name, t0, **info):
        print(json.dumps({"stage": name, "sec": round(time.time() - t0, 2),
                          **info}))

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    idx = os.path.join(args.workdir, "index")

    # 1. quality gate
    t0 = time.time()

    def gate(batch: pa.Table) -> pa.Table:
        t = token_stats_batch(batch)
        keep = pc.and_(pc.greater_equal(t["n_kept"], 5),
                       pc.less_equal(pc.multiply(
                           pc.subtract(t["n_tokens"], t["n_kept"]), 2),
                           t["n_tokens"]))
        return batch.filter(keep)

    clean = rd.read_parquet(args.source).map_batches(
        gate, batch_format="pyarrow").materialize()
    stage("quality_gate", t0, docs=clean.count())

    # 2. exact dedup as a corpus transform: min-id representative kept,
    # drop-set discovery shuffles (hash, id) only
    t0 = time.time()
    deduped = dedup_corpus(clean).materialize()
    stage("exact_dedup", t0, docs=deduped.count())

    # 3. near-dup clustering report
    t0 = time.time()
    clusters = minhash_lsh_clusters(deduped, num_perm=64,
                                    threshold=0.7).to_pandas()
    stage("near_dup", t0,
          clusters=int(clusters["cluster_id"].nunique()),
          docs=len(clusters))

    # 4. build the index straight from the cleaned Dataset
    t0 = time.time()
    half = deduped.count() // 2
    first = deduped.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], half)), batch_format="pyarrow")
    rest = deduped.map_batches(
        lambda t: t.filter(pc.greater_equal(t["doc_id"], half)),
        batch_format="pyarrow")
    stats = build_index(first, idx, content_col="text", id_col="doc_id",
                        meta_cols=("lang", "source"), num_shards=8)
    stage("build", t0, n_docs=stats["n_docs"])

    # 5. search: single engine + sharded pool
    t0 = time.time()
    eng = QueryEngine(idx)
    q = "merge sort join stream"
    top = eng.search_with_docs(q, 3)
    sharded = ShardedQueryEngine(idx, num_workers=4)
    same = sharded.search(q, 3) == [(r["doc_id"], r["score"]) for r in top]
    stage("search", t0, top1=top[0]["doc_id"], sharded_identical=same)

    # 6. append the second half, search again
    t0 = time.time()
    stats2 = append_to_index(rest, idx, content_col="text", id_col="doc_id",
                             meta_cols=("lang", "source"))
    top2 = QueryEngine(idx).search(q, 3)
    stage("append", t0, n_docs=stats2["n_docs"], new_top1=top2[0][0])

    # 6b. compact: merge appended segments into one row per (term,
    # shard) and purge tombstones, bitwise equal to a rebuild
    t0 = time.time()
    from stacksearch_ray.append import compact_index

    cstats = compact_index(idx)
    eng3 = QueryEngine(idx)
    pruned_same = (eng3.search(q, 3, "bmax") == eng3.search(q, 3, "exhaustive"))
    stage("compact", t0, n_docs=cstats["n_docs"],
          pruning_identical=pruned_same)

    # 6c. text → embedding → kNN: persisted projection encoder restored
    # per actor, query encoded through the same artifact
    t0 = time.time()
    import numpy as np

    from stacksearch_ray.functions.embedding import (
        ProjectionEncoder,
        save_projection_artifact,
    )
    from stacksearch_ray.functions.similarity import knn_brute_force

    adir = os.path.join(args.workdir, "encoder")
    save_projection_artifact(adir, dim_in=256, dim_out=32, seed=23)
    emb = deduped.map_batches(
        ProjectionEncoder, batch_format="pyarrow", concurrency=2,
        fn_constructor_kwargs={"artifact_dir": adir}).materialize()
    enc = ProjectionEncoder(adir)
    qt = pa.table({"doc_id": pa.array([0], pa.int64()),
                   "text": pa.array([q], pa.string())})
    qv = np.asarray(enc(qt)["embedding"].combine_chunks().flatten()
                    ).reshape(1, 32)
    nn = knn_brute_force(emb, qv, k=3, id_col="doc_id").to_pandas()
    stage("text_knn", t0, top1=int(nn.sort_values("rank")["vec_id"].iloc[0]))

    # 6d. MinHash-LSH retrieval index (signatures + buckets on parquet)
    t0 = time.time()
    from stacksearch_ray.minhash_index import MinHashSearchIndex

    probe = deduped.take(1)[0]["text"]
    midx = MinHashSearchIndex.build(deduped, os.path.join(args.workdir, "mh"),
                                    num_perm=128, num_bands=32, shingle_k=1)
    res = midx.search(probe, top_k=3)
    stage("minhash_search", t0, size=midx.size(),
          top1=(res[0][0] if res else None))

    # 6e. semantic embeddings (PPMI+SVD trained over the corpus) +
    # synonym-aware kNN through the actor-pool encoder
    t0 = time.time()
    from stacksearch_ray.functions.semantic import (
        SemanticEncoder,
        train_semantic_artifact,
    )

    sdir = os.path.join(args.workdir, "semantic")
    train_semantic_artifact(deduped, sdir, vocab_size=1000, dim=32)
    semb = deduped.map_batches(
        SemanticEncoder, batch_format="pyarrow", concurrency=2,
        fn_constructor_kwargs={"artifact_dir": sdir}).materialize()
    senc = SemanticEncoder(sdir)
    sq = senc.encode_texts([q])
    snn = knn_brute_force(semb, sq, k=3, id_col="doc_id").to_pandas()
    stage("semantic_knn", t0,
          top1=int(snn.sort_values("rank")["vec_id"].iloc[0]))

    # 6f. IVF ANN over the projection embeddings: k-means partitions →
    # probe 2 of 4 partitions, exact rescoring inside
    t0 = time.time()
    from stacksearch_ray.functions.ivf import IVFIndex

    ivf = IVFIndex.build(emb, os.path.join(args.workdir, "ivf"),
                         k=4, iters=3, id_col="doc_id")
    inn = ivf.search(qv[0], k=3, nprobe=2).to_pandas()
    stage("knn_ivf", t0,
          top1=(int(inn["vec_id"].iloc[0]) if len(inn) else None))

    # 6g. curation: PII scrub → repetition gate → benchmark decontam
    t0 = time.time()
    from stacksearch_ray.functions.curation import (
        contamination_flags,
        redact_pii,
        repetition_stats,
    )

    scrubbed = redact_pii(deduped.select_columns(["doc_id", "text"]))
    rep = repetition_stats(deduped.select_columns(["doc_id", "text"]))
    gated_ids = rep.filter(
        lambda r: r["top2_frac_micros"] <= 200_000).count()
    contam = contamination_flags(
        deduped.select_columns(["doc_id", "text"]), n=3, bench_mod=97)
    stage("curate", t0, pii_rows=scrubbed.count(),
          repetition_pass=gated_ids, contaminated=contam.count())

    # 6h. serving beyond ranked BM25: boolean set algebra on postings,
    # filtered (search-within-category) retrieval, and BPE merges
    # learned straight from the index's own term_dict artifact
    t0 = time.time()
    import pyarrow.parquet as pq

    from stacksearch_ray.functions.bpe import learn_bpe

    eng4 = QueryEngine(idx)
    b_and = np.intersect1d(eng4.term_doc_ids("merge"),
                           eng4.term_doc_ids("sort"))
    en_ids = pq.read_table(os.path.join(idx, "docs"),
                           columns=["doc_id"],
                           filters=[("lang", "=", "en")])["doc_id"]
    filt = eng4.search_filtered(q, 3, allowed_doc_ids=en_ids.to_pylist())
    td = pq.read_table(os.path.join(idx, "term_dict"))
    merges = learn_bpe(td["term"].to_pylist(), td["cf"].to_pylist(), 5)
    stage("serve_plus", t0, boolean_hits=int(len(b_and)),
          filtered_top1=(int(filt[0][0]) if filt else None),
          first_merge="".join(merges.iloc[0][["lhs", "rhs"]])
          if len(merges) else None)

    # 6i. full lifecycle: tombstone-delete a slice, verify the masked
    # index still serves (bitwise == rebuild-without, see tests), then
    # compact-purge and run the integrity audit
    t0 = time.time()
    from stacksearch_ray.append import compact_index, delete_from_index
    from stacksearch_ray.fsck import fsck_index

    victims = [int(d) for d in en_ids.to_pylist()[:25]]
    delete_from_index(idx, victims)
    eng5 = QueryEngine(idx)
    post_delete = eng5.search(q, 3)
    compact_index(idx)
    rep = fsck_index(idx)
    stage("lifecycle", t0, deleted=len(victims),
          post_delete_top1=(int(post_delete[0][0]) if post_delete else None),
          fsck_ok=rep.ok, fsck_segment_rows=rep.checked_segment_rows)

    # 7. export training sequences
    t0 = time.time()
    out = os.path.join(args.workdir, "training")
    vocab = export_training_data(deduped, os.path.join(idx, "term_dict"),
                                 out, vocab_size=5000, seq_len=64,
                                 text_col="text", id_col="doc_id")
    stage("training_export", t0, vocab=vocab.num_rows)

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
