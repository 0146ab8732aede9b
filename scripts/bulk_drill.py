"""Bulk-apply drill: one ES-style _bulk batch (mixed index / create /
update / delete) against a 400k-doc index at bench scale — the
evidence that bulk cost = fold (O(batch)) + ONE delete + ONE upsert,
i.e. the audited lifecycle legs, independent of how the actions mix.

    python scripts/bulk_drill.py   # writes BENCH/bulk_drill_r4.json
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("GRAFT_DRILL_ROWS", "400000"))
CORPUS = f"/tmp/ssr_bench_corpus_{ROWS}_f6250"  # shared with bench.py
IDX = f"/tmp/ssr_bulk_idx_{ROWS}"
BATCH = int(os.environ.get("GRAFT_BULK_OPS", "1000"))


def main() -> None:
    import ray

    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "16"))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from stacksearch_ray.append import bulk_apply
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    if not os.path.isdir(CORPUS):
        write_corpus(CORPUS, ROWS, rows_per_file=6_250, lines=(10, 80))
    # bulk needs an explicit-id index: derive a documents-style table
    docs_dir = f"/tmp/ssr_bulk_docs_{ROWS}"
    if not os.path.isdir(docs_dir):
        import numpy as np
        import pyarrow as pa

        import ray.data as rd

        def add_ids(b: pa.Table) -> pa.Table:
            # content hash → unique int64 id (deterministic, any order)
            import hashlib

            ids = [int.from_bytes(hashlib.md5(
                f"{r}|{p_}|{c}".encode()).digest()[:8], "big") >> 1
                for r, p_, c in zip(b["repo"].to_pylist(),
                                    b["path"].to_pylist(),
                                    b["commit"].to_pylist())]
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "text": b["content"],
            })

        tmp = docs_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        (rd.read_parquet(CORPUS)
         .map_batches(add_ids, batch_format="pyarrow")
         .write_parquet(tmp))
        os.rename(tmp, docs_dir)
    shutil.rmtree(IDX, ignore_errors=True)
    t0 = time.perf_counter()
    build_index(docs_dir, IDX, content_col="text", id_col="doc_id",
                num_shards=8)
    build_s = time.perf_counter() - t0
    n0 = int(load_stats(IDX)["n_docs"])

    eng = QueryEngine(IDX)
    ids = eng.doclens.ids
    # mixed batch: 40% update-in-place (index), 30% delete, 30% create
    ops = []
    for i in range(BATCH):
        if i % 10 < 4:
            ops.append({"op": "index", "doc_id": int(ids[i * 97 % len(ids)]),
                        "text": f"bulk rewrite {i} merge sort join"})
        elif i % 10 < 7:
            ops.append({"op": "delete",
                        "doc_id": int(ids[(i * 131 + 7) % len(ids)])})
        else:
            ops.append({"op": "create",
                        "doc_id": 10_000_000_000 + i,
                        "text": f"bulk fresh doc {i} stream window"})
    t0 = time.perf_counter()
    out = bulk_apply(IDX, ops)
    bulk_s = time.perf_counter() - t0
    results = [it["result"] for it in out["items"]]
    n1 = int(out["stats"]["n_docs"])

    # serving sanity after the batch
    eng2 = QueryEngine(IDX)
    t0 = time.perf_counter()
    res = eng2.search("merge sort join", 10)
    q_s = time.perf_counter() - t0

    rec = {
        "rows": ROWS, "batch_ops": BATCH, "cpus": cpus,
        "build_sec": round(build_s, 2),
        "bulk_sec": round(bulk_s, 2),
        "ops_per_s": round(BATCH / bulk_s, 1),
        "n_docs_before": n0, "n_docs_after": n1,
        "result_counts": {r: results.count(r) for r in set(results)},
        "post_query_sec": round(q_s, 4),
        "post_query_hits": len(res),
    }
    print(json.dumps(rec))
    ray.shutdown()


if __name__ == "__main__":
    main()
