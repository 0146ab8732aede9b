"""Purge-at-scale drill: measure the surgical purge against the full
compaction it replaces on the upsert path.

Build the bench's 400k-doc corpus index once, hardlink-clone it, delete
the SAME 1k-doc set from both; then purge one clone and compact the
other. Prints one JSON line and writes it to ``--out``.

    python scripts/purge_drill.py [--rows 400000] [--n-del 1000]
        [--num-shards 64] [--cpus 16] [--out BENCH/purge_drill_r4.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def hardlink_clone(src: str, dst: str) -> None:
    from stacksearch_ray.append import snapshot_index

    shutil.rmtree(dst, ignore_errors=True)
    snapshot_index(src, dst)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--rows", type=int, default=400_000)
    p.add_argument("--n-del", type=int, default=1_000)
    p.add_argument("--num-shards", type=int, default=64)
    p.add_argument("--cpus", type=int, default=16,
                   help="CPUs of the local Ray session and the build's "
                        "task concurrency")
    p.add_argument("--out",
                   default=os.path.join(REPO, "BENCH", "purge_drill_r4.json"),
                   help="where the JSON result is written")
    args = p.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq

    from stacksearch_ray.append import (
        compact_index,
        delete_from_index,
        purge_doc_ids,
    )
    from stacksearch_ray.checkpoint import build_index_resumable
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    corpus = f"/tmp/ssr_bench_corpus_{args.rows}_f{min(31_250, max(6_250, args.rows // 64))}"
    if not os.path.exists(os.path.join(corpus, "_DONE")):
        shutil.rmtree(corpus, ignore_errors=True)
        write_corpus(corpus, args.rows,
                     rows_per_file=min(31_250, max(6_250, args.rows // 64)))
        open(os.path.join(corpus, "_DONE"), "w").write("ok")

    base = f"/tmp/ssr_purge_drill_{os.getpid()}"
    idx = os.path.join(base, "idx")
    shutil.rmtree(base, ignore_errors=True)
    t0 = time.time()
    build_index_resumable(corpus, idx, num_shards=args.num_shards,
                          files_per_partition=1, concurrency=args.cpus)
    build_s = time.time() - t0

    ids = pq.read_table(os.path.join(idx, "docs"),
                        columns=["doc_id"])["doc_id"].to_pylist()
    ids.sort()
    dels = ids[:: max(1, len(ids) // args.n_del)][:args.n_del]

    idx_purge = os.path.join(base, "idx_purge")
    idx_compact = os.path.join(base, "idx_compact")
    idx_small = os.path.join(base, "idx_small")
    hardlink_clone(idx, idx_purge)
    hardlink_clone(idx, idx_compact)
    hardlink_clone(idx, idx_small)

    # the bounded case purge exists for: a 10-doc upsert's worth
    small = dels[:10]
    delete_from_index(idx_small, small)
    t0 = time.time()
    purge_doc_ids(idx_small, small)
    purge_small_s = time.time() - t0

    t0 = time.time()
    delete_from_index(idx_purge, dels)
    delete_s = time.time() - t0
    t0 = time.time()
    purge_doc_ids(idx_purge, dels)
    purge_s = time.time() - t0

    delete_from_index(idx_compact, dels)
    t0 = time.time()
    compact_index(idx_compact)
    compact_s = time.time() - t0

    # sanity: both physically purged paths agree on a query
    q = "def return var_1 helper_3"
    a = QueryEngine(idx_purge).search(q, 10, "exhaustive")
    b = QueryEngine(idx_compact).search(q, 10, "exhaustive")
    agree = a == b

    out = {"rows": args.rows, "n_del": len(dels),
           "num_shards": args.num_shards, "cpus": args.cpus,
           "build_s": round(build_s, 2), "delete_s": round(delete_s, 2),
           "purge_s": round(purge_s, 2), "compact_s": round(compact_s, 2),
           "purge_10_ids_s": round(purge_small_s, 2),
           "purge_vs_compact_speedup": round(compact_s / purge_s, 1),
           "purge10_vs_compact_speedup": round(compact_s / purge_small_s, 1),
           "post_purge_query_agrees_with_post_compact": agree}
    print(json.dumps(out))
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    shutil.rmtree(base, ignore_errors=True)
    ray.shutdown()
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
