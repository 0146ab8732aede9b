"""Matched-set export drill: QueryEngine.export_matches vs the sharded
twin on a 1M-doc index (hot and rare terms) — the measured backing for
the export scale note (per-shard exports bound any one process's
matched-set memory; the disjoint merge is one concat + argsort).

    python scripts/export_drill.py    # writes BENCH/export_drill_r4.json
"""
from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("GRAFT_FANOUT_ROWS", "1000000"))
INDEX = f"/tmp/ssr_fanout_idx_{ROWS}"  # shared with serving_fanout.py


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    if not os.path.exists(os.path.join(INDEX, "stats.json")):
        import glob

        from stacksearch_ray.checkpoint import build_index_resumable
        from stacksearch_ray.corpus import write_corpus

        corpus = f"/tmp/ssr_fanout_corpus_{ROWS}"
        marker = os.path.join(corpus, "_DONE")
        if not os.path.exists(marker):
            write_corpus(corpus, ROWS, rows_per_file=31_250,
                         lines=(10, 80))
            open(marker, "w").write("ok")
        build_index_resumable(sorted(glob.glob(f"{corpus}/*.parquet")),
                              INDEX, content_col="content",
                              num_shards=128,
                              concurrency=16)

    eng = QueryEngine(INDEX)
    sh = ShardedQueryEngine(INDEX, num_workers=16)
    sh.warm(["def"])
    out: dict = {"metric": "matched-set export at 1M docs", "rows": ROWS}
    for tag, q in (("hot", "def return"), ("rare", "var_123 helper_77")):
        t0 = time.perf_counter()
        ids1, s1 = eng.export_matches(q)
        out[f"export_{tag}_single_s"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        ids2, s2 = sh.export_matches(q)
        out[f"export_{tag}_sharded_s"] = round(time.perf_counter() - t0, 3)
        out[f"export_{tag}_matched"] = int(len(ids1))
        out[f"export_{tag}_bitwise_equal"] = bool(
            ids1.tolist() == ids2.tolist() and s1.tolist() == s2.tolist())

    print(json.dumps(out))
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH")
    with open(os.path.join(bench, "export_drill_r4.json"), "w") as f:
        json.dump(out, f)
    ray.shutdown()


if __name__ == "__main__":
    main()
