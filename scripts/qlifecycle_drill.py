"""Query-driven lifecycle drill: delete_by_query / update_by_query /
reindex_index costs at bench scale (400k docs) — the evidence that the
session-9 ops are O(matched-set) + fixed recovery/stats cost, not
O(index), and that reindex-from-_source tracks a fresh build.

    python scripts/qlifecycle_drill.py   # writes BENCH/qlifecycle_r4.json
"""
from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("GRAFT_DRILL_ROWS", "400000"))
CORPUS = f"/tmp/ssr_bench_corpus_{ROWS}_f6250"  # shared with bench.py
IDX = f"/tmp/ssr_qlc_idx_{ROWS}"
REIDX = f"/tmp/ssr_qlc_reidx_{ROWS}"
QUERY = "merge sort join"


def main() -> None:
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from stacksearch_ray.append import (delete_by_query, reindex_index,
                                        update_by_query)
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    marker = os.path.join(CORPUS, "_DONE")
    if not os.path.exists(marker):
        write_corpus(CORPUS, ROWS, rows_per_file=6_250, lines=(10, 80))
        open(marker, "w").write("ok")
    parts = sorted(glob.glob(f"{CORPUS}/*.parquet"))

    out: dict = {"metric": "query-driven lifecycle ops at 400k docs",
                 "rows": ROWS}

    shutil.rmtree(IDX, ignore_errors=True)
    shutil.rmtree(REIDX, ignore_errors=True)
    t0 = time.perf_counter()
    build_index(parts, IDX, content_col="content",
                meta_cols=("lang", "content"),  # stored _source
                num_shards=64)
    out["build_stored_source_s"] = round(time.perf_counter() - t0, 2)
    base = QueryEngine(IDX)
    before = base.search(QUERY, 10)

    # small matched set: a rare var_N token AND a hot term
    t0 = time.perf_counter()
    s = delete_by_query(IDX, "var_123 AND field_7")
    out["dbq_small_s"] = round(time.perf_counter() - t0, 2)
    out["dbq_small_matched"] = int(s.get("n_tombstones", 0))

    # larger matched set: two hot terms
    prev = int(s.get("n_tombstones", 0))
    t0 = time.perf_counter()
    s = delete_by_query(IDX, "import AND class AND return")
    out["dbq_large_s"] = round(time.perf_counter() - t0, 2)
    out["dbq_large_matched"] = int(s.get("n_tombstones", 0)) - prev

    # update_by_query on a small set (delete -> surgical purge -> append)
    def patch(b: pa.Table) -> pa.Table:
        new = pc.binary_join_element_wise(
            b["content"].combine_chunks(),
            pa.array(["\nmerge merge"] * b.num_rows, pa.string()), "")
        return b.set_column(b.schema.get_field_index("content"),
                            "content", new)

    t0 = time.perf_counter()
    s = update_by_query(IDX, "var_200 AND field_11", parts, patch)
    out["ubq_s"] = round(time.perf_counter() - t0, 2)

    # reindex from the stored _source into a fresh layout (alive view)
    t0 = time.perf_counter()
    reindex_index(IDX, REIDX, content_col="content",
                  num_shards=64,
                  meta_cols=("lang",))  # drop _source in the copy
    out["reindex_s"] = round(time.perf_counter() - t0, 2)
    live = QueryEngine(IDX).search(QUERY, 10)
    re_res = QueryEngine(REIDX).search(QUERY, 10, "exhaustive")
    out["reindex_bitwise_equal"] = bool(live == re_res)
    out["n_docs_final"] = int(load_stats(REIDX)["n_docs"])
    out["search_changed_vs_initial"] = bool(live != before)

    print(json.dumps(out))
    bench_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH")
    os.makedirs(bench_dir, exist_ok=True)
    with open(os.path.join(bench_dir, "qlifecycle_r4.json"), "w") as f:
        json.dump(out, f)
    ray.shutdown()


if __name__ == "__main__":
    main()
