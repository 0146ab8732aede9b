"""Positional-sidecar compression tradeoff (VERDICT-r4 next #7).

The v2 positional sidecar costs +44% index size at 400k docs
(BENCH/positions_cost_r4.json). The position blobs are already
delta+varint streams (codec.encode_position_lists), so the open
question was what a general-purpose codec buys ON TOP. This drill
measures, at the 400k BASELINE scale:

1. per-column compressed bytes of the positional segment files
   (how much of the index the ``pos`` column actually is);
2. segment-directory size under (a) the snappy default, (b) zstd on
   the pos column only, (c) zstd on every column — 64-row groups
   preserved (the term-pruning contract);
3. decode cost: wall time of a full sequential read+decompress of the
   segment directory per codec (the cost a TRUE-cold scan pays; the
   sandbox cannot drop the page cache, so files are re-read warm —
   this isolates exactly the decompression delta);
4. serving equivalence: a query served from zstd-recompressed
   segments is bitwise the original (readers are codec-transparent —
   parquet metadata carries the codec per column chunk).

Usage: python scripts/positions_codec_drill.py  (quiet host)
Writes BENCH/positions_codec_r5.json.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("GRAFT_BENCH_ROWS", "400000"))


def du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import pyarrow.parquet as pq

    from bench import _ensure_scale_corpus
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    corpus = _ensure_scale_corpus()
    base = "/tmp/ssr_poscodec"
    shutil.rmtree(base, ignore_errors=True)
    idx = os.path.join(base, "idx")
    t0 = time.perf_counter()
    build_index(corpus, idx, store_positions=True, num_shards=32)
    out = {"rows": ROWS,
           "positional_build_s": round(time.perf_counter() - t0, 2)}

    segdir = os.path.join(idx, "segments")
    seg_files = sorted(os.path.join(r, f)
                       for r, _, fs in os.walk(segdir) for f in fs
                       if f.endswith(".parquet"))

    by_col: dict[str, int] = {}
    for p in seg_files:
        md = pq.ParquetFile(p).metadata
        for rg in range(md.num_row_groups):
            for c in range(md.row_group(rg).num_columns):
                col = md.row_group(rg).column(c)
                by_col[col.path_in_schema] = (
                    by_col.get(col.path_in_schema, 0)
                    + col.total_compressed_size)
    out["segment_col_mb"] = {k: round(v / 1e6, 1)
                             for k, v in sorted(by_col.items(),
                                                key=lambda kv: -kv[1])}
    out["segments_mb_snappy"] = round(du(segdir) / 1e6, 1)

    def rewrite(tag: str, codec_for):
        dst = os.path.join(base, f"seg_{tag}")
        os.makedirs(dst, exist_ok=True)
        t0 = time.perf_counter()
        for p in seg_files:
            t = pq.read_table(p)
            comp = codec_for(t.schema)
            q = os.path.join(dst, os.path.basename(p))
            with pq.ParquetWriter(q, t.schema, compression=comp) as w:
                for lo in range(0, t.num_rows, 64):
                    w.write_table(t.slice(lo, 64))
        out[f"segments_mb_{tag}"] = round(du(dst) / 1e6, 1)
        out[f"rewrite_s_{tag}"] = round(time.perf_counter() - t0, 2)
        return dst

    zp = rewrite("zstd_pos", lambda s: {n: ("zstd" if n == "positions"
                                            else "snappy")
                                        for n in s.names})
    za = rewrite("zstd_all", lambda s: {n: "zstd" for n in s.names})

    def full_decode(d: str) -> float:
        t0 = time.perf_counter()
        rows = 0
        for r, _, fs in os.walk(d):
            for f in fs:
                if f.endswith(".parquet"):
                    rows += pq.read_table(os.path.join(r, f)).num_rows
        return time.perf_counter() - t0

    for tag, d in (("snappy", segdir), ("zstd_pos", zp),
                   ("zstd_all", za)):
        full_decode(d)  # warm file cache so only decompress differs
        out[f"full_decode_s_{tag}"] = round(full_decode(d), 2)

    # serving equivalence off zstd_all segments
    idx2 = os.path.join(base, "idx_zstd")
    shutil.copytree(idx, idx2)
    shutil.rmtree(os.path.join(idx2, "segments"))
    shutil.copytree(za, os.path.join(idx2, "segments"))
    e1, e2 = QueryEngine(idx), QueryEngine(idx2)
    qs = ["def return helper_3", "var_7 helper_11 field_13"]
    out["serving_bitwise_equal"] = all(
        e1.search(q, 10, method="exhaustive")
        == e2.search(q, 10, method="exhaustive") for q in qs)
    out["phrase_bitwise_equal"] = all(
        e1.search_phrase_ranked(q, 10) == e2.search_phrase_ranked(q, 10)
        for q in qs)

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH", "positions_codec_r5.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(json.dumps(out))
    shutil.rmtree(base, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
