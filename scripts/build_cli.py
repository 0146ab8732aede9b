"""Index-build entrypoint for `ray job submit` (north_rule).

    ray job submit -- python scripts/build_cli.py \
        --source /data/corpus --index-dir /data/index --num-shards 64

Locally: python scripts/build_cli.py --source ... --index-dir ...
Owns the Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    p = argparse.ArgumentParser(description="Build the BM25 index")
    p.add_argument("--source", default=None,
                   help="parquet file/dir of the corpus (not needed with --compact)")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--content-col", default="content")
    p.add_argument("--id-col", default=None, help="existing int64 id column")
    p.add_argument("--num-shards", type=int, default=8)
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--resumable", action="store_true",
                   help="resume an interrupted build in --index-dir (without "
                        "this flag the build clears the old layout first)")
    p.add_argument("--append", action="store_true",
                   help="append source docs to an EXISTING index (new ids only)")
    p.add_argument("--compact", action="store_true",
                   help="merge appended segments of an EXISTING index into "
                        "one row per (term, shard) and purge tombstones")
    p.add_argument("--reshard", type=int, default=None, metavar="S",
                   help="with --compact: change the shard count to S while "
                        "compacting (no re-tokenize; == a rebuild at S)")
    p.add_argument("--merge", nargs="+", default=None, metavar="IDX",
                   help="merge two or more EXISTING indexes into --index-dir "
                        "(file-level union, no re-tokenize; compact after "
                        "to restore pruning)")
    p.add_argument("--files-per-partition", type=int, default=1)
    p.add_argument("--delete", nargs="+", type=int, default=None,
                   metavar="ID", help="tombstone these doc ids "
                   "(exact idf via the deleted-df sidecar)")
    p.add_argument("--purge", nargs="+", type=int, default=None,
                   metavar="ID", help="physically purge these "
                   "ALREADY-TOMBSTONED ids (surgical, O(affected "
                   "files)); combine with --delete to do both")
    p.add_argument("--snapshot", default=None, metavar="OUT_DIR",
                   help="hardlink snapshot of --index-dir (O(files), "
                   "no data copied; A/B serving & backups)")
    args = p.parse_args()
    lifecycle = (args.compact or args.merge is not None
                 or args.delete is not None or args.purge is not None
                 or args.snapshot is not None)
    if not lifecycle and args.source is None:
        p.error("--source is required unless --compact/--merge/"
                "--delete/--purge/--snapshot")
    if args.reshard is not None and not args.compact:
        p.error("--reshard requires --compact")
    if args.snapshot is not None and (args.delete is not None
                                      or args.purge is not None
                                      or args.compact):
        p.error("--snapshot cannot be combined with mutations "
                "(--delete/--purge/--compact) — snapshot first or "
                "after in a separate invocation so the intent is "
                "unambiguous")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from stacksearch_ray.build import build_index
    from stacksearch_ray.checkpoint import build_index_resumable

    t0 = time.time()
    kwargs = dict(content_col=args.content_col, id_col=args.id_col,
                  num_shards=args.num_shards)
    if args.merge is not None:
        from stacksearch_ray.append import merge_indexes

        stats = merge_indexes(args.merge, args.index_dir)
        print(json.dumps({"stats": stats,
                          "wall_s": round(time.time() - t0, 2)}))
        ray.shutdown()
        return 0
    if args.snapshot is not None:
        from stacksearch_ray.append import snapshot_index

        stats = snapshot_index(args.index_dir, args.snapshot)
        print(json.dumps({"stats": stats,
                          "wall_s": round(time.time() - t0, 2)}))
        ray.shutdown()
        return 0
    if args.delete is not None or args.purge is not None:
        from stacksearch_ray.append import delete_from_index, purge_doc_ids

        stats = None
        if args.delete is not None:
            stats = delete_from_index(args.index_dir, args.delete)
        if args.purge is not None:
            stats = purge_doc_ids(args.index_dir, args.purge)
        print(json.dumps({"stats": stats,
                          "wall_s": round(time.time() - t0, 2)}))
        ray.shutdown()
        return 0
    if args.compact:
        from stacksearch_ray.append import compact_index

        stats = compact_index(args.index_dir, num_shards=args.reshard)
        print(json.dumps({"stats": stats,
                          "wall_s": round(time.time() - t0, 2)}))
        ray.shutdown()
        return 0
    if args.append:
        from stacksearch_ray.append import append_to_index

        kwargs.pop("num_shards")  # inherited from the existing index
        # column mapping is inherited from the index's stats.json unless
        # the user explicitly overrides it (append raises on mismatch)
        if args.content_col == p.get_default("content_col"):
            kwargs.pop("content_col")
        if args.id_col == p.get_default("id_col"):
            kwargs.pop("id_col")
        stats = append_to_index(args.source, args.index_dir, **kwargs)
        print(json.dumps({"stats": stats,
                          "wall_s": round(time.time() - t0, 2)}))
        ray.shutdown()
        return 0
    if args.resumable:
        stats = build_index_resumable(args.source, args.index_dir,
                                      files_per_partition=args.files_per_partition,
                                      **kwargs)
    else:
        stats = build_index(args.source, args.index_dir, **kwargs)
    wall = time.time() - t0
    print(json.dumps({"stats": stats, "wall_s": round(wall, 2)}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
