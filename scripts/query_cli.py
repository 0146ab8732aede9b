"""Query entrypoint: top-k BM25 search against a built index.

    python scripts/query_cli.py --index-dir /data/index -k 10 "merge sort join"

No Ray session needed — querying reads segments with parquet predicate
pushdown on the driver; use BM25SearchActor via map_batches for bulk
query workloads instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    p = argparse.ArgumentParser(description="BM25 top-k query")
    p.add_argument("--index-dir", required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--method", choices=["auto", "bmax", "exhaustive"],
                   default="auto")
    p.add_argument("--scorer", default="bm25",
                   help="registry scorer name (bm25, tfidf, ...)")
    p.add_argument("--sharded", type=int, metavar="N", default=0,
                   help="serve through N shard-subset Ray workers")
    p.add_argument("--with-docs", action="store_true",
                   help="attach doc metadata to results")
    p.add_argument("--plan", action="store_true",
                   help="print the query plan (router decision, pruning "
                        "layer file counts) instead of searching")
    p.add_argument("--min-match", type=int, default=0, metavar="M",
                   help="minimum-should-match: only docs matching >= M "
                        "distinct query terms (single-engine path)")
    p.add_argument("--query-string", action="store_true",
                   help="treat each query as a Lucene query_string "
                        "(quoted \"phrase\"~slop, term^boost, prefix*, "
                        "AND/OR/NOT/parens)")
    p.add_argument("query", nargs="+")
    args = p.parse_args()

    from stacksearch_ray.append import resolve_index_alias
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    try:  # alias directories (set_index_alias) resolve transparently
        args.index_dir = resolve_index_alias(args.index_dir)
    except FileNotFoundError:
        print(f"error: {args.index_dir} is not a built index or alias "
              "(no stats.json/alias.json; run scripts/build_cli.py first)",
              file=sys.stderr)
        return 2
    if args.sharded and args.query_string:
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR")
        eng = ShardedQueryEngine(args.index_dir, num_workers=args.sharded)
        for q in args.query:
            res = eng.search_query_string(q, args.k)
            print(json.dumps({"query": q,
                              "results": [{"doc_id": d, "score": s}
                                          for d, s in res]}))
        ray.shutdown()
        return 0
    if args.sharded and (args.plan or args.min_match):
        # --plan is single-engine introspection and --min-match fans out
        # through a different entrypoint — refuse loudly rather than
        # silently serving plain searches
        print("error: --plan/--min-match cannot combine with --sharded "
              "(drop --sharded for introspection, or use the library's "
              "ShardedQueryEngine.search_min_should_match)",
              file=sys.stderr)
        return 2
    if args.sharded:
        import ray

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR")
        eng = ShardedQueryEngine(args.index_dir, num_workers=args.sharded)
        batches = eng.search_many(args.query, args.k, method=args.method,
                                  scorer=args.scorer)
        meta = QueryEngine(args.index_dir) if args.with_docs else None
        for q, res in zip(args.query, batches):
            if meta is not None:
                docs = {m["doc_id"]: m
                        for m in meta.get_docs([d for d, _ in res])}
                rows = []
                for rank, (d, s) in enumerate(res, 1):
                    row = dict(docs.get(d, {"doc_id": d}))
                    row.update({"rank": rank, "score": s})
                    rows.append(row)
                print(json.dumps({"query": q, "results": rows}))
            else:
                print(json.dumps({"query": q,
                                  "results": [{"doc_id": d, "score": s}
                                              for d, s in res]}))
        ray.shutdown()
        return 0
    eng = QueryEngine(args.index_dir)
    for q in args.query:
        if args.query_string:
            res = eng.search_query_string(q, args.k)
            print(json.dumps({"query": q,
                              "results": [{"doc_id": d, "score": s}
                                          for d, s in res]}))
        elif args.plan:
            print(json.dumps({"query": q, "plan": eng.plan(q, args.k)}))
        elif args.min_match:
            res = eng.search_min_should_match(q, args.min_match, args.k)
            print(json.dumps({"query": q,
                              "results": [{"doc_id": d, "score": s}
                                          for d, s in res]}))
        elif args.with_docs:
            rows = eng.search_with_docs(q, args.k, method=args.method,
                                        scorer=args.scorer)
            print(json.dumps({"query": q, "results": rows}))
        else:
            res = eng.search(q, args.k, method=args.method, scorer=args.scorer)
            print(json.dumps({"query": q,
                              "results": [{"doc_id": d, "score": s}
                                          for d, s in res]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
