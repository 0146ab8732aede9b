"""Scorer shoot-out on a zipf-term / lognormal-length corpus — the shape
where block maxima genuinely vary and pruning can pay off.

Generates (once, cached under ``--root``) a corpus with a heavily skewed
term distribution, builds the index, then times exhaustive / bmax / auto
on a query mix (hot, rare, hot+rare, many near-uniform hot terms) and
asserts all methods return bitwise-identical rankings. Each repeat times
the three methods back to back (interleaved, cycling through their six
orders), so their p50s compare like with like, and the output counts the
repeats in which ``auto`` beat ``exhaustive``. Every shape is timed
twice: on the clean index and on a copy of it with 1% of its docs
deleted (also cached), where bmax must keep pruning. Each index also
reports the method ``auto`` routes each shape to. ``--flat-lengths``
draws the doc lengths from normal(60, 6) instead (doc-length cv about
0.1, the same zipf terms), cached under its own directory: the corpus
where block maxima vary least. Results feed the BASELINE.md shoot-out
table and the BENCH/scorer_shootout_*.json, BENCH/one_path_*.json,
BENCH/champion_theta_*.json and BENCH/dense_terms_*.json artifacts.

    python scripts/scorer_shootout.py [--n-docs 200000] [--repeats 5]
        [--root /tmp/zipf_shootout] [--flat-lengths]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np


QUERIES = {
    "hot1": "t00000",
    "hot2": "t00000 t00001",
    "hot+rare": "t00000 t09000",
    "rare2": "t09000 t11000",
    "hot3+rare": "t00000 t00002 t00005 t12000",
    "mid2": "t00300 t00500",
    "hot8": " ".join(f"t{i:05d}" for i in range(8)),
}


def gen_corpus(path: str, n_docs: int, seed: int = 42,
               vocab_size: int = 50_000, flat: bool = False) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    vocab = np.array([f"t{i:05d}" for i in range(vocab_size)], dtype=object)
    if flat:
        lens = np.clip(np.rint(rng.normal(60.0, 6.0, n_docs)), 5,
                       3000).astype(np.int64)
    else:
        lens = np.clip(rng.lognormal(4.0, 0.9, n_docs).astype(np.int64),
                       5, 3000)
    tot = int(lens.sum())
    ranks = np.minimum(rng.zipf(1.3, tot), vocab_size) - 1
    toks = vocab[ranks]
    starts = np.concatenate(([0], np.cumsum(lens)))
    texts = [" ".join(toks[starts[i]:starts[i + 1]])
             for i in range(n_docs)]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    }), path)


def deleted_copy(index_dir: str, n_docs: int, seed: int = 7) -> str:
    """A copy of ``index_dir`` with 1% of its docs tombstoned, built
    once next to it."""
    import shutil

    from stacksearch_ray.append import delete_from_index

    out = index_dir + "_deleted1pct"
    if not os.path.exists(os.path.join(out, "stats.json")):
        print("deleting 1% of docs in a copy ...", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(index_dir, out)
        rng = np.random.default_rng(seed)
        delete_from_index(out, rng.choice(n_docs, n_docs // 100,
                                          replace=False).tolist())
    return out


METHODS = ("exhaustive", "bmax", "auto")
ORDERS = list(itertools.permutations(METHODS))


def time_shapes(eng, k: int, repeats: int) -> tuple[dict, dict, dict]:
    """(p50 ms per shape and method, plus ``auto_lower``: the share of
    repeats in which auto ran faster than exhaustive; the method auto
    routes each shape to; bmax's pre-test share for each shape auto
    routes to bmax). Each repeat runs the three methods back to back,
    so every method sees the same stretch of machine time, in the next
    of their six orders, so each follows each other equally often over
    a multiple of six repeats; all methods must rank each shape bitwise
    alike."""
    results: dict[str, dict[str, float]] = {}
    for qname, q in QUERIES.items():
        # warm (decode caches shared across methods — measure compute)
        ref = eng.search(q, k, method=METHODS[0])
        times: dict[str, list[float]] = {m: [] for m in METHODS}
        for r in range(repeats):
            for method in ORDERS[r % len(ORDERS)]:
                t0 = time.perf_counter()
                res = eng.search(q, k, method=method)
                times[method].append(time.perf_counter() - t0)
                assert res == ref, f"rank mismatch: {qname} {method}"
        row = {m: float(np.median(times[m])) * 1e3 for m in METHODS}
        row["auto_lower"] = float(np.mean(
            np.array(times["auto"]) < np.array(times["exhaustive"])))
        results[qname] = row
        print(f"{qname:12s} " + "  ".join(
            f"{m}={row[m]:8.2f}ms" for m in METHODS)
            + f"  auto_lower={row['auto_lower']:.2f}")
    plans = {qname: eng.plan(q, k) for qname, q in QUERIES.items()}
    return (results, {qname: p["method"] for qname, p in plans.items()},
            {qname: p.get("bmax_pretest_share")
             for qname, p in plans.items()})


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--n-docs", type=int, default=200_000)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--root", default="/tmp/zipf_shootout",
                   help="cache directory for the corpus and index")
    p.add_argument("--flat-lengths", action="store_true",
                   help="normal(60, 6) doc lengths instead of lognormal")
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=min(8, len(os.sched_getaffinity(0))),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.schema import INDEX_FORMAT_VERSION

    root = os.path.join(args.root, f"n{args.n_docs}"
                        + ("_flat" if args.flat_lengths else ""))
    corpus = os.path.join(root, "docs.parquet")
    index_dir = os.path.join(root, f"index_v{INDEX_FORMAT_VERSION}")
    if not os.path.exists(corpus):
        print("generating corpus ...", file=sys.stderr)
        gen_corpus(corpus, args.n_docs, flat=args.flat_lengths)
    if not os.path.exists(os.path.join(index_dir, "stats.json")):
        print("building index ...", file=sys.stderr)
        build_index(corpus, index_dir, content_col="text", id_col="doc_id")

    results, routes, shares = time_shapes(QueryEngine(index_dir), args.k,
                                          args.repeats)
    print("-- 1% of docs deleted --")
    del_results, del_routes, del_shares = time_shapes(
        QueryEngine(deleted_copy(index_dir, args.n_docs)), args.k,
        args.repeats)
    print(json.dumps({"n_docs": args.n_docs,
                      "flat_lengths": args.flat_lengths, "p50_ms": results,
                      "auto_route": routes, "bmax_pretest_share": shares,
                      "deleted_1pct": {"p50_ms": del_results,
                                       "auto_route": del_routes,
                                       "bmax_pretest_share": del_shares}}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
