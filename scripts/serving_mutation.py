"""Serving continuity under index mutation.

The north-star is a serving engine; this drill measures what a live
reader experiences while the index is being WRITTEN: an open
QueryEngine keeps serving the pre-mutation snapshot (append/delete/
purge stage everything outside the live directories and commit via
journaled renames + the stats.json write), so the only effect a reader
can see is host CPU contention — never torn results.

    python scripts/serving_mutation.py   # writes BENCH/serving_mutation_r4.json

Protocol: build a ROWS-doc index; measure warm sequential p50/p95
(baseline) on an open engine; run append_to_index (NEW_ROWS docs) in a
background thread while the SAME engine keeps querying (during-append
latency + bitwise result-stability check vs baseline); after the
commit, delete+purge a slice of the appended docs under the same
concurrent-query regime; finally re-open and verify the reader flips
atomically to the post-mutation index (appended docs searchable,
purged docs gone).
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROWS = int(os.environ.get("GRAFT_MUT_ROWS", "400000"))
NEW_ROWS = ROWS // 8
CORPUS = f"/tmp/ssr_mut_corpus_{ROWS}"
INDEX = f"/tmp/ssr_mut_idx_{ROWS}"

QUERIES = ["def return var_1 helper_3", "var_7 helper_11 field_13",
           "class import field_2 var_19", "def var_3 return helper_7"]


def pctl(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def measure(eng, n: int) -> tuple[dict, list]:
    lats, results = [], []
    for i in range(n):
        q = QUERIES[i % len(QUERIES)]
        t0 = time.perf_counter()
        r = eng.search(q, 10)
        lats.append(time.perf_counter() - t0)
        results.append((q, r))
    return ({"p50_ms": round(statistics.median(lats) * 1e3, 3),
             "p95_ms": round(pctl(lats, 0.95) * 1e3, 3)}, results)


def main() -> None:
    import shutil

    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from stacksearch_ray.append import (append_to_index, delete_from_index,
                                        purge_doc_ids)
    from stacksearch_ray.build import build_index
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    # one corpus, file-split into base + delta (disjoint doc ids by
    # construction — same pattern as tests/test_append.py)
    per_file = 25_000
    total = ROWS + NEW_ROWS
    if not os.path.exists(os.path.join(CORPUS, "part-00000.parquet")):
        write_corpus(CORPUS, total, rows_per_file=per_file)
    n_base = ROWS // per_file
    base_files = [f"{CORPUS}/part-{i:05d}.parquet" for i in range(n_base)]
    delta_files = [f"{CORPUS}/part-{i:05d}.parquet"
                   for i in range(n_base, total // per_file)]
    shutil.rmtree(INDEX, ignore_errors=True)
    t0 = time.time()
    build_index(base_files, INDEX, num_shards=32)
    build_s = time.time() - t0

    eng = QueryEngine(INDEX)
    eng.search(QUERIES[0], 10)  # warm
    base, base_res = measure(eng, 200)

    out = {"rows": ROWS, "append_rows": NEW_ROWS, "build_s": round(build_s, 2),
           "baseline": base}

    # -- queries while appending ------------------------------------
    append_err: list = []

    def do_append():
        try:
            append_to_index(delta_files, INDEX)
        except Exception as e:  # surfaces in the JSON instead of dying
            append_err.append(repr(e))

    th = threading.Thread(target=do_append)
    t0 = time.time()
    th.start()
    during, during_res = measure(eng, 400)
    th.join()
    out["append_s"] = round(time.time() - t0, 2)
    out["during_append"] = during
    out["append_error"] = append_err or None
    # reader stability: the open engine must keep returning the
    # PRE-append results bitwise while the writer stages and commits
    stable = all(r == br for (q, r), (_, br)
                 in zip(during_res[:200], base_res))
    out["reader_stable_during_append"] = stable

    # -- flip: a re-opened reader sees the appended docs -------------
    eng2 = QueryEngine(INDEX)
    appended_visible = eng2.doclens.ids.size == ROWS + NEW_ROWS
    out["appended_visible_after_reopen"] = bool(appended_visible)

    # -- queries while delete + purge --------------------------------
    victims = [int(d) for d in eng2.doclens.ids[-50:]]
    mut_err: list = []

    def do_purge():
        try:
            delete_from_index(INDEX, victims)
            purge_doc_ids(INDEX, victims)
        except Exception as e:
            mut_err.append(repr(e))

    th = threading.Thread(target=do_purge)
    t0 = time.time()
    th.start()
    during2, _ = measure(eng2, 200)
    th.join()
    out["delete_purge_s"] = round(time.time() - t0, 2)
    out["during_purge"] = during2
    out["purge_error"] = mut_err or None

    eng3 = QueryEngine(INDEX)
    out["purged_gone_after_reopen"] = bool(
        eng3.doclens.ids.size == ROWS + NEW_ROWS - len(victims))

    os.makedirs("BENCH", exist_ok=True)
    with open("BENCH/serving_mutation_r4.json", "w") as f:
        json.dump(out, f, indent=1)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
