"""Rollover SERVING depth drill (VERDICT-r4 next #6): the ILM story's
serving half, measured — generation-count sweep plus a live
generation-roll with queries in flight.

Protocol (ROWS-doc bench corpus):
1. monolithic build (the bitwise reference).
2. rollover_ingest at G in {8, 16, 32} generations; for each: warm
   federated p50/p95 over QUERIES and a bitwise top-10
   cross-check vs the monolithic engine on every query.
3. QUERY-UNDER-ROLL at G=8: an open FederatedQueryEngine keeps
   serving while rollover_append ingests ROWS/8 NEW docs in a
   background thread (fills the write generation, seals it, starts
   the next — the full ILM roll). Measured: during-roll p50/p95,
   bitwise result stability vs pre-roll (the open reader serves its
   snapshot — journaled renames mean it can never see a torn
   generation), and the post-re-open flip (new docs searchable,
   generation count advanced).

Usage: python scripts/rollover_serving_drill.py  (quiet host!)
Writes BENCH/rollover_serving_r5.json.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import _ensure_scale_corpus  # noqa: E402

# corpus-vocabulary queries (the generated code corpus does not
# contain bench.GOLDEN_QUERIES' testdata terms -- NOTES trap; empty
# result sets would make every latency and bitwise check vacuous)
QUERIES = ["def return var_1 helper_3", "var_7 helper_11 field_13",
           "class import field_2 var_19", "def var_3 return helper_7"]

ROWS = 400_000
WARM = 2
REPS = 8
BASE = "/tmp/ssr_rollover_serving"


def _lats(engine, queries, reps) -> list[float]:
    ts = []
    for _ in range(reps):
        for q in queries:
            t0 = time.perf_counter()
            engine.search(q, 10)
            ts.append(time.perf_counter() - t0)
    return ts


def _pctl(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def main():
    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from stacksearch_ray.build import build_index
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.rollover import (open_rollover, rollover_append,
                                          rollover_ingest, rollover_status)

    corpus = _ensure_scale_corpus()
    shutil.rmtree(BASE, ignore_errors=True)
    os.makedirs(BASE)
    out = {"rows": ROWS, "queries": len(QUERIES)}

    mono_dir = os.path.join(BASE, "mono")
    t0 = time.perf_counter()
    build_index(corpus, mono_dir, num_shards=32)
    out["monolithic_build_s"] = round(time.perf_counter() - t0, 2)
    mono = QueryEngine(mono_dir)
    mono_top = {q: mono.search(q, 10, method="exhaustive")
                for q in QUERIES}
    assert all(len(v) == 10 for v in mono_top.values())

    # ---- generation-count sweep ----
    for gens in (8, 16, 32):
        base = os.path.join(BASE, f"roll{gens}")
        t0 = time.perf_counter()
        rollover_ingest(corpus, base, max_docs=ROWS // gens,
                        num_shards=32)
        ingest_s = time.perf_counter() - t0
        fed = open_rollover(base)
        for q in QUERIES:
            assert fed.search(q, 10) == mono_top[q], (gens, q)
        _lats(fed, QUERIES, WARM)  # warm
        ls = _lats(fed, QUERIES, REPS)
        out[f"gens{gens}"] = {
            "ingest_s": round(ingest_s, 2),
            "p50_ms": round(_pctl(ls, 0.5) * 1e3, 2),
            "p95_ms": round(_pctl(ls, 0.95) * 1e3, 2),
            "bitwise_vs_mono": True,
        }
        if gens != 8:  # keep roll8 for the under-roll phase
            shutil.rmtree(base, ignore_errors=True)

    # ---- query-under-roll at G=8 ----
    roll_base = os.path.join(BASE, "roll8")
    fed = open_rollover(roll_base)
    pre_top = {q: fed.search(q, 10) for q in QUERIES}
    quiet = _lats(fed, QUERIES, REPS)

    new_src = os.path.join(BASE, "new_docs")
    write_corpus(new_src, ROWS // 8, rows_per_file=10_000,
                 row_offset=ROWS)
    state = {"done": False, "roll_s": None}

    def do_roll():
        t0 = time.perf_counter()
        try:
            rollover_append(new_src, roll_base)
            state["roll_s"] = round(time.perf_counter() - t0, 2)
        except BaseException as e:  # never leave the poll loop spinning
            state["err"] = repr(e)
            raise
        finally:
            state["done"] = True

    th = threading.Thread(target=do_roll)
    th.start()
    during, stable = [], True
    while not state["done"]:
        for q in QUERIES:
            t0 = time.perf_counter()
            got = fed.search(q, 10)
            during.append(time.perf_counter() - t0)
            if got != pre_top[q]:
                stable = False
    th.join()
    if "err" in state:
        raise RuntimeError(f"rollover_append failed: {state['err']}")
    post_open = open_rollover(roll_base)
    status = rollover_status(roll_base)
    # visibility check on COUNTS, not ranking (the appended docs score
    # like their base-corpus twins, so a top-10 need not contain one)
    live_docs = sum(g["n_docs"] for g in status["generations"]
                    if g["committed"])
    new_visible = live_docs == ROWS + ROWS // 8
    assert len(post_open.search(QUERIES[0], 10)) == 10
    out["under_roll"] = {
        "roll_s": state["roll_s"],
        "quiet_p50_ms": round(_pctl(quiet, 0.5) * 1e3, 2),
        "during_p50_ms": round(_pctl(during, 0.5) * 1e3, 2),
        "during_p95_ms": round(_pctl(during, 0.95) * 1e3, 2),
        "during_samples": len(during),
        "results_bitwise_stable": stable,
        "generations_after": len(status["generations"]),
        "reopen_sees_new_docs": bool(new_visible),
    }

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH", "rollover_serving_r5.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(json.dumps(out))
    shutil.rmtree(BASE, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
