"""Rollover-at-scale drill: what does generation-sliced ingest cost vs
one monolithic build, and what does federated serving pay per extra
generation?

Protocol (400k-doc bench corpus, the BASELINE.md scale unit):
1. monolithic build_index (the reference cost)
2. rollover_ingest at max_docs = N/4  (4 generations)
3. rollover_ingest at max_docs = N/16 (16 generations)
4. serving p50 over GOLDEN_QUERIES: monolithic engine vs
   open_rollover(4 gens) vs open_rollover(16 gens), warm
5. correctness cross-check: federated top-10 == monolithic top-10
   (bitwise) for every query at both generation counts

Writes BENCH/rollover_drill_r4.json. Run on a quiet host.
"""

import json
import os
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import GOLDEN_QUERIES, _ensure_scale_corpus  # noqa: E402

ROWS = 400_000
WARM = 2
REPS = 10


def _p50(engine, queries):
    for q in queries * WARM:
        engine.search(q, 10)
    ts = []
    for _ in range(REPS):
        for q in queries:
            t0 = time.perf_counter()
            engine.search(q, 10)
            ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def main():
    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.rollover import open_rollover, rollover_ingest

    corpus = _ensure_scale_corpus()
    out = {"rows": ROWS, "queries": len(GOLDEN_QUERIES)}

    mono_dir = "/tmp/ssr_rollover_drill/mono"
    shutil.rmtree("/tmp/ssr_rollover_drill", ignore_errors=True)
    t0 = time.perf_counter()
    build_index(corpus, mono_dir, num_shards=32)
    out["monolithic_build_s"] = round(time.perf_counter() - t0, 2)
    mono = QueryEngine(mono_dir)

    for gens in (4, 16):
        base = f"/tmp/ssr_rollover_drill/roll{gens}"
        t0 = time.perf_counter()
        rollover_ingest(corpus, base, max_docs=ROWS // gens,
                        num_shards=32)
        out[f"rollover_ingest_{gens}gens_s"] = round(
            time.perf_counter() - t0, 2)
        fed = open_rollover(base)
        for q in GOLDEN_QUERIES:
            got = fed.search(q, 10)
            want = mono.search(q, 10, method="exhaustive")
            assert got == want, (gens, q)
        out[f"federated_p50_{gens}gens_ms"] = round(
            _p50(fed, GOLDEN_QUERIES) * 1e3, 2)
        out[f"bitwise_vs_mono_{gens}gens"] = True

    out["mono_p50_ms"] = round(_p50(mono, GOLDEN_QUERIES) * 1e3, 2)
    # exhaustive mono for a like-for-like scoring-path comparison
    # (federated is exhaustive by construction)
    class _Exh:
        def search(self, q, k):
            return mono.search(q, k, method="exhaustive")

    out["mono_exhaustive_p50_ms"] = round(
        _p50(_Exh(), GOLDEN_QUERIES) * 1e3, 2)

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH", "rollover_drill_r4.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(json.dumps(out))
    shutil.rmtree("/tmp/ssr_rollover_drill", ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
