"""``serve_es``: reads that miss the cache, over a mutated index.

Set-up builds an index, appends a delta and deletes 1% of the ids, so
every query routes to exhaustive scoring with tombstone masking. One
client then sends ``es_api.es_search`` bodies in a closed loop, in
blocks of ``corpus.ES_MIX_PERIOD``: mostly ``match``, plus one-level
``bool``, ``fuzzy`` and ``prefix``. No two requests share a term, so each
reads segment files through the bucket-map pruning and decodes them. An
op is one ES request. The OS page cache stays warm: "cold" means the
program's caches.
"""

from __future__ import annotations

import os
import time

import pyarrow.compute as pc

import corpus
import probe
from harness import Deadline, Meter, Result, block_summary, prepare

N_DOCS = 2000
# two shards: a request's terms then sit in every shard file, so each
# request reads the same number of files and costs about the same
N_SHARDS = 2
N_FILES = 8
N_BODIES = 400


class State:
    pass


def setup(ctx) -> State:
    from stacksearch_ray.append import append_to_index, delete_from_index
    from stacksearch_ray.build import index_disk_usage
    from stacksearch_ray.checkpoint import build_index_resumable
    from stacksearch_ray.query import QueryEngine

    st = State()
    st.corpus, st.dir, st.ids = prepare(ctx, N_DOCS, N_FILES, "serve_es")
    st.index = os.path.join(st.dir, "index")
    build_index_resumable(os.path.join(st.dir, "base"), st.index,
                          concurrency=ctx.cpus, num_shards=N_SHARDS)
    st.built = probe.manifest(st.index)
    append_to_index(os.path.join(st.dir, "delta.parquet"), st.index)
    st.deleted = set(st.ids[st.corpus.delete_rows].tolist())
    delete_from_index(st.index, sorted(st.deleted))
    in_bytes = sum(pc.sum(pc.binary_length(t["content"])).as_py()
                   for t in (st.corpus.table, st.corpus.delta))
    st.index_bytes_per_input_byte = (index_disk_usage(st.index)["total"]
                                     / in_bytes)
    st.engine = QueryEngine(st.index)
    st.bodies = corpus.es_bodies(st.corpus, ctx.seed, N_BODIES)
    return st


def _hits(resp: dict) -> list[tuple[int, float]]:
    return [(int(h["_id"]), h["_score"]) for h in resp["hits"]["hits"]]


def measure(ctx, st: State) -> Result:
    from stacksearch_ray.es_api import es_search

    tr = ctx.tr
    tracing = tr.enabled
    res = Result()
    blocks = []
    dl = Deadline(ctx.seconds)
    n = corpus.ES_MIX_PERIOD
    while (not blocks or dl.left() > 0
           or (tracing and len(blocks) < 2)):
        lo = len(blocks) * n
        if not ctx.check(lo + n <= len(st.bodies),
                         "ran out of fresh ES bodies before the measuring "
                         "time ended"):
            break
        traced = tracing and len(blocks) % 2 == 1
        tr.enabled = traced
        meter, resps = Meter(time.process_time), []
        with meter:
            for i in range(lo, lo + n):
                tr.request = i
                with tr.span("es_api.es_search"):
                    resps.append(es_search(st.engine, st.bodies[i][1]))
        tr.enabled = False
        # output checks, untimed: no deleted id in any response, and
        # match hits equal the direct engine call (now warm)
        for (kind, body, _), resp in zip(st.bodies[lo:lo + n], resps):
            ok = not any(d in st.deleted for d, _ in _hits(resp))
            if kind == "match":
                direct = st.engine.search(body["query"]["match"]["content"],
                                          10)
                ok = ok and _hits(resp) == direct
            res.attempted += 1
            res.failed += not ok
        blocks.append({"ops": n, "cpu": meter.cpu, "wall": meter.wall,
                       "full": meter.wall, "traced": traced})
    res.samples = {"blocks": blocks}
    summary = block_summary(ctx, blocks)
    res.e2e = {"cpu_ms_per_op": summary["cpu_ms_per_op"],
               "index_bytes_per_input_byte": st.index_bytes_per_input_byte}
    if tracing:
        res.layer = {k: v for k, v in summary.items() if k.startswith("trace.")}
        nxt = st.bodies[len(blocks) * n:]
        res.layer.update(probe.run(
            ctx, corpus=st.corpus, ids=st.ids, index=st.index,
            built=st.built, engine=st.engine,
            queries=[b["query"]["match"]["content"]
                     for kind, b, _ in nxt if kind == "match"],
            corpus_dir=st.dir))
    return res
