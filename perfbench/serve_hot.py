"""``serve_hot``: reads that fit in cache.

Set-up builds a pristine index and warms the engine until each term of
a fixed, seeded query set is cached. One client then cycles the set in a
closed loop through ``QueryEngine.search`` (method ``auto``). No timed
request reads or decodes segment files, so scorer-router costs show.
The two-worker ``ShardedQueryEngine`` is measured by the layer probe.
"""

from __future__ import annotations

import os
import time

import pyarrow.compute as pc

import corpus
import probe
from harness import Deadline, Meter, Result, block_summary, prepare

N_DOCS = 20_000
N_FILES = 8
N_QUERIES = 300


class State:
    pass


def _mega(queries: list[str]) -> str:
    """One query naming every term of the set: searching it once reads
    all their segment rows."""
    return " ".join(sorted({t for q in queries for t in q.split()}))


def setup(ctx) -> State:
    from stacksearch_ray.build import index_disk_usage
    from stacksearch_ray.checkpoint import build_index_resumable
    from stacksearch_ray.query import QueryEngine

    st = State()
    st.corpus, st.dir, st.ids = prepare(ctx, N_DOCS, N_FILES, "serve_hot")
    st.index = os.path.join(st.dir, "index")
    build_index_resumable(os.path.join(st.dir, "base"), st.index,
                          concurrency=ctx.cpus)
    st.built = probe.manifest(st.index)
    in_bytes = pc.sum(pc.binary_length(st.corpus.table["content"])).as_py()
    st.index_bytes_per_input_byte = (index_disk_usage(st.index)["total"]
                                     / in_bytes)
    st.queries = corpus.hot_queries(st.corpus, ctx.seed, N_QUERIES)
    st.mega = _mega(st.queries)
    st.engine = QueryEngine(st.index)
    st.engine.search(st.mega, 10)
    # the reference answers: every response must equal exhaustive scoring
    st.ref = {q: st.engine.search(q, 10, method="exhaustive")
              for q in st.queries}
    for q in st.queries:
        st.engine.search(q, 10)
    return st


def _pass(ctx, st: State, res: Result, traced: bool) -> dict:
    """The query set once through the engine, metered as a whole; in a
    traced pass, one span around each request."""
    tr = ctx.tr
    tr.enabled = traced
    out, meter = [], Meter(time.process_time)
    with meter:
        for j, q in enumerate(st.queries):
            tr.request = j
            with tr.span("query.search"):
                out.append(st.engine.search(q, 10))
    tr.enabled = False
    res.attempted += len(out)
    res.failed += sum(r != st.ref[q] for q, r in zip(st.queries, out))
    return {"ops": len(out), "cpu": meter.cpu, "wall": meter.wall,
            "full": meter.wall, "traced": traced}


def _oracle_check(ctx, st: State) -> None:
    """A seeded sample of the set against the pure-Python BM25 oracle."""
    from stacksearch_ray.oracle import OracleBM25

    oracle = OracleBM25(dict(zip(st.ids.tolist(),
                                 st.corpus.table["content"].to_pylist())))
    for q in st.queries[1:4]:
        ctx.check(oracle.search(q, 10) == st.ref[q],
                  f"oracle top-10 differs for {q!r}")


def measure(ctx, st: State) -> Result:
    """Passes over the query set until the measuring time is spent. An
    op is one query."""
    tracing = ctx.tr.enabled
    res = Result()
    dl = Deadline(ctx.seconds)
    blocks = []
    while (not blocks or dl.left() > 0
           or (tracing and len(blocks) < 2)):
        blocks.append(_pass(ctx, st, res, tracing and len(blocks) % 2 == 1))
    _oracle_check(ctx, st)
    res.samples = {"passes": blocks}
    summary = block_summary(ctx, blocks)
    res.e2e = {"cpu_ms_per_op": summary["cpu_ms_per_op"],
               "index_bytes_per_input_byte": st.index_bytes_per_input_byte}
    if tracing:
        res.layer = {k: v for k, v in summary.items() if k.startswith("trace.")}
        res.layer.update(probe.run(
            ctx, corpus=st.corpus, ids=st.ids, index=st.index,
            built=st.built, engine=st.engine, queries=st.queries,
            corpus_dir=st.dir))
    return res
