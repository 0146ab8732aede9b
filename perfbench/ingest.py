"""``ingest``: writes only.

Each cycle builds the seeded corpus twice, once with
``checkpoint.build_index_resumable`` (``concurrency`` = CPUs) and once
with ``build.build_index``; then, on the resumable index, appends a
disjoint 5% delta, deletes 1% of the ids and compacts. Every query layer
stays idle apart from the output checks. Cycles repeat until the
measuring time is spent. An op is one base document taken through a
cycle: ``cpu_ms_per_op`` is the CPU of the cycles' write calls, over the
client and every Ray process, per base document.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import corpus
import probe
from harness import Deadline, Meter, Result, block_summary, log, median, prepare

N_DOCS = 4000
N_FILES = 8


class State:
    pass


def warm(ctx, base: str) -> None:
    """Build one input file both ways, so Ray's workers, their imports
    and both build pipelines are warm before the first measured cycle."""
    from stacksearch_ray.build import build_index
    from stacksearch_ray.checkpoint import build_index_resumable

    first = os.path.join(base, sorted(os.listdir(base))[0])
    d = os.path.join(ctx.work, "warm")
    build_index_resumable([first], os.path.join(d, "resumable"),
                          concurrency=ctx.cpus)
    build_index(first, os.path.join(d, "streamed"))
    shutil.rmtree(d, ignore_errors=True)


def deleted_doc_queries(c, ids: np.ndarray, n: int) -> dict[str, int]:
    """For ``n`` deleted docs, a query of two of the doc's terms whose
    document frequency is at most 5. At most 10 docs then match, so the
    doc is in the top-10 while alive."""
    out = {}
    for row in c.delete_rows:
        text = c.table["content"][int(row)].as_py()
        toks = {w.strip(",:()") for w in text.split()}
        rare = sorted(t for t in toks if c.term_df.get(t, 99) <= 5)
        if len(rare) >= 2:
            out[" ".join(rare[:2])] = int(ids[row])
        if len(out) == n:
            break
    return out


def setup(ctx) -> State:
    st = State()
    st.corpus, st.dir, st.ids = prepare(ctx, N_DOCS, N_FILES, "ingest")
    st.base = os.path.join(st.dir, "base")
    st.delta = os.path.join(st.dir, "delta.parquet")
    st.in_bytes = int(pc.sum(pc.binary_length(
        st.corpus.table["content"])).as_py())
    st.del_ids = st.ids[st.corpus.delete_rows]
    st.targets = deleted_doc_queries(st.corpus, st.ids, 3)
    st.queries = corpus.hot_queries(st.corpus, ctx.seed, 5) + list(st.targets)
    st.kept = None  # (index, manifest) of the last kept cycle
    warm(ctx, st.base)
    return st


def _term_dict(index_dir: str) -> pa.Table:
    t = pq.read_table(os.path.join(index_dir, "term_dict"))
    return t.select(["term", "df", "cf"]).sort_by("term")


def _topk(ctx, index_dir: str, queries: list[str]) -> list[list]:
    """Top-10 of each query on a fresh engine. A first search naming
    every query term reads all their segment rows at once, so the checks
    pay one cold read instead of one per query."""
    from stacksearch_ray.query import QueryEngine

    tr = ctx.tr
    with tr.span("query.QueryEngine"):
        eng = QueryEngine(index_dir)
    with tr.span("query.search"):
        eng.search(" ".join(queries), 10)
    out = []
    for q in queries:
        with tr.span("query.search"):
            out.append(eng.search(q, 10))
    return out


def _cycle(ctx, st: State, i: int, traced: bool, keep: bool) -> dict:
    """One build/append/delete/compact cycle: a measuring block whose
    ops are the ``N_DOCS`` base documents it writes. Only the five write
    calls are metered; the output checks between them are not. With
    ``keep`` the cycle's resumable index, and its build manifest, stay
    for the layer probe in place of the last kept one."""
    from stacksearch_ray.append import (append_to_index, compact_index,
                                        delete_from_index)
    from stacksearch_ray.build import build_index, index_disk_usage
    from stacksearch_ray.checkpoint import build_index_resumable

    tr = ctx.tr
    tr.enabled, tr.request = traced, i
    cdir = os.path.join(ctx.work, f"ingest-cycle{i}")
    res_dir, str_dir = os.path.join(cdir, "resumable"), os.path.join(cdir, "streamed")
    meter = Meter()
    w0 = time.perf_counter()
    with meter, tr.span("checkpoint.build_index_resumable"):
        build_index_resumable(st.base, res_dir, concurrency=ctx.cpus)
    built = probe.manifest(res_dir)
    with meter, tr.span("build.build_index"):
        build_index(st.base, str_dir)
    with tr.span("build.index_disk_usage"):
        du = index_disk_usage(str_dir)

    td_res, td_str = _term_dict(res_dir), _term_dict(str_dir)
    if not ctx.check(td_res.equals(td_str),
                     f"cycle {i}: resumable and streamed term_dict differ"):
        a = {tuple(r.values()) for r in td_res.to_pylist()}
        b = {tuple(r.values()) for r in td_str.to_pylist()}
        log(f"term_dict rows {td_res.num_rows} vs {td_str.num_rows}; "
            f"differing (term, df, cf): {sorted(a ^ b)[:6]}")
    a = _topk(ctx, res_dir, st.queries)
    b = _topk(ctx, str_dir, st.queries)
    ctx.check(a == b, f"cycle {i}: resumable and streamed top-10 differ")
    for q, (hits, doc) in zip(st.queries[-len(st.targets):],
                              zip(a[-len(st.targets):], st.targets.values())):
        ctx.check(doc in [d for d, _ in hits],
                  f"cycle {i}: doc {doc} missing from top-10 of {q!r} "
                  "before delete")

    with meter, tr.span("append.append_to_index"):
        append_to_index(st.delta, res_dir)
    with meter, tr.span("append.delete_from_index"):
        delete_from_index(res_dir, st.del_ids.tolist())
    deleted = set(st.del_ids.tolist())
    before = _topk(ctx, res_dir, st.queries)
    ctx.check(not any(d in deleted for hits in before for d, _ in hits),
              f"cycle {i}: deleted id returned after delete")
    with meter, tr.span("append.compact_index"):
        compact_index(res_dir)
    after = _topk(ctx, res_dir, st.queries)
    ctx.check(after == before, f"cycle {i}: compaction changed a top-10")
    tr.enabled = False
    if keep:
        if st.kept:
            shutil.rmtree(os.path.dirname(st.kept[0]), ignore_errors=True)
        st.kept = (res_dir, built)
    else:
        shutil.rmtree(cdir, ignore_errors=True)
    return {"ops": N_DOCS, "cpu": meter.cpu, "wall": meter.wall,
            "full": time.perf_counter() - w0, "traced": traced,
            "calls": 5 + 4 * len(st.queries),
            "index_bytes_per_input_byte": du["total"] / st.in_bytes}


def measure(ctx, st: State) -> Result:
    tracing = ctx.tr.enabled
    dl = Deadline(ctx.seconds)
    blocks = []
    # a traced run alternates untraced and traced cycles and keeps at
    # least one of each
    while (not blocks or dl.left() > 0
           or (tracing and len(blocks) < 2)):
        i = len(blocks)
        is_traced = tracing and i % 2 == 1
        blocks.append(_cycle(ctx, st, i, is_traced, keep=is_traced))
    res = Result(attempted=sum(b["calls"] for b in blocks))
    res.samples = {"cycles": blocks}
    summary = block_summary(ctx, blocks)
    res.e2e = {"cpu_ms_per_op": summary["cpu_ms_per_op"],
               "index_bytes_per_input_byte":
                   median([b["index_bytes_per_input_byte"] for b in blocks])}
    if tracing:
        from stacksearch_ray.query import QueryEngine

        res.layer = {k: v for k, v in summary.items() if k.startswith("trace.")}
        index, built = st.kept
        res.layer.update(probe.run(
            ctx, corpus=st.corpus, ids=st.ids, index=index, built=built,
            engine=QueryEngine(index), queries=st.queries,
            corpus_dir=st.dir))
    return res
