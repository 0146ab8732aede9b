"""bmax on mutated indexes: random sequences of append, delete (among
them deletes of the current top hits), purge and ``merge_indexes`` over
corpora of at most about 50 docs. After every step ``bmax``, ``auto``
and ``exhaustive`` equal ``OracleBM25`` over the alive docs, bitwise,
at k in {1, 10, 50}, and fsck is clean.

One-doc blocks give every doc its own block-max interval, so a query
term spans more intervals than bmax's first batch and the scorer
really prunes: a tombstoned top hit left in its threshold would cut off
the live docs that replace it. With up to 8 shards and several appends
a term spans many segment rows, which every scorer reads as one merged
posting list."""
import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stacksearch_ray.oracle import OracleBM25

VOCAB = [f"w{i}" for i in range(8)]
QUERIES = ["w0", "w1", "w0 w1", "w2 w5", "w0 w3 w6"]
KS = (1, 10, 50)


def _docs(seed: int, first_id: int, n: int) -> dict[int, str]:
    """n docs with zipf-skewed terms (w0 in most) and varied lengths."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n):
        ranks = np.minimum(rng.zipf(1.6, int(rng.integers(1, 25))), 8) - 1
        out[first_id + i] = " ".join(VOCAB[r] for r in ranks)
    return out


def _write(docs: dict[int, str], path: str) -> str:
    pq.write_table(pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.string())}), path)
    return path


_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 8)),
    st.tuples(st.just("delete"), st.integers(1, 6)),
    st.tuples(st.just("delete_top"), st.sampled_from(QUERIES),
              st.integers(1, 12)),
    st.tuples(st.just("purge"), st.integers(1, 6)),
    st.tuples(st.just("merge"), st.integers(1, 8)),
)


def _check(idx: str, alive: dict[int, str]) -> None:
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine

    rep = fsck_index(idx)
    assert rep.ok, rep.errors
    eng, oracle = QueryEngine(idx), OracleBM25(alive)
    for q in QUERIES:
        for k in KS:
            want = oracle.search(q, k)
            for method in ("exhaustive", "bmax", "auto"):
                assert eng.search(q, k, method) == want, (q, k, method)


@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@given(seed=st.integers(0, 2**16), n_base=st.integers(20, 34),
       num_shards=st.sampled_from([1, 3, 8]),
       ops=st.lists(_OPS, min_size=1, max_size=4))
@example(seed=3, n_base=30, num_shards=8,
         ops=[("append", 5), ("append", 8), ("delete_top", "w0", 7),
              ("append", 3)]).via("terms span many rows")
@example(seed=4, n_base=24, num_shards=3,
         ops=[("append", 6), ("merge", 7), ("append", 4),
              ("delete", 5)]).via("terms span many rows")
def test_bmax_equals_exhaustive_and_oracle_on_mutated_index(
        ray_session, seed, n_base, num_shards, ops):
    from stacksearch_ray.append import (
        append_to_index,
        delete_from_index,
        load_tombstones,
        merge_indexes,
        purge_doc_ids,
    )
    from stacksearch_ray.build import build_index, load_stats
    from stacksearch_ray.query import QueryEngine

    kw = dict(content_col="text", id_col="doc_id", num_shards=num_shards,
              block_size=1)
    root = tempfile.mkdtemp(prefix="bmax_mut_")
    try:
        alive = _docs(seed, 0, n_base)
        next_id, step = n_base, 0
        idx = os.path.join(root, "idx0")
        build_index(_write(alive, os.path.join(root, "base.parquet")),
                    idx, **kw)
        _check(idx, alive)
        for op in ops:
            step += 1
            rng = np.random.default_rng([seed, step])
            kind = op[0]
            if kind in ("append", "merge"):
                new = _docs(seed + step, next_id, op[1])
                next_id += op[1]
                src = _write(new, os.path.join(root, f"d{step}.parquet"))
                if kind == "append":
                    append_to_index(src, idx)
                else:
                    other = os.path.join(root, f"other{step}")
                    build_index(src, other, **kw)
                    out = os.path.join(root, f"idx{step}")
                    merge_indexes([idx, other], out)
                    idx = out
                alive.update(new)
            elif kind == "delete":
                ids = sorted(alive)
                gone = rng.choice(ids, size=min(op[1], len(ids) - 1),
                                  replace=False).tolist()
                delete_from_index(idx, gone)
                for d in gone:
                    del alive[d]
            elif kind == "delete_top":
                top = QueryEngine(idx).search(op[1], op[2], "exhaustive")
                gone = [d for d, _ in top][:len(alive) - 1]
                delete_from_index(idx, gone)
                for d in gone:
                    del alive[d]
            else:  # purge some of the tombstoned ids
                tomb = load_tombstones(idx, load_stats(idx))
                if not len(tomb):
                    continue
                purge_doc_ids(idx, rng.choice(
                    tomb, size=min(op[1], len(tomb)), replace=False))
            _check(idx, alive)
    finally:
        shutil.rmtree(root, ignore_errors=True)
