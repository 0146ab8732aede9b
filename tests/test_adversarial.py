"""Hardening: nasty inputs through the full build→query path must still be
rank-identical to the oracle (and the vectorized tokenizer must equal the
scalar reference semantics on every edge)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from stacksearch_ray.oracle import OracleBM25
from stacksearch_ray.text import clean_query, tokenize_array

NASTY = [
    "héllo wörld naïve café',;:!",           # unicode stripped to ascii
    "日本語のテキスト only unicode here",      # mostly-unicode
    "",                                       # empty
    None,                                     # null
    "the of and a to",                        # stopwords only
    "x" * 100_000,                            # one huge token
    ("tok " * 50_000).strip(),                # huge doc, one term
    "tab\tand\rcarriage\x0breturns\f here",   # exotic whitespace
    "MiXeD CaSe TOKENS lower UPPER",
    "numbers 123 42x7 0 00 007",
    "a\nb\nc\nd",                             # newlines preserved pre-split
    "    leading and trailing     ",
    "'''\"\"\"((()))[[[]]]{{{}}}",            # punctuation only
    "dup dup dup dup dup",                    # high tf
]


def test_tokenizer_vectorized_equals_scalar_on_nasty():
    arr = pa.array(NASTY, type=pa.string())
    flat, doc_idx, lens = tokenize_array(arr)
    toks = flat.to_pylist()
    for i, doc in enumerate(NASTY):
        mine = [toks[j] for j in np.flatnonzero(doc_idx == i)]
        expect = clean_query(doc) if doc else []
        assert mine == expect, repr(doc)


def test_build_query_on_nasty_corpus(ray_session, tmp_path):
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    docs = {i: (t or "") for i, t in enumerate(NASTY)}
    # pad with normal docs so stats aren't degenerate
    for i in range(100, 140):
        docs[i] = f"normal document number {i} with merge sort join terms var_{i}"
    table = pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array([docs[k] if docs[k] else None for k in docs], pa.string()),
    })
    src = str(tmp_path / "nasty.parquet")
    pq.write_table(table, src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, content_col="text", id_col="doc_id",
                meta_cols=(), num_shards=4)
    oracle = OracleBM25(docs)
    eng = QueryEngine(idx)
    queries = ["hllo wrld", "tok", "x" * 100_000, "dup", "merge sort join",
               "the of", "", "123 007", "tab carriage"]
    for q in queries:
        o = oracle.search(q, 10)
        assert eng.search(q, 10, "exhaustive") == o, repr(q)
        assert eng.search(q, 10, "bmax") == o, repr(q)


def test_query_engine_missing_index_dir():
    from stacksearch_ray.query import QueryEngine

    with pytest.raises(FileNotFoundError):
        QueryEngine("/tmp/definitely_not_an_index_dir_xyz")


def test_duplicate_doc_ids_fail_loudly(ray_session, tmp_path):
    from stacksearch_ray.build import DocIdCollisionError, build_index

    table = pa.table({
        "doc_id": pa.array([1, 2, 2, 3], pa.int64()),  # duplicate id 2
        "text": pa.array(["alpha beta", "gamma delta", "epsilon zeta",
                          "eta theta"]),
    })
    src = str(tmp_path / "dup.parquet")
    pq.write_table(table, src)
    with pytest.raises(DocIdCollisionError):
        build_index(src, str(tmp_path / "idx"), content_col="text",
                    id_col="doc_id", meta_cols=(), num_shards=2)
