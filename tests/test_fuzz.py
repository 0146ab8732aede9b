"""Hypothesis fuzz: the vectorized tokenizer equals the scalar reference
semantics on arbitrary unicode, and arbitrary query strings never break
the engine (and always stay rank-identical to the oracle)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksearch_ray.corpus import generate_corpus, write_corpus
from stacksearch_ray.oracle import OracleBM25
from stacksearch_ray.schema import doc_id_for
from stacksearch_ray.text import clean_query, tokenize_array


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=200), max_size=20))
def test_tokenizer_vectorized_equals_scalar_fuzz(texts):
    arr = pa.array(texts, type=pa.string())
    flat, doc_idx, lens = tokenize_array(arr)
    toks = flat.to_pylist()
    for i, doc in enumerate(texts):
        mine = [toks[j] for j in np.flatnonzero(doc_idx == i)]
        assert mine == clean_query(doc), repr(doc)
        assert lens[i] == len(clean_query(doc))


@pytest.fixture(scope="module")
def fuzz_index(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("fuzz")
    corpus = str(root / "c")
    write_corpus(corpus, 150, rows_per_file=75)
    idx = str(root / "i")
    build_index(corpus, idx, num_shards=4)
    tbl = generate_corpus(150)
    docs = {doc_id_for(r, p, c): t for r, p, c, t in
            zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
                tbl["commit"].to_pylist(), tbl["content"].to_pylist())}
    return QueryEngine(idx), OracleBM25(docs)


def test_fuzzed_queries_rank_identical(fuzz_index):
    from hypothesis import strategies as st

    eng, oracle = fuzz_index
    # mix of corpus terms, garbage, unicode, punctuation
    rng = np.random.default_rng(21)
    pieces = ["def", "var_3", "helper_7", "ZZZ", "'); DROP", "héllo",
              "\n\n", "a", "x" * 5000, "123", "the of", ""]
    for _ in range(120):
        n = int(rng.integers(0, 6))
        q = " ".join(rng.choice(pieces, size=n)) if n else ""
        assert eng.search(q, 10) == oracle.search(q, 10), repr(q)
        assert eng.search(q, 10, "bmax") == oracle.search(q, 10), repr(q)
