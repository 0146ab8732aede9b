"""Parity extras: M4 max_tokens cap, K1 TSV sink, medium-scale rank
identity between scorers on a heavier corpus."""

import numpy as np
import pyarrow as pa
import pytest

from stacksearch_ray.corpus import write_corpus
from stacksearch_ray.text import clean_query, tokenize_array


def test_max_tokens_cap_matches_reference_semantics():
    # toWordsArray truncates AFTER stopword removal (models.py:54-61)
    s = "the alpha beta gamma delta epsilon zeta eta theta"
    assert clean_query(s, max_tokens=3) == ["alpha", "beta", "gamma"]
    assert clean_query(s) == clean_query(s, max_tokens=None)

    arr = pa.array([s, "x " * 40, None])
    flat, doc_idx, lens = tokenize_array(arr, max_tokens=3)
    assert lens.tolist() == [3, 3, 0]
    toks = flat.to_pylist()
    assert [toks[j] for j in np.flatnonzero(doc_idx == 0)] == ["alpha", "beta", "gamma"]


def test_write_partitioned_resumable(ray_session, tmp_path):
    """Finished partitions (with _DONE) are skipped on re-run; a
    half-written partition (no marker) is rebuilt from scratch."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from stacksearch_ray.sinks import write_partitioned_resumable

    calls = []

    def make_ds(p):
        calls.append(p)
        return rd.from_arrow(pa.table({"part": [p] * 3,
                                       "x": [1, 2, 3]}))

    out = str(tmp_path / "out")
    r1 = write_partitioned_resumable(make_ds, out, ["a", "b", "c"])
    assert r1 == {"written": ["a", "b", "c"], "skipped": []}
    # simulate a crash mid-partition: marker gone, debris present
    os.remove(os.path.join(out, "part=b", "_DONE"))
    with open(os.path.join(out, "part=b", "garbage.parquet"), "w") as f:
        f.write("junk")
    calls.clear()
    r2 = write_partitioned_resumable(make_ds, out, ["a", "b", "c"])
    assert r2 == {"written": ["b"], "skipped": ["a", "c"]}
    assert calls == ["b"]  # skipped partitions never build their Dataset
    t = pq.read_table(os.path.join(out, "part=b"))
    assert t.num_rows == 3 and "garbage" not in str(
        os.listdir(os.path.join(out, "part=b")))


def test_jsonl_sink_roundtrip(ray_session, tmp_path):
    """Sharded JSONL export round-trips through ray.data.read_json and
    never leaves partial (.tmp) files behind."""
    import os

    import ray.data as rd

    from stacksearch_ray.sinks import write_jsonl

    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(100)),
        "text": [f"line {i} with \"quotes\" and\ttabs" for i in range(100)],
        "score": [i / 7 for i in range(100)],
    }))
    out = str(tmp_path / "jsonl")
    n = write_jsonl(ds, out, batch_size=16)
    assert n == 100
    files = os.listdir(out)
    assert files and all(f.endswith(".jsonl") for f in files)
    back = (rd.read_json(out).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    orig = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(back["text"]) == list(orig["text"])
    assert np.allclose(back["score"], orig["score"])


def test_projector_tsv_sink(ray_session, tmp_path):
    import ray.data as rd

    from stacksearch_ray.sinks import export_projector_tsv

    ds = rd.from_items([
        {"vec": [0.1, 0.2], "doc_id": 1, "title": "has\ttab"},
        {"vec": [0.3, 0.4], "doc_id": 2, "title": "two\nlines"},
    ])
    vecs, meta = export_projector_tsv(ds, str(tmp_path), "vec",
                                      ["doc_id", "title"])
    vlines = open(vecs).read().splitlines()
    mlines = open(meta).read().splitlines()
    assert len(vlines) == 2 and len(mlines) == 3  # header + rows
    assert mlines[0] == "doc_id\ttitle"
    assert vlines[0] == "0.1\t0.2"
    assert "\t" in mlines[1] and mlines[1].count("\t") == 1  # tabs escaped


def test_medium_scale_scorer_identity(ray_session, tmp_path_factory):
    """WAND == exhaustive (ids + scores) on a heavier 3k-doc corpus with
    realistic long-tail terms — 60 pseudo-random queries."""
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("medium")
    corpus = str(root / "corpus")
    write_corpus(corpus, 3000, rows_per_file=500, lines=(10, 60))
    idx = str(root / "idx")
    build_index(corpus, idx, num_shards=8)
    eng = QueryEngine(idx)
    rng = np.random.default_rng(5)
    vocab = (["def", "import", "return", "class"]
             + [f"var_{i}" for i in range(0, 997, 37)]
             + [f"helper_{i}" for i in range(0, 211, 11)]
             + ["zzz_missing"])
    for _ in range(60):
        q = " ".join(rng.choice(vocab, size=int(rng.integers(1, 5)),
                                replace=False))
        expected = eng.search(q, 10, "exhaustive")
        assert eng.search(q, 10, "bmax") == expected, q


def test_doc_store_lookup(ray_session, tmp_path_factory):
    """get_docs / search_with_docs (J1/J2: fetch-by-id + display path)."""
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("docstore")
    corpus = str(root / "c")
    write_corpus(corpus, 100, rows_per_file=50)
    idx = str(root / "i")
    build_index(corpus, idx, num_shards=2)
    eng = QueryEngine(idx)
    res = eng.search("def return var_1", 3)
    rows = eng.search_with_docs("def return var_1", 3)
    assert [r["doc_id"] for r in rows] == [d for d, _ in res]
    assert rows[0]["rank"] == 1 and rows[0]["score"] == res[0][1]
    assert {"repo", "path", "commit", "content_sha256"} <= set(rows[0])
    # unknown id silently absent
    assert eng.get_docs([123456789]) == []


def test_grouped_topk_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd
    import pyarrow as pa

    from stacksearch_ray.functions.topk import grouped_topk

    rng = np.random.default_rng(6)
    df = pd.DataFrame({"g": rng.integers(0, 5, 300),
                       "v": rng.integers(0, 40, 300),
                       "id": np.arange(300)})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)).repartition(6)
    got = (grouped_topk(ds, "g", "v", k=4, tie_col="id").to_pandas()
           .sort_values(["g", "rank"]).reset_index(drop=True))
    expect = (df.sort_values(["g", "v", "id"], ascending=[True, False, True],
                             kind="mergesort")
              .groupby("g", sort=True).head(4).reset_index(drop=True))
    assert got[["g", "v", "id"]].astype("int64").equals(
        expect[["g", "v", "id"]].astype("int64"))


def test_build_from_dataset_source(ray_session, tmp_path_factory):
    """build_index accepts a Dataset (e.g. post-dedup output) and yields
    the same index as the path source."""
    import ray.data as rd
    import pyarrow.parquet as pq
    import os

    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("dssrc")
    corpus = str(root / "c")
    write_corpus(corpus, 150, rows_per_file=50)
    i1, i2 = str(root / "i1"), str(root / "i2")
    build_index(corpus, i1, num_shards=2)
    build_index(rd.read_parquet(corpus), i2, num_shards=2)
    t1 = pq.read_table(os.path.join(i1, "segments")).sort_by(
        [("term", "ascending"), ("shard", "ascending")])
    t2 = pq.read_table(os.path.join(i2, "segments")).sort_by(
        [("term", "ascending"), ("shard", "ascending")])
    assert t1.equals(t2)
    assert (QueryEngine(i1).search("def return", 5)
            == QueryEngine(i2).search("def return", 5))
