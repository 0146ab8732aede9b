"""End-to-end: distributed build → query, rank-identical (docIDs AND
bitwise float64 scores) to the single-process oracle on the FIXTURES
corpus + reference query set (SURVEY.md §5), plus round-trip reload
(/root/reference/tests/minhash_index_test.py:33-40 analog) and the
per-row sha256 invariant (BASELINE.json input_hint)."""

import hashlib

import pyarrow.parquet as pq
import pytest

from stacksearch_ray.corpus import GOLDEN_SENTENCES, generate_corpus, write_corpus
from stacksearch_ray.oracle import OracleBM25
from stacksearch_ray.schema import doc_id_for

N_DOCS = 400

QUERIES = [
    "Determine a user's timezone",
    "Converting ARBG to RGB alpha blending",
    "Regex: To pull out a sub-string between two tags in a string",
    "ASP.Net Custom Client-Side Validation",
    "What are the preferred versions of Vim and Emacs on Mac OS X",
    "Normalizing a Table with Low Integrity",
    "What is the best way to store connection string in .NET DLLs?",
    "What are the advantages of using SVN over CVS",
    "numpy python",
    "def return var_1 helper_3",
    "import class field_7",
    "zzz_no_such_term",
]


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("idx")
    corpus_dir = str(root / "corpus")
    index_dir = str(root / "index")
    write_corpus(corpus_dir, N_DOCS, rows_per_file=100)
    stats = build_index(corpus_dir, index_dir, num_shards=4)
    return corpus_dir, index_dir, stats


@pytest.fixture(scope="module")
def oracle():
    tbl = generate_corpus(N_DOCS)
    docs = {
        doc_id_for(r, p, c): t
        for r, p, c, t in zip(tbl["repo"].to_pylist(), tbl["path"].to_pylist(),
                              tbl["commit"].to_pylist(), tbl["content"].to_pylist())
    }
    return OracleBM25(docs), docs


def test_stats_match_oracle(built_index, oracle):
    _, _, stats = built_index
    o, _ = oracle
    assert stats["n_docs"] == o.n_docs
    assert stats["avgdl"] == o.avgdl


def test_rank_identity_both_scorers(built_index, oracle):
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    o, _ = oracle
    eng = QueryEngine(index_dir)
    for q in QUERIES:
        expected = o.search(q, 10)
        assert eng.search(q, 10, method="exhaustive") == expected, q
        assert eng.search(q, 10, method="bmax") == expected, q
    # one name per scorer: a misspelt or retired name raises
    for bad in ("wand", "bmx", "BMAX", ""):
        with pytest.raises(ValueError, match="unknown search method"):
            eng.search(QUERIES[0], 10, method=bad)


def test_golden_docs_in_top10(built_index, oracle):
    """Reference behavior proxy (/root/reference/tests/test_index_query.py:
    31-33): the doc embedding each golden sentence ranks in its query's
    top-10."""
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    tbl = generate_corpus(N_DOCS)
    for i, sentence in enumerate(GOLDEN_SENTENCES):
        expected_doc = doc_id_for(tbl["repo"][i].as_py(), tbl["path"][i].as_py(),
                                  tbl["commit"][i].as_py())
        got = [d for d, _ in eng.search(sentence, 10)]
        assert expected_doc in got, sentence


def test_roundtrip_reload(built_index):
    """Fresh engine over the same on-disk index → identical results
    (save→load→same-search, minhash_index_test.py:33-40 analog)."""
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    a, b = QueryEngine(index_dir), QueryEngine(index_dir)
    for q in QUERIES[:4]:
        assert a.search(q, 10) == b.search(q, 10)


def test_sha256_invariant(built_index):
    """100% per-row content sha256 equality source → docs table."""
    corpus_dir, index_dir, _ = built_index
    src = pq.read_table(corpus_dir)
    expected = {
        doc_id_for(r, p, c): hashlib.sha256(t.encode()).hexdigest()
        for r, p, c, t in zip(src["repo"].to_pylist(), src["path"].to_pylist(),
                              src["commit"].to_pylist(), src["content"].to_pylist())
    }
    docs = pq.read_table(index_dir + "/docs", columns=["doc_id", "content_sha256"])
    got = dict(zip(docs["doc_id"].to_pylist(), docs["content_sha256"].to_pylist()))
    assert len(got) == len(expected)  # no empty docs in the synthetic corpus
    for doc_id, sha in got.items():
        assert expected[doc_id] == sha


def test_batch_search_actor(built_index, oracle):
    """Actor-pool batch query stage returns the same results as the driver
    engine (stateful map_batches pattern)."""
    import ray.data as rd

    from stacksearch_ray.query import BM25SearchActor, QueryEngine

    _, index_dir, _ = built_index
    qds = rd.from_items([{"query": q} for q in QUERIES[:6]])
    out = qds.map_batches(
        BM25SearchActor, batch_format="pyarrow", batch_size=3,
        concurrency=2, fn_constructor_kwargs={"index_dir": index_dir, "k": 5},
    ).to_pandas()
    eng = QueryEngine(index_dir)
    for q in QUERIES[:6]:
        got = out[out["query"] == q].sort_values("rank")
        expected = eng.search(q, 5)
        assert list(zip(got["doc_id"], got["score"])) == expected


def test_auto_routing_by_size_and_doclen_cv(built_index):
    """method='auto' routes by posting volume AND the corpus's
    doc-length dispersion (measured in scripts/scorer_shootout.py):
    large queries on a dispersed corpus go to bmax, the rest stay on
    TAAT — and both return identical rankings either way."""
    from unittest import mock

    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    q = "def import"  # hot corpus terms — nonzero postings guaranteed
    # thresholds scaled to the tiny corpus: everything qualifies by size
    eng.bmax_min_postings = 1
    eng.wand_min_postings = 10**12
    with mock.patch.object(eng, "_search_bmax",
                           wraps=eng._search_bmax) as mb:
        eng.bmax_min_dl_cv = 0.0          # any dispersion qualifies
        auto_res = eng.search(q, 10, method="auto")
        assert mb.called
    with mock.patch.object(eng, "_search_bmax",
                           wraps=eng._search_bmax) as mb:
        eng.bmax_min_dl_cv = 1e9          # no corpus disperses enough
        taat_res = eng.search(q, 10, method="auto")
        assert not mb.called
    assert auto_res == taat_res == eng.search(q, 10, method="exhaustive")


def test_explain_bitwise_matches_search(built_index):
    """explain()'s per-term contributions sum (in the scorer's own
    accumulation order) to the doc's search score EXACTLY."""
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    for q in QUERIES[:8]:
        for doc_id, score in eng.search(q, k=5):
            ex = eng.explain(q, doc_id)
            assert ex["alive"] and ex["doc_id"] == doc_id
            assert ex["score"] == score  # bitwise
            assert ex["score"] == sum(t["contribution"] for t in ex["terms"]) or \
                len(ex["terms"]) > 1  # sum() order == accumulation order for 1 term
            assert all(t["tf"] > 0 or t["contribution"] == 0.0
                       for t in ex["terms"])
    # absent terms report tf=0 with zero contribution
    doc_id, score = eng.search("numpy python", k=1)[0]
    ex = eng.explain("numpy python zzznosuchterm", doc_id)
    absent = [t for t in ex["terms"] if t["term"] == "zzznosuchterm"]
    assert absent and absent[0]["tf"] == 0 and absent[0]["contribution"] == 0.0
    # unknown doc
    assert eng.explain("numpy python", 10**18)["alive"] is False


def test_regex_search_and_terms(built_index):
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    # literal-prefix pruned path and full-scan path agree
    pruned = eng.regex_terms("var[0-9]+")
    assert pruned and all(t.startswith("var") for t in pruned)
    scanned = eng.regex_terms("[v]ar[0-9]+")  # no literal prefix
    assert scanned == pruned
    ids, n_terms, n_tokens = eng.search_regex("var[0-9]+")
    # regex union == manual union over the matched terms
    import numpy as np

    manual = set()
    for t in pruned:
        manual.update(eng.term_doc_ids(t).tolist())
    assert set(ids.tolist()) == manual
    assert (n_terms >= 1).all() and (n_tokens >= n_terms).all()


def test_sharded_explain_bitwise(built_index, ray_session):
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    _, index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    sh = ShardedQueryEngine(index_dir, num_workers=3)
    for q in QUERIES[:3]:
        for doc_id, score in eng.search(q, k=3):
            ex = sh.explain(q, doc_id)
            assert ex["score"] == score  # bitwise, routed to one worker
            assert ex == eng.explain(q, doc_id)


def test_search_boosted(built_index):
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    q = "def return var_1 helper_3"
    plain = eng.search(q, 10, method="exhaustive")
    assert plain
    # all-ones boosts: w * 1.0 is a float no-op -> bitwise identical
    ones = eng.search_boosted({t: 1.0 for t in q.split()}, 10)
    assert ones == plain
    # an asymmetric boost changes the ranking on this corpus
    boosted = eng.search_boosted({"def": 0.05, "return": 0.05,
                                  "var_1": 5.0, "helper_3": 1.0}, 10)
    assert [d for d, _ in boosted] != [d for d, _ in plain]


def test_search_synonym_groups(built_index):
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    eng = QueryEngine(index_dir)
    n = len(eng.doclens.ids)
    # singleton groups degenerate to plain BM25: max over one term is
    # the term's own contribution -> bitwise equal to search()
    q = "def return"
    syn = eng.search_synonym_groups([["def"], ["return"]], n)
    plain = eng.search(q, n, method="exhaustive")
    assert syn == plain
    # group-max semantics: score(d) for one group == max of the two
    # single-term scores, per doc, bitwise
    a, b = "var_1", "helper_3"
    sa = dict(eng.search(a, n, method="exhaustive"))
    sb = dict(eng.search(b, n, method="exhaustive"))
    got = dict(eng.search_synonym_groups([[a, b]], n))
    want = {d: max(sa.get(d, 0.0), sb.get(d, 0.0))
            for d in set(sa) | set(sb)}
    assert got == want
    # unknown terms contribute nothing; all-unknown -> empty
    assert eng.search_synonym_groups([["zzz_no_such_term"]], 10) == []
    assert (eng.search_synonym_groups([[a, "zzz_no_such_term"]], n)
            == eng.search(a, n, method="exhaustive"))


def test_search_prf(built_index, oracle):
    from stacksearch_ray.query import QueryEngine

    _, index_dir, _ = built_index
    _, docs = oracle
    eng = QueryEngine(index_dir)

    def lookup(ids):
        return {d: docs[d] for d in ids}

    q = "def return var_1"
    res, exp = eng.search_prf(q, 10, fb_docs=5, fb_terms=3, beta=0.4,
                              text_lookup=lookup)
    assert res and len(exp) == 3
    qterms = {"def", "return", "var_1"}
    assert not (set(exp) & qterms)  # expansion excludes query terms
    # deterministic across calls (segment cache warm vs cold)
    res2, exp2 = eng.search_prf(q, 10, fb_docs=5, fb_terms=3, beta=0.4,
                                text_lookup=lookup)
    assert res2 == res and exp2 == exp
    # fb_terms=0 -> no expansion -> boosts are all-ones over the query
    # terms -> bitwise identical to the plain exhaustive search
    res0, exp0 = eng.search_prf(q, 10, fb_terms=0, text_lookup=lookup)
    assert exp0 == [] and res0 == eng.search(q, 10, method="exhaustive")
    # expansion ranking is (weight_micros desc, term asc)
    ranked = eng.prf_expansion_terms(q, 5, 50, text_lookup=lookup)
    ws = [(-w, t) for t, w in ranked]
    assert ws == sorted(ws)
    with pytest.raises(ValueError):
        eng.search_prf(q, 10)


def test_field_split_batch_matches_tokenizer():
    import pyarrow as pa

    from stacksearch_ray.pipelines.documents import (
        TITLE_K,
        _field_split_batch,
        _take_ranges,
    )
    from stacksearch_ray.text import clean_query
    import numpy as np

    # _take_ranges == the python-loop reference gather
    rng = np.random.default_rng(7)
    begin = np.sort(rng.integers(0, 50, 20)).astype(np.int64)
    end = begin + rng.integers(0, 9, 20)
    want = np.concatenate([np.arange(b, e) for b, e in zip(begin, end)]
                          or [np.empty(0, np.int64)])
    assert (_take_ranges(begin, end) == want).all()

    texts = [
        "Merge Sort beats the Bubble sort on big tables, always!",
        "a the of",          # all stopwords -> both fields empty
        "",                   # empty doc
        "join " * 20,         # long single-term doc, body non-empty
        "short title only",
    ]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
    out = _field_split_batch(batch)
    for i, text in enumerate(texts):
        toks = clean_query(text)
        title = out["title_text"][i].as_py().split()
        body = out["body_text"][i].as_py().split()
        assert title == toks[:TITLE_K]
        assert body == toks[TITLE_K:]


def test_segment_file_pruning_identity(ray_session, tmp_path_factory):
    """The lazy term-bucket file map prunes cold segment reads; results
    must be bitwise identical to the unpruned read, the sidecar must
    persist/reload, and lifecycle mutations (append) must invalidate it
    per-file (new files get scanned, terms in them never missed)."""
    import os

    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("segmap")
    corpus = str(root / "corpus")
    write_corpus(corpus, 300, rows_per_file=100)
    idx = str(root / "idx")
    build_index([f"{corpus}/part-0000{i}.parquet" for i in (0, 1)], idx,
                num_shards=4)

    queries = ["def return var_1", "helper_3 field_7", "zzz_missing",
               "numpy python import"]
    plain = QueryEngine(idx)
    plain._seg_map_loaded = True  # force unpruned reads
    want = [plain.search(q, 10) for q in queries]

    pruned = QueryEngine(idx)
    got = [pruned.search(q, 10) for q in queries]
    assert got == want
    side = os.path.join(idx, "seg_bucket_map.json")
    assert os.path.exists(side)  # persisted for the next open

    # sidecar reload path (no rescan) still exact
    again = QueryEngine(idx)
    assert [again.search(q, 10) for q in queries] == want

    # append adds segment files: a FRESH engine must rescan only the
    # new files and find terms that now exist
    append_to_index([f"{corpus}/part-00002.parquet"], idx)
    full = QueryEngine(idx)
    full._seg_map_loaded = True
    want2 = [full.search(q, 10) for q in queries]
    fresh = QueryEngine(idx)
    assert [fresh.search(q, 10) for q in queries] == want2


def test_row_group_boundaries_roundtrip(tmp_path):
    """atomic_write_parquet row-group splitting: every boundary shape
    (empty, under one group, exact multiple, off-by-one) round-trips
    the table exactly and produces the expected group count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from stacksearch_ray.state.manifest import atomic_write_parquet

    for n, expect_groups in ((0, 0), (1, 1), (63, 1), (64, 1),
                             (65, 2), (128, 2), (129, 3)):
        t = pa.table({"term": pa.array([f"t{i:04d}" for i in range(n)]),
                      "v": pa.array(list(range(n)), pa.int64())})
        p = str(tmp_path / f"rg_{n}.parquet")
        atomic_write_parquet(t, p,
                             row_group_boundaries=list(range(64, n, 64)))
        got = pq.read_table(p)
        assert got.equals(t), n
        assert pq.ParquetFile(p).metadata.num_row_groups == expect_groups, n


def test_pruned_search_property(ray_session, tmp_path_factory):
    """Property: for a pile of random queries (hot, rare, absent,
    mixed), pruned cold reads == map-disabled reads on a checkpoint-
    built index (row-grouped shard files) — the engine-side invariant
    behind both pruning layers."""
    import numpy as np

    from stacksearch_ray.checkpoint import build_index_resumable
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("prune_prop")
    corpus = str(root / "corpus")
    write_corpus(corpus, 400, rows_per_file=100)
    idx = str(root / "idx")
    build_index_resumable(corpus, idx, num_shards=4)

    rng = np.random.default_rng(5)
    vocab = ["def", "return", "import", "class", "var_1", "var_7",
             "helper_3", "field_2", "numpy", "zzz_absent", "qqq_absent"]
    queries = [" ".join(rng.choice(vocab,
                                   size=rng.integers(1, 5), replace=False))
               for _ in range(25)]
    plain = QueryEngine(idx)
    plain._seg_map_loaded = True  # unpruned ground truth
    pruned = QueryEngine(idx)
    for q in queries:
        assert pruned.search(q, 10) == plain.search(q, 10), q


def test_query_plan_introspection(ray_session, tmp_path_factory):
    """plan(): router decision matches the documented auto rule, the
    pruning-layer counts are consistent (reads ≤ candidates ≤ total
    segment files), and a planned term becomes cached."""
    import os

    from stacksearch_ray.checkpoint import build_index_resumable
    from stacksearch_ray.corpus import write_corpus
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("plan")
    corpus = str(root / "corpus")
    write_corpus(corpus, 400, rows_per_file=100)
    idx = str(root / "idx")
    build_index_resumable(corpus, idx, num_shards=4)
    eng = QueryEngine(idx)
    n_files = len([f for f in os.listdir(os.path.join(idx, "segments"))
                   if f.endswith(".parquet")])

    p = eng.plan("def return var_1")
    assert [t["term"] for t in p["terms"]] == ["def", "return", "var1"]
    assert all(not t["cached"] for t in p["terms"])
    assert p["files_to_read"] <= p["candidate_files"] <= n_files
    assert p["n_postings"] == sum(
        t["df"] for t in p["terms"])  # no deletes → physical == alive df
    # small corpus → auto must route to the exhaustive scorer
    assert p["method"] == "exhaustive"
    assert eng.search("def return var_1", 5, method=p["method"]) \
        == eng.search("def return var_1", 5, method="auto")

    p2 = eng.plan("def return var_1")
    assert all(t["cached"] for t in p2["terms"])  # plan warmed the cache
    assert p2["files_to_read"] is None  # nothing left to read

    assert eng.plan("")["method"] is None
