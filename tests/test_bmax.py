"""The block-max scorer (``method="bmax"``) against exhaustive TAAT and
the pure-Python oracle, bitwise, on a multi-shard zipf-term /
lognormal-length corpus: the pruning path, the fallback to exhaustive
scoring when the block bounds cannot prune, k above the match count,
exact score ties at the k boundary, and the auto router on a clean and
on an appended and deleted copy of the index. A corpus of duplicated
docs ties more than 4k hits at the k-th score, for the top-k selector
of the dense and the selective scorers. bmax's champion floor θ₀ and
the plain exhaustive path's score-derived match mask are checked on
their own, the former also for a term whose champions are all
tombstoned."""
from unittest import mock

import numpy as np
import pytest

from stacksearch_ray.oracle import OracleBM25
from stacksearch_ray.query import CHAMPIONS, DENSE_SHARE

N_DOCS = 20_000
N_TIES = 12          # docs scoring exactly alike on t00000, spread out
TIE_TEXT = " ".join(["t00000"] * 40)


AUTO_QUERIES = ("t00000", "t00000 t00001", "t00000 t02998",
                " ".join(f"t{i:05d}" for i in range(8)), "t02000 t02500")


def _corpus(n_docs: int = N_DOCS, seed: int = 11,
            first_id: int = 0) -> dict[int, str]:
    rng = np.random.default_rng(seed)
    vocab = np.array([f"t{i:05d}" for i in range(3000)], dtype=object)
    lens = np.clip(rng.lognormal(3.2, 1.0, n_docs).astype(np.int64), 5, 1500)
    ranks = np.minimum(rng.zipf(1.3, int(lens.sum())), len(vocab)) - 1
    toks = vocab[ranks]
    ends = np.cumsum(lens)
    return {first_id + i: " ".join(toks[e - n:e])
            for i, (e, n) in enumerate(zip(ends, lens))}


def _write(docs: dict[int, str], path: str) -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.string())}), path)
    return path


def _zipf_docs() -> dict[int, str]:
    docs = _corpus()
    for i in range(N_TIES):
        docs[i * (N_DOCS // N_TIES) + 7] = TIE_TEXT
    return docs


@pytest.fixture(scope="module")
def zipf(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    docs = _zipf_docs()
    root = tmp_path_factory.mktemp("bmax")
    idx = str(root / "index")
    build_index(_write(docs, str(root / "docs.parquet")), idx,
                content_col="text", id_col="doc_id", num_shards=4)
    eng = QueryEngine(idx)
    assert eng._doclen_cv() >= 0.8
    assert len({r["shard"] for r in eng._segments_for(["t00000"])["t00000"]}) == 4
    return eng, OracleBM25(docs)


def _bmax(eng, q, k):
    """Forced bmax; also reports whether it fell back to exhaustive."""
    with mock.patch.object(eng, "_search_exhaustive",
                           wraps=eng._search_exhaustive) as ex:
        got = eng.search(q, k, method="bmax")
    return got, ex.called


@pytest.mark.parametrize("q", ["t00000", "t00001", "t00000 t00005"])
def test_pruning_path_bitwise(zipf, q):
    eng, oracle = zipf
    with mock.patch.object(eng, "_topk_dense", wraps=eng._topk_dense) as tk:
        got, fell_back = _bmax(eng, q, 10)
    assert not fell_back
    scored = int(tk.call_args.args[1].sum())  # the docs bmax scored
    assert scored < len(eng.export_matches(q)[0]) // 2
    assert got == eng.search(q, 10, method="exhaustive") == oracle.search(q, 10)


def test_fallback_path_bitwise(zipf):
    """Many near-uniform hot terms: the block bounds cannot cut below
    the k-th score, so bmax hands the query to exhaustive scoring."""
    eng, oracle = zipf
    q = " ".join(f"t{i:05d}" for i in range(8))
    got, fell_back = _bmax(eng, q, 10)
    assert fell_back
    assert got == eng.search(q, 10, method="exhaustive") == oracle.search(q, 10)


@pytest.mark.parametrize("q", ["t02998", "t02000 t02500", "t00000 t02998"])
def test_k_above_match_count(zipf, q):
    eng, oracle = zipf
    k = 2 * N_DOCS if "t00000" in q else 50
    want = oracle.search(q, k)
    assert len(want) < k
    got, _ = _bmax(eng, q, k)
    assert got == eng.search(q, k, method="exhaustive") == want


@pytest.mark.parametrize("k", [5, 10, 11])
def test_ties_at_k_boundary(zipf, k):
    """N_TIES docs share one exact score, the top one for t00000; the
    cut at k falls inside them, so only doc_id order picks the
    survivors — bmax must score every tied segment before it stops."""
    eng, oracle = zipf
    ref = eng.search("t00000", N_TIES + 1, method="exhaustive")
    assert len({s for _, s in ref[:N_TIES]}) == 1
    assert ref[N_TIES][1] < ref[0][1]
    got, fell_back = _bmax(eng, "t00000", k)
    assert not fell_back
    assert got == ref[:k] == oracle.search("t00000", k)


@pytest.fixture(scope="module")
def zipf_mutated(zipf, tmp_path_factory):
    """A copy of the zipf index with 2,000 docs appended, then 1% of
    its docs deleted along with the exhaustive top-3 of every
    ``AUTO_QUERIES`` query."""
    import shutil

    from stacksearch_ray.append import append_to_index, delete_from_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("bmax_mutated")
    idx = str(root / "index")
    shutil.copytree(zipf[0].index_dir, idx)
    append_to_index(_write(_corpus(2000, 12, N_DOCS),
                           str(root / "delta.parquet")), idx)
    eng = QueryEngine(idx)
    dead = set(np.random.default_rng(13).choice(
        N_DOCS + 2000, (N_DOCS + 2000) // 100, replace=False).tolist())
    for q in AUTO_QUERIES:
        dead.update(d for d, _ in eng.search(q, 3, method="exhaustive"))
    delete_from_index(idx, sorted(dead))
    eng = QueryEngine(idx)
    assert not eng._alive.all()
    return eng, None


@pytest.mark.parametrize("index", ["clean", "mutated"])
def test_auto_matches_plan_and_exhaustive(request, index):
    """plan() names the method search() runs, and auto is bitwise
    exhaustive either way (size threshold scaled to this corpus) — on
    an appended and deleted index as on a clean one."""
    eng, _ = request.getfixturevalue(
        "zipf" if index == "clean" else "zipf_mutated")
    saved = eng.bmax_min_postings
    eng.bmax_min_postings = 1000
    try:
        methods = []
        for q in AUTO_QUERIES:
            methods.append(eng.plan(q, 10)["method"])
            with mock.patch.object(eng, "_search_bmax",
                                   wraps=eng._search_bmax) as mb:
                got = eng.search(q, 10)
            assert mb.called == (methods[-1] == "bmax"), q
            assert got == eng.search(q, 10, method="exhaustive"), q
        assert "bmax" in methods and "exhaustive" in methods
    finally:
        eng.bmax_min_postings = saved


@pytest.fixture(scope="module")
def dup_ties(ray_session, tmp_path_factory):
    """1,000 copies of one doc, whose score tops the 'tie' and the
    'filler tie' query, among 300 docs that score lower on both; ids
    shuffled across shards."""
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    ids = np.random.default_rng(5).permutation(1300).tolist()
    docs = {d: ("tie tie filler" if i < 1000 else
                "tie filler " + " ".join(["pad"] * (i % 7)))
            for i, d in enumerate(ids)}
    root = tmp_path_factory.mktemp("dup_ties")
    idx = str(root / "index")
    build_index(_write(docs, str(root / "docs.parquet")), idx,
                content_col="text", id_col="doc_id", num_shards=3)
    return QueryEngine(idx), OracleBM25(docs)


@pytest.mark.parametrize("k", [1, 10, 50])
def test_topk_selector_keeps_ties_past_4k_hits(dup_ties, k):
    """More than 4k hits tie at the k-th score, so the sampled
    threshold equals it: every tied hit must survive the filter, and
    doc_id order alone picks the k, for the dense scorers (auto,
    exhaustive, bmax) and the selective one (search_conjunctive)."""
    eng, oracle = dup_ties
    want = oracle.search("tie", k)
    assert len({s for _, s in oracle.search("tie", 1000)}) == 1
    for method in ("auto", "exhaustive", "bmax"):
        assert eng.search("tie", k, method=method) == want, method
    # every doc holds both terms, so the conjunction is the oracle's
    # plain ranking
    want = oracle.search("filler tie", k)
    assert len({s for _, s in oracle.search("filler tie", 1000)}) == 1
    assert eng.search_conjunctive("filler tie", k) == want


def _bounds_theta0(eng, q: str, k: int) -> float:
    return eng._bmax_bounds(sorted(set(q.split())), k)[3]


@pytest.mark.parametrize("k", [1, 10, CHAMPIONS + 5])
@pytest.mark.parametrize("index", ["clean", "mutated"])
def test_champion_theta_is_a_floor(request, index, k):
    """θ₀ never exceeds the exhaustive k-th best live score, is -inf
    when fewer than k live docs match, and is that score exactly for a
    one-term query (its champions are its top live postings)."""
    eng, _ = request.getfixturevalue(
        "zipf" if index == "clean" else "zipf_mutated")
    for q in AUTO_QUERIES + ("t02998",):
        theta0 = _bounds_theta0(eng, q, k)
        ref = eng.search(q, k, method="exhaustive")
        if len(ref) < k:
            assert theta0 == -np.inf, q
        elif " " in q:
            assert theta0 <= ref[-1][1], q
        else:
            assert theta0 == ref[-1][1], q


@pytest.mark.parametrize("k", [1, 10, CHAMPIONS + 5])
def test_every_method_equals_oracle_around_champion_count(zipf, k):
    """auto == bmax == exhaustive == oracle at k below and above the
    cached champion count (above it bmax takes each term's top k
    postings on the fly), with auto routing the large queries to
    bmax."""
    eng, oracle = zipf
    saved = eng.bmax_min_postings
    eng.bmax_min_postings = 1000
    try:
        for q in AUTO_QUERIES:
            want = oracle.search(q, k)
            for method in ("auto", "bmax", "exhaustive"):
                assert eng.search(q, k, method=method) == want, (q, method)
        got, fell_back = _bmax(eng, "t00001", k)
        assert not fell_back and got == oracle.search("t00001", k)
    finally:
        eng.bmax_min_postings = saved


@pytest.fixture(scope="module")
def champions_dead(zipf, tmp_path_factory):
    """A copy of the zipf index with every champion the clean engine
    caches for t00001 deleted, and the term's exhaustive top
    CHAMPIONS + 4 docs too."""
    import shutil

    from stacksearch_ray.append import delete_from_index
    from stacksearch_ray.query import QueryEngine

    eng = zipf[0]
    rows = eng._segments_for(["t00001"])["t00001"]
    clean_champ = set(eng.doclens.ids[eng._decoded("t00001", rows).champ]
                      .tolist())
    dead = sorted(clean_champ | {d for d, _ in eng.search(
        "t00001", CHAMPIONS + 4, method="exhaustive")})
    idx = str(tmp_path_factory.mktemp("champions_dead") / "index")
    shutil.copytree(eng.index_dir, idx)
    delete_from_index(idx, dead)
    docs = _zipf_docs()
    for d in dead:
        del docs[d]
    return QueryEngine(idx), OracleBM25(docs), set(dead)


@pytest.mark.parametrize("k", [1, 10, CHAMPIONS + 5])
def test_term_with_every_champion_tombstoned(champions_dead, k):
    """The live engine's champions skip the tombstoned ones, θ₀ stays a
    floor, and every method equals the oracle over the alive docs."""
    eng, oracle, dead = champions_dead
    rows = eng._segments_for(["t00001"])["t00001"]
    champ = eng._decoded("t00001", rows).champ
    assert len(champ) == CHAMPIONS and eng._alive[champ].all()
    assert not dead & set(eng.doclens.ids[champ].tolist())
    for q in ("t00001", "t00000 t00001", "t00001 t02998"):
        want = oracle.search(q, k)
        assert _bounds_theta0(eng, q, k) <= want[-1][1], q
        for method in ("auto", "bmax", "exhaustive"):
            assert eng.search(q, k, method=method) == want, (q, method)
    got, fell_back = _bmax(eng, "t00001", k)
    assert not fell_back and got == oracle.search("t00001", k)


@pytest.mark.parametrize("q", ["t00000", "t00000 t00001", "t00001 t02998"])
def test_plain_exhaustive_match_mask_is_positive_score(zipf_mutated, q):
    """Plain BM25 exhaustive scoring reads the matched docs off its
    scores (acc > 0); on an index with deletes that mask equals the
    per-term scatter mask — tombstoned matches included — and the
    scores equal idf · part summed in sorted-term order, bitwise."""
    from stacksearch_ray.build import idf

    eng, _ = zipf_mutated
    seen = {}
    real = eng._topk_dense

    def spy(acc, hit, k, allowed=None):
        seen["acc"], seen["hit"] = acc.copy(), hit.copy()
        return real(acc, hit, k, allowed)

    terms = sorted(set(q.split()))
    with mock.patch.object(eng, "_topk_dense", side_effect=spy):
        eng.search(q, 10, method="exhaustive")
    segs = eng._segments_for(terms)
    dfs = eng._df_global(terms, segs)
    acc = np.zeros(len(eng.doclens.ids))
    hit = np.zeros(len(eng.doclens.ids), dtype=bool)
    for t in terms:
        p = eng._decoded(t, segs[t])
        acc[p.didx] += idf(eng.n_docs, dfs[t]) * p.part
        hit[p.didx] = True
    assert (hit & ~eng._alive).any()
    assert np.array_equal(seen["hit"], hit)
    assert np.array_equal(seen["acc"], acc)


# every term dense, the module's own share, no term dense
SHARES = (0.0, DENSE_SHARE, 2.0)


def _at_share(monkeypatch, share, index_dir):
    """A fresh engine over ``index_dir`` whose terms decode while
    ``DENSE_SHARE`` is ``share`` (the vector is built at decode time)."""
    from stacksearch_ray import query

    monkeypatch.setattr(query, "DENSE_SHARE", share)
    eng = query.QueryEngine(index_dir)
    eng.bmax_min_postings = 1000
    return eng


def _dense_cases(request, index):
    """(index dir, oracle) of the clean zipf index, or of its copy with
    t00001's champions and top hits deleted — docs inside a term that
    is dense at every share below 1/2."""
    if index == "clean":
        eng, oracle = request.getfixturevalue("zipf")
    else:
        eng, oracle, _ = request.getfixturevalue("champions_dead")
    return eng.index_dir, oracle


@pytest.mark.parametrize("index", ["clean", "deleted"])
def test_dense_vector_iff_share(request, monkeypatch, index):
    """A decoded term keeps a dense vector iff df ≥ DENSE_SHARE · n_local,
    that vector is wpart scattered over zeros, and plan() names exactly
    those terms."""
    idx, _ = _dense_cases(request, index)
    q = "t00000 t00001 t00005 t00300 t02998"
    terms = q.split()
    for share in SHARES:
        eng = _at_share(monkeypatch, share, idx)
        n_local = len(eng.doclens.ids)
        segs = eng._segments_for(terms)
        dense = []
        for t in terms:
            p = eng._decoded(t, segs[t])
            assert (p.dense is not None) == (len(p.didx) >= share * n_local)
            if p.dense is not None:
                want = np.zeros(n_local)
                want[p.didx] = p.wpart
                assert np.array_equal(p.dense, want)
                dense.append(t)
        assert eng.plan(q)["dense_terms"] == dense, share
        if share == 0.0:
            assert dense == terms
        elif share == 2.0:
            assert dense == []
    if index == "deleted":  # the deletes hit a dense term
        p = eng._decoded("t00001", eng._segments_for(["t00001"])["t00001"])
        assert len(p.didx) >= 0.5 * n_local
        assert not eng._alive[p.didx].all()


@pytest.mark.parametrize("k", [1, 10, CHAMPIONS + 5])
@pytest.mark.parametrize("index", ["clean", "deleted"])
def test_methods_equal_oracle_dense_or_sparse(request, monkeypatch, index, k):
    """auto == bmax == exhaustive == oracle, bitwise, whether every
    query term is scored through a dense vector or none is."""
    idx, oracle = _dense_cases(request, index)
    queries = AUTO_QUERIES + ("t00001 t02998",)
    for share in SHARES:
        eng = _at_share(monkeypatch, share, idx)
        for q in queries:
            want = oracle.search(q, k)
            for method in ("auto", "bmax", "exhaustive"):
                assert eng.search(q, k, method=method) == want, (
                    share, q, method)


@pytest.mark.parametrize("index", ["clean", "deleted"])
def test_match_surfaces_equal_dense_or_sparse(request, monkeypatch, index):
    """export_matches, search_min_should_match and search_synonym_groups
    return the same arrays and rankings at every share."""
    idx, _ = _dense_cases(request, index)
    out = []
    for share in SHARES:
        eng = _at_share(monkeypatch, share, idx)
        got = []
        for q in ("t00000 t00001", "t00001 t00005 t02998"):
            ids, scores = eng.export_matches(q)
            got += [ids.tolist(), scores.tobytes(),
                    eng.search_min_should_match(q, 2, 20)]
        got.append(eng.search_synonym_groups(
            [["t00000", "t00001"], ["t00005", "t02998"], ["t00300"]], 20))
        out.append(got)
    assert out[0] == out[1] == out[2]
