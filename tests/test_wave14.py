"""Wave-14 semantics: ES pinned (promoted-results) query, join-field
has_child/has_parent, composite-agg after_key pagination, adjacency
matrix. The DuckDB oracle (selfcheck) pins exact entry values; these pin
the MEANING — promotion order, existence/tombstone gating, score
identity, page-boundary exactness."""

import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


def _mini_index(tmp_path, texts, ids=None):
    from stacksearch_ray.build import build_index

    ids = ids if ids is not None else list(range(len(texts)))
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), src)
    out = str(tmp_path / "idx")
    build_index(src, out, content_col="text", id_col="doc_id",
                num_shards=2)
    return out


# ---------------- search_pinned ----------------


def test_pinned_order_scores_and_fill(ray_session, tmp_path):
    from stacksearch_ray.query import QueryEngine

    texts = ["merge sort algorithm", "binary merge tree", "hash join plan",
             "sort merge join", "unrelated words entirely", "merge merge"]
    idx = _mini_index(tmp_path, texts)
    eng = QueryEngine(idx)
    res = eng.search_pinned("merge sort", [4, 2], k=4)
    # pinned first, in the GIVEN order, even though 4 matches nothing
    assert [d for d, _, _ in res[:2]] == [4, 2]
    assert [p for _, _, p in res] == [True, True, False, False]
    # pinned score == bitwise the organic score (explain contract):
    # doc 4 matches no term -> 0.0; doc 2 matches 'sort'? no — 'join'
    # only; its score equals its score in a full search
    full = dict((d, s) for d, s in eng.search("merge sort", k=6))
    assert res[0][1] == 0.0
    assert res[1][1] == full.get(2, 0.0)
    # organic fill excludes pinned ids and keeps (score desc, id asc)
    organic = [d for d, _, _ in res[2:]]
    expect = [d for d, _ in eng.search("merge sort", k=6)
              if d not in (4, 2)][:2]
    assert organic == expect


def test_pinned_unknown_duplicate_and_tombstoned_skipped(
        ray_session, tmp_path):
    from stacksearch_ray.append import delete_from_index
    from stacksearch_ray.query import QueryEngine

    texts = ["merge sort", "merge join", "sort join", "merge sort join"]
    idx = _mini_index(tmp_path, texts)
    delete_from_index(idx, [1])
    eng = QueryEngine(idx)
    res = eng.search_pinned("merge", [99, 3, 3, 1], k=4)
    # 99 unknown, 1 tombstoned, duplicate 3 collapsed -> one pinned row
    assert [d for d, _, _ in res if _ or True][:1] == [3]
    assert res[0][2] is True
    assert all(d != 1 for d, _, _ in res)
    assert all(d != 99 for d, _, _ in res)
    # organic rows are not marked pinned and don't repeat 3
    assert [d for d, _, p in res if not p].count(3) == 0


def test_pinned_k_truncates_pinned_list(ray_session, tmp_path):
    from stacksearch_ray.query import QueryEngine

    texts = ["a b c", "merge sort", "merge", "sort"]
    idx = _mini_index(tmp_path, texts)
    eng = QueryEngine(idx)
    res = eng.search_pinned("merge sort", [0, 3, 2, 1], k=2)
    assert [(d, p) for d, _, p in res] == [(0, True), (3, True)]


# ---------------- entry-level invariants ----------------


def test_composite_page_boundary_and_continuity(ray_session):
    """Page buckets are strictly after the after_key, contiguous in key
    order, and agree with a whole-table groupby restricted to the page
    window (pagination loses nothing)."""
    from stacksearch_ray.pipelines import documents as P

    t = P.composite_agg_page(SF).to_pandas().sort_values("page_pos")
    al, asrc = P.COMP_AFTER
    keys = list(zip(t["lang"], t["source"]))
    assert all(k > (al, asrc) for k in keys)
    assert keys == sorted(keys)
    full = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["lang", "source", "n_chars"]).to_pandas()
    g = (full.groupby(["lang", "source"], as_index=False)
         .agg(n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")))
    g = g[[tuple(k) > (al, asrc) for k in zip(g["lang"], g["source"])]]
    g = g.sort_values(["lang", "source"]).head(P.COMP_PAGE)
    assert keys == list(zip(g["lang"], g["source"]))
    assert list(t["n_docs"]) == list(g["n_docs"])
    assert list(t["sum_chars"]) == list(g["sum_chars"])


def test_adjacency_matrix_cells_consistent(ray_session):
    """Pairwise cells can never exceed their member filters, and every
    count matches a pandas replay."""
    from stacksearch_ray.pipelines import documents as P

    t = P.adjacency_matrix_agg(SF).to_pandas()
    n = dict(zip(t["cell"], t["n"]))
    full = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["lang", "source", "n_chars"]).to_pandas()
    a = full["lang"] == "en"
    b = full["n_chars"] >= 200
    c = full["source"].str.startswith(P.ADJ_SRC_PREFIX)
    assert n == {"a": a.sum(), "b": b.sum(), "c": c.sum(),
                 "a&b": (a & b).sum(), "a&c": (a & c).sum(),
                 "b&c": (b & c).sum()}
    assert n["a&b"] <= min(n["a"], n["b"])
    assert n["b&c"] <= min(n["b"], n["c"])


def test_has_child_score_mode_max_semantics(ray_session):
    """Each returned parent's best_child_micros is the true max over
    its matching children, and ranking is (best desc, custkey asc)."""
    from stacksearch_ray.pipelines import documents as P

    t = P.has_child_search(SF).to_pandas()
    orders = pq.read_table(os.path.join(SF, "orders.parquet")).to_pandas()
    cust = pq.read_table(os.path.join(SF, "customer.parquet")).to_pandas()
    ch = orders[orders["o_orderstatus"] == P.HC_STATUS]
    for _, row in t.iterrows():
        mine = ch[ch["o_custkey"] == row["c_custkey"]]
        assert len(mine) == row["n_children"]
        best = np.floor(mine["o_totalprice"].max() * 1e6 + 0.5)
        assert int(best) == row["best_child_micros"]
        seg = cust.loc[cust["c_custkey"] == row["c_custkey"],
                       "c_mktsegment"].iloc[0]
        assert seg == P.HC_SEGMENT
    pairs = list(zip(-t["best_child_micros"], t["c_custkey"]))
    assert pairs == sorted(pairs)


def test_has_parent_score_propagation(ray_session):
    """Every child's score is exactly its parent's acctbal micros, and
    only qualifying parents' children appear."""
    from stacksearch_ray.pipelines import documents as P

    t = P.has_parent_search(SF).to_pandas()
    cust = pq.read_table(os.path.join(SF, "customer.parquet")).to_pandas()
    bal = dict(zip(cust["c_custkey"], cust["c_acctbal"]))
    for _, row in t.iterrows():
        b = bal[row["o_custkey"]]
        assert b >= P.HP_BAL
        assert int(np.floor(b * 1e6 + 0.5)) == row["parent_score_micros"]


def test_pinned_sharded_bitwise(ray_session, tmp_path):
    """ShardedQueryEngine.search_pinned == QueryEngine.search_pinned,
    bitwise, including an unknown and a non-matching pinned id."""
    from stacksearch_ray.query import QueryEngine, ShardedQueryEngine

    texts = [f"merge sort doc{i} join stream" if i % 3 == 0
             else f"window filter doc{i}" for i in range(40)]
    idx = _mini_index(tmp_path, texts)
    eng = QueryEngine(idx)
    sh = ShardedQueryEngine(idx, num_workers=2)
    for pinned in ([7, 99, 0], [], [1, 1, 2]):
        a = eng.search_pinned("merge sort join", pinned, k=6)
        b = sh.search_pinned("merge sort join", pinned, k=6)
        assert a == b, (pinned, a, b)


# ---------------- export_matches / search_export ----------------


def test_export_matches_full_set_and_bitwise(ray_session, tmp_path):
    """export_matches returns EVERY matching alive doc with its exact
    search score (bitwise), excludes tombstoned docs, and covers docs a
    top-k cut would drop."""
    from stacksearch_ray.append import delete_from_index
    from stacksearch_ray.query import QueryEngine

    texts = [f"merge doc{i}" if i % 2 == 0 else f"filter doc{i}"
             for i in range(30)]
    idx = _mini_index(tmp_path, texts)
    delete_from_index(idx, [0, 2])
    eng = QueryEngine(idx)
    ids, scores = eng.export_matches("merge")
    expect_ids = [i for i in range(30) if i % 2 == 0 and i not in (0, 2)]
    assert ids.tolist() == expect_ids  # doc_id order, tombstones gone
    full = dict(eng.search("merge", k=30, method="exhaustive"))
    for d, s in zip(ids, scores):
        assert s == full[d]  # bitwise (same accumulator)
    # empty-query and no-match shapes
    i2, s2 = eng.export_matches("zzznope")
    assert len(i2) == 0 and len(s2) == 0
    i3, s3 = eng.export_matches("")
    assert len(i3) == 0 and len(s3) == 0


def test_phrase_suggest_context_ranking(ray_session):
    """The suggester's pair ranking follows corpus bigram counts (a
    pandas replay agrees), every candidate is within PS_MAXD of its
    probe, and the winning pair co-occurs in the corpus."""
    from stacksearch_ray.pipelines import documents as P
    from stacksearch_ray.text import clean_query

    t = P.phrase_suggest(SF).to_pandas()
    assert len(t) > 0
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["text"]).to_pandas()
    from collections import Counter
    bg = Counter()
    for txt in docs["text"]:
        toks = clean_query(txt, max_tokens=None)
        bg.update(zip(toks, toks[1:]))
    for _, row in t.iterrows():
        assert bg[(row["cand1"], row["cand2"])] == row["bigram_c"]
    # ranking is (bigram desc, dist asc, cand1, cand2)
    keys = list(zip(-t["bigram_c"], t["total_dist"], t["cand1"],
                    t["cand2"]))
    assert keys == sorted(keys)
    # context demo: both (hash, sort) and (hash, part) style pairs are
    # rankable candidates; the top pair is the corpus's most frequent
    top = t.iloc[0]
    assert all(bg[(r["cand1"], r["cand2"])] <= top["bigram_c"]
               for _, r in t.iterrows())


# ---------------- IVF append lifecycle ----------------


def _emb_parquet(tmp_path, name, ids, rng):
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(
            [rng.standard_normal(8).tolist() for _ in ids],
            pa.list_(pa.float32())),
    })
    p = str(tmp_path / name)
    pq.write_table(t, p)
    return p


def test_ivf_append_equals_frozen_quantizer_search(ray_session, tmp_path):
    """build(half) + append(half) answers == exact replay of the
    frozen-quantizer chain (assign ALL rows under the base centroids,
    probe 2 cells, exact cosine) — the append never retrains."""
    import ray.data as rd
    from stacksearch_ray.functions.ivf import IVFIndex, assign_centroids
    from stacksearch_ray.micros import to_micros

    rng = np.random.default_rng(3)
    base_p = _emb_parquet(tmp_path, "base.parquet", list(range(0, 60)), rng)
    add_p = _emb_parquet(tmp_path, "add.parquet", list(range(60, 120)), rng)
    idx = IVFIndex.build(rd.read_parquet(base_p), str(tmp_path / "ivf"),
                         k=4, iters=3, seed=11)
    gen = idx.append(rd.read_parquet(add_p))
    assert gen == 1
    # reopen from disk: manifest read back
    idx2 = IVFIndex(str(tmp_path / "ivf"))
    assert idx2.generations == [1]

    ta = pq.read_table(base_p)
    tb = pq.read_table(add_p)
    ids = np.concatenate([ta["vec_id"].to_numpy(), tb["vec_id"].to_numpy()])
    x = np.asarray(ta["embedding"].to_pylist()
                   + tb["embedding"].to_pylist(), dtype=np.float64)
    q = x[0]
    cid = assign_centroids(x, idx2.centroids)
    probes = set(int(c) for c in idx2.probe_order(q)[:2])
    mask = np.isin(cid, list(probes))
    sims = (x[mask] @ q) / (np.linalg.norm(x[mask], axis=1)
                            * np.linalg.norm(q))
    mids = ids[mask]
    order = np.lexsort((mids, -sims))[:10]
    expect = list(zip(mids[order].tolist(),
                      to_micros(sims[order]).tolist()))
    got = idx2.search(q, k=10, nprobe=2).to_pandas()
    assert list(zip(got["vec_id"], got["sim_micros"])) == expect


def test_ivf_append_crash_safety(ray_session, tmp_path):
    """An uncommitted generation directory (crash before the manifest
    rename) is invisible to search; the retry replaces it and commits."""
    import ray.data as rd
    from stacksearch_ray.functions.ivf import IVFIndex

    rng = np.random.default_rng(4)
    base_p = _emb_parquet(tmp_path, "b.parquet", list(range(30)), rng)
    add_p = _emb_parquet(tmp_path, "a.parquet", list(range(30, 60)), rng)
    idx = IVFIndex.build(rd.read_parquet(base_p), str(tmp_path / "ivf2"),
                         k=2, iters=2, seed=5)
    q = np.asarray(pq.read_table(base_p)["embedding"].to_pylist(),
                   dtype=np.float64)[0]
    before = idx.search(q, k=30, nprobe=2).to_pandas()
    # simulate the crash: gen data fully written, manifest NOT renamed
    gdir = tmp_path / "ivf2" / "appends" / "gen-1"
    import shutil as sh
    ds = rd.read_parquet(add_p)
    real_replace = os.replace

    def boom(src, dst):
        raise RuntimeError("crash before commit")

    os.replace = boom
    try:
        with pytest.raises(RuntimeError):
            idx.append(ds)
    finally:
        os.replace = real_replace
    assert gdir.is_dir()  # orphan data exists...
    fresh = IVFIndex(str(tmp_path / "ivf2"))
    assert fresh.generations == []  # ...but is NOT committed
    after = fresh.search(q, k=30, nprobe=2).to_pandas()
    assert after.equals(before)  # search never reads the orphan
    # retry heals: replaces the orphan wholesale and commits
    assert fresh.append(rd.read_parquet(add_p)) == 1
    assert IVFIndex(str(tmp_path / "ivf2")).generations == [1]
    grown = fresh.search(q, k=60, nprobe=2).to_pandas()
    assert set(before["vec_id"]).issubset(set(grown["vec_id"]))


def test_ivf_delete_and_compact_identity(ray_session, tmp_path):
    """Deleted ids never surface; survivors keep exact scores; the
    physically compacted index answers bitwise the same as the
    tombstone-masked source and has purged + folded everything."""
    import ray.data as rd
    from stacksearch_ray.functions.ivf import IVFIndex

    rng = np.random.default_rng(9)
    base_p = _emb_parquet(tmp_path, "c.parquet", list(range(50)), rng)
    add_p = _emb_parquet(tmp_path, "d.parquet", list(range(50, 80)), rng)
    idx = IVFIndex.build(rd.read_parquet(base_p), str(tmp_path / "ivf3"),
                         k=3, iters=3, seed=7)
    idx.append(rd.read_parquet(add_p))
    q = np.asarray(pq.read_table(base_p)["embedding"].to_pylist(),
                   dtype=np.float64)[1]
    pre = idx.search(q, k=80, nprobe=3).to_pandas()
    victims = pre["vec_id"].iloc[:3].tolist()
    assert idx.delete(victims) == 3
    assert idx.delete(victims[:1]) == 3  # idempotent union
    post = idx.search(q, k=80, nprobe=3).to_pandas()
    assert not set(victims) & set(post["vec_id"])
    # survivors: exact same (id, sim) pairs, just re-ranked
    pre_surv = pre[~pre["vec_id"].isin(victims)]
    assert list(post["vec_id"]) == list(pre_surv["vec_id"])
    assert list(post["sim_micros"]) == list(pre_surv["sim_micros"])
    # compacted twin answers bitwise the same
    comp = idx.compact_to(str(tmp_path / "ivf3c"))
    cpost = comp.search(q, k=80, nprobe=3).to_pandas()
    assert cpost.equals(post)
    assert comp.generations == [] and len(comp.tombstones) == 0
    # physical purge: no tombstoned id anywhere in the new lists
    all_ids = []
    for cid in range(3):
        d = tmp_path / "ivf3c" / "lists" / f"cid={cid}"
        if d.is_dir():
            all_ids.extend(pq.read_table(str(d))["vec_id"].to_pylist())
    assert not set(victims) & set(all_ids)
    assert len(all_ids) == 80 - 3
