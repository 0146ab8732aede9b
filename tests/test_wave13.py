"""Wave-13 semantics: KMV bottom-k cardinality sketching and ILM-style
index rollover (generations + manifest commit points + append routing).
The DuckDB oracle pins exact entry values; these pin the MEANING and the
lifecycle invariants."""

import os
import shutil
import sys

import numpy as np
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


# ---------------- KMV ----------------


def test_kmv_exact_mode_below_k():
    from stacksearch_ray.functions.dedup import md5_low64
    from stacksearch_ray.functions.sketches import kmv_estimate, kmv_k_smallest

    vals = np.array([f"v{i}" for i in range(40)] * 3)
    kept = kmv_k_smallest(md5_low64(vals), 64)
    assert len(kept) == 40
    assert kmv_estimate(kept, 64) == 40.0


def test_kmv_estimator_error_bound():
    from stacksearch_ray.functions.dedup import md5_low64
    from stacksearch_ray.functions.sketches import kmv_estimate, kmv_k_smallest

    n, k = 5000, 64
    vals = np.array([f"item-{i}" for i in range(n)])
    kept = kmv_k_smallest(md5_low64(vals), k)
    est = kmv_estimate(kept, k)
    # standard error ~ 1/sqrt(k-2) ≈ 12.7%; allow 4 sigma
    assert abs(est - n) / n < 4 / np.sqrt(k - 2)


def test_kmv_merge_equals_whole():
    """Union of per-chunk k-smallest == k-smallest of the whole — the
    mergeability that lets batches ship k·8-byte partials."""
    from stacksearch_ray.functions.dedup import md5_low64
    from stacksearch_ray.functions.sketches import kmv_k_smallest

    vals = np.array([f"x{i % 700}" for i in range(3000)])
    h = md5_low64(vals)
    whole = kmv_k_smallest(h, 64)
    parts = [kmv_k_smallest(c, 64) for c in np.array_split(h, 7)]
    merged = kmv_k_smallest(np.concatenate(parts), 64)
    assert np.array_equal(whole, merged)


def test_kmv_entry_regimes(ray_session):
    """event_id engages the estimator (kept == k), user_id at sf0.001 is
    exact (15 distinct < k) — both regimes exercised in one entry."""
    from stacksearch_ray.pipelines import documents as P

    t = P.cardinality_kmv(SF).to_pydict()
    row = dict(zip(t["key"], zip(t["kept"], t["est_micros"])))
    assert row["user_id"] == (15, 15_000_000)  # exact mode
    assert row["event_id"][0] == P.KMV_K  # estimator mode
    true_n = 1000  # event_id is unique per row
    assert abs(row["event_id"][1] / 1e6 - true_n) / true_n < 0.5


# ---------------- rollover ----------------


@pytest.fixture()
def corpus_slices(tmp_path):
    """sf0.001 docs cut into a 400-row ingest file and a 100-row
    late-arrival file (disjoint ids by construction)."""
    t = pq.read_table(os.path.join(SF, "documents.parquet"),
                      columns=["doc_id", "text"])
    first = str(tmp_path / "first.parquet")
    late = str(tmp_path / "late.parquet")
    pq.write_table(t.slice(0, 400), first)
    pq.write_table(t.slice(400, 100), late)
    return first, late, str(tmp_path / "roll")


def test_rollover_ingest_and_search_identity(ray_session, corpus_slices):
    """3 generations; federated serving over them == the monolithic
    engine bitwise (scores are shard-config-independent)."""
    from stacksearch_ray.pipelines import documents as P
    from stacksearch_ray.rollover import (
        open_rollover,
        rollover_ingest,
        rollover_status,
    )

    first, late, base = corpus_slices
    man = rollover_ingest(first, base, max_docs=150,
                          content_col="text", id_col="doc_id",
                          num_shards=2)
    assert [g["rows"] for g in man["generations"]] == [150, 150, 100]
    st = rollover_status(base)
    assert all(g["committed"] for g in st["generations"])

    got = open_rollover(base).search(P.BM25_QUERY, 10)
    assert len(got) == 10
    # identity against a monolithic build over the same 400 rows
    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    mono_dir = base + "_mono"
    build_index(first, mono_dir, content_col="text", id_col="doc_id",
                num_shards=2)
    want = QueryEngine(mono_dir).search(P.BM25_QUERY, 10,
                                        method="exhaustive")
    assert got == want


def test_rollover_resume_skips_committed(ray_session, corpus_slices):
    """Crash simulation: an uncommitted generation (stats.json missing)
    is rebuilt on re-ingest; committed generations are not touched."""
    from stacksearch_ray.rollover import open_rollover, rollover_ingest

    first, late, base = corpus_slices
    rollover_ingest(first, base, max_docs=150,
                    content_col="text", id_col="doc_id",
                    num_shards=2)
    from stacksearch_ray.pipelines import documents as P

    pre = open_rollover(base).search(P.BM25_QUERY, 10)
    g0_stats = os.path.join(base, "gen-000000", "stats.json")
    g1_stats = os.path.join(base, "gen-000001", "stats.json")
    mtime0 = os.path.getmtime(g0_stats)
    os.remove(g1_stats)  # gen-000001 now uncommitted
    # a partially-visible base still serves the committed generations
    eng = open_rollover(base)
    assert len(eng.engines) == 2
    rollover_ingest(first, base, max_docs=150,
                    content_col="text", id_col="doc_id",
                    num_shards=2)
    assert os.path.exists(g1_stats)
    assert os.path.getmtime(g0_stats) == mtime0  # untouched
    healed = open_rollover(base)
    assert len(healed.engines) == 3
    assert healed.search(P.BM25_QUERY, 10) == pre  # bitwise healed


def test_rollover_append_fills_then_rolls(ray_session, corpus_slices):
    """Late arrivals fill the write generation to max_docs, then seal it
    and open a new one; serving == a monolithic rebuild over the
    union."""
    from stacksearch_ray.build import build_index
    from stacksearch_ray.pipelines import documents as P
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.rollover import (
        open_rollover,
        rollover_append,
        rollover_ingest,
        rollover_status,
    )

    first, late, base = corpus_slices
    rollover_ingest(first, base, max_docs=150,
                    content_col="text", id_col="doc_id",
                    num_shards=2)
    touched = rollover_append(late, base,
                              content_col="text", id_col="doc_id",
                              num_shards=2)
    # gen2 had 100/150 → takes 50; remaining 50 open gen-000003
    assert touched == ["gen-000002", "gen-000003"]
    st = {g["name"]: g["n_docs"]
          for g in rollover_status(base)["generations"]}
    assert st["gen-000002"] == 150 and st["gen-000003"] == 50

    got = open_rollover(base).search(P.BM25_QUERY, 10)
    mono_dir = base + "_mono_all"
    build_index(os.path.join(SF, "documents.parquet"), mono_dir,
                content_col="text", id_col="doc_id",
                num_shards=2)
    want = QueryEngine(mono_dir).search(P.BM25_QUERY, 10,
                                        method="exhaustive")
    assert got == want


def test_rollover_guards(ray_session, corpus_slices, tmp_path):
    from stacksearch_ray.rollover import (
        open_rollover,
        rollover_append,
        rollover_ingest,
    )

    first, late, base = corpus_slices
    with pytest.raises(ValueError):
        rollover_append(late, str(tmp_path / "empty"),
                        content_col="text", id_col="doc_id")
    with pytest.raises(ValueError):
        open_rollover(str(tmp_path / "empty"))
    rollover_ingest(first, base, max_docs=150,
                    content_col="text", id_col="doc_id",
                    num_shards=2)
    with pytest.raises(ValueError):  # changed cut size
        rollover_ingest(first, base, max_docs=99,
                        content_col="text", id_col="doc_id")


def test_rollover_drop_then_append_never_reissues_name(ray_session,
                                                       corpus_slices):
    """Retention drop + later roll: the new generation numbers from the
    max surviving name, never reusing a dropped or existing one."""
    from stacksearch_ray.rollover import (
        drop_generation,
        open_rollover,
        rollover_append,
        rollover_ingest,
        rollover_status,
    )

    first, late, base = corpus_slices
    rollover_ingest(first, base, max_docs=100,
                    content_col="text", id_col="doc_id",
                    num_shards=2)  # gens 0..3, all full
    drop_generation(base, "gen-000001")
    names = [g["name"] for g in rollover_status(base)["generations"]]
    assert names == ["gen-000000", "gen-000002", "gen-000003"]
    assert not os.path.exists(os.path.join(base, "gen-000001"))
    # write gen (gen-000003) is full -> the roll must open gen-000004,
    # NOT len(generations)=3 (which would destroy live gen-000003)
    g3_stats_mtime = os.path.getmtime(
        os.path.join(base, "gen-000003", "stats.json"))
    touched = rollover_append(late, base,
                              content_col="text", id_col="doc_id",
                              num_shards=2)
    assert touched == ["gen-000004"]
    assert os.path.getmtime(os.path.join(
        base, "gen-000003", "stats.json")) == g3_stats_mtime
    assert len(open_rollover(base).engines) == 4


def test_rollover_append_crash_resume_no_double_ingest(ray_session,
                                                       corpus_slices,
                                                       monkeypatch):
    """Crash after the fill append committed: the retry resumes the
    journaled plan, detects the applied fill by doc count, and routes
    only the REMAINDER to the new generation."""
    from stacksearch_ray import rollover as R

    first, late, base = corpus_slices
    R.rollover_ingest(first, base, max_docs=150,
                      content_col="text", id_col="doc_id",
                      num_shards=2)  # 150/150/100

    # crash injection: die right after the first step's manifest write
    real_write = R._write_manifest
    calls = {"n": 0}

    def dying_write(base_dir, man):
        real_write(base_dir, man)
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected crash")

    monkeypatch.setattr(R, "_write_manifest", dying_write)
    with pytest.raises(RuntimeError):
        R.rollover_append(late, base, content_col="text",
                          id_col="doc_id", num_shards=2)
    monkeypatch.setattr(R, "_write_manifest", real_write)
    assert R.rollover_status(base)["pending_append"]

    # a different source must be refused while the journal is pending
    with pytest.raises(ValueError):
        R.rollover_append(first, base, content_col="text",
                          id_col="doc_id")

    touched = R.rollover_append(late, base, content_col="text",
                                id_col="doc_id", num_shards=2)
    assert touched == ["gen-000002", "gen-000003"]
    st = {g["name"]: g["n_docs"]
          for g in R.rollover_status(base)["generations"]}
    # 100 late rows: 50 filled gen2 (once!), 50 opened gen3
    assert st["gen-000002"] == 150 and st["gen-000003"] == 50
    assert not R.rollover_status(base)["pending_append"]


def test_rollover_ingest_refuses_shifted_source(ray_session, tmp_path):
    """A file inserted before the consumed prefix shifts every range —
    the fingerprint guard must refuse, even when counts align."""
    import pyarrow.parquet as pq_

    from stacksearch_ray.rollover import rollover_ingest

    t = pq_.read_table(os.path.join(SF, "documents.parquet"),
                       columns=["doc_id", "text"])
    src = tmp_path / "src"
    src.mkdir()
    pq_.write_table(t.slice(0, 300), str(src / "b.parquet"))
    base = str(tmp_path / "roll")
    rollover_ingest(str(src), base, max_docs=150,
                    content_col="text", id_col="doc_id",
                    num_shards=2)
    # same-count file that sorts FIRST: prefix check must catch it
    pq_.write_table(t.slice(300, 150), str(src / "a.parquet"))
    with pytest.raises(ValueError):
        rollover_ingest(str(src), base, max_docs=150,
                        content_col="text", id_col="doc_id",
                        num_shards=2)
    # growth at the TAIL is detected and routed to rollover_append
    os.remove(str(src / "a.parquet"))
    pq_.write_table(t.slice(300, 150), str(src / "c.parquet"))
    with pytest.raises(ValueError):
        rollover_ingest(str(src), base, max_docs=150,
                        content_col="text", id_col="doc_id",
                        num_shards=2)


# ---------------- HNSW ----------------


def test_hnsw_recall_and_determinism():
    from stacksearch_ray.functions.hnsw import HNSW

    rng = np.random.default_rng(5)
    n, d = 1500, 24
    vecs = rng.standard_normal((n, d))
    ids = np.arange(n, dtype=np.int64) * 3 + 11
    g = HNSW(ids, vecs, m=8, ef_construction=64)
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    hits = total = 0
    qs = rng.standard_normal((30, d))
    for q in qs:
        qn = q / np.linalg.norm(q)
        truth = set(ids[np.lexsort((ids, -(vn @ qn)))[:10]])
        got = {i for i, _ in g.search(q, 10, ef=64)}
        hits += len(truth & got)
        total += 10
    assert hits / total >= 0.9, hits / total
    # reported similarities are the EXACT cosines of the returned ids
    q = qs[0]
    qn = q / np.linalg.norm(q)
    id_to_row = {int(i): r for r, i in enumerate(ids)}
    for vid, sim in g.search(q, 10):
        assert sim == pytest.approx(float(vn[id_to_row[vid]] @ qn),
                                    abs=1e-12)
    # deterministic rebuild → identical graph answers
    g2 = HNSW(ids, vecs, m=8, ef_construction=64)
    for q in qs[:5]:
        assert g.search(q, 10) == g2.search(q, 10)


def _hnsw_entry_vs_brute(sf_dir):
    """The oracle contract behind the knn_hnsw entry: its two-stage
    output (HNSW shortlist → exact cosine re-rank) must EQUAL the
    exact brute-force per-query top-10 — i.e. shortlist recall@10 = 1
    at conformance scale (every partition probed, ef=128)."""
    import pyarrow.parquet as pq_

    from stacksearch_ray.pipelines import documents as P

    t1 = P.knn_hnsw(sf_dir).to_pandas()
    assert set(t1["query_id"]) == set(range(P.HNSW_NQ))
    t = pq_.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                       columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    vn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    order = np.argsort(ids)
    queries = mat[order][:P.HNSW_NQ]
    for qi in range(P.HNSW_NQ):
        qn = queries[qi] / np.linalg.norm(queries[qi])
        sims = vn @ qn
        top = np.lexsort((ids, -sims))[:10]
        sub = t1[t1["query_id"] == qi]
        assert list(sub["rank"]) == list(range(1, len(sub) + 1))
        assert list(sub["vec_id"]) == [int(i) for i in ids[top]]
        assert (np.diff(sub["sim_micros"].to_numpy()) <= 0).all()
    return t1


def test_hnsw_partitioned_entry(ray_session):
    """Distributed two-stage form at sf0.001: deterministic across
    runs and exactly the brute-force top-10 (the SQL-oracle contract);
    the nprobe-BOUNDED raw path (the 100 TB read-pruning shape) stays
    high-recall."""
    from stacksearch_ray.functions.hnsw import hnsw_partitioned_knn
    from stacksearch_ray.pipelines import documents as P

    t1 = _hnsw_entry_vs_brute(SF)
    t2 = P.knn_hnsw(SF).to_pandas()
    assert t1.equals(t2)  # hash-seeded layers + pinned kmeans
    # nprobe=2/4 partitions + in-graph approximation: stay ≥ 0.8
    # against the FULL-corpus truth (each query is itself a corpus
    # vector, so its own partition holds most true neighbors)
    import pyarrow.parquet as pq_
    import ray.data as rd

    t = pq_.read_table(os.path.join(SF, "embeddings.parquet"),
                       columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    vn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    queries = mat[np.argsort(ids)][:P.HNSW_NQ]
    ds = rd.read_parquet(os.path.join(SF, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    raw = hnsw_partitioned_knn(ds, queries, k=10, n_clusters=4,
                               nprobe=2).to_pandas()
    hits = total = 0
    for qi in range(P.HNSW_NQ):
        qn = queries[qi] / np.linalg.norm(queries[qi])
        truth = set(ids[np.lexsort((ids, -(vn @ qn)))[:10]])
        got = set(raw[raw["query_id"] == qi]["vec_id"])
        hits += len(truth & got)
        total += 10
    assert hits / total >= 0.8, hits / total


def test_hnsw_entry_exact_at_sf01(ray_session):
    """The same oracle contract at sf0.01 — the driver's grading
    scale (the sf0.01 embeddings genuinely differ from sf0.001)."""
    _hnsw_entry_vs_brute("/root/testdata/sf0.01")
