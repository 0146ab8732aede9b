"""Resumable-build test (FIXTURES.md F6): interrupt after k partitions,
resume, assert finished partitions are not recomputed and the final index
equals an uninterrupted build; a Dataset source builds the same index as
a path source."""

import os

import pyarrow.parquet as pq
import pytest

from stacksearch_ray.corpus import write_corpus


def _segments_table(index_dir):
    t = pq.read_table(os.path.join(index_dir, "segments"))
    return t.sort_by([("term", "ascending"), ("shard", "ascending")])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("resume") / "corpus")
    write_corpus(d, 300, rows_per_file=40)  # 8 partitions
    return d


def test_interrupt_and_resume(ray_session, corpus_dir, tmp_path_factory):
    from stacksearch_ray.checkpoint import BuildInterrupted, build_index_resumable

    root = tmp_path_factory.mktemp("resume_out")
    idx_a = str(root / "interrupted")
    idx_b = str(root / "clean")

    with pytest.raises(BuildInterrupted):
        build_index_resumable(corpus_dir, idx_a, num_shards=4,
                              stop_after_partitions=3)

    done_files = [os.path.join(idx_a, "docs", f"part-{i:05d}.parquet") for i in range(3)]
    for f in done_files:
        assert os.path.exists(f)
    mtimes = {f: os.path.getmtime(f) for f in done_files}
    assert not os.path.exists(os.path.join(idx_a, "stats.json"))

    stats_resumed = build_index_resumable(corpus_dir, idx_a, num_shards=4)
    for f, m in mtimes.items():  # finished partitions were not recomputed
        assert os.path.getmtime(f) == m

    stats_clean = build_index_resumable(corpus_dir, idx_b, num_shards=4)
    assert stats_resumed == stats_clean
    assert _segments_table(idx_a).equals(_segments_table(idx_b))


def test_dataset_source_equals_path_source(ray_session, corpus_dir,
                                           tmp_path_factory):
    """A Dataset source is staged one partition per batch instead of one
    per file; the segment rows (encoded postings, block-max metadata)
    and the stats are bitwise those of the path-source build."""
    import ray.data as rd

    from stacksearch_ray.build import build_index
    from stacksearch_ray.query import QueryEngine

    root = tmp_path_factory.mktemp("sources")
    idx_p, idx_d = str(root / "path"), str(root / "dataset")
    s1 = build_index(corpus_dir, idx_p, num_shards=4)
    # 64-row batches cut across the 40-row input files
    s2 = build_index(rd.read_parquet(corpus_dir), idx_d, num_shards=4,
                     batch_size=64)
    assert s1 == s2
    assert len(os.listdir(os.path.join(idx_d, "docs"))) > 1
    a, b = QueryEngine(idx_p), QueryEngine(idx_d)
    for q in ["Determine a user's timezone", "def return var_1",
              "numpy python", "helper_3 field_7 import"]:
        assert a.search(q, 10) == b.search(q, 10), q
    sa, sb = _segments_table(idx_p), _segments_table(idx_d)
    assert sa.num_rows > 0
    assert sa.equals(sb)


def test_rebuild_is_file_reproducible(ray_session, corpus_dir,
                                      tmp_path_factory):
    """Two builds of one input write byte-identical segment files."""
    import hashlib

    from stacksearch_ray.build import build_index

    def seg_hashes(idx):
        d = os.path.join(idx, "segments")
        return sorted(hashlib.sha256(open(os.path.join(d, f), "rb").read())
                      .hexdigest() for f in os.listdir(d))

    root = tmp_path_factory.mktemp("repro")
    a, b = str(root / "a"), str(root / "b")
    build_index(corpus_dir, a, num_shards=4)
    build_index(corpus_dir, b, num_shards=4)
    assert len(seg_hashes(a)) == 4
    assert seg_hashes(a) == seg_hashes(b)
    # a rebuild into the same dir clears the old layout and manifest
    build_index(corpus_dir, a, num_shards=2)
    assert len(seg_hashes(a)) == 2


def test_unknown_config_key_rejected(ray_session, corpus_dir,
                                     tmp_path_factory):
    """A misspelled build knob raises instead of being ignored (it used
    to build the default 8 shards), before anything is written."""
    from stacksearch_ray.append import append_to_index
    from stacksearch_ray.build import build_index
    from stacksearch_ray.checkpoint import build_index_resumable

    root = tmp_path_factory.mktemp("typo")
    idx = str(root / "idx")
    with pytest.raises(TypeError, match="num_shard"):
        build_index(corpus_dir, idx, num_shard=4)
    with pytest.raises(TypeError, match="term_buckets"):
        build_index_resumable(corpus_dir, idx, term_buckets=8)
    assert not os.path.exists(os.path.join(idx, "docs"))
    build_index(os.path.join(corpus_dir, "part-00000.parquet"), idx,
                num_shards=2)
    with pytest.raises(TypeError, match="batchsize"):
        append_to_index(os.path.join(corpus_dir, "part-00001.parquet"), idx,
                        batchsize=16)


def test_rerun_completed_build_is_noop(ray_session, corpus_dir, tmp_path_factory):
    from stacksearch_ray.checkpoint import build_index_resumable

    idx = str(tmp_path_factory.mktemp("noop") / "idx")
    build_index_resumable(corpus_dir, idx, num_shards=2)
    # the commit deletes the staged postings
    assert not os.path.exists(os.path.join(idx, "stage"))
    seg = os.path.join(idx, "segments", "shard-00000.parquet")
    docs = [os.path.join(idx, "docs", f)
            for f in os.listdir(os.path.join(idx, "docs"))]
    assert len(docs) == 8
    m = os.path.getmtime(seg)
    docs_m = {f: os.path.getmtime(f) for f in docs}
    build_index_resumable(corpus_dir, idx, num_shards=2)
    assert os.path.getmtime(seg) == m
    # nothing was re-tokenized, and no stage was rebuilt
    assert {f: os.path.getmtime(f) for f in docs} == docs_m
    assert not os.path.exists(os.path.join(idx, "stage"))


def test_resumable_build_is_concurrency_independent(ray_session, corpus_dir,
                                                    tmp_path_factory):
    """However many writer tasks run, the resumable build writes the
    same segment and term_dict bytes, one lineage record per partition
    and per shard, and a wall time for each build phase."""
    import hashlib
    import json

    from stacksearch_ray.checkpoint import build_index_resumable

    def file_hashes(idx):
        out = {}
        for sub in ("segments", "term_dict"):
            d = os.path.join(idx, sub)
            for f in sorted(os.listdir(d)):
                with open(os.path.join(d, f), "rb") as fh:
                    out[f"{sub}/{f}"] = hashlib.sha256(fh.read()).hexdigest()
        return out

    root = tmp_path_factory.mktemp("concurrency")
    hashes = []
    for conc in (1, 2, 4, None):
        idx = str(root / f"c{conc}")
        build_index_resumable(corpus_dir, idx, num_shards=4, concurrency=conc)
        hashes.append(file_hashes(idx))
        with open(os.path.join(idx, "manifest.json")) as f:
            m = json.load(f)
        assert sorted(m["partitions"]) == [f"part-{i:05d}" for i in range(8)]
        assert sorted(m["shards"], key=int) == ["0", "1", "2", "3"]
        for phase in ("partitions", "stats", "shards", "term_dict"):
            assert m["phases"][phase]["wall_s"] >= 0, phase
    assert len(hashes[0]) == 5  # 4 shard files + term_dict
    assert all(h == hashes[0] for h in hashes[1:])
