"""Per-file local doc numbers (index format v5, kept by v6).

Every writer (path build, Dataset build, append + compact, delete +
purge, merge) must store exactly the oracle's (term, doc id, tf)
postings once each file's local numbers go back through its doc map;
the format gate refuses indexes without ``format_version: 6``; fsck
catches each doc-map corruption."""

import json
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow.parquet as pq
import pytest

from stacksearch_ray.corpus import write_corpus


def _stored_postings(idx: str) -> Counter:
    """(term, doc id, tf) of every stored posting, decoded through each
    segment file's doc map."""
    from stacksearch_ray.codec import decode_doc_ids, decode_tfs
    from stacksearch_ray.schema import read_doc_map

    out: Counter = Counter()
    seg = os.path.join(idx, "segments")
    for name in sorted(os.listdir(seg)):
        path = os.path.join(seg, name)
        doc_map = read_doc_map(path)
        t = pq.read_table(path, columns=["term", "doc_ids", "tfs"])
        for term, blob, tfb in zip(t["term"].to_pylist(),
                                   t["doc_ids"].to_pylist(),
                                   t["tfs"].to_pylist()):
            ids = doc_map[decode_doc_ids(blob)]
            out.update((term, int(d), int(f))
                       for d, f in zip(ids, decode_tfs(tfb)))
    return out


def _oracle_postings(table, drop=()) -> Counter:
    from stacksearch_ray.oracle import OracleBM25
    from stacksearch_ray.schema import doc_id_for

    dead = set(drop)
    docs = {doc_id_for(r, p, c): text
            for r, p, c, text in zip(*(table[k].to_pylist() for k in
                                       ("repo", "path", "commit", "content")))}
    oracle = OracleBM25({d: t for d, t in docs.items() if d not in dead})
    return Counter((term, d, tf) for d, c in oracle.tf.items()
                   for term, tf in c.items())


def _file_bytes(idx: str) -> dict[str, bytes]:
    seg = os.path.join(idx, "segments")
    return {n: open(os.path.join(seg, n), "rb").read()
            for n in sorted(os.listdir(seg))}


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("docmap")
    full = str(root / "full")
    parts = write_corpus(full, 300, rows_per_file=100)
    return root, full, parts, pq.read_table(parts)


def test_every_writer_stores_the_oracle_postings(corpus):
    import ray.data as rd

    from stacksearch_ray.append import (
        append_to_index,
        compact_index,
        delete_from_index,
        merge_indexes,
        purge_doc_ids,
    )
    from stacksearch_ray.append import _kept_postings
    from stacksearch_ray.build import SegmentEncoder, build_index, load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.schema import read_doc_map

    root, full, parts, table = corpus
    want = _oracle_postings(table)
    kw = dict(num_shards=4)

    def check(idx, expected=want):
        assert _stored_postings(idx) == expected
        rep = fsck_index(idx)
        assert rep.ok, rep.errors

    path_a, path_b = str(root / "path_a"), str(root / "path_b")
    build_index(full, path_a, **kw)
    build_index(full, path_b, **kw)
    check(path_a)
    assert _file_bytes(path_a) == _file_bytes(path_b)

    dataset = str(root / "dataset")
    build_index(rd.read_parquet(parts), dataset, batch_size=100, **kw)
    check(dataset)

    appended = str(root / "appended")
    build_index(parts[:2], appended, **kw)
    append_to_index(parts[2:], appended)
    check(appended)  # the appended files number their own docs
    compact_index(appended)
    check(appended)
    # compact == rebuild: one file per shard, same doc map, same rows
    for name in os.listdir(os.path.join(path_a, "segments")):
        a = os.path.join(appended, "segments", name)
        b = os.path.join(path_a, "segments", name)
        assert read_doc_map(a).tolist() == read_doc_map(b).tolist()
        ta = pq.read_table(a).sort_by("term")
        tb = pq.read_table(b).sort_by("term")
        assert ta.equals(tb), name

    purged = str(root / "purged")
    build_index(full, purged, **kw)
    ids = np.sort(pq.read_table(os.path.join(purged, "docs"),
                                columns=["doc_id"])["doc_id"].to_numpy())
    dead = ids[::7]
    delete_from_index(purged, dead.tolist())
    seg, before = os.path.join(purged, "segments"), str(root / "pre_purge")
    shutil.copytree(seg, before)
    purge_doc_ids(purged, dead.tolist())
    check(purged, _oracle_postings(table, drop=dead.tolist()))
    # every file is what compaction's split and the build's encoder make
    # of its pre-purge self, row for row, under a fresh doc map that
    # lists no purged id
    bs = load_stats(purged)["block_size"]
    for name in sorted(os.listdir(before)):
        old = os.path.join(before, name)
        kept = _kept_postings(pq.read_table(old), read_doc_map(old), dead,
                              bs, False)
        want_rows = SegmentEncoder(bs)(kept)
        got = pq.read_table(os.path.join(seg, name))
        assert got.equals(want_rows), name
        assert (read_doc_map(os.path.join(seg, name)).tolist()
                == np.unique(kept["doc_id"].to_numpy()).tolist())
        assert not np.isin(dead, read_doc_map(os.path.join(seg, name))).any()

    half_a, half_b = str(root / "half_a"), str(root / "half_b")
    build_index(parts[:2], half_a, **kw)
    build_index(parts[2:], half_b, **kw)
    merged = str(root / "merged")
    merge_indexes([half_a, half_b], merged)
    check(merged)


def test_dense_numbers_shrink_doc_ids(corpus):
    """Local numbers fit one or two varint bytes where 63-bit hash ids
    took eight or nine."""
    root, full, _, _ = corpus
    from stacksearch_ray.build import build_index

    idx = str(root / "sizes")
    build_index(full, idx, num_shards=4)
    t = pq.read_table(os.path.join(idx, "segments"), columns=["df", "doc_ids"])
    n_bytes = sum(len(b) for b in t["doc_ids"].to_pylist())
    assert n_bytes < 2 * sum(t["df"].to_pylist())


@pytest.fixture(scope="module")
def small_idx(corpus):
    from stacksearch_ray.build import build_index

    root, full, _, _ = corpus
    idx = str(root / "small")
    build_index(full, idx, num_shards=2)
    return idx


def test_format_gate_refuses_other_versions(small_idx, corpus, tmp_path):
    from stacksearch_ray.append import (
        append_to_index,
        compact_index,
        delete_from_index,
        merge_indexes,
        purge_doc_ids,
    )
    from stacksearch_ray.build import load_stats
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.schema import INDEX_FORMAT_VERSION

    assert INDEX_FORMAT_VERSION == 6
    assert load_stats(small_idx)["format_version"] == 6
    delta = corpus[2][0]
    for version in (None, 4, 5):
        idx = str(tmp_path / f"v{version}")
        shutil.copytree(small_idx, idx)
        path = os.path.join(idx, "stats.json")
        st = json.load(open(path))
        if version is None:
            del st["format_version"]
        else:
            st["format_version"] = version
        json.dump(st, open(path, "w"))
        match = f"format version {version} .*reads version 6"
        calls = [
            lambda: QueryEngine(idx),
            lambda: append_to_index(delta, idx),
            lambda: delete_from_index(idx, [1]),
            lambda: compact_index(idx),
            lambda: purge_doc_ids(idx, [1]),
            lambda: merge_indexes([idx, small_idx],
                                  str(tmp_path / f"m{version}")),
            lambda: fsck_index(idx),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()


def _rewrite_map(idx: str, edit) -> None:
    """Replace the first segment file's doc map with ``edit(map)``."""
    from stacksearch_ray.schema import (
        read_doc_map,
        segment_write_kwargs,
        with_doc_map,
    )

    seg = os.path.join(idx, "segments")
    path = os.path.join(seg, sorted(os.listdir(seg))[0])
    t = with_doc_map(pq.read_table(path), edit(read_doc_map(path).copy()))
    pq.write_table(t, path, **segment_write_kwargs(t.schema))


def _swap_first_two(m):
    m[[0, 1]] = m[[1, 0]]
    return m


def _unknown_last(m):
    # strictly between its neighbours: still ascending, and no doc's
    # 63-bit hash id
    m[-1] = m[-2] + (m[-1] - m[-2]) // 2
    return m


@pytest.mark.parametrize("edit, message", [
    (_swap_first_two, "doc map not strictly ascending"),
    (lambda m: m[:-1], "beyond the file's doc map"),
    (_unknown_last, "not in the docs table"),
])
def test_fsck_detects_doc_map_corruption(small_idx, tmp_path, edit, message):
    from stacksearch_ray.fsck import fsck_index

    idx = str(tmp_path / "corrupt")
    shutil.copytree(small_idx, idx)
    _rewrite_map(idx, edit)
    rep = fsck_index(idx)
    assert not rep.ok
    assert any(message in e for e in rep.errors), rep.errors


def test_empty_shard_files_carry_a_doc_map(ray_session, tmp_path):
    """A shard without postings still writes a file, with an empty doc
    map: delete's deleted-df pass, purge, compaction and fsck read every
    file's map, so a small corpus over many shards must stay healthy."""
    from stacksearch_ray.append import (
        compact_index,
        delete_from_index,
        purge_doc_ids,
    )
    from stacksearch_ray.build import build_index
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.schema import read_doc_map

    def check(idx):
        rep = fsck_index(idx)
        assert rep.ok, rep.errors

    idx = str(tmp_path / "idx")
    build_index(write_corpus(str(tmp_path / "src"), 3), idx, num_shards=8)
    seg = os.path.join(idx, "segments")
    empty = [n for n in os.listdir(seg)
             if pq.read_metadata(os.path.join(seg, n)).num_rows == 0]
    assert empty
    assert all(len(read_doc_map(os.path.join(seg, n))) == 0 for n in empty)
    check(idx)
    ids = pq.read_table(os.path.join(idx, "docs"),
                        columns=["doc_id"])["doc_id"].to_pylist()
    delete_from_index(idx, ids[:1])
    check(idx)
    purge_doc_ids(idx, ids[:1])
    check(idx)
    delete_from_index(idx, ids[1:2])
    compact_index(idx)
    check(idx)
    term = pq.read_table(os.path.join(idx, "term_dict"),
                         columns=["term"])["term"][0].as_py()
    assert set(QueryEngine(idx).term_doc_ids(term).tolist()) <= set(ids[2:])

    none = str(tmp_path / "none")
    os.makedirs(none)
    pq.write_table(pq.read_table(os.path.join(tmp_path, "src")).slice(0, 0),
                   os.path.join(none, "part-00000.parquet"))
    empty_idx = str(tmp_path / "empty_idx")
    build_index(none, empty_idx, num_shards=2)
    check(empty_idx)


def test_open_engine_maps_compacted_files_through_their_own_maps(
        small_idx, tmp_path):
    """Compaction rewrites segment files under their old names with new
    local numbers. An engine opened before it reads rows of an uncached
    term from the new files, and must map them through the new maps."""
    from stacksearch_ray.append import compact_index, delete_from_index
    from stacksearch_ray.query import QueryEngine

    idx = str(tmp_path / "idx")
    shutil.copytree(small_idx, idx)
    td = pq.read_table(os.path.join(idx, "term_dict"),
                       columns=["term", "df"]).sort_by([("df", "descending")])
    cached, uncached = td["term"][0].as_py(), td["term"][1].as_py()
    eng = QueryEngine(idx)
    eng.search(cached)  # loads the doc map of every file holding it
    ids = np.sort(pq.read_table(os.path.join(idx, "docs"),
                                columns=["doc_id"])["doc_id"].to_numpy())
    delete_from_index(idx, ids[::7].tolist())
    compact_index(idx)
    got = eng.term_doc_ids(uncached)
    assert got.tolist() == QueryEngine(idx).term_doc_ids(uncached).tolist()
    assert not np.isin(got, ids[::7]).any()
