"""Index writers build their term_dict and seg_bucket_map.json from what
their tasks hand back, never from a scan of the segment files they just
wrote: with every segment scan patched to raise, each writer's
term_dict and sidecar still equal a full scan, and every term_dict is
sorted by term."""

import json
import os
import shutil

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from stacksearch_ray.corpus import write_corpus


def _boom(*a, **k):
    raise AssertionError("a writer re-read the segment files it wrote")


def _forbid_scans(mp, per_file_too=True):
    """Make the term_dict scan and the sidecar scans raise; the per-file
    sidecar read stays allowed where ``per_file_too`` is False."""
    from stacksearch_ray import append, checkpoint, schema

    mp.setattr(checkpoint, "_write_term_dict", _boom)
    mp.setattr(schema, "scan_seg_bucket_map", _boom)
    if per_file_too:
        for mod in (schema, checkpoint, append):
            mp.setattr(mod, "read_seg_map_entry", _boom)


def _scanned_term_dict(idx):
    t = pads.dataset(os.path.join(idx, "segments"), format="parquet") \
        .to_table(columns=["term", "df", "cf"])
    t = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
    return t.rename_columns(["term", "df", "cf"]).sort_by("term")


def _term_dict(idx):
    return pq.read_table(os.path.join(idx, "term_dict"),
                         columns=["term", "df", "cf"])


def _sidecar(idx):
    with open(os.path.join(idx, "seg_bucket_map.json")) as f:
        return json.load(f)


def _check(idx, sidecar_files=None):
    """term_dict == a full scan (rows AND order: sorted by term), the
    sidecar == a full scan over ``sidecar_files`` (default: every
    segment file), and fsck is clean."""
    from stacksearch_ray.fsck import fsck_index
    from stacksearch_ray.schema import scan_seg_bucket_map

    td = _term_dict(idx)
    assert td.num_rows > 0
    assert td.equals(_scanned_term_dict(idx))
    assert td["term"].to_pylist() == sorted(td["term"].to_pylist())
    want = scan_seg_bucket_map(os.path.join(idx, "segments"))
    if sidecar_files is not None:
        want = {n: e for n, e in want.items() if n in sidecar_files}
    assert _sidecar(idx) == want
    rep = fsck_index(idx)
    assert rep.ok, rep.errors


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("writer_outputs") / "corpus")
    write_corpus(d, 320, rows_per_file=40)  # 8 files
    return sorted(os.path.join(d, f) for f in os.listdir(d))


def test_no_writer_rereads_its_output(ray_session, corpus, tmp_path):
    import ray.data as rd

    from stacksearch_ray.append import (append_to_index, compact_index,
                                        delete_from_index, merge_indexes)
    from stacksearch_ray.build import build_index

    kw = dict(num_shards=4, store_positions=True)
    path_idx, ds_idx, other, merged = (str(tmp_path / n) for n in
                                       ("path", "ds", "other", "merged"))
    with pytest.MonkeyPatch.context() as mp:
        _forbid_scans(mp)
        build_index(corpus[:5], path_idx, **kw)
    _check(path_idx)

    with pytest.MonkeyPatch.context() as mp:
        _forbid_scans(mp)
        build_index(rd.read_parquet(corpus[:5]), ds_idx, batch_size=64, **kw)
    _check(ds_idx)
    assert _term_dict(ds_idx).equals(_term_dict(path_idx))

    before = set(_sidecar(path_idx))
    with pytest.MonkeyPatch.context() as mp:
        _forbid_scans(mp)
        append_to_index(corpus[5:7], path_idx)
    # append writes no sidecar entries: its files get theirs from the
    # first reader that needs them
    _check(path_idx, sidecar_files=before)
    assert len(os.listdir(os.path.join(path_idx, "segments"))) > len(before)

    ids = pq.read_table(os.path.join(path_idx, "docs"), columns=["doc_id"])
    delete_from_index(path_idx, ids["doc_id"].to_pylist()[::7])
    with pytest.MonkeyPatch.context() as mp:
        _forbid_scans(mp)
        compact_index(path_idx)
    _check(path_idx)

    with pytest.MonkeyPatch.context() as mp:
        _forbid_scans(mp)
        build_index(corpus[7:], other, **kw)
        merge_indexes([ds_idx, other], merged)
    _check(other)
    _check(merged)


def test_resumed_build_reads_only_earlier_shards(ray_session, corpus,
                                                 tmp_path):
    """A build whose shards were encoded before a crash, one of whose
    files is then lost, resumes: the lost shard is re-encoded from the
    stage, the others are read from their files only, and the
    term_dict, sidecar and segment files equal an uninterrupted
    build's."""
    import hashlib

    from stacksearch_ray import checkpoint as ckpt

    idx, clean = str(tmp_path / "idx"), str(tmp_path / "clean")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckpt, "write_term_dict", _boom)
        with pytest.raises(AssertionError):
            ckpt.build_index_resumable(corpus, idx, num_shards=4)
    with open(os.path.join(idx, "manifest.json")) as f:
        m = json.load(f)
    assert sorted(m["shards"], key=int) == ["0", "1", "2", "3"]
    assert "term_dict" not in m["phases"]
    os.remove(os.path.join(idx, "segments", "shard-00002.parquet"))

    with pytest.MonkeyPatch.context() as mp:
        _forbid_scans(mp, per_file_too=False)
        ckpt.build_index_resumable(corpus, idx, num_shards=4)
    _check(idx)
    ckpt.build_index_resumable(corpus, clean, num_shards=4)

    def digest(d, sub):
        return {f: hashlib.sha256(open(os.path.join(d, sub, f), "rb")
                                  .read()).hexdigest()
                for f in sorted(os.listdir(os.path.join(d, sub)))}

    for sub in ("segments", "term_dict"):
        assert digest(idx, sub) == digest(clean, sub), sub
    strip = {n: e["buckets"] for n, e in _sidecar(idx).items()}
    assert strip == {n: e["buckets"] for n, e in _sidecar(clean).items()}


def test_compaction_over_many_files(ray_session, tmp_path):
    """Past 128 segment files a compaction groups files two or more to
    a part. Its one-pass re-encode writes the same bytes as the staged
    spill path (which resharding still takes), equals a rebuild's rows,
    and is fsck-clean."""
    import re

    from stacksearch_ray import append as A
    from stacksearch_ray.build import build_index

    c = str(tmp_path / "c")
    write_corpus(c, 360, rows_per_file=40)
    files = sorted(os.path.join(c, f) for f in os.listdir(c))
    idx = str(tmp_path / "idx")
    # three partitions: each base file holds three term-sorted runs, so
    # a compaction that did not sort its groups would reorder rows
    build_index(files[:3], idx, num_shards=64)
    A.append_to_index(files[3:6], idx)
    A.append_to_index(files[6:], idx)
    n_files = len(os.listdir(os.path.join(idx, "segments")))
    assert n_files >= 128 and n_files // 64 > 1
    spill = str(tmp_path / "spill")
    shutil.copytree(idx, spill)

    with pytest.MonkeyPatch.context() as mp:
        _forbid_scans(mp)
        A.compact_index(idx)
        mp.setattr(A, "_SHARD_FILE", re.compile(r"(?!)"))  # matches none
        A.compact_index(spill)
    _check(idx)

    def files_of(d):
        seg = os.path.join(d, "segments")
        return {f: open(os.path.join(seg, f), "rb").read()
                for f in sorted(os.listdir(seg))}

    assert files_of(idx) == files_of(spill)
    assert _term_dict(idx).equals(_term_dict(spill))

    ref = str(tmp_path / "ref")
    build_index(c, ref, num_shards=64)
    key = [("term", "ascending"), ("shard", "ascending")]
    got = pads.dataset(os.path.join(idx, "segments")).to_table().sort_by(key)
    want = pads.dataset(os.path.join(ref, "segments")).to_table().sort_by(key)
    assert got.equals(want)
    assert _term_dict(idx).equals(_term_dict(ref))


def test_fsck_flags_a_wrong_sidecar_entry(ray_session, corpus, tmp_path):
    """A sidecar entry whose (size, mtime_ns) matches its file but whose
    buckets do not would prune away a file that holds the term: fsck
    reports it. A stale entry (key mismatch) is not an error: readers
    rebuild it."""
    from stacksearch_ray.build import build_index
    from stacksearch_ray.fsck import fsck_index

    idx = str(tmp_path / "idx")
    build_index(corpus[:2], idx, num_shards=2)
    side = os.path.join(idx, "seg_bucket_map.json")
    good = _sidecar(idx)
    name = sorted(good)[0]

    stale = json.loads(json.dumps(good))
    stale[name]["mtime_ns"] -= 1
    stale[name]["buckets"] = stale[name]["buckets"][1:]
    with open(side, "w") as f:
        json.dump(stale, f)
    assert fsck_index(idx).ok

    wrong = json.loads(json.dumps(good))
    wrong[name]["buckets"] = wrong[name]["buckets"][1:]
    with open(side, "w") as f:
        json.dump(wrong, f)
    rep = fsck_index(idx)
    assert not rep.ok
    assert any("seg_bucket_map.json" in e and name in e for e in rep.errors)


def test_term_dict_scans_write_sorted_rows(ray_session, corpus, tmp_path,
                                           monkeypatch):
    """Both full scans that remain (append recovery, and the
    distributed groupby past ``_TERM_DICT_RAY_THRESHOLD`` segment rows)
    write the rows the build's partials gave, sorted by term."""
    from stacksearch_ray import checkpoint as ckpt
    from stacksearch_ray.build import build_index

    idx = str(tmp_path / "idx")
    build_index(corpus[:3], idx, num_shards=4)
    seg = os.path.join(idx, "segments")
    want = _term_dict(idx)
    for threshold in (ckpt._TERM_DICT_RAY_THRESHOLD, 0):
        monkeypatch.setattr(ckpt, "_TERM_DICT_RAY_THRESHOLD", threshold)
        out = str(tmp_path / f"td{threshold}")
        ckpt._write_term_dict(seg, os.path.join(out, "term_dict"))
        got = _term_dict(out)
        assert got.equals(want), threshold
        assert got["term"].to_pylist() == sorted(got["term"].to_pylist())
