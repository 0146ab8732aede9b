"""Point-in-time snapshot/restore lifecycle (snapshot.py): isolation
from subsequent appends/deletes/purges, bitwise-identical serving,
incremental inode sharing, restore, structural verify."""

import os

import numpy as np
import pytest

from stacksearch_ray.corpus import write_corpus

QUERY = "def return var_1 helper_3"  # generated-corpus vocabulary


@pytest.fixture(scope="module")
def snap_env(ray_session, tmp_path_factory):
    from stacksearch_ray.build import build_index

    root = tmp_path_factory.mktemp("snap")
    corpus = str(root / "corpus")
    extra = str(root / "extra")
    idx = str(root / "index")
    write_corpus(corpus, 240, rows_per_file=60)
    write_corpus(extra, 60, rows_per_file=30, seed=77, row_offset=240)
    build_index(corpus, idx, num_shards=4,
                store_positions=True)
    return root, corpus, extra, idx


def test_snapshot_is_bitwise_and_isolated(snap_env):
    from stacksearch_ray.append import append_to_index, delete_from_index
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.snapshot import snapshot_index, verify_snapshot

    root, corpus, extra, idx = snap_env
    snap = str(root / "snap1")
    before = QueryEngine(idx).search(QUERY, 20, method="exhaustive")
    man = snapshot_index(idx, snap)
    assert man["n_files"] >= 3 and man["parent"] is None
    # snapshot serves bitwise-identical results
    assert QueryEngine(snap).search(QUERY, 20, method="exhaustive") == before
    assert verify_snapshot(snap)

    # mutate the ORIGINAL: append new docs, delete an old one
    append_to_index(extra, idx)
    victim = before[0][0]
    delete_from_index(idx, [victim])
    after = QueryEngine(idx).search(QUERY, 20, method="exhaustive")
    assert after != before  # the original moved on
    assert all(d != victim for d, _ in after)
    # the snapshot still serves the point-in-time view, tombstone-free
    snap_res = QueryEngine(snap).search(QUERY, 20, method="exhaustive")
    assert snap_res == before
    assert verify_snapshot(snap)


def test_incremental_snapshot_shares_inodes(snap_env):
    from stacksearch_ray.snapshot import snapshot_index

    root, corpus, extra, idx = snap_env
    base = str(root / "snap_base")
    child = str(root / "snap_child")
    snapshot_index(idx, base)
    man = snapshot_index(idx, child, parent=base)
    # unchanged segment files share inodes with the parent snapshot
    assert man["n_shared_with_parent"] >= man["n_files"] - 2
    # double-snapshot into the same dir refuses
    with pytest.raises(FileExistsError):
        snapshot_index(idx, base)


def test_restore_roundtrip_and_purge_isolation(snap_env):
    from stacksearch_ray.append import purge_doc_ids
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.snapshot import restore_snapshot, snapshot_index

    from stacksearch_ray.append import delete_from_index

    root, corpus, extra, idx = snap_env
    snap = str(root / "snap_pre_purge")
    before = QueryEngine(idx).search(QUERY, 20, method="exhaustive")
    snapshot_index(idx, snap)

    # physically purge a doc in the ORIGINAL (rewrites affected files
    # via tmp->rename — snapshot inodes must stay stable)
    victim = before[0][0]
    delete_from_index(idx, [victim])
    purge_doc_ids(idx, [victim])
    live = QueryEngine(idx).search(QUERY, 20, method="exhaustive")
    assert all(d != victim for d, _ in live)
    assert QueryEngine(snap).search(QUERY, 20,
                                    method="exhaustive") == before
    restored = str(root / "restored")
    restore_snapshot(snap, restored)
    assert QueryEngine(restored).search(QUERY, 20,
                                        method="exhaustive") == before
    with pytest.raises(FileExistsError):
        restore_snapshot(snap, restored)


def test_snapshot_rejects_non_index(snap_env, tmp_path):
    from stacksearch_ray.snapshot import snapshot_index

    with pytest.raises(FileNotFoundError):
        snapshot_index(str(tmp_path / "nope"), str(tmp_path / "s"))


def test_snapshot_through_alias(snap_env, tmp_path):
    from stacksearch_ray.append import set_index_alias
    from stacksearch_ray.query import QueryEngine
    from stacksearch_ray.snapshot import snapshot_index

    root, corpus, extra, idx = snap_env
    alias = str(tmp_path / "alias")
    set_index_alias(alias, idx)
    snap = str(tmp_path / "snap_via_alias")
    man = snapshot_index(alias, snap)  # resolves the alias hop
    assert man["source"] == os.path.abspath(idx)
    assert (QueryEngine(snap).search(QUERY, 10, method="exhaustive")
            == QueryEngine(idx).search(QUERY, 10, method="exhaustive"))
