"""Codec round-trip + block properties (SURVEY.md §7 step 5).

Seeded property-style loops (no external deps) mirroring the reference's
multi-block spill test style (/root/reference/tests/index_test.py:11-32)."""

from types import SimpleNamespace

import numpy as np

from stacksearch_ray.codec import (
    bm25_tf_part,
    decode_doc_ids,
    decode_tfs,
    encode_segment,
    varint_decode,
    varint_encode,
)
from stacksearch_ray.query import QueryEngine


def interval_postings(ids, tfs, lens, avgdl, block_size=128):
    """``QueryEngine._decoded`` of one term held by one row whose local
    doc numbers are its ranks in ``ids`` (the row's doc map), on an
    engine whose docs are ``ids`` with lengths ``lens``."""
    eng = object.__new__(QueryEngine)
    eng.doclens = SimpleNamespace(ids=ids, lens=lens)
    eng.avgdl, eng.k1, eng.b = float(avgdl), 1.2, 0.75
    eng.block_size, eng.index_dir = block_size, "mem"
    eng._dec_cache, eng.max_cached_segments = {}, 8
    eng.n_docs, eng.shard_subset = len(ids), None
    eng._df_cache, eng._ddf = {}, {}
    eng._alive = np.ones(len(ids), dtype=bool)
    local = np.arange(len(ids), dtype=np.int64)
    seg = encode_segment(local, tfs, block_size=block_size)
    row = {"doc_ids": seg.doc_ids, "tfs": seg.tfs, "doc_map": (ids, local),
           "df": len(ids)}
    return eng._decoded("t", [row])


def test_varint_roundtrip_edges():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**31, 2**63 - 1, 2**64 - 1],
                    dtype=np.uint64)
    buf, nbytes = varint_encode(vals)
    assert nbytes.tolist() == [1, 1, 1, 2, 2, 2, 3, 5, 9, 10]
    out = varint_decode(buf)
    assert out.tolist() == vals.tolist()


def test_varint_roundtrip_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(0, 5000))
        vals = rng.integers(0, 2**62, size=n, dtype=np.uint64)
        buf, _ = varint_encode(vals)
        assert varint_decode(buf).tolist() == vals.tolist()


def _random_postings(rng, n):
    ids = np.sort(rng.choice(np.arange(1, n * 20, dtype=np.int64), size=n, replace=False))
    tfs = rng.integers(1, 50, size=n).astype(np.int64)
    lens = rng.integers(1, 500, size=n).astype(np.int64)
    return ids, tfs, lens


def test_segment_roundtrip_and_skips():
    rng = np.random.default_rng(7)
    for n in [0, 1, 127, 128, 129, 1000, 4096]:
        ids, tfs, lens = _random_postings(rng, max(n, 1))
        ids, tfs, lens = ids[:n], tfs[:n], lens[:n]
        seg = encode_segment(ids, tfs, block_size=128)
        assert seg.df == n and seg.cf == int(tfs.sum())
        assert decode_doc_ids(seg.doc_ids, block_size=128).tolist() == ids.tolist()
        assert decode_tfs(seg.tfs).tolist() == tfs.tolist()
        if n == 0:
            continue
        # every block starts with an absolute value, so a block's first
        # doc is its raw varint and the blocks decode independently
        starts = np.arange(0, n, 128)
        assert varint_decode(seg.doc_ids)[starts].tolist() == ids[starts].tolist()
        # every engine doc holds the term, so bmax's intervals of 128
        # dense positions are the row's blocks
        p = interval_postings(ids, tfs, lens, 120.0)
        assert p.iv.tolist() == list(range(len(starts)))
        assert p.off.tolist() == starts.tolist() + [n]
        for blk, lo in enumerate(starts):
            hi = min(n, lo + 128)
            # the interval bound is the interval's best score, exactly
            scores = bm25_tf_part(tfs[lo:hi], lens[lo:hi], 120.0)
            assert p.ivmax[blk] == scores.max()


def test_block_max_is_tight():
    ids = np.arange(1, 257, dtype=np.int64)
    tfs = np.ones(256, dtype=np.int64)
    lens = np.full(256, 100, dtype=np.int64)
    p = interval_postings(ids, tfs, lens, 100.0)
    expect = bm25_tf_part(np.array([1]), np.array([100]), 100.0)[0]
    assert p.ivmax.tolist() == [expect, expect]


def test_batched_decode_matches_per_row():
    """decode_doc_ids_batch / decode_tfs_batch == per-row decodes on
    random segment rows (incl. multi-block rows and empties)."""
    import numpy as np

    from stacksearch_ray.codec import (
        decode_doc_ids,
        decode_doc_ids_batch,
        decode_tfs,
        decode_tfs_batch,
        encode_segment,
    )

    rng = np.random.default_rng(21)
    bufs_d, bufs_t, exp_i, exp_t = [], [], [], []
    for _ in range(300):
        n = int(rng.integers(1, 500))
        ids = np.sort(rng.choice(10**7, n, replace=False)).astype(np.int64)
        tfs = rng.integers(1, 9, n).astype(np.int64)
        seg = encode_segment(ids, tfs, block_size=128)
        bufs_d.append(seg.doc_ids)
        bufs_t.append(seg.tfs)
        exp_i.append(decode_doc_ids(seg.doc_ids, 128))
        exp_t.append(decode_tfs(seg.tfs))
    fi, offs = decode_doc_ids_batch(bufs_d, 128)
    ft, offs2 = decode_tfs_batch(bufs_t)
    assert np.array_equal(offs, offs2)
    for i in range(len(bufs_d)):
        assert np.array_equal(fi[offs[i]:offs[i + 1]], exp_i[i]), i
        assert np.array_equal(ft[offs[i]:offs[i + 1]], exp_t[i]), i
    fe, oe = decode_doc_ids_batch([b"", b""], 128)
    assert len(fe) == 0 and oe.tolist() == [0, 0, 0]
