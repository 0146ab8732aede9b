"""Property-based codec tests (hypothesis): round-trips hold for ANY
sorted posting list, not just the seeded samples in test_codec.py."""

from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksearch_ray import codec
from stacksearch_ray.build import SegmentEncoder, _empty_segments_table
from stacksearch_ray.codec import (
    bm25_tf_part,
    decode_doc_ids,
    decode_tfs,
    encode_segment,
    encode_segments,
    varint_decode,
    varint_encode,
)
from stacksearch_ray.query import QueryEngine
from stacksearch_ray.schema import DOC_MAP_KEY, SEGMENTS_SCHEMA


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300))
def test_varint_roundtrip_any(values):
    vals = np.array(values, dtype=np.uint64)
    buf, nbytes = varint_encode(vals)
    assert varint_decode(buf).tolist() == vals.tolist()
    assert int(nbytes.sum()) == len(buf)


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=400),
    st.integers(min_value=1, max_value=64),
    st.data(),
)
def test_segment_roundtrip_any(id_set, block_size, data):
    ids = np.array(sorted(id_set), dtype=np.int64)
    n = len(ids)
    tfs = np.array(data.draw(st.lists(st.integers(1, 10_000),
                                      min_size=n, max_size=n)), dtype=np.int64)
    seg = encode_segment(ids, tfs, block_size=block_size)
    assert seg.df == n and seg.cf == int(tfs.sum())
    assert decode_doc_ids(seg.doc_ids, block_size).tolist() == ids.tolist()
    assert decode_tfs(seg.tfs).tolist() == tfs.tolist()
    n_blocks = (n + block_size - 1) // block_size
    # a random block decodes from its own values alone (its first value
    # is absolute) and matches the slice
    blk = data.draw(st.integers(0, n_blocks - 1))
    lo, hi = blk * block_size, min(n, (blk + 1) * block_size)
    raw = varint_decode(seg.doc_ids).astype(np.int64)
    assert np.cumsum(raw[lo:hi]).tolist() == ids[lo:hi].tolist()
    assert decode_tfs(seg.tfs)[lo:hi].tolist() == tfs[lo:hi].tolist()


# --- batched encoder vs the per-row reference ------------------------------

def _leb128(v: int) -> bytes:
    """Scalar LEB128, one value."""
    out = bytearray()
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _ref_encode_segment(doc_ids, tfs, doc_lens, avgdl, k1, b, block_size):
    """One (term, shard) row, encoded value by value, with the per-block
    skip entries and BM25 bounds a format-v5 row stored besides its
    v6 fields (df, cf, doc_ids, tfs)."""
    n = len(doc_ids)
    block_starts = list(range(0, n, block_size))
    id_bytes, tf_bytes, id_offs, tf_offs = b"", b"", [], []
    for i in range(n):
        if i in block_starts:
            id_offs.append(len(id_bytes))
            tf_offs.append(len(tf_bytes))
            delta = int(doc_ids[i])
        else:
            delta = int(doc_ids[i]) - int(doc_ids[i - 1])
        id_bytes += _leb128(delta)
        tf_bytes += _leb128(int(tfs[i]))
    scores = bm25_tf_part(tfs, doc_lens, avgdl, k1, b)
    ends = block_starts[1:] + [n]
    return {
        "df": n, "cf": int(tfs.sum()), "doc_ids": id_bytes, "tfs": tf_bytes,
        "skip_first_doc": [int(doc_ids[s]) for s in block_starts],
        "skip_doc_offset": id_offs, "skip_tf_offset": tf_offs,
        "block_max_tf": [int(tfs[s:e].max()) for s, e in zip(block_starts, ends)],
        "block_max_score": [float(scores[s:e].max())
                            for s, e in zip(block_starts, ends)],
    }


def _ref_segment_encoder(group: pa.Table, block_size) -> pa.Table:
    """The per-(term, shard) loop SegmentEncoder ran before encoding was
    batched per group: sort, split into rows, encode each row alone —
    over local doc numbers, each doc id's rank in the group's sorted
    doc ids (the doc map)."""
    has_pos = "pos" in group.column_names
    if group.num_rows == 0:
        return _empty_segments_table(has_pos)
    terms = group["term"].to_pylist()
    doc_ids = np.asarray(group["doc_id"]).astype(np.int64)
    doc_ids = np.searchsorted(np.unique(doc_ids), doc_ids)
    tfs = np.asarray(group["tf"]).astype(np.int64)
    shards = np.asarray(group["shard"]).astype(np.int32)
    pos = group["pos"].to_pylist() if has_pos else None
    rows: dict = {}
    for i in sorted(range(len(terms)),
                    key=lambda i: (int(shards[i]), terms[i], int(doc_ids[i]))):
        rows.setdefault((int(shards[i]), terms[i]), []).append(i)
    # codes follow first appearance (dictionary_encode), so rows sort by
    # (shard, first-appearance rank of the term)
    rank = {t: r for r, t in reversed(list(enumerate(terms)))}
    out = {k: [] for k in SEGMENTS_SCHEMA.names}
    if has_pos:
        out["positions"] = []
    for (shard, term), idx in sorted(rows.items(),
                                     key=lambda kv: (kv[0][0], rank[kv[0][1]])):
        seg = _ref_encode_segment(doc_ids[idx], tfs[idx], np.ones(len(idx)),
                                  1.0, 1.2, 0.75, block_size)
        out["term"].append(term)
        out["shard"].append(shard)
        for k in ("df", "cf", "doc_ids", "tfs"):
            out[k].append(seg[k])
        if has_pos:
            out["positions"].append(b"".join(pos[i] or b"" for i in idx))
    schema = SEGMENTS_SCHEMA
    if has_pos:
        schema = schema.append(pa.field("positions", pa.binary()))
    return pa.table(out, schema=schema)


def _random_group(rng, dfs, n_shards, positions, block_size):
    """A shuffle group: term t has postings in ``dfs[t]`` distinct docs
    per shard it appears in, rows shuffled."""
    cols = {k: [] for k in ("term", "doc_id", "tf", "shard")}
    pos = []
    for t, df in enumerate(dfs):
        for shard in rng.choice(n_shards, size=int(rng.integers(1, n_shards + 1)),
                                replace=False):
            ids = rng.choice(2**40, size=df, replace=False) * n_shards + shard
            tf = rng.integers(1, 300, size=df)
            cols["term"] += [f"t{t}"] * df
            cols["doc_id"] += ids.tolist()
            cols["tf"] += tf.tolist()
            cols["shard"] += [int(shard)] * df
            pos += [None if rng.random() < 0.05 else rng.bytes(int(x) % 7)
                    for x in tf]
    perm = rng.permutation(len(cols["term"]))
    table = pa.table({
        "term": pa.array([cols["term"][i] for i in perm], pa.string()),
        "doc_id": pa.array(np.asarray(cols["doc_id"], np.int64)[perm]),
        "tf": pa.array(np.asarray(cols["tf"], np.int64)[perm]),
        "shard": pa.array(np.asarray(cols["shard"], np.int32)[perm]),
    })
    if positions:
        table = table.append_column(
            "pos", pa.array([pos[i] for i in perm], pa.binary()))
    return table


@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("block_size", [4, 128])
def test_segment_encoder_equals_per_row_reference(positions, block_size):
    rng = np.random.default_rng(block_size + positions)
    bs = block_size
    dfs = [1, bs - 1, bs, bs + 1, 3 * bs + 5, 2, 7]
    for seed_shards in (1, 3, 8):
        group = _random_group(rng, dfs, seed_shards, positions, bs)
        enc = SegmentEncoder(block_size=bs)
        got = enc(group)
        want = _ref_segment_encoder(group, bs)
        assert got.equals(want)
        assert np.frombuffer(got.schema.metadata[DOC_MAP_KEY],
                             "<i8").tolist() == sorted(
            set(group["doc_id"].to_pylist()))
        # chunked input (as map_groups hands it over) encodes the same
        half = group.num_rows // 2
        chunked = pa.concat_tables([group.slice(0, half), group.slice(half)])
        assert enc(chunked).equals(want)


@pytest.mark.parametrize("positions", [False, True])
def test_segment_encoder_empty_group(positions):
    group = _random_group(np.random.default_rng(0), [1], 1, positions, 128)
    got = SegmentEncoder()(group.slice(0, 0))
    assert got.num_rows == 0
    assert got.equals(_ref_segment_encoder(group.slice(0, 0), 128))


def test_encode_segment_adapter_equals_reference():
    rng = np.random.default_rng(5)
    for n in (0, 1, 127, 128, 129, 389):
        ids = np.sort(rng.choice(10**12, size=n, replace=False)).astype(np.int64)
        tfs = rng.integers(1, 1000, size=n).astype(np.int64)
        lens = rng.integers(1, 9000, size=n).astype(np.int64)
        ref = _ref_encode_segment(ids, tfs, lens, 300.0, 1.2, 0.75, 128)
        # the score arguments are accepted and ignored
        for seg in (encode_segment(ids, tfs, lens, 300.0),
                    encode_segment(ids, tfs)):
            assert (seg.df, seg.cf, seg.doc_ids, seg.tfs) == (
                ref["df"], ref["cf"], ref["doc_ids"], ref["tfs"])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_interval_bounds_are_exact_maxima(n_docs, block_size, n_rows, data):
    """``QueryEngine._decoded`` merges a term's rows (files with
    disjoint doc maps, as shards and appends hold) into doc-id order,
    and its interval summary for bmax is exact: over every interval of
    ``block_size`` dense positions, the bound is the max idf-free BM25
    part of the term's postings in it, bitwise, and 0 where the term
    has none. The engine holds ``n_docs`` docs, each row's file maps a
    subset of them, and each row posts to a subset of its map."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    doc_ids = np.unique(rng.choice(2**62, size=n_docs))
    lens = rng.integers(1, 5000, size=len(doc_ids)).astype(np.int64)
    avgdl = int(lens.sum()) / len(lens)  # as a build computes it
    k1, b = 1.2, 0.75
    owner = rng.integers(0, n_rows, size=len(doc_ids))
    rows, posted, posted_tfs = [], [], []
    for r in range(n_rows):
        mapped = np.flatnonzero(owner == r)
        if len(mapped) == 0:
            continue
        doc_map = np.sort(rng.choice(doc_ids[mapped], size=int(
            rng.integers(1, len(mapped) + 1)), replace=False))
        local = np.sort(rng.choice(len(doc_map), size=int(rng.integers(
            1, len(doc_map) + 1)), replace=False)).astype(np.int64)
        tfs = rng.integers(1, 300, size=len(local)).astype(np.int64)
        seg = encode_segment(local, tfs, block_size=block_size)
        rows.append({"doc_ids": seg.doc_ids, "tfs": seg.tfs,
                     "doc_map": (doc_map, np.searchsorted(doc_ids, doc_map)),
                     "df": len(local)})
        posted.append(doc_map[local])
        posted_tfs.append(tfs)
    eng = object.__new__(QueryEngine)
    eng.doclens = SimpleNamespace(ids=doc_ids, lens=lens)
    eng.avgdl, eng.k1, eng.b, eng.block_size = avgdl, k1, b, block_size
    eng.index_dir, eng._dec_cache, eng.max_cached_segments = "mem", {}, 8
    eng.n_docs, eng.shard_subset = len(doc_ids), None
    eng._df_cache, eng._ddf = {}, {}
    eng._alive = np.ones(len(doc_ids), dtype=bool)
    p = eng._decoded("t", rows)
    order = np.argsort(np.concatenate(posted))
    assert np.array_equal(p.ids, np.concatenate(posted)[order])
    assert np.array_equal(p.tfs, np.concatenate(posted_tfs)[order])
    assert np.array_equal(p.didx, np.searchsorted(doc_ids, p.ids))
    part = bm25_tf_part(p.tfs, lens[p.didx], avgdl, k1, b)
    assert np.array_equal(p.part, part)
    n_iv = -(-len(doc_ids) // block_size)
    want = np.zeros(n_iv)
    np.maximum.at(want, p.didx // block_size, part)
    got = np.zeros(n_iv)
    got[p.iv] = p.ivmax
    assert p.ivmax.dtype == np.float64 and np.array_equal(got, want)
    assert np.array_equal(p.iv, np.unique(p.didx // block_size))
    assert np.array_equal(np.diff(p.off), np.bincount(
        p.didx // block_size, minlength=n_iv)[p.iv])
    assert eng._decoded("t", rows) is p  # cached per term


def test_encode_segments_rejects_non_contiguous_rows():
    ids = np.arange(6, dtype=np.int64)
    one = np.ones(6, np.int64)
    with pytest.raises(ValueError, match="contiguous"):
        encode_segments(ids, one, np.array([0, 3]), np.array([2, 6]))
    with pytest.raises(ValueError, match="contiguous"):
        encode_segments(ids, one, np.array([0]), np.array([5]))


def test_varint_encode_matches_scalar_leb128():
    edges = [0, 1, 127, 128, 129, 2**14 - 1, 2**14, 2**14 + 1,
             2**21 - 1, 2**21, 2**35, 2**56 - 1, 2**56, 2**63 - 1, 2**63,
             2**64 - 1]
    rng = np.random.default_rng(9)
    rand = [int(x) for x in rng.integers(0, 2**63, size=500, dtype=np.uint64)]
    for values in (edges, rand, edges[::-1] + rand, []):
        buf, nbytes = varint_encode(np.array(values, dtype=np.uint64))
        want = [_leb128(v) for v in values]
        assert buf == b"".join(want)
        assert nbytes.tolist() == [len(w) for w in want]


def test_encode_offset_guard_raises_past_limit(monkeypatch):
    """A group whose id or tf bytes reach the int32 limit raises rather
    than wrapping; the limit is patched down so the test stays small."""
    group = _random_group(np.random.default_rng(3), [50, 60], 2, False, 128)
    enc = SegmentEncoder()(group)
    total = max(len(b"".join(enc[c].to_pylist())) for c in ("doc_ids", "tfs"))
    monkeypatch.setattr(codec, "INT32_OFFSET_LIMIT", total + 1)
    SegmentEncoder()(group)
    monkeypatch.setattr(codec, "INT32_OFFSET_LIMIT", total)
    with pytest.raises(ValueError, match="int32 offset range"):
        SegmentEncoder()(group)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_split_doc_blobs_equals_decode_reencode(data):
    """Compaction slices segment-row position blobs into per-doc blobs;
    that must equal decoding each row and re-encoding per doc (the
    per-row path it replaced), under any tombstone mask."""
    from stacksearch_ray.append import _split_doc_blobs

    rows, tfs_all, want = [], [], []
    for _ in range(data.draw(st.integers(0, 6))):
        docs = [sorted(data.draw(st.sets(st.integers(1, 2**40), min_size=1,
                                         max_size=6)))
                for _ in range(data.draw(st.integers(1, 5)))]
        tfs = np.array([len(d) for d in docs], dtype=np.int64)
        flat = np.array([p for d in docs for p in d], dtype=np.int64)
        ends = np.cumsum(tfs)
        blobs = codec.encode_position_lists(flat, ends - tfs, ends)
        rows.append(b"".join(blobs))
        # the per-row reference: decode the row blob, re-encode per doc
        dec = codec.decode_positions(rows[-1], tfs)
        want.extend(codec.encode_position_lists(dec, ends - tfs, ends))
        tfs_all.append(tfs)
    tfs = np.concatenate(tfs_all) if tfs_all else np.zeros(0, np.int64)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(tfs),
                                       max_size=len(tfs))), dtype=bool)
    got = _split_doc_blobs(pa.chunked_array([pa.array(rows, pa.binary())]),
                           tfs, keep)
    assert got.type == pa.binary()
    assert got.to_pylist() == [b for b, k in zip(want, keep) if k]
