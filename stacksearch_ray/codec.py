"""Posting-list compression: delta + varint in fixed-size blocks.

The reference's external-memory index spills sorted pickled blocks with a
sparse (offset, first_key) side index (/root/reference/index/hash_index.py:
112-139,165-195). Ours is the columnar, compressed analog: per (term, shard)
segment, doc numbers are stored sorted as LEB128 varints of within-block
deltas (the first value of each block of ``block_size`` postings is
absolute, so any block decodes independently), tfs as plain varints.

The codec encodes whatever sorted non-negative integers it is given. The
index gives it LOCAL doc numbers: ``build.SegmentEncoder`` numbers each
segment file's postings by the doc's rank in the file's sorted doc-id
set, the file's doc map (``schema.DOC_MAP_KEY``), the per-segment docID
model of Lucene. Dense numbers keep deltas to one or two varint bytes
where 63-bit hash ids (``schema.doc_id_for``) needed eight or nine, and
rank order is doc-id order. Readers map a decoded number n back to
``doc_map[n]``.

No per-block metadata is stored (index format v6). The block-max scorer
bounds fixed intervals of ``block_size`` docs of the engine's doc space
from each term's merged decode (``QueryEngine._decoded``), under the
engine's own avgdl and doc lengths, so the bounds are exact and can
never be stale, and the encoder needs no global statistics.

All encode/decode paths are NumPy-vectorized — no Python per-posting loops.
Encoding is batched per shuffle group as well: ``encode_segments`` encodes
every (term, shard) row of a group in one pass over the group's flat,
row-contiguous posting arrays, so there is no Python per-row loop either
(``encode_segment`` is its one-row adapter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 128
# a value needs k+1 LEB128 bytes when it is >= the k-th threshold 2**7k
_THRESHOLDS = np.uint64(1) << (np.arange(1, 10, dtype=np.uint64) * np.uint64(7))
# Arrow binary column offsets are int32: an encode whose byte offsets
# reach this limit raises instead of wrapping
INT32_OFFSET_LIMIT = 2**31

BM25_K1 = 1.2
BM25_B = 0.75


def gather_ranges(begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Flat int64 indices covering [begin[i], end[i]) for every i, in
    order — the vectorized gather for slicing per-row spans out of a
    flat array without a Python loop (shared by the training export and
    the fielded-search token split)."""
    ln = (end - begin).astype(np.int64)
    tot = int(ln.sum())
    if tot == 0:
        return np.empty(0, np.int64)
    csum = np.concatenate(([0], np.cumsum(ln)[:-1]))
    return (np.repeat(begin.astype(np.int64), ln)
            + np.arange(tot, dtype=np.int64) - np.repeat(csum, ln))


def _varint_encode_array(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode a uint64 array into one uint8 array, lane by lane:
    byte counts come from the 9 thresholds 2**7k, then byte j of every
    value that has one is written by one masked scatter (at most 10),
    so no n x 10 matrix is materialised. Returns (bytes, byte offsets): value i is
    ``bytes[offsets[i]:offsets[i+1]]``."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    nbytes = np.searchsorted(_THRESHOLDS, v, side="right") + 1
    offsets = np.zeros(len(v) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    out = np.empty(offsets[-1], dtype=np.uint8)
    pos = offsets[:-1]
    while True:
        # the low byte of v | 0x80 is the low 7 bits plus the continuation bit
        more = v > np.uint64(0x7F)
        out[pos] = np.where(more, v | np.uint64(0x80), v).astype(np.uint8)
        if not more.any():
            return out, offsets
        v, pos = v[more] >> np.uint64(7), pos[more] + 1


def varint_encode(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a uint64 array. Returns (buffer, per-value byte counts)."""
    out, offsets = _varint_encode_array(values)
    return out.tobytes(), np.diff(offsets)


def varint_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode a LEB128 buffer into a uint64 array (vectorized reduceat)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if len(b) == 0:
        return np.zeros(0, dtype=np.uint64)
    is_last = (b & 0x80) == 0
    ends = np.flatnonzero(is_last)
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    sizes = ends - starts + 1
    pos = np.arange(len(b), dtype=np.int64) - np.repeat(starts, sizes)
    vals7 = (b & np.uint8(0x7F)).astype(np.uint64) << (pos.astype(np.uint64) * np.uint64(7))
    return np.add.reduceat(vals7, starts)


@dataclass
class EncodedSegment:
    df: int
    cf: int
    doc_ids: bytes
    tfs: bytes


def bm25_tf_part(tf: np.ndarray, doc_len: np.ndarray, avgdl: float,
                 k1: float = BM25_K1, b: float = BM25_B) -> np.ndarray:
    """(k1+1)*tf / (tf + k1*(1 - b + b*dl/avgdl)) as float64."""
    tf = tf.astype(np.float64)
    norm = k1 * (1.0 - b + b * (doc_len.astype(np.float64) / float(avgdl)))
    return (k1 + 1.0) * tf / (tf + norm)


@dataclass
class EncodedSegments:
    """Every segment row of one group, back to back: row r's id bytes
    are ``doc_ids[id_offsets[r]:id_offsets[r+1]]`` (tfs likewise)."""

    df: np.ndarray               # int64 per row
    cf: np.ndarray               # int64 per row
    doc_ids: np.ndarray          # uint8, every row's id varints
    id_offsets: np.ndarray       # int64 per row + 1
    tfs: np.ndarray              # uint8, every row's tf varints
    tf_offsets: np.ndarray       # int64 per row + 1

    def arrow_columns(self) -> dict:
        """The ``df`` … ``tfs`` segment columns as Arrow arrays built
        straight from these buffers."""
        import pyarrow as pa

        def binary(buf, offs):
            return pa.Array.from_buffers(
                pa.binary(), len(offs) - 1,
                [None, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(buf)])

        return {
            "df": pa.array(self.df, pa.int64()),
            "cf": pa.array(self.cf, pa.int64()),
            "doc_ids": binary(self.doc_ids, self.id_offsets),
            "tfs": binary(self.tfs, self.tf_offsets),
        }


def encode_segments(doc_ids: np.ndarray, tfs: np.ndarray,
                    starts: np.ndarray, ends: np.ndarray,
                    block_size: int = BLOCK_SIZE) -> EncodedSegments:
    """Encode many (term, shard) posting lists in one vectorized pass.
    Row r is postings ``starts[r]:ends[r]`` of the flat arrays; rows
    must be contiguous and cover them (``starts[0] == 0``, ``starts[r+1]
    == ends[r]``, ``ends[-1] == len(doc_ids)``), and each row must be
    doc_id-sorted. Row r's output is byte-identical to encoding it alone."""
    n = len(doc_ids)
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    bounds = np.append(np.asarray(starts, dtype=np.int64), n)
    if bounds[0] != 0 or not np.array_equal(bounds[1:], ends):
        raise ValueError("encode_segments needs contiguous rows covering "
                         "the posting arrays")
    df = np.diff(bounds)
    nblocks = (df + (block_size - 1)) // block_size
    block_offsets = np.zeros(len(df) + 1, dtype=np.int64)
    np.cumsum(nblocks, out=block_offsets[1:])
    # block k of row r starts at bounds[r] + block_size * (k - block_offsets[r])
    block_starts = (np.repeat(bounds[:-1] - block_size * block_offsets[:-1], nblocks)
                    + block_size * np.arange(block_offsets[-1]))
    # Within-block deltas; block-start positions hold absolute values
    # (every row starts a block, so deltas across rows are overwritten).
    deltas = np.empty(n, dtype=np.uint64)
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:], casting="unsafe")
    deltas[block_starts] = doc_ids[block_starts]
    id_buf, id_cum = _varint_encode_array(deltas)
    tf_buf, tf_cum = _varint_encode_array(tfs)
    # the Arrow binary columns are int32: a group past 2 GiB would
    # silently wrap and decode garbage — fail loudly instead (reachable
    # only with a misconfigured num_shards at very large scale; the fix
    # is more shards, which also bounds per-task memory)
    if id_cum[-1] >= INT32_OFFSET_LIMIT or tf_cum[-1] >= INT32_OFFSET_LIMIT:
        raise ValueError(
            f"encoded segments exceed int32 offset range "
            f"({int(id_cum[-1])}/{int(tf_cum[-1])} bytes, {n} postings in "
            f"{len(df)} rows); increase num_shards so groups shrink")
    tf_sums = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tfs, out=tf_sums[1:])
    return EncodedSegments(
        df=df,
        cf=np.diff(tf_sums[bounds]),
        doc_ids=id_buf,
        id_offsets=id_cum[bounds],
        tfs=tf_buf,
        tf_offsets=tf_cum[bounds],
    )


def encode_segment(doc_ids: np.ndarray, tfs: np.ndarray, doc_lens=None,
                   avgdl=None, k1=None, b=None,
                   block_size: int = BLOCK_SIZE) -> EncodedSegment:
    """Encode one (term, shard) posting list. Inputs must be
    doc_id-sorted. ``doc_lens``, ``avgdl``, ``k1`` and ``b`` are
    unused: the format stores no score bounds, and they stay only so
    that callers written against the older signature keep working."""
    n = len(doc_ids)
    seg = encode_segments(doc_ids, tfs, np.zeros(1, np.int64),
                          np.array([n]), block_size)
    return EncodedSegment(
        df=n,
        cf=int(seg.cf[0]),
        doc_ids=seg.doc_ids.tobytes(),
        tfs=seg.tfs.tobytes(),
    )


def decode_doc_ids(buf: bytes, block_size: int = BLOCK_SIZE) -> np.ndarray:
    """Decode a full doc_ids buffer back to absolute sorted int64 ids."""
    deltas = varint_decode(buf).astype(np.int64)
    n = len(deltas)
    if n == 0:
        return deltas
    cum = np.cumsum(deltas)
    block_starts = np.arange(0, n, block_size, dtype=np.int64)
    bases = np.empty(len(block_starts), dtype=np.int64)
    bases[0] = 0
    bases[1:] = cum[block_starts[1:] - 1]
    sizes = np.diff(np.concatenate((block_starts, [n])))
    return cum - np.repeat(bases, sizes)


def decode_tfs(buf: bytes) -> np.ndarray:
    return varint_decode(buf).astype(np.int64)


def varint_decode_batch(bufs: list[bytes]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Decode MANY standalone LEB128 buffers in ONE vectorized pass:
    concatenate, decode, split. Per-call numpy fixed cost (~40-90 µs)
    dominates when rows are small (fine sharding × small vocab), so
    compaction's per-segment-row decode uses this instead of one
    varint_decode call per row. Returns (values uint64, row_offsets
    int64 of length len(bufs)+1)."""
    n_rows = len(bufs)
    lens = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=n_rows)
    byte_offs = np.concatenate(([0], np.cumsum(lens)))
    b = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    if len(b) == 0:
        return np.zeros(0, np.uint64), np.zeros(n_rows + 1, np.int64)
    is_last = (b & 0x80) == 0
    ends = np.flatnonzero(is_last)
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    sizes = ends - starts + 1
    pos = np.arange(len(b), dtype=np.int64) - np.repeat(starts, sizes)
    vals7 = ((b & np.uint8(0x7F)).astype(np.uint64)
             << (pos.astype(np.uint64) * np.uint64(7)))
    vals = np.add.reduceat(vals7, starts)
    # varints never span row buffers, so the count of value-terminators
    # below each row's byte boundary gives the row's value offset
    row_offsets = np.concatenate(
        ([0], np.searchsorted(ends, byte_offs[1:], side="left")))
    return vals, row_offsets


def decode_doc_ids_batch(bufs: list[bytes],
                         block_size: int = BLOCK_SIZE
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``decode_doc_ids``: (flat absolute ids, row_offsets).
    Every block start re-encodes the absolute id (the skip-block
    property), so the per-block base subtraction vectorizes across ALL
    rows at once: bases are the global-cumsum values just before each
    reset position. Row i's ids are flat[row_offsets[i]:
    row_offsets[i+1]], identical to decode_doc_ids(bufs[i])."""
    deltas, offs = varint_decode_batch(bufs)
    deltas = deltas.astype(np.int64)
    n = len(deltas)
    if n == 0:
        return deltas, offs
    cum = np.cumsum(deltas)
    sizes = np.diff(offs)
    nblocks = (sizes + block_size - 1) // block_size
    total_blocks = int(nblocks.sum())
    row_of_block = np.repeat(np.arange(len(sizes)), nblocks)
    blk_base = np.concatenate(([0], np.cumsum(nblocks)))[:-1]
    blk_in_row = np.arange(total_blocks) - np.repeat(blk_base, nblocks)
    reset_starts = offs[:-1][row_of_block] + blk_in_row * block_size
    row_ends = (offs[:-1] + sizes)[row_of_block]
    seg_sizes = np.minimum(reset_starts + block_size, row_ends) - reset_starts
    bases = np.where(reset_starts > 0,
                     cum[np.maximum(reset_starts - 1, 0)], 0)
    return cum - np.repeat(bases, seg_sizes), offs


def decode_tfs_batch(bufs: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    vals, offs = varint_decode_batch(bufs)
    return vals.astype(np.int64), offs


def encode_position_lists(pos_sorted: np.ndarray,
                          starts: np.ndarray,
                          ends: np.ndarray) -> list[bytes]:
    """Gap+varint encode per-group ascending position lists laid out
    contiguously in ``pos_sorted`` (group g = pos_sorted[starts[g]:
    ends[g]]). Each group's first value is ABSOLUTE so any group blob
    decodes independently; the whole stream is varint-encoded in ONE
    vectorized pass and split into per-group byte slices. No writer
    calls it: it is the reference that the tests pin
    ``encode_position_lists_arrow``, which every writer uses, against."""
    n = len(pos_sorted)
    if n == 0:
        return [b""] * len(starts)
    gaps = np.empty(n, dtype=np.uint64)
    gaps[1:] = (pos_sorted[1:] - pos_sorted[:-1]).astype(np.uint64)
    gaps[starts] = pos_sorted[starts].astype(np.uint64)
    buf, cum = _varint_encode_array(gaps)
    return [buf[cum[s]:cum[e]].tobytes() for s, e in zip(starts, ends)]


def encode_position_lists_arrow(pos_sorted: np.ndarray,
                                starts: np.ndarray,
                                ends: np.ndarray) -> "pa.Array":
    """Zero-copy variant of ``encode_position_lists`` for CONTIGUOUS
    groups (``starts[0] == 0`` and ``starts[i+1] == ends[i]``, the
    layout np.unique produces): the varint stream is wrapped directly
    as a pyarrow BinaryArray through an offsets buffer — no per-group
    Python ``bytes`` (measured ~1/3 of the positional partition-phase
    overhead at 400k docs). Byte content is identical to the list
    variant (same varint stream, same split points)."""
    import pyarrow as pa

    n_groups = len(starts)
    if len(pos_sorted) == 0:
        return pa.array([b""] * n_groups, pa.binary())
    if n_groups == 0:
        return pa.array([], pa.binary())
    if starts[0] != 0 or (len(starts) > 1
                          and not np.array_equal(starts[1:], ends[:-1])):
        raise ValueError("encode_position_lists_arrow needs contiguous groups")
    n = len(pos_sorted)
    gaps = np.empty(n, dtype=np.uint64)
    gaps[1:] = (pos_sorted[1:] - pos_sorted[:-1]).astype(np.uint64)
    gaps[starts] = pos_sorted[starts].astype(np.uint64)
    buf, cum = _varint_encode_array(gaps)
    total = int(cum[ends[-1]])
    if total >= INT32_OFFSET_LIMIT:
        raise ValueError("position blob batch exceeds int32 offsets — "
                         "lower the build batch_size")
    offs = cum[np.concatenate((starts[:1], ends))].astype(np.int32)
    return pa.Array.from_buffers(
        pa.binary(), n_groups,
        [None, pa.py_buffer(offs), pa.py_buffer(buf[:total])])


def decode_positions(blob: bytes, tfs: np.ndarray) -> np.ndarray:
    """Decode a segment's concatenated position blob back to absolute
    positions (flat, aligned with the posting order: doc i's positions
    occupy the next tfs[i] slots). Pure vectorized: one varint decode +
    a segmented cumsum (offset subtraction at each doc start)."""
    gaps = varint_decode(blob).astype(np.int64)
    if len(gaps) == 0:
        return gaps
    starts = np.concatenate(([0], np.cumsum(tfs)))[:-1]
    cs = np.cumsum(gaps)
    base = np.zeros(len(gaps), dtype=np.int64)
    # subtract the running total accumulated BEFORE each doc's first gap
    base[starts[1:]] = cs[starts[1:] - 1]
    np.maximum.accumulate(base, out=base)
    return cs - base
