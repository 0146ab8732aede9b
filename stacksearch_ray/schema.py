"""Arrow schemas and doc-id / hashing helpers (SURVEY.md §1.2).

Tables:

- ``corpus``  — the input (BASELINE.json input_hint):
  ``repo,path,commit,lang,content`` all string.
- ``docs``    — derived doc-store (replaces the reference's ``titlesCache``,
  /root/reference/dataprocess/parser.py:8, and ``fetch_post_by_id`` scans,
  /root/reference/results.py:149-158).
- ``postings``— exploded (term, doc_id, tf) — the shuffle payload.
- ``segments``— the persisted index: one row per (term, shard), doc_id-sorted
  delta+varint-compressed postings in independently decodable blocks
  (replaces the pickle blobs of /root/reference/index/index.py:68-76).
  Postings hold LOCAL doc numbers: a doc's rank in its file's sorted
  doc-id set, the file's doc map (``DOC_MAP_KEY``).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

CORPUS_SCHEMA = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content_sha256", pa.string()),
        ("doc_len", pa.int64()),
    ]
)

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int64()),
        ("shard", pa.int32()),
    ]
)

SEGMENTS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("df", pa.int64()),          # docs containing term, within this shard
        ("cf", pa.int64()),          # total occurrences, within this shard
        ("doc_ids", pa.binary()),    # delta+varint-compressed sorted local doc numbers
        ("tfs", pa.binary()),        # varint-compressed tfs, aligned
    ]
)


def segments_schema(positions: bool = False) -> pa.Schema:
    """The columns of every segment file of an index, with the
    ``positions`` column when the index stores positions."""
    if positions:
        return SEGMENTS_SCHEMA.append(pa.field("positions", pa.binary()))
    return SEGMENTS_SCHEMA


TERM_DICT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),   # global document frequency
        ("cf", pa.int64()),   # global collection frequency
    ]
)

# Bump when the on-disk index layout changes (segments schema, codec,
# stats fields) — consumers embed it in cache paths so stale indexes from
# older code are never read.
INDEX_FORMAT_VERSION = 6  # v6: a segment row is term, shard, df, cf,
#     doc_ids, tfs (+ positions). The five per-block list columns
#     (skip_first_doc, two skip offsets, block_max_tf, block_max_score)
#     are gone: the block-max scorer takes first docs and bounds from
#     the row's decode, exact under the engine's own stats, and no
#     reader used the offsets. The encoder needs no avgdl or doc lengths.
#     v5 files still carry the dropped columns: a writer adding v6
#     files next to them would mix two schemas in one segments dir, so
#     the gate refuses v5 and the index is rebuilt.
# v5: postings store local doc numbers — a
#     doc's rank in its segment file's sorted doc-id set — and the file
#     carries that set as its doc map (schema metadata DOC_MAP_KEY);
#     skip_first_doc is list<int32>; segment footers keep min/max
#     statistics for ``term`` and ``shard`` only. 63-bit hash ids made
#     every posting delta an 8-9 byte varint. stats.json records
#     format_version, and every reader and writer checks it, since v5
#     code reading a v4 index would decode global ids as local numbers.
# v4: positions column stored under parquet
#     zstd (BENCH/positions_codec_r5.json: −41% position bytes, −8%
#     segment dirs, decode no slower than snappy). Readers are
#     codec-transparent (parquet column-chunk metadata carries the
#     codec) — the bump exists so conformance caches rebuild and every
#     write path provably shares one policy (segment_compression()).
#     Serving + phrase results off re-compressed segments pinned
#     bitwise-equal in the drill.
# v3: tombstone lifecycle sidecars
#     (tombstones-*/deleted-df-* files; stats.json keys tombstones_file,
#     deleted_df_file, n_tombstones, last_append_id; append.pending-*
#     journals). A v2 reader opening a tombstoned index would silently
#     serve deleted docs — the version gate makes that impossible.
# v2: optional positional sidecar (segments gain a ``positions`` binary
#     column when built with store_positions=True; stats.json records
#     the flag)

# 63-bit mask: doc ids stay positive int64.
_ID_MASK = (1 << 63) - 1


def sha256_hex(content: str | bytes) -> str:
    """Per-row invariant hash (BASELINE.json input_hint): sha256(content)."""
    if isinstance(content, str):
        content = content.encode("utf-8", errors="surrogatepass")
    return hashlib.sha256(content).hexdigest()


def doc_id_for(repo: str, path: str, commit: str) -> int:
    """Deterministic, execution-order-independent 63-bit doc id.

    ``doc_id = sha256(repo \\x00 path \\x00 commit)[:8] & (2^63-1)``.
    Order-free so the doc_id-sorted posting invariant (SURVEY.md §2.9)
    never depends on which partition tokenized the row first. Collisions
    are detected at build time (build.py) and would require a corpus of
    ~2^31 distinct keys to be likely.
    """
    h = hashlib.sha256(f"{repo}\x00{path}\x00{commit}".encode()).digest()
    return int.from_bytes(h[:8], "big") & _ID_MASK


def doc_ids_batch(repo: pa.Array, path: pa.Array, commit: pa.Array) -> np.ndarray:
    """Vectorized-ish batch doc-id assignment (hashlib per row; cheap vs tokenize)."""
    out = np.empty(len(repo), dtype=np.int64)
    r, p, c = repo.to_pylist(), path.to_pylist(), commit.to_pylist()
    for i in range(len(out)):
        out[i] = doc_id_for(r[i], p[i], c[i])
    return out


def sha256_batch(content: pa.Array) -> list[str]:
    return [sha256_hex(s) if s is not None else "" for s in content.to_pylist()]


def shard_of(doc_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Shard assignment for the term-partitioned index: hash-spread doc ids.

    Knuth multiplicative spread so sequential test doc_ids (e.g. the
    testdata ``documents.doc_id``) still distribute evenly.
    """
    spread = (doc_ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
    return (spread % np.uint64(num_shards)).astype(np.int32)


# the segment columns whose footer min/max statistics readers filter
# on; segment files keep statistics for these only
SEGMENT_STATS_COLUMNS = ("term", "shard")


def segment_compression(schema: pa.Schema) -> dict[str, str] | None:
    """THE per-column parquet codec policy for index artifacts: the
    position-blob column (``positions`` in segments, ``pos`` in staged
    postings) writes under zstd — measured −41% of its bytes vs the
    snappy default with decode no slower (BENCH/positions_codec_r5.json)
    — everything else stays snappy (zstd-all cost +26% decode on the
    cold-scan path, rejected). Returns None when the schema has no
    position column so plain writers keep their default single-codec
    footer. EVERY segment writer (build, checkpoint shards, append
    staging, compact, purge rewrite, empty tables) must route through
    this one function: bitwise file-identity tests (compact == rebuild,
    merge == rebuild) compare artifact bytes, so a writer with a
    different codec is a test failure, not a silent drift."""
    names = set(schema.names)
    poscols = names & {"positions", "pos"}
    if not poscols:
        return None
    return {n: ("zstd" if n in poscols else "snappy")
            for n in schema.names}


def segment_write_kwargs(schema: pa.Schema) -> dict:
    """The policy above as ready-to-splat writer kwargs:
    ``pq.write_table(t, path, **segment_write_kwargs(t.schema))`` /
    ``ds.write_parquet(dir, **segment_write_kwargs(seg_schema))``.
    One helper instead of six hand-copied ``if comp`` blocks, so a new
    segment writer cannot silently omit the codec policy."""
    comp = segment_compression(schema)
    kw = {"compression": comp} if comp is not None else {}
    if "doc_ids" in schema.names:
        # segment files: on the blob columns statistics were most of
        # the footer bytes
        kw["write_statistics"] = list(SEGMENT_STATS_COLUMNS)
    return kw


# Segment-file schema-metadata key holding the file's doc map: the
# sorted doc ids of the file as little-endian int64 bytes. A posting's
# local doc number n stands for doc id ``doc_map[n]``.
DOC_MAP_KEY = b"stacksearch.doc_map"


def with_doc_map(table: pa.Table, doc_map: np.ndarray) -> pa.Table:
    """``table`` carrying ``doc_map`` as its schema metadata."""
    meta = dict(table.schema.metadata or {})
    meta[DOC_MAP_KEY] = np.ascontiguousarray(doc_map, dtype="<i8").tobytes()
    return table.replace_schema_metadata(meta)


def read_doc_map(path: str) -> np.ndarray:
    """The doc map of the segment file at ``path`` (footer read only)."""
    meta = pq.read_schema(path).metadata or {}
    if DOC_MAP_KEY not in meta:
        raise ValueError("segment file has no doc map (index format "
                         f"v{INDEX_FORMAT_VERSION} stores one per file)")
    return np.frombuffer(meta[DOC_MAP_KEY], dtype="<i8").astype(np.int64)


def local_numbers(doc_map: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The local doc numbers, ascending, of the doc ids in the SORTED
    ``ids`` that ``doc_map`` lists. Tombstone and purge tests run in a
    file's local space: the id set is mapped in once, instead of every
    posting being mapped out."""
    if len(ids) == 0:
        return np.empty(0, np.int64)
    j = np.minimum(np.searchsorted(ids, doc_map), len(ids) - 1)
    return np.flatnonzero(ids[j] == doc_map)


# seg_bucket_map.json, the cold-query file-pruning sidecar: per segment
# file name, the sorted distinct map buckets (hash % SEG_MAP_BUCKETS) of
# the file's terms, keyed by the file's (size, mtime_ns). Buckets come
# from the file's ACTUAL terms, so an entry is right for any writer;
# any rewrite of a file invalidates exactly its entry.
SEG_MAP_NAME = "seg_bucket_map.json"
SEG_MAP_BUCKETS = 4096


def map_buckets_of(terms) -> np.ndarray:
    """The sidecar bucket of each term."""
    import pandas as pd

    return (pd.util.hash_array(np.asarray(terms, dtype=object))
            % np.uint64(SEG_MAP_BUCKETS)).astype(np.int64)


def seg_map_entry(st, terms: pa.Array | pa.ChunkedArray) -> dict:
    """The sidecar entry of a segment file with stat ``st`` whose term
    column is ``terms``. Writers call it with the column they just
    wrote; ``read_seg_map_entry`` with the column it read."""
    uniq = pc.unique(terms).to_numpy(zero_copy_only=False)
    bks = np.unique(map_buckets_of(uniq)).tolist() if len(uniq) else []
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "buckets": bks}


def read_seg_map_entry(path: str, st=None) -> dict:
    """The sidecar entry of the segment file at ``path``, from one scan
    of its term column (the reader's lazy refresh of a stale entry)."""
    if st is None:
        st = os.stat(path)
    # ParquetFile.read skips read_table's dataset machinery —
    # 0.3 ms vs 2.7 ms per small file (measured, 222-file index)
    return seg_map_entry(st, pq.ParquetFile(path).read(
        columns=["term"], use_threads=False)["term"])


def scan_seg_bucket_map(seg_dir: str) -> dict[str, dict]:
    """Sidecar entries for every segment file in ``seg_dir``, each from
    a scan of the file. Serial on purpose: the per-file cost is
    GIL-held footer parsing, so a thread pool only adds switching
    overhead (measured 67 ms serial vs 427 ms with 8 threads at 222
    files)."""
    return {n: read_seg_map_entry(os.path.join(seg_dir, n))
            for n in sorted(os.listdir(seg_dir))
            if n.endswith(".parquet")}


def write_seg_bucket_map(index_dir: str, entries: dict[str, dict]) -> str:
    """Write ``entries`` as the index's sidecar, temp-then-rename."""
    side = os.path.join(index_dir, SEG_MAP_NAME)
    tmp = side + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        # one dumps: json.dump runs the pure-Python encoder (17 ms
        # against 5 ms for 8 files of 2,731 buckets each)
        f.write(json.dumps(dict(sorted(entries.items()))))
    os.replace(tmp, side)
    return side
