"""Index build front end — the Ray-Data rewrite of the reference's
insert → index() → save() lifecycle (/root/reference/index/index.py:55-76,
/root/reference/index/hash_index.py:112-195).

``build_index`` clears the index layout and runs the one build pipeline
in checkpoint.py:

    partition: tokenize each partition ONCE → docs part + staged
               postings part, (shard, term)-sorted, shard-aligned
               row groups                  (one task per input file,
                                            or per Dataset batch)
    stats:     N, total_len, avgdl          from the docs parts
    shards:    per-shard encode tasks       read their own row groups;
               no global stats needed (rows store no score bounds)
    term_dict: Sum(df), Sum(cf) per term    from the tasks' partials

Skew / salting: every posting carries ``shard = spread(doc_id) % S``; a hot
term ("def", "import") is therefore split into S independent doc-ranges —
sharding by doc id IS the salt (SURVEY.md §4 "Partitioning"), and because
shards are first-class at query time (per-shard WAND, global top-k merge)
no second per-term combine shuffle is needed. A shard task's input is
bounded by n_postings / S regardless of term skew.

This module also holds what every writer shares: the config, doc-id
resolution, the segment encoder, the doc-id collision check and the
stats.json commit point.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from .codec import (
    BLOCK_SIZE,
    BM25_B,
    BM25_K1,
    encode_position_lists_arrow,
    encode_segments,
)
from .schema import (
    INDEX_FORMAT_VERSION,
    SEGMENT_ROW_GROUP_ROWS,
    doc_ids_batch,
    with_doc_map,
)
from .text import BatchTermFreqs, tokenize_array


def _tf_with_positions(content) -> tuple[BatchTermFreqs, "pa.Array"]:
    """term_frequencies PLUS per-(doc, term) position blobs (1-based
    token positions, gap+varint) as a zero-copy Arrow binary column.
    Pair ordering is IDENTICAL to term_frequencies (np.unique on the
    packed key), so the positions column aligns with the postings
    explode row-for-row."""
    flat, doc_idx, doc_lens = tokenize_array(content)
    if len(flat) == 0:
        return (BatchTermFreqs(
            doc_idx=np.empty(0, dtype=np.int64),
            terms=pa.array([], type=pa.string()),
            tf=np.empty(0, dtype=np.int64),
            doc_lens=doc_lens,
            codes=np.empty(0, dtype=np.int64),
            vocab=pa.array([], type=pa.string()),
        ), pa.array([], pa.binary()))
    doc_starts = np.concatenate(([0], np.cumsum(doc_lens)))[:-1]
    pos = (np.arange(len(doc_idx), dtype=np.int64)
           - np.repeat(doc_starts, doc_lens) + 1)
    dict_arr = flat.dictionary_encode()
    codes = np.asarray(dict_arr.indices).astype(np.int64)
    vocab = dict_arr.dictionary
    key = doc_idx * len(vocab) + codes
    order = np.argsort(key, kind="stable")  # positions ascend per group
    uniq, counts = np.unique(key, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    blobs = encode_position_lists_arrow(pos[order], starts, ends)
    pair_doc = uniq // len(vocab)
    pair_code = uniq % len(vocab)
    terms = vocab.take(pa.array(pair_code, type=pa.int64()))
    return (BatchTermFreqs(
        doc_idx=pair_doc,
        terms=terms,
        tf=counts.astype(np.int64),
        doc_lens=doc_lens,
        codes=pair_code,
        vocab=vocab,
    ), blobs)


@dataclass
class IndexBuildConfig:
    """Build knobs, sized for scale (SURVEY.md §4): at 100 TB raise
    num_shards so one shard's postings fit a shard task (S scales with
    the corpus). ``batch_size`` is the rows per partition when the
    source is a ``ray.data.Dataset``; a path source partitions by input
    file."""

    num_shards: int = 8
    block_size: int = BLOCK_SIZE
    k1: float = BM25_K1
    b: float = BM25_B
    content_col: str = "content"
    id_col: str | None = None  # existing int64 id column; None → derive from key_cols
    key_cols: tuple[str, ...] = ("repo", "path", "commit")
    meta_cols: tuple[str, ...] = ("repo", "path", "commit", "lang")
    batch_size: int = 2048
    # opt-in positional sidecar: per-(term, shard) segment rows gain a
    # ``positions`` blob (gap+varint per doc, split by tf at decode) so
    # phrase/NEAR queries run from the index alone. Costs ~token-count
    # bytes of extra storage and shuffle payload — the classic
    # positional-index trade. Supported across the whole lifecycle:
    # build, append, compact.
    store_positions: bool = False


def build_config(cfg: IndexBuildConfig | None = None,
                 content_col: str | None = None, id_col: str | None = None,
                 **overrides) -> IndexBuildConfig:
    """``cfg`` (or the defaults) with ``overrides`` set on it. An
    override that names no config field raises ``TypeError`` rather
    than being silently ignored (``num_shard=4`` would otherwise build
    the default 8 shards)."""
    known = {f.name for f in fields(IndexBuildConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise TypeError(f"unknown IndexBuildConfig field(s) {unknown}; "
                        f"valid fields: {sorted(known)}")
    cfg = cfg or IndexBuildConfig()
    if content_col is not None:
        cfg.content_col = content_col
    if id_col is not None:
        cfg.id_col = id_col
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def _resolve_doc_ids(batch: pa.Table, cfg: IndexBuildConfig) -> np.ndarray:
    if cfg.id_col is not None:
        return np.asarray(batch[cfg.id_col].combine_chunks()).astype(np.int64)
    return doc_ids_batch(
        batch[cfg.key_cols[0]].combine_chunks(),
        batch[cfg.key_cols[1]].combine_chunks(),
        batch[cfg.key_cols[2]].combine_chunks(),
    )


@dataclass
class SegmentEncoder:
    """Staged postings of one or more shards → one segments row per
    (term, shard). Needs no global statistics: rows store no score
    bounds, so a row's bytes depend on its postings alone. Vectorized
    sort, then one batched encode of every row
    (``codec.encode_segments``).

    Postings are numbered in a doc map: the sorted doc ids of the
    group. A posting stores its doc's rank in the map (its local doc
    number) and the output table carries the map as schema metadata
    (``schema.with_doc_map``), so the map is written with the file.
    Rank order is doc-id order: rows and blocks are the ones the ids
    themselves would give."""

    block_size: int = BLOCK_SIZE

    def __call__(self, group: pa.Table) -> pa.Table:
        has_pos = "pos" in group.column_names
        if group.num_rows == 0:
            return _empty_segments_table(has_pos)
        terms = group["term"].combine_chunks()
        dict_arr = terms.dictionary_encode()
        codes = np.asarray(dict_arr.indices).astype(np.int64)
        vocab = dict_arr.dictionary
        doc_ids = np.asarray(group["doc_id"].combine_chunks()).astype(np.int64)
        doc_map, local = np.unique(doc_ids, return_inverse=True)
        tfs = np.asarray(group["tf"].combine_chunks()).astype(np.int64)
        shards = np.asarray(group["shard"].combine_chunks()).astype(np.int32)
        order = np.lexsort((local, codes, shards))
        codes, local, tfs, shards = (
            codes[order], local[order], tfs[order], shards[order])
        # boundaries where (shard, code) changes
        change = np.flatnonzero((np.diff(codes) != 0) | (np.diff(shards) != 0)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(codes)]))
        segs = encode_segments(local, tfs, starts, ends, self.block_size)
        cols = {"term": vocab.take(pa.array(codes[starts])).cast(pa.string()),
                "shard": pa.array(shards[starts], type=pa.int32()),
                **segs.arrow_columns()}
        if has_pos:
            # reorder via take (compacts into fresh contiguous buffers);
            # per-doc blobs are independently decodable, so a segment
            # blob is plain concatenation in doc order and the whole
            # column is the data buffer under the rows' offsets
            parr = group["pos"].combine_chunks().take(pa.array(order))
            if parr.null_count:
                parr = parr.fill_null(b"")
            pos_offs = np.frombuffer(parr.buffers()[1], dtype=np.int32)[
                parr.offset:parr.offset + len(parr) + 1]
            cols["positions"] = pa.Array.from_buffers(
                pa.binary(), len(starts),
                [None, pa.py_buffer(pos_offs[np.append(starts, len(codes))]),
                 parr.buffers()[2] or pa.py_buffer(b"")])
        return with_doc_map(pa.table(cols), doc_map)


def _empty_segments_table(positions: bool = False) -> pa.Table:
    """A segments table with no rows. Like every segments table it
    carries a doc map (an empty one), so the file of a shard without
    postings reads like any other."""
    from .schema import segments_schema

    return with_doc_map(segments_schema(positions).empty_table(),
                        np.empty(0, np.int64))


def write_segment_file(seg_table: pa.Table, path: str) -> None:
    """THE segment-file writer (build, append, compaction and purge),
    temp-then-rename. Rows keep the encoder's order (terms by first
    appearance in its input), cut into row groups of
    ``SEGMENT_ROW_GROUP_ROWS`` rows.

    Why 128: Arrow pays a fixed price per row group on every write and
    every read, and no reader picks row groups yet (pyarrow 16.1's
    ``("term", "in", ...)`` read filter prunes no row group, so a term
    read decodes every group of the file). On one 4,874-row segment
    file, a write took 16.1 ms in 64-row groups, 10.4 ms in 128-row
    groups and 6.4 ms as one group, and a three-term
    ``("term", "in", ...)`` read 31.0, 18.5 and 4.8 ms. Going from 64
    to 128 rows cut ``serve_es`` CPU per request from 70 to 44 ms and
    index bytes by about 11% (BENCH/row_groups_r15.json); 256 and 512
    rows cut more, but make requests fast enough to run that
    benchmark's body pool dry. Readers do not depend on the size: files
    written at another size read the same, and compaction rewrites
    them at this one."""
    from .state.manifest import atomic_write_parquet

    n = SEGMENT_ROW_GROUP_ROWS
    atomic_write_parquet(seg_table, path,
                         row_group_boundaries=range(n, seg_table.num_rows, n))


def build_index(source, index_dir: str,
                cfg: IndexBuildConfig | None = None,
                content_col: str | None = None, id_col: str | None = None,
                **cfg_overrides) -> dict:
    """Build the full index under ``index_dir``. Returns the stats dict.

    ``source`` is a parquet path / dir / list of paths — one partition
    per input file, column pruning pushed into the read — or an existing
    ``ray.data.Dataset`` (e.g. the output of upstream cleaning/dedup
    stages), partitioned by ``cfg.batch_size`` rows. Either way the
    source is read and tokenized once (checkpoint.py's pipeline).

    A from-scratch build: any previous layout in ``index_dir``, its
    build manifest included, is cleared first, so a rebuild never mixes
    or resumes onto old part files.
    """
    import shutil

    from .checkpoint import build_index_dataset, build_index_resumable

    cfg = build_config(cfg, content_col, id_col, **cfg_overrides)
    for d in ("docs", "segments", "term_dict", "stage"):
        shutil.rmtree(os.path.join(index_dir, d), ignore_errors=True)
    manifest = os.path.join(index_dir, "manifest.json")
    if os.path.exists(manifest):
        os.remove(manifest)
    if isinstance(source, rd.Dataset):
        return build_index_dataset(source, index_dir, cfg)
    return build_index_resumable(source, index_dir, cfg)


def _docs_dataset(docs):
    """A pyarrow dataset over a docs dir or a list of them."""
    import pyarrow.dataset as pads

    if isinstance(docs, str):
        return pads.dataset(docs)
    return pads.dataset([pads.dataset(p) for p in docs])


def doc_totals(docs) -> tuple[int, int]:
    """(n_docs, total_len): one streaming scan of the ``doc_len``
    column of a docs dir (or a list of them). The docs table is ~1e-4
    the corpus size (one short row per doc), so the driver streams it
    without materializing; an empty dir counts zero."""
    dset = _docs_dataset(docs)
    if "doc_len" not in dset.schema.names:
        return 0, 0
    n_docs, total_len = 0, 0
    for rb in dset.to_batches(columns=["doc_len"]):
        n_docs += rb.num_rows
        total_len += int(pc.sum(rb.column(0)).as_py() or 0)
    return n_docs, total_len


def index_stats(cfg: IndexBuildConfig, n_docs: int, total_len: int) -> dict:
    """The stats.json of a fresh build of ``cfg`` over these totals."""
    return {
        # the segment layout this index was written in (check_format)
        "format_version": INDEX_FORMAT_VERSION,
        "n_docs": n_docs,
        "total_len": total_len,
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
        "k1": cfg.k1,
        "b": cfg.b,
        "num_shards": cfg.num_shards,
        "block_size": cfg.block_size,
        "content_col": cfg.content_col,
        "id_col": cfg.id_col,
        "store_positions": cfg.store_positions,
        # append/upsert write the SAME docs-sidecar columns (the
        # stored-_source / reindexability contract); readers .get() it
        "meta_cols": list(cfg.meta_cols),
        # the derived-id recipe (id_col None): query-driven mutation
        # resolves source ids exactly as the build did
        "key_cols": list(cfg.key_cols),
    }


class DocIdCollisionError(ValueError):
    pass


# above this doc count the ids no longer fit driver memory comfortably:
# the uniqueness check switches from the driver-side np.unique to the
# distributed hash-bucket audit (functions.dedup.duplicate_values)
_COLLISION_CHECK_MAX_DOCS = 50_000_000


def check_doc_id_collisions(docs, n_docs: int) -> None:
    """Doc ids must be unique: duplicate ids (hash collision of the
    derived 63-bit id, or duplicate rows in an id_col source) would merge
    two documents' postings — the doc_id-sorted posting invariant
    (SURVEY.md §2.9) silently breaks. Fails loudly instead.
    ``docs`` is a docs dir path, a list of dirs, or an already-built
    pyarrow Dataset. Below _COLLISION_CHECK_MAX_DOCS the check is one
    driver-side np.unique; above it, the distributed hash-bucket audit
    (path inputs only — every build/append call site passes paths)."""
    if n_docs == 0:
        return
    if n_docs > _COLLISION_CHECK_MAX_DOCS:
        if isinstance(docs, (str, list)):
            from .functions.dedup import duplicate_values

            dups = duplicate_values(docs, "doc_id")
            if len(dups):
                raise DocIdCollisionError(
                    f"{len(dups)} duplicate doc_id(s) in the docs table "
                    f"(distributed audit; sample {dups[:5].tolist()}) — "
                    "duplicate rows in the id column, or (astronomically "
                    "unlikely) a derived-id hash collision; deduplicate "
                    "the source first")
        return
    if isinstance(docs, (str, list)):
        docs = _docs_dataset(docs)
    ids = docs.to_table(columns=["doc_id"])["doc_id"]
    arr = np.asarray(ids.combine_chunks()).astype(np.int64)
    uniq = len(np.unique(arr))
    if uniq != len(arr):
        raise DocIdCollisionError(
            f"{len(arr) - uniq} duplicate doc_id(s) in the docs table — "
            "duplicate rows in the id column, or (astronomically unlikely) "
            "a derived-id hash collision; deduplicate the source first")


def load_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "stats.json")) as f:
        return json.load(f)


def check_format(stats: dict, index_dir: str) -> dict:
    """Raise unless ``stats`` (an index's stats.json) records this
    code's index format; returns ``stats``. An older index is refused
    by every reader and writer rather than misread: v4 postings hold
    global ids where later formats read local doc numbers, and v5
    files carry per-block list columns that v6 dropped, which a v6
    writer would mix with its own files."""
    got = stats.get("format_version")
    if got != INDEX_FORMAT_VERSION:
        raise ValueError(
            f"index {index_dir!r} has format version {got} (stats.json "
            f"format_version), this code reads version "
            f"{INDEX_FORMAT_VERSION}; rebuild the index")
    return stats


def write_stats(index_dir: str, stats: dict) -> None:
    """Atomic stats.json replace (tmp + rename). stats.json is the
    COMMIT POINT for append and delete, so a torn write must be
    impossible — every writer in the lifecycle goes through here."""
    path = os.path.join(index_dir, "stats.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(stats, f, indent=1)
    os.replace(tmp, path)


def idf(n_docs: int, df: int) -> float:
    """ln((N - df + 0.5)/(df + 0.5) + 1) — identical expression to the
    oracle (oracle.py) for bitwise score identity."""
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def index_disk_usage(index_dir: str) -> dict:
    """Per-component on-disk byte accounting for one index (the ES
    ``_disk_usage`` API analog): segments (postings + positional
    sidecar when present), docs sidecar, term_dict, delete artifacts (tombstones/deleted-df parquets),
    pruning sidecar, stats — plus totals and the n_docs denominator so
    bytes/doc is one division away. Pure directory walk; no index
    open."""
    comp = {"segments": 0, "docs": 0, "term_dict": 0,
            "delete_artifacts": 0, "sidecars": 0, "other": 0}
    for root, _dirs, files in os.walk(index_dir):
        rel = os.path.relpath(root, index_dir)
        top = rel.split(os.sep, 1)[0]
        for f in files:
            sz = os.path.getsize(os.path.join(root, f))
            if top == "segments":
                comp["segments"] += sz
            elif top == "docs":
                comp["docs"] += sz
            elif top == "term_dict":
                comp["term_dict"] += sz
            elif f.startswith(("tombstones-", "deleted-df-")):
                comp["delete_artifacts"] += sz
            elif f in ("seg_bucket_map.json", "alias.json"):
                comp["sidecars"] += sz
            else:
                comp["other"] += sz
    stats = load_stats(index_dir)
    comp["total"] = sum(v for k, v in comp.items())
    comp["n_docs"] = int(stats["n_docs"])
    return comp
