"""Distributed index build — the Ray-Data rewrite of the reference's
insert → index() → save() lifecycle (/root/reference/index/index.py:55-76,
/root/reference/index/hash_index.py:112-195).

Pipeline (streamed mode, SURVEY.md §3 E1):

    read_parquet(corpus, pruned columns)
      → map_batches(docs_meta)        # sha256 invariant, doc_len, shard
      → write docs/                   # doc-store (replaces titlesCache)
    stats: N, total_len, avgdl        # from docs/, light aggregate
    read_parquet(corpus)
      → map_batches(tokenize→postings)   # vectorized Arrow tokenizer
      → groupby(gkey).map_groups(encode) # THE wide shuffle
      → write segments/
    term_dict: groupby(term).aggregate(Sum(df), Sum(cf)) over segments

Skew / salting: every posting carries ``shard = spread(doc_id) % S``; a hot
term ("def", "import") is therefore split into S independent doc-ranges —
sharding by doc id IS the salt (SURVEY.md §4 "Partitioning"), and because
shards are first-class at query time (per-shard WAND, global top-k merge)
no second per-term combine shuffle is needed. ``gkey = shard * B +
hash(term) % B`` additionally packs ~1/B of a shard's terms per group so
group count (task granularity) and group size are both bounded:
max group size ≈ n_postings / (S·B), regardless of term skew.

Checkpointed mode (``checkpoint=True``) stages per-input-partition outputs
with a manifest (state/manifest.py) so a failed build resumes without
recomputing finished partitions — the distributed analog of the reference's
block spill + external merge (hash_index.py:112-139).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from .codec import (
    BLOCK_SIZE,
    BM25_B,
    BM25_K1,
    encode_position_lists_arrow,
    encode_segments,
)
from .schema import doc_ids_batch, sha256_batch, shard_of
from .text import BatchTermFreqs, term_frequencies, tokenize_array


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
    """Knobs sized for scale (SURVEY.md §4): at 100 TB raise num_shards so
    one shard's postings fit a worker (S scales with corpus), keep
    term_buckets ~32-64 for task granularity."""

    num_shards: int = 8
    term_buckets: int = 32
    block_size: int = BLOCK_SIZE
    k1: float = BM25_K1
    b: float = BM25_B
    content_col: str = "content"
    id_col: str | None = None  # existing int64 id column; None → derive from key_cols
    key_cols: tuple[str, ...] = ("repo", "path", "commit")
    meta_cols: tuple[str, ...] = ("repo", "path", "commit", "lang")
    batch_size: int = 2048
    concurrency: int | None = None  # actor-pool size for encode; None → tasks
    # opt-in positional sidecar: per-(term, shard) segment rows gain a
    # ``positions`` blob (gap+varint per doc, split by tf at decode) so
    # phrase/NEAR queries run from the index alone. Costs ~token-count
    # bytes of extra storage and shuffle payload — the classic
    # positional-index trade. Supported across the whole lifecycle:
    # streamed + checkpointed builds, append, compact.
    store_positions: bool = False


def _resolve_doc_ids(batch: pa.Table, cfg: IndexBuildConfig) -> np.ndarray:
    if cfg.id_col is not None:
        return np.asarray(batch[cfg.id_col].combine_chunks()).astype(np.int64)
    return doc_ids_batch(
        batch[cfg.key_cols[0]].combine_chunks(),
        batch[cfg.key_cols[1]].combine_chunks(),
        batch[cfg.key_cols[2]].combine_chunks(),
    )


def make_docs_meta_fn(cfg: IndexBuildConfig):
    """docs-pass map_batches fn: doc_id, meta, sha256 invariant, doc_len, shard.

    Drops empty docs (0 surviving tokens) — the reference's empty-doc filter
    (/root/reference/main.py:32-33)."""

    def docs_meta(batch: pa.Table) -> pa.Table:
        doc_ids = _resolve_doc_ids(batch, cfg)
        content = batch[cfg.content_col].combine_chunks()
        # doc_len only needs tokenize, not the full tf aggregation
        _, _, doc_lens = tokenize_array(content)
        cols: dict[str, pa.Array | np.ndarray] = {"doc_id": doc_ids}
        for m in cfg.meta_cols:
            if m in batch.column_names:
                cols[m] = batch[m].combine_chunks()
        cols["content_sha256"] = pa.array(sha256_batch(content), type=pa.string())
        cols["doc_len"] = doc_lens
        cols["shard"] = shard_of(doc_ids, cfg.num_shards)
        t = pa.table(cols)
        return t.filter(pc.greater(t["doc_len"], 0))

    return docs_meta


def make_postings_fn(cfg: IndexBuildConfig):
    """postings-pass map_batches fn: explode to (term, doc_id, tf, doc_len,
    shard, gkey). Fully vectorized (text.term_frequencies). With
    ``cfg.store_positions`` each pair also carries its per-doc position
    blob (``pos``), so appends into a positional index stay positional."""

    def postings(batch: pa.Table) -> pa.Table:
        doc_ids = _resolve_doc_ids(batch, cfg)
        content = batch[cfg.content_col].combine_chunks()
        if cfg.store_positions:
            tf, pos_blobs = _tf_with_positions(content)
        else:
            tf = term_frequencies(content)
        p_doc = doc_ids[tf.doc_idx]
        p_len = tf.doc_lens[tf.doc_idx]
        shard = shard_of(p_doc, cfg.num_shards)
        # hash the (small) per-batch vocab, not every (doc, term) pair
        vocab_bucket = (
            pd.util.hash_array(np.asarray(tf.vocab.to_pylist(), dtype=object))
            % np.uint64(cfg.term_buckets)
        ).astype(np.int64)
        bucket = vocab_bucket[tf.codes]
        gkey = shard.astype(np.int64) * cfg.term_buckets + bucket
        cols = {
            "term": tf.terms,
            "doc_id": p_doc,
            "tf": tf.tf,
            "doc_len": p_len,
            "shard": shard,
            "gkey": gkey,
        }
        if cfg.store_positions:
            cols["pos"] = pos_blobs
        return pa.table(cols)

    return postings


def make_fused_build_fn(cfg: IndexBuildConfig, docs_dir: str,
                        stage_dir: str):
    """Single-scan build stage: tokenize each batch ONCE, derive both
    the docs-meta table and the postings explode from the same
    term_frequencies result, and write each as a part-file task-side
    (UUID names, tmp+rename). Returns per-batch counts only — the
    heavy tables never travel through the object store twice."""

    def fused(batch: pa.Table) -> pa.Table:
        import uuid

        doc_ids = _resolve_doc_ids(batch, cfg)
        content = batch[cfg.content_col].combine_chunks()
        if cfg.store_positions:
            tf, pos_blobs = _tf_with_positions(content)
        else:
            tf = term_frequencies(content)

        cols: dict[str, pa.Array | np.ndarray] = {"doc_id": doc_ids}
        for m in cfg.meta_cols:
            if m in batch.column_names:
                cols[m] = batch[m].combine_chunks()
        cols["content_sha256"] = pa.array(sha256_batch(content),
                                          type=pa.string())
        cols["doc_len"] = tf.doc_lens
        cols["shard"] = shard_of(doc_ids, cfg.num_shards)
        docs = pa.table(cols)
        docs = docs.filter(pc.greater(docs["doc_len"], 0))

        p_doc = doc_ids[tf.doc_idx]
        p_len = tf.doc_lens[tf.doc_idx]
        shard = shard_of(p_doc, cfg.num_shards)
        vocab_bucket = (
            pd.util.hash_array(np.asarray(tf.vocab.to_pylist(), dtype=object))
            % np.uint64(cfg.term_buckets)
        ).astype(np.int64)
        gkey = shard.astype(np.int64) * cfg.term_buckets + vocab_bucket[tf.codes]
        pcols = {
            "term": tf.terms,
            "doc_id": p_doc,
            "tf": tf.tf,
            "doc_len": p_len,
            "shard": shard,
            "gkey": gkey,
        }
        if cfg.store_positions:
            pcols["pos"] = pos_blobs
        postings = pa.table(pcols)

        tag = uuid.uuid4().hex

        def atomic(t: pa.Table, path: str) -> None:
            from .schema import segment_write_kwargs

            tmp = path + ".tmp"  # v4 codec policy: staged pos → zstd
            pq.write_table(t, tmp, **segment_write_kwargs(t.schema))
            os.replace(tmp, path)

        if docs.num_rows:
            atomic(docs, os.path.join(docs_dir, f"docs-{tag}.parquet"))
        if postings.num_rows:
            atomic(postings, os.path.join(stage_dir, f"post-{tag}.parquet"))
        return pa.table({"docs": pa.array([docs.num_rows], pa.int64()),
                         "postings": pa.array([postings.num_rows],
                                              pa.int64())})

    return fused


@dataclass
class SegmentEncoder:
    """map_groups fn: one (shard, term-bucket) group of postings → one
    segments row per term. Needs global avgdl (block-max metadata), so the
    stats aggregate runs first. Vectorized sort, then one batched encode
    of every row (``codec.encode_segments``)."""

    avgdl: float
    k1: float = BM25_K1
    b: float = BM25_B
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
        tfs = np.asarray(group["tf"].combine_chunks()).astype(np.int64)
        doc_lens = np.asarray(group["doc_len"].combine_chunks()).astype(np.int64)
        shards = np.asarray(group["shard"].combine_chunks()).astype(np.int32)
        order = np.lexsort((doc_ids, codes, shards))
        codes, doc_ids, tfs, doc_lens, shards = (
            codes[order], doc_ids[order], tfs[order], doc_lens[order], shards[order])
        # boundaries where (shard, code) changes
        change = np.flatnonzero((np.diff(codes) != 0) | (np.diff(shards) != 0)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(codes)]))
        segs = encode_segments(doc_ids, tfs, doc_lens, starts, ends,
                               avgdl=self.avgdl, k1=self.k1, b=self.b,
                               block_size=self.block_size)
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
        return pa.table(cols)


def _empty_segments_table(positions: bool = False) -> pa.Table:
    from .schema import SEGMENTS_SCHEMA

    schema = SEGMENTS_SCHEMA
    if positions:
        schema = schema.append(pa.field("positions", pa.binary()))
    return schema.empty_table()


def build_index(source, index_dir: str,
                cfg: IndexBuildConfig | None = None,
                content_col: str | None = None, id_col: str | None = None,
                **cfg_overrides) -> dict:
    """Build the full index under ``index_dir``. Returns the stats dict.

    ``source`` is a parquet path / dir / list of paths — column pruning is
    pushed into the read — or an existing ``ray.data.Dataset`` (e.g. the
    output of upstream cleaning/dedup stages).

    SINGLE source scan: one fused map_batches tokenizes each batch once
    and writes BOTH the docs part-file and a staged postings part-file
    (the same one-read-per-partition shape the checkpointed build uses,
    checkpoint._process_partition); the segment shuffle then reads the
    staged postings, never the source. The stats barrier between the
    two phases is inherent — avgdl must be global before block-max
    encode — but it costs a staged-postings round-trip, not a second
    corpus scan.
    """
    cfg = cfg or IndexBuildConfig()
    if content_col is not None:
        cfg.content_col = content_col
    if id_col is not None:
        cfg.id_col = id_col
    for k, v in cfg_overrides.items():
        setattr(cfg, k, v)

    os.makedirs(index_dir, exist_ok=True)
    docs_dir = os.path.join(index_dir, "docs")
    segments_dir = os.path.join(index_dir, "segments")
    term_dict_dir = os.path.join(index_dir, "term_dict")

    need_cols = {cfg.content_col} | set(cfg.meta_cols)
    if cfg.id_col:
        need_cols.add(cfg.id_col)
    else:
        need_cols |= set(cfg.key_cols)
    import pyarrow.dataset as pads

    if isinstance(source, rd.Dataset):
        cols_avail = source.schema().names

        def read_source():
            return source.select_columns(
                [c for c in cols_avail if c in need_cols])
    else:
        src_schema = pads.dataset(source, format="parquet").schema
        columns = [c for c in src_schema.names if c in need_cols]

        def read_source():
            return rd.read_parquet(source, columns=columns)

    # ---- fused pass: ONE tokenize per batch → docs part-file +
    # staged postings part-file, both written task-side ----
    stage_dir = os.path.join(index_dir, "stage_build")
    import shutil

    # from-scratch build: clear any previous layout so a rebuild into
    # the same dir can't mix old part-files with new ones
    for d in (docs_dir, segments_dir, term_dict_dir, stage_dir):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(docs_dir, exist_ok=True)
    os.makedirs(stage_dir, exist_ok=True)
    fused = make_fused_build_fn(cfg, docs_dir, stage_dir)
    (read_source()
     .map_batches(fused, batch_format="pyarrow", batch_size=cfg.batch_size)
     .sum("docs"))  # drives execution; per-batch counts only

    # ---- stats: streaming single-column scan of the docs table. The
    # docs table is ~1e-4 the corpus size (one short row per doc); a
    # driver-side Arrow scanner streams it without materializing. At
    # extreme doc counts swap for a Ray Sum/Count aggregate. ----
    n_docs, total_len = 0, 0
    if os.listdir(docs_dir):
        for rb in pads.dataset(docs_dir).to_batches(columns=["doc_len"]):
            n_docs += rb.num_rows
            total_len += int(pc.sum(rb.column(0)).as_py() or 0)
        check_doc_id_collisions(docs_dir, n_docs)
    avgdl = (total_len / n_docs) if n_docs else 0.0
    stats = {
        "n_docs": n_docs,
        "total_len": total_len,
        "avgdl": avgdl,
        "k1": cfg.k1,
        "b": cfg.b,
        "num_shards": cfg.num_shards,
        "block_size": cfg.block_size,
        "content_col": cfg.content_col,
        "id_col": cfg.id_col,
        "store_positions": cfg.store_positions,
        # persisted so append/upsert keep writing the SAME docs-sidecar
        # columns (the stored-_source / reindexability contract); a
        # stats KEY addition, not a layout change — older readers
        # ignore it, newer ones .get() a default
        "meta_cols": list(cfg.meta_cols),
        # the derived-id recipe (used when id_col is None) — persisted
        # so query-driven mutation resolves source ids exactly as the
        # build did
        "key_cols": list(cfg.key_cols),
    }
    # stats.json is written LAST (end of this function): it is THE
    # commit point every reader and _ensure_built key on — writing it
    # before the segment shuffle let a concurrent process open a
    # partial index (observed: 4 cold parallel selfcheck shards, one
    # read ~73% of the postings). avgdl flows to the encoder in-memory.

    # ---- term-partitioned merge (THE shuffle) over STAGED postings ----
    encoder = SegmentEncoder(avgdl=avgdl, k1=cfg.k1, b=cfg.b, block_size=cfg.block_size)

    def encode_group(group: pa.Table) -> pa.Table:  # map_groups needs a named fn
        return encoder(group)

    if os.listdir(stage_dir):
        seg_ds = (
            rd.read_parquet(stage_dir)
            .groupby("gkey")
            .map_groups(encode_group, batch_format="pyarrow")
        )
        from .schema import segment_write_kwargs

        seg_ds.write_parquet(
            segments_dir,
            **segment_write_kwargs(
                _empty_segments_table(cfg.store_positions).schema))
    else:  # zero-batch source: empty segments table keeps readers happy
        os.makedirs(segments_dir, exist_ok=True)
        from .schema import segment_write_kwargs

        _et = _empty_segments_table(cfg.store_positions)
        pq.write_table(_et,
                       os.path.join(segments_dir, "segments-empty.parquet"),
                       **segment_write_kwargs(_et.schema))
    shutil.rmtree(stage_dir, ignore_errors=True)

    # ---- global term dictionary (df, cf summed over shards) ----
    from .checkpoint import _write_term_dict

    _write_term_dict(segments_dir, term_dict_dir)
    from .query import write_seg_bucket_map

    write_seg_bucket_map(index_dir)  # first reader prunes immediately
    write_stats(index_dir, stats)    # COMMIT POINT: the index now opens
    return stats


class DocIdCollisionError(ValueError):
    pass


# above this doc count the ids no longer fit driver memory comfortably:
# the uniqueness check switches from the driver-side np.unique to the
# distributed hash-bucket audit below
_COLLISION_CHECK_MAX_DOCS = 50_000_000


def _audit_doc_id_collisions_distributed(paths, num_buckets: int = 64
                                         ) -> None:
    """Doc-id uniqueness audit for corpora beyond the driver ceiling:
    one column-pruned read of doc_id, a hash-bucket shuffle of the ids
    only, and a vectorized per-bucket duplicate scan (the house
    hash-bucket pattern — a native groupby(doc_id).count() at 10⁸+
    distinct keys is the measured ~50× trap). Only duplicated ids reach
    the driver — normally zero rows."""
    if isinstance(paths, str):
        paths = [paths]
    files: list[str] = []  # read_parquet wants files, not a dir list
    for p in paths:
        if os.path.isdir(p):
            for root, _, fs in os.walk(p):
                files.extend(os.path.join(root, f) for f in fs
                             if f.endswith(".parquet"))
        else:
            files.append(p)

    def bucketize(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
        bk = (pd.util.hash_array(ids.astype(np.uint64))
              % np.uint64(num_buckets)).astype(np.int64)
        return pa.table({"doc_id": ids, "__b": bk})

    def dups(g: pa.Table) -> pa.Table:
        ids = np.sort(np.asarray(g["doc_id"].combine_chunks())
                      .astype(np.int64))
        d = ids[1:][ids[1:] == ids[:-1]]
        return pa.table({"doc_id": pa.array(np.unique(d), pa.int64())})

    dup_rows = (rd.read_parquet(files, columns=["doc_id"])
                .map_batches(bucketize, batch_format="pyarrow")
                .groupby("__b")
                .map_groups(dups, batch_format="pyarrow")
                .take_all())
    if dup_rows:
        sample = sorted(r["doc_id"] for r in dup_rows[:5])
        raise DocIdCollisionError(
            f"{len(dup_rows)} duplicate doc_id(s) in the docs table "
            f"(distributed audit; sample {sample}) — duplicate rows in "
            "the id column, or (astronomically unlikely) a derived-id "
            "hash collision; deduplicate the source first")


def check_doc_id_collisions(docs, n_docs: int) -> None:
    """Doc ids must be unique: duplicate ids (hash collision of the
    derived 63-bit id, or duplicate rows in an id_col source) would merge
    two documents' postings — the doc_id-sorted posting invariant
    (SURVEY.md §2.9) silently breaks. Fails loudly instead.
    ``docs`` is a docs dir path, a list of dirs, or an already-built
    pyarrow Dataset. Below _COLLISION_CHECK_MAX_DOCS the check is one
    driver-side np.unique; above it, the distributed hash-bucket audit
    (path inputs only — every build/append call site passes paths)."""
    import pyarrow.dataset as pads

    if n_docs == 0:
        return
    if n_docs > _COLLISION_CHECK_MAX_DOCS:
        if isinstance(docs, (str, list)):
            _audit_doc_id_collisions_distributed(docs)
        return
    if isinstance(docs, str):
        docs = pads.dataset(docs)
    elif isinstance(docs, list):
        docs = pads.dataset([pads.dataset(p) for p in docs])
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
    ``_disk_usage`` API analog): segments (postings + block-max
    metadata + positional sidecar when present), docs sidecar,
    term_dict, delete artifacts (tombstones/deleted-df parquets),
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
