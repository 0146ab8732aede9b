"""The index build pipeline: the one path every build and append runs.

  partition: ``stage_partition`` tokenizes a table ONCE and writes a docs
      part plus a (shard, term)-sorted staged-postings part whose row
      groups align to shard boundaries, temp-then-rename.
      ``build_index_resumable`` runs it once per input-file partition and
      records lineage (input files, rows, postings, sha256 rollup, wall
      seconds) in manifest.json; ``stage_dataset`` runs it once per batch
      of a ``ray.data.Dataset`` (``build.build_index`` on a Dataset, and
      ``append.append_to_index``).
  stats: streaming scan of the docs parts → n_docs, total_len, avgdl.
  shards: ``shard_phase`` batches index shards into Ray tasks; each task
      reads its shards' row groups of the staged postings in one scan
      (predicate pushdown on ``shard``) and encodes one segment file per
      shard (``_encode_shards``), temp-then-rename. With its lineage a
      task hands back each file's seg_bucket_map.json entry and one
      (term, Σdf, Σcf) partial over its files (``encode_shard_files``).
  term_dict: the partials summed per term, sorted by term, and the
      sidecar from the entries — no segment file is read. Only shards an
      interrupted run encoded are read, each from its own file; an index
      of ``_TERM_DICT_RAY_THRESHOLD`` or more segment rows scans its
      segments with a distributed groupby instead.
  commit: stats.json (the commit point), then the staged postings are
      deleted.

On restart every phase skips units the manifest marks done (and whose
outputs exist). Once every shard is encoded the partition phase is
skipped as well, so re-running a committed build does not re-tokenize to
rebuild the staged postings its commit deleted. ``stop_after_partitions``
injects a deterministic interrupt for the resume test (FIXTURES.md F6).

Scale notes: every writer fan-out (the partition and shard phases
here; append, purge and compaction in ``append.py``) runs through
``map_units``, one Ray Data ``from_items → map_batches → take_all`` pass
whose task count comes from one sizing rule (``task_plan``): units are
batched so the phase runs in one wave of at most ``task_slots`` tasks
while a task holds at most 4 units, and in at least four waves of
``n // (4·slots)`` units per task beyond that. A Ray Data execution costs
about 0.07 s plus about 18 ms of machine CPU per task, so one task per
file or shard spent more CPU on fan-out than on tokenizing and encoding.
A shard task materializes its shards' postings at once — choose
num_shards so that a batch fits a worker (S grows with the corpus).
Staged postings are columnar parquet (term dictionary-encodes well) —
the explicit, restartable analog of a shuffle's in-flight state.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .build import (
    IndexBuildConfig,
    SegmentEncoder,
    _empty_segments_table,
    _resolve_doc_ids,
    _tf_with_positions,
    build_config,
    check_doc_id_collisions,
    doc_totals,
    index_stats,
    write_segment_file,
    write_stats,
)
from .schema import (
    TERM_DICT_SCHEMA,
    read_seg_map_entry,
    seg_map_entry,
    sha256_batch,
    shard_of,
    write_seg_bucket_map,
)
from .state.manifest import Manifest, atomic_write_parquet
from .text import term_frequencies


class BuildInterrupted(RuntimeError):
    """Raised by the deterministic failure-injection hook (resume test)."""


def _since(t0: float) -> float:
    """Wall seconds since ``t0``, as lineage records them."""
    return round(time.time() - t0, 3)


def _list_parquet_files(source: str | list[str]) -> list[str]:
    if isinstance(source, list):
        return sorted(source)
    if os.path.isfile(source):
        return [source]
    out = []
    for root, _, files in os.walk(source):
        out.extend(os.path.join(root, f) for f in files if f.endswith(".parquet"))
    return sorted(out)


def _source_columns(cfg: IndexBuildConfig, names: list[str]) -> list[str]:
    """The source columns a build reads, in source order."""
    need = {cfg.content_col} | set(cfg.meta_cols)
    need |= {cfg.id_col} if cfg.id_col else set(cfg.key_cols)
    return [c for c in names if c in need]


# the most writer tasks that run at once: the host thrashes past 16
# concurrent CPU-bound workers (BASELINE.md; runtime.py caps Ray Data's
# CPU budget at the same threshold)
MAX_TASK_SLOTS = 16


def task_slots(concurrency: int | None = None) -> int:
    """Writer tasks that may run at once: ``concurrency``, else the
    cluster's CPUs, under the Ray Data CPU limit and ``MAX_TASK_SLOTS``."""
    if concurrency is None:
        concurrency = (int(ray.cluster_resources().get("CPU", 1))
                       if ray.is_initialized() else os.cpu_count() or 1)
    limit = rd.DataContext.get_current().execution_options.resource_limits.cpu
    if limit is not None and limit != float("inf"):
        concurrency = min(concurrency, int(limit))
    return max(1, min(concurrency, MAX_TASK_SLOTS))


def task_plan(n_units: int, slots: int) -> tuple[int, int]:
    """(tasks, units per task) for ``n_units`` over ``slots``. Up to 4
    units per slot run in one wave; past that a task takes at least the
    4 units a one-wave task may hold, and from 16 units per slot on, the
    share four waves per slot give it. Units per task never fall and
    the task count never jumps as ``n_units`` grows."""
    if n_units <= 4 * slots:
        per_task = -(-n_units // slots)
    else:
        per_task = max(4, n_units // (4 * slots))
    return -(-n_units // per_task), per_task


def map_units(fn: Callable[[list[dict]], list[dict]], units: list[dict],
              concurrency: int | None = None) -> list[dict]:
    """Run ``fn`` over ``units`` as Ray Data tasks sized by
    ``task_plan``; each task gets its batch of units as dicts and
    returns JSON-able records, which come back in no particular order.
    Tasks run with one Arrow CPU thread: Ray already runs a task per
    slot, so Arrow's pool would only oversubscribe (measured 2.8x
    CPU-time inflation at 32 workers before this cap)."""
    if not units:
        return []
    slots = task_slots(concurrency)
    n_tasks, _ = task_plan(len(units), slots)

    def run(batch: pa.Table) -> pa.Table:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        recs = fn(batch.to_pylist())
        return pa.table({"rec": pa.array([json.dumps(r) for r in recs],
                                         pa.string())})

    rows = (rd.from_items(units, override_num_blocks=n_tasks)
            .map_batches(run, batch_size=None, batch_format="pyarrow",
                         concurrency=min(n_tasks, slots))
            .take_all())
    return [json.loads(r["rec"]) for r in rows]


def stage_partition(batch: pa.Table, cfg: IndexBuildConfig, docs_path: str,
                    postings_path: str, doc_ids: np.ndarray | None = None
                    ) -> dict:
    """Tokenize ``batch`` once and write both of its parts: the docs
    part (doc_id, meta columns, content sha256, doc_len, shard; empty
    docs dropped, as the reference's empty-doc filter does) and the
    staged postings part
    (term, doc_id, tf, shard[, pos]) sorted by (shard, term)
    with one row group per shard. Returns the partition's counts and
    content-hash rollup."""
    if doc_ids is None:
        doc_ids = _resolve_doc_ids(batch, cfg)
    content = batch[cfg.content_col].combine_chunks()
    if cfg.store_positions:
        tf, pos_blobs = _tf_with_positions(content)
    else:
        tf = term_frequencies(content)

    shas = sha256_batch(content)
    docs_cols: dict[str, object] = {"doc_id": doc_ids}
    for m in cfg.meta_cols:
        if m in batch.column_names:
            docs_cols[m] = batch[m].combine_chunks()
    docs_cols["content_sha256"] = pa.array(shas, type=pa.string())
    docs_cols["doc_len"] = tf.doc_lens
    docs_cols["shard"] = shard_of(doc_ids, cfg.num_shards)
    docs = pa.table(docs_cols)
    docs = docs.filter(pc.greater(docs["doc_len"], 0))

    p_doc = doc_ids[tf.doc_idx]
    p_shard = shard_of(p_doc, cfg.num_shards)
    pcols = {
        "term": tf.terms,
        "doc_id": p_doc,
        "tf": tf.tf,
        "shard": p_shard,
    }
    if cfg.store_positions:
        pcols["pos"] = pos_blobs
    postings = pa.table(pcols)

    atomic_write_parquet(docs, docs_path)
    write_staged_postings(postings, postings_path)
    return {
        "rows": batch.num_rows,
        "docs": docs.num_rows,
        "postings": postings.num_rows,
        "content_sha256_rollup": hashlib.sha256(
            "".join(shas).encode()).hexdigest(),
    }


def write_staged_postings(postings: pa.Table, path: str) -> None:
    """Write postings sorted by (shard, term) with one row group per
    shard, so a shard task reads only its own row groups (predicate
    pushdown on ``shard``)."""
    postings = postings.sort_by(
        [("shard", "ascending"), ("term", "ascending")])
    shard_col = np.asarray(postings["shard"].combine_chunks())
    bounds = (np.flatnonzero(np.diff(shard_col)) + 1).tolist()
    atomic_write_parquet(postings, path, row_group_boundaries=bounds)


def _process_partition(unit: dict, cfg: IndexBuildConfig,
                       columns: list[str]) -> dict:
    t0 = time.time()
    batch = pq.read_table(unit["files"], columns=columns, use_threads=False)
    rec = stage_partition(batch, cfg, unit["docs_path"],
                          unit["postings_path"])
    return {"pid": unit["pid"], "input_files": unit["files"], **rec,
            "wall_s": _since(t0)}


def stage_dataset(ds: rd.Dataset, cfg: IndexBuildConfig, docs_dir: str,
                  postings_dir: str) -> list[dict]:
    """``stage_partition`` once per ``cfg.batch_size``-row batch of
    ``ds``, task-side; returns one lineage record per written
    partition. A part is named after its batch's smallest doc id, so
    the staged file order — and with it the row order inside each
    segment file — does not depend on which task finishes first."""
    columns = _source_columns(cfg, ds.schema().names)

    def stage(batch: pa.Table) -> pa.Table:
        t0 = time.time()
        pa.set_cpu_count(1)
        doc_ids = _resolve_doc_ids(batch, cfg)
        if len(doc_ids) == 0:
            return pa.table({"lineage": pa.array([], pa.string())})
        pid = (f"part-{int(doc_ids.min()) & 0xFFFFFFFFFFFFFFFF:016x}"
               f"-{uuid.uuid4().hex[:8]}")
        rec = stage_partition(batch, cfg,
                              os.path.join(docs_dir, f"{pid}.parquet"),
                              os.path.join(postings_dir, f"{pid}.parquet"),
                              doc_ids)
        rec = {"pid": pid, **rec, "wall_s": _since(t0)}
        return pa.table({"lineage": [json.dumps(rec)]})

    rows = (ds.select_columns(columns)
            .map_batches(stage, batch_format="pyarrow",
                         batch_size=cfg.batch_size)
            .take_all())
    return [json.loads(r["lineage"]) for r in rows]


def encode_shard_files(shards: list[int], seg_paths: list[str],
                       rows_of: Callable[[int], pa.Table],
                       encoder: SegmentEncoder, store_positions: bool,
                       shared_s: float = 0.0) -> dict:
    """One writer task's encode: shard ``k``'s postings ``rows_of(k)``
    → one segment file, per shard. Returns the task's result for
    ``collect_shards``: a lineage record per shard, with the file's
    sidecar entry taken from the term column just written, and one
    (term, df, cf) partial over the task's files, so no writer re-reads
    what it wrote. ``shared_s``, seconds spent for all the task's
    shards at once, is charged to each shard's wall time in equal
    shares."""
    recs, stats = [], []
    for shard, seg_path in zip(shards, seg_paths):
        t1 = time.time()
        sub = rows_of(shard)
        seg_table = (encoder(sub) if sub.num_rows
                     else _empty_segments_table(store_positions))
        # rows keep the staged order: term-sorted within each staged
        # part, a later part's new terms after an earlier part's
        write_segment_file(seg_table, seg_path)
        stats.append(seg_table.select(["term", "df", "cf"]))
        recs.append({
            "shard": shard, "postings": sub.num_rows,
            "terms": seg_table.num_rows, "file": os.path.basename(seg_path),
            "seg_map": seg_map_entry(os.stat(seg_path), seg_table["term"]),
            "wall_s": round(time.time() - t1 + shared_s / len(shards), 3)})
    # one vocab-bounded partial per task; through numpy, as Arrow's
    # to_pylist builds a scalar per value (30-50x slower)
    ts = sum_term_stats(stats)
    return {"shards": recs,
            "term_stats": {c: ts[c].to_numpy().tolist()
                           for c in ts.column_names}}


def _encode_shards(shards: list[int], stage_postings_dir: str,
                   seg_paths: list[str], encoder: SegmentEncoder,
                   store_positions: bool = False) -> dict:
    """Encode a BATCH of shards from ONE staged-postings scan. With one
    scan per shard, a high shard count pays S × n_partition_files
    parquet opens (measured: 41 s → 106 s shard phase going 256 → 1024
    shards on the 2M-doc corpus, ~65k extra footer reads) — batching
    divides the fixed open cost by the batch size. Row groups are
    shard-aligned spans in shard order within each file, so the
    combined scan filtered per shard yields rows in exactly the order
    the per-shard scan did — segment output is bitwise unchanged. The
    scan serves every shard of the task, so each shard is charged an
    equal share of it (``encode_shard_files``)."""
    t0 = time.time()
    dset = pads.dataset(stage_postings_dir, format="parquet")
    if "shard" in dset.schema.names:
        table = dset.scanner(filter=pads.field("shard").isin(shards),
                             use_threads=False).to_table()
    else:  # nothing staged (empty source): every shard file is empty
        table = pa.table({"shard": pa.array([], pa.int32())})
    shard_col = table["shard"].to_numpy() if table.num_rows else None

    def rows_of(shard: int) -> pa.Table:
        return (table.take(np.flatnonzero(shard_col == shard))
                if table.num_rows else table)

    return encode_shard_files(shards, seg_paths, rows_of, encoder,
                              store_positions, time.time() - t0)


class ShardOutput(NamedTuple):
    """What a shard fan-out hands the driver, so that it writes the
    term_dict and the sidecar without reading a segment file."""
    lineage: list[dict]        # one record per shard
    term_stats: list[pa.Table]  # one (term, df, cf) partial per task
    seg_map: dict[str, dict]   # file name → sidecar entry


def collect_shards(results: list[dict]) -> ShardOutput:
    """``encode_shard_files`` task results as one ShardOutput."""
    out = ShardOutput([], [], {})
    for r in results:
        out.term_stats.append(pa.table(r["term_stats"],
                                       schema=TERM_DICT_SCHEMA))
        for rec in r["shards"]:
            out.seg_map[rec.pop("file")] = rec.pop("seg_map")
            out.lineage.append(rec)
    return out


def _manifest_config(cfg: IndexBuildConfig, source: str) -> dict:
    return {
        "source": source,
        "num_shards": cfg.num_shards, "block_size": cfg.block_size,
        "k1": cfg.k1, "b": cfg.b, "content_col": cfg.content_col,
        "id_col": cfg.id_col,
        # staged-postings schema changes with the positions sidecar, so
        # flipping this between an interrupted run and its resume must
        # fail loudly (prev_cmp filtering keeps old manifests resumable)
        "store_positions": cfg.store_positions,
    }


def _shard_path(segments_dir: str, shard: int) -> str:
    return os.path.join(segments_dir, f"shard-{shard:05d}.parquet")


def _pending_shards(manifest: Manifest, segments_dir: str,
                    num_shards: int) -> list[int]:
    return [k for k in range(num_shards)
            if not manifest.shard_done(k, [_shard_path(segments_dir, k)])]


def shard_phase(shards: list[int], stage_postings: str, seg_paths: list[str],
                encoder: SegmentEncoder, store_positions: bool,
                concurrency: int | None = None) -> ShardOutput:
    """Encode ``shards`` from the staged postings into ``seg_paths``
    through ``map_units``. Shards are batched per task because a task's
    scan opens every staged file once, whatever its shard count (see
    _encode_shards)."""
    def run(us: list[dict]) -> list[dict]:
        return [_encode_shards([u["shard"] for u in us], stage_postings,
                               [u["seg_path"] for u in us],
                               encoder, store_positions)]

    return collect_shards(map_units(
        run, [{"shard": k, "seg_path": p} for k, p in zip(shards, seg_paths)],
        concurrency))


def _finish_build(index_dir: str, cfg: IndexBuildConfig, manifest: Manifest,
                  concurrency: int | None) -> dict:
    """The phases after partitioning, shared by every build: stats →
    shards → term_dict → commit. Each skips what the manifest marks
    done, so a resumed build picks up where it stopped."""
    docs_dir = os.path.join(index_dir, "docs")
    segments_dir = os.path.join(index_dir, "segments")
    term_dict_dir = os.path.join(index_dir, "term_dict")

    # ---- phase: stats ----
    t0 = time.time()
    n_docs, total_len = doc_totals(docs_dir)
    check_doc_id_collisions(docs_dir, n_docs)
    stats = index_stats(cfg, n_docs, total_len)
    # resume record only — stats.json itself is written LAST (the
    # commit point readers and _ensure_built key on; a mid-build
    # stats.json let concurrent openers see a partial index). The
    # recompute above is deterministic, so a resumed build writes the
    # identical stats at the end.
    manifest.mark_phase("stats", n_docs=n_docs, avgdl=stats["avgdl"],
                        wall_s=_since(t0))
    manifest.save()

    # ---- phase: shards ----
    t0 = time.time()
    encoder = SegmentEncoder(block_size=cfg.block_size)
    pending = _pending_shards(manifest, segments_dir, cfg.num_shards)
    stage_postings = os.path.join(index_dir, "stage", "postings")
    out = shard_phase(pending, stage_postings,
                      [_shard_path(segments_dir, k) for k in pending],
                      encoder, cfg.store_positions, concurrency)
    for rec in out.lineage:
        manifest.mark_shard(rec.pop("shard"), **rec)
    manifest.mark_phase("shards", wall_s=_since(t0))
    manifest.save()

    # ---- phase: term_dict, and the sidecar the first reader prunes by
    if not manifest.phase_done("term_dict"):
        t0 = time.time()
        # shards an interrupted run encoded: read only their files
        for k in sorted(set(range(cfg.num_shards)) - set(pending)):
            path = _shard_path(segments_dir, k)
            out.term_stats.append(pq.read_table(
                path, columns=["term", "df", "cf"], use_threads=False))
            out.seg_map[os.path.basename(path)] = read_seg_map_entry(path)
        n_rows = sum(int(r["terms"]) for r in manifest.data["shards"].values())
        write_term_dict(term_dict_dir, out.term_stats, n_rows, segments_dir)
        write_seg_bucket_map(index_dir, out.seg_map)
        manifest.mark_phase("term_dict", wall_s=_since(t0))
        manifest.save()

    write_stats(index_dir, stats)    # COMMIT POINT: the index now opens
    # every shard is encoded: the staged postings are spent
    shutil.rmtree(os.path.join(index_dir, "stage"), ignore_errors=True)
    return stats


def build_index_dataset(ds: rd.Dataset, index_dir: str,
                        cfg: IndexBuildConfig) -> dict:
    """The build over a ``ray.data.Dataset``: ``stage_partition`` once
    per batch, then the same phases as the resumable build. Not
    resumable — a Dataset has no stable partition identity — so
    ``build.build_index`` clears ``index_dir`` before calling this."""
    os.makedirs(os.path.join(index_dir, "docs"), exist_ok=True)
    stage_postings = os.path.join(index_dir, "stage", "postings")
    os.makedirs(stage_postings, exist_ok=True)
    manifest = Manifest.load_or_create(index_dir)
    manifest.data["config"] = _manifest_config(cfg, "dataset")
    t0 = time.time()
    for rec in stage_dataset(ds, cfg, os.path.join(index_dir, "docs"),
                             stage_postings):
        manifest.mark_partition(rec.pop("pid"), **rec)
    manifest.mark_phase("partitions", wall_s=_since(t0))
    manifest.save()
    return _finish_build(index_dir, cfg, manifest, None)


def build_index_resumable(source: str | list[str], index_dir: str,
                          cfg: IndexBuildConfig | None = None,
                          files_per_partition: int = 1,
                          stop_after_partitions: int | None = None,
                          concurrency: int | None = None,
                          **cfg_overrides) -> dict:
    """Checkpointed build over parquet files, one partition per
    ``files_per_partition`` input files; safe to re-run after any
    interruption, and a no-op re-run once committed."""
    cfg = build_config(cfg, **cfg_overrides)
    os.makedirs(index_dir, exist_ok=True)
    docs_dir = os.path.join(index_dir, "docs")
    segments_dir = os.path.join(index_dir, "segments")
    stage_postings = os.path.join(index_dir, "stage", "postings")

    files = _list_parquet_files(source)
    if not files:
        raise FileNotFoundError(f"no parquet files found under {source!r}")

    manifest = Manifest.load_or_create(index_dir)
    new_config = {
        **_manifest_config(cfg, "files"),
        "files_per_partition": files_per_partition,
        # pid → files is positional over this sorted list: record its
        # identity so a file added/removed/renamed between an interrupted
        # run and the resume fails loudly instead of silently remapping a
        # done pid to a different file group (omission isn't caught by
        # the doc-id collision check, only double-processing is)
        "n_input_files": len(files),
        "input_files_sha256": hashlib.sha256(
            "\n".join(files).encode()).hexdigest(),
    }
    prev_config = manifest.data.get("config") or {}
    # compare only keys the stored manifest actually has: older manifests
    # predate some keys (n_input_files/input_files_sha256 were added
    # later) and must stay resumable — missing keys are backfilled below
    prev_cmp = {k: v for k, v in prev_config.items() if k in new_config}
    new_cmp = {k: new_config[k] for k in prev_cmp}
    if manifest.data.get("partitions") and prev_cmp and prev_cmp != new_cmp:
        # resuming with different knobs would mix shard layouts: finished
        # partitions staged postings under the old config get skipped
        # while new ones use the new config → silently corrupt index
        raise ValueError(
            f"resume config mismatch: manifest has {prev_config}, "
            f"requested {new_config}; delete {index_dir} to rebuild "
            "or rerun with the original configuration/inputs")
    manifest.data["config"] = new_config
    parts = [files[i:i + files_per_partition]
             for i in range(0, len(files), files_per_partition)]
    columns = _source_columns(
        cfg, pads.dataset(files[0], format="parquet").schema.names)

    # ---- phase: partitions ---- skipped once every shard is encoded:
    # nothing reads the staged postings after that, and the commit
    # deleted them
    t0 = time.time()
    units = []
    if _pending_shards(manifest, segments_dir, cfg.num_shards):
        for i, pfiles in enumerate(parts):
            pid = f"part-{i:05d}"
            docs_path = os.path.join(docs_dir, f"{pid}.parquet")
            postings_path = os.path.join(stage_postings, f"{pid}.parquet")
            if manifest.partition_done(pid, [docs_path, postings_path]):
                continue
            units.append({"pid": pid, "files": pfiles, "docs_path": docs_path,
                          "postings_path": postings_path})
    allowed = (len(units) if stop_after_partitions is None
               else stop_after_partitions)
    todo, deferred = units[:allowed], units[allowed:]
    for rec in map_units(
            lambda us: [_process_partition(u, cfg, columns) for u in us],
            todo, concurrency):
        manifest.mark_partition(rec.pop("pid"), **rec)
    if deferred:
        manifest.save()
        raise BuildInterrupted(
            f"stopped after {allowed} partitions ({len(deferred)} remaining)")
    manifest.mark_phase("partitions", wall_s=_since(t0))
    manifest.save()
    return _finish_build(index_dir, cfg, manifest, concurrency)


# below this row count the Ray groupby's fixed shuffle cost dominates and a
# driver-side Arrow hash aggregate wins; above it, shuffle distributed
_TERM_DICT_RAY_THRESHOLD = 20_000_000


def sum_term_stats(parts: list[pa.Table]) -> pa.Table:
    """term_dict rows from (term, df, cf) partials: Σdf and Σcf per
    term, sorted by term (a prefix filter then prunes row groups). A
    term whose Σdf is not positive — a purge subtracted its last
    posting — has no row."""
    t = pa.concat_tables([p.cast(TERM_DICT_SCHEMA) for p in parts])
    t = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
    t = t.rename_columns(["term", "df", "cf"]).sort_by("term")
    return t.filter(pc.greater(t["df"], 0))


def write_term_dict(term_dict_dir: str, parts: list[pa.Table],
                    n_rows: int = 0, segments_dir: str | None = None) -> None:
    """The term_dict from (term, df, cf) partials (``sum_term_stats``):
    what a writer's tasks handed back, or the term_dicts it merges. An
    index of ``_TERM_DICT_RAY_THRESHOLD`` or more segment rows
    (``n_rows``) scans ``segments_dir`` instead, whose groupby runs
    distributed."""
    if n_rows >= _TERM_DICT_RAY_THRESHOLD:
        _write_term_dict(segments_dir, term_dict_dir)
        return
    os.makedirs(term_dict_dir, exist_ok=True)
    pq.write_table(sum_term_stats(parts),
                   os.path.join(term_dict_dir, "term_dict.parquet"))


def _write_term_dict(segments_dir: str, term_dict_dir: str) -> None:
    """The term_dict from a scan of every segment file: append recovery
    and indexes past ``_TERM_DICT_RAY_THRESHOLD`` segment rows."""
    dset = pads.dataset(segments_dir, format="parquet")
    if dset.count_rows() < _TERM_DICT_RAY_THRESHOLD:
        write_term_dict(term_dict_dir,
                        [dset.to_table(columns=["term", "df", "cf"])])
    else:
        from ray.data.aggregate import Sum

        (
            rd.read_parquet(segments_dir, columns=["term", "df", "cf"])
            .groupby("term")
            .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
            .sort("term")
            .write_parquet(term_dict_dir)
        )
