"""Resumable checkpointed index build (north_rule; SURVEY.md §4, §7 step 8).

Same result as ``build.build_index`` (verified in tests), different
execution strategy optimized for restartability at cluster scale:

  phase "partitions": one task per input-file partition, SINGLE tokenize
      pass emitting both the docs part and the (shard,term)-sorted
      postings part, written temp-then-rename; lineage (input files, rows,
      postings, sha256 rollup, wall seconds) recorded in manifest.json.
  phase "stats": streaming scan of staged docs → stats.json.
  phase "shards": one task per index shard k, reading staged postings
      with parquet predicate pushdown on ``shard`` (partition files are
      shard-sorted so row groups prune), encoding all of shard k's
      segments, temp-then-rename; per-shard lineage in the manifest.
  phase "term_dict": groupby(term) Sum(df/cf) over segments.

On restart every phase skips units the manifest marks done (and whose
outputs exist). ``stop_after_partitions`` injects a deterministic
interrupt for the resume test (FIXTURES.md F6).

Scale notes: tasks are scheduled through Ray Data (`from_items(units) →
map_batches(worker, batch_size=1)`) so backpressure and retries apply; a
shard task materializes one shard's postings — choose num_shards so that
fits a worker (S grows with the corpus). Staged postings are columnar
parquet (term dictionary-encodes well) — the explicit, restartable analog
of the shuffle's in-flight state.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data as rd

from .build import IndexBuildConfig, SegmentEncoder, _resolve_doc_ids
from .schema import sha256_batch, shard_of
from .state.manifest import Manifest, atomic_write_parquet
from .text import term_frequencies


class BuildInterrupted(RuntimeError):
    """Raised by the deterministic failure-injection hook (resume test)."""


def _list_parquet_files(source: str | list[str]) -> list[str]:
    if isinstance(source, list):
        return sorted(source)
    if os.path.isfile(source):
        return [source]
    out = []
    for root, _, files in os.walk(source):
        out.extend(os.path.join(root, f) for f in files if f.endswith(".parquet"))
    return sorted(out)


def _process_partition(files: list[str], pid: str, cfg: IndexBuildConfig,
                       columns: list[str], docs_path: str, postings_path: str) -> dict:
    t0 = time.time()
    # one OS thread per task: Ray already runs num_cpus tasks in parallel,
    # so Arrow's internal pool would only oversubscribe (measured 2.8x
    # CPU-time inflation at 32 workers before this cap)
    pa.set_cpu_count(1)
    pa.set_io_thread_count(2)
    batch = pq.read_table(files, columns=columns, use_threads=False)
    doc_ids = _resolve_doc_ids(batch, cfg)
    content = batch[cfg.content_col].combine_chunks()
    if cfg.store_positions:
        from .build import _tf_with_positions

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
    p_len = tf.doc_lens[tf.doc_idx]
    p_shard = shard_of(p_doc, cfg.num_shards)
    pcols = {
        "term": tf.terms,
        "doc_id": p_doc,
        "tf": tf.tf,
        "doc_len": p_len,
        "shard": p_shard,
    }
    if cfg.store_positions:
        pcols["pos"] = pos_blobs
    postings = pa.table(pcols).sort_by(
        [("shard", "ascending"), ("term", "ascending")])

    atomic_write_parquet(docs, docs_path)
    # row groups aligned to shard boundaries → shard tasks read only
    # their own row groups via predicate pushdown
    shard_col = np.asarray(postings["shard"].combine_chunks())
    bounds = (np.flatnonzero(np.diff(shard_col)) + 1).tolist()
    atomic_write_parquet(postings, postings_path, row_group_boundaries=bounds)

    rollup = hashlib.sha256("".join(shas).encode()).hexdigest()
    return {
        "pid": pid,
        "input_files": files,
        "rows": batch.num_rows,
        "docs": docs.num_rows,
        "postings": postings.num_rows,
        "content_sha256_rollup": rollup,
        "wall_s": round(time.time() - t0, 3),
    }


def _encode_shard(shard: int, stage_postings_dir: str, seg_path: str,
                  encoder: SegmentEncoder,
                  store_positions: bool = False) -> dict:
    return _encode_shards([shard], stage_postings_dir, [seg_path],
                          encoder, store_positions)[0]


def _encode_shards(shards: list[int], stage_postings_dir: str,
                   seg_paths: list[str], encoder: SegmentEncoder,
                   store_positions: bool = False) -> list[dict]:
    """Encode a BATCH of shards from ONE staged-postings scan. With one
    scan per shard, a high shard count pays S × n_partition_files
    parquet opens (measured: 41 s → 106 s shard phase going 256 → 1024
    shards on the 2M-doc corpus, ~65k extra footer reads) — batching
    divides the fixed open cost by the batch size. Row groups are
    shard-aligned spans in shard order within each file, so the
    combined scan filtered per shard yields rows in exactly the order
    the per-shard scan did — segment output is bitwise unchanged."""
    t0 = time.time()
    pa.set_cpu_count(1)
    pa.set_io_thread_count(2)
    dset = pads.dataset(stage_postings_dir, format="parquet")
    table = dset.scanner(filter=pads.field("shard").isin(shards),
                         use_threads=False).to_table()
    shard_col = table["shard"].to_numpy() if table.num_rows else None
    out = []
    for shard, seg_path in zip(shards, seg_paths):
        t1 = time.time()
        sub = table.take(np.flatnonzero(shard_col == shard)) \
            if table.num_rows else table
        seg_table = encoder(sub) if sub.num_rows else None
        if seg_table is None:
            from .build import _empty_segments_table

            seg_table = _empty_segments_table(store_positions)
        # rows are term-sorted within the shard, and 64 rows/group gives
        # each group a narrow term min/max in the footer. A reader that
        # picks groups from those statistics itself decompresses only
        # the matching groups' blob pages; pyarrow 16.1's ``("term",
        # "in", ...)`` read filter does not — it prunes no row group
        # (equality filters do), so QueryEngine's filtered reads still
        # scan every group of each candidate file.
        atomic_write_parquet(
            seg_table, seg_path,
            row_group_boundaries=list(range(64, seg_table.num_rows, 64)))
        out.append({
            "shard": shard,
            "postings": sub.num_rows,
            "terms": seg_table.num_rows,
            "wall_s": round(time.time() - (t1 if len(shards) > 1 else t0), 3),
        })
    return out


def build_index_resumable(source: str | list[str], index_dir: str,
                          cfg: IndexBuildConfig | None = None,
                          files_per_partition: int = 1,
                          stop_after_partitions: int | None = None,
                          concurrency: int | None = None,
                          **cfg_overrides) -> dict:
    """Checkpointed build; safe to re-run after any interruption."""
    cfg = cfg or IndexBuildConfig()
    for k, v in cfg_overrides.items():
        setattr(cfg, k, v)
    os.makedirs(index_dir, exist_ok=True)
    docs_dir = os.path.join(index_dir, "docs")
    segments_dir = os.path.join(index_dir, "segments")
    stage_postings = os.path.join(index_dir, "stage", "postings")
    term_dict_dir = os.path.join(index_dir, "term_dict")

    files = _list_parquet_files(source)
    if not files:
        raise FileNotFoundError(f"no parquet files found under {source!r}")

    import hashlib

    manifest = Manifest.load_or_create(index_dir)
    new_config = {
        "num_shards": cfg.num_shards, "block_size": cfg.block_size,
        "k1": cfg.k1, "b": cfg.b, "content_col": cfg.content_col,
        "id_col": cfg.id_col, "files_per_partition": files_per_partition,
        # staged-postings schema changes with the positions sidecar, so
        # flipping this between an interrupted run and its resume must
        # fail loudly (prev_cmp filtering keeps old manifests resumable)
        "store_positions": cfg.store_positions,
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
    need_cols = {cfg.content_col} | set(cfg.meta_cols)
    if cfg.id_col:
        need_cols.add(cfg.id_col)
    else:
        need_cols |= set(cfg.key_cols)
    schema = pads.dataset(files[0], format="parquet").schema
    columns = [c for c in schema.names if c in need_cols]

    # ---- phase: partitions ----
    units = []
    for i, pfiles in enumerate(parts):
        pid = f"part-{i:05d}"
        docs_path = os.path.join(docs_dir, f"{pid}.parquet")
        postings_path = os.path.join(stage_postings, f"{pid}.parquet")
        if manifest.partition_done(pid, [docs_path, postings_path]):
            continue
        units.append({"pid": pid, "files": pfiles,
                      "docs_path": docs_path, "postings_path": postings_path})
    if stop_after_partitions is not None:
        allowed = stop_after_partitions
    else:
        allowed = len(units)
    todo, deferred = units[:allowed], units[allowed:]
    if todo:
        def run_unit(b: pa.Table) -> pa.Table:
            rows = []
            for u in b.to_pylist():
                rows.append(_process_partition(u["files"], u["pid"], cfg, columns,
                                               u["docs_path"], u["postings_path"]))
            return pa.Table.from_pylist([
                {"pid": r["pid"], "lineage": __import__("json").dumps(r)} for r in rows])

        res = (
            rd.from_items(todo)
            .map_batches(run_unit, batch_size=1, batch_format="pyarrow",
                         concurrency=concurrency)
            .take_all()
        )
        import json as _json

        for r in res:
            rec = _json.loads(r["lineage"])
            manifest.mark_partition(rec.pop("pid"), **rec)
        manifest.save()
    if deferred:
        manifest.save()
        raise BuildInterrupted(
            f"stopped after {allowed} partitions ({len(deferred)} remaining)")

    # ---- phase: stats ----
    from .build import check_doc_id_collisions

    n_docs, total_len = 0, 0
    for rb in pads.dataset(docs_dir).to_batches(columns=["doc_len"]):
        n_docs += rb.num_rows
        total_len += int(pc.sum(rb.column(0)).as_py() or 0)
    check_doc_id_collisions(docs_dir, n_docs)
    avgdl = (total_len / n_docs) if n_docs else 0.0
    stats = {
        "n_docs": n_docs, "total_len": total_len, "avgdl": avgdl,
        "k1": cfg.k1, "b": cfg.b, "num_shards": cfg.num_shards,
        "block_size": cfg.block_size, "content_col": cfg.content_col,
        "id_col": cfg.id_col, "store_positions": cfg.store_positions,
        # same sidecar-column contract as build.py's stats — appends
        # inherit these, keeping stored-_source indexes reindexable
        "meta_cols": list(cfg.meta_cols),
        "key_cols": list(cfg.key_cols),
    }
    import json as _json

    from .build import write_stats

    # resume record only — stats.json itself is written LAST (the
    # commit point readers and _ensure_built key on; a mid-build
    # stats.json let concurrent openers see a partial index). The
    # recompute above is deterministic, so a resumed build writes the
    # identical stats at the end.
    manifest.mark_phase("stats", n_docs=n_docs, avgdl=avgdl)
    manifest.save()

    # ---- phase: shards ----
    encoder = SegmentEncoder(avgdl=avgdl, k1=cfg.k1, b=cfg.b,
                             block_size=cfg.block_size)
    shard_units = []
    for k in range(cfg.num_shards):
        seg_path = os.path.join(segments_dir, f"shard-{k:05d}.parquet")
        if manifest.shard_done(k, [seg_path]):
            continue
        shard_units.append({"shard": k, "seg_path": seg_path})
    if shard_units:
        def run_shard(b: pa.Table) -> pa.Table:
            units = b.to_pylist()
            rows = _encode_shards([u["shard"] for u in units],
                                  stage_postings,
                                  [u["seg_path"] for u in units],
                                  encoder, cfg.store_positions)
            return pa.Table.from_pylist([
                {"shard": r["shard"], "lineage": _json.dumps(r)} for r in rows])

        # batch shards per task: one task per shard pays S × n_files
        # parquet opens across the phase (fixed cost dominates past
        # ~256 shards at bench scale — see _encode_shards); keep ≥4
        # waves per worker for load balance
        slots = max(1, concurrency or 16)
        shards_per_task = max(1, len(shard_units) // (slots * 4))
        res = (
            rd.from_items(shard_units)
            .map_batches(run_shard, batch_size=shards_per_task,
                         batch_format="pyarrow",
                         concurrency=concurrency)
            .take_all()
        )
        for r in res:
            rec = _json.loads(r["lineage"])
            manifest.mark_shard(rec.pop("shard"), **rec)
        manifest.save()

    # ---- phase: term_dict ----
    if not manifest.phase_done("term_dict"):
        _write_term_dict(segments_dir, term_dict_dir)
        manifest.mark_phase("term_dict")
        manifest.save()
    from .query import write_seg_bucket_map

    write_seg_bucket_map(index_dir)  # first reader prunes immediately
    write_stats(index_dir, stats)    # COMMIT POINT: the index now opens
    return stats


# below this row count the Ray groupby's fixed shuffle cost dominates and a
# driver-side Arrow hash aggregate wins; above it, shuffle distributed
_TERM_DICT_RAY_THRESHOLD = 20_000_000


def _write_term_dict(segments_dir: str, term_dict_dir: str) -> None:
    dset = pads.dataset(segments_dir, format="parquet")
    if dset.count_rows() < _TERM_DICT_RAY_THRESHOLD:
        t = dset.to_table(columns=["term", "df", "cf"])
        agg = t.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
        agg = agg.rename_columns(["term", "df", "cf"])
        os.makedirs(term_dict_dir, exist_ok=True)
        pq.write_table(agg, os.path.join(term_dict_dir, "term_dict.parquet"))
    else:
        from ray.data.aggregate import Sum

        (
            rd.read_parquet(segments_dir, columns=["term", "df", "cf"])
            .groupby("term")
            .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
            .write_parquet(term_dict_dir)
        )
