"""Incremental index append — beyond the reference (which can only
rebuild, /root/reference/index/index.py:62-76: insert→freeze→save).

New documents are tokenized and encoded into ADDITIONAL segment files in
the same segments/ directory; the query engine already merges multiple
segment rows per (term, shard) (df sums, postings union — doc sets are
disjoint by the collision check). stats.json is refreshed from the
updated docs tables; the term_dict is the old one plus the (term, df,
cf) partials the delta's shard tasks hand back.

Segment rows store no score bounds (index format v6): the block-max
scorer computes each block's bound from the decoded row under the
engine's current avgdl and doc lengths, so an append that changes avgdl
leaves no stale bound behind, and encoding needs no global statistics.
Appended, deleted and merged indexes serve every scorer: bmax's top-k
threshold admits only live docs, so tombstones never prune a live one.
``compact_index`` purges tombstones and re-encodes one row per (term,
shard), bitwise equal to a from-scratch rebuild (tested).

QueryEngine instances hold stats/doclens/segment caches from load time —
re-instantiate engines (and sharded pools) after an append to see the
new documents.
"""

from __future__ import annotations

import json
import os
import re
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data as rd

from .build import (
    IndexBuildConfig,
    SegmentEncoder,
    build_config,
    check_doc_id_collisions,
    doc_totals,
    write_segment_file,
)
from .checkpoint import map_units, parquet_files, write_term_dict
from .schema import SEG_MAP_NAME, read_seg_map_entry, write_seg_bucket_map


def recover_segments(index_dir: str) -> bool:
    """Heal a compact_index swap interrupted between its two renames —
    for BOTH swapped directories (segments/, and docs/ when a
    tombstone-purging compaction rewrites the doc table): if the live
    dir is missing but its .old exists, rename it back (the
    pre-compaction copy is complete and correct). A leftover .compact
    is stale scratch either way — removed. Returns True if a recovery
    action was taken. Called on compaction entry and on QueryEngine
    open, so a crash in the swap window never leaves the index
    unreadable."""
    import shutil

    acted = False
    for sub in ("segments", "docs"):
        live = os.path.join(index_dir, sub)
        old = live + ".old"
        if not os.path.isdir(live) and os.path.isdir(old):
            os.rename(old, live)
            acted = True
        if os.path.isdir(live):
            # live dir present: any .old is a fully-superseded copy
            shutil.rmtree(old, ignore_errors=True)
        shutil.rmtree(live + ".compact", ignore_errors=True)
    return acted


_FAIL_AT: str | None = None  # test hook: crash injection inside commit

# an append's scratch dirs, each suffixed with the append id: the delta's
# docs parts, its staged postings, its encoded segment files, and the
# index's next term_dict
_APPEND_STAGED = ("docs.staged-", "postings.staged-", "segments.staged-",
                  "term_dict.staged-")


def _maybe_fail(point: str) -> None:
    if _FAIL_AT == point:
        raise RuntimeError(f"injected crash at {point}")


def recover_appends(index_dir: str) -> bool:
    """Heal an append interrupted mid-commit. The commit point is the
    stats.json write (it records ``last_append_id``): a pending journal
    whose id matches stats.json means the data commit finished — roll
    FORWARD (idempotent term_dict refresh, drop the journal); any other
    pending journal means it didn't — roll BACK by removing the
    journal's listed files from docs/ and segments/ plus the staged
    dirs, leaving the index exactly pre-append. Returns True if a
    recovery action was taken. Called on append entry and QueryEngine
    open (alongside recover_segments)."""
    import glob
    import shutil

    from .build import load_stats

    acted = False
    for jpath in sorted(glob.glob(
            os.path.join(index_dir, "append.pending-*.json"))):
        with open(jpath) as f:
            j = json.load(f)
        aid = j["append_id"]
        try:
            committed = load_stats(index_dir).get("last_append_id") == aid
        except FileNotFoundError:
            committed = False
        docs_dir = os.path.join(index_dir, "docs")
        segments_dir = os.path.join(index_dir, "segments")
        if committed:
            from .checkpoint import _write_term_dict

            term_dict_dir = os.path.join(index_dir, "term_dict")
            shutil.rmtree(term_dict_dir, ignore_errors=True)
            _write_term_dict(segments_dir, term_dict_dir)
        else:
            for name in j.get("docs_files", []):
                p = os.path.join(docs_dir, name)
                if os.path.exists(p):
                    os.remove(p)
            for name in j.get("segment_files", []):
                p = os.path.join(segments_dir, name)
                if os.path.exists(p):
                    os.remove(p)
        for staged in _APPEND_STAGED:
            shutil.rmtree(os.path.join(index_dir, f"{staged}{aid}"),
                          ignore_errors=True)
        os.remove(jpath)
        acted = True
    return acted


def load_tombstones(index_dir: str, stats: dict | None = None) -> "object":
    """The active deleted-doc-id set (sorted int64 array; empty when no
    deletes are pending). stats.json names the active tombstone file —
    the single atomic commit point of delete_from_index."""
    import numpy as np

    if stats is None:
        from .build import load_stats

        stats = load_stats(index_dir)
    name = stats.get("tombstones_file")
    if not name:
        return np.empty(0, dtype=np.int64)
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(index_dir, name), columns=["doc_id"])
    return np.asarray(t["doc_id"].combine_chunks()).astype(np.int64)


def recover_purges(index_dir: str) -> bool:
    """Heal an interrupted purge_doc_ids. The journal is written AFTER
    every staged artifact exists, so recovery always rolls FORWARD:
    re-apply the remaining staged-file renames (os.replace is atomic;
    already-applied entries have no staged file left), re-write the
    journal's final stats, sweep sidecars the new stats no longer
    reference, drop the staged dir + journal. Journal-less
    purge.staged-* dirs are pre-intent scratch — swept. Returns True if
    a recovery action was taken. Called on every lifecycle entry point
    and on QueryEngine open."""
    import glob
    import shutil

    from .build import load_stats, write_stats

    acted = False
    journaled: set[str] = set()
    for jpath in sorted(glob.glob(
            os.path.join(index_dir, "purge.pending-*.json"))):
        with open(jpath) as f:
            j = json.load(f)
        journaled.add(f"purge.staged-{j['purge_id']}")
        for staged_rel, live_rel in j["renames"]:
            sp = os.path.join(index_dir, staged_rel)
            if os.path.exists(sp):  # already-applied entries have no
                os.replace(sp, os.path.join(index_dir, live_rel))
        for live_rel in j.get("removals", []):
            lp = os.path.join(index_dir, live_rel)
            if os.path.exists(lp):
                os.remove(lp)
        _apply_dir_swaps(index_dir, j.get("dir_swaps", []))
        write_stats(index_dir, j["stats"])
        _sweep_orphan_sidecars(index_dir, j["stats"])
        shutil.rmtree(os.path.join(
            index_dir, f"purge.staged-{j['purge_id']}"), ignore_errors=True)
        os.remove(jpath)
        acted = True
    for name in os.listdir(index_dir):
        if name.startswith("purge.staged-") and name not in journaled:
            shutil.rmtree(os.path.join(index_dir, name),
                          ignore_errors=True)
            acted = True
    return acted


def _apply_dir_swaps(index_dir: str, dir_swaps) -> None:
    """Replace live dirs with staged ones (idempotent: a missing staged
    dir means the swap already happened)."""
    import shutil

    for staged_rel, live_rel in dir_swaps:
        sp = os.path.join(index_dir, staged_rel)
        if os.path.isdir(sp):
            lp = os.path.join(index_dir, live_rel)
            shutil.rmtree(lp, ignore_errors=True)
            os.rename(sp, lp)


def _sweep_orphan_sidecars(index_dir: str, stats: dict) -> None:
    """Remove tombstones-* / deleted-df-* files the given stats no
    longer reference (superseded by a delete/purge commit)."""
    keep = {stats.get("tombstones_file"), stats.get("deleted_df_file")}
    for name in os.listdir(index_dir):
        if (name.startswith(("tombstones-", "deleted-df-"))
                and name not in keep):
            os.remove(os.path.join(index_dir, name))


def snapshot_index(index_dir: str, out_dir: str) -> dict:
    """Hardlink snapshot of a quiesced index — O(file count), zero data
    copied (copy2 fallback crossing filesystems). Because every
    lifecycle mutation is copy-on-write at file granularity (append
    adds files; delete adds sidecars + swaps stats; purge/compact
    REPLACE files via fresh staged ones — never edit in place), a
    snapshot stays internally consistent while the source continues to
    mutate: the A/B-serving and pre-mutation-backup primitive. Pending
    journals are healed FIRST so the snapshot never carries an
    in-flight mutation. Returns the snapshot's stats."""
    import shutil

    from .build import load_stats

    recover_segments(index_dir)
    recover_appends(index_dir)
    recover_purges(index_dir)
    stats = load_stats(index_dir)  # raises if not an index
    if os.path.exists(out_dir) and os.listdir(out_dir):
        raise ValueError(f"out_dir {out_dir!r} exists and is not empty")
    for root, _dirs, files in os.walk(index_dir):
        rel = os.path.relpath(root, index_dir)
        out = os.path.join(out_dir, rel) if rel != "." else out_dir
        os.makedirs(out, exist_ok=True)
        for f in files:
            src = os.path.join(root, f)
            try:
                os.link(src, os.path.join(out, f))
            except OSError:
                shutil.copy2(src, os.path.join(out, f))
    return stats


def set_index_alias(alias_dir: str, index_dir: str) -> str:
    """Point ``alias_dir`` at ``index_dir`` ATOMICALLY (tmp + rename of
    alias.json) — the zero-downtime reindex primitive: build or
    snapshot a new index anywhere, then flip the alias; readers opening
    through the alias (query.open_index) see either the old or the new
    index, never a mix. The target must be a complete index (stats.json
    present — the build/merge/compact commit point)."""
    import json

    from .build import load_stats

    load_stats(index_dir)  # raises unless index_dir is a complete index
    os.makedirs(alias_dir, exist_ok=True)
    final = os.path.join(alias_dir, "alias.json")
    # unique tmp per writer: two concurrent flips must never share an
    # inode, or one's os.replace publishes the other's half-written file
    tmp = f"{final}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump({"index_dir": os.path.abspath(index_dir)}, f)
    os.replace(tmp, final)
    return final


def resolve_index_alias(path: str) -> str:
    """``path`` itself if it is an index; otherwise follow ONE
    alias.json hop (aliases never chain — the target must be a real
    index, enforced by set_index_alias)."""
    import json

    if os.path.exists(os.path.join(path, "stats.json")):
        return path
    alias = os.path.join(path, "alias.json")
    if os.path.exists(alias):
        with open(alias) as f:
            return json.load(f)["index_dir"]
    raise FileNotFoundError(
        f"{path!r} is neither an index (stats.json) nor an alias "
        f"(alias.json)")


def _purge_file(src: str, dst: str, D: np.ndarray, block_size: int,
                store_positions: bool) -> dict:
    """Re-encode segment file ``src`` without the postings of the
    sorted doc ids ``D``, as compaction re-encodes a file: its kept
    postings (``_kept_postings``), the build's encoder, and the
    segment-file writer into ``dst``, with a fresh doc map. Returns the
    action — "skip" (no posting dropped: a map written before fresh
    maps can still list ids purged earlier), "rename" (``dst`` replaces
    ``src``) or "removal" (no posting left) — and the file's removed
    (term, df, cf): its old rows' counts minus its new rows'."""
    from .checkpoint import sum_term_stats
    from .schema import read_doc_map

    old = pq.read_table(src, use_threads=False)
    kept = _kept_postings(old, read_doc_map(src), D, block_size,
                          store_positions)
    if kept.num_rows == pc.sum(old["df"]).as_py():
        return {"action": "skip"}
    new = SegmentEncoder(block_size=block_size)(kept)
    if new.num_rows:
        write_segment_file(new, dst)
    cols = ["term", "df", "cf"]
    removed = sum_term_stats([old.select(cols), _negated(new.select(cols))])
    return {"action": "rename" if new.num_rows else "removal",
            "removed": {c: removed[c].to_numpy().tolist() for c in cols}}


def _negated(counts: pa.Table) -> pa.Table:
    """A count table (term, then counts) with every count negated."""
    return pa.table({c: counts[c] if c == "term" else pc.negate(counts[c])
                     for c in counts.column_names})


def purge_doc_ids(index_dir: str, doc_ids) -> dict:
    """Physically remove a bounded set of TOMBSTONED ids without a full
    compaction — the surgical middle ground between delete_from_index
    (O(delete-set), logical) and compact_index (O(index), physical).
    Cost is O(size of the affected files): only segment files whose doc
    map lists a purged id and docs files holding a purged row are
    rewritten. After the purge the ids are fully gone, so they can be
    RE-ADDED by a normal append (the upsert path: delete → purge →
    append replaces the previous delete → FULL compact).

    Each affected segment file is re-encoded, as compaction would
    re-encode it (``_purge_file``): its rows hold the same postings as
    a rebuild's rows (positions re-split per doc, identity round-trip).

    Sidecars and the term_dict shrink exactly: the purged ids leave the
    tombstone set, and the rewritten files' removed (term, df, cf) — old
    rows' counts minus new rows' — are subtracted from the term_dict and
    the per-term deleted-df sidecar.

    Crash story (single writer): staged rewrites + fresh sidecars are
    written first, then a ``purge.pending-{id}.json`` journal records
    every rename and the final stats; only then do live files change.
    A crash before the journal leaves the index untouched (scratch
    swept); after it, recover_purges — run on every lifecycle entry and
    QueryEngine open — rolls the purge forward deterministically, so no
    reader ever sees purged segments under the old (over-counting)
    deleted-df sidecar."""
    import shutil

    from .build import check_format, load_stats, write_stats
    from .checkpoint import sum_term_stats
    from .schema import TERM_DICT_SCHEMA, local_numbers, read_doc_map

    recover_segments(index_dir)
    recover_appends(index_dir)
    recover_purges(index_dir)
    stats = check_format(load_stats(index_dir), index_dir)
    tomb = load_tombstones(index_dir, stats)
    D = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if len(D) == 0:
        return stats
    missing = np.setdiff1d(D, tomb, assume_unique=True)
    if len(missing):
        raise ValueError(
            f"purge_doc_ids only purges tombstoned ids; {len(missing)} "
            f"id(s) are not tombstoned (e.g. {missing[:3].tolist()}) — "
            "delete_from_index them first")
    docs_dir = os.path.join(index_dir, "docs")
    seg_dir = os.path.join(index_dir, "segments")
    block_size = int(stats["block_size"])
    store_positions = bool(stats.get("store_positions"))

    aid = uuid.uuid4().hex
    staged_root = f"purge.staged-{aid}"
    staged_dir = os.path.join(index_dir, staged_root)
    os.makedirs(os.path.join(staged_dir, "segments"), exist_ok=True)
    os.makedirs(os.path.join(staged_dir, "docs"), exist_ok=True)
    renames: list[list[str]] = []
    removals: list[str] = []

    # --- segment rewrite. A file can hold a purged posting only if its
    # doc map lists a purged id: one footer read per file, exact. Small
    # work lists run inline (Ray task launch costs more than the work: a
    # 10-id purge measured 5.5 s of pure fan-out overhead across 64
    # mostly-skip tasks); large ones fan out through map_units.
    cand_files = [f for f in sorted(os.listdir(seg_dir))
                  if f.endswith(".parquet") and len(local_numbers(
                      read_doc_map(os.path.join(seg_dir, f)), D))]

    def _run_files(units: list[dict]) -> list[dict]:
        return [{"fname": u["fname"], **_purge_file(
            os.path.join(seg_dir, u["fname"]),
            os.path.join(staged_dir, "segments", u["fname"]),
            D, block_size, store_positions)} for u in units]

    # crossover (4-CPU host, 8k docs over 32 shards): serial work costs
    # ~0.05 s/file. Set when a fan-out was a Ray Data execution (~0.085 s
    # of machine CPU plus ~18 ms per further task): 16 files took 0.90 s
    # serially, 17 fanned out 0.75 s of wall but 0.4 s more machine CPU,
    # so only work lists past 16 files fan out. map_units now costs
    # ~0.01 s plus 2-3 ms per task; the threshold is not re-measured
    units = [{"fname": f} for f in cand_files]
    results = (_run_files(units) if len(units) <= 16
               else map_units(_run_files, units))
    for r in sorted(results, key=lambda r: r["fname"]):
        fname, action = r["fname"], r["action"]
        if action == "rename":
            renames.append([f"{staged_root}/segments/{fname}",
                            f"segments/{fname}"])
        elif action == "removal":
            removals.append(f"segments/{fname}")
    removed = sum_term_stats([TERM_DICT_SCHEMA.empty_table()] + [
        pa.table(r["removed"], schema=TERM_DICT_SCHEMA)
        for r in results if r["action"] != "skip"])

    for fname in sorted(os.listdir(docs_dir)):
        if not fname.endswith(".parquet"):
            continue
        n = _rewrite_docs_part(os.path.join(docs_dir, fname),
                               os.path.join(staged_dir, "docs", fname), D)
        if n:
            renames.append([f"{staged_root}/docs/{fname}", f"docs/{fname}"])
        elif n == 0:
            removals.append(f"docs/{fname}")

    # fresh sidecars (inert until the journaled stats switch): the
    # removed postings' docs were all tombstoned, so their df leaves the
    # deleted-df counts
    ddf = None
    if stats.get("deleted_df_file"):
        ddf = [pq.read_table(os.path.join(index_dir, stats["deleted_df_file"])),
               _negated(removed.select(["term", "df"])
                        .rename_columns(["term", "ddf"]))]
    new_stats = _write_delete_sidecars(
        index_dir, stats, np.setdiff1d(tomb, D, assume_unique=True), ddf)

    # term_dict update — INCREMENTAL (vocab-sized, keeps purge
    # O(affected files) where a segments-scan rebuild would be
    # O(index)): term_dict tracks PHYSICAL segment df/cf, less the
    # removed counts; fully purged terms leave it. Staged as a full
    # replacement dir so the journal can roll the swap forward; without
    # this, shard-subset engines (which read df from term_dict) would
    # score against stale counts.
    dir_swaps: list[list[str]] = []
    td_dir = os.path.join(index_dir, "term_dict")
    if removed.num_rows and os.path.isdir(td_dir):
        write_term_dict(os.path.join(staged_dir, "term_dict"),
                        [pq.read_table(td_dir), _negated(removed)])
        dir_swaps.append([f"{staged_root}/term_dict", "term_dict"])

    journal = os.path.join(index_dir, f"purge.pending-{aid}.json")
    with open(journal + ".tmp", "w") as f:
        json.dump({"purge_id": aid, "renames": renames,
                   "removals": removals, "dir_swaps": dir_swaps,
                   "stats": new_stats}, f)
    os.replace(journal + ".tmp", journal)  # INTENT — roll-forward from here

    _maybe_fail("purge_after_journal")
    for staged_rel, live_rel in renames:
        os.replace(os.path.join(index_dir, staged_rel),
                   os.path.join(index_dir, live_rel))
        _maybe_fail("purge_mid_renames")
    for live_rel in removals:
        lp = os.path.join(index_dir, live_rel)
        if os.path.exists(lp):
            os.remove(lp)
    _apply_dir_swaps(index_dir, dir_swaps)
    _maybe_fail("purge_after_dirswap")
    write_stats(index_dir, new_stats)  # COMMIT POINT
    _maybe_fail("purge_after_stats")
    _sweep_orphan_sidecars(index_dir, new_stats)
    shutil.rmtree(staged_dir, ignore_errors=True)
    os.remove(journal)
    return new_stats


def _write_delete_sidecars(index_dir: str, stats: dict, tomb: np.ndarray,
                           ddf: list[pa.Table] | None) -> dict:
    """A copy of ``stats`` naming fresh delete sidecars, written to
    ``index_dir`` (inert until the caller writes the stats; superseded
    ones stay until ``_sweep_orphan_sidecars``): the sorted tombstoned
    ids ``tomb``, and the per-term deleted-doc counts, the sum of the
    (term, ddf) tables ``ddf`` with rows of ddf ≤ 0 dropped. With no
    tombstones the copy names no sidecar; with ``ddf`` None, no
    deleted-df file."""
    stats = {k: v for k, v in stats.items() if k not in
             ("tombstones_file", "n_tombstones", "deleted_df_file")}
    if len(tomb) == 0:
        return stats
    sid = uuid.uuid4().hex
    stats["tombstones_file"] = f"tombstones-{sid}.parquet"
    stats["n_tombstones"] = len(tomb)
    pq.write_table(pa.table({"doc_id": pa.array(tomb, pa.int64())}),
                   os.path.join(index_dir, stats["tombstones_file"]))
    if ddf is not None:
        schema = pa.schema([("term", pa.string()), ("ddf", pa.int64())])
        t = (pa.concat_tables([p.cast(schema) for p in ddf])
             .group_by("term").aggregate([("ddf", "sum")])
             .rename_columns(schema.names).sort_by("term"))
        stats["deleted_df_file"] = f"deleted-df-{sid}.parquet"
        pq.write_table(t.filter(pc.greater(t["ddf"], 0)),
                       os.path.join(index_dir, stats["deleted_df_file"]))
    return stats


def _rewrite_docs_part(src: str, dst: str, dead: np.ndarray,
                       num_shards: int | None = None) -> int | None:
    """Docs part ``src`` without the rows whose ids are in the sorted
    ``dead`` — and, given ``num_shards`` (compaction's shard count),
    with its shard column recomputed for that many shards — written to
    ``dst``. Returns the rows written, or None (nothing written) when no
    row is dead and no shard count is given. A part left empty is
    written too, so a fully deleted index still has a docs schema to
    open."""
    from .query import sorted_member_mask
    from .schema import shard_of

    bt = pq.read_table(src, use_threads=False)
    ids = np.asarray(bt["doc_id"].combine_chunks()).astype(np.int64)
    keep = ~sorted_member_mask(dead, ids)
    if keep.all() and num_shards is None:
        return None
    bt, ids = bt.filter(pa.array(keep)), ids[keep]
    if num_shards is not None:
        i = bt.column_names.index("shard")
        bt = bt.set_column(i, "shard",
                           pa.array(shard_of(ids, num_shards), pa.int32()))
    pq.write_table(bt, dst)
    return bt.num_rows


def delete_from_index(index_dir: str, doc_ids) -> dict:
    """Tombstone deletion — the missing quarter of the lifecycle
    (build / append / DELETE / compact). O(delete-set) work now;
    physical purge happens at the next ``compact_index``.

    Commit is ONE atomic stats.json replace: the full (old ∪ new)
    deleted-id set is first written to a fresh ``tombstones-{id}``
    parquet (``_write_delete_sidecars``), then stats.json switches to
    it — a crash anywhere shows
    either the old or the new delete set, never a torn state. Global
    stats (n_docs / total_len / avgdl) are recomputed from the
    actually-present deleted rows. Every scorer masks tombstones, so
    results are bitwise equal to a rebuild without the deleted docs
    (tested). Ids not present in the index are
    ignored (deletes are idempotent). Re-adding a deleted id requires
    its physical row to be gone first — ``purge_doc_ids`` (surgical,
    O(affected files)) or ``compact_index`` (full) — because the append
    collision check sees the tombstoned row (by design)."""
    from .build import check_format, load_stats, write_stats

    recover_segments(index_dir)
    recover_appends(index_dir)
    recover_purges(index_dir)
    stats = check_format(load_stats(index_dir), index_dir)
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    old = load_tombstones(index_dir, stats)
    new_ids = np.setdiff1d(ids, old, assume_unique=True)
    if len(new_ids) == 0:
        return stats
    # only rows that actually exist tombstone (and adjust stats)
    docs_dir = os.path.join(index_dir, "docs")
    t = pq.read_table(docs_dir, columns=["doc_id", "doc_len"],
                      filters=[("doc_id", "in", new_ids.tolist())])
    found = np.asarray(t["doc_id"].combine_chunks()).astype(np.int64)
    if len(found) == 0:
        return stats
    removed_len = int(np.asarray(t["doc_len"].combine_chunks()).sum())
    allt = np.union1d(old, found)
    n_docs = int(stats["n_docs"]) - len(found)
    total_len = int(stats["total_len"]) - removed_len

    # per-term deleted-df sidecar: physical segment dfs still count
    # tombstoned docs, but exact idf needs df over ALIVE docs — and the
    # correction must be GLOBAL (a sharded worker can't see other
    # shards' postings). Count deleted docs per term once here: one
    # column-pruned segments scan (term + doc_ids only, postings stay
    # encoded until the per-row decode), vocab-bounded output.
    block_size = int(stats["block_size"])
    seg_dir = os.path.join(index_dir, "segments")
    counts = _deleted_df_counts(seg_dir, allt, block_size)
    stats = _write_delete_sidecars(index_dir, stats, allt, [pa.table({
        "term": pa.array(list(counts), pa.string()),
        "ddf": pa.array(list(counts.values()), pa.int64())})])
    stats.update({
        "n_docs": n_docs, "total_len": total_len,
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
    })
    write_stats(index_dir, stats)  # COMMIT POINT (atomic replace)
    _sweep_orphan_sidecars(index_dir, stats)
    return stats


def delete_by_query(index_dir: str, expr: str) -> dict:
    """ES ``_delete_by_query`` analog: tombstone (:func:`delete_from_index`)
    the matched set of a search_boolean_dsl expression — the one
    query_string grammar, where phrases gate and boosts parse but cannot
    change a set — resolved against the index's OWN postings.

    The match runs over alive docs only (tombstones are masked by the
    DSL evaluator), so re-running the same expression is a no-op — the
    op is idempotent, matching ES semantics where a second
    _delete_by_query finds nothing. No corpus rescan: one sorted-set
    postings evaluation resolves the set; the delete itself costs one
    column-pruned segments scan (delete_from_index's exact-idf ddf
    correction — scan-dominated, near-flat in matched-set size;
    measured in BENCH/qlifecycle_r4.json) + O(matched). Returns the
    updated stats (unchanged when nothing matches)."""
    from .build import load_stats
    from .query import QueryEngine

    eng = QueryEngine(index_dir)  # open runs the recovery passes
    ids = eng.search_boolean_dsl(expr)
    if len(ids) == 0:
        return load_stats(index_dir)
    return delete_from_index(index_dir, np.asarray(ids, dtype=np.int64))


def reindex_index(src_index: str, out_dir: str, content_col: str,
                  transform_batch=None, **cfg_overrides) -> dict:
    """ES ``_reindex`` analog: build a NEW index from an existing
    index's OWN doc store — no re-read of the original corpus. Requires
    the source to have stored the content column in its docs sidecar
    (pass it in ``meta_cols`` at build time — the ES ``_source``
    pattern); raises otherwise. The read is the ALIVE view: tombstoned
    docs are excluded via a broadcast sorted-membership mask, so the
    reindexed output equals a rebuild over the source's logical state —
    under whatever new layout/analysis ``cfg_overrides`` selects
    (num_shards, store_positions, meta_cols, ...).
    ``transform_batch`` is the ES _reindex "script": a vectorized
    pa.Table → pa.Table applied to the alive rows before the rebuild
    (rewrite the content, derive/drop stored columns en route).

    Scale shape: one streaming docs-sidecar scan feeding the standard
    Dataset build; the tombstone set is the only driver-held state."""
    import ray

    from .build import build_index, load_stats

    recover_segments(src_index)
    recover_appends(src_index)
    recover_purges(src_index)
    stats = load_stats(src_index)
    docs_dir = os.path.join(src_index, "docs")
    parts = sorted(f for f in os.listdir(docs_dir) if f.endswith(".parquet"))
    if not parts:
        raise ValueError(f"{src_index!r} has no docs part-files — "
                         "nothing to reindex")
    schema_names = pq.read_schema(os.path.join(docs_dir, parts[0])).names
    if content_col not in schema_names:
        raise ValueError(
            f"source index did not store {content_col!r} in its docs "
            "sidecar — build it with the content column in meta_cols "
            "(the _source pattern) to make it reindexable")
    # drop derived columns; the new build recomputes them
    cols = [c for c in schema_names
            if c not in ("doc_len", "shard", "content_sha256")]
    ds = rd.read_parquet(docs_dir, columns=cols)
    tomb = load_tombstones(src_index, stats)
    if len(tomb):
        tomb_ref = ray.put(np.asarray(tomb, dtype=np.int64))

        def alive(b: pa.Table) -> pa.Table:
            from .query import sorted_member_mask

            dead = ray.get(tomb_ref)
            ids = np.asarray(b["doc_id"].combine_chunks()).astype(np.int64)
            return b.filter(pa.array(~sorted_member_mask(dead, ids)))

        ds = ds.map_batches(alive, batch_format="pyarrow")
    if transform_batch is not None:
        ds = ds.map_batches(transform_batch, batch_format="pyarrow")
    # default: carry every stored column forward INCLUDING the content
    # column, so the reindexed index keeps the _source property (stays
    # reindexable); override meta_cols to drop it
    meta = tuple(c for c in cols if c != "doc_id")
    cfg_overrides.setdefault("meta_cols", meta)
    return build_index(ds, out_dir, content_col=content_col,
                       id_col="doc_id", **cfg_overrides)


def update_by_query(index_dir: str, expr: str, source, transform_batch,
                    **cfg_overrides) -> dict:
    """ES ``_update_by_query`` analog: resolve the boolean-DSL matched
    set against the index's own postings, re-read ONLY those docs from
    ``source`` (the original corpus — the index's docs sidecar stores
    metadata, not text), apply the vectorized ``transform_batch``
    (pa.Table → pa.Table over the index's content/id columns) and
    upsert the transformed delta (delete → surgical purge → append).

    The matched-id set rides one ``ray.put`` broadcast into a
    sorted-membership filter per batch (never re-shipped per batch);
    the corpus scan is the only full pass. Matched set must fit a
    worker's heap — for expression matching most of the corpus, a
    rebuild is the right tool. Returns the final stats; results equal a
    from-scratch rebuild of the transformed corpus (upsert contract,
    tested)."""
    import ray

    from .build import load_stats
    from .query import QueryEngine

    eng = QueryEngine(index_dir)
    ids = np.sort(eng.search_boolean_dsl(expr))
    if len(ids) == 0:
        return load_stats(index_dir)
    # resolve source ids EXACTLY as the build does — explicit id column
    # or the derived key_cols hash (indexes built without an id_col;
    # the recipe is persisted in stats, caller overrides win for
    # pre-key_cols indexes)
    from .build import _resolve_doc_ids

    pick_cfg = IndexBuildConfig()
    if eng.stats.get("content_col"):
        pick_cfg.content_col = eng.stats["content_col"]
    pick_cfg.id_col = eng.stats.get("id_col")
    if cfg_overrides.get("key_cols") is not None:
        pick_cfg.key_cols = tuple(cfg_overrides["key_cols"])
    elif eng.stats.get("key_cols") is not None:
        pick_cfg.key_cols = tuple(eng.stats["key_cols"])
    ids_ref = ray.put(ids)

    def pick(b: pa.Table) -> pa.Table:
        from .query import sorted_member_mask

        keys = ray.get(ids_ref)
        col = np.asarray(_resolve_doc_ids(b, pick_cfg), dtype=np.int64)
        return b.filter(pa.array(sorted_member_mask(keys, col)))

    src_ds = source if isinstance(source, rd.Dataset) \
        else rd.read_parquet(source)
    delta = (src_ds.map_batches(pick, batch_format="pyarrow")
             .map_batches(transform_batch, batch_format="pyarrow"))
    return upsert_to_index(delta, index_dir, **cfg_overrides)


def append_to_index(source, index_dir: str,
                    cfg: IndexBuildConfig | None = None,
                    content_col: str | None = None, id_col: str | None = None,
                    **cfg_overrides) -> dict:
    """Append ``source`` documents to an existing index. Returns updated
    stats. New doc ids must be disjoint from existing ones (checked).
    A path source (a parquet file, a directory or a list of files)
    stages one part per input file through ``map_units``, as a
    path-source build does; a ``ray.data.Dataset`` streams through Ray
    Data in ``batch_size``-row batches. Both give the same term_dict and
    scores, and byte-equal segment files once compacted (tested).

    Crash-safe: both the docs rows AND the new segment files are staged
    outside the live directories while the expensive work (tokenize,
    collision audit, postings encode) runs; the only mutation window is
    the journaled commit (two batches of renames + the stats write),
    and ``recover_appends`` rolls an interrupted commit back — or
    forward once stats.json (the commit point) has landed."""
    from .build import check_format, load_stats

    prev = check_format(load_stats(index_dir), index_dir)
    cfg = build_config(cfg, content_col, id_col, **cfg_overrides)
    # column mapping follows the existing index: appending with a
    # different id_col would silently derive a disjoint id space (the
    # collision check can't catch that), so inherit when the caller
    # didn't override and raise on an explicit mismatch
    explicit_content = (content_col is not None
                        or "content_col" in cfg_overrides)
    explicit_id = id_col is not None or "id_col" in cfg_overrides
    prev_content = prev.get("content_col")
    prev_id = prev.get("id_col")
    if prev_content:
        if explicit_content and cfg.content_col != prev_content:
            raise ValueError(
                f"append content_col={cfg.content_col!r} != index's "
                f"{prev_content!r} (stats.json)")
        cfg.content_col = prev_content
    if "id_col" in prev:
        if explicit_id and cfg.id_col != prev_id:
            raise ValueError(
                f"append id_col={cfg.id_col!r} != index's {prev_id!r} "
                f"(stats.json)")
        cfg.id_col = prev_id
    # shard layout must match the existing index
    cfg.num_shards = int(prev["num_shards"])
    cfg.block_size = int(prev["block_size"])
    cfg.k1, cfg.b = float(prev["k1"]), float(prev["b"])
    # a positional index stays positional: the delta's postings carry
    # per-doc position blobs so appended segments serve phrase/NEAR too
    cfg.store_positions = bool(prev.get("store_positions"))
    # appended docs rows carry the SAME sidecar columns (stored-_source
    # / reindexability survives appends); pre-meta_cols stats fall back
    # to whatever the caller's cfg already had. An EXPLICIT conflicting
    # override is an error, like content_col/id_col above — silently
    # writing different columns would corrupt the sidecar contract
    if prev.get("meta_cols") is not None:
        prev_meta = tuple(prev["meta_cols"])
        if ("meta_cols" in cfg_overrides
                and tuple(cfg_overrides["meta_cols"]) != prev_meta):
            raise ValueError(
                f"append meta_cols={tuple(cfg_overrides['meta_cols'])!r} "
                f"!= index's {prev_meta!r} (stats.json)")
        cfg.meta_cols = prev_meta

    docs_dir = os.path.join(index_dir, "docs")
    segments_dir = os.path.join(index_dir, "segments")
    term_dict_dir = os.path.join(index_dir, "term_dict")

    files = None if isinstance(source, rd.Dataset) else parquet_files(source)

    # STAGE outside docs/ and segments/ first — the collision check
    # below may reject this append, and new rows must not pollute the
    # live tables until it passes (a failed append leaves the index
    # exactly as it was)
    import shutil

    from .checkpoint import shard_phase, stage_dataset, stage_files

    # heal any crashed prior append, then sweep journal-less staged
    # dirs (crash before the journal was written; single-writer
    # assumption: no other append is running against this index)
    recover_appends(index_dir)
    recover_purges(index_dir)
    for name in os.listdir(index_dir):
        if name.startswith(_APPEND_STAGED):
            shutil.rmtree(os.path.join(index_dir, name), ignore_errors=True)

    aid = uuid.uuid4().hex
    scratch = [os.path.join(index_dir, f"{staged}{aid}")
               for staged in _APPEND_STAGED]
    staged_dir, post_staged, seg_staged, td_staged = scratch
    try:
        for d in scratch:
            os.makedirs(d)
        # one tokenize per delta file or batch: docs parts + staged
        # postings
        if files is None:
            stage_dataset(source, cfg, staged_dir, post_staged)
        else:
            stage_files(files, cfg, staged_dir, post_staged)

        # refresh stats over the UNION of old + staged docs; paths (not
        # a pads dataset) so the beyond-driver-scale distributed audit
        # path is reachable here too
        n_docs, total_len = doc_totals([docs_dir, staged_dir])
        check_doc_id_collisions([docs_dir, staged_dir], n_docs)

        # tombstoned rows are physically present until compaction but
        # must not count toward global stats
        tomb = load_tombstones(index_dir, prev)
        if len(tomb):
            td = pq.read_table(docs_dir, columns=["doc_len"],
                               filters=[("doc_id", "in", tomb.tolist())])
            n_docs -= td.num_rows
            total_len -= int(pc.sum(td["doc_len"]).as_py() or 0)

        avgdl = (total_len / n_docs) if n_docs else 0.0
        stats = dict(prev)
        stats.update({"n_docs": n_docs, "total_len": total_len,
                      "avgdl": avgdl, "last_append_id": aid})

        # encode the NEW docs' postings → one STAGED segment file per
        # shard the delta touches (the live segments/ dir is untouched
        # until the commit below)
        encoder = SegmentEncoder(block_size=cfg.block_size)
        staged = pads.dataset(staged_dir)
        shards = (np.unique(staged.to_table(columns=["shard"])["shard"]
                            .to_numpy()).tolist()
                  if "shard" in staged.schema.names else [])
        delta = shard_phase(
            shards, post_staged,
            [os.path.join(seg_staged, f"shard-{k:05d}.parquet")
             for k in shards], encoder, cfg.store_positions)
        shutil.rmtree(post_staged)
        # the next term_dict: the live one plus the delta's partials
        # (vocab-sized, like purge's update), swapped in after the
        # commit point. The delta's sidecar entries are dropped, as
        # before: the first reader that prunes builds them.
        write_term_dict(td_staged, [
            pq.read_table(term_dict_dir, columns=["term", "df", "cf"]),
            *delta.term_stats])
    except BaseException:
        for d in scratch:
            shutil.rmtree(d, ignore_errors=True)
        raise

    # ---- journaled commit: record the exact final file names FIRST so
    # recover_appends can roll an interrupted commit back (or forward
    # once stats.json — the commit point — has landed) ----
    docs_files = sorted(os.listdir(staged_dir))
    segment_files = [f"append-{aid}-{n}" for n in sorted(
        os.listdir(seg_staged))]
    journal = os.path.join(index_dir, f"append.pending-{aid}.json")
    with open(journal + ".tmp", "w") as f:
        json.dump({"append_id": aid, "docs_files": docs_files,
                   "segment_files": segment_files}, f)
    os.replace(journal + ".tmp", journal)

    for name in docs_files:
        os.rename(os.path.join(staged_dir, name),
                  os.path.join(docs_dir, name))
    os.rmdir(staged_dir)
    _maybe_fail("mid_commit_docs")
    for src, dst in zip(sorted(os.listdir(seg_staged)), segment_files):
        os.rename(os.path.join(seg_staged, src),
                  os.path.join(segments_dir, dst))
    os.rmdir(seg_staged)
    _maybe_fail("mid_commit_segments")
    from .build import write_stats

    write_stats(index_dir, stats)  # COMMIT POINT (atomic replace)
    _maybe_fail("after_stats")
    # a crash from here on is rolled forward by recover_appends, which
    # rescans the term_dict
    _apply_dir_swaps(index_dir, [[os.path.basename(td_staged), "term_dict"]])
    os.remove(journal)
    return stats


# above this segment-row count the deleted-df scan fans out through
# map_units (per-task vocab-sized partials, driver merge);
# below it a driver-side Arrow stream wins (no session warm-up cost) —
# the same routing idea as checkpoint._TERM_DICT_RAY_THRESHOLD
_DDF_RAY_THRESHOLD = 2_000_000


def _deleted_df_counts(seg_dir: str, allt, block_size: int,
                       threshold: int | None = None) -> dict[str, int]:
    """Per-term count of tombstoned docs across all segment rows.
    Small indexes stream on the driver; large ones fan out over the
    files through ``map_units``, whose output is (term → ddf) partials —
    one per task, so the driver merge is
    vocab-bounded and no (term → count) shuffle happens (the
    hash-bucket-vs-native-groupby trap doesn't apply: there is no
    groupby at all)."""
    from .codec import decode_doc_ids_batch
    from .query import sorted_member_mask
    from .schema import local_numbers, read_doc_map

    if threshold is None:
        threshold = _DDF_RAY_THRESHOLD

    def file_counts(path: str) -> dict[str, int]:
        # the tombstones in the file's local numbering: a file that
        # maps none of them costs one footer read and no decode
        dead = local_numbers(read_doc_map(path), allt)
        out: dict[str, int] = {}
        if len(dead) == 0:
            return out
        for rb in pq.ParquetFile(path).iter_batches(
                columns=["term", "doc_ids"], use_threads=False):
            # one batched decode and one searchsorted for the batch; a
            # row's hit count is the hit cumsum across its span
            local, offs = decode_doc_ids_batch(rb.column(1).to_pylist(),
                                               block_size)
            hits = np.concatenate(
                ([0], np.cumsum(sorted_member_mask(dead, local))))[offs]
            per_row = np.diff(hits)
            rows = np.flatnonzero(per_row)
            for term, c in zip(rb.column(0).take(pa.array(rows)).to_pylist(),
                               per_row[rows].tolist()):
                out[term] = out.get(term, 0) + c
        return out

    def add(into: dict[str, int], part: dict[str, int]) -> None:
        for t, c in part.items():
            into[t] = into.get(t, 0) + c

    files = sorted(os.path.join(seg_dir, f) for f in os.listdir(seg_dir)
                   if f.endswith(".parquet"))
    counts: dict[str, int] = {}
    if pads.dataset(seg_dir, format="parquet").count_rows() < threshold:
        for p in files:
            add(counts, file_counts(p))
        return counts

    def partials(units: list[dict]) -> list[dict]:
        part: dict[str, int] = {}
        for u in units:
            add(part, file_counts(u["path"]))
        return [part]  # vocab-bounded per task

    for part in map_units(partials, [{"path": p} for p in files]):
        add(counts, part)
    return counts


def upsert_to_index(source, index_dir: str,
                    cfg: IndexBuildConfig | None = None,
                    content_col: str | None = None,
                    id_col: str | None = None,
                    **cfg_overrides) -> dict:
    """Replace-or-insert the delta: tombstone any delta ids already in
    the index, compact to free them (the append collision check forbids
    re-adding a tombstoned id — its row still occupies the docs table),
    then append the delta. Cost = one delete + one compaction + one
    delta scan, so this is the MERGE-batch shape: accumulate updates
    and upsert in batches rather than per document. Returns the final
    stats. Results equal a from-scratch rebuild of the merged corpus
    (tested, bitwise)."""
    from .build import check_format, load_stats

    prev = check_format(load_stats(index_dir), index_dir)
    cfg = build_config(cfg, content_col, id_col, **cfg_overrides)
    # resolve delta ids EXACTLY the way the append will (inherited cols)
    if prev.get("content_col"):
        cfg.content_col = prev["content_col"]
    if "id_col" in prev:
        cfg.id_col = prev["id_col"]
    cfg.num_shards = int(prev["num_shards"])

    from .build import _resolve_doc_ids

    if isinstance(source, rd.Dataset):
        def ids_only(b: pa.Table) -> pa.Table:
            return pa.table({"doc_id": pa.array(
                np.asarray(_resolve_doc_ids(b, cfg)), pa.int64())})

        delta_ids = (source.map_batches(ids_only, batch_format="pyarrow")
                     .to_pandas()["doc_id"].to_numpy())
    else:
        # a path source: read only the id (or key) columns, driver-side
        delta_ids = _resolve_doc_ids(pads.dataset(
            parquet_files(source), format="parquet").to_table(
                columns=[cfg.id_col] if cfg.id_col else list(cfg.key_cols)),
            cfg)
    docs_dir = os.path.join(index_dir, "docs")
    existing = pq.read_table(
        docs_dir, columns=["doc_id"],
        filters=[("doc_id", "in", delta_ids.tolist())])
    if existing.num_rows:
        # logical delete, then SURGICAL purge of exactly those ids —
        # O(affected shard files), not the previous full compact_index
        # (O(index) to upsert one doc); the append below then re-adds
        # the new contents under fresh stats
        delete_from_index(index_dir, existing["doc_id"].to_pylist())
        purge_doc_ids(index_dir, existing["doc_id"].to_pylist())
    # forward the RESOLVED cfg: explicit fields the caller set on their
    # cfg object (batch_size, store_positions, ...) must reach the append
    # leg too, not just the id-resolution above; the explicit col kwargs
    # still travel so append's own mismatch check sees caller intent
    return append_to_index(source, index_dir, cfg=cfg,
                           content_col=content_col, id_col=id_col,
                           **cfg_overrides)


def merge_indexes(sources: list[str], out_dir: str) -> dict:
    """Merge independently built indexes into a NEW index at ``out_dir``
    WITHOUT re-tokenizing — the scale ingestion pattern: build K
    shard-group indexes in parallel jobs (each sees 1/K of the corpus),
    then merging is a file-level union + stats refresh, O(index files),
    no pass over the text. Returns the merged stats.

    Requirements (checked): ≥2 sources sharing num_shards / block_size /
    k1 / b / store_positions / content_col / id_col; disjoint doc-id
    spaces (the build's collision audit runs over the merged PHYSICAL
    docs table — tombstoned rows included, so an id tombstoned in one
    source and live in another is rejected like any collision).

    Sources MAY carry pending tombstones: the merged index unions the
    tombstone sets and sums the per-term deleted-df sidecars (doc
    spaces are disjoint, so the per-source ddf counts are additive and
    the merged correction stays exact — source n_docs/total_len already
    exclude deleted rows, so the summed stats need no adjustment).
    Compacting the merged index purges them physically, bitwise equal
    to a rebuild without the deleted docs (test_merge).

    Like an appended index, the merged index holds one row per (term,
    shard) per source, and may hold the sources' tombstones. Every
    scorer is exact over it (bitwise == a full rebuild's search
    results, pytest), and a follow-up ``compact_index`` leaves one row
    per (term, shard) (compacted merge bitwise == rebuild, including
    positions).

    The term_dict is the sum of the sources' term_dicts (each exact over
    its files) and the sidecar carries each source's entries over under
    the new names, so no segment file is scanned.

    Crash story: ``out_dir`` must be fresh; stats.json is written LAST,
    so an interrupted merge leaves an index that cannot be opened
    (load_stats fails) — delete and re-run. Files are hard-linked when
    the filesystem allows (sources stay untouched either way)."""
    import shutil

    from .build import check_format, load_stats, write_stats

    if len(sources) < 2:
        raise ValueError("merge_indexes needs at least two source indexes")
    stats_list = []
    tomb_arrays = [np.empty(0, np.int64)]
    ddf_parts: list[pa.Table] = []
    for s in sources:
        recover_segments(s)
        recover_appends(s)
        recover_purges(s)
        st = check_format(load_stats(s), s)
        tomb_arrays.append(load_tombstones(s, st))
        if len(tomb_arrays[-1]) and st.get("deleted_df_file"):
            ddf_parts.append(
                pq.read_table(os.path.join(s, st["deleted_df_file"])))
        stats_list.append(st)
    base = stats_list[0]
    # meta_cols must also agree: a union of docs sidecars with
    # different column sets would break stored-_source reads (reindex).
    # A missing key (pre-meta_cols stats) normalizes to the build
    # default — those indexes wrote exactly the default columns
    _default_meta = list(IndexBuildConfig().meta_cols)
    for key in ("num_shards", "block_size", "k1", "b", "content_col",
                "id_col", "store_positions", "meta_cols"):
        vals = {json.dumps(st.get(key) if key != "meta_cols"
                           else (st.get(key) or _default_meta))
                for st in stats_list}
        if len(vals) > 1:
            raise ValueError(
                f"merge_indexes: sources disagree on {key}: {sorted(vals)}")

    if os.path.exists(out_dir) and os.listdir(out_dir):
        raise ValueError(f"out_dir {out_dir!r} exists and is not empty")
    docs_out = os.path.join(out_dir, "docs")
    seg_out = os.path.join(out_dir, "segments")
    os.makedirs(docs_out, exist_ok=True)
    os.makedirs(seg_out, exist_ok=True)

    def link_all(src_sub: str, dst: str, tag: str) -> list[str]:
        names = sorted(os.listdir(src_sub))
        for name in names:
            s_path = os.path.join(src_sub, name)
            d_path = os.path.join(dst, f"{tag}-{name}")
            try:
                os.link(s_path, d_path)
            except OSError:
                shutil.copy2(s_path, d_path)
        return names

    # each source's term_dict is exact over its files, and a link or
    # copy2 keeps a file's size and mtime, so both the term_dict and the
    # sidecar carry over without a segment scan; only a source entry
    # that no longer matches its file is rebuilt from the file
    seg_map: dict[str, dict] = {}
    term_stats = []
    for i, s in enumerate(sources):
        link_all(os.path.join(s, "docs"), docs_out, f"merge{i}")
        try:
            with open(os.path.join(s, SEG_MAP_NAME)) as f:
                src_map = json.load(f)
        except (OSError, ValueError):
            src_map = {}
        for name in link_all(os.path.join(s, "segments"), seg_out,
                             f"merge{i}"):
            if not name.endswith(".parquet"):
                continue
            path = os.path.join(seg_out, f"merge{i}-{name}")
            st, ent = os.stat(path), src_map.get(name)
            seg_map[f"merge{i}-{name}"] = (
                ent if ent and (ent["size"], ent["mtime_ns"])
                == (st.st_size, st.st_mtime_ns)
                else read_seg_map_entry(path, st))
        term_stats.append(pq.read_table(os.path.join(s, "term_dict"),
                                        columns=["term", "df", "cf"]))

    n_docs = sum(int(st["n_docs"]) for st in stats_list)
    total_len = sum(int(st["total_len"]) for st in stats_list)
    check_doc_id_collisions(docs_out, n_docs)

    write_term_dict(os.path.join(out_dir, "term_dict"), term_stats)
    # union the sources' tombstone sets + sum their ddf sidecars
    # (disjoint doc spaces -> additive, exact) into fresh sidecars
    stats = _write_delete_sidecars(
        out_dir, {k: v for k, v in base.items() if k != "last_append_id"},
        np.unique(np.concatenate(tomb_arrays)), ddf_parts or None)
    stats.update({"n_docs": n_docs, "total_len": total_len,
                  "avgdl": (total_len / n_docs) if n_docs else 0.0})
    write_seg_bucket_map(out_dir, seg_map)
    write_stats(out_dir, stats)  # COMMIT POINT — index readable from here
    return stats


# the shard number every writer puts at the end of a segment file's
# name (shard-00003.parquet, append-<id>-shard-00003.parquet,
# merge0-shard-00003.parquet)
_SHARD_FILE = re.compile(r"shard-(\d+)\.parquet$")


def _split_doc_blobs(positions: pa.ChunkedArray, tfs: np.ndarray,
                     keep: np.ndarray) -> pa.Array:
    """Segment-row position blobs → the per-doc blobs a build partition
    stages, for the postings ``keep`` selects (``tfs``: every posting's
    tf, in row order). Each doc's first position is absolute
    (codec.encode_position_lists_arrow), so a doc's blob is the byte slice of
    its row blob ending at the varint that closes its tf-th position:
    no decode and re-encode."""
    from .codec import INT32_OFFSET_LIMIT

    buf = np.frombuffer(b"".join(positions.to_pylist()), dtype=np.uint8)
    varint_ends = np.flatnonzero(buf < 0x80) + 1
    offs = np.concatenate(([0], varint_ends[np.cumsum(tfs) - 1]))
    if offs[-1] >= INT32_OFFSET_LIMIT:
        raise ValueError("position blobs of one compaction task exceed "
                         "int32 offsets")
    blobs = pa.Array.from_buffers(
        pa.binary(), len(tfs),
        [None, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(buf)])
    return blobs.filter(pa.array(keep))


def _kept_postings(table: pa.Table, doc_map: np.ndarray, dead: np.ndarray,
                   block_size: int, store_positions: bool) -> pa.Table:
    """The postings of one segment file's rows ``table`` (local doc
    numbers in its ``doc_map``) without those of the sorted doc ids
    ``dead``, as staged postings (term, doc_id, tf, shard[, pos]) in
    row order — compaction's and purge's one way to drop tombstoned
    postings. ONE batched varint decode for the file (per-row numpy
    fixed cost dominates when rows are small — fine sharding × small
    vocab; measured 30× on 50k tiny rows), then flat filters; the dead
    ids are tested in the file's local numbering and only kept
    postings map back to doc ids."""
    from .codec import decode_doc_ids_batch, decode_tfs_batch
    from .query import sorted_member_mask
    from .schema import local_numbers

    local, offs = decode_doc_ids_batch(table["doc_ids"].to_pylist(),
                                       block_size)
    tfs, _ = decode_tfs_batch(table["tfs"].to_pylist())
    keep = ~sorted_member_mask(local_numbers(doc_map, dead), local)
    rows = pa.array(np.repeat(np.arange(table.num_rows), np.diff(offs))[keep])
    cols = {
        "term": table["term"].combine_chunks().take(rows),
        "doc_id": doc_map[local[keep]].astype(np.int64),
        "tf": tfs[keep].astype(np.int64),
        "shard": table["shard"].combine_chunks().take(rows),
    }
    if store_positions:
        cols["pos"] = _split_doc_blobs(table["positions"], tfs, keep)
    return pa.table(cols)


def compact_index(index_dir: str, num_shards: int | None = None) -> dict:
    """Segment-merge compaction: decode every (term, shard) posting row,
    drop tombstoned postings, re-group, and re-encode exactly ONE row
    per (term, shard) after appends, deletes and merges. The compacted
    index is bitwise equal to a from-scratch rebuild of the same corpus
    (tested).

    ``num_shards``: RESHARD while compacting — the cluster-growth op: a
    64-shard index built for 8 nodes re-shards to 1024 for 128 nodes
    with one compaction's cost, no re-tokenize. Posting shards are
    reassigned per doc (``shard_of(doc_id, S_new)``), the docs table is
    rewritten first (new shard column, tombstoned rows dropped), and
    stats.num_shards lands with the final write. Resharded ==
    built-at-S_new bitwise (tested). The single-process engine stays
    correct at every crash point (scoring never reads docs.shard);
    re-open ShardedQueryEngine pools after.

    Ray pipeline, on the build's own encode (a native groupby sort over
    the exploded postings measured 117 s against the build's 76 s at 2M
    docs/256 shards). With the shard count unchanged, one ``map_units``
    pass runs one unit per shard: it reads the shard's files (base,
    appended, merged — each file's name ends in its shard), keeps its
    postings (``_kept_postings``, as purge does), and encodes ONE
    segment file. A reshard takes two passes: segment-file tasks decode
    rows to postings and stage them like a build partition
    (``checkpoint.write_staged_postings``), then the build's
    ``shard_phase`` encodes each new shard. The first pass's tasks also
    rewrite the docs parts. Both order a shard's rows the
    same way: files in groups of ``len(files) // 64``, each group sorted
    by term. Like a build, the tasks hand back the term_dict partials and
    sidecar entries, so nothing re-reads the new files. Temp dir → swap.
    Output segment rows are bitwise identical to a rebuild's (tested)."""
    import shutil

    from .build import check_format, load_stats
    from .schema import read_doc_map, shard_of

    recover_appends(index_dir)
    recover_purges(index_dir)
    stats = check_format(load_stats(index_dir), index_dir)
    store_positions = bool(stats.get("store_positions"))
    block_size = int(stats["block_size"])
    s_old = int(stats["num_shards"])
    s_new = int(num_shards) if num_shards else s_old
    reshard = s_new != s_old
    segments_dir = os.path.join(index_dir, "segments")
    docs_dir = os.path.join(index_dir, "docs")
    # tombstone purge: compaction drops deleted docs' postings AND doc
    # rows physically; the sorted id set rides each task's closure
    # (delete sets are tiny next to the corpus; ray.put it at 10⁸+)
    tomb = load_tombstones(index_dir, stats)
    encoder = SegmentEncoder(block_size=block_size)

    recover_segments(index_dir)  # heal any half-finished prior swap first

    def swap_in(live: str) -> None:
        # live.compact → live through live.old; recover_segments heals a
        # crash between the two renames
        old = live + ".old"
        shutil.rmtree(old, ignore_errors=True)
        os.rename(live, old)
        try:
            os.rename(live + ".compact", live)
        except OSError:
            os.rename(old, live)  # restore — index stays readable
            raise
        shutil.rmtree(old)

    def swap_in_docs() -> None:
        _maybe_fail("compact_docs")
        swap_in(docs_dir)

    # the docs parts to rewrite into docs.compact (tombstoned rows
    # dropped, the new shard column on a reshard), dealt round-robin
    # onto the segment units: the rewrite rides the segment work's
    # map_units call and adds no task of its own
    docs_tmp = docs_dir + ".compact"
    docs_parts = []
    if reshard or len(tomb):
        shutil.rmtree(docs_tmp, ignore_errors=True)
        os.makedirs(docs_tmp)
        docs_parts = sorted(f for f in os.listdir(docs_dir)
                            if f.endswith(".parquet"))

    def with_docs(units: list[dict]) -> list[dict]:
        for i, f in enumerate(docs_parts):
            units[i % len(units)].setdefault("docs", []).append(f)
        return units

    def rewrite_docs(units: list[dict]) -> None:
        for u in units:
            for f in u.get("docs") or []:
                _rewrite_docs_part(os.path.join(docs_dir, f),
                                   os.path.join(docs_tmp, f), tomb, s_new)

    from .checkpoint import (collect_shards, encode_shard_files, shard_phase,
                             write_staged_postings)

    seg_files = sorted(
        os.path.join(segments_dir, f) for f in os.listdir(segments_dir)
        if f.endswith(".parquet"))
    # the rows of a compacted file come in groups of at most 1/64 of the
    # segment files each, every group sorted by term: the grouping sets
    # the row order of the compacted files, so it depends on the file
    # count alone, never on how many tasks run
    files_per_part = max(1, len(seg_files) // 64)
    groups = [seg_files[i:i + files_per_part]
              for i in range(0, len(seg_files), files_per_part)] or [[]]
    tmp = segments_dir + ".compact"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    out_paths = [os.path.join(tmp, f"shard-{k:05d}.parquet")
                 for k in range(s_new)]

    def postings_of(files: list[str], shard: int | None = None
                    ) -> pa.Table | None:
        # the kept postings of ``files``, or None when they hold none;
        # ``shard``: the one shard the files' names say they hold
        parts = []
        for f in files:
            t = pq.read_table(f, use_threads=False)
            if shard is not None and pc.any(
                    pc.not_equal(t["shard"], shard)).as_py():
                raise ValueError(f"{f} holds rows of a shard other than "
                                 f"{shard}")
            if t.num_rows:
                parts.append(_kept_postings(t, read_doc_map(f), tomb,
                                            block_size, store_positions))
        return pa.concat_tables(parts) if parts else None

    shard_of_file = [_SHARD_FILE.search(f) for f in seg_files]
    if reshard or not all(shard_of_file):
        # postings change shard (or a file's shard is unknown): decode
        # every file into staged parts, one per group, then encode each
        # new shard from them like a build
        stage_dir = os.path.join(index_dir, "stage", "compact-postings")
        shutil.rmtree(stage_dir, ignore_errors=True)
        os.makedirs(stage_dir, exist_ok=True)

        def run_explode(units: list[dict]) -> list[dict]:
            rewrite_docs(units)
            for u in units:
                postings = postings_of(u["files"])
                if postings is None or not postings.num_rows:
                    continue
                if reshard:
                    postings = postings.set_column(
                        postings.column_names.index("shard"), "shard",
                        pa.array(shard_of(postings["doc_id"].to_numpy(),
                                          s_new), pa.int32()))
                write_staged_postings(postings, u["out"])
            return []

        map_units(run_explode, with_docs([
            {"files": g, "out": os.path.join(stage_dir, f"part-{i:05d}.parquet")}
            for i, g in enumerate(groups)]))
        if reshard:
            # docs table first, with the NEW shard column (the rewrite
            # folds the tombstone drop in). Crash between here and the
            # final stats write leaves a fully-correct single-process
            # index (scoring never reads docs.shard); re-running
            # compact_index(num_shards=...) heals.
            swap_in_docs()
        # a fully tombstoned / empty corpus stages nothing: every shard
        # file is then written empty
        out = shard_phase(list(range(s_new)), stage_dir, out_paths, encoder,
                          store_positions)
        shutil.rmtree(stage_dir, ignore_errors=True)
    else:
        # one pass: each unit re-encodes one shard from its own files,
        # each group's rows sorted by term as its staged part would be
        file_shard = {f: int(m.group(1))
                      for f, m in zip(seg_files, shard_of_file)}

        def run_shards(units: list[dict]) -> list[dict]:
            rewrite_docs(units)
            groups_of = {u["shard"]: u["groups"] for u in units}

            def rows_of(shard: int) -> pa.Table:
                parts = [p.sort_by("term") for p in
                         (postings_of(g, shard) for g in groups_of[shard])
                         if p is not None]
                return pa.concat_tables(parts) if parts else pa.table({})

            return [encode_shard_files(
                [u["shard"] for u in units], [u["seg_path"] for u in units],
                rows_of, encoder, store_positions)]

        out = collect_shards(map_units(run_shards, with_docs([
            {"shard": k, "seg_path": out_paths[k],
             "groups": [fs for g in groups
                        if (fs := [f for f in g if file_shard[f] == k])]}
            for k in range(s_new)])))
    swap_in(segments_dir)

    from .build import write_stats

    if stats.pop("deleted_df_file", None) is not None:
        # The segments swap just purged tombstoned postings, so segment
        # dfs are already corrected — a stats.json still pointing at the
        # deleted-df sidecar would make every engine opened in this
        # window subtract the correction AGAIN (double subtraction →
        # inflated idf), and no recovery path re-runs compaction for us.
        # Drop the pointer atomically NOW; tombstones_file stays until
        # the docs swap below so doc-store masking keeps hiding rows the
        # docs table still physically holds (masking alive postings is a
        # no-op). A crash anywhere after this point leaves correct
        # scoring; re-running compact_index is idempotent.
        write_stats(index_dir, stats)

    if len(tomb) and not reshard:
        # swap in the docs table without the tombstoned rows (same
        # .compact → .old swap; recover_segments heals docs/ too).
        # (a reshard already swapped docs, tombstone drop folded in)
        # Ordering keeps every crash point consistent: segments are
        # already purged, but stats still carries tombstones_file until
        # the final write, so engines keep masking (a no-op once purged)
        swap_in_docs()

    term_dict_dir = os.path.join(index_dir, "term_dict")
    shutil.rmtree(term_dict_dir, ignore_errors=True)
    write_term_dict(term_dict_dir, out.term_stats,
                    sum(r["terms"] for r in out.lineage), segments_dir)

    stats["num_shards"] = s_new  # reshard commit rides the final write
    stats.pop("tombstones_file", None)
    stats.pop("n_tombstones", None)
    write_stats(index_dir, stats)
    _sweep_orphan_sidecars(index_dir, stats)  # every delete artifact
    write_seg_bucket_map(index_dir, out.seg_map)  # every file is new
    return stats


def fold_bulk_ops(ops: list[dict], alive: set, id_col: str
                  ) -> tuple[list[dict], dict]:
    """The pure sequential fold behind bulk_apply (ES per-item result
    contract): given the initially-alive id set, walk the batch in
    order tracking per-id liveness, and return (per-item results,
    final per-id effect) where the effect is the doc dict to write or
    None for delete — the LAST successful action per id wins. Separated
    from the I/O so the contract is property-testable against a
    sequential one-op-at-a-time simulator."""
    items: list[dict] = []
    final: dict[int, dict | None] = {}  # id → doc (write) | None (del)

    def cur_alive(did: int) -> bool:
        if did in final:
            return final[did] is not None
        return did in alive

    for i, op in enumerate(ops):
        action = op["op"]
        did = int(op[id_col])
        if action == "create":
            if cur_alive(did):
                items.append({"item": i, "op": action, "id": did,
                              "result": "conflict"})
                continue
            final[did] = {k: v for k, v in op.items() if k != "op"}
            items.append({"item": i, "op": action, "id": did,
                          "result": "created"})
        elif action == "index":
            res = "updated" if cur_alive(did) else "created"
            final[did] = {k: v for k, v in op.items() if k != "op"}
            items.append({"item": i, "op": action, "id": did,
                          "result": res})
        elif action == "update":
            if not cur_alive(did):
                items.append({"item": i, "op": action, "id": did,
                              "result": "document_missing"})
                continue
            final[did] = {k: v for k, v in op.items() if k != "op"}
            items.append({"item": i, "op": action, "id": did,
                          "result": "updated"})
        elif action == "delete":
            res = "deleted" if cur_alive(did) else "not_found"
            final[did] = None
            items.append({"item": i, "op": action, "id": did,
                          "result": res})
        else:
            raise ValueError(f"unknown bulk op {action!r}")
    return items, final


def bulk_apply(index_dir: str, ops: list[dict]) -> dict:
    """ES ``_bulk`` analog: ONE mixed batch of actions —
    ``{"op": "index"|"create"|"update"|"delete", <id_col>: id, ...doc
    fields}`` — applied to a live index with the ES per-item result
    contract. Actions fold SEQUENTIALLY per id against the index's
    alive set ("create" after an in-batch "delete" of the same id
    succeeds; "create" on an alive id is a per-item ``conflict`` that
    does NOT abort the batch — the ES 409 item result; "update"
    requires the doc to exist and replaces it whole — stored fields
    are full documents here; "delete" of a missing id reports
    ``not_found`` and is a no-op). The net effect then applies as ONE
    delete_from_index + ONE upsert_to_index — the MERGE-batch shape: a
    bulk request is client-bounded by definition, so the per-item fold
    is driver-side, while the delete/purge/append legs stay the proven
    distributed paths. NOT atomic (neither is ES's _bulk): a crash
    between the delete and upsert legs leaves deletes applied and
    writes missing — RE-RUNNING the same batch converges to the
    crash-free final state (pytest-pinned; per-item results may
    differ, e.g. an already-applied delete reports not_found).
    Returns {"items": per-item results, "stats": final index
    stats}."""
    from .build import load_stats

    recover_segments(index_dir)
    recover_appends(index_dir)
    recover_purges(index_dir)
    stats = load_stats(index_dir)
    id_col = stats.get("id_col") or None
    if id_col is None:
        raise ValueError(
            "bulk_apply needs an explicit-id index (built with "
            "id_col=...): derived-id indexes would need every op to "
            "carry the key_cols — route those through "
            "delete_from_index / upsert_to_index directly")
    batch_ids = sorted({int(o[id_col]) for o in ops})
    docs_dir = os.path.join(index_dir, "docs")
    present = pq.read_table(docs_dir, columns=["doc_id"],
                            filters=[("doc_id", "in", batch_ids)])
    tombs = set(np.asarray(load_tombstones(index_dir, stats)).tolist())
    alive = set(np.asarray(present["doc_id"].combine_chunks())
                .astype(np.int64).tolist()) - tombs

    items, final = fold_bulk_ops(ops, alive, id_col)
    del_ids = [d for d, v in final.items() if v is None and d in alive]
    writes = [v for v in final.values() if v is not None]
    if del_ids:
        delete_from_index(index_dir, del_ids)
    if writes:
        upsert_to_index(rd.from_arrow(pa.Table.from_pylist(writes)),
                        index_dir)
    return {"items": items, "stats": load_stats(index_dir)}
