"""Offline index integrity audit (``fsck_index``) — the ops tool that
closes the reliability story (journaled commits + crash recovery +
this): verify every structural invariant the engine relies on, and
report violations instead of letting a corrupt index serve wrong
results silently.

Checks (each independent; all violations collected, not just the first):

1. stats.json present with the required keys; an index of another
   format version raises ``ValueError`` (build.check_format) rather
   than being audited with the wrong decoder.
2. docs table: unique doc_id, doc_len > 0, shard == shard_of(doc_id).
3. global stats: n_docs / total_len / avgdl equal the ALIVE docs rows
   (tombstones subtracted), bitwise for avgdl.
4. segments: each file's doc map is strictly ascending; df == decoded
   posting count == tf count; cf == Σtf; local doc numbers strictly
   ascending and below the map's length; every doc id a posting maps
   to exists in the docs table (tombstoned docs stay there until a
   purge; a map may list ids no posting references, which purges
   written before purge re-encoded whole files left behind); the row's
   shard matches its docs' shard; positional rows decode to exactly Σtf
   ascending positions per doc.
5. term_dict == groupby(term).sum(df, cf) over the segment rows.
6. referenced sidecar files (tombstones / deleted-df) exist.
7. one row per key in a file, one file per doc: a (term, shard) key
   repeated inside one segment file, or a doc id that the postings of
   two segment files of one shard both reference, is a writer or copy
   fault, such as a segment file duplicated under a second name.
   Appends and merges add files whose keys repeat those of older
   files, but whose docs are new.
8. seg_bucket_map.json: an entry whose (size, mtime_ns) matches its
   segment file lists exactly that file's term buckets (a wrong entry
   with a matching key would silently prune away a file that holds the
   term; an entry that does not match is stale and readers rebuild it).
9. segment layout: every segment file has exactly the columns and types
   of ``schema.segments_schema`` (``positions`` exactly when
   stats["store_positions"] is set), and its footer carries statistics
   on ``term`` and ``shard`` only (``schema.segment_write_kwargs``). A
   file of an older format, or one written outside that policy, is
   reported.

The audit streams the index artifacts driver-side (they are orders of
magnitude smaller than the corpus); at extreme index sizes run the
segments pass as a Ray ``map_batches`` over the same per-row checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow.parquet as pq

from .build import check_format, load_stats
from .codec import decode_doc_ids, decode_positions, decode_tfs
from .schema import (
    SEG_MAP_NAME,
    SEGMENT_STATS_COLUMNS,
    read_doc_map,
    scan_seg_bucket_map,
    segments_schema,
    shard_of,
)


@dataclass
class FsckReport:
    errors: list[str] = field(default_factory=list)
    checked_segment_rows: int = 0
    checked_docs: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def _err(self, msg: str) -> None:
        if len(self.errors) < 50:  # bounded report
            self.errors.append(msg)


def fsck_index(index_dir: str, check_positions: bool = True) -> FsckReport:
    rep = FsckReport()
    # ---- 1. stats ----
    try:
        stats = load_stats(index_dir)
    except FileNotFoundError:
        rep._err("stats.json missing")
        return rep
    check_format(stats, index_dir)
    for k in ("n_docs", "total_len", "avgdl", "num_shards", "block_size"):
        if k not in stats:
            rep._err(f"stats.json missing key {k!r}")
            return rep
    num_shards = int(stats["num_shards"])
    block_size = int(stats["block_size"])

    # ---- 2. docs table ----
    docs_dir = os.path.join(index_dir, "docs")
    if not os.path.isdir(docs_dir):
        rep._err("docs/ missing")
        return rep
    try:
        t = pq.read_table(docs_dir, columns=["doc_id", "doc_len", "shard"])
    except Exception as ex:
        rep._err(f"docs table unreadable: {ex}")
        return rep
    ids = np.asarray(t["doc_id"].combine_chunks()).astype(np.int64)
    lens = np.asarray(t["doc_len"].combine_chunks()).astype(np.int64)
    shards = np.asarray(t["shard"].combine_chunks()).astype(np.int64)
    rep.checked_docs = len(ids)
    order = np.argsort(ids, kind="stable")
    ids, lens, shards = ids[order], lens[order], shards[order]
    if len(ids) and (ids[1:] == ids[:-1]).any():
        rep._err(f"{int((ids[1:] == ids[:-1]).sum())} duplicate doc_id(s)")
    if (lens <= 0).any():
        rep._err(f"{int((lens <= 0).sum())} docs with doc_len <= 0")
    want_shard = shard_of(ids, num_shards).astype(np.int64)
    if (shards != want_shard).any():
        rep._err(f"{int((shards != want_shard).sum())} docs with wrong shard")

    # ---- 3. global stats vs alive rows ----
    from .append import load_tombstones

    tomb = load_tombstones(index_dir, stats)
    alive = np.ones(len(ids), dtype=bool)
    if len(tomb):
        j = np.minimum(np.searchsorted(tomb, ids), len(tomb) - 1)
        alive = tomb[j] != ids
    n_alive, len_alive = int(alive.sum()), int(lens[alive].sum())
    if int(stats["n_docs"]) != n_alive:
        rep._err(f"stats.n_docs {stats['n_docs']} != alive docs {n_alive}")
    if int(stats["total_len"]) != len_alive:
        rep._err(f"stats.total_len {stats['total_len']} != {len_alive}")
    want_avgdl = (len_alive / n_alive) if n_alive else 0.0
    if float(stats["avgdl"]) != want_avgdl:
        rep._err(f"stats.avgdl {stats['avgdl']} != {want_avgdl}")

    # ---- 6. sidecars referenced by stats exist ----
    for key in ("tombstones_file", "deleted_df_file"):
        name = stats.get(key)
        if name and not os.path.exists(os.path.join(index_dir, name)):
            rep._err(f"stats.{key} -> {name} missing on disk")

    # ---- 4 + 7 + 9. segments ----
    seg_dir = os.path.join(index_dir, "segments")
    if not os.path.isdir(seg_dir):
        rep._err("segments/ missing")
        return rep
    seg_cols = ["term", "shard", "df", "cf", "doc_ids", "tfs"]
    has_pos = bool(stats.get("store_positions")) and check_positions
    if has_pos:
        seg_cols.append("positions")
    td_counts: dict[str, list[int]] = {}
    file_keys: dict[str, set[tuple[str, int]]] = {}
    dup_keys: dict[str, int] = {}
    # (shard, file) -> (doc map, which of its docs a posting references)
    refs: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}
    layout = segments_schema(bool(stats.get("store_positions")))
    for name, rb, doc_map in _segment_batches(seg_dir, seg_cols, layout,
                                              rep):
        seen_keys = file_keys.setdefault(name, set())
        terms = rb.column(0).to_pylist()
        sh = rb.column(1).to_pylist()
        dfs = rb.column(2).to_pylist()
        cfs = rb.column(3).to_pylist()
        blobs = rb.column(4).to_pylist()
        tfbs = rb.column(5).to_pylist()
        pos_b = rb.column(6).to_pylist() if has_pos else [None] * len(terms)
        for term, shard, df, cf, blob, tfb, pb in zip(
                terms, sh, dfs, cfs, blobs, tfbs, pos_b):
            rep.checked_segment_rows += 1
            key = (term, int(shard))
            if key in seen_keys:
                dup_keys[name] = dup_keys.get(name, 0) + 1
            seen_keys.add(key)
            local = decode_doc_ids(blob, block_size)
            p_tfs = decode_tfs(tfb).astype(np.int64)
            if len(local) != df or len(p_tfs) != df:
                rep._err(f"({term!r}, shard {shard}): df={df} but "
                         f"{len(local)} ids / {len(p_tfs)} tfs decode")
                continue
            if int(p_tfs.sum()) != cf:
                rep._err(f"({term!r}, shard {shard}): cf={cf} != "
                         f"Σtf {int(p_tfs.sum())}")
            if len(local) > 1 and not (np.diff(local) > 0).all():
                rep._err(f"({term!r}, shard {shard}): doc numbers not "
                         "strictly ascending")
            if len(local) and int(local.max()) >= len(doc_map):
                rep._err(f"({term!r}, shard {shard}): doc number "
                         f"{int(local.max())} beyond the file's doc map "
                         f"({len(doc_map)} ids)")
                continue
            used = refs.setdefault((key[1], name), (
                doc_map, np.zeros(len(doc_map), dtype=bool)))[1]
            used[local] = True
            p_ids = doc_map[local]
            j = np.searchsorted(ids, p_ids)
            ok = (j < len(ids))
            jj = np.minimum(j, len(ids) - 1)
            known = ok & (ids[jj] == p_ids)
            if not known.all():
                rep._err(f"({term!r}, shard {shard}): "
                         f"{int((~known).sum())} posting doc(s) not in "
                         "the docs table")
            elif (shards[jj] != shard).any():
                rep._err(f"({term!r}, shard {shard}): postings for docs "
                         "of a different shard")
            if has_pos:
                try:
                    pos = decode_positions(pb, p_tfs)
                except Exception as ex:  # truncated / garbled blob
                    rep._err(f"({term!r}, shard {shard}): positions "
                             f"blob undecodable ({ex})")
                    pos = None
                if pos is not None:
                    if len(pos) != int(p_tfs.sum()):
                        rep._err(f"({term!r}, shard {shard}): positions "
                                 f"count {len(pos)} != Σtf")
                    else:
                        ends = np.cumsum(p_tfs)
                        starts = ends - p_tfs
                        d = np.diff(pos)
                        bad = d <= 0
                        bad[starts[1:] - 1] = False  # doc boundaries
                        if bad.any():
                            rep._err(f"({term!r}, shard {shard}): "
                                     "positions not ascending in-doc")
            td_counts.setdefault(term, [0, 0])
            td_counts[term][0] += df
            td_counts[term][1] += cf
    for name, n in dup_keys.items():
        rep._err(f"{name}: {n} duplicate (term, shard) segment row(s)")
    by_shard: dict[int, list[tuple[str, np.ndarray]]] = {}
    for (shard, name), (doc_map, used) in sorted(refs.items()):
        by_shard.setdefault(shard, []).append((name, doc_map[used]))
    for shard, parts in by_shard.items():
        _, counts = np.unique(np.concatenate([p for _, p in parts]),
                              return_counts=True)
        if (counts > 1).any():
            rep._err(f"shard {shard}: {int((counts > 1).sum())} doc id(s) "
                     "referenced by the postings of more than one "
                     f"segment file ({', '.join(n for n, _ in parts)})")

    # ---- 8. file-pruning sidecar ----
    try:
        with open(os.path.join(index_dir, SEG_MAP_NAME)) as f:
            seg_map = json.load(f)
    except FileNotFoundError:
        seg_map = {}
    except ValueError as ex:
        rep._err(f"{SEG_MAP_NAME} unreadable: {ex}")
        seg_map = {}
    for name, want in scan_seg_bucket_map(seg_dir).items():
        ent = seg_map.get(name, {})
        key = ("size", "mtime_ns")
        if ([ent.get(k) for k in key] == [want[k] for k in key]
                and ent.get("buckets") != want["buckets"]):
            rep._err(f"{SEG_MAP_NAME}: entry for {name} matches the file "
                     "but lists other term buckets")

    # ---- 5. term_dict ----
    td_dir = os.path.join(index_dir, "term_dict")
    if not os.path.isdir(td_dir):
        rep._err("term_dict/ missing")
        return rep
    td = pq.read_table(td_dir, columns=["term", "df", "cf"])
    got = dict(zip(td["term"].to_pylist(),
                   zip(td["df"].to_pylist(), td["cf"].to_pylist())))
    if len(got) != len(td_counts):
        rep._err(f"term_dict has {len(got)} terms, segments have "
                 f"{len(td_counts)}")
    else:
        for term, (df, cf) in td_counts.items():
            if got.get(term) != (df, cf):
                rep._err(f"term_dict mismatch for {term!r}: "
                         f"{got.get(term)} != ({df}, {cf})")
                break
    return rep


def _check_layout(name: str, pf: pq.ParquetFile, layout, rep: FsckReport
                  ) -> None:
    """Report a segment file whose columns or footer statistics differ
    from what every writer produces (check 9)."""
    got = [(f.name, str(f.type)) for f in pf.schema_arrow]
    want = [(f.name, str(f.type)) for f in layout]
    if got != want:
        rep._err(f"{name}: segment columns {got} differ from the "
                 f"index format's {want}")
    md = pf.metadata
    extra = sorted({md.row_group(i).column(j).path_in_schema
                    for i in range(md.num_row_groups)
                    for j in range(md.num_columns)
                    if md.row_group(i).column(j).is_stats_set}
                   - set(SEGMENT_STATS_COLUMNS))
    if extra:
        rep._err(f"{name}: footer statistics on {extra}; segment files "
                 f"keep them for {' and '.join(SEGMENT_STATS_COLUMNS)} "
                 "only")


def _segment_batches(seg_dir: str, columns: list[str], layout,
                     rep: FsckReport):
    """(file name, record batch, the file's doc map) over every segment
    file whose doc map is readable and strictly ascending — the rank
    order every local doc number relies on; other files are reported
    and skipped. Each file's layout is checked against ``layout``
    first; a file that lacks one of ``columns`` is skipped after that
    report."""
    for name in sorted(os.listdir(seg_dir)):
        if not name.endswith(".parquet"):
            continue
        path = os.path.join(seg_dir, name)
        pf = pq.ParquetFile(path)
        _check_layout(name, pf, layout, rep)
        if not set(columns) <= set(pf.schema_arrow.names):
            continue
        try:
            doc_map = read_doc_map(path)
        except ValueError as ex:
            rep._err(f"{name}: {ex}")
            continue
        if len(doc_map) > 1 and not (np.diff(doc_map) > 0).all():
            rep._err(f"{name}: doc map not strictly ascending")
            continue
        for rb in pf.iter_batches(columns=columns):
            yield name, rb, doc_map
