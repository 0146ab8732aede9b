"""Deduplication operators for large-scale training-data pipelines.

- exact_dedup:      content-hash groupby, keep min doc_id (SQL-oracle-able)
- minhash_lsh:      shingle → minhash → band → bucket-groupby candidates →
                    signature-Jaccard verify → min-label clustering
- simhash:          64-bit simhash + banded Hamming grouping
- ngram_jaccard:    exact token-set Jaccard pairs (small-side broadcast;
                    the brute-force oracle for the sketch paths)
- duplicate_values: the int64 keys that occur more than once across
                    parquet files (the doc-id uniqueness audit at scale)
- embedding near-dup lives in similarity.py (cosine_pairs)

Scale notes (SURVEY.md §4): candidate generation is a groupby on
(band_id, band_hash) — an all-to-all but on (bands × n_docs) short rows,
pre-filtered to collision buckets (singletons can't pair). The DEFAULT
verify path is ``"inline"``: signature bytes ride the band rows and each
bucket verifies Jaccard locally (no join, no broadcast, unbounded
scale); default clustering is distributed min-label propagation.
``verify="join"`` keeps the pair⋈signature hash-join variant;
``verify="broadcast"`` / ``clustering="driver"`` are the faster opt-ins
below ~10M docs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Min

from ..micros import to_micros
from ..text import tokenize_array

_MERSENNE = np.uint64((1 << 61) - 1)


# ---------------- exact dedup ----------------

def duplicate_values(paths, column: str, num_buckets: int = 64
                     ) -> np.ndarray:
    """Sorted distinct values of the int64 ``column`` that occur more
    than once across the parquet files under ``paths`` (a file, a dir,
    or a list of either): one column-pruned read, a hash-bucket shuffle
    of that column only, and a vectorized per-bucket duplicate scan (a
    native groupby(column).count() at 10⁸+ distinct keys is the
    measured ~50× trap). Only duplicated values reach the driver —
    normally none."""
    import os

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
        vals = np.asarray(b[column].combine_chunks()).astype(np.int64)
        bk = (pd.util.hash_array(vals.astype(np.uint64))
              % np.uint64(num_buckets)).astype(np.int64)
        return pa.table({column: vals, "__b": bk})

    def dups(g: pa.Table) -> pa.Table:
        vals = np.sort(np.asarray(g[column].combine_chunks())
                       .astype(np.int64))
        d = vals[1:][vals[1:] == vals[:-1]]
        return pa.table({column: pa.array(np.unique(d), pa.int64())})

    rows = (rd.read_parquet(files, columns=[column])
            .map_batches(bucketize, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(dups, batch_format="pyarrow")
            .take_all())
    return np.sort(np.asarray([r[column] for r in rows], dtype=np.int64))


def add_content_hash(batch: pa.Table, text_col: str = "text",
                     algo: str = "md5") -> pa.Table:
    import hashlib

    vals = batch[text_col].to_pylist()
    h = [getattr(hashlib, algo)((v or "").encode()).hexdigest() for v in vals]
    return batch.append_column("content_hash", pa.array(h, type=pa.string()))


def exact_dedup_groups(ds: Dataset, text_col: str = "text",
                       id_col: str = "doc_id") -> Dataset:
    """(content_hash, keep_id, n_dups): one row per distinct content; the
    kept representative is the min doc_id. The shuffle carries ONLY
    (content_hash, id) — the text column is dropped before the groupby
    (at 100 TB that's the difference between shuffling 32-byte hashes
    and shuffling the corpus)."""
    def hash_project(b: pa.Table) -> pa.Table:
        h = add_content_hash(b, text_col)
        return pa.table({"content_hash": h["content_hash"],
                         id_col: b[id_col]})

    return (
        ds.map_batches(hash_project, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(Min(id_col, alias_name="keep_id"), Count(alias_name="n_dups"))
    )


def exact_dedup_drop_ids(ds: Dataset, text_col: str = "text",
                         id_col: str = "doc_id",
                         num_buckets: int = 32) -> Dataset:
    """Ids of rows that LOSE exact dedup (every row whose content hash
    is shared with a smaller id). The shuffle carries only
    (content_hash, id); per-bucket min/compare is vectorized pandas —
    one projected all-to-all, never the text."""
    def hash_project(b: pa.Table) -> pa.Table:
        h = add_content_hash(b, text_col)
        hh = pd.util.hash_array(
            np.asarray(h["content_hash"].to_pylist(), dtype=object))
        return pa.table({
            "content_hash": h["content_hash"],
            id_col: b[id_col],
            "__bucket": pa.array((hh % np.uint64(num_buckets))
                                 .astype(np.int64)),
        })

    def drops_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        keep = df.groupby("content_hash", sort=False)[id_col].transform("min")
        out = df.loc[df[id_col] != keep, [id_col]]
        return out.reset_index(drop=True)

    return (ds.map_batches(hash_project, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(drops_in_bucket, batch_format="pandas"))


def dedup_corpus(ds: Dataset, text_col: str = "text",
                 id_col: str = "doc_id", lookup: str = "broadcast",
                 num_buckets: int = 32) -> Dataset:
    """The corpus transform a pipeline user actually wants: the INPUT
    rows (all columns) minus exact duplicates — one representative (min
    id) per distinct ``text_col``.

    Two-pass, text never shuffled: pass 1 computes the drop-id set over
    projected (hash, id) rows; pass 2 re-reads the corpus and filters.
    ``lookup="broadcast"`` ships the sorted drop-id array once via
    ray.put — sized by the DUPLICATE count, not the corpus (8 B per
    duplicate row; the right default up to ~10⁹ dups).
    ``lookup="join"`` bucket-anti-joins the corpus against the drop ids
    by id hash — unbounded, at the cost of shuffling the corpus rows
    once. Identical results (tested)."""
    drops = exact_dedup_drop_ids(ds, text_col, id_col, num_buckets)

    if lookup == "broadcast":
        pdf = drops.to_pandas()
        drop_arr = (np.sort(pdf[id_col].to_numpy().astype(np.int64))
                    if id_col in pdf.columns
                    else np.empty(0, np.int64))  # dup-free corpus
        drop_ref = ray.put(drop_arr)

        def keep_batch(b: pa.Table) -> pa.Table:
            d = ray.get(drop_ref)
            ids = np.asarray(b[id_col].combine_chunks()).astype(np.int64)
            if len(d) == 0:
                return b
            pos = np.searchsorted(d, ids)
            hit = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == ids)
            return b.filter(pa.array(~hit))

        return ds.map_batches(keep_batch, batch_format="pyarrow")

    # lookup="join": bucket both sides by id hash, per-bucket anti-join
    sch = ds.schema()
    names, types = list(sch.names), list(sch.types)

    def tag_corpus(b: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            np.asarray(b[id_col].combine_chunks()).astype(np.int64))
        return b.append_column("__bucket", pa.array(
            (h % np.uint64(num_buckets)).astype(np.int64))
        ).append_column("__drop", pa.array(
            np.zeros(b.num_rows, dtype=np.int8)))

    def tag_drops(b: pa.Table) -> pa.Table:
        ids = b[id_col].combine_chunks()
        h = pd.util.hash_array(np.asarray(ids).astype(np.int64))
        cols = {}
        for name, typ in zip(names, types):
            cols[name] = (ids if name == id_col
                          else pa.nulls(b.num_rows, type=typ))
        cols["__bucket"] = pa.array((h % np.uint64(num_buckets))
                                    .astype(np.int64))
        cols["__drop"] = pa.array(np.ones(b.num_rows, dtype=np.int8))
        return pa.table(cols)

    tagged = ds.map_batches(tag_corpus, batch_format="pyarrow").union(
        drops.map_batches(tag_drops, batch_format="pyarrow"))

    def anti_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        drop_ids = df.loc[df["__drop"] == 1, id_col].to_numpy()
        keep = df[df["__drop"] == 0]
        if len(drop_ids):
            keep = keep[~keep[id_col].isin(drop_ids)]
        return keep[names].reset_index(drop=True)

    return tagged.groupby("__bucket").map_groups(anti_in_bucket,
                                                 batch_format="pandas")


# ---------------- minhash ----------------

def _minhash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signatures_batch(batch: pa.Table, text_col: str, id_col: str,
                             num_perm: int, shingle_k: int,
                             a: np.ndarray, b: np.ndarray,
                             hash_fn: str = "pd") -> pa.Table:
    """Per-doc minhash signature over token k-shingles. Fully vectorized:
    shingle identity = rolling polynomial hash over per-token hashes (no
    string building), permuted with (a·h+b) Mersenne-folded, per-doc min
    via np.minimum.reduceat.

    ``hash_fn``: "pd" (pandas hash, fastest) or "md5" (md5-low64 ==
    DuckDB md5_number_lower — with shingle_k=1 the whole signature chain
    becomes SQL-reproducible, which is how minhash_search gets its
    oracle)."""
    content = batch[text_col].combine_chunks()
    flat, doc_idx, doc_lens = tokenize_array(content)
    n = len(content)
    sigs = np.full((n, num_perm), np.iinfo(np.int64).max, dtype=np.uint64)
    if len(flat):
        # shingle identity via rolling polynomial hash of token hashes —
        # no string building, fully vectorized (shingle h = ((h0·C+h1)·C+h2));
        # hash the dictionary-encoded uniques only, gather by code
        if hash_fn == "md5":
            tok_h = md5_low64_arrow(flat)
        else:
            d = flat.dictionary_encode()
            tok_h = pd.util.hash_array(
                np.asarray(d.dictionary.to_pylist(), dtype=object)
            ).astype(np.uint64)[np.asarray(d.indices).astype(np.int64)]
        C = np.uint64(0x100000001B3)
        hs = [tok_h.copy()]           # hs[j]: window hash of length j+1
        valids = [np.ones(len(tok_h), dtype=bool)]
        with np.errstate(over="ignore"):
            h = tok_h.copy()
            valid = valids[0].copy()
            for j in range(1, shingle_k):
                nxt_h = np.roll(tok_h, -j)
                same = np.roll(doc_idx, -j) == doc_idx
                same[len(tok_h) - j:] = False
                h = h * C + nxt_h
                valid &= same
                hs.append(h.copy())
                valids.append(valid.copy())
        sel_h, sel_valid = hs[-1].copy(), valids[-1].copy()
        # docs shorter than shingle_k get one whole-doc shingle
        # (k = min(shingle_k, len), mirroring the truncated window):
        # use the window hash of exactly their length at their start
        starts = np.concatenate(([0], np.cumsum(doc_lens)))[:-1]
        for L in range(1, shingle_k):
            pos = starts[doc_lens == L]
            if len(pos):
                sel_valid[pos] = True
                sel_h[pos] = hs[L - 1][pos]
        sdoc = doc_idx[sel_valid]
        h = sel_h[sel_valid]
        if len(h):
            # docs are contiguous in sdoc
            bounds = np.concatenate(([0], np.flatnonzero(np.diff(sdoc)) + 1))
            mins = np.empty((len(bounds), num_perm), dtype=np.uint64)
            x = np.empty(len(h), dtype=np.uint64)
            tmp = np.empty(len(h), dtype=np.uint64)
            with np.errstate(over="ignore"):
                # per-perm 1D in-place pipeline; the (n, num_perm) 2D
                # broadcast version allocated 3 n×perm uint64 temporaries
                # and ran 33× slower (memory-bound, measured). Mersenne
                # fold: x mod (2^61-1) via shift+mask — one fold keeps
                # values < 2^62 and deterministic, all minhash needs.
                for i in range(num_perm):
                    np.multiply(h, a[i], out=x)
                    x += b[i]
                    np.right_shift(x, np.uint64(61), out=tmp)
                    x &= _MERSENNE
                    x += tmp
                    mins[:, i] = np.minimum.reduceat(x, bounds)
            sigs[sdoc[bounds]] = mins
    return pa.table({
        "doc_id": batch[id_col].combine_chunks(),
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).view(np.int64)), num_perm),
        "n_tokens": doc_lens,
    })


def minhash_signatures(ds: Dataset, text_col: str = "text",
                       id_col: str = "doc_id", num_perm: int = 128,
                       shingle_k: int = 3, seed: int = 7,
                       hash_fn: str = "pd") -> Dataset:
    a, b = _minhash_params(num_perm, seed)

    def fn(batch: pa.Table) -> pa.Table:
        return minhash_signatures_batch(batch, text_col, id_col,
                                        num_perm, shingle_k, a, b, hash_fn)

    return ds.map_batches(fn, batch_format="pyarrow")


def _bands_batch(batch: pa.Table, num_bands: int, num_perm: int,
                 carry_sig: bool = False) -> pa.Table:
    rows_per_band = num_perm // num_bands
    sig = np.asarray(batch["sig"].combine_chunks().flatten()).reshape(-1, num_perm)
    doc = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
    n = len(doc)
    band_hash = np.empty((n, num_bands), dtype=np.int64)
    for bnd in range(num_bands):
        seg = sig[:, bnd * rows_per_band:(bnd + 1) * rows_per_band]
        band_hash[:, bnd] = pd.util.hash_array(
            np.ascontiguousarray(seg).view(
                [("", seg.dtype)] * rows_per_band).ravel()).view(np.int64)
    cols = {
        "doc_id": pa.array(np.repeat(doc, num_bands)),
        "band": pa.array(np.tile(np.arange(num_bands, dtype=np.int32), n)),
        "band_hash": pa.array(band_hash.reshape(-1)),
    }
    if carry_sig:
        # signature travels with the band row as opaque binary (list
        # columns are mangled by pandas group/merge paths) so the bucket
        # group can verify Jaccard locally without a join or broadcast
        import pyarrow.compute as pc

        raw = np.ascontiguousarray(sig).tobytes()
        w = num_perm * 8
        per_row = pa.array([raw[i * w:(i + 1) * w] for i in range(n)],
                           pa.binary())
        cols["sig"] = pc.take(per_row, pa.array(np.repeat(np.arange(n),
                                                          num_bands)))
    return pa.table(cols)


def _filter_collision_buckets(bands: Dataset,
                              broadcast_limit: int = 2_000_000
                              ) -> Dataset | None:
    """Drop rows whose (band, band_hash) bucket has a single member —
    they can't form pairs, yet each would cost a per-group map_groups
    call downstream (in a mostly-unique corpus that's ~95% of buckets).
    The surviving-key set is O(collision buckets): broadcast-filtered
    when small, hash-joined when large (both unbounded-scale safe).
    Returns None when no bucket has ≥2 members. Key folding
    (band_hash·64 + band) may alias buckets at >64 bands — aliasing only
    admits extra rows; the downstream exact (band, band_hash) groupby is
    unaffected."""
    import pyarrow.compute as pc

    def bkey(t: pa.Table) -> pa.Array:
        with np.errstate(over="ignore"):
            k = (np.asarray(t["band_hash"].combine_chunks()).astype(np.int64)
                 * np.int64(64)
                 + np.asarray(t["band"].combine_chunks()).astype(np.int64))
        return pa.array(k)

    sizes = bands.groupby(["band", "band_hash"]).count()
    hot = sizes.map_batches(
        lambda t: pa.table({"bkey": bkey(t)}).filter(
            pc.greater(t["count()"], 1)),
        batch_format="pyarrow").materialize()
    n_hot = hot.count()
    if n_hot == 0:
        return None
    if n_hot <= broadcast_limit:
        hot_keys = ray.put(np.sort(np.asarray(
            hot.to_pandas()["bkey"]).astype(np.int64)))

        def keep_hot(t: pa.Table) -> pa.Table:
            keys = ray.get(hot_keys)
            k = np.asarray(bkey(t))
            pos = np.searchsorted(keys, k)
            pos = np.clip(pos, 0, len(keys) - 1)
            return t.filter(pa.array(keys[pos] == k))

        return bands.map_batches(keep_hot, batch_format="pyarrow")
    from .joins import hash_join

    tagged = bands.map_batches(
        lambda t: t.append_column("bkey", bkey(t)), batch_format="pyarrow")
    return hash_join(tagged, hot, on="bkey").drop_columns(["bkey"])


def minhash_lsh_clusters(ds: Dataset, text_col: str = "text",
                         id_col: str = "doc_id", num_perm: int = 128,
                         num_bands: int = 16, shingle_k: int = 3,
                         threshold: float = 0.8, seed: int = 7,
                         max_iters: int = 10,
                         clustering: str = "auto",
                         verify: str = "inline",
                         max_bucket_pairs_ids: int = 256,
                         stats_out: dict | None = None,
                         hash_fn: str = "pd",
                         num_buckets: int = 16) -> Dataset:
    """(doc_id, cluster_id): connected components over verified near-dup
    pairs; singletons keep cluster_id == doc_id.

    Stages: signatures → band explode → groupby(band, band_hash) candidate
    pairs → signature-Jaccard ≥ threshold verify → min-label propagation
    until fixpoint.

    ``clustering="auto"`` (default) routes by verified-edge count:
    ≤ 2M edges → the driver union-loop (sub-second, edges fit trivially),
    above → ``"distributed"``, the Dataset-native label-propagation
    rounds (functions/joins.py propagate_min_labels_ds — label table a
    Dataset end to end, driver state O(1)). Both explicit modes remain;
    identical results (tested).

    ``verify="inline"`` (default) carries the signature bytes with each
    band row so the bucket group verifies signature-Jaccard locally —
    no join, no broadcast, per-group memory bounded by
    ``max_bucket_pairs_ids``; the unbounded-scale path. ``"join"``
    hash-joins candidate pairs against the signatures table twice
    (a-side, b-side) — also unbounded, cheaper band-shuffle payload at
    the cost of two extra shuffles. ``"broadcast"`` ships the signature
    matrix once via ray.put (fastest ≤ ~10M docs at num_perm=128,
    opt-in). Identical results (tested).

    Driver-memory note: with the defaults (inline verify + distributed
    clustering) every stage — signatures, banding, verify, node set,
    label propagation — is a Dataset end to end; driver-resident state
    is O(1) scalars per propagation round. Only the opt-in
    ``verify="broadcast"`` / ``clustering="driver"`` modes hold
    per-doc arrays on the driver.

    ``hash_fn="md5"`` + ``shingle_k=1`` makes the whole chain
    (signatures → bands → verify → clusters) DuckDB-reproducible
    (md5_number_lower token hashing) — how the driver's
    minhash_clusters entry gets its SQL oracle.

    ``num_buckets`` (inline verify): coarse-bucket count for the single
    verify shuffle — size to the input (band rows / ~4M per bucket at
    scale); the default fits bench/conformance corpora.

    ``stats_out`` (inline verify only): pass a dict to receive
    ``verified_pairs`` and ``starred_pairs`` — the count of pairs that
    came from degenerate buckets collapsed to a hub star
    (``max_bucket_pairs_ids`` is the knob), making the star trade-off
    auditable instead of silent.
    """
    sigs = minhash_signatures(ds, text_col, id_col, num_perm, shingle_k,
                              seed, hash_fn)
    if verify == "join":
        sigs = sigs.materialize()  # consumed by bands + two join sides

    if verify == "inline":
        bands = sigs.map_batches(
            lambda t: _bands_batch(t, num_bands, num_perm, carry_sig=True),
            batch_format="pyarrow")
        # node set stays a Dataset: distributed clustering never pulls
        # the doc_id array to the driver (driver clustering converts
        # inside _cluster_pairs — small-corpus opt-in)
        nodes = ds.map_batches(
            lambda t: pa.table(
                {"doc_id": t[id_col].combine_chunks().cast(pa.int64())}),
            batch_format="pyarrow")

        # ONE hash-bucket shuffle: (band, band_hash) groups are hashed
        # into num_buckets coarse buckets and each bucket verifies ALL
        # its groups vectorized — singleton groups (the vast majority in
        # a mostly-unique corpus) cost one boolean-mask skip instead of
        # a per-group Ray map_groups call, and the previous separate
        # collision-count groupby (a second full band-table shuffle) is
        # gone entirely. Ray's native groupby on the raw (band,
        # band_hash) key is a global sort shuffle that measured ~5x the
        # cost of this bucketed form at bench scale (the same ~50x
        # lesson as propagate_min_labels_ds at 10^6+ distinct keys).
        def tag_bucket(t: pa.Table) -> pa.Table:
            with np.errstate(over="ignore"):
                k = (np.asarray(t["band_hash"].combine_chunks())
                     .astype(np.int64) * np.int64(64)
                     + np.asarray(t["band"].combine_chunks())
                     .astype(np.int64))
            h = pd.util.hash_array(k)
            return t.append_column("__bucket", pa.array(
                (h % np.uint64(num_buckets)).astype(np.int64)))

        def verify_bucket(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                  "b": pd.Series(dtype=np.int64),
                                  "starred": pd.Series(dtype=np.int8)})
            if df.empty:
                return empty
            df = df.drop_duplicates(["band", "band_hash", "doc_id"])
            # groups contiguous, ids ascending within each group
            df = df.sort_values(["band", "band_hash", "doc_id"],
                                kind="mergesort")
            band = df["band"].to_numpy()
            bh = df["band_hash"].to_numpy()
            ids_all = df["doc_id"].to_numpy().astype(np.int64)
            sig_all = df["sig"].to_numpy()
            new_grp = np.empty(len(df), dtype=bool)
            new_grp[0] = True
            new_grp[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
            starts = np.flatnonzero(new_grp)
            ends = np.concatenate((starts[1:], [len(df)]))
            outs_a: list[np.ndarray] = []
            outs_b: list[np.ndarray] = []
            outs_s: list[np.ndarray] = []
            # python loop over COLLISION groups only (singletons skip);
            # per-group pair count bounded by max_bucket_pairs_ids
            for s, e in zip(starts, ends):
                if e - s < 2:
                    continue
                ids = ids_all[s:e]
                mat = np.frombuffer(b"".join(sig_all[s:e]),
                                    dtype=np.uint64).reshape(-1, num_perm)
                if len(ids) > max_bucket_pairs_ids:
                    # degenerate bucket: star around the min id (see
                    # pairs_in_bucket below for the trade-off), verified
                    # against the hub's full signature; pairs are marked
                    # starred so callers can audit via stats_out
                    est = (mat[0] == mat[1:]).mean(axis=1)
                    keep = est >= threshold
                    outs_a.append(np.full(int(keep.sum()), ids[0],
                                          dtype=np.int64))
                    outs_b.append(ids[1:][keep])
                    outs_s.append(np.ones(int(keep.sum()), dtype=np.int8))
                else:
                    ai, bi = np.triu_indices(len(ids), k=1)
                    est = (mat[ai] == mat[bi]).mean(axis=1)
                    keep = est >= threshold
                    outs_a.append(ids[ai][keep])
                    outs_b.append(ids[bi][keep])
                    outs_s.append(np.zeros(int(keep.sum()), dtype=np.int8))
            if not outs_a:
                return empty
            return pd.DataFrame({"a": np.concatenate(outs_a),
                                 "b": np.concatenate(outs_b),
                                 "starred": np.concatenate(outs_s)})

        # pairs shared by several bands stay duplicated here — min-label
        # propagation and the driver drop_duplicates are both idempotent
        # to repeated edges, so no global pair-dedup shuffle is needed
        verified = (bands.map_batches(tag_bucket, batch_format="pyarrow")
                    .groupby("__bucket")
                    .map_groups(verify_bucket, batch_format="pandas"))
        if stats_out is not None:
            # audit channel for the degenerate-bucket star trade-off:
            # how many verified pairs came from starred (hub-only) buckets
            verified = verified.materialize()
            stats_out["verified_pairs"] = verified.count()
            stats_out["starred_pairs"] = int(verified.sum("starred") or 0)
        return _cluster_pairs(verified, nodes, clustering, max_iters)

    def pairs_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(group["doc_id"].to_numpy())
        if len(ids) < 2:
            # typed empty — untyped {} empties break downstream groupby
            # schema unification
            return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                 "b": pd.Series(dtype=np.int64)})
        if len(ids) > max_bucket_pairs_ids:
            # degenerate bucket (e.g. thousands of exact duplicates):
            # full pairing is O(n²); a star around the min id keeps every
            # member connected for clustering at O(n). Trade-off: if the
            # hub fails signature verification against some member, that
            # member may split from the component even though it matches
            # another member — acceptable here because a shared full band
            # at this multiplicity implies near-identical signatures.
            return pd.DataFrame({
                "a": np.full(len(ids) - 1, ids[0], dtype=np.int64),
                "b": ids[1:].astype(np.int64)})
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"a": ids[a].astype(np.int64),
                             "b": ids[b].astype(np.int64)})

    bands = sigs.map_batches(
        lambda t: _bands_batch(t, num_bands, num_perm), batch_format="pyarrow")
    cand = bands.groupby(["band", "band_hash"]).map_groups(
        pairs_in_bucket, batch_format="pandas")

    if verify == "join":
        from .joins import hash_join

        nodes = sigs.select_columns(["doc_id"])
        # dedupe candidate pairs before joining (same pair from many bands)
        cand = cand.groupby(["a", "b"]).map_groups(
            lambda g: g.head(1), batch_format="pandas")
        # signatures travel as opaque binary — list columns get mangled
        # (or rejected) by pandas merges and Acero join payloads alike
        def sig_bin(t: pa.Table, key: str, col: str) -> pa.Table:
            mat = np.asarray(t["sig"].combine_chunks().flatten()).reshape(
                -1, num_perm)
            rows = [mat[i].tobytes() for i in range(mat.shape[0])]
            return pa.table({key: t["doc_id"],
                             col: pa.array(rows, pa.binary())})

        sig_a = sigs.map_batches(lambda t: sig_bin(t, "a", "sig_a"),
                                 batch_format="pyarrow")
        sig_b = sigs.map_batches(lambda t: sig_bin(t, "b", "sig_b"),
                                 batch_format="pyarrow")
        joined = hash_join(hash_join(cand, sig_a, on="a"), sig_b, on="b")

        def compare(batch: pd.DataFrame) -> pd.DataFrame:
            if batch.empty:
                return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                                     "b": pd.Series(dtype=np.int64)})
            sa = np.frombuffer(b"".join(batch["sig_a"]),
                               dtype=np.int64).reshape(-1, num_perm)
            sb = np.frombuffer(b"".join(batch["sig_b"]),
                               dtype=np.int64).reshape(-1, num_perm)
            est = (sa == sb).mean(axis=1)
            keep = est >= threshold
            return pd.DataFrame({
                "a": batch["a"].to_numpy()[keep].astype(np.int64),
                "b": batch["b"].to_numpy()[keep].astype(np.int64)})

        verified = joined.map_batches(compare, batch_format="pandas")
    else:
        sigs_mat = sigs.to_pandas()
        sig_arr = np.stack(sigs_mat["sig"].to_numpy()).astype(np.int64)
        doc_arr = sigs_mat["doc_id"].to_numpy().astype(np.int64)
        order = np.argsort(doc_arr)
        doc_arr, sig_arr = doc_arr[order], sig_arr[order]
        sig_ref = ray.put((doc_arr, sig_arr))

        def verify_fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"a": pa.array([], pa.int64()),
                                 "b": pa.array([], pa.int64())})
            docs, sigm = ray.get(sig_ref)
            a = np.asarray(batch["a"].combine_chunks()).astype(np.int64)
            b = np.asarray(batch["b"].combine_chunks()).astype(np.int64)
            ia = np.searchsorted(docs, a)
            ib = np.searchsorted(docs, b)
            est = (sigm[ia] == sigm[ib]).mean(axis=1)
            keep = est >= threshold
            return pa.table({"a": a[keep], "b": b[keep]})

        # pair dedup happens driver-side with the clustering below (the
        # verified pair set is tiny vs the corpus at broadcast scales)
        verified = cand.map_batches(verify_fn, batch_format="pyarrow")
        nodes = doc_arr

    return _cluster_pairs(verified, nodes, clustering, max_iters)


def _cluster_pairs(verified: Dataset, nodes, clustering: str,
                   max_iters: int) -> Dataset:
    """Connected components over verified pair edges → (doc_id,
    cluster_id); singletons keep their own id. ``distributed`` =
    Dataset-native min-label propagation (scale path — the label table
    never touches the driver), ``driver`` = edge loop on the driver
    (small-corpus opt-in). ``nodes`` is a Dataset with an int64 doc_id
    column, or an np.ndarray of ids (broadcast-verify callers, whose
    ids are already driver-resident)."""
    if clustering == "auto":
        # size-aware routing, identical results either way (tested):
        # below ~2M verified edges the driver union-loop finishes in
        # well under a second, while the Dataset-native rounds pay
        # multiple fixed-cost shuffles; above it the edge list is not
        # driver material and the distributed path is the only one
        verified = verified.materialize()
        clustering = ("driver" if verified.count() <= 2_000_000
                      else "distributed")
    if clustering == "distributed":
        from .joins import propagate_min_labels_ds

        if isinstance(nodes, np.ndarray):
            nodes = rd.from_arrow(pa.table(
                {"doc_id": pa.array(nodes, pa.int64())}))
        return propagate_min_labels_ds(verified, nodes,
                                       max_iters=max_iters)

    if not isinstance(nodes, np.ndarray):
        nodes = np.asarray(
            nodes.to_pandas()["doc_id"]).astype(np.int64)
    pairs_pdf = verified.to_pandas().drop_duplicates(["a", "b"])
    label = {int(d): int(d) for d in nodes}
    edges = list(zip(pairs_pdf["a"].astype(int), pairs_pdf["b"].astype(int)))
    for _ in range(max_iters):
        changed = False
        for x, y in edges:
            m = min(label[x], label[y])
            if label[x] != m or label[y] != m:
                label[x] = label[y] = m
                changed = True
        if not changed:
            break
    out = pa.table({
        "doc_id": np.array(sorted(label), dtype=np.int64),
        "cluster_id": np.array([label[d] for d in sorted(label)], dtype=np.int64),
    })
    return rd.from_arrow(out)


# ---------------- simhash ----------------

_MD5_CACHE: dict[str, int] = {}


def md5_low64(tokens: np.ndarray) -> np.ndarray:
    """Low 64 bits of md5(token) — little-endian of digest bytes 8..16,
    bit-identical to DuckDB's ``md5_number_lower`` so simhash is
    SQL-oracleable. Uniquified per batch with a per-process cache
    (Zipfian vocab → high hit rate; the md5 loop runs only on
    cache-missing unique tokens)."""
    uniq, inv = np.unique(tokens, return_inverse=True)
    return _md5_uniques(list(uniq))[inv]


def md5_low64_arrow(flat: pa.Array) -> np.ndarray:
    """md5_low64 over an Arrow string array without materializing every
    token as a Python object: dictionary-encode in C, hash only the
    (few) unique strings, gather by code."""
    d = flat.dictionary_encode()
    codes = np.asarray(d.indices).astype(np.int64)
    if len(d.dictionary) >= _MD5_DUCK_MIN:
        # open-vocab fast path: hash the dictionary array in DuckDB
        # WITHOUT materializing Python strings (to_pylist was the cost
        # at 10M uniques); re-hashing warm tokens at C++ speed beats
        # per-token cache lookups at this size
        h = _md5_batch_duckdb(d.dictionary)
        if h is not None:
            return h[codes]
    return _md5_uniques(d.dictionary.to_pylist())[codes]


_MD5_DUCK = None
_MD5_DUCK_MIN = 4096  # below this, connection overhead beats the loop
_MD5_CACHE_CAP = 1_000_000


def _md5_batch_duckdb(tokens: list) -> np.ndarray | None:
    """Vectorized md5-low64 for a cache-miss batch via an in-process
    DuckDB connection: ``md5_number_lower`` IS this repo's hash
    convention (every dedup oracle compares against it), so this is
    the same function at C++ speed — measured ~5x the hashlib loop at
    1M uniques, which is what retires the last per-row Python on a
    default path when the vocabulary is OPEN (URLs/hashes: every token
    unique, the cache never warms). One connection per process, lazy;
    ``threads=1`` per CLAUDE.md rule 3. Returns None if duckdb is
    unavailable (callers fall back to the loop)."""
    global _MD5_DUCK
    try:
        import duckdb
    except ImportError:  # pragma: no cover - duckdb is baked in
        return None
    if _MD5_DUCK is None:
        _MD5_DUCK = duckdb.connect()
        _MD5_DUCK.execute("SET threads=1")
    if isinstance(tokens, pa.Array):
        arr = pa.table({"t": tokens.cast(pa.string())})
    else:
        arr = pa.table({"t": pa.array(tokens, pa.string())})
    _MD5_DUCK.register("_md5_in", arr)
    try:
        out = _MD5_DUCK.execute(
            "SELECT md5_number_lower(t) AS h FROM _md5_in"
        ).fetch_arrow_table()["h"]
    finally:
        _MD5_DUCK.unregister("_md5_in")
    return np.asarray(out.combine_chunks()).astype(np.uint64)


def _md5_uniques(uniq: list) -> np.ndarray:
    import hashlib
    import struct

    vals = np.empty(len(uniq), dtype=np.uint64)
    misses = []
    for i, t in enumerate(uniq):
        v = _MD5_CACHE.get(t)
        if v is None:
            misses.append(i)
        else:
            vals[i] = v
    if not misses:
        return vals
    hashed = (_md5_batch_duckdb([uniq[i] for i in misses])
              if len(misses) >= _MD5_DUCK_MIN else None)
    if hashed is not None:
        vals[np.asarray(misses, dtype=np.int64)] = hashed
        room = _MD5_CACHE_CAP - len(_MD5_CACHE)
        for j in range(min(room, len(misses))):
            _MD5_CACHE[uniq[misses[j]]] = int(hashed[j])
    else:
        for i in misses:
            t = uniq[i]
            v = struct.unpack("<Q",
                              hashlib.md5(t.encode()).digest()[8:16])[0]
            if len(_MD5_CACHE) < _MD5_CACHE_CAP:
                _MD5_CACHE[t] = v
            vals[i] = v
    return vals


def simhash_batch(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """64-bit simhash over kept tokens (tf-weighted bit votes), vectorized.
    Token hash is md5-low64 (== DuckDB md5_number_lower) so the driver
    entry has an exact SQL oracle."""
    content = batch[text_col].combine_chunks()
    flat, doc_idx, doc_lens = tokenize_array(content)
    n = len(content)
    out = np.zeros((n, 64), dtype=np.int64)
    if len(flat):
        h = md5_low64_arrow(flat)
        # per-bit 1D segment sums (tokens are doc-contiguous) — the 2D
        # bit matrix + np.add.at scatter was the profile hotspot
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(doc_idx)) + 1))
        present = doc_idx[bounds]
        bit = np.empty(len(h), dtype=np.int64)
        for j in range(64):
            np.copyto(bit, ((h >> np.uint64(j)) & np.uint64(1))
                      .astype(np.int64))
            bit *= 2
            bit -= 1
            out[present, j] = np.add.reduceat(bit, bounds)
    sim = ((out > 0).astype(np.uint64)
           << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)
    sim[np.asarray(doc_lens) == 0] = 0
    return pa.table({
        "doc_id": batch[id_col].combine_chunks(),
        "simhash": sim.view(np.int64),
    })


def simhash_signatures(ds: Dataset, text_col: str = "text",
                       id_col: str = "doc_id") -> Dataset:
    return ds.map_batches(lambda b: simhash_batch(b, text_col, id_col),
                          batch_format="pyarrow")


def simhash_near_dup_pairs(ds: Dataset, text_col: str = "text",
                           id_col: str = "doc_id", max_hamming: int = 3,
                           max_bucket_ids: int = 512) -> Dataset:
    """Candidate pairs with Hamming(simhash) ≤ max_hamming via the 4-band
    pigeonhole trick (any pair within distance 3 shares ≥1 of 4 16-bit
    bands), verified exactly."""
    sigs = simhash_signatures(ds, text_col, id_col)

    def bands(batch: pa.Table) -> pa.Table:
        sim = np.asarray(batch["simhash"].combine_chunks()).view(np.uint64)
        doc = np.asarray(batch["doc_id"].combine_chunks()).astype(np.int64)
        parts = [(sim >> np.uint64(16 * i)) & np.uint64(0xFFFF) for i in range(4)]
        return pa.table({
            "doc_id": np.repeat(doc, 4),
            "band": np.tile(np.arange(4, dtype=np.int32), len(doc)),
            "band_hash": np.stack(parts, axis=1).reshape(-1).view(np.int64),
            "simhash": np.repeat(sim.view(np.int64), 4),
        })

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates("doc_id").sort_values("doc_id")
        if len(u) > max_bucket_ids:
            # degenerate bucket (mass duplicates): compare everyone to the
            # min-id hub only — O(n), keeps duplicate groups connected
            u = pd.concat([u.iloc[:1], u.iloc[1:]])
            ids = u["doc_id"].to_numpy()
            sims = u["simhash"].to_numpy().astype(np.int64).view(np.uint64)
            x = sims[0] ^ sims[1:]
            ham = np.zeros(len(x), dtype=np.int64)
            while True:
                nz = x != 0
                if not nz.any():
                    break
                ham[nz] += 1
                x = x & (x - np.uint64(1))
            keep = ham <= max_hamming
            return pd.DataFrame({"a": np.full(int(keep.sum()), ids[0], dtype=np.int64),
                                 "b": ids[1:][keep], "hamming": ham[keep]})
        ids = u["doc_id"].to_numpy()
        sims = u["simhash"].to_numpy().astype(np.int64).view(np.uint64)
        if len(ids) < 2:
            return pd.DataFrame({"a": [], "b": [], "hamming": []})
        ai, bi = np.triu_indices(len(ids), k=1)
        ham = np.zeros(len(ai), dtype=np.int64)
        x = sims[ai] ^ sims[bi]
        while True:
            nz = x != 0
            if not nz.any():
                break
            ham[nz] += 1
            x = x & (x - np.uint64(1))
        keep = ham <= max_hamming
        return pd.DataFrame({"a": ids[ai][keep], "b": ids[bi][keep],
                             "hamming": ham[keep]})

    band_rows = sigs.map_batches(bands, batch_format="pyarrow").materialize()
    band_rows = _filter_collision_buckets(band_rows)
    if band_rows is None:
        return rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                       "b": pa.array([], pa.int64()),
                                       "hamming": pa.array([], pa.int64())}))
    pairs = (band_rows.groupby(["band", "band_hash"])
             .map_groups(pairs_in_bucket, batch_format="pandas"))

    # pair dedup via 32 hash-partitioned vectorized drop_duplicates
    # groups — not one map_groups call per pair
    def tagp(t: pa.Table) -> pa.Table:
        with np.errstate(over="ignore"):
            k = (np.asarray(t["a"].combine_chunks()).astype(np.int64)
                 * np.int64(1_000_003)
                 + np.asarray(t["b"].combine_chunks()).astype(np.int64))
        return t.append_column("__pb", pa.array(k % np.int64(32)))

    return (pairs.map_batches(tagp, batch_format="pyarrow")
            .groupby("__pb")
            .map_groups(lambda g: g.drop_duplicates(["a", "b"])
                        .drop(columns="__pb"), batch_format="pandas"))


# ---------------- exact n-gram Jaccard (brute-force oracle path) ----------------

def ngram_jaccard_pairs(ds: Dataset, text_col: str = "text",
                        id_col: str = "doc_id",
                        threshold: float = 0.5,
                        max_rows: int | None = 100_000) -> Dataset:
    """Exact token-SET Jaccard ≥ threshold over all pairs. The small side
    (full token-set table) is broadcast via ray.put and each batch compares
    its docs against all docs with larger ids — O(n²/2) exact, the ground
    truth the sketch paths approximate. Use only at oracle scales:
    inputs above ``max_rows`` raise toward ``minhash_lsh_clusters`` /
    ``containment_pairs`` (the guard counts the input, which executes
    its lineage once; pass ``max_rows=None`` to skip)."""
    if max_rows is not None:
        n = ds.count()
        if n > max_rows:
            raise ValueError(
                f"ngram_jaccard_pairs is the O(n²) exact-oracle path; input has "
                f"{n} rows > max_rows={max_rows}. Use minhash_lsh_clusters / "
                f"containment_pairs at scale, or pass max_rows=None to force.")
    def tok_sets(batch: pa.Table) -> pa.Table:
        content = batch[text_col].combine_chunks()
        flat, doc_idx, doc_lens = tokenize_array(content)
        toks = np.asarray(flat.to_pylist(), dtype=object)
        starts = np.concatenate(([0], np.cumsum(doc_lens)))
        sets = [sorted(set(toks[starts[i]:starts[i + 1]])) for i in range(len(content))]
        return pa.table({
            "doc_id": batch[id_col].combine_chunks(),
            "tokens": pa.array(sets, type=pa.list_(pa.string())),
        })

    tok_ds = ds.map_batches(tok_sets, batch_format="pyarrow")
    all_pdf = tok_ds.to_pandas().sort_values("doc_id")
    all_ids = all_pdf["doc_id"].to_numpy().astype(np.int64)
    all_sets = [frozenset(t) for t in all_pdf["tokens"]]
    ref = ray.put((all_ids, all_sets))

    def compare(batch: pa.Table) -> pa.Table:
        ids_all, sets_all = ray.get(ref)
        pos = {int(d): i for i, d in enumerate(ids_all)}
        a_out, b_out, j_out = [], [], []
        for d, toks in zip(batch["doc_id"].to_pylist(), batch["tokens"].to_pylist()):
            s = frozenset(toks)
            i0 = pos[int(d)]
            for j in range(i0 + 1, len(ids_all)):
                t = sets_all[j]
                if not s and not t:
                    continue
                inter = len(s & t)
                if inter == 0:
                    continue
                jac = inter / (len(s) + len(t) - inter)
                if jac >= threshold:
                    a_out.append(int(d))
                    b_out.append(int(ids_all[j]))
                    j_out.append(jac)
        return pa.table({
            "a": pa.array(a_out, pa.int64()),
            "b": pa.array(b_out, pa.int64()),
            "jaccard_micros": pa.array(to_micros(np.asarray(j_out, dtype=np.float64)), pa.int64()),
        })

    return tok_ds.map_batches(compare, batch_format="pyarrow")
